# Developer entry points.  `make smoke` is the pre-merge gate: the full
# static-analysis stack plus the driver shape tests.

PYTEST := PYTHONPATH=src python -m pytest

.PHONY: smoke lint lint-compile lint-repro lint-ruff typecheck \
	test bench bench-claims bench-engine bench-section4 bench-user-plane \
	bench-all \
	report trace-demo scenario-smoke scale-smoke planet-scale \
	sanitize-smoke analyze-smoke perfbench-check golden-check

# Aggregate static-analysis gate.  lint-ruff and typecheck no-op with a
# notice when ruff/mypy are not installed (offline containers); CI
# installs both, so they are enforced there.
lint: lint-compile lint-repro lint-ruff typecheck

lint-compile:
	python -m compileall -q src

lint-repro:
	PYTHONPATH=src python -m repro.lint src

lint-ruff:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks; \
	else \
		echo "lint-ruff: ruff not installed, skipping (enforced in CI)"; \
	fi

typecheck:
	@if command -v mypy >/dev/null 2>&1; then \
		mypy src/repro; \
	else \
		echo "typecheck: mypy not installed, skipping (enforced in CI)"; \
	fi

smoke: lint
	$(PYTEST) -q tests/test_section_drivers.py

test:
	$(PYTEST) -q tests/

# Simulated outcomes pinned cell by cell against
# tests/fixtures/golden_digests.json (metrics, fabric counters, trace
# digests).  A refactor must leave it green with the fixture untouched.
golden-check:
	$(PYTEST) -q tests/test_golden_digests.py

# Schedule sanitizer: for every default method x infrastructure cell,
# perturb same-instant NORMAL-priority tie-breaking under a dedicated
# seeded stream and assert metrics/counters/traces stay bit-identical
# to the FIFO baseline.  A failure means results depend on incidental
# event-queue order (see docs/static-analysis.md).
sanitize-smoke:
	PYTHONPATH=src python -m repro sanitize

# The repo benchmark's own tests (perfbench/): tiny traced and untraced
# runs that wrap Resource.request, Environment.run and
# TopologyBuilder.build, so a kernel change that breaks the benchmark
# harness fails here rather than at benchmark time.
perfbench-check:
	PYTHONPATH=src python3 -m pytest perfbench/tests -q

# The scenario registry must enumerate and the paper-baseline scenario
# must run end to end (CI runs the same two commands as a gate).
scenario-smoke:
	PYTHONPATH=src python -m repro scenario run paper-baseline --scale small
	PYTHONPATH=src python -m repro scenario list --json

# Benchmark trajectory: each run appends a timestamped entry to the
# BENCH_engine.json / BENCH_section4.json histories at the repo root;
# check_bench gates the latest entry against the trailing median (>3x
# slower fails).  See docs/performance.md and docs/observability.md.
bench: bench-engine bench-section4 bench-user-plane
	python benchmarks/check_bench.py BENCH_engine.json BENCH_section4.json \
		BENCH_user_plane.json

bench-engine:
	$(PYTEST) benchmarks/test_bench_engine.py --benchmark-only \
		--benchmark-json=.bench_engine.snapshot.json
	python benchmarks/bench_history.py append BENCH_engine.json \
		.bench_engine.snapshot.json

bench-section4:
	$(PYTEST) benchmarks/test_bench_section4.py --benchmark-only \
		--benchmark-json=.bench_section4.snapshot.json
	python benchmarks/bench_history.py append BENCH_section4.json \
		.bench_section4.snapshot.json

bench-user-plane:
	$(PYTEST) benchmarks/test_bench_user_plane.py --benchmark-only \
		--benchmark-json=.bench_user_plane.snapshot.json
	python benchmarks/bench_history.py append BENCH_user_plane.json \
		.bench_user_plane.snapshot.json

bench-all:
	$(PYTEST) benchmarks/ --benchmark-only

# The paper-claim assertions of every bench module (Sections 3 and 5,
# ablations, future work) and the exact kernel-event ceilings, run
# once each without timing.
bench-claims:
	$(PYTEST) -q benchmarks/ --benchmark-disable

# Fig. 20x at CI scale: 10k servers x 100k users through the sharded
# sweep path, with wall-clock and peak-RSS budgets asserted off the
# telemetry rollup (same job as CI's scale-smoke).  Sampled tracing is
# ON (REPRO_TRACE_*: 0.1% rate, rotating JSONL sinks under
# .scale-trace/) so the budgets also prove tracing fits at planet
# scale; the sweep writes live progress to .scale-runs.progress.json,
# tailable from another terminal with
# `python -m repro watch --registry .scale-runs.json`.
scale-smoke:
	REPRO_TRACE_DIR=.scale-trace REPRO_TRACE_RATE=0.001 \
	REPRO_TRACE_BUDGET=128 \
	PYTHONPATH=src python -m repro sweep --methods ttl --scale planet \
		--servers 10000 --users-per-server 10 --user-shards 4 \
		--workers 4 --registry .scale-runs.json
	python benchmarks/check_scale.py .scale-runs.telemetry.json \
		--max-wall-s 420 --max-rss-kb 4000000

# Opt-in planet-scale run: 100k servers x 1M users (aggregate metrics,
# 8 user shards).  Takes minutes and a few GB of RAM; not a CI target.
planet-scale:
	PYTHONPATH=src python -m repro sweep --methods ttl --scale planet \
		--servers 100000 --users-per-server 10 --user-shards 8 \
		--workers 8 --registry .planet-runs.json

# Cross-run analysis gate: `repro analyze` over the checked-in
# BENCH_*.json trajectories.  Fails hard (exit 2) on malformed history
# and renders the self-contained HTML report CI uploads as an artifact
# (see docs/analysis.md).
analyze-smoke:
	PYTHONPATH=src python -m repro analyze BENCH_engine.json \
		BENCH_section4.json BENCH_user_plane.json \
		--html .analysis-report.html
	@test -s .analysis-report.html

report:
	PYTHONPATH=src python examples/regenerate_experiments.py --scale small

# One traced smoke deployment: poll rounds as JSONL plus the per-layer
# cause-attribution table (stderr).
trace-demo:
	PYTHONPATH=src python -m repro trace --method ttl --servers 8 \
		--users-per-server 1 --updates 12 --duration 400 \
		--kind poll_round msg_drop node_down node_up --attribution
