"""The benchmark's own tests (tiny configurations; about a minute).

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import run  # noqa: E402
import worker  # noqa: E402
from layers import ALL_LAYERS, PER_LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS, claim_violations  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_is_traced_and_untraced_identical(name):
    untraced = worker.run_rep(name, 1, traced=False, tiny=True)
    traced = worker.run_rep(name, 1, traced=True, tiny=True)
    assert len(untraced["cells"]) == len(WORKLOADS[name].cells)
    assert not [cell for cell in untraced["cells"] + traced["cells"] if "error" in cell]
    assert run.failed_cells([untraced, traced], None) == 0
    assert run.sampler_problems([traced]) == []
    assert set(traced["layers"]) == {n for n, _ in PER_LAYER_METRICS} - {"trace.overhead"}
    assert traced["layers"]["network.link.msgs_sent"] > 0


def test_sampler_checks_flag_sparse_or_delayed_ticks():
    total = 10.0
    layers = {"%s.self_s" % name: 0.0 for name in ALL_LAYERS}
    layers.update({"cdn.cohort.self_s": total, "trace.total_s": total})
    healthy = {"layers": layers, "samples": 2500, "long_tick_s": 0.5}
    assert run.sampler_problems([healthy]) == []
    sparse = dict(healthy, samples=100)
    assert len(run.sampler_problems([sparse])) == 1
    delayed = dict(healthy, long_tick_s=4.0)
    assert len(run.sampler_problems([delayed])) == 1


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    assert [m["name"] for m in bench["workloads"]] == list(run.WORKLOAD_NAMES)
    assert sorted(run.WORKLOAD_NAMES) == sorted(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(
        run.END_TO_END_METRICS
    )
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(PER_LAYER_METRICS)
    assert len(bench["end_to_end"]) <= 16 and len(bench["per_layer"]) <= 128
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(set(names)) == len(names)
    assert all(NAME.match(name) for name in names + list(run.WORKLOAD_NAMES))
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])


def test_corrupted_digest_counts_as_failed_cell():
    rep = worker.run_rep("push-fanout", 0, traced=False, tiny=True)
    digests = [cell["digest"] for cell in rep["cells"]]
    assert run.failed_cells([rep], digests) == 0
    corrupted = ["0" * 64] + digests[1:]
    assert run.failed_cells([rep], corrupted) == 1
    # Unpinned seed: a repetition that disagrees with the first fails too.
    other = json.loads(json.dumps(rep))
    other["cells"][1]["digest"] = "0" * 64
    assert run.failed_cells([rep, other], None) == 1
    other["cells"][0] = {"cell": "push/unicast", "error": "RuntimeError: boom"}
    assert run.failed_cells([rep, other], None) == 2


def test_push_fanout_has_no_user_visits():
    rep = worker.run_rep("push-fanout", 0, traced=True, tiny=True)
    assert rep["layers"]["cdn.cohort.visits"] == 0
    assert rep["claims"] == []


def test_fig16_claims_flag_a_broken_ordering():
    costs = {"push": 1.0, "invalidation": 2.0, "ttl": 3.0}
    cells = [
        {"cell": "%s/%s" % (m, i), "cost_km_kb": c * (1.0 if i == "unicast" else 0.25)}
        for i in ("unicast", "multicast") for m, c in costs.items()
    ]
    assert claim_violations("fig16-grid", cells) == []
    cells[5]["cost_km_kb"] = 2.9  # ttl/multicast: above 0.6 x unicast
    assert len(claim_violations("fig16-grid", cells)) == 1


def test_pinned_digests_cover_default_and_held_out_seeds():
    with open(run.DIGESTS) as handle:
        data = json.load(handle)
    for name, workload in WORKLOADS.items():
        for seed in (data["default_seed"], data["held_out_seed"]):
            digests = run.load_pinned(name, seed)
            assert digests is not None and len(digests) == len(workload.cells)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig16-grid",
         "--seed", "0", "--seconds", "5", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
