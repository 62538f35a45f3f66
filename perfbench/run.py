"""The repository's benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload fig16-grid --seed 0 --seconds 40 --trace 0

Each repetition runs in a fresh ``worker.py`` process, so peak memory
and cold set-up are per repetition.  Repetitions start until the next
one would end more than half a repetition past ``--seconds``, so runs
average ``--seconds`` (at least one; with ``--trace 1`` untraced and
traced ones alternate, at least one of each).  Every cell's metrics
digest is checked against ``digests.json`` -- or, for a seed with no
pinned digests, against the first repetition -- and the workload's
claims are checked.  The last stdout line is one JSON object with
``correct``, ``attempted`` / ``failed`` (cells) and ``metrics``: the
end-to-end metrics untraced, the per-layer metrics traced.  Exit code 1
means a cell failed or a check did not hold; 2 means the benchmark could
not run at all (no ``src/repro`` beside it).

Every ``REPRO_*`` environment variable is removed from the workers'
environment and recorded, so no stray knob benchmarks another program.
"""

from __future__ import annotations

import argparse
import compileall
import glob
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REPRO_DIR = os.path.join(ROOT, "src", "repro")
OUT_DIR = os.path.join(ROOT, ".perfbench")
DIGESTS = os.path.join(HERE, "digests.json")

sys.path.insert(0, HERE)
from layers import ALL_LAYERS, PER_LAYER_METRICS  # noqa: E402

#: Workload names (kept import-free of ``repro`` so a checkout without
#: ``src`` fails cleanly); ``workloads.WORKLOADS`` holds the definitions.
WORKLOAD_NAMES = ("fig16-grid", "planet-ttl", "push-fanout")

#: End-to-end metrics of an untraced run, with their units.
END_TO_END_METRICS = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("msgs_per_host_s", "1/s"),
    ("peak_rss_mib", "MiB"),
)

#: Largest allowed gap between the summed layer self times and the
#: sampled CPU time: a share of the latter, plus slack for the tail
#: after the last tick, which no sample covers.
LAYER_SUM_TOLERANCE = 0.02
LAYER_SUM_SLACK_S = 0.01

#: Longest allowed mean CPU time per sample: five kernel ticks at 250 Hz.
MAX_MEAN_TICK_S = 0.02

#: Largest allowed share of the sampled CPU time charged by delayed
#: ticks (``layers.LONG_TICK_S``); garbage collections make about 5 % on
#: ``planet-ttl``.
MAX_LONG_TICK_SHARE = 0.15

#: Every repetition must end by then; the whole run must end within 180 s.
DEADLINE_S = 170.0


def load_pinned(workload: str, seed: int) -> Optional[List[str]]:
    with open(DIGESTS) as handle:
        pinned = json.load(handle)["digests"]
    return pinned.get(workload, {}).get(str(seed))


def failed_cells(reps: List[Dict], pinned: Optional[List[str]]) -> int:
    """Cells that raised or whose digest differs from the reference.

    The reference is the pinned digest list, or -- for an unpinned seed
    -- each cell's first digest, so every repetition must agree.
    """
    reference = pinned
    if reference is None:
        columns = zip(*(rep["cells"] for rep in reps))
        reference = [next((c["digest"] for c in column if "digest" in c), None)
                     for column in columns]
    return sum(
        1
        for rep in reps
        for i, cell in enumerate(rep["cells"])
        if "error" in cell or cell["digest"] != reference[i]
    )


def end_to_end(reps: List[Dict]) -> Dict[str, float]:
    """Medians over the untraced repetitions."""

    def per_rep(rep: Dict) -> Dict[str, float]:
        cells = [cell for cell in rep["cells"] if "error" not in cell]
        run_s = sum(cell["run_s"] for cell in cells)
        msgs = sum(cell["msgs_sent"] for cell in cells)
        return {
            "wall_s": rep["wall_s"],
            "setup_s": sum(cell["build_s"] for cell in cells),
            "msgs_per_host_s": msgs / run_s if run_s > 0 else 0.0,
            "peak_rss_mib": rep["peak_rss_mib"],
        }

    rows = [per_rep(rep) for rep in reps]
    return {name: statistics.median(row[name] for row in rows)
            for name, _ in END_TO_END_METRICS}


def per_layer(traced: List[Dict], untraced: List[Dict]) -> Dict[str, float]:
    """Medians over the traced repetitions, plus the tracing overhead."""
    names = [name for name, _ in PER_LAYER_METRICS if name != "trace.overhead"]
    metrics = {name: statistics.median(rep["layers"][name] for rep in traced)
               for name in names}
    metrics["trace.overhead"] = (
        statistics.median(rep["wall_s"] for rep in traced)
        / statistics.median(rep["wall_s"] for rep in untraced)
    )
    return metrics


def sampler_problems(traced: List[Dict]) -> List[str]:
    """Checks on each traced repetition's sampler.

    The layer self times sum to the sampled CPU time by construction
    (each tick charges the time since the previous one), so that check
    fails only if ticks stop.  The sampling rate and the share charged by
    delayed ticks are what show a sampler that cannot attribute time.
    """
    problems = []
    for rep in traced:
        layers = rep["layers"]
        summed = sum(layers["%s.self_s" % name] for name in ALL_LAYERS)
        total = layers["trace.total_s"]
        if abs(summed - total) > LAYER_SUM_TOLERANCE * total + LAYER_SUM_SLACK_S:
            problems.append("layer self times sum to %.4f s, sampled CPU time is %.4f s"
                            % (summed, total))
        # One period of slack: a run shorter than it may see no tick.
        if (rep["samples"] + 1) * MAX_MEAN_TICK_S < total:
            problems.append("%d samples over %.4f s: fewer than one per %g s"
                            % (rep["samples"], total, MAX_MEAN_TICK_S))
        if rep["long_tick_s"] > MAX_LONG_TICK_SHARE * total:
            problems.append("delayed ticks charged %.4f s of %.4f s sampled"
                            % (rep["long_tick_s"], total))
    return problems


def provenance(cleared: List[str], numpy_version: str) -> Dict:
    sources = sorted(glob.glob(os.path.join(REPRO_DIR, "**", "*.py"), recursive=True))
    digest = hashlib.sha256()
    for path in sources:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": nproc,
        "cleared_env": cleared,
    }


def worker_env():
    """The environment without ``REPRO_*`` knobs, and the names removed."""
    cleared = sorted(name for name in os.environ if name.startswith("REPRO_"))
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    return env, cleared


def run_worker(workload: str, seed: int, traced: bool, env: Dict,
               timeout_s: float, spans_out: str = "") -> Dict:
    """One repetition in a fresh ``worker.py`` process; its result dict."""
    command = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", workload, "--seed", str(seed),
        "--trace", "1" if traced else "0", "--spans-out", spans_out,
    ]
    # subprocess.run kills and reaps the worker if it overruns.
    done = subprocess.run(command, env=env, capture_output=True, text=True,
                          timeout=max(1.0, timeout_s))
    if done.returncode != 0:
        raise RuntimeError("worker exited %d:\n%s" % (done.returncode, done.stderr[-2000:]))
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    deadline = started + DEADLINE_S

    if not os.path.isfile(os.path.join(REPRO_DIR, "__init__.py")):
        print("no program to benchmark: %s is missing" % REPRO_DIR, file=sys.stderr)
        return 2
    env, cleared = worker_env()
    os.makedirs(OUT_DIR, exist_ok=True)
    # Byte-compile up front so the first repetition does not pay for it.
    compileall.compile_dir(REPRO_DIR, quiet=1)

    # Untraced first; with --trace 1 the kinds alternate.
    kinds = [False, True] if args.trace else [False]
    reps: List[Dict] = []
    durations: Dict[bool, List[float]] = {False: [], True: []}
    try:
        while True:
            traced = kinds[len(reps) % len(kinds)]
            rep_start = time.monotonic()
            spans_out = os.path.join(OUT_DIR, "spans-%s-seed%d-rep%d.jsonl" % (
                args.workload, args.seed, len(reps))) if traced else ""
            reps.append(run_worker(args.workload, args.seed, traced, env,
                                   deadline - time.monotonic(), spans_out))
            reps[-1]["traced"] = traced
            durations[traced].append(time.monotonic() - rep_start)
            if len(reps) < len(kinds):
                continue
            upcoming = kinds[len(reps) % len(kinds)]
            elapsed = time.monotonic() - started
            if (elapsed + statistics.median(durations[upcoming]) / 2 > args.seconds
                    or elapsed + max(durations[upcoming]) > DEADLINE_S - 10.0):
                break
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
        print("benchmark could not run: %s" % exc, file=sys.stderr)
        return 2

    untraced = [rep for rep in reps if not rep["traced"]]
    traced_reps = [rep for rep in reps if rep["traced"]]
    pinned = load_pinned(args.workload, args.seed)
    failed = failed_cells(reps, pinned)
    attempted = sum(len(rep["cells"]) for rep in reps)
    problems = sorted({p for rep in reps for p in rep["claims"]})
    problems += sampler_problems(traced_reps)
    if args.trace:
        metrics, units = per_layer(traced_reps, untraced), dict(PER_LAYER_METRICS)
    else:
        metrics, units = end_to_end(untraced), dict(END_TO_END_METRICS)

    info = provenance(cleared, reps[0]["numpy"])
    print("workload %s seed %d trace %d: %d repetition(s) (%d traced), digests %s"
          % (args.workload, args.seed, args.trace, len(reps), len(traced_reps),
             "pinned" if pinned is not None else "unpinned: checked across repetitions"))
    print("provenance %s" % json.dumps(info, sort_keys=True))
    for name, value in metrics.items():
        print("  %-40s %16.6f %s" % (name, value, units[name]))
    print("failed_cells %d of %d" % (failed, attempted))
    for problem in problems:
        print("CHECK FAILED: %s" % problem)
    correct = failed == 0 and not problems
    with open(os.path.join(OUT_DIR, "result-%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)), "w") as handle:
        json.dump({"provenance": info, "metrics": metrics, "correct": correct,
                   "problems": problems, "reps": reps}, handle, indent=1)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
