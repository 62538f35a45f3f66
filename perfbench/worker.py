"""One repetition of a benchmark workload, in a fresh process.

``run.py`` starts one of these per repetition so that peak memory and
cold set-up are per repetition.  It prints one JSON object: the
workload result of :func:`workloads.run_workload`, plus the per-layer
metrics when ``--trace 1``.

    python3 perfbench/worker.py --workload planet-ttl --seed 0 --trace 1
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REPRO_DIR = os.path.join(ROOT, "src", "repro")
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy  # noqa: E402
import repro  # noqa: E402
from layers import Hooks, LayerSampler, SpanRecorder, layer_metrics  # noqa: E402
from workloads import WORKLOADS, run_workload  # noqa: E402


def run_rep(workload: str, seed: int, traced: bool, *, tiny: bool = False,
            spans_out: str = "") -> dict:
    """Run one repetition; a traced one also samples layers and records spans."""
    if not traced:
        return run_workload(workload, seed, tiny=tiny)
    spans = SpanRecorder()
    hooks = Hooks(spans)
    sampler = LayerSampler(REPRO_DIR)
    sampler.start()
    try:
        result = run_workload(workload, seed, tiny=tiny, spans=spans)
    finally:
        sampler.stop()
        hooks.remove()
    result["layers"] = layer_metrics(result, sampler, spans, hooks)
    result["samples"] = sampler.samples
    result["long_tick_s"] = sampler.long_s
    if spans_out:
        with open(spans_out, "w") as handle:
            for row in spans.rows():
                handle.write(json.dumps(row) + "\n")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", default="")
    args = parser.parse_args(argv)
    if os.path.dirname(os.path.abspath(repro.__file__)) != REPRO_DIR:
        print("repro imported from %s, not this checkout" % repro.__file__,
              file=sys.stderr)
        return 2
    result = run_rep(args.workload, args.seed, bool(args.trace),
                     spans_out=args.spans_out)
    result["numpy"] = numpy.__version__
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
