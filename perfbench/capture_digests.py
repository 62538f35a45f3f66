"""Record the expected metrics digests of every workload cell.

    python3 perfbench/capture_digests.py --seeds 0-31 7919

Runs every workload once per seed, untraced, in a fresh ``worker.py``
process, and merges the per-cell digests into ``digests.json``.  Run it
only on a commit whose simulated outputs are the reference; a change
that alters outputs on purpose must re-capture and say why.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from run import DIGESTS, WORKLOAD_NAMES, run_worker, worker_env  # noqa: E402


def parse_seeds(tokens):
    seeds = []
    for token in tokens:
        low, _, high = token.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def capture(workload: str, seed: int) -> list:
    result = run_worker(workload, seed, False, worker_env()[0], timeout_s=600.0)
    errors = [cell["error"] for cell in result["cells"] if "error" in cell]
    if errors or result["claims"]:
        raise SystemExit("%s seed %d does not pass: %s"
                         % (workload, seed, errors + result["claims"]))
    return [cell["digest"] for cell in result["cells"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", nargs="+", required=True,
                        help="seeds or inclusive ranges, e.g. 0-31 7919")
    args = parser.parse_args(argv)
    with open(DIGESTS) as handle:
        data = json.load(handle)
    for seed in parse_seeds(args.seeds):
        for workload in WORKLOAD_NAMES:
            digests = capture(workload, seed)
            data["digests"].setdefault(workload, {})[str(seed)] = digests
            print("%s seed %d: %s" % (workload, seed, " ".join(d[:12] for d in digests)))
            # Save as we go: a long capture can be resumed.
            with open(DIGESTS, "w") as handle:
                json.dump(data, handle, indent=1)
                handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
