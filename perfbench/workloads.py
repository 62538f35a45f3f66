"""The benchmark's workloads, the cell loop that runs them, and the checks
their outputs must pass.

A workload is a list of cells, each one ``build_deployment`` +
``Deployment.run`` call, run in order in one process.  Every cell's
``DeploymentMetrics.to_dict()`` (minus ``events_processed``, which a
speed-only change may lower) is hashed to a SHA-256 digest; the parent
(``run.py``) compares the digests with ``digests.json``.

Import this module only after ``src`` is on ``sys.path`` (``worker.py``
and the tests arrange that).
"""

from __future__ import annotations

import hashlib
import json
import resource
from contextlib import nullcontext
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from repro.experiments.config import (
    TestbedConfig,
    ci_scale,
    paper_scale,
    planet_scale,
    smoke_scale,
)
from repro.experiments.testbed import build_deployment

#: (method, infrastructure, scenario) -- scenario ``None`` is the default path.
Cell = Tuple[str, str, Optional[str]]

FIG16_METHODS = ("push", "invalidation", "ttl")


@dataclass(frozen=True)
class Workload:
    name: str
    cells: Tuple[Cell, ...]
    #: ``config(seed)`` for the measured size, ``tiny(seed)`` for smoke tests.
    config: Callable[[int], TestbedConfig]
    tiny: Callable[[int], TestbedConfig]

    def cell_label(self, cell: Cell) -> str:
        method, infrastructure, scenario = cell
        label = "%s/%s" % (method, infrastructure)
        return label + ("@" + scenario if scenario else "")


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="fig16-grid",
            # The Fig. 16 driver's order: infrastructure-major.
            cells=tuple(
                (method, infrastructure, None)
                for infrastructure in ("unicast", "multicast")
                for method in FIG16_METHODS
            ),
            config=lambda seed: ci_scale(users_per_server=4, seed=seed),
            tiny=lambda seed: smoke_scale(users_per_server=2, seed=seed),
        ),
        Workload(
            name="planet-ttl",
            cells=(("ttl", "unicast", None),),
            config=lambda seed: planet_scale(
                n_servers=2000, users_per_server=10, seed=seed
            ),
            tiny=lambda seed: planet_scale(
                n_servers=20, users_per_server=2, seed=seed
            ),
        ),
        Workload(
            name="push-fanout",
            cells=tuple(
                ("push", infrastructure, "failure-storm")
                for infrastructure in ("unicast", "multicast")
            ),
            config=lambda seed: paper_scale(
                n_servers=400, users_per_server=0, seed=seed
            ),
            tiny=lambda seed: paper_scale(
                n_servers=12,
                users_per_server=0,
                n_updates=12,
                game_duration_s=400.0,
                seed=seed,
            ),
        ),
    )
}


def metrics_digest(metrics_dict: Dict) -> str:
    """SHA-256 of a ``DeploymentMetrics.to_dict()`` without
    ``events_processed``; floats hash by their exact ``repr``."""
    data = {k: v for k, v in metrics_dict.items() if k != "events_processed"}
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def peak_rss_mib() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cell_counts(deployment) -> Dict[str, float]:
    """Exact per-layer counts, read from public counters after a cell ran."""
    counters = deployment.fabric.counters
    cohort = deployment.cohort
    return {
        "events": deployment.env.events_processed,
        "msgs_sent": counters.messages_sent,
        "msgs_delivered": counters.messages_delivered,
        "msgs_dropped": counters.dropped_messages,
        "queueing_sim_s": counters.queueing_s,
        "records": deployment.fabric.ledger.totals().count,
        "visits": cohort.visits_started if cohort is not None else 0,
        "failed_visits": cohort.total_failed_visits() if cohort is not None else 0,
    }


def run_workload(name: str, seed: int, *, tiny: bool = False, spans=None) -> Dict:
    """Run every cell of workload *name* in order; time, count and hash them.

    *spans* is a :class:`layers.SpanRecorder` in a traced run and ``None``
    otherwise.  A cell that raises is recorded with its error and the
    loop goes on.  ``wall_s`` covers build, simulate and collect of all
    cells; digests are computed after the timed loop.
    """
    workload = WORKLOADS[name]
    config = (workload.tiny if tiny else workload.config)(seed)
    span = spans.span if spans is not None else (lambda *_args: nullcontext())
    cells: List[Dict] = []
    outputs: List[Optional[Dict]] = []
    start = perf_counter()
    for cell_id, cell in enumerate(workload.cells):
        record: Dict = {"cell": workload.cell_label(cell)}
        output = None
        try:
            with span("cell", cell_id):
                t0 = perf_counter()
                with span("experiments.testbed.build"):
                    deployment = build_deployment(
                        config, cell[0], cell[1], scenario=cell[2]
                    )
                t1 = perf_counter()
                with span("experiments.testbed.run"):
                    metrics = deployment.run()
                t2 = perf_counter()
            record.update(build_s=t1 - t0, run_s=t2 - t1, **_cell_counts(deployment))
            output = metrics.to_dict()
            del deployment, metrics
        except Exception as exc:  # a failing cell is counted, not fatal
            record["error"] = "%s: %s" % (type(exc).__name__, exc)
        cells.append(record)
        outputs.append(output)
    wall_s = perf_counter() - start
    for record, output in zip(cells, outputs):
        if output is not None:
            record["digest"] = metrics_digest(output)
            record["cost_km_kb"] = output["cost_km_kb"]
    return {
        "workload": name,
        "seed": seed,
        "cells": cells,
        "wall_s": wall_s,
        "peak_rss_mib": peak_rss_mib(),
        "claims": claim_violations(name, cells),
    }


def claim_violations(name: str, cells: List[Dict]) -> List[str]:
    """The workload's model-level claims; an empty list means they hold.

    ``fig16-grid``: Fig. 16's cost ordering push < invalidation < ttl on
    each infrastructure, and multicast < 0.6 x unicast for each method.
    ``push-fanout``: no user visits at all.
    """
    problems: List[str] = []
    if any("error" in cell for cell in cells):
        return problems  # failed cells are counted on their own
    if name == "fig16-grid":
        cost = {cell["cell"]: cell["cost_km_kb"] for cell in cells}
        for infrastructure in ("unicast", "multicast"):
            series = [cost["%s/%s" % (m, infrastructure)] for m in FIG16_METHODS]
            if not series[0] < series[1] < series[2]:
                problems.append(
                    "fig16 %s: cost not push < invalidation < ttl: %r"
                    % (infrastructure, series)
                )
        for method in FIG16_METHODS:
            uni = cost["%s/unicast" % method]
            multi = cost["%s/multicast" % method]
            if not multi < 0.6 * uni:
                problems.append(
                    "fig16 %s: multicast %.6g not < 0.6 x unicast %.6g"
                    % (method, multi, uni)
                )
    if name == "push-fanout":
        visits = sum(cell["visits"] for cell in cells)
        if visits != 0:
            problems.append("push-fanout: %d user visits, expected 0" % visits)
    return problems
