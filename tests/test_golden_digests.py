"""Golden-digest regression test for the simulation kernel.

Every cell below is a small but complete deployment (or one fabric-level
failure storm) whose simulated outcome is pinned in
``tests/fixtures/golden_digests.json``: the ``DeploymentMetrics`` dict
minus ``events_processed`` (the one figure a pure performance change may
move), the ``FabricCounters`` snapshot, and a SHA-256 of the canonical
message/visit trace.  The fixture was captured while the kernel still
had independent reference implementations of its transport, event loop
and user plane, and every implementation agreed on every cell; this
test holds the remaining implementation to those outcomes.

The cells: every update method on every infrastructure at seeds 0-2,
for one and for two users per server; perturbation-heavy scenarios;
both visit-target selectors; aggregate user metrics; user-plane edges
(no users, every first visit within one millisecond, a home server
failing mid-run); a transport storm with sender and receiver failures;
and the staleness-series cache.

A change that alters simulated outcomes on purpose regenerates the
fixture with ``PYTHONPATH=src python tests/test_golden_digests.py``
and says in CHANGES.md which cells moved and why.
"""

import hashlib
import json
import os

import pytest

from repro.cdn.server import schedule_absence
from repro.experiments.config import TestbedConfig
from repro.experiments.testbed import INFRASTRUCTURES, METHODS, build_deployment
from repro.metrics.timeseries import fleet_staleness_series
from repro.network import Message, MessageKind, NetworkFabric, TopologyBuilder
from repro.network.message import reset_seq
from repro.obs.tracer import RecordingTracer
from repro.sim import Environment, StreamRegistry

FIXTURE = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "fixtures", "golden_digests.json"
)

#: Trace kinds folded into each cell's trace digest.
TRACE_KINDS = (
    "msg_send",
    "msg_recv",
    "msg_drop",
    "visit",
    "visit_timeout",
    "msg_timeout",
)

#: Users per server of the two grid configurations.
USER_PLANES = (1, 2)

SCENARIOS = ("paper-baseline", "failure-storm", "flash-crowd", "cdn-reconfig")


def tiny_config(seed, users_per_server, **overrides):
    defaults = dict(
        n_servers=6,
        users_per_server=users_per_server,
        n_updates=6,
        game_duration_s=200.0,
        hat_clusters=3,
        seed=seed,
    )
    defaults.update(overrides)
    return TestbedConfig(**defaults)


def _grid_overrides(method, infrastructure):
    # invalidation/broadcast floods (quadratic re-broadcast storm); cut
    # the horizon shortly after the storm starts so the cell stays fast
    # while still exercising tens of thousands of transfers.
    if (method, infrastructure) == ("invalidation", "broadcast"):
        return {"horizon_s": 80.0}
    return {}


def deployment_cells():
    """``{cell_id: build arguments}`` for every deployment cell."""
    cells = {}
    for users in USER_PLANES:
        for method in METHODS:
            for infrastructure in INFRASTRUCTURES:
                for seed in (0, 1, 2):
                    cell_id = "grid/u%d/%s/%s/s%d" % (
                        users, method, infrastructure, seed
                    )
                    cells[cell_id] = dict(
                        method=method,
                        infrastructure=infrastructure,
                        seed=seed,
                        users=users,
                        overrides=_grid_overrides(method, infrastructure),
                    )
        for scenario in SCENARIOS:
            for method in ("ttl", "push"):
                cells["scenario/u%d/%s/%s" % (users, scenario, method)] = dict(
                    method=method, infrastructure="unicast", seed=0, users=users,
                    scenario=scenario,
                )
    for selector in ("fixed", "switch"):
        for seed in (0, 1):
            cells["selector/%s/s%d" % (selector, seed)] = dict(
                method="ttl", infrastructure="unicast", seed=seed, users=2,
                overrides={"user_selector": selector},
            )
    for users in USER_PLANES:
        cells["aggregate/u%d" % users] = dict(
            method="ttl", infrastructure="unicast", seed=0, users=users,
            overrides={"user_metrics": "aggregate"},
        )
    # User-plane edges: an empty population, every first visit inside
    # one millisecond, and a home server failing mid-run.
    cells["edge/zero-users"] = dict(
        method="ttl", infrastructure="unicast", seed=0, users=0,
        overrides={"n_servers": 4},
    )
    cells["edge/start-jitter"] = dict(
        method="ttl", infrastructure="unicast", seed=0, users=2,
        overrides={"n_servers": 4, "user_start_window_s": 0.001},
    )
    cells["edge/server-outage"] = dict(
        method="ttl", infrastructure="unicast", seed=0, users=1,
        overrides={"n_servers": 2}, outage=(80.0, 60.0),
    )
    return cells


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _trace_sha256(tracer):
    events = tracer.events(kinds=TRACE_KINDS)
    return _sha256("\n".join(event.to_json() for event in events))


def run_deployment_cell(method, infrastructure, seed, users, overrides=None,
                        scenario=None, outage=None):
    """Run one deployment cell; returns its fixture record.

    *outage* ``(start_s, duration_s)`` takes the first server down for
    that window.
    """
    tracer = RecordingTracer()
    deployment = build_deployment(
        tiny_config(seed, users, **(overrides or {})),
        method,
        infrastructure,
        tracer=tracer,
        scenario=scenario,
    )
    if outage is not None:
        schedule_absence(deployment.env, deployment.servers[0].node, *outage)
    metrics = deployment.run().to_dict()
    metrics.pop("events_processed")
    return {
        "metrics": metrics,
        "counters": deployment.fabric.counters.to_dict(),
        "trace_sha256": _trace_sha256(tracer),
    }


def run_storm_cell(seed=5):
    """Fan-out traffic while the sender and one receiver flap down.

    Transport is one-way, so each message's outcome is read from the
    trace: ``True`` for a ``msg_recv``, ``False`` for a ``msg_drop``, in
    the order the outcomes happened.
    """
    reset_seq()
    env = Environment(tracer=RecordingTracer())
    streams = StreamRegistry(seed)
    topology = TopologyBuilder(env, streams).build(n_servers=4, users_per_server=0)
    fabric = NetworkFabric(env, streams=streams)
    provider = topology.provider
    # Receiver 0 is down for the whole middle of the run; the provider
    # itself drops out briefly, exercising the sender_down path.
    schedule_absence(env, topology.servers[0], start=2.0, duration=6.0)
    schedule_absence(env, provider, start=4.0, duration=1.0)

    def driver(env):
        for round_no in range(10):
            for server in topology.servers:
                fabric.send(
                    Message(MessageKind.PUSH_UPDATE, provider, server, 4.0,
                            version=round_no)
                )
            yield env.timeout(1.0)

    env.process(driver(env))
    env.run()
    outcomes = env.tracer.events(kinds=("msg_recv", "msg_drop"))
    return {
        "results": [event.kind == "msg_recv" for event in outcomes],
        "dropped": fabric.counters.dropped_messages,
        "counters": fabric.counters.to_dict(),
        "trace_sha256": _trace_sha256(env.tracer),
    }


def run_staleness_cell():
    """Fleet and first-replica staleness series of one TTL deployment."""
    deployment = build_deployment(tiny_config(3, 1), "ttl", "unicast")
    deployment.run()
    fleet = deployment.fleet_staleness_series()
    first = deployment.staleness_series_of(deployment.servers[0].node.node_id)
    series = [fleet.times, fleet.values, first.times, first.values]
    return {
        "points": [len(fleet.times), len(first.times)],
        "series_sha256": _sha256(json.dumps(series)),
    }


def compute_all():
    """Every cell's record, keyed by cell id (the fixture's layout)."""
    records = {
        cell_id: run_deployment_cell(**cell)
        for cell_id, cell in deployment_cells().items()
    }
    records["storm"] = run_storm_cell()
    records["staleness"] = run_staleness_cell()
    return records


def canonical(record):
    """Comparison form: JSON text (NaN-safe, float-exact)."""
    return json.dumps(record, sort_keys=True)


# ----------------------------------------------------------------------
# the tests
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def golden():
    with open(FIXTURE) as handle:
        return json.load(handle)["cells"]


def test_fixture_covers_exactly_the_cells(golden):
    expected = set(deployment_cells()) | {"storm", "staleness"}
    assert set(golden) == expected


@pytest.mark.parametrize("cell_id", sorted(deployment_cells()))
def test_deployment_cell_matches_fixture(cell_id, golden):
    record = run_deployment_cell(**deployment_cells()[cell_id])
    want = golden[cell_id]
    assert canonical(record["metrics"]) == canonical(want["metrics"]), cell_id
    assert record["counters"] == want["counters"], cell_id
    assert record["trace_sha256"] == want["trace_sha256"], cell_id


def test_storm_cell_matches_fixture(golden):
    record = run_storm_cell()
    assert canonical(record) == canonical(golden["storm"])
    # The storm actually exercised both drop reasons.
    assert record["counters"]["dropped_sender_down"] > 0
    assert record["counters"]["dropped_receiver_down"] > 0
    assert False in record["results"] and True in record["results"]


def test_staleness_cell_matches_fixture(golden):
    assert run_staleness_cell() == golden["staleness"]


def test_staleness_series_cache_matches_direct_derivation():
    """The incremental/cached series equal the full-log derivation, and
    repeat queries come from the cache."""
    deployment = build_deployment(tiny_config(3, 1), "ttl", "unicast")
    deployment.run()
    fleet = deployment.fleet_staleness_series()
    direct = fleet_staleness_series(
        deployment.content,
        [server.apply_log() for server in deployment.servers],
        deployment.config.run_horizon_s,
    )
    assert fleet.times == direct.times
    assert fleet.values == direct.values
    assert deployment.fleet_staleness_series() is fleet
    with pytest.raises(KeyError):
        deployment.staleness_series_of("no-such-server")


if __name__ == "__main__":
    with open(FIXTURE, "w") as handle:
        json.dump({"cells": compute_all()}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("wrote %s" % FIXTURE)
