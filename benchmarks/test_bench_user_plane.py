"""User-plane throughput of the struct-of-arrays cohort.

One TTL/unicast deployment at planet cadence, 200 servers x 25 users =
5k users, aggregate user metrics.  The recorded ``users_per_s`` feeds
the BENCH_user_plane.json trajectory, where ``check_bench`` gates it
against the trailing median.  At this (deliberately bench-sized) config
the shared network fabric dominates; see docs/scalability.md for the
planet-scale numbers.
"""

import time

from repro.experiments.config import planet_scale
from repro.experiments.testbed import _PLACEMENT_CACHE, build_deployment

N_SERVERS = 200
USERS_PER_SERVER = 25
N_USERS = N_SERVERS * USERS_PER_SERVER


def _user_plane_run():
    """Build and run the deployment; returns ``(metrics_dict,
    sim_seconds)`` with the timing covering only the simulation phase
    (topology build cost is benchmarked elsewhere)."""
    _PLACEMENT_CACHE.clear()
    deployment = build_deployment(
        planet_scale(
            n_servers=N_SERVERS,
            users_per_server=USERS_PER_SERVER,
            user_metrics="aggregate",
        ),
        "ttl",
    )
    started = time.perf_counter()
    metrics = deployment.run().to_dict()
    return metrics, time.perf_counter() - started


def test_user_plane_throughput(benchmark):
    """users_per_s goes on record; every user group reports a lag."""
    metrics, sim_s = benchmark(_user_plane_run)
    benchmark.extra_info["n_users"] = N_USERS
    benchmark.extra_info["users_per_s"] = N_USERS / sim_s
    assert len(metrics["user_lags"]) == N_SERVERS
