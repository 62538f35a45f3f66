"""Unit and edge-case tests for the struct-of-arrays user plane.

Covers the corners the golden-digest grid does not isolate: empty and
single-user populations, coinciding visit deadlines sweeping in one
batch, servers failing mid-run, the per-slot views, the two server
selectors and which of them a Reconfiguration migrates, aggregate
metrics and population sharding, the
:class:`~repro.sim.timers.CallbackLane` contract, and the LRU placement
cache's keying/tuning.  (Whole-deployment outcomes of the population
edges are pinned by the ``edge/*`` cells of
``tests/test_golden_digests.py``.)
"""

import pytest

import repro.experiments.testbed as testbed_mod
from repro.cdn import LiveContent
from repro.cdn.cohort import UserCohort
from repro.experiments.config import TestbedConfig
from repro.experiments.sharding import (
    merge_shard_metrics,
    shard_specs,
    shard_user_counts,
)
from repro.experiments.testbed import build_deployment
from repro.runner import Runner, RunSpec, run_specs
from repro.network import NetworkFabric
from repro.scenarios.perturbations import Reconfiguration
from repro.sim import Environment, StreamRegistry
from repro.sim.timers import CallbackLane


def _config(seed=0, **overrides):
    defaults = dict(
        n_servers=4,
        users_per_server=2,
        n_updates=6,
        game_duration_s=200.0,
        hat_clusters=3,
        seed=seed,
    )
    defaults.update(overrides)
    return TestbedConfig(**defaults)


def _six_server_config(seed=0, **overrides):
    overrides.setdefault("n_servers", 6)
    return _config(seed, **overrides)


def _run(config, method="ttl"):
    deployment = build_deployment(config, method)
    metrics = deployment.run()
    return deployment, metrics


# ----------------------------------------------------------------------
# population edge cases
# ----------------------------------------------------------------------
class TestPopulationEdges:
    def test_zero_users_per_server(self):
        deployment, metrics = _run(_config(users_per_server=0))
        assert deployment.cohort is not None
        assert deployment.cohort.n_users == 0
        assert list(deployment.cohort.users) == []
        assert metrics.user_lags == {}
        assert metrics.server_lags  # server plane unaffected

    def test_single_user(self):
        deployment, metrics = _run(_config(n_servers=1, users_per_server=1))
        cohort = deployment.cohort
        assert cohort.n_users == 1
        assert cohort.visits_started > 0
        assert len(metrics.user_lags) == 1
        (observations,) = [cohort.observations_of(0)]
        assert observations, "single user never observed anything"
        assert observations == list(cohort.users[0].observations)

    def test_batched_sweeps_actually_batch(self):
        """Coinciding deadlines expire in one sweep: with every start
        offset pinned to the same instant, the first batch serves the
        whole population off a single control event."""
        deployment = build_deployment(_config(), "ttl")
        cohort = deployment.cohort
        cohort._start_offsets = [10.0] * cohort.n_users
        deployment.run()
        assert cohort.visits_started > cohort.n_users
        assert cohort.sweeps <= cohort.visits_started - (cohort.n_users - 1)


# ----------------------------------------------------------------------
# mid-run server failures
# ----------------------------------------------------------------------
class TestMidRunFailures:
    def test_failed_visits_accrue_and_polling_resumes(self):
        config = _config(n_servers=2, users_per_server=1)
        deployment = build_deployment(config, "ttl")
        cohort = deployment.cohort
        victim = deployment.servers[0].node

        def storm(env):
            yield env.timeout(80.0)
            victim.mark_down()
            yield env.timeout(60.0)
            victim.mark_up()

        deployment.env.process(storm(deployment.env))
        metrics = deployment.run()
        assert cohort.total_failed_visits() > 0
        assert metrics.dropped_messages > 0
        # The victim's user kept its poll loop alive through the outage:
        # observations exist with timestamps after the revival.
        victim_slot = next(
            slot
            for slot, node in enumerate(cohort.nodes)
            if node.node_id.startswith(victim.node_id + "-user-")
        )
        times = [obs.time for obs in cohort.observations_of(victim_slot)]
        assert any(t > 140.0 for t in times)


# ----------------------------------------------------------------------
# cohort user views
# ----------------------------------------------------------------------
class TestCohortViews:
    def test_views_mirror_cohort_state(self):
        deployment, metrics = _run(_config())
        cohort = deployment.cohort
        users = cohort.users
        assert len(users) == cohort.n_users == 8
        for slot, view in enumerate(users):
            assert view.node is cohort.nodes[slot]
            assert view.failed_visits == cohort.failed_visits_of(slot)
            assert list(view.observations) == cohort.observations_of(slot)
        # Deployment.users materialises the same views lazily.
        assert deployment.users is users

    def test_ttl_setter_writes_through(self):
        deployment, _ = _run(_config())
        view = deployment.cohort.users[0]
        view.user_ttl_s = 5.0
        assert deployment.cohort.users[0].user_ttl_s == 5.0
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                view.user_ttl_s = bad
        assert view.user_ttl_s == 5.0

    @pytest.mark.parametrize("ttl", [0.0, -1.0, float("nan"), float("inf")])
    def test_constructor_ttl_must_be_finite_and_positive(self, ttl):
        env = Environment()
        with pytest.raises(ValueError, match="finite and positive"):
            UserCohort(
                env, NetworkFabric(env), LiveContent("game", update_times=[1.0]),
                [], user_ttl_s=ttl, start_offsets=[], targets=[],
            )

    def test_aggregate_mode_has_no_per_user_observations(self):
        deployment, _ = _run(_config(user_metrics="aggregate"))
        cohort = deployment.cohort
        assert cohort.aggregate is not None
        with pytest.raises(RuntimeError, match="aggregate"):
            cohort.observations_of(0)


# ----------------------------------------------------------------------
# server selectors
# ----------------------------------------------------------------------
class TestSelectors:
    def test_switch_never_revisits_the_previous_server(self):
        deployment, _ = _run(_config(user_selector="switch"))
        cohort = deployment.cohort
        assert cohort.total_failed_visits() == 0
        for slot in range(cohort.n_users):
            servers = [obs.server_id for obs in cohort.observations_of(slot)]
            assert len(set(servers)) >= 2
            assert all(prev != cur for prev, cur in zip(servers, servers[1:]))

    def test_switch_with_one_server_always_visits_it(self):
        deployment, _ = _run(
            _config(n_servers=1, users_per_server=3, user_selector="switch")
        )
        cohort = deployment.cohort
        (only,) = [server.node.node_id for server in deployment.servers]
        for slot in range(cohort.n_users):
            servers = [obs.server_id for obs in cohort.observations_of(slot)]
            assert servers
            assert set(servers) == {only}


class TestReconfigurationEligibility:
    """Only fixed-home users migrate; switch-mode users have no home."""

    def _install(self, config):
        deployment = build_deployment(config, "ttl")
        stream = StreamRegistry(7).stream("perturb")
        Reconfiguration(event_times_s=(60.0, 120.0)).install(deployment, stream)
        drew = stream.random() != StreamRegistry(7).stream("perturb").random()
        return deployment, drew

    def test_switch_deployment_draws_nothing_and_runs_unperturbed(self):
        config = _config(user_selector="switch")
        deployment, drew = self._install(config)
        assert not drew
        baseline = build_deployment(config, "ttl").run()
        assert deployment.run().to_dict() == baseline.to_dict()

    def test_fixed_deployment_rehomes_users(self):
        deployment, drew = self._install(_config())
        assert drew
        cohort = deployment.cohort
        homes = list(cohort._targets)
        deployment.run()
        assert cohort._targets != homes


# ----------------------------------------------------------------------
# CallbackLane unit contract
# ----------------------------------------------------------------------
class TestCallbackLane:
    def _lane(self, env, dead=lambda payload: False):
        fired = []
        lane = CallbackLane(env, fired.append, dead)
        return lane, fired

    def test_expires_in_push_order(self):
        env = Environment()
        lane, fired = self._lane(env)
        for deadline, payload in ((1.0, "a"), (1.0, "b"), (3.0, "c")):
            lane.push(deadline, payload)
        env.run(until=2.0)
        assert fired == ["a", "b"]
        assert lane.pending == 1
        env.run()
        assert fired == ["a", "b", "c"]
        assert lane.sweeps == 2

    def test_rejects_non_monotone_deadlines(self):
        env = Environment()
        lane, _ = self._lane(env)
        lane.push(5.0, "later")
        with pytest.raises(ValueError):
            lane.push(4.0, "earlier")

    def test_dead_payloads_are_pruned_not_fired(self):
        env = Environment()
        dead = set()
        lane, fired = self._lane(env, dead=lambda p: p in dead)
        for index in range(6):
            lane.push(float(index + 1), index)
        dead.update({1, 2, 4})
        env.run()
        assert fired == [0, 3, 5]
        assert lane.cancelled == 3
        assert lane.expired == 3
        assert lane.pending == 0

    def test_push_while_running_rearms(self):
        env = Environment()
        lane, fired = self._lane(env)

        def chain(payload):
            fired.append(payload)
            if payload < 3:
                lane.push(env.now + 1.0, payload + 1)

        lane.on_expire = chain
        lane.push(1.0, 0)
        env.run()
        assert fired == [0, 1, 2, 3]


# ----------------------------------------------------------------------
# LRU placement cache
# ----------------------------------------------------------------------
class TestPlacementCacheLRU:
    def _build(self, seed=0, **overrides):
        build_deployment(_config(seed, **overrides), "ttl")

    def test_hits_refresh_recency(self, monkeypatch):
        testbed_mod._PLACEMENT_CACHE.clear()
        monkeypatch.setattr(testbed_mod, "_PLACEMENT_CACHE_MAX", 2)
        self._build(seed=0)
        self._build(seed=1)
        self._build(seed=0)  # hit: seed 0 becomes most recent
        self._build(seed=2)  # evicts seed 1, the true LRU entry
        seeds = [key[0] for key in testbed_mod._PLACEMENT_CACHE]
        assert seeds == [0, 2]

    def test_env_tunes_capacity(self, monkeypatch):
        testbed_mod._PLACEMENT_CACHE.clear()
        monkeypatch.setenv(testbed_mod.PLACEMENT_CACHE_ENV, "1")
        self._build(seed=0)
        self._build(seed=1)
        assert len(testbed_mod._PLACEMENT_CACHE) == 1
        monkeypatch.setenv(testbed_mod.PLACEMENT_CACHE_ENV, "not-a-number")
        self._build(seed=2)  # falls back to the default capacity
        assert len(testbed_mod._PLACEMENT_CACHE) == 2

    def test_env_zero_disables_caching(self, monkeypatch):
        testbed_mod._PLACEMENT_CACHE.clear()
        monkeypatch.setenv(testbed_mod.PLACEMENT_CACHE_ENV, "0")
        self._build(seed=0)
        assert testbed_mod._PLACEMENT_CACHE == {}

    def test_shards_get_distinct_entries(self):
        """Shards share (seed, shape) but place different user subsets;
        without shard-aware keys shard 1 would reuse shard 0's users."""
        testbed_mod._PLACEMENT_CACHE.clear()
        for shard in (0, 1):
            self._build(
                user_metrics="aggregate", user_shards=2, user_shard=shard
            )
        assert len(testbed_mod._PLACEMENT_CACHE) == 2
        keys = list(testbed_mod._PLACEMENT_CACHE)
        assert keys[0] != keys[1]

    def test_shard_cache_reuse_is_bit_transparent(self):
        testbed_mod._PLACEMENT_CACHE.clear()
        config = _config(user_metrics="aggregate", user_shards=2, user_shard=1)
        miss = build_deployment(config, "ttl").run().to_dict()
        hit = build_deployment(config, "ttl").run().to_dict()
        assert miss == hit


# ----------------------------------------------------------------------
# aggregate metrics and sharding
# ----------------------------------------------------------------------
def test_aggregate_mode_matches_per_user_rollup():
    """Aggregate metrics equal the per-user layout re-grouped by home
    server: same observations, coarser bookkeeping."""
    aggregate = _run(_config(user_metrics="aggregate"))[1]
    per_user = _run(_config(user_metrics="per-user"))[1]
    groups = {}
    for node_id, lag in per_user.user_lags.items():
        groups.setdefault(node_id.rsplit("-user-", 1)[0], []).append(
            (lag, per_user.user_stale_fractions[node_id])
        )
    for group, pairs in groups.items():
        mean_lag = sum(lag for lag, _ in pairs) / len(pairs)
        mean_stale = sum(stale for _, stale in pairs) / len(pairs)
        assert aggregate.user_lags[group] == pytest.approx(mean_lag)
        assert aggregate.user_stale_fractions[group] == pytest.approx(mean_stale)


class TestShardedMerge:
    def _specs(self, shards, **overrides):
        config = _six_server_config(0, user_metrics="aggregate", **overrides)
        return shard_specs(RunSpec(config=config, method="ttl"), shards)

    def test_merge_is_worker_count_invariant(self):
        specs = self._specs(3)
        weights = shard_user_counts(2, 3)
        serial = merge_shard_metrics(
            run_specs(specs, Runner(workers=1, registry=False)).metrics, weights
        )
        pooled = merge_shard_metrics(
            run_specs(specs, Runner(workers=3, registry=False)).metrics, weights
        )
        assert serial.to_dict() == pooled.to_dict()

    def test_shards_partition_the_population(self):
        specs = self._specs(2, users_per_server=3)
        outcome = run_specs(specs, Runner(workers=1, registry=False))
        merged = merge_shard_metrics(
            outcome.metrics, shard_user_counts(3, 2)
        )
        # Same server plane in every shard; each user simulated once.
        for metrics in outcome.metrics:
            assert list(metrics.server_lags) == list(merged.server_lags)
        assert merged.name.endswith("[merged x2]")
        assert len(merged.user_lags) == 6  # one group per home server

    def test_sharding_requires_aggregate_metrics(self):
        spec = RunSpec(config=_six_server_config(0), method="ttl")
        with pytest.raises(ValueError, match="aggregate"):
            shard_specs(spec, 2)

    def test_single_shard_passthrough(self):
        spec = RunSpec(config=_six_server_config(0), method="ttl")
        assert shard_specs(spec, 1) == [spec]

    def test_mismatched_server_planes_rejected(self):
        specs = self._specs(2)
        outcome = run_specs(specs, Runner(workers=1, registry=False))
        other = build_deployment(
            _six_server_config(0, n_servers=4, user_metrics="aggregate"), "ttl"
        ).run()
        with pytest.raises(ValueError, match="server plane"):
            merge_shard_metrics(
                [outcome.metrics[0], other], shard_user_counts(2, 2)
            )

    def test_shard_user_counts_cover_uneven_splits(self):
        assert shard_user_counts(5, 2) == [3, 2]
        assert shard_user_counts(1, 4) == [1, 0, 0, 0]
        assert shard_user_counts(0, 2) == [0, 0]
