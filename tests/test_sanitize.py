"""Tests for the runtime schedule sanitizer (repro.sim.sanitize) and
the ``repro sanitize`` driver (repro.experiments.sanitize).

The driver-level identity checks here run deliberately tiny cells; the
CI-scale proof lives in ``make sanitize-smoke``.
"""

from __future__ import annotations

import io
import os
import unittest
from unittest import mock

from repro.cdn.server import schedule_absence
from repro.experiments.config import TestbedConfig
from repro.experiments.sanitize import (
    build_parser,
    run as run_driver,
    sanitize_cell,
)
from repro.experiments.testbed import build_deployment
from repro.sim.engine import NORMAL, URGENT, Environment
from repro.sim.sanitize import (
    SANITIZE_ENV,
    SANITIZE_TIES_ENV,
    SanitizerError,
    ScheduleSanitizer,
    sanitizer_from_env,
)
from repro.sim.timers import CallbackLane


class TestTieKey(unittest.TestCase):
    def test_without_tie_seed_returns_plain_sequence(self):
        sanitizer = ScheduleSanitizer(tie_seed=None)
        self.assertEqual(sanitizer.tie_key(1.0, NORMAL, 7), 7)
        self.assertEqual(sanitizer.tie_collisions, 0)

    def test_perturbed_keys_keep_seq_and_count_collisions(self):
        sanitizer = ScheduleSanitizer(tie_seed=42)
        keys = [sanitizer.tie_key(1.0, NORMAL, seq) for seq in range(3)]
        for seq, key in enumerate(keys):
            self.assertIsInstance(key, tuple)
            self.assertEqual(key[1], seq)
        # First entry in a (time, priority) slot is not a collision;
        # the two that joined it are.
        self.assertEqual(sanitizer.tie_collisions, 2)
        # A different time is a fresh slot.
        sanitizer.tie_key(2.0, NORMAL, 3)
        self.assertEqual(sanitizer.tie_collisions, 2)

    def test_urgent_entries_are_never_perturbed(self):
        sanitizer = ScheduleSanitizer(tie_seed=42)
        self.assertEqual(sanitizer.tie_key(1.0, URGENT, 5), 5)
        self.assertEqual(sanitizer.tie_key(1.0, URGENT, 6), 6)
        self.assertEqual(sanitizer.tie_collisions, 0)

    def test_perturbation_is_reproducible_per_seed(self):
        draws = []
        for _ in range(2):
            sanitizer = ScheduleSanitizer(tie_seed=7)
            draws.append(
                [sanitizer.tie_key(1.0, NORMAL, seq)[0] for seq in range(4)]
            )
        self.assertEqual(draws[0], draws[1])


class TestSanitizerFromEnv(unittest.TestCase):
    def test_off_by_default(self):
        self.assertIsNone(sanitizer_from_env({}))

    def test_traps_only(self):
        sanitizer = sanitizer_from_env({SANITIZE_ENV: "1"})
        self.assertTrue(sanitizer.traps)
        self.assertFalse(sanitizer.perturbs_ties)

    def test_ties_implies_traps(self):
        sanitizer = sanitizer_from_env({SANITIZE_TIES_ENV: "1234"})
        self.assertTrue(sanitizer.traps)
        self.assertTrue(sanitizer.perturbs_ties)

    def test_bad_seed_is_an_error(self):
        with self.assertRaises(ValueError):
            sanitizer_from_env({SANITIZE_TIES_ENV: "soon"})

    def test_zero_string_means_off(self):
        self.assertIsNone(sanitizer_from_env({SANITIZE_ENV: "0"}))


class TestEnginePerturbation(unittest.TestCase):
    """The kernel honors the sanitizer at every push site."""

    @staticmethod
    def _pop_order(tie_seed):
        env = Environment(
            sanitizer=ScheduleSanitizer(tie_seed=tie_seed)
            if tie_seed is not None
            else None
        )
        order = []
        for name in "abcdef":
            event = env.event()
            event.callbacks.append(
                lambda _ev, name=name: order.append(name)
            )
            event._ok = True
            event._value = None
            env.schedule(event, delay=1.0)
        env.run()
        return order

    def test_fifo_without_sanitizer(self):
        self.assertEqual(self._pop_order(None), list("abcdef"))

    def test_tie_seed_reorders_same_instant_events(self):
        perturbed = self._pop_order(1)
        self.assertEqual(sorted(perturbed), list("abcdef"))
        # A seed that happens to produce FIFO would make this vacuous;
        # seed 1 over six events does not.
        self.assertNotEqual(perturbed, list("abcdef"))

    def test_same_seed_is_reproducible(self):
        self.assertEqual(self._pop_order(3), self._pop_order(3))

    def test_time_order_is_preserved_across_instants(self):
        env = Environment(sanitizer=ScheduleSanitizer(tie_seed=9))
        order = []
        for delay, name in [(2.0, "late"), (1.0, "early"), (2.0, "late2")]:
            event = env.event()
            event.callbacks.append(
                lambda _ev, name=name: order.append(name)
            )
            event._ok = True
            event._value = None
            env.schedule(event, delay=delay)
        env.run()
        self.assertEqual(order[0], "early")
        self.assertEqual(sorted(order[1:]), ["late", "late2"])


class TestDivergenceDetection(unittest.TestCase):
    """A model with hidden order dependence provably diverges.

    Miniature of the hazard REP007 hunts statically: same-instant
    callbacks each drawing from one *shared* model stream.  Reordering
    the ties re-pairs draws with consumers, so per-consumer results
    change even though the draw multiset does not.
    """

    @staticmethod
    def _shared_stream_outcome(tie_seed):
        import random

        env = Environment(
            sanitizer=ScheduleSanitizer(tie_seed=tie_seed)
            if tie_seed is not None
            else None
        )
        model_rng = random.Random(0)
        draws = {}
        for name in "abcdef":
            event = env.event()
            event.callbacks.append(
                lambda _ev, name=name: draws.__setitem__(
                    name, model_rng.random()
                )
            )
            event._ok = True
            event._value = None
            env.schedule(event, delay=1.0)
        env.run()
        return draws

    def test_shared_stream_pairing_diverges_under_perturbation(self):
        baseline = self._shared_stream_outcome(None)
        perturbed = self._shared_stream_outcome(1)
        self.assertEqual(
            sorted(baseline.values()), sorted(perturbed.values())
        )  # same draw multiset...
        self.assertNotEqual(baseline, perturbed)  # ...paired differently

    def test_per_consumer_streams_are_immune(self):
        # The repo-wide fix pattern: one seeded stream per consumer
        # (StreamRegistry) instead of one shared stream drawn in event
        # order.
        import random

        def outcome(tie_seed):
            env = Environment(
                sanitizer=ScheduleSanitizer(tie_seed=tie_seed)
                if tie_seed is not None
                else None
            )
            draws = {}
            for index, name in enumerate("abcdef"):
                rng = random.Random(index)
                event = env.event()
                event.callbacks.append(
                    lambda _ev, name=name, rng=rng: draws.__setitem__(
                        name, rng.random()
                    )
                )
                event._ok = True
                event._value = None
                env.schedule(event, delay=1.0)
            env.run()
            return draws

        self.assertEqual(outcome(None), outcome(4))


class TestLaneTraps(unittest.TestCase):
    def _lane_env(self, traps):
        sanitizer = ScheduleSanitizer(tie_seed=None, traps=True) if traps else None
        return Environment(sanitizer=sanitizer)

    def test_evil_callback_is_trapped(self):
        env = self._lane_env(traps=True)
        holder = {}

        def evil(payload):
            holder["lane"].deadlines.append(99.0)  # ragged arrays

        lane = CallbackLane(env, evil, lambda payload: payload is None)
        holder["lane"] = lane
        lane.push(1.0, "payload")
        with self.assertRaises(SanitizerError) as caught:
            env.run(until=2.0)
        self.assertIn("ragged", str(caught.exception))

    def test_head_move_is_trapped(self):
        env = self._lane_env(traps=True)
        holder = {}

        def evil(payload):
            holder["lane"].head = 5

        lane = CallbackLane(env, evil, lambda payload: payload is None)
        holder["lane"] = lane
        lane.push(1.0, "payload")
        with self.assertRaises(SanitizerError) as caught:
            env.run(until=2.0)
        self.assertIn("head", str(caught.exception))

    def test_untrapped_ragged_payloads_corrupt_silently(self):
        env = self._lane_env(traps=False)
        holder = {}

        def evil(payload):
            holder["lane"].payloads.append(None)

        lane = CallbackLane(env, evil, lambda payload: payload is None)
        holder["lane"] = lane
        lane.push(1.0, "payload")
        env.run(until=2.0)  # silent corruption: exactly what traps exist for
        env2 = self._lane_env(traps=True)
        lane2 = CallbackLane(
            env2,
            lambda payload: holder["lane2"].payloads.append(None),
            lambda payload: payload is None,
        )
        holder["lane2"] = lane2
        lane2.push(1.0, "payload")
        with self.assertRaises(SanitizerError):
            env2.run(until=2.0)

    def test_untrapped_ragged_deadlines_fail_far_from_the_bug(self):
        # Without traps the same corruption the sanitizer reports
        # precisely surfaces later as a confusing IndexError deep in
        # the sweep -- the diagnostic-quality gap the traps close.
        env = self._lane_env(traps=False)
        holder = {}

        def evil(payload):
            holder["lane"].deadlines.append(99.0)

        lane = CallbackLane(env, evil, lambda payload: payload is None)
        holder["lane"] = lane
        lane.push(1.0, "payload")
        with self.assertRaises(IndexError):
            env.run(until=2.0)

    def test_reentrant_push_through_api_is_allowed(self):
        env = self._lane_env(traps=True)
        holder = {}
        fired = []

        def expire(payload):
            fired.append(payload)
            if payload == "first":
                holder["lane"].push(env.now + 1.0, "second")

        lane = CallbackLane(env, expire, lambda payload: payload is None)
        holder["lane"] = lane
        lane.push(1.0, "first")
        env.run(until=5.0)
        self.assertEqual(fired, ["first", "second"])


class _TinyCells(unittest.TestCase):
    CONFIG = TestbedConfig(
        n_servers=6,
        users_per_server=1,
        n_updates=8,
        game_duration_s=240.0,
        server_ttl_s=10.0,
        seed=5,
    )


class TestSanitizeCell(_TinyCells):
    def test_push_cell_is_bit_identical_and_not_vacuous(self):
        report = sanitize_cell(
            "push:unicast", self.CONFIG, replicas=1, tie_seed_base=1000
        )
        self.assertTrue(report.identical, report.diffs)
        self.assertFalse(report.vacuous)
        self.assertTrue(report.ok)

    def test_default_infrastructure_is_unicast(self):
        report = sanitize_cell(
            "push", self.CONFIG, replicas=1, tie_seed_base=1000
        )
        self.assertEqual(report.cell, "push")
        self.assertTrue(report.ok)


class TestWheelLaneTraps(_TinyCells):
    """The timer wheel's waiter lanes are CallbackLanes, so traps run on
    every request timeout a deployment fires."""

    def _ttl_run_with_provider_outage(self, environ):
        with mock.patch.dict(os.environ, environ):
            deployment = build_deployment(self.CONFIG, "ttl")
        # Polls sent while the provider is down time out on the wheel.
        schedule_absence(deployment.env, deployment.provider.node, 60.0, 60.0)
        metrics = deployment.run().to_dict()
        return deployment.env, metrics

    def test_ttl_deployment_completes_under_traps(self):
        env, metrics = self._ttl_run_with_provider_outage(
            {SANITIZE_ENV: "1", SANITIZE_TIES_ENV: ""}
        )
        self.assertTrue(env.sanitizer is not None and env.sanitizer.traps)
        self.assertGreater(env.timers.expired, 0)
        plain_env, plain = self._ttl_run_with_provider_outage(
            {SANITIZE_ENV: "", SANITIZE_TIES_ENV: ""}
        )
        self.assertIsNone(plain_env.sanitizer)
        self.assertEqual(metrics, plain)


class TestDriverCli(_TinyCells):
    def _run(self, *argv):
        args = build_parser().parse_args(list(argv))
        out, err = io.StringIO(), io.StringIO()
        status = run_driver(args, out, err)
        return status, out.getvalue(), err.getvalue()

    def _tiny_args(self):
        return [
            "--servers", "6", "--users-per-server", "1", "--updates", "8",
            "--duration", "240", "--seed", "5", "--replicas", "1",
        ]

    def test_ok_cell_exits_zero(self):
        status, out, _ = self._run("push:unicast", *self._tiny_args())
        self.assertEqual(status, 0, out)
        self.assertIn("OK", out)
        self.assertIn("push:unicast", out)

    def test_ttl_cell_is_tie_order_independent_too(self):
        # Same-deadline TTL polls once re-paired draws under perturbation;
        # per-consumer streams (StreamRegistry) now keep the family immune.
        status, out, _ = self._run("ttl:unicast", *self._tiny_args())
        self.assertEqual(status, 0, out)
        self.assertIn("OK", out)

    def _run_with_stub(self, reports, *argv):
        import repro.experiments.sanitize as driver_module
        from repro.experiments.sanitize import CellReport

        stubs = {
            cell: CellReport(cell, identical=identical, ties=ties, diffs=diffs)
            for cell, identical, ties, diffs in reports
        }
        real = driver_module.sanitize_cell
        driver_module.sanitize_cell = (
            lambda cell, *args, **kwargs: stubs[cell]
        )
        try:
            return self._run(*argv)
        finally:
            driver_module.sanitize_cell = real

    def test_diverging_cell_exits_nonzero_with_diffs(self):
        status, out, _ = self._run_with_stub(
            [
                (
                    "push:unicast",
                    False,
                    [17],
                    ["replica 0 (tie seed 1000): metrics['mean']: "
                     "baseline=1.0 replica=2.0"],
                )
            ],
            "push:unicast",
        )
        self.assertEqual(status, 1)
        self.assertIn("DIVERGED", out)
        self.assertIn("replica 0", out)
        self.assertIn("metrics['mean']", out)

    def test_vacuous_cell_fails_with_its_own_message(self):
        status, out, _ = self._run_with_stub(
            [("push:unicast", True, [0], [])], "push:unicast"
        )
        self.assertEqual(status, 1)
        self.assertIn("VACUOUS", out)
        self.assertNotIn("DIVERGED", out)


if __name__ == "__main__":
    unittest.main()
