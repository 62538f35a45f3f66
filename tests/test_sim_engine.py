"""Tests for the discrete-event engine core (repro.sim.engine)."""

import pytest

from repro.sim import Environment


class TestEvent:
    def test_untriggered_event_has_no_value(self):
        env = Environment()
        event = env.event()
        assert not event.triggered
        with pytest.raises(AttributeError):
            _ = event.value
        with pytest.raises(AttributeError):
            _ = event.ok

    def test_succeed_sets_value_and_ok(self):
        env = Environment()
        event = env.event()
        event.succeed(41)
        assert event.triggered
        assert event.ok
        assert event.value == 41

    def test_double_succeed_raises(self):
        env = Environment()
        event = env.event()
        event.succeed()
        with pytest.raises(RuntimeError):
            event.succeed()

    def test_fail_requires_exception(self):
        env = Environment()
        event = env.event()
        with pytest.raises(ValueError):
            event.fail("not an exception")

    def test_failed_event_propagates_from_run(self):
        env = Environment()
        event = env.event()
        event.fail(RuntimeError("boom"))
        with pytest.raises(RuntimeError, match="boom"):
            env.run()

    def test_defused_failure_does_not_propagate(self):
        env = Environment()
        event = env.event()
        event.fail(RuntimeError("boom"))
        event.defused = True
        env.run()  # no raise


class TestTimeout:
    def test_negative_delay_rejected(self):
        env = Environment()
        with pytest.raises(ValueError):
            env.timeout(-1)

    def test_timeout_carries_value(self):
        env = Environment()

        def proc(env):
            value = yield env.timeout(3, "payload")
            return value

        process = env.process(proc(env))
        assert env.run(until=process) == "payload"
        assert env.now == 3

    def test_zero_delay_fires_immediately(self):
        env = Environment()
        log = []

        def proc(env):
            yield env.timeout(0)
            log.append(env.now)

        env.process(proc(env))
        env.run()
        assert log == [0]


class TestEnvironment:
    def test_now_starts_at_initial_time(self):
        assert Environment().now == 0.0
        assert Environment(10.0).now == 10.0

    def test_peek_returns_next_event_time(self):
        env = Environment()
        assert env.peek() == float("inf")
        env.timeout(7)
        assert env.peek() == 7

    def test_run_until_time_stops_exactly(self):
        env = Environment()

        def ticker(env):
            while True:
                yield env.timeout(1)

        env.process(ticker(env))
        env.run(until=5)
        assert env.now == 5

    def test_run_until_past_time_rejected(self):
        env = Environment(100.0)
        with pytest.raises(ValueError):
            env.run(until=50)

    def test_run_until_event_returns_its_value(self):
        env = Environment()

        def proc(env):
            yield env.timeout(2)
            return "done"

        process = env.process(proc(env))
        assert env.run(until=process) == "done"

    def test_run_drains_queue_without_until(self):
        env = Environment()
        env.timeout(1)
        env.timeout(5)
        env.run()
        assert env.now == 5

    def test_run_until_untriggerable_event_raises(self):
        env = Environment()
        orphan = env.event()
        env.timeout(1)
        with pytest.raises(RuntimeError, match="until"):
            env.run(until=orphan)

    def test_fifo_order_for_simultaneous_events(self):
        env = Environment()
        order = []

        def proc(env, name):
            yield env.timeout(5)
            order.append(name)

        for name in ("a", "b", "c"):
            env.process(proc(env, name))
        env.run()
        assert order == ["a", "b", "c"]

    def test_determinism_across_runs(self):
        def build_and_run():
            env = Environment()
            order = []

            def proc(env, name, delay):
                yield env.timeout(delay)
                order.append((env.now, name))

            for name, delay in [("x", 3), ("y", 1), ("z", 3)]:
                env.process(proc(env, name, delay))
            env.run()
            return order

        assert build_and_run() == build_and_run()


class TestPooledTimeout:
    def test_behaves_like_timeout(self):
        env = Environment()
        seen = []

        def proc(env):
            value = yield env.pooled_timeout(2.5, value="tick")
            seen.append((env.now, value))
            yield env.pooled_timeout(1.0)
            seen.append((env.now, None))

        env.process(proc(env))
        env.run()
        assert seen == [(2.5, "tick"), (3.5, None)]

    def test_recycles_fired_timeouts(self):
        env = Environment()
        instances = []

        def proc(env):
            for _ in range(4):
                timeout = env.pooled_timeout(1.0)
                instances.append(id(timeout))
                yield timeout

        env.process(proc(env))
        env.run()
        # A fired timeout is recycled after its callbacks finish, so the
        # process's next sleep allocates one more object and the two then
        # alternate forever: 4 sleeps touch only 2 distinct objects.
        assert len(set(instances)) == 2
        assert instances[0] == instances[2]
        assert instances[1] == instances[3]

    def test_negative_delay_rejected(self):
        env = Environment()

        def proc(env):
            # Fresh allocation (empty pool) and the recycled path must
            # both reject a negative delay.
            with pytest.raises(ValueError):
                env.pooled_timeout(-1.0)
            yield env.pooled_timeout(1.0)  # fires, then lands in the pool
            with pytest.raises(ValueError):
                env.pooled_timeout(-1.0)

        env.process(proc(env))
        env.run()


class TestTimerWheel:
    def test_fires_in_deadline_order_across_lanes(self):
        env = Environment()
        fired = []
        for delay in (5.0, 1.0, 3.0):
            waiter = env.event()
            waiter.callbacks.append(
                lambda ev, d=delay: fired.append((env.now, d))
            )
            env.timers.arm(delay, waiter)
        env.run()
        assert fired == [(1.0, 1.0), (3.0, 3.0), (5.0, 5.0)]

    def test_same_lane_is_fifo_and_sweeps_in_one_batch(self):
        env = Environment()
        fired = []
        for index in range(10):
            waiter = env.event()
            waiter.callbacks.append(lambda ev, i=index: fired.append(i))
            env.timers.arm(2.0, waiter)
        env.run()
        assert fired == list(range(10))
        assert env.timers.armed == 10
        assert env.timers.expired == 10
        assert env.timers.sweeps == 1  # one control event for the batch
        assert env.timers.pending == 0

    def test_cancelled_waiters_are_skipped_lazily(self):
        env = Environment()
        fired = []
        waiters = []
        for index in range(4):
            waiter = env.event()
            waiter.callbacks.append(lambda ev, i=index: fired.append(i))
            env.timers.arm(1.0, waiter)
            waiters.append(waiter)
        waiters[1].callbacks = None  # cancel, simpy-style
        env.run()
        assert fired == [0, 2, 3]
        assert env.timers.cancelled == 1
        assert env.timers.expired == 3

    def test_answered_waiters_past_the_prefix_are_pruned_in_one_sweep(self):
        env = Environment()
        first = env.event()
        env.timers.arm(1.0, first)  # deadline 1.0
        late = []

        def driver(env):
            yield env.timeout(0.5)
            for _ in range(2):
                waiter = env.event()
                env.timers.arm(1.0, waiter)  # deadline 1.5
                late.append(waiter)
            yield env.timeout(0.1)
            for waiter in late:
                waiter.succeed("answered")  # the response won the race

        env.process(driver(env))
        env.run()
        # The sweep at 1.0 expires `first`, then prunes both answered
        # slots beyond the expired prefix instead of re-arming for 1.5.
        assert first.value is None
        assert env.timers.sweeps == 1
        assert env.timers.expired == 1
        assert env.timers.cancelled == 2
        assert env.timers.pending == 0
        assert env.now == 1.0

    def test_negative_delay_rejected(self):
        env = Environment()
        with pytest.raises(ValueError, match="negative"):
            env.timers.arm(-0.1, env.event())

    def test_lane_grows_past_initial_capacity(self):
        env = Environment()
        n = 300  # > _INITIAL_CAPACITY, forces growth/compaction
        fired = []

        def driver(env):
            for index in range(n):
                waiter = env.event()
                waiter.callbacks.append(lambda ev, i=index: fired.append(i))
                env.timers.arm(1.0, waiter)
                yield env.pooled_timeout(0.25)

        env.process(driver(env))
        env.run()
        assert fired == list(range(n))
        assert env.timers.armed == n
        assert env.timers.expired == n
        assert env.timers.pending == 0

    def test_deadline_matches_timeout_float(self):
        # The wheel computes `env._now + delay` -- the exact float a
        # Timeout produces -- so both fire at the same instant even
        # where decimal arithmetic would disagree.
        env = Environment()
        out = []

        def driver(env):
            yield env.pooled_timeout(0.1)
            waiter = env.event()
            waiter.callbacks.append(lambda ev: out.append(env.now))
            env.timers.arm(0.2, waiter)
            timeout = env.timeout(0.2)
            timeout.callbacks.append(lambda ev: out.append(env.now))
            yield env.pooled_timeout(1.0)

        env.process(driver(env))
        env.run()
        assert len(out) == 2 and out[0] == out[1]

    def test_now_stays_builtin_float_after_rearm(self):
        # Sweep re-arms read deadlines out of a numpy array; env.now
        # must stay a builtin float (np.float64 breaks json.dump).
        env = Environment()
        env.timers.arm(1.0, env.event())

        def driver(env):
            yield env.pooled_timeout(0.5)
            env.timers.arm(1.0, env.event())

        env.process(driver(env))
        env.run()
        assert env.now == 1.5
        assert type(env.now) is float
