"""Tests for processes and interrupts."""

import pytest

from repro.sim import Environment, Interrupt, Process


class TestProcess:
    def test_non_generator_rejected(self):
        env = Environment()
        with pytest.raises(ValueError):
            env.process(lambda: None)

    def test_process_is_alive_until_done(self):
        env = Environment()

        def proc(env):
            yield env.timeout(5)

        process = env.process(proc(env))
        assert process.is_alive
        env.run()
        assert not process.is_alive

    def test_return_value_becomes_event_value(self):
        env = Environment()

        def proc(env):
            yield env.timeout(1)
            return 42

        process = env.process(proc(env))
        env.run()
        assert process.value == 42

    def test_waiting_on_another_process(self):
        env = Environment()

        def child(env):
            yield env.timeout(4)
            return "child-result"

        def parent(env):
            result = yield env.process(child(env))
            return (env.now, result)

        parent_proc = env.process(parent(env))
        assert env.run(until=parent_proc) == (4, "child-result")

    def test_exception_in_process_propagates(self):
        env = Environment()

        def bad(env):
            yield env.timeout(1)
            raise ValueError("inner")

        env.process(bad(env))
        with pytest.raises(ValueError, match="inner"):
            env.run()

    def test_exception_catchable_by_waiter(self):
        env = Environment()

        def bad(env):
            yield env.timeout(1)
            raise ValueError("inner")

        def waiter(env):
            try:
                yield env.process(bad(env))
            except ValueError as exc:
                return "caught %s" % exc

        process = env.process(waiter(env))
        assert env.run(until=process) == "caught inner"

    def test_yielding_non_event_fails_the_process(self):
        env = Environment()

        def bad(env):
            yield "not an event"

        env.process(bad(env))
        with pytest.raises(RuntimeError, match="invalid yield"):
            env.run()

    def test_yield_already_processed_event_resumes_immediately(self):
        env = Environment()

        def proc(env):
            timeout = env.timeout(1, "early")
            yield env.timeout(5)
            value = yield timeout  # already processed at t=1
            return (env.now, value)

        process = env.process(proc(env))
        assert env.run(until=process) == (5, "early")


class TestAdoptedProcess:
    """A generator already run to its first ``yield`` becomes a process
    waiting on the event it yielded."""

    @staticmethod
    def _started(generator):
        return generator, next(generator)

    def test_resumes_with_the_first_events_value(self):
        env = Environment()
        log = []

        def task(env):
            log.append(("start", env.now))
            value = yield env.timeout(3, "x")
            log.append((value, env.now))
            yield env.timeout(1)
            return "done"

        generator, first = self._started(task(env))
        assert log == [("start", 0)]
        process = Process(env, generator, first)
        assert env.run(until=process) == "done"
        assert log == [("start", 0), ("x", 3)]
        assert env.now == 4

    def test_costs_what_a_fresh_process_costs(self):
        def task(env):
            yield env.timeout(2)
            yield env.timeout(1)

        fresh = Environment()
        fresh.process(task(fresh))
        fresh.run()
        adopted = Environment()
        Process(adopted, *self._started(task(adopted)))
        adopted.run()
        assert adopted.events_processed == fresh.events_processed

    def test_already_processed_first_event_resumes_at_start(self):
        env = Environment()
        done = env.event()
        done.succeed("ready")
        env.run()
        seen = []

        def task():
            seen.append((yield done))

        Process(env, *self._started(task()))
        env.run()
        assert seen == ["ready"]

    def test_failed_first_event_is_thrown_into_the_generator(self):
        env = Environment()
        log = []

        def task(env):
            failing = env.event()
            failing.fail(ValueError("boom"))
            try:
                yield failing
            except ValueError as exc:
                log.append(str(exc))
            finally:
                log.append("finally")

        Process(env, *self._started(task(env)))
        env.run()
        assert log == ["boom", "finally"]

    def test_interrupt_detaches_from_the_first_event(self):
        """The start event is queued ahead of any interrupt, so the
        interrupt finds the process hooked on its first event."""
        env = Environment()
        log = []

        def task(env):
            try:
                yield env.timeout(5)
                log.append("woke")
            except Interrupt as interrupt:
                log.append((interrupt.cause, env.now))
                yield env.timeout(10)
                log.append(("after", env.now))

        process = Process(env, *self._started(task(env)))
        process.interrupt("stop")
        env.run()
        assert log == [("stop", 0), ("after", 10)]


class TestInterrupt:
    def test_interrupt_delivers_cause(self):
        env = Environment()

        def sleeper(env):
            try:
                yield env.timeout(100)
            except Interrupt as interrupt:
                return (env.now, interrupt.cause)

        process = env.process(sleeper(env))

        def killer(env):
            yield env.timeout(3)
            process.interrupt("reason")

        env.process(killer(env))
        assert env.run(until=process) == (3, "reason")

    def test_interrupted_process_can_keep_running(self):
        env = Environment()

        def sleeper(env):
            try:
                yield env.timeout(100)
            except Interrupt:
                pass
            yield env.timeout(10)
            return env.now

        process = env.process(sleeper(env))

        def killer(env):
            yield env.timeout(5)
            process.interrupt()

        env.process(killer(env))
        assert env.run(until=process) == 15

    def test_cannot_interrupt_dead_process(self):
        env = Environment()

        def quick(env):
            yield env.timeout(1)

        process = env.process(quick(env))
        env.run()
        with pytest.raises(RuntimeError):
            process.interrupt()

    def test_self_interrupt_rejected(self):
        env = Environment()
        holder = {}

        def selfish(env):
            holder["me"].interrupt()
            yield env.timeout(1)

        holder["me"] = env.process(selfish(env))
        with pytest.raises(RuntimeError):
            env.run()
