"""Tests for Resource."""

import pytest

from repro.sim import Environment, Resource


class TestResource:
    def test_capacity_must_be_positive(self):
        env = Environment()
        with pytest.raises(ValueError):
            Resource(env, capacity=0)

    def test_serialises_users_fifo(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        log = []

        def worker(env, name):
            grant = resource.request()
            yield grant
            log.append(("start", name, env.now))
            yield env.timeout(10)
            resource.release_fast(grant)
            log.append(("end", name, env.now))

        for name in ("a", "b", "c"):
            env.process(worker(env, name))
        env.run()
        assert log == [
            ("start", "a", 0),
            ("end", "a", 10),
            ("start", "b", 10),
            ("end", "b", 20),
            ("start", "c", 20),
            ("end", "c", 30),
        ]

    def test_capacity_two_runs_two_concurrently(self):
        env = Environment()
        resource = Resource(env, capacity=2)
        starts = []

        def worker(env):
            grant = resource.request()
            yield grant
            starts.append(env.now)
            yield env.timeout(5)
            resource.release_fast(grant)

        for _ in range(4):
            env.process(worker(env))
        env.run()
        assert starts == [0, 0, 5, 5]

    def test_count_and_queue_length(self):
        env = Environment()
        resource = Resource(env, capacity=1)

        def holder(env):
            grant = resource.request()
            yield grant
            yield env.timeout(10)
            resource.release_fast(grant)

        def observer(env):
            yield env.timeout(1)
            request = resource.request()  # queued behind the holder
            assert resource.count == 1
            assert resource.queue_length == 1
            yield request  # granted when the holder releases
            assert env.now == 10
            assert resource.count == 1
            assert resource.queue_length == 0

        env.process(holder(env))
        env.process(observer(env))
        env.run()
