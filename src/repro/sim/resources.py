"""Shared resources for the simulation engine.

:class:`Resource` -- a capacity-limited resource with a FIFO wait queue
(models a node's output network port: transmissions serialise).  A
contended claim waits on a :class:`Request` event; every slot is given
back with :meth:`Resource.release_fast`, which grants the next waiter.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List

from .engine import Environment, Event

__all__ = ["Resource", "Request"]


class Request(Event):
    """Event fired once the resource has granted the request."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.env)
        self.resource = resource
        resource._do_request(self)


class Resource:
    """A resource with ``capacity`` usage slots and a FIFO wait queue."""

    def __init__(self, env: Environment, capacity: int = 1) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be > 0, got %r" % (capacity,))
        self.env = env
        self._capacity = capacity
        #: Granted requests -- or opaque fast-claim tokens (`try_claim`).
        self.users: List[Any] = []
        self._queue: Deque[Request] = deque()

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def count(self) -> int:
        """Number of users currently holding the resource."""
        return len(self.users)

    @property
    def queue_length(self) -> int:
        """Number of waiting (ungranted) requests."""
        return len(self._queue)

    def request(self) -> Request:
        """Request a usage slot; the returned event fires when granted."""
        return Request(self)

    def try_claim(self, token: Any) -> bool:
        """Claim a slot synchronously when the resource is uncontended.

        Skips the :class:`Request` event entirely: no grant event is
        scheduled, *token* (any object) marks the occupied slot in
        ``users``.  Fails -- returning ``False`` -- whenever a slot is
        taken or anyone is waiting, so fast claims can never overtake
        the FIFO queue.  Pair with :meth:`release_fast`.
        """
        if self._queue or len(self.users) >= self._capacity:
            return False
        self.users.append(token)
        return True

    def release_fast(self, token: Any) -> None:
        """Release a slot held by *token* (a fast claim or a granted
        :class:`Request`) and grant the waiters now able to run."""
        try:
            self.users.remove(token)
        except ValueError:  # pragma: no cover - defensive
            pass
        self._grant_waiters()

    def _do_request(self, request: Request) -> None:
        if len(self.users) < self._capacity:
            self.users.append(request)
            request.succeed()
        else:
            self._queue.append(request)

    def _grant_waiters(self) -> None:
        while self._queue and len(self.users) < self._capacity:
            request = self._queue.popleft()
            self.users.append(request)
            request.succeed()
