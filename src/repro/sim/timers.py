"""Batched deadline lanes: one control event per sweep of expiring timers.

One :class:`~repro.sim.engine.Timeout` per timed wait would make every
expiry its own heap pop, and at CDN scale the request timers dominate
the event queue, so timers are batched: entries that share a *delay*
(all ``30 s`` request timeouts, ...) land in one :class:`CallbackLane`
-- a pair of parallel arrays (deadline floats aligned with payloads).
Because every entry in a lane is armed with the same delay, deadlines
are appended in non-decreasing order (float rounding of ``now + delay``
is monotone in ``now``) and a single binary search finds the expired
prefix.  The arrays are plain Python lists swept with the C
:func:`bisect.bisect_right`: at the typical batch size (one to a few
hundred entries) that beats a numpy round-trip per sweep, while keeping
the same sorted-array algorithm.

Each lane owns exactly one reusable control :class:`Event` on the heap.
It is scheduled (via :meth:`Environment.schedule_at`, to hit the exact
float deadline) for the earliest pending deadline; when it pops, the
sweep fires every expired slot and re-arms the control event for the
next deadline.  N timers cost one control pop per *batch* of identical
deadlines instead of one pop per timer, and dead slots (already
answered) are skipped lazily without ever touching the heap.

Two clients share the one lane type: the user cohort batches its own
request timeouts (payloads are request rows), and :class:`TimerWheel`
keeps one lane per delay whose payloads are waiter events, succeeded
with ``None`` on expiry unless they triggered first.

Invariant: an entry armed at time ``t`` with delay ``d`` fires at
exactly ``t + d`` (the float ``env.timeout(d)`` would fire at), and
entries expiring at the same instant fire in arming order.
``tests/test_sim_engine.py`` holds the unit contract;
``tests/test_golden_digests.py`` pins the request timeouts of whole
deployments.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Any, Callable, Dict, List

from .engine import Environment, Event

__all__ = ["TimerWheel", "CallbackLane"]

#: Swept (dead) slots tolerated at the front of a lane before the
#: backing lists are compacted.
_COMPACT_SLACK = 1024


class CallbackLane:
    """A monotone-deadline lane that fires ``on_expire(payload)`` per slot.

    Parallel arrays, a bisect-swept expired prefix, one reusable control
    event, lazy cancellation with dead-slot pruning (see the module
    docstring).  Deadlines must be pushed in non-decreasing order (one
    lane per fixed delay gives this for free); ``is_dead(payload)`` lets
    already-answered slots be pruned without ever touching the heap.

    ``on_expire`` runs *inside* the control-event callback rather than
    through a per-slot heap event.  Slots expiring at the same instant
    fire in arming order, the order their per-timer events would have
    popped in.
    """

    __slots__ = (
        "env", "deadlines", "payloads", "head", "control", "on_expire",
        "is_dead", "armed", "expired", "cancelled", "sweeps", "_sweeping",
    )

    def __init__(
        self,
        env: Environment,
        on_expire: Callable[[Any], None],
        is_dead: Callable[[Any], bool],
    ) -> None:
        self.env = env
        self.on_expire = on_expire
        self.is_dead = is_dead
        self.deadlines: List[float] = []
        self.payloads: List[Any] = []
        self.head = 0
        # The lane's one reusable control event.  Pre-triggered so the
        # engine never sees _PENDING; idle iff ``callbacks is None``.
        control = Event(env)
        control._ok = True
        control._value = None
        control.callbacks = None
        self.control = control
        self.armed = 0
        self.expired = 0
        self.cancelled = 0
        self.sweeps = 0
        self._sweeping = False

    def push(self, deadline: float, payload: Any) -> None:
        deadlines = self.deadlines
        if deadlines and deadline < deadlines[-1]:
            raise ValueError(
                "CallbackLane deadlines must be monotone: %r < %r"
                % (deadline, deadlines[-1])
            )
        deadlines.append(deadline)
        self.payloads.append(payload)
        self.armed += 1
        control = self.control
        # During a sweep the engine has already taken the control
        # event's callbacks, so ``callbacks is None`` does not mean
        # "unarmed"; the sweep's own re-arm pass (which sees this push)
        # is the sole arming point then -- arming here too would leave
        # a duplicate heap entry AND could arm later than an older
        # still-pending slot.
        if control.callbacks is None and not self._sweeping:
            control.callbacks = [self._sweep]
            self.env.schedule_at(control, deadline)

    def _sweep(self, _event: Event) -> None:
        deadlines = self.deadlines
        payloads = self.payloads
        head = self.head
        tail = len(deadlines)
        cut = bisect_right(deadlines, self.env._now, head, tail)
        is_dead = self.is_dead
        on_expire = self.on_expire
        sanitizer = self.env.sanitizer
        if sanitizer is not None and not sanitizer.traps:
            sanitizer = None
        self._sweeping = True
        try:
            for index in range(head, cut):
                payload = payloads[index]
                payloads[index] = None
                if payload is None or is_dead(payload):
                    self.cancelled += 1
                else:
                    on_expire(payload)
                    self.expired += 1
                    if sanitizer is not None:
                        # Trap the PR 8 corruption shape at its source:
                        # a callback that touched the arrays mid-sweep.
                        # ``head`` is the pre-sweep value -- the sweep
                        # itself only moves it after this loop.
                        sanitizer.check_lane_after_callback(
                            self, head, on_expire, payload
                        )
        finally:
            self._sweeping = False
        self.sweeps += 1
        # ``on_expire`` may have pushed new slots: re-read the tail so
        # the re-arm/drain decision below sees them.
        tail = len(deadlines)
        # Prune already-dead slots *beyond* the expired prefix before
        # re-arming.  Request timeouts are normally answered long before
        # they fire, so by the time one control pop comes due, nearly
        # the whole lane is dead: skipping those slots here means the
        # control event re-arms at the first *live* deadline (often
        # none at all) instead of popping once per dead batch.
        while cut < tail:
            payload = payloads[cut]
            if payload is not None and not is_dead(payload):
                break
            payloads[cut] = None
            self.cancelled += 1
            cut += 1
        if cut < tail:
            if cut >= _COMPACT_SLACK and cut * 2 >= tail:
                # Mostly dead slots at the front: reclaim the memory.
                del deadlines[:cut]
                del payloads[:cut]
                cut = 0
            self.head = cut
            control = self.control
            control.callbacks = [self._sweep]
            self.env.schedule_at(control, deadlines[cut])
        else:
            # Drained: reset so the backing lists restart from slot 0.
            deadlines.clear()
            payloads.clear()
            self.head = 0

    @property
    def pending(self) -> int:
        return len(self.deadlines) - self.head


def _succeed_waiter(waiter: Event) -> None:
    waiter.succeed(None)


def _waiter_answered(waiter: Event) -> bool:
    return waiter.callbacks is None or waiter.triggered


class TimerWheel:
    """Per-environment registry of waiter lanes, one per delay value."""

    __slots__ = ("env", "_lanes", "armed")

    def __init__(self, env: Environment) -> None:
        self.env = env
        self._lanes: Dict[float, CallbackLane] = {}
        #: Timers armed (for tests / docs); see also the lane sums below.
        self.armed = 0

    def arm(self, delay: float, waiter: Event) -> None:
        """Succeed *waiter* with ``None`` after *delay* unless it triggers
        first.

        The waiter is observed lazily at expiry: if it has already been
        succeeded (a response arrived) or processed, the slot is skipped.
        Callers therefore need no explicit cancel -- dropping the timer
        costs nothing on the heap.
        """
        if delay < 0:
            raise ValueError("negative delay %s" % delay)
        env = self.env
        lane = self._lanes.get(delay)
        if lane is None:
            lane = self._lanes[delay] = CallbackLane(
                env, _succeed_waiter, _waiter_answered
            )
        # Same float arithmetic as ``Timeout``: now + delay.
        lane.push(env._now + delay, waiter)
        self.armed += 1

    @property
    def expired(self) -> int:
        """Waiters succeeded by a sweep."""
        return sum(lane.expired for lane in self._lanes.values())

    @property
    def cancelled(self) -> int:
        """Slots skipped because their waiter was already answered."""
        return sum(lane.cancelled for lane in self._lanes.values())

    @property
    def sweeps(self) -> int:
        """Control-event sweeps executed."""
        return sum(lane.sweeps for lane in self._lanes.values())

    @property
    def pending(self) -> int:
        """Number of timer slots currently queued across all lanes
        (including lazily-cancelled waiters not yet swept)."""
        return sum(lane.pending for lane in self._lanes.values())
