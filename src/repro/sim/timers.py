"""Batched timer wheel: one control event per sweep of expiring timers.

One :class:`~repro.sim.engine.Timeout` plus one condition per timed
wait would make every expiry its own heap pop, and at CDN scale the
poll/request timers dominate the event queue, so the wheel batches
them: waiters that share a *delay* (all ``30 s`` request
timeouts, all ``ttl_s`` poll timers, ...) land in one *lane* -- a pair
of parallel arrays (deadline floats aligned with waiter events).
Because every entry in a lane is armed with the same delay, deadlines
are appended in non-decreasing order and a single binary search finds
the expired prefix.  The arrays are plain Python lists swept with the C
:func:`bisect.bisect_right`: at the typical batch size (one to a few
hundred entries) that beats a numpy round-trip per sweep, while keeping
the same sorted-array algorithm.

Each lane owns exactly one reusable control :class:`Event` on the heap.
It is scheduled (via :meth:`Environment.schedule_at`, to hit the exact
float deadline) for the earliest pending deadline; when it pops, the sweep succeeds every expired waiter
and re-arms the control event for the next deadline.  N timers cost one
control pop per *batch* of identical deadlines instead of one pop per
timer, and cancelled waiters (``callbacks is None`` or already
triggered) are skipped lazily without ever touching the heap.

Invariant: a waiter armed at time ``t`` with delay ``d`` is succeeded
at exactly ``t + d`` (the float ``env.timeout(d)`` would fire at), and
waiters expiring at the same instant are succeeded in arming order.
Waiter callbacks run through the heap (:meth:`Event.succeed`
schedules), so user code can never push into a lane in the middle of
its own sweep.  ``tests/test_sim_engine.py`` holds the unit contract;
``tests/test_golden_digests.py`` pins the request and poll timeouts of
whole deployments.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Any, Callable, Dict, List, Optional

from .engine import Environment, Event

__all__ = ["TimerWheel", "CallbackLane"]

#: Swept (dead) slots tolerated at the front of a lane before the
#: backing lists are compacted.
_COMPACT_SLACK = 1024


class _Lane:
    """All pending timers sharing one delay value (parallel arrays)."""

    __slots__ = ("env", "wheel", "deadlines", "waiters", "head", "control")

    def __init__(self, env: Environment, wheel: "TimerWheel") -> None:
        self.env = env
        self.wheel = wheel
        self.deadlines: List[float] = []
        self.waiters: List[Optional[Event]] = []
        self.head = 0
        # The lane's one reusable control event.  Pre-triggered so the
        # engine never sees _PENDING; idle iff ``callbacks is None``.
        control = Event(env)
        control._ok = True
        control._value = None
        control.callbacks = None
        self.control = control

    def push(self, deadline: float, waiter: Event) -> None:
        self.deadlines.append(deadline)
        self.waiters.append(waiter)
        control = self.control
        if control.callbacks is None:
            # Lane was drained: arm the control event at this deadline.
            control.callbacks = [self._sweep]
            self.env.schedule_at(control, deadline)
        # Otherwise the control event is already scheduled at an earlier
        # (or equal) deadline: same-delay arming keeps lanes monotone.

    def _sweep(self, _event: Event) -> None:
        """Control-event callback: fire every expired waiter in order."""
        deadlines = self.deadlines
        waiters = self.waiters
        head = self.head
        tail = len(deadlines)
        cut = bisect_right(deadlines, self.env._now, head, tail)
        wheel = self.wheel
        for index in range(head, cut):
            waiter = waiters[index]
            waiters[index] = None
            if waiter is None or waiter.callbacks is None or waiter.triggered:
                wheel.cancelled += 1  # lazily-cancelled: never hit the heap
            else:
                waiter.succeed(None)
                wheel.expired += 1
        wheel.sweeps += 1
        # Prune already-dead waiters *beyond* the expired prefix before
        # re-arming.  Request timeouts are normally answered long before
        # they fire, so by the time one control pop comes due, nearly
        # the whole lane is cancelled: skipping those slots here means
        # the control event re-arms at the first *live* deadline (often
        # none at all) instead of popping once per dead batch.
        while cut < tail:
            waiter = waiters[cut]
            if waiter is not None and waiter.callbacks is not None and not waiter.triggered:
                break
            waiters[cut] = None
            wheel.cancelled += 1
            cut += 1
        if cut < tail:
            if cut >= _COMPACT_SLACK and cut * 2 >= tail:
                # Mostly dead slots at the front: reclaim the memory.
                del deadlines[:cut]
                del waiters[:cut]
                cut = 0
            self.head = cut
            control = self.control
            control.callbacks = [self._sweep]
            self.env.schedule_at(control, deadlines[cut])
        else:
            # Drained: reset so the backing lists restart from slot 0.
            deadlines.clear()
            waiters.clear()
            self.head = 0


class CallbackLane:
    """A monotone-deadline lane that fires ``on_expire(payload)`` per slot.

    Same sweep mechanics as the wheel's internal ``_Lane`` -- parallel
    arrays, a bisect-swept expired prefix, one reusable control event,
    lazy cancellation with dead-slot pruning -- but payload-carrying and
    callback-driven, for subsystems that batch their own timers (the
    user cohort's request timeouts).  Deadlines must be pushed in
    non-decreasing order (one lane per fixed delay gives this for
    free); ``is_dead(payload)`` lets already-answered slots be pruned
    without ever touching the heap.

    Unlike waiter lanes, ``on_expire`` runs *inside* the control-event
    callback rather than through a per-slot heap event.  Slots expiring
    at the same instant fire in arming order, the order their per-timer
    events would have popped in.
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
        while cut < tail:
            payload = payloads[cut]
            if payload is not None and not is_dead(payload):
                break
            payloads[cut] = None
            self.cancelled += 1
            cut += 1
        if cut < tail:
            if cut >= _COMPACT_SLACK and cut * 2 >= tail:
                del deadlines[:cut]
                del payloads[:cut]
                cut = 0
            self.head = cut
            control = self.control
            control.callbacks = [self._sweep]
            self.env.schedule_at(control, deadlines[cut])
        else:
            deadlines.clear()
            payloads.clear()
            self.head = 0

    @property
    def pending(self) -> int:
        return len(self.deadlines) - self.head


class TimerWheel:
    """Per-environment registry of delay lanes (see module docstring)."""

    __slots__ = ("env", "_lanes", "armed", "expired", "cancelled", "sweeps")

    def __init__(self, env: Environment) -> None:
        self.env = env
        self._lanes: Dict[float, _Lane] = {}
        #: Stats (for tests / docs): timers armed, fired, lazily dropped,
        #: and control-event sweeps executed.
        self.armed = 0
        self.expired = 0
        self.cancelled = 0
        self.sweeps = 0

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
            lane = self._lanes[delay] = _Lane(env, self)
        # Same float arithmetic as ``Timeout``: now + delay.
        lane.push(env._now + delay, waiter)
        self.armed += 1

    @property
    def pending(self) -> int:
        """Number of timer slots currently queued across all lanes
        (including lazily-cancelled waiters not yet swept)."""
        return sum(len(lane.deadlines) - lane.head for lane in self._lanes.values())
