"""Struct-of-arrays end-user plane.

Every end user of a deployment (and of a hand-wired model) is one slot
of a :class:`UserCohort`.  A user periodically requests the live
content from a server -- its fixed home server, or a different random
server on every visit (the Fig. 24 switch-every-visit redirection) --
and records every :class:`Observation`; the observation log is the raw
material for all user-perspective metrics.  At the ROADMAP's planet
scale (1M+ users) per-user generator frames, pending dicts and waiter
events would dominate both memory and GC time, so:

- per-slot state (poll TTL, failed-visit count, home/last server,
  running staleness accumulators) lives in parallel unboxed numpy
  arrays; every metric-facing computation runs in scalar Python space,
  so reads are coerced with ``float()``/``int()`` before they can reach
  the event heap or a metrics dict;
- visit deadlines live in one binary heap swept by a single reusable
  control event (scheduled with
  :meth:`~repro.sim.engine.Environment.schedule_at` at the exact float
  deadline);
- request timeouts share one monotone
  :class:`~repro.sim.timers.CallbackLane` (all requests use the same
  ``REQUEST_TIMEOUT_S`` delay, so deadlines arrive pre-sorted) with
  answered requests pruned lazily;
- observations feed the incremental staleness trackers directly -- per
  slot in ``per-user`` mode, or through
  :class:`~repro.metrics.incremental.AggregateUserMetrics` scalar
  accumulators in ``aggregate`` mode (no observation retention at all).

Determinism contract (``tests/test_golden_digests.py`` pins it on the
method x infrastructure x seed grid, both selectors, aggregate metrics
and the population edges):

- Each visit sends one :class:`~repro.network.message.Message` through
  the shared fabric, so counters, traces and cause attribution see
  ordinary traffic.
- Selector RNG draws (the switch-every-visit stream) happen at the
  visit instant, in global visit order.
- A visit's next deadline is ``response_time + ttl`` or
  ``timeout_time + ttl``, with the TTL read when the deadline is pushed
  (so mid-run TTL perturbations apply from the next visit).
- Same-instant visit expiries run in arming order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..metrics.incremental import AggregateUserMetrics, UserObservationTracker
from ..network.message import Message, MessageKind
from ..sim.engine import Environment, Event
from ..sim.timers import CallbackLane
from .base import RESPONSE_KINDS

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from ..network.link import NetworkFabric
    from ..network.node import NetworkNode
    from ..sim.rng import RandomStream
    from .content import LiveContent

__all__ = ["UserCohort", "Observation", "REQUEST_TIMEOUT_S"]

#: Default content-request timeout.
REQUEST_TIMEOUT_S = 30.0

_INF = float("inf")
_CONTENT_REQUEST = MessageKind.CONTENT_REQUEST


@dataclass(frozen=True)
class Observation:
    """One successful content visit by one user."""

    time: float
    version: int
    server_id: str


class UserCohort:
    """All end users of one deployment, stored column-wise.

    *nodes* come with one start offset per slot (deployments use
    home-server-major slot order, see ``testbed._make_users``).  Exactly
    one of *targets* (fixed selector: the home server node per slot) or
    *switch_servers* + *switch_stream* (the Fig. 24 switch-every-visit
    selector) must be given.
    """

    __slots__ = (
        "env",
        "fabric",
        "content",
        "nodes",
        "user_metrics",
        "aggregate",
        "trackers",
        "_ttl",
        "_failed",
        "_start_offsets",
        "_fixed",
        "_targets",
        "_switch_servers",
        "_switch_stream",
        "_switch_last",
        "_pending",
        "_visit_heap",
        "_order",
        "_armed_event",
        "_armed_at",
        "_timeouts",
        "_timeout_s",
        "_light_kb",
        "_observations",
        "_views",
        "_started",
        "sweeps",
        "visits_started",
    )

    def __init__(
        self,
        env: Environment,
        fabric: "NetworkFabric",
        content: "LiveContent",
        nodes: Sequence["NetworkNode"],
        *,
        user_ttl_s: float,
        start_offsets: Sequence[float],
        targets: Optional[Sequence["NetworkNode"]] = None,
        switch_servers: Optional[Sequence["NetworkNode"]] = None,
        switch_stream: Optional["RandomStream"] = None,
        user_metrics: str = "per-user",
        request_timeout_s: float = REQUEST_TIMEOUT_S,
    ) -> None:
        if not (math.isfinite(user_ttl_s) and user_ttl_s > 0):
            raise ValueError("user_ttl_s must be finite and positive")
        if user_metrics not in ("per-user", "aggregate"):
            raise ValueError("user_metrics must be 'per-user' or 'aggregate'")
        n = len(nodes)
        if len(start_offsets) != n:
            raise ValueError("start_offsets must have one entry per node")
        if (targets is None) == (switch_servers is None):
            raise ValueError("give exactly one of targets / switch_servers")
        if targets is not None and len(targets) != n:
            raise ValueError("targets must have one entry per node")
        if switch_servers is not None:
            if not switch_servers:
                raise ValueError("need at least one server")
            if switch_stream is None:
                raise ValueError("switch_servers requires switch_stream")
        self.env = env
        self.fabric = fabric
        self.content = content
        self.nodes = list(nodes)
        self.user_metrics = user_metrics
        self._ttl = np.full(n, user_ttl_s, dtype=np.float64)
        self._failed = np.zeros(n, dtype=np.int64)
        self._start_offsets = [float(offset) for offset in start_offsets]
        self._fixed = targets is not None
        self._targets: List["NetworkNode"] = list(targets) if targets is not None else []
        self._switch_servers: List["NetworkNode"] = (
            list(switch_servers) if switch_servers is not None else []
        )
        self._switch_stream = switch_stream
        self._switch_last: List[Optional["NetworkNode"]] = (
            [None] * n if switch_servers is not None else []
        )
        #: In-flight requests: message seq -> (slot, request, target).
        #: The request message is retained for ``msg_timeout`` trace
        #: detail; the target for the visit traces and observations.
        self._pending: Dict[int, Tuple[int, Message, "NetworkNode"]] = {}
        self._visit_heap: List[Tuple[float, int, int]] = []
        self._order = 0
        self._armed_event: Optional[Event] = None
        self._armed_at = _INF
        self._timeouts = CallbackLane(env, self._on_request_timeout, self._request_done)
        self._timeout_s = float(request_timeout_s)
        self._light_kb = content.light_size_kb
        #: Stats for tests / docs: control-event sweeps and visits begun.
        self.sweeps = 0
        self.visits_started = 0
        if user_metrics == "aggregate":
            times = list(content.update_times)
            self.aggregate: Optional[AggregateUserMetrics] = AggregateUserMetrics(
                content, n, times=times
            )
            self.trackers: List[UserObservationTracker] = []
            self._observations: Optional[List[List[Tuple[float, int, str]]]] = None
        else:
            times = list(content.update_times)
            self.aggregate = None
            self.trackers = [
                UserObservationTracker(content, times=times) for _ in range(n)
            ]
            self._observations = [[] for _ in range(n)]
        self._views: Optional[List["_CohortUserView"]] = None
        self._started = False
        for node in self.nodes:
            node.consumer = self._consume

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def n_users(self) -> int:
        return len(self.nodes)

    def start(self) -> None:
        """Arm every slot's first visit (idempotent)."""
        if self._started:
            return
        self._started = True
        heap = [
            (offset, slot, slot)
            for slot, offset in enumerate(self._start_offsets)
        ]
        heapify(heap)
        self._visit_heap = heap
        self._order = len(heap)
        if heap:
            self._arm(heap[0][0])

    # ------------------------------------------------------------------
    # visit-deadline heap + control event
    # ------------------------------------------------------------------
    def _arm(self, deadline: float) -> None:
        """(Re-)arm the sweep control event at *deadline*.

        A superseded control event (armed later than a newly pushed
        deadline) is lazily cancelled by clearing its callbacks -- the
        run loop skips processed entries without counting them -- and a
        fresh pre-triggered event takes its place, so exactly one live
        control entry exists at any time.
        """
        prev = self._armed_event
        if prev is not None and prev.callbacks is not None:
            if self._armed_at <= deadline:
                return
            prev.callbacks = None
        env = self.env
        event = Event(env)
        event._ok = True
        event._value = None
        event.callbacks = [self._sweep_visits]
        env.schedule_at(event, deadline)
        self._armed_event = event
        self._armed_at = deadline

    def _push_visit(self, deadline: float, slot: int) -> None:
        order = self._order
        self._order = order + 1
        heappush(self._visit_heap, (deadline, order, slot))
        self._arm(deadline)

    def _sweep_visits(self, _event: Event) -> None:
        self._armed_event = None
        self._armed_at = _INF
        env = self.env
        now = env._now
        heap = self._visit_heap
        while heap and heap[0][0] <= now:
            slot = heappop(heap)[2]
            self._begin_visit(slot, now)
        self.sweeps += 1
        if heap:
            self._arm(heap[0][0])

    # ------------------------------------------------------------------
    # the visit itself
    # ------------------------------------------------------------------
    def _begin_visit(self, slot: int, now: float) -> None:
        node = self.nodes[slot]
        if self._fixed:
            target = self._targets[slot]
        else:
            servers = self._switch_servers
            if len(servers) == 1:
                target = servers[0]
            else:
                # Redraw until the server differs from this slot's
                # previous one (held column-wise in ``_switch_last``).
                stream = self._switch_stream
                assert stream is not None
                choice = stream.choice
                last = self._switch_last[slot]
                while True:
                    target = choice(servers)
                    if target is not last:
                        self._switch_last[slot] = target
                        break
        message = Message(
            kind=_CONTENT_REQUEST,
            src=node,
            dst=target,
            size_kb=self._light_kb,
            payload={},
        )
        self._pending[message.seq] = (slot, message, target)
        self.fabric.send(message)
        self._timeouts.push(now + self._timeout_s, message.seq)
        self.visits_started += 1

    def _request_done(self, seq: int) -> bool:
        """Dead-slot predicate for the timeout lane: answered requests
        leave ``_pending`` at response time and are pruned lazily."""
        return seq not in self._pending

    def _on_request_timeout(self, seq: int) -> None:
        entry = self._pending.pop(seq, None)
        if entry is None:  # pragma: no cover - pruned before firing
            return
        slot, message, target = entry
        env = self.env
        now = env._now
        tracer = env.tracer
        if tracer.enabled:
            node_id = self.nodes[slot].node_id
            tracer.emit(now, "msg_timeout", node_id, **message.trace_detail())
            tracer.emit(now, "visit_timeout", node_id, server=target.node_id)
        self._failed[slot] += 1
        self._push_visit(now + float(self._ttl[slot]), slot)

    def _consume(self, message: Message) -> None:
        """Fabric delivery hook shared by every user node of the cohort
        (``Actor._consume`` plus the response half of a visit)."""
        if not message.dst.is_up:
            return
        if message.kind not in RESPONSE_KINDS:
            raise NotImplementedError(
                "UserCohort cannot handle %s" % (message.kind,)
            )
        payload = message.payload
        req_seq = payload.get("req") if isinstance(payload, dict) else None
        entry = self._pending.pop(req_seq, None) if req_seq is not None else None
        if entry is None:
            # No matching request (timed out / restarted): dropped,
            # UDP-style.
            return
        slot, _request, target = entry
        env = self.env
        now = env._now
        version = message.version
        aggregate = self.aggregate
        if aggregate is not None:
            aggregate.on_observe(slot, now, version)
        else:
            observations = self._observations
            assert observations is not None
            observations[slot].append((now, version, target.node_id))
            self.trackers[slot].on_observe(now, version)
        tracer = env.tracer
        if tracer.enabled:
            tracer.emit(
                now, "visit", message.dst.node_id,
                server=target.node_id, version=version,
            )
        self._push_visit(now + float(self._ttl[slot]), slot)

    # ------------------------------------------------------------------
    # per-slot access (tests, perturbations)
    # ------------------------------------------------------------------
    @property
    def users(self) -> List["_CohortUserView"]:
        """Per-slot views (built lazily, cached)."""
        views = self._views
        if views is None:
            views = self._views = [
                _CohortUserView(self, slot) for slot in range(len(self.nodes))
            ]
        return views

    def observations_of(self, slot: int) -> List[Observation]:
        """Materialise slot observations as :class:`Observation` objects
        (per-user mode only; aggregate mode retains no observations)."""
        observations = self._observations
        if observations is None:
            raise RuntimeError(
                "observations are not retained in aggregate user-metrics "
                "mode; use user_metrics='per-user' to keep per-visit logs"
            )
        return [
            Observation(time=time, version=version, server_id=server_id)
            for time, version, server_id in observations[slot]
        ]

    def failed_visits_of(self, slot: int) -> int:
        return int(self._failed[slot])

    def total_failed_visits(self) -> int:
        return int(sum(self._failed))


class _CohortUserView:
    """Read-mostly handle on one cohort slot.

    Exposes what tests and perturbations read per user -- ``node``,
    ``observations``, ``failed_visits`` -- and a writable
    ``user_ttl_s`` (FlashCrowd / DiurnalModulation write it mid-run).
    """

    __slots__ = ("_cohort", "_slot", "node")

    def __init__(self, cohort: UserCohort, slot: int) -> None:
        self._cohort = cohort
        self._slot = slot
        self.node = cohort.nodes[slot]

    @property
    def user_ttl_s(self) -> float:
        return float(self._cohort._ttl[self._slot])

    @user_ttl_s.setter
    def user_ttl_s(self, value: float) -> None:
        if not (math.isfinite(value) and value > 0):
            raise ValueError("user_ttl_s must be finite and positive")
        # Applies from the slot's next deadline push.
        self._cohort._ttl[self._slot] = value

    @property
    def failed_visits(self) -> int:
        return self._cohort.failed_visits_of(self._slot)

    @property
    def observations(self) -> List[Observation]:
        return self._cohort.observations_of(self._slot)
