"""Structured event tracing for the simulation.

Every instrumented site in the stack does::

    tracer = env.tracer
    if tracer.enabled:
        tracer.emit(env.now, "msg_send", node_id, kind="poll", ...)

so the *disabled* path costs one attribute read and one branch -- no
event object, no dict, no string formatting.  The default tracer on
every :class:`~repro.sim.engine.Environment` is :data:`NULL_TRACER`
(``enabled`` is ``False``); experiments that want a trace pass a
:class:`RecordingTracer` when building the deployment.

Tracing is purely observational: a tracer never schedules events,
touches RNG streams, or mutates simulation state, so enabling it cannot
change any simulated outcome.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, TextIO

__all__ = ["TraceEvent", "Tracer", "RecordingTracer", "NULL_TRACER", "EVENT_KINDS"]

#: Every event kind the instrumented stack emits, with meaning.
EVENT_KINDS = {
    # network fabric
    "msg_send": "bytes left the sender (reconciles 1:1 with the TrafficLedger)",
    "msg_recv": "message delivered to the receiver",
    "msg_drop": "message dropped (detail.reason: sender_down / receiver_down)",
    "msg_timeout": "a request's reply window elapsed without a response",
    # node lifecycle (failure injection)
    "node_down": "node went down (first overlapping absence began)",
    "node_up": "node came back up (last overlapping absence ended)",
    # cache / consistency
    "cache_store": "a content body landed in a server cache",
    "cache_invalidate": "an invalidation notice marked a cache entry stale",
    "cache_hit": "lazy-TTL serve path found the entry fresh",
    "cache_expired": "lazy-TTL serve path found the entry expired",
    "poll_round": "one TTL poll round finished (detail: got_update, timed_out)",
    "fetch_round": "an invalidation-triggered recovery fetch finished",
    "push_relay": "a tree node relayed a fresh pushed body to its children",
    "mode_switch": "self-adaptive policy switched mode (detail.mode)",
    # provider / users
    "content_update": "the provider applied a new content version",
    "visit": "an end user observed a version (detail: version, server)",
    "visit_timeout": "an end-user visit timed out (server down/unreachable)",
}


class TraceEvent(NamedTuple):
    """One structured trace record."""

    time: float
    kind: str
    node: str
    detail: Dict[str, Any]

    def to_json(self) -> str:
        """One compact JSON object (the ``repro trace`` JSONL row)."""
        row = {"t": self.time, "kind": self.kind, "node": self.node}
        row.update(self.detail)
        return json.dumps(row, sort_keys=True, separators=(",", ":"))


class Tracer:
    """The no-op tracer: every :class:`Environment` has one by default.

    ``enabled`` is a class attribute so the hot-path guard
    (``if tracer.enabled:``) costs a plain attribute load.
    """

    __slots__ = ()
    enabled = False

    def emit(self, time: float, kind: str, node: str, **detail: Any) -> None:
        """Record one event (no-op here)."""

    def events(self, **filters: Any) -> List[TraceEvent]:
        return []


#: The shared disabled tracer (stateless, safe to share globally).
NULL_TRACER = Tracer()


class RecordingTracer(Tracer):
    """Records every emitted event in memory, with filtered read-out."""

    __slots__ = ("_events",)
    enabled = True

    def __init__(self) -> None:
        self._events: List[TraceEvent] = []

    def __len__(self) -> int:
        return len(self._events)

    def emit(self, time: float, kind: str, node: str, **detail: Any) -> None:
        self._events.append(TraceEvent(time, kind, node, detail))

    # ------------------------------------------------------------------
    def events(
        self,
        node: Optional[str] = None,
        kinds: Optional[Iterable[str]] = None,
        since: Optional[float] = None,
        until: Optional[float] = None,
    ) -> List[TraceEvent]:
        """Events filtered by node id, kind set and time window.

        ``since`` is inclusive, ``until`` exclusive; either may be
        ``None`` (unbounded).
        """
        wanted = frozenset(kinds) if kinds is not None else None
        selected = []
        for event in self._events:
            if node is not None and event.node != node:
                continue
            if wanted is not None and event.kind not in wanted:
                continue
            if since is not None and event.time < since:
                continue
            if until is not None and event.time >= until:
                continue
            selected.append(event)
        return selected

    def count(self, kind: str, **filters: Any) -> int:
        """Number of recorded events of *kind* (after filters)."""
        return len(self.events(kinds=(kind,), **filters))

    def kind_counts(self) -> Dict[str, int]:
        """Event count per kind over the whole trace."""
        counts: Dict[str, int] = {}
        for event in self._events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts

    def dump_jsonl(
        self,
        stream: TextIO,
        limit: Optional[int] = None,
        **filters: Any,
    ) -> int:
        """Write filtered events as JSON Lines; returns rows written."""
        written = 0
        for event in self.events(**filters):
            if limit is not None and written >= limit:
                break
            stream.write(event.to_json())
            stream.write("\n")
            written += 1
        return written
