"""Traffic accounting.

The paper measures consistency-maintenance *efficiency* two ways:

- Section 4 (Fig. 16-18): traffic cost in ``km * KB`` summed over every
  consistency packet (following [41]).
- Section 5 (Fig. 22-23): message *counts* (update vs light) and network
  load as total transmission distance in ``km``.

:class:`TrafficLedger` is the one book of the fabric's traffic, one
:meth:`~TrafficLedger.record` per message as its bytes leave the
sender: per-kind totals, per-link KB and per-kind counts (summed into
per-sender counts), and all-traffic totals, all in message order.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional

from ..network.message import LIGHT_KINDS, UPDATE_KINDS, Message, MessageKind

__all__ = ["TrafficLedger", "KindTotals", "LinkTotals"]

#: Position of each kind in :attr:`LinkTotals.counts`.
_KIND_INDEX: Dict[MessageKind, int] = {kind: i for i, kind in enumerate(MessageKind)}

_CONSISTENCY_KINDS = UPDATE_KINDS | LIGHT_KINDS
#: Bodies plus not-modified poll answers (the paper's Fig. 22 metric).
_RESPONSE_KINDS = UPDATE_KINDS | {MessageKind.POLL_NOT_MODIFIED}
#: Light messages that are not responses (Fig. 23's 'light' load).
_REQUEST_KINDS = LIGHT_KINDS - {MessageKind.POLL_NOT_MODIFIED}


@dataclass
class KindTotals:
    """Aggregated totals for one message kind."""

    count: int = 0
    km_kb: float = 0.0
    km: float = 0.0
    kb: float = 0.0


class LinkTotals:
    """Traffic on one directed link: KB, and message counts indexed by
    kind position (a list is smaller than a dict; planet-scale runs
    hold one per link)."""

    __slots__ = ("sender", "kb", "counts")

    def __init__(self, sender: str) -> None:
        self.sender = sender
        self.kb = 0.0
        self.counts: List[int] = [0] * len(_KIND_INDEX)


class TrafficLedger:
    """Accumulates per-message traffic statistics for one experiment run."""

    def __init__(self) -> None:
        self._by_kind: Dict[MessageKind, KindTotals] = defaultdict(KindTotals)
        #: ``"src->dst"`` -> totals, in order of each link's first message.
        self._by_link: Dict[str, LinkTotals] = {}
        #: Messages recorded, and their KB, over all kinds.
        self.messages = 0
        self.kb = 0.0

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def record(self, message: Message, distance_km: float, link_key: str) -> None:
        """Record one *message* that travelled *distance_km* over the
        directed link *link_key* (``"src->dst"``)."""
        if distance_km < 0:
            raise ValueError("distance_km must be >= 0")
        kind = message.kind
        size_kb = message.size_kb
        totals = self._by_kind[kind]
        totals.count += 1
        totals.km_kb += distance_km * size_kb
        totals.km += distance_km
        totals.kb += size_kb
        link = self._by_link.get(link_key)
        if link is None:
            link = self._by_link[link_key] = LinkTotals(message.src.node_id)
        link.kb += size_kb
        link.counts[_KIND_INDEX[kind]] += 1
        self.messages += 1
        self.kb += size_kb

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def totals(self, kinds: Optional[Iterable[MessageKind]] = None) -> KindTotals:
        """Aggregate totals over *kinds* (all kinds if ``None``)."""
        result = KindTotals()
        selected = set(kinds) if kinds is not None else None
        for kind, totals in self._by_kind.items():
            if selected is not None and kind not in selected:
                continue
            result.count += totals.count
            result.km_kb += totals.km_kb
            result.km += totals.km
            result.kb += totals.kb
        return result

    def kind_totals(self, kind: MessageKind) -> KindTotals:
        """Totals for a single message kind (zeros if never seen)."""
        return self._by_kind.get(kind, KindTotals())

    def consistency_cost_km_kb(self) -> float:
        """Fig. 16/17-style cost: km*KB over all consistency messages."""
        return self.totals(_CONSISTENCY_KINDS).km_kb

    def update_message_count(self) -> int:
        """Fig. 22a-style count of body-carrying update messages."""
        return self.totals(UPDATE_KINDS).count

    def light_message_count(self) -> int:
        """Count of light consistency-maintenance messages."""
        return self.totals(LIGHT_KINDS).count

    def update_load_km(self) -> float:
        """Fig. 23-style network load (km) of update messages."""
        return self.totals(UPDATE_KINDS).km

    def light_load_km(self) -> float:
        """Fig. 23-style network load (km) of light messages."""
        return self.totals(LIGHT_KINDS).km

    def response_message_count(self) -> int:
        """The paper's Fig. 22 metric: bodies *plus* poll responses.

        Section 5.3 "use[s] the number of update messages to indicate the
        network load including the polling responses and update
        messages" -- i.e. not-modified poll answers count too.
        """
        return self.totals(_RESPONSE_KINDS).count

    def response_load_km(self) -> float:
        """Fig. 23 'update message' network load (km), using the same
        response-inclusive definition as :meth:`response_message_count`."""
        return self.totals(_RESPONSE_KINDS).km

    def request_load_km(self) -> float:
        """Fig. 23 'light message' load (km): everything consistency-
        related that is not a response (polls, fetch requests,
        invalidations, switch notices, tree maintenance)."""
        return self.totals(_REQUEST_KINDS).km

    def _sent_by(self, sender_id: str, kinds: FrozenSet[MessageKind]) -> int:
        """Messages of *kinds* sent by *sender_id*, summed over its links."""
        indices = [_KIND_INDEX[kind] for kind in kinds]
        return sum(
            link.counts[index]
            for link in self._by_link.values()
            if link.sender == sender_id
            for index in indices
        )

    def updates_sent_by(self, sender_id: str) -> int:
        """Update messages whose sender is *sender_id* (Fig. 22b:
        provider load)."""
        return self._sent_by(sender_id, UPDATE_KINDS)

    def responses_sent_by(self, sender_id: str) -> int:
        """Fig. 22 metric restricted to one sender (bodies + poll
        responses)."""
        return self._sent_by(sender_id, _RESPONSE_KINDS)

    def messages_sent_by(self, sender_id: str) -> int:
        """All consistency messages sent by *sender_id*."""
        return self._sent_by(sender_id, _CONSISTENCY_KINDS)

    def link_bytes_kb(self) -> Dict[str, float]:
        """KB per directed link, keyed ``"src->dst"``."""
        return {key: link.kb for key, link in self._by_link.items()}

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """A plain-dict view (for reports and serialisation)."""
        return {
            kind.value: {
                "count": totals.count,
                "km_kb": totals.km_kb,
                "km": totals.km,
                "kb": totals.kb,
            }
            for kind, totals in sorted(self._by_kind.items(), key=lambda kv: kv[0].value)
        }
