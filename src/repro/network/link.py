"""The network fabric: message transport with realistic delays.

Every message experiences

1. *output-port queueing* at the sender (transmissions serialise on the
   sender's uplink -- the paper's provider-fan-out bottleneck),
2. *transmission delay* ``size / uplink bandwidth``,
3. *propagation delay* proportional to great-circle distance (light in
   fibre travels at roughly 2/3 c), plus a small per-path base latency,
4. an *inter-ISP penalty* when the message crosses ISP boundaries
   (Section 3.4.3 of the paper).

Transport is one-way: :meth:`NetworkFabric.send` returns nothing, and
a message's outcome is seen only where it lands -- the receiver's
``consumer`` hook on delivery, the :class:`FabricCounters` and the
``msg_recv`` / ``msg_drop`` trace events either way.

Every message whose bytes leave the sender is written once into the
fabric's :class:`~repro.metrics.traffic.TrafficLedger` (per-kind cost,
counts and load, per-link KB and counts, all-traffic totals), so
experiments can report traffic cost (km*KB), message counts, and
network load (km).  :class:`FabricCounters` keeps what happens after
that: queueing, propagation and ISP time, deliveries and drops.

Each message travels as a slotted, callback-driven state machine
(:class:`_FastTransfer`) that chains raw kernel events directly --
queue -> transmit -> propagate -> deliver -- reusing one hop event per
message and claiming an uncontended output port synchronously, with no
generator frame, no ``Process`` and no ``Request`` grant event.

Invariant: jitter and ISP draws happen at the instant the bytes leave
the sender, in send order, and every ledger, counter and tracer record
is posted at the simulated instant of the stage it describes, so a
run's :class:`~repro.experiments.testbed.DeploymentMetrics`, its
``FabricCounters`` and its message trace are a function of the model
alone.  ``tests/test_golden_digests.py`` pins them cell by cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..metrics.traffic import TrafficLedger
from ..obs.counters import FabricCounters
from heapq import heappush as _heappush

from ..sim.engine import Environment, Event, NORMAL
from ..sim.rng import RandomStream, StreamRegistry
from .isp import InterISPModel
from .message import Message
from .node import NetworkNode

__all__ = ["FabricParams", "NetworkFabric", "SPEED_OF_LIGHT_FIBRE_KM_S"]

#: Signal speed in optical fibre (~2/3 of c), km/s.
SPEED_OF_LIGHT_FIBRE_KM_S = 200_000.0


@dataclass
class FabricParams:
    """Tunable constants of the transport model."""

    #: Propagation speed along the (idealised great-circle) path.
    speed_km_per_s: float = SPEED_OF_LIGHT_FIBRE_KM_S
    #: Fixed per-path overhead (routing, last-mile), seconds.
    base_latency_s: float = 0.004
    #: Per-message service time at the sender's output port (syscalls,
    #: application processing) -- what makes a provider unicasting to N
    #: children serialise ~N of these and drives the Fig. 19/20 trends.
    per_message_overhead_s: float = 0.005
    #: Relative jitter applied to the propagation component.
    latency_jitter_frac: float = 0.10
    #: Path-stretch factor: real routes are longer than great circles.
    path_stretch: float = 1.3
    #: Inter-ISP handoff penalty model.
    inter_isp: InterISPModel = field(default_factory=InterISPModel)

    def __post_init__(self) -> None:
        if self.speed_km_per_s <= 0:
            raise ValueError("speed_km_per_s must be positive")
        if self.path_stretch < 1.0:
            raise ValueError("path_stretch must be >= 1")
        if self.base_latency_s < 0:
            raise ValueError("base_latency_s must be >= 0")
        if self.per_message_overhead_s < 0:
            raise ValueError("per_message_overhead_s must be >= 0")
        if self.latency_jitter_frac < 0:
            raise ValueError("latency_jitter_frac must be >= 0")


class _FastTransfer:
    """Callback-driven transport of one message.

    One reusable ``hop`` event carries the transfer through
    transmit-done -> deliver (reset and rescheduled between stages
    instead of allocating a new ``Timeout`` per stage); the transfer
    goes back to the fabric's pool once the message is delivered or
    dropped.
    """

    __slots__ = (
        "fabric",
        "env",
        "message",
        "hop",
        "entered_port",
        "claim",
        "_cb_transmit",
        "_cb_deliver",
        "_overhead_s",
        "_counters",
        "_record",
        "_path",
        "_jitter",
        "_isp_uniform",
        "_jitter_frac",
        "_inter",
    )

    def __init__(self, fabric: "NetworkFabric") -> None:
        env = fabric.env
        self.fabric = fabric
        self.env = env
        self.entered_port = 0.0
        self.claim: object = None
        # One reusable hop event; idle (processed) until a launch arms it.
        hop = Event(env)
        hop._ok = True
        hop._value = None
        hop.callbacks = None
        self.hop = hop
        # Prebuilt single-callback lists, one per stage: the engine only
        # ever *iterates* an event's callback list, so the same list
        # object can be re-attached to the hop for every message this
        # pooled transfer carries (one list allocation per transfer
        # instead of one per hop).
        self._cb_transmit: List[Callable[[Event], None]] = [self._transmit_done]
        self._cb_deliver: List[Callable[[Event], None]] = [self._deliver]
        # Fabric collaborators and parameters are fixed for the fabric's
        # lifetime; caching them (and the hot bound methods) on the
        # pooled transfer keeps stage 2 off the attribute-chain treadmill.
        params = fabric.params
        self._overhead_s = params.per_message_overhead_s
        self._jitter_frac = params.latency_jitter_frac
        self._inter = params.inter_isp
        self._counters = fabric.counters
        self._record = fabric.ledger.record
        self._path = fabric._path
        self._jitter = fabric._jitter_stream.jitter
        self._isp_uniform = fabric._isp_stream.uniform

    # ------------------------------------------------------------------
    def _next_hop(self, callbacks: List[Callable[[Event], None]], delay: float) -> None:
        """Re-arm the (already processed) hop event for the next stage.

        ``Environment.schedule`` inlined: two messages per request at CDN
        scale make the extra call measurable.  Sanitize runs take the
        un-inlined path so tie perturbation covers transport hops too.
        """
        hop = self.hop
        hop.callbacks = callbacks
        env = self.env
        if env.sanitizer is not None:
            env.schedule(hop, delay=delay)
            return
        env._eid += 1
        _heappush(env._queue, (env._now + delay, NORMAL, env._eid, hop))

    def _release(self) -> None:
        """Hand this idle transfer (and its hop event) back to the pool.

        Unbinding (rather than None-ing) ``message`` drops the reference
        while pooled without widening the attribute type to Optional.
        """
        del self.message
        self.claim = None
        self.fabric._transfer_pool.append(self)

    # ------------------------------------------------------------------
    # stages
    # ------------------------------------------------------------------
    def _claim_port(self, src: NetworkNode, message: Message) -> None:
        """Stage 1: queue on / claim the sender's output port.

        Runs synchronously inside ``send()``: the port's state can only
        change within the current callback cascade, so no start event is
        needed.
        """
        self.message: Message = message
        self.entered_port = self.env.now
        port = src.output_port
        if port.try_claim(self):
            # Uncontended: no Request/grant event, start transmitting now.
            self.claim = self
            self._next_hop(
                self._cb_transmit,
                self._overhead_s + message.size_kb / src.uplink_kbps,
            )
        else:
            request = port.request()
            self.claim = request
            request.callbacks.append(self._granted)

    def _granted(self, _event: Event) -> None:
        """Stage 1b (contended): the port's FIFO queue reached us."""
        message = self.message
        src: NetworkNode = message.src
        self._next_hop(
            self._cb_transmit,
            self._overhead_s + message.size_kb / src.uplink_kbps,
        )

    def _transmit_done(self, _event: Event) -> None:
        """Stage 2: bytes left the sender -- account, then propagate.

        Jitter is drawn before the ISP penalty, once each per message;
        the golden digests pin this draw order.
        """
        env = self.env
        message = self.message
        src: NetworkNode = message.src
        dst: NetworkNode = message.dst
        counters = self._counters
        # Release before accounting: the next waiter is granted ahead of
        # this message's bookkeeping.
        src.output_port.release_fast(self.claim)
        counters.queueing_s += env._now - self.entered_port

        distance, base, link_key, same_isp = self._path(src, dst)
        self._record(message, distance, link_key)
        tracer = env.tracer
        if tracer.enabled:
            tracer.emit(env.now, "msg_send", src.node_id, **message.trace_detail())

        jitter = self._jitter(base, self._jitter_frac) - base
        propagation = max(0.0, base + jitter)
        if same_isp:
            penalty = 0.0
        else:
            inter = self._inter
            penalty = max(
                0.0,
                inter.base_s + self._isp_uniform(-inter.jitter_s, inter.jitter_s),
            )
        counters.propagation_s += propagation
        if penalty > 0.0:
            counters.isp_penalty_s += penalty
            counters.isp_crossing_messages += 1
            counters.isp_crossing_kb += message.size_kb
        self._next_hop(self._cb_deliver, propagation + penalty)

    def _deliver(self, _event: Event) -> None:
        """Stage 3: receiver check, accounting, then delivery.

        The transfer is back in the pool before the handoff, so a reply
        sent from the receiver's handler can reuse it.  The counter
        increment and ``msg_recv`` trace run *before* the handoff: with
        a consumer attached the receiving actor's handler runs
        synchronously inside ``deliver()``, and its own traces must
        follow the ``msg_recv`` that caused them.
        """
        message = self.message
        dst: NetworkNode = message.dst
        self._release()
        if not dst.is_up:
            self._counters.dropped_receiver_down += 1
            self.fabric._trace_drop(message, dst.node_id, "receiver_down")
            return
        self._counters.messages_delivered += 1
        tracer = self.env.tracer
        if tracer.enabled:
            tracer.emit(
                self.env.now, "msg_recv", dst.node_id, **message.trace_detail()
            )
        dst.deliver(message)


class NetworkFabric:
    """Carries messages between :class:`NetworkNode` objects."""

    def __init__(
        self,
        env: Environment,
        params: Optional[FabricParams] = None,
        streams: Optional[StreamRegistry] = None,
        path_cache: Optional[Dict[Tuple[str, str], Tuple[float, float, str, bool]]] = None,
    ) -> None:
        self.env = env
        #: The one record of what was sent (see :mod:`repro.metrics.traffic`).
        self.ledger = TrafficLedger()
        self.params = params if params is not None else FabricParams()
        streams = streams if streams is not None else StreamRegistry(0)
        self._jitter_stream: RandomStream = streams.stream("fabric.jitter")
        self._isp_stream: RandomStream = streams.stream("fabric.isp")
        #: Always-on per-layer accounting (see :mod:`repro.obs.counters`).
        self.counters = FabricCounters(self.ledger)
        #: ``(src_id, dst_id) -> (distance_km, min_latency_s, link_key,
        #: same_isp)``.  Node positions, ISP homes, and fabric params are
        #: fixed for a run, so the trig, stretch arithmetic, and link-key
        #: string happen once per directed pair.  The testbed passes a
        #: shared dict here for sweep points that reuse a topology (the
        #: entries are pure derived geometry, valid for any run over the
        #: same placement and default params).
        self._path_cache: Dict[Tuple[str, str], Tuple[float, float, str, bool]] = (
            path_cache if path_cache is not None else {}
        )
        #: Recycled :class:`_FastTransfer` objects (with their internal
        #: hop events); avoids two allocations per message.  Only transfers that have fully finished live here.
        self._transfer_pool: List[_FastTransfer] = []

    # ------------------------------------------------------------------
    # delay model
    # ------------------------------------------------------------------
    def _path(self, src: NetworkNode, dst: NetworkNode) -> Tuple[float, float, str, bool]:
        """Memoised ``(distance_km, min_latency_s, link_key, same_isp)``."""
        key = (src.node_id, dst.node_id)
        entry = self._path_cache.get(key)
        if entry is None:
            distance = src.distance_km(dst)
            params = self.params
            entry = (
                distance,
                params.base_latency_s
                + distance * params.path_stretch / params.speed_km_per_s,
                "%s->%s" % (src.node_id, dst.node_id),
                src.isp.isp_id == dst.isp.isp_id,
            )
            self._path_cache[key] = entry
        return entry

    def min_latency_s(self, src: NetworkNode, dst: NetworkNode) -> float:
        """Deterministic one-way latency (no jitter, no queueing).

        Used by proximity-aware tree building as the "inter-ping latency"
        measure of Section 4.
        """
        return self._path(src, dst)[1]

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------
    def send(self, message: Message) -> None:
        """Send *message* one way; nothing is returned.

        The receiver's ``consumer`` gets the message at delivery time.
        A down *sender* drops it at once (no traffic, no kernel event);
        a receiver that is down when it arrives drops it then.  Both
        drops are counted in :attr:`counters` and traced as ``msg_drop``.
        """
        src: NetworkNode = message.src
        if not src.is_up:
            self.counters.dropped_sender_down += 1
            self._trace_drop(message, src.node_id, "sender_down")
            return
        pool = self._transfer_pool
        transfer = pool.pop() if pool else _FastTransfer(self)
        transfer._claim_port(src, message)

    def _trace_drop(self, message: Message, node_id: str, reason: str) -> None:
        tracer = self.env.tracer
        if tracer.enabled:
            tracer.emit(
                self.env.now, "msg_drop", node_id,
                reason=reason, **message.trace_detail()
            )

    def rtt_s(self, a: NetworkNode, b: NetworkNode) -> float:
        """Deterministic round-trip latency estimate between two nodes."""
        return 2.0 * self.min_latency_s(a, b)
