"""Traced-run instruments: a sampling profiler that charges host time to
``repro`` modules (the layers), boundary spans around the public calls
into them, and a call counter on the contended ``Resource.request`` path.

Nothing here runs in an untraced run.  The sampler uses
``signal.setitimer(ITIMER_PROF)``: at each tick it charges the process
CPU time used since the previous tick to the innermost frame that
belongs to ``src/repro``, so time spent in C code and builtins lands on
the layer that called it.  Charging elapsed CPU time (not the nominal
interval) keeps the layer totals summing to the sampled CPU time even
when ticks coalesce during a long C call.  CPU time, not wall time,
because ITIMER_PROF itself runs on CPU time: a tick delayed while the
host runs something else would charge that wait to whichever layer the
process happened to stop in.
"""

from __future__ import annotations

import os
import signal
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter, process_time
from typing import Dict, Iterator, List, Optional

#: The layers reported by name; every other ``repro`` module is charged
#: to ``other`` and time with no ``repro`` frame on the stack (the
#: benchmark's own loop, the interpreter) to ``harness``.
LAYERS = (
    "sim.engine",
    "sim.timers",
    "sim.resources",
    "sim.process",
    "sim.rng",
    "network.link",
    "network.node",
    "network.topology",
    "metrics.traffic",
    "metrics.incremental",
    "cdn.cohort",
    "cdn.server",
    "cdn.base",
    "cdn.provider",
    "cdn.cache",
    "consistency.ttl",
    "consistency.push",
    "consistency.invalidation",
    "consistency.multicast",
    "experiments.testbed",
)
OTHER = "other"
HARNESS = "harness"
ALL_LAYERS = LAYERS + (OTHER, HARNESS)

#: Sampling period of the profiler, in seconds of process CPU time.  The
#: kernel rounds it up to its scheduler tick (4 ms at 250 Hz).
INTERVAL_S = 0.001

#: A tick charging more CPU time than this was delayed -- by a long C
#: call, a garbage collection or a stalled sampler -- and its whole charge
#: lands on one layer.  The sampler totals such charges in ``long_s``.
LONG_TICK_S = 0.05

#: Boundary spans (name -> reported metric), summed over cells.
SPAN_METRICS = (
    ("experiments.testbed.build", "experiments.testbed.build_s"),
    ("network.topology.build", "network.topology.build_s"),
    ("sim.engine.run", "sim.engine.run_s"),
)

#: Every per-layer metric of a traced run, with its unit.
PER_LAYER_METRICS = (
    tuple(("%s.self_s" % layer, "s") for layer in ALL_LAYERS)
    + (("trace.total_s", "s"),)
    + tuple((metric, "s") for _, metric in SPAN_METRICS)
    + (
        ("experiments.testbed.collect_s", "s"),
        ("sim.engine.events", "count"),
        ("sim.engine.events_per_msg", "count/msg"),
        ("network.link.msgs_sent", "count"),
        ("network.link.msgs_delivered", "count"),
        ("network.link.msgs_dropped", "count"),
        ("network.link.us_per_msg", "us/msg"),
        ("network.link.queueing_sim_s", "sim_s"),
        ("metrics.traffic.records", "count"),
        ("sim.resources.requests", "count"),
        ("cdn.cohort.visits", "count"),
        ("cdn.cohort.failed_visits", "count"),
        ("cdn.cohort.us_per_visit", "us/visit"),
        ("trace.overhead", "ratio"),
    )
)


class LayerSampler:
    """Statistical per-layer self time over one traced region."""

    def __init__(self, repro_dir: str) -> None:
        self._prefix = os.path.join(os.path.abspath(repro_dir), "")
        self._layer_of_file: Dict[str, str] = {}
        self.self_s: Dict[str, float] = defaultdict(float)
        self.samples = 0
        self.long_s = 0.0
        self.total_s = 0.0
        self._start = self._last = 0.0
        self._previous_handler = None

    def _file_layer(self, filename: str) -> str:
        """Layer of a source file; ``""`` for files outside ``repro``."""
        path = os.path.abspath(filename)
        if not path.startswith(self._prefix):
            return ""
        module = path[len(self._prefix):-len(".py")].replace(os.sep, ".")
        if module.endswith(".__init__"):
            module = module[: -len(".__init__")]
        return module if module in LAYERS else OTHER

    def layer_of(self, frame) -> str:
        cache = self._layer_of_file
        while frame is not None:
            filename = frame.f_code.co_filename
            layer = cache.get(filename)
            if layer is None:
                layer = cache[filename] = self._file_layer(filename)
            if layer:
                return layer
            frame = frame.f_back
        return HARNESS

    def _on_tick(self, _signum, frame) -> None:
        now = process_time()
        tick_s = now - self._last
        self.self_s[self.layer_of(frame)] += tick_s
        if tick_s > LONG_TICK_S:
            self.long_s += tick_s
        self._last = now
        self.samples += 1

    def start(self) -> None:
        self._previous_handler = signal.signal(signal.SIGPROF, self._on_tick)
        self._start = self._last = process_time()
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        self.total_s = process_time() - self._start
        signal.signal(signal.SIGPROF, self._previous_handler or signal.SIG_DFL)


class SpanRecorder:
    """In-memory boundary spans: ``(id, cell, name, start, end, parent)``.

    The cell id is the trace id: every span of one cell carries it.  A
    span opened without an explicit cell inherits its parent's.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, cell: Optional[int] = None) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else None
        if cell is None and parent is not None:
            cell = self.spans[parent][1]
        span_id = len(self.spans)
        record = [span_id, cell, name, perf_counter(), None, parent]
        self.spans.append(record)
        self._stack.append(span_id)
        try:
            yield
        finally:
            record[4] = perf_counter()
            self._stack.pop()

    def total_s(self, name: str) -> float:
        return sum(end - start for _, _, n, start, end, _ in self.spans if n == name)

    def rows(self) -> List[Dict]:
        keys = ("id", "cell", "name", "start", "end", "parent")
        return [dict(zip(keys, record)) for record in self.spans]


class Hooks:
    """Wraps the program's inner boundary calls for one traced process.

    ``TopologyBuilder.build`` and ``Environment.run`` get spans (the
    benchmark calls ``build_deployment`` and ``Deployment.run`` itself);
    ``Resource.request`` -- the contended FIFO path -- gets a counter.
    :meth:`remove` restores the originals.
    """

    def __init__(self, spans: SpanRecorder) -> None:
        from repro.network.topology import TopologyBuilder
        from repro.sim.engine import Environment
        from repro.sim.resources import Resource

        self.resource_requests = 0
        self._originals = []
        self._wrap_span(TopologyBuilder, "build", "network.topology.build", spans)
        self._wrap_span(Environment, "run", "sim.engine.run", spans)
        request = Resource.request
        hooks = self

        def counted_request(resource):
            hooks.resource_requests += 1
            return request(resource)

        self._replace(Resource, "request", counted_request)

    def _replace(self, owner, attr: str, function) -> None:
        self._originals.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, function)

    def _wrap_span(self, owner, attr: str, name: str, spans: SpanRecorder) -> None:
        original = getattr(owner, attr)

        def spanned(*args, **kwargs):
            with spans.span(name):
                return original(*args, **kwargs)

        self._replace(owner, attr, spanned)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()


def layer_metrics(result: Dict, sampler: LayerSampler, spans: SpanRecorder,
                  hooks: Hooks) -> Dict[str, float]:
    """The per-layer metrics of one traced repetition (all but
    ``trace.overhead``, which needs the untraced repetitions too)."""
    cells = [cell for cell in result["cells"] if "error" not in cell]

    def total(key: str) -> float:
        return sum(cell[key] for cell in cells)

    msgs = total("msgs_sent")
    visits = total("visits")
    metrics = {
        "%s.self_s" % layer: sampler.self_s.get(layer, 0.0) for layer in ALL_LAYERS
    }
    metrics["trace.total_s"] = sampler.total_s
    for span_name, metric in SPAN_METRICS:
        metrics[metric] = spans.total_s(span_name)
    metrics["experiments.testbed.collect_s"] = (
        spans.total_s("experiments.testbed.run") - metrics["sim.engine.run_s"]
    )
    metrics["sim.engine.events"] = total("events")
    metrics["sim.engine.events_per_msg"] = total("events") / msgs if msgs else 0.0
    metrics["network.link.msgs_sent"] = msgs
    metrics["network.link.msgs_delivered"] = total("msgs_delivered")
    metrics["network.link.msgs_dropped"] = total("msgs_dropped")
    metrics["network.link.us_per_msg"] = (
        1e6 * metrics["network.link.self_s"] / msgs if msgs else 0.0
    )
    metrics["network.link.queueing_sim_s"] = total("queueing_sim_s")
    metrics["metrics.traffic.records"] = total("records")
    metrics["sim.resources.requests"] = hooks.resource_requests
    metrics["cdn.cohort.visits"] = visits
    metrics["cdn.cohort.failed_visits"] = total("failed_visits")
    metrics["cdn.cohort.us_per_visit"] = (
        1e6 * metrics["cdn.cohort.self_s"] / visits if visits else 0.0
    )
    return metrics
