"""Per-layer host-time attribution for the traced run.

The tracer wraps calls into each layer's public entry points from the
benchmark's side, without touching the program: :meth:`LayerTracer.install`
replaces the listed class attributes and module functions with timing
wrappers and :meth:`LayerTracer.uninstall` puts the originals back.
Objects capture bound methods when they are built (a link keeps its
node's ``deliver``, a capture keeps its tap), so a scenario must be
built *after* ``install`` for its hot paths to be traced.

Spans nest by call stack.  A span's self time is its duration minus
the durations of the spans opened inside it; a layer's self time sums
its spans' self times.  Spans are folded into per-entry-point
accumulators as they close (calls, self seconds, inclusive seconds), so
memory stays flat however many packets a run moves; the table is
written out when the run ends.

Work that no wrapped entry point encloses stays in the self time of the
nearest enclosing span.  Two cases matter when reading the table:

* front-end and back-end request handling (``services``) runs inside
  HTTP ``on_data`` callbacks and has no public entry point of its own,
  so it is counted in ``http.self_s``; only the load and processing
  draws and the replay bookkeeping are attributed to ``services``;
* TCP timer callbacks (delayed ACK, RTO) and simulated processes are
  dispatched by the engine, so their time is in ``sim.self_s``.
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Callable, Dict, List, Optional, Tuple

#: Layers reported, in report order.
LAYERS = ("sim", "sim.analytic", "sim.replay", "tcp", "net", "http",
          "services", "content", "cache", "measure", "workload", "core",
          "analysis", "testbed")

#: (layer, module, class or None, attribute) of every traced entry point.
#: Module functions are patched in the module that calls them.
ENTRY_POINTS: Tuple[Tuple[str, str, Optional[str], str], ...] = (
    ("sim", "repro.sim.engine", "Simulator", "run"),
    ("sim.analytic", "repro.sim.analytic.manager", "TieredSessionManager",
     "submit"),
    ("sim.analytic", "repro.sim.analytic.predictor", "AnalyticPredictor",
     "predict"),
    ("sim.replay", "repro.sim.replay.manager", "SessionReplayManager",
     "submit"),
    ("tcp", "repro.tcp.connection", "Connection", "handle_segment"),
    ("tcp", "repro.tcp.connection", "Connection", "send"),
    ("net", "repro.net.node", "Node", "deliver"),
    ("net", "repro.net.link", "Link", "send"),
    ("http", "repro.http.client", "HttpFetch", "on_data"),
    ("http", "repro.http.client", "PersistentHttpClient", "on_data"),
    ("http", "repro.http.server", "_ServerConnection", "on_data"),
    ("services", "repro.services.load", "FrontEndLoadModel", "draw"),
    ("services", "repro.services.load", "ProcessingModel", "draw"),
    ("services", "repro.services.frontend", "FrontEndServer",
     "record_replayed_fetch"),
    ("services", "repro.services.backend", "BackendDataCenter",
     "record_replayed_query"),
    ("content", "repro.content.page", "PageGenerator", "dynamic_content"),
    ("content", "repro.content.page", "PageGenerator", "static_content"),
    ("content", "repro.content.page", "PageGenerator", "full_page"),
    ("cache", "repro.cache.policy", "ContentCache", "lookup"),
    ("cache", "repro.cache.policy", "ContentCache", "insert"),
    ("cache", "repro.cache.tier", "CacheTier", "lookup"),
    ("cache", "repro.cache.tier", "CacheTier", "fill_from_origin"),
    ("measure", "repro.measure.emulator", "QueryEmulator", "submit"),
    ("measure", "repro.measure.emulator", "QueryEmulator",
     "drop_capture_before"),
    ("measure", "repro.measure.capture", "PacketCapture", "flow_events"),
    ("measure", "repro.measure.capture", "PacketCapture", "inject"),
    ("measure", "workloads", None, "run_dataset_a"),
    ("measure", "workloads", None, "run_streaming_campaign"),
    ("workload", "repro.workload.generator", "OpenLoopWorkload",
     "events_for"),
    ("core", "workloads", None, "extract_all_calibrated"),
    ("core", "workloads", None, "check_bounds"),
    ("analysis", "repro.analysis.boundary", None, "detect_boundary"),
    ("analysis", "repro.analysis.boundary", "BoundaryCalibration",
     "from_sessions"),
    ("analysis", "repro.analysis.boundary", "BoundaryCalibration",
     "boundary_for"),
    ("analysis", "repro.analysis.sketch", "QuantileSketch", "observe"),
    ("testbed", "repro.testbed.scenario", "Scenario", "__init__"),
    ("testbed", "repro.testbed.scenario", "Scenario", "connect_default"),
)


class _TimedIterator:
    """Times every ``next()`` of a lazy stream as a span of its own."""

    __slots__ = ("_next",)

    def __init__(self, iterator, timed_next: Callable):
        self._next = functools.partial(timed_next, iterator)

    def __iter__(self):
        return self

    def __next__(self):
        return self._next()


class LayerTracer:
    """Span accumulators and layer counters for one traced run."""

    def __init__(self):
        self._stack: List[List[float]] = []
        #: (layer, entry point) -> [calls, self seconds, total seconds]
        self.spans: Dict[Tuple[str, str], List[float]] = {}
        #: Counts taken at the same boundaries as the spans.
        self.counts: Dict[str, int] = {}
        self.render_keys: Dict[tuple, int] = {}
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def span(self, layer: str, name: str, fn: Callable,
             hook: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped in a span; ``hook(args, result)`` counts."""
        record = self.spans.setdefault((layer, name), [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(args, result)
                return result
            finally:
                elapsed = clock() - start
                stack.pop()
                record[0] += 1
                record[1] += elapsed - frame[0]
                record[2] += elapsed
                if stack:
                    stack[-1][0] += elapsed

        return functools.update_wrapper(traced, fn)

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    # ------------------------------------------------------------------
    def _hooks(self) -> Dict[str, Callable]:
        count = self.count
        render_keys = self.render_keys

        def segment(args, result):
            count("tcp.segments")
            if args[1].retransmit:
                count("tcp.retransmits")

        def packet(args, result):
            count("net.packets")

        def render(args, result):
            generator, keyword = args[0], args[1]
            key = (generator.service_name, generator.seed, keyword.text,
                   len(result))
            render_keys[key] = render_keys.get(key, 0) + 1

        def tier_lookup(args, result):
            # An infinite tier is the paper's always-hit FE cache.
            count("cache.lookups")
            if result == 0:
                count("cache.hits")

        def origin_fill(args, result):
            if args[0].finite:
                count("cache.origin_fetches")

        def scanned(args, result):
            count("measure.harvests")
            count("measure.capture_scanned", len(args[0].events))

        def injected(args, result):
            count("measure.capture_events", len(args[1]))

        return {
            "Connection.handle_segment": segment,
            "Link.send": packet,
            "PageGenerator.dynamic_content": render,
            "CacheTier.lookup": tier_lookup,
            "CacheTier.fill_from_origin": origin_fill,
            "PacketCapture.flow_events": scanned,
            "PacketCapture.inject": injected,
        }

    def install(self) -> None:
        """Wrap every entry point; build scenarios after this call."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        hooks = self._hooks()
        for layer, module_name, class_name, attr in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner = module if class_name is None \
                else getattr(module, class_name)
            name = attr if class_name is None \
                else "%s.%s" % (class_name, attr)
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                replacement = classmethod(self.span(
                    layer, name, original.__func__, hooks.get(name)))
            elif name == "OpenLoopWorkload.events_for":
                replacement = self._traced_stream(layer, name, original)
            else:
                replacement = self.span(layer, name, original,
                                        hooks.get(name))
            self._patches.append((owner, attr, original))
            setattr(owner, attr, replacement)
        self._install_capture_counter()

    def _traced_stream(self, layer: str, name: str, original: Callable):
        timed_next = self.span(layer, name + ".next", next)
        opened = self.span(layer, name, original)

        def events_for(*args, **kwargs):
            return _TimedIterator(opened(*args, **kwargs), timed_next)

        return functools.update_wrapper(events_for, original)

    def _install_capture_counter(self) -> None:
        # The capture tap is private and runs once per packet at a client
        # host: a counter only, no span.
        from repro.measure.capture import PacketCapture
        original = PacketCapture.__dict__["_observe"]
        count = self.count

        def observe(capture, event, packet):
            if event == "send" or event == "recv":
                count("measure.capture_events")
            return original(capture, event, packet)

        self._patches.append((PacketCapture, "_observe", original))
        PacketCapture._observe = functools.update_wrapper(observe, original)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def layer_totals(self) -> Dict[str, Tuple[int, float]]:
        """layer -> (calls, self seconds) over every entry point."""
        totals = {layer: [0, 0.0] for layer in LAYERS}
        for (layer, _), (calls, self_s, _) in self.spans.items():
            totals[layer][0] += calls
            totals[layer][1] += self_s
        return {layer: (int(c), s) for layer, (c, s) in totals.items()}

    def table(self) -> List[str]:
        """The per-entry-point span table, heaviest self time first."""
        lines = ["%-13s %-44s %10s %11s %11s"
                 % ("layer", "entry point", "calls", "self_s", "total_s")]
        for (layer, name), (calls, self_s, total_s) in sorted(
                self.spans.items(), key=lambda item: -item[1][1]):
            if calls:
                lines.append("%-13s %-44s %10d %11.4f %11.4f"
                             % (layer, name, calls, self_s, total_s))
        return lines
