"""Span recorder for the traced benchmark pass.

The recorder wraps the public entry points of each simulator layer (the
:data:`LAYERS` table) from outside the program: every wrapped call becomes a
span with a name (its layer), a start, an end and the id of the span that was
open when it started.  Spans stay in memory; :func:`chrome_trace` turns them
into Chrome trace-event JSON that Perfetto (ui.perfetto.dev) or
``chrome://tracing`` can open, and :func:`layer_totals` derives each layer's
self time: a span's duration minus the durations of its direct children.

Nothing under ``src/`` knows about the recorder.  :class:`Tracer` patches the
entry points on entry and puts the original objects back on exit, so an
untraced pass runs the program exactly as shipped.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: (layer, "module:qualname" of the wrapped entry point, how the span counts
#: its work or ``None``).  A count function receives the call's positional
#: arguments, its keyword arguments and its result.
LAYERS: Tuple[Tuple[str, str, Optional[Callable]], ...] = (
    ("native.load", "repro.native.build:load_kernel", None),
    ("experiments", "repro.experiments.common:run_experiments", None),
    ("engine", "repro.sim.engine:SweepEngine.run_requests", None),
    ("engine.job", "repro.sim.engine:execute_job",
     lambda args, kwargs, result: len(args[0].cells)),
    ("cache.load", "repro.sim.cache:ResultCache.load", None),
    ("cache.store", "repro.sim.cache:ResultCache.store", None),
    ("bundle.generate", "repro.workloads.bundle:TraceBundle.generate", None),
    ("bundle.generate", "repro.workloads.streaming:SampleStream.segments",
     None),
    ("workloads.fast_forward",
     "repro.workloads.synthetic:SyntheticWorkload.fast_forward",
     lambda args, kwargs, result: args[1] if len(args) > 1
     else kwargs["count"]),
    ("workloads.emit", "repro.workloads.synthetic:SyntheticWorkload.emit",
     lambda args, kwargs, result: len(result)),
    ("workloads.emit", "repro.workloads.synthetic:SyntheticWorkload.trace",
     lambda args, kwargs, result: len(result)),
    ("compiled.streams", "repro.workloads.bundle:TraceBundle.compiled_streams",
     None),
    ("compiled.streams",
     "repro.workloads.bundle:TraceBundle.compiled_sample_streams", None),
    ("compiled.tokenize", "repro.sim.compiled:tokenize", None),
    ("compiled.compile", "repro.sim.compiled:StreamCompiler.compile_measured",
     lambda args, kwargs, result: len(result)),
    ("compiled.compile", "repro.sim.compiled:StreamCompiler.compile_warm",
     None),
    ("compiled.working_set_arrays",
     "repro.sim.compiled:StreamCompiler.working_set_arrays", None),
    ("compiled.working_set_arrays", "repro.sim.compiled:working_set_arrays",
     None),
    ("compiled.warm", "repro.sim.compiled:warm_working_set", None),
    ("compiled.warm", "repro.sim.compiled:warm_trace", None),
    ("simulator.replay", "repro.sim.simulator:Simulator.run_bundle", None),
    ("simulator.replay", "repro.sim.simulator:Simulator.sample_outcome", None),
    ("core.simulate", "repro.pipeline.core:OutOfOrderCore.simulate_compiled",
     lambda args, kwargs, result: result.total_uops),
    ("core.simulate", "repro.pipeline.core:OutOfOrderCore.schedule_compiled",
     lambda args, kwargs, result: result.total_uops),
    ("multicore.replay", "repro.sim.multicore:MultiCoreSimulator.run_mix",
     None),
    ("simulator.aggregate", "repro.sim.simulator:aggregate_outcomes", None),
    ("simulator.aggregate", "repro.sim.simulator:OutcomeAccumulator.add",
     None),
    ("simulator.aggregate", "repro.sim.simulator:OutcomeAccumulator.finalize",
     None),
)


@dataclass
class Span:
    id: int
    parent: Optional[int]
    name: str
    fn: str
    start: float
    end: float = 0.0
    count: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class SpanRecorder:
    """In-memory span store; ``open``/``close`` keep the parent stack."""

    clock: Callable[[], float] = time.perf_counter
    spans: List[Span] = field(default_factory=list)
    _stack: List[Span] = field(default_factory=list)

    def open(self, name: str, fn: str = "") -> Span:
        span = Span(id=len(self.spans),
                    parent=self._stack[-1].id if self._stack else None,
                    name=name, fn=fn or name, start=self.clock())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.fn} closed out of order "
                               f"(innermost open span is {popped.fn})")


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Each span's duration minus the durations of its direct children."""
    spans = list(spans)
    own = {span.id: span.duration for span in spans}
    for span in spans:
        if span.parent is not None and span.parent in own:
            own[span.parent] -= span.duration
    return own


@dataclass
class LayerTotal:
    self_s: float = 0.0
    calls: int = 0
    count: float = 0.0


def layer_totals(spans: Iterable[Span]) -> Dict[str, LayerTotal]:
    """Self time, call count and work count summed per layer name."""
    spans = list(spans)
    own = self_times(spans)
    totals: Dict[str, LayerTotal] = {}
    for span in spans:
        total = totals.setdefault(span.name, LayerTotal())
        total.self_s += own[span.id]
        total.calls += 1
        total.count += span.count
    return totals


def chrome_trace(spans: Iterable[Span]) -> Dict[str, object]:
    """Chrome trace-event JSON (complete ``X`` events, microseconds)."""
    spans = list(spans)
    origin = min((span.start for span in spans), default=0.0)
    return {
        "displayTimeUnit": "ms",
        "traceEvents": [
            {"name": span.fn, "cat": span.name, "ph": "X", "pid": 1,
             "tid": 1, "ts": (span.start - origin) * 1e6,
             "dur": span.duration * 1e6,
             "args": {"id": span.id, "parent": span.parent,
                      "count": span.count}}
            for span in spans],
    }


def _resolve(target: str):
    """``"module:Owner.attr"`` -> (owner object, attribute name)."""
    module_name, _, qualname = target.partition(":")
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


def _wrap_function(recorder: SpanRecorder, name: str, fn_name: str,
                   func: Callable, count: Optional[Callable]) -> Callable:
    if inspect.isgeneratorfunction(func):
        def traced_generator(*args, **kwargs):
            # One span per resumption, so time spent by the consumer between
            # items is not charged to the generator.
            iterator = func(*args, **kwargs)
            while True:
                span = recorder.open(name, fn_name)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    recorder.close(span)
                yield item
        traced_generator.__wrapped__ = func
        return traced_generator

    def traced(*args, **kwargs):
        span = recorder.open(name, fn_name)
        try:
            result = func(*args, **kwargs)
        finally:
            recorder.close(span)
        if count is not None:
            span.count = count(args, kwargs, result)
        return result
    traced.__wrapped__ = func
    return traced


def _swap_module_refs(old: object, new: object) -> None:
    """Point every loaded ``repro`` module attribute holding ``old`` at ``new``."""
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for key, value in list(vars(module).items()):
            if value is old:
                setattr(module, key, new)


class Tracer:
    """Context manager that installs span wrappers and restores the originals.

    A module-level function is replaced in every loaded ``repro`` module that
    holds it, because ``from x import f`` copies the reference into the
    importing module; restoring scans again, so a module imported while the
    tracer was on gets the original back too.  A method is replaced on its
    class (keeping ``classmethod``/``staticmethod`` descriptors).
    """

    def __init__(self):
        self.recorder = SpanRecorder()
        self._methods: List[Tuple[type, str, object]] = []
        self._functions: List[Tuple[Callable, Callable]] = []

    def __enter__(self) -> "Tracer":
        try:
            for name, target, count in LAYERS:
                self._install(name, target, count)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _install(self, name: str, target: str, count) -> None:
        owner, attr = _resolve(target)
        fn_name = target.partition(":")[2]
        if inspect.isclass(owner):
            raw = owner.__dict__[attr]
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(_wrap_function(
                    self.recorder, name, fn_name, raw.__func__, count))
            else:
                wrapped = _wrap_function(self.recorder, name, fn_name, raw,
                                         count)
            self._methods.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
            return
        original = getattr(owner, attr)
        wrapped = _wrap_function(self.recorder, name, fn_name, original,
                                 count)
        self._functions.append((wrapped, original))
        _swap_module_refs(original, wrapped)

    def restore(self) -> None:
        while self._methods:
            owner, attr, raw = self._methods.pop()
            setattr(owner, attr, raw)
        while self._functions:
            _swap_module_refs(*self._functions.pop())


#: Per-layer metric -> unit, in report order (also ``BENCHMARK.json``).
#: ``engine.job_tail_pct`` names the percentile ``engine.job_s_tail`` is at;
#: it is printed with the layers but is not a metric.
PER_LAYER_UNITS: Dict[str, str] = {
    "native.load_s": "s",
    "workloads.fast_forward_s": "s",
    "workloads.fast_forward_ops_per_s": "1/s",
    "workloads.emit_s": "s",
    "workloads.emit_ops_per_s": "1/s",
    "bundle.generate_self_s": "s",
    "compiled.streams_self_s": "s",
    "compiled.tokenize_s": "s",
    "compiled.compile_s": "s",
    "compiled.compile_uops_per_s": "1/s",
    "compiled.stream_cache_hit_ratio": "ratio",
    "compiled.working_set_arrays_s": "s",
    "compiled.warm_s": "s",
    "simulator.replay_self_s": "s",
    "core.simulate_s": "s",
    "core.kernel_uops_per_s": "1/s",
    "multicore.replay_self_s": "s",
    "simulator.aggregate_s": "s",
    "engine.self_s": "s",
    "engine.job_self_s": "s",
    "engine.job_s_p50": "s",
    "engine.job_s_tail": "s",
    "engine.dedup_ratio": "ratio",
    "engine.degradations": "count",
    "cache.load_s": "s",
    "cache.store_s": "s",
    "experiments.extract_s": "s",
    "trace.wall_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead_frac": "ratio",
}

#: Layer name -> the metric carrying its self time.
SELF_TIME_METRICS = {
    "native.load": "native.load_s",
    "workloads.fast_forward": "workloads.fast_forward_s",
    "workloads.emit": "workloads.emit_s",
    "bundle.generate": "bundle.generate_self_s",
    "compiled.streams": "compiled.streams_self_s",
    "compiled.tokenize": "compiled.tokenize_s",
    "compiled.compile": "compiled.compile_s",
    "compiled.working_set_arrays": "compiled.working_set_arrays_s",
    "compiled.warm": "compiled.warm_s",
    "simulator.replay": "simulator.replay_self_s",
    "core.simulate": "core.simulate_s",
    "multicore.replay": "multicore.replay_self_s",
    "simulator.aggregate": "simulator.aggregate_s",
    "engine": "engine.self_s",
    "engine.job": "engine.job_self_s",
    "cache.load": "cache.load_s",
    "cache.store": "cache.store_s",
    "experiments": "experiments.extract_s",
}


def percentile(values: List[float], pct: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def tail_percentile(count: int) -> int:
    """The highest of p99/p95/p90/p75 leaving at least ten samples beyond
    it, else 50."""
    for pct in (99, 95, 90, 75):
        if count * (100 - pct) / 100 >= 10:
            return pct
    return 50


def per_layer_metrics(spans: List[Span], root: Span) -> Dict[str, float]:
    """Per-layer metrics of one traced pass whose timed region is ``root``.

    Every layer reports its self time.  Rates divide a layer's work count by
    its self time.  ``trace.coverage`` is the layers' self time inside the
    timed region over the region's duration.  The caller adds the metrics
    that need more than the spans (``engine.dedup_ratio``,
    ``engine.degradations``, ``trace.overhead_frac``).
    """
    totals = layer_totals(spans)
    metrics = {metric: totals[layer].self_s if layer in totals else 0.0
               for layer, metric in SELF_TIME_METRICS.items()}

    def rate(layer: str) -> float:
        total = totals.get(layer)
        return total.count / total.self_s if total and total.self_s else 0.0

    metrics["workloads.fast_forward_ops_per_s"] = rate("workloads.fast_forward")
    metrics["workloads.emit_ops_per_s"] = rate("workloads.emit")
    metrics["compiled.compile_uops_per_s"] = rate("compiled.compile")
    metrics["core.kernel_uops_per_s"] = rate("core.simulate")

    by_id = {span.id: span for span in spans}
    requests = totals["compiled.streams"].calls         if "compiled.streams" in totals else 0
    compiles = sum(1 for span in spans
                   if span.fn == "StreamCompiler.compile_measured"
                   and span.parent is not None
                   and by_id[span.parent].name == "compiled.streams")
    metrics["compiled.stream_cache_hit_ratio"] = \
        1.0 - compiles / requests if requests else 0.0

    jobs = [span.duration for span in spans if span.name == "engine.job"]
    tail = tail_percentile(len(jobs))
    metrics["engine.job_s_p50"] = percentile(jobs, 50) if jobs else 0.0
    metrics["engine.job_s_tail"] = percentile(jobs, tail) if jobs else 0.0
    metrics["engine.job_tail_pct"] = float(tail)

    own = self_times(spans)
    inside = sum(own[span.id] for span in spans
                 if span is not root and span.start >= root.start
                 and span.end <= root.end)
    metrics["trace.wall_s"] = root.duration
    metrics["trace.coverage"] = inside / root.duration
    return metrics
