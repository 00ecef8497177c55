"""Per-layer tracing for the benchmark's traced runs.

Timing shims wrap the public functions of each layer *at the name its caller
looks up* (``repro.flow.dataset_gen.simulate_activity`` is imported by name,
so its shim goes on that name; methods are wrapped on their class).  Nothing
under ``src/`` is edited: the shims are installed from the benchmark's own
files, in the benchmark process or, for ``http_mixed``, from the server
process's entry point.

Every shim call records one span — layer, name, start, end, parent span and
an optional count — in memory.  The parent is the span open in the caller's
context (a :mod:`contextvars` variable, so it follows asyncio tasks and the
gateway's context-copying thread hop).  A span's self time is its duration
minus the durations of its child spans.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import time
from collections import defaultdict
from dataclasses import dataclass

_CURRENT = contextvars.ContextVar("perfbench_span", default=0)


@dataclass(frozen=True)
class Span:
    id: int
    parent: int
    layer: str
    name: str
    start: float
    end: float
    count: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; thread-safe for appends under the GIL."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)

    def clear(self) -> None:
        self.spans = []

    def open_root(self):
        """Open a ``bench`` root span in the calling context; returns a closer."""
        span_id = next(self._ids)
        token = _CURRENT.set(span_id)
        start = time.perf_counter()

        def close() -> Span:
            end = time.perf_counter()
            _CURRENT.reset(token)
            span = Span(span_id, 0, "bench", "bench.window", start, end, 0.0)
            self.spans.append(span)
            return span

        return close

    def wrap(self, layer: str, name: str, fn, count=None):
        """Return ``fn`` wrapped so each call records a span."""
        tracer = self

        def record(span_id, parent, start, args, kwargs, result, ok):
            end = time.perf_counter()
            value = count(args, kwargs, result) if (count is not None and ok) else 0.0
            tracer.spans.append(
                Span(span_id, parent, layer, name, start, end, float(value))
            )

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_shim(*args, **kwargs):
                span_id = next(tracer._ids)
                parent = _CURRENT.get()
                token = _CURRENT.set(span_id)
                start = time.perf_counter()
                result, ok = None, False
                try:
                    result = await fn(*args, **kwargs)
                    ok = True
                    return result
                finally:
                    _CURRENT.reset(token)
                    record(span_id, parent, start, args, kwargs, result, ok)

            return async_shim

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            span_id = next(tracer._ids)
            parent = _CURRENT.get()
            token = _CURRENT.set(span_id)
            start = time.perf_counter()
            result, ok = None, False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                _CURRENT.reset(token)
                record(span_id, parent, start, args, kwargs, result, ok)

        return shim


# ----------------------------------------------------------------- shim table


def _nth_len(index: int, key: str):
    """Count = length of positional argument ``index`` (or keyword ``key``)."""

    def count(args, kwargs, result):
        value = args[index] if len(args) > index else kwargs[key]
        return len(value)

    return count


def _is_hit(args, kwargs, result):
    return 1.0 if result is not None else 0.0


def _epochs(args, kwargs, result):
    return len(result.train_loss)


#: (module, attribute path, layer, count) — the layer boundaries the traced
#: run times.  Layers are named ``<module>.<name>`` after the repo's packages.
SHIMS = [
    ("repro.hls.frontend", "HLSFrontend.lower", "hls.lower", None),
    ("repro.hls.scheduling", "Scheduler.schedule", "hls.backend", None),
    ("repro.hls.binding", "Binder.bind", "hls.backend", None),
    ("repro.flow.dataset_gen", "build_fsmd", "hls.backend", None),
    ("repro.hls.resources", "ResourceEstimator.estimate", "hls.backend", None),
    ("repro.flow.dataset_gen", "simulate_activity", "activity.simulate", None),
    ("repro.graph.construction", "GraphConstructor.build", "graph.build", None),
    ("repro.power.ground_truth", "GroundTruthPowerModel.measure", "power.labels", None),
    ("repro.power.vivado", "VivadoPowerEstimator.estimate", "power.labels", None),
    ("repro.power.runtime", "RuntimeModel.runtimes", "power.labels", None),
    (
        "repro.flow.dataset_gen",
        "DatasetGenerator.featurise",
        "flow.featurise",
        _nth_len(2, "directives_list"),
    ),
    ("repro.flow.powergear", "PowerGear.predict_batch", "flow.predict", _nth_len(1, "samples")),
    ("repro.graph.hetero_graph", "HeteroGraph.pack", "gnn.pack", None),
    ("repro.gnn.base", "GraphBatch.from_graph", "gnn.pack", None),
    ("repro.gnn.base", "PowerGNN.forward_batch", "gnn.forward", None),
    ("repro.serve.cache", "InferenceCache.get_sample", "serve.cache", _is_hit),
    ("repro.serve.cache", "InferenceCache.put_sample", "serve.cache", None),
    ("repro.serve.cache", "InferenceCache.get_prediction", "serve.cache", _is_hit),
    ("repro.serve.cache", "InferenceCache.put_prediction", "serve.cache", None),
    ("repro.serve.service", "sample_fingerprint", "serve.cache", None),
    ("repro.dse.explorer", "ParetoExplorer.step", "dse.step", None),
    ("repro.gnn.trainer", "Trainer.fit", "gnn.trainer", _epochs),
    ("repro.graph.hetero_graph", "HeteroGraph.batch_graphs", "gnn.pack", None),
    ("repro.nn.tensor", "Tensor.backward", "nn.backward", None),
    ("repro.nn.optim", "Adam.step", "nn.optim.step", None),
    ("repro.runtime.microbatch", "MicroBatcher.submit", "runtime.microbatch", None),
    ("repro.runtime.gateway", "AsyncPowerGateway.estimate", "runtime.gateway", None),
    # Façade entry points: timed so that their own (self) time is visible —
    # it is the part of the wall time no named layer accounts for.
    ("repro.serve.service", "PowerEstimationService.estimate", "facade", None),
    ("repro.serve.service", "PowerEstimationService.estimate_many", "facade", None),
    ("repro.serve.service", "PowerEstimationService.explore", "facade", None),
    ("repro.flow.powergear", "PowerGear.fit", "facade", None),
]


def install(tracer: Tracer) -> None:
    """Install every shim of :data:`SHIMS`; shims already in place are kept."""
    for module_name, path, layer, count in SHIMS:
        owner = importlib.import_module(module_name)
        *owners, attribute = path.split(".")
        for part in owners:
            owner = getattr(owner, part)
        raw = inspect.getattr_static(owner, attribute)
        static = isinstance(raw, staticmethod)
        fn = raw.__func__ if static else raw
        if getattr(fn, "__perfbench_shim__", False):
            continue
        wrapped = tracer.wrap(layer, f"{module_name}.{path}", fn, count)
        wrapped.__perfbench_shim__ = True
        setattr(owner, attribute, staticmethod(wrapped) if static else wrapped)


# ----------------------------------------------------------------- reduction


def _child_time(spans: list[Span]) -> dict[int, float]:
    """Summed duration of each span's children, by span id."""
    child_time: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent:
            child_time[span.parent] += span.duration
    return child_time


def self_times(spans: list[Span], layer: str) -> list[float]:
    """Each ``layer`` span's duration minus its children's."""
    child_time = _child_time(spans)
    return [span.duration - child_time[span.id] for span in spans if span.layer == layer]


def summarise(spans: list[Span]) -> dict:
    """Per-layer ``calls``, ``busy`` (outermost spans), ``self`` and ``count``.

    ``busy`` sums only spans with no ancestor of the same layer, so a layer
    that calls itself is not counted twice.
    """
    by_id = {span.id: span for span in spans}
    child_time = _child_time(spans)
    layers: dict[str, dict] = defaultdict(
        lambda: {"calls": 0, "busy": 0.0, "self": 0.0, "count": 0.0}
    )
    for span in spans:
        entry = layers[span.layer]
        entry["calls"] += 1
        entry["count"] += span.count
        entry["self"] += span.duration - child_time[span.id]
        ancestor = by_id.get(span.parent)
        nested = False
        while ancestor is not None:
            if ancestor.layer == span.layer:
                nested = True
                break
            ancestor = by_id.get(ancestor.parent)
        if not nested:
            entry["busy"] += span.duration
    return dict(layers)


def busy_within(spans: list[Span], layer: str, ancestor_layer: str) -> float:
    """Summed duration of ``layer``'s outermost spans that run inside ``ancestor_layer``."""
    by_id = {span.id: span for span in spans}
    total = 0.0
    for span in spans:
        if span.layer != layer:
            continue
        ancestor, inside = by_id.get(span.parent), False
        while ancestor is not None and ancestor.layer != layer:
            inside = inside or ancestor.layer == ancestor_layer
            ancestor = by_id.get(ancestor.parent)
        if ancestor is None and inside:
            total += span.duration
    return total


def split_counts(spans: list[Span], layer: str, suffix: str) -> tuple[int, float]:
    """``(calls, summed count)`` of one layer's spans whose name ends in ``suffix``."""
    calls, total = 0, 0.0
    for span in spans:
        if span.layer == layer and span.name.endswith(suffix):
            calls += 1
            total += span.count
    return calls, total


#: Layers whose self time counts as attributed wall time.
NAMED_LAYERS = (
    "hls.lower",
    "hls.backend",
    "activity.simulate",
    "graph.build",
    "power.labels",
    "flow.featurise",
    "flow.predict",
    "gnn.pack",
    "gnn.forward",
    "serve.cache",
    "dse.step",
    "gnn.trainer",
    "nn.backward",
    "nn.optim.step",
    "runtime.microbatch",
    "runtime.gateway",
)


def under_roots(spans: list[Span], layer: str = "bench") -> list[Span]:
    """The spans inside the timed root spans (all spans when there are none)."""
    by_id = {span.id: span for span in spans}
    if not any(span.layer == layer for span in spans):
        return spans
    kept = []
    for span in spans:
        node = span
        while node is not None and node.layer != layer:
            node = by_id.get(node.parent)
        if node is not None:
            kept.append(span)
    return kept


def layer_metrics(spans: list[Span], wall_s: float, extra_attributed_s: float = 0.0) -> dict:
    """The per-layer metric values (without units) of one traced window.

    ``wall_s`` is the wall time the window's attribution is measured
    against; ``extra_attributed_s`` is named-layer time measured outside
    these spans (the client side of HTTP requests).
    """
    spans = under_roots(spans)
    layers = summarise(spans)

    def get(layer: str, field: str) -> float:
        return layers.get(layer, {}).get(field, 0.0)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    sample_lookups, sample_hits = split_counts(spans, "serve.cache", ".get_sample")
    prediction_lookups, prediction_hits = split_counts(
        spans, "serve.cache", ".get_prediction"
    )
    featurised = get("flow.featurise", "count")
    attributed = extra_attributed_s + sum(get(layer, "self") for layer in NAMED_LAYERS)
    return {
        "hls.lower.calls": get("hls.lower", "calls"),
        "hls.lower.busy_s": get("hls.lower", "busy"),
        "hls.backend.busy_s": get("hls.backend", "busy"),
        "activity.simulate.calls": get("activity.simulate", "calls"),
        "activity.simulate.busy_s": get("activity.simulate", "busy"),
        "activity.profile_reuse_share": ratio(
            featurised - get("activity.simulate", "calls"), featurised
        ),
        "graph.build.calls": get("graph.build", "calls"),
        "graph.build.busy_s": get("graph.build", "busy"),
        "power.labels.busy_s": get("power.labels", "busy"),
        "flow.featurise.designs": featurised,
        "flow.featurise.busy_s": get("flow.featurise", "busy"),
        "flow.featurise.self_s": get("flow.featurise", "self"),
        "flow.predict.calls": get("flow.predict", "calls"),
        "flow.predict.designs": get("flow.predict", "count"),
        "flow.predict.busy_s": get("flow.predict", "busy"),
        "flow.predict.mean_batch": ratio(
            get("flow.predict", "count"), get("flow.predict", "calls")
        ),
        "gnn.pack.busy_s": get("gnn.pack", "busy"),
        "gnn.forward.busy_s": get("gnn.forward", "busy"),
        "serve.cache.sample_hit_ratio": ratio(sample_hits, sample_lookups),
        "serve.cache.prediction_hit_ratio": ratio(prediction_hits, prediction_lookups),
        "serve.cache.busy_s": get("serve.cache", "busy"),
        "runtime.microbatch.wait_s": get("runtime.microbatch", "self"),
        "runtime.gateway.wait_s": get("runtime.gateway", "self"),
        "dse.step.calls": get("dse.step", "calls"),
        "dse.step.self_s": get("dse.step", "self"),
        "gnn.trainer.epochs": get("gnn.trainer", "count"),
        "gnn.trainer.busy_s": get("gnn.trainer", "busy"),
        "gnn.trainer.pack_busy_s": busy_within(spans, "gnn.pack", "gnn.trainer"),
        "nn.backward.busy_s": get("nn.backward", "busy"),
        "nn.optim.step.busy_s": get("nn.optim.step", "busy"),
        "bench.window_s": wall_s,
        "bench.unattributed_share": ratio(wall_s - attributed, wall_s),
    }
