"""The in-process workloads: ``dse_explore``, ``paper_forward``, ``train_fit``.

Each workload builds its inputs from the run seed, sets the program up (the
model is trained in a child process, saved to a temporary registry and
loaded from there), measures whole operations until ``--seconds`` of timed
wall time have passed, then checks every answer outside the timed window.
With ``--trace 1`` the same window runs twice, untraced and then under the
per-layer shims, so the tracing overhead is measured in the same run.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass, field

from perfbench import tracing
from perfbench.artifacts import (
    artifact_name,
    model_config,
    model_shape,
    training_in_background,
)
from perfbench.common import (
    dataset_config,
    derive_seed,
    design_space,
    kernels,
    peak_rss_mb,
    profile_reuse_share,
    relative_mismatch,
    rng_for,
)

#: Set-ups per run; ``setup_s`` is their median.  Set-ups that take
#: milliseconds (``dse_explore``, ``train_fit``) are repeated more often.
SETUPS = 3
QUICK_SETUPS = 9
#: Size of the seeded subset behind ``flow.batch_variant_answers``.
VARIANCE_SUBSET = 64
#: Campaigns a ``dse_explore`` window holds at least, however short
#: ``--seconds`` is.  One campaign takes 9-16 s on a 2-core shared host whose
#: speed drifts by a fifth over such spans: over 36 campaigns run back to
#: back, one per run would have spread designs_per_s by 24% and the mean of
#: three by 13%.  Ten runs of four spread no less than ten runs of three.
MIN_CAMPAIGNS = 3


@dataclass
class Window:
    """What one timed window measured."""

    designs: int = 0
    timed_s: float = 0.0
    latencies_s: list = field(default_factory=list)
    #: One entry per checked answer: ``True`` when it matched its reference.
    checks: list = field(default_factory=list)
    failed_operations: int = 0
    spans: list = field(default_factory=list)

    @property
    def designs_per_s(self) -> float:
        return self.designs / self.timed_s


@dataclass
class Outcome:
    """Everything a workload reports; :mod:`perfbench.run` formats it."""

    setup_s: float
    window: Window
    peak_rss_mb: float
    #: Shape of the workload's model (hidden size, layers, members, fingerprint).
    model: dict
    #: Workload-specific end-to-end numbers (name -> (value, unit)).
    specific: dict = field(default_factory=dict)
    #: Workload-property shares (name -> value), see :func:`workload_properties`.
    properties: dict = field(default_factory=dict)
    layers: dict | None = None
    spans: list = field(default_factory=list)


def workload_properties(reuse: float = 0.0, hit_ratio: float = 0.0, mean_batch: float = 0.0, **more) -> dict:
    """The workload properties every record carries (0 where not applicable)."""
    return {
        "activity.profile_reuse_share": reuse,
        "serve.cache.prediction_hit_ratio": hit_ratio,
        "runtime.microbatch.mean_batch": mean_batch,
        **more,
    }


def prediction_hit_ratio(service) -> float:
    stats = service.cache.stats()["predictions"]
    lookups = stats["hits"] + stats["misses"]
    return stats["hits"] / lookups if lookups else 0.0


def tally(window: Window) -> tuple[int, int]:
    """``(attempted, failed)``: checked answers plus operations that raised."""
    failed = window.checks.count(False) + window.failed_operations
    return len(window.checks) + window.failed_operations, failed


def timed_windows(args, run_window) -> tuple[Window, dict | None, list]:
    """Run the untraced window; with tracing, a traced one after it.

    Returns ``(untraced window, layer metrics or None, spans)``.  The end-to-end
    metrics always come from the untraced window.
    """
    plain = run_window(None)
    if not args.trace:
        return plain, None, []
    tracer = tracing.Tracer()
    tracing.install(tracer)
    traced = run_window(tracer)
    layers = tracing.layer_metrics(traced.spans, traced.timed_s)
    layers["bench.tracing_overhead_share"] = 1.0 - traced.designs_per_s / plain.designs_per_s
    plain.checks.extend(traced.checks)
    plain.failed_operations += traced.failed_operations
    return plain, layers, traced.spans


def timed(tracer, operation) -> tuple:
    """Run ``operation()``; returns ``(result or None, seconds, raised)``.

    Under a tracer the call runs inside a root span of its own.  A call that
    raises is counted as a failed operation by the caller, never fatal.
    """
    close = tracer.open_root() if tracer is not None else None
    start = time.perf_counter()
    try:
        return operation(), time.perf_counter() - start, False
    except Exception:  # noqa: BLE001 - any program failure is a failed operation
        return None, time.perf_counter() - start, True
    finally:
        if close is not None:
            close()


def batch_variant_answers(model, samples: list, served: list) -> int:
    """Served answers not bitwise equal to a batch-of-one ``predict_batch``."""
    return sum(
        1
        for sample, answer in zip(samples, served)
        if float(model.predict_batch([sample])[0]) != answer
    )


def load_setups(build, count: int = SETUPS) -> tuple[float, list]:
    """Set the service up ``count`` times; ``(median seconds, services)``."""
    durations, services = [], []
    for _ in range(count):
        start = time.perf_counter()
        services.append(build())
        durations.append(time.perf_counter() - start)
    return statistics.median(durations), services


# -------------------------------------------------------------- dse_explore



def dse_explore(args, env, tmp) -> Outcome:
    from repro import DatasetGenerator
    from repro.dse.explorer import DSEConfig
    from repro.serve import ModelRegistry, PowerEstimationService

    registry_dir = tmp / "registry"
    with training_in_background("default", registry_dir, env):
        dse_seed = derive_seed(args.seed, "dse")
        names = kernels()
        spaces = {kernel: design_space(kernel) for kernel in names}
    reference = ModelRegistry(registry_dir).load(artifact_name("default"))

    def build():
        return PowerEstimationService(
            registry=ModelRegistry(registry_dir),
            model_name=artifact_name("default"),
            generator=DatasetGenerator(dataset_config()),
        )

    setup_s, services = load_setups(build, QUICK_SETUPS)
    fresh = list(services)
    explored: list = []

    def run_window(tracer) -> Window:
        window = Window()
        while window.timed_s < args.seconds or len(window.latencies_s) < MIN_CAMPAIGNS:
            # One operation = one campaign: the nine kernels explored on a
            # fresh (cold) service.  Per-kernel explorations are too few and
            # too unlike each other for a steady median.
            service = fresh.pop() if fresh else build()
            gc.collect()
            elapsed = 0.0
            for kernel in names:
                config = DSEConfig(total_budget=0.4, seed=dse_seed)
                report, seconds, raised = timed(
                    tracer, lambda: service.explore(kernel, dse_config=config)
                )
                elapsed += seconds
                if raised:
                    window.failed_operations += 1
                    continue
                window.designs += report.num_candidates
                explored.append((window, service, kernel, report))
            window.timed_s += elapsed
            window.latencies_s.append(elapsed)
        if tracer is not None:
            window.spans = list(tracer.spans)
        return window

    window, layers, spans = timed_windows(args, run_window)

    # The check, outside the timed windows: each exploration's predictions
    # against the reference model on the very samples the service used.
    # The batch-variance subset draws from the first campaign only, whose
    # batches do not depend on timing, so its count repeats exactly.
    served_designs: list = []
    for position, (owner, service, kernel, report) in enumerate(explored):
        points = spaces[kernel]
        indices = sorted(report.result.predictions)
        samples = [service.cache.get_sample(kernel, points[i].describe()) for i in indices]
        expected = reference.predict_batch(samples)
        for i, sample, ref in zip(indices, samples, expected):
            answer = report.result.predictions[i]
            window.checks.append(not relative_mismatch(answer, float(ref)))
            if position < len(names):
                served_designs.append((sample, answer))
    adrs = [report.adrs for owner, _, _, report in explored if owner is window] or [float("nan")]
    outcome = Outcome(
        setup_s=setup_s,
        window=window,
        peak_rss_mb=peak_rss_mb(),
        model=model_shape(reference),
        specific={"adrs_pct": (100.0 * sum(adrs) / len(adrs), "%")},
        properties=workload_properties(
            reuse=profile_reuse_share(
                [(kernel, point) for kernel in names for point in spaces[kernel]]
            ),
            hit_ratio=prediction_hit_ratio(explored[0][1]) if explored else 0.0,
        ),
        layers=layers,
        spans=spans,
    )
    if layers is not None:
        picks = rng_for(args.seed, "variance").choice(
            len(served_designs), size=min(VARIANCE_SUBSET, len(served_designs)), replace=False
        )
        subset = [served_designs[i] for i in sorted(picks)]
        layers["flow.batch_variant_answers"] = batch_variant_answers(
            reference, [s for s, _ in subset], [a for _, a in subset]
        )
    return outcome


# ------------------------------------------------------------ paper_forward

#: Pool designs per kernel and request batch size of ``paper_forward``.
FORWARD_POOL_PER_KERNEL = 16
FORWARD_BATCH = 16


def paper_forward(args, env, tmp) -> Outcome:
    from repro import DatasetGenerator
    from repro.serve import EstimateRequest, ModelRegistry, PowerEstimationService

    registry_dir = tmp / "registry"
    rng = rng_for(args.seed, "batches")
    with training_in_background("paper", registry_dir, env):
        generator = DatasetGenerator(dataset_config())
        pool = []
        for kernel in kernels():
            points = design_space(kernel)
            picks = rng.choice(len(points), size=FORWARD_POOL_PER_KERNEL, replace=False)
            pool.extend(generator.featurise(kernel, [points[i] for i in sorted(picks)]))
    reference = ModelRegistry(registry_dir).load(artifact_name("paper"))
    expected = [float(value) for value in reference.predict_batch(pool)]

    def build():
        return PowerEstimationService(
            registry=ModelRegistry(registry_dir), model_name=artifact_name("paper")
        )

    setup_s, services = load_setups(build)
    service = services[-1]
    #: Each pool design's answer in the first replay, whose batches do not
    #: depend on timing, so the batch-variance count repeats exactly.
    first_answer: dict[int, float] = {}

    def run_window(tracer) -> Window:
        window = Window()
        while window.timed_s < args.seconds:
            # One pass sends every pool design once, in a seeded mixed order;
            # the cache is emptied between passes (outside the timed window)
            # so every prediction misses it.
            service.cache.clear()
            gc.collect()
            order = [int(i) for i in rng.permutation(len(pool))]
            for start in range(0, len(order), FORWARD_BATCH):
                chunk = order[start : start + FORWARD_BATCH]
                requests = [EstimateRequest.from_sample(pool[i]) for i in chunk]
                responses, elapsed, raised = timed(
                    tracer, lambda: service.estimate_many(requests)
                )
                window.timed_s += elapsed
                if raised:
                    window.failed_operations += 1
                    continue
                window.latencies_s.append(elapsed)
                window.designs += len(chunk)
                for i, response in zip(chunk, responses):
                    window.checks.append(not relative_mismatch(response.power, expected[i]))
                    first_answer.setdefault(i, response.power)
                if window.timed_s >= args.seconds:
                    break
            if tracer is not None:
                window.spans = list(tracer.spans)
        return window

    window, layers, spans = timed_windows(args, run_window)
    outcome = Outcome(
        setup_s=setup_s,
        window=window,
        peak_rss_mb=peak_rss_mb(),
        model=model_shape(reference),
        properties=workload_properties(hit_ratio=prediction_hit_ratio(service)),
        layers=layers,
        spans=spans,
    )
    if layers is not None:
        served = sorted(first_answer)
        picks = rng_for(args.seed, "variance").choice(
            len(served), size=min(VARIANCE_SUBSET, len(served)), replace=False
        )
        chosen = [served[i] for i in sorted(picks)]
        layers["flow.batch_variant_answers"] = batch_variant_answers(
            reference, [pool[i] for i in chosen], [first_answer[i] for i in chosen]
        )
    return outcome


# ---------------------------------------------------------------- train_fit

#: Training designs per kernel, epochs per fit, and the held-out kernel.
FIT_DESIGNS_PER_KERNEL = 12
FIT_EPOCHS = 5
HELD_OUT_KERNEL = "atax"


def train_fit(args, env, tmp) -> Outcome:
    from dataclasses import replace

    from repro import DatasetGenerator, PowerGear
    from repro.serve import ModelRegistry

    # A fixed training set (the first designs of each kernel's space): the
    # seed only orders it, which sets the ensemble's folds and batches.  The
    # set itself decides the graph sizes, and so the cost and memory of a fit.
    generator = DatasetGenerator(dataset_config())
    train, held_out = [], []
    for kernel in kernels():
        points = design_space(kernel)[:FIT_DESIGNS_PER_KERNEL]
        samples = generator.featurise(kernel, points)
        (held_out if kernel == HELD_OUT_KERNEL else train).extend(samples)
    train = [train[int(i)] for i in rng_for(args.seed, "training-order").permutation(len(train))]
    base = model_config("default")
    config = replace(base, training=replace(base.training, epochs=FIT_EPOCHS))
    members = config.ensemble.num_members
    #: The first fitted model and every fit's fingerprint.  Later models are
    #: dropped, so peak memory does not follow the number of fits in a run.
    fitted: list = []
    fingerprints: list = []

    def run_window(tracer) -> Window:
        window = Window()
        while window.timed_s < args.seconds:
            gc.collect()
            model, elapsed, raised = timed(tracer, lambda: PowerGear(config).fit(train))
            window.timed_s += elapsed
            if raised:
                window.failed_operations += 1
                continue
            window.latencies_s.append(elapsed)
            window.designs += len(train) * FIT_EPOCHS * members
            fingerprints.append(model.fingerprint())
            if not fitted:
                fitted.append(model)
        if tracer is not None:
            window.spans = list(tracer.spans)
        return window

    window, layers, spans = timed_windows(args, run_window)
    # Fits are deterministic: every fit of the run must give the same model.
    model = fitted[0]
    window.checks.extend(fingerprint == model.fingerprint() for fingerprint in fingerprints)

    # Set-up: what stands between a fit and a served model — the registry
    # round trip of the fitted artifact.
    durations = []
    for attempt in range(QUICK_SETUPS):
        start = time.perf_counter()
        registry = ModelRegistry(tmp / f"fit-registry-{attempt}")
        registry.save(model, "bench-fit")
        loaded = registry.load("bench-fit")
        durations.append(time.perf_counter() - start)
        window.checks.append(loaded.fingerprint() == model.fingerprint())

    outcome = Outcome(
        setup_s=statistics.median(durations),
        window=window,
        peak_rss_mb=peak_rss_mb(),
        model=model_shape(model),
        properties=workload_properties(),
        specific={
            "train_sample_epochs_per_s": (window.designs_per_s, "1/s"),
            "fit_mape_pct": (model.evaluate(held_out), "%"),
        },
        layers=layers,
        spans=spans,
    )
    if layers is not None:
        subset = train[:VARIANCE_SUBSET]
        served = [float(value) for value in model.predict_batch(subset)]
        layers["flow.batch_variant_answers"] = batch_variant_answers(model, subset, served)
    return outcome
