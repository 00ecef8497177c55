"""Dataset generation: design spaces -> HLS -> graphs -> power labels.

For every design point of every kernel, the generator runs the full training-
data pipeline of Fig. 1:

1. lower the kernel under the design point's directives (HLS front end),
2. schedule / bind / report (HLS back end),
3. simulate switching activity on the testbench stimulus,
4. run the graph construction flow to obtain the heterogeneous power graph,
5. obtain the "on-board measurement" label from the ground-truth power model,
6. obtain the Vivado-like baseline estimate and the flow runtimes.

Because the IR (and therefore the activity profile) depends only on the loop
pragmas — not on array partitioning — lowered designs and activity profiles
are cached per loop-pragma configuration, which speeds up full design-space
sweeps several-fold.  On the serving path the small, position-keyed profiles
stay cached across :meth:`DatasetGenerator.featurise` calls while the lowered
IR is cached only within a call: re-lowering costs far less than keeping the
IR of every configuration alive for the life of the service.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.activity.simulator import ActivityProfile, simulate_activity
from repro.activity.stimuli import StimulusGenerator
from repro.graph.construction import GraphConstructionConfig, GraphConstructor
from repro.graph.dataset import GraphDataset, GraphSample
from repro.hls.binding import Binder
from repro.hls.frontend import HLSFrontend, LoweredDesign
from repro.hls.fsmd import build_fsmd
from repro.hls.op_library import DEFAULT_LIBRARY, OperatorLibrary
from repro.hls.pragmas import DesignDirectives
from repro.hls.report import HLSReport, HLSResult, TARGET_CLOCK_NS, _achieved_clock_ns
from repro.hls.resources import ResourceEstimator
from repro.hls.scheduling import Scheduler
from repro.kernels.design_space import (
    DesignSpace,
    baseline_directives,
    generate_design_space,
)
from repro.kernels.polybench import polybench_kernel, polybench_names
from repro.kernels.spec import KernelSpec
from repro.power.ground_truth import GroundTruthPowerModel
from repro.power.runtime import RuntimeModel
from repro.power.vivado import VivadoPowerEstimator
from repro.utils.rng import derive_seed


@dataclass
class DatasetConfig:
    """Configuration of the dataset generator.

    The paper uses ~500 design points per kernel generated with Vivado HLS on
    full-size PolyBench; the defaults here are laptop-sized (the runs at this
    scale are recorded in ``benchmarks/latest_results.txt``) and every knob
    can be raised toward the paper's scale.
    """

    kernel_size: int = 8
    designs_per_kernel: int = 60
    unroll_factors: tuple[int, ...] = (1, 2, 4, 8)
    partition_factors: tuple[int, ...] = (1, 2, 4)
    stimulus_profile: str = "uniform"
    stimulus_seed: int = 7
    measurement_seed: int = 11
    measurement_noise: bool = True
    graph_config: GraphConstructionConfig = field(default_factory=GraphConstructionConfig)
    seed: int = 0


class DatasetGenerator:
    """Generates :class:`GraphDataset` objects for kernels and design spaces."""

    def __init__(
        self,
        config: DatasetConfig | None = None,
        library: OperatorLibrary = DEFAULT_LIBRARY,
    ) -> None:
        self.config = config or DatasetConfig()
        self.library = library
        self.frontend = HLSFrontend()
        self.scheduler = Scheduler(library)
        self.binder = Binder(library)
        self.resource_estimator = ResourceEstimator(library)
        self.graph_constructor = GraphConstructor(self.config.graph_config)
        self.ground_truth = GroundTruthPowerModel(
            seed=self.config.measurement_seed, noise=self.config.measurement_noise
        )
        self.vivado = VivadoPowerEstimator()
        self.runtime_model = RuntimeModel()
        #: Per-kernel (stimuli, profile_cache, baseline_report) memoised
        #: across :meth:`featurise` calls (the serving path).
        self._serving_state: dict[str, tuple] = {}

    # ------------------------------------------------------------------ public

    def design_space_for(self, kernel: KernelSpec) -> DesignSpace:
        return generate_design_space(
            kernel,
            max_points=self.config.designs_per_kernel,
            unroll_factors=self.config.unroll_factors,
            partition_factors=self.config.partition_factors,
            seed=self.config.seed,
        )

    def generate_kernel(self, kernel: KernelSpec | str) -> GraphDataset:
        """Generate the dataset of one kernel's design space."""
        if isinstance(kernel, str):
            kernel = polybench_kernel(kernel, self.config.kernel_size)
        design_space = self.design_space_for(kernel)
        return self.generate_from_design_space(kernel, design_space)

    def generate_from_design_space(
        self, kernel: KernelSpec, design_space: DesignSpace
    ) -> GraphDataset:
        stimuli = StimulusGenerator(
            seed=derive_seed(self.config.stimulus_seed, kernel.name),
            profile=self.config.stimulus_profile,
        ).for_kernel(kernel)

        lowered_cache: dict[tuple, LoweredDesign] = {}
        profile_cache: dict[tuple, ActivityProfile] = {}

        baseline_report: HLSReport | None = None
        dataset = GraphDataset()
        for directives in design_space:
            sample = self._generate_sample(
                kernel,
                directives,
                stimuli,
                lowered_cache,
                profile_cache,
                baseline_report,
            )
            if directives.is_baseline or baseline_report is None:
                baseline_report = sample.extras["report"]
            dataset.add(sample)
        return dataset

    def featurise(
        self,
        kernel: KernelSpec | str,
        directives_list: list[DesignDirectives],
    ) -> list[GraphSample]:
        """Featurise specific design points of one kernel (the serving path).

        Runs the same pipeline as :meth:`generate_from_design_space` — HLS,
        activity tracing, graph construction, labels — for an explicit list of
        directives.  Deterministic: featurising the same ``(kernel,
        directives)`` twice produces identical samples, which is what lets the
        serving cache treat that pair as a content address.
        """
        if isinstance(kernel, str):
            kernel = polybench_kernel(kernel, self.config.kernel_size)
        state = self._serving_state.get(kernel.name)
        lowered_cache: dict[tuple, LoweredDesign] = {}
        if state is None:
            # The stimuli, the baseline report and the activity profiles are
            # deterministic per (kernel, config); memoise them on the
            # generator so a stream of single-design featurisation requests
            # does not re-run the baseline HLS flow every time.
            stimuli = StimulusGenerator(
                seed=derive_seed(self.config.stimulus_seed, kernel.name),
                profile=self.config.stimulus_profile,
            ).for_kernel(kernel)
            profile_cache: dict[tuple, ActivityProfile] = {}
            baseline_design = self._lowered_design(
                kernel, baseline_directives(kernel), lowered_cache
            )
            baseline_report = self._run_backend(baseline_design).report
            state = (stimuli, profile_cache, baseline_report)
            self._serving_state[kernel.name] = state
        stimuli, profile_cache, baseline_report = state
        return [
            self._generate_sample(
                kernel, directives, stimuli, lowered_cache, profile_cache, baseline_report
            )
            for directives in directives_list
        ]

    def generate(self, kernel_names: list[str] | None = None) -> GraphDataset:
        """Generate the combined dataset of several (default: all nine) kernels."""
        names = kernel_names or polybench_names()
        combined = GraphDataset()
        for name in names:
            combined.extend(self.generate_kernel(name).samples)
        return combined

    # --------------------------------------------------------------- internals

    @staticmethod
    def _loop_pragma_key(kernel: KernelSpec, directives: DesignDirectives) -> tuple:
        return tuple(
            (loop.var, directives.pragmas_for_loop(loop.var).unroll_factor)
            for loop in kernel.all_loops()
        )

    def _lowered_design(
        self,
        kernel: KernelSpec,
        directives: DesignDirectives,
        lowered_cache: dict[tuple, LoweredDesign],
    ) -> LoweredDesign:
        """Lower (or reuse) the IR for this design point's unroll configuration."""
        key = self._loop_pragma_key(kernel, directives)
        cached = lowered_cache.get(key)
        if cached is None:
            cached = self.frontend.lower(kernel, directives)
            lowered_cache[key] = cached
        # Pipeline / partition directives do not change the IR: reuse the
        # cached function and re-attach this design point's directives.
        design = LoweredDesign(
            kernel=kernel,
            directives=directives,
            function=cached.function,
            array_partitions={
                array.name: directives.partition_for_array(array.name)
                for array in kernel.arrays
            },
            loop_pragmas={
                loop.var: directives.pragmas_for_loop(loop.var)
                for loop in kernel.all_loops()
            },
        )
        for region in design.function.loops:
            region.pragmas = directives.pragmas_for_loop(region.name)
        return design

    def _activity_profile(
        self,
        kernel: KernelSpec,
        directives: DesignDirectives,
        design: LoweredDesign,
        stimuli,
        profile_cache: dict[tuple, ActivityProfile],
    ) -> ActivityProfile:
        key = self._loop_pragma_key(kernel, directives)
        cached = profile_cache.get(key)
        if cached is None:
            cached = simulate_activity(design, stimuli)
            profile_cache[key] = cached
        # A profile cached by an earlier call describes an earlier lowering.
        return cached.for_function(design.function)

    def _run_backend(self, design: LoweredDesign) -> HLSResult:
        schedule = self.scheduler.schedule(design)
        binding = self.binder.bind(design, schedule)
        fsmd = build_fsmd(design, schedule)
        resources = self.resource_estimator.estimate(design, binding, fsmd)
        report = HLSReport(
            kernel_name=design.kernel.name,
            directives=design.directives,
            latency_cycles=schedule.total_latency,
            target_clock_ns=TARGET_CLOCK_NS,
            achieved_clock_ns=_achieved_clock_ns(
                design, resources, self.library, TARGET_CLOCK_NS
            ),
            resources=resources,
            fsm_states=fsmd.num_states,
        )
        return HLSResult(design, schedule, binding, fsmd, report)

    def _config_vector(self, kernel: KernelSpec, directives: DesignDirectives) -> list[float]:
        """Numeric encoding of the directive configuration (used by the DSE explorer)."""
        vector: list[float] = []
        for loop in kernel.all_loops():
            pragmas = directives.pragmas_for_loop(loop.var)
            vector.append(float(np.log2(pragmas.unroll_factor)))
            vector.append(1.0 if pragmas.pipeline else 0.0)
        for array in kernel.arrays:
            vector.append(float(np.log2(directives.partition_for_array(array.name).factor)))
        return vector

    def _generate_sample(
        self,
        kernel: KernelSpec,
        directives: DesignDirectives,
        stimuli,
        lowered_cache,
        profile_cache,
        baseline_report: HLSReport | None,
    ) -> GraphSample:
        design = self._lowered_design(kernel, directives, lowered_cache)
        hls_result = self._run_backend(design)
        profile = self._activity_profile(
            kernel, directives, design, stimuli, profile_cache
        )
        graph = self.graph_constructor.build(
            hls_result, profile, baseline_report=baseline_report
        )
        measurement = self.ground_truth.measure(hls_result, profile)
        vivado_estimate = self.vivado.estimate(hls_result, profile)
        runtimes = self.runtime_model.runtimes(hls_result)
        return GraphSample(
            graph=graph,
            kernel=kernel.name,
            directives=directives.describe(),
            total_power=measurement.total,
            dynamic_power=measurement.dynamic,
            static_power=measurement.static,
            latency_cycles=hls_result.report.latency_cycles,
            vivado_total_power=vivado_estimate.total,
            vivado_dynamic_power=vivado_estimate.dynamic,
            vivado_flow_seconds=runtimes.vivado_flow_seconds,
            powergear_flow_seconds=runtimes.powergear_flow_seconds,
            is_baseline=directives.is_baseline,
            extras={
                "report": hls_result.report,
                "config_vector": self._config_vector(kernel, directives),
                "num_instructions": len(design.function.instructions),
            },
        )


# ----------------------------------------------------- multi-process serving

#: Per-process generator used by the featurisation worker pool.  Workers keep
#: one generator alive across tasks so the per-kernel serving state (stimuli,
#: baseline report, lowering / activity caches) warms up once per process.
_WORKER_GENERATOR: DatasetGenerator | None = None


@dataclass(frozen=True)
class FeaturisationTask:
    """One picklable unit of pooled featurisation work.

    Everything in here — the kernel name and the directive tuples — is a plain
    frozen dataclass of primitives, so tasks cross process boundaries under
    any multiprocessing start method.
    """

    kernel: str
    directives: tuple[DesignDirectives, ...]


def featurisation_worker_init(config: DatasetConfig) -> None:
    """Process-pool initializer: build this worker's generator once."""
    global _WORKER_GENERATOR
    _WORKER_GENERATOR = DatasetGenerator(config)


def run_featurisation_task(task: FeaturisationTask) -> list[GraphSample]:
    """Execute one task in a pool worker (or inline, for the serial fallback).

    Featurisation is a pure function of ``(config, kernel, directives)`` —
    stimuli, measurement noise and placement capacitances are all keyed by
    content, never drawn from sequential RNG state — so a worker's samples are
    bitwise-identical to the serial path's regardless of how the design list
    was sharded across processes.
    """
    if _WORKER_GENERATOR is None:
        raise RuntimeError(
            "featurisation worker is not initialised "
            "(pool must be created with featurisation_worker_init)"
        )
    return _WORKER_GENERATOR.featurise(task.kernel, list(task.directives))


def run_featurisation_task_with_meta(task: FeaturisationTask):
    """Like :func:`run_featurisation_task`, plus a span payload for tracing.

    Returns ``(samples, payload)`` where ``payload`` is the picklable span
    dict of :func:`repro.obs.trace.span_payload` — worker pid, wall-clock
    start, duration — so the parent can graft worker-side timing into the
    live request trace and refresh the worker's heartbeat.  The samples are
    the *same objects* the untimed variant returns (the pool's bitwise
    contract is untouched; the payload is pure side data).
    """
    import time as _time

    from repro.obs.trace import span_payload

    wall_start = _time.time()
    clock_start = _time.perf_counter()
    samples = run_featurisation_task(task)
    return samples, span_payload(
        "featurise.shard",
        wall_start,
        _time.perf_counter() - clock_start,
        kernel=task.kernel,
        designs=len(task.directives),
    )
