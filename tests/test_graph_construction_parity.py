"""Graph construction with per-configuration base graphs equals a fresh build per design.

:meth:`DatasetGenerator.featurise` lets the graph constructor build one base
graph (initial DFG plus buffer insertion) per unroll configuration and copy
it for every design of that configuration.  The oracle here is a fresh
:class:`GraphConstructor` per design with no base reuse.  Samples must be
``tobytes``-identical, and must not depend on the order or grouping of the
designs a featurisation call sees.
"""

from __future__ import annotations

import random

import pytest

from repro.flow.dataset_gen import DatasetConfig, DatasetGenerator
from repro.graph.construction import GraphConstructionConfig, GraphConstructor
from repro.kernels.polybench import polybench_kernel, polybench_names
from repro.kernels.synthetic import synthetic_kernel, synthetic_names

CONFIGS = {
    "default": GraphConstructionConfig(),
    "raw": GraphConstructionConfig.raw(),
    "no_buffers": GraphConstructionConfig(buffer_insertion=False),
    "no_merging": GraphConstructionConfig(datapath_merging=False),
    "no_trimming": GraphConstructionConfig(trimming=False),
}

GRAPH_ARRAYS = (
    "node_features",
    "edge_index",
    "edge_features",
    "edge_types",
    "metadata",
    "node_is_arithmetic",
    "batch",
)

LABELS = (
    "kernel",
    "directives",
    "total_power",
    "dynamic_power",
    "static_power",
    "latency_cycles",
    "vivado_total_power",
    "vivado_dynamic_power",
    "is_baseline",
)


class FreshConstructorPerDesign:
    """The oracle: every design gets a new constructor and its own base graph."""

    def __init__(self, config: GraphConstructionConfig) -> None:
        self.config = config

    def build(self, hls_result, profile, baseline_report=None, bases=None):
        return GraphConstructor(self.config).build(hls_result, profile, baseline_report)


class RecordingConstructor(GraphConstructor):
    """A constructor that keeps the arguments of every build."""

    def __init__(self) -> None:
        super().__init__()
        self.calls: list[tuple] = []

    def build(self, hls_result, profile, baseline_report=None, bases=None):
        # ``bases`` is one mapping per featurisation call: it names the call.
        self.calls.append((hls_result, profile, baseline_report, bases))
        return super().build(hls_result, profile, baseline_report, bases)


def assert_same_graph(got, want) -> None:
    for name in GRAPH_ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name
    assert got.node_names == want.node_names


def assert_same_samples(got, want) -> None:
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert_same_graph(a.graph, b.graph)
        for name in LABELS:
            assert getattr(a, name) == getattr(b, name), name


def two_designs_per_unroll_configuration(generator, kernel) -> list:
    """The first two designs of each unroll configuration of the kernel's space."""
    picked: dict[tuple, list] = {}
    for directives in generator.design_space_for(kernel):
        group = picked.setdefault(generator._loop_pragma_key(kernel, directives), [])
        if len(group) < 2:
            group.append(directives)
    return [directives for group in picked.values() for directives in group]


@pytest.fixture(scope="module")
def polybench_calls():
    """Featurise the picks of the nine spaces, recording every build."""
    generator = DatasetGenerator(DatasetConfig(kernel_size=8))
    recorder = RecordingConstructor()
    generator.graph_constructor = recorder
    picks = {}
    samples = {}
    for name in polybench_names():
        kernel = polybench_kernel(name, 8)
        picks[name] = two_designs_per_unroll_configuration(generator, kernel)
        samples[name] = generator.featurise(kernel, picks[name])
    return generator, picks, samples, recorder.calls


def test_featurise_matches_a_fresh_constructor_per_design(polybench_calls):
    generator, picks, samples, calls = polybench_calls
    # Every unroll configuration of the nine spaces, most of them twice.
    configurations = {
        (name, generator._loop_pragma_key(polybench_kernel(name, 8), directives))
        for name, designs in picks.items()
        for directives in designs
    }
    assert len(configurations) == 144
    assert len(calls) > len(configurations)
    generator.graph_constructor = FreshConstructorPerDesign(CONFIGS["default"])
    try:
        for name in polybench_names():
            oracle = generator.featurise(polybench_kernel(name, 8), picks[name])
            assert_same_samples(samples[name], oracle)
    finally:
        generator.graph_constructor = GraphConstructor()


@pytest.mark.parametrize("label", sorted(CONFIGS))
def test_every_construction_config_matches_the_oracle(polybench_calls, label):
    """Replays each featurisation call's builds under one construction config."""
    _, _, _, calls = polybench_calls
    constructor = GraphConstructor(CONFIGS[label])
    oracle = FreshConstructorPerDesign(CONFIGS[label])
    bases_by_call: dict[int, dict] = {}
    for hls_result, profile, baseline_report, call in calls:
        bases = bases_by_call.setdefault(id(call), {})
        assert_same_graph(
            constructor.build(hls_result, profile, baseline_report, bases),
            oracle.build(hls_result, profile, baseline_report),
        )
    # One base per unroll configuration of each call.
    assert sum(map(len, bases_by_call.values())) == 144


def test_synthetic_families_match_the_oracle():
    generator = DatasetGenerator(DatasetConfig(kernel_size=8))
    for pattern in synthetic_names():
        kernel = synthetic_kernel(pattern, 8)
        designs = list(generator.design_space_for(kernel))
        generator.graph_constructor = GraphConstructor()
        samples = generator.featurise(kernel, designs)
        generator.graph_constructor = FreshConstructorPerDesign(CONFIGS["default"])
        assert_same_samples(samples, generator.featurise(kernel, designs))


@pytest.mark.parametrize("name", ["gemm", "2mm", "syr2k"])
def test_samples_do_not_depend_on_call_order_or_grouping(name):
    kernel = polybench_kernel(name, 8)
    generator = DatasetGenerator(DatasetConfig(kernel_size=8))
    designs = two_designs_per_unroll_configuration(generator, kernel)
    reference = generator.featurise(kernel, designs)
    # The same designs in another order.
    order = list(range(len(designs)))
    random.Random(name).shuffle(order)
    shuffled = generator.featurise(kernel, [designs[i] for i in order])
    assert_same_samples([shuffled[order.index(i)] for i in range(len(designs))], reference)
    # One design per call, on this generator and on a fresh one.
    for other in (generator, DatasetGenerator(DatasetConfig(kernel_size=8))):
        one_by_one = [other.featurise(kernel, [d])[0] for d in designs]
        assert_same_samples(one_by_one, reference)
    # The whole list again.
    assert_same_samples(generator.featurise(kernel, designs), reference)
