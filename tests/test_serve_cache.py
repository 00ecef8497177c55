"""Tests for the content-addressed inference cache."""

import dataclasses

import numpy as np
import pytest

from repro.graph.dataset import GraphSample
from repro.graph.features import FEATURE_VERSION
from repro.graph.hetero_graph import HeteroGraph
from repro.runtime.cache import PersistentCache
from repro.serve.cache import InferenceCache, LRUStore, content_key, sample_fingerprint

GRAPH_ARRAYS = (
    "node_features",
    "edge_index",
    "edge_features",
    "edge_types",
    "metadata",
    "node_is_arithmetic",
    "batch",
)


def assert_bitwise_equal(got: GraphSample, want: GraphSample) -> None:
    """Every array of the two samples has the same dtype, shape and bytes."""
    for name in GRAPH_ARRAYS:
        a, b = getattr(got.graph, name), getattr(want.graph, name)
        assert a.dtype == b.dtype, name
        assert a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    assert got.graph.node_names == want.graph.node_names
    assert got.graph.num_graphs == want.graph.num_graphs
    for item in dataclasses.fields(GraphSample):
        if item.name != "graph":
            assert getattr(got, item.name) == getattr(want, item.name), item.name
    assert sample_fingerprint(got) == sample_fingerprint(want)


def sample_of(graph: HeteroGraph, directives: str = "point", **extras) -> GraphSample:
    return GraphSample(
        graph=graph,
        kernel="synthetic",
        directives=directives,
        total_power=0.75,
        dynamic_power=0.25,
        static_power=0.5,
        latency_cycles=42,
        vivado_total_power=0.7,
        is_baseline=True,
        extras=dict(extras),
    )


def test_content_key_is_stable_and_sensitive():
    key = content_key("atax", "baseline")
    assert key == content_key("atax", "baseline")
    assert key != content_key("atax", "unroll2")
    assert key != content_key("gemm", "baseline")
    assert key != content_key("atax", "baseline", feature_version=FEATURE_VERSION + 1)
    # No separator ambiguity between the kernel and directive fields.
    assert content_key("ab", "c") != content_key("a", "bc")


def test_sample_fingerprint_tracks_graph_content(random_sample_factory):
    sample = random_sample_factory(1, seed=7)[0]
    first = sample_fingerprint(sample)
    assert sample_fingerprint(sample) == first
    # Same (kernel, directives) but different graph data -> different address,
    # so a doctored client sample cannot alias the canonical featurisation.
    sample.graph.node_features = sample.graph.node_features + 1e-9
    assert sample_fingerprint(sample) != first


def test_lru_store_eviction_and_stats():
    store = LRUStore(max_entries=2)
    store.put("a", 1)
    store.put("b", 2)
    assert store.get("a") == 1  # refreshes "a"
    store.put("c", 3)  # evicts "b"
    assert "b" not in store
    assert store.get("b") is None
    assert store.get("a") == 1 and store.get("c") == 3
    assert store.stats.evictions == 1
    assert store.stats.hits == 3 and store.stats.misses == 1
    assert 0.0 < store.stats.hit_rate < 1.0
    with pytest.raises(ValueError):
        LRUStore(max_entries=0)


def test_inference_cache_samples_and_predictions(random_sample_factory):
    cache = InferenceCache()
    sample = random_sample_factory(1, seed=3)[0]
    assert cache.get_sample(sample.kernel, sample.directives) is None
    key = cache.put_sample(sample)
    assert_bitwise_equal(cache.get_sample(sample.kernel, sample.directives), sample)

    assert cache.get_prediction(key, "model-a") is None
    cache.put_prediction(key, "model-a", 1.25)
    assert cache.get_prediction(key, "model-a") == 1.25
    # A different model fingerprint misses: predictions are model-addressed.
    assert cache.get_prediction(key, "model-b") is None

    stats = cache.stats()
    assert stats["samples"]["hits"] == 1
    assert stats["predictions"]["misses"] == 2
    cache.clear()
    assert cache.get_sample(sample.kernel, sample.directives) is None


def _one_hot_graph(rng) -> HeteroGraph:
    """A graph shaped like a featurised design: one-hot blocks plus numerics."""
    features = np.zeros((9, 47))
    features[np.arange(9), rng.integers(0, 8, size=9)] = 1.0
    features[np.arange(9), 8 + rng.integers(0, 31, size=9)] = 1.0
    features[:, 39:] = rng.random((9, 8))
    features[0, 39] = -0.0
    features[1, 40] = np.nan
    # A NaN with a payload, and a negative subnormal.
    features[2, 41] = np.array([0x7FF8_0000_DEAD_BEEF], dtype=np.int64).view(np.float64)[0]
    features[3, 42] = -5e-324
    edge_index = np.array([[0, 1, 2, 3, 8], [1, 2, 3, 4, 0]])
    return HeteroGraph(
        node_features=features,
        edge_index=edge_index,
        edge_features=rng.random((5, 4)),
        edge_types=np.array([0, 1, 2, 3, 3]),
        metadata=rng.random(10),
        node_is_arithmetic=rng.random(9) < 0.5,
        node_names=[f"v{i}" for i in range(9)],
    )


def _edgeless_graph() -> HeteroGraph:
    return HeteroGraph(
        node_features=np.ones((1, 47)),
        edge_index=np.zeros((2, 0)),
        edge_features=np.zeros((0, 4)),
        edge_types=np.zeros(0),
        metadata=np.arange(10.0),
        node_is_arithmetic=[True],
        node_names=["only"],
    )


def _wide_graph(rng) -> HeteroGraph:
    """Indices past int8, relation types past int32 (kept at int64)."""
    features = np.where(rng.random((300, 200)) < 0.05, rng.normal(size=(300, 200)), 0.0)
    return HeteroGraph(
        node_features=features,
        edge_index=np.array([[0, 299, 150], [299, 0, 7]]),
        edge_features=rng.random((3, 4)),
        edge_types=np.array([2**40, -5, 3]),
        metadata=rng.random(10),
        node_is_arithmetic=rng.random(300) < 0.5,
        node_names=[f"v{i}" for i in range(300)],
    )


@pytest.mark.parametrize("shape", ["one_hot", "edgeless", "dense", "empty", "wide"])
def test_memory_tier_round_trips_bitwise(shape, random_graph_factory):
    rng = np.random.default_rng(5)
    graph = {
        "one_hot": lambda: _one_hot_graph(rng),
        "edgeless": _edgeless_graph,
        "wide": lambda: _wide_graph(rng),
        # A client-shaped matrix: dense, not one-hot, no zero entries.
        "dense": lambda: random_graph_factory(num_nodes=12, num_edges=30, seed=9),
        "empty": lambda: HeteroGraph(
            node_features=np.zeros((0, 47)),
            edge_index=np.zeros((2, 0)),
            edge_features=np.zeros((0, 4)),
            edge_types=np.zeros(0),
            metadata=np.zeros(10),
            node_is_arithmetic=np.zeros(0, dtype=bool),
        ),
    }[shape]()
    if shape == "edgeless":
        assert graph.edge_features.shape == (0, 0)
    sample = sample_of(graph, config_vector=[1.0, 2.0], num_instructions=7)
    cache = InferenceCache()
    cache.put_sample(sample)
    first = cache.get_sample(sample.kernel, sample.directives)
    assert first is not sample
    assert_bitwise_equal(first, sample)
    assert_bitwise_equal(cache.get_sample(sample.kernel, sample.directives), sample)


def test_returned_samples_never_alias_the_store():
    rng = np.random.default_rng(1)
    sample = sample_of(_one_hot_graph(rng), config_vector=[1.0])
    reference = sample_of(_one_hot_graph(np.random.default_rng(1)), config_vector=[1.0])
    cache = InferenceCache()
    cache.put_sample(sample)
    # Mutating the sample that was put does not reach the store...
    sample.graph.metadata[:] = 0.0
    sample.extras["config_vector"] = None
    # ...and neither does mutating any returned sample.
    got = cache.get_sample(sample.kernel, sample.directives)
    for name in GRAPH_ARRAYS:
        getattr(got.graph, name)[...] = 0
    got.graph.node_names.append("extra")
    got.extras["added"] = True
    got.total_power = -1.0
    assert_bitwise_equal(cache.get_sample(sample.kernel, sample.directives), reference)


def test_disk_hits_are_promoted_compactly(tmp_path):
    sample = sample_of(_one_hot_graph(np.random.default_rng(3)), num_instructions=3)
    cache = InferenceCache(persistent=PersistentCache(tmp_path / "cache"))
    cache.put_sample(sample)
    cache.clear()  # drops the memory tier only
    from_disk = cache.get_sample(sample.kernel, sample.directives)
    assert cache.stats()["samples"]["misses"] == 1
    assert_bitwise_equal(from_disk, sample)
    promoted = cache.get_sample(sample.kernel, sample.directives)
    assert cache.stats()["samples"]["hits"] == 1
    assert promoted is not from_disk
    assert_bitwise_equal(promoted, from_disk)
