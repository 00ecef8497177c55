"""Content-addressed inference cache for the power-estimation service.

Serving a DSE loop hits the same designs over and over: the explorer
re-visits design points, different requests sweep overlapping pragma
configurations, and every estimate needs the same two expensive steps —
featurisation (HLS → activity → graph) and model inference.  Both are pure
functions of their inputs here (the whole pipeline is deterministic), so they
are memoised under content addresses:

* **featurisation** is keyed by ``sha256(kernel, directives, feature-version)``
  — the feature version (:data:`repro.graph.features.FEATURE_VERSION`) is part
  of the address so graphs featurised under an older scheme can never be
  served to a model trained on a newer one;
* **predictions** are keyed by a content hash of the sample's actual graph
  data (:func:`sample_fingerprint`) *plus the model's weight fingerprint*, so
  rolling a new registry version in automatically misses the old model's
  predictions, and a client-supplied sample can never poison the predictions
  of the service's own featurisation of the same directives.

Both stores are bounded LRU maps with hit / miss / eviction counters.  The
memory tier keeps each sample compact and lossless (:class:`CompactSample`):
node features as their nonzero entries, positions, edge indices and relation
types in the narrowest integer type that holds them, and no per-graph
``batch`` vector.  A lookup rebuilds a dense sample whose arrays are bitwise equal to
the ones stored, and which shares no array with the store.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.graph.dataset import GraphSample
from repro.graph.features import FEATURE_VERSION
from repro.graph.hetero_graph import HeteroGraph


def content_key(kernel: str, directives: str, feature_version: int = FEATURE_VERSION) -> str:
    """Content address of one design point's featurisation."""
    digest = hashlib.sha256()
    for part in (kernel, directives, str(int(feature_version))):
        digest.update(part.encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()


def sample_fingerprint(sample: GraphSample) -> str:
    """Content hash of a sample's actual graph data.

    Predictions are keyed by this (plus the model fingerprint) rather than by
    the ``(kernel, directives)`` address: a client-supplied sample whose graph
    differs from the service's own featurisation of the same directives (other
    dataset config, stale feature scheme) then gets its own cache entry
    instead of poisoning the canonical one.
    """
    graph = sample.graph
    digest = hashlib.sha256()
    digest.update(f"{sample.kernel}\x00{sample.directives}\x00{FEATURE_VERSION}".encode("utf-8"))
    for block in (
        graph.node_features,
        graph.edge_index,
        graph.edge_features,
        graph.edge_types,
        graph.metadata,
        graph.node_is_arithmetic,
    ):
        digest.update(b"\x00")
        digest.update(np.ascontiguousarray(block).tobytes())
    return digest.hexdigest()


#: Signed integer types from narrowest, with the range each holds.
_INT_TYPES = [
    (dtype, int(np.iinfo(dtype).min), int(np.iinfo(dtype).max))
    for dtype in (np.int8, np.int16, np.int32)
]


def _narrowed(array: np.ndarray) -> np.ndarray:
    """A copy of integer ``array`` in the narrowest signed type that holds it."""
    low, high = (int(array.min()), int(array.max())) if array.size else (0, 0)
    for dtype, smallest, largest in _INT_TYPES:
        if smallest <= low and high <= largest:
            return array.astype(dtype)
    return array.copy()


def _with_graph(sample: GraphSample, graph: HeteroGraph | None) -> GraphSample:
    """``sample`` with ``graph`` and a copy of its ``extras``."""
    other = object.__new__(GraphSample)  # GraphSample.__init__ only assigns
    other.__dict__.update(sample.__dict__, graph=graph, extras=dict(sample.extras))
    return other


@dataclass(slots=True)
class CompactSample:
    """One sample as the memory tier holds it; :meth:`expand` rebuilds it.

    Node features are stored as their nonzero entries: the values and their
    flat positions in the matrix.  "Nonzero" is decided on the bit pattern,
    so ``-0.0`` and NaN payloads survive the round trip.  The other arrays
    are copies; position, edge-index and relation-type arrays are held in the
    narrowest integer type that holds their values, and widened back on
    :meth:`expand`.
    """

    sample: GraphSample  # every field but ``graph``, which is None here
    feature_shape: tuple[int, ...]
    values: np.ndarray
    positions: np.ndarray
    edge_index: np.ndarray
    edge_features: np.ndarray
    edge_types: np.ndarray
    metadata: np.ndarray
    node_is_arithmetic: np.ndarray
    node_names: tuple[str, ...]
    batch: np.ndarray | None
    num_graphs: int

    @classmethod
    def of(cls, sample: GraphSample) -> "CompactSample":
        graph = sample.graph
        features = np.ascontiguousarray(graph.node_features).reshape(-1)
        positions = np.flatnonzero(features.view(np.int64))
        return cls(
            sample=_with_graph(sample, None),
            feature_shape=graph.node_features.shape,
            values=features[positions],
            positions=_narrowed(positions),
            edge_index=_narrowed(graph.edge_index),
            edge_features=graph.edge_features.copy(),
            edge_types=_narrowed(graph.edge_types),
            metadata=graph.metadata.copy(),
            node_is_arithmetic=graph.node_is_arithmetic.copy(),
            node_names=tuple(graph.node_names),
            batch=graph.batch.copy() if graph.batch.any() else None,
            num_graphs=graph.num_graphs,
        )

    def expand(self) -> GraphSample:
        """A dense sample bitwise equal to the stored one, sharing no array with it."""
        features = np.zeros(self.feature_shape)
        features.reshape(-1)[self.positions] = self.values
        graph = HeteroGraph(
            node_features=features,
            edge_index=self.edge_index.astype(np.int64),
            edge_features=self.edge_features.copy(),
            edge_types=self.edge_types.astype(np.int64),
            metadata=self.metadata.copy(),
            node_is_arithmetic=self.node_is_arithmetic.copy(),
            node_names=list(self.node_names),
            batch=None if self.batch is None else self.batch.copy(),
            num_graphs=self.num_graphs,
        )
        return _with_graph(self.sample, graph)


@dataclass
class CacheStats:
    """Hit / miss / eviction counters of one LRU store."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.requests if self.requests else 0.0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }


@dataclass
class LRUStore:
    """A bounded least-recently-used map with stats.

    ``on_evict(key, value)``, when given, fires for every capacity eviction —
    the deployment resolver uses it to surface artifact-cache churn (a bound
    smaller than the working set of live model artifacts would otherwise
    thrash silently, reloading weights from disk on every batch).
    """

    max_entries: int = 4096
    stats: CacheStats = field(default_factory=CacheStats)
    on_evict: object | None = field(default=None, repr=False)
    _entries: OrderedDict = field(default_factory=OrderedDict, repr=False)

    def __post_init__(self) -> None:
        if self.max_entries < 1:
            raise ValueError("max_entries must be >= 1")

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key) -> bool:
        return key in self._entries

    def get(self, key):
        """Return the cached value or ``None``; refreshes recency on hit."""
        if key in self._entries:
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return self._entries[key]
        self.stats.misses += 1
        return None

    def put(self, key, value) -> None:
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = value
        while len(self._entries) > self.max_entries:
            evicted_key, evicted_value = self._entries.popitem(last=False)
            self.stats.evictions += 1
            if self.on_evict is not None:
                self.on_evict(evicted_key, evicted_value)

    def clear(self) -> None:
        self._entries.clear()


class InferenceCache:
    """Featurisation + prediction memoisation shared across requests.

    ``persistent`` optionally attaches a second, on-disk tier (duck-typed to
    :class:`repro.runtime.cache.PersistentCache`): lookups fall through memory
    to disk (disk hits are promoted back into the memory tier), writes go
    through to both, and the ``cost_seconds`` recorded with each write feeds
    the disk tier's cost-aware eviction.  Memory-tier eviction never touches
    the disk tier, which is what lets hit rates survive a service restart.

    The memory tier holds each sample as a :class:`CompactSample`, about a
    third of the dense sample's size; :meth:`get_sample` returns a new dense
    sample, bitwise equal to the one put, on every hit.  The disk tier stores
    dense samples.

    Thread-safe: the runtime drives this cache from coalescer flush threads
    and direct callers concurrently, so memory-tier accesses hold an internal
    lock (an unlocked ``OrderedDict`` get/evict race raises ``KeyError``).
    Disk-tier I/O runs *outside* that lock — the persistent tier carries its
    own — so a slow npz read or write never stalls concurrent memory hits.
    """

    def __init__(
        self,
        max_samples: int = 4096,
        max_predictions: int = 65536,
        persistent=None,
    ) -> None:
        self.samples = LRUStore(max_entries=max_samples)
        self.predictions = LRUStore(max_entries=max_predictions)
        self.persistent = persistent
        #: Duck-typed observability sink (anything with
        #: ``cache_event(kind, tier, outcome, seconds)``); the owning service
        #: sets it so every lookup/write lands in the hit/miss counters and
        #: the per-tier latency histograms.  Purely side-band: cache contents
        #: and return values are identical with or without an observer.
        self.observer = None
        self._lock = threading.RLock()

    # -------------------------------------------------------------------- keys

    @staticmethod
    def sample_key(kernel: str, directives: str) -> str:
        return content_key(kernel, directives)

    @staticmethod
    def prediction_key(sample_key: str, model_fingerprint: str) -> str:
        return f"{sample_key}:{model_fingerprint}"

    # ----------------------------------------------------------------- samples

    def get_sample(self, kernel: str, directives: str) -> GraphSample | None:
        key = self.sample_key(kernel, directives)
        start = time.perf_counter()
        with self._lock:
            cached = self.samples.get(key)
        if cached is not None:
            cached = cached.expand()
        self._observe(
            "sample", "memory", "hit" if cached is not None else "miss", start
        )
        if cached is not None:
            return cached
        if self.persistent is not None:
            start = time.perf_counter()
            from_disk = self.persistent.get_sample(key)
            self._observe(
                "sample", "disk", "hit" if from_disk is not None else "miss", start
            )
            if from_disk is not None:
                compact = CompactSample.of(from_disk)
                with self._lock:
                    self.samples.put(key, compact)
                return from_disk
        return None

    def put_sample(self, sample: GraphSample, cost_seconds: float = 0.0) -> str:
        key = self.sample_key(sample.kernel, sample.directives)
        start = time.perf_counter()
        compact = CompactSample.of(sample)
        with self._lock:
            self.samples.put(key, compact)
        self._observe("sample", "memory", "put", start)
        if self.persistent is not None:
            start = time.perf_counter()
            self.persistent.put_sample(key, sample, cost_seconds=cost_seconds)
            self._observe("sample", "disk", "put", start)
        return key

    # -------------------------------------------------------------- predictions

    def get_prediction(self, sample_key: str, model_fingerprint: str) -> float | None:
        key = self.prediction_key(sample_key, model_fingerprint)
        start = time.perf_counter()
        with self._lock:
            cached = self.predictions.get(key)
        self._observe(
            "prediction", "memory", "hit" if cached is not None else "miss", start
        )
        if cached is not None:
            return cached
        if self.persistent is not None:
            start = time.perf_counter()
            from_disk = self.persistent.get_prediction(key)
            self._observe(
                "prediction", "disk", "hit" if from_disk is not None else "miss", start
            )
            if from_disk is not None:
                with self._lock:
                    self.predictions.put(key, from_disk)
                return from_disk
        return None

    def put_prediction(
        self,
        sample_key: str,
        model_fingerprint: str,
        value: float,
        cost_seconds: float = 0.0,
    ) -> None:
        key = self.prediction_key(sample_key, model_fingerprint)
        start = time.perf_counter()
        with self._lock:
            self.predictions.put(key, float(value))
        self._observe("prediction", "memory", "put", start)
        if self.persistent is not None:
            start = time.perf_counter()
            self.persistent.put_prediction(key, float(value), cost_seconds=cost_seconds)
            self._observe("prediction", "disk", "put", start)

    def _observe(self, kind: str, tier: str, outcome: str, start: float) -> None:
        observer = self.observer
        if observer is not None:
            observer.cache_event(kind, tier, outcome, time.perf_counter() - start)

    # -------------------------------------------------------------------- stats

    def stats(self) -> dict:
        with self._lock:
            stats = {
                "samples": self.samples.stats.as_dict(),
                "predictions": self.predictions.stats.as_dict(),
            }
        if self.persistent is not None:
            stats["persistent"] = self.persistent.stats()
        return stats

    def clear(self) -> None:
        """Drop the memory tiers (the persistent tier survives, by design)."""
        with self._lock:
            self.samples.clear()
            self.predictions.clear()
