"""Heterogeneous, directed graph container with edge features.

This is the numpy analogue of a PyTorch-Geometric ``Data`` object, specialised
for PowerGear's graphs: node features, directed edges with four-dimensional
activity features, an edge relation type per edge (A→A, A→N, N→A, N→N) and a
global metadata vector from the HLS report.

Graphs can be batched (disjoint union with an index vector mapping nodes to
their graph), which is how the GNN training loop processes minibatches.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: Relation types of the heterogeneous graph, indexed by (src_arith, dst_arith).
RELATION_TYPES: tuple[str, ...] = ("A->A", "A->N", "N->A", "N->N")


def relation_type_index(src_is_arithmetic: bool, dst_is_arithmetic: bool) -> int:
    """Map the arithmetic/non-arithmetic classes of an edge's endpoints to its relation index."""
    if src_is_arithmetic and dst_is_arithmetic:
        return 0
    if src_is_arithmetic and not dst_is_arithmetic:
        return 1
    if not src_is_arithmetic and dst_is_arithmetic:
        return 2
    return 3


@dataclass
class HeteroGraph:
    """One graph sample (or a batch of disjoint graphs)."""

    node_features: np.ndarray
    edge_index: np.ndarray
    edge_features: np.ndarray
    edge_types: np.ndarray
    metadata: np.ndarray
    node_is_arithmetic: np.ndarray
    node_names: list[str] = field(default_factory=list)
    batch: np.ndarray | None = None
    num_graphs: int = 1

    def __post_init__(self) -> None:
        self.node_features = np.asarray(self.node_features, dtype=np.float64)
        self.edge_index = np.asarray(self.edge_index, dtype=np.int64).reshape(2, -1)
        self.edge_features = np.asarray(self.edge_features, dtype=np.float64)
        self.edge_types = np.asarray(self.edge_types, dtype=np.int64).reshape(-1)
        self.metadata = np.asarray(self.metadata, dtype=np.float64)
        self.node_is_arithmetic = np.asarray(self.node_is_arithmetic, dtype=bool).reshape(-1)
        if self.edge_features.size == 0:
            self.edge_features = self.edge_features.reshape(0, 0)
        if self.edge_index.shape[1] != self.edge_types.shape[0]:
            raise ValueError("edge_index and edge_types disagree on the number of edges")
        if self.edge_index.shape[1] != self.edge_features.shape[0] and self.edge_features.size:
            raise ValueError("edge_index and edge_features disagree on the number of edges")
        if self.edge_index.size and self.edge_index.max() >= self.num_nodes:
            raise ValueError("edge_index references a node that does not exist")
        if self.batch is None:
            self.batch = np.zeros(self.num_nodes, dtype=np.int64)
        else:
            self.batch = np.asarray(self.batch, dtype=np.int64).reshape(-1)
            if self.batch.shape[0] != self.num_nodes:
                raise ValueError("batch vector length must equal the number of nodes")

    # ------------------------------------------------------------------ shape

    @property
    def num_nodes(self) -> int:
        return int(self.node_features.shape[0])

    @property
    def num_edges(self) -> int:
        return int(self.edge_index.shape[1])

    @property
    def node_feature_dim(self) -> int:
        return int(self.node_features.shape[1]) if self.node_features.ndim == 2 else 0

    @property
    def edge_feature_dim(self) -> int:
        return int(self.edge_features.shape[1]) if self.edge_features.ndim == 2 else 0

    @property
    def metadata_dim(self) -> int:
        if self.metadata.ndim == 1:
            return int(self.metadata.shape[0])
        return int(self.metadata.shape[1])

    # --------------------------------------------------------------- variants

    def undirected(self) -> "HeteroGraph":
        """Symmetrised copy (each edge duplicated in the reverse direction).

        Used by the ``w/o dir.`` ablation and by the node-centric baselines
        (GCN) that assume symmetric neighbourhoods.
        """
        src, dst = self.edge_index
        edge_index = np.concatenate(
            [self.edge_index, np.stack([dst, src])], axis=1
        )
        edge_features = np.concatenate([self.edge_features, self.edge_features], axis=0)
        reverse_types = np.array(
            [
                relation_type_index(
                    bool(self.node_is_arithmetic[d]), bool(self.node_is_arithmetic[s])
                )
                for s, d in zip(src, dst)
            ],
            dtype=np.int64,
        )
        edge_types = np.concatenate([self.edge_types, reverse_types])
        return HeteroGraph(
            node_features=self.node_features,
            edge_index=edge_index,
            edge_features=edge_features,
            edge_types=edge_types,
            metadata=self.metadata,
            node_is_arithmetic=self.node_is_arithmetic,
            node_names=list(self.node_names),
            batch=self.batch.copy(),
            num_graphs=self.num_graphs,
        )

    def without_edge_features(self) -> "HeteroGraph":
        """Copy with edge features zeroed (the ``w/o e.f.`` ablation)."""
        return HeteroGraph(
            node_features=self.node_features,
            edge_index=self.edge_index,
            edge_features=np.zeros_like(self.edge_features),
            edge_types=self.edge_types,
            metadata=self.metadata,
            node_is_arithmetic=self.node_is_arithmetic,
            node_names=list(self.node_names),
            batch=self.batch.copy(),
            num_graphs=self.num_graphs,
        )

    def homogeneous(self) -> "HeteroGraph":
        """Copy with a single relation type (the ``w/o hetr.`` ablation)."""
        return HeteroGraph(
            node_features=self.node_features,
            edge_index=self.edge_index,
            edge_features=self.edge_features,
            edge_types=np.zeros_like(self.edge_types),
            metadata=self.metadata,
            node_is_arithmetic=self.node_is_arithmetic,
            node_names=list(self.node_names),
            batch=self.batch.copy(),
            num_graphs=self.num_graphs,
        )

    # --------------------------------------------------------------- batching

    @staticmethod
    def pack(graphs: list["HeteroGraph"]) -> "HeteroGraph":
        """Disjoint union, skipping the copy for a single-graph list.

        The inference paths pack request chunks through this helper: for one
        graph the original object is returned unchanged (its ``batch`` vector
        already describes a one-graph batch).
        """
        if len(graphs) == 1:
            return graphs[0]
        return HeteroGraph.batch_graphs(graphs)

    @staticmethod
    def batch_graphs(graphs: list["HeteroGraph"]) -> "HeteroGraph":
        """Disjoint union of several graphs into one batched graph."""
        if not graphs:
            raise ValueError("cannot batch an empty list of graphs")
        node_dim = graphs[0].node_feature_dim
        # An edgeless graph stores (0, 0) edge features: the batch's edge
        # feature dim comes from the first graph that has edges.
        edge_dim = next(
            (graph.edge_feature_dim for graph in graphs if graph.num_edges),
            graphs[0].edge_feature_dim,
        )
        meta_dim = graphs[0].metadata_dim
        node_features, edge_features, edge_types, metadata = [], [], [], []
        edge_index_parts, arith, batch, names = [], [], [], []
        offset = 0
        for graph_id, graph in enumerate(graphs):
            if graph.node_feature_dim != node_dim:
                raise ValueError("all graphs in a batch must share the node feature dim")
            if graph.edge_feature_dim != edge_dim and graph.num_edges:
                raise ValueError("all graphs in a batch must share the edge feature dim")
            node_features.append(graph.node_features)
            edge_features.append(
                graph.edge_features
                if graph.num_edges
                else np.zeros((0, edge_dim), dtype=np.float64)
            )
            edge_types.append(graph.edge_types)
            edge_index_parts.append(graph.edge_index + offset)
            arith.append(graph.node_is_arithmetic)
            batch.append(np.full(graph.num_nodes, graph_id, dtype=np.int64))
            names.extend(graph.node_names)
            metadata.append(graph.metadata.reshape(1, meta_dim))
            offset += graph.num_nodes
        return HeteroGraph(
            node_features=np.concatenate(node_features, axis=0),
            edge_index=np.concatenate(edge_index_parts, axis=1),
            edge_features=np.concatenate(edge_features, axis=0),
            edge_types=np.concatenate(edge_types),
            metadata=np.concatenate(metadata, axis=0),
            node_is_arithmetic=np.concatenate(arith),
            node_names=names,
            batch=np.concatenate(batch),
            num_graphs=len(graphs),
        )

    def node_counts(self) -> np.ndarray:
        """Number of nodes of each member graph of a batch."""
        counts = np.zeros(self.num_graphs, dtype=np.int64)
        np.add.at(counts, self.batch, 1)
        return counts

    def edge_graph_ids(self) -> np.ndarray:
        """Graph id of every edge (edges never cross member graphs)."""
        if self.num_edges == 0:
            return np.zeros(0, dtype=np.int64)
        return self.batch[self.edge_index[0]]

    def unbatch(self) -> list["HeteroGraph"]:
        """Inverse of :meth:`batch_graphs`: split a batch into member graphs.

        Nodes of a member graph are contiguous in the batch (that is how
        :meth:`batch_graphs` lays them out), so splitting is pure slicing.
        """
        if self.num_graphs == 1:
            return [self]
        node_offsets = np.concatenate([[0], np.cumsum(self.node_counts())])
        edge_ids = self.edge_graph_ids()
        metadata = self.metadata.reshape(self.num_graphs, -1)
        graphs: list[HeteroGraph] = []
        for graph_id in range(self.num_graphs):
            lo, hi = int(node_offsets[graph_id]), int(node_offsets[graph_id + 1])
            mask = edge_ids == graph_id
            names = self.node_names[lo:hi] if len(self.node_names) == self.num_nodes else []
            graphs.append(
                HeteroGraph(
                    node_features=self.node_features[lo:hi],
                    edge_index=self.edge_index[:, mask] - lo,
                    edge_features=self.edge_features[mask]
                    if self.edge_features.size
                    else self.edge_features[:0],
                    edge_types=self.edge_types[mask],
                    metadata=metadata[graph_id],
                    node_is_arithmetic=self.node_is_arithmetic[lo:hi],
                    node_names=list(names),
                )
            )
        return graphs

    def edges_of_type(self, relation: int) -> np.ndarray:
        """Boolean mask of edges with the given relation index."""
        return self.edge_types == relation

    def in_degrees(self) -> np.ndarray:
        degrees = np.zeros(self.num_nodes, dtype=np.int64)
        if self.num_edges:
            np.add.at(degrees, self.edge_index[1], 1)
        return degrees

    def out_degrees(self) -> np.ndarray:
        degrees = np.zeros(self.num_nodes, dtype=np.int64)
        if self.num_edges:
            np.add.at(degrees, self.edge_index[0], 1)
        return degrees
