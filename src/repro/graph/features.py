"""Feature annotation: power graph -> numeric node / edge / metadata features.

Node features follow the paper: one-hot IR operation type, one-hot opcode,
plus numeric activity features (overall activation rate, input / output /
overall switching activity).  We extend the numeric block with the datapath
bit width, buffer size and merge multiplicity, which are available at HLS time
and carry the memory-resource annotation the paper attaches to buffer nodes.

Edge features are the four-dimensional activity vector of Eq. (2)/(3):
switching activity and activation rate of the source and sink value streams.

The metadata vector comes from :meth:`repro.hls.report.HLSReport.metadata_vector`.
"""

from __future__ import annotations

import numpy as np

from repro.graph.hetero_graph import HeteroGraph, relation_type_index
from repro.graph.power_graph import PowerGraph, PowerGraphNode
from repro.hls.report import HLSReport
from repro.ir.instructions import Opcode

#: Version of the featurisation scheme.  Any change to the feature layout
#: below (one-hot vocabularies, numeric blocks, edge features, metadata) must
#: bump this constant: it is part of the serving cache's content address and of
#: registry manifests, so stale cached graphs and incompatible model artifacts
#: are invalidated rather than silently mixed.
FEATURE_VERSION: int = 1

#: Operation-type categories used for the one-hot type feature.
NODE_TYPE_CATEGORIES: tuple[str, ...] = (
    "memory",
    "float_arith",
    "int_arith",
    "compare",
    "cast",
    "bitwise",
    "control",
    "buffer",
)

#: Opcode vocabulary: every IR opcode plus the two buffer kinds.
OPCODE_VOCABULARY: tuple[str, ...] = tuple(op.value for op in Opcode) + (
    "buffer_io",
    "buffer_internal",
)

#: Names of the numeric node features (appended after the one-hot blocks).
NODE_NUMERIC_FEATURES: tuple[str, ...] = (
    "activation_rate",
    "input_switching",
    "output_switching",
    "overall_switching",
    "log_bitwidth",
    "log_buffer_bits",
    "log_merged_count",
    "partition_factor",
)

#: Names of the edge features (Eq. 2 / Eq. 3, source and sink directions).
EDGE_FEATURE_NAMES: tuple[str, ...] = ("sa_src", "sa_snk", "ar_src", "ar_snk")


class FeatureEncoder:
    """Encodes power graphs into :class:`HeteroGraph` samples."""

    def __init__(self) -> None:
        self._type_index = {name: i for i, name in enumerate(NODE_TYPE_CATEGORIES)}
        self._opcode_index = {name: i for i, name in enumerate(OPCODE_VOCABULARY)}

    # ------------------------------------------------------------------ sizes

    @property
    def node_feature_dim(self) -> int:
        return len(NODE_TYPE_CATEGORIES) + len(OPCODE_VOCABULARY) + len(NODE_NUMERIC_FEATURES)

    @property
    def edge_feature_dim(self) -> int:
        return len(EDGE_FEATURE_NAMES)

    # ----------------------------------------------------------------- encode

    def encode(
        self,
        graph: PowerGraph,
        report: HLSReport,
        baseline_report: HLSReport | None = None,
        use_edge_features: bool = True,
    ) -> HeteroGraph:
        """Freeze ``graph`` into an immutable :class:`HeteroGraph`.

        Nodes are laid out by id and edges by ``(src, dst)``.  The one-hot
        blocks are set by index and the numeric block written as one array.
        """
        latency = max(1, report.latency_cycles)
        node_ids = sorted(graph.nodes)
        index_of = {node_id: i for i, node_id in enumerate(node_ids)}
        nodes = [graph.nodes[node_id] for node_id in node_ids]
        num_nodes = len(nodes)
        num_types = len(NODE_TYPE_CATEGORIES)
        num_opcodes = len(OPCODE_VOCABULARY)

        type_columns: list[int] = []
        opcode_columns: list[int] = []
        activity: list[tuple[float, float, float, float, int]] = []
        counts: list[tuple[int, int, int]] = []
        for node in nodes:
            type_column, opcode_column = self._one_hot_columns(node)
            type_columns.append(type_column)
            opcode_columns.append(num_types + opcode_column)
            input_sa = node.input_stats.switching_activity(latency)
            output_sa = node.result_stats.switching_activity(latency)
            # Buffers do not produce values themselves in the IR trace; their
            # activity is carried by the adjacent load/store edges, so the
            # node level features describe the memory itself.
            activation_rate = (
                node.input_stats if node.kind == "buffer" else node.result_stats
            ).activation_rate(latency)
            activity.append(
                (activation_rate, input_sa, output_sa, input_sa + output_sa, node.partition_factor)
            )
            counts.append((node.bitwidth, node.buffer_bits, node.merged_count))
        # Column order of NODE_NUMERIC_FEATURES.
        numeric = np.empty((num_nodes, len(NODE_NUMERIC_FEATURES)))
        numeric[:, [0, 1, 2, 3, 7]] = np.array(activity, dtype=np.float64).reshape(num_nodes, 5)
        numeric[:, 4:7] = np.log1p(np.array(counts, dtype=np.int64).reshape(num_nodes, 3))

        node_features = np.zeros((num_nodes, self.node_feature_dim))
        rows = np.arange(num_nodes)
        node_features[rows, type_columns] = 1.0
        node_features[rows, opcode_columns] = 1.0
        node_features[:, num_types + num_opcodes :] = numeric
        node_is_arithmetic = np.array([node.is_arithmetic for node in nodes], dtype=bool)
        node_names = [node.name or f"n{node_id}" for node_id, node in zip(node_ids, nodes)]

        edges = sorted(graph.edges.items())
        edge_index = np.array(
            [[index_of[src] for (src, _), _ in edges], [index_of[dst] for (_, dst), _ in edges]],
            dtype=np.int64,
        ).reshape(2, len(edges))
        if use_edge_features:
            edge_features = np.array(
                [
                    (
                        edge.src_stats.switching_activity(latency),
                        edge.snk_stats.switching_activity(latency),
                        edge.src_stats.activation_rate(latency),
                        edge.snk_stats.activation_rate(latency),
                    )
                    for _, edge in edges
                ],
                dtype=np.float64,
            ).reshape(len(edges), self.edge_feature_dim)
        else:
            edge_features = np.zeros((len(edges), self.edge_feature_dim))
        edge_types = np.array(
            [
                relation_type_index(graph.nodes[src].is_arithmetic, graph.nodes[dst].is_arithmetic)
                for (src, dst), _ in edges
            ],
            dtype=np.int64,
        )

        metadata = report.metadata_vector(baseline_report)
        return HeteroGraph(
            node_features=node_features,
            edge_index=edge_index,
            edge_features=edge_features,
            edge_types=edge_types,
            metadata=metadata,
            node_is_arithmetic=node_is_arithmetic,
            node_names=node_names,
        )

    # --------------------------------------------------------------- internals

    def _one_hot_columns(self, node: PowerGraphNode) -> tuple[int, int]:
        """Columns of the node's type and opcode within their one-hot blocks."""
        if node.kind == "buffer":
            category = "buffer"
            opcode_key = "buffer_io" if node.buffer_kind == "io" else "buffer_internal"
        else:
            category = node.category
            opcode_key = node.opcode
        return (
            self._type_index.get(category, self._type_index["control"]),
            self._opcode_index.get(opcode_key, 0),
        )
