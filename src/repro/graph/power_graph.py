"""Mutable intermediate graph used by the construction passes.

The construction flow starts from the instruction-level DFG, then mutates it:
buffer insertion adds buffer nodes and removes address-generation nodes,
datapath merging fuses nodes bound to the same functional unit, and trimming
bypasses trivial cast nodes.  :class:`PowerGraph` supports those mutations
while keeping the per-node / per-edge activity statistics consistent (merged
nodes and parallel edges accumulate their statistics), before the feature
encoder freezes everything into an immutable
:class:`~repro.graph.hetero_graph.HeteroGraph`.

Besides the ``edges`` map keyed by ``(src, dst)``, the graph keeps an
adjacency index: for every node, an insertion-ordered map of its successors
and one of its predecessors, each to the connecting edge.  Removing or merging
a node and listing a node's neighbours or incident edges therefore cost time
in the node's degree, not in the size of the graph.  :meth:`PowerGraph.copy`
gives a graph with fresh node and edge objects (the passes mutate both), which
is how one design-independent base graph seeds every design of an unroll
configuration.  The :class:`~repro.activity.tracer.ValueStreamStats` objects
are shared between a graph and its copies and between nodes and edges:
nothing mutates them once they leave the activity tracer (merging builds new
ones).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.activity.tracer import ValueStreamStats


@dataclass(slots=True)
class PowerGraphNode:
    """One node: an operation, or a buffer inserted by buffer insertion."""

    node_id: int
    kind: str  # "op" or "buffer"
    opcode: str
    category: str
    is_arithmetic: bool
    bitwidth: int
    result_stats: ValueStreamStats = field(default_factory=lambda: ValueStreamStats(0))
    input_stats: ValueStreamStats = field(default_factory=lambda: ValueStreamStats(0))
    buffer_name: str | None = None
    buffer_kind: str = ""
    buffer_bits: int = 0
    partition_factor: int = 1
    merged_count: int = 1
    name: str = ""

    def absorb(self, other: "PowerGraphNode") -> None:
        """Merge ``other`` into this node (datapath merging)."""
        self.result_stats = self.result_stats.merged_with(other.result_stats)
        self.input_stats = self.input_stats.merged_with(other.input_stats)
        self.bitwidth = max(self.bitwidth, other.bitwidth)
        self.buffer_bits += other.buffer_bits if other.kind == "buffer" else 0
        self.merged_count += other.merged_count

    def copy(self) -> "PowerGraphNode":
        """A new node with the same attributes."""
        return PowerGraphNode(
            self.node_id,
            self.kind,
            self.opcode,
            self.category,
            self.is_arithmetic,
            self.bitwidth,
            self.result_stats,
            self.input_stats,
            self.buffer_name,
            self.buffer_kind,
            self.buffer_bits,
            self.partition_factor,
            self.merged_count,
            self.name,
        )


@dataclass(slots=True)
class PowerGraphEdge:
    """One directed edge with its source / sink activity statistics."""

    src: int
    dst: int
    src_stats: ValueStreamStats = field(default_factory=lambda: ValueStreamStats(0))
    snk_stats: ValueStreamStats = field(default_factory=lambda: ValueStreamStats(0))
    bitwidth: int = 0
    merged_count: int = 1

    def absorb(self, other: "PowerGraphEdge") -> None:
        """Merge a parallel edge into this one."""
        self.src_stats = self.src_stats.merged_with(other.src_stats)
        self.snk_stats = self.snk_stats.merged_with(other.snk_stats)
        self.bitwidth = max(self.bitwidth, other.bitwidth)
        self.merged_count += other.merged_count

    def copy(self, src: int | None = None, dst: int | None = None) -> "PowerGraphEdge":
        """A new edge with the same attributes, optionally between other endpoints."""
        return PowerGraphEdge(
            self.src if src is None else src,
            self.dst if dst is None else dst,
            self.src_stats,
            self.snk_stats,
            self.bitwidth,
            self.merged_count,
        )


class PowerGraph:
    """Mutable directed graph with activity-annotated nodes and edges."""

    def __init__(self) -> None:
        self.nodes: dict[int, PowerGraphNode] = {}
        self.edges: dict[tuple[int, int], PowerGraphEdge] = {}
        #: ``_succ[a][b]`` and ``_pred[b][a]`` are the edge ``(a, b)``.
        self._succ: dict[int, dict[int, PowerGraphEdge]] = {}
        self._pred: dict[int, dict[int, PowerGraphEdge]] = {}
        self._next_id = 0

    # ------------------------------------------------------------- mutation

    def new_node_id(self) -> int:
        node_id = self._next_id
        self._next_id += 1
        return node_id

    def add_node(self, node: PowerGraphNode) -> PowerGraphNode:
        node_id = node.node_id
        if node_id in self.nodes:
            raise ValueError(f"node {node_id} already exists")
        self.nodes[node_id] = node
        self._succ[node_id] = {}
        self._pred[node_id] = {}
        self._next_id = max(self._next_id, node_id + 1)
        return node

    def add_edge(self, edge: PowerGraphEdge) -> PowerGraphEdge:
        """Insert an edge, merging statistics if a parallel edge already exists."""
        src, dst = edge.src, edge.dst
        if src not in self.nodes or dst not in self.nodes:
            raise KeyError(f"edge ({src}, {dst}) references a missing node")
        if src == dst:
            return edge
        key = (src, dst)
        existing = self.edges.get(key)
        if existing is None:
            self.edges[key] = edge
            self._succ[src][dst] = edge
            self._pred[dst][src] = edge
            return edge
        existing.absorb(edge)
        return existing

    def remove_node(self, node_id: int) -> None:
        if node_id not in self.nodes:
            raise KeyError(f"no node {node_id}")
        del self.nodes[node_id]
        for dst in self._succ.pop(node_id):
            del self.edges[(node_id, dst)]
            del self._pred[dst][node_id]
        for src in self._pred.pop(node_id):
            del self.edges[(src, node_id)]
            del self._succ[src][node_id]

    def merge_nodes(self, keep_id: int, remove_id: int) -> None:
        """Fuse ``remove_id`` into ``keep_id``, redirecting its edges."""
        if keep_id == remove_id:
            return
        keep = self.nodes[keep_id]
        remove = self.nodes[remove_id]
        keep.absorb(remove)
        # Edges between the two nodes would become self-loops: they are dropped.
        redirected = [
            edge.copy(dst=keep_id)
            for src, edge in self._pred[remove_id].items()
            if src != keep_id
        ] + [
            edge.copy(src=keep_id)
            for dst, edge in self._succ[remove_id].items()
            if dst != keep_id
        ]
        self.remove_node(remove_id)
        for edge in redirected:
            self.add_edge(edge)

    def copy(self) -> "PowerGraph":
        """A graph equal to this one, sharing no node or edge object with it."""
        clone = PowerGraph()
        clone._next_id = self._next_id
        for node_id, node in self.nodes.items():
            clone.nodes[node_id] = node.copy()
            clone._succ[node_id] = {}
            clone._pred[node_id] = {}
        for key, edge in self.edges.items():
            edge = edge.copy()
            clone.edges[key] = edge
            clone._succ[edge.src][edge.dst] = edge
            clone._pred[edge.dst][edge.src] = edge
        return clone

    # ------------------------------------------------------------- traversal

    def predecessors(self, node_id: int) -> list[int]:
        return list(self._pred.get(node_id, ()))

    def successors(self, node_id: int) -> list[int]:
        return list(self._succ.get(node_id, ()))

    def in_edges(self, node_id: int) -> list[PowerGraphEdge]:
        return list(self._pred[node_id].values()) if node_id in self._pred else []

    def out_edges(self, node_id: int) -> list[PowerGraphEdge]:
        return list(self._succ[node_id].values()) if node_id in self._succ else []

    def nodes_where(self, predicate) -> list[PowerGraphNode]:
        return [node for node in self.nodes.values() if predicate(node)]

    # ------------------------------------------------------------------ info

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def __repr__(self) -> str:
        return f"PowerGraph(nodes={self.num_nodes}, edges={self.num_edges})"
