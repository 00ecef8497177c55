"""Tests for the mutable power graph used by the construction passes."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.activity.tracer import ValueStreamStats
from repro.graph.power_graph import PowerGraph, PowerGraphEdge, PowerGraphNode


def make_node(graph: PowerGraph, opcode: str = "fadd", arithmetic: bool = True) -> PowerGraphNode:
    node = PowerGraphNode(
        node_id=graph.new_node_id(),
        kind="op",
        opcode=opcode,
        category="float_arith" if arithmetic else "memory",
        is_arithmetic=arithmetic,
        bitwidth=32,
    )
    return graph.add_node(node)


def stats_with(hamming: int, changes: int = 1, execs: int = 2) -> ValueStreamStats:
    return ValueStreamStats(bit_width=32, exec_count=execs, change_count=changes, hamming_sum=hamming)


def test_add_edge_merges_parallel_edges():
    graph = PowerGraph()
    a, b = make_node(graph), make_node(graph)
    graph.add_edge(PowerGraphEdge(a.node_id, b.node_id, src_stats=stats_with(4)))
    graph.add_edge(PowerGraphEdge(a.node_id, b.node_id, src_stats=stats_with(6)))
    assert graph.num_edges == 1
    edge = graph.edges[(a.node_id, b.node_id)]
    assert edge.src_stats.hamming_sum == 10
    assert edge.merged_count == 2


def test_add_edge_ignores_self_loops_and_missing_nodes():
    graph = PowerGraph()
    a = make_node(graph)
    graph.add_edge(PowerGraphEdge(a.node_id, a.node_id))
    assert graph.num_edges == 0
    with pytest.raises(KeyError):
        graph.add_edge(PowerGraphEdge(a.node_id, 999))


def test_remove_node_drops_incident_edges():
    graph = PowerGraph()
    a, b, c = make_node(graph), make_node(graph), make_node(graph)
    graph.add_edge(PowerGraphEdge(a.node_id, b.node_id))
    graph.add_edge(PowerGraphEdge(b.node_id, c.node_id))
    graph.remove_node(b.node_id)
    assert graph.num_nodes == 2
    assert graph.num_edges == 0


def test_merge_nodes_redirects_edges_and_accumulates_stats():
    graph = PowerGraph()
    a, b, c = make_node(graph), make_node(graph), make_node(graph)
    a.result_stats = stats_with(3)
    b.result_stats = stats_with(5)
    graph.add_edge(PowerGraphEdge(a.node_id, c.node_id, src_stats=stats_with(1)))
    graph.add_edge(PowerGraphEdge(b.node_id, c.node_id, src_stats=stats_with(2)))
    graph.merge_nodes(a.node_id, b.node_id)
    assert graph.num_nodes == 2
    assert graph.nodes[a.node_id].merged_count == 2
    assert graph.nodes[a.node_id].result_stats.hamming_sum == 8
    # The two edges to c become one with merged statistics.
    assert graph.num_edges == 1
    assert graph.edges[(a.node_id, c.node_id)].src_stats.hamming_sum == 3


def test_merge_nodes_avoids_self_loops():
    graph = PowerGraph()
    a, b = make_node(graph), make_node(graph)
    graph.add_edge(PowerGraphEdge(a.node_id, b.node_id))
    graph.merge_nodes(a.node_id, b.node_id)
    assert graph.num_edges == 0
    assert graph.num_nodes == 1


def test_traversal_helpers():
    graph = PowerGraph()
    a, b, c = make_node(graph), make_node(graph), make_node(graph)
    graph.add_edge(PowerGraphEdge(a.node_id, b.node_id))
    graph.add_edge(PowerGraphEdge(a.node_id, c.node_id))
    assert set(graph.successors(a.node_id)) == {b.node_id, c.node_id}
    assert graph.predecessors(b.node_id) == [a.node_id]
    assert len(graph.out_edges(a.node_id)) == 2
    assert len(graph.in_edges(c.node_id)) == 1
    arithmetic_nodes = graph.nodes_where(lambda n: n.is_arithmetic)
    assert len(arithmetic_nodes) == 3


def test_duplicate_node_id_rejected():
    graph = PowerGraph()
    node = make_node(graph)
    with pytest.raises(ValueError):
        graph.add_node(node)


# ------------------------------------------------------ scan-based oracle


class ScanPowerGraph:
    """The power graph without an adjacency index: every query scans the edges.

    This is the reference the indexed :class:`PowerGraph` must agree with.
    """

    def __init__(self) -> None:
        self.nodes: dict[int, PowerGraphNode] = {}
        self.edges: dict[tuple[int, int], PowerGraphEdge] = {}

    def add_node(self, node: PowerGraphNode) -> PowerGraphNode:
        if node.node_id in self.nodes:
            raise ValueError(f"node {node.node_id} already exists")
        self.nodes[node.node_id] = node
        return node

    def add_edge(self, edge: PowerGraphEdge) -> PowerGraphEdge:
        if edge.src not in self.nodes or edge.dst not in self.nodes:
            raise KeyError(f"edge ({edge.src}, {edge.dst}) references a missing node")
        if edge.src == edge.dst:
            return self.edges.get((edge.src, edge.dst), edge)
        key = (edge.src, edge.dst)
        existing = self.edges.get(key)
        if existing is None:
            self.edges[key] = edge
            return edge
        existing.absorb(edge)
        return existing

    def remove_node(self, node_id: int) -> None:
        if node_id not in self.nodes:
            raise KeyError(f"no node {node_id}")
        del self.nodes[node_id]
        self.edges = {
            key: edge
            for key, edge in self.edges.items()
            if edge.src != node_id and edge.dst != node_id
        }

    def merge_nodes(self, keep_id: int, remove_id: int) -> None:
        if keep_id == remove_id:
            return
        keep = self.nodes[keep_id]
        remove = self.nodes[remove_id]
        keep.absorb(remove)
        redirected: list[PowerGraphEdge] = []
        for (src, dst), edge in list(self.edges.items()):
            if src != remove_id and dst != remove_id:
                continue
            del self.edges[(src, dst)]
            new_src = keep_id if src == remove_id else src
            new_dst = keep_id if dst == remove_id else dst
            if new_src == new_dst:
                continue
            redirected.append(
                PowerGraphEdge(
                    src=new_src,
                    dst=new_dst,
                    src_stats=edge.src_stats,
                    snk_stats=edge.snk_stats,
                    bitwidth=edge.bitwidth,
                    merged_count=edge.merged_count,
                )
            )
        del self.nodes[remove_id]
        for edge in redirected:
            self.add_edge(edge)

    def predecessors(self, node_id: int) -> list[int]:
        return [src for (src, dst) in self.edges if dst == node_id]

    def successors(self, node_id: int) -> list[int]:
        return [dst for (src, dst) in self.edges if src == node_id]

    def in_edges(self, node_id: int) -> list[PowerGraphEdge]:
        return [edge for edge in self.edges.values() if edge.dst == node_id]

    def out_edges(self, node_id: int) -> list[PowerGraphEdge]:
        return [edge for edge in self.edges.values() if edge.src == node_id]


def _node_state(node: PowerGraphNode) -> tuple:
    return (
        node.result_stats,
        node.input_stats,
        node.bitwidth,
        node.buffer_bits,
        node.merged_count,
    )


def _edge_state(edge: PowerGraphEdge) -> tuple:
    return (edge.src, edge.dst, edge.src_stats, edge.snk_stats, edge.bitwidth, edge.merged_count)


def assert_matches_oracle(graph: PowerGraph, oracle: ScanPowerGraph) -> None:
    assert list(graph.nodes) == list(oracle.nodes)
    assert set(graph.edges) == set(oracle.edges)
    for node_id, node in graph.nodes.items():
        assert _node_state(node) == _node_state(oracle.nodes[node_id])
        assert set(graph.predecessors(node_id)) == set(oracle.predecessors(node_id))
        assert set(graph.successors(node_id)) == set(oracle.successors(node_id))
        assert sorted(map(_edge_state, graph.in_edges(node_id))) == sorted(
            map(_edge_state, oracle.in_edges(node_id))
        )
        assert sorted(map(_edge_state, graph.out_edges(node_id))) == sorted(
            map(_edge_state, oracle.out_edges(node_id))
        )
    for key, edge in graph.edges.items():
        assert _edge_state(edge) == _edge_state(oracle.edges[key])


def assert_index_consistent(graph: PowerGraph) -> None:
    """The adjacency maps hold exactly the edges of ``graph.edges``."""
    assert set(graph._succ) == set(graph.nodes) == set(graph._pred)
    assert sum(map(len, graph._succ.values())) == len(graph.edges)
    assert sum(map(len, graph._pred.values())) == len(graph.edges)
    for (src, dst), edge in graph.edges.items():
        assert (edge.src, edge.dst) == (src, dst)
        assert graph._succ[src][dst] is edge
        assert graph._pred[dst][src] is edge


_stats = st.builds(
    ValueStreamStats,
    bit_width=st.integers(0, 64),
    exec_count=st.integers(0, 50),
    change_count=st.integers(0, 50),
    hamming_sum=st.integers(0, 500),
)
_operation = st.one_of(
    st.tuples(st.just("add_node"), st.integers(1, 64), _stats, _stats),
    st.tuples(
        st.just("add_edge"), st.integers(0, 15), st.integers(0, 15), _stats, _stats, st.integers(0, 64)
    ),
    st.tuples(st.just("remove_node"), st.integers(0, 15)),
    st.tuples(st.just("merge_nodes"), st.integers(0, 15), st.integers(0, 15)),
)


_S = ValueStreamStats(8, 3, 2, 5)
_NODES = [("add_node", 8, _S, _S)] * 3


@settings(max_examples=300, deadline=None)
@given(st.lists(_operation, min_size=1, max_size=60))
# A node with edges in and out is removed, then merged into a neighbour.
@example(
    _NODES
    + [("add_edge", 0, 1, _S, _S, 8), ("add_edge", 1, 2, _S, _S, 8)]
    + [("remove_node", 1), ("add_edge", 0, 1, _S, _S, 4), ("merge_nodes", 1, 0)]
)
# Parallel edges and a self-loop, then adjacent nodes with a shared neighbour merge.
@example(
    _NODES
    + [("add_edge", 0, 1, _S, _S, 8)] * 2
    + [("add_edge", 2, 2, _S, _S, 8), ("add_edge", 2, 1, _S, _S, 8), ("add_edge", 1, 0, _S, _S, 8)]
    + [("merge_nodes", 0, 1), ("merge_nodes", 2, 0)]
)
def test_adjacency_index_matches_scan_oracle(operations):
    graph, oracle = PowerGraph(), ScanPowerGraph()
    next_id = 0
    for operation in operations:
        kind, *args = operation
        ids = list(graph.nodes)
        if kind == "add_node":
            bits, result, inputs = args
            for target in (graph, oracle):
                target.add_node(
                    PowerGraphNode(
                        node_id=next_id,
                        kind="op",
                        opcode="fadd",
                        category="float_arith",
                        is_arithmetic=True,
                        bitwidth=bits,
                        result_stats=result,
                        input_stats=inputs,
                    )
                )
            next_id += 1
        elif not ids:
            continue
        elif kind == "add_edge":
            # One pick in len(ids) + 1 names a missing node (a KeyError).
            src, dst, src_stats, snk_stats, bits = args
            src %= len(ids) + 1
            src = ids[src] if src < len(ids) else next_id
            dst = ids[dst % len(ids)]  # sometimes src == dst: a self-loop
            for target in (graph, oracle):
                edge = PowerGraphEdge(src, dst, src_stats, snk_stats, bits)
                if src not in target.nodes:
                    with pytest.raises(KeyError):
                        target.add_edge(edge)
                else:
                    target.add_edge(edge)
        elif kind == "remove_node":
            node_id = ids[args[0] % len(ids)]
            graph.remove_node(node_id)
            oracle.remove_node(node_id)
        else:
            # Either end may be a neighbour of the other, or the same node.
            keep, remove = ids[args[0] % len(ids)], ids[args[1] % len(ids)]
            graph.merge_nodes(keep, remove)
            oracle.merge_nodes(keep, remove)
        assert_index_consistent(graph)
        assert_matches_oracle(graph, oracle)


def test_copy_shares_no_node_or_edge_object():
    graph = PowerGraph()
    a, b, c = make_node(graph), make_node(graph), make_node(graph)
    graph.add_edge(PowerGraphEdge(a.node_id, b.node_id, src_stats=stats_with(3)))
    graph.add_edge(PowerGraphEdge(b.node_id, c.node_id, src_stats=stats_with(5)))
    clone = graph.copy()
    assert_index_consistent(clone)
    node_objects = {id(node) for node in graph.nodes.values()}
    edge_objects = {id(edge) for edge in graph.edges.values()}
    assert not node_objects & {id(node) for node in clone.nodes.values()}
    assert not edge_objects & {id(edge) for edge in clone.edges.values()}
    assert list(clone.nodes) == list(graph.nodes)
    assert {k: _edge_state(e) for k, e in clone.edges.items()} == {
        k: _edge_state(e) for k, e in graph.edges.items()
    }
    # Mutating the copy leaves the source as it was.
    clone.merge_nodes(a.node_id, c.node_id)
    clone.nodes[b.node_id].partition_factor = 4
    assert graph.num_nodes == 3 and graph.num_edges == 2
    assert graph.nodes[a.node_id].merged_count == 1
    assert graph.nodes[b.node_id].partition_factor == 1
    assert graph.edges[(a.node_id, b.node_id)].src_stats.hamming_sum == 3
    assert clone.new_node_id() == graph.new_node_id()
