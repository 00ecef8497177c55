"""Graph construction flow (Section III-A of the paper).

``GraphConstructor`` turns one HLS result plus its activity profile into a
heterogeneous power graph in four steps:

1. **Initial DFG** — one node per IR instruction (except ``ret``), one edge per
   def-use relation, annotated with the value-stream statistics gathered by the
   activity simulator.
2. **Buffer insertion** — memory buffers (array arguments and ``alloca`` s) are
   materialised as buffer nodes; loads are fed from their buffer, stores feed
   into it, address-generation nodes (``getelementptr`` / ``alloca``) are
   removed and their index-producing operands are reconnected to the buffer
   (the address bus).  Buffer nodes carry memory resource utilisation.
3. **Datapath merging** — nodes bound to the same functional unit by the HLS
   binder are fused (resource sharing across FSM states), and identical
   load/store chains between the same endpoints are fused, with activity
   statistics accumulated.
4. **Graph trimming** — trivial cast nodes (``sext`` / ``zext`` / ``trunc`` /
   ``bitcast``) are bypassed so the model focuses on arithmetic-intensive
   datapaths.

Feature annotation is delegated to :class:`~repro.graph.features.FeatureEncoder`.
Every pass can be disabled through :class:`GraphConstructionConfig`, which the
ablation benchmarks use to quantify the contribution of the construction flow.

Steps 1 and 2 depend only on the lowered function and its activity profile,
which every design point of one unroll configuration shares; the one
per-design attribute they produce is the partition factor of each buffer
node.  They therefore build a *base graph* once per ``(function, profile)``
pair.  :meth:`GraphConstructor.build` takes an optional ``bases`` mapping that
the caller keeps for one featurisation call (the dataset generator makes a
new one per call, next to its lowered-IR cache, so no base outlives a call):
each design copies its base, sets the partition factors from its own
directives, then runs merging, trimming and feature annotation on the copy,
because those passes read the design's schedule and binding.  Without a
mapping every build makes its own base.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.activity.simulator import ActivityProfile
from repro.activity.tracer import ValueStreamStats
from repro.graph.features import FeatureEncoder
from repro.graph.hetero_graph import HeteroGraph
from repro.graph.power_graph import PowerGraph, PowerGraphEdge, PowerGraphNode
from repro.hls.report import HLSReport, HLSResult
from repro.ir.instructions import Instruction, Opcode, TRIVIAL_OPCODES
from repro.ir.module import Function
from repro.ir.types import ArrayType, PointerType
from repro.ir.validation import pointer_roots


@dataclass(frozen=True)
class GraphConstructionConfig:
    """Switches for the four optimisation strategies."""

    buffer_insertion: bool = True
    datapath_merging: bool = True
    trimming: bool = True
    edge_features: bool = True

    @staticmethod
    def raw() -> "GraphConstructionConfig":
        """The unoptimised configuration (raw DFG, no edge activity features)."""
        return GraphConstructionConfig(
            buffer_insertion=False,
            datapath_merging=False,
            trimming=False,
            edge_features=False,
        )


@dataclass
class _BaseGraph:
    """Initial DFG plus buffer insertion of one ``(function, profile)`` pair.

    Holds the function and profile it was built from, so that their ids,
    which key it in a ``bases`` mapping, stay unique while it is there.
    """

    function: Function
    profile: ActivityProfile
    graph: PowerGraph
    #: Instruction uid -> node id (address nodes included, though removed).
    uid_to_node: dict[int, int]
    #: Buffer name -> buffer node id; the partition factors are per design.
    buffer_nodes: dict[str, int]


class GraphConstructor:
    """Builds heterogeneous power graphs from HLS results."""

    def __init__(
        self,
        config: GraphConstructionConfig | None = None,
        encoder: FeatureEncoder | None = None,
    ) -> None:
        self.config = config or GraphConstructionConfig()
        self.encoder = encoder or FeatureEncoder()

    # ------------------------------------------------------------------ public

    def build_power_graph(
        self,
        hls_result: HLSResult,
        profile: ActivityProfile,
        bases: dict | None = None,
    ) -> PowerGraph:
        """Run the construction passes and return the mutable power graph.

        ``bases`` maps ``(id(function), id(profile))`` to the base graph of
        that pair; a missing base is built and added.  Keep one mapping per
        constructor and per featurisation call.
        """
        function = hls_result.design.function
        key = (id(function), id(profile))
        base = bases.get(key) if bases is not None else None
        if base is None:
            base = self._base_graph(function, profile)
            if bases is not None:
                bases[key] = base
        graph = base.graph.copy()
        partitions = hls_result.design.array_partitions
        for name, node_id in base.buffer_nodes.items():
            partition = partitions.get(name)
            graph.nodes[node_id].partition_factor = partition.factor if partition else 1
        if self.config.datapath_merging:
            self._merge_datapaths(graph, hls_result, base.uid_to_node)
        if self.config.trimming:
            self._trim(graph)
        return graph

    def build(
        self,
        hls_result: HLSResult,
        profile: ActivityProfile,
        baseline_report: HLSReport | None = None,
        bases: dict | None = None,
    ) -> HeteroGraph:
        """Full flow: construction passes plus feature annotation.

        ``bases`` is as for :meth:`build_power_graph`.
        """
        graph = self.build_power_graph(hls_result, profile, bases)
        return self.encoder.encode(
            graph,
            hls_result.report,
            baseline_report=baseline_report,
            use_edge_features=self.config.edge_features,
        )

    # ------------------------------------------------------------ base graph

    def _base_graph(self, function: Function, profile: ActivityProfile) -> _BaseGraph:
        instructions = [instr for instr in function.instructions if instr.opcode != Opcode.RET]
        roots = pointer_roots(function)
        graph, load_store_buffers, uid_to_node = self._initial_graph(
            instructions, roots, profile
        )
        buffer_nodes: dict[str, int] = {}
        if self.config.buffer_insertion:
            buffer_nodes = self._insert_buffers(
                graph, function, instructions, roots, load_store_buffers, uid_to_node
            )
        return _BaseGraph(function, profile, graph, uid_to_node, buffer_nodes)

    # -------------------------------------------------------------- pass 1: DFG

    @staticmethod
    def _initial_graph(
        instructions: list[Instruction], roots: dict, profile: ActivityProfile
    ) -> tuple[PowerGraph, dict[int, str], dict[int, int]]:
        graph = PowerGraph()
        uid_to_node: dict[int, int] = {}
        load_store_buffers: dict[int, str] = {}
        result_stats: dict[int, ValueStreamStats] = {}
        operand_stats: dict[int, list[ValueStreamStats]] = {}

        for node_id, instr in enumerate(instructions):
            uid = instr.uid
            uid_to_node[uid] = node_id
            result = result_stats[uid] = profile.result_stats(uid)
            operands = operand_stats[uid] = [
                profile.operand_stats(uid, slot) for slot in range(len(instr.operands))
            ]
            graph.add_node(
                PowerGraphNode(
                    node_id=node_id,
                    kind="op",
                    opcode=instr.opcode.value,
                    category=instr.category.value,
                    is_arithmetic=instr.is_arithmetic,
                    bitwidth=instr.type.bit_width if instr.has_result else 32,
                    result_stats=result,
                    input_stats=ValueStreamStats(
                        max([0, *(stats.bit_width for stats in operands)]),
                        sum(stats.exec_count for stats in operands),
                        sum(stats.change_count for stats in operands),
                        sum(stats.hamming_sum for stats in operands),
                    ),
                    name=instr.name,
                )
            )
            if instr.opcode in (Opcode.LOAD, Opcode.STORE):
                pointer = (
                    instr.operands[0] if instr.opcode == Opcode.LOAD else instr.operands[1]
                )
                root = roots.get(pointer.uid)
                if root is not None:
                    load_store_buffers[node_id] = root.name

        for instr in instructions:
            dst_id = uid_to_node[instr.uid]
            for slot, operand in enumerate(instr.operands):
                if isinstance(operand, Instruction) and operand.uid in uid_to_node:
                    graph.add_edge(
                        PowerGraphEdge(
                            src=uid_to_node[operand.uid],
                            dst=dst_id,
                            src_stats=result_stats[operand.uid],
                            snk_stats=operand_stats[instr.uid][slot],
                            bitwidth=operand.type.bit_width,
                        )
                    )

        return graph, load_store_buffers, uid_to_node

    # ------------------------------------------------------- pass 2: buffers

    @staticmethod
    def _insert_buffers(
        graph: PowerGraph,
        function: Function,
        instructions: list[Instruction],
        roots: dict,
        load_store_buffers: dict[int, str],
        uid_to_node: dict[int, int],
    ) -> dict[str, int]:
        """Insert the buffer nodes; returns them by buffer name."""
        buffer_nodes: dict[str, int] = {}

        def buffer_node_for(name: str, kind: str, bits: int) -> int:
            if name in buffer_nodes:
                return buffer_nodes[name]
            node_id = graph.new_node_id()
            graph.add_node(
                PowerGraphNode(
                    node_id=node_id,
                    kind="buffer",
                    opcode="buffer",
                    category="buffer",
                    is_arithmetic=False,
                    bitwidth=32,
                    buffer_name=name,
                    buffer_kind=kind,
                    buffer_bits=bits,
                    name=f"buf_{name}",
                )
            )
            buffer_nodes[name] = node_id
            return node_id

        # I/O buffers from array arguments.
        for arg in function.args:
            ty = arg.type
            if isinstance(ty, PointerType) and isinstance(ty.pointee, ArrayType):
                array_ty = ty.pointee
                buffer_node_for(
                    arg.name, "io", array_ty.num_elements * array_ty.element.bit_width
                )

        # Internal buffers from allocas.
        for instr in instructions:
            if instr.opcode == Opcode.ALLOCA:
                allocated = instr.attrs["allocated_type"]
                if isinstance(allocated, ArrayType):
                    bits = allocated.num_elements * allocated.element.bit_width
                else:
                    bits = allocated.bit_width
                buffer_node_for(instr.name, "internal", bits)

        # Connect loads and stores to their buffers.
        for node_id, buffer_name in load_store_buffers.items():
            node = graph.nodes[node_id]
            buffer_id = buffer_node_for(buffer_name, "io", 0)
            if node.opcode == Opcode.LOAD.value:
                graph.add_edge(
                    PowerGraphEdge(
                        src=buffer_id,
                        dst=node_id,
                        src_stats=node.result_stats,
                        snk_stats=node.result_stats,
                        bitwidth=node.bitwidth,
                    )
                )
            else:  # store
                graph.add_edge(
                    PowerGraphEdge(
                        src=node_id,
                        dst=buffer_id,
                        src_stats=node.input_stats,
                        snk_stats=node.input_stats,
                        bitwidth=node.bitwidth,
                    )
                )

        # Remove address-generation nodes, reconnecting index producers to the
        # buffer they address (the address bus toggling still matters).
        for instr in instructions:
            if instr.opcode not in (Opcode.GETELEMENTPTR, Opcode.ALLOCA):
                continue
            node_id = uid_to_node[instr.uid]
            if instr.opcode == Opcode.GETELEMENTPTR:
                root = roots.get(instr.uid)
                buffer_id = buffer_nodes.get(root.name) if root is not None else None
                if buffer_id is not None:
                    for edge in graph.in_edges(node_id):
                        graph.add_edge(
                            PowerGraphEdge(
                                src=edge.src,
                                dst=buffer_id,
                                src_stats=edge.src_stats,
                                snk_stats=edge.snk_stats,
                                bitwidth=edge.bitwidth,
                            )
                        )
            graph.remove_node(node_id)
        return buffer_nodes

    # ------------------------------------------------------ pass 3: merging

    @staticmethod
    def _merge_datapaths(
        graph: PowerGraph, hls_result: HLSResult, uid_to_node: dict[int, int]
    ) -> None:
        # (a) Merge operations bound to the same functional unit.
        for unit in hls_result.binding.units:
            member_nodes = [
                uid_to_node[uid]
                for uid in unit.instruction_uids
                if uid in uid_to_node and uid_to_node[uid] in graph.nodes
            ]
            if len(member_nodes) < 2:
                continue
            keep = member_nodes[0]
            for other in member_nodes[1:]:
                graph.merge_nodes(keep, other)

        # (b) Merge identical chains: same opcode, same buffer, same neighbours.
        signature_groups: dict[tuple, list[int]] = {}
        for node_id, node in graph.nodes.items():
            if node.kind != "op":
                continue
            signature = (
                node.opcode,
                node.buffer_name,
                frozenset(graph.predecessors(node_id)),
                frozenset(graph.successors(node_id)),
            )
            signature_groups.setdefault(signature, []).append(node_id)
        for members in signature_groups.values():
            if len(members) < 2:
                continue
            keep = members[0]
            for other in members[1:]:
                if other in graph.nodes and keep in graph.nodes:
                    graph.merge_nodes(keep, other)

    # ----------------------------------------------------- pass 4: trimming

    @staticmethod
    def _trim(graph: PowerGraph) -> None:
        trivial_names = {opcode.value for opcode in TRIVIAL_OPCODES}
        for node_id, node in list(graph.nodes.items()):
            if node.kind != "op" or node.opcode not in trivial_names:
                continue
            in_edges = graph.in_edges(node_id)
            out_edges = graph.out_edges(node_id)
            for incoming in in_edges:
                for outgoing in out_edges:
                    if incoming.src == outgoing.dst:
                        continue
                    graph.add_edge(
                        PowerGraphEdge(
                            src=incoming.src,
                            dst=outgoing.dst,
                            src_stats=incoming.src_stats,
                            snk_stats=outgoing.snk_stats,
                            bitwidth=max(incoming.bitwidth, outgoing.bitwidth),
                        )
                    )
            graph.remove_node(node_id)


def build_power_graph(
    hls_result: HLSResult,
    profile: ActivityProfile,
    config: GraphConstructionConfig | None = None,
) -> PowerGraph:
    """Convenience wrapper: run the construction passes only."""
    return GraphConstructor(config).build_power_graph(hls_result, profile)
