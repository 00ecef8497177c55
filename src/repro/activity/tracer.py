"""Online accumulation of value-stream statistics during IR execution.

Equation (2) of the paper defines the switching activity of an edge direction
as the accumulated Hamming distance between consecutive values crossing the
edge, normalised by the design latency; Eq. (3) defines the activation rate as
the number of value-changing cycles over the latency.  Instead of storing full
value traces, :class:`ActivityTracer` keeps, for every static instruction,

* the statistics of its *result* stream (the values it produces — the ``src``
  direction of all its outgoing DFG edges), and
* the statistics of each *operand slot* stream (the values it consumes — the
  ``snk`` direction of the corresponding incoming edge),

updating Hamming sums and change counts online.  Normalisation by the latency
``L`` is deferred to :class:`~repro.activity.simulator.ActivityProfile`, which
lets one simulation be reused across design points that share the same IR but
have different schedules (e.g. pipelined vs not).

The tracer, attached to :class:`~repro.ir.interpreter.IRInterpreter`, is the
reference the compiled simulator (:mod:`repro.activity.compiled`) is tested
against; production featurisation does not run it.
:class:`ValueStreamStats` is shared by both: it is what profile accessors
return.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir.bitpack import hamming_distance, to_bits
from repro.ir.instructions import Instruction
from repro.ir.types import VoidType


@dataclass(slots=True)
class ValueStreamStats:
    """Streaming statistics of one sequence of values (a ``src`` or ``snk`` stream)."""

    bit_width: int
    exec_count: int = 0
    change_count: int = 0
    hamming_sum: int = 0
    #: Scratch state of :meth:`observe`, not part of the statistics.
    _last_bits: int | None = field(default=None, repr=False, compare=False)

    def observe(self, bits: int) -> None:
        """Account for one more value in the stream."""
        self.exec_count += 1
        if self._last_bits is None:
            self._last_bits = bits
            return
        if bits != self._last_bits:
            self.change_count += 1
            self.hamming_sum += hamming_distance(bits, self._last_bits)
            self._last_bits = bits

    def switching_activity(self, latency: int) -> float:
        """Eq. (2): accumulated Hamming distance per cycle of design latency."""
        if latency <= 0:
            raise ValueError("latency must be positive")
        return self.hamming_sum / latency

    def activation_rate(self, latency: int) -> float:
        """Eq. (3): value-changing executions per cycle of design latency."""
        if latency <= 0:
            raise ValueError("latency must be positive")
        return self.change_count / latency

    def merged_with(self, other: "ValueStreamStats") -> "ValueStreamStats":
        """Combine two streams (used when datapath merging fuses DFG nodes)."""
        return ValueStreamStats(
            bit_width=max(self.bit_width, other.bit_width),
            exec_count=self.exec_count + other.exec_count,
            change_count=self.change_count + other.change_count,
            hamming_sum=self.hamming_sum + other.hamming_sum,
        )


@dataclass(frozen=True)
class EdgeActivity:
    """The four edge features of the power graph (Section III-A)."""

    sa_src: float
    sa_snk: float
    ar_src: float
    ar_snk: float

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.sa_src, self.sa_snk, self.ar_src, self.ar_snk)


class ActivityTracer:
    """Execution observer that accumulates per-instruction stream statistics."""

    def __init__(self) -> None:
        self.result_streams: dict[int, ValueStreamStats] = {}
        self.operand_streams: dict[tuple[int, int], ValueStreamStats] = {}
        self.observed_instructions = 0

    # -- ExecutionObserver interface ------------------------------------------

    def on_execute(self, instruction: Instruction, operand_values, result_value) -> None:
        self.observed_instructions += 1
        for slot, (operand, value) in enumerate(zip(instruction.operands, operand_values)):
            ty = operand.type
            if isinstance(ty, VoidType):
                continue
            key = (instruction.uid, slot)
            stats = self.operand_streams.get(key)
            if stats is None:
                stats = ValueStreamStats(bit_width=ty.bit_width)
                self.operand_streams[key] = stats
            stats.observe(to_bits(value, ty))

        if result_value is not None and instruction.has_result:
            stats = self.result_streams.get(instruction.uid)
            if stats is None:
                stats = ValueStreamStats(bit_width=instruction.type.bit_width)
                self.result_streams[instruction.uid] = stats
            stats.observe(to_bits(result_value, instruction.type))

    # -- accessors --------------------------------------------------------------

    def result_stats(self, uid: int) -> ValueStreamStats:
        return self.result_streams.get(uid, ValueStreamStats(bit_width=0))

    def operand_stats(self, uid: int, slot: int) -> ValueStreamStats:
        return self.operand_streams.get((uid, slot), ValueStreamStats(bit_width=0))

    def edge_activity(
        self, src_uid: int, dst_uid: int, operand_slot: int, latency: int
    ) -> EdgeActivity:
        """Edge features for the def-use edge ``src -> dst`` at ``operand_slot``."""
        src = self.result_stats(src_uid)
        snk = self.operand_stats(dst_uid, operand_slot)
        return EdgeActivity(
            sa_src=src.switching_activity(latency),
            sa_snk=snk.switching_activity(latency),
            ar_src=src.activation_rate(latency),
            ar_snk=snk.activation_rate(latency),
        )
