"""Activity simulation: run a lowered design on a stimulus and collect statistics.

``simulate_activity`` is the reproduction of the paper's probe-instrumented
co-simulation step: it runs the design's IR on the generated testbench inputs
through the compiled simulator (:mod:`repro.activity.compiled`) and stores the
statistics of every value stream in a columnar :class:`ActivityProfile`.

Because the raw statistics (Hamming sums and change counts) depend only on the
IR and the stimulus — not on the schedule — a profile computed once for a
given ``(kernel, unroll configuration, stimulus)`` can be reused across every
design point that shares that IR, with per-design normalisation by the
design's latency.  The dataset generator exploits this to keep full
design-space sweeps fast.
"""

from __future__ import annotations

import copy
from array import array

import numpy as np

from repro.activity.compiled import simulate_function
from repro.activity.stimuli import StimulusGenerator
from repro.activity.tracer import EdgeActivity, ValueStreamStats
from repro.hls.frontend import LoweredDesign
from repro.ir.module import Function, walk_instructions


class ActivityProfile:
    """Per-instruction value-stream statistics of one simulated design.

    Stored by column: one row per stream in four flat integer arrays
    (``bit_width``, ``exec_count``, ``change_count``, ``hamming_sum``), result
    streams first, then operand streams, each in tracer order.  Rows are
    indexed by the instruction's position in program order, so the statistics
    describe any lowering of the same design; :meth:`for_function` binds them
    to the uids of another lowering.  Accessors build :class:`ValueStreamStats`
    on demand, so a profile retains a few bytes per stream rather than an
    object per stream.
    """

    __slots__ = (
        "kernel_name",
        "dynamic_instructions",
        "_num_results",
        "_stride",
        "_rows",
        "_bit_width",
        "_exec_count",
        "_change_count",
        "_hamming_sum",
        "_base",
        "_positions",
    )

    def __init__(
        self,
        kernel_name: str,
        dynamic_instructions: int,
        instruction_uids: list[int],
        result_uids: list[int],
        operand_keys: list[tuple[int, int]],
        rows: list[tuple[int, int, int, int]],
    ) -> None:
        keys = [(uid, -1) for uid in result_uids] + list(operand_keys)
        if len(keys) != len(rows):
            raise ValueError("one row per stream key is required")
        self.kernel_name = kernel_name
        self.dynamic_instructions = dynamic_instructions
        self._num_results = len(result_uids)
        self._bind(instruction_uids)
        # ``_rows[position * stride + slot + 1]`` is the row of a stream; slot
        # -1 is the instruction's result.
        self._stride = max((slot for _, slot in keys), default=-1) + 2
        self._rows = array("i", [-1]) * (len(instruction_uids) * self._stride)
        for row, (uid, slot) in enumerate(keys):
            position = self._position(uid)
            if position < 0 or slot < -1:
                raise ValueError(f"stream key {(uid, slot)} is not an instruction's result or operand")
            self._rows[position * self._stride + slot + 1] = row
        columns = list(zip(*rows)) or [(), (), (), ()]
        self._bit_width = _int_column(columns[0])
        self._exec_count = _int_column(columns[1])
        self._change_count = _int_column(columns[2])
        self._hamming_sum = _int_column(columns[3])

    @classmethod
    def from_streams(
        cls,
        kernel_name: str,
        dynamic_instructions: int,
        instruction_uids: list[int],
        result_streams: dict[int, ValueStreamStats],
        operand_streams: dict[tuple[int, int], ValueStreamStats],
    ) -> "ActivityProfile":
        """Profile of per-stream statistics, e.g. an :class:`ActivityTracer`'s."""
        rows = [
            (s.bit_width, s.exec_count, s.change_count, s.hamming_sum)
            for s in (*result_streams.values(), *operand_streams.values())
        ]
        return cls(
            kernel_name,
            dynamic_instructions,
            instruction_uids,
            list(result_streams),
            list(operand_streams),
            rows,
        )

    def for_function(self, function: Function) -> "ActivityProfile":
        """These statistics looked up by the uids of ``function``.

        ``function`` must be a lowering of the simulated design (same
        instructions in the same order), such as a later re-lowering of it.
        Returns ``self`` when ``function`` is the simulated function itself.
        """
        first = next(walk_instructions(function.body), None)
        if first is not None and self._position(first.uid) == 0:
            return self
        instructions = function.instructions
        if len(instructions) * self._stride != len(self._rows):
            raise ValueError("function does not match the simulated design")
        bound = copy.copy(self)
        bound._bind([instr.uid for instr in instructions])
        return bound

    def _bind(self, instruction_uids: list[int]) -> None:
        self._base = min(instruction_uids, default=0)
        self._positions = array("i", [-1]) * (max(instruction_uids, default=-1) - self._base + 1)
        for position, uid in enumerate(instruction_uids):
            self._positions[uid - self._base] = position

    def _position(self, uid: int) -> int:
        offset = uid - self._base
        return self._positions[offset] if 0 <= offset < len(self._positions) else -1

    # -- per-stream accessors ---------------------------------------------------

    def _stats(self, uid: int, slot: int) -> ValueStreamStats:
        position = self._position(uid)
        if position >= 0 and -1 <= slot < self._stride - 1:
            row = self._rows[position * self._stride + slot + 1]
            if row >= 0:
                return ValueStreamStats(
                    self._bit_width[row],
                    self._exec_count[row],
                    self._change_count[row],
                    self._hamming_sum[row],
                )
        return ValueStreamStats(bit_width=0)

    def result_stats(self, uid: int) -> ValueStreamStats:
        return self._stats(uid, -1)

    def operand_stats(self, uid: int, slot: int) -> ValueStreamStats:
        return self._stats(uid, slot)

    def result_streams(self) -> dict[int, ValueStreamStats]:
        """Every result stream by instruction uid, in tracer order."""
        return {uid: stats for (uid, _), stats in self._streams()[: self._num_results]}

    def operand_streams(self) -> dict[tuple[int, int], ValueStreamStats]:
        """Every operand stream by ``(uid, slot)``, in tracer order."""
        return dict(self._streams()[self._num_results :])

    def _streams(self) -> list[tuple[tuple[int, int], ValueStreamStats]]:
        uids = {p: self._base + offset for offset, p in enumerate(self._positions) if p >= 0}
        keys = [None] * len(self._exec_count)
        for index, row in enumerate(self._rows):
            if row >= 0:
                position, column = divmod(index, self._stride)
                keys[row] = (uids[position], column - 1)
        return [(key, self._stats(*key)) for key in keys]

    def edge_activity(
        self, src_uid: int, dst_uid: int, operand_slot: int, latency: int
    ) -> EdgeActivity:
        src = self.result_stats(src_uid)
        snk = self.operand_stats(dst_uid, operand_slot)
        return EdgeActivity(
            sa_src=src.switching_activity(latency),
            sa_snk=snk.switching_activity(latency),
            ar_src=src.activation_rate(latency),
            ar_snk=snk.activation_rate(latency),
        )

    def node_activity(self, uid: int, operand_slots: int, latency: int) -> dict[str, float]:
        """Numeric node features: activation rate plus input/output/overall switching."""
        out = self.result_stats(uid)
        input_sa = 0.0
        for slot in range(operand_slots):
            input_sa += self.operand_stats(uid, slot).switching_activity(latency)
        output_sa = out.switching_activity(latency)
        return {
            "activation_rate": out.activation_rate(latency),
            "input_switching": input_sa,
            "output_switching": output_sa,
            "overall_switching": input_sa + output_sa,
        }

    # -- aggregates used by the power substrate ---------------------------------

    def total_hamming(self) -> int:
        """Total Hamming activity across all produced values (a proxy for design toggling)."""
        return sum(self._hamming_sum[: self._num_results])

    def average_toggle_rate(self, latency: int) -> float:
        """Average per-cycle, per-stream toggling, used by the Vivado-like estimator."""
        if not self._num_results:
            return 0.0
        if latency <= 0:
            raise ValueError("latency must be positive")
        hamming = np.frombuffer(self._hamming_sum, dtype=self._hamming_sum.typecode)[: self._num_results]
        return float(np.mean(hamming / latency))


def _int_column(values) -> array:
    """A flat integer column: 32-bit unless a value needs 64."""
    try:
        return array("i", values)
    except OverflowError:
        return array("q", values)


def simulate_activity(
    design: LoweredDesign,
    stimuli: dict[str, np.ndarray] | None = None,
    seed: int = 0,
    profile: str = "uniform",
) -> ActivityProfile:
    """Execute ``design`` on a testbench stimulus and return its activity profile."""
    if stimuli is None:
        stimuli = StimulusGenerator(seed=seed, profile=profile).for_kernel(design.kernel)
    streams = simulate_function(design.function, stimuli)
    return ActivityProfile(
        design.kernel.name,
        streams.dynamic_instructions,
        streams.instruction_uids,
        streams.result_uids,
        streams.operand_keys,
        streams.rows,
    )
