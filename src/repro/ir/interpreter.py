"""Interpreter for the structured HLS IR.

The interpreter executes a kernel function on a testbench stimulus and
notifies registered observers of every dynamic instruction execution (operand
values consumed and result value produced).  With the activity tracer
(:mod:`repro.activity.tracer`) attached it computes the per-instruction
Hamming-distance statistics Eq. (2)/(3) need, one dynamic instruction at a
time.  It defines the IR's execution semantics and is the test oracle of the
compiled activity simulator (:mod:`repro.activity.compiled`), which is what
featurisation runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from repro.ir.instructions import Instruction, Opcode
from repro.ir.module import Function, Item, LoopRegion
from repro.ir.types import ArrayType, FloatType, IntType, PointerType
from repro.ir.validation import pointer_roots
from repro.ir.values import Constant, Value


class ExecutionObserver(Protocol):
    """Callback interface for dynamic execution events."""

    def on_execute(
        self,
        instruction: Instruction,
        operand_values: list[float | int],
        result_value: float | int | None,
    ) -> None:
        """Called after each dynamic execution of ``instruction``."""


@dataclass
class ExecutionTrace:
    """Optional full trace of dynamic instruction executions (used in tests).

    Recording every event is memory hungry for full kernels, so the trace can
    be capped with ``max_events``; production activity tracing uses streaming
    observers instead.
    """

    max_events: int | None = None
    events: list[tuple[str, tuple, float | int | None]] = field(default_factory=list)
    truncated: bool = False

    def on_execute(self, instruction, operand_values, result_value) -> None:
        if self.max_events is not None and len(self.events) >= self.max_events:
            self.truncated = True
            return
        self.events.append((instruction.name, tuple(operand_values), result_value))


@dataclass
class _Memory:
    """Flat storage for one buffer (array argument or alloca)."""

    data: np.ndarray
    element_type: IntType | FloatType


class IRInterpreter:
    """Executes a :class:`~repro.ir.module.Function` on concrete inputs."""

    def __init__(self, function: Function) -> None:
        self.function = function
        self._roots = pointer_roots(function)
        self.observers: list[ExecutionObserver] = []
        self.dynamic_instruction_count = 0

    def add_observer(self, observer: ExecutionObserver) -> None:
        self.observers.append(observer)

    # -------------------------------------------------------------- plumbing

    def _allocate(self, ty: ArrayType | IntType | FloatType) -> _Memory:
        if isinstance(ty, ArrayType):
            elem = ty.element
            size = ty.num_elements
        else:
            elem = ty
            size = 1
        dtype = np.float64 if isinstance(elem, FloatType) else np.int64
        return _Memory(np.zeros(size, dtype=dtype), elem)

    def _bind_arguments(self, inputs: dict[str, np.ndarray | float | int]):
        env: dict[int, float | int] = {}
        memory: dict[int, _Memory] = {}
        for arg in self.function.args:
            ty = arg.type
            if isinstance(ty, PointerType):
                pointee = ty.pointee
                mem = self._allocate(pointee if isinstance(pointee, ArrayType) else pointee)
                if arg.name in inputs:
                    values = np.asarray(inputs[arg.name], dtype=mem.data.dtype).reshape(-1)
                    if values.size != mem.data.size:
                        raise ValueError(
                            f"argument {arg.name!r} expects {mem.data.size} elements, "
                            f"got {values.size}"
                        )
                    mem.data[:] = values
                memory[arg.uid] = mem
                env[arg.uid] = 0  # base offset of the buffer
            else:
                if arg.name not in inputs:
                    raise ValueError(f"missing scalar input for argument {arg.name!r}")
                env[arg.uid] = self._cast_scalar(inputs[arg.name], ty)
        return env, memory

    @staticmethod
    def _cast_scalar(value, ty) -> float | int:
        if isinstance(ty, IntType):
            return int(value)
        return float(np.float32(value)) if getattr(ty, "width", 64) == 32 else float(value)

    def _value_of(self, value: Value, env: dict[int, float | int]) -> float | int:
        if isinstance(value, Constant):
            return value.value
        if value.uid not in env:
            raise KeyError(f"value {value!r} has not been computed yet")
        return env[value.uid]

    # ------------------------------------------------------------- execution

    def run(self, inputs: dict[str, np.ndarray | float | int]) -> dict[str, np.ndarray]:
        """Execute the function and return the final contents of every buffer."""
        env, memory = self._bind_arguments(inputs)
        self.dynamic_instruction_count = 0
        self._exec_body(self.function.body, env, memory)
        outputs: dict[str, np.ndarray] = {}
        for arg in self.function.args:
            if arg.uid in memory:
                mem = memory[arg.uid]
                ty = arg.type.pointee
                shape = ty.shape if isinstance(ty, ArrayType) else (1,)
                outputs[arg.name] = mem.data.reshape(shape).copy()
        return outputs

    def _exec_body(self, body: list[Item], env, memory) -> None:
        for item in body:
            if isinstance(item, LoopRegion):
                for iteration in range(item.trip_count):
                    env[item.indvar.uid] = iteration
                    self._exec_body(item.body, env, memory)
            else:
                self._exec_instruction(item, env, memory)

    def _exec_instruction(self, instr: Instruction, env, memory) -> None:
        opcode = instr.opcode
        operand_values = [self._value_of(op, env) for op in instr.operands]
        result: float | int | None = None

        if opcode == Opcode.ALLOCA:
            allocated = instr.attrs["allocated_type"]
            memory[instr.uid] = self._allocate(allocated)
            result = 0
        elif opcode == Opcode.GETELEMENTPTR:
            result = self._exec_gep(instr, operand_values)
        elif opcode == Opcode.LOAD:
            mem = memory[self._roots[instr.operands[0].uid].uid]
            index = int(operand_values[0])
            raw = mem.data[index]
            result = self._cast_scalar(raw, instr.type)
        elif opcode == Opcode.STORE:
            mem = memory[self._roots[instr.operands[1].uid].uid]
            index = int(operand_values[1])
            mem.data[index] = operand_values[0]
        elif opcode == Opcode.RET:
            result = operand_values[0] if operand_values else None
        else:
            result = self._exec_compute(instr, operand_values)

        if instr.has_result and result is not None:
            env[instr.uid] = result

        self.dynamic_instruction_count += 1
        for observer in self.observers:
            observer.on_execute(instr, operand_values, result)

    def _exec_gep(self, instr: Instruction, operand_values) -> int:
        base_offset = int(operand_values[0])
        indices = [int(v) for v in operand_values[1:]]
        shape = instr.attrs.get("shape", (1,))
        offset = 0
        for dim, index in zip(shape, indices):
            offset = offset * dim + index
        return base_offset + offset

    def _exec_compute(self, instr: Instruction, vals) -> float | int:
        opcode = instr.opcode
        if opcode in (Opcode.FADD, Opcode.ADD):
            result = vals[0] + vals[1]
        elif opcode in (Opcode.FSUB, Opcode.SUB):
            result = vals[0] - vals[1]
        elif opcode in (Opcode.FMUL, Opcode.MUL):
            result = vals[0] * vals[1]
        elif opcode == Opcode.FDIV:
            result = vals[0] / vals[1] if vals[1] != 0 else 0.0
        elif opcode == Opcode.SDIV:
            result = int(vals[0] / vals[1]) if vals[1] != 0 else 0
        elif opcode == Opcode.ICMP:
            result = int(_compare(instr.attrs["predicate"], vals[0], vals[1]))
        elif opcode == Opcode.FCMP:
            result = int(_compare(instr.attrs["predicate"], vals[0], vals[1]))
        elif opcode == Opcode.SELECT:
            result = vals[1] if vals[0] else vals[2]
        elif opcode in (Opcode.SEXT, Opcode.ZEXT, Opcode.TRUNC, Opcode.BITCAST):
            result = self._apply_int_width(vals[0], instr)
        elif opcode == Opcode.SITOFP:
            result = float(vals[0])
        elif opcode == Opcode.FPTOSI:
            result = int(vals[0])
        elif opcode == Opcode.AND:
            result = int(vals[0]) & int(vals[1])
        elif opcode == Opcode.OR:
            result = int(vals[0]) | int(vals[1])
        elif opcode == Opcode.XOR:
            result = int(vals[0]) ^ int(vals[1])
        elif opcode == Opcode.SHL:
            result = int(vals[0]) << int(vals[1])
        elif opcode == Opcode.LSHR:
            result = int(vals[0]) >> int(vals[1])
        elif opcode == Opcode.ASHR:
            result = int(vals[0]) >> int(vals[1])
        else:  # pragma: no cover - defensive
            raise NotImplementedError(f"unsupported opcode {opcode}")

        if isinstance(instr.type, FloatType) and instr.type.width == 32:
            result = float(np.float32(result))
        elif isinstance(instr.type, IntType):
            result = int(result)
        return result

    @staticmethod
    def _apply_int_width(value, instr: Instruction) -> int | float:
        if isinstance(instr.type, IntType):
            width = instr.type.width
            mask = (1 << width) - 1
            result = int(value) & mask
            if instr.opcode == Opcode.SEXT and result >= (1 << (width - 1)):
                result -= 1 << width
            return result
        return value


def _compare(predicate: str, lhs, rhs) -> bool:
    if predicate in ("eq", "oeq"):
        return lhs == rhs
    if predicate in ("ne", "one"):
        return lhs != rhs
    if predicate in ("slt", "olt", "ult"):
        return lhs < rhs
    if predicate in ("sle", "ole", "ule"):
        return lhs <= rhs
    if predicate in ("sgt", "ogt", "ugt"):
        return lhs > rhs
    if predicate in ("sge", "oge", "uge"):
        return lhs >= rhs
    raise ValueError(f"unknown comparison predicate {predicate!r}")
