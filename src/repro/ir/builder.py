"""Convenience builder for constructing IR functions programmatically.

The HLS front end (:mod:`repro.hls.frontend`) uses this builder to lower
kernel specifications; tests use it to build small hand-written functions.
The builder tracks an *insertion point* (a body list), so loops can be opened
and closed like context managers.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.ir.instructions import Instruction, Opcode
from repro.ir.module import Function, LoopRegion, new_indvar
from repro.ir.types import (
    ArrayType,
    FloatType,
    IRType,
    IntType,
    PointerType,
    VOID,
    INT1,
    INT32,
)
from repro.ir.values import Argument, ArgumentDirection, Constant, InductionVariable, Value


class IRBuilder:
    """Builds a single :class:`~repro.ir.module.Function`."""

    def __init__(self, name: str) -> None:
        self.function = Function(name=name)
        self._insertion_stack: list[list] = [self.function.body]
        self._name_counts: dict[str, int] = {}

    # ------------------------------------------------------------------ util

    def _unique_name(self, stem: str) -> str:
        count = self._name_counts.get(stem, 0)
        self._name_counts[stem] = count + 1
        return f"{stem}{count}"

    def _emit(self, instr: Instruction) -> Instruction:
        self._insertion_stack[-1].append(instr)
        return instr

    # ------------------------------------------------------------- arguments

    def add_argument(
        self,
        name: str,
        ty: IRType,
        direction: ArgumentDirection = ArgumentDirection.IN,
    ) -> Argument:
        arg = Argument(name, ty, direction)
        self.function.args.append(arg)
        return arg

    def add_array_argument(
        self,
        name: str,
        shape: tuple[int, ...],
        element: IRType = FloatType(32),
        direction: ArgumentDirection = ArgumentDirection.IN,
    ) -> Argument:
        array_ty = ArrayType(element, tuple(shape))
        return self.add_argument(name, PointerType(array_ty), direction)

    def add_scalar_argument(
        self, name: str, ty: IRType = FloatType(32)
    ) -> Argument:
        return self.add_argument(name, ty, ArgumentDirection.IN)

    # ----------------------------------------------------------------- loops

    @contextmanager
    def loop(
        self, name: str, trip_count: int, pragmas: object | None = None
    ) -> Iterator[InductionVariable]:
        """Open a loop region; the yielded value is the induction variable."""
        indvar = new_indvar(self._unique_name(name))
        region = LoopRegion(indvar, trip_count, pragmas=pragmas, name=name)
        self._insertion_stack[-1].append(region)
        self._insertion_stack.append(region.body)
        try:
            yield indvar
        finally:
            self._insertion_stack.pop()

    # ------------------------------------------------------------- constants

    @staticmethod
    def const_int(value: int, width: int = 32) -> Constant:
        return Constant(value, IntType(width))

    @staticmethod
    def const_float(value: float, width: int = 32) -> Constant:
        return Constant(value, FloatType(width))

    # ---------------------------------------------------------------- memory

    def alloca(self, name: str, ty: IRType) -> Instruction:
        """Allocate a local scalar or array (becomes an internal buffer)."""
        return self._emit(
            Instruction(
                Opcode.ALLOCA,
                [],
                PointerType(ty),
                name=self._unique_name(name),
                attrs={"allocated_type": ty},
            )
        )

    def getelementptr(self, base: Value, indices: list[Value]) -> Instruction:
        base_ty = base.type
        if not isinstance(base_ty, PointerType):
            raise TypeError(f"getelementptr base must be a pointer, got {base_ty}")
        pointee = base_ty.pointee
        if isinstance(pointee, ArrayType):
            elem_ty: IRType = pointee.element
            shape: tuple[int, ...] = pointee.shape
        else:
            elem_ty = pointee
            shape = (1,)
        return self._emit(
            Instruction(
                Opcode.GETELEMENTPTR,
                [base, *indices],
                PointerType(elem_ty),
                name=self._unique_name("addr"),
                attrs={"shape": shape},
            )
        )

    def load(self, pointer: Value, name: str = "ld") -> Instruction:
        ptr_ty = pointer.type
        if not isinstance(ptr_ty, PointerType):
            raise TypeError(f"load expects a pointer operand, got {ptr_ty}")
        return self._emit(
            Instruction(Opcode.LOAD, [pointer], ptr_ty.pointee, name=self._unique_name(name))
        )

    def store(self, value: Value, pointer: Value) -> Instruction:
        if not isinstance(pointer.type, PointerType):
            raise TypeError(f"store expects a pointer operand, got {pointer.type}")
        return self._emit(Instruction(Opcode.STORE, [value, pointer], VOID, name=self._unique_name("st")))

    # ------------------------------------------------------------ arithmetic

    def _binary(self, opcode: Opcode, lhs: Value, rhs: Value, stem: str) -> Instruction:
        return self._emit(
            Instruction(opcode, [lhs, rhs], lhs.type, name=self._unique_name(stem))
        )

    def fadd(self, lhs: Value, rhs: Value) -> Instruction:
        return self._binary(Opcode.FADD, lhs, rhs, "fadd")

    def fsub(self, lhs: Value, rhs: Value) -> Instruction:
        return self._binary(Opcode.FSUB, lhs, rhs, "fsub")

    def fmul(self, lhs: Value, rhs: Value) -> Instruction:
        return self._binary(Opcode.FMUL, lhs, rhs, "fmul")

    def fdiv(self, lhs: Value, rhs: Value) -> Instruction:
        return self._binary(Opcode.FDIV, lhs, rhs, "fdiv")

    def add(self, lhs: Value, rhs: Value) -> Instruction:
        return self._binary(Opcode.ADD, lhs, rhs, "add")

    def sub(self, lhs: Value, rhs: Value) -> Instruction:
        return self._binary(Opcode.SUB, lhs, rhs, "sub")

    def mul(self, lhs: Value, rhs: Value) -> Instruction:
        return self._binary(Opcode.MUL, lhs, rhs, "mul")

    def sdiv(self, lhs: Value, rhs: Value) -> Instruction:
        return self._binary(Opcode.SDIV, lhs, rhs, "sdiv")

    # ----------------------------------------------------------- comparisons

    def icmp(self, predicate: str, lhs: Value, rhs: Value) -> Instruction:
        return self._emit(
            Instruction(
                Opcode.ICMP,
                [lhs, rhs],
                INT1,
                name=self._unique_name("cmp"),
                attrs={"predicate": predicate},
            )
        )

    def fcmp(self, predicate: str, lhs: Value, rhs: Value) -> Instruction:
        return self._emit(
            Instruction(
                Opcode.FCMP,
                [lhs, rhs],
                INT1,
                name=self._unique_name("fcmp"),
                attrs={"predicate": predicate},
            )
        )

    def select(self, cond: Value, if_true: Value, if_false: Value) -> Instruction:
        return self._emit(
            Instruction(
                Opcode.SELECT,
                [cond, if_true, if_false],
                if_true.type,
                name=self._unique_name("sel"),
            )
        )

    # ----------------------------------------------------------------- casts

    def _cast(self, opcode: Opcode, value: Value, target: IRType, stem: str) -> Instruction:
        return self._emit(
            Instruction(opcode, [value], target, name=self._unique_name(stem))
        )

    def sext(self, value: Value, target: IntType) -> Instruction:
        return self._cast(Opcode.SEXT, value, target, "sext")

    def zext(self, value: Value, target: IntType) -> Instruction:
        return self._cast(Opcode.ZEXT, value, target, "zext")

    def trunc(self, value: Value, target: IntType) -> Instruction:
        return self._cast(Opcode.TRUNC, value, target, "trunc")

    def sitofp(self, value: Value, target: FloatType = FloatType(32)) -> Instruction:
        return self._cast(Opcode.SITOFP, value, target, "sitofp")

    def fptosi(self, value: Value, target: IntType = INT32) -> Instruction:
        return self._cast(Opcode.FPTOSI, value, target, "fptosi")

    def bitcast(self, value: Value, target: IRType) -> Instruction:
        return self._cast(Opcode.BITCAST, value, target, "bitcast")

    # --------------------------------------------------------------- bitwise

    def and_(self, lhs: Value, rhs: Value) -> Instruction:
        return self._binary(Opcode.AND, lhs, rhs, "and")

    def or_(self, lhs: Value, rhs: Value) -> Instruction:
        return self._binary(Opcode.OR, lhs, rhs, "or")

    def xor(self, lhs: Value, rhs: Value) -> Instruction:
        return self._binary(Opcode.XOR, lhs, rhs, "xor")

    def shl(self, lhs: Value, rhs: Value) -> Instruction:
        return self._binary(Opcode.SHL, lhs, rhs, "shl")

    def lshr(self, lhs: Value, rhs: Value) -> Instruction:
        return self._binary(Opcode.LSHR, lhs, rhs, "lshr")

    def ashr(self, lhs: Value, rhs: Value) -> Instruction:
        return self._binary(Opcode.ASHR, lhs, rhs, "ashr")

    # --------------------------------------------------------------- control

    def ret(self, value: Value | None = None) -> Instruction:
        operands = [value] if value is not None else []
        return self._emit(Instruction(Opcode.RET, operands, VOID, name=self._unique_name("ret")))

    # ------------------------------------------------------------------ done

    def build(self) -> Function:
        """Finalise and return the constructed function."""
        if len(self._insertion_stack) != 1:
            raise RuntimeError("unterminated loop region while building function")
        return self.function
