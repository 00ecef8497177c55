"""Compiled switching-activity simulation.

Interpreting the IR costs a Python dispatch per dynamic instruction plus an
observer call, a bit-packing call and a Hamming-distance call per value.  Like
a compiled RTL simulator, :func:`simulate_function` instead translates a
lowered :class:`~repro.ir.module.Function` once into straight-line Python —
loop regions become ``for`` loops, instructions become assignments — runs it,
and reduces the recorded value streams in bulk with numpy.

Only *result* streams are recorded, one list per instruction.  An operand
stream of instruction ``X`` is derived instead of recorded whenever it can be:

* a constant or argument operand never changes, so it has no transitions;
* an operand produced by ``P`` where ``X`` lies in ``P``'s loop body (``X``
  after ``P``, possibly in a nested loop) sees ``P``'s values, each repeated
  one or more times — repeats add no transitions, so the stream has ``P``'s
  change count and Hamming sum;
* an induction-variable operand inside its loop sees ``0 .. trip-1`` once per
  execution of the loop, whose statistics are computed directly.

Anything else (a value used after the loop that produced it) is recorded at
the use.  The statistics are exactly those of
:class:`~repro.activity.tracer.ActivityTracer` on
:class:`~repro.ir.interpreter.IRInterpreter`, which the tests keep as the
oracle: the generated code mirrors the interpreter's arithmetic and value
conversions, and the reduction packs bits exactly as
:func:`~repro.ir.bitpack.to_bits` does.

The generated source contains no names taken from the IR.  Its identifiers
are a one-letter prefix plus a value's local number, its position in
definition order (``v<n>`` values, ``m<n>`` buffers, ``r<n>`` and
``o<n>_<slot>`` the ``append`` of result and recorded operand lists), the
parameters ``K`` (constants that are not plain finite numbers), ``M``
(buffers and scalar arguments), ``R`` (the appends) and ``_p``/``_u``
(float32 rounding), and the builtins ``range``, ``int`` and ``float``.  Its
only literals are integers and finite floats, which round-trip through
``repr``.  Local numbers, unlike uids, repeat from function to function, so
compiling thousands of functions adds no new identifier strings to the
interpreter's intern table.
"""

from __future__ import annotations

import math
import struct
from typing import NamedTuple

import numpy as np

from repro.ir.instructions import Instruction, Opcode
from repro.ir.module import Function, Item, LoopRegion
from repro.ir.types import ArrayType, FloatType, IntType, IRType, PointerType, VoidType
from repro.ir.validation import pointer_roots
from repro.ir.values import Argument, Constant, InductionVariable, Value

#: The only builtins the generated code can reach.
_BUILTINS = {"range": range, "int": int, "float": float}

_F32 = struct.Struct("f")

_COMPARISONS = {
    "eq": "==", "oeq": "==",
    "ne": "!=", "one": "!=",
    "slt": "<", "olt": "<", "ult": "<",
    "sle": "<=", "ole": "<=", "ule": "<=",
    "sgt": ">", "ogt": ">", "ugt": ">",
    "sge": ">=", "oge": ">=", "uge": ">=",
}  # fmt: skip

_ARITHMETIC = {
    Opcode.ADD: "+", Opcode.FADD: "+",
    Opcode.SUB: "-", Opcode.FSUB: "-",
    Opcode.MUL: "*", Opcode.FMUL: "*",
}  # fmt: skip

_BITWISE = {
    Opcode.AND: "&", Opcode.OR: "|", Opcode.XOR: "^",
    Opcode.SHL: "<<", Opcode.LSHR: ">>", Opcode.ASHR: ">>",
}  # fmt: skip

_WIDTH_CASTS = (Opcode.SEXT, Opcode.ZEXT, Opcode.TRUNC, Opcode.BITCAST)

# Python kinds of runtime values, tracked so that conversions the interpreter
# applies can be skipped where they are no-ops.
_INT, _FLOAT, _F32_KIND = "int", "float", "f32"


class SimulatedStreams(NamedTuple):
    """Per-stream statistics of one simulation, in tracer stream order.

    ``rows`` holds one ``(bit_width, exec_count, change_count, hamming_sum)``
    per stream: first the result streams of ``result_uids``, then the operand
    streams of ``operand_keys`` (``(uid, slot)``), each in the order the tracer
    first observes them — static program order, since every loop runs at
    least once.  ``instruction_uids`` lists every instruction in that order.
    """

    dynamic_instructions: int
    instruction_uids: list[int]
    result_uids: list[int]
    operand_keys: list[tuple[int, int]]
    rows: list[tuple[int, int, int, int]]


# --------------------------------------------------------------------- bits


def stream_transitions(streams: list, ty: IRType) -> list[tuple[int, int]]:
    """``(change_count, hamming_sum)`` of equally long value streams of type ``ty``.

    Values are packed exactly as :func:`~repro.ir.bitpack.to_bits` packs them:
    float bit patterns, integers masked to their width.
    """
    if isinstance(ty, FloatType):
        floats = np.array(streams, dtype=np.float64)
        bits = floats.astype(np.float32).view(np.uint32) if ty.width == 32 else floats.view(np.uint64)
    elif isinstance(ty, (IntType, PointerType)):
        width = ty.width if isinstance(ty, IntType) else ty.address_width
        mask = (1 << width) - 1
        if width > 64:
            return [_wide_transitions([int(value) & mask for value in stream]) for stream in streams]
        try:
            bits = np.array(streams, dtype=np.int64).view(np.uint64)
        except OverflowError:
            bits = np.array([[int(value) & mask for value in s] for s in streams], dtype=np.uint64)
        bits &= np.uint64(mask)
    else:
        raise TypeError(f"cannot bit-pack values of type {ty}")
    diffs = bits[:, 1:] ^ bits[:, :-1]
    changes = np.count_nonzero(diffs, axis=1).tolist()
    return list(zip(changes, np.bitwise_count(diffs).sum(axis=1).tolist()))


def _wide_transitions(bits: list[int]) -> tuple[int, int]:
    diffs = [a ^ b for a, b in zip(bits, bits[1:]) if a != b]
    return len(diffs), sum(bin(diff).count("1") for diff in diffs)


def _saturating_pack_f32(value) -> bytes:
    """float32 packing that rounds out-of-range values to infinity, as numpy does."""
    return np.float32(value).tobytes()


# ----------------------------------------------------------- code generation


def _literal(value) -> str | None:
    """Source text of ``value`` if it is a plain int or finite float, else None."""
    if type(value) is int or (type(value) is float and math.isfinite(value)):
        text = repr(value)
        return f"({text})" if text.startswith("-") else text
    return None


class _Generator:
    """Translates one function into the source of ``_simulate(K, M, R, _p, _u)``.

    ``K`` holds the constants that are not plain numbers, ``M`` the argument
    buffers and scalars, ``R`` the ``append`` of every recorded stream's list
    (in :attr:`recorded` order) and ``_p``/``_u`` pack and unpack float32.
    """

    def __init__(self, function: Function) -> None:
        self.roots = pointer_roots(function)
        #: Local number of every argument, induction variable and instruction,
        #: in definition order: generated names are ``v<number>`` and the like,
        #: so functions of the same shape reuse the same identifiers.
        self.number = {arg.uid: index for index, arg in enumerate(function.args)}
        self.constants: list = []
        #: Source expression and Python kind of every value defined so far.
        self.values: dict[int, tuple[str, str | None]] = {}
        self.buffer_args = [arg for arg in function.args if isinstance(arg.type, PointerType)]
        self.scalar_args = [arg for arg in function.args if not isinstance(arg.type, PointerType)]
        for arg in self.buffer_args:
            self.values[arg.uid] = ("0", _INT)  # the base offset of the argument's buffer
        for arg in self.scalar_args:
            self.values[arg.uid] = (f"v{self.number[arg.uid]}", _scalar_kind(arg.type))
        #: Per instruction: executions and the loops enclosing it (outermost first).
        self.instructions: list[Instruction] = []
        self.executions: dict[int, int] = {}
        self.chains: dict[int, tuple[int, ...]] = {}
        #: Per loop, by walk index: its trip count and its own executions.
        self.loops: list[tuple[int, int]] = []
        self.indvar_loops: dict[int, list[int]] = {}
        self._scan(function.body, (), 1)
        self.f32_buffers = self._f32_buffers()
        #: Keys of the recorded streams: results, then operands used out of scope.
        self.recorded: list[tuple[int, int]] = [
            (instr.uid, -1) for instr in self.instructions if _has_result_stream(instr)
        ]
        self.recorded += [
            (instr.uid, slot)
            for instr in self.instructions
            for slot, operand in enumerate(instr.operands)
            if self._records_operand(instr, operand)
        ]
        self._recorded_operands = {key for key in self.recorded if key[1] >= 0}
        self.lines: list[str] = []

    # -- analysis ------------------------------------------------------------

    def _scan(self, body: list[Item], chain: tuple[int, ...], executions: int) -> None:
        for item in body:
            if isinstance(item, LoopRegion):
                self.number.setdefault(item.indvar.uid, len(self.number))
                index = len(self.loops)
                self.loops.append((item.trip_count, executions))
                self.indvar_loops.setdefault(item.indvar.uid, []).append(index)
                self._scan(item.body, chain + (index,), executions * item.trip_count)
            else:
                self.number[item.uid] = len(self.number)
                self.instructions.append(item)
                self.executions[item.uid] = executions
                self.chains[item.uid] = chain

    def _f32_buffers(self) -> set[int]:
        """Float buffers whose every load is float32: held pre-rounded to float32."""
        all_f32: dict[int, bool] = {}
        for instr in self.instructions:
            if instr.opcode == Opcode.LOAD:
                root = self.roots[instr.operands[0].uid]
                ok = _is_f32(instr.type) and isinstance(_buffer_element(root), FloatType)
                all_f32[root.uid] = all_f32.get(root.uid, True) and ok
        return {uid for uid, ok in all_f32.items() if ok}

    def in_scope(self, producer: Value, user: Instruction) -> bool:
        """True when every execution of ``user`` follows one of ``producer`` in its loop body."""
        if isinstance(producer, InductionVariable):
            loops = self.indvar_loops.get(producer.uid, [])
            return len(loops) == 1 and loops[0] in self.chains[user.uid]
        chain = self.chains[producer.uid]
        return self.chains[user.uid][: len(chain)] == chain

    def _records_operand(self, instr: Instruction, operand: Value) -> bool:
        """Whether an operand stream must be recorded at the use (see the module docstring)."""
        if isinstance(operand.type, VoidType) or isinstance(operand, (Constant, Argument)):
            return False
        if isinstance(operand, InductionVariable):
            # A use outside the loop sees the final index, unchanging.
            return len(self.indvar_loops.get(operand.uid, [])) > 1
        return not self.in_scope(operand, instr)

    # -- expressions -----------------------------------------------------------

    def operand(self, value: Value) -> tuple[str, str | None]:
        """Source expression and Python kind of an operand's runtime value."""
        known = self.values.get(value.uid)
        if known is not None:
            return known
        if isinstance(value, Constant):
            known = (self.constant(value.value), {int: _INT, float: _FLOAT}.get(type(value.value)))
            self.values[value.uid] = known
            return known
        if isinstance(value, (InductionVariable, Instruction)):
            # Used before it is defined: the generated code fails there, as
            # the interpreter does.
            return f"v{self.number[value.uid]}", None
        raise TypeError(f"cannot simulate operand {value!r}")

    def constant(self, value) -> str:
        """A literal for plain finite numbers; anything else is bound through ``K``."""
        literal = _literal(value)
        if literal is None:
            self.constants.append(value)
            literal = f"K[{len(self.constants) - 1}]"
        return literal

    def as_int(self, value: Value) -> str:
        expr, kind = self.operand(value)
        return expr if kind == _INT else f"int({expr})"

    # -- statements ------------------------------------------------------------

    def generate(self, body: list[Item]) -> str:
        bound = [f"m{self.number[arg.uid]}" for arg in self.buffer_args]
        bound += [f"v{self.number[arg.uid]}" for arg in self.scalar_args]
        appends = [
            f"r{self.number[uid]}" if slot < 0 else f"o{self.number[uid]}_{slot}"
            for uid, slot in self.recorded
        ]
        self.lines = ["def _simulate(K, M, R, _p, _u):"]
        for names, source in ((bound, "M"), (appends, "R")):
            if names:
                self.lines.append(f"    {', '.join(names)}, = {source}")
        self._emit_body(body, 1)
        return "\n".join(self.lines) + "\n"

    def _emit_body(self, body: list[Item], depth: int) -> None:
        pad = "    " * depth
        if not body:
            self.lines.append(f"{pad}pass")
        for item in body:
            if isinstance(item, LoopRegion):
                indvar = f"v{self.number[item.indvar.uid]}"
                self.values[item.indvar.uid] = (indvar, _INT)
                self.lines.append(f"{pad}for {indvar} in range({item.trip_count}):")
                self._emit_body(item.body, depth + 1)
                continue
            statement = self._statement(item)
            if statement:
                self.lines.append(pad + statement)
            for slot, operand in enumerate(item.operands):
                if (item.uid, slot) in self._recorded_operands:
                    number = self.number[item.uid]
                    self.lines.append(f"{pad}o{number}_{slot}({self.operand(operand)[0]})")

    def _statement(self, instr: Instruction) -> str:
        """The instruction as one statement; a recorded result is appended as it is assigned."""
        opcode = instr.opcode
        if opcode == Opcode.ALLOCA:
            zero = "0.0" if isinstance(_buffer_element(instr), FloatType) else "0"
            setup = f"m{self.number[instr.uid]} = [{zero}] * {_buffer_size(instr)}; "
            return setup + self._define(instr, "0", _INT)
        if opcode == Opcode.GETELEMENTPTR:
            return self._define(instr, self._address(instr), _INT)
        if opcode == Opcode.LOAD:
            root = self.roots[instr.operands[0].uid]
            cell = f"m{self.number[root.uid]}[{self.as_int(instr.operands[0])}]"
            float_buffer = isinstance(_buffer_element(root), FloatType)
            if isinstance(instr.type, IntType):
                return self._define(instr, f"int({cell})" if float_buffer else cell, _INT)
            if _is_f32(instr.type):
                exact = root.uid in self.f32_buffers
                return self._define(instr, cell if exact else _round_f32(cell), _F32_KIND)
            return self._define(instr, cell if float_buffer else f"float({cell})", _FLOAT)
        if opcode == Opcode.STORE:
            root = self.roots[instr.operands[1].uid]
            expr, kind = self.operand(instr.operands[0])
            if root.uid in self.f32_buffers:
                stored = expr if kind == _F32_KIND else _round_f32(expr)
            elif isinstance(_buffer_element(root), FloatType):
                stored = expr if kind in (_FLOAT, _F32_KIND) else f"float({expr})"
            else:
                stored = expr if kind == _INT else f"int({expr})"
            return f"m{self.number[root.uid]}[{self.as_int(instr.operands[1])}] = {stored}"
        if opcode == Opcode.RET:
            if _has_result_stream(instr):
                return self._define(instr, *self.operand(instr.operands[0]))
            return ""
        expr, kind = self._compute(instr)
        if _is_f32(instr.type):
            expr, kind = _round_f32(expr), _F32_KIND
        elif isinstance(instr.type, IntType) and kind != _INT:
            expr, kind = f"int({expr})", _INT
        return self._define(instr, expr, kind)

    def _define(self, instr: Instruction, expr: str, kind: str | None) -> str:
        number = self.number[instr.uid]
        self.values[instr.uid] = (f"v{number}", kind)
        return f"r{number}(v{number} := {expr})"

    def _address(self, instr: Instruction) -> str:
        offset = ""
        for dim, index in zip(instr.attrs.get("shape", (1,)), instr.operands[1:]):
            term = self.as_int(index)
            offset = f"({offset}) * {self.constant(dim)} + {term}" if offset else term
        base = self.as_int(instr.operands[0])
        if not offset:
            return base
        return offset if base == "0" else f"{base} + {offset}"

    def _compute(self, instr: Instruction) -> tuple[str, str | None]:
        """Expression of a compute opcode before the result-type conversion."""
        opcode = instr.opcode
        values = [self.operand(op) for op in instr.operands]
        if opcode in _ARITHMETIC:
            (a, ka), (b, kb) = values[:2]
            kind = None if None in (ka, kb) else _INT if ka == kb == _INT else _FLOAT
            return f"{a} {_ARITHMETIC[opcode]} {b}", kind
        if opcode == Opcode.FDIV:
            (a, _), (b, _) = values[:2]
            return f"({a} / {b} if {b} != 0 else 0.0)", None
        if opcode == Opcode.SDIV:
            (a, _), (b, _) = values[:2]
            return f"(int({a} / {b}) if {b} != 0 else 0)", _INT
        if opcode in (Opcode.ICMP, Opcode.FCMP):
            predicate = instr.attrs["predicate"]
            if predicate not in _COMPARISONS:
                raise ValueError(f"unknown comparison predicate {predicate!r}")
            (a, _), (b, _) = values[:2]
            return f"int({a} {_COMPARISONS[predicate]} {b})", _INT
        if opcode == Opcode.SELECT:
            (c, _), (a, ka), (b, kb) = values[:3]
            return f"({a} if {c} else {b})", ka if ka == kb else None
        if opcode in _WIDTH_CASTS:
            if not isinstance(instr.type, IntType):
                return values[0]
            value, mask = self.as_int(instr.operands[0]), (1 << instr.type.width) - 1
            if opcode == Opcode.SEXT:
                # Two's-complement reinterpretation of the low ``width`` bits.
                sign = 1 << (instr.type.width - 1)
                return f"((({value}) + {sign}) & {mask}) - {sign}", _INT
            return f"(({value}) & {mask})", _INT
        if opcode == Opcode.SITOFP:
            return f"float({values[0][0]})", _FLOAT
        if opcode == Opcode.FPTOSI:
            return f"int({values[0][0]})", _INT
        if opcode in _BITWISE:
            a, b = self.as_int(instr.operands[0]), self.as_int(instr.operands[1])
            return f"({a} {_BITWISE[opcode]} {b})", _INT
        raise NotImplementedError(f"unsupported opcode {opcode}")


def _round_f32(expr: str) -> str:
    return f"_u(_p({expr}))[0]"


def _is_f32(ty: IRType) -> bool:
    return isinstance(ty, FloatType) and ty.width == 32


def _buffer_type(root: Value) -> IRType:
    return root.attrs["allocated_type"] if isinstance(root, Instruction) else root.type.pointee


def _buffer_element(root: Value) -> IRType:
    ty = _buffer_type(root)
    return ty.element if isinstance(ty, ArrayType) else ty


def _buffer_size(root: Value) -> int:
    ty = _buffer_type(root)
    return ty.num_elements if isinstance(ty, ArrayType) else 1


def _scalar_kind(ty: IRType) -> str:
    if isinstance(ty, IntType):
        return _INT
    return _F32_KIND if isinstance(ty, FloatType) and ty.width == 32 else _FLOAT


def _has_result_stream(instr: Instruction) -> bool:
    """Whether the tracer keeps a result stream for ``instr``."""
    return instr.has_result and (instr.opcode != Opcode.RET or bool(instr.operands))


# ------------------------------------------------------------------ running


def _bind_inputs(generator: _Generator, inputs) -> tuple:
    """Buffers (as lists) and scalar values, bound as the interpreter binds them."""
    bound: list = []
    for arg in generator.buffer_args:
        element = _buffer_element(arg)
        data = np.zeros(_buffer_size(arg), dtype=np.float64 if isinstance(element, FloatType) else np.int64)
        if arg.name in inputs:
            values = np.asarray(inputs[arg.name], dtype=data.dtype).reshape(-1)
            if values.size != data.size:
                raise ValueError(
                    f"argument {arg.name!r} expects {data.size} elements, got {values.size}"
                )
            data[:] = values
        if arg.uid in generator.f32_buffers:
            data = data.astype(np.float32)
        bound.append(data.tolist())
    for arg in generator.scalar_args:
        if arg.name not in inputs:
            raise ValueError(f"missing scalar input for argument {arg.name!r}")
        value, ty = inputs[arg.name], arg.type
        if isinstance(ty, IntType):
            bound.append(int(value))
        else:
            bound.append(float(np.float32(value)) if getattr(ty, "width", 64) == 32 else float(value))
    return tuple(bound)


def simulate_function(function: Function, inputs) -> SimulatedStreams:
    """Run ``function`` on ``inputs`` and return the statistics of every value stream."""
    generator = _Generator(function)
    namespace = {"__builtins__": _BUILTINS}
    exec(compile(generator.generate(function.body), "<activity simulation>", "exec"), namespace)
    simulate = namespace.pop("_simulate")
    constants = tuple(generator.constants)

    def run(pack) -> list[list]:
        lists = [[] for _ in generator.recorded]
        simulate(constants, _bind_inputs(generator, inputs), tuple(v.append for v in lists), pack, _F32.unpack)
        return lists

    try:
        recorded = run(_F32.pack)
    except OverflowError:
        # struct refuses finite values beyond float32 range, which numpy (and
        # so the interpreter) rounds to infinity.  Rare, so rerun from scratch.
        with np.errstate(over="ignore"):
            recorded = run(_saturating_pack_f32)
    del simulate, namespace

    # Reduce equally long streams of one type together, dropping each list
    # once it is reduced.
    by_uid = {instr.uid: instr for instr in generator.instructions}
    groups: dict[tuple[int, IRType], list[int]] = {}
    for index, (uid, slot) in enumerate(generator.recorded):
        ty = by_uid[uid].type if slot < 0 else by_uid[uid].operands[slot].type
        groups.setdefault((len(recorded[index]), ty), []).append(index)
    transitions: dict[tuple[int, int], tuple[int, int]] = {}
    for (_, ty), indices in groups.items():
        streams = [recorded[index] for index in indices]
        for index in indices:
            recorded[index] = None
        for index, stats in zip(indices, stream_transitions(streams, ty)):
            transitions[generator.recorded[index]] = stats
        del streams

    result_uids: list[int] = []
    rows: list[tuple[int, int, int, int]] = []
    for instr in generator.instructions:
        if _has_result_stream(instr):
            result_uids.append(instr.uid)
            rows.append((instr.type.bit_width, generator.executions[instr.uid], *transitions[instr.uid, -1]))

    operand_keys: list[tuple[int, int]] = []
    for instr in generator.instructions:
        executions = generator.executions[instr.uid]
        for slot, operand in enumerate(instr.operands):
            if isinstance(operand.type, VoidType):
                continue
            operand_keys.append((instr.uid, slot))
            if (instr.uid, slot) in transitions:
                changes = transitions[instr.uid, slot]
            elif isinstance(operand, (Constant, Argument)) or not generator.in_scope(operand, instr):
                changes = (0, 0)
            elif isinstance(operand, InductionVariable):
                if (operand.uid, -1) not in transitions:
                    (loop,) = generator.indvar_loops[operand.uid]
                    trip, loop_executions = generator.loops[loop]
                    sequence = np.tile(np.arange(trip, dtype=np.int64), loop_executions)
                    transitions[operand.uid, -1] = stream_transitions([sequence], operand.type)[0]
                changes = transitions[operand.uid, -1]
            else:
                changes = transitions[operand.uid, -1]
            rows.append((operand.type.bit_width, executions, *changes))

    return SimulatedStreams(
        dynamic_instructions=sum(generator.executions.values()),
        instruction_uids=[instr.uid for instr in generator.instructions],
        result_uids=result_uids,
        operand_keys=operand_keys,
        rows=rows,
    )
