"""The compiled activity simulator against the interpreter + tracer oracle.

Every statistic must be exactly equal — bit widths, execution, change and
Hamming counts, stream order and the dynamic instruction count — and the
featurised samples built from the compiled profiles must be bitwise those
built from the oracle's.
"""

import gc
import io
import math
import re
import tokenize
import tracemalloc
import types

import numpy as np
import pytest

import repro.activity.simulator as simulator_module
import repro.flow.dataset_gen as dataset_gen
from repro.activity.compiled import _Generator
from repro.activity.simulator import ActivityProfile, simulate_activity
from repro.activity.stimuli import StimulusGenerator
from repro.activity.tracer import ActivityTracer, ValueStreamStats
from repro.flow.dataset_gen import DatasetConfig, DatasetGenerator
from repro.hls.frontend import LoweredDesign, lower_kernel
from repro.hls.pragmas import DesignDirectives
from repro.ir.builder import IRBuilder
from repro.ir.instructions import Opcode
from repro.ir.interpreter import IRInterpreter
from repro.ir.types import FLOAT32, FLOAT64, INT1, INT8, INT32, INT64, ArrayType, IntType
from repro.ir.values import ArgumentDirection, Constant
from repro.kernels.polybench import polybench_kernel, polybench_names
from repro.kernels.synthetic import synthetic_kernel, synthetic_names
from repro.serve.cache import sample_fingerprint
from repro.utils.rng import derive_seed


def oracle_profile(design, stimuli=None, seed=0, profile="uniform") -> ActivityProfile:
    """``simulate_activity`` on the interpreter with an ActivityTracer attached."""
    if stimuli is None:
        stimuli = StimulusGenerator(seed=seed, profile=profile).for_kernel(design.kernel)
    return _oracle(design.function, stimuli, design.kernel.name)


def _oracle(function, inputs, name="f") -> ActivityProfile:
    interpreter = IRInterpreter(function)
    tracer = ActivityTracer()
    interpreter.add_observer(tracer)
    with np.errstate(over="ignore"):
        interpreter.run(inputs)
    return ActivityProfile.from_streams(
        name,
        interpreter.dynamic_instruction_count,
        [instr.uid for instr in function.instructions],
        tracer.result_streams,
        tracer.operand_streams,
    )


def _simulate(function, inputs) -> ActivityProfile:
    kernel = types.SimpleNamespace(name="f")
    return simulate_activity(LoweredDesign(kernel, DesignDirectives(), function), inputs)


def assert_same_streams(compiled: ActivityProfile, oracle: ActivityProfile) -> None:
    assert compiled.dynamic_instructions == oracle.dynamic_instructions
    assert list(compiled.result_streams().items()) == list(oracle.result_streams().items())
    assert list(compiled.operand_streams().items()) == list(oracle.operand_streams().items())


def _unroll_configurations(generator: DatasetGenerator, kernel):
    """One design point per distinct unroll configuration of the kernel's space."""
    seen = {}
    for directives in generator.design_space_for(kernel):
        seen.setdefault(generator._loop_pragma_key(kernel, directives), directives)
    return list(seen.values())


def _sample_bytes(sample) -> tuple:
    graph = sample.graph
    arrays = (
        graph.node_features,
        graph.edge_index,
        graph.edge_features,
        graph.edge_types,
        graph.metadata,
        graph.node_is_arithmetic,
    )
    labels = (
        sample.total_power,
        sample.dynamic_power,
        sample.static_power,
        sample.vivado_total_power,
        sample.vivado_dynamic_power,
        sample.latency_cycles,
    )
    return tuple(a.tobytes() for a in arrays), labels, sample_fingerprint(sample)


# ------------------------------------------------------------------ kernels


@pytest.mark.parametrize("name", polybench_names())
def test_polybench_unroll_configurations_match_oracle(name, monkeypatch):
    kernel = polybench_kernel(name, 8)
    generator = DatasetGenerator(DatasetConfig())
    points = _unroll_configurations(generator, kernel)
    stimuli = StimulusGenerator(seed=derive_seed(DatasetConfig().stimulus_seed, name)).for_kernel(kernel)
    for directives in points:
        design = generator.frontend.lower(kernel, directives)
        assert_same_streams(simulate_activity(design, stimuli), oracle_profile(design, stimuli))

    # Featurisation on the compiled profiles gives the oracle's samples bitwise.
    compiled = generator.featurise(kernel, points)
    monkeypatch.setattr(dataset_gen, "simulate_activity", oracle_profile)
    reference = DatasetGenerator(DatasetConfig()).featurise(kernel, points)
    assert [_sample_bytes(s) for s in compiled] == [_sample_bytes(s) for s in reference]


@pytest.mark.parametrize("pattern", synthetic_names())
def test_synthetic_families_match_oracle(pattern):
    design = lower_kernel(synthetic_kernel(pattern, 6))
    for profile in ("uniform", "smooth", "sparse"):
        assert_same_streams(
            simulate_activity(design, seed=3, profile=profile),
            oracle_profile(design, seed=3, profile=profile),
        )


# ------------------------------------------------------------- hand-built IR


def _every_opcode_function():
    """Every opcode the interpreter computes, on data that reaches their edge cases."""
    b = IRBuilder("every_opcode")
    x = b.add_array_argument("x", (6,))
    d = b.add_array_argument("d", (6,), element=FLOAT64)
    n = b.add_array_argument("n", (6,), element=INT32)
    out = b.add_array_argument("out", (6,), direction=ArgumentDirection.OUT)
    words = b.add_array_argument("words", (6,), element=INT32, direction=ArgumentDirection.OUT)
    s = b.add_scalar_argument("s")
    k = b.add_scalar_argument("k", INT32)
    with b.loop("i", 6) as i:
        tmp = b.alloca("tmp", ArrayType(FLOAT32, (2,)))  # a fresh buffer every iteration
        xi = b.load(b.getelementptr(x, [i]))
        di = b.load(b.getelementptr(d, [i]))
        ni = b.load(b.getelementptr(n, [i]))
        fsum = b.fadd(xi, s)
        fprod = b.fmul(b.fsub(xi, fsum), b.const_float(1.1))
        fquot = b.fdiv(fprod, xi)  # x holds zeros: division by zero gives 0.0
        dsum = b.fadd(b.fmul(di, di), b.const_float(0.1, 64))
        dquot = b.fdiv(dsum, di)
        isum = b.add(ni, k)
        iprod = b.mul(b.sub(isum, ni), ni)
        b.sdiv(iprod, ni)  # n holds zeros and negatives
        negative = b.icmp("slt", ni, b.const_int(0))
        positive = b.fcmp("ogt", xi, b.const_float(0.0))
        both = b.and_(negative, positive)
        either = b.or_(negative, positive)
        flip = b.xor(either, b.const_int(1, 1))
        for predicate in ("eq", "ne", "sle", "sgt", "sge"):
            b.icmp(predicate, ni, k)
        b.fcmp("oeq", di, b.const_float(0.0, 64))
        chosen = b.select(negative, xi, fsum)
        chosen_bit = b.select(positive, both, flip)  # an i1 select
        chosen_double = b.select(flip, di, dquot)
        byte = b.trunc(iprod, INT8)
        signed = b.sext(byte, INT32)
        long = b.sext(ni, INT64)  # negative: its sign shows once it leaves the integer width
        b.sitofp(long, FLOAT64)
        b.icmp("slt", long, b.const_int(0, 64))
        wide = b.sext(ni, IntType(96))  # wider than 64 bits
        unsigned = b.zext(chosen_bit, INT32)
        shifted = b.shl(ni, b.const_int(3))
        huge = b.shl(long, b.const_int(70, 64))  # beyond int64 before masking
        logical = b.lshr(shifted, b.const_int(2))
        arithmetic = b.ashr(b.sub(b.const_int(0), shifted), b.const_int(1))
        same = b.bitcast(isum, INT32)
        as_float = b.sitofp(b.add(signed, unsigned))
        as_double = b.sitofp(logical, FLOAT64)
        as_int = b.fptosi(b.fmul(chosen, b.const_float(10.0)))
        b.store(fquot, b.getelementptr(tmp, [b.const_int(1)]))
        reread = b.load(b.getelementptr(tmp, [b.const_int(1)]))
        total = b.fadd(b.fadd(reread, as_float), b.fadd(chosen, b.const_float(0.25)))
        b.store(total, b.getelementptr(out, [i]))
        b.store(b.add(b.add(same, as_int), b.add(arithmetic, b.fptosi(as_double))), b.getelementptr(words, [i]))
        b.store(b.const_float(0.3), b.getelementptr(tmp, [b.const_int(0)]))  # an unrounded constant
        b.fadd(b.load(b.getelementptr(tmp, [b.const_int(0)])), reread)
        b.fadd(b.load(b.getelementptr(words, [i])), b.const_float(0.5))
        b.add(huge, wide)
        b.fmul(b.load(b.getelementptr(d, [i])), chosen_double)
    b.ret()
    inputs = {
        "x": np.array([0.0, -1.5, 2.25, 0.0, 3.1, -0.7]),
        "d": np.array([0.0, 1e-3, -2.5, 4.0, 0.0, 7.25]),
        "n": np.array([-7, 0, 5, -128, 3, 0]),
        "s": 0.5,
        "k": -3,
    }
    return b.build(), inputs


def test_every_opcode_matches_oracle():
    function, inputs = _every_opcode_function()
    opcodes = {instr.opcode for instr in function.instructions}
    assert opcodes == set(Opcode) - {Opcode.PHI}
    assert_same_streams(_simulate(function, inputs), _oracle(function, inputs))


def test_values_used_outside_their_loop_match_oracle():
    b = IRBuilder("escapes")
    x = b.add_array_argument("x", (4,))
    out = b.add_array_argument("out", (4,), direction=ArgumentDirection.OUT)
    with b.loop("i", 4) as i:
        last = b.fmul(b.load(b.getelementptr(x, [i])), b.const_float(2.0))
    after = b.fadd(last, b.const_float(1.0))  # sees the loop's final value
    past = b.add(i, b.const_int(1))  # the induction variable after its loop
    with b.loop("j", 3) as j:
        with b.loop("i", 4) as inner:
            value = b.fmul(b.load(b.getelementptr(x, [inner])), b.sitofp(j))
        carried = b.fadd(value, after)  # an inner-loop value in the outer body
        b.add(inner, b.const_int(1))  # the inner index after its loop: always 3
        b.store(carried, b.getelementptr(out, [j]))
        with b.loop("k", 2):
            b.fmul(carried, b.sitofp(j))  # an outer value and indvar in a nested loop
    b.ret(b.add(past, b.const_int(2)))
    function = b.build()
    inputs = {"x": np.array([1.0, -2.0, 3.5, 0.25])}
    assert_same_streams(_simulate(function, inputs), _oracle(function, inputs))


def test_float32_overflow_rounds_to_infinity_like_the_oracle():
    b = IRBuilder("overflow")
    x = b.add_array_argument("x", (3,))
    with b.loop("i", 3) as i:
        big = b.fmul(b.load(b.getelementptr(x, [i])), b.const_float(2.0))  # beyond float32
        b.fadd(big, b.fsub(b.const_float(0.0), big))  # inf - inf
    b.ret()
    function = b.build()
    inputs = {"x": np.array([1.0, 3e38, -3e38])}
    assert_same_streams(_simulate(function, inputs), _oracle(function, inputs))


def test_input_binding_errors_match_the_interpreter():
    b = IRBuilder("needs_inputs")
    b.add_array_argument("a", (4,))
    b.add_scalar_argument("s")
    b.ret()
    function = b.build()
    with pytest.raises(ValueError, match="expects 4 elements"):
        _simulate(function, {"a": np.zeros(3), "s": 1.0})
    with pytest.raises(ValueError, match="missing scalar input"):
        _simulate(function, {"a": np.zeros(4)})


# --------------------------------------------------------- generated source

_ALLOWED_NAMES = re.compile(r"([vmr]\d+|o\d+_\d+|K|M|R|_p|_u|_simulate|range|int|float)$")


def _hostile_function():
    b = IRBuilder("x'); import os; ('")
    a = b.add_array_argument("a\"; __import__('os')", (3,))
    with b.loop("i", 3) as i:
        value = b.load(b.getelementptr(a, [i]))
        value.name = "__import__('os').system('true')"
        for special in (math.inf, -math.inf, math.nan):
            b.fadd(value, b.const_float(special))
            b.fmul(b.sitofp(i, FLOAT64), b.const_float(special, 64))
        b.icmp("sgt", i, Constant(-2, INT32, name="if 1: pass"))
        b.fcmp("olt", value, b.const_float(-0.0))
        b.select(Constant(True, INT1), value, b.const_float(1e-300, 64))
    b.ret()
    return b.build(), {"a\"; __import__('os')": np.array([1.0, -2.0, math.inf])}


def test_generated_source_holds_only_generated_names_and_numbers():
    function, inputs = _hostile_function()
    generator = _Generator(function)
    source = generator.generate(function.body)
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        assert token.type != tokenize.STRING
        if token.type == tokenize.NAME and token.string not in ("def", "for", "in", "if", "else"):
            assert _ALLOWED_NAMES.match(token.string), token.string
        if token.type == tokenize.NUMBER:
            assert repr(eval(token.string)) == token.string  # noqa: S307 - a numeric literal
    assert sorted(map(repr, generator.constants)) == sorted(["inf", "-inf", "nan", "inf", "-inf", "nan"])
    assert_same_streams(_simulate(function, inputs), _oracle(function, inputs))


def test_no_compiled_code_outlives_a_simulation(gemm_kernel):
    simulate_activity(lower_kernel(gemm_kernel), seed=0)
    gc.collect()
    leftovers = [
        obj
        for obj in gc.get_objects()
        if isinstance(obj, types.FunctionType) and obj.__code__.co_filename == "<activity simulation>"
    ]
    assert leftovers == []


# ------------------------------------------------------------------ profile


def test_profile_lookups_outside_its_streams_are_empty(gemm_kernel):
    design = lower_kernel(gemm_kernel)
    profile = simulate_activity(design, seed=0)
    store = next(i for i in design.function.instructions if i.opcode == Opcode.STORE)
    assert profile.result_stats(store.uid).bit_width == 0  # stores produce no value
    assert profile.operand_stats(store.uid, 2).exec_count == 0  # no third operand
    assert profile.operand_stats(store.uid, -2).exec_count == 0
    assert profile.result_stats(-1).exec_count == 0


def test_profile_rebinds_to_a_relowering(gemm_kernel, atax_kernel):
    first, again = lower_kernel(gemm_kernel), lower_kernel(gemm_kernel)
    profile = simulate_activity(first, seed=0)
    assert profile.for_function(first.function) is profile
    rebound = profile.for_function(again.function)
    pairs = list(zip(first.function.instructions, again.function.instructions))
    for old, new in pairs:
        assert rebound.result_stats(new.uid) == profile.result_stats(old.uid)
        for slot in range(len(old.operands)):
            assert rebound.operand_stats(new.uid, slot) == profile.operand_stats(old.uid, slot)
    assert rebound.result_stats(pairs[0][0].uid).exec_count == 0  # the old uids are gone
    assert list(rebound.result_streams().values()) == list(profile.result_streams().values())
    with pytest.raises(ValueError):
        profile.for_function(lower_kernel(atax_kernel).function)


def test_featurise_across_calls_matches_one_call():
    # Later calls re-lower the IR and reuse the profiles cached by earlier ones.
    kernel = polybench_kernel("gemm", 6)
    points = list(DatasetGenerator(DatasetConfig(kernel_size=6)).design_space_for(kernel))[:12]
    generator = DatasetGenerator(DatasetConfig(kernel_size=6))
    one_at_a_time = [generator.featurise(kernel, [point])[0] for point in points]
    together = DatasetGenerator(DatasetConfig(kernel_size=6)).featurise(kernel, points)
    assert [_sample_bytes(s) for s in one_at_a_time] == [_sample_bytes(s) for s in together]


def test_profiles_retain_a_few_bytes_per_stream():
    kernel = polybench_kernel("gemm", 8)
    generator = DatasetGenerator(DatasetConfig())
    designs = [generator.frontend.lower(kernel, d) for d in _unroll_configurations(generator, kernel)]
    stimuli = StimulusGenerator(seed=1).for_kernel(kernel)
    simulate_activity(designs[0], stimuli)
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.take_snapshot()
        profiles = [simulate_activity(design, stimuli) for design in designs]
        gc.collect()
        growth = tracemalloc.take_snapshot().compare_to(start, "filename")
    finally:
        tracemalloc.stop()
    retained = sum(d.size_diff for d in growth if d.traceback[0].filename == simulator_module.__file__)
    streams = sum(len(p.result_streams()) + len(p.operand_streams()) for p in profiles)
    # An object per stream would cost over 100 bytes; the columns cost about 25.
    assert retained / streams < 40


def test_profile_rejects_streams_of_unknown_instructions():
    stats = ValueStreamStats(bit_width=8, exec_count=1)
    with pytest.raises(ValueError):
        ActivityProfile.from_streams("f", 1, [10, 11], {12: stats}, {})
    with pytest.raises(ValueError):
        ActivityProfile.from_streams("f", 1, [10, 11], {}, {(11, -2): stats})


def test_profile_from_no_streams():
    empty = ActivityProfile.from_streams("none", 0, [], {}, {})
    assert empty.total_hamming() == 0
    assert empty.average_toggle_rate(10) == 0.0
    assert empty.result_streams() == {} and empty.operand_streams() == {}
    assert empty.result_stats(0).exec_count == 0
