"""Tests for stimulus generation, activity tracing and activity simulation."""

import numpy as np
import pytest

from repro.activity.simulator import simulate_activity
from repro.activity.stimuli import StimulusGenerator, generate_stimuli
from repro.activity.tracer import ActivityTracer, ValueStreamStats
from repro.hls.frontend import lower_kernel
from repro.ir.instructions import Opcode


# --------------------------------------------------------------------------- stimuli


def test_stimuli_cover_all_arrays(gemm_kernel):
    inputs = generate_stimuli(gemm_kernel, seed=0)
    assert set(inputs) == {"A", "B", "C"}
    assert inputs["A"].shape == (6, 6)


def test_stimuli_are_reproducible_and_seed_sensitive(gemm_kernel):
    a = generate_stimuli(gemm_kernel, seed=1)
    b = generate_stimuli(gemm_kernel, seed=1)
    c = generate_stimuli(gemm_kernel, seed=2)
    assert np.allclose(a["A"], b["A"])
    assert not np.allclose(a["A"], c["A"])


def test_stimuli_output_arrays_start_at_zero(atax_kernel):
    inputs = generate_stimuli(atax_kernel, seed=0)
    assert np.allclose(inputs["y"], 0.0)


def test_stimulus_profiles_change_activity(gemm_kernel):
    design = lower_kernel(gemm_kernel)
    uniform = simulate_activity(design, stimuli=generate_stimuli(gemm_kernel, 0, "uniform"))
    sparse = simulate_activity(design, stimuli=generate_stimuli(gemm_kernel, 0, "sparse"))
    assert uniform.total_hamming() > sparse.total_hamming()


def test_stimulus_generator_rejects_unknown_profile():
    with pytest.raises(ValueError):
        StimulusGenerator(profile="chaotic")


# --------------------------------------------------------------------------- tracer


def test_value_stream_stats_accumulates_hamming():
    stats = ValueStreamStats(bit_width=8)
    stats.observe(0b0000)
    stats.observe(0b1111)
    stats.observe(0b1111)  # unchanged: no transition counted
    stats.observe(0b0111)
    assert stats.exec_count == 4
    assert stats.change_count == 2
    assert stats.hamming_sum == 4 + 1
    assert stats.switching_activity(10) == pytest.approx(0.5)
    assert stats.activation_rate(10) == pytest.approx(0.2)


def test_value_stream_stats_requires_positive_latency():
    stats = ValueStreamStats(bit_width=8)
    stats.observe(1)
    with pytest.raises(ValueError):
        stats.switching_activity(0)


def test_value_stream_stats_merge():
    a = ValueStreamStats(bit_width=8)
    b = ValueStreamStats(bit_width=16)
    for value in (0, 3, 0):
        a.observe(value)
    for value in (1, 2):
        b.observe(value)
    merged = a.merged_with(b)
    assert merged.bit_width == 16
    assert merged.exec_count == 5
    assert merged.hamming_sum == a.hamming_sum + b.hamming_sum


def test_value_stream_stats_equality_ignores_the_last_observed_value():
    a = ValueStreamStats(bit_width=8)
    b = ValueStreamStats(bit_width=8)
    for value in (0b000, 0b011, 0b001):
        a.observe(value)
    for value in (0b100, 0b111, 0b101):  # same transitions, different last value
        b.observe(value)
    assert (a.exec_count, a.change_count, a.hamming_sum) == (3, 2, 3)
    assert a == b
    assert ValueStreamStats(bit_width=8).merged_with(a) == a


def test_tracer_edge_activity_directions(gemm_kernel):
    design = lower_kernel(gemm_kernel)
    profile = simulate_activity(design, seed=0)
    # Pick one fmul and its fadd consumer and check both directions are populated.
    fmuls = [i for i in design.function.instructions if i.opcode == Opcode.FMUL]
    assert fmuls
    fmul = fmuls[-1]
    consumers = [
        (instr, slot)
        for instr in design.function.instructions
        for slot, op in enumerate(instr.operands)
        if op is fmul
    ]
    assert consumers
    consumer, slot = consumers[0]
    activity = profile.edge_activity(fmul.uid, consumer.uid, slot, latency=100)
    assert activity.sa_src > 0
    assert activity.sa_snk > 0
    assert activity.ar_src > 0
    assert activity.as_tuple() == (
        activity.sa_src,
        activity.sa_snk,
        activity.ar_src,
        activity.ar_snk,
    )


# --------------------------------------------------------------------------- simulator


def test_activity_profile_counts_dynamic_instructions(gemm_kernel):
    design = lower_kernel(gemm_kernel)
    profile = simulate_activity(design, seed=0)
    assert profile.dynamic_instructions > 6**3  # at least one op per innermost iteration
    assert profile.kernel_name == "gemm"
    assert profile.total_hamming() > 0
    assert profile.average_toggle_rate(1000) > 0


def test_node_activity_features(gemm_kernel):
    design = lower_kernel(gemm_kernel)
    profile = simulate_activity(design, seed=0)
    fadd = next(i for i in design.function.instructions if i.opcode == Opcode.FADD)
    features = profile.node_activity(fadd.uid, len(fadd.operands), latency=500)
    assert set(features) == {
        "activation_rate",
        "input_switching",
        "output_switching",
        "overall_switching",
    }
    assert features["overall_switching"] == pytest.approx(
        features["input_switching"] + features["output_switching"]
    )


def test_activity_unknown_uid_returns_empty_stats(gemm_kernel):
    design = lower_kernel(gemm_kernel)
    profile = simulate_activity(design, seed=0)
    stats = profile.result_stats(10**9)
    assert stats.exec_count == 0
    assert stats.switching_activity(10) == 0.0


def test_tracer_is_attached_by_simulator(atax_kernel):
    design = lower_kernel(atax_kernel)
    profile = simulate_activity(design, seed=1)
    loads = [i for i in design.function.instructions if i.opcode == Opcode.LOAD]
    assert any(profile.result_stats(load.uid).exec_count > 0 for load in loads)


def test_activity_tracer_standalone_observe():
    tracer = ActivityTracer()
    from repro.ir.instructions import Instruction
    from repro.ir.types import FLOAT32

    instr = Instruction(Opcode.FADD, [], FLOAT32, name="x")
    tracer.on_execute(instr, [], 1.0)
    tracer.on_execute(instr, [], 2.0)
    assert tracer.result_stats(instr.uid).exec_count == 2
    assert tracer.observed_instructions == 2
