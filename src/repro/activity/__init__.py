"""Switching-activity extraction (Section III-A, feature annotation).

The paper instruments the HLS IR with detection probes, links them with the
C testbench, and executes the result to trace the values flowing over every
DFG edge; switching activities (Eq. 2) and activation rates (Eq. 3) are then
computed from Hamming distances between consecutive values.  Here the
stimulus generator plays the role of the C testbench and the compiled
simulator (:mod:`repro.activity.compiled`) the role of the instrumented
executable: it translates each lowered function once into straight-line
Python, records the value streams and reduces them in bulk with numpy into a
columnar :class:`~repro.activity.simulator.ActivityProfile`.

:class:`~repro.ir.interpreter.IRInterpreter` with an
:class:`~repro.activity.tracer.ActivityTracer` attached computes the same
statistics one dynamic instruction at a time; it is kept as the test oracle
the compiled simulator must match exactly.
"""

from repro.activity.stimuli import StimulusGenerator, generate_stimuli
from repro.activity.tracer import ActivityTracer, ValueStreamStats, EdgeActivity
from repro.activity.simulator import ActivityProfile, simulate_activity

__all__ = [
    "StimulusGenerator",
    "generate_stimuli",
    "ActivityTracer",
    "ValueStreamStats",
    "EdgeActivity",
    "ActivityProfile",
    "simulate_activity",
]
