"""Core pulse abstractions (paper §4).

The paper reduces pulse-level programming to exactly three abstractions:

* :class:`Port` — a software representation of a hardware input/output
  channel used to manipulate or read out qubits.
* :class:`Frame` — a stateful timing and carrier-signal abstraction
  combining a reference clock, carrier frequency and phase.
* :class:`Waveform` — a time-ordered array of samples defining the
  amplitude envelope of a control signal, either explicit or parametric.

On top of those, this package provides :class:`PulseSchedule`, the
time-ordered container of pulse instructions that every other layer of
the stack (QPI builder, MLIR pulse dialect, QIR pulse profile, QDMI job
payloads, the simulator) produces or consumes, plus the
:class:`PulseConstraints` record used by devices to publish hardware
limits and by the compiler to legalize programs against them.
"""

from repro.core.constraints import PulseConstraints
from repro.core.envelopes import (
    EnvelopeRegistry,
)
from repro.core.frame import Frame, MixedFrame
from repro.core.instructions import (
    Barrier,
    Capture,
    Delay,
    FrameChange,
    Instruction,
    Play,
    SetFrequency,
    SetPhase,
    ShiftFrequency,
    ShiftPhase,
)
from repro.core.port import Port, PortDirection, PortKind
from repro.core.schedule import (
    FamilyBatch,
    PulseSchedule,
    ScheduledInstruction,
    ScheduleFamily,
)
from repro.core.timing import (
    align_up,
    validate_granularity,
)
from repro.core.waveform import (
    ParametricWaveform,
    SampledWaveform,
    ScaledWaveform,
    Waveform,
    constant_waveform,
    gaussian_square_waveform,
    gaussian_waveform,
    drag_waveform,
)

__all__ = [
    "Port",
    "PortKind",
    "PortDirection",
    "Frame",
    "MixedFrame",
    "Waveform",
    "SampledWaveform",
    "ParametricWaveform",
    "ScaledWaveform",
    "gaussian_waveform",
    "drag_waveform",
    "gaussian_square_waveform",
    "constant_waveform",
    "EnvelopeRegistry",
    "Instruction",
    "Play",
    "Delay",
    "Barrier",
    "Capture",
    "SetFrequency",
    "ShiftFrequency",
    "SetPhase",
    "ShiftPhase",
    "FrameChange",
    "PulseSchedule",
    "ScheduleFamily",
    "FamilyBatch",
    "ScheduledInstruction",
    "PulseConstraints",
    "align_up",
    "validate_granularity",
]
