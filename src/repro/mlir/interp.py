"""Pulse-dialect interpreter: ``pulse.sequence`` -> ``PulseSchedule``.

This is the executable semantics of the pulse dialect. The interpreter
binds the sequence's block arguments — mixed frames through the
``pulse.argPorts`` attribute resolved against a *target* (any object
with ``port(name)``, ``default_frame(port)`` and ``calibrations``, i.e.
a :class:`~repro.devices.base.SimulatedDevice`), scalars from a
user-supplied dictionary — then walks the body appending core
instructions with the same as-soon-as-possible placement the QPI
builder uses. Two representations of a kernel that interpret to
equivalent schedules *are* the same program; that is the equivalence
the paper's Listings 1-3 claim and experiment E1 checks.
"""

from __future__ import annotations

from typing import Any, Mapping, Protocol

from repro.core.frame import Frame, MixedFrame
from repro.core.instructions import (
    Capture,
    Delay,
    FrameChange,
    Play,
    SetFrequency,
    SetPhase,
    ShiftFrequency,
    ShiftPhase,
)
from repro.core.port import Port
from repro.core.schedule import PulseSchedule
from repro.core.waveform import ScaledWaveform
from repro.errors import IRError, ValidationError
from repro.mlir.dialects.pulse import MIXED_FRAME, attrs_to_waveform, find_sequence
from repro.mlir.ir import F64, Module, Operation, Value


class PulseTarget(Protocol):
    """What the interpreter needs from a device."""

    def port(self, name: str) -> Port: ...

    def default_frame(self, port: Port) -> Frame: ...

    @property
    def calibrations(self) -> Any: ...


def _scalar(op: Operation, env: dict, keys: tuple[str, ...]) -> list[float]:
    """Resolve scalar inputs: attributes win, remaining SSA operands
    (after the mixed frame) fill the missing keys in order."""
    ssa = [env[v] for v in op.operands[1:]]
    out: list[float] = []
    it = iter(ssa)
    for key in keys:
        if op.attr(key) is not None:
            out.append(float(op.attr(key)))
        else:
            try:
                out.append(float(next(it)))
            except StopIteration:
                raise IRError(f"{op.name}: missing scalar input {key!r}") from None
    return out


def sequence_to_schedule(
    sequence: Operation,
    target: PulseTarget,
    scalar_args: Mapping[str, float] | None = None,
    *,
    name: str | None = None,
    resolved: list | None = None,
) -> PulseSchedule:
    """Interpret one ``pulse.sequence`` op into a pulse schedule.

    *resolved*, when given, receives ``(item index, offset)`` for each
    framed item placed through a mixed frame the device resolves (the
    port's default frame shifted by *offset* Hz), and ``(item index,
    None)`` for each framed item a calibration (``pulse.standard_x``)
    placed, whose frame the program does not name.
    """
    if sequence.name != "pulse.sequence":
        raise IRError(f"expected pulse.sequence, got {sequence.name!r}")
    scalar_args = dict(scalar_args or {})
    entry = sequence.region().entry
    arg_ports = sequence.attr("pulse.argPorts") or [""] * len(entry.arguments)
    arg_names = sequence.attr("pulse.args") or [a.name for a in entry.arguments]

    # Optional frame declarations, one entry per argument ([] for
    # scalars): an exact [name, frequency, phase] frame (written by the
    # schedule->IR lift), or ["default", offset], the port's default
    # frame shifted by offset Hz. A frame the device resolves (an
    # offset entry, or no entry) follows its calibrated frequency.
    arg_frames = sequence.attr("pulse.argFrames")

    env: dict[Value, Any] = {}
    offsets: dict[Value, float] = {}
    for i, (arg, port_name, arg_name) in enumerate(
        zip(entry.arguments, arg_ports, arg_names)
    ):
        if arg.type == MIXED_FRAME:
            port = target.port(port_name)
            declared = arg_frames[i] if arg_frames is not None else None
            if declared and len(declared) == 3:
                fname, ffreq, fphase = declared
                frame = Frame(str(fname), float(ffreq), float(fphase))
            elif declared and (len(declared) != 2 or declared[0] != "default"):
                raise IRError(f"malformed pulse.argFrames entry {declared!r}")
            else:
                offset = float(declared[1]) if declared else 0.0
                base = target.default_frame(port)
                frame = Frame(base.name, base.frequency + offset, base.phase)
                offsets[arg] = offset
            env[arg] = MixedFrame(port, frame)
        elif arg.type == F64:
            if arg_name not in scalar_args:
                raise IRError(
                    f"pulse.sequence {sequence.attr('sym_name')!r}: missing "
                    f"scalar argument {arg_name!r}"
                )
            env[arg] = float(scalar_args[arg_name])
        else:
            raise IRError(f"unsupported sequence argument type {arg.type}")

    schedule = PulseSchedule(name or sequence.attr("sym_name") or "sequence")
    for op in entry.operations:
        start = len(schedule._items)
        _interpret_op(op, env, schedule, target)
        if resolved is None or not op.operands:
            continue
        standard = op.name in _STANDARD_OPS
        if standard or op.operands[0] in offsets:
            offset = None if standard else offsets[op.operands[0]]
            resolved.extend(
                (idx, offset)
                for idx in range(start, len(schedule._items))
                if hasattr(schedule._items[idx].instruction, "frame")
            )
    return schedule


#: Ops that apply a device calibration instead of naming frames.
_STANDARD_OPS = ("pulse.standard_x", "pulse.standard_sx")


def _mf(op: Operation, env: dict) -> MixedFrame:
    mf = env.get(op.operands[0])
    if not isinstance(mf, MixedFrame):
        raise IRError(f"{op.name}: first operand is not a mixed frame")
    return mf


def _interpret_op(
    op: Operation, env: dict, schedule: PulseSchedule, target: PulseTarget
) -> None:
    name = op.name
    if name == "pulse.waveform":
        waveform = attrs_to_waveform(op.attributes)
        if op.operands:
            waveform = ScaledWaveform(waveform, float(env[op.operands[0]]))
        env[op.result()] = waveform
    elif name == "pulse.play":
        mf = _mf(op, env)
        wf = env.get(op.operands[1])
        if wf is None:
            raise IRError("pulse.play: waveform operand not materialized")
        schedule.append(Play(mf.port, mf.frame, wf))
    elif name == "pulse.frame_change":
        mf = _mf(op, env)
        freq, phase = _scalar(op, env, ("frequency", "phase"))
        schedule.append(FrameChange(mf.port, mf.frame, freq, phase))
    elif name == "pulse.set_frequency":
        mf = _mf(op, env)
        (freq,) = _scalar(op, env, ("frequency",))
        schedule.append(SetFrequency(mf.port, mf.frame, freq))
    elif name == "pulse.shift_frequency":
        mf = _mf(op, env)
        (delta,) = _scalar(op, env, ("delta",))
        schedule.append(ShiftFrequency(mf.port, mf.frame, delta))
    elif name == "pulse.set_phase":
        mf = _mf(op, env)
        (phase,) = _scalar(op, env, ("phase",))
        schedule.append(SetPhase(mf.port, mf.frame, phase))
    elif name == "pulse.shift_phase":
        mf = _mf(op, env)
        (delta,) = _scalar(op, env, ("delta",))
        schedule.append(ShiftPhase(mf.port, mf.frame, delta))
    elif name == "pulse.delay":
        mf = _mf(op, env)
        if len(op.operands) > 1:
            duration = float(env[op.operands[1]])
            if not duration.is_integer():
                raise ValidationError(
                    f"pulse.delay: duration {duration!r} is not a whole "
                    "number of samples"
                )
        else:
            duration = op.attr("duration")
        schedule.append(Delay(mf.port, int(duration)))
    elif name == "pulse.barrier":
        ports = []
        for v in op.operands:
            mf = env.get(v)
            if not isinstance(mf, MixedFrame):
                raise IRError("pulse.barrier: operands must be mixed frames")
            ports.append(mf.port)
        schedule.barrier(*ports)
    elif name == "pulse.capture":
        mf = _mf(op, env)
        schedule.append(
            Capture(
                mf.port,
                mf.frame,
                int(op.attr("slot")),
                int(op.attr("duration") or 0),
            )
        )
        env[op.result()] = None  # classical bit, unknown until execution
    elif name in _STANDARD_OPS:
        mf = _mf(op, env)
        site = mf.port.targets[0]
        gate = "x" if name.endswith("standard_x") else "sx"
        target.calibrations.get(gate, (site,)).apply(schedule, [])
    elif name == "pulse.return":
        pass  # results are delivered through captures
    else:
        raise IRError(f"pulse interpreter: unsupported operation {name!r}")


def module_to_schedule(
    module: Module,
    target: PulseTarget,
    scalar_args: Mapping[str, float] | None = None,
    *,
    sequence_name: str | None = None,
    resolved: list | None = None,
) -> PulseSchedule:
    """Interpret a pulse module (its only / named sequence); *resolved*
    as in :func:`sequence_to_schedule`."""
    if sequence_name is not None:
        seq = find_sequence(module, sequence_name)
    else:
        seqs = module.ops_of("pulse.sequence")
        if len(seqs) != 1:
            raise IRError(
                f"module has {len(seqs)} pulse.sequence ops; specify "
                "sequence_name"
            )
        seq = seqs[0]
    return sequence_to_schedule(seq, target, scalar_args, resolved=resolved)
