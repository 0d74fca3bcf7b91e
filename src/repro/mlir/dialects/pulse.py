"""The ``pulse`` dialect — the IBM-pulse-dialect stand-in (paper §5.2).

Types: ``!pulse.port``, ``!pulse.frame``, ``!pulse.mixed_frame``,
``!pulse.waveform`` — the exact type vocabulary of the paper's
Listing 2.

Ops (mirroring Listing 2 plus the gate-analogs the paper enumerates:
"barrier, delay, shift_phase, set_phase, shift_frequency,
set_frequency, and play are defined to sequence and modulate pulses
instead of qubits; readout is implemented by performing a play on a
readout frame followed by a capture"):

``pulse.sequence``
    Function-like container. Attrs ``sym_name``, ``pulse.argPorts``
    (port name per block argument, ``""`` for scalars) and
    ``pulse.args`` (human-readable argument names). Block arguments are
    typed ``!pulse.mixed_frame`` or ``f64``.
``pulse.waveform(amp?)`` -> !pulse.waveform
    Waveform constant: parametric ({envelope, duration, params}) or
    explicit ({samples = [[re, im], ...]}). An optional ``f64``
    operand (or a ``scale`` attribute, what the lift writes for a
    bound one) multiplies every sample: the amplitude a sweep binds.
``pulse.play(mf, wf)``
``pulse.frame_change(mf)`` {frequency, phase} — or SSA f64 operands.
``pulse.set_frequency / shift_frequency / set_phase / shift_phase``
``pulse.delay(mf, dur?)`` {duration} — or one ``f64`` SSA operand
    holding a whole number of samples.
``pulse.barrier(mf...)``
``pulse.capture(mf) -> i1`` {slot, duration}
``pulse.standard_x / standard_sx (mf)`` — calibrated gate defaults
    usable inside pulse programs (Listing 2 step 1).
``pulse.return(bits...)``
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.waveform import (
    ParametricWaveform,
    SampledWaveform,
    ScaledWaveform,
    Waveform,
)
from repro.errors import IRError
from repro.mlir.context import Dialect, OpSpec
from repro.mlir.ir import (
    F64,
    I1,
    Block,
    Builder,
    Module,
    Operation,
    Region,
    Type,
    Value,
)

#: Dialect type singletons.
PORT = Type("!pulse.port")
FRAME = Type("!pulse.frame")
MIXED_FRAME = Type("!pulse.mixed_frame")
WAVEFORM = Type("!pulse.waveform")


# ---- verifiers ---------------------------------------------------------------


def _verify_sequence(op: Operation) -> None:
    if not isinstance(op.attr("sym_name"), str) or not op.attr("sym_name"):
        raise IRError("pulse.sequence: missing sym_name attribute")
    entry = op.region().entry
    arg_ports = op.attr("pulse.argPorts")
    if arg_ports is not None:
        if not isinstance(arg_ports, list) or len(arg_ports) != len(entry.arguments):
            raise IRError(
                "pulse.sequence: pulse.argPorts must list one entry per "
                "block argument"
            )
        for arg, port_name in zip(entry.arguments, arg_ports):
            if arg.type == MIXED_FRAME and not port_name:
                raise IRError(
                    f"pulse.sequence: mixed-frame argument %{arg.name} needs "
                    "a port name in pulse.argPorts"
                )
    for arg in entry.arguments:
        if arg.type not in (MIXED_FRAME, F64):
            raise IRError(
                f"pulse.sequence: argument %{arg.name} has unsupported type "
                f"{arg.type}"
            )


def _verify_scalar_operands(op: Operation, first: int) -> None:
    """At most one ``f64`` operand after the first *first* operands."""
    extra = op.operands[first:]
    if len(extra) > 1:
        raise IRError(
            f"{op.name}: takes at most one f64 operand, got {len(extra)}"
        )
    for v in extra:
        if v.type != F64:
            raise IRError(
                f"{op.name}: operand %{v.name} has type {v.type}, expected f64"
            )


def _verify_waveform(op: Operation) -> None:
    if op.result().type != WAVEFORM:
        raise IRError("pulse.waveform: result must be !pulse.waveform")
    _verify_scalar_operands(op, 0)
    scale = op.attr("scale")
    if scale is not None and (op.operands or not isinstance(scale, (int, float))):
        raise IRError(
            "pulse.waveform: 'scale' must be a number, and not beside an "
            "amplitude operand"
        )
    has_env = op.attr("envelope") is not None
    has_samples = op.attr("samples") is not None
    if has_env == has_samples:
        raise IRError(
            "pulse.waveform: exactly one of 'envelope' (+duration, params) "
            "or 'samples' must be given"
        )
    if has_env:
        if not isinstance(op.attr("duration"), int) or op.attr("duration") <= 0:
            raise IRError("pulse.waveform: 'duration' must be a positive int")
        if not isinstance(op.attr("params"), dict):
            raise IRError("pulse.waveform: 'params' must be a dict")
    else:
        samples = op.attr("samples")
        if not isinstance(samples, list) or not samples:
            raise IRError("pulse.waveform: 'samples' must be a non-empty list")
        for s in samples:
            if not (isinstance(s, list) and len(s) == 2):
                raise IRError(
                    "pulse.waveform: samples must be [re, im] pairs"
                )


def _expect_types(op: Operation, *types: Type) -> None:
    if len(op.operands) != len(types):
        raise IRError(
            f"{op.name}: expected {len(types)} operands, got {len(op.operands)}"
        )
    for v, t in zip(op.operands, types):
        if v.type != t:
            raise IRError(
                f"{op.name}: operand %{v.name} has type {v.type}, expected {t}"
            )


def _verify_play(op: Operation) -> None:
    _expect_types(op, MIXED_FRAME, WAVEFORM)


def _verify_frame_update(op: Operation) -> None:
    """frame_change and set/shift ops: first operand is the mixed frame;
    numeric inputs come either as f64 SSA operands or as attributes."""
    if not op.operands or op.operands[0].type != MIXED_FRAME:
        raise IRError(f"{op.name}: first operand must be !pulse.mixed_frame")
    for extra in op.operands[1:]:
        if extra.type != F64:
            raise IRError(f"{op.name}: scalar operands must be f64")
    n_scalar_operands = len(op.operands) - 1
    needed = {
        "pulse.frame_change": ("frequency", "phase"),
        "pulse.set_frequency": ("frequency",),
        "pulse.shift_frequency": ("delta",),
        "pulse.set_phase": ("phase",),
        "pulse.shift_phase": ("delta",),
    }[op.name]
    n_attrs = sum(1 for k in needed if op.attr(k) is not None)
    if n_scalar_operands + n_attrs != len(needed):
        raise IRError(
            f"{op.name}: needs {needed} via operands or attributes "
            f"(got {n_scalar_operands} operands, {n_attrs} attributes)"
        )


def _verify_delay(op: Operation) -> None:
    if not op.operands or op.operands[0].type != MIXED_FRAME:
        raise IRError("pulse.delay: first operand must be !pulse.mixed_frame")
    _verify_scalar_operands(op, 1)
    if is_dynamic(op):
        if op.attr("duration") is not None:
            raise IRError(
                "pulse.delay: give the duration as an operand or an "
                "attribute, not both"
            )
        return
    if not isinstance(op.attr("duration"), int) or op.attr("duration") < 0:
        raise IRError("pulse.delay: 'duration' must be a non-negative int")


def is_dynamic(op: Operation) -> bool:
    """Whether a ``pulse.waveform``/``pulse.delay`` takes its amplitude
    or duration from an SSA operand (a value known only when bound)."""
    return len(op.operands) > (1 if op.name == "pulse.delay" else 0)


def _verify_barrier(op: Operation) -> None:
    if not op.operands:
        raise IRError("pulse.barrier: needs at least one mixed frame")
    for v in op.operands:
        if v.type != MIXED_FRAME:
            raise IRError("pulse.barrier: all operands must be mixed frames")


def _verify_capture(op: Operation) -> None:
    _expect_types(op, MIXED_FRAME)
    if op.result().type != I1:
        raise IRError("pulse.capture: result must be i1")
    if not isinstance(op.attr("slot"), int) or op.attr("slot") < 0:
        raise IRError("pulse.capture: 'slot' must be a non-negative int")


def _verify_standard_gate(op: Operation) -> None:
    _expect_types(op, MIXED_FRAME)


def pulse_dialect() -> Dialect:
    """Construct the pulse dialect with all op specs registered."""
    d = Dialect("pulse")
    for short in ("port", "frame", "mixed_frame", "waveform"):
        d.register_type(short)
    d.register_op(
        OpSpec("pulse.sequence", 0, 0, has_region=True, verifier=_verify_sequence)
    )
    d.register_op(OpSpec("pulse.waveform", -1, 1, verifier=_verify_waveform))
    d.register_op(OpSpec("pulse.play", 2, 0, verifier=_verify_play))
    d.register_op(OpSpec("pulse.frame_change", -1, 0, verifier=_verify_frame_update))
    d.register_op(OpSpec("pulse.set_frequency", -1, 0, verifier=_verify_frame_update))
    d.register_op(OpSpec("pulse.shift_frequency", -1, 0, verifier=_verify_frame_update))
    d.register_op(OpSpec("pulse.set_phase", -1, 0, verifier=_verify_frame_update))
    d.register_op(OpSpec("pulse.shift_phase", -1, 0, verifier=_verify_frame_update))
    d.register_op(OpSpec("pulse.delay", -1, 0, verifier=_verify_delay))
    d.register_op(OpSpec("pulse.barrier", -1, 0, verifier=_verify_barrier))
    d.register_op(OpSpec("pulse.capture", 1, 1, verifier=_verify_capture))
    d.register_op(OpSpec("pulse.standard_x", 1, 0, verifier=_verify_standard_gate))
    d.register_op(OpSpec("pulse.standard_sx", 1, 0, verifier=_verify_standard_gate))
    d.register_op(OpSpec("pulse.return", -1, 0))
    return d


# ---- waveform <-> attribute conversion -------------------------------------------


def waveform_to_attrs(waveform: Waveform) -> dict[str, Any]:
    """Encode a core waveform as pulse.waveform attributes.

    Parametric waveforms keep their symbolic form (envelope + params);
    sampled waveforms are stored as explicit [re, im] pairs. A scaled
    waveform is its base's attributes plus ``scale``.
    """
    if isinstance(waveform, ScaledWaveform):
        return {**waveform_to_attrs(waveform.base), "scale": waveform.scale}
    if isinstance(waveform, ParametricWaveform):
        return {
            "envelope": waveform.envelope,
            "duration": waveform.duration,
            "params": waveform.parameters,
        }
    samples = waveform.samples()
    return {
        "samples": [[float(s.real), float(s.imag)] for s in samples],
    }


def attrs_to_waveform(attrs: dict[str, Any]) -> Waveform:
    """Decode pulse.waveform attributes back into a core waveform."""
    if attrs.get("scale") is not None:
        base = {k: v for k, v in attrs.items() if k != "scale"}
        return ScaledWaveform(attrs_to_waveform(base), float(attrs["scale"]))
    if attrs.get("envelope") is not None:
        return ParametricWaveform(
            attrs["envelope"], int(attrs["duration"]), dict(attrs["params"])
        )
    samples = np.array(
        [complex(re, im) for re, im in attrs["samples"]], dtype=np.complex128
    )
    return SampledWaveform(samples)


# ---- sequence builder ----------------------------------------------------------------


class SequenceBuilder:
    """Convenience builder for ``pulse.sequence`` ops.

    Mixed-frame arguments are declared with the port they bind to
    (filling ``pulse.argPorts``), scalar arguments with a name; the
    instruction methods then mirror the dialect ops one-to-one.
    """

    def __init__(self, name: str, module: Module | None = None):
        self.module = module if module is not None else Module()
        self._block = Block()
        self.sequence = Operation(
            "pulse.sequence",
            attributes={
                "sym_name": name,
                "pulse.argPorts": [],
                "pulse.args": [],
            },
            regions=[Region([self._block])],
        )
        self.module.append(self.sequence)
        self._builder = Builder(self._block)
        self._wf_count = 0

    # -- arguments -------------------------------------------------------------

    def add_mixed_frame_arg(self, name: str, port_name: str) -> Value:
        """Declare a mixed-frame argument bound to *port_name*."""
        v = Value(MIXED_FRAME, name, owner=self._block)
        self._block.arguments.append(v)
        self.sequence.attributes["pulse.argPorts"].append(port_name)
        self.sequence.attributes["pulse.args"].append(name)
        return v

    def add_scalar_arg(self, name: str) -> Value:
        """Declare an f64 scalar argument."""
        v = Value(F64, name, owner=self._block)
        self._block.arguments.append(v)
        self.sequence.attributes["pulse.argPorts"].append("")
        self.sequence.attributes["pulse.args"].append(name)
        return v

    # -- ops --------------------------------------------------------------------

    def waveform(
        self,
        waveform: Waveform,
        name: str | None = None,
        *,
        amplitude: Value | None = None,
    ) -> Value:
        """Materialize a waveform constant; returns its SSA value.

        *amplitude*, an ``f64`` value, multiplies every sample.
        """
        self._wf_count += 1
        op = self._builder.create(
            "pulse.waveform",
            [] if amplitude is None else [amplitude],
            result_types=[WAVEFORM],
            attributes=waveform_to_attrs(waveform),
            result_names=[name or f"wf{self._wf_count}"],
        )
        return op.result()

    def play(self, mixed_frame: Value, waveform: Value) -> Operation:
        """Play *waveform* on *mixed_frame*."""
        return self._builder.create("pulse.play", [mixed_frame, waveform])

    def frame_change(
        self, mixed_frame: Value, frequency: "Value | float", phase: "Value | float"
    ) -> Operation:
        """Combined frequency+phase update; scalars may be SSA or constants."""
        operands = [mixed_frame]
        attrs: dict[str, Any] = {}
        if isinstance(frequency, Value):
            operands.append(frequency)
        else:
            attrs["frequency"] = float(frequency)
        if isinstance(phase, Value):
            operands.append(phase)
        else:
            attrs["phase"] = float(phase)
        return self._builder.create("pulse.frame_change", operands, attributes=attrs)

    def set_frequency(
        self, mixed_frame: Value, frequency: "Value | float"
    ) -> Operation:
        if isinstance(frequency, Value):
            return self._builder.create(
                "pulse.set_frequency", [mixed_frame, frequency]
            )
        return self._builder.create(
            "pulse.set_frequency",
            [mixed_frame],
            attributes={"frequency": float(frequency)},
        )

    def shift_phase(self, mixed_frame: Value, delta: "Value | float") -> Operation:
        if isinstance(delta, Value):
            return self._builder.create("pulse.shift_phase", [mixed_frame, delta])
        return self._builder.create(
            "pulse.shift_phase", [mixed_frame], attributes={"delta": float(delta)}
        )

    def set_phase(self, mixed_frame: Value, phase: "Value | float") -> Operation:
        if isinstance(phase, Value):
            return self._builder.create("pulse.set_phase", [mixed_frame, phase])
        return self._builder.create(
            "pulse.set_phase", [mixed_frame], attributes={"phase": float(phase)}
        )

    def shift_frequency(self, mixed_frame: Value, delta: "Value | float") -> Operation:
        if isinstance(delta, Value):
            return self._builder.create("pulse.shift_frequency", [mixed_frame, delta])
        return self._builder.create(
            "pulse.shift_frequency", [mixed_frame], attributes={"delta": float(delta)}
        )

    def delay(self, mixed_frame: Value, duration: "Value | int") -> Operation:
        """Idle the mixed frame for *duration* samples (an ``f64`` value
        holding a whole number of samples, or a constant)."""
        if isinstance(duration, Value):
            return self._builder.create("pulse.delay", [mixed_frame, duration])
        return self._builder.create(
            "pulse.delay", [mixed_frame], attributes={"duration": int(duration)}
        )

    def barrier(self, *mixed_frames: Value) -> Operation:
        """Synchronize the listed mixed frames."""
        return self._builder.create("pulse.barrier", list(mixed_frames))

    def capture(self, mixed_frame: Value, slot: int, duration: int = 0) -> Value:
        """Acquire a bit from *mixed_frame* into classical *slot*."""
        op = self._builder.create(
            "pulse.capture",
            [mixed_frame],
            result_types=[I1],
            attributes={"slot": int(slot), "duration": int(duration)},
            result_names=[f"m{slot}"],
        )
        return op.result()

    def standard_x(self, mixed_frame: Value) -> Operation:
        """Calibrated X gate on the mixed frame's site (Listing 2 step 1)."""
        return self._builder.create("pulse.standard_x", [mixed_frame])

    def ret(self, *bits: Value) -> Operation:
        """Terminate the sequence, returning the captured bits."""
        return self._builder.create("pulse.return", list(bits))


def sequence_ops(module: Module) -> list[Operation]:
    """All pulse.sequence ops in *module*."""
    return module.ops_of("pulse.sequence")


def find_sequence(module: Module, name: str) -> Operation:
    """The pulse.sequence with sym_name *name*; raises if absent."""
    for op in sequence_ops(module):
        if op.attr("sym_name") == name:
            return op
    raise IRError(f"no pulse.sequence named {name!r} in module")
