"""QIR runtime linking: intrinsic calls -> an executable schedule.

"At runtime, the hardware-specific QDMI Device layer would link these
calls to the actual device APIs that implement waveform generation and
scheduling" (paper §5.4). This module is that link step for the
simulated devices: each ``__quantum__pulse__*`` call is resolved to a
core pulse instruction bound to the device's ports, and each
``__quantum__qis__*`` gate call is resolved through the device's
calibration set — which is how gate-level and pulse-level instructions
"seamlessly coexist ... in the same QIR LLVM module".

Unresolvable symbols or malformed handle usage raise
:class:`~repro.errors.LinkError`.
"""

from __future__ import annotations

import json
from typing import Any

from repro.core.frame import Frame
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
from repro.core.schedule import PulseSchedule
from repro.core.waveform import ParametricWaveform, SampledWaveform, ScaledWaveform
from repro.errors import LinkError
from repro.qir.module import PULSE_INTRINSICS, QIS_INTRINSICS, QIRCall, QIRModule
from repro.qir.parser import parse_qir
from repro.qir.profile import validate_profile

import numpy as np


def _string_global(module: QIRModule, name: str) -> str:
    g = module.global_named(name)
    if g.kind != "string":
        raise LinkError(f"global @{name} is not a string constant")
    return str(g.data)


def _array_global(module: QIRModule, name: str) -> np.ndarray:
    g = module.global_named(name)
    if g.kind != "f64_array":
        raise LinkError(f"global @{name} is not a double array")
    return np.asarray(g.data, dtype=np.float64)


class _Linker:
    def __init__(self, module: QIRModule, device: Any) -> None:
        self.module = module
        self.device = device
        self.env: dict[str, Any] = {}
        self.schedule = PulseSchedule(module.entry_name)

    def _resolve(self, call: QIRCall, index: int) -> Any:
        arg = call.args[index]
        if arg.kind == "local":
            try:
                return self.env[str(arg.value)]
            except KeyError:
                raise LinkError(
                    f"@{call.callee}: undefined handle %{arg.value}"
                ) from None
        if arg.kind == "global":
            return str(arg.value)
        return arg.value

    def _bind(self, call: QIRCall, value: Any) -> None:
        if call.result is not None:
            self.env[call.result] = value

    def link(self) -> PulseSchedule:
        report = validate_profile(self.module)
        if not report.valid:
            raise LinkError(
                "QIR profile validation failed: " + "; ".join(report.errors)
            )
        for call in self.module.body:
            if call.callee in PULSE_INTRINSICS:
                self._link_pulse(call)
            elif call.callee in QIS_INTRINSICS:
                self._link_qis(call)
            else:  # pragma: no cover - validation already rejects this
                raise LinkError(f"unresolved symbol @{call.callee}")
        return self.schedule

    # ---- pulse intrinsics ----------------------------------------------------------

    def _link_pulse(self, call: QIRCall) -> None:
        c = call.callee
        if c == "__quantum__pulse__port__body":
            port_name = _string_global(self.module, str(self._resolve(call, 0)))
            self._bind(call, self.device.port(port_name))
        elif c == "__quantum__pulse__frame__body":
            port = self._resolve(call, 0)
            fname = _string_global(self.module, str(self._resolve(call, 1)))
            freq = float(self._resolve(call, 2))
            phase = float(self._resolve(call, 3))
            self._bind(call, Frame(fname, freq, phase))
        elif c == "__quantum__pulse__waveform__body":
            n = int(self._resolve(call, 0))
            re_part = _array_global(self.module, str(self._resolve(call, 1)))
            im_part = _array_global(self.module, str(self._resolve(call, 2)))
            if len(re_part) != n or len(im_part) != n:
                raise LinkError(
                    f"waveform length mismatch: declared {n}, data "
                    f"{len(re_part)}/{len(im_part)}"
                )
            self._bind(call, SampledWaveform(re_part + 1j * im_part))
        elif c == "__quantum__pulse__waveform_parametric__body":
            envelope = _string_global(self.module, str(self._resolve(call, 0)))
            duration = int(self._resolve(call, 1))
            params = json.loads(
                _string_global(self.module, str(self._resolve(call, 2)))
            )
            self._bind(call, ParametricWaveform(envelope, duration, params))
        elif c == "__quantum__pulse__waveform_scale__body":
            shape = self._resolve(call, 0)
            self._bind(call, ScaledWaveform(shape, float(self._resolve(call, 1))))
        elif c == "__quantum__pulse__waveform_play__body":
            port, frame, wf = (self._resolve(call, i) for i in range(3))
            self.schedule.append(Play(port, frame, wf))
        elif c == "__quantum__pulse__frame_change__body":
            port, frame = self._resolve(call, 0), self._resolve(call, 1)
            self.schedule.append(
                FrameChange(
                    port,
                    frame,
                    float(self._resolve(call, 2)),
                    float(self._resolve(call, 3)),
                )
            )
        elif c == "__quantum__pulse__set_frequency__body":
            port, frame = self._resolve(call, 0), self._resolve(call, 1)
            self.schedule.append(
                SetFrequency(port, frame, float(self._resolve(call, 2)))
            )
        elif c == "__quantum__pulse__shift_frequency__body":
            port, frame = self._resolve(call, 0), self._resolve(call, 1)
            self.schedule.append(
                ShiftFrequency(port, frame, float(self._resolve(call, 2)))
            )
        elif c == "__quantum__pulse__set_phase__body":
            port, frame = self._resolve(call, 0), self._resolve(call, 1)
            self.schedule.append(SetPhase(port, frame, float(self._resolve(call, 2))))
        elif c == "__quantum__pulse__shift_phase__body":
            port, frame = self._resolve(call, 0), self._resolve(call, 1)
            self.schedule.append(ShiftPhase(port, frame, float(self._resolve(call, 2))))
        elif c == "__quantum__pulse__delay__body":
            port = self._resolve(call, 0)
            # An i64 literal, or a runtime double holding whole samples.
            duration = self._resolve(call, 1)
            if float(duration) != int(duration):
                raise LinkError(
                    f"delay of {duration!r} samples is not a whole number"
                )
            self.schedule.append(Delay(port, int(duration)))
        elif c == "__quantum__pulse__barrier__body":
            count = int(self._resolve(call, 0))
            ports = [self._resolve(call, 1 + i) for i in range(count)]
            self.schedule.barrier(*ports)
        elif c == "__quantum__pulse__capture__body":
            port, frame = self._resolve(call, 0), self._resolve(call, 1)
            self.schedule.append(
                Capture(
                    port,
                    frame,
                    int(self._resolve(call, 2)),
                    int(self._resolve(call, 3)),
                )
            )
            self._bind(call, None)
        else:  # pragma: no cover
            raise LinkError(f"unhandled pulse intrinsic @{c}")

    # ---- QIS (gate-level) intrinsics -------------------------------------------------

    def _link_qis(self, call: QIRCall) -> None:
        c = call.callee
        cal = self.device.calibrations

        def qubit(index: int) -> int:
            arg = call.args[index]
            if arg.kind != "qubit":
                raise LinkError(f"@{c}: argument {index} is not a %Qubit*")
            return int(arg.value)

        if c == "__quantum__qis__x__body":
            cal.get("x", (qubit(0),)).apply(self.schedule, [])
        elif c == "__quantum__qis__sx__body":
            cal.get("sx", (qubit(0),)).apply(self.schedule, [])
        elif c == "__quantum__qis__rz__body":
            theta = float(self._resolve(call, 0))
            cal.get("rz", (qubit(1),)).apply(self.schedule, [theta])
        elif c == "__quantum__qis__cz__body":
            a, b = sorted((qubit(0), qubit(1)))
            cal.get("cz", (a, b)).apply(self.schedule, [])
        elif c == "__quantum__qis__mz__body":
            q = qubit(0)
            result_arg = call.args[1]
            if result_arg.kind != "result":
                raise LinkError(
                    "@__quantum__qis__mz__body: second arg must be %Result*"
                )
            cal.get("measure", (q,)).apply(self.schedule, [int(result_arg.value)])
        else:  # pragma: no cover
            raise LinkError(f"unhandled QIS intrinsic @{c}")


def link_qir_to_schedule(payload: "QIRModule | str", device: Any) -> PulseSchedule:
    """Link a QIR payload (text or module) against *device*."""
    module = parse_qir(payload) if isinstance(payload, str) else payload
    return _Linker(module, device).link()
