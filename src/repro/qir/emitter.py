"""QIR emission: pulse schedule -> QIR text with the Pulse Profile.

The emitter produces exactly the shape of the paper's Listing 3:

* opaque ``%Port``/``%Frame``/``%Waveform`` types,
* ``__quantum__pulse__*`` intrinsic calls constructing waveforms and
  playing them on ports,
* the ``#0`` attribute group with ``qir_profiles="pulse"``,
  ``output_labeling_schema`` and ``required_num_ports``.

Like the schedule->MLIR lift, event times are pinned with explicit
delay intrinsics so the linker's ASAP replay reconstructs the exact
schedule; sampled waveforms become double-array globals (separate
re/im tables), parametric waveforms stay symbolic through a JSON
parameter string — keeping the payload small when the device can
evaluate envelopes natively. A scaled waveform is its shape passed
through ``__quantum__pulse__waveform_scale__body`` with the amplitude
as a runtime ``double``.
"""

from __future__ import annotations

import json
import re

from repro.core.frame import Frame
from repro.core.instructions import (
    Barrier,
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
from repro.core.waveform import ParametricWaveform, ScaledWaveform
from repro.errors import ValidationError
from repro.qir.module import QIRArg, QIRCall, QIRGlobal, QIRModule


def _sanitize(name: str) -> str:
    return re.sub(r"[^0-9A-Za-z_]", "_", name)


class _Emitter:
    def __init__(self, schedule: PulseSchedule, name: str) -> None:
        self.schedule = schedule
        self.module = QIRModule(module_id=name, entry_name=name)
        self._string_globals: dict[str, str] = {}
        self._ports: dict[str, str] = {}  # port name -> SSA name
        self._frames: dict[tuple[str, str], str] = {}  # (port, frame) -> SSA
        self._waveforms: dict[str, str] = {}  # fingerprint -> SSA
        self._ssa = 0

    def _fresh(self, prefix: str) -> str:
        self._ssa += 1
        return f"{prefix}{self._ssa}"

    def _string(self, text: str) -> str:
        """Intern a string constant; returns the global's name."""
        if text not in self._string_globals:
            gname = f"s_{_sanitize(text)}_{len(self._string_globals)}"
            self._string_globals[text] = gname
            self.module.globals.append(QIRGlobal(gname, "string", text))
        return self._string_globals[text]

    def _port_value(self, port: Port) -> str:
        if port.name not in self._ports:
            ssa = self._fresh("port")
            self.module.body.append(
                QIRCall(
                    "__quantum__pulse__port__body",
                    [QIRArg("i8*", "global", self._string(port.name))],
                    result=ssa,
                    result_type="%Port*",
                )
            )
            self._ports[port.name] = ssa
        return self._ports[port.name]

    def _frame_value(self, port: Port, frame: Frame) -> str:
        key = (port.name, frame.name)
        if key not in self._frames:
            pssa = self._port_value(port)
            ssa = self._fresh("frame")
            self.module.body.append(
                QIRCall(
                    "__quantum__pulse__frame__body",
                    [
                        QIRArg("%Port*", "local", pssa),
                        QIRArg("i8*", "global", self._string(frame.name)),
                        QIRArg("double", "literal", float(frame.frequency)),
                        QIRArg("double", "literal", float(frame.phase)),
                    ],
                    result=ssa,
                    result_type="%Frame*",
                )
            )
            self._frames[key] = ssa
        return self._frames[key]

    def _waveform_value(self, waveform) -> str:
        fp = waveform.fingerprint()
        if fp in self._waveforms:
            return self._waveforms[fp]
        if isinstance(waveform, ScaledWaveform):
            shape = self._waveform_value(waveform.base)
            ssa = self._fresh("wf")
            self.module.body.append(
                QIRCall(
                    "__quantum__pulse__waveform_scale__body",
                    [
                        QIRArg("%Waveform*", "local", shape),
                        QIRArg("double", "literal", waveform.scale),
                    ],
                    result=ssa,
                    result_type="%Waveform*",
                )
            )
            self._waveforms[fp] = ssa
            return ssa
        ssa = self._fresh("wf")
        if isinstance(waveform, ParametricWaveform):
            params_json = json.dumps(waveform.parameters, sort_keys=True)
            self.module.body.append(
                QIRCall(
                    "__quantum__pulse__waveform_parametric__body",
                    [
                        QIRArg("i8*", "global", self._string(waveform.envelope)),
                        QIRArg("i64", "literal", int(waveform.duration)),
                        QIRArg("i8*", "global", self._string(params_json)),
                    ],
                    result=ssa,
                    result_type="%Waveform*",
                )
            )
        else:
            samples = waveform.samples()
            re_name = f"wfdata_re_{len(self.module.globals)}"
            self.module.globals.append(
                QIRGlobal(re_name, "f64_array", [float(v) for v in samples.real])
            )
            im_name = f"wfdata_im_{len(self.module.globals)}"
            self.module.globals.append(
                QIRGlobal(im_name, "f64_array", [float(v) for v in samples.imag])
            )
            self.module.body.append(
                QIRCall(
                    "__quantum__pulse__waveform__body",
                    [
                        QIRArg("i64", "literal", int(waveform.duration)),
                        QIRArg("double*", "global", re_name),
                        QIRArg("double*", "global", im_name),
                    ],
                    result=ssa,
                    result_type="%Waveform*",
                )
            )
        self._waveforms[fp] = ssa
        return ssa

    # ---- body -------------------------------------------------------------------

    def emit(self) -> QIRModule:
        port_free: dict[str, int] = {}
        result_count = 0
        for item in self.schedule.ordered():
            ins = item.instruction
            if isinstance(ins, (Barrier, Delay)):
                # Pure timing: the gap logic below regenerates the exact
                # delay calls needed to pin the next event's start time,
                # so emit(link(emit(s))) is a fixed point.
                continue
            pname = ins.port.name
            free = port_free.get(pname, 0)
            if free < item.t0:
                self.module.body.append(
                    QIRCall(
                        "__quantum__pulse__delay__body",
                        [
                            QIRArg("%Port*", "local", self._port_value(ins.port)),
                            QIRArg("i64", "literal", item.t0 - free),
                        ],
                    )
                )
            elif free > item.t0:
                raise ValidationError(
                    f"QIR emission: event at t={item.t0} on {pname!r} "
                    f"precedes port free time {free}"
                )
            self._emit_instruction(ins)
            if isinstance(ins, Capture):
                result_count += 1
            port_free[pname] = item.t0 + ins.duration

        self.module.attributes.update(
            {
                "entry_point": "",
                "qir_profiles": "pulse",
                "output_labeling_schema": "schedule_v1",
                "required_num_ports": str(len(self._ports)),
                "required_num_results": str(result_count),
            }
        )
        return self.module

    def _emit_instruction(self, ins) -> None:
        def pf(instruction) -> list[QIRArg]:
            return [
                QIRArg("%Port*", "local", self._port_value(instruction.port)),
                QIRArg(
                    "%Frame*",
                    "local",
                    self._frame_value(instruction.port, instruction.frame),
                ),
            ]

        if isinstance(ins, Play):
            self.module.body.append(
                QIRCall(
                    "__quantum__pulse__waveform_play__body",
                    pf(ins)
                    + [
                        QIRArg(
                            "%Waveform*", "local", self._waveform_value(ins.waveform)
                        )
                    ],
                )
            )
        elif isinstance(ins, FrameChange):
            self.module.body.append(
                QIRCall(
                    "__quantum__pulse__frame_change__body",
                    pf(ins)
                    + [
                        QIRArg("double", "literal", float(ins.frequency)),
                        QIRArg("double", "literal", float(ins.phase)),
                    ],
                )
            )
        elif isinstance(ins, SetFrequency):
            self.module.body.append(
                QIRCall(
                    "__quantum__pulse__set_frequency__body",
                    pf(ins) + [QIRArg("double", "literal", float(ins.frequency))],
                )
            )
        elif isinstance(ins, ShiftFrequency):
            self.module.body.append(
                QIRCall(
                    "__quantum__pulse__shift_frequency__body",
                    pf(ins) + [QIRArg("double", "literal", float(ins.delta))],
                )
            )
        elif isinstance(ins, SetPhase):
            self.module.body.append(
                QIRCall(
                    "__quantum__pulse__set_phase__body",
                    pf(ins) + [QIRArg("double", "literal", float(ins.phase))],
                )
            )
        elif isinstance(ins, ShiftPhase):
            self.module.body.append(
                QIRCall(
                    "__quantum__pulse__shift_phase__body",
                    pf(ins) + [QIRArg("double", "literal", float(ins.delta))],
                )
            )
        elif isinstance(ins, Capture):
            self.module.body.append(
                QIRCall(
                    "__quantum__pulse__capture__body",
                    pf(ins)
                    + [
                        QIRArg("i64", "literal", int(ins.memory_slot)),
                        QIRArg("i64", "literal", int(ins.duration_samples)),
                    ],
                    result=f"m{ins.memory_slot}",
                    result_type="i1",
                )
            )
        else:
            raise ValidationError(f"QIR emission: unsupported instruction {ins!r}")


def schedule_to_qir(schedule: PulseSchedule, name: str | None = None) -> str:
    """Emit *schedule* as QIR text with the Pulse Profile."""
    kernel = _sanitize(name or schedule.name or "kernel")
    return _Emitter(schedule, kernel).emit().render()
