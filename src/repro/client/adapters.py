"""MQSS adapters: front-end formats -> compiler payloads.

Each adapter accepts one front-end representation and produces a
payload the JIT compiler understands (a gate-level MLIR module, a pulse
module, or a pulse schedule). The client looks adapters up by name and
by payload type, mirroring the adapter boxes of the paper's Fig. 2.
"""

from __future__ import annotations

import abc
import re
from typing import Any

from repro.core.instructions import Play
from repro.core.schedule import PulseSchedule
from repro.core.waveform import ParametricWaveform
from repro.errors import ParseError
from repro.mlir.ir import Module
from repro.qir.parser import looks_like_qir
from repro.qpi.compile import qpi_to_schedule
from repro.qpi.pythonic import PythonicCircuit
from repro.qpi.qpi import QCircuit


class Adapter(abc.ABC):
    """Normalizes one front-end format into a compiler payload."""

    #: Registry name, e.g. "qpi".
    name: str = ""

    @abc.abstractmethod
    def accepts(self, program: Any) -> bool:
        """Whether *program* is this adapter's front-end format."""

    @abc.abstractmethod
    def to_payload(self, program: Any, device: Any) -> Any:
        """Convert *program* into a compiler payload for *device*."""


class QPIAdapter(Adapter):
    """The native C-style QPI adapter (paper §5.1)."""

    name = "qpi"

    def accepts(self, program: Any) -> bool:
        return isinstance(program, QCircuit)

    def to_payload(self, program: QCircuit, device: Any) -> PulseSchedule:
        return qpi_to_schedule(program, device)


class CircuitAdapter(Adapter):
    """Adapter for dynamic circuit objects and gate-level MLIR modules
    (the Qiskit/CUDAQ/PennyLane stand-in)."""

    name = "circuit"

    def accepts(self, program: Any) -> bool:
        if isinstance(program, PythonicCircuit):
            return True
        return isinstance(program, Module) and "quantum" in program.dialects_used()

    def to_payload(self, program: Any, device: Any) -> Any:
        if isinstance(program, PythonicCircuit):
            return qpi_to_schedule(program.to_qcircuit(), device)
        return program  # gate-level module: the compiler lowers it


_QASM_GATE_RE = re.compile(
    r"^(x|sx)\s+q\[(\d+)\];$|^rz\(([-+0-9.eE]+)\)\s+q\[(\d+)\];$"
    r"|^cz\s+q\[(\d+)\]\s*,\s*q\[(\d+)\];$"
)
_QASM_MEASURE_RE = re.compile(r"^c\[(\d+)\]\s*=\s*measure\s+q\[(\d+)\];$")
_CAL_PLAY_RE = re.compile(
    r'^play\("([^"]+)",\s*(\w+)\(([^)]*)\)\);$'
)
_CAL_FRAME_RE = re.compile(
    r'^frame_change\("([^"]+)",\s*([-+0-9.eE]+),\s*([-+0-9.eE]+)\);$'
)
_CAL_DELAY_RE = re.compile(r'^delay\("([^"]+)",\s*(\d+)\);$')
_CAL_BARRIER_RE = re.compile(r'^barrier\(((?:"[^"]+",?\s*)+)\);$')


class QASM3Adapter(Adapter):
    """A miniature OpenQASM-3-style adapter with ``cal`` blocks.

    The paper notes OpenQASM 3 "defines calibration (cal) blocks that
    explicitly use the same three abstractions" and that a QPI pulse
    program "could be translated or interfaced with Braket- or
    OpenQASM3-style schedules". Supported subset::

        OPENQASM 3;
        qubit[2] q; bit[2] c;
        x q[0];  sx q[1];  rz(0.5) q[0];  cz q[0], q[1];
        cal { play("q0-drive-port", gaussian(32, 0.4, 8.0));
              frame_change("q0-drive-port", 5.0e9, 0.1);
              delay("q0-drive-port", 16); }
        c[0] = measure q[0];

    Cal-block envelope calls are ``name(duration, p1, p2...)`` with the
    positional parameter orders of the standard envelope library.
    """

    name = "qasm3"

    #: Positional parameter names per envelope.
    _ENVELOPE_PARAMS = {
        "constant": ("amp",),
        "square": ("amp",),
        "gaussian": ("amp", "sigma"),
        "drag": ("amp", "sigma", "beta"),
        "gaussian_square": ("amp", "sigma", "width"),
        "cosine": ("amp",),
        "sine": ("amp",),
        "sech": ("amp", "sigma"),
        "triangle": ("amp",),
        "blackman": ("amp",),
    }

    def accepts(self, program: Any) -> bool:
        return isinstance(program, str) and program.lstrip().startswith("OPENQASM")

    def to_payload(self, program: str, device: Any) -> PulseSchedule:
        schedule = PulseSchedule("qasm3")
        cal = device.calibrations
        statements = self._statements(program)
        for stmt in statements:
            if stmt.startswith(("OPENQASM", "qubit", "bit", "include")):
                continue
            if stmt.startswith("cal{") or stmt.startswith("cal {"):
                body = stmt[stmt.index("{") + 1 : stmt.rindex("}")]
                self._lower_cal_block(body, device, schedule)
                continue
            m = _QASM_MEASURE_RE.match(stmt)
            if m:
                cal.get("measure", (int(m.group(2)),)).apply(
                    schedule, [int(m.group(1))]
                )
                continue
            m = _QASM_GATE_RE.match(stmt)
            if m:
                if m.group(1):  # x / sx
                    cal.get(m.group(1), (int(m.group(2)),)).apply(schedule, [])
                elif m.group(3) is not None:  # rz
                    cal.get("rz", (int(m.group(4)),)).apply(
                        schedule, [float(m.group(3))]
                    )
                else:  # cz
                    lo, hi = sorted((int(m.group(5)), int(m.group(6))))
                    cal.get("cz", (lo, hi)).apply(schedule, [])
                continue
            raise ParseError(f"qasm3 adapter: cannot parse statement {stmt!r}")
        return schedule

    def _statements(self, program: str) -> list[str]:
        """Split into statements; a cal block is one statement."""
        text = re.sub(r"//[^\n]*", "", program)
        out: list[str] = []
        i = 0
        text = text.strip()
        while i < len(text):
            while i < len(text) and text[i].isspace():
                i += 1
            if i >= len(text):
                break
            if text[i : i + 3] == "cal":
                start = text.index("{", i)
                depth = 0
                j = start
                while j < len(text):
                    if text[j] == "{":
                        depth += 1
                    elif text[j] == "}":
                        depth -= 1
                        if depth == 0:
                            break
                    j += 1
                if depth != 0:
                    raise ParseError("unterminated cal block")
                out.append(re.sub(r"\s+", " ", text[i : j + 1]).strip())
                i = j + 1
                continue
            j = text.find(";", i)
            if j < 0:
                if text[i:].strip():
                    raise ParseError(f"trailing input {text[i:]!r}")
                break
            stmt = re.sub(r"\s+", " ", text[i : j + 1]).strip()
            if stmt != ";":
                out.append(stmt)
            i = j + 1
        return out

    def _lower_cal_block(self, body: str, device: Any, schedule: PulseSchedule) -> None:
        frames: dict[str, Any] = {}

        def frame_of(port):
            if port.name not in frames:
                frames[port.name] = device.default_frame(port)
            return frames[port.name]

        for stmt in (s.strip() + ";" for s in body.split(";") if s.strip()):
            m = _CAL_PLAY_RE.match(stmt)
            if m:
                port = device.port(m.group(1))
                envelope = m.group(2)
                argv = (
                    [float(a) for a in m.group(3).split(",")]
                    if m.group(3).strip()
                    else []
                )
                try:
                    names = self._ENVELOPE_PARAMS[envelope]
                except KeyError:
                    raise ParseError(f"unknown cal envelope {envelope!r}") from None
                if len(argv) != len(names) + 1:
                    raise ParseError(
                        f"{envelope} takes (duration, {', '.join(names)})"
                    )
                wf = ParametricWaveform(
                    envelope, int(argv[0]), dict(zip(names, argv[1:]))
                )
                schedule.append(Play(port, frame_of(port), wf))
                continue
            m = _CAL_FRAME_RE.match(stmt)
            if m:
                from repro.core.instructions import FrameChange

                port = device.port(m.group(1))
                schedule.append(
                    FrameChange(
                        port, frame_of(port), float(m.group(2)), float(m.group(3))
                    )
                )
                continue
            m = _CAL_DELAY_RE.match(stmt)
            if m:
                from repro.core.instructions import Delay

                schedule.append(Delay(device.port(m.group(1)), int(m.group(2))))
                continue
            m = _CAL_BARRIER_RE.match(stmt)
            if m:
                names = re.findall(r'"([^"]+)"', m.group(1))
                schedule.barrier(*(device.port(n) for n in names))
                continue
            raise ParseError(f"cal block: cannot parse {stmt!r}")


class QIRAdapter(Adapter):
    """Adapter for QIR text with the Pulse Profile (paper Listing 3).

    Links the exchange-format payload back into a device-bound schedule
    through the QIR linker, making serialized programs a first-class
    front-end of the unified execution API rather than a
    remote-path-only wire format.
    """

    name = "qir"

    def accepts(self, program: Any) -> bool:
        return isinstance(program, str) and looks_like_qir(program)

    def to_payload(self, program: str, device: Any) -> PulseSchedule:
        from repro.qir.linker import link_qir_to_schedule

        return link_qir_to_schedule(program, device)


class PulseIRAdapter(Adapter):
    """Adapter for compiler-ready payloads: executable schedules, pulse
    MLIR modules, and pulse MLIR text.

    The JIT compiler understands these natively; the adapter is a
    passthrough that lets them travel the same client/serving/API route
    as every other front-end (including parametric sequences bound via
    ``scalar_args``).
    """

    name = "pulse-ir"

    def accepts(self, program: Any) -> bool:
        if isinstance(program, PulseSchedule):
            return True
        if isinstance(program, Module):
            return "pulse" in program.dialects_used()
        if isinstance(program, str):
            return "pulse.sequence" in program
        return False

    def to_payload(self, program: Any, device: Any) -> Any:
        return program


def default_adapters() -> list[Adapter]:
    """The standard adapter set, mirroring Fig. 2's adapter boxes."""
    return [
        QPIAdapter(),
        CircuitAdapter(),
        QASM3Adapter(),
        QIRAdapter(),
        PulseIRAdapter(),
    ]
