"""The QPI call surface (paper Listing 1).

Design constraints, mirroring the C library the paper describes:

* **Handle-based** — circuits, waveforms and results are opaque
  handles; no rich objects cross the API boundary.
* **Allocation-light** — every call appends one small tuple to a
  pre-grown list; no validation objects, no per-call dictionaries, no
  string formatting. Validation and object construction happen once, at
  ``qExecute`` (the JIT boundary), not in the hot loop. This is what
  makes the VQE outer loop in Listing 1 cheap (experiment E5).
* **Thread-friendly** — the "current circuit" is explicit (passed to
  ``qCircuitBegin``), not ambient global state; the module-level
  functions write into whichever circuit is currently open, like the C
  API's implicit current-kernel register, and exactly one circuit may
  be open at a time per thread.

The op buffer uses integer opcodes (module-level constants) — the
tuple layout per opcode is documented next to each constant.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.errors import ValidationError

# Opcodes (tuple layouts in comments).
OP_X = 0  # (OP_X, qubit)
OP_SX = 1  # (OP_SX, qubit)
OP_RZ = 2  # (OP_RZ, qubit, theta)
OP_CZ = 3  # (OP_CZ, a, b)
OP_MEASURE = 4  # (OP_MEASURE, qubit, creg)
OP_PLAY = 5  # (OP_PLAY, port_name, waveform_handle)
OP_FRAME_CHANGE = 6  # (OP_FRAME_CHANGE, port_name, frequency, phase)
OP_DELAY = 7  # (OP_DELAY, port_name, samples)
OP_BARRIER = 8  # (OP_BARRIER, port_names_tuple)


class QCircuit:
    """Opaque circuit handle: op buffer + waveform table."""

    __slots__ = ("ops", "waveforms", "num_cregs", "open", "result")

    def __init__(self) -> None:
        self.ops: list[tuple] = []
        self.waveforms: list[np.ndarray] = []
        self.num_cregs = 0
        self.open = False
        self.result: "QuantumResult | None" = None


class QuantumResult:
    """Opaque result handle filled by ``qExecute``."""

    __slots__ = ("counts", "probabilities", "shots", "expectation")

    def __init__(self, counts, probabilities, shots) -> None:
        self.counts = counts
        self.probabilities = probabilities
        self.shots = shots


_tls = threading.local()


def _current() -> QCircuit:
    circuit = getattr(_tls, "circuit", None)
    if circuit is None:
        raise ValidationError("no circuit is open; call qCircuitBegin first")
    return circuit


# ---- lifecycle -------------------------------------------------------------------


def qCircuitBegin(circuit: QCircuit) -> None:
    """Open *circuit* for construction on this thread."""
    if getattr(_tls, "circuit", None) is not None:
        raise ValidationError("a circuit is already open on this thread")
    circuit.ops.clear()
    circuit.waveforms.clear()
    circuit.num_cregs = 0
    circuit.open = True
    _tls.circuit = circuit


def qCircuitEnd() -> None:
    """Close the current circuit."""
    circuit = _current()
    circuit.open = False
    _tls.circuit = None


def qCircuitFree(circuit: QCircuit) -> None:
    """Release the circuit's buffers (handle stays reusable)."""
    circuit.ops.clear()
    circuit.waveforms.clear()
    circuit.result = None


def qInitClassicalRegisters(n: int) -> None:
    """Declare *n* classical result registers."""
    _current().num_cregs = int(n)


# ---- gate-level calls ----------------------------------------------------------------


def qX(qubit: int) -> None:
    """X gate."""
    _current().ops.append((OP_X, qubit))


def qSX(qubit: int) -> None:
    """sqrt(X) gate."""
    _current().ops.append((OP_SX, qubit))


def qRZ(qubit: int, theta: float) -> None:
    """Virtual-Z rotation."""
    _current().ops.append((OP_RZ, qubit, theta))


def qCZ(a: int, b: int) -> None:
    """CZ gate."""
    _current().ops.append((OP_CZ, a, b))


def qMeasure(qubit: int, creg: int) -> None:
    """Measure *qubit* into classical register *creg*."""
    _current().ops.append((OP_MEASURE, qubit, creg))


# ---- pulse-level calls (the paper's three new primitives) ----------------------------


def qWaveform(amps) -> int:
    """Create a waveform from amplitude samples; returns its handle.

    The samples are *referenced*, not copied or validated here — the
    cost moves to qExecute, keeping the optimizer loop cheap.
    """
    circuit = _current()
    circuit.waveforms.append(amps)
    return len(circuit.waveforms) - 1


def qPlayWaveform(port: str, waveform: int) -> None:
    """Play waveform handle *waveform* on the named hardware port."""
    _current().ops.append((OP_PLAY, port, waveform))


def qFrameChange(port: str, frequency: float, phase: float) -> None:
    """Set the carrier frequency and phase of *port*'s default frame."""
    _current().ops.append((OP_FRAME_CHANGE, port, frequency, phase))


def qDelay(port: str, samples: int) -> None:
    """Idle *port* for *samples* samples."""
    _current().ops.append((OP_DELAY, port, samples))


def qBarrier(*ports: str) -> None:
    """Synchronize the named ports."""
    _current().ops.append((OP_BARRIER, ports))


# ---- execution -----------------------------------------------------------------------


def qExecute(device, circuit: QCircuit, nshots: int, *, seed: int | None = None) -> int:
    """Compile and run *circuit* on *device*; returns 0 on success.

    This is the JIT boundary: the op buffer is converted to a pulse
    schedule through the device's calibrations, compiled through the
    unified execution core (constraint legalization included), and
    dispatched on the session-free local fast path.

    This is the paper's Listing 1 surface over the two-phase API
    (``repro.compile(circuit, device).run(shots=...)``, see
    :mod:`repro.api`), with the C-style return-code contract:
    conversion errors raise :class:`~repro.errors.ValidationError`,
    while compilation and execution failures return ``1`` and leave no
    result on the handle.
    """
    from repro.api.executable import Executable
    from repro.api.program import Program
    from repro.api.target import Target
    from repro.errors import ReproError

    if circuit.open:
        raise ValidationError("circuit still open; call qCircuitEnd before qExecute")
    # Payload conversion errors (bad register indices, unknown ports)
    # raise, matching the old qpi_to_schedule behaviour.
    executable = Executable.prepare(
        Program.from_qpi(circuit), Target.from_device(device)
    )
    try:
        result = executable.run(shots=nshots, seed=seed)
    except ReproError:
        circuit.result = None
        return 1
    circuit.result = QuantumResult(
        result.counts, result.probabilities, result.shots
    )
    return 0


def qRead(circuit: QCircuit) -> QuantumResult:
    """Retrieve the result deposited by the last successful qExecute."""
    if circuit.result is None:
        raise ValidationError("no result available; did qExecute succeed?")
    return circuit.result
