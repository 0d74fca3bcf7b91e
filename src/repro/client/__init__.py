"""The MQSS Client layer (paper Fig. 2, top half).

"MQSS Adapters (e.g., Qiskit, CUDAQ, PennyLane, and its native C-based
QPI) submit gate- and pulse-based jobs to the MQSS Client, which
handles automatic routing for both local HPC jobs and remote
submissions."

* :mod:`repro.client.adapters` — the adapter registry: QPI circuits,
  Pythonic circuit objects, gate-level MLIR modules, and an
  OpenQASM-3-style text format with ``cal`` blocks all normalize into
  compiler payloads;
* :mod:`repro.client.client` — :class:`MQSSClient`: device selection,
  JIT compilation, local vs. remote routing, result delivery;
* :mod:`repro.client.remote` — :class:`RemoteDeviceProxy`: a QDMI
  device reachable only through a serialized text format (QIR), with a
  simulated network hop — the "remote submission" path of Fig. 2.
"""

from repro.client.adapters import (
    Adapter,
    CircuitAdapter,
    PulseIRAdapter,
    QASM3Adapter,
    QIRAdapter,
    QPIAdapter,
)
from repro.client.client import ClientResult, JobRequest, MQSSClient
from repro.client.remote import RemoteDeviceProxy

__all__ = [
    "Adapter",
    "QPIAdapter",
    "CircuitAdapter",
    "QASM3Adapter",
    "QIRAdapter",
    "PulseIRAdapter",
    "MQSSClient",
    "JobRequest",
    "ClientResult",
    "RemoteDeviceProxy",
]
