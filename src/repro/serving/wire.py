"""Wire codecs: JobRequest / ClientResult / errors <-> plain JSON.

The HTTP front-end (:mod:`repro.serving.http`) and the ticket
``to_dict`` snapshots share one serialization so results
are *bit-identical* across transports: every scalar field is plain
JSON (Python's ``repr``-based float serialization round-trips
exactly), and only the program object — which may be any adapter
input (PythonicCircuit, PulseSchedule, QASM3 text, ...) — rides as a
base64 pickle blob.  Errors travel as ``{"type", "message"}`` and are
rebuilt as the matching :mod:`repro.errors` class on the far side, so
``ticket.result()`` raises the same typed exception everywhere.

The pickle blob is a trust boundary: this wire format is meant for
the local/HPC deployments the paper targets (service and clients under
one administrative domain), not for hostile networks.
"""

from __future__ import annotations

import base64
import pickle
from typing import Any

from repro import errors as _errors
from repro.client.client import ClientResult, JobRequest
from repro.errors import ServiceError

_WIRE_VERSION = 1


def pack_blob(obj: Any) -> str:
    """Base64-pickle *obj* (the program / metadata escape hatch)."""
    return base64.b64encode(
        pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    ).decode("ascii")


def unpack_blob(text: str) -> Any:
    return pickle.loads(base64.b64decode(text.encode("ascii")))


# ---- requests ------------------------------------------------------------------------


def encode_request(request: JobRequest) -> dict:
    """A JSON-safe form of *request* (program/metadata as blobs)."""
    return {
        "v": _WIRE_VERSION,
        "program": pack_blob(request.program),
        "device": request.device,
        "shots": request.shots,
        "adapter": request.adapter,
        "priority": request.priority,
        "scalar_args": dict(request.scalar_args or {}),
        "seed": request.seed,
        # Metadata may carry non-JSON values (DecoherenceSpec tuples
        # for noise sweeps), so the whole dict rides as a blob too.
        "metadata": pack_blob(dict(request.metadata or {})),
    }


def decode_request(data: dict) -> JobRequest:
    return JobRequest(
        program=unpack_blob(data["program"]),
        device=data["device"],
        shots=int(data.get("shots", 1024)),
        adapter=data.get("adapter"),
        priority=int(data.get("priority", 0)),
        scalar_args={
            str(k): float(v)
            for k, v in (data.get("scalar_args") or {}).items()
        },
        seed=data.get("seed"),
        metadata=unpack_blob(data["metadata"]) if data.get("metadata") else {},
    )


# ---- results -------------------------------------------------------------------------


def encode_result(result: ClientResult) -> dict:
    """A pure-JSON form of *result*; floats round-trip exactly."""
    return {
        "v": _WIRE_VERSION,
        "device": result.device,
        "counts": dict(result.counts),
        "probabilities": dict(result.probabilities),
        "shots": result.shots,
        "duration_samples": result.duration_samples,
        "timings_s": {k: float(v) for k, v in result.timings_s.items()},
        "job_id": result.job_id,
        "remote": result.remote,
        "qir_size_bytes": result.qir_size_bytes,
    }


def decode_result(data: dict) -> ClientResult:
    return ClientResult(
        device=data["device"],
        counts={str(k): int(v) for k, v in data["counts"].items()},
        probabilities={
            str(k): float(v) for k, v in data["probabilities"].items()
        },
        shots=int(data["shots"]),
        duration_samples=int(data["duration_samples"]),
        timings_s={
            str(k): float(v) for k, v in data.get("timings_s", {}).items()
        },
        job_id=int(data["job_id"]),
        remote=bool(data.get("remote", False)),
        qir_size_bytes=int(data.get("qir_size_bytes", 0)),
    )


# ---- errors --------------------------------------------------------------------------


def encode_error(exc: BaseException) -> dict:
    return {"type": type(exc).__name__, "message": str(exc)}


def decode_error(data: dict) -> Exception:
    """Rebuild a typed exception; unknown types degrade to ServiceError."""
    name = data.get("type", "ServiceError")
    message = data.get("message", "")
    cls = getattr(_errors, name, None)
    if isinstance(cls, type) and issubclass(cls, Exception):
        return cls(message)
    return ServiceError(f"{name}: {message}")
