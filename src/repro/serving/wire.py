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

A family job's ``ClientResult.batch`` travels as its outcome arrays
(:func:`batch_parts`, JSON lists), without the final states.

The pickle blob is a trust boundary: this wire format is meant for
the local/HPC deployments the paper targets (service and clients under
one administrative domain), not for hostile networks.
"""

from __future__ import annotations

import base64
import pickle
from typing import Any, Mapping

import numpy as np

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
    data = {
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
    if result.batch is not None:
        families, arrays = batch_parts(result.batch)
        data["batch"] = {
            "families": families,
            "arrays": {key: a.tolist() for key, a in arrays.items()},
        }
    return data


def decode_result(data: dict) -> ClientResult:
    batch = data.get("batch")
    if batch is not None:
        batch = batch_from_parts(batch["families"], batch["arrays"])
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
        batch=batch,
    )


# ---- family outcomes -----------------------------------------------------------------


#: The :class:`~repro.sim.executor.FamilyOutcome` arrays that travel
#: (``counts`` as a ``(K, 2**m)`` int table, when shots were drawn).
_OUTCOME_FIELDS = ("ideal_probabilities", "probabilities", "leakage", "durations")


def batch_parts(batch: Any) -> tuple[list[list], dict[str, np.ndarray]]:
    """``([sites, dt, shots] per family, arrays keyed "<family>.<field>")``
    of the non-empty families of a
    :class:`~repro.sim.executor.BatchResult`."""
    families: list[list] = []
    arrays: dict[str, np.ndarray] = {}
    for family in (f for f in batch.families if len(f)):
        key = f"{len(families)}."
        families.append([list(family.measured_sites), family.dt, family.shots])
        for name in _OUTCOME_FIELDS:
            arrays[key + name] = getattr(family, name)
        if family.counts is not None:
            table = arrays[key + "counts"] = np.zeros(
                family.probabilities.shape, dtype=np.int64
            )
            for k, counts in enumerate(family.counts):
                for bits, n in counts.items():
                    table[k, int(bits, 2)] = n
    return families, arrays


def batch_from_parts(families: list[list], arrays: Mapping[str, Any]) -> Any:
    """The :class:`~repro.sim.executor.BatchResult` :func:`batch_parts`
    split (arrays or nested lists), without final states."""
    from repro.sim.executor import BatchResult, FamilyOutcome, outcome_dict

    outcomes = []
    for f, (sites, dt, shots) in enumerate(families):
        ideal, probs, leakage, durations, counts = (
            arrays.get(f"{f}.{name}") for name in _OUTCOME_FIELDS + ("counts",)
        )
        if counts is not None:
            counts = [outcome_dict(row, len(sites)) for row in np.asarray(counts)]
        outcomes.append(
            FamilyOutcome(
                measured_sites=tuple(sites),
                ideal_probabilities=np.asarray(ideal, float),
                probabilities=np.asarray(probs, float),
                final_states=None,
                leakage=np.asarray(leakage, float),
                counts=counts,
                durations=np.asarray(durations, np.int64),
                dt=float(dt),
                shots=int(shots),
            )
        )
    return BatchResult(outcomes, {})


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
