"""Shared-memory array transport between cluster workers and parent.

Worker processes return numerical result payloads — stacked
probability / count vectors for a whole job chunk, the same shape as
the ``(n, D, D)`` propagator stacks the batched engines produce —
through one ``multiprocessing.shared_memory`` segment per job instead
of pickling arrays through a pipe.  The protocol:

1. the *worker* packs a named dict of arrays into a fresh segment
   (:func:`pack_arrays`), detaches, and records the returned *spec*
   (segment name + per-array dtype/shape/offset) in the job store row;
2. the *parent* attaches by name (:func:`load_arrays`), copies the
   arrays out, and :func:`unlink` s the segment — exactly one unlink,
   claimed atomically through the store row.

The worker must *not* unlink (the parent still has to attach), so the
segment is explicitly unregistered from the worker's
``resource_tracker`` — otherwise the tracker would tear the segment
down when the worker exits, racing the parent's read.  Orphaned
segments (parent crashed between worker completion and assembly) are
reaped on the next service start from the specs left in the store.
"""

from __future__ import annotations

import threading
from multiprocessing import resource_tracker, shared_memory
from typing import Mapping

import numpy as np

__all__ = ["pack_arrays", "load_arrays", "segment_alive", "unlink"]

#: Held from every attach to the matching unregister. The resource
#: tracker books names in a *set*: two threads attaching one segment
#: register it once but unregister it twice, and the tracker prints a
#: ``KeyError`` traceback for the second. Serializing each
#: attach->untrack and attach->unlink pair keeps the books balanced.
_TRACKER_LOCK = threading.Lock()


def _untrack(shm: shared_memory.SharedMemory) -> None:
    """Stop the local resource tracker from auto-unlinking *shm*."""
    try:  # pragma: no cover - tracker registration is interpreter detail
        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:
        pass


def pack_arrays(arrays: Mapping[str, np.ndarray]) -> dict:
    """Write *arrays* into one fresh segment; returns the wire spec.

    The creating process detaches before returning; ownership of the
    unlink passes to whoever holds the spec.  An empty mapping returns
    a spec with no segment at all.
    """
    items = [(name, np.ascontiguousarray(a)) for name, a in arrays.items()]
    total = sum(a.nbytes for _, a in items)
    if total == 0:
        return {"segment": None, "arrays": []}
    shm = shared_memory.SharedMemory(create=True, size=total)
    try:
        spec_arrays = []
        offset = 0
        for name, a in items:
            if a.nbytes:
                dst = np.ndarray(a.shape, dtype=a.dtype, buffer=shm.buf, offset=offset)
                dst[...] = a
            spec_arrays.append(
                {
                    "name": name,
                    "dtype": a.dtype.str,
                    "shape": list(a.shape),
                    "offset": offset,
                }
            )
            offset += a.nbytes
        return {"segment": shm.name, "arrays": spec_arrays}
    finally:
        _untrack(shm)
        shm.close()


def load_arrays(spec: Mapping) -> dict[str, np.ndarray]:
    """Attach to a spec's segment and copy its arrays out.

    Always copies (the caller typically unlinks right after), and
    detaches before returning.
    """
    out: dict[str, np.ndarray] = {}
    segment = spec.get("segment")
    if segment is None:
        for entry in spec.get("arrays", ()):
            out[entry["name"]] = np.empty(
                tuple(entry["shape"]), dtype=np.dtype(entry["dtype"])
            )
        return out
    with _TRACKER_LOCK:
        shm = shared_memory.SharedMemory(name=segment)
        _untrack(shm)
    try:
        for entry in spec["arrays"]:
            view = np.ndarray(
                tuple(entry["shape"]),
                dtype=np.dtype(entry["dtype"]),
                buffer=shm.buf,
                offset=entry["offset"],
            )
            out[entry["name"]] = view.copy()
    finally:
        shm.close()
    return out


def segment_alive(spec: Mapping) -> bool:
    """Whether a spec's segment still exists: attaches, copies nothing."""
    segment = spec.get("segment")
    if segment is None:
        return True
    with _TRACKER_LOCK:
        try:
            shm = shared_memory.SharedMemory(name=segment)
        except FileNotFoundError:
            return False
        _untrack(shm)
    shm.close()
    return True


def unlink(spec: Mapping) -> bool:
    """Free a spec's segment; False when it is already gone."""
    segment = spec.get("segment")
    if segment is None:
        return True
    with _TRACKER_LOCK:
        try:
            shm = shared_memory.SharedMemory(name=segment)
        except FileNotFoundError:
            return False
        # No _untrack here: attach registered the name (+1) and
        # ``SharedMemory.unlink`` unregisters it again, so the tracker
        # books balance without intervention.
        shm.close()
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - unlink race
            _untrack(shm)
            return False
    return True
