"""Working precision of the simulation engines: one dtype policy.

The batched kernels (:mod:`repro.sim.evolve`,
:mod:`repro.sim.open_system`, and the evolution paths of
:mod:`repro.sim.executor`) compute in the complex and real dtypes of
the active :class:`DtypePolicy`, selected per call tree with the
contextvar-scoped :func:`use_dtype`:

    with use_dtype("complex64"):
        us = batched_propagators(hs, dt)

``complex128`` (the default) carries the engine's 1e-10 equivalence
contract; ``complex64`` relaxes it to 1e-5. The policy name namespaces
:class:`~repro.sim.evolve.PropagatorCache` keys, the per-thread expm
scratch buffers and the ``dtype`` label of kernel metrics, so the two
precisions never share cached numbers.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.errors import ValidationError

__all__ = ["POLICIES", "DtypePolicy", "active_dtype", "use_dtype"]


@dataclass(frozen=True)
class DtypePolicy:
    """A working precision and the parity tolerance it contracts to.

    *atol* is the absolute tolerance parity suites hold results to
    against the complex128 reference: 1e-10 for complex128 (the
    engine's equivalence contract), 1e-5 for complex64.
    """

    name: str
    cdtype: np.dtype  #: complex dtype of the evolved stacks
    rdtype: np.dtype  #: matching real dtype
    atol: float


POLICIES: dict[str, DtypePolicy] = {
    "complex128": DtypePolicy(
        "complex128", np.dtype(np.complex128), np.dtype(np.float64), 1e-10
    ),
    "complex64": DtypePolicy(
        "complex64", np.dtype(np.complex64), np.dtype(np.float32), 1e-5
    ),
}

_ACTIVE: ContextVar[DtypePolicy] = ContextVar(
    "repro_sim_dtype", default=POLICIES["complex128"]
)


def active_dtype() -> DtypePolicy:
    """The :class:`DtypePolicy` of the current context (complex128
    when no :func:`use_dtype` scope is open)."""
    return _ACTIVE.get()


@contextmanager
def use_dtype(name: str) -> Iterator[DtypePolicy]:
    """Scope the working precision to a ``with`` block.

    *name* is a key of :data:`POLICIES`. Scopes nest; the previous
    policy is restored on exit, including across exceptions. Thread-
    and task-safe (contextvars): a thread started elsewhere, such as a
    service worker, keeps its own policy.
    """
    policy = POLICIES.get(name)
    if policy is None:
        raise ValidationError(
            f"unknown dtype policy {name!r}; available: {sorted(POLICIES)}"
        )
    token = _ACTIVE.set(policy)
    try:
        yield policy
    finally:
        _ACTIVE.reset(token)
