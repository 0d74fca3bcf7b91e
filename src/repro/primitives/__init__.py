"""repro.primitives — Sampler/Estimator over broadcastable PUBs.

The workload tier of the stack: instead of hand-rolling an
``Executable.run`` loop per algorithm, callers describe *what* they
want measured — a program, its parameter axes, optionally the
observables — and the primitives batch, cache and route the whole
request through the fastest execution path the target supports
(batched propagators, the Lindblad engine, or served sweeps).

::

    est = Estimator(target)
    result = est.run([(program, [["ZI"], ["IZ"]], {"theta": grid})])
    result[0].data.evs        # shape (2, len(grid)): the (2, 1)
                              # observables broadcast across the points

* :class:`Observable` — Pauli-string algebra; the stack's single
  expectation engine.
* :class:`SamplerPub` / :class:`EstimatorPub` — ``(program,
  parameter_values, shots)`` / ``(program, observables,
  parameter_values)`` with NumPy-style broadcasting.
* :class:`Sampler` / :class:`Estimator` — the primitives.
* :class:`DataBin` / :class:`PubResult` / :class:`PrimitiveResult` —
  the unified result layer.
"""

from repro.primitives.containers import DataBin, PrimitiveResult, PubResult
from repro.primitives.estimator import Estimator
from repro.primitives.observables import Observable
from repro.primitives.pubs import (
    BindingsArray,
    EstimatorPub,
    ObservablesArray,
    SamplerPub,
)
from repro.primitives.sampler import Sampler

__all__ = [
    "Observable",
    "Sampler",
    "Estimator",
    "SamplerPub",
    "EstimatorPub",
    "BindingsArray",
    "ObservablesArray",
    "DataBin",
    "PubResult",
    "PrimitiveResult",
]
