"""Estimator: expectation values of broadcastable observable PUBs.

``Estimator.run([(program, observables, parameter_values), ...])``
evaluates every broadcast point of every PUB and returns one
:class:`~repro.primitives.containers.PubResult` per PUB whose
:class:`~repro.primitives.containers.DataBin` holds:

* ``evs`` — expectation values, shaped like the PUB's broadcast shape
  (:func:`numpy.broadcast_shapes` of the observables' and parameter
  values' shapes);
* ``stds`` — standard errors ``sqrt(var / shots)`` for the
  estimator's configured shot budget (0.0 when the budget is 0:
  exact estimation);
* ``leakage`` — per-point total leakage population (direct simulator
  targets).

Each *unique* parameter point executes once — observables fan out
over the resulting state/distribution without re-running anything —
and the whole batch of points dispatches as schedule families: one
batched evolution pass (:meth:`ScheduleExecutor.execute_batch`) on a
direct target, one request on every other target — see
:mod:`repro.primitives.base`.

Evaluation conventions (see :mod:`repro.primitives.observables`):
diagonal observables on measuring programs evaluate from the exact
*pre-readout* outcome distribution (one product of the points'
``(K, 2**m)`` distribution table with the observable's per-outcome
values) — bit-for-bit the quantity
``Executable.run`` results report (``ClientResult.probabilities`` is
the ideal distribution; ``ExecutionResult.probabilities`` differs
when a readout-error model is configured, since it is the
post-readout distribution), on every target. Non-diagonal observables (and
capture-less programs) evaluate from the simulator state through the
computational-subspace embedding, which is what the variational
algorithms score. Non-diagonal observables therefore need a direct
simulator target.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

import numpy as np

from repro.errors import ValidationError
from repro.obs.tracing import span
from repro.primitives.base import BasePrimitive
from repro.primitives.containers import DataBin, PrimitiveResult, PubResult
from repro.primitives.pubs import EstimatorPub


class Estimator(BasePrimitive):
    """Expectation-value estimator over one execution target.

    Parameters
    ----------
    target, executor, seed:
        As for :class:`~repro.primitives.sampler.Sampler`.
    shots:
        Shot budget the reported standard errors correspond to;
        ``0`` (default) means exact estimation with ``stds == 0``.
        Expectation values themselves are always the exact ones the
        backend can provide — shots only set the error bars.
    """

    def __init__(
        self,
        target: Any = None,
        *,
        executor: Any = None,
        seed: int | None = None,
        shots: int = 0,
        options: Any = None,
    ) -> None:
        super().__init__(target, executor=executor, seed=seed)
        if shots < 0:
            raise ValidationError(f"shots must be >= 0, got {shots}")
        self.shots = int(shots)
        #: Optional :class:`repro.qem.EstimatorOptions` — when set,
        #: ``run`` routes through the composable mitigation engine
        #: (:mod:`repro.qem.engine`): evaluation switches to the exact
        #: *post-readout* distribution and the declared stack (ZNE /
        #: twirling / readout inversion) expands and folds around it.
        #: An empty stack is the unmitigated noisy baseline.
        self.options = options
        if options is not None:
            if not hasattr(options, "mitigation"):
                raise ValidationError(
                    "options must be a repro.qem.EstimatorOptions "
                    f"(got {type(options).__name__})"
                )
            if self.mode != "direct":
                raise ValidationError(
                    "mitigation options need a direct simulator target "
                    "(the engine folds exact post-readout distributions "
                    "only the local executor reports)"
                )

    def run(
        self,
        pubs: Iterable[Any],
        *,
        timeout: float | None = None,
    ) -> PrimitiveResult:
        """Evaluate *pubs*; results align with the input order."""
        coerced = [EstimatorPub.coerce(p) for p in pubs]
        if not coerced:
            raise ValidationError("Estimator.run needs at least one PUB")
        with span("estimator.run", pubs=len(coerced), mode=self.mode):
            if self.options is not None:
                from repro.qem.engine import run_mitigated_estimator

                return run_mitigated_estimator(self, coerced, timeout=timeout)
            results = self._run_pubs([(pub, 0) for pub in coerced], timeout=timeout)
            with span("measurement", pubs=len(coerced)):
                pub_results = [
                    self._assemble(pub, res) for pub, res in zip(coerced, results)
                ]
        return PrimitiveResult(
            pub_results, metadata={"dispatch": self.mode, "seed": self._seed}
        )

    # ---- assembly --------------------------------------------------------------------

    def _assemble(self, pub: EstimatorPub, results: Any) -> PubResult:
        shape = pub.shape
        size = pub.size
        if shape:
            bind_idx = pub.binding_indices().reshape(-1)
            obs_idx = pub.observable_indices().reshape(-1)
        else:
            bind_idx = obs_idx = np.zeros(1, dtype=np.intp)
        direct = self.mode == "direct"
        families = results.families
        sites = families[0].measured_sites if direct and families else None
        evs = np.empty(size, dtype=np.float64)
        variances = np.zeros(size, dtype=np.float64)
        table: np.ndarray | None = None
        states = None
        # Each observable evaluates once per unique binding point and
        # fans out over the broadcast (e.g. a degenerate axis).
        for o, observable in enumerate(pub.observables.flat()):
            points = np.flatnonzero(obs_idx == o)
            if not points.size:
                continue
            bound = bind_idx[points]
            if direct and not (observable.is_diagonal and sites):
                if states is None:
                    states = _rows([f.final_states for f in families])
                evs[points], variances[points] = self._state_moments(
                    observable, states, sites, bound
                )
                continue
            if not direct and not observable.is_diagonal:
                raise ValidationError(
                    "non-diagonal observables need a direct simulator target "
                    "(only the measured outcome distribution crosses the "
                    f"{self.mode!r} boundary)"
                )
            if table is None:
                table, width = _family_table(families)
            values = observable.outcome_values(width)
            means = table @ values
            evs[points] = means[bound]
            if self.shots > 0:
                var = np.maximum(0.0, table @ (values * values) - means * means)
                variances[points] = var[bound]
        stds = np.sqrt(variances / self.shots) if self.shots > 0 else variances
        fields: dict[str, Any] = {
            "evs": evs.reshape(shape),
            "stds": stds.reshape(shape),
        }
        if direct:
            leakage = self._leakage(families)
            fields["leakage"] = leakage[bind_idx].reshape(shape)
        metadata: dict[str, Any] = {
            "shots": self.shots,
            "target": self._device_name(),
            "dispatch": self.mode,
            **self._batch_profile(results),
        }
        return PubResult(DataBin(shape=shape, **fields), metadata=metadata)

    def _state_moments(
        self, observable, states, sites, bound: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(means, variances)`` of *observable* at the binding points
        *bound*, from their simulator states (direct targets)."""
        from repro.control.hamiltonians import expectation

        op = observable.matrix(self._dims(), sites if sites else None)
        square = op @ op if self.shots > 0 else None
        memo: dict[int, tuple[float, float]] = {}
        for b in bound.tolist():
            if b not in memo:
                ev = expectation(states[b], op)
                var = (
                    max(0.0, expectation(states[b], square) - ev * ev)
                    if square is not None
                    else 0.0
                )
                memo[b] = (float(ev), var)
        moments = np.array([memo[b] for b in bound.tolist()]).reshape(-1, 2)
        return moments[:, 0], moments[:, 1]


def _rows(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """The member rows of a PUB's families, stacked in point order."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def _family_table(families) -> tuple[np.ndarray, int]:
    """The ``(K, 2**m)`` exact pre-readout outcome distributions of a
    PUB's families, in binary outcome order, and their width ``m``."""
    width = len(families[0].measured_sites)
    if any(len(f.measured_sites) != width for f in families):
        raise ValidationError(
            "the points of one PUB measure different numbers of slots"
        )
    return _rows([f.ideal_probabilities for f in families]), width

