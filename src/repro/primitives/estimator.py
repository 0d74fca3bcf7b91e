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
and the whole batch of points dispatches through one batched
evolution pass (:meth:`ScheduleExecutor.execute_batch`) on direct
targets, a served sweep on service targets, or the per-point
``Executable`` loop on remote clients.

Evaluation conventions (see :mod:`repro.primitives.observables`):
diagonal observables on measuring programs evaluate from the exact
*pre-readout* outcome distribution — bit-for-bit the quantity
``Executable.run`` results report (``ClientResult.probabilities`` is
the ideal distribution; ``ExecutionResult.probabilities`` differs
when a readout-error model is configured, since it is the
post-readout distribution). Non-diagonal observables (and
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
        if self.options is not None:
            from repro.qem.engine import run_mitigated_estimator

            with span(
                "estimator.run", pubs=len(coerced), mode=self.mode
            ):
                return run_mitigated_estimator(
                    self, coerced, timeout=timeout
                )
        with span("estimator.run", pubs=len(coerced), mode=self.mode):
            per_pub = [
                (pub, self._point_schedules(pub), 0) for pub in coerced
            ]
            results = self._execute_all(per_pub, timeout=timeout)
            with span("measurement", pubs=len(coerced)):
                pub_results = [
                    self._assemble(pub, res)
                    for (pub, _, _), res in zip(per_pub, results)
                ]
        return PrimitiveResult(
            pub_results, metadata={"dispatch": self.mode, "seed": self._seed}
        )

    # ---- assembly --------------------------------------------------------------------

    def _assemble(self, pub: EstimatorPub, results: Sequence[Any]) -> PubResult:
        shape = pub.shape
        size = pub.size
        bind_idx = pub.binding_indices().reshape(-1) if shape else None
        obs_idx = pub.observable_indices().reshape(-1) if shape else None
        observables = pub.observables.flat()
        direct = self.mode == "direct"
        evs = np.empty(size, dtype=np.float64)
        variances = np.empty(size, dtype=np.float64)
        leakage = np.empty(size, dtype=np.float64) if direct else None
        # Each (binding, observable) pair evaluates once even when the
        # broadcast repeats it (e.g. a degenerate axis), and the lifted
        # observable matrices of the state path build once per
        # (observable, site-mapping) instead of once per point.
        memo: dict[tuple[int, int], tuple[float, float]] = {}
        matrices: dict[tuple[int, tuple[int, ...] | None], list] = {}
        for flat in range(size):
            b = int(bind_idx[flat]) if bind_idx is not None else 0
            o = int(obs_idx[flat]) if obs_idx is not None else 0
            key = (b, o)
            if key not in memo:
                memo[key] = self._evaluate(
                    observables[o], results[b], o, matrices
                )
            evs[flat], variances[flat] = memo[key]
            if leakage is not None:
                leakage[flat] = float(sum(results[b].leakage.values()))
        stds = (
            np.sqrt(variances / self.shots)
            if self.shots > 0
            else np.zeros(size, dtype=np.float64)
        )
        fields: dict[str, Any] = {
            "evs": evs.reshape(shape),
            "stds": stds.reshape(shape),
        }
        if leakage is not None:
            fields["leakage"] = leakage.reshape(shape)
        metadata: dict[str, Any] = {
            "shots": self.shots,
            "target": self._device_name(),
            "dispatch": self.mode,
        }
        profile = self._batch_profile(results)
        if profile is not None:
            metadata["profile"] = profile
        return PubResult(DataBin(shape=shape, **fields), metadata=metadata)

    def _evaluate(
        self,
        observable,
        result,
        obs_index: int = 0,
        matrices: dict | None = None,
    ) -> tuple[float, float]:
        """``(expectation, variance)`` of one observable at one point."""
        if self.mode == "direct":  # ExecutionResult: state available
            sites = result.measured_sites
            if observable.is_diagonal and sites:
                return self._distribution_moments(
                    observable, result.ideal_probabilities, len(sites)
                )
            from repro.control.hamiltonians import expectation

            dims = self._dims()
            state = result.final_state
            site_map = sites if sites else None
            matrix_key = (obs_index, site_map)
            entry = None if matrices is None else matrices.get(matrix_key)
            if entry is None:
                # [O, O^2]; the square materializes lazily (first
                # shot-budgeted evaluation) and is then shared by every
                # point of the PUB.
                entry = [observable.matrix(dims, site_map), None]
                if matrices is not None:
                    matrices[matrix_key] = entry
            op = entry[0]
            ev = expectation(state, op)
            if self.shots > 0:
                if entry[1] is None:
                    entry[1] = op @ op
                var = max(0.0, expectation(state, entry[1]) - ev * ev)
            else:
                var = 0.0
            return float(ev), var
        # ClientResult: only the exact outcome distribution travels.
        if not observable.is_diagonal:
            raise ValidationError(
                "non-diagonal observables need a direct simulator target "
                "(only the measured outcome distribution crosses the "
                f"{self.mode!r} boundary)"
            )
        return self._distribution_moments(
            observable, result.probabilities, None
        )

    def _distribution_moments(
        self, observable, probabilities, n_slots: int | None
    ) -> tuple[float, float]:
        """``(mean, variance)`` from one per-outcome pass."""
        values, probs = observable.values_per_outcome(
            probabilities, n_slots=n_slots
        )
        values = values.real
        mean = float(np.dot(values, probs))
        var = (
            max(0.0, float(np.dot(values * values, probs)) - mean * mean)
            if self.shots > 0
            else 0.0
        )
        return mean, var
