"""Exact ground-truth helpers for scoring error mitigation.

A simulator stack can do what no hardware stack can: evaluate the same
circuit on a *noiseless twin* of a decohering model and compare. The
helpers here construct that twin — the executor's
:class:`~repro.sim.model.SystemModel` with its Lindblad decoherence
specs stripped and no readout-error models — and evaluate exact
distributions/expectations on it. ``repro.qem`` scores every mitigated
estimate against these references, and ``tests/test_qem.py`` holds
the full mitigation stack to a 2x error reduction and a 0.01 absolute
error with them.
"""

from __future__ import annotations

import dataclasses

from repro.sim.executor import ScheduleExecutor
from repro.sim.model import SystemModel


def noiseless_model(model: SystemModel) -> SystemModel:
    """*model* with every decoherence channel removed."""
    return dataclasses.replace(model, decoherence=())


def noiseless_twin(executor: ScheduleExecutor) -> ScheduleExecutor:
    """A fresh executor over *executor*'s model without decoherence or
    readout error — the zero-noise reference ZNE extrapolates toward."""
    return ScheduleExecutor(noiseless_model(executor.model))


def exact_distribution(executor: ScheduleExecutor, schedule) -> dict[str, float]:
    """The exact pre-readout outcome distribution of *schedule*."""
    return dict(executor.execute(schedule, shots=0).ideal_probabilities)


def exact_expectation(executor: ScheduleExecutor, schedule, observable) -> float:
    """Exact expectation of *observable* after *schedule* on *executor*.

    Diagonal observables on measuring schedules evaluate from the exact
    pre-readout distribution; everything else goes through the state
    path (computational-subspace embedding), matching the Estimator's
    direct-mode conventions.
    """
    result = executor.execute(schedule, shots=0)
    sites = result.measured_sites
    if observable.is_diagonal and sites:
        return float(
            observable.expectation(
                result.ideal_probabilities, n_slots=len(sites)
            ).real
        )
    from repro.control.hamiltonians import expectation

    op = observable.matrix(tuple(executor.model.dims), sites if sites else None)
    return float(expectation(result.final_state, op).real)


def reference_expectation(
    executor: ScheduleExecutor, schedule, observable
) -> float:
    """The zero-noise target: *observable* on the noiseless twin."""
    return exact_expectation(noiseless_twin(executor), schedule, observable)
