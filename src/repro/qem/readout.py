"""Confusion-matrix readout mitigation.

Given per-site confusion matrices ``M_i[observed, actual]``, the joint
confusion matrix is their tensor product; applying its inverse to the
observed distribution recovers an (unbiased, possibly slightly
unphysical) estimate of the true distribution, which is then clipped
and renormalized — the textbook "matrix-free measurement mitigation"
baseline. Exact for the independent-error model the simulator uses;
statistical noise shrinks at the shot rate. The per-site assignment
errors themselves are measured by the ``readout_scan`` task of
:mod:`repro.pipeline.experiments`.

:func:`validate_readout_mitigation` closes the loop end to end through
the composable options stack: a
:class:`~repro.primitives.sampler.Sampler` with
``SamplerOptions(mitigation=("readout",))`` executes the schedule on
the (possibly decohering) model — exact Lindblad dynamics via the
batched open-system engine — and the observed / mitigated
distributions are scored against the exact pre-readout distribution,
the ground truth only a simulator can provide.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.errors import ValidationError
from repro.sim.measurement import ReadoutModel, joint_confusion


@dataclass
class MitigatedResult:
    """Outcome of readout mitigation."""

    distribution: dict[str, float]
    raw_distribution: dict[str, float]
    condition_number: float


def invert_readout(table: np.ndarray, confusion: np.ndarray) -> np.ndarray:
    """Confusion-invert every row of a ``(K, 2**m)`` distribution table.

    Columns are the outcomes in binary order; *confusion* is the joint
    matrix over them (:func:`~repro.sim.measurement.joint_confusion`).
    Each row is one single-right-hand-side solve (stacked, so a row
    comes out bitwise as it would alone), clipped at zero and
    renormalized; entries at or below ``1e-15`` read as zero. A row
    left with no mass raises :class:`~repro.errors.ValidationError`.
    """
    recovered = np.linalg.solve(
        np.broadcast_to(confusion, (len(table),) + confusion.shape),
        table[:, :, None],
    )[:, :, 0]
    # Clip tiny negative leakage from inversion noise; renormalize.
    recovered = np.clip(recovered, 0.0, None)
    totals = recovered.sum(axis=1)
    if np.any(totals <= 0):
        raise ValidationError("mitigation produced a degenerate distribution")
    recovered /= totals[:, None]
    recovered[recovered <= 1e-15] = 0.0
    return recovered


def mitigate_distribution(
    distribution: Mapping[str, float],
    models: Sequence[ReadoutModel],
) -> MitigatedResult:
    """Invert the joint confusion matrix on a bitstring distribution.

    *models* must align with bit positions (leftmost bit = models[0]).
    """
    if not distribution:
        raise ValidationError("cannot mitigate an empty distribution")
    n_bits = len(next(iter(distribution)))
    if any(len(k) != n_bits for k in distribution):
        raise ValidationError("inconsistent bitstring lengths")
    if len(models) != n_bits:
        raise ValidationError(
            f"{len(models)} readout models for {n_bits}-bit outcomes"
        )
    confusion = joint_confusion(models)
    observed = np.zeros((1, 2**n_bits), dtype=np.float64)
    for key, p in distribution.items():
        observed[0, int(key, 2)] = p
    recovered = invert_readout(observed, confusion)[0]
    mitigated = {
        format(i, f"0{n_bits}b"): float(v)
        for i, v in enumerate(recovered)
        if v > 0.0
    }
    return MitigatedResult(
        distribution=mitigated,
        raw_distribution=dict(distribution),
        condition_number=float(np.linalg.cond(confusion)),
    )


def total_variation_distance(
    p: Mapping[str, float], q: Mapping[str, float]
) -> float:
    """``1/2 * sum_k |p_k - q_k|`` over the union of outcomes."""
    keys = set(p) | set(q)
    if not keys:
        raise ValidationError("cannot compare two empty distributions")
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


# ---- end-to-end validation -----------------------------------------------------------


@dataclass
class MitigationValidation:
    """End-to-end score of readout mitigation against exact dynamics.

    ``exact`` is the pre-readout outcome distribution of the Lindblad
    evolution; ``observed`` what the (possibly sampled) noisy readout
    reported; ``mitigated`` the recovered estimate. The figures of
    merit are total-variation distances to ``exact``.
    """

    exact: dict[str, float]
    observed: dict[str, float]
    mitigated: dict[str, float]
    tv_observed: float
    tv_mitigated: float
    condition_number: float
    shots: int

    @property
    def improvement(self) -> float:
        """TV-distance reduction achieved by mitigation (>0 is good)."""
        return self.tv_observed - self.tv_mitigated


def validate_readout_mitigation(
    executor,
    schedule,
    *,
    shots: int = 4096,
    seed: int = 0,
) -> MitigationValidation:
    """Execute, corrupt, mitigate, and score against the exact result.

    *executor* is a :class:`~repro.sim.executor.ScheduleExecutor`
    whose readout mapping supplies the confusion matrices (sites
    without a model count as ideal); *schedule* must capture at least
    one site. With ``shots > 0`` the observed distribution is the
    sampled counts — the realistic path, statistical noise included;
    ``shots = 0`` scores the readout-error channel alone.

    With decoherence enabled on the executor's model, the reference
    distribution comes from the exact batched Lindblad engine, so the
    returned distances measure mitigation quality *under* T1/T2 —
    e.g. whether confusion inversion stays well-conditioned while
    amplitude damping skews the populations.

    Scoring runs through the composable options stack — a
    :class:`~repro.primitives.sampler.Sampler` with
    ``SamplerOptions(mitigation=("readout",))`` over the executor: the
    same DataBin fields (``counts``/``quasi_dists``/``probabilities``/
    ``noisy_probabilities``/``condition_numbers``) any sampler PUB
    exposes, just re-packed into the validation dataclass.
    """
    from repro.primitives import Sampler
    from repro.qem.options import SamplerOptions

    sampler = Sampler.from_executor(
        executor,
        default_shots=max(shots, 0),
        seed=seed,
        options=SamplerOptions(mitigation=("readout",)),
    )
    bin_ = sampler.run([(schedule,)])[0].data
    exact = dict(bin_.probabilities[()])
    if not exact:
        raise ValidationError(
            "cannot validate mitigation: the schedule captured nothing"
        )
    counts = bin_.counts[()]
    if shots > 0:
        total = sum(counts.values())
        observed = {k: v / total for k, v in counts.items()}
    else:
        observed = dict(bin_.noisy_probabilities[()])
    mitigated = dict(bin_.quasi_dists[()])
    return MitigationValidation(
        exact=exact,
        observed=observed,
        mitigated=mitigated,
        tv_observed=total_variation_distance(observed, exact),
        tv_mitigated=total_variation_distance(mitigated, exact),
        condition_number=float(bin_.condition_numbers[()]),
        shots=max(shots, 0),
    )
