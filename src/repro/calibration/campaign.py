"""Drift-tracking campaigns: the closed calibration loop.

The quantitative core of experiment E9: let a device's qubit
frequencies random-walk over simulated wall-clock time; with tracking
enabled, run Ramsey frequency estimation periodically and write the
corrections back; record the frequency error over time. The expected
shape (paper §2.1): untracked error grows like sqrt(t) with the
platform's drift rate, tracked error stays bounded near the Ramsey
resolution floor.

The campaign is a thin assembly over
:func:`repro.pipeline.campaign_dag`: each calibration round batches
*every* site's scan points through one Estimator call (one
``execute_batch`` evolution pass), and a campaign handed a durable
:class:`~repro.pipeline.PipelineStore` resumes mid-flight after a
crash.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import PipelineError


@dataclass
class CampaignResult:
    """Time series of one drift campaign."""

    device_name: str
    times_s: np.ndarray
    tracking_error_hz: np.ndarray  # (steps, sites)
    calibrations_performed: int
    tracked: bool
    final_mean_error_hz: float = 0.0
    max_mean_error_hz: float = 0.0
    extras: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        mean = self.tracking_error_hz.mean(axis=1)
        self.final_mean_error_hz = float(mean[-1]) if mean.size else 0.0
        self.max_mean_error_hz = float(mean.max()) if mean.size else 0.0


def run_drift_campaign(
    device,
    *,
    duration_s: float = 600.0,
    step_s: float = 60.0,
    tracked: bool = True,
    calibration_interval_s: float = 120.0,
    shots: int = 512,
    seed: int = 0,
    store=None,
    run_id: str | None = None,
) -> CampaignResult:
    """Simulate *duration_s* of wall clock on *device*.

    Every *step_s* the device drifts; when *tracked*, a Ramsey
    frequency calibration runs every *calibration_interval_s* and
    writes corrections back into the published frames.

    The campaign runs as a durable task DAG: all sites of a
    calibration round measure through one batched Estimator call,
    per-task seeds derive from one ``SeedSequence`` spawn, and passing
    a ``store`` (:class:`repro.pipeline.PipelineStore`) plus a stable
    ``run_id`` makes the campaign resumable after interruption.
    """
    from repro.pipeline import PipelineRunner, campaign_dag

    n_steps = int(round(duration_s / step_s))
    n_sites = device.config.num_sites
    dag = campaign_dag(
        n_steps,
        step_s,
        tracked=tracked,
        calibration_interval_s=calibration_interval_s,
        shots=shots,
    )
    runner = PipelineRunner(device, store=store)
    run = runner.run(dag, run_id=run_id, seed=seed)
    if not run.ok:
        raise PipelineError(
            f"drift campaign run {run.run_id!r} failed: {run.error}"
        )
    errors = np.zeros((n_steps + 1, n_sites), dtype=np.float64)
    for k in range(n_steps + 1):
        probe = run.result(f"probe-{k}")
        for slot, site in enumerate(probe["sites"]):
            errors[k, int(site)] = probe["tracking_error_hz"][slot]
    writebacks = sum(1 for name in run.results if name.startswith("writeback-"))
    return CampaignResult(
        device_name=device.name,
        times_s=np.arange(n_steps + 1) * step_s,
        tracking_error_hz=errors,
        # One calibration per site per round (the round just batches
        # them).
        calibrations_performed=writebacks * n_sites,
        tracked=tracked,
        extras={
            "run_id": run.run_id,
            "replayed_tasks": len(run.replayed),
            "executed_tasks": len(run.executed),
        },
    )
