"""Automated calibration (paper §2.1).

"Calibration is the systematic, continuous, and iterative process of
measuring and compensating for various sources of physical and control
errors." The experiments themselves are pipeline task kinds
(:mod:`repro.pipeline.experiments`: ``ramsey_scan``, ``rabi_scan``,
``drag_scan``, ``readout_scan``), measured through the primitives and
batched across sites. This package holds what those tasks share and
what is built on them:

* :mod:`repro.calibration.rabi` — the pi-amplitude fit of a Rabi sweep;
* :mod:`repro.calibration.ramsey` — the Ramsey fringe fit behind
  frequency tracking;
* :mod:`repro.calibration.fitting` — the separable least-squares
  solver both fits share (ZNE's exponential fold uses it too);
* :mod:`repro.calibration.drag` — the parabolic DRAG beta refinement;
* :mod:`repro.calibration.campaign` — drift-tracking campaigns: the
  closed loop of drift, measurement and write-back that experiment E9
  scores.
"""

from repro.calibration.rabi import fit_pi_amplitude
from repro.calibration.ramsey import fit_ramsey_fringe
from repro.calibration.drag import refine_beta
from repro.calibration.campaign import CampaignResult, run_drift_campaign

__all__ = [
    "fit_pi_amplitude",
    "fit_ramsey_fringe",
    "refine_beta",
    "CampaignResult",
    "run_drift_campaign",
]
