"""Automated calibration (paper §2.1).

"Calibration is the systematic, continuous, and iterative process of
measuring and compensating for various sources of physical and control
errors." These routines run real pulse experiments on the simulated
devices through the standard execution path and write their findings
back into the device's published defaults:

* :mod:`repro.calibration.rabi` — amplitude calibration (pi-amplitude
  from a Rabi sweep);
* :mod:`repro.calibration.ramsey` — frequency tracking (Ramsey fringe
  fits + the adaptive tracker the paper's reference [4] describes);
* :mod:`repro.calibration.drag` — DRAG beta tuning against measured
  leakage;
* :mod:`repro.calibration.campaign` — drift-tracking campaigns: the
  closed loop of drift, measurement and write-back that experiment E9
  scores.
"""

from repro.calibration.rabi import RabiResult, calibrate_pi_amplitude
from repro.calibration.ramsey import (
    RamseyResult,
    estimate_detuning,
    track_frequency,
)
from repro.calibration.drag import DragResult, calibrate_drag
from repro.calibration.campaign import CampaignResult, run_drift_campaign

__all__ = [
    "RabiResult",
    "calibrate_pi_amplitude",
    "RamseyResult",
    "estimate_detuning",
    "track_frequency",
    "DragResult",
    "calibrate_drag",
    "CampaignResult",
    "run_drift_campaign",
]
