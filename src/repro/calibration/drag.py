"""DRAG coefficient fitting.

The DRAG quadrature correction suppresses leakage to the transmon's
|2> level. The ``drag_scan`` task of :mod:`repro.pipeline.experiments`
sweeps the beta coefficient and measures the leakage population after
a leakage-amplifying pulse train (repeated X gates); :func:`refine_beta`
fits a parabola near the minimum, and a downstream ``writeback`` task
commits the best beta into the device's X/SX calibrations.
"""

from __future__ import annotations

import numpy as np


def refine_beta(
    betas: np.ndarray, leakage: np.ndarray
) -> tuple[float, float]:
    """Parabolic refinement around the coarse leakage minimum.

    The pipeline's ``drag_fit`` task calls this on a recorded
    ``drag_scan``; returns ``(best_beta, coarse_min)``.
    """
    betas = np.asarray(betas, dtype=np.float64)
    leakage = np.asarray(leakage, dtype=np.float64)
    k = int(np.argmin(leakage))
    if 0 < k < len(betas) - 1:
        x = betas[k - 1 : k + 2]
        y = leakage[k - 1 : k + 2]
        coeffs = np.polyfit(x, y, 2)
        if coeffs[0] > 0:
            best = float(np.clip(-coeffs[1] / (2 * coeffs[0]), betas[0], betas[-1]))
        else:
            best = float(betas[k])
    else:
        best = float(betas[k])
    return best, float(leakage[k])
