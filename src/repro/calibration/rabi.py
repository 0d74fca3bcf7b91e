"""Rabi amplitude fitting.

The ``rabi_scan`` task of :mod:`repro.pipeline.experiments` sweeps the
amplitude of a fixed-length drive pulse; :func:`fit_pi_amplitude` fits
the resulting excited-state oscillation
``P1(amp) = 0.5 - 0.5 cos(pi * amp/amp_pi)``. The fit's ``amp_pi`` is
the calibrated X-gate amplitude, and the ``rabi_fit`` task reports the
implied Rabi rate alongside for cross-checking the device's published
``RABI_RATE`` site property.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import curve_fit

from repro.errors import CalibrationError


def _p1_model(amp: np.ndarray, amp_pi: float, visibility: float, offset: float):
    return offset - visibility * np.cos(np.pi * amp / amp_pi)


def fit_pi_amplitude(
    amplitudes: np.ndarray, populations: np.ndarray
) -> tuple[float, float]:
    """Fit one Rabi oscillation; ``(pi_amplitude, residual)``.

    The pipeline's ``rabi_fit`` task calls this on a recorded
    ``rabi_scan``.
    """
    amplitudes = np.asarray(amplitudes, dtype=np.float64)
    populations = np.asarray(populations, dtype=np.float64)
    # Initial guess from the first crossing of 0.5.
    above = np.nonzero(populations > 0.5)[0]
    guess_pi = (
        float(amplitudes[above[0]] * 2.0) if above.size else float(amplitudes[-1])
    )
    try:
        popt, _ = curve_fit(
            _p1_model,
            amplitudes,
            populations,
            p0=[guess_pi, 0.5, 0.5],
            bounds=([1e-4, 0.1, 0.2], [10.0, 0.6, 0.8]),
            maxfev=10000,
        )
    except Exception as exc:
        raise CalibrationError(f"Rabi fit failed: {exc}") from exc
    amp_pi = float(popt[0])
    residual = float(
        np.sqrt(np.mean((_p1_model(amplitudes, *popt) - populations) ** 2))
    )
    return amp_pi, residual
