"""Rabi amplitude fitting.

The ``rabi_scan`` task of :mod:`repro.pipeline.experiments` sweeps the
amplitude of a fixed-length drive pulse; :func:`fit_pi_amplitude` fits
the resulting excited-state oscillation
``P1(amp) = offset - visibility * cos(pi * amp/amp_pi)``. The fit's
``amp_pi`` is the calibrated X-gate amplitude, and the ``rabi_fit``
task reports the implied Rabi rate alongside for cross-checking the
device's published ``RABI_RATE`` site property.

The model is linear in ``(offset, visibility)`` once ``amp_pi`` is
fixed, so the fit is a separable least-squares fit
(:mod:`repro.calibration.fitting`): no initial guess, the global
optimum over every ``amp_pi`` the scan can resolve. The plausible
ranges (``amp_pi`` in [1e-4, 10], visibility in [0.1, 0.6], offset in
[0.2, 0.8]) are a window the optimum must land in, not bounds it is
clamped to: an optimum outside raises :class:`CalibrationError`.
"""

from __future__ import annotations

import numpy as np

from repro.calibration.fitting import (
    check_scan,
    check_window,
    frequency_grid,
    separable_fit,
)

_AMP_PI = (1e-4, 10.0)
_VISIBILITY = (0.1, 0.6)
_OFFSET = (0.2, 0.8)


def _cosine(nus: np.ndarray, x: np.ndarray):
    w = 2.0 * np.pi * x
    arg = nus[:, None, None] * w
    return np.cos(arg), -w * np.sin(arg)


def fit_pi_amplitude(
    amplitudes: np.ndarray, populations: np.ndarray
) -> tuple[float, float]:
    """Fit one Rabi oscillation; ``(pi_amplitude, residual)``.

    The pipeline's ``rabi_fit`` task calls this on a recorded
    ``rabi_scan``. *residual* is the RMS deviation of the fit.
    """
    amplitudes, populations = check_scan(amplitudes, populations, 3, "Rabi")
    # cos(pi amp/amp_pi) = cos(2 pi nu u) with u = amp/span and
    # nu = span/(2 amp_pi): a unit-span scan keeps the Jacobian scaled.
    span = float(np.ptp(amplitudes))
    u = amplitudes / span
    grid = frequency_grid(u, span / (2.0 * _AMP_PI[1]), span / (2.0 * _AMP_PI[0]))
    nu, (offset, c1), ssr = separable_fit(u, populations, grid, _cosine)
    amp_pi, visibility = span / (2.0 * nu), -c1
    check_window(
        "Rabi",
        amp_pi=(amp_pi, _AMP_PI),
        visibility=(visibility, _VISIBILITY),
        offset=(offset, _OFFSET),
    )
    return float(amp_pi), float(np.sqrt(ssr / populations.size))
