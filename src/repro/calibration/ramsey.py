"""Ramsey fringe fitting for frequency tracking.

Superconducting qubit frequencies "drift on timescales of minutes to
hours, therefore requiring continuous real-time tracking via
Ramsey-based feedback loops" (paper §2.1, citing Berritta et al.).

The measurement is the ``ramsey_scan`` task of
:mod:`repro.pipeline.experiments` (pi/2, free evolution tau, pi/2,
measure, with the frame offset by an artificial detuning); the closed
loop of scan, fit and write-back is
:func:`~repro.pipeline.experiments.frequency_tracking_dag`. This module
holds the pure fit those tasks share.

The fringe ``offset + amp * cos(2 pi f tau + phase)`` is
``offset + A cos(2 pi f tau) + B sin(2 pi f tau)``, linear in
``(offset, A, B)`` once ``f`` is fixed, so the fit is a separable
least-squares fit (:mod:`repro.calibration.fitting`): no initial guess,
the global optimum over every fringe the delays resolve. ``amp`` is
``hypot(A, B)`` and the phase is free, so neither needs a bound. The
plausible ranges (``f`` in [1e3, 1e9] Hz, ``amp`` in [0.05, 0.6],
offset in [0.3, 0.7]) are a window the optimum must land in, not
bounds it is clamped to: an optimum outside raises
:class:`CalibrationError`.
"""

from __future__ import annotations

import numpy as np

from repro.calibration.fitting import (
    check_scan,
    check_window,
    frequency_grid,
    separable_fit,
)
from repro.errors import CalibrationError

_FRINGE_HZ = (1e3, 1e9)
_AMPLITUDE = (0.05, 0.6)
_OFFSET = (0.3, 0.7)


def _quadratures(nus: np.ndarray, x: np.ndarray):
    w = 2.0 * np.pi * x
    arg = nus[:, None] * w
    cos, sin = np.cos(arg), np.sin(arg)
    return np.stack([cos, sin], axis=1), np.stack([-w * sin, w * cos], axis=1)


def fit_ramsey_fringe(
    delays_samples: np.ndarray,
    populations: np.ndarray,
    dt: float,
    artificial_detuning_hz: float,
) -> tuple[float, float, float]:
    """Fit one Ramsey fringe; ``(fringe_hz, detuning_hz, residual)``.

    The fringe oscillates at ``|artificial + (believed - true)|``; with
    ``artificial`` chosen much larger than the expected drift the sign
    ambiguity disappears and ``detuning = fringe - artificial``. The
    pipeline's ``ramsey_fit`` task calls this on a recorded
    ``ramsey_scan``, so measurement and fitting run — and retry —
    independently. *residual* is the RMS deviation of the fit.
    """
    delays_samples, populations = check_scan(delays_samples, populations, 4, "Ramsey")
    if not dt > 0:
        raise CalibrationError(f"Ramsey fit needs a positive dt, got {dt}")
    # Fit in units of the scan's span (u spans 1, nu is cycles per span).
    span = float(np.ptp(delays_samples)) * dt
    u = delays_samples * dt / span
    grid = frequency_grid(u, _FRINGE_HZ[0] * span, _FRINGE_HZ[1] * span)
    nu, (offset, a, b), ssr = separable_fit(u, populations, grid, _quadratures)
    fringe, amp = nu / span, float(np.hypot(a, b))
    check_window(
        "Ramsey",
        fringe_hz=(fringe, _FRINGE_HZ),
        amplitude=(amp, _AMPLITUDE),
        offset=(offset, _OFFSET),
    )
    residual = float(np.sqrt(ssr / populations.size))
    return float(fringe), float(fringe) - artificial_detuning_hz, residual
