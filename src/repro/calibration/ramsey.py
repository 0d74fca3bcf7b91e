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
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import curve_fit

from repro.errors import CalibrationError


def _fringe_model(tau_s, freq, amp, phase, offset):
    return offset + amp * np.cos(2.0 * np.pi * freq * tau_s + phase)


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
    independently.
    """
    delays_samples = np.asarray(delays_samples, dtype=np.float64)
    populations = np.asarray(populations, dtype=np.float64)
    tau_s = delays_samples * dt

    # FFT initial guess on a uniform grid.
    uniform = np.linspace(tau_s[0], tau_s[-1], 256)
    interp = np.interp(uniform, tau_s, populations - populations.mean())
    spectrum = np.abs(np.fft.rfft(interp))
    freqs = np.fft.rfftfreq(len(uniform), uniform[1] - uniform[0])
    guess = float(freqs[int(np.argmax(spectrum[1:]) + 1)])
    try:
        popt, _ = curve_fit(
            _fringe_model,
            tau_s,
            populations,
            p0=[guess if guess > 0 else artificial_detuning_hz, 0.4, 0.0, 0.5],
            bounds=([1e3, 0.05, -np.pi, 0.3], [1e9, 0.6, np.pi, 0.7]),
            maxfev=20000,
        )
    except Exception as exc:
        raise CalibrationError(f"Ramsey fit failed: {exc}") from exc
    fringe = float(popt[0])
    residual = float(
        np.sqrt(np.mean((_fringe_model(tau_s, *popt) - populations) ** 2))
    )
    return fringe, fringe - artificial_detuning_hz, residual
