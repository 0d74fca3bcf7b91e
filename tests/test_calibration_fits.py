"""The calibration fits: separable least squares, checked against the
``curve_fit`` calls they replace.

``fit_pi_amplitude`` and ``fit_ramsey_fringe`` search the one nonlinear
parameter (``amp_pi``, the fringe) on a grid over everything the scan
can resolve and polish the best point by Gauss-Newton, so they need no
initial guess and end at the global optimum. The generated cases check
that noiseless data is recovered exactly, and that on shot-noise data
the fit never ends above the residual of a bounded ``curve_fit`` from
the old FFT / first-crossing guess (kept here as a test-only
reference), agreeing with it wherever both reach the same optimum.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.calibration import fit_pi_amplitude, fit_ramsey_fringe
from repro.devices import SuperconductingDevice
from repro.errors import CalibrationError
from repro.pipeline import PipelineRunner, full_calibration_dag
from repro.pipeline.experiments import ARTIFICIAL_DETUNING_HZ, _ramsey_delays
from repro.qem import extrapolate_to_zero

PROFILE = settings(derandomize=True, max_examples=40, deadline=None, database=None)

DT = 1e-9
#: The ``rabi_scan`` and ``ramsey_scan`` defaults.
AMPLITUDES = np.linspace(0.05, 1.0, 16)
DELAYS = _ramsey_delays(SuperconductingDevice(num_qubits=1), 1024, 41).astype(float)


def _rabi(amp_pi, visibility, offset):
    return offset - visibility * np.cos(np.pi * AMPLITUDES / amp_pi)


def _fringe(freq, amp, phase, offset):
    return offset + amp * np.cos(2.0 * np.pi * freq * DELAYS * DT + phase)


def _reference_rabi(populations):
    """The bounded ``curve_fit`` from the first crossing of 0.5."""

    def model(a, amp_pi, vis, off):
        return off - vis * np.cos(np.pi * a / amp_pi)

    above = np.nonzero(populations > 0.5)[0]
    guess = AMPLITUDES[above[0]] * 2.0 if above.size else AMPLITUDES[-1]
    try:
        popt, _ = scipy.optimize.curve_fit(
            model,
            AMPLITUDES,
            populations,
            p0=[guess, 0.5, 0.5],
            bounds=([1e-4, 0.1, 0.2], [10.0, 0.6, 0.8]),
            maxfev=10000,
        )
    except RuntimeError:
        return np.nan, np.inf
    rms = np.sqrt(np.mean((model(AMPLITUDES, *popt) - populations) ** 2))
    return popt[0], rms


def _reference_ramsey(populations):
    """The bounded ``curve_fit`` from an FFT guess on a uniform grid."""
    tau = DELAYS * DT

    def model(t, freq, amp, phase, off):
        return off + amp * np.cos(2.0 * np.pi * freq * t + phase)

    uniform = np.linspace(tau[0], tau[-1], 256)
    interp = np.interp(uniform, tau, populations - populations.mean())
    spectrum = np.abs(np.fft.rfft(interp))
    freqs = np.fft.rfftfreq(len(uniform), uniform[1] - uniform[0])
    guess = freqs[int(np.argmax(spectrum[1:]) + 1)]
    try:
        popt, _ = scipy.optimize.curve_fit(
            model,
            tau,
            populations,
            p0=[guess, 0.4, 0.0, 0.5],
            bounds=([1e3, 0.05, -np.pi, 0.3], [1e9, 0.6, np.pi, 0.7]),
            maxfev=20000,
        )
    except RuntimeError:
        return np.nan, np.inf
    return popt[0], np.sqrt(np.mean((model(tau, *popt) - populations) ** 2))


amp_pis = st.floats(0.15, 0.9)
visibilities = st.floats(0.2, 0.45)
offsets = st.floats(0.45, 0.55)
fringes = st.floats(ARTIFICIAL_DETUNING_HZ - 5e5, ARTIFICIAL_DETUNING_HZ + 5e5)
amplitudes = st.floats(0.2, 0.45)
phases = st.floats(-np.pi, np.pi)
shots = st.integers(256, 4096)
seeds = st.integers(0, 2**32 - 1)


def _sampled(populations, n, seed):
    return np.random.default_rng(seed).binomial(n, populations) / n


# ---- (a) noiseless data is recovered exactly -----------------------------------------


@PROFILE
@given(amp_pis, visibilities, offsets)
def test_noiseless_rabi_recovers_amp_pi(amp_pi, visibility, offset):
    fitted, residual = fit_pi_amplitude(AMPLITUDES, _rabi(amp_pi, visibility, offset))
    assert abs(fitted - amp_pi) <= 1e-6 * amp_pi
    assert residual < 1e-9


@PROFILE
@given(fringes, amplitudes, phases, offsets)
def test_noiseless_ramsey_recovers_fringe(freq, amp, phase, offset):
    fringe, detuning, residual = fit_ramsey_fringe(
        DELAYS, _fringe(freq, amp, phase, offset), DT, ARTIFICIAL_DETUNING_HZ
    )
    assert abs(fringe - freq) <= 1.0
    assert detuning == fringe - ARTIFICIAL_DETUNING_HZ
    assert residual < 1e-9


# ---- (b) shot noise: never above the curve_fit residual ------------------------------


@PROFILE
@given(amp_pis, visibilities, offsets, shots, seeds)
def test_rabi_residual_never_above_curve_fit(amp_pi, visibility, offset, n, seed):
    populations = _sampled(_rabi(amp_pi, visibility, offset), n, seed)
    fitted, residual = fit_pi_amplitude(AMPLITUDES, populations)
    reference, reference_residual = _reference_rabi(populations)
    assert residual <= reference_residual + 1e-12
    if abs(residual - reference_residual) <= 1e-9:
        assert abs(fitted - reference) <= 1e-6 * fitted


@PROFILE
@given(fringes, amplitudes, phases, offsets, shots, seeds)
def test_ramsey_residual_never_above_curve_fit(freq, amp, phase, offset, n, seed):
    populations = _sampled(_fringe(freq, amp, phase, offset), n, seed)
    fringe, _, residual = fit_ramsey_fringe(
        DELAYS, populations, DT, ARTIFICIAL_DETUNING_HZ
    )
    reference, reference_residual = _reference_ramsey(populations)
    assert residual <= reference_residual + 1e-12
    if abs(residual - reference_residual) <= 1e-9:
        assert abs(fringe - reference) <= 10.0


# ---- (c) a case the local fit got wrong ----------------------------------------------


def test_noiseless_fringe_the_fft_guess_missed():
    """From the FFT guess, the bounded ``curve_fit`` fit this noiseless
    2.3 MHz fringe as 0.895 MHz (scipy 1.17): a local minimum."""
    populations = _fringe(2.3e6, 0.3, 2.0, 0.5)
    fringe, detuning, residual = fit_ramsey_fringe(
        DELAYS, populations, DT, ARTIFICIAL_DETUNING_HZ
    )
    assert abs(fringe - 2.3e6) <= 1.0
    assert abs(detuning - 3e5) <= 1.0
    assert residual < 1e-9


# ---- (d) no path back to scipy.optimize ----------------------------------------------


def _refuse(*args, **kwargs):
    raise AssertionError("the fits use no scipy.optimize solver")


def test_calibration_dag_runs_without_scipy_optimize(monkeypatch):
    monkeypatch.setattr(scipy.optimize, "curve_fit", _refuse)
    monkeypatch.setattr(scipy.optimize, "least_squares", _refuse)
    device = SuperconductingDevice(num_qubits=1, seed=0, drift_rate=2e4)
    device.advance_time(60.0)
    run = PipelineRunner(device).run(full_calibration_dag(include_drag=False), seed=1)
    assert run.ok, run.error
    assert run.result("rabi-fit")["pi_amplitude"]["0"] > 0
    assert max(run.result("verify")["tracking_error_hz"]) < 5e3


def test_exponential_fold_runs_without_scipy_optimize(monkeypatch):
    monkeypatch.setattr(scipy.optimize, "curve_fit", _refuse)
    monkeypatch.setattr(scipy.optimize, "least_squares", _refuse)
    c = np.array([1.0, 1.5, 2.0])
    estimate = extrapolate_to_zero(c, 0.8 + 0.15 * np.exp(-0.9 * c), "exponential")
    assert abs(estimate - 0.95) < 1e-9


def test_exponential_fold_without_an_exponential_is_linear():
    """Three points no exponential passes through fall back to the
    linear fold (the fit runs off to an infinite rate); points on a
    line are the fit's zero-rate member, the same line."""
    c = np.array([1.0, 1.5, 2.0])
    for v in (np.array([1.0, 0.5, 0.8]), 1.0 - 0.2 * c):
        assert extrapolate_to_zero(c, v, "exponential") == pytest.approx(
            extrapolate_to_zero(c, v, "linear"), abs=1e-12
        )


# ---- typed errors at the boundary ----------------------------------------------------


@pytest.mark.parametrize(
    "x, y, match",
    [
        ([], [], "at least"),
        (AMPLITUDES, AMPLITUDES[:-1], "matching"),
        (AMPLITUDES[:2], [0.1, 0.2], "at least 3"),
        (AMPLITUDES, np.where(AMPLITUDES > 0.5, np.nan, 0.5), "non-finite"),
        (
            np.where(AMPLITUDES > 0.5, np.inf, AMPLITUDES),
            _rabi(0.5, 0.4, 0.5),
            "non-finite",
        ),
    ],
    ids=["empty", "mismatched", "too-few", "nan", "inf"],
)
def test_rabi_rejects_unfittable_input(x, y, match):
    with pytest.raises(CalibrationError, match=match):
        fit_pi_amplitude(x, y)


@pytest.mark.parametrize(
    "x, y, match",
    [
        ([], [], "at least"),
        (DELAYS, DELAYS[:-1], "matching"),
        (DELAYS[:3], [0.1, 0.2, 0.3], "at least 4"),
        (DELAYS, np.where(DELAYS > 500, np.nan, 0.5), "non-finite"),
    ],
    ids=["empty", "mismatched", "too-few", "nan"],
)
def test_ramsey_rejects_unfittable_input(x, y, match):
    with pytest.raises(CalibrationError, match=match):
        fit_ramsey_fringe(x, y, DT, ARTIFICIAL_DETUNING_HZ)


def test_ramsey_rejects_a_non_positive_dt():
    with pytest.raises(CalibrationError, match="positive dt"):
        fit_ramsey_fringe(DELAYS, _fringe(2e6, 0.3, 0.0, 0.5), 0.0, 2e6)


def test_flat_rabi_scan_is_outside_the_window():
    """No oscillation: the best visibility is 0, below the 0.1 window
    (a bounded fit used to clamp it and report amp_pi ~ 10)."""
    flat = np.full(AMPLITUDES.size, 0.5)
    with pytest.raises(CalibrationError, match=r"visibility=\S+ not in \[0\.1, 0\.6\]"):
        fit_pi_amplitude(AMPLITUDES, flat)


def test_flat_ramsey_scan_is_outside_the_window():
    flat = np.full(DELAYS.size, 0.5)
    with pytest.raises(CalibrationError, match=r"amplitude=\S+ not in \[0\.05, 0\.6\]"):
        fit_ramsey_fringe(DELAYS, flat, DT, ARTIFICIAL_DETUNING_HZ)
