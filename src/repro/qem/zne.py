"""Zero-noise extrapolation: the ``c -> 0`` fold.

The noise-scaling half (pulse stretching) lives in
:mod:`repro.core.stretch`; this module owns the statistical half —
fitting the measured expectation values at stretch factors ``c_i >= 1``
and reporting the extrapolated value at ``c = 0``.
"""

from __future__ import annotations

import numpy as np

from repro.calibration.fitting import separable_fit
from repro.core.stretch import (  # noqa: F401 — re-exported: qem is the
    coerce_stretch_factor,  # public face of the stretch machinery
    stretch_schedule,
    stretch_waveform,
)
from repro.errors import ValidationError


def _linear(factors: np.ndarray, values: np.ndarray) -> float:
    slope, intercept = np.polyfit(factors, values, 1)
    return float(intercept)


def _richardson(factors: np.ndarray, values: np.ndarray) -> float:
    # Lagrange interpolation evaluated at c = 0: exact for a polynomial
    # of degree len(factors) - 1 — the classic Richardson weights.
    out = 0.0
    for i, ci in enumerate(factors):
        weight = 1.0
        for j, cj in enumerate(factors):
            if j != i:
                weight *= cj / (cj - ci)
        out += weight * values[i]
    return float(out)


#: Decay rates ``g * span`` the exponential fold searches.
_RATES = np.linspace(-20.0, 20.0, 161)
#: Below this ``|g * span|`` the decay column is evaluated by its series.
_SERIES = 1e-3


def _decay(rates: np.ndarray, u: np.ndarray):
    # phi = (1 - exp(-k u)) / k and its k-derivative: exp(-k u) up to an
    # affine change of (a, b) that keeps the line (phi = u) as the k = 0
    # member, so near-linear data stays well conditioned.
    k = rates[:, None, None]
    ku = k * u
    small = np.abs(k) < _SERIES
    kk = np.where(small, 1.0, k)
    em1 = np.expm1(-ku)
    phi = np.where(
        small,
        u * (1.0 - ku / 2.0 + ku**2 / 6.0 - ku**3 / 24.0),
        -em1 / kk,
    )
    dphi = np.where(
        small,
        u**2 * (-0.5 + ku / 3.0 - ku**2 / 8.0 + ku**3 / 30.0),
        (ku * (em1 + 1.0) + em1) / kk**2,
    )
    return phi, dphi


def _exponential(factors: np.ndarray, values: np.ndarray) -> float:
    # v(c) = a + b * exp(-g * c); decoherence noise is exponential in
    # circuit duration, so this model is near-exact for T1/T2-limited
    # error. It is linear in (a, b) for fixed g: a separable fit over
    # k = g * span on u = (c - c_min) / span, whose k = 0 member is the
    # line. Falls back to the linear fold on degenerate data: too few
    # points for three parameters, or an optimum past the searched
    # rates (data no exponential fits, which the fit chases to k -> inf).
    if len(factors) < 3:
        return _linear(factors, values)
    lo, span = float(factors.min()), float(np.ptp(factors))
    rate, (a, b), ssr = separable_fit((factors - lo) / span, values, _RATES, _decay)
    if not (np.isfinite(ssr) and abs(rate) <= _RATES[-1]):
        return _linear(factors, values)
    phi0, _ = _decay(np.array([rate]), np.array([-lo / span]))
    return float(a + b * phi0[0, 0, 0])


_FOLDS = {
    "linear": _linear,
    "exponential": _exponential,
    "richardson": _richardson,
}


def extrapolate_to_zero(
    factors, values, method: str = "linear"
) -> float:
    """Extrapolate *values* measured at stretch *factors* to ``c = 0``."""
    fold = _FOLDS.get(method)
    if fold is None:
        raise ValidationError(
            f"unknown extrapolation {method!r}; expected one of {sorted(_FOLDS)}"
        )
    cs = np.asarray(list(factors), dtype=np.float64)
    vs = np.asarray(list(values), dtype=np.float64)
    if cs.shape != vs.shape or cs.ndim != 1 or cs.size < 2:
        raise ValidationError(
            "extrapolation needs matching 1-D factors/values with at "
            f"least two points, got shapes {cs.shape} and {vs.shape}"
        )
    if len(set(cs.tolist())) != cs.size:
        raise ValidationError(f"stretch factors must be distinct, got {cs}")
    return fold(cs, vs)
