"""Separable least squares with one nonlinear parameter.

The calibration fits and the exponential ZNE fold all fit models of the
form ``y ~ c0 + sum_i c_i phi_i(theta, x)``: linear in the coefficients
``c`` once the one nonlinear parameter ``theta`` is fixed. Variable
projection (Golub & Pereyra, SIAM J. Numer. Anal. 10(2), 1973) solves
such a model without an initial guess: for every ``theta`` of a grid
the optimal ``c`` — and so the reduced residual — has a closed form,
the best grid point seeds a few Gauss-Newton steps on the full model,
and the fit ends at the global optimum whenever the grid is fine
enough that its best point lies in the global basin.

:func:`frequency_grid` is such a grid for a sinusoid sampled at the
given positions: it spans what the samples can identify (up to their
Nyquist limit) at a spacing of a quarter of the lobe width.
"""

from __future__ import annotations

import numpy as np

from repro.errors import CalibrationError

#: Gauss-Newton stops once a step moves theta by at most this fraction
#: of ``max(|theta|, 1)`` (callers scale theta to a unit-span scan).
_REL_STEP = 1e-13
_MAX_STEPS = 100
#: Step halvings tried before a step that does not lower the residual
#: is taken to mean the optimum is reached to rounding.
_MAX_HALVINGS = 30
#: A step may raise the residual sum of squares by this fraction: near
#: the optimum that sum is flat to rounding, and a step it cannot rank
#: is still the Gauss-Newton step to the stationary point.
_SSR_SLACK = 1e-12
#: A grid point whose centred columns are this close to collinear (or
#: to constant) is not identifiable and gets an infinite residual.
_DEGENERATE = 1e-10


def check_scan(x, y, n_params: int, what: str) -> tuple[np.ndarray, np.ndarray]:
    """*x*, *y* as float arrays; :class:`CalibrationError` if unfittable.

    Rejects empty or mismatched inputs, fewer points than the model's
    *n_params*, non-finite values, and positions that span no interval.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or y.ndim != 1 or x.size != y.size:
        raise CalibrationError(
            f"{what} fit needs matching 1-D scans, got shapes {x.shape} and {y.shape}"
        )
    if x.size < n_params:
        raise CalibrationError(
            f"{what} fit needs at least {n_params} points, got {x.size}"
        )
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise CalibrationError(f"{what} fit got non-finite scan values")
    if np.ptp(x) == 0.0:
        raise CalibrationError(f"{what} fit needs distinct scan positions")
    return x, y


def check_window(what: str, **fitted: tuple[float, tuple[float, float]]) -> None:
    """:class:`CalibrationError` naming each fitted value outside its range.

    Each keyword maps a parameter name to ``(value, (lo, hi))``; the
    ranges are plausibility windows, so a value outside (or NaN) means
    the scan holds no such signal, not that the value should be clamped.
    """
    outside = [
        f"{name}={value:.6g} not in [{lo:g}, {hi:g}]"
        for name, (value, (lo, hi)) in fitted.items()
        if not lo <= value <= hi
    ]
    if outside:
        raise CalibrationError(f"{what} fit outside its window: {', '.join(outside)}")


def frequency_grid(x: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Frequencies in ``[lo, hi]`` a sinusoid fit over positions *x* scans.

    The grid stops at the samples' Nyquist limit (their mean spacing)
    and steps by at most ``1 / (4 * span)``, a quarter of the width of
    the residual's central lobe. Empty when the window lies wholly
    above the Nyquist limit.
    """
    span = float(np.ptp(x))
    # An index output keeps unique off NumPy's lazy numpy.ma import.
    distinct = np.unique(x, return_index=True)[0].size
    top = min(hi, (distinct - 1) / (2.0 * span))
    if top < lo:
        return np.empty(0)
    return np.linspace(lo, top, int(np.ceil((top - lo) * 4.0 * span)) + 1)


def separable_fit(x, y, grid, basis):
    """Least-squares fit of ``y ~ c0 + sum_i c_i phi_i(theta, x)``.

    *basis(thetas, x)* returns the non-constant columns ``phi`` and
    their theta-derivatives, each shaped ``(m, q, n)`` for the ``m``
    thetas and ``n`` positions (``q`` is 1 or 2). *grid* holds the
    candidate thetas. Returns ``(theta, c, ssr)``, ``c`` of length
    ``q + 1`` with the constant first; ``ssr`` is infinite when no grid
    point is identifiable.
    """
    n = y.size
    yc = y - y.mean()
    phi, _ = basis(grid, x)
    pc = phi - phi.mean(axis=2, keepdims=True)
    gram = pc @ pc.transpose(0, 2, 1)
    proj = pc @ yc
    # Normal equations of the centred 1x1 or 2x2 system in closed form:
    # the explained sum of squares is proj^T gram^-1 proj.
    scale = np.prod(np.einsum("mqn,mqn->mq", phi, phi), axis=1)
    if phi.shape[1] == 1:
        det = gram[:, 0, 0]
        explained = proj[:, 0] ** 2
    else:
        det = gram[:, 0, 0] * gram[:, 1, 1] - gram[:, 0, 1] ** 2
        explained = (
            gram[:, 1, 1] * proj[:, 0] ** 2
            - 2.0 * gram[:, 0, 1] * proj[:, 0] * proj[:, 1]
            + gram[:, 0, 0] * proj[:, 1] ** 2
        )
    ok = det > _DEGENERATE * scale
    if not np.any(ok):
        return float("nan"), np.full(phi.shape[1] + 1, np.nan), float("inf")
    explained = np.where(ok, explained / np.where(ok, det, 1.0), -np.inf)
    theta = float(grid[int(np.argmax(explained))])

    def design(t):
        p, dp = basis(np.array([t]), x)
        return np.column_stack([np.ones(n), p[0].T]), dp[0].T

    cols, dcols = design(theta)
    coef = np.linalg.lstsq(cols, y, rcond=None)[0]
    ssr = float(np.sum((y - cols @ coef) ** 2))
    # Gauss-Newton on the full model with the analytic Jacobian,
    # halving a step until it does not raise the residual (to rounding).
    for _ in range(_MAX_STEPS):
        jac = np.column_stack([cols, dcols @ coef[1:]])
        step = np.linalg.lstsq(jac, y - cols @ coef, rcond=None)[0]
        converged = abs(step[-1]) <= _REL_STEP * max(abs(theta), 1.0)
        for _ in range(_MAX_HALVINGS):
            cols_new, dcols_new = design(theta + step[-1])
            ssr_new = float(np.sum((y - cols_new @ (coef + step[:-1])) ** 2))
            if ssr_new <= ssr * (1.0 + _SSR_SLACK) or converged:
                break
            step = 0.5 * step
        else:
            break
        theta, coef, ssr = theta + step[-1], coef + step[:-1], ssr_new
        cols, dcols = cols_new, dcols_new
        if converged:
            break
    return theta, coef, ssr
