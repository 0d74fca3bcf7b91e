"""Robustness scans: fidelity under detuning and amplitude errors.

Shaped pulses are "typically engineered to be robust against
experimental noise, such as amplitude fluctuations and frequency
detuning" (paper §2.1). These scans quantify that: evolve the same
control under a perturbed Hamiltonian and report fidelity to the target
across the error range. The optimal-control example uses them to show
GRAPE pulses holding a wider plateau than the square baseline.

Both scans run on the batched engine: the slice Hamiltonians of many
scan points are stacked into ``(points_per_chunk * n_steps, D, D)``
arrays and exponentiated in a handful of vectorized calls — a 101-point
scan costs a few batched passes rather than 101 per-slice Python loops,
with the chunking keeping peak memory bounded for large scans.

A scan over a compiled program's parameters is one
:class:`~repro.primitives.Estimator` PUB, and fidelity under T1/T2 is
the executor's Lindblad path (or
:meth:`~repro.control.grape.GrapeOptimizer.noisy_infidelity` for a
GRAPE pulse).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.sim.evolve import batched_propagators, build_hamiltonians
from repro.sim.fidelity import process_fidelity, unitary_fidelity


def _lift(target: np.ndarray, subspace: np.ndarray) -> np.ndarray:
    """Lift a subspace target to full dimension (zero elsewhere)."""
    return subspace @ target @ subspace.conj().T


# Bound on slices materialized at once by a scan: chunking over scan
# points keeps the batched speedup while the peak footprint stays at
# ~2 * _MAX_SCAN_SLICES * D^2 complex values instead of scaling with
# the full n_points * n_steps product.
_MAX_SCAN_SLICES = 2048


def _scan_fidelities(
    point_hamiltonians,
    n_points: int,
    n_steps: int,
    dt: float,
    target: np.ndarray,
    subspace: np.ndarray | None,
) -> np.ndarray:
    """Fidelity per scan point from stacked slice Hamiltonians.

    *point_hamiltonians* maps a ``(start, stop)`` scan-point range to
    the stacked ``(stop - start, n_steps, D, D)`` slice Hamiltonians;
    each chunk's slices are diagonalized in one batched call, then the
    per-point total propagators are accumulated with a log-depth
    pairwise reduction over the step axis — batched matmuls all the
    way down, no per-slice Python loop.
    """
    out = np.empty(n_points, dtype=np.float64)
    lifted = _lift(target, subspace) if subspace is not None else None
    chunk = max(1, _MAX_SCAN_SLICES // max(1, n_steps))
    for start in range(0, n_points, chunk):
        stop = min(start + chunk, n_points)
        hs = point_hamiltonians(start, stop)
        pts, _, dim, _ = hs.shape
        us = batched_propagators(
            hs.reshape(pts * n_steps, dim, dim), dt
        ).reshape(pts, n_steps, dim, dim)
        for i, total in enumerate(_pairwise_totals(us)):
            if subspace is not None:
                out[start + i] = process_fidelity(total, lifted, subspace=subspace)
            else:
                out[start + i] = unitary_fidelity(total, target)
    return out


def _pairwise_totals(us: np.ndarray) -> np.ndarray:
    """``U_{n-1} ... U_1 U_0`` per point, as ``O(log n)`` batched passes.

    Adjacent slices combine as ``U_{2k+1} @ U_{2k}`` (later step on the
    left); an odd trailing slice rides along unpaired. Each pass halves
    the step axis of the ``(pts, n_steps, D, D)`` stack. Zero steps
    means the empty product: identity per point.
    """
    if us.shape[1] == 0:
        pts, _, dim, _ = us.shape
        return np.broadcast_to(
            np.eye(dim, dtype=np.complex128), (pts, dim, dim)
        ).copy()
    while us.shape[1] > 1:
        k = us.shape[1]
        paired = us[:, 1 : 2 * (k // 2) : 2] @ us[:, 0 : 2 * (k // 2) : 2]
        if k % 2:
            paired = np.concatenate((paired, us[:, k - 1 : k]), axis=1)
        us = paired
    return us[:, 0]


def detuning_scan(
    drift: np.ndarray,
    control_ops: Sequence[np.ndarray],
    controls: np.ndarray,
    dt: float,
    target: np.ndarray,
    detuning_operator: np.ndarray,
    offsets_hz: Sequence[float],
    *,
    subspace: np.ndarray | None = None,
) -> np.ndarray:
    """Fidelity vs. static frequency offset.

    For each offset ``delta`` the drift becomes
    ``drift + delta * detuning_operator`` (operator in dimensionless
    units, e.g. a number operator, so ``delta`` is in Hz).
    """
    offsets = np.asarray(offsets_hz, dtype=np.float64)
    base = build_hamiltonians(drift, control_ops, controls)  # (n_steps, D, D)
    det = np.asarray(detuning_operator, dtype=np.complex128)

    def chunk_hamiltonians(start: int, stop: int) -> np.ndarray:
        return (
            base[None, :, :, :]
            + offsets[start:stop, None, None, None] * det[None, None, :, :]
        )

    return _scan_fidelities(
        chunk_hamiltonians, len(offsets), base.shape[0], dt, target, subspace
    )


def amplitude_scan(
    drift: np.ndarray,
    control_ops: Sequence[np.ndarray],
    controls: np.ndarray,
    dt: float,
    target: np.ndarray,
    scales: Sequence[float],
    *,
    subspace: np.ndarray | None = None,
) -> np.ndarray:
    """Fidelity vs. multiplicative amplitude miscalibration.

    ``scale = 1.0`` is the nominal pulse; 0.95/1.05 model +-5% drive
    amplitude error.
    """
    controls = np.asarray(controls, dtype=np.float64)
    scale_arr = np.asarray(scales, dtype=np.float64)
    drift_c = np.asarray(drift, dtype=np.complex128)
    base = build_hamiltonians(drift, control_ops, controls)
    drive_part = base - drift_c[None, :, :]  # sum_j u_kj C_j per slice

    def chunk_hamiltonians(start: int, stop: int) -> np.ndarray:
        return (
            drift_c[None, None, :, :]
            + scale_arr[start:stop, None, None, None] * drive_part[None, :, :, :]
        )

    return _scan_fidelities(
        chunk_hamiltonians, len(scale_arr), base.shape[0], dt, target, subspace
    )
