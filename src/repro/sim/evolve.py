"""Piecewise-constant time evolution — the batched propagator engine.

The control stack discretizes every pulse into samples of length ``dt``;
within one sample the Hamiltonian is constant, so the exact propagator
is a matrix exponential. For the small Hilbert spaces simulated here
(D <= ~32) the fastest exact route is the Hermitian eigendecomposition
``U = V exp(-2*pi*i*E*dt) V†``.

Two complementary strategies keep the Python overhead off the hot path:

* **Batching** — per-slice Hamiltonians are stacked into one
  ``(n, D, D)`` array and exponentiated with a handful of *batched*
  BLAS/LAPACK calls instead of ``n`` Python-level round trips. Entry
  points: :func:`build_hamiltonians`, :func:`batched_propagators`, and
  :func:`propagator_sequence` (which composes the two). One routine
  serves both the Hermitian propagators and the general
  (superoperator) exponentials of :func:`batched_expm`: a
  scaling-and-squaring Paterson-Stockmeyer Taylor evaluation, pure
  batched matmuls — on a single core the LAPACK per-matrix overhead
  of small-``D`` eigendecompositions makes it decisively faster, while
  agreeing with ``eigh`` to ~1e-13. Each slice whose estimated
  squaring level is too high for it goes to an exact per-matrix route
  instead: a stacked ``eigh`` for Hamiltonians, scipy's Pade for
  general matrices. The route is always worked out from the slice.
* **Caching** — :class:`PropagatorCache` memoizes propagators keyed on
  ``(dtype policy, H fingerprint, dt, steps)``, so repeated slices
  (flat-top pulses, sweeps re-visiting the same amplitudes, drift
  segments) skip the decomposition entirely.
  :meth:`PropagatorCache.propagators` combines both: cache misses are
  deduplicated *within* the batch and diagonalized together, and the
  result is a table of distinct propagators plus a per-slice index, so
  a slice repeated across a batch is stored (and applied) once.

Every stack is computed in the complex dtype of the active
:class:`~repro.sim.precision.DtypePolicy`: complex128 by default, or
complex64 inside a :func:`~repro.sim.precision.use_dtype` scope.

Identical consecutive samples (flat-top pulses, delays) are still
collapsed into a single propagator with the phase factor raised to the
segment length (:func:`segment_runs`) — the vectorization/caching
strategy recommended by the HPC guides (avoid per-sample work where
the physics doesn't change). The schedule executor never builds the
per-sample drive: it evaluates a family only at its candidate run
starts and merges those rows with :func:`segment_runs`.

Hamiltonians are given in **Hz units** (linear frequency); the ``2*pi``
is applied here, once.
"""

from __future__ import annotations

import hashlib
import math
import threading
import time
from collections import OrderedDict
from typing import Sequence

import numpy as np

from repro.errors import ValidationError
from repro.obs import profile as _profile
from repro.obs.metrics import REGISTRY, CacheStats
from repro.obs.tracing import span
from repro.sim.precision import DtypePolicy, active_dtype

_TWO_PI = 2.0 * math.pi


def _adjoint(a):
    """Conjugate transpose over the last two axes.

    Conjugate first, then a stride-swapped view: the layout BLAS sees
    in the following matmul, and so its bitwise result, depends on it.
    """
    return np.swapaxes(np.conj(a), -1, -2)


def step_propagator(hamiltonian, dt: float, steps: int = 1):
    """Exact propagator for a constant Hamiltonian over ``steps * dt``.

    ``U = exp(-2*pi*i * H * dt * steps)`` with *H* Hermitian, in Hz.
    """
    policy = active_dtype()
    h = np.asarray(hamiltonian, dtype=policy.cdtype)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValidationError(f"Hamiltonian must be square, got shape {h.shape}")
    if dt <= 0:
        raise ValidationError(f"dt must be > 0, got {dt}")
    if steps < 1:
        raise ValidationError(f"steps must be >= 1, got {steps}")
    evals, evecs = np.linalg.eigh(h)
    phases = np.exp(np.asarray(-1j * _TWO_PI * evals * dt * steps, dtype=policy.cdtype))
    return np.matmul(evecs * phases, _adjoint(evecs))


def free_propagator(drift_eig: tuple, dt: float, steps: int):
    """Propagator for the drift alone, from its cached eigendecomposition.

    *drift_eig* is the ``(evals, evecs)`` pair from ``eigh``.
    """
    return free_propagators(drift_eig, dt, [steps])[0]


def free_propagators(drift_eig: tuple, dt: float, steps):
    """``(n, D, D)`` drift propagators for the *steps* lengths at once.

    One stacked multiply ``evecs * exp(-2 pi i lambda dt n) @
    evecs^dag`` over the lengths; each row is bitwise the one-length
    :func:`free_propagator`.
    """
    policy = active_dtype()
    evals, evecs = drift_eig
    evecs = np.asarray(evecs, dtype=policy.cdtype)
    lengths = np.asarray(steps)[:, None]
    phases = np.exp(
        np.asarray(-1j * _TWO_PI * evals * dt * lengths, dtype=policy.cdtype)
    )
    return np.matmul(evecs * phases[:, None, :], _adjoint(evecs))


def evolve_unitary(unitary, state):
    """Apply *unitary* to a ket (1-D) or density matrix (2-D)."""
    policy = active_dtype()
    state = np.asarray(state, dtype=policy.cdtype)
    if state.ndim == 1:
        return np.matmul(unitary, state)
    if state.ndim == 2:
        return np.matmul(np.matmul(unitary, state), _adjoint(unitary))
    raise ValidationError(f"state must be 1-D or 2-D, got ndim={state.ndim}")


# ---- batched engine --------------------------------------------------------------


def build_hamiltonians(drift, control_ops: Sequence, controls):
    """Stack the per-slice Hamiltonians ``H_k = drift + sum_j u_kj C_j``.

    Parameters
    ----------
    controls:
        Real array of shape ``(n_steps, n_controls)`` in Hz.

    Returns
    -------
    Complex array of shape ``(n_steps, D, D)`` in the active dtype.
    """
    policy = active_dtype()
    controls = np.asarray(controls, dtype=np.float64)
    if controls.ndim != 2 or controls.shape[1] != len(control_ops):
        raise ValidationError(
            f"controls shape {controls.shape} does not match "
            f"{len(control_ops)} control operators"
        )
    drift = np.asarray(drift, dtype=policy.cdtype)
    if not control_ops:
        return np.ascontiguousarray(
            np.broadcast_to(drift, (controls.shape[0],) + tuple(drift.shape))
        )
    # One GEMM builds every slice: (n, j) @ (j, D*D) -> (n, D*D).
    ops = np.stack([np.asarray(c, dtype=policy.cdtype) for c in control_ops])
    j, d = ops.shape[0], ops.shape[1]
    flat = np.matmul(np.asarray(controls, dtype=policy.cdtype), ops.reshape(j, d * d))
    return flat.reshape(-1, d, d) + drift


# Paterson-Stockmeyer Taylor coefficients, degree 12 in chunks of 4:
# exp(x) ~= ((B3 x^4 + B2) x^4 + B1) x^4 + B0 with each B_j cubic in x.
# Degree 12 at the scaled radius 0.7 leaves a truncation error below
# 0.7^13 / 13! ~ 2e-12 per factor — two orders under the engine's
# 1e-10 equivalence contract even after squaring amplification.
_PS_COEFFS = np.array(
    [[1.0 / math.factorial(4 * j + k) for k in range(4)] for j in range(3)]
)
_PS_SCALE_THRESHOLD = 0.7
# batched_expm hands slices needing more squaring levels than this to
# scipy's Pade: 2^14 levels of rounding amplification keep the matmul
# route under ~4e-12, comfortably inside the 1e-10 equivalence contract.
_EXPM_MAX_LEVELS = 14

# Hermitian slices whose estimated squaring level reaches this go to
# eigh instead: past ~9 levels one exact per-matrix LAPACK
# decomposition is cheaper than (6 + s) batched squaring matmuls.
_EIGH_LEVELS = 9

# Process large stacks in cache-resident chunks: the working set of
# the expm evaluation is ~9 stack-sized arrays, and keeping it inside
# the CPU caches beats one monolithic DRAM-bound pass. The slice cap
# alone is not enough — at D=81 a 256-slice chunk is a ~240 MB working
# set — so the effective chunk also honors a byte budget per dimension.
_EXPM_CHUNK = 256
_EXPM_BUDGET_BYTES = 16 << 20


def _expm_chunk(dim: int) -> int:
    """Chunk length keeping ~9 complex stacks inside _EXPM_BUDGET_BYTES."""
    return max(8, min(_EXPM_CHUNK, _EXPM_BUDGET_BYTES // (9 * 16 * dim * dim)))

# Reusable per-thread work buffers for the expm evaluation. A fresh
# multi-megabyte allocation per call costs more in first-touch page
# faults than the matmuls that fill it; the hot paths (GRAPE line
# searches, schedule sweeps) call with identical shapes thousands of
# times, so the buffers are keyed by (dtype policy, tag) and recycled
# per thread — a complex64 scope and the complex128 default never
# alias one another's storage.
_SCRATCH = threading.local()


def _scratch(
    policy: DtypePolicy, tag: str, shape: tuple[int, ...], dtype=None
) -> tuple:
    """``(buffer, fresh)`` — a recycled work array for *tag*.

    One flat allocation per (dtype policy, tag), grown to the largest
    capacity seen and viewed at the requested shape — varying chunk
    shapes reuse the same storage instead of accumulating per-shape
    buffers. ``fresh`` is True whenever the returned view does not
    hold the previous call's contents for this key (new allocation or
    shape change).
    """
    if dtype is None:
        dtype = policy.cdtype
    pool = getattr(_SCRATCH, "pool", None)
    if pool is None:
        pool = _SCRATCH.pool = {}
    size = math.prod(shape)
    key = (policy.name, tag)
    entry = pool.get(key)
    if entry is not None:
        flat, last_shape = entry
        if flat.shape[0] >= size and flat.dtype == dtype:
            pool[key] = (flat, shape)
            return flat[:size].reshape(shape), last_shape != shape
    flat = np.empty(size, dtype=dtype)
    pool[key] = (flat, shape)
    return flat.reshape(shape), True


def _expm_skew_batched(policy: DtypePolicy, hs, coeff, shift, out) -> int:
    """``out = exp(coeff * hs - diag(shift))`` for a Hermitian stack.

    Returns the squaring level ``s`` used for this chunk (profiling
    reads it; the result in *out* is unaffected).

    Scaling-and-squaring with a degree-12 Paterson-Stockmeyer Taylor
    evaluation — pure batched matmuls, no per-matrix LAPACK calls. The
    scaling power is shared across the stack (``exp(theta) =
    exp(theta/2^s)^(2^s)`` holds for any ``s``, so the largest needed
    power is simply used for every matrix) and is bounded through the
    quartic power: ``rho(theta) <= ||theta^4||_inf ^ (1/4)``, which the
    evaluation computes anyway. The powers — including an identity row,
    so the B_j constant terms ride along — are combined into the
    Paterson-Stockmeyer blocks by a single GEMM whose coefficients
    absorb the scale factors, so scaling costs no extra array passes.
    All intermediates live in recycled per-thread scratch buffers; only
    *out* (the caller's array) is written.
    """
    n, dim = hs.shape[0], hs.shape[1]
    powers, fresh = _scratch(policy, "powers", (5, n, dim, dim))
    if fresh:
        powers[0] = np.eye(dim)
    theta = powers[1]
    np.multiply(
        hs, coeff if coeff.ndim == 0 else coeff[:, None, None], out=theta
    )
    idx = np.arange(dim)
    theta[:, idx, idx] -= shift[:, None]
    np.matmul(theta, theta, out=powers[2])  # theta^2
    np.matmul(powers[2], theta, out=powers[3])  # theta^3
    np.matmul(powers[2], powers[2], out=powers[4])  # theta^4
    absbuf, _ = _scratch(policy, "abs", (n, dim, dim), policy.rdtype)
    np.abs(powers[4], out=absbuf)
    rho = float(np.max(np.sum(absbuf, axis=2))) ** 0.25
    s = max(0, int(np.ceil(np.log2(max(rho, 1e-300) / _PS_SCALE_THRESHOLD))))
    # Squaring doubles the truncation error per level, so the norm-based
    # scale alone degrades linearly in 2^s for long constant runs (large
    # steps). Keep adding levels until the accumulated bound
    # 2^s * r^13/13! clears ~1e-11 — each level wins back 2^12.
    while (2.0**s) * (rho / 2.0**s) ** 13 / math.factorial(13) > 1e-11:
        s += 1
    sc = 2.0**-s
    # Blocks B0..B2 in one GEMM; B3 = I/12! contributes F12 * x^4 to B2.
    coeffs = np.zeros((3, 5), dtype=np.complex128)
    coeffs[:, :4] = _PS_COEFFS * sc ** np.arange(4)
    coeffs[2, 4] = sc**4 / math.factorial(12)
    blocks, _ = _scratch(policy, "blocks", (3, n, dim, dim))
    np.matmul(
        np.asarray(coeffs, dtype=policy.cdtype),
        powers.reshape(5, -1),
        out=blocks.reshape(3, -1),
    )
    b0, b1, b2 = blocks
    x4 = powers[4]
    x4 *= sc**4
    t1, _ = _scratch(policy, "horner", (n, dim, dim))
    np.matmul(b2, x4, out=t1)
    t1 += b1
    u = np.matmul(t1, x4, out=b2)
    u += b0
    if s == 0:
        out[...] = u
        return 0
    scratch = t1
    for i in range(s):
        out_buf = out if i == s - 1 else scratch
        np.matmul(u, u, out=out_buf)
        u, scratch = out_buf, u
    return s


def _as_stack(policy: DtypePolicy, matrices):
    """*matrices* as an ``(n, D, D)`` stack in the policy's complex dtype."""
    a = np.asarray(matrices, dtype=policy.cdtype)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValidationError(f"stack must have shape (n, D, D), got {a.shape}")
    return a


def _per_slice(value, n: int, name: str):
    """*value* as a scalar or length-*n* array."""
    arr = np.asarray(value)
    if arr.ndim not in (0, 1) or (arr.ndim == 1 and arr.shape[0] != n):
        raise ValidationError(
            f"{name} must be a scalar or length-{n} array, got shape {arr.shape}"
        )
    return arr


def _expm_stack(policy: DtypePolicy, a, coeff, mu, far_level: int, far, kernel: str):
    """``exp(coeff_k * A_k)`` for an ``(n, m, m)`` stack, routed per slice.

    *mu* holds the per-slice traces ``tr(A_k) / m``. Each slice's
    squaring level is estimated from the cheap radius bound
    ``|coeff_k| * (||A_k||_inf + |mu_k|)``; slices at or past
    *far_level* go to the caller's exact per-matrix route
    ``far(idx)`` (profiled under ``far.__name__``). The rest run the
    batched Paterson-Stockmeyer evaluation on ``coeff_k * (A_k - mu_k
    I)``, with the trace shift restored as a scalar phase — it halves
    the spectral radius of the lopsided spectra seen here (transmon
    anharmonicity ladders), saving squarings.

    The squaring level is shared across a chunk (the largest slice's
    ``s`` applies to every matrix in it), so a heterogeneous stack —
    many short pulse samples mixed with a few long constant runs, the
    shape every batched Ramsey/delay sweep produces — would pay the
    worst slice's squarings on the whole chunk. Slices are therefore
    grouped by estimated level first, and results scatter back in
    input order; a homogeneous stack is the plain chunked loop.
    """
    n, m = a.shape[0], a.shape[1]
    if n == 0:
        return np.copy(a)
    row_sums = np.max(np.sum(np.abs(a), axis=2), axis=1)
    radius = np.abs(coeff) * (row_sums + np.abs(mu))
    levels = np.maximum(
        0,
        np.ceil(
            np.log2(np.maximum(radius, 1e-300) / _PS_SCALE_THRESHOLD)
        ).astype(int),
    )
    routed = levels >= far_level
    out = np.empty_like(a)
    if routed.any():
        t0 = time.perf_counter()
        idx = np.nonzero(routed)[0]
        out[idx] = far(idx)
        _profile.kernel(
            kernel,
            n=idx.size,
            dim=m,
            seconds=time.perf_counter() - t0,
            method=far.__name__,
            dtype=policy.name,
        )
        if routed.all():
            return out
    t0 = time.perf_counter()
    shift = coeff * mu
    top = 0
    chunk = _expm_chunk(m)
    # Asking unique for an index output keeps NumPy off its lazy
    # numpy.ma import (a masked-array check made only without one).
    for level in np.unique(levels[~routed], return_index=True)[0]:
        sel = np.nonzero(levels == level)[0]
        for lo in range(0, sel.size, chunk):
            idx = sel[lo : lo + chunk]
            whole = idx.size == n  # one homogeneous chunk: no gather
            shift_chunk = shift if whole else shift[idx]
            out_chunk = out if whole else np.empty_like(a[idx])
            s = _expm_skew_batched(
                policy,
                a if whole else a[idx],
                coeff if coeff.ndim == 0 else coeff[idx],
                shift_chunk,
                out_chunk,
            )
            out_chunk *= np.exp(shift_chunk)[:, None, None]
            if not whole:
                out[idx] = out_chunk
            top = max(top, s)
    _profile.kernel(
        kernel,
        n=n - int(routed.sum()),
        dim=m,
        seconds=time.perf_counter() - t0,
        levels=top,
        method="expm",
        dtype=policy.name,
    )
    return out


def batched_propagators(hamiltonians, dt: float, steps=1):
    """Exact propagators for a stack of constant Hamiltonians.

    ``U_k = exp(-2*pi*i * H_k * dt * steps_k)`` for the whole
    ``(n, D, D)`` stack in a handful of batched array operations in
    the active dtype (:func:`~repro.sim.precision.use_dtype`).

    Each slice takes the cheaper exact route for its length: the
    batched Paterson-Stockmeyer matmuls for typical sample durations,
    and one stacked Hermitian eigendecomposition ``V exp(-2*pi*i E dt
    s) V†`` once its squaring level reaches ``_EIGH_LEVELS``. Past
    that level one LAPACK decomposition costs less than the ``6 + s``
    squaring matmuls, and each level also doubles the rounding, so long
    constant runs (Ramsey delays, flat-top Rabi pulses) are cheaper and
    exact through ``eigh``. Mixed stacks split per slice and recombine
    in input order.

    Parameters
    ----------
    hamiltonians:
        Hermitian stack of shape ``(n, D, D)`` in Hz.
    steps:
        Scalar or length-``n`` integer array of segment lengths.

    Returns
    -------
    Complex array of shape ``(n, D, D)``.
    """
    policy = active_dtype()
    hs = _as_stack(policy, hamiltonians)
    if dt <= 0:
        raise ValidationError(f"dt must be > 0, got {dt}")
    steps_arr = _per_slice(steps, hs.shape[0], "steps")
    if np.any(steps_arr < 1):
        raise ValidationError("steps must be >= 1")
    durations = dt * steps_arr.astype(np.float64)

    def eigh(idx):
        evals, evecs = np.linalg.eigh(hs[idx])  # (k, D), (k, D, D)
        length = durations if durations.ndim == 0 else durations[idx, None]
        phases = np.exp(np.asarray(-1j * _TWO_PI * evals * length, dtype=policy.cdtype))
        return np.matmul(evecs * phases[:, None, :], _adjoint(evecs))

    coeff = np.asarray(-1j * _TWO_PI * durations, dtype=policy.cdtype)
    mu = np.real(np.trace(hs, axis1=1, axis2=2)) / hs.shape[1]
    return _expm_stack(policy, hs, coeff, mu, _EIGH_LEVELS, eigh, "propagators")


def batched_expm(matrices, *, scale=1.0):
    """``exp(scale_k * A_k)`` for a stack of *general* square matrices.

    The open-system engine exponentiates Lindblad superoperators —
    non-Hermitian, so the ``eigh`` route of
    :func:`batched_propagators` does not apply — through the same
    scaling-and-squaring Paterson-Stockmeyer evaluation. A slice whose
    scaled norm would need more than ``_EXPM_MAX_LEVELS`` squarings
    goes to ``scipy.linalg.expm`` (Pade) instead, one matrix at a time.

    Parameters
    ----------
    matrices:
        Stack of shape ``(n, m, m)`` — complex, no symmetry assumed.
    scale:
        Scalar or length-``n`` multiplier folded into the exponent
        (e.g. ``dt * steps`` in seconds for superoperator stacks whose
        rates are per-second).
    """
    policy = active_dtype()
    a = _as_stack(policy, matrices)
    coeff = np.asarray(_per_slice(scale, a.shape[0], "scale"), dtype=policy.cdtype)

    def dense(idx):
        c = coeff if coeff.ndim == 0 else coeff[idx]
        return np.asarray(_dense_expm(a[idx], c), dtype=policy.cdtype)

    mu = np.trace(a, axis1=1, axis2=2) / a.shape[1]
    return _expm_stack(policy, a, coeff, mu, _EXPM_MAX_LEVELS + 1, dense, "expm")


def _coerce_expm_result(r, stack_dtype):
    """Normalize one per-matrix dense-expm result to the stack dtype.

    ``scipy.linalg.expm`` may return a wider (or, in principle,
    different-kind) dtype than the stack it came from; stacking those
    raw would silently promote the whole result. Widening results are
    folded back down explicitly — failing loud when the downcast
    overflows — and kind-changing results (complex -> real would drop
    the imaginary part) are rejected outright.
    """
    r = np.asarray(r)
    if r.dtype == stack_dtype:
        return r
    if not np.can_cast(r.dtype, stack_dtype, casting="same_kind"):
        raise ValidationError(
            f"dense expm returned dtype {r.dtype}, which cannot be "
            f"coerced to the stack dtype {stack_dtype} without silently "
            "dropping components"
        )
    with np.errstate(over="ignore"):  # overflow is checked explicitly below
        coerced = r.astype(stack_dtype)
    if not bool(np.all(np.isfinite(coerced))) and bool(
        np.all(np.isfinite(r))
    ):
        raise ValidationError(
            f"dense expm result overflowed while downcasting from "
            f"{r.dtype} to the stack dtype {stack_dtype}"
        )
    return coerced


def _dense_expm(a, coeff):
    """Per-matrix scipy Pade exponential of ``coeff_k * a_k``."""
    from scipy.linalg import expm

    scaled = a * np.broadcast_to(coeff, (a.shape[0],))[:, None, None]
    return np.stack(
        [_coerce_expm_result(expm(x), scaled.dtype) for x in scaled]
    )


def batched_expm_and_frechet(hamiltonians, dt: float):
    """Batched eigendecomposition plus the Daleckii-Krein kernel.

    For every Hamiltonian in the ``(n, D, D)`` stack, returns
    ``(U, V, gamma)`` stacks where ``U_k = exp(-2*pi*i*H_k*dt)``,
    ``V_k`` is the eigenvector matrix and ``gamma_k[a, b]`` is the
    divided-difference kernel such that the derivative of ``U_k`` in
    direction ``E`` is ``V_k (gamma_k ∘ (V_k† E V_k)) V_k†``. The
    kernel is elementwise on the stacked eigenbasis, so the whole
    construction is a handful of broadcast operations.
    """
    policy = active_dtype()
    hs = _as_stack(policy, hamiltonians)
    evals, vecs = np.linalg.eigh(hs)  # (n, D), (n, D, D)
    f = np.exp(np.asarray(-1j * _TWO_PI * evals * dt, dtype=policy.cdtype))  # (n, D)
    us = np.matmul(vecs * f[:, None, :], _adjoint(vecs))
    lam = evals[:, :, None] - evals[:, None, :]  # (n, D, D)
    df = f[:, :, None] - f[:, None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        gamma = np.where(np.abs(lam) > 1e-12, df / lam, 0.0)
    # Fill the (near-)degenerate entries with the derivative f'(lambda).
    diag = -1j * _TWO_PI * dt * f
    near = np.abs(lam) <= 1e-12
    gamma = np.where(
        near, 0.5 * (diag[:, :, None] + diag[:, None, :]), gamma
    )
    return us, vecs, gamma


def _layout(h: np.ndarray) -> bytes:
    """The shape and dtype of *h*, as fingerprint bytes."""
    return f"{h.shape}{h.dtype.str}".encode()


def hamiltonian_fingerprint(hamiltonian, layout: bytes | None = None) -> bytes:
    """Content digest of a Hamiltonian, for propagator-cache keys.

    The digest covers the raw bytes, the shape, **and the dtype**: a
    complex64 and a complex128 Hamiltonian never alias to one cache
    entry, even where truncated byte prefixes would collide. A caller
    hashing a stack's slices passes their shared *layout* once.
    """
    h = np.ascontiguousarray(hamiltonian)
    digest = hashlib.blake2b(h, digest_size=16)  # the buffer, not a copy
    digest.update(layout if layout is not None else _layout(h))
    return digest.digest()


class PropagatorCache:
    """Bounded LRU cache of slice propagators.

    Keys are ``(dtype policy, H fingerprint, dt, steps)``; values are
    the exact propagators ``exp(-2*pi*i*H*dt*steps)`` in that policy's
    complex dtype. Repeated slices — flat-top pulses,
    parameter sweeps re-visiting the same amplitudes, drift segments
    between pulses — skip the eigendecomposition entirely. Sweeps over
    frame phase hit as well: the schedule executor hands over
    phase-free Hamiltonians for phase-covariant channels and applies
    the phase to the state. Entries namespace on the active
    :class:`~repro.sim.precision.DtypePolicy` name, so a complex64
    scope never serves (or poisons) complex128 results.
    Thread-safe; one instance can be shared across executors.
    Entries are stored frozen read-only, and :meth:`propagators` hands
    them back as they are: a ``(table, index)`` pair of the distinct
    entries and one table row per slice, never a per-slice copy.

    Hit/miss/eviction accounting lives in a
    :class:`~repro.obs.CacheStats` whose every mutation happens under
    the cache lock (concurrent ``compute=`` overrides used to race the
    bare integer attributes). ``hits`` and ``misses`` count slices;
    ``stats["deduped"]`` counts the missed slices an equal slice of the
    same call served, so ``misses - deduped`` propagators were
    computed. ``stats()`` returns the same dict shape
    as :class:`~repro.compiler.jit.JITCompiler`, and each instance
    self-registers on the global obs registry.
    """

    def __init__(self, max_entries: int = 4096) -> None:
        if max_entries < 1:
            raise ValidationError(
                f"max_entries must be >= 1, got {max_entries}"
            )
        self.max_entries = max_entries
        self._entries: OrderedDict[tuple, object] = OrderedDict()
        self._lock = threading.Lock()
        self.stats = CacheStats(
            self.__len__,
            lambda: self.max_entries,
            hits=0,
            misses=0,
            evictions=0,
            deduped=0,
        )
        REGISTRY.register_cache(
            REGISTRY.autoname("propagator"), self, kind="propagator"
        )

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    @property
    def hits(self) -> int:
        """Total slice lookups served from the cache."""
        with self._lock:
            return self.stats["hits"]

    @property
    def misses(self) -> int:
        """Total slice lookups that found no cache entry."""
        with self._lock:
            return self.stats["misses"]

    @property
    def deduped(self) -> int:
        """Missed slices a repeat within the same call served.

        ``misses - deduped`` is the number of propagators computed.
        """
        with self._lock:
            return self.stats["deduped"]

    def propagators(
        self,
        hamiltonians,
        dt: float,
        steps=1,
        *,
        compute=None,
        tag: str = "",
    ):
        """Cached equivalent of :func:`batched_propagators`.

        Looks every slice up by ``(dtype policy, fingerprint, dt,
        steps)``; the misses are deduplicated within the batch,
        diagonalized with a single batched call, and inserted.

        Returns ``(table, index)``: *table* is a tuple of the distinct
        propagators — the frozen, read-only cache entries themselves,
        in order of first appearance — and *index* the ``(n,)`` table
        row of each slice. A caller that needs the per-slice stack
        writes ``np.stack(table)[index]``; the executor and the
        open-system engine apply ``table[index[k]]`` without one.

        *compute* overrides the batched computation for the misses —
        any ``(hamiltonians, dt, steps) -> stack`` callable; the
        open-system engine passes its superoperator exponentiation
        here so Lindblad propagators get the same fingerprint-keyed
        dedup/memoization as unitaries. A non-empty *tag* namespaces
        those entries (the key stays the *Hamiltonian* fingerprint,
        which is cheaper to hash than the ``D^2 x D^2`` superoperator).
        """
        policy = active_dtype()
        hs = _as_stack(policy, hamiltonians)
        n = hs.shape[0]
        if n == 0:
            return (), np.zeros(0, dtype=np.intp)
        steps_in = np.asarray(steps)
        if np.any(steps_in != steps_in.astype(np.int64)):
            raise ValidationError(f"steps must be integral, got {steps}")
        steps_arr = np.broadcast_to(steps_in.astype(np.int64), (n,))
        # Consecutive identical (H, steps) slices — flat-top pulses,
        # segment ansatzes — collapse to one representative per run in
        # a single vectorized comparison pass; non-adjacent repeats
        # collapse through the shared cache key onto one table row.
        # Only representatives are hashed.
        # The key's tag namespaces entries produced by different compute
        # functions (e.g. Lindblad superoperator propagators keyed on
        # the same Hamiltonian fingerprints) so they cannot collide
        # with plain unitary propagators in a shared cache; the
        # dtype policy name namespaces entries per working precision.
        changed = np.any(hs[1:] != hs[:-1], axis=(1, 2)) | (
            steps_arr[1:] != steps_arr[:-1]
        )
        inverse = np.concatenate(([0], np.cumsum(changed)))
        reps = np.concatenate(([0], np.nonzero(changed)[0] + 1))
        run_sizes = np.diff(np.concatenate((reps, [n]))).tolist()
        layout = _layout(hs[0])
        keys = [
            (
                tag,
                policy.name,
                hamiltonian_fingerprint(hs[k], layout),
                float(dt),
                int(steps_arr[k]),
            )
            for k in reps
        ]
        table: list = []
        rows: dict[tuple, int] = {}
        run_rows = np.empty(len(reps), dtype=np.intp)
        missing: list[int] = []  # runs whose key must be computed
        hit_count = miss_count = 0
        with self._lock:
            for i, key in enumerate(keys):
                row = rows.get(key)
                if row is None:
                    row = rows[key] = len(table)
                    u = self._entries.get(key)
                    if u is not None:
                        self._entries.move_to_end(key)
                    else:
                        missing.append(i)
                    table.append(u)
                run_rows[i] = row
                if table[row] is None:
                    miss_count += run_sizes[i]
                else:
                    hit_count += run_sizes[i]
            self.stats["hits"] += hit_count
            self.stats["misses"] += miss_count
            self.stats["deduped"] += miss_count - len(missing)
        with span(
            "cache",
            cache="propagator",
            slices=n,
            unique=len(reps),
            hits=hit_count,
            misses=miss_count,
            deduped=miss_count - len(missing),
        ):
            _profile.cache_batch(
                n=n, unique=len(reps), hits=hit_count, misses=miss_count
            )
            if missing:
                sel = reps[missing]
                fresh = (compute or batched_propagators)(
                    hs[sel], dt, steps_arr[sel]
                )
                for u, i in zip(fresh, missing):
                    # Copy before storing: a row view would pin the whole
                    # (n_miss, D, D) batch in memory for the entry's LRU
                    # lifetime.
                    u = np.copy(u)
                    u.flags.writeable = False
                    table[run_rows[i]] = u
                    self._store(keys[i], u)
            return tuple(table), run_rows[inverse]

    def _store(self, key: tuple, u) -> None:
        # The caller freezes *u* first, so an accidental in-place edit
        # of a stored entry becomes an immediate error instead of silent
        # cache poisoning.
        with self._lock:
            self._entries[key] = u
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.stats["evictions"] += 1


def _piecewise_table(drift, control_ops, controls, dt, cache):
    """``(table, index)`` of the slice propagators of a piecewise control."""
    hs = build_hamiltonians(drift, control_ops, controls)
    if dt <= 0:
        raise ValidationError(f"dt must be > 0, got {dt}")
    if cache is not None:
        return cache.propagators(hs, dt)
    us = batched_propagators(hs, dt)
    return us, np.arange(len(us))


def propagator_sequence(
    drift,
    control_ops: Sequence,
    controls,
    dt: float,
    *,
    cache: PropagatorCache | None = None,
) -> list:
    """Per-slice propagators for GRAPE-style piecewise-constant control.

    ``H_k = drift + sum_j controls[k, j] * control_ops[j]`` (all in Hz).
    The slice Hamiltonians are stacked and diagonalized in one batched
    call (:func:`batched_propagators`); with *cache* given, slices seen
    before skip the decomposition.

    Parameters
    ----------
    controls:
        Real array of shape ``(n_steps, n_controls)``.

    Returns
    -------
    list of ``n_steps`` unitaries ``U_k``; the total propagator is
    ``U_{n-1} ... U_1 U_0``.
    """
    table, index = _piecewise_table(drift, control_ops, controls, dt, cache)
    return list(np.asarray(table)[index])


def evolve_piecewise(
    drift,
    control_ops: Sequence,
    controls,
    dt: float,
    state=None,
    *,
    cache: PropagatorCache | None = None,
):
    """Total propagator (or final state) of a piecewise-constant control.

    When *state* is given, the propagators are applied to it step by
    step (cheaper than accumulating the full unitary for large D). Each
    step applies its table row, so a slice repeated along the control
    is neither copied nor stacked per step.
    """
    policy = active_dtype()
    table, index = _piecewise_table(drift, control_ops, controls, dt, cache)
    if state is not None:
        psi = np.asarray(state, dtype=policy.cdtype)
        for i in index.tolist():
            psi = evolve_unitary(table[i], psi)
        return psi
    total = np.eye(np.asarray(drift).shape[0], dtype=policy.cdtype)
    for i in index.tolist():
        total = np.matmul(table[i], total)
    return total


def segment_runs(samples, decimals: int = 12) -> list[tuple[int, int]]:
    """Split a per-sample drive matrix into runs of identical rows.

    Parameters
    ----------
    samples:
        Array of shape ``(n_steps, n_channels)`` (complex). Rows equal
        after rounding to *decimals* are merged into one run.

    Returns
    -------
    List of ``(start, length)`` pairs covering ``[0, n_steps)``.
    """
    n = samples.shape[0]
    if n == 0:
        return []
    rounded = np.round(samples, decimals)
    changed = np.any(
        rounded[1:] != rounded[:-1], axis=tuple(range(1, rounded.ndim))
    )
    bounds = [0, *(np.nonzero(changed)[0] + 1).tolist(), n]
    return [(s, e - s) for s, e in zip(bounds, bounds[1:])]
