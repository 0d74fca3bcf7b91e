"""Batched open-system (Lindblad) evolution — the noisy-workload engine.

With finite T1/T2 the state is a density matrix and the exact dynamics
of one constant-drive run is the Lindblad master equation

``drho/dt = -2*pi*i [H, rho] + sum_j ( C_j rho C_j^dag
- 1/2 {C_j^dag C_j, rho} )``

with *H* in Hz and the collapse operators ``C_j`` carrying their rates
(units ``1/sqrt(s)``). Vectorizing the density matrix row-major
(``vec(A rho B) = (A kron B^T) vec(rho)``) turns each run into one
matrix exponential of the superoperator

``L = -2*pi*i (H kron I - I kron H^T) + sum_j ( C_j kron conj(C_j)
- 1/2 (C_j^dag C_j kron I + I kron (C_j^dag C_j)^T) )``

and the whole schedule into a stack of them — which this module
exponentiates exactly the way :mod:`repro.sim.evolve` exponentiates
unitary slices: assemble the ``(n, D^2, D^2)`` stack in a handful of
broadcast operations, push it through the batched scaling-and-squaring
Paterson-Stockmeyer :func:`~repro.sim.evolve.batched_expm` (scipy's
Pade for any slice that would need excessive squaring), and
memoize through the shared :class:`~repro.sim.evolve.PropagatorCache`
keyed on the *Hamiltonian* fingerprint under a dissipator-specific
namespace tag — repeated drive amplitudes (flat-tops, echo trains,
sweeps) skip the superoperator assembly and exponential entirely.

For large Hilbert spaces the ``D^2 x D^2`` superoperator is the wrong
data structure; :meth:`OpenSystemEngine.evolve_trajectories` provides
the standard quantum-jump (Monte-Carlo wave function) unraveling
instead: kets evolve under the non-Hermitian effective Hamiltonian
``H - i/(4*pi) * sum_j C_j^dag C_j`` (one batched non-unitary
propagator per run, shared across all trajectories) and jump when the
squared norm crosses a pre-drawn uniform threshold. Memory is
``O(n_traj * D)`` and the average converges to the Lindblad result at
the ``1/sqrt(n_traj)`` shot rate.

The Hilbert dimension picks between the two: the schedule executor
(:class:`~repro.sim.executor.ScheduleExecutor`) materializes
superoperators up to its ``_MAX_SUPEROP_DIM`` and samples
trajectories beyond.

Superoperator assembly and the vectorized evolution loop run in the
active dtype policy (:mod:`repro.sim.precision`). The collapse
operators, the dissipator and the trajectory kets stay complex128.
"""

from __future__ import annotations

import hashlib
from typing import Sequence

import numpy as np

from repro.errors import ValidationError
from repro.sim.evolve import PropagatorCache, _as_stack, batched_expm
from repro.sim.model import DecoherenceSpec, SystemModel
from repro.sim.operators import annihilation, embed
from repro.sim.precision import active_dtype

_TWO_PI = 2.0 * np.pi

#: Pure-dephasing rates below this (1/s) are treated as zero — matching
#: the physicality tolerance of :class:`DecoherenceSpec` (T2 = 2*T1).
_RATE_FLOOR = 1e-15


def dephasing_rate(spec: DecoherenceSpec) -> float:
    """Pure-dephasing rate ``gamma_phi = 1/T2 - 1/(2*T1)`` in 1/s."""
    rate = 0.0
    if np.isfinite(spec.t2):
        rate = 1.0 / spec.t2 - (
            0.5 / spec.t1 if np.isfinite(spec.t1) else 0.0
        )
    return max(0.0, rate)


def collapse_operators(
    dims: Sequence[int], decoherence: Sequence[DecoherenceSpec]
) -> list[np.ndarray]:
    """Per-site T1/T2 collapse operators, embedded in the full space.

    Amplitude damping enters as ``sqrt(1/T1) * a`` (the ladder
    operator's ``sqrt(n)`` matrix elements give level *n* the decay
    rate ``n/T1``); pure dephasing as ``sqrt(gamma_phi/2) * Z`` with
    ``Z = diag(1, -1, ..., -1)`` — levels >= 1 pick up the phase flip,
    matching the discriminator convention (any level >= 1 reads as 1) —
    so coherences to the ground state decay at exactly ``1/T2``.
    """
    if decoherence and len(decoherence) != len(dims):
        raise ValidationError(
            "decoherence must list one spec per site when provided"
        )
    ops: list[np.ndarray] = []
    for site, spec in enumerate(decoherence):
        if not spec.has_decoherence:
            continue
        d = dims[site]
        if np.isfinite(spec.t1):
            ops.append(
                embed(annihilation(d) / np.sqrt(spec.t1), site, dims)
            )
        rate_phi = dephasing_rate(spec)
        if rate_phi > _RATE_FLOOR:
            z = -np.eye(d, dtype=np.complex128)
            z[0, 0] = 1.0
            ops.append(embed(np.sqrt(0.5 * rate_phi) * z, site, dims))
    return ops


def as_density(state: np.ndarray, dim: int) -> np.ndarray:
    """Coerce a ket or density matrix to a ``(dim, dim)`` density matrix.

    Kets are normalized first, so unnormalized initial states behave
    the same on every open-system entry point.
    """
    state = np.asarray(state, dtype=np.complex128)
    if state.ndim == 1:
        if state.shape != (dim,):
            raise ValidationError(
                f"ket length {state.shape[0]} does not match D={dim}"
            )
        norm = np.linalg.norm(state)
        if norm == 0:
            raise ValidationError("cannot evolve a zero state")
        psi = state / norm
        return np.outer(psi, psi.conj())
    if state.ndim != 2 or state.shape != (dim, dim):
        raise ValidationError(
            f"state shape {state.shape} does not match D={dim}"
        )
    return state


def vectorize_density(rho: np.ndarray) -> np.ndarray:
    """Row-major ``vec(rho)`` of a ``(D, D)`` density matrix."""
    rho = np.asarray(rho, dtype=np.complex128)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValidationError(
            f"density matrix must be square, got shape {rho.shape}"
        )
    return rho.reshape(-1)


def unvectorize_density(vec: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of :func:`vectorize_density`."""
    vec = np.asarray(vec, dtype=np.complex128)
    if vec.shape != (dim * dim,):
        raise ValidationError(
            f"vectorized state has shape {vec.shape}, want ({dim * dim},)"
        )
    return vec.reshape(dim, dim)


def dissipator_superoperator(
    collapse_ops: Sequence[np.ndarray], dim: int
) -> np.ndarray:
    """The drive-independent dissipator ``sum_j D[C_j]`` as a matrix.

    Row-major vectorization: ``D[C] = C kron conj(C)
    - 1/2 (C^dag C kron I + I kron (C^dag C)^T)``. Rates are carried by
    the operators themselves (1/s), so the result is in 1/s — no
    ``2*pi``. Built once per noise model (a small per-operator kron
    loop, not a batched hot path).
    """
    eye = np.eye(dim, dtype=np.complex128)
    out = np.zeros((dim * dim, dim * dim), dtype=np.complex128)
    for c in collapse_ops:
        c = np.asarray(c, dtype=np.complex128)
        if c.shape != (dim, dim):
            raise ValidationError(
                f"collapse operator shape {c.shape} does not match D={dim}"
            )
        cdc = c.conj().T @ c
        out += np.kron(c, c.conj())
        out -= 0.5 * (np.kron(cdc, eye) + np.kron(eye, cdc.T))
    return out


def hamiltonian_superoperators(hamiltonians) -> np.ndarray:
    """``-2*pi*i (H kron I - I kron H^T)`` for a ``(n, D, D)`` stack."""
    policy = active_dtype()
    hs = _as_stack(policy, hamiltonians)
    n, dim = hs.shape[0], hs.shape[1]
    eye = np.eye(dim, dtype=policy.cdtype)
    # Row-major composite index (i, j), (k, l):
    #   (H kron I)[ij, kl]   = H[i, k] * I[j, l]
    #   (I kron H^T)[ij, kl] = I[i, k] * H[l, j]
    left = np.einsum("nik,jl->nijkl", hs, eye)
    right = np.einsum("ik,nlj->nijkl", eye, hs)
    return (-1j * _TWO_PI) * (left - right).reshape(n, dim * dim, dim * dim)


def lindblad_superoperators(
    hamiltonians,
    collapse_ops: Sequence[np.ndarray],
    *,
    dissipator: np.ndarray | None = None,
) -> np.ndarray:
    """Full Lindblad generator stack ``(n, D^2, D^2)`` in 1/s.

    *dissipator* short-circuits the (drive-independent) dissipator
    assembly when the caller has it precomputed.
    """
    policy = active_dtype()
    ls = hamiltonian_superoperators(hamiltonians)
    if dissipator is None:
        dissipator = dissipator_superoperator(
            collapse_ops, np.asarray(hamiltonians).shape[1]
        )
    ls += np.asarray(dissipator, dtype=policy.cdtype)
    return ls


def batched_superpropagators(
    hamiltonians,
    collapse_ops: Sequence[np.ndarray],
    dt: float,
    steps=1,
    *,
    dissipator: np.ndarray | None = None,
) -> np.ndarray:
    """``exp(L_k * dt * steps_k)`` for a stack of constant-drive runs.

    The open-system analogue of
    :func:`~repro.sim.evolve.batched_propagators`: one
    ``(n, D^2, D^2)`` stack of completely positive trace-preserving
    maps, evaluated by :func:`~repro.sim.evolve.batched_expm` in the
    active dtype.
    """
    if dt <= 0:
        raise ValidationError(f"dt must be > 0, got {dt}")
    steps_arr = np.asarray(steps)
    if np.any(steps_arr < 1):
        raise ValidationError("steps must be >= 1")
    ls = lindblad_superoperators(
        hamiltonians, collapse_ops, dissipator=dissipator
    )
    return batched_expm(ls, scale=dt * steps_arr.astype(np.float64))


class OpenSystemEngine:
    """Batched density-matrix evolution for one decoherence model.

    Owns the collapse operators, the precomputed dissipator, and a
    :class:`~repro.sim.evolve.PropagatorCache` whose entries are the
    run superpropagators, keyed on the run-Hamiltonian fingerprint
    under a dissipator-specific namespace. One engine instance serves
    every schedule executed against the same
    :class:`~repro.sim.model.SystemModel`.

    Parameters
    ----------
    dims, decoherence, dt:
        The system geometry, per-site T1/T2, and sample period.
    cache:
        Optional shared propagator cache (a private one is created
        otherwise).
    collapse_ops:
        Explicit collapse operators overriding the per-site T1/T2
        construction — for engines over hand-built noise models (e.g.
        the GRAPE noisy objective).
    """

    def __init__(
        self,
        dims: Sequence[int],
        decoherence: Sequence[DecoherenceSpec],
        dt: float,
        *,
        cache: PropagatorCache | None = None,
        collapse_ops: Sequence[np.ndarray] | None = None,
    ) -> None:
        if dt <= 0:
            raise ValidationError(f"dt must be > 0, got {dt}")
        self.dims = tuple(int(d) for d in dims)
        self.dim = int(np.prod(self.dims))
        self.dt = float(dt)
        if collapse_ops is not None:
            self.collapse_ops = [
                np.asarray(c, dtype=np.complex128) for c in collapse_ops
            ]
        else:
            self.collapse_ops = collapse_operators(self.dims, decoherence)
        self._dissipator = dissipator_superoperator(
            self.collapse_ops, self.dim
        )
        # sum_j C_j^dag C_j: the anti-Hermitian part of the effective
        # Hamiltonian on the trajectory path, and the jump weights.
        self._jump_rates = sum(
            (c.conj().T @ c for c in self.collapse_ops),
            np.zeros((self.dim, self.dim), dtype=np.complex128),
        )
        # Cache namespace: same Hamiltonian, different T1/T2 must not
        # share superpropagators.
        digest = hashlib.blake2b(digest_size=8)
        digest.update(np.ascontiguousarray(self._dissipator).tobytes())
        self._tag = "lindblad:" + digest.hexdigest()
        self.cache = cache if cache is not None else PropagatorCache()

    @classmethod
    def from_model(cls, model: SystemModel, **kwargs) -> "OpenSystemEngine":
        """Engine for *model*'s dims / decoherence / sample period."""
        return cls(model.dims, model.decoherence, model.dt, **kwargs)

    # ---- superoperator path ------------------------------------------------------

    def superpropagators(self, hamiltonians, steps=1):
        """Cached ``exp(L_k * dt * steps_k)`` for the runs, as the
        ``(table, index)`` pair of
        :meth:`~repro.sim.evolve.PropagatorCache.propagators`: one
        ``(D^2, D^2)`` entry per distinct run, and run *k*'s row."""

        def compute(hs, dt, steps_sel):
            return batched_superpropagators(
                hs,
                self.collapse_ops,
                dt,
                steps_sel,
                dissipator=self._dissipator,
            )

        return self.cache.propagators(
            hamiltonians, self.dt, steps, compute=compute, tag=self._tag
        )

    def evolve_density_matrix(
        self, hamiltonians, steps, rho
    ) -> np.ndarray:
        """Exact Lindblad evolution of *rho* through the run stack.

        The vectorized state stays in the active dtype across the
        whole run loop; the final density matrix is complex128. Each
        run applies its table row, so a repeated run (an echo train)
        is neither copied nor stacked per run.
        """
        policy = active_dtype()
        rho = as_density(rho, self.dim)
        table, index = self.superpropagators(hamiltonians, steps)
        vec = np.asarray(vectorize_density(rho), dtype=policy.cdtype)
        for i in index.tolist():
            vec = np.matmul(table[i], vec)
        return unvectorize_density(vec, self.dim)

    # ---- trajectory path ---------------------------------------------------------

    def evolve_trajectories(
        self,
        hamiltonians,
        steps,
        state,
        *,
        n_trajectories: int = 512,
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        """Quantum-jump estimate of the final density matrix.

        Every trajectory evolves under the per-run non-unitary
        no-jump propagators ``exp((-2*pi*i*H - 1/2 sum_j C_j^dag C_j)
        * dt)`` (one batched exponential for the whole run stack,
        shared by all trajectories) and jumps — channel drawn
        proportionally to ``||C_j psi||^2`` — whenever its squared
        norm falls below a pre-drawn uniform threshold. Jump timing is
        resolved to one sample, so the estimate carries an ``O(dt)``
        bias on top of the ``1/sqrt(n_traj)`` statistical error.
        """
        hs = np.asarray(hamiltonians, dtype=np.complex128)
        if hs.ndim != 3 or hs.shape[1:] != (self.dim, self.dim):
            raise ValidationError(
                f"Hamiltonian stack shape {hs.shape} does not match "
                f"(n, {self.dim}, {self.dim})"
            )
        steps_arr = np.broadcast_to(
            np.asarray(steps, dtype=np.int64), (hs.shape[0],)
        )
        if np.any(steps_arr < 1):
            raise ValidationError("steps must be >= 1")
        m = int(n_trajectories)
        if m < 1:
            raise ValidationError(f"n_trajectories must be >= 1, got {m}")
        if rng is None:
            rng = np.random.default_rng()
        # One no-jump propagator per run, one dt substep each: the
        # only batched kernel on this path.
        generators = -1j * _TWO_PI * hs - 0.5 * self._jump_rates[None]
        no_jump = batched_expm(generators, scale=self.dt)
        psis = self._initial_trajectories(state, m, rng)
        thresholds = rng.uniform(size=m)
        for k in range(hs.shape[0]):
            u_t = no_jump[k].T.copy()
            for _ in range(int(steps_arr[k])):
                psis = psis @ u_t
                norms2 = np.einsum("ti,ti->t", psis.conj(), psis).real
                jumped = np.nonzero(norms2 <= thresholds)[0]
                for t in jumped:
                    psis[t] = self._apply_jump(psis[t], rng)
                    thresholds[t] = rng.uniform()
        norms2 = np.einsum("ti,ti->t", psis.conj(), psis).real
        weighted = psis / np.sqrt(np.maximum(norms2, 1e-300))[:, None]
        return np.einsum("ti,tj->ij", weighted, weighted.conj()) / m

    def _apply_jump(
        self, psi: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Collapse *psi* through one jump channel; returns unit norm."""
        weights = np.array(
            [np.linalg.norm(c @ psi) ** 2 for c in self.collapse_ops]
        )
        total = weights.sum()
        if total <= 0:
            # Numerically no channel applies (norm decayed through the
            # threshold by rounding alone): keep the renormalized state.
            return psi / np.linalg.norm(psi)
        choice = rng.choice(len(self.collapse_ops), p=weights / total)
        jumped = self.collapse_ops[choice] @ psi
        return jumped / np.linalg.norm(jumped)

    def _initial_trajectories(
        self, state: np.ndarray, m: int, rng: np.random.Generator
    ) -> np.ndarray:
        """``(m, D)`` start kets; mixed states sample their eigenbasis."""
        state = np.asarray(state, dtype=np.complex128)
        if state.ndim == 1:
            if state.shape != (self.dim,):
                raise ValidationError(
                    f"ket length {state.shape[0]} does not match D={self.dim}"
                )
            psi = state / np.linalg.norm(state)
            return np.tile(psi, (m, 1))
        rho = as_density(state, self.dim)
        evals, evecs = np.linalg.eigh(rho)
        evals = np.clip(evals.real, 0.0, None)
        evals /= evals.sum()
        picks = rng.choice(self.dim, size=m, p=evals)
        return evecs.T[picks].astype(np.complex128)
