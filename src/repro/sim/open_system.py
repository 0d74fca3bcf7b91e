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

Backend split: superoperator assembly and the vectorized evolution
loop run on the active array backend (:mod:`repro.xp`) — they are the
batched-GEMM hot path. Trajectory sampling, collapse-operator
construction, and density-matrix plumbing are host-resident
(:data:`repro.xp.hostnp`): they are RNG-driven, per-element control
flow where the host is the right place — only the batched no-jump
exponential runs on the backend.
"""

from __future__ import annotations

import hashlib
from typing import Sequence

from repro.errors import ValidationError
from repro.sim.evolve import PropagatorCache, _as_stack, batched_expm
from repro.sim.model import DecoherenceSpec, SystemModel
from repro.sim.operators import annihilation, embed
from repro.xp import active
from repro.xp import hostnp as hnp

_TWO_PI = 2.0 * hnp.pi

#: Pure-dephasing rates below this (1/s) are treated as zero — matching
#: the physicality tolerance of :class:`DecoherenceSpec` (T2 = 2*T1).
_RATE_FLOOR = 1e-15


def dephasing_rate(spec: DecoherenceSpec) -> float:
    """Pure-dephasing rate ``gamma_phi = 1/T2 - 1/(2*T1)`` in 1/s."""
    rate = 0.0
    if hnp.isfinite(spec.t2):
        rate = 1.0 / spec.t2 - (
            0.5 / spec.t1 if hnp.isfinite(spec.t1) else 0.0
        )
    return max(0.0, rate)


def collapse_operators(
    dims: Sequence[int], decoherence: Sequence[DecoherenceSpec]
) -> list[hnp.ndarray]:
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
    ops: list[hnp.ndarray] = []
    for site, spec in enumerate(decoherence):
        if not spec.has_decoherence:
            continue
        d = dims[site]
        if hnp.isfinite(spec.t1):
            ops.append(
                embed(annihilation(d) / hnp.sqrt(spec.t1), site, dims)
            )
        rate_phi = dephasing_rate(spec)
        if rate_phi > _RATE_FLOOR:
            z = -hnp.eye(d, dtype=hnp.complex128)
            z[0, 0] = 1.0
            ops.append(embed(hnp.sqrt(0.5 * rate_phi) * z, site, dims))
    return ops


def as_density(state: hnp.ndarray, dim: int) -> hnp.ndarray:
    """Coerce a ket or density matrix to a ``(dim, dim)`` density matrix.

    Kets are normalized first, so unnormalized initial states behave
    the same on every open-system entry point.
    """
    state = hnp.asarray(state, dtype=hnp.complex128)
    if state.ndim == 1:
        if state.shape != (dim,):
            raise ValidationError(
                f"ket length {state.shape[0]} does not match D={dim}"
            )
        norm = hnp.linalg.norm(state)
        if norm == 0:
            raise ValidationError("cannot evolve a zero state")
        psi = state / norm
        return hnp.outer(psi, psi.conj())
    if state.ndim != 2 or state.shape != (dim, dim):
        raise ValidationError(
            f"state shape {state.shape} does not match D={dim}"
        )
    return state


def vectorize_density(rho: hnp.ndarray) -> hnp.ndarray:
    """Row-major ``vec(rho)`` of a ``(D, D)`` density matrix."""
    rho = hnp.asarray(rho, dtype=hnp.complex128)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValidationError(
            f"density matrix must be square, got shape {rho.shape}"
        )
    return rho.reshape(-1)


def unvectorize_density(vec: hnp.ndarray, dim: int) -> hnp.ndarray:
    """Inverse of :func:`vectorize_density`."""
    vec = hnp.asarray(vec, dtype=hnp.complex128)
    if vec.shape != (dim * dim,):
        raise ValidationError(
            f"vectorized state has shape {vec.shape}, want ({dim * dim},)"
        )
    return vec.reshape(dim, dim)


def dissipator_superoperator(
    collapse_ops: Sequence[hnp.ndarray], dim: int
) -> hnp.ndarray:
    """The drive-independent dissipator ``sum_j D[C_j]`` as a matrix.

    Row-major vectorization: ``D[C] = C kron conj(C)
    - 1/2 (C^dag C kron I + I kron (C^dag C)^T)``. Rates are carried by
    the operators themselves (1/s), so the result is in 1/s — no
    ``2*pi``. Built once per noise model on the host (a small
    per-operator kron loop, not a batched hot path).
    """
    eye = hnp.eye(dim, dtype=hnp.complex128)
    out = hnp.zeros((dim * dim, dim * dim), dtype=hnp.complex128)
    for c in collapse_ops:
        c = hnp.asarray(c, dtype=hnp.complex128)
        if c.shape != (dim, dim):
            raise ValidationError(
                f"collapse operator shape {c.shape} does not match D={dim}"
            )
        cdc = c.conj().T @ c
        out += hnp.kron(c, c.conj())
        out -= 0.5 * (hnp.kron(cdc, eye) + hnp.kron(eye, cdc.T))
    return out


def hamiltonian_superoperators(hamiltonians) -> hnp.ndarray:
    """``-2*pi*i (H kron I - I kron H^T)`` for a ``(n, D, D)`` stack."""
    xp = active()
    hs = _as_stack(xp, hamiltonians)
    n, dim = hs.shape[0], hs.shape[1]
    eye = xp.eye(dim, dtype=xp.cdtype)
    # Row-major composite index (i, j), (k, l):
    #   (H kron I)[ij, kl]   = H[i, k] * I[j, l]
    #   (I kron H^T)[ij, kl] = I[i, k] * H[l, j]
    left = xp.einsum("nik,jl->nijkl", hs, eye)
    right = xp.einsum("ik,nlj->nijkl", eye, hs)
    return (-1j * _TWO_PI) * (left - right).reshape(n, dim * dim, dim * dim)


def lindblad_superoperators(
    hamiltonians,
    collapse_ops: Sequence[hnp.ndarray],
    *,
    dissipator: hnp.ndarray | None = None,
) -> hnp.ndarray:
    """Full Lindblad generator stack ``(n, D^2, D^2)`` in 1/s.

    *dissipator* short-circuits the (drive-independent) dissipator
    assembly when the caller has it precomputed.
    """
    xp = active()
    ls = hamiltonian_superoperators(hamiltonians)
    if dissipator is None:
        dissipator = dissipator_superoperator(
            collapse_ops, hnp.asarray(hamiltonians).shape[1]
        )
    ls += xp.asarray(dissipator, dtype=xp.cdtype)
    return ls


def batched_superpropagators(
    hamiltonians,
    collapse_ops: Sequence[hnp.ndarray],
    dt: float,
    steps=1,
    *,
    dissipator: hnp.ndarray | None = None,
) -> hnp.ndarray:
    """``exp(L_k * dt * steps_k)`` for a stack of constant-drive runs.

    The open-system analogue of
    :func:`~repro.sim.evolve.batched_propagators`: one
    ``(n, D^2, D^2)`` stack of completely positive trace-preserving
    maps, evaluated by :func:`~repro.sim.evolve.batched_expm` on the
    active backend.
    """
    if dt <= 0:
        raise ValidationError(f"dt must be > 0, got {dt}")
    steps_arr = hnp.asarray(steps)
    if hnp.any(steps_arr < 1):
        raise ValidationError("steps must be >= 1")
    ls = lindblad_superoperators(
        hamiltonians, collapse_ops, dissipator=dissipator
    )
    return batched_expm(ls, scale=dt * steps_arr.astype(hnp.float64))


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
        collapse_ops: Sequence[hnp.ndarray] | None = None,
    ) -> None:
        if dt <= 0:
            raise ValidationError(f"dt must be > 0, got {dt}")
        self.dims = tuple(int(d) for d in dims)
        self.dim = int(hnp.prod(self.dims))
        self.dt = float(dt)
        if collapse_ops is not None:
            self.collapse_ops = [
                hnp.asarray(c, dtype=hnp.complex128) for c in collapse_ops
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
            hnp.zeros((self.dim, self.dim), dtype=hnp.complex128),
        )
        # Cache namespace: same Hamiltonian, different T1/T2 must not
        # share superpropagators.
        digest = hashlib.blake2b(digest_size=8)
        digest.update(hnp.ascontiguousarray(self._dissipator).tobytes())
        self._tag = "lindblad:" + digest.hexdigest()
        self.cache = cache if cache is not None else PropagatorCache()

    @classmethod
    def from_model(cls, model: SystemModel, **kwargs) -> "OpenSystemEngine":
        """Engine for *model*'s dims / decoherence / sample period."""
        return cls(model.dims, model.decoherence, model.dt, **kwargs)

    # ---- superoperator path ------------------------------------------------------

    def superpropagators(self, hamiltonians, steps=1):
        """Cached ``exp(L_k * dt * steps_k)`` stack for the runs."""

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
    ) -> hnp.ndarray:
        """Exact Lindblad evolution of *rho* through the run stack.

        The vectorized state stays on the active backend across the
        whole run loop; only the final density matrix comes back to
        the host.
        """
        xp = active()
        rho = as_density(rho, self.dim)
        props = self.superpropagators(hamiltonians, steps)
        vec = xp.asarray(vectorize_density(rho), dtype=xp.cdtype)
        for s in props:
            vec = xp.matmul(s, vec)
        return unvectorize_density(xp.to_host(vec), self.dim)

    # ---- trajectory path ---------------------------------------------------------

    def evolve_trajectories(
        self,
        hamiltonians,
        steps,
        state,
        *,
        n_trajectories: int = 512,
        rng: hnp.random.Generator | None = None,
    ) -> hnp.ndarray:
        """Quantum-jump estimate of the final density matrix.

        Every trajectory evolves under the per-run non-unitary
        no-jump propagators ``exp((-2*pi*i*H - 1/2 sum_j C_j^dag C_j)
        * dt)`` (one batched exponential for the whole run stack,
        shared by all trajectories) and jumps — channel drawn
        proportionally to ``||C_j psi||^2`` — whenever its squared
        norm falls below a pre-drawn uniform threshold. Jump timing is
        resolved to one sample, so the estimate carries an ``O(dt)``
        bias on top of the ``1/sqrt(n_traj)`` statistical error.

        Host-resident except the batched no-jump exponential: the
        per-sample threshold checks and RNG-driven jumps are scalar
        control flow, the opposite of the backend's batched-GEMM sweet
        spot, so the ket ensemble stays on the host.
        """
        hs = hnp.asarray(hamiltonians, dtype=hnp.complex128)
        if hs.ndim != 3 or hs.shape[1:] != (self.dim, self.dim):
            raise ValidationError(
                f"Hamiltonian stack shape {hs.shape} does not match "
                f"(n, {self.dim}, {self.dim})"
            )
        steps_arr = hnp.broadcast_to(
            hnp.asarray(steps, dtype=hnp.int64), (hs.shape[0],)
        )
        if hnp.any(steps_arr < 1):
            raise ValidationError("steps must be >= 1")
        m = int(n_trajectories)
        if m < 1:
            raise ValidationError(f"n_trajectories must be >= 1, got {m}")
        if rng is None:
            rng = hnp.random.default_rng()
        # One no-jump propagator per run, one dt substep each — the
        # only batched kernel on this path, so it runs on the backend
        # and the resulting small (n, D, D) stack moves to the host.
        generators = -1j * _TWO_PI * hs - 0.5 * self._jump_rates[None]
        no_jump = active().to_host(batched_expm(generators, scale=self.dt))
        psis = self._initial_trajectories(state, m, rng)
        thresholds = rng.uniform(size=m)
        for k in range(hs.shape[0]):
            u_t = no_jump[k].T.copy()
            for _ in range(int(steps_arr[k])):
                psis = psis @ u_t
                norms2 = hnp.einsum("ti,ti->t", psis.conj(), psis).real
                jumped = hnp.nonzero(norms2 <= thresholds)[0]
                for t in jumped:
                    psis[t] = self._apply_jump(psis[t], rng)
                    thresholds[t] = rng.uniform()
        norms2 = hnp.einsum("ti,ti->t", psis.conj(), psis).real
        weighted = psis / hnp.sqrt(hnp.maximum(norms2, 1e-300))[:, None]
        return hnp.einsum("ti,tj->ij", weighted, weighted.conj()) / m

    def _apply_jump(
        self, psi: hnp.ndarray, rng: hnp.random.Generator
    ) -> hnp.ndarray:
        """Collapse *psi* through one jump channel; returns unit norm."""
        weights = hnp.array(
            [hnp.linalg.norm(c @ psi) ** 2 for c in self.collapse_ops]
        )
        total = weights.sum()
        if total <= 0:
            # Numerically no channel applies (norm decayed through the
            # threshold by rounding alone): keep the renormalized state.
            return psi / hnp.linalg.norm(psi)
        choice = rng.choice(len(self.collapse_ops), p=weights / total)
        jumped = self.collapse_ops[choice] @ psi
        return jumped / hnp.linalg.norm(jumped)

    def _initial_trajectories(
        self, state: hnp.ndarray, m: int, rng: hnp.random.Generator
    ) -> hnp.ndarray:
        """``(m, D)`` start kets; mixed states sample their eigenbasis."""
        state = hnp.asarray(state, dtype=hnp.complex128)
        if state.ndim == 1:
            if state.shape != (self.dim,):
                raise ValidationError(
                    f"ket length {state.shape[0]} does not match D={self.dim}"
                )
            psi = state / hnp.linalg.norm(state)
            return hnp.tile(psi, (m, 1))
        rho = as_density(state, self.dim)
        evals, evecs = hnp.linalg.eigh(rho)
        evals = hnp.clip(evals.real, 0.0, None)
        evals /= evals.sum()
        picks = rng.choice(self.dim, size=m, p=evals)
        return evecs.T[picks].astype(hnp.complex128)
