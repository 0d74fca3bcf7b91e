"""GRAPE: Gradient Ascent Pulse Engineering (Khaneja et al. 2005).

Open-loop pulse design (paper §2.1): "pulses are designed offline by
simulating the dynamics under a Hamiltonian describing a quantum
system, using optimization algorithms such as GRAPE".

The propagator of slice *k* is ``U_k = exp(-2*pi*i*dt*H_k)`` with
``H_k = H0 + sum_j u[k, j] * C_j`` (all operators in Hz). The cost is
the phase-insensitive infidelity ``1 - |tr(V† U)|^2 / D^2`` and its
gradient is exact: the directional derivative of each ``exp`` is
evaluated with the Daleckii-Krein formula on the Hermitian
eigenbasis — no finite differences, no first-order approximation —
then assembled with the standard forward/backward propagator scheme.
All slices are eigendecomposed in one batched call
(:func:`~repro.sim.evolve.batched_expm_and_frechet`) and the gradient
is assembled with broadcast einsums, so the cost of one
cost+gradient evaluation is a handful of vectorized LAPACK/BLAS calls
rather than ``n_steps`` Python round trips. L-BFGS-B from scipy does
the climbing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.optimize import minimize

from repro.errors import OptimizationError
from repro.sim.evolve import batched_expm_and_frechet, build_hamiltonians
from repro.sim.open_system import OpenSystemEngine


@dataclass
class GrapeResult:
    """Outcome of a GRAPE optimization.

    ``infidelity_history`` holds one value per accepted L-BFGS-B
    iterate (the starting point first), so it is monotone under a
    successful line search and ``len(infidelity_history) ==
    iterations + 1``. Raw cost evaluations — including line-search
    probes, hence non-monotonic — are kept under
    ``cost_evaluations``.
    """

    controls: np.ndarray  # (n_steps, n_controls), Hz
    fidelity: float
    infidelity_history: list[float] = field(default_factory=list)
    cost_evaluations: list[float] = field(default_factory=list)
    iterations: int = 0
    converged: bool = False
    final_unitary: np.ndarray | None = None


class GrapeOptimizer:
    """Optimizes piecewise-constant controls toward a target unitary."""

    def __init__(
        self,
        drift: np.ndarray,
        control_ops: Sequence[np.ndarray],
        target: np.ndarray,
        *,
        n_steps: int,
        dt: float,
        max_control: float | None = None,
        subspace: np.ndarray | None = None,
    ) -> None:
        """
        Parameters
        ----------
        drift, control_ops:
            Hermitian operators in Hz units.
        target:
            Target unitary; when *subspace* is given it lives on the
            subspace (e.g. a qubit gate on a qutrit system) and the
            fidelity is evaluated after compressing the propagator.
        n_steps, dt:
            Time discretization; total gate time is ``n_steps * dt``.
        max_control:
            Box bound |u| <= max_control (Hz) per slice and channel.
        subspace:
            Optional (D, d) isometry onto the computational subspace.
        """
        self.drift = np.asarray(drift, dtype=np.complex128)
        self.control_ops = [np.asarray(c, dtype=np.complex128) for c in control_ops]
        self.target = np.asarray(target, dtype=np.complex128)
        self.n_steps = int(n_steps)
        self.dt = float(dt)
        self.max_control = max_control
        self.subspace = (
            np.asarray(subspace, dtype=np.complex128) if subspace is not None else None
        )
        if self.n_steps < 1:
            raise OptimizationError("n_steps must be >= 1")
        d_target = self.target.shape[0]
        d_full = self.drift.shape[0]
        if self.subspace is None and d_target != d_full:
            raise OptimizationError(
                f"target dimension {d_target} != system dimension {d_full} "
                "(provide a subspace isometry)"
            )

    # ---- cost ------------------------------------------------------------------------

    def _propagators(
        self, controls: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Stacked ``(U, V, gamma)`` for every slice, one batched call."""
        hs = build_hamiltonians(self.drift, self.control_ops, controls)
        return batched_expm_and_frechet(hs, self.dt)

    def infidelity_and_gradient(
        self, controls: np.ndarray
    ) -> tuple[float, np.ndarray]:
        """Exact cost and gradient at *controls* (shape steps x ctrls)."""
        n, m = self.n_steps, len(self.control_ops)
        controls = controls.reshape(n, m)
        us, vs, gammas = self._propagators(controls)

        # Forward partials X_k = U_{k-1} ... U_0 (X_0 = I).
        dim = self.drift.shape[0]
        fwd = np.empty((n + 1, dim, dim), dtype=np.complex128)
        fwd[0] = np.eye(dim)
        for k in range(n):
            fwd[k + 1] = us[k] @ fwd[k]
        total = fwd[n]
        # Backward partials P_k = U_{n-1} ... U_{k+1}.
        bwd = np.empty((n, dim, dim), dtype=np.complex128)
        acc = np.eye(dim, dtype=np.complex128)
        for k in range(n - 1, -1, -1):
            bwd[k] = acc
            acc = acc @ us[k]

        if self.subspace is not None:
            p = self.subspace
            v_dag = p @ self.target.conj().T @ p.conj().T  # lift V† to full space
            d_eff = self.target.shape[0]
        else:
            v_dag = self.target.conj().T
            d_eff = dim

        overlap = np.trace(v_dag @ total)
        fid = float(np.abs(overlap) ** 2 / d_eff**2)

        # d<V,U>/du_kj = tr(V† P_k dU_k X_k) = tr(dU_k M_k) with the
        # sandwich M_k = X_k V† P_k, and dU_k = V_k (gamma_k ∘ E~) V_k†
        # so the trace collapses to an elementwise sum on the eigenbasis:
        # tr(dU_k M_k) = sum_ij gamma_k[i,j] E~[i,j] W_k[j,i], W = V† M V.
        vdag_stack = vs.conj().transpose(0, 2, 1)
        sandwich = fwd[:n] @ (v_dag[None, :, :] @ bwd)
        w = vdag_stack @ sandwich @ vs
        kernel = gammas * w.transpose(0, 2, 1)

        grad = np.empty((n, m), dtype=np.float64)
        for j, c in enumerate(self.control_ops):
            e_tilde = vdag_stack @ c @ vs
            d_overlap = np.einsum("kij,kij->k", kernel, e_tilde)
            grad[:, j] = 2.0 * np.real(np.conj(overlap) * d_overlap) / d_eff**2
        return 1.0 - fid, -grad.ravel()

    def fidelity(self, controls: np.ndarray) -> float:
        """Fidelity at *controls* without the gradient."""
        inf, _ = self.infidelity_and_gradient(np.asarray(controls, dtype=np.float64))
        return 1.0 - inf

    # ---- open-system (noisy) objective -----------------------------------------------

    def noisy_infidelity(
        self,
        controls: np.ndarray,
        *,
        collapse_ops: Sequence[np.ndarray],
        initial_state: np.ndarray,
        target_state: np.ndarray,
    ) -> float:
        """State-transfer infidelity under Lindblad dynamics.

        The pulse is evaluated against the *open* system: every slice
        becomes a Lindblad superoperator (``collapse_ops`` carrying the
        T1/T2 rates, e.g. from
        :func:`~repro.sim.open_system.collapse_operators`), the stack
        is exponentiated through the batched engine, and the cost is
        ``1 - <target| rho_final |target>``. Unlike the closed-system
        objective this is sensitive to *when* the pulse parks
        population in lossy states — the quantity noise-aware control
        actually optimizes.
        """
        n, m = self.n_steps, len(self.control_ops)
        controls = np.asarray(controls, dtype=np.float64).reshape(n, m)
        psi_t = np.asarray(target_state, dtype=np.complex128)
        psi_t = psi_t / np.linalg.norm(psi_t)
        hs = build_hamiltonians(self.drift, self.control_ops, controls)
        engine = OpenSystemEngine(
            (self.drift.shape[0],), [], self.dt, collapse_ops=collapse_ops
        )
        rho_final = engine.evolve_density_matrix(hs, 1, initial_state)
        fid = float(np.real(psi_t.conj() @ rho_final @ psi_t))
        return 1.0 - fid

    # ---- optimization ----------------------------------------------------------------

    def _run_lbfgs(self, cost, x0: np.ndarray, *, jac: bool, options: dict):
        """Shared L-BFGS-B harness with the history-contract bookkeeping.

        *cost* maps normalized parameters to the infidelity (and, with
        ``jac=True``, the normalized gradient). Returns
        ``(res, cost_evaluations, iterate_history)`` where the iterate
        history starts at the initial point and holds one value per
        accepted iterate (``len == res.nit + 1``) — the
        :class:`GrapeResult` contract.
        """
        cost_evaluations: list[float] = []
        iterate_history: list[float] = []
        # Values seen by the line search, keyed by the raw parameter
        # bytes, so the per-iteration callback can recover the cost at
        # each accepted iterate without re-evaluating.
        seen: dict[bytes, float] = {}

        def recorded(x: np.ndarray):
            out = cost(x)
            inf = out[0] if jac else out
            cost_evaluations.append(inf)
            seen[x.tobytes()] = inf
            return out

        def record_iterate(xk: np.ndarray) -> None:
            inf = seen.get(np.asarray(xk).tobytes())
            if inf is None:
                out = cost(np.asarray(xk))
                inf = out[0] if jac else out
            iterate_history.append(inf)

        bounds = None
        if self.max_control is not None:
            bounds = [(-1.0, 1.0)] * len(x0)
        res = minimize(
            recorded,
            x0,
            jac=True if jac else None,
            method="L-BFGS-B",
            bounds=bounds,
            callback=record_iterate,
            options=options,
        )
        # History contract: starting point first, then one value per
        # accepted iterate — len == iterations + 1, monotone under a
        # successful line search. Raw evaluations stay separate.
        if cost_evaluations:
            iterate_history.insert(0, cost_evaluations[0])
        return res, cost_evaluations, iterate_history

    def optimize(
        self,
        initial: np.ndarray | None = None,
        *,
        maxiter: int = 300,
        target_infidelity: float = 1e-6,
        seed: int = 0,
    ) -> GrapeResult:
        """Run L-BFGS-B from *initial* (random smooth guess if None)."""
        n, m = self.n_steps, len(self.control_ops)
        if initial is None:
            rng = np.random.default_rng(seed)
            scale = (self.max_control or 1e7) * 0.1
            # Smooth random start: sum of low-frequency sines.
            t = np.linspace(0, 1, n)
            initial = np.zeros((n, m))
            for j in range(m):
                for harmonic in (1, 2, 3):
                    initial[:, j] += rng.normal() * np.sin(np.pi * harmonic * t)
                initial[:, j] *= scale / max(1e-12, np.abs(initial[:, j]).max())
        # Optimize in normalized units: raw controls are O(1e6-1e8) Hz,
        # which wrecks L-BFGS-B's initial step and tolerance heuristics.
        scale = float(self.max_control) if self.max_control else 1e7
        x0 = np.asarray(initial, dtype=np.float64).reshape(n * m) / scale

        def cost(x: np.ndarray):
            inf, grad = self.infidelity_and_gradient(x * scale)
            return inf, grad * scale

        res, cost_evaluations, iterate_history = self._run_lbfgs(
            cost,
            x0,
            jac=True,
            options={"maxiter": maxiter, "ftol": 1e-14, "gtol": 1e-10},
        )
        controls = res.x.reshape(n, m) * scale
        final_inf, _ = self.infidelity_and_gradient(controls)
        us, _, _ = self._propagators(controls)
        total = np.eye(self.drift.shape[0], dtype=np.complex128)
        for u in us:
            total = u @ total
        return GrapeResult(
            controls=controls,
            fidelity=1.0 - final_inf,
            infidelity_history=iterate_history,
            cost_evaluations=cost_evaluations,
            iterations=int(res.nit),
            converged=final_inf <= target_infidelity,
            final_unitary=total,
        )
