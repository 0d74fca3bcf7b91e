"""Tests: GRAPE, parametric optimization, Hamiltonians, VQE variants,
robustness scans (paper §2.1 use cases)."""

import numpy as np
import pytest

from repro.control import (
    CtrlVQE,
    GateVQE,
    GrapeOptimizer,
    ParametricOptimizer,
    amplitude_scan,
    detuning_scan,
    embed_qubit_operator,
    h2_hamiltonian,
    pauli_sum,
)
from repro.control.hamiltonians import (
    H2_TERMS,
    exact_ground_energy,
    expectation,
    qubit_subspace_isometry,
)
from repro.errors import OptimizationError, ValidationError
from repro.sim.operators import destroy_on, number_on, pauli


def square_pulse(n_steps, dt=1e-9):
    """The naive pi pulse: constant x drive of area 1/2 over n_steps."""
    u = np.zeros((n_steps, 2))
    u[:, 0] = 0.5 / (n_steps * dt)
    return u


def qutrit_controls():
    dims = (3,)
    a = destroy_on(0, dims)
    n = number_on(0, dims)
    drift = -300e6 * 0.5 * (n @ n - n)
    cx = 0.5 * (a + a.conj().T)
    cy = 0.5j * (a - a.conj().T)
    return drift, [cx, cy], qubit_subspace_isometry(dims)


class TestHamiltonians:
    def test_pauli_sum_hermitian(self):
        h = pauli_sum({"XY": 0.3, "ZI": -0.2}, 2)
        assert np.allclose(h, h.conj().T)

    def test_pauli_sum_wrong_length(self):
        with pytest.raises(ValidationError):
            pauli_sum({"X": 1.0}, 2)

    def test_h2_ground_energy(self):
        e = exact_ground_energy(h2_hamiltonian())
        assert e == pytest.approx(-1.8572750302, abs=1e-6)

    def test_h2_terms_symmetry(self):
        assert H2_TERMS["ZI"] == pytest.approx(-H2_TERMS["IZ"])

    def test_isometry_is_isometry(self):
        iso = qubit_subspace_isometry((3, 3))
        assert iso.shape == (9, 4)
        assert np.allclose(iso.conj().T @ iso, np.eye(4))

    def test_embed_preserves_spectrum_on_subspace(self):
        h = h2_hamiltonian()
        emb = embed_qubit_operator(h, (3, 3))
        evals = np.linalg.eigvalsh(emb)
        # All four qubit-space eigenvalues appear (plus zeros).
        for target in np.linalg.eigvalsh(h):
            assert np.any(np.isclose(evals, target, atol=1e-9))

    def test_expectation_ket_and_dm(self):
        z = pauli("z")
        psi = np.array([1, 0], dtype=complex)
        assert expectation(psi, z) == pytest.approx(1.0)
        rho = np.diag([0.25, 0.75]).astype(complex)
        assert expectation(rho, z) == pytest.approx(-0.5)


class TestGrape:
    def test_gradient_matches_finite_differences(self):
        drift, ops, iso = qutrit_controls()
        g = GrapeOptimizer(
            drift, ops, pauli("x"), n_steps=8, dt=1e-9, subspace=iso
        )
        rng = np.random.default_rng(0)
        x = rng.normal(scale=2e7, size=(8, 2))
        _, grad = g.infidelity_and_gradient(x)
        grad = grad.reshape(8, 2)
        eps = 1.0
        for k, j in [(0, 0), (3, 1), (7, 0)]:
            xp, xm = x.copy(), x.copy()
            xp[k, j] += eps
            xm[k, j] -= eps
            num = (
                g.infidelity_and_gradient(xp)[0]
                - g.infidelity_and_gradient(xm)[0]
            ) / (2 * eps)
            assert grad[k, j] == pytest.approx(num, rel=1e-4, abs=1e-12)

    def test_x_gate_converges(self):
        drift, ops, iso = qutrit_controls()
        g = GrapeOptimizer(
            drift,
            ops,
            pauli("x"),
            n_steps=20,
            dt=1e-9,
            max_control=60e6,
            subspace=iso,
        )
        res = g.optimize(maxiter=200, seed=1)
        assert res.fidelity > 0.9999
        assert res.converged or res.fidelity > 0.9999
        assert res.final_unitary is not None
        # The leakage-limited square pi pulse of the same length loses.
        assert res.fidelity > g.fidelity(square_pulse(20))

    def test_bounds_respected(self):
        drift, ops, iso = qutrit_controls()
        g = GrapeOptimizer(
            drift,
            ops,
            pauli("x"),
            n_steps=16,
            dt=1e-9,
            max_control=30e6,
            subspace=iso,
        )
        res = g.optimize(maxiter=100, seed=2)
        assert np.abs(res.controls).max() <= 30e6 * (1 + 1e-9)

    def test_cz_on_zz_coupler(self):
        zzp = np.zeros((4, 4), dtype=complex)
        zzp[3, 3] = 1.0
        g = GrapeOptimizer(
            np.zeros((4, 4), dtype=complex),
            [zzp],
            np.diag([1, 1, 1, -1]).astype(complex),
            n_steps=10,
            dt=1e-9,
            max_control=100e6,
        )
        res = g.optimize(maxiter=100, seed=0)
        assert res.fidelity > 0.9999

    def test_dimension_mismatch_rejected(self):
        drift, ops, _ = qutrit_controls()
        with pytest.raises(OptimizationError):
            GrapeOptimizer(drift, ops, pauli("x"), n_steps=4, dt=1e-9)

    def test_history_monotone_trend(self):
        drift, ops, iso = qutrit_controls()
        g = GrapeOptimizer(
            drift, ops, pauli("x"), n_steps=20, dt=1e-9, max_control=60e6, subspace=iso
        )
        res = g.optimize(maxiter=100, seed=3)
        assert res.infidelity_history[-1] < 1e-2 * res.infidelity_history[0]


class TestParametricOptimizer:
    def test_quadratic_minimum(self):
        opt = ParametricOptimizer(lambda x: float((x[0] - 2) ** 2 + (x[1] + 1) ** 2))
        res = opt.optimize([0.0, 0.0], maxiter=300)
        assert res.x == pytest.approx([2.0, -1.0], abs=1e-3)
        assert res.evaluations > 0
        assert res.history[-1] <= res.history[0]

    def test_bounds_clip(self):
        opt = ParametricOptimizer(lambda x: float(-x[0]), bounds=[(0.0, 1.0)])
        res = opt.optimize([0.5], maxiter=100)
        assert 0.0 <= res.x[0] <= 1.0

    def test_empty_x0_rejected(self):
        with pytest.raises(OptimizationError):
            ParametricOptimizer(lambda x: 0.0).optimize([])


class TestVQE:
    def test_gate_vqe_reaches_reasonable_energy(self, sc_device):
        vqe = GateVQE(sc_device, h2_hamiltonian(), layers=1)
        res = vqe.run(maxiter=120, seed=2)
        assert res.error < 0.1
        assert res.schedule_duration_samples > 0

    def test_gate_vqe_parameter_count(self, sc_device):
        vqe = GateVQE(sc_device, h2_hamiltonian(), layers=3)
        assert vqe.num_parameters == 18
        with pytest.raises(OptimizationError):
            vqe.energy(np.zeros(5))

    def test_ctrl_vqe_improves_over_start(self, sc_device):
        cv = CtrlVQE(sc_device, h2_hamiltonian(), segments=3, segment_samples=16)
        x0 = np.random.default_rng(4).normal(scale=0.3, size=cv.num_parameters)
        e_start = cv.energy(x0)
        res = cv.run(maxiter=120, seed=4, x0=x0)
        assert res.energy < e_start

    def test_ctrl_vqe_shorter_schedule(self, sc_device):
        """The headline ctrl-VQE claim: shorter total duration than the
        gate ansatz."""
        gv = GateVQE(sc_device, h2_hamiltonian(), layers=1)
        gv.energy(np.zeros(gv.num_parameters))
        cv = CtrlVQE(sc_device, h2_hamiltonian(), segments=3, segment_samples=16)
        cv.energy(np.zeros(cv.num_parameters))
        assert cv._last_duration < gv._last_duration
        # Against the two-layer ansatz the pulse ansatz is under half.
        gv2 = GateVQE(sc_device, h2_hamiltonian(), layers=2)
        gv2.energy(np.zeros(gv2.num_parameters))
        assert cv._last_duration < gv2._last_duration / 2

    def test_ctrl_vqe_converges_and_segments_trade_duration(self, sc_device):
        """ctrl-VQE on H2 reaches chemical-scale error with bounded
        leakage; more segments buy lower energy at longer duration."""
        two, four = (
            CtrlVQE(
                sc_device, h2_hamiltonian(), segments=segments, segment_samples=16
            ).run(maxiter=maxiter, seed=1)
            for segments, maxiter in ((2, 200), (4, 300))
        )
        assert four.error < 0.1
        assert four.final_leakage < 0.05
        assert min(four.history) < four.history[0]
        assert four.energy <= two.energy + 0.05
        assert four.schedule_duration_samples > two.schedule_duration_samples

    def test_ctrl_vqe_respects_amplitude_bound(self, sc_device):
        cv = CtrlVQE(
            sc_device,
            h2_hamiltonian(),
            segments=2,
            segment_samples=8,
            max_amplitude=0.3,
            initial_x=False,  # only ansatz pulses, no calibrated X prep
        )
        sched = cv.build_schedule(np.full(cv.num_parameters, 100.0))  # tanh -> 1
        from repro.core import Play

        for item in sched.instructions_of(Play):
            assert item.instruction.waveform.max_amplitude() <= 0.3 + 1e-9

    def test_ctrl_vqe_leakage_tracked(self, sc_device):
        cv = CtrlVQE(sc_device, h2_hamiltonian(), segments=2, segment_samples=8)
        cv.energy(np.zeros(cv.num_parameters))
        assert cv._last_leakage >= 0.0


class TestRobustness:
    def _grape_pulse(self):
        drift, ops, iso = qutrit_controls()
        g = GrapeOptimizer(
            drift, ops, pauli("x"), n_steps=20, dt=1e-9, max_control=60e6, subspace=iso
        )
        res = g.optimize(maxiter=150, seed=1)
        return drift, ops, iso, res.controls

    def test_detuning_scan_peak_at_zero(self):
        drift, ops, iso, controls = self._grape_pulse()
        n_op = number_on(0, (3,))
        offsets = np.array([-2e6, 0.0, 2e6])
        fids = detuning_scan(
            drift, ops, controls, 1e-9, pauli("x"), n_op, offsets, subspace=iso
        )
        assert fids[1] == max(fids)
        assert fids[1] > 0.999
        square = detuning_scan(
            drift,
            ops,
            square_pulse(20),
            1e-9,
            pauli("x"),
            n_op,
            offsets,
            subspace=iso,
        )
        assert fids.mean() > square.mean()
        assert fids[1] > square[1]

    def test_amplitude_scan_peak_at_one(self):
        drift, ops, iso, controls = self._grape_pulse()
        scales = np.array([0.9, 1.0, 1.1])
        fids = amplitude_scan(
            drift, ops, controls, 1e-9, pauli("x"), scales, subspace=iso
        )
        assert fids[1] == max(fids)
        square = amplitude_scan(
            drift, ops, square_pulse(20), 1e-9, pauli("x"), scales, subspace=iso
        )
        assert fids.mean() > square.mean()

    def test_scan_shapes(self):
        drift, ops, iso, controls = self._grape_pulse()
        n_op = number_on(0, (3,))
        offsets = np.linspace(-1e6, 1e6, 7)
        fids = detuning_scan(
            drift, ops, controls, 1e-9, pauli("x"), n_op, offsets, subspace=iso
        )
        assert fids.shape == (7,)
        assert np.all((0 <= fids) & (fids <= 1 + 1e-9))
