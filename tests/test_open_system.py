"""Open-system correctness: the batched Lindblad engine must match the
textbook master-equation physics exactly, stay completely positive and
trace preserving, and agree with the legacy per-slice loop — the
calibration and mitigation layers build on these behaviours."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import repro.sim.evolve as evolve
from repro.core import (
    Capture,
    Delay,
    Frame,
    Play,
    Port,
    PulseSchedule,
    SetFrequency,
    constant_waveform,
)
from repro.sim import DecoherenceSpec, ScheduleExecutor
from repro.sim.evolve import batched_expm, batched_propagators
from repro.sim.model import transmon_model
from repro.sim.open_system import (
    OpenSystemEngine,
    batched_superpropagators,
    collapse_operators,
    dissipator_superoperator,
    lindblad_superoperators,
    unvectorize_density,
    vectorize_density,
)

RABI = 50e6  # Hz
DT = 1e-9


def make_model(levels=2, n=1, decoherence=None, **kw):
    return transmon_model(
        n,
        qubit_frequencies=[5e9 + 0.1e9 * q for q in range(n)],
        anharmonicities=[-300e6] * n,
        rabi_rates=[RABI] * n,
        dt=DT,
        levels=levels,
        decoherence=decoherence,
        **kw,
    )


def drive_frame(q=0):
    return Frame(f"q{q}-drive-frame", 5e9 + 0.1e9 * q)


def pi_pulse(fraction=1.0):
    n = 10
    amp = fraction * 0.5 / (RABI * n * DT)
    return constant_waveform(n, amp)


def random_hermitian_stack(n, dim, scale=20e6, seed=0):
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(n, dim, dim)) + 1j * rng.normal(size=(n, dim, dim))
    return scale * (h + h.conj().transpose(0, 2, 1))


def superop_loop(hs, collapse_ops, dt, steps):
    """Reference: one dense expm per run (scipy Pade), in Python."""
    from scipy.linalg import expm

    ls = lindblad_superoperators(hs, collapse_ops)
    steps = np.broadcast_to(np.asarray(steps), (hs.shape[0],))
    return np.stack(
        [expm(ls[k] * dt * steps[k]) for k in range(hs.shape[0])]
    )


def choi_matrix(superop, dim):
    """Choi matrix of a row-major-vec superoperator."""
    return (
        superop.reshape(dim, dim, dim, dim)
        .transpose(0, 2, 1, 3)
        .reshape(dim * dim, dim * dim)
    )


class TestCPTP:
    """Every generated channel must be completely positive and TP."""

    SPECS = [
        DecoherenceSpec(t1=10e-6, t2=8e-6),
        DecoherenceSpec(t1=10e-6, t2=20e-6),
        DecoherenceSpec(t1=float("inf"), t2=5e-6),
        DecoherenceSpec(t1=7e-6, t2=14e-6),  # T2 = 2*T1: damping only
    ]

    @pytest.mark.parametrize("spec", SPECS)
    def test_superoperator_trace_preserving(self, spec):
        cops = collapse_operators((3,), [spec])
        hs = random_hermitian_stack(4, 3, seed=1)
        props = batched_superpropagators(hs, cops, DT, [1, 7, 40, 2000])
        vec_eye = np.eye(3, dtype=np.complex128).reshape(-1)
        for s in props:
            # tr(S[rho]) = vec(I)^dag S vec(rho) for all rho.
            assert np.abs(vec_eye @ s - vec_eye).max() < 1e-10

    @pytest.mark.parametrize("spec", SPECS)
    def test_superoperator_completely_positive(self, spec):
        cops = collapse_operators((2, 2), [spec, spec])
        hs = random_hermitian_stack(3, 4, seed=2)
        props = batched_superpropagators(hs, cops, DT, [1, 9, 500])
        for s in props:
            choi = choi_matrix(s, 4)
            assert np.allclose(choi, choi.conj().T, atol=1e-10)
            assert np.linalg.eigvalsh(choi).min() > -1e-10

    @settings(max_examples=12, derandomize=True, deadline=None, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.sampled_from([2, 3]),
        drive=st.floats(1e7, 5e7),
        t1=st.floats(1e-6, 1e-4),
        t2_ratio=st.floats(0.1, 2.0),
        steps=st.lists(
            st.sampled_from([1, 7, 40, 2000, 100_000]), min_size=1, max_size=5
        ),
    )
    def test_generated_channels_are_cptp(
        self, seed, dim, drive, t1, t2_ratio, steps
    ):
        # 100000-sample runs are past the Pade bound, so generated
        # stacks cover both routes of the shared exponential routine.
        cops = collapse_operators(
            (dim,), [DecoherenceSpec(t1=t1, t2=t2_ratio * t1)]
        )
        hs = random_hermitian_stack(len(steps), dim, scale=drive, seed=seed)
        props = batched_superpropagators(hs, cops, DT, steps)
        vec_eye = np.eye(dim, dtype=np.complex128).reshape(-1)
        for s in props:
            assert np.abs(vec_eye @ s - vec_eye).max() < 1e-10
            choi = choi_matrix(s, dim)
            assert np.abs(choi - choi.conj().T).max() < 1e-10
            assert np.linalg.eigvalsh(choi).min() > -1e-10

    def test_dissipator_annihilates_identity_trace(self):
        cops = collapse_operators((3,), [DecoherenceSpec(t1=5e-6, t2=4e-6)])
        dis = dissipator_superoperator(cops, 3)
        vec_eye = np.eye(3, dtype=np.complex128).reshape(-1)
        assert np.abs(vec_eye @ dis).max() < 1e-20


class TestAnalytic:
    """Exact single-qubit solutions of the master equation."""

    def test_t1_decay_exact(self):
        t1 = 12e-6
        eng = OpenSystemEngine(
            (2,), [DecoherenceSpec(t1=t1, t2=2 * t1)], DT
        )
        rho1 = np.diag([0.0, 1.0]).astype(np.complex128)
        for steps in (100, 5000, 60000):
            rho = eng.evolve_density_matrix(
                np.zeros((1, 2, 2), dtype=np.complex128), [steps], rho1
            )
            assert rho[1, 1].real == pytest.approx(
                np.exp(-steps * DT / t1), abs=1e-10
            )
            assert abs(np.trace(rho) - 1.0) < 1e-12

    def test_t2_ramsey_fringe_exact(self):
        """Detuned free evolution: <X>(t) = cos(2*pi*d*t) exp(-t/T2)."""
        t1, t2, detuning = 40e-6, 25e-6, 2e6
        eng = OpenSystemEngine((2,), [DecoherenceSpec(t1=t1, t2=t2)], DT)
        h = np.array([[[0.0, 0.0], [0.0, detuning]]], dtype=np.complex128)
        plus = np.array([1.0, 1.0], dtype=np.complex128) / np.sqrt(2)
        for steps in (250, 1000, 4000):
            rho = eng.evolve_density_matrix(h, [steps], np.outer(plus, plus))
            t = steps * DT
            expected = np.cos(2 * np.pi * detuning * t) * np.exp(-t / t2)
            assert 2 * rho[0, 1].real == pytest.approx(expected, abs=1e-10)

    def test_qutrit_t1_cascade(self):
        """|2> decays through |1>: the inter-level cascade within one
        constant run."""
        t1 = 5e-6
        eng = OpenSystemEngine(
            (3,), [DecoherenceSpec(t1=t1, t2=2 * t1)], DT
        )
        rho2 = np.diag([0.0, 0.0, 1.0]).astype(np.complex128)
        steps = 5000  # one T1
        rho = eng.evolve_density_matrix(
            np.zeros((1, 3, 3), dtype=np.complex128), [steps], rho2
        )
        # Level 2 decays at rate 2/T1; level 1 fills and drains at 1/T1.
        x = steps * DT / t1
        p2 = np.exp(-2 * x)
        p1 = 2 * (np.exp(-x) - np.exp(-2 * x))
        assert rho[2, 2].real == pytest.approx(p2, abs=1e-10)
        assert rho[1, 1].real == pytest.approx(p1, abs=1e-10)
        assert rho[0, 0].real == pytest.approx(1 - p1 - p2, abs=1e-10)

    def test_free_evolution_matches_closed_form_on_qubit(self):
        """Executor-level free decay of psi = (0.6, 0.8):
        rho_11 = 0.64 exp(-t/T1) and |rho_01| = 0.48 exp(-t/T2)."""
        t1, t2 = 15e-6, 9e-6
        ex = ScheduleExecutor(
            make_model(decoherence=[DecoherenceSpec(t1=t1, t2=t2)])
        )
        psi = np.array([0.6, 0.8], dtype=np.complex128)
        for samples in (1, 700, 5000):
            free = PulseSchedule()
            free.append(Delay(Port.drive(0), samples))
            rho = ex.execute(free, shots=0, initial_state=psi).final_state
            t = samples * DT
            assert rho[1, 1].real == pytest.approx(
                0.64 * np.exp(-t / t1), abs=1e-10
            )
            assert abs(rho[0, 1]) == pytest.approx(
                0.48 * np.exp(-t / t2), abs=1e-10
            )
            assert abs(np.trace(rho) - 1.0) < 1e-12


class TestBatchedVsLoop:
    """The batched engine must reproduce the per-slice loop exactly."""

    def test_driven_transmon_pair_equivalence(self):
        dims = (3, 3)
        specs = [
            DecoherenceSpec(t1=30e-6, t2=25e-6),
            DecoherenceSpec(t1=60e-6, t2=80e-6),
        ]
        cops = collapse_operators(dims, specs)
        hs = random_hermitian_stack(8, 9, seed=3)
        steps = np.array([3, 10, 1, 10, 25, 3, 120, 4])
        engine = batched_superpropagators(hs, cops, DT, steps)
        loop = superop_loop(hs, cops, DT, steps)
        assert np.abs(engine - loop).max() < 1e-10

    def test_engine_evolution_matches_sequential_loop(self):
        dims = (3,)
        eng = OpenSystemEngine(
            dims, [DecoherenceSpec(t1=20e-6, t2=15e-6)], DT
        )
        hs = random_hermitian_stack(5, 3, seed=4)
        steps = [2, 40, 7, 40, 11]
        psi0 = np.zeros(3, dtype=np.complex128)
        psi0[1] = 1.0
        rho_engine = eng.evolve_density_matrix(hs, steps, psi0)
        loop = superop_loop(hs, eng.collapse_ops, DT, steps)
        vec = vectorize_density(np.outer(psi0, psi0.conj()))
        for s in loop:
            vec = s @ vec
        assert np.abs(rho_engine - unvectorize_density(vec, 3)).max() < 1e-10

    def test_closed_system_limit_matches_unitary_conjugation(self):
        hs = random_hermitian_stack(4, 3, seed=5)
        props = batched_superpropagators(hs, [], DT, 3)
        us = batched_propagators(hs, DT, 3)
        rng = np.random.default_rng(6)
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        rho = a @ a.conj().T
        rho /= np.trace(rho)
        for s, u in zip(props, us):
            direct = u @ rho @ u.conj().T
            via_super = unvectorize_density(s @ vectorize_density(rho), 3)
            assert np.abs(direct - via_super).max() < 1e-10


class TestTrajectories:
    def test_t1_decay_within_shot_noise(self):
        t1 = 5e-6
        eng = OpenSystemEngine((2,), [DecoherenceSpec(t1=t1, t2=2 * t1)], DT)
        h = np.zeros((1, 2, 2), dtype=np.complex128)
        psi1 = np.array([0.0, 1.0], dtype=np.complex128)
        exact = eng.evolve_density_matrix(h, [5000], np.outer(psi1, psi1))
        traj = eng.evolve_trajectories(
            h, [5000], psi1, n_trajectories=3000,
            rng=np.random.default_rng(7),
        )
        assert abs(np.trace(traj) - 1.0) < 1e-10
        # 3000 trajectories: ~4 sigma of a Bernoulli at p ~ 0.37.
        assert traj[1, 1].real == pytest.approx(
            exact[1, 1].real, abs=0.04
        )

    def test_driven_agrees_with_superoperator(self):
        eng = OpenSystemEngine(
            (2,), [DecoherenceSpec(t1=4e-6, t2=5e-6)], DT
        )
        h = np.array([[[0.0, 15e6], [15e6, 0.0]]], dtype=np.complex128)
        psi0 = np.array([1.0, 0.0], dtype=np.complex128)
        exact = eng.evolve_density_matrix(h, [1500], np.outer(psi0, psi0))
        traj = eng.evolve_trajectories(
            h, [1500], psi0, n_trajectories=2500,
            rng=np.random.default_rng(8),
        )
        assert np.abs(traj - exact).max() < 0.05

    def test_executor_trajectory_method(self, monkeypatch):
        specs = [DecoherenceSpec(t1=10e-6, t2=12e-6)]
        s = PulseSchedule()
        p, f = Port.drive(0), drive_frame()
        s.append(Play(p, f, pi_pulse()))
        s.append(Delay(p, 1000))
        s.append(Capture(Port.acquire(0), Frame("acq", 0.0), 0))
        exact = ScheduleExecutor(make_model(decoherence=specs)).execute(
            s, shots=0
        )
        # Past the superoperator bound the executor samples trajectories.
        monkeypatch.setattr(ScheduleExecutor, "_MAX_SUPEROP_DIM", 1)
        sampled = ScheduleExecutor(make_model(decoherence=specs)).execute(
            s, shots=0, seed=9
        )
        p1_exact = exact.ideal_probabilities["1"]
        p1_traj = sampled.ideal_probabilities["1"]
        assert p1_traj == pytest.approx(p1_exact, abs=0.06)

    def test_mixed_initial_state_accepted(self):
        eng = OpenSystemEngine((2,), [DecoherenceSpec(t1=5e-6, t2=6e-6)], DT)
        rho0 = np.diag([0.25, 0.75]).astype(np.complex128)
        out = eng.evolve_trajectories(
            np.zeros((1, 2, 2), dtype=np.complex128),
            [100],
            rho0,
            n_trajectories=400,
            rng=np.random.default_rng(10),
        )
        assert abs(np.trace(out) - 1.0) < 1e-10


class TestCachesAndValidation:
    def test_superpropagator_cache_hits_on_repeat(self):
        eng = OpenSystemEngine((2,), [DecoherenceSpec(t1=9e-6, t2=8e-6)], DT)
        hs = random_hermitian_stack(3, 2, seed=11)
        eng.superpropagators(hs, [4, 4, 4])
        assert eng.cache.misses == 3
        eng.superpropagators(hs, [4, 4, 4])
        assert eng.cache.hits == 3

    def test_echo_runs_compute_one_superpropagator_each(self, monkeypatch):
        """A repeated pulse/delay echo train exponentiates each distinct
        (H, steps) run once, in one batched call."""
        import repro.sim.open_system as open_system

        sizes = []
        real = open_system.batched_superpropagators

        def spy(hamiltonians, *args, **kwargs):
            sizes.append(len(hamiltonians))
            return real(hamiltonians, *args, **kwargs)

        monkeypatch.setattr(open_system, "batched_superpropagators", spy)
        eng = OpenSystemEngine((3,), [DecoherenceSpec(t1=20e-6, t2=15e-6)], DT)
        pulse, delay = random_hermitian_stack(2, 3, seed=13)
        hs = np.stack([pulse, delay, pulse, delay, pulse, delay])
        steps = [16, 48, 16, 48, 16, 48]
        psi0 = np.array([0.0, 1.0, 0.0], dtype=np.complex128)
        rho = eng.evolve_density_matrix(hs, steps, psi0)
        assert sizes == [2]
        assert len(eng.cache) == 2
        vec = vectorize_density(np.outer(psi0, psi0.conj()))
        for s in superop_loop(hs, eng.collapse_ops, DT, steps):
            vec = s @ vec
        assert np.abs(rho - unvectorize_density(vec, 3)).max() < 1e-10
        assert abs(np.trace(rho) - 1.0) < 1e-10
        # A warm re-run computes nothing and returns the same state.
        assert np.array_equal(eng.evolve_density_matrix(hs, steps, psi0), rho)
        assert sizes == [2]

    def test_complex64_superpropagators_stay_complex64(self):
        from repro.sim.precision import use_dtype

        eng = OpenSystemEngine((3,), [DecoherenceSpec(t1=20e-6, t2=15e-6)], DT)
        hs = random_hermitian_stack(4, 3, seed=14)
        steps = [3, 40, 7, 12]
        psi0 = np.array([0.0, 1.0, 0.0], dtype=np.complex128)
        reference = eng.evolve_density_matrix(hs, steps, psi0)
        with use_dtype("complex64") as policy:
            table, index = eng.superpropagators(hs, steps)
            rho = eng.evolve_density_matrix(hs, steps, psi0)
            atol = policy.atol
        assert np.stack(table)[index].dtype == np.complex64
        assert np.abs(rho - reference).max() < atol

    def test_cache_keys_distinguish_dissipators(self):
        """Same Hamiltonian, different T1 must not share entries."""
        from repro.sim.evolve import PropagatorCache

        shared = PropagatorCache()
        e1 = OpenSystemEngine(
            (2,), [DecoherenceSpec(t1=5e-6, t2=6e-6)], DT, cache=shared
        )
        e2 = OpenSystemEngine(
            (2,), [DecoherenceSpec(t1=50e-6, t2=60e-6)], DT, cache=shared
        )
        hs = random_hermitian_stack(1, 2, seed=12)
        (s1,), _ = e1.superpropagators(hs, 1000)
        (s2,), _ = e2.superpropagators(hs, 1000)
        assert np.abs(s1 - s2).max() > 1e-6
        assert shared.misses == 2  # two distinct entries, no collision

    def test_frame_phase_sweeps_reuse_superpropagators(self, monkeypatch):
        """A frame phase rotates the state, not the propagator: a sweep
        over phases computes each distinct (|amplitude|, steps) slice
        once, and a later sweep with fresh phases computes none.

        The cache's miss counter tallies slices (a run of N identical
        slices reads N), so computed slices are counted at the kernel.
        """
        from dataclasses import replace

        from repro.core import Barrier, SampledWaveform, ShiftPhase
        from repro.devices import SuperconductingDevice
        from repro.sim import open_system

        computed = []
        kernel = open_system.batched_superpropagators

        def counting(hs, *args, **kwargs):
            computed.append(len(hs))
            return kernel(hs, *args, **kwargs)

        monkeypatch.setattr(open_system, "batched_superpropagators", counting)
        device = SuperconductingDevice(
            num_qubits=2, drift_rate=0.0, with_decoherence=True, t1=20e-6, t2=15e-6
        )
        p, acq = device.drive_port(0), device.acquire_port(0)
        f = device.default_frame(p)
        base = PulseSchedule("ansatz")
        for k in range(3):  # state prep: raw-sample pulses
            base.append(Play(p, f, SampledWaveform(np.full(32, 0.05 + 0.01 * k))))
        shifts = []
        for k in range(4):  # phase-shifted squares
            shifts.append(base.append(ShiftPhase(p, f, 0.0)))
            base.append(Play(p, f, constant_waveform(8, 0.10 + 0.005 * k)))
        base.append(Barrier(barrier_ports=(p, acq)))
        base.append(Capture(acq, device.default_frame(acq), 0, duration_samples=8))
        # 3 prep + 4 square amplitudes + the drift-only capture window.
        distinct = 3 + 4 + 1

        def sweep(seed, points=16):
            rng = np.random.default_rng(seed)
            clones = []
            for _ in range(points):
                values = dict(zip(shifts, rng.uniform(-np.pi, np.pi, len(shifts))))
                clones.append(
                    base.clone_with_items(
                        [
                            replace(it, instruction=replace(it.instruction, delta=v))
                            if (v := values.get(it)) is not None
                            else it
                            for it in base._items
                        ]
                    )
                )
            return clones

        ex = ScheduleExecutor(device.model)
        cache = ex.propagator_cache
        first = sweep(1)
        ex.execute_batch(first, shots=0)
        assert sum(computed) == distinct
        assert len(cache) == distinct
        misses = cache.misses
        fresh = sweep(2)
        batch = ex.execute_batch(fresh, shots=0)
        assert cache.misses == misses  # fresh phases: zero misses
        assert sum(computed) == distinct
        assert len(cache) == distinct
        cold = ScheduleExecutor(device.model).execute_batch(fresh[:2], shots=0)
        for a, b in zip(batch, cold):
            assert np.abs(a.final_state - b.final_state).max() < 1e-12

        # A detuned play: every sample carries its own phase, so the raw
        # drive is N one-sample runs; they share one superpropagator.
        computed.clear()
        detuned = PulseSchedule("detuned")
        detuned.append(SetFrequency(p, f, f.frequency + 7e6))
        detuned.append(Play(p, f, constant_waveform(40, 0.12)))
        fresh_ex = ScheduleExecutor(device.model)
        fresh_ex.execute(detuned, shots=0)
        assert computed == [1]
        assert len(fresh_ex.propagator_cache) == 1

    def test_batched_expm_dense_fallback_matches(self, monkeypatch):
        dense_slices = []
        real = evolve._dense_expm

        def spy(a, coeff):
            dense_slices.append(len(a))
            return real(a, coeff)

        monkeypatch.setattr(evolve, "_dense_expm", spy)
        a = random_hermitian_stack(3, 3, seed=13) * 1j  # skew stack
        # The middle slice's scaled norm is past the Pade bound; the
        # others stay on the batched matmuls.
        scale = np.array([1e-8, 1e-3, 2e-8])
        out = batched_expm(a, scale=scale)
        assert dense_slices == [1]
        for k in range(3):
            assert np.abs(out[k] - expm(a[k] * scale[k])).max() < 1e-10

    def test_mitigation_validation_improves_tv(self):
        from repro.qem.readout import validate_readout_mitigation
        from repro.sim import ReadoutModel

        specs = [DecoherenceSpec(t1=30e-6, t2=40e-6)]
        ex = ScheduleExecutor(
            make_model(decoherence=specs),
            readout={0: ReadoutModel(p01=0.03, p10=0.08)},
        )
        s = PulseSchedule()
        p, f = Port.drive(0), drive_frame()
        s.append(Play(p, f, pi_pulse()))
        s.append(Delay(p, 2000))
        s.append(Capture(Port.acquire(0), Frame("acq", 0.0), 0))
        v = validate_readout_mitigation(ex, s, shots=20000, seed=5)
        assert v.tv_mitigated < v.tv_observed
        assert v.tv_mitigated < 0.01
        assert v.condition_number < 2.0
        # The exact reference is the Lindblad result: it must show the
        # T1 decay over the 2 us delay, not the ideal |1>.
        assert v.exact["1"] < 1.0 - 1e-3


class TestGrapeNoisyObjective:
    def _optimizer(self):
        from repro.control.grape import GrapeOptimizer
        from repro.sim.operators import pauli

        sx, sy = pauli("x"), pauli("y")
        drift = np.zeros((2, 2), dtype=np.complex128)
        return GrapeOptimizer(
            drift,
            [0.5 * sx, 0.5 * sy],
            pauli("x"),
            n_steps=8,
            dt=2e-9,
            max_control=80e6,
        )

    def test_noisy_infidelity_exceeds_closed_system(self):
        opt = self._optimizer()
        res = opt.optimize(maxiter=150, seed=1)
        assert res.fidelity > 1 - 1e-6
        cops = collapse_operators((2,), [DecoherenceSpec(t1=3e-6, t2=4e-6)])
        psi0 = np.array([1.0, 0.0], dtype=np.complex128)
        psi1 = np.array([0.0, 1.0], dtype=np.complex128)
        noisy = opt.noisy_infidelity(
            res.controls,
            collapse_ops=cops,
            initial_state=psi0,
            target_state=psi1,
        )
        assert noisy > 1e-4  # decoherence must cost something
        assert noisy < 0.05

    def test_decoherence_scan_monotone(self):
        """The noisy objective over a T1/T2 grid: the noiseless point is
        the closed-system infidelity, and shorter T1/T2 cost more."""
        opt = self._optimizer()
        res = opt.optimize(maxiter=150, seed=1)
        psi0 = np.array([1.0, 0.0], dtype=np.complex128)
        psi1 = np.array([0.0, 1.0], dtype=np.complex128)
        specs = [
            DecoherenceSpec(),  # noiseless reference point
            DecoherenceSpec(t1=50e-6, t2=60e-6),
            DecoherenceSpec(t1=5e-6, t2=6e-6),
            DecoherenceSpec(t1=1e-6, t2=1.2e-6),
        ]
        infidelities = [
            opt.noisy_infidelity(
                res.controls,
                collapse_ops=collapse_operators((2,), [spec]),
                initial_state=psi0,
                target_state=psi1,
            )
            for spec in specs
        ]
        assert 1.0 - infidelities[0] == pytest.approx(res.fidelity, abs=1e-9)
        assert np.all(np.diff(infidelities) > 0)


class TestServingNoiseSweep:
    def test_noise_grid_through_service(self):
        from repro.client import MQSSClient
        from repro.devices import SuperconductingDevice
        from repro.qdmi import QDMIDriver
        from repro.qpi import PythonicCircuit
        from repro.serving import PulseService, SweepRequest

        driver = QDMIDriver()
        driver.register_device(SuperconductingDevice("sc-a", num_qubits=1))
        client = MQSSClient(driver, persistent_sessions=True)
        program = PythonicCircuit(1, 1).x(0).measure(0, 0)
        sweep = SweepRequest.noise_grid(
            program,
            "sc-a",
            t1_values=[5e-6, 80e-6],
            t2_values=[5e-6],
            n_sites=1,
            shots=0,
            seed=3,
        )
        try:
            with PulseService(client) as svc:
                ticket = svc.submit_sweep(sweep)
                assert ticket.wait(60)
                results = ticket.results()
        finally:
            client.close()
        p1 = [r.probabilities["1"] for r in results]
        # Longer T1 keeps more of the X-pulse population.
        assert p1[1] > p1[0]

    def test_noise_grid_drops_unphysical_points(self):
        from repro.serving import SweepRequest

        sweep = SweepRequest.noise_grid(
            object(),
            "dev",
            t1_values=[1e-6, 10e-6],
            t2_values=[4e-6],
            n_sites=1,
        )
        # (1us, 4us) violates T2 <= 2*T1 and is dropped.
        assert sweep.parameters == [(10e-6, 4e-6)]

    def test_sweep_points_do_not_coalesce_across_noise(self):
        from repro.serving import RequestBatcher

        k1 = RequestBatcher.coalesce_key("d", "fp", 1, variant="a")
        k2 = RequestBatcher.coalesce_key("d", "fp", 1, variant="b")
        assert k1 != k2

    def test_device_rejects_wrong_site_count(self):
        from repro.devices import SuperconductingDevice

        dev = SuperconductingDevice("sc-x", num_qubits=2)
        from repro.errors import JobError

        with pytest.raises(JobError):
            dev._executor_for([DecoherenceSpec(t1=1e-6, t2=1e-6)])
