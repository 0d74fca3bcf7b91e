"""Tests: the batched propagator engine and its consumers.

Covers the acceptance surface of the batched-evolution PR:
batched-vs-loop equivalence (propagators, Daleckii-Krein kernels,
GRAPE gradients, robustness scans), the propagator cache (hits,
within-batch run dedup, LRU bound), the served sweep path, the
``<Z>`` error paths on result distributions, the GRAPE history
contract, and a
``segment_runs`` single-sample boundary edge case.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.linalg import expm_frechet

from repro.client import ClientResult, MQSSClient
from repro.control import GrapeOptimizer, amplitude_scan, detuning_scan
from repro.control.hamiltonians import qubit_subspace_isometry
from repro.devices import SuperconductingDevice
from repro.errors import ServiceError, ValidationError
from repro.obs import profile
from repro.primitives import Observable
from repro.qdmi import QDMIDriver
from repro.qpi import PythonicCircuit
from repro.serving import PulseService, SweepRequest
from repro.sim.evolve import (
    PropagatorCache,
    batched_expm_and_frechet,
    batched_propagators,
    build_hamiltonians,
    evolve_piecewise,
    propagator_sequence,
    segment_runs,
    step_propagator,
)
from repro.sim.executor import ExecutionResult
from repro.sim.fidelity import process_fidelity, unitary_fidelity
from repro.sim.operators import destroy_on, number_on, pauli

DT = 1e-9


def random_hermitian_stack(n, dim, scale=2e8, seed=0):
    rng = np.random.default_rng(seed)
    hs = rng.normal(size=(n, dim, dim)) + 1j * rng.normal(size=(n, dim, dim))
    return (hs + hs.conj().transpose(0, 2, 1)) * scale


def transmon_problem():
    dims = (3,)
    a = destroy_on(0, dims)
    n = number_on(0, dims)
    drift = -300e6 * 0.5 * (n @ n - n)
    controls = [0.5 * (a + a.conj().T), 0.5j * (a - a.conj().T)]
    return drift, controls, n, qubit_subspace_isometry(dims)


def kernel_routes(fn, *args, **kwargs):
    """``(result, {route: slices})`` of the kernel calls made by *fn*."""
    profile.enable_profiling()
    prev = profile.begin_collect()
    try:
        result = fn(*args, **kwargs)
    finally:
        profile.disable_profiling()
        records = profile.end_collect(prev)
    routes: dict[str, int] = {}
    for r in records:
        if r["kind"] == "kernel":
            routes[r["method"]] = routes.get(r["method"], 0) + r["n"]
    return result, routes


#: Run lengths on each side of the eigh cutoff for these stacks: one
#: sample stays on the matmul route, 10 us of constant drive goes to
#: eigh (its squaring level is far past ``_EIGH_LEVELS``).
ROUTE_STEPS = {"expm": 1, "eigh": 10_000}


class TestBatchedPropagators:
    @pytest.mark.parametrize("route", ["expm", "eigh"])
    @pytest.mark.parametrize("dim", [2, 8, 9])
    def test_matches_per_slice_loop(self, route, dim):
        hs = random_hermitian_stack(23, dim, seed=dim)
        steps = ROUTE_STEPS[route]
        us, routes = kernel_routes(batched_propagators, hs, DT, steps)
        assert routes == {route: 23}
        for k in range(hs.shape[0]):
            ref = step_propagator(hs[k], DT, steps)
            assert np.abs(us[k] - ref).max() < 1e-10

    def test_mixed_steps_stack_routes_per_slice(self):
        hs = random_hermitian_stack(20, 6, seed=4)
        steps = np.tile([ROUTE_STEPS["expm"], ROUTE_STEPS["eigh"]], 10)
        us, routes = kernel_routes(batched_propagators, hs, DT, steps)
        assert routes == {"expm": 10, "eigh": 10}
        for k in range(20):
            ref = step_propagator(hs[k], DT, steps=int(steps[k]))
            assert np.abs(us[k] - ref).max() < 1e-10

    def test_per_slice_steps_array(self):
        hs = random_hermitian_stack(17, 6, seed=3)
        steps = np.arange(1, 18)
        us = batched_propagators(hs, DT, steps)
        for k in range(17):
            ref = step_propagator(hs[k], DT, steps=int(steps[k]))
            assert np.abs(us[k] - ref).max() < 1e-10

    def test_results_are_unitary(self):
        hs = random_hermitian_stack(11, 9, seed=5)
        us = batched_propagators(hs, DT)
        eye = np.eye(9)
        for u in us:
            assert np.abs(u @ u.conj().T - eye).max() < 1e-11

    def test_large_norm_stays_accurate(self):
        # Long flat-tops push the expm path through many squarings.
        hs = random_hermitian_stack(7, 8, scale=5e9, seed=9)
        us = batched_propagators(hs, DT, steps=97)
        for k in range(7):
            ref = step_propagator(hs[k], DT, steps=97)
            assert np.abs(us[k] - ref).max() < 1e-10

    def test_very_long_runs_stay_exact(self):
        # Squaring amplifies rounding ~2x per level, so very long
        # constant runs (10 us+ flat-tops) must go to eigh to hold the
        # 1e-10 contract.
        hs = random_hermitian_stack(2, 8, scale=2.5e9, seed=21)
        for steps in (10_000, 1_000_000):
            us, routes = kernel_routes(batched_propagators, hs, DT, steps)
            assert routes == {"eigh": 2}
            for u in us:
                assert np.abs(u @ u.conj().T - np.eye(8)).max() < 1e-10
        for h, u in zip(hs, batched_propagators(hs, DT, 10_000)):
            exact = step_propagator(h, DT, steps=10_000)
            assert np.abs(u - exact).max() < 1e-10

    def test_empty_stack(self):
        hs = np.zeros((0, 4, 4), dtype=complex)
        assert batched_propagators(hs, DT).shape == (0, 4, 4)

    def test_validation(self):
        hs = random_hermitian_stack(3, 4)
        with pytest.raises(ValidationError):
            batched_propagators(hs[0], DT)
        with pytest.raises(ValidationError):
            batched_propagators(hs, -1.0)
        with pytest.raises(ValidationError):
            batched_propagators(hs, DT, steps=0)
        with pytest.raises(ValidationError):
            batched_propagators(hs, DT, steps=np.array([1, 2]))

    def test_build_hamiltonians_matches_manual(self):
        drift, ops, _, _ = transmon_problem()
        rng = np.random.default_rng(1)
        controls = rng.normal(scale=30e6, size=(9, len(ops)))
        hs = build_hamiltonians(drift, ops, controls)
        for k in range(9):
            ref = drift + sum(controls[k, j] * op for j, op in enumerate(ops))
            assert np.abs(hs[k] - ref).max() == 0.0

    def test_build_hamiltonians_shape_mismatch(self):
        drift, ops, _, _ = transmon_problem()
        with pytest.raises(ValidationError):
            build_hamiltonians(drift, ops, np.zeros((4, 3)))

    def test_propagator_sequence_matches_old_loop(self):
        drift, ops, _, _ = transmon_problem()
        rng = np.random.default_rng(2)
        controls = rng.normal(scale=30e6, size=(31, len(ops)))
        us = propagator_sequence(drift, ops, controls, DT)
        assert len(us) == 31
        for k in range(31):
            h = drift + sum(controls[k, j] * op for j, op in enumerate(ops))
            assert np.abs(us[k] - step_propagator(h, DT)).max() < 1e-10


class TestPropagatorCache:
    def test_hits_and_results(self):
        cache = PropagatorCache()
        hs = random_hermitian_stack(10, 5, seed=7)
        table, index = cache.propagators(hs, DT)
        first = np.stack(table)[index]
        assert cache.misses == 10 and cache.hits == 0
        table, index = cache.propagators(hs, DT)
        second = np.stack(table)[index]
        assert cache.hits == 10
        assert np.abs(first - second).max() == 0.0
        assert np.abs(first - batched_propagators(hs, DT)).max() < 1e-12
        # The table holds the frozen entries themselves; a stacked copy
        # is the caller's: editing it leaves the entries intact.
        with pytest.raises(ValueError):
            table[0][:] = 0.0
        second[:] = 0.0
        table, index = cache.propagators(hs, DT)
        assert np.array_equal(np.stack(table)[index], first)

    def test_flat_top_runs_dedup_within_batch(self):
        cache = PropagatorCache()
        row = random_hermitian_stack(1, 4, seed=8)[0]
        hs = np.stack([row] * 12)  # one segment held for 12 samples
        table, index = cache.propagators(hs, DT)
        # One decomposition for the whole run; the rest are counted as
        # misses of the same key but computed only once.
        assert len(cache) == 1
        ref = step_propagator(row, DT)
        for u in np.stack(table)[index]:
            assert np.abs(u - ref).max() < 1e-10

    def test_distinct_steps_are_distinct_entries(self):
        cache = PropagatorCache()
        h = random_hermitian_stack(1, 3, seed=9)[0]
        u1 = cache.propagators(h[None], DT, 1)[0][0]
        u2 = cache.propagators(h[None], DT, 2)[0][0]
        assert len(cache) == 2
        assert np.abs(u2 - u1 @ u1).max() < 1e-10

    def test_lru_bound(self):
        cache = PropagatorCache(max_entries=4)
        hs = random_hermitian_stack(9, 3, seed=10)
        cache.propagators(hs, DT)
        assert len(cache) == 4

    def test_fractional_steps_rejected(self):
        # A truncated key with an untruncated value would poison later
        # integer-steps lookups.
        cache = PropagatorCache()
        h = random_hermitian_stack(1, 3, seed=12)[0]
        with pytest.raises(ValidationError, match="integral"):
            cache.propagators(h[None], DT, steps=2.5)
        with pytest.raises(ValidationError, match="integral"):
            cache.propagators(h[None], DT, steps=np.array([2.5]))
        assert len(cache) == 0


def count_batched_calls(monkeypatch) -> list[int]:
    """Record the stack size of every ``batched_propagators`` call."""
    import repro.sim.evolve as evolve

    sizes: list[int] = []
    real = evolve.batched_propagators

    def spy(hamiltonians, *args, **kwargs):
        sizes.append(len(hamiltonians))
        return real(hamiltonians, *args, **kwargs)

    monkeypatch.setattr(evolve, "batched_propagators", spy)
    return sizes


class TestEngineCounts:
    """What the engine computes, counted instead of timed."""

    def test_segment_ansatz_computes_one_propagator_per_segment(self, monkeypatch):
        drift, ops, _, _ = transmon_problem()
        values = np.random.default_rng(7).normal(scale=20e6, size=(6, len(ops)))
        controls = np.repeat(values, 10, axis=0)  # 6 segments x 10 samples
        sizes = count_batched_calls(monkeypatch)
        cache = PropagatorCache()
        us = propagator_sequence(drift, ops, controls, DT, cache=cache)
        assert sizes == [6]
        assert len(cache) == 6
        for k in range(controls.shape[0]):
            h = drift + sum(controls[k, j] * op for j, op in enumerate(ops))
            assert np.abs(us[k] - step_propagator(h, DT)).max() < 1e-10

    def test_distinct_slices_are_one_batched_call(self, monkeypatch):
        drift, ops, _, _ = transmon_problem()
        controls = np.random.default_rng(3).normal(scale=30e6, size=(31, len(ops)))
        sizes = count_batched_calls(monkeypatch)
        assert len(propagator_sequence(drift, ops, controls, DT)) == 31
        assert sizes == [31]

    def test_complex64_propagators_stay_complex64(self):
        from repro.sim.precision import use_dtype

        drift, ops, _, _ = transmon_problem()
        controls = np.random.default_rng(4).normal(scale=30e6, size=(9, len(ops)))
        reference = propagator_sequence(drift, ops, controls, DT)
        with use_dtype("complex64") as policy:
            low = propagator_sequence(drift, ops, controls, DT, cache=PropagatorCache())
            atol = policy.atol
        assert {u.dtype for u in low} == {np.dtype(np.complex64)}
        assert max(np.abs(a - b).max() for a, b in zip(low, reference)) < atol


class TestBatchedFrechet:
    def test_matches_single_matrix_kernel(self):
        # Independent reference: scipy's Frechet derivative of expm at
        # A = -2*pi*i*dt*H in direction -2*pi*i*dt*E.
        hs = random_hermitian_stack(7, 6, seed=12)
        directions = random_hermitian_stack(7, 6, seed=13)
        us, vs, gammas = batched_expm_and_frechet(hs, DT)
        for k in range(7):
            u, du = expm_frechet(
                -2j * np.pi * DT * hs[k], -2j * np.pi * DT * directions[k]
            )
            v = vs[k]
            kernel = v @ (gammas[k] * (v.conj().T @ directions[k] @ v)) @ v.conj().T
            assert np.abs(us[k] - u).max() < 1e-12
            assert np.abs(kernel - du).max() < 1e-9 * np.abs(du).max()

    def test_grape_gradient_matches_finite_differences(self):
        drift, ops, _, iso = transmon_problem()
        g = GrapeOptimizer(
            drift, ops, pauli("x"), n_steps=6, dt=DT, subspace=iso
        )
        rng = np.random.default_rng(13)
        x = rng.normal(scale=20e6, size=6 * len(ops))
        inf0, grad = g.infidelity_and_gradient(x)
        eps = 1e-2  # Hz-scale controls: absolute step of 0.01 Hz
        for i in range(0, x.size, 3):
            xp = x.copy()
            xp[i] += eps
            xm = x.copy()
            xm[i] -= eps
            fd = (
                g.infidelity_and_gradient(xp)[0]
                - g.infidelity_and_gradient(xm)[0]
            ) / (2 * eps)
            assert grad[i] == pytest.approx(fd, rel=1e-5, abs=1e-12)


class TestGrapeHistory:
    def test_history_is_per_iteration_and_monotone(self):
        drift, ops, _, iso = transmon_problem()
        g = GrapeOptimizer(
            drift,
            ops,
            pauli("x"),
            n_steps=20,
            dt=DT,
            max_control=60e6,
            subspace=iso,
        )
        res = g.optimize(maxiter=60, seed=3)
        assert len(res.infidelity_history) == res.iterations + 1
        hist = np.asarray(res.infidelity_history)
        assert np.all(np.diff(hist) <= 1e-12)  # monotone accepted iterates
        # Raw evaluations include line-search probes: at least one per
        # iteration, and they start from the same point.
        assert len(res.cost_evaluations) >= res.iterations
        assert res.cost_evaluations[0] == res.infidelity_history[0]


class TestRobustnessScans:
    def test_detuning_scan_matches_per_offset_loop(self):
        drift, ops, n_op, iso = transmon_problem()
        rng = np.random.default_rng(14)
        controls = rng.normal(scale=30e6, size=(12, len(ops)))
        offsets = np.linspace(-2e6, 2e6, 7)
        scanned = detuning_scan(
            drift, ops, controls, DT, pauli("x"), n_op, offsets, subspace=iso
        )
        for i, delta in enumerate(offsets):
            u = evolve_piecewise(drift + delta * n_op, ops, controls, DT)
            ref = process_fidelity(
                u, iso @ pauli("x") @ iso.conj().T, subspace=iso
            )
            assert scanned[i] == pytest.approx(ref, abs=1e-9)

    def test_amplitude_scan_matches_per_scale_loop(self):
        drift, ops, _, _ = transmon_problem()
        rng = np.random.default_rng(15)
        controls = rng.normal(scale=30e6, size=(10, len(ops)))
        target = evolve_piecewise(drift, ops, controls, DT)
        scales = [0.9, 1.0, 1.1]
        scanned = amplitude_scan(drift, ops, controls, DT, target, scales)
        for i, s in enumerate(scales):
            u = evolve_piecewise(drift, ops, controls * s, DT)
            assert scanned[i] == pytest.approx(
                unitary_fidelity(u, target), abs=1e-9
            )
        assert scanned[1] == pytest.approx(1.0, abs=1e-9)

    def test_zero_step_controls_give_identity(self):
        # The old evolve_piecewise path returned the identity for an
        # empty control array; the batched scan must keep doing so.
        drift = np.zeros((2, 2))
        controls = np.zeros((0, 1))
        fids = detuning_scan(
            drift, [pauli("x")], controls, DT, np.eye(2), pauli("z"),
            [0.0, 1e6],
        )
        assert np.allclose(fids, 1.0)


class TestExpectationZErrors:
    def make_result(self, measured_sites=(0,), probabilities=None):
        if probabilities is None:
            probabilities = {"0": 0.5, "1": 0.5}
        return ExecutionResult(
            counts={},
            probabilities=probabilities,
            ideal_probabilities=probabilities,
            final_state=np.array([1.0, 0.0], dtype=complex),
            measured_sites=tuple(measured_sites),
            leakage={},
            duration_samples=0,
            duration_seconds=0.0,
            shots=0,
        )

    @staticmethod
    def z(result, slot=0):
        return Observable.z(slot).expectation(
            result.probabilities, n_slots=len(result.measured_sites)
        )

    def test_no_captures_raises(self):
        # A capture-less schedule yields the width-0 distribution.
        r = self.make_result(measured_sites=(), probabilities={"": 1.0})
        with pytest.raises(ValidationError, match="slot 0 out of range"):
            self.z(r)

    def test_empty_distribution_with_sites_raises(self):
        # Sites recorded but nothing captured: still undefined, not 0.0.
        r = self.make_result(measured_sites=(0,), probabilities={})
        with pytest.raises(ValidationError, match="empty distribution"):
            self.z(r)

    def test_out_of_range_slot_raises(self):
        r = self.make_result(measured_sites=(0,))
        with pytest.raises(ValidationError, match="slot 1 out of range"):
            self.z(r, 1)
        with pytest.raises(ValidationError, match="non-negative"):
            self.z(r, -1)

    def test_valid_slot_still_works(self):
        r = self.make_result(probabilities={"0": 0.75, "1": 0.25})
        assert self.z(r, 0) == pytest.approx(0.5)

    def make_client_result(self, probabilities):
        return ClientResult(
            device="sc-a",
            counts={},
            probabilities=probabilities,
            shots=0,
            duration_samples=0,
            timings_s={},
            job_id=0,
            remote=False,
        )

    def test_client_result_validates_like_executor(self):
        # The served-sweep path reads <Z> off ClientResult
        # distributions, which must meet the same contract.
        r = self.make_client_result({"01": 0.25, "10": 0.75})
        probs = r.probabilities
        assert Observable.z(0).expectation(probs) == pytest.approx(-0.5)
        with pytest.raises(ValidationError, match="slot 2 out of range"):
            Observable.z(2).expectation(probs)
        with pytest.raises(ValidationError, match="non-negative"):
            Observable.z(-1).expectation(probs)
        empty = self.make_client_result({})
        with pytest.raises(ValidationError, match="empty distribution"):
            Observable.z(0).expectation(empty.probabilities)


class TestSegmentRunsBoundary:
    def test_single_sample_run_at_end(self):
        drives = np.zeros((8, 2), dtype=complex)
        drives[7, 0] = 1.0  # lone sample on the schedule boundary
        assert segment_runs(drives) == [(0, 7), (7, 1)]

    def test_single_sample_run_at_start(self):
        drives = np.zeros((8, 2), dtype=complex)
        drives[0, 0] = 1.0
        assert segment_runs(drives) == [(0, 1), (1, 7)]

    def test_single_sample_schedule(self):
        drives = np.ones((1, 3), dtype=complex)
        assert segment_runs(drives) == [(0, 1)]


class TestServedSweeps:
    def make_service(self, **kwargs):
        driver = QDMIDriver()
        driver.register_device(SuperconductingDevice("sc-a", num_qubits=2))
        client = MQSSClient(driver, persistent_sessions=True)
        return PulseService(client, **kwargs)

    def test_sweep_results_in_scan_order(self):
        def build(angle_index):
            c = PythonicCircuit(2, 2)
            if angle_index % 2:
                c.x(0)
            return c.measure(0, 0).measure(1, 1)

        sweep = SweepRequest(
            build=build,
            parameters=list(range(6)),
            device="sc-a",
            shots=128,
            seed=5,
        )
        with self.make_service() as service:
            ticket = service.submit_sweep(sweep)
            assert len(ticket) == 6
            assert ticket.wait(30.0)
            results = ticket.results()
        assert ticket.done()
        zs = [Observable.z(0).expectation(r.probabilities) for r in results]
        for i, z in enumerate(zs):
            assert z == pytest.approx(-1.0 if i % 2 else 1.0, abs=0.2)
        assert service.metrics.get("sweeps") == 1
        assert service.metrics.get("sweep_points") == 6

    def test_sweep_expectation_curve(self):
        sweep = SweepRequest.from_programs(
            [
                PythonicCircuit(2, 2).measure(0, 0).measure(1, 1),
                PythonicCircuit(2, 2).x(0).measure(0, 0).measure(1, 1),
            ],
            "sc-a",
            shots=64,
            seed=3,
        )
        with self.make_service() as service:
            curve = service.submit_sweep(sweep).expectations(
                Observable.z(0), timeout=30.0
            )
        assert curve.shape == (2,)
        assert curve[0] > 0.8 and curve[1] < -0.8

    def test_empty_sweep_rejected(self):
        sweep = SweepRequest(build=lambda p: p, parameters=[], device="sc-a")
        with self.make_service() as service:
            with pytest.raises(ServiceError):
                service.submit_sweep(sweep)
