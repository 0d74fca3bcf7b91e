"""Tests: the simulator's working precision (``repro.sim.precision``).

Covers the two dtype policies and their tolerances, ``use_dtype``
scoping, complex128 as the bitwise reference, the complex64 policy's
own parity gate (1e-5) on every exponential route, dtype-aware
propagator-cache keys and fingerprints, the dense-expm downcast
guards, and the scope reaching the evolution through primitives and
executables but not through service workers.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
import repro.sim.evolve as evolve
from repro.client import JobRequest, MQSSClient
from repro.core.waveform import ParametricWaveform
from repro.errors import ValidationError
from repro.mlir.dialects.pulse import SequenceBuilder
from repro.mlir.ir import print_module
from repro.primitives import Estimator, Observable, Sampler
from repro.qdmi import QDMIDriver
from repro.serving import PulseService
from repro.sim.evolve import (
    PropagatorCache,
    _coerce_expm_result,
    batched_expm,
    batched_propagators,
    hamiltonian_fingerprint,
)
from repro.sim.precision import POLICIES, active_dtype, use_dtype


def hermitian_stack(n=4, dim=3, seed=0, scale=2e8):
    rng = np.random.default_rng(seed)
    hs = rng.normal(size=(n, dim, dim)) + 1j * rng.normal(size=(n, dim, dim))
    return (hs + hs.conj().transpose(0, 2, 1)) * scale


DT = 1e-9


class TestPolicies:
    def test_policies_and_tolerances(self):
        assert sorted(POLICIES) == ["complex128", "complex64"]
        p64, p128 = POLICIES["complex64"], POLICIES["complex128"]
        assert (p64.cdtype, p64.rdtype) == (np.dtype("complex64"), np.float32)
        assert (p128.cdtype, p128.rdtype) == (np.dtype("complex128"), np.float64)
        assert p64.atol == pytest.approx(1e-5)
        assert p128.atol == pytest.approx(1e-10)

    def test_unknown_policy_raises(self):
        with pytest.raises(ValidationError, match="complex128"):
            with use_dtype("float16"):
                pass
        with pytest.raises(ValidationError):
            with use_dtype("c64"):  # no aliases
                pass


class TestUseDtype:
    def test_default_is_complex128(self):
        assert active_dtype() is POLICIES["complex128"]
        assert active_dtype().cdtype == np.dtype(np.complex128)

    def test_nesting(self):
        with use_dtype("complex64") as outer:
            assert outer is POLICIES["complex64"]
            assert active_dtype().cdtype == np.dtype(np.complex64)
            with use_dtype("complex128") as inner:
                assert inner.name == "complex128"
                assert active_dtype() is inner
            assert active_dtype().name == "complex64"
        assert active_dtype().name == "complex128"

    def test_restored_across_exceptions(self):
        with pytest.raises(RuntimeError):
            with use_dtype("complex64"):
                raise RuntimeError("boom")
        assert active_dtype().name == "complex128"


class TestComplex128Reference:
    def test_c128_is_bitwise_reference(self):
        hs = hermitian_stack()
        baseline = batched_propagators(hs, DT)
        with use_dtype("complex128"):
            scoped = batched_propagators(hs, DT)
        assert np.array_equal(baseline, scoped)


class TestComplex64Policy:
    def test_propagators_at_policy_tolerance(self):
        hs = hermitian_stack()
        reference = batched_propagators(hs, DT)
        with use_dtype("complex64") as policy:
            low = batched_propagators(hs, DT)
        assert low.dtype == np.complex64
        assert np.abs(low - reference).max() < policy.atol
        # still unitary at single precision
        eye = np.eye(hs.shape[-1])
        for u in low:
            assert np.abs(u @ u.conj().T - eye).max() < 1e-5

    def test_eigh_route_at_policy_tolerance(self, monkeypatch):
        monkeypatch.setattr(evolve, "_EIGH_LEVELS", 0)  # every slice to eigh
        hs = hermitian_stack(n=3)
        reference = batched_propagators(hs, DT)
        with use_dtype("complex64"):
            low = batched_propagators(hs, DT)
        assert low.dtype == np.complex64
        assert np.abs(low - reference).max() < 1e-5

    def test_expm_dense_route_coerces_to_policy(self, monkeypatch):
        dense_slices = []
        real = evolve._dense_expm

        def spy(a, coeff):
            dense_slices.append(len(a))
            return real(a, coeff)

        monkeypatch.setattr(evolve, "_dense_expm", spy)
        mats = hermitian_stack(n=2, dim=6, scale=1e9) * (-2j * np.pi * DT)
        with use_dtype("complex64"):
            # 1e4 x a unit-scale exponent is past the Pade bound.
            out = batched_expm(mats, scale=1e4)
        assert dense_slices == [2]
        assert out.dtype == np.complex64


class TestDtypeAwareCache:
    def test_fingerprint_distinguishes_dtypes(self):
        h = hermitian_stack(n=1)[0]
        fp128 = hamiltonian_fingerprint(h.astype(np.complex128))
        fp64 = hamiltonian_fingerprint(h.astype(np.complex64))
        assert fp128 != fp64

    def test_fingerprint_deterministic(self):
        h = hermitian_stack(n=1)[0]
        assert hamiltonian_fingerprint(h) == hamiltonian_fingerprint(h.copy())

    def test_cache_namespaces_per_policy(self):
        h = hermitian_stack(n=1)[0]
        cache = PropagatorCache()
        u128 = cache.propagators(h[None], DT)[0][0]
        assert cache.misses == 1
        with use_dtype("complex64"):
            u64 = cache.propagators(h[None], DT)[0][0]
        # the c64 scope must not be served the c128 entry
        assert cache.misses == 2
        assert len(cache) == 2
        assert u128.dtype == np.complex128
        assert u64.dtype == np.complex64
        # both scopes hit their own entries on revisit
        assert np.array_equal(cache.propagators(h[None], DT)[0][0], u128)
        with use_dtype("complex64"):
            assert np.array_equal(cache.propagators(h[None], DT)[0][0], u64)
        assert cache.hits == 2

    def test_float64_drift_still_hits_complex_entry(self):
        # propagators() coerces to the active complex dtype before
        # fingerprinting, so real-valued drift inputs keep hitting the
        # same entry as their complex-cast twins.
        h = np.diag([0.0, 1e9, 2.1e9])
        cache = PropagatorCache()
        cache.propagators(h[None], DT)
        cache.propagators(h.astype(np.complex128)[None], DT)
        assert cache.hits == 1
        assert len(cache) == 1


class TestDenseExpmCoercion:
    def test_same_dtype_passthrough(self):
        r = np.eye(2, dtype=np.complex128)
        assert _coerce_expm_result(r, np.dtype(np.complex128)) is r

    def test_widening_folds_back(self):
        r = np.eye(2, dtype=np.complex128) * (1 + 1e-3j)
        out = _coerce_expm_result(r, np.dtype(np.complex64))
        assert out.dtype == np.complex64

    def test_kind_change_fails_loud(self):
        r = np.eye(2) + 1j * np.ones((2, 2))
        with pytest.raises(ValidationError, match="silently dropping"):
            _coerce_expm_result(r, np.dtype(np.float64))

    def test_overflowing_downcast_fails_loud(self):
        r = np.full((2, 2), 1e200 + 0j, dtype=np.complex128)
        with pytest.raises(ValidationError, match="overflowed"):
            _coerce_expm_result(r, np.dtype(np.complex64))


def measuring_kernel(device) -> str:
    sb = SequenceBuilder("precision")
    drive = sb.add_mixed_frame_arg("f0", device.drive_port(0).name)
    acquire = sb.add_mixed_frame_arg("a0", device.acquire_port(0).name)
    wave = sb.waveform(ParametricWaveform("square", 16, {"amp": 0.2}))
    sb.play(drive, wave)
    sb.barrier(drive, acquire)
    sb.capture(acquire, 0, 8)
    sb.ret()
    return print_module(sb.module)


class TestDtypePlumbing:
    def test_estimator_under_dtype_scope(self, sc_device_1q):
        target = repro.Target.from_device(sc_device_1q)
        program = repro.Program.from_mlir(measuring_kernel(sc_device_1q))
        pub = (program, Observable.z(0))
        evs = Estimator(target).run([pub])[0].data["evs"]
        with use_dtype("complex64"):
            evs64 = Estimator(target).run([pub])[0].data["evs"]
        assert evs64 == pytest.approx(evs, abs=1e-5)
        assert not np.array_equal(evs64, evs)  # it really ran in c64

    def test_sampler_under_dtype_scope(self, sc_device_1q):
        target = repro.Target.from_device(sc_device_1q)
        program = repro.Program.from_mlir(measuring_kernel(sc_device_1q))
        sampler = Sampler(target, default_shots=0)
        probs = sampler.run([program])[0].data["probabilities"][()]
        with use_dtype("complex64"):
            probs64 = sampler.run([program])[0].data["probabilities"][()]
        assert set(probs) == set(probs64)
        for key, p in probs.items():
            assert probs64[key] == pytest.approx(p, abs=1e-5)

    def test_executable_run_under_dtype_scope(self, sc_device_1q):
        target = repro.Target.from_device(sc_device_1q)
        program = repro.Program.from_mlir(measuring_kernel(sc_device_1q))
        exe = repro.compile(program, target)
        r = exe.run(shots=0)
        with use_dtype("complex64"):
            r64 = exe.run(shots=0)
        for key, p in r.probabilities.items():
            assert r64.probabilities[key] == pytest.approx(p, abs=1e-5)

    def test_kernel_metrics_carry_dtype_label(self):
        from repro.obs import profile as prof

        prof.enable_profiling()
        prev = prof.begin_collect()
        try:
            hs = hermitian_stack(n=2)
            with use_dtype("complex64"):
                batched_propagators(hs, DT)
        finally:
            prof.disable_profiling()
            records = prof.end_collect(prev)
        kernels = [r for r in records if r["kind"] == "kernel"]
        assert kernels
        assert all(r["dtype"] == "complex64" for r in kernels)

    def test_scope_does_not_reach_service_workers(self, sc_device_1q):
        """Service workers run on their own threads with the default
        policy: a scope opened around ``submit`` leaves the served
        result bitwise equal to an unscoped one."""
        program = measuring_kernel(sc_device_1q)
        direct = repro.compile(
            repro.Program.from_mlir(program),
            repro.Target.from_device(sc_device_1q),
        )
        with use_dtype("complex64"):
            inline64 = direct.run(shots=0).probabilities
        driver = QDMIDriver()
        driver.register_device(sc_device_1q)
        client = MQSSClient(driver)
        service = PulseService(client)
        try:
            request = JobRequest(program, sc_device_1q.name, shots=0)
            plain = service.submit(request).result(30).probabilities
            with use_dtype("complex64"):
                ticket = service.submit(request)
            scoped = ticket.result(30).probabilities
            with use_dtype("complex64"):
                scoped_wait = service.submit(request).result(30).probabilities
        finally:
            service.stop()
            client.close()
        assert scoped == plain
        assert scoped_wait == plain
        # An inline run in the same scope does switch precision.
        assert inline64 != plain
