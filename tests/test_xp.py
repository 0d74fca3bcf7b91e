"""Tests: the repro.xp array-backend seam (backend x dtype).

Covers the acceptance surface of the backend-seam PR: policy/registry
resolution and the lazy cupy/torch factories, ``use_backend`` scoping
semantics, the protocol-enforcing ``Active`` proxy, NumPy/complex128
bitwise identity through the engine, the complex64 policy's own parity
gate (1e-5), the StrictBackend seam proof, dtype-aware propagator-cache
keys (the fingerprint regression), the dense-expm downcast guards, and
the ``use_backend`` scope reaching the evolution through primitives
and executables.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
import repro.sim.evolve as evolve
from repro.core.waveform import ParametricWaveform
from repro.errors import ValidationError
from repro.mlir.dialects.pulse import SequenceBuilder
from repro.mlir.ir import print_module
from repro.primitives import Estimator, Observable, Sampler
from repro.sim.evolve import (
    PropagatorCache,
    _coerce_expm_result,
    batched_expm,
    batched_propagators,
    hamiltonian_fingerprint,
)
from repro.xp import (
    PROTOCOL_OPS,
    Active,
    DtypePolicy,
    NumpyBackend,
    active,
    available_backends,
    register_backend,
    resolve_backend,
    resolve_policy,
    use_backend,
)
from repro.xp.testing import StrictBackend


def hermitian_stack(n=4, dim=3, seed=0, scale=2e8):
    rng = np.random.default_rng(seed)
    hs = rng.normal(size=(n, dim, dim)) + 1j * rng.normal(size=(n, dim, dim))
    return (hs + hs.conj().transpose(0, 2, 1)) * scale


DT = 1e-9


class TestPolicies:
    def test_aliases_resolve(self):
        assert resolve_policy("c64").cname == "complex64"
        assert resolve_policy("single").cname == "complex64"
        assert resolve_policy("c128").cname == "complex128"
        assert resolve_policy("double").cname == "complex128"
        assert resolve_policy(None).cname == "complex128"

    def test_policy_passthrough_and_tolerances(self):
        p64 = resolve_policy("complex64")
        assert resolve_policy(p64) is p64
        assert p64.atol == pytest.approx(1e-5)
        assert resolve_policy("complex128").atol == pytest.approx(1e-10)

    def test_unknown_policy_raises(self):
        with pytest.raises(ValidationError, match="complex128"):
            resolve_policy("float16")

    def test_custom_policy(self):
        p = DtypePolicy(
            name="loose64", cname="complex64", rname="float32", atol=1e-3
        )
        with use_backend(dtype=p) as xp:
            assert xp.atol == pytest.approx(1e-3)
            assert xp.spec == "numpy/loose64"


class TestRegistry:
    def test_builtin_backends_registered(self):
        names = available_backends()
        assert {"numpy", "cupy", "torch"} <= set(names)

    def test_unknown_backend_raises(self):
        with pytest.raises(ValidationError, match="unknown array backend"):
            resolve_backend("tpu")

    @pytest.mark.parametrize("name", ["cupy", "torch"])
    def test_missing_library_fails_at_resolution(self, name):
        pytest.importorskip
        try:
            __import__(name)
        except ImportError:
            with pytest.raises(ValidationError, match=name):
                resolve_backend(name)
        else:  # pragma: no cover - library present in this env
            assert resolve_backend(name) is not None

    def test_register_callable_factory(self):
        register_backend("strict-test", StrictBackend)
        try:
            backend = resolve_backend("strict-test")
            assert backend.name == "strict-numpy"
            # resolution memoizes the instance
            assert resolve_backend("strict-test") is backend
        finally:
            import repro.xp.backend as _b

            with _b._REGISTRY_LOCK:
                _b._FACTORIES.pop("strict-test", None)
                _b._INSTANCES.pop("strict-test", None)

    def test_instance_passthrough(self):
        backend = StrictBackend()
        assert resolve_backend(backend) is backend

    def test_unresolvable_object_raises(self):
        with pytest.raises(ValidationError, match="cannot resolve"):
            resolve_backend(3.14)


class TestUseBackend:
    def test_default_is_numpy_complex128(self):
        xp = active()
        assert xp.spec == "numpy/complex128"
        assert xp.cdtype == np.dtype(np.complex128)

    def test_spec_string_and_nesting(self):
        with use_backend("numpy/complex64") as outer:
            assert outer.spec == "numpy/complex64"
            assert active().cdtype == np.dtype(np.complex64)
            with use_backend(dtype="complex128") as inner:
                assert inner.spec == "numpy/complex128"
            assert active().spec == "numpy/complex64"
        assert active().spec == "numpy/complex128"

    def test_dtype_overrides_spec_suffix(self):
        with use_backend("numpy/complex128", dtype="c64") as xp:
            assert xp.policy.cname == "complex64"

    def test_restored_across_exceptions(self):
        with pytest.raises(RuntimeError):
            with use_backend(dtype="complex64"):
                raise RuntimeError("boom")
        assert active().spec == "numpy/complex128"

    def test_active_rejects_non_protocol_ops(self):
        xp = Active(NumpyBackend(), resolve_policy("complex128"))
        with pytest.raises(AttributeError, match="not part of the"):
            xp.linalg
        with pytest.raises(AttributeError):
            xp.tensordot
        # protocol ops resolve and are cached onto the instance
        assert xp.matmul is xp.matmul
        assert "matmul" in xp.__dict__


class TestNumpyParity:
    def test_c128_is_bitwise_reference(self):
        hs = hermitian_stack()
        baseline = batched_propagators(hs, DT)
        with use_backend("numpy", dtype="complex128"):
            scoped = batched_propagators(hs, DT)
        assert np.array_equal(baseline, scoped)

    def test_strict_backend_is_bitwise_and_seam_tight(self):
        hs = hermitian_stack()
        baseline = batched_propagators(hs, DT)
        strict = StrictBackend()
        with use_backend(strict):
            out = batched_propagators(hs, DT)
        assert np.array_equal(baseline, out)
        used = strict.ops_used()
        assert used  # the engine really ran through the seam
        assert used <= PROTOCOL_OPS

    def test_strict_backend_rejects_bypass(self):
        strict = StrictBackend()
        with pytest.raises(AttributeError, match="bypassed the backend seam"):
            strict.fft


class TestComplex64Policy:
    def test_propagators_at_policy_tolerance(self):
        hs = hermitian_stack()
        reference = batched_propagators(hs, DT)
        with use_backend(dtype="complex64") as xp:
            low = batched_propagators(hs, DT)
            atol = xp.atol
        assert low.dtype == np.complex64
        assert np.abs(low - reference).max() < atol
        # still unitary at single precision
        eye = np.eye(hs.shape[-1])
        for u in low:
            assert np.abs(u @ u.conj().T - eye).max() < 1e-5

    def test_eigh_route_at_policy_tolerance(self, monkeypatch):
        monkeypatch.setattr(evolve, "_EIGH_LEVELS", 0)  # every slice to eigh
        hs = hermitian_stack(n=3)
        reference = batched_propagators(hs, DT)
        with use_backend(dtype="c64"):
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
        with use_backend(dtype="complex64"):
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
        u128 = cache.propagators(h[None], DT)[0]
        assert cache.misses == 1
        with use_backend(dtype="complex64"):
            u64 = cache.propagators(h[None], DT)[0]
        # the c64 scope must not be served the c128 entry
        assert cache.misses == 2
        assert len(cache) == 2
        assert u128.dtype == np.complex128
        assert u64.dtype == np.complex64
        # both scopes hit their own entries on revisit
        assert np.array_equal(cache.propagators(h[None], DT)[0], u128)
        with use_backend(dtype="c64"):
            assert np.array_equal(cache.propagators(h[None], DT)[0], u64)
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
    sb = SequenceBuilder("seam")
    drive = sb.add_mixed_frame_arg("f0", device.drive_port(0).name)
    acquire = sb.add_mixed_frame_arg("a0", device.acquire_port(0).name)
    wave = sb.waveform(ParametricWaveform("square", 16, {"amp": 0.2}))
    sb.play(drive, wave)
    sb.barrier(drive, acquire)
    sb.capture(acquire, 0, 8)
    sb.ret()
    return print_module(sb.module)


class TestBackendPlumbing:
    def test_estimator_backend_kwarg(self, sc_device_1q):
        target = repro.Target.from_device(sc_device_1q)
        program = repro.Program.from_mlir(measuring_kernel(sc_device_1q))
        pub = (program, Observable.z(0))
        evs = Estimator(target).run([pub])[0].data["evs"]
        with use_backend("numpy/complex64"):
            evs64 = Estimator(target).run([pub])[0].data["evs"]
        assert evs64 == pytest.approx(evs, abs=1e-5)
        assert not np.array_equal(evs64, evs)  # it really ran in c64

    def test_sampler_backend_kwarg(self, sc_device_1q):
        target = repro.Target.from_device(sc_device_1q)
        program = repro.Program.from_mlir(measuring_kernel(sc_device_1q))
        sampler = Sampler(target, default_shots=0)
        probs = sampler.run([program])[0].data["probabilities"][()]
        with use_backend("numpy/complex64"):
            probs64 = sampler.run([program])[0].data["probabilities"][()]
        assert set(probs) == set(probs64)
        for key, p in probs.items():
            assert probs64[key] == pytest.approx(p, abs=1e-5)

    def test_executable_run_backend_override(self, sc_device_1q):
        target = repro.Target.from_device(sc_device_1q)
        program = repro.Program.from_mlir(measuring_kernel(sc_device_1q))
        exe = repro.compile(program, target)
        r = exe.run(shots=0)
        with use_backend("numpy/complex64"):
            r64 = exe.run(shots=0)
        for key, p in r.probabilities.items():
            assert r64.probabilities[key] == pytest.approx(p, abs=1e-5)

    def test_kernel_metrics_carry_backend_label(self):
        from repro.obs import profile as prof

        prof.enable_profiling()
        prev = prof.begin_collect()
        try:
            hs = hermitian_stack(n=2)
            with use_backend(dtype="complex64"):
                batched_propagators(hs, DT)
        finally:
            prof.disable_profiling()
            records = prof.end_collect(prev)
        kernels = [r for r in records if r["kind"] == "kernel"]
        assert kernels
        assert all(r["backend"] == "numpy/complex64" for r in kernels)
