"""Tests: the primitives tier (Observable, PUBs, Sampler, Estimator).

Covers the acceptance surface of the primitives PR: the Observable
algebra and its two evaluation conventions, PUB broadcasting,
Sampler/Estimator equivalence with the direct ``Executable.run`` loop
across all three device families, the noisy Estimator against the
exact Lindblad distribution (1e-10), the batched executor kernel, and
the mixed-width distribution bugfix.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.core.waveform import ParametricWaveform
from repro.devices import SuperconductingDevice
from repro.errors import ValidationError
from repro.mlir.dialects.pulse import SequenceBuilder
from repro.mlir.ir import print_module
from repro.primitives import (
    BindingsArray,
    DataBin,
    Estimator,
    EstimatorPub,
    Observable,
    Sampler,
    SamplerPub,
)
from repro.qem import SamplerOptions


def parametric_kernel(device, n_params: int = 2, amp: float = 0.2) -> str:
    """A phase-parametrized measuring pulse kernel (MLIR text)."""
    sb = SequenceBuilder("ansatz")
    drive = sb.add_mixed_frame_arg("f0", device.drive_port(0).name)
    acquire = sb.add_mixed_frame_arg("a0", device.acquire_port(0).name)
    thetas = [sb.add_scalar_arg(f"theta{i}") for i in range(n_params)]
    wave = sb.waveform(ParametricWaveform("square", 16, {"amp": amp}))
    for theta in thetas:
        sb.shift_phase(drive, theta)
        sb.play(drive, wave)
    sb.barrier(drive, acquire)
    sb.capture(acquire, 0, 8)
    sb.ret()
    return print_module(sb.module)


def grid_for(program, n_points: int, scale: float = 1.0) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(7)
    return {
        name: scale * rng.uniform(-np.pi, np.pi, n_points)
        for name in program.parameters
    }


def loop_expectations(executable, grid: dict[str, np.ndarray]) -> np.ndarray:
    """The per-point Executable.run baseline the Estimator must match."""
    names = list(grid)
    n = len(next(iter(grid.values())))
    out = np.empty(n)
    z0 = Observable.z(0)
    for i in range(n):
        point = {k: float(grid[k][i]) for k in names}
        result = executable.bind(point).run(shots=0, seed=1)
        out[i] = z0.expectation(result.probabilities)
    return out


# ---- Observable algebra --------------------------------------------------------------


class TestObservable:
    def test_constructors_and_labels(self):
        obs = Observable.from_pauli("ZI", 0.5) + Observable.from_pauli("IZ", -0.5)
        assert obs.labels() == {"ZI": 0.5, "IZ": -0.5}
        assert obs.num_slots == 2
        assert obs.is_diagonal and obs.is_hermitian
        assert Observable.z(1).labels() == {"IZ": 1.0}
        assert Observable.identity(2.0).labels(2) == {"II": 2.0}

    def test_algebra_merges_terms(self):
        a = Observable.from_pauli("Z")
        assert (a + a).labels() == {"Z": 2.0}
        assert (a - a).terms == {}
        assert (3.0 * a * 2.0).labels() == {"Z": 6.0}
        assert (-a).labels() == {"Z": -1.0}
        assert (a + 1.0).labels() == {"Z": 1.0, "I": 1.0}
        assert hash(Observable.from_pauli("Z") * 2) == hash(
            Observable.from_pauli("Z") + Observable.from_pauli("Z")
        )

    def test_coerce(self):
        assert Observable.coerce("XX") == Observable.from_pauli("XX")
        assert Observable.coerce({"Z": 2.0}) == Observable.z(0, 2.0)
        with pytest.raises(ValidationError):
            Observable.coerce(3.14)
        with pytest.raises(ValidationError):
            Observable.from_pauli("ZQ")

    def test_from_matrix_roundtrip(self):
        from repro.control.hamiltonians import h2_hamiltonian

        h = h2_hamiltonian()
        obs = Observable.from_matrix(h)
        assert not obs.is_diagonal  # the XX term
        np.testing.assert_allclose(obs.matrix((2, 2)), h, atol=1e-12)
        with pytest.raises(ValidationError):
            Observable.from_matrix(np.eye(3))

    def test_matrix_embedding_matches_legacy(self):
        """matrix() must equal embed_qubit_operator(pauli_sum(...))."""
        from repro.control.hamiltonians import (
            embed_qubit_operator,
            h2_hamiltonian,
        )

        dims = (3, 3)
        obs = Observable.from_matrix(h2_hamiltonian())
        np.testing.assert_allclose(
            obs.matrix(dims),
            embed_qubit_operator(h2_hamiltonian(), dims),
            atol=1e-12,
        )

    def test_expectation_from_distribution(self):
        probs = {"00": 0.5, "01": 0.25, "11": 0.25}
        assert Observable.z(0).expectation(probs) == pytest.approx(0.5)
        assert Observable.z(1).expectation(probs) == pytest.approx(0.0)
        zz = Observable.from_pauli("ZZ")
        assert zz.expectation(probs) == pytest.approx(0.5 - 0.25 + 0.25)
        assert zz.variance(probs) == pytest.approx(1.0 - 0.5**2)

    def test_distribution_validation(self):
        with pytest.raises(ValidationError, match="empty distribution"):
            Observable.z(0).expectation({})
        with pytest.raises(ValidationError, match="slot 2 out of range"):
            Observable.z(2).expectation({"00": 1.0})
        with pytest.raises(ValidationError, match="X/Y factors"):
            Observable.from_pauli("X").expectation({"0": 1.0})
        with pytest.raises(ValidationError, match="inconsistent"):
            Observable.z(0).expectation({"0": 0.5, "10": 0.5})


class TestDistributionWidthBugfix:
    """Satellite: mixed-width distributions must raise ValidationError."""

    def test_mixed_width_raises_not_indexerror(self):
        # Before the fix: key shorter than the first key's width hit a
        # bare IndexError (or was silently mis-read).
        with pytest.raises(ValidationError, match="inconsistent"):
            Observable.z(1).expectation({"10": 0.5, "0": 0.5})

    def test_mixed_width_raises_even_when_slot_in_range(self):
        # Before the fix: slot 0 exists in every key, so the mixed
        # widths passed silently.
        with pytest.raises(ValidationError, match="inconsistent"):
            Observable.z(0).expectation({"0": 0.5, "10": 0.5})

    def test_consistent_width_still_works(self):
        assert Observable.z(0).expectation({"01": 0.75, "11": 0.25}) == (
            pytest.approx(0.5)
        )


# ---- PUB broadcasting ----------------------------------------------------------------


class TestPubs:
    def _program(self, sc_device_1q):
        return repro.Program.from_mlir(parametric_kernel(sc_device_1q, 2))

    def test_bindings_from_mapping_broadcast(self, sc_device_1q):
        program = self._program(sc_device_1q)
        ba = BindingsArray(
            {"theta0": np.zeros((4,)), "theta1": 0.5}, program.parameters
        )
        assert ba.shape == (4,)
        assert ba.point(2) == {"theta0": 0.0, "theta1": 0.5}

    def test_bindings_positional_trailing_axis(self, sc_device_1q):
        program = self._program(sc_device_1q)
        ba = BindingsArray(np.zeros((5, 3, 2)), program.parameters)
        assert ba.shape == (5, 3)
        with pytest.raises(ValidationError, match="trailing axis"):
            BindingsArray(np.zeros((5, 3)), program.parameters)

    def test_bindings_validation(self, sc_device_1q):
        program = self._program(sc_device_1q)
        with pytest.raises(ValidationError, match="no parameter values"):
            BindingsArray(None, program.parameters)
        with pytest.raises(ValidationError, match="unknown"):
            BindingsArray(
                {"theta0": 0.0, "theta1": 0.0, "bogus": 1.0},
                program.parameters,
            )
        with pytest.raises(ValidationError, match="declares no parameters"):
            BindingsArray([0.1], ())

    def test_estimator_pub_broadcast_shape(self, sc_device_1q):
        program = self._program(sc_device_1q)
        pub = EstimatorPub(
            program,
            [["Z"], ["I"]],  # shape (2, 1)
            {"theta0": np.zeros(3), "theta1": np.zeros(3)},  # shape (3,)
        )
        assert pub.shape == (2, 3)
        assert pub.binding_indices().shape == (2, 3)
        assert set(pub.binding_indices()[0]) == {0, 1, 2}
        assert set(pub.observable_indices()[0]) == {0}

    def test_sampler_pub_coercion(self, sc_device_1q):
        program = self._program(sc_device_1q)
        pub = SamplerPub.coerce((program, np.zeros((3, 2)), 16))
        assert pub.shape == (3,) and pub.shots == 16
        with pytest.raises(ValidationError):
            SamplerPub.coerce((program, None, -1))


# ---- batched executor kernel ---------------------------------------------------------


class TestExecuteBatch:
    def _schedules(self, device, n=4):
        program = repro.Program.from_mlir(parametric_kernel(device, 2))
        exe = repro.compile(program, repro.Target.from_device(device))
        rng = np.random.default_rng(3)
        return [
            exe.specialize(
                {"theta0": rng.uniform(-1, 1), "theta1": rng.uniform(-1, 1)}
            )
            for _ in range(n)
        ]

    def test_closed_matches_per_point(self):
        device = SuperconductingDevice(
            num_qubits=1, drift_rate=0.0, seed=11
        )
        schedules = self._schedules(device)
        batch = device.executor.execute_batch(schedules, shots=32, seed=5)
        for schedule, br in zip(schedules, batch):
            single = device.executor.execute(schedule, shots=32, seed=5)
            assert br.counts == single.counts
            for key, p in single.ideal_probabilities.items():
                assert br.ideal_probabilities[key] == pytest.approx(
                    p, abs=1e-10
                )

    def test_open_matches_per_point(self):
        device = SuperconductingDevice(
            num_qubits=1,
            drift_rate=0.0,
            with_decoherence=True,
            t1=5e-6,
            t2=3e-6,
        )
        schedules = self._schedules(device)
        batch = device.executor.execute_batch(schedules, shots=0)
        for schedule, br in zip(schedules, batch):
            single = device.executor.execute(schedule, shots=0)
            np.testing.assert_allclose(
                br.final_state, single.final_state, atol=1e-10
            )

    def test_empty_and_degenerate(self, sc_device_1q):
        r = sc_device_1q.executor.execute_batch([])
        assert len(r) == 0 and r.families == ()
        from repro.core import PulseSchedule

        [r] = sc_device_1q.executor.execute_batch(
            [PulseSchedule("empty")], shots=0
        )
        assert r.duration_samples == 0 and r.counts == {}

    def test_zero_point_pub_is_empty(self, sc_device_1q):
        """A zero-point PUB gives empty evs and an empty Sampler result
        on a direct target, alone and beside a PUB with points, which
        it leaves as that PUB gives alone."""
        program = repro.Program.from_mlir(parametric_kernel(sc_device_1q, 2))
        target = repro.Target.from_device(sc_device_1q)
        empty = {"theta0": np.zeros(0), "theta1": np.zeros(0)}
        points = grid_for(program, 3)
        [alone] = Estimator(target).run([(program, "Z", empty)])
        assert alone.data.evs.shape == (0,)
        zero, full = Estimator(target).run(
            [(program, "Z", empty), (program, "Z", points)]
        )
        [ref] = Estimator(target).run([(program, "Z", points)])
        assert zero.data.evs.shape == (0,)
        np.testing.assert_array_equal(full.data.evs, ref.data.evs)
        for pubs in ([(program, empty)], [(program, points), (program, empty)]):
            result = Sampler(target, seed=5).run(pubs)
            assert result[-1].data.shape == (0,)
            assert result[-1].data.counts.shape == (0,)
        [counts] = Sampler(target, seed=5).run([(program, points)])
        assert list(result[0].data.counts) == list(counts.data.counts)


# ---- Sampler / Estimator vs the direct run loop --------------------------------------


class TestEquivalenceAcrossFamilies:
    N_POINTS = 6

    def test_estimator_matches_run_loop(self, all_devices):
        for device in all_devices:
            target = repro.Target.from_device(device)
            program = repro.Program.from_mlir(parametric_kernel(device, 2))
            grid = grid_for(program, self.N_POINTS)
            evs = (
                Estimator(target)
                .run([(program, "Z", grid)])[0]
                .data.evs
            )
            expected = loop_expectations(repro.compile(program, target), grid)
            np.testing.assert_allclose(evs, expected, atol=1e-10)

    def test_pub_is_one_execute_batch_and_no_compile(self, sc_device_1q, monkeypatch):
        """A 16-point PUB mints every schedule from the template (no
        JIT compile) and evolves them in one ``execute_batch``."""
        executor = sc_device_1q.executor
        sizes = []
        real = executor.execute_batch

        def spy(schedules, *args, **kwargs):
            sizes.append(len(schedules))
            return real(schedules, *args, **kwargs)

        monkeypatch.setattr(executor, "execute_batch", spy)
        target = repro.Target.from_device(sc_device_1q)
        program = repro.Program.from_mlir(parametric_kernel(sc_device_1q, 2))
        grid = grid_for(program, 16)
        evs = Estimator(target).run([(program, "Z", grid)])[0].data.evs
        assert evs.shape == (16,)
        assert sizes == [16]
        assert target.compiler.stats()["misses"] == 0

    def test_direct_pub_builds_no_schedule_or_rng_per_point(
        self, sc_device_1q, monkeypatch
    ):
        """A ``shots=0`` 64-point PUB on a direct target binds as one
        schedule family: no schedule is built or cloned, no point is
        specialized, no clone walk runs and no RNG is built, and the
        executor sees one 64-member ``execute_batch``."""
        import collections

        from repro.api.executable import Executable
        from repro.core import PulseSchedule
        from repro.sim import ScheduleExecutor

        executor = sc_device_1q.executor
        target = repro.Target.from_device(sc_device_1q)
        program = repro.Program.from_mlir(parametric_kernel(sc_device_1q, 2))
        estimator = Estimator(target)
        estimator.run([(program, "Z", grid_for(program, 2))])  # template
        grid = grid_for(program, 64, scale=0.5)
        calls: collections.Counter = collections.Counter()

        def counted(name, real):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return wrapper

        watched = [
            (PulseSchedule, "clone_with_items"),
            (PulseSchedule, "__init__"),
            (Executable, "specialize"),
            (ScheduleExecutor, "_is_clone"),
            (np.random, "default_rng"),
        ]
        for owner, name in watched:
            monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
        sizes = []
        real_batch = executor.execute_batch

        def spy(schedules, *args, **kwargs):
            sizes.append(len(schedules))
            return real_batch(schedules, *args, **kwargs)

        monkeypatch.setattr(executor, "execute_batch", spy)
        evs = estimator.run([(program, "Z", grid)])[0].data.evs
        assert evs.shape == (64,)
        assert sizes == [64]
        assert {name: calls[name] for _, name in watched} == {
            name: 0 for _, name in watched
        }

    def test_sampler_matches_run_counts(self, all_devices):
        for device in all_devices:
            target = repro.Target.from_device(device)
            program = repro.Program.from_mlir(parametric_kernel(device, 2))
            grid = grid_for(program, 3)
            bin_ = (
                Sampler(target, default_shots=64, seed=9)
                .run([(program, grid)])[0]
                .data
            )
            exe = repro.compile(program, target)
            for i in range(3):
                point = {k: float(v[i]) for k, v in grid.items()}
                r = exe.bind(point).run(shots=64, seed=9)
                assert bin_.counts[i] == r.counts
                for key, p in r.probabilities.items():
                    assert bin_.probabilities[i][key] == pytest.approx(
                        p, abs=1e-10
                    )

    def test_sampler_shots0_returns_exact_distribution(self, sc_device_1q):
        target = repro.Target.from_device(sc_device_1q)
        program = repro.Program.from_mlir(parametric_kernel(sc_device_1q, 1))
        bin_ = (
            Sampler(target, default_shots=0)
            .run([(program, {"theta0": [0.3]})])[0]
            .data
        )
        assert bin_.counts[0] == {}
        assert sum(bin_.quasi_dists[0].values()) == pytest.approx(1.0)


class TestNoisyEstimator:
    """Acceptance: noisy Estimator vs the exact Lindblad distribution."""

    def _noisy_device(self):
        return SuperconductingDevice(
            num_qubits=1,
            drift_rate=0.0,
            with_decoherence=True,
            t1=4e-6,
            t2=2.5e-6,
        )

    def test_matches_exact_lindblad_to_1e10(self):
        device = self._noisy_device()
        target = repro.Target.from_device(device)
        program = repro.Program.from_mlir(parametric_kernel(device, 2))
        grid = grid_for(program, 8)
        evs = Estimator(target).run([(program, "Z", grid)])[0].data.evs
        # Reference: the exact Lindblad engine, one point at a time.
        exe = repro.compile(program, target)
        for i in range(8):
            point = {k: float(v[i]) for k, v in grid.items()}
            result = device.executor.execute(exe.specialize(point), shots=0)
            exact = Observable.z(0).expectation(result.ideal_probabilities)
            assert abs(evs[i] - exact) < 1e-10

    def test_estimator_sees_decoherence(self):
        noisy = self._noisy_device()
        clean = SuperconductingDevice(num_qubits=1, drift_rate=0.0)
        program = repro.Program.from_mlir(parametric_kernel(noisy, 2))
        point = {"theta0": [0.4], "theta1": [-0.2]}
        ev_noisy = (
            Estimator(repro.Target.from_device(noisy))
            .run([(program, "Z", point)])[0]
            .data.evs[0]
        )
        ev_clean = (
            Estimator(repro.Target.from_device(clean))
            .run([(program, "Z", point)])[0]
            .data.evs[0]
        )
        assert abs(ev_noisy - ev_clean) > 1e-6


class TestBroadcastAndFields:
    def test_observable_axis_broadcast(self, sc_device_1q):
        target = repro.Target.from_device(sc_device_1q)
        program = repro.Program.from_mlir(parametric_kernel(sc_device_1q, 1))
        grid = {"theta0": np.linspace(0.0, 1.0, 4)}
        result = Estimator(target).run(
            [(program, [["Z"], [{"Z": 0.5, "I": 0.5}]], grid)]
        )
        evs = result[0].data.evs
        assert evs.shape == (2, 4)
        np.testing.assert_allclose(
            evs[1], 0.5 * evs[0] + 0.5, atol=1e-12
        )

    def test_stds_scale_with_shots(self, sc_device_1q):
        target = repro.Target.from_device(sc_device_1q)
        program = repro.Program.from_mlir(parametric_kernel(sc_device_1q, 1))
        grid = {"theta0": [0.7]}
        exact = Estimator(target).run([(program, "Z", grid)])[0].data
        assert exact.stds[0] == 0.0
        shot = Estimator(target, shots=100).run([(program, "Z", grid)])[0].data
        var = 1.0 - float(exact.evs[0]) ** 2
        assert shot.stds[0] == pytest.approx(np.sqrt(var / 100), rel=1e-9)

    def test_leakage_field_present_on_direct(self, sc_device_1q):
        target = repro.Target.from_device(sc_device_1q)
        program = repro.Program.from_mlir(parametric_kernel(sc_device_1q, 1))
        bin_ = (
            Estimator(target).run([(program, "Z", {"theta0": [0.5]})])[0].data
        )
        assert "leakage" in bin_
        assert bin_.leakage[0] >= 0.0

    def test_databin_unknown_field(self, sc_device_1q):
        bin_ = DataBin(shape=(), evs=np.zeros(()))
        assert "evs" in bin_ and bin_.fields == ("evs",)
        with pytest.raises(AttributeError):
            bin_.counts


# ---- dispatch paths ------------------------------------------------------------------


class TestDispatchPaths:
    def test_service_target_matches_direct(self, sc_device_1q):
        from repro.qdmi import QDMIDriver
        from repro.serving import PulseService

        direct_target = repro.Target.from_device(sc_device_1q)
        program = repro.Program.from_mlir(parametric_kernel(sc_device_1q, 2))
        grid = grid_for(program, 4)
        direct_evs = (
            Estimator(direct_target).run([(program, "Z", grid)])[0].data.evs
        )

        from repro.client import MQSSClient

        service_device = SuperconductingDevice(num_qubits=1, drift_rate=0.0)
        driver = QDMIDriver()
        driver.register_device(service_device)
        client = MQSSClient(driver, persistent_sessions=True)
        with PulseService(client) as service:
            target = repro.Target.from_service(service, service_device.name)
            estimator = Estimator(target)
            assert estimator.mode == "service"
            evs = estimator.run(
                [(program, "Z", grid)], timeout=60.0
            )[0].data.evs
        client.close()
        np.testing.assert_allclose(evs, direct_evs, atol=1e-10)

    def test_client_target_matches_direct(self, client, sc_device):
        program = repro.Program.from_mlir(parametric_kernel(sc_device, 2))
        grid = grid_for(program, 3)
        target = repro.Target.from_client(client, sc_device.name)
        estimator = Estimator(target)
        assert estimator.mode == "client"
        evs = estimator.run([(program, "Z", grid)])[0].data.evs
        direct = (
            Estimator(repro.Target.from_device(sc_device))
            .run([(program, "Z", grid)])[0]
            .data.evs
        )
        np.testing.assert_allclose(evs, direct, atol=1e-10)

    def test_non_diagonal_needs_direct_target(self, client, sc_device):
        program = repro.Program.from_mlir(parametric_kernel(sc_device, 1))
        target = repro.Target.from_client(client, sc_device.name)
        with pytest.raises(ValidationError, match="direct simulator"):
            Estimator(target).run([(program, "X", {"theta0": [0.1]})])

    def test_executor_mode_takes_schedules_only(self, sc_device_1q):
        estimator = Estimator.from_executor(sc_device_1q.executor)
        assert estimator.mode == "direct"
        program = repro.Program.from_mlir(parametric_kernel(sc_device_1q, 1))
        with pytest.raises(ValidationError, match="pulse-schedule"):
            estimator.run([(program, "Z", {"theta0": [0.1]})])


# ---- mitigation option ---------------------------------------------------------------


class TestSamplerMitigation:
    def _readout_device(self):
        from repro.sim.measurement import ReadoutModel

        device = SuperconductingDevice(num_qubits=1, drift_rate=0.0)
        device.executor.readout[0] = ReadoutModel(p01=0.05, p10=0.08)
        return device

    def test_mitigated_quasi_dists_improve(self):
        device = self._readout_device()
        program = repro.Program.from_mlir(parametric_kernel(device, 1))
        grid = {"theta0": [0.4]}
        plain = Sampler(
            repro.Target.from_device(device), default_shots=0
        ).run([(program, grid)])[0].data
        mitigated = Sampler(
            repro.Target.from_device(device),
            default_shots=0,
            options=SamplerOptions(mitigation=("readout",)),
        ).run([(program, grid)])[0].data
        exact = plain.probabilities[0]
        tv_raw = 0.5 * sum(
            abs(plain.quasi_dists[0].get(k, 0.0) - exact.get(k, 0.0))
            for k in set(plain.quasi_dists[0]) | set(exact)
        )
        tv_fixed = 0.5 * sum(
            abs(mitigated.quasi_dists[0].get(k, 0.0) - exact.get(k, 0.0))
            for k in set(mitigated.quasi_dists[0]) | set(exact)
        )
        assert tv_fixed < tv_raw
        assert mitigated.condition_numbers[0] >= 1.0

    def test_mitigation_needs_direct_target(self, client):
        with pytest.raises(ValidationError, match="direct simulator"):
            Sampler(
                repro.Target.from_client(client, "sc-transmon"),
                options=SamplerOptions(mitigation=("readout",)),
            )

    def test_validate_readout_mitigation_still_scores(self):
        from repro.qem.readout import validate_readout_mitigation
        from repro.qpi import qpi_to_schedule
        from repro.qpi.qpi import (
            QCircuit,
            qCircuitBegin,
            qCircuitEnd,
            qMeasure,
            qX,
        )

        device = self._readout_device()
        circuit = QCircuit()
        qCircuitBegin(circuit)
        qX(0)
        qMeasure(0, 0)
        qCircuitEnd()
        schedule = qpi_to_schedule(circuit, device)
        validation = validate_readout_mitigation(
            device.executor, schedule, shots=0
        )
        assert validation.improvement > 0
        assert validation.condition_number >= 1.0


# ---- consumer rewires ----------------------------------------------------------------


class TestVQEThroughEstimator:
    def test_gate_vqe_energies_match_energy(self, sc_device):
        from repro.control import GateVQE, h2_hamiltonian

        vqe = GateVQE(sc_device, h2_hamiltonian(), layers=1)
        rng = np.random.default_rng(2)
        points = rng.uniform(-np.pi, np.pi, (3, vqe.num_parameters))
        batched = vqe.energies(points)
        singles = np.array([vqe.energy(p) for p in points])
        np.testing.assert_allclose(batched, singles, atol=1e-10)

    def test_ctrl_vqe_energies_match_energy(self, sc_device):
        from repro.control import CtrlVQE, h2_hamiltonian

        cv = CtrlVQE(sc_device, h2_hamiltonian(), segments=2, segment_samples=8)
        rng = np.random.default_rng(3)
        points = rng.normal(scale=0.3, size=(3, cv.num_parameters))
        batched = cv.energies(points)
        singles = np.array([cv.energy(p) for p in points])
        np.testing.assert_allclose(batched, singles, atol=1e-10)


class TestSweepTicketExpectations:
    def test_expectations_and_z_curve(self, sc_device_1q):
        from repro.client import MQSSClient
        from repro.qdmi import QDMIDriver
        from repro.serving import PulseService, SweepRequest

        program = repro.Program.from_mlir(parametric_kernel(sc_device_1q, 1))
        exe = repro.compile(
            program, repro.Target.from_device(sc_device_1q)
        )
        schedules = [
            exe.specialize({"theta0": v}) for v in (0.1, 0.5, 1.0)
        ]
        device = SuperconductingDevice(num_qubits=1, drift_rate=0.0)
        driver = QDMIDriver()
        driver.register_device(device)
        client = MQSSClient(driver, persistent_sessions=True)
        with PulseService(client) as service:
            sweep = SweepRequest.from_programs(
                schedules, device.name, shots=0, seed=1
            )
            ticket = service.submit_sweep(sweep)
            z = ticket.expectations(Observable.z(0), timeout=30.0)
            ez = ticket.expectations("Z", timeout=30.0)
        client.close()
        np.testing.assert_array_equal(z, ez)
        assert len(z) == 3
        # The scan curve is the Estimator's <Z> on each point.
        direct = Estimator(sc_device_1q, shots=0).run(
            [(repro.Program.from_schedule(s), Observable.z(0)) for s in schedules]
        )
        np.testing.assert_allclose(z, [float(r.data.evs) for r in direct], atol=1e-12)


def test_a_held_primitive_runs_the_drifted_model():
    """A direct primitive reads the device's executor at each run: after
    a drift step a held Estimator equals a fresh one bitwise, and a
    held VQE's energy reads the drifted model."""
    from repro.control import CtrlVQE, GateVQE
    from repro.control.hamiltonians import h2_hamiltonian

    device = SuperconductingDevice(num_qubits=2, drift_rate=2e4, seed=5)
    sb = SequenceBuilder("drifting")
    drive = sb.add_mixed_frame_arg("f0", device.drive_port(0).name)
    acquire = sb.add_mixed_frame_arg("a0", device.acquire_port(0).name)
    theta = sb.add_scalar_arg("theta")
    sb.play(drive, sb.waveform(ParametricWaveform("square", 64, {"amp": 0.2})))
    sb.shift_phase(drive, theta)
    sb.play(drive, sb.waveform(ParametricWaveform("square", 64, {"amp": 0.2})))
    sb.barrier(drive, acquire)
    sb.capture(acquire, 0, 8)
    sb.ret()
    program = repro.Program.from_mlir(print_module(sb.module))
    pub = (program, "Z", {"theta": [0.3, 1.9]})
    held = Estimator(device)
    gate = GateVQE(device, h2_hamiltonian(), layers=1)
    ctrl = CtrlVQE(device, h2_hamiltonian(), segments=2, segment_samples=16)
    params = np.linspace(0.1, 1.0, gate.num_parameters)
    controls = np.linspace(-0.2, 0.2, ctrl.num_parameters)
    before = held.run([pub])[0].data.evs
    energies = gate.energy(params), ctrl.energy(controls)
    device.advance_time(600.0)
    after = held.run([pub])[0].data.evs
    assert after.tobytes() == Estimator(device).run([pub])[0].data.evs.tobytes()
    assert not np.allclose(after, before)
    drifted = (
        GateVQE(device, h2_hamiltonian(), layers=1).energy(params),
        CtrlVQE(device, h2_hamiltonian(), segments=2, segment_samples=16).energy(
            controls
        ),
    )
    assert (gate.energy(params), ctrl.energy(controls)) == drifted
    assert drifted != energies
