"""Device tests: calibration sets, gate physics on all three platforms,
drift, job execution paths."""

import numpy as np
import pytest

from repro.core import Play, PulseSchedule, constant_waveform
from repro.devices import (
    CalibrationEntry,
    CalibrationSet,
    NeutralAtomDevice,
    SuperconductingDevice,
    TrappedIonDevice,
)
from repro.errors import LoweringError, ValidationError
from repro.qdmi import JobStatus, ProgramFormat, QDMIJob
from repro.sim.operators import basis_state


def run_gate_sequence(device, gates, shots=0, seed=0):
    """Lower a list of (name, sites, params) through the calibrations."""
    sched = PulseSchedule("seq")
    for name, sites, params in gates:
        device.calibrations.get(name, tuple(sites)).apply(sched, params)
    return device.executor.execute(sched, shots=shots, seed=seed)


ALL_PLATFORMS = [
    lambda: SuperconductingDevice(num_qubits=2, drift_rate=0.0),
    lambda: TrappedIonDevice(num_qubits=2, drift_rate=0.0),
    lambda: NeutralAtomDevice(num_qubits=2, drift_rate=0.0),
]


class TestCalibrationSet:
    def test_add_get(self):
        cal = CalibrationSet()
        entry = CalibrationEntry("g", (0,), lambda s, p: None, 8)
        cal.add(entry)
        assert cal.get("g", (0,)) is entry
        assert cal.has("g", (0,))
        assert not cal.has("g", (1,))

    def test_missing_raises_lowering_error(self):
        with pytest.raises(LoweringError):
            CalibrationSet().get("x", (0,))

    def test_no_silent_overwrite(self):
        cal = CalibrationSet()
        cal.add(CalibrationEntry("g", (0,), lambda s, p: None, 8))
        with pytest.raises(ValidationError):
            cal.add(CalibrationEntry("g", (0,), lambda s, p: None, 16))
        cal.add(CalibrationEntry("g", (0,), lambda s, p: None, 16), overwrite=True)
        assert cal.get("g", (0,)).duration == 16

    def test_param_count_enforced(self):
        cal = CalibrationSet()
        cal.add(
            CalibrationEntry(
                "rz", (0,), lambda s, p: None, 0, num_params=1, is_virtual=True
            )
        )
        with pytest.raises(LoweringError):
            cal.get("rz", (0,)).apply(PulseSchedule(), [])

    def test_virtual_must_be_zero_duration(self):
        with pytest.raises(ValidationError):
            CalibrationEntry("rz", (0,), lambda s, p: None, 8, is_virtual=True)

    def test_operations_inventory(self, sc_device):
        ops = sc_device.calibrations.operations()
        assert ops == ["cz", "measure", "rz", "sx", "x"]
        assert sc_device.calibrations.get("cz", (0, 1)) is not None

    def test_register_custom_gate(self, sc_device):
        port = sc_device.drive_port(0)
        frame = sc_device.default_frame(port)
        wf = constant_waveform(16, 0.2)
        sc_device.calibrations.register_custom_gate(
            "my_gate", (0,), port, frame, wf
        )
        sched = PulseSchedule()
        sc_device.calibrations.get("my_gate", (0,)).apply(sched, [])
        assert sched.duration == 16


@pytest.mark.parametrize("factory", ALL_PLATFORMS, ids=["sc", "ion", "atom"])
class TestPlatformGatePhysics:
    def test_x_flips(self, factory):
        dev = factory()
        r = run_gate_sequence(dev, [("x", (0,), [])])
        probs = np.abs(r.final_state) ** 2
        dims = dev.model.dims
        idx = np.argmax(probs)
        assert idx == np.argmax(np.abs(basis_state([1, 0], dims)) ** 2)
        assert probs[idx] > 0.99

    def test_two_sx_equal_x(self, factory):
        dev = factory()
        r = run_gate_sequence(dev, [("sx", (0,), []), ("sx", (0,), [])])
        dims = dev.model.dims
        target = basis_state([1, 0], dims)
        assert abs(np.vdot(target, r.final_state)) ** 2 > 0.99

    def test_cz_phase(self, factory):
        dev = factory()
        sched = PulseSchedule()
        dev.calibrations.get("cz", (0, 1)).apply(sched, [])
        u = dev.executor.unitary(sched)
        dims = dev.model.dims
        v00, v11 = basis_state([0, 0], dims), basis_state([1, 1], dims)
        v01 = basis_state([0, 1], dims)
        ph00 = np.vdot(v00, u @ v00)
        ph01 = np.vdot(v01, u @ v01)
        ph11 = np.vdot(v11, u @ v11)
        assert abs(ph00) == pytest.approx(1.0, abs=1e-6)
        # |11> picks up a pi phase relative to the others.
        rel = ph11 / ph00
        assert np.real(rel) == pytest.approx(-1.0, abs=1e-3)
        assert np.real(ph01 / ph00) == pytest.approx(1.0, abs=1e-3)

    def test_rz_is_virtual(self, factory):
        dev = factory()
        sched = PulseSchedule()
        dev.calibrations.get("rz", (0,)).apply(sched, [0.7])
        assert sched.duration == 0

    def test_rz_sandwich(self, factory):
        """sx rz(pi) sx == identity up to phase (echo identity)."""
        dev = factory()
        r = run_gate_sequence(
            dev,
            [("sx", (0,), []), ("rz", (0,), [np.pi]), ("sx", (0,), [])],
        )
        dims = dev.model.dims
        v0 = basis_state([0, 0], dims)
        assert abs(np.vdot(v0, r.final_state)) ** 2 > 0.99

    def test_measure_bits(self, factory):
        dev = factory()
        r = run_gate_sequence(
            dev,
            [("x", (0,), []), ("measure", (0,), [0]), ("measure", (1,), [1])],
        )
        best = max(r.ideal_probabilities, key=r.ideal_probabilities.get)
        assert best == "10"

    def test_full_job_path(self, factory):
        dev = factory()
        sched = PulseSchedule()
        dev.calibrations.get("x", (0,)).apply(sched, [])
        dev.calibrations.get("measure", (0,)).apply(sched, [0])
        job = QDMIJob(dev.name, ProgramFormat.PULSE_SCHEDULE, sched, shots=200)
        dev.submit_job(job)
        assert job.status is JobStatus.DONE
        counts = job.result.counts
        assert sum(counts.values()) == 200
        assert counts.get("1", 0) > 150

    def test_constraints_enforced_at_submission(self, factory):
        dev = factory()
        sched = PulseSchedule()
        port = dev.drive_port(0)
        # Amplitude 2.0 is out of range everywhere.
        g = dev.config.constraints.granularity
        sched.append(
            Play(port, dev.default_frame(port), constant_waveform(4 * g, 2.0))
        )
        job = QDMIJob(dev.name, ProgramFormat.PULSE_SCHEDULE, sched, shots=10)
        dev.submit_job(job)
        assert job.status is JobStatus.FAILED
        assert "amplitude" in (job.error or "")

    def test_unsupported_format_fails_job(self, factory):
        dev = factory()
        job = QDMIJob(dev.name, ProgramFormat.QASM3, "OPENQASM 3;", shots=1)
        dev.submit_job(job)
        assert job.status is JobStatus.FAILED


class TestPlatformDiversity:
    def test_constraints_differ(self, all_devices):
        dts = {d.config.constraints.dt for d in all_devices}
        grans = {d.config.constraints.granularity for d in all_devices}
        assert len(dts) == 3
        assert len(grans) == 3

    def test_gate_durations_ordered(self, sc_device, ion_device, atom_device):
        """SC gates are ns-scale, atoms us-scale, ions slowest."""
        def x_seconds(dev):
            entry = dev.calibrations.get("x", (0,))
            return entry.duration * dev.config.constraints.dt

        assert x_seconds(sc_device) < x_seconds(atom_device) < x_seconds(ion_device)

    def test_ion_rejects_raw_samples(self, ion_device):
        assert not ion_device.config.constraints.supports_raw_samples

    def test_ion_all_to_all_connectivity(self):
        dev = TrappedIonDevice(num_qubits=3)
        cal = dev.calibrations
        assert cal.has("cz", (0, 1)) and cal.has("cz", (0, 2)) and cal.has("cz", (1, 2))

    def test_atom_line_connectivity(self):
        dev = NeutralAtomDevice(num_qubits=3)
        cal = dev.calibrations
        assert cal.has("cz", (0, 1)) and cal.has("cz", (1, 2))
        assert not cal.has("cz", (0, 2))


class TestDrift:
    def test_no_drift_when_rate_zero(self, sc_device):
        sc_device.advance_time(3600)
        assert sc_device.tracking_error(0) == 0.0

    def test_drift_moves_true_frequency(self):
        dev = SuperconductingDevice(num_qubits=1, seed=3, drift_rate=1e4)
        f0 = dev.true_frequency(0)
        dev.advance_time(600)
        assert dev.true_frequency(0) != f0
        assert dev.believed_frequency(0) == f0  # published frame lags

    def test_drift_scales_with_rate(self):
        errs = []
        for rate in (1e2, 1e4):
            total = 0.0
            for seed in range(8):
                dev = SuperconductingDevice(num_qubits=1, seed=seed, drift_rate=rate)
                dev.advance_time(600)
                total += dev.tracking_error(0)
            errs.append(total / 8)
        assert errs[1] > 10 * errs[0]

    def test_set_frame_frequency_clears_error(self):
        dev = SuperconductingDevice(num_qubits=1, seed=3, drift_rate=1e4)
        dev.advance_time(600)
        dev.set_frame_frequency(0, dev.true_frequency(0))
        assert dev.tracking_error(0) == pytest.approx(0.0)

    def test_drift_detunes_gates(self):
        """An uncalibrated device plays detuned pulses: X fidelity drops."""
        dev = SuperconductingDevice(num_qubits=1, seed=1, drift_rate=2e6)
        dev.advance_time(3600)
        assert dev.tracking_error(0) > 5e6  # tens of MHz off
        r = run_gate_sequence(dev, [("x", (0,), [])])
        dims = dev.model.dims
        p1 = abs(np.vdot(basis_state([1], dims), r.final_state)) ** 2
        assert p1 < 0.9

    def test_negative_time_rejected(self, sc_device):
        with pytest.raises(Exception):
            sc_device.advance_time(-1)

    def test_elapsed_accumulates(self, sc_device):
        sc_device.advance_time(10)
        sc_device.advance_time(5)
        assert sc_device.elapsed_seconds == 15
