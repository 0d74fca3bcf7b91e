"""Tests: calibration routines (paper §2.1 automated calibration)."""

import numpy as np
import pytest

from repro.calibration import (
    calibrate_drag,
    calibrate_pi_amplitude,
    estimate_detuning,
    run_drift_campaign,
    track_frequency,
)
from repro.devices import SuperconductingDevice, TrappedIonDevice
from repro.errors import CalibrationError
from repro.qem import measure_confusion


class TestRabi:
    def test_recovers_rabi_rate(self, sc_device_1q):
        r = calibrate_pi_amplitude(sc_device_1q, 0, shots=1024, seed=1)
        assert r.implied_rabi_rate_hz == pytest.approx(50e6, rel=0.05)
        assert r.pi_amplitude == pytest.approx(0.25, rel=0.05)

    def test_shotless_is_exact(self, sc_device_1q):
        r = calibrate_pi_amplitude(sc_device_1q, 0, shots=0)
        assert r.implied_rabi_rate_hz == pytest.approx(50e6, rel=0.01)

    def test_duration_granularity_enforced(self, sc_device_1q):
        with pytest.raises(CalibrationError):
            calibrate_pi_amplitude(sc_device_1q, 0, duration=13)

    def test_populations_oscillate(self, sc_device_1q):
        r = calibrate_pi_amplitude(sc_device_1q, 0, shots=0)
        assert r.populations.min() < 0.2
        assert r.populations.max() > 0.8

    def test_works_on_ion_platform(self):
        dev = TrappedIonDevice(num_qubits=1, drift_rate=0.0)
        r = calibrate_pi_amplitude(dev, 0, duration=512, shots=0)
        assert r.implied_rabi_rate_hz == pytest.approx(125e3, rel=0.05)


class TestRamsey:
    def test_zero_detuning_when_calibrated(self, sc_device_1q):
        r = estimate_detuning(sc_device_1q, 0, shots=0, seed=1)
        assert abs(r.detuning_hz) < 30e3  # resolution floor

    def test_detects_induced_detuning(self):
        dev = SuperconductingDevice(num_qubits=1, drift_rate=0.0)
        # Manually mis-calibrate by 300 kHz.
        dev.set_frame_frequency(0, dev.true_frequency(0) + 300e3)
        r = estimate_detuning(dev, 0, shots=0)
        assert r.detuning_hz == pytest.approx(300e3, rel=0.15)
        assert r.estimated_frequency_hz == pytest.approx(
            dev.true_frequency(0), abs=50e3
        )

    def test_sign_resolved(self):
        dev = SuperconductingDevice(num_qubits=1, drift_rate=0.0)
        dev.set_frame_frequency(0, dev.true_frequency(0) - 300e3)
        r = estimate_detuning(dev, 0, shots=0)
        assert r.detuning_hz == pytest.approx(-300e3, rel=0.15)

    def test_track_frequency_reduces_error(self):
        dev = SuperconductingDevice(num_qubits=1, seed=4, drift_rate=5e3)
        dev.advance_time(3600)
        before = dev.tracking_error(0)
        track_frequency(dev, 0, rounds=2, shots=0, seed=3)
        after = dev.tracking_error(0)
        assert after < max(before / 3, 20e3)

    def test_tracking_restores_clock_sequence_population(self):
        """Free-evolution phase errors accumulate: sx - 1 us - sx ends in
        |1> only when the frame tracks the drifted qubit."""
        from repro.core import Delay, PulseSchedule
        from repro.sim.operators import basis_state

        dev = SuperconductingDevice(num_qubits=1, seed=2, drift_rate=5e3)
        dev.advance_time(3600)  # a few hundred kHz of drift

        def p1_clock():
            s = PulseSchedule()
            dev.calibrations.get("sx", (0,)).apply(s, [])
            s.append(Delay(dev.drive_port(0), 1000))
            dev.calibrations.get("sx", (0,)).apply(s, [])
            r = dev.executor.execute(s, shots=0)
            one = basis_state([1], dev.model.dims)
            return abs(np.vdot(one, r.final_state)) ** 2

        before = p1_clock()
        track_frequency(dev, 0, rounds=2, shots=0, seed=2)
        after = p1_clock()
        assert after > before
        assert after > 0.99

    def test_track_without_write_back(self):
        dev = SuperconductingDevice(num_qubits=1, drift_rate=0.0)
        dev.set_frame_frequency(0, dev.true_frequency(0) + 200e3)
        before = dev.tracking_error(0)
        track_frequency(dev, 0, rounds=1, shots=0, write_back=False)
        assert dev.tracking_error(0) == before


class TestDrag:
    def test_finds_leakage_minimum(self):
        dev = SuperconductingDevice(num_qubits=1, drift_rate=0.0)
        r = calibrate_drag(dev, 0, write_back=False)
        mid = len(r.betas) // 2
        assert r.best_leakage <= r.leakage[mid]  # beats beta=0
        assert r.betas[0] <= r.best_beta <= r.betas[-1]

    def test_write_back_updates_calibration(self):
        dev = SuperconductingDevice(num_qubits=1, drift_rate=0.0)
        r = calibrate_drag(dev, 0, write_back=True)
        assert r.written_back
        assert dev._drag_beta == pytest.approx(r.best_beta)
        # The new X calibration carries the beta.
        wf = dev.x_waveform()
        assert wf.parameters["beta"] == pytest.approx(r.best_beta)

    def test_rejects_two_level_device(self):
        dev = TrappedIonDevice(num_qubits=1)
        with pytest.raises(CalibrationError):
            calibrate_drag(dev, 0)

    def test_calibrated_beta_reduces_leakage_in_use(self):
        dev = SuperconductingDevice(num_qubits=1, drift_rate=0.0)
        from repro.core import PulseSchedule

        def x_leak():
            s = PulseSchedule()
            for _ in range(4):
                dev.calibrations.get("x", (0,)).apply(s, [])
            return dev.executor.execute(s, shots=0).leakage[0]

        before = x_leak()
        calibrate_drag(dev, 0, write_back=True)
        after = x_leak()
        assert after <= before


class TestReadout:
    def test_confusion_estimates_converge(self, sc_device_1q):
        cal = measure_confusion(sc_device_1q, 0, shots=8192, seed=2)
        assert cal.p01 == pytest.approx(0.01, abs=0.01)
        assert cal.p10 == pytest.approx(0.02, abs=0.012)
        m = cal.confusion_matrix()
        assert np.allclose(m.sum(axis=0), 1.0)


class TestCampaign:
    def test_tracked_beats_untracked(self):
        """E9's shape: untracked drift grows, tracking bounds it."""
        tracked_dev = SuperconductingDevice(num_qubits=1, seed=9, drift_rate=2e4)
        untracked_dev = SuperconductingDevice(num_qubits=1, seed=9, drift_rate=2e4)
        kwargs = dict(duration_s=480, step_s=60, shots=0, seed=0)
        tracked = run_drift_campaign(
            tracked_dev, tracked=True, calibration_interval_s=60, **kwargs
        )
        untracked = run_drift_campaign(untracked_dev, tracked=False, **kwargs)
        # Identical seeds -> identical drift paths; only tracking differs.
        assert tracked.calibrations_performed > 0
        assert untracked.calibrations_performed == 0
        assert tracked.final_mean_error_hz < untracked.final_mean_error_hz

    def test_tracked_error_stays_near_the_estimator_floor(self):
        """The closed-loop bound: tracked error stays under 2 kHz while
        the untracked twin drifts more than 10x further."""
        kwargs = dict(duration_s=360, step_s=60, shots=0, seed=1)
        tracked = run_drift_campaign(
            SuperconductingDevice(num_qubits=1, seed=17, drift_rate=2e4),
            tracked=True,
            calibration_interval_s=120,
            **kwargs,
        )
        untracked = run_drift_campaign(
            SuperconductingDevice(num_qubits=1, seed=17, drift_rate=2e4),
            tracked=False,
            **kwargs,
        )
        assert tracked.final_mean_error_hz < 2e3
        assert tracked.max_mean_error_hz < untracked.max_mean_error_hz
        assert untracked.final_mean_error_hz > 10 * tracked.final_mean_error_hz

    def test_campaign_shapes(self):
        dev = SuperconductingDevice(num_qubits=2, seed=1, drift_rate=1e4)
        res = run_drift_campaign(
            dev, duration_s=180, step_s=60, tracked=False, shots=0
        )
        assert res.times_s.shape == (4,)
        assert res.tracking_error_hz.shape == (4, 2)
        assert res.max_mean_error_hz >= res.tracking_error_hz.mean(axis=1)[0]
