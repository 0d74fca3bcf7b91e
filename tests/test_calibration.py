"""Tests: calibration experiments (paper §2.1 automated calibration).

Every experiment runs as a pipeline DAG: a scan task measures through
the primitives, a fit task calls the pure fit of
:mod:`repro.calibration`, and an optional ``writeback`` task commits
the result into the device.
"""

import numpy as np
import pytest

from repro.calibration import fit_pi_amplitude, run_drift_campaign
from repro.devices import SuperconductingDevice, TrappedIonDevice
from repro.pipeline import DAG, PipelineRunner, frequency_tracking_dag
from repro.sim.measurement import ReadoutModel


def run_experiment(device, scan, params, fit=None, *, writeback=False, seed=0):
    """Run a scan -> fit (-> writeback) DAG on site 0 of *device*."""
    dag = DAG(scan)
    dag.task("scan", scan, {"sites": [0], **params})
    last = "scan"
    if fit is not None:
        dag.task("fit", fit, after=("scan",))
        last = "fit"
    if writeback:
        dag.task("writeback", "writeback", after=(last,))
    return PipelineRunner(device).run(dag, seed=seed)


def rabi_rate(run) -> float:
    return run.result("fit")["implied_rabi_rate_hz"]["0"]


class TestRabi:
    def test_recovers_rabi_rate(self, sc_device_1q):
        """Binomially resampled populations (1024 shots) still fit."""
        run = run_experiment(sc_device_1q, "rabi_scan", {"shots": 0})
        assert run.ok, run.error
        scan = run.result("scan")
        exact = np.asarray(scan["populations"]["0"])
        rng = np.random.default_rng(1)
        sampled = rng.binomial(1024, exact) / 1024
        amp_pi, _ = fit_pi_amplitude(scan["amplitudes"], sampled)
        implied = 0.5 / (amp_pi * scan["duration_samples"] * scan["dt"])
        assert implied == pytest.approx(50e6, rel=0.05)
        assert amp_pi == pytest.approx(0.25, rel=0.05)

    def test_shotless_is_exact(self, sc_device_1q):
        run = run_experiment(sc_device_1q, "rabi_scan", {"shots": 0}, "rabi_fit")
        assert run.ok, run.error
        assert rabi_rate(run) == pytest.approx(50e6, rel=0.01)

    def test_duration_granularity_enforced(self, sc_device_1q):
        run = run_experiment(sc_device_1q, "rabi_scan", {"duration": 13})
        assert not run.ok
        assert "CalibrationError" in run.error
        assert "granularity" in run.error

    def test_populations_oscillate(self, sc_device_1q):
        run = run_experiment(sc_device_1q, "rabi_scan", {"shots": 0})
        populations = np.asarray(run.result("scan")["populations"]["0"])
        assert populations.min() < 0.2
        assert populations.max() > 0.8

    def test_works_on_ion_platform(self):
        dev = TrappedIonDevice(num_qubits=1, drift_rate=0.0)
        run = run_experiment(
            dev, "rabi_scan", {"duration": 512, "shots": 0}, "rabi_fit"
        )
        assert run.ok, run.error
        assert rabi_rate(run) == pytest.approx(125e3, rel=0.05)


class TestRamsey:
    # The longest delay of a single Ramsey estimate at full resolution.
    SCAN = {"shots": 0, "max_delay_samples": 2048}

    def test_zero_detuning_when_calibrated(self, sc_device_1q):
        run = run_experiment(sc_device_1q, "ramsey_scan", self.SCAN, "ramsey_fit")
        assert run.ok, run.error
        assert abs(run.result("fit")["detuning_hz"]["0"]) < 30e3  # resolution floor

    def test_detects_induced_detuning(self):
        dev = SuperconductingDevice(num_qubits=1, drift_rate=0.0)
        # Manually mis-calibrate by 300 kHz.
        dev.set_frame_frequency(0, dev.true_frequency(0) + 300e3)
        fit = run_experiment(dev, "ramsey_scan", self.SCAN, "ramsey_fit").result(
            "fit"
        )
        assert fit["detuning_hz"]["0"] == pytest.approx(300e3, rel=0.15)
        assert fit["estimated_frequency_hz"]["0"] == pytest.approx(
            dev.true_frequency(0), abs=50e3
        )

    def test_sign_resolved(self):
        dev = SuperconductingDevice(num_qubits=1, drift_rate=0.0)
        dev.set_frame_frequency(0, dev.true_frequency(0) - 300e3)
        fit = run_experiment(dev, "ramsey_scan", self.SCAN, "ramsey_fit").result(
            "fit"
        )
        assert fit["detuning_hz"]["0"] == pytest.approx(-300e3, rel=0.15)

    def test_track_frequency_reduces_error(self):
        dev = SuperconductingDevice(num_qubits=1, seed=4, drift_rate=5e3)
        dev.advance_time(3600)
        before = dev.tracking_error(0)
        run = PipelineRunner(dev).run(frequency_tracking_dag(rounds=2), seed=3)
        assert run.ok, run.error
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
        run = PipelineRunner(dev).run(frequency_tracking_dag(rounds=2), seed=2)
        assert run.ok, run.error
        after = p1_clock()
        assert after > before
        assert after > 0.99

    def test_track_without_write_back(self):
        dev = SuperconductingDevice(num_qubits=1, drift_rate=0.0)
        dev.set_frame_frequency(0, dev.true_frequency(0) + 200e3)
        before = dev.tracking_error(0)
        run = run_experiment(dev, "ramsey_scan", {"shots": 0}, "ramsey_fit")
        assert run.ok, run.error
        assert dev.tracking_error(0) == before


class TestDrag:
    def test_finds_leakage_minimum(self):
        dev = SuperconductingDevice(num_qubits=1, drift_rate=0.0)
        run = run_experiment(dev, "drag_scan", {}, "drag_fit")
        assert run.ok, run.error
        betas = run.result("scan")["betas"]
        leakage = run.result("scan")["leakage"]["0"]
        fit = run.result("fit")
        mid = len(betas) // 2
        assert fit["coarse_min_leakage"] <= leakage[mid]  # beats beta=0
        assert betas[0] <= fit["drag_beta"] <= betas[-1]

    def test_write_back_updates_calibration(self):
        dev = SuperconductingDevice(num_qubits=1, drift_rate=0.0)
        run = run_experiment(dev, "drag_scan", {}, "drag_fit", writeback=True)
        assert run.ok, run.error
        best = run.result("fit")["drag_beta"]
        assert run.result("writeback")["drag_beta"] == pytest.approx(best)
        assert dev._drag_beta == pytest.approx(best)
        # The new X calibration carries the beta.
        wf = dev.x_waveform()
        assert wf.parameters["beta"] == pytest.approx(best)

    def test_rejects_two_level_device(self):
        dev = TrappedIonDevice(num_qubits=1)
        run = run_experiment(dev, "drag_scan", {}, "drag_fit")
        assert not run.ok
        assert "CalibrationError" in run.error

    def test_calibrated_beta_reduces_leakage_in_use(self):
        dev = SuperconductingDevice(num_qubits=1, drift_rate=0.0)
        from repro.core import PulseSchedule

        def x_leak():
            s = PulseSchedule()
            for _ in range(4):
                dev.calibrations.get("x", (0,)).apply(s, [])
            return dev.executor.execute(s, shots=0).leakage[0]

        before = x_leak()
        run = run_experiment(dev, "drag_scan", {}, "drag_fit", writeback=True)
        assert run.ok, run.error
        after = x_leak()
        assert after <= before


class TestReadout:
    def test_confusion_estimates_converge(self, sc_device_1q):
        run = run_experiment(sc_device_1q, "readout_scan", {"shots": 8192}, seed=2)
        assert run.ok, run.error
        cal = run.result("scan")["confusion"]["0"]
        assert cal["p01"] == pytest.approx(0.01, abs=0.01)
        assert cal["p10"] == pytest.approx(0.02, abs=0.012)
        m = ReadoutModel(p01=cal["p01"], p10=cal["p10"]).confusion_matrix()
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
