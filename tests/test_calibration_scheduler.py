"""Tests: CalibrationAwareScheduler drift-budget edge cases.

The drift budget is deterministic — predicted error after k jobs on a
device with drift rate r and per-job device time s is ``r * sqrt(k*s)``
— so these tests pin down exactly which job triggers calibration, that
the drift clock resets afterwards (including across drains), and that
remote proxies are unwrapped before drift bookkeeping.
"""

from __future__ import annotations

import pytest

from repro.client import JobRequest, MQSSClient, RemoteDeviceProxy
from repro.devices import CalibrationDatabaseDevice, SuperconductingDevice
from repro.qdmi import QDMIDriver
from repro.qpi import PythonicCircuit
from repro.runtime import CalibrationAwareScheduler
from repro.runtime.scheduler import ScheduledJob, SchedulerReport

RATE = 1e4  # Hz per sqrt(second)
JOB_S = 10.0


def x_program():
    return PythonicCircuit(2, 2).x(0).measure(0, 0).measure(1, 1)


def make_sched(device_name="drifty", *, budget_hz, calibrated=None, remote=False):
    driver = QDMIDriver()
    device = SuperconductingDevice(device_name, num_qubits=2, seed=3, drift_rate=RATE)
    if remote:
        device = RemoteDeviceProxy(device)
    driver.register_device(device)
    client = MQSSClient(driver)
    log = calibrated if calibrated is not None else []
    sched = CalibrationAwareScheduler(
        client,
        lambda name: log.append(name),
        error_budget_hz=budget_hz,
        job_seconds=JOB_S,
    )
    return sched, device, log


class TestDriftBudget:
    def test_fires_exactly_when_budget_crossed(self):
        # error(k jobs) = RATE*sqrt(k*10): 31.6k, 44.7k, 54.8k Hz...
        # A budget just under the 3-job error must fire on job 3 and
        # not before.
        budget = RATE * (3 * JOB_S) ** 0.5 - 1.0
        sched, _, log = make_sched(budget_hz=budget)
        for _ in range(2):
            sched.enqueue(JobRequest(x_program(), "drifty", shots=8, seed=1))
        assert sched.drain().calibrations == 0
        assert log == []
        sched.enqueue(JobRequest(x_program(), "drifty", shots=8, seed=1))
        assert sched.drain().calibrations == 1
        assert log == ["drifty"]

    def test_budget_boundary_is_inclusive(self):
        # Predicted error exactly equal to the budget triggers (>=).
        budget = RATE * JOB_S**0.5
        sched, _, log = make_sched(budget_hz=budget)
        sched.enqueue(JobRequest(x_program(), "drifty", shots=8, seed=1))
        assert sched.drain().calibrations == 1

    def test_drift_clock_resets_after_calibration(self):
        budget = RATE * (3 * JOB_S) ** 0.5 - 1.0
        sched, _, log = make_sched(budget_hz=budget)
        # 7 jobs: calibrations fire on jobs 3 and 6, then the clock
        # holds 10 s — the cadence proves the reset (without it the
        # predicted error would stay above budget from job 3 on).
        for _ in range(7):
            sched.enqueue(JobRequest(x_program(), "drifty", shots=8, seed=1))
        report = sched.drain()
        assert report.completed == 7
        assert report.calibrations == 2
        assert sched.trigger.clock["drifty"] == pytest.approx(JOB_S)

    def test_clock_persists_across_drains(self):
        budget = RATE * (2 * JOB_S) ** 0.5 - 1.0
        sched, _, log = make_sched(budget_hz=budget)
        sched.enqueue(JobRequest(x_program(), "drifty", shots=8, seed=1))
        assert sched.drain().calibrations == 0
        # The 10 s accumulated in the first drain still count.
        sched.enqueue(JobRequest(x_program(), "drifty", shots=8, seed=1))
        assert sched.drain().calibrations == 1

    def test_remote_proxy_is_unwrapped_for_drift_tracking(self):
        budget = RATE * (2 * JOB_S) ** 0.5 - 1.0
        sched, proxy, log = make_sched(budget_hz=budget, remote=True)
        name = proxy.name  # "remote:drifty"
        inner_elapsed = proxy.inner.elapsed_seconds
        for _ in range(2):
            sched.enqueue(JobRequest(x_program(), name, shots=8, seed=1))
        report = sched.drain()
        assert report.completed == 2
        assert report.calibrations == 1
        # The callback gets the routable (proxy) name; device time
        # advanced on the unwrapped inner device.
        assert log == [name]
        assert proxy.inner.elapsed_seconds == inner_elapsed + 2 * JOB_S

    def test_devices_without_drift_clock_are_skipped(self):
        # Query-only QDMI devices (no advance_time) must pass through
        # the hook untouched instead of raising.
        driver = QDMIDriver()
        driver.register_device(CalibrationDatabaseDevice())
        client = MQSSClient(driver)
        sched = CalibrationAwareScheduler(
            client, lambda name: None, error_budget_hz=1.0
        )
        job = ScheduledJob(request=JobRequest(None, "calibration-db"))
        report = SchedulerReport()
        sched._before_dispatch(job, report)
        assert report.calibrations == 0
        assert sched.trigger.clock == {}
