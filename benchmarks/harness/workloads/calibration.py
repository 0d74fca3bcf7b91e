"""A closed-loop calibration DAG on a drifting transmon."""

from __future__ import annotations

import tempfile
from dataclasses import dataclass
from typing import Any

from benchmarks.harness.workloads.base import (
    Verification,
    Workload,
    load_golden,
    op_rng,
)

#: Simulated seconds the device drifts before each op.
STEP_S = 60.0
#: Frequency random walk, Hz per sqrt(s): ~155 kHz per step.
DRIFT_RATE = 2e4
#: A write-back must leave the believed frequency this close to the
#: truth (the Ramsey estimator's floor is a few hundred Hz).
TRACKING_TOLERANCE_HZ = 5e3
PROBE_SEED = 17
PROBE_OPS = 3


@dataclass
class CalibrationState:
    device: Any
    client: Any
    service: Any
    store: Any
    runner: Any
    work_dir: str
    last_error_hz: float = 0.0


def _dag():
    from repro.pipeline import full_calibration_dag

    return full_calibration_dag(include_drag=False)


def _device(seed: int):
    from repro.devices import SuperconductingDevice

    return SuperconductingDevice(
        "cal-sc", num_qubits=1, seed=seed, drift_rate=DRIFT_RATE
    )


class CalibrationDag(Workload):
    name = "calibration_dag"

    def setup(self, seed: int, work_dir: str) -> CalibrationState:
        state = self._start(_device(seed), work_dir)
        try:
            for k in range(2):
                self.op(state, self.prepare(state, seed, k))
        except BaseException:
            self.teardown(state)
            raise
        return state

    @staticmethod
    def _start(device, work_dir: str) -> CalibrationState:
        from repro.client import MQSSClient
        from repro.pipeline import PipelineRunner, PipelineStore
        from repro.qdmi import QDMIDriver
        from repro.serving import PulseService

        driver = QDMIDriver()
        driver.register_device(device)
        client = MQSSClient(driver, persistent_sessions=True)
        service = PulseService(client)
        store_dir = tempfile.mkdtemp(prefix="runs-", dir=work_dir)
        store = PipelineStore(f"{store_dir}/runs.sqlite3")
        runner = PipelineRunner(
            service, store=store, device_name=device.name, device=device
        )
        return CalibrationState(device, client, service, store, runner, work_dir)

    def teardown(self, state: CalibrationState) -> None:
        state.service.stop()
        state.client.close()
        state.store.close()

    def prepare(self, state, seed, index):
        state.device.advance_time(STEP_S)
        return int(op_rng(seed, index).integers(2**31))

    def op(self, state, run_seed):
        return state.runner.run(_dag(), seed=run_seed)

    def check(self, state, run_seed, run) -> bool:
        if not run.ok:
            return False
        state.last_error_hz = max(run.result("verify")["tracking_error_hz"])
        return state.last_error_hz <= TRACKING_TOLERANCE_HZ

    def verify(self, state, window) -> Verification:
        out = Verification(values={"tracking_err_hz": state.last_error_hz})
        golden = load_golden(self.name)
        probe = self._start(_device(golden["seed"]), state.work_dir)
        try:
            for k, truth in enumerate(golden["truth_hz"]):
                run = self.op(probe, self.prepare(probe, golden["seed"], k))
                device = probe.device
                # The drift walk must be the one the golden file records ...
                out.compare(device.true_frequency(0) / truth, 1.0)
                # ... and the write-back must land on it.
                out.compare(
                    device.believed_frequency(0) if run.ok else 0.0,
                    truth,
                    TRACKING_TOLERANCE_HZ,
                )
        finally:
            self.teardown(probe)
        return out

    def reference(self) -> dict:
        device = _device(PROBE_SEED)
        truth = []
        for _ in range(PROBE_OPS):
            device.advance_time(STEP_S)
            truth.append(device.true_frequency(0))
        return {"seed": PROBE_SEED, "truth_hz": truth}
