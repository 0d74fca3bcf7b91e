"""Automated calibration campaign as a pipeline DAG — paper §2.1.

Runs the full calibration suite on a drifting transmon device, now
expressed as the closed-loop pipeline workload of ``repro.pipeline``:

1. a full bring-up DAG (Rabi amplitude, DRAG beta, readout confusion,
   Ramsey frequency — experiment tasks batched per scan, fit tasks
   pure, one atomic write-back, a verify gate),
2. a drift-tracking campaign comparing Ramsey-tracked vs. untracked
   frequency error over simulated wall-clock time, resumable from its
   durable run store — the closed loop that motivates pulse-level
   access for HPC centers. Each tracked Ramsey scan reports how many
   schedule templates it traced: the scan program names its
   calibrated frame, so only the first scan traces one and every later
   scan rebinds it after the write-back (the script exits 1 otherwise).

Run:  python examples/calibration_campaign.py
"""

import os
import sys
import tempfile

from repro.calibration import run_drift_campaign
from repro.devices import SuperconductingDevice
from repro.obs import trace
from repro.pipeline import PipelineRunner, PipelineStore, full_calibration_dag


def main() -> int:
    device = SuperconductingDevice(num_qubits=1, seed=3)

    print("== full calibration DAG (Rabi + DRAG + readout + Ramsey) ==")
    runner = PipelineRunner(device)
    run = runner.run(full_calibration_dag(readout_shots=4096), seed=1)
    order = " -> ".join(run.executed)
    print(f"tasks            : {order}")
    rabi = run.result("rabi-fit")
    print(f"pi amplitude     : {rabi['pi_amplitude']['0']:.4f}")
    print(
        f"implied Rabi rate: {rabi['implied_rabi_rate_hz']['0']/1e6:.2f} MHz "
        "(device: 50 MHz)"
    )
    drag = run.result("drag-fit")
    print(f"best DRAG beta   : {drag['drag_beta']:+.3f}")
    readout = run.result("readout-scan")["confusion"]["0"]
    print(f"P(1|0) = {readout['p01']:.4f}   P(0|1) = {readout['p10']:.4f}")
    verify = run.result("verify")
    print(
        f"verified         : tracking error "
        f"{verify['tracking_error_hz'][0]:.1f} Hz, "
        f"calibration epoch {device.calibration_epoch}\n"
    )

    print("== drift tracking campaign (10 simulated minutes) ==")
    kwargs = dict(duration_s=600, step_s=60, shots=512)
    tracked_dev = SuperconductingDevice(num_qubits=1, seed=17, drift_rate=2e4)
    untracked_dev = SuperconductingDevice(num_qubits=1, seed=17, drift_rate=2e4)
    # A durable store makes the campaign a resumable workload: rerun
    # with the same run_id after an interruption and completed tasks
    # replay instead of re-executing.
    store_path = os.path.join(tempfile.mkdtemp(), "campaign.db")
    with trace() as spans:
        tracked = run_drift_campaign(
            tracked_dev,
            tracked=True,
            calibration_interval_s=120,
            seed=5,
            store=PipelineStore(store_path),
            run_id="example-campaign",
            **kwargs,
        )
    traced = [
        sum(1 for s in task.walk() if s.name == "template.trace")
        for task in spans.find("pipeline.task")
        if task.attrs.get("kind") == "ramsey_scan"
    ]
    untracked = run_drift_campaign(untracked_dev, tracked=False, seed=5, **kwargs)

    print(f"{'t (s)':>6} | {'untracked err (kHz)':>20} | {'tracked err (kHz)':>18}")
    for t, eu, et in zip(
        untracked.times_s,
        untracked.tracking_error_hz[:, 0],
        tracked.tracking_error_hz[:, 0],
    ):
        print(f"{t:>6.0f} | {eu/1e3:>20.1f} | {et/1e3:>18.1f}")
    print(
        f"\ncalibrations performed: {tracked.calibrations_performed}; "
        f"final error {tracked.final_mean_error_hz/1e3:.1f} kHz tracked vs "
        f"{untracked.final_mean_error_hz/1e3:.1f} kHz untracked "
        f"(pipeline run {tracked.extras['run_id']!r}, "
        f"{tracked.extras['executed_tasks']} tasks)"
    )
    print(f"templates traced per tracked Ramsey scan: {traced}")
    if not traced or any(traced[1:]):
        print("FAIL: a Ramsey scan after the first retraced its template")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
