"""Pipeline calibration: one served batched sweep vs the per-point loop.

The pipeline PR's perf claim, measured on the pi-amplitude (Rabi)
calibration of a 5-transmon device (D = 3^5 = 243) through the serving
surface the pipeline targets in production (``PipelineRunner`` connected
to a ``PulseService``; dispatch == "service"):

* **Serial path** — what callers wrote before the pipeline existed:
  one single-site PUB through ``Estimator.run`` per (site, amplitude)
  pair, the per-site loop of ``calibrate_pi_amplitude`` lifted to the
  primitives tier against the same service. Each of the
  ``sites x amps`` submissions pays its own sweep admission, a
  full-Hilbert-space evolution and a solo measurement tail.
* **Batched path** — the pipeline's ``rabi_scan`` task: every site's
  drive plays simultaneously in one schedule per amplitude (couplers
  are driven-only, so the simultaneous scan factorizes exactly), and
  the whole amplitude sweep ships as ONE served Estimator sweep — one
  ``execute_batch`` stacked-propagator pass, ``sites`` times fewer
  evolutions and one admission instead of ``sites x amps``.

Unlike a Ramsey delay sweep — where the serial loop claws back most of
the gap through propagator-cache dedup of its repeated half-pulses —
every amplitude here is a distinct constant envelope, so neither path
can dedup and the site-folding shows up as wall-clock. Required >= 3x
(gated by check_regression.py via baselines.json) with populations
matching the serial loop to 1e-6.

Also re-states the closed-loop acceptance bound through the pipeline
engine: a tracked drift campaign (``campaign_dag`` rounds of
scan -> fit -> write-back) keeps the tracking error near the estimator
floor while the untracked twin random-walks away at the platform drift
rate.

Run directly (the CI smoke mode):

    PYTHONPATH=src python benchmarks/bench_calibration_pipeline.py --quick

This file is intentionally named ``bench_*`` so tier-1 pytest does not
collect it; the speedup and error-bound assertions live in :func:`main`.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from _artifacts import write_artifact
from repro.api import Target
from repro.calibration import run_drift_campaign
from repro.client import MQSSClient
from repro.devices import SuperconductingDevice
from repro.pipeline import DAG, PipelineRunner
from repro.pipeline.experiments import _p1, _program
from repro.primitives import Estimator
from repro.qdmi import QDMIDriver
from repro.serving import PulseService

NUM_QUBITS = 5
DURATION = 160  # samples; one constant-envelope slice per amplitude
N_AMPS = 48  # fine pi-amplitude grid; amortizes the one-batch overhead


def batched_scan(runner: PipelineRunner, amps) -> dict:
    """The pipeline's rabi_scan task: all sites, one served sweep."""
    dag = DAG("bench-rabi")
    dag.task(
        "scan",
        "rabi_scan",
        {"shots": 0, "duration": DURATION, "amplitudes": list(amps)},
    )
    run = runner.run(dag, seed=0)
    assert run.ok, run.error
    return run.result("scan")


def serial_scan(svc: PulseService, device, amps) -> dict:
    """The per-site loop: one single-site PUB submitted per point."""
    from repro.core import Play, PulseSchedule
    from repro.core.waveform import constant_waveform

    estimator = Estimator(Target.from_service(svc, device.name), shots=0)
    populations: dict[str, list[float]] = {}
    for site in range(device.config.num_sites):
        pops = []
        for i, amp in enumerate(amps):
            sched = PulseSchedule(f"serial-rabi-{site}-{i}")
            drive = device.drive_port(site)
            sched.append(
                Play(
                    drive,
                    device.default_frame(drive),
                    constant_waveform(DURATION, float(amp)),
                )
            )
            device.calibrations.get("measure", (site,)).apply(sched, [0])
            res = estimator.run([(_program(sched), [_p1(0)])])
            pops.append(float(res[0].data.evs[0]))
        populations[str(site)] = pops
    return populations


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="CI smoke mode (smaller workload)"
    )
    args = parser.parse_args()
    required = 3.0
    amps = [float(a) for a in np.linspace(0.05, 1.0, N_AMPS)]

    # --- batched vs serial pi-amplitude scan -----------------------------------
    # Identical twin devices behind one service: the pipeline runner
    # drives one, the per-point loop the other, so neither path can
    # poison the other's propagator/compile caches. The warm amplitudes
    # are off the measured grid, so the timed runs compare steady-state
    # cost (JIT internals, numpy, the lazy device model), not
    # import/first-touch, and never a warmup cache hit.
    reps = 2
    driver = QDMIDriver()
    pairs = []
    for r in range(reps):
        db = SuperconductingDevice(
            f"rabi-batched-{r}", num_qubits=NUM_QUBITS, seed=5
        )
        ds = SuperconductingDevice(
            f"rabi-serial-{r}", num_qubits=NUM_QUBITS, seed=5
        )
        driver.register_device(db)
        driver.register_device(ds)
        pairs.append((db, ds))
    client = MQSSClient(driver, persistent_sessions=True)
    with PulseService(client) as svc:
        # Best-of-N on both paths (the timeit estimator): load spikes
        # only ever inflate a pass, so the minimum is the closest
        # observation of each path's true cost. Interleaved so slow
        # machine phases hit both paths alike, and each rep runs on
        # its own fresh device pair so no pass ever hits a cache
        # warmed by a previous rep.
        warm_amps = [0.33, 0.77]
        t_batched = t_serial = float("inf")
        for db, ds in pairs:
            runner = PipelineRunner(svc, device_name=db.name, device=db)
            assert runner.dispatch == "service"
            batched_scan(runner, warm_amps)
            serial_scan(svc, ds, warm_amps)

            t0 = time.perf_counter()
            scan = batched_scan(runner, amps)
            t_batched = min(t_batched, time.perf_counter() - t0)

            t0 = time.perf_counter()
            serial = serial_scan(svc, ds, amps)
            t_serial = min(t_serial, time.perf_counter() - t0)
    speedup = t_serial / t_batched

    # Same physics, down to float noise: batching all sites into
    # simultaneous schedules must not change the measured populations.
    max_err = max(
        float(np.max(np.abs(np.asarray(scan["populations"][s]) - serial[s])))
        for s in serial
    )

    # --- tracked vs untracked campaign -----------------------------------------
    kwargs = dict(
        duration_s=360 if args.quick else 600,
        step_s=60,
        shots=0,
        seed=1,
    )
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
    error_ratio = untracked.final_mean_error_hz / max(
        1.0, tracked.final_mean_error_hz
    )

    n_serial = NUM_QUBITS * len(amps)
    print(f"sites x amplitudes      : {NUM_QUBITS} x {len(amps)}")
    print(f"serial loop             : {t_serial * 1e3:8.1f} ms "
          f"({n_serial} served single-site PUB submissions)")
    print(f"batched pipeline scan   : {t_batched * 1e3:8.1f} ms "
          f"({len(amps)} all-site schedules, one served sweep)")
    print(f"speedup                 : {speedup:8.2f}x (required >= {required}x)")
    print(f"max population delta    : {max_err:.2e}")
    print(f"tracked final error     : {tracked.final_mean_error_hz / 1e3:8.2f} kHz "
          f"({tracked.calibrations_performed} calibrations)")
    print(f"untracked final error   : {untracked.final_mean_error_hz / 1e3:8.2f} kHz")
    print(f"untracked/tracked ratio : {error_ratio:8.1f}x")

    write_artifact(
        "calibration_pipeline",
        {
            "quick": args.quick,
            "num_qubits": NUM_QUBITS,
            "amplitudes": len(amps),
            "dispatch": "service",
            "serial_s": t_serial,
            "batched_s": t_batched,
            "speedup_batched": speedup,
            "max_population_err": max_err,
            "tracked_final_error_hz": tracked.final_mean_error_hz,
            "tracked_max_error_hz": tracked.max_mean_error_hz,
            "untracked_final_error_hz": untracked.final_mean_error_hz,
            "error_ratio": error_ratio,
        },
    )

    assert max_err < 1e-6, f"batched scan diverged from serial: {max_err}"
    assert speedup >= required, (
        f"batched calibration speedup {speedup:.2f}x below {required}x floor"
    )
    # The closed-loop bound: tracked error stays near the estimator
    # floor, untracked drifts by orders of magnitude more.
    assert tracked.final_mean_error_hz < 2e3
    assert tracked.max_mean_error_hz < untracked.max_mean_error_hz
    assert untracked.final_mean_error_hz > 10 * tracked.final_mean_error_hz
    print("PASS")


if __name__ == "__main__":
    main()
