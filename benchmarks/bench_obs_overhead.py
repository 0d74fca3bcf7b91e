"""Observability overhead gate: instrumentation must be ~free when off.

The :mod:`repro.obs` layer instruments the whole
compile -> dispatch -> simulate pipeline with spans and profile
records. Disabled (the default), each call site costs one
module-global flag check plus a no-op context enter/exit — this bench
measures that cost against an Estimator PUB over a phase-parametric
ansatz and fails when the *disabled* instrumentation accounts for
more than 2% of end-to-end wall time.

Method:

* run the workload with tracing+profiling off, take the median wall
  time (``t_off``);
* run once traced to count how many span/record call sites the
  workload actually hits (``n_sites``), and report the traced wall
  time for context (not gated — tracing is opt-in and pays for the
  tree it builds);
* measure the disabled per-call cost of :func:`repro.obs.span` and
  the profile-record hooks in a tight loop, and gate
  ``n_sites * per_call / t_off < 2%``.

The synthetic product is deliberately pessimistic: it charges every
site the full measured no-op cost, while in ``t_off`` those cycles
are already included — so the true marginal cost is below the gated
figure.

Run:  PYTHONPATH=src python benchmarks/bench_obs_overhead.py --quick
"""

from __future__ import annotations

import argparse
import statistics
import time

import numpy as np

import repro
from repro.core.waveform import ParametricWaveform, SampledWaveform
from repro.devices import SuperconductingDevice
from repro.mlir.dialects.pulse import SequenceBuilder
from repro.mlir.ir import print_module
from repro.obs import (
    disable_profiling,
    enable_profiling,
    profiling_enabled,
    span,
    trace,
    tracing_enabled,
)
from repro.obs import profile as _profile
from repro.primitives import Estimator

#: Disabled-instrumentation budget, as a fraction of workload wall time.
MAX_DISABLED_OVERHEAD_PCT = 2.0

_CALIBRATION_ITERS = 200_000

N_PREP_SEGMENTS = 12
PREP_SAMPLES = 32
N_SEGMENTS = 8
SEGMENT_SAMPLES = 8


def ansatz_text(device) -> str:
    """Raw-sample state prep + a phase-parametric tail (MLIR text)."""
    sb = SequenceBuilder("obs_ansatz")
    drive = sb.add_mixed_frame_arg("f0", device.drive_port(0).name)
    acquire = sb.add_mixed_frame_arg("a0", device.acquire_port(0).name)
    thetas = [sb.add_scalar_arg(f"theta{i}") for i in range(N_SEGMENTS)]
    for p in range(N_PREP_SEGMENTS):
        samples = np.full(PREP_SAMPLES, 0.05 + 0.01 * p)
        sb.play(drive, sb.waveform(SampledWaveform(samples)))
    for k, theta in enumerate(thetas):
        wave = sb.waveform(
            ParametricWaveform("square", SEGMENT_SAMPLES, {"amp": 0.10 + 0.005 * k})
        )
        sb.shift_phase(drive, theta)
        sb.play(drive, wave)
    sb.barrier(drive, acquire)
    sb.capture(acquire, 0, SEGMENT_SAMPLES)
    sb.ret()
    return print_module(sb.module)


def _grid(n_points: int, seed: int) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    return {
        f"theta{i}": rng.uniform(-np.pi, np.pi, n_points) for i in range(N_SEGMENTS)
    }


def _workload(n_points: int):
    device = SuperconductingDevice(
        num_qubits=1, drift_rate=0.0, t1=float("inf"), t2=float("inf")
    )
    target = repro.Target.from_device(device)
    program = repro.Program.from_mlir(ansatz_text(device))
    estimator = Estimator(target)
    grid = _grid(n_points, seed=5)

    def run():
        return estimator.run([(program, "Z", grid)])

    return run


def _disabled_per_call_s() -> tuple[float, float]:
    """Measured no-op cost of one span and one profile record check."""
    assert not tracing_enabled() and not profiling_enabled()
    t0 = time.perf_counter()
    for _ in range(_CALIBRATION_ITERS):
        with span("calibration", a=1):
            pass
    span_s = (time.perf_counter() - t0) / _CALIBRATION_ITERS
    t0 = time.perf_counter()
    for _ in range(_CALIBRATION_ITERS):
        _profile.cache_batch(n=1, unique=1, hits=0, misses=1)
    record_s = (time.perf_counter() - t0) / _CALIBRATION_ITERS
    return span_s, record_s


def bench_overhead(n_points: int, repeats: int) -> dict:
    run = _workload(n_points)
    run()  # warm: JIT, template trace, numpy, propagator cache

    off_times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        run()
        off_times.append(time.perf_counter() - t0)
    t_off = statistics.median(off_times)

    # One fully-observed run: counts the call sites the workload hits.
    enable_profiling()
    try:
        with trace() as tr:
            t0 = time.perf_counter()
            result = run()
            t_on = time.perf_counter() - t0
    finally:
        disable_profiling()
    n_spans = sum(1 for _ in tr.spans())
    n_records = len(result[0].metadata["profile"]["records"])

    span_s, record_s = _disabled_per_call_s()
    disabled_cost_s = n_spans * span_s + n_records * record_s
    disabled_pct = disabled_cost_s / t_off * 100.0
    traced_pct = (t_on - t_off) / t_off * 100.0

    return {
        "points": n_points,
        "wall_off_s": t_off,
        "wall_traced_s": t_on,
        "spans_per_run": n_spans,
        "records_per_run": n_records,
        "noop_span_ns": span_s * 1e9,
        "noop_record_ns": record_s * 1e9,
        "disabled_overhead_pct": disabled_pct,
        "traced_overhead_pct": traced_pct,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="small smoke workload (CI)"
    )
    parser.add_argument("--points", type=int, default=None)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    n_points = args.points or (32 if args.quick else 64)

    result = bench_overhead(n_points, max(1, args.repeats))

    print(f"\n--- obs overhead: Estimator workload ({n_points} points) ---")
    print(f"    wall (obs off)  : {result['wall_off_s'] * 1e3:.1f} ms")
    print(f"    wall (traced)   : {result['wall_traced_s'] * 1e3:.1f} ms")
    print(
        f"    call sites hit  : {result['spans_per_run']} spans + "
        f"{result['records_per_run']} records"
    )
    print(
        f"    no-op cost      : {result['noop_span_ns']:.0f} ns/span, "
        f"{result['noop_record_ns']:.0f} ns/record"
    )
    print(
        f"    disabled overhead: {result['disabled_overhead_pct']:.3f}% "
        f"(gate < {MAX_DISABLED_OVERHEAD_PCT}%)"
    )
    print(
        f"    traced overhead : {result['traced_overhead_pct']:.1f}% "
        f"(informational)"
    )

    if result["disabled_overhead_pct"] >= MAX_DISABLED_OVERHEAD_PCT:
        print(
            f"FAIL: disabled instrumentation overhead "
            f"{result['disabled_overhead_pct']:.3f}% exceeds "
            f"{MAX_DISABLED_OVERHEAD_PCT}%"
        )
        return 1
    print(
        f"PASS: disabled instrumentation overhead "
        f"{result['disabled_overhead_pct']:.3f}% < "
        f"{MAX_DISABLED_OVERHEAD_PCT}%"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
