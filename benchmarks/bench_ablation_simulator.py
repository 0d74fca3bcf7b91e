"""Ablation — the simulator's constant-run merging (DESIGN.md).

The executor collapses runs of identical drive samples into a single
eigendecomposition (flat-top pulses and delays become O(1) instead of
O(samples)). This ablation measures the speedup against naive
per-sample stepping for the ion-chain gate shapes where it matters
most (thousands of identical samples per pulse).
"""

import numpy as np

from benchmarks.conftest import report
from repro.core import Play, PulseSchedule, constant_waveform
from repro.devices import TrappedIonDevice
from repro.sim.evolve import segment_runs, step_propagator


def long_flat_schedule(dev, samples=4096):
    s = PulseSchedule("flat")
    p = dev.drive_port(0)
    amp = 0.5 / (125e3 * samples * dev.config.constraints.dt)
    s.append(Play(p, dev.default_frame(p), constant_waveform(samples, amp)))
    return s


def naive_unitary(executor, schedule):
    """Per-sample stepping (no run merging) — the ablated variant."""
    model = executor.model
    [drives], _, channel_names = executor._synthesize_drives_family([schedule])
    total = np.eye(model.dimension, dtype=np.complex128)
    for h in executor._run_hamiltonians_stack(drives, channel_names):
        total = step_propagator(h, model.dt) @ total
    return total


def test_merging_matches_naive():
    dev = TrappedIonDevice(num_qubits=2, drift_rate=0.0)
    schedule = long_flat_schedule(dev, samples=1024)
    ex = dev.executor
    merged = ex.unitary(schedule)
    naive = naive_unitary(ex, schedule)
    assert np.allclose(merged, naive, atol=1e-8)


def test_merging_speedup():
    import time

    dev = TrappedIonDevice(num_qubits=2, drift_rate=0.0)
    schedule = long_flat_schedule(dev, samples=4096)
    ex = dev.executor
    [drives], _, _ = ex._synthesize_drives_family([schedule])
    runs = len(segment_runs(drives))

    t0 = time.perf_counter()
    ex.unitary(schedule)
    t_merged = time.perf_counter() - t0
    t0 = time.perf_counter()
    naive_unitary(ex, schedule)
    t_naive = time.perf_counter() - t0
    report(
        "Ablation: constant-run merging in the executor",
        [
            ("samples", drives.shape[0]),
            ("constant runs", runs),
            ("merged (ms)", round(t_merged * 1e3, 2)),
            ("per-sample (ms)", round(t_naive * 1e3, 2)),
            ("speedup", f"{t_naive / t_merged:.0f}x"),
        ],
    )
    assert t_naive > 10 * t_merged


def test_merged_execution_cost(benchmark):
    dev = TrappedIonDevice(num_qubits=2, drift_rate=0.0)
    schedule = long_flat_schedule(dev)
    u = benchmark(dev.executor.unitary, schedule)
    assert u.shape == (4, 4)


def test_naive_execution_cost(benchmark):
    dev = TrappedIonDevice(num_qubits=2, drift_rate=0.0)
    schedule = long_flat_schedule(dev, samples=1024)  # smaller: it's slow
    u = benchmark.pedantic(
        naive_unitary, args=(dev.executor, schedule), rounds=3, iterations=1
    )
    assert u.shape == (4, 4)
