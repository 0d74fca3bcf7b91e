"""Batched open-system (Lindblad) engine vs. the per-slice loop.

The tentpole gate for the open-system PR, on a two-transmon (D = 9)
driven schedule with finite T1/T2 — the workload every noisy scenario
(readout-mitigation validation, noise-aware control, T1/T2 sweeps)
funnels through:

* **batched engine** — the runs' Lindblad superoperators are stacked
  and exponentiated together (scaling-and-squaring Paterson-Stockmeyer,
  pure batched matmuls), with the fingerprint-keyed cache deduplicating
  the echo train's repeated amplitudes. Gated: required >= 5x over the
  per-slice loop, cold cache, final states identical to 1e-8.
* **per-slice loop** — the pre-batching shape: one dense ``expm`` per
  constant-drive run, in Python (the same master equation, so the two
  must agree to rounding).
* **trajectories** — the quantum-jump sampler for large D; reported
  for context.

Run directly (the CI smoke mode):

    PYTHONPATH=src python benchmarks/bench_open_system.py --quick

This file is intentionally named ``bench_*`` so tier-1 pytest does not
collect it; the speedup and equivalence assertions live in :func:`main`.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from _artifacts import write_artifact
from repro.core import Delay, Frame, Play, Port, PulseSchedule, constant_waveform
from repro.sim.executor import ScheduleExecutor
from repro.sim.model import DecoherenceSpec, transmon_model
from repro.sim.open_system import lindblad_superoperators
from repro.xp import use_backend

RABI = 50e6
DT = 1e-9


def make_model():
    """Two coupled three-level transmons (D = 9) with finite T1/T2."""
    return transmon_model(
        2,
        qubit_frequencies=[5.0e9, 5.1e9],
        anharmonicities=[-300e6, -280e6],
        rabi_rates=[RABI, RABI],
        couplings={(0, 1): 3e6},
        dt=DT,
        levels=3,
        decoherence=[
            DecoherenceSpec(t1=40e-6, t2=30e-6),
            DecoherenceSpec(t1=60e-6, t2=80e-6),
        ],
    )


def echo_schedule(blocks: int, pulse_samples: int, delay_samples: int):
    """A driven echo train: repeated pulse/delay blocks on both qubits.

    Repetition is deliberate — this is the shape real schedules have
    (flat-tops, echo delays), and it exercises the engine's
    fingerprint dedup on top of pure batching.
    """
    s = PulseSchedule("echo-train")
    amp = 0.5 / (RABI * pulse_samples * DT)
    f0, f1 = Frame("q0-drive-frame", 5.0e9), Frame("q1-drive-frame", 5.1e9)
    p0, p1 = Port.drive(0), Port.drive(1)
    for i in range(blocks):
        fraction = 0.5 if i % 2 else 1.0
        s.append(Play(p0, f0, constant_waveform(pulse_samples, amp * fraction)))
        s.append(Play(p1, f1, constant_waveform(pulse_samples, amp * 0.7)))
        s.append(Delay(p0, delay_samples))
        s.append(Delay(p1, delay_samples))
    return s


def run_stack(executor, schedule):
    """The schedule's constant-drive runs as ``(hs, steps)`` stacks."""
    from repro.sim.evolve import segment_runs

    [drives], _, channel_names = executor._synthesize_drives_family([schedule])
    runs = segment_runs(drives)
    hs = executor._run_hamiltonians_stack(
        drives[[start for start, _ in runs]], channel_names
    )
    steps = np.asarray([length for _, length in runs], dtype=np.int64)
    return hs, steps


def loop_evolve(hs, steps, collapse_ops, rho):
    """Pre-batching open-system path: one dense expm per run, in Python."""
    from scipy.linalg import expm

    dim = rho.shape[0]
    vec = rho.reshape(-1)
    for k in range(hs.shape[0]):
        ls = lindblad_superoperators(hs[k : k + 1], collapse_ops)[0]
        vec = expm(ls * DT * int(steps[k])) @ vec
    return vec.reshape(dim, dim)


def best_of(fn, repeats: int):
    best, result = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="CI smoke mode (smaller workload)"
    )
    args = parser.parse_args()
    if args.quick:
        blocks, pulse_samples, delay_samples, repeats, n_traj = 8, 16, 48, 3, 64
    else:
        blocks, pulse_samples, delay_samples, repeats, n_traj = 16, 16, 96, 5, 256

    model = make_model()
    schedule = echo_schedule(blocks, pulse_samples, delay_samples)
    executor = ScheduleExecutor(model)
    engine = executor.open_system
    hs, steps = run_stack(executor, schedule)
    dim = model.dimension
    psi0 = np.zeros(dim, dtype=np.complex128)
    psi0[1] = 1.0  # |01>: both decay and dephasing act
    rho0 = np.outer(psi0, psi0.conj())
    print(
        f"workload: {hs.shape[0]} constant-drive runs "
        f"({schedule.duration} samples), D={dim} (superoperators "
        f"{dim * dim}x{dim * dim}), {len(engine.collapse_ops)} collapse operators"
    )

    # 1. Per-slice density-matrix loop (the pre-batching shape).
    t_loop, rho_loop = best_of(
        lambda: loop_evolve(hs, steps, engine.collapse_ops, rho0.copy()),
        repeats,
    )

    # 2. Batched engine, cold cache each repeat (the gated path).
    def engine_cold():
        engine.cache.clear()
        return engine.evolve_density_matrix(hs, steps, rho0)

    t_engine, rho_engine = best_of(engine_cold, repeats)
    err = float(np.abs(rho_engine - rho_loop).max())
    speedup = t_loop / t_engine
    print(
        f"lindblad loop    {t_loop * 1e3:8.2f} ms   "
        f"engine {t_engine * 1e3:8.2f} ms   {speedup:5.1f}x   "
        f"max|drho|={err:.2e}"
    )

    # 3. Warm cache: the sweep/serving re-visit path.
    t_warm, rho_warm = best_of(
        lambda: engine.evolve_density_matrix(hs, steps, rho0), repeats
    )
    err_warm = float(np.abs(rho_warm - rho_loop).max())
    print(
        f"warm cache            {t_warm * 1e3:8.2f} ms   "
        f"({t_loop / t_warm:5.1f}x vs loop, hit rate "
        f"{engine.cache.hit_rate:.2f})   max|drho|={err_warm:.2e}"
    )

    # 4. Trajectory sampler: the large-D path, for context.
    rng = np.random.default_rng(0)
    t_traj, rho_traj = best_of(
        lambda: engine.evolve_trajectories(
            hs, steps, psi0, n_trajectories=n_traj, rng=rng
        ),
        1,
    )
    err_traj = float(np.abs(rho_traj - rho_loop).max())
    print(
        f"trajectories x{n_traj:<5d}  {t_traj * 1e3:8.2f} ms   "
        f"(shot-noise max|drho|={err_traj:.2e})"
    )

    # 5. Backend/dtype axis: the batched engine under the repro.xp
    #    complex64 policy. Single precision through a D^2 = 81
    #    superpropagator chain accumulates ~1e-4, so the parity gate
    #    here is 1e-3 (the per-propagator 1e-5 contract lives in the
    #    unitary bench and the test suite).
    def engine_c64():
        with use_backend(dtype="complex64"):
            engine.cache.clear()
            return engine.evolve_density_matrix(hs, steps, rho0)

    t_c64, rho_c64 = best_of(engine_c64, repeats)
    err_c64 = float(np.abs(rho_c64 - rho_loop).max())
    c64_vs_c128 = t_engine / t_c64
    print(
        f"c64 policy            {t_c64 * 1e3:8.2f} ms   "
        f"({c64_vs_c128:5.1f}x vs c128 engine)   max|drho|={err_c64:.2e}"
    )

    write_artifact(
        "open_system",
        {
            "quick": args.quick,
            "dim": dim,
            "n_runs": int(hs.shape[0]),
            "duration_samples": int(schedule.duration),
            "wall_loop_s": t_loop,
            "wall_engine_s": t_engine,
            "wall_warm_s": t_warm,
            "wall_engine_c64_s": t_c64,
            "speedup": speedup,
            "speedup_warm": t_loop / t_warm,
            "c64_vs_c128": c64_vs_c128,
            "max_err": err,
            "max_err_warm": err_warm,
            "max_err_c64": err_c64,
        },
    )

    assert err <= 1e-8, f"engine mismatch: {err:.2e} > 1e-8"
    assert err_warm <= 1e-8, f"warm-cache mismatch: {err_warm:.2e} > 1e-8"
    assert abs(np.trace(rho_engine) - 1.0) < 1e-10, "trace not preserved"
    assert speedup >= 5.0, (
        f"engine only {speedup:.1f}x over the per-slice density-matrix "
        f"loop (required >= 5x)"
    )
    assert err_c64 <= 1e-3, (
        f"complex64-policy mismatch: {err_c64:.2e} > 1e-3 (single-"
        f"precision Lindblad parity contract)"
    )
    assert c64_vs_c128 >= 0.5, (
        f"complex64 engine only {c64_vs_c128:.2f}x the c128 engine "
        f"(required >= 0.5x)"
    )
    print(
        f"OK: batched Lindblad engine {speedup:.1f}x (gate >= 5x) over the "
        f"per-slice loop on a D={dim} driven schedule, states identical "
        f"within 1e-8"
    )


if __name__ == "__main__":
    main()
