"""Estimator PUB sweeps over a phase-parametric pulse-MLIR ansatz."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from benchmarks.harness.workloads.base import (
    Verification,
    Workload,
    load_golden,
    op_rng,
)

#: Seed of the fixed probe points the golden files cover.
PROBE_SEED = 20251016


def ansatz_text(
    device, *, phases: int, samples: int, amp0: float, amp_step: float, prep: int
) -> str:
    """*prep* raw-sample state-prep pulses, then *phases* phase-shifted
    square segments: the compile-once, bind-per-point program shape.
    Its parameters are ``theta0`` to ``theta{phases-1}``."""
    from repro.core.waveform import ParametricWaveform, SampledWaveform
    from repro.mlir.dialects.pulse import SequenceBuilder
    from repro.mlir.ir import print_module

    sb = SequenceBuilder("harness_ansatz")
    drive = sb.add_mixed_frame_arg("f0", device.drive_port(0).name)
    acquire = sb.add_mixed_frame_arg("a0", device.acquire_port(0).name)
    thetas = [sb.add_scalar_arg(f"theta{k}") for k in range(phases)]
    for p in range(prep):
        samples_p = np.full(32, 0.05 + 0.01 * p)
        sb.play(drive, sb.waveform(SampledWaveform(samples_p)))
    for k, theta in enumerate(thetas):
        wave = sb.waveform(
            ParametricWaveform("square", samples, {"amp": amp0 + amp_step * k})
        )
        sb.shift_phase(drive, theta)
        sb.play(drive, wave)
    sb.barrier(drive, acquire)
    sb.capture(acquire, 0, 8)
    sb.ret()
    return print_module(sb.module)


def phase_grid(rng, phases: int, points: int) -> dict[str, np.ndarray]:
    return {f"theta{k}": rng.uniform(-np.pi, np.pi, points) for k in range(phases)}


def grid_points(grid: dict[str, np.ndarray]) -> list[dict[str, float]]:
    n = len(next(iter(grid.values())))
    return [{k: float(v[i]) for k, v in grid.items()} for i in range(n)]


def loop_expectation(executable, point: dict[str, float]) -> float:
    """<Z> of one point through ``bind().run(shots=0)``: the per-point
    path, which executes through the scalar ``executor.execute``."""
    from repro.primitives import Observable

    result = executable.bind(point).run(shots=0, seed=1)
    return Observable.z(0).expectation(result.probabilities)


@dataclass
class SweepState:
    device: Any
    target: Any
    program: Any
    estimator: Any
    #: (grid, evs) of the first checked op, for the spot check.
    first: tuple | None = None


class PubSweep(Workload):
    """One ``Estimator.run`` of one PUB of fresh binding points per op."""

    phases = 8
    #: Largest |<Z>| a valid op may report.
    ev_limit = 1.0 + 1e-9

    def __init__(
        self, name: str, *, noisy: bool, points: int, probe: int, spot: int
    ) -> None:
        self.name = name
        self.noisy = noisy
        self.points = points
        self.probe = probe
        self.spot = spot

    def device(self):
        from repro.devices import SuperconductingDevice

        if self.noisy:
            return SuperconductingDevice(
                num_qubits=2,
                drift_rate=0.0,
                with_decoherence=True,
                t1=20e-6,
                t2=15e-6,
            )
        return SuperconductingDevice(
            num_qubits=1, drift_rate=0.0, t1=float("inf"), t2=float("inf")
        )

    def program_text(self, device) -> str:
        return ansatz_text(
            device, phases=self.phases, samples=8, amp0=0.10, amp_step=0.005, prep=12
        )

    def estimator(self, target):
        from repro.primitives import Estimator

        return Estimator(target)

    def _compiled(self):
        import repro

        device = self.device()
        target = repro.Target.from_device(device)
        return device, target, repro.Program.from_mlir(self.program_text(device))

    def setup(self, seed: int, work_dir: str) -> SweepState:
        device, target, program = self._compiled()
        state = SweepState(device, target, program, self.estimator(target))
        for k in range(2):
            self.op(state, phase_grid(op_rng(seed, k, stream=1), self.phases, 2))
        return state

    def prepare(self, state, seed, index):
        return phase_grid(op_rng(seed, index), self.phases, self.points)

    def op(self, state, grid):
        return state.estimator.run([(state.program, "Z", grid)])[0].data.evs

    def check(self, state, grid, evs) -> bool:
        ok = (
            evs.shape == (self.points,)
            and bool(np.all(np.isfinite(evs)))
            and bool(np.all(np.abs(evs) <= self.ev_limit))
        )
        if ok and state.first is None:
            state.first = (grid, np.array(evs))
        return ok

    def reference_value(self, device, executable, point) -> float:
        """One point's value through the independent per-point path."""
        return loop_expectation(executable, point)

    def verify(self, state, window) -> Verification:
        import repro

        out = Verification()
        golden = load_golden(self.name)
        probe = {k: np.asarray(v) for k, v in golden["grid"].items()}
        evs = self.op(state, probe)
        for value, ref in zip(evs, golden["evs"]):
            out.compare(value, ref)
        if "exact" in golden:  # noiseless values behind a mitigated sweep
            error = np.max(np.abs(evs - np.asarray(golden["exact"])))
            out.values["mitigated_abs_err"] = float(error)
        if state.first is not None:
            executable = repro.compile(state.program, state.target)
            grid, evs = state.first
            for point, value in zip(grid_points(grid)[: self.spot], evs):
                ref = self.reference_value(state.device, executable, point)
                out.compare(value, ref)
        return out

    def reference(self) -> dict:
        import repro

        device, target, program = self._compiled()
        executable = repro.compile(program, target)
        rng = np.random.default_rng(PROBE_SEED)
        grid = phase_grid(rng, self.phases, self.probe)
        points = grid_points(grid)
        return {
            "grid": {k: v.tolist() for k, v in grid.items()},
            "evs": [self.reference_value(device, executable, p) for p in points],
        }
