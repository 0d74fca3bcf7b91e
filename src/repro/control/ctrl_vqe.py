"""ctrl-VQE: pulse-level variational eigensolving (paper §2.1).

"An emerging alternative is ctrl-VQE, a pulse-level approach that
bypasses traditional gate decomposition and instead optimizes the
continuous control waveforms applied to the qubits. This can
significantly reduce total circuit duration."

The ansatz here is piecewise-constant complex drive amplitudes on each
qubit's drive port plus real amplitudes on the coupler port — exactly
the program of the paper's Listing 1, and it is *built through the QPI*
(``qWaveform`` / ``qPlayWaveform`` / ``qFrameChange``), so every energy
evaluation exercises the stack's HPC hot path. Amplitudes are squashed
through tanh to respect the device's amplitude constraint; leakage out
of the computational subspace is penalized (the |2> level is physical
on the transmon device).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.control.hamiltonians import exact_ground_energy
from repro.control.parametric import ParametricOptimizer
from repro.control.vqe import VQEResult
from repro.errors import OptimizationError
from repro.qpi import (
    QCircuit,
    qCircuitBegin,
    qCircuitEnd,
    qFrameChange,
    qPlayWaveform,
    qWaveform,
    qX,
)
from repro.qpi.compile import qpi_to_schedule


@dataclass
class CtrlVQEResult(VQEResult):
    """ctrl-VQE outcome (adds leakage bookkeeping)."""

    final_leakage: float = 0.0


class CtrlVQE:
    """Pulse-level VQE on a 2-qubit device."""

    def __init__(
        self,
        device,
        hamiltonian: np.ndarray,
        *,
        segments: int = 4,
        segment_samples: int = 16,
        max_amplitude: float = 0.5,
        leakage_penalty: float = 10.0,
        initial_x: bool = True,
    ) -> None:
        """
        Parameters
        ----------
        segments, segment_samples:
            The pulse ansatz is *segments* piecewise-constant windows of
            *segment_samples* each, per channel. Total schedule duration
            is their product — typically several times shorter than one
            gate-ansatz layer.
        max_amplitude:
            Drive amplitude ceiling (normalized units) enforced by tanh
            squashing, below the device constraint.
        initial_x:
            Start from |11> via calibrated X gates (Listing 1 begins
            "with X on both qubits") — a good particle-conserving start
            for H2.
        """
        if device.config.num_sites < 2:
            raise OptimizationError("CtrlVQE needs a 2-qubit device")
        self.device = device
        self.hamiltonian = np.asarray(hamiltonian, dtype=np.complex128)
        self.segments = int(segments)
        self.segment_samples = int(segment_samples)
        self.max_amplitude = float(max_amplitude)
        self.leakage_penalty = float(leakage_penalty)
        self.initial_x = initial_x
        self._last_duration = 0
        self._last_leakage = 0.0
        self._observable = None  # Pauli decomposition, built on first use
        # Channels: drive q0 (complex), drive q1 (complex), coupler (real).
        self._drive_ports = [device.drive_port(0).name, device.drive_port(1).name]
        self._coupler_port = device.coupler_port(0, 1).name

    @property
    def num_parameters(self) -> int:
        # 2 drives x 2 quadratures + 1 coupler, per segment.
        return self.segments * 5

    # ---- ansatz construction through the QPI -----------------------------------------

    def _segment_samples_array(self, values: np.ndarray) -> np.ndarray:
        """Repeat per-segment values into a sample array."""
        return np.repeat(values, self.segment_samples)

    def build_schedule(self, params: np.ndarray):
        """Build the pulse ansatz schedule via QPI calls."""
        params = np.asarray(params, dtype=np.float64)
        if params.size != self.num_parameters:
            raise OptimizationError(
                f"expected {self.num_parameters} parameters, got {params.size}"
            )
        p = params.reshape(self.segments, 5)

        def squash_complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
            # Bound the *modulus* (not each quadrature) so the device's
            # amplitude constraint holds for arbitrary phase.
            z = re + 1j * im
            mag = np.abs(z)
            scale = self.max_amplitude * np.tanh(mag) / np.where(mag > 1e-12, mag, 1.0)
            return z * scale

        d0 = squash_complex(p[:, 0], p[:, 1])
        d1 = squash_complex(p[:, 2], p[:, 3])
        dc = self.max_amplitude * np.tanh(p[:, 4])

        circuit = QCircuit()
        qCircuitBegin(circuit)
        try:
            if self.initial_x:
                qX(0)
                qX(1)
            w0 = qWaveform(self._segment_samples_array(d0))
            w1 = qWaveform(self._segment_samples_array(d1))
            wc = qWaveform(self._segment_samples_array(dc))
            qFrameChange(self._drive_ports[0], self.device.believed_frequency(0), 0.0)
            qFrameChange(self._drive_ports[1], self.device.believed_frequency(1), 0.0)
            qPlayWaveform(self._drive_ports[0], w0)
            qPlayWaveform(self._drive_ports[1], w1)
            qPlayWaveform(self._coupler_port, wc)
        finally:
            qCircuitEnd()
        return qpi_to_schedule(circuit, self.device, name="ctrl-vqe-ansatz")

    # ---- energy ----------------------------------------------------------------------

    def energy(self, params: np.ndarray) -> float:
        """Penalized ansatz energy (exact estimator): the one-point
        case of :meth:`energies`."""
        return float(self.energies(params)[0])

    def energies(self, param_sets: np.ndarray) -> np.ndarray:
        """Penalized energies for a batch of parameter vectors.

        The sweep-style workload (energy-landscape scans, parallel
        finite differences, served parameter sweeps), evaluated
        through one :class:`~repro.primitives.Estimator` request: all
        points' run Hamiltonians stack into a single batched
        propagator pass (:meth:`ScheduleExecutor.execute_batch
        <repro.sim.executor.ScheduleExecutor.execute_batch>`) sharing
        the executor's :class:`~repro.sim.evolve.PropagatorCache`, the
        Hamiltonian scores every final state through the Observable
        engine, and the leakage penalty reads the Estimator's
        per-point ``leakage`` field.
        """
        from repro.primitives import Estimator, Observable

        param_sets = np.atleast_2d(np.asarray(param_sets, dtype=np.float64))
        if self._observable is None:  # 4^n decomposition: pay once
            self._observable = Observable.from_matrix(self.hamiltonian)
        observable = self._observable
        estimator = Estimator.from_executor(self.device.executor)
        pubs = []
        for p in param_sets:
            schedule = self.build_schedule(p)
            self._last_duration = schedule.duration
            pubs.append((schedule, observable))
        result = estimator.run(pubs)
        energies = np.empty(len(pubs), dtype=np.float64)
        for i, r in enumerate(result):
            leak = float(r.data.leakage[()])
            energies[i] = float(r.data.evs[()]) + self.leakage_penalty * leak
            self._last_leakage = leak
        return energies

    def run(
        self, *, maxiter: int = 400, seed: int = 0, x0: np.ndarray | None = None
    ) -> CtrlVQEResult:
        """Optimize the pulse amplitudes; returns the best energy."""
        rng = np.random.default_rng(seed)
        if x0 is None:
            x0 = rng.normal(scale=0.3, size=self.num_parameters)
        opt = ParametricOptimizer(self.energy)
        res = opt.optimize(np.asarray(x0), maxiter=maxiter)
        # Re-evaluate the best point for clean bookkeeping.
        final_energy = self.energy(res.x) - self.leakage_penalty * self._last_leakage
        dt = self.device.config.constraints.dt
        return CtrlVQEResult(
            energy=final_energy,
            exact_energy=exact_ground_energy(self.hamiltonian),
            parameters=res.x,
            evaluations=res.evaluations,
            schedule_duration_samples=self._last_duration,
            schedule_duration_seconds=self._last_duration * dt,
            history=res.history,
            final_leakage=self._last_leakage,
        )
