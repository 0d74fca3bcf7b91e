"""Gate-level VQE — the baseline ctrl-VQE is compared against.

A hardware-efficient ansatz (paper §2.1 / Listing 1 caption) built from
the devices' native gate set: per layer, an arbitrary single-qubit
rotation on each qubit (rz-sx-rz-sx-rz Euler decomposition) followed by
an entangling CZ. The circuit goes through the *real* stack — gate
module -> calibration lowering -> pulse schedule -> simulator — so its
reported schedule duration is the honest pulse-level cost that
ctrl-VQE's shorter schedules are measured against.

The energy estimator is exact (statevector expectation); both VQE
variants share it, so the comparison isolates ansatz structure rather
than sampling noise. A shot-based estimate is available via the
returned schedule when needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.control.hamiltonians import exact_ground_energy
from repro.control.parametric import ParametricOptimizer
from repro.compiler.lowering import quantum_module_to_schedule
from repro.errors import OptimizationError
from repro.mlir.dialects.quantum import CircuitBuilder


@dataclass
class VQEResult:
    """Outcome of a VQE run (gate-level or pulse-level)."""

    energy: float
    exact_energy: float
    parameters: np.ndarray
    evaluations: int
    schedule_duration_samples: int
    schedule_duration_seconds: float
    history: list[float] = field(default_factory=list)

    @property
    def error(self) -> float:
        """Absolute energy error vs. exact diagonalization."""
        return abs(self.energy - self.exact_energy)


class GateVQE:
    """VQE with a hardware-efficient gate ansatz on a 2-qubit device."""

    #: parameters per qubit per layer (Euler angles).
    ANGLES_PER_QUBIT = 3

    def __init__(self, device, hamiltonian: np.ndarray, *, layers: int = 2) -> None:
        if device.config.num_sites < 2:
            raise OptimizationError("GateVQE needs a 2-qubit device")
        self.device = device
        self.hamiltonian = np.asarray(hamiltonian, dtype=np.complex128)
        self.layers = int(layers)
        self._executor = device.executor
        self._last_duration = 0
        self._observable = None  # Pauli decomposition, built on first use

    @property
    def num_parameters(self) -> int:
        return self.layers * 2 * self.ANGLES_PER_QUBIT

    def build_circuit(self, params: np.ndarray) -> CircuitBuilder:
        """The ansatz circuit for *params*."""
        params = np.asarray(params, dtype=np.float64)
        if params.size != self.num_parameters:
            raise OptimizationError(
                f"expected {self.num_parameters} parameters, got {params.size}"
            )
        cb = CircuitBuilder("vqe-ansatz", 2)
        idx = 0
        for layer in range(self.layers):
            for q in (0, 1):
                a, b, c = params[idx : idx + 3]
                idx += 3
                # Euler rz-sx-rz-sx-rz: universal single-qubit rotation.
                cb.rz(q, a).sx(q).rz(q, b).sx(q).rz(q, c)
            cb.cz(0, 1)
        return cb

    def energy(self, params: np.ndarray) -> float:
        """Exact ansatz energy through the full lowering pipeline: the
        one-point case of :meth:`energies`."""
        return float(self.energies(params)[0])

    def energies(self, param_sets: np.ndarray) -> np.ndarray:
        """Ansatz energies for a batch of parameter vectors.

        Evaluates through one :class:`~repro.primitives.Estimator`
        request: every point's lowered schedule joins a single batched
        evolution pass (:meth:`ScheduleExecutor.execute_batch
        <repro.sim.executor.ScheduleExecutor.execute_batch>`) and the
        Hamiltonian scores each final state through the Observable
        engine.
        """
        from repro.primitives import Estimator, Observable

        param_sets = np.atleast_2d(np.asarray(param_sets, dtype=np.float64))
        if self._observable is None:  # 4^n decomposition: pay once
            self._observable = Observable.from_matrix(self.hamiltonian)
        observable = self._observable
        estimator = Estimator.from_executor(self._executor)
        pubs = []
        for p in param_sets:
            schedule = quantum_module_to_schedule(
                self.build_circuit(p).module, self.device
            )
            self._last_duration = schedule.duration
            pubs.append((schedule, observable))
        result = estimator.run(pubs)
        return np.array([float(r.data.evs[()]) for r in result])

    def run(
        self, *, maxiter: int = 300, seed: int = 0, x0: np.ndarray | None = None
    ) -> VQEResult:
        """Optimize the ansatz parameters; returns the best energy."""
        rng = np.random.default_rng(seed)
        if x0 is None:
            x0 = rng.uniform(-np.pi, np.pi, self.num_parameters)
        opt = ParametricOptimizer(self.energy)
        res = opt.optimize(x0, maxiter=maxiter)
        dt = self.device.config.constraints.dt
        return VQEResult(
            energy=res.cost,
            exact_energy=exact_ground_energy(self.hamiltonian),
            parameters=res.x,
            evaluations=res.evaluations,
            schedule_duration_samples=self._last_duration,
            schedule_duration_seconds=self._last_duration * dt,
            history=res.history,
        )
