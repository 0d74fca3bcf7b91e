"""Pulse-level quantum dynamics simulator.

This package is the hardware substitute mandated by the reproduction
plan (DESIGN.md): the paper's evaluation requires real superconducting,
trapped-ion and neutral-atom accelerators, which are access-gated, so
every device in :mod:`repro.devices` executes its pulse schedules on
this simulator instead. It implements:

* multi-site tensor-product operator construction with per-site
  dimensions (qubits or qutrits — the |2> level matters for DRAG and
  ctrl-VQE experiments),
* piecewise-constant Schrodinger evolution in the rotating frame, with
  frame-aware carrier modulation (detuning and phase from the frame
  timelines of :mod:`repro.sim.runs`),
* exact open-system (Lindblad) evolution with finite T1/T2 through the
  batched superoperator engine of :mod:`repro.sim.open_system` (T1
  amplitude damping, T2 pure dephasing; the Hilbert dimension decides
  when quantum-jump trajectories replace superoperators),
* one matrix-exponential routine in :mod:`repro.sim.evolve` for
  propagators and superpropagators, which picks each slice's route
  (batched matmuls, ``eigh`` or Pade) from the slice itself,
* one batched execution pipeline in :mod:`repro.sim.executor` — a
  single schedule runs as a one-member batch,
* projective measurement with a configurable readout-error model and
  seeded shot sampling,
* fidelity metrics used by calibration and optimal control.
"""

from repro.sim.operators import (
    annihilation,
    basis_state,
    destroy_on,
    embed,
    identity,
    kron_all,
    number_on,
    pauli,
    pauli_on,
    projector,
)
from repro.sim.model import ChannelCoupling, DecoherenceSpec, SystemModel
from repro.sim.evolve import (
    PropagatorCache,
    batched_expm,
    batched_expm_and_frechet,
    batched_propagators,
    build_hamiltonians,
    evolve_piecewise,
    evolve_unitary,
    free_propagator,
    free_propagators,
    hamiltonian_fingerprint,
    propagator_sequence,
    step_propagator,
)
from repro.sim.open_system import (
    OpenSystemEngine,
    as_density,
    batched_superpropagators,
    collapse_operators,
    dissipator_superoperator,
    hamiltonian_superoperators,
    lindblad_superoperators,
    unvectorize_density,
    vectorize_density,
)
from repro.sim.executor import ExecutionResult, ScheduleExecutor
from repro.sim.measurement import ReadoutModel, sample_counts
from repro.sim.fidelity import (
    average_gate_fidelity,
    process_fidelity,
    state_fidelity,
    unitary_fidelity,
)

__all__ = [
    "pauli",
    "identity",
    "annihilation",
    "kron_all",
    "embed",
    "pauli_on",
    "destroy_on",
    "number_on",
    "basis_state",
    "projector",
    "SystemModel",
    "ChannelCoupling",
    "DecoherenceSpec",
    "evolve_piecewise",
    "evolve_unitary",
    "step_propagator",
    "free_propagator",
    "free_propagators",
    "propagator_sequence",
    "build_hamiltonians",
    "batched_propagators",
    "batched_expm",
    "batched_expm_and_frechet",
    "hamiltonian_fingerprint",
    "PropagatorCache",
    "OpenSystemEngine",
    "as_density",
    "batched_superpropagators",
    "collapse_operators",
    "dissipator_superoperator",
    "hamiltonian_superoperators",
    "lindblad_superoperators",
    "vectorize_density",
    "unvectorize_density",
    "ScheduleExecutor",
    "ExecutionResult",
    "ReadoutModel",
    "sample_counts",
    "state_fidelity",
    "unitary_fidelity",
    "average_gate_fidelity",
    "process_fidelity",
]
