"""Quantum optimal control (paper §2.1: "Pulse Engineering using
Optimal-Control" and "Pulse-level VQEs").

* :mod:`repro.control.grape` — Gradient Ascent Pulse Engineering with
  exact (Daleckii-Krein) gradients of the unitary fidelity;
* :mod:`repro.control.parametric` — derivative-free optimization of
  parametric pulse shapes (the closed-loop-style calibration of pulse
  parameters);
* :mod:`repro.control.hamiltonians` — Pauli-sum target Hamiltonians
  (H2-style molecular test case) and embeddings into device dimensions;
* :mod:`repro.control.vqe` — gate-level VQE baseline;
* :mod:`repro.control.ctrl_vqe` — pulse-level VQE (ctrl-VQE): the
  variational parameters are pulse amplitudes played through the QPI,
  bypassing gate decomposition, with shorter total schedule duration;
* :mod:`repro.control.robustness` — fidelity scans under detuning
  and amplitude errors (shaped-pulse robustness).
"""

from repro.control.grape import GrapeOptimizer, GrapeResult
from repro.control.parametric import ParametricOptimizer, ParametricResult
from repro.control.hamiltonians import (
    embed_qubit_operator,
    h2_hamiltonian,
    pauli_sum,
)
from repro.control.vqe import GateVQE, VQEResult
from repro.control.ctrl_vqe import CtrlVQE, CtrlVQEResult
from repro.control.robustness import (
    amplitude_scan,
    detuning_scan,
)

__all__ = [
    "GrapeOptimizer",
    "GrapeResult",
    "ParametricOptimizer",
    "ParametricResult",
    "pauli_sum",
    "h2_hamiltonian",
    "embed_qubit_operator",
    "GateVQE",
    "VQEResult",
    "CtrlVQE",
    "CtrlVQEResult",
    "detuning_scan",
    "amplitude_scan",
]
