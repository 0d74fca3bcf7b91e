"""The JIT compiler driver (paper Fig. 2: "QRM & Compiler
Infrastructure").

Glues the layers together into the paper's end-to-end pipeline:

    adapter payload  ->  gate-level MLIR  ->  (QDMI-informed passes)
                     ->  pulse-level MLIR ->  QIR Pulse Profile
                     ->  QDMI job

:mod:`repro.compiler.lowering` holds the representation conversions
(gate module -> schedule, schedule <-> pulse module);
:mod:`repro.compiler.jit` holds the :class:`JITCompiler` that queries
device constraints over QDMI, runs the pass pipeline, emits the
exchange format and caches compilations.
"""

from repro.compiler.lowering import (
    mlir_pulse_to_schedule,
    quantum_module_to_schedule,
    schedule_to_pulse_module,
)
from repro.compiler.jit import CompiledProgram, JITCompiler
from repro.compiler.transforms import idle_fraction, insert_echo_sequences

__all__ = [
    "quantum_module_to_schedule",
    "schedule_to_pulse_module",
    "mlir_pulse_to_schedule",
    "JITCompiler",
    "CompiledProgram",
    "insert_echo_sequences",
    "idle_fraction",
]
