"""repro.qem — composable error mitigation & characterization.

The subsystem has two halves:

* **Mitigation** — a declarative options stack
  (:class:`EstimatorOptions` / :class:`SamplerOptions`) that the
  primitives route through :mod:`repro.qem.engine`: zero-noise
  extrapolation via pulse stretching (:mod:`repro.qem.zne`), Pauli
  twirling over the measurement frame (:mod:`repro.qem.twirling`) and
  confusion-matrix readout inversion (:mod:`repro.qem.readout`). Each
  mitigator declares its ``overhead`` (circuit multiplier) and the
  declared order is the composition order.

* **Characterization** — standard/interleaved randomized
  benchmarking, T1/T2/T2echo coherence fits and single-site process
  tomography (:mod:`repro.qem.characterization`), each registered as
  a :mod:`repro.pipeline` task kind so experiments run as durable,
  resumable DAG nodes.

Ground-truth helpers for validating mitigated estimates against the
exact Lindblad engine live in :mod:`repro.sim.ground_truth` and are
re-exported here.
"""

from __future__ import annotations

from repro.qem import characterization, engine, readout, twirling, zne
from repro.qem.characterization import characterization_dag
from repro.qem.engine import run_mitigated_estimator, run_mitigated_sampler
from repro.qem.options import (
    ESTIMATOR_MITIGATORS,
    SAMPLER_MITIGATORS,
    EstimatorOptions,
    ReadoutOptions,
    SamplerOptions,
    TwirlingOptions,
    ZNEOptions,
)
from repro.qem.readout import (
    MitigatedResult,
    MitigationValidation,
    mitigate_distribution,
    total_variation_distance,
    validate_readout_mitigation,
)
from repro.qem.twirling import twirl_masks, twirl_schedule
from repro.qem.zne import extrapolate_to_zero, stretch_schedule
from repro.sim.ground_truth import (
    exact_distribution,
    exact_expectation,
    noiseless_twin,
    reference_expectation,
)

__all__ = [
    "ESTIMATOR_MITIGATORS",
    "SAMPLER_MITIGATORS",
    "EstimatorOptions",
    "MitigatedResult",
    "MitigationValidation",
    "ReadoutOptions",
    "SamplerOptions",
    "TwirlingOptions",
    "ZNEOptions",
    "characterization",
    "characterization_dag",
    "engine",
    "exact_distribution",
    "exact_expectation",
    "extrapolate_to_zero",
    "mitigate_distribution",
    "noiseless_twin",
    "readout",
    "reference_expectation",
    "run_mitigated_estimator",
    "run_mitigated_sampler",
    "stretch_schedule",
    "total_variation_distance",
    "twirl_masks",
    "twirl_schedule",
    "twirling",
    "validate_readout_mitigation",
    "zne",
]
