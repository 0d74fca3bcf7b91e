"""repro — a Python reproduction of *MQSS Pulse* (SC Workshops '25).

This package implements, end to end, the architecture proposed in
"Tackling the Challenges of Adding Pulse-level Support to a Heterogeneous
HPCQC Software Stack: MQSS Pulse": the three pulse abstractions
(*ports*, *frames*, *waveforms*), a C-style low-overhead programming
interface (QPI), an MLIR-like multi-dialect compiler infrastructure with
a pulse dialect, a QIR-like exchange format with a Pulse Profile, the
QDMI backend interface, simulated heterogeneous quantum devices
(superconducting, trapped-ion, neutral-atom), a pulse-level dynamics
simulator, and the motivating use cases: automated calibration, optimal
control (GRAPE) and pulse-level VQE (ctrl-VQE).

Layering (bottom to top)::

    core        pulse abstractions: Port, Frame, Waveform, PulseSchedule
    sim         pulse-level Schrodinger/Lindblad dynamics simulator
    devices     simulated QPUs exposing QDMI device interfaces
    qdmi        backend interface: driver, sessions, queries, jobs
    mlir        IR infrastructure, quantum + pulse dialects, passes
    qir         exchange format: emitter, parser, profiles, linker
    compiler    JIT pipeline gluing mlir + qdmi + qir together
    qpi         the C-style programming interface (paper Listing 1)
    client      MQSS client, adapters, routing (paper Fig. 2)
    api         the unified two-phase execution API: Program ->
                Target -> Executable with parameter binding; every
                entry point routes through its core
    primitives  Sampler/Estimator over broadcastable PUBs and the
                Observable expectation engine — the workload tier
                batching whole parameter grids through the fast paths
    runtime     second-level scheduler and resource management
    serving     asynchronous execution service over the client:
                one worker per device, content-addressed compile
                cache, identical-program coalescing with
                shot-splitting, capability failover, latency metrics
    control     GRAPE, parametric optimization, ctrl-VQE
    calibration Rabi/Ramsey/DRAG calibration + planning
    pipeline    durable DAG-orchestrated closed-loop calibration:
                typed task graphs (experiment -> fit -> write-back ->
                verify), SQLite-WAL run persistence with resume,
                a drift-budget trigger, a runner over any surface
    obs         cross-cutting observability: structured tracing,
                the process-wide metrics registry, profiling hooks
    qem         composable error mitigation & characterization on the
                primitives tier: declared mitigation stacks (ZNE via
                pulse stretching, Pauli twirling, readout inversion)
                plus RB / coherence / process-tomography experiments
                as durable pipeline task kinds

The serving layer sits above ``client`` and beside ``runtime``: the
scheduler's :meth:`~repro.runtime.scheduler.SecondLevelScheduler.drain`
runs its queue through the client itself, one lane per device, while
applications needing asynchronous submission talk to a
:class:`~repro.serving.service.PulseService` (see
``examples/serving_quickstart.py``).
"""

from repro import obs, pipeline, qem
from repro._version import __version__
from repro.api import Executable, Program, Target, compile, run
from repro.pipeline import DAG, PipelineRunner, PipelineStore
from repro.obs import exposition, span, trace
from repro.qem import EstimatorOptions, SamplerOptions
from repro.core import (
    Frame,
    MixedFrame,
    Port,
    PortKind,
    PulseConstraints,
    PulseSchedule,
    Waveform,
)
from repro.primitives import (
    DataBin,
    Estimator,
    Observable,
    PrimitiveResult,
    PubResult,
    Sampler,
)

__all__ = [
    "__version__",
    # Pulse abstractions (paper §4).
    "Port",
    "PortKind",
    "Frame",
    "MixedFrame",
    "Waveform",
    "PulseSchedule",
    "PulseConstraints",
    # The unified two-phase execution API (repro.api).
    "Program",
    "Target",
    "Executable",
    "compile",
    "run",
    # The primitives tier (repro.primitives).
    "Sampler",
    "Estimator",
    "Observable",
    "DataBin",
    "PubResult",
    "PrimitiveResult",
    # Closed-loop calibration pipelines (repro.pipeline).
    "pipeline",
    "DAG",
    "PipelineRunner",
    "PipelineStore",
    # Observability (repro.obs): tracing, metrics, profiling.
    "obs",
    "span",
    "trace",
    "exposition",
    # Error mitigation & characterization (repro.qem).
    "qem",
    "EstimatorOptions",
    "SamplerOptions",
]
