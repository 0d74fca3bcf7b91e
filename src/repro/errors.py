"""Exception hierarchy for the whole stack.

A single rooted hierarchy lets callers catch ``ReproError`` to trap any
stack-internal failure, while each layer raises a precise subclass.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(ReproError):
    """An object violates a structural invariant (bad waveform, port...)."""


class ConstraintError(ValidationError):
    """A pulse program violates a device constraint (granularity,
    amplitude bound, duration bound, unknown port/frame...)."""


class ScheduleError(ReproError):
    """Illegal schedule construction (negative time, overlap on a port
    where overlap is forbidden, barrier misuse...)."""


class IRError(ReproError):
    """Malformed IR: verification failure, bad operand types, unknown op."""


class ParseError(IRError):
    """Textual IR (MLIR-like or QIR-like) could not be parsed."""


class PassError(IRError):
    """A compiler pass failed or was applied to an unsupported payload."""


class LoweringError(PassError):
    """Gate->pulse (or dialect->dialect) lowering failed, typically due
    to a missing calibration entry."""


class QDMIError(ReproError):
    """Backend-interface failure (QDMI layer)."""


class SessionError(QDMIError):
    """Operation attempted on a closed or unauthorized session."""


class JobError(QDMIError):
    """Illegal job transition or submission failure."""


class UnsupportedQueryError(QDMIError):
    """Device does not implement the requested property query."""


class LinkError(ReproError):
    """QIR runtime linking failed: unresolved intrinsic symbol."""


class CompilationError(ReproError):
    """End-to-end JIT compilation pipeline failure."""


class ExecutionError(ReproError):
    """Runtime execution failure on a device or simulator."""


class ServiceError(ReproError):
    """Failure inside the serving layer (:mod:`repro.serving`)."""


class BackpressureError(ServiceError):
    """Admission control refused a request: the service queue is full."""


class CancelledError(ServiceError):
    """A ticket was cancelled before (or while) its job executed.

    Raised from ``Ticket.result()`` for cancelled tickets, and raised
    *inside* a running execution when the cooperative cancel flag is
    observed at a chunk boundary (see
    :meth:`repro.sim.executor.ScheduleExecutor.execute_batch`)."""


class CalibrationError(ReproError):
    """A calibration routine failed to converge or was misconfigured."""


class OptimizationError(ReproError):
    """Optimal-control optimization failure (GRAPE, parametric...)."""


class PipelineError(ReproError):
    """Failure inside the calibration pipeline (:mod:`repro.pipeline`):
    malformed DAG, unknown task kind, exhausted retries, or a durable
    run/task state inconsistency."""
