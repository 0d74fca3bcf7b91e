"""QDMI jobs: submission handles with a strict lifecycle FSM."""

from __future__ import annotations

import itertools
import threading
from typing import Any

from repro.errors import JobError
from repro.qdmi.properties import JobStatus, ProgramFormat

_job_ids = itertools.count(1)

#: How many recent jobs a device and a session keep for inspection.
#: Each job holds its payload and result, so an unbounded history would
#: grow for the life of a long-running service.
JOB_HISTORY = 256

#: Legal transitions of the job FSM.
_TRANSITIONS: dict[JobStatus, frozenset[JobStatus]] = {
    JobStatus.CREATED: frozenset({JobStatus.SUBMITTED, JobStatus.CANCELLED}),
    JobStatus.SUBMITTED: frozenset(
        {JobStatus.QUEUED, JobStatus.RUNNING, JobStatus.FAILED, JobStatus.CANCELLED}
    ),
    JobStatus.QUEUED: frozenset(
        {JobStatus.RUNNING, JobStatus.FAILED, JobStatus.CANCELLED}
    ),
    JobStatus.RUNNING: frozenset(
        {JobStatus.DONE, JobStatus.FAILED, JobStatus.CANCELLED}
    ),
    JobStatus.DONE: frozenset(),
    JobStatus.FAILED: frozenset(),
    JobStatus.CANCELLED: frozenset(),
}


class QDMIJob:
    """One submitted program: payload + format + shots + results.

    The job object is the opaque handle the QDMI job interface hands to
    clients; devices drive its status through :meth:`transition` and
    deposit results with :meth:`complete`. Transitions outside the FSM
    raise :class:`~repro.errors.JobError` — tests assert this guards
    against e.g. completing a cancelled job.
    """

    def __init__(
        self,
        device_name: str,
        program_format: ProgramFormat,
        payload: Any,
        shots: int = 1024,
        metadata: dict | None = None,
    ) -> None:
        if shots < 0:
            raise JobError(f"shots must be >= 0, got {shots}")
        if not isinstance(program_format, ProgramFormat):
            raise JobError(
                f"program_format must be a ProgramFormat, got {program_format!r}"
            )
        self.job_id = next(_job_ids)
        self.device_name = device_name
        self.program_format = program_format
        self.payload = payload
        self.shots = shots
        self.metadata = dict(metadata or {})
        self._status = JobStatus.CREATED
        self._result: Any = None
        self._error: str | None = None
        self._lock = threading.Lock()

    # ---- lifecycle -------------------------------------------------------------

    @property
    def status(self) -> JobStatus:
        return self._status

    def transition(self, new: JobStatus) -> None:
        """Move the FSM to *new*; raises on illegal transitions."""
        with self._lock:
            allowed = _TRANSITIONS[self._status]
            if new not in allowed:
                raise JobError(
                    f"job {self.job_id}: illegal transition "
                    f"{self._status.value} -> {new.value}"
                )
            self._status = new

    def complete(self, result: Any) -> None:
        """Deposit *result* and mark DONE (job must be RUNNING)."""
        self.transition(JobStatus.DONE)
        self._result = result

    def fail(self, error: str) -> None:
        """Mark FAILED with an error message."""
        self.transition(JobStatus.FAILED)
        self._error = error

    def cancel(self) -> None:
        """Cancel the job if not already terminal."""
        if self._status.is_terminal:
            raise JobError(
                f"job {self.job_id}: cannot cancel terminal job "
                f"({self._status.value})"
            )
        self.transition(JobStatus.CANCELLED)

    # ---- results ----------------------------------------------------------------

    @property
    def result(self) -> Any:
        """The execution result; raises unless the job is DONE."""
        if self._status is not JobStatus.DONE:
            raise JobError(
                f"job {self.job_id}: result unavailable in state "
                f"{self._status.value}"
                + (f" (error: {self._error})" if self._error else "")
            )
        return self._result

    @property
    def error(self) -> str | None:
        """Failure message for FAILED jobs."""
        return self._error

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"QDMIJob(id={self.job_id}, device={self.device_name!r}, "
            f"format={self.program_format.value}, status={self._status.value})"
        )
