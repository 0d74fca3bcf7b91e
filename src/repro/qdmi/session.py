"""QDMI sessions: the client-side access handle.

Clients "do not have direct access to the devices but access through a
QDMI Driver" (paper §5.3). A session is the capability the driver hands
out: it scopes which device a client may talk to, forwards queries and
job submissions, and refuses everything once closed.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Any, Sequence

from repro.core.frame import Frame
from repro.core.port import Port
from repro.errors import SessionError
from repro.qdmi.device import QDMIDevice
from repro.qdmi.job import JOB_HISTORY, QDMIJob
from repro.qdmi.properties import (
    DeviceProperty,
    FrameProperty,
    OperationProperty,
    PortProperty,
    ProgramFormat,
    SiteProperty,
)
from repro.qdmi.types import Site

_session_ids = itertools.count(1)


class QDMISession:
    """An open handle on one device, mediated by the driver."""

    def __init__(self, device: QDMIDevice, client_name: str) -> None:
        self.session_id = next(_session_ids)
        self.client_name = client_name
        self._device = device
        self._open = True
        self._jobs: deque[QDMIJob] = deque(maxlen=JOB_HISTORY)

    # ---- lifecycle ------------------------------------------------------------------

    @property
    def is_open(self) -> bool:
        return self._open

    def close(self) -> None:
        """Close the session; subsequent use raises SessionError."""
        self._open = False

    def _check(self) -> QDMIDevice:
        if not self._open:
            raise SessionError(
                f"session {self.session_id} ({self.client_name!r}) is closed"
            )
        return self._device

    @property
    def device_name(self) -> str:
        return self._check().name

    # ---- query forwarding ------------------------------------------------------------

    def query_device_property(self, prop: DeviceProperty) -> Any:
        return self._check().query_device_property(prop)

    def query_site_property(self, site: Site, prop: SiteProperty) -> Any:
        return self._check().query_site_property(site, prop)

    def query_operation_property(
        self, operation: str, sites: Sequence[Site], prop: OperationProperty
    ) -> Any:
        return self._check().query_operation_property(operation, sites, prop)

    def query_port_property(self, port: Port, prop: PortProperty) -> Any:
        return self._check().query_port_property(port, prop)

    def query_frame_property(self, frame: Frame, prop: FrameProperty) -> Any:
        return self._check().query_frame_property(frame, prop)

    # ---- job interface ---------------------------------------------------------------

    def create_job(
        self,
        program_format: ProgramFormat,
        payload: Any,
        shots: int = 1024,
        metadata: dict | None = None,
    ) -> QDMIJob:
        """Create a job bound to this session's device (not yet submitted)."""
        device = self._check()
        job = QDMIJob(device.name, program_format, payload, shots, metadata)
        self._jobs.append(job)
        return job

    def submit(self, job: QDMIJob) -> QDMIJob:
        """Submit a previously created job to the device."""
        return self.submit_jobs([job])[0]

    def submit_jobs(self, jobs: Sequence[QDMIJob]) -> list[QDMIJob]:
        """Submit previously created jobs to the device as one batch."""
        device = self._check()
        jobs = list(jobs)
        for job in jobs:
            if job.device_name != device.name:
                raise SessionError(
                    f"job {job.job_id} targets {job.device_name!r}, session "
                    f"is on {device.name!r}"
                )
        device.submit_jobs(jobs)
        return jobs

    def run(
        self,
        program_format: ProgramFormat,
        payload: Any,
        shots: int = 1024,
        metadata: dict | None = None,
    ) -> QDMIJob:
        """Create + submit in one call (the common path)."""
        return self.submit(self.create_job(program_format, payload, shots, metadata))

    @property
    def jobs(self) -> tuple[QDMIJob, ...]:
        """The last ``JOB_HISTORY`` jobs created through this session."""
        return tuple(self._jobs)
