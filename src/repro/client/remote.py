"""Remote device proxy: the "remote submission" path of Fig. 2.

A :class:`RemoteDeviceProxy` wraps a real (simulated) device behind a
serialization boundary: only *textual* payloads cross it — in-memory
schedules and module objects are rejected, exactly like a job leaving
the HPC center for a vendor cloud. The proxy also keeps simple transfer
telemetry (bytes shipped, simulated round-trip latency) so the Fig. 2
benchmark can report local-vs-remote costs.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.qdmi.device import QDMIDevice
from repro.qdmi.job import QDMIJob
from repro.qdmi.properties import (
    DeviceProperty,
    FrameProperty,
    JobStatus,
    OperationProperty,
    PortProperty,
    ProgramFormat,
    SiteProperty,
)
from repro.qdmi.types import Site

#: Formats that serialize to text and may cross the network boundary.
_TEXT_FORMATS = (
    ProgramFormat.QIR_PULSE,
    ProgramFormat.QIR_BASE,
    ProgramFormat.MLIR_PULSE,
    ProgramFormat.QASM3,
)


class RemoteDeviceProxy(QDMIDevice):
    """A QDMI device reachable only through serialized payloads."""

    def __init__(
        self,
        inner: QDMIDevice,
        *,
        name: str | None = None,
        latency_s: float = 0.05,
        bandwidth_bytes_per_s: float = 10e6,
    ) -> None:
        self._inner = inner
        self._name = name or f"remote:{inner.name}"
        self.latency_s = latency_s
        self.bandwidth = bandwidth_bytes_per_s
        self.telemetry = {
            "jobs": 0,
            "bytes_sent": 0,
            "simulated_transfer_s": 0.0,
            "queries": 0,
        }

    @property
    def name(self) -> str:
        return self._name

    @property
    def inner(self) -> QDMIDevice:
        """The wrapped device (test access)."""
        return self._inner

    # ---- queries forward (with telemetry) --------------------------------------------

    def query_device_property(self, prop: DeviceProperty) -> Any:
        self.telemetry["queries"] += 1
        if prop is DeviceProperty.NAME:
            return self._name
        if prop is DeviceProperty.SUPPORTED_FORMATS:
            inner_formats = set(
                self._inner.query_device_property(DeviceProperty.SUPPORTED_FORMATS)
            )
            return tuple(f for f in _TEXT_FORMATS if f in inner_formats)
        return self._inner.query_device_property(prop)

    def query_site_property(self, site: Site, prop: SiteProperty) -> Any:
        self.telemetry["queries"] += 1
        return self._inner.query_site_property(site, prop)

    def query_operation_property(
        self, operation: str, sites: Sequence[Site], prop: OperationProperty
    ) -> Any:
        self.telemetry["queries"] += 1
        return self._inner.query_operation_property(operation, sites, prop)

    def query_port_property(self, port, prop: PortProperty) -> Any:
        self.telemetry["queries"] += 1
        return self._inner.query_port_property(port, prop)

    def query_frame_property(self, frame, prop: FrameProperty) -> Any:
        self.telemetry["queries"] += 1
        return self._inner.query_frame_property(frame, prop)

    # ---- job interface ---------------------------------------------------------------

    def submit_job(self, job: QDMIJob) -> None:
        """Ship one serialized job across the simulated network."""
        self.submit_jobs([job])

    def submit_jobs(self, jobs: Sequence[QDMIJob]) -> None:
        """Ship a batch of serialized jobs; the inner device runs the
        accepted ones as one batch, each on its own seed."""
        accepted = [job for job in jobs if self._accept(job)]
        if accepted:
            # The same job objects reach the inner device; from the
            # FSM's perspective the network hop is invisible.
            self._inner.submit_jobs(accepted)

    def _accept(self, job: QDMIJob) -> bool:
        """Account *job*'s transfer, or fail it if it is not text."""
        if job.program_format not in _TEXT_FORMATS:
            error = (
                f"remote device {self._name!r} only accepts serialized "
                f"formats {[f.value for f in _TEXT_FORMATS]}, got "
                f"{job.program_format.value!r}"
            )
        elif not isinstance(job.payload, str):
            error = "remote payloads must be serialized text"
        else:
            payload_bytes = len(job.payload.encode())
            self.telemetry["jobs"] += 1
            self.telemetry["bytes_sent"] += payload_bytes
            self.telemetry["simulated_transfer_s"] += (
                self.latency_s + payload_bytes / self.bandwidth
            )
            return True
        if job.status is JobStatus.CREATED:
            job.transition(JobStatus.SUBMITTED)
        job.fail(error)
        return False
