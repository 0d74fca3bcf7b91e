"""The QDMI device protocol.

Every backend — physical QPU stand-in, simulator, database — implements
this interface. It is deliberately *query-shaped*: clients retrieve
enum-keyed properties rather than calling device-specific methods,
which is what lets the compiler stay generic over heterogeneous
hardware (paper challenge 3). Unknown queries raise
:class:`~repro.errors.UnsupportedQueryError`, mirroring QDMI's
"not supported" status code rather than returning junk defaults.
"""

from __future__ import annotations

import abc
from typing import Any, Sequence

from repro.core.constraints import PulseConstraints
from repro.core.frame import Frame
from repro.core.port import Port
from repro.errors import UnsupportedQueryError
from repro.qdmi.job import QDMIJob
from repro.qdmi.properties import (
    DeviceProperty,
    FrameProperty,
    OperationProperty,
    PortProperty,
    ProgramFormat,
    PulseSupportLevel,
    SiteProperty,
)
from repro.qdmi.types import OperationInfo, Site


class QDMIDevice(abc.ABC):
    """Abstract QDMI device (paper Fig. 3, right-hand entity)."""

    # ---- identity ---------------------------------------------------------------

    @property
    @abc.abstractmethod
    def name(self) -> str:
        """Unique device name within a driver."""

    # ---- query interface ----------------------------------------------------------

    @abc.abstractmethod
    def query_device_property(self, prop: DeviceProperty) -> Any:
        """Device-scope property lookup."""

    @abc.abstractmethod
    def query_site_property(self, site: Site, prop: SiteProperty) -> Any:
        """Site-scope property lookup."""

    @abc.abstractmethod
    def query_operation_property(
        self, operation: str, sites: Sequence[Site], prop: OperationProperty
    ) -> Any:
        """Operation-scope property lookup for a concrete site tuple."""

    def query_port_property(self, port: Port, prop: PortProperty) -> Any:
        """Port-scope property lookup (pulse extension).

        Default implementation answers the structural keys from the
        port object itself; devices override to add hardware limits.
        """
        if prop is PortProperty.NAME:
            return port.name
        if prop is PortProperty.KIND:
            return port.kind
        if prop is PortProperty.TARGETS:
            return port.targets
        if prop is PortProperty.DIRECTION:
            return port.direction
        raise UnsupportedQueryError(
            f"device {self.name!r} does not answer port property {prop.value!r}"
        )

    def query_frame_property(self, frame: Frame, prop: FrameProperty) -> Any:
        """Frame-scope property lookup (pulse extension)."""
        if prop is FrameProperty.NAME:
            return frame.name
        if prop is FrameProperty.FREQUENCY:
            return frame.frequency
        if prop is FrameProperty.PHASE:
            return frame.phase
        raise UnsupportedQueryError(
            f"device {self.name!r} does not answer frame property {prop.value!r}"
        )

    # ---- convenience wrappers (typed accessors over the query interface) ---------

    def sites(self) -> list[Site]:
        """All sites, from NUM_SITES."""
        n = int(self.query_device_property(DeviceProperty.NUM_SITES))
        return [Site(i) for i in range(n)]

    def operations(self) -> list[OperationInfo]:
        """Native operations, from NATIVE_GATES."""
        return list(self.query_device_property(DeviceProperty.NATIVE_GATES))

    def ports(self) -> list[Port]:
        """All pulse ports; empty when pulse access is NONE."""
        try:
            return list(self.query_device_property(DeviceProperty.PORTS))
        except UnsupportedQueryError:
            return []

    def frames(self) -> list[Frame]:
        """All declared frames; empty when pulse access is NONE."""
        try:
            return list(self.query_device_property(DeviceProperty.FRAMES))
        except UnsupportedQueryError:
            return []

    def pulse_support_level(self) -> PulseSupportLevel:
        """Pulse access level, defaulting to NONE for legacy devices."""
        try:
            return self.query_device_property(DeviceProperty.PULSE_SUPPORT_LEVEL)
        except UnsupportedQueryError:
            return PulseSupportLevel.NONE

    def pulse_constraints(self) -> PulseConstraints:
        """The device's pulse constraints; raises if unsupported."""
        return self.query_device_property(DeviceProperty.PULSE_CONSTRAINTS)

    def supported_formats(self) -> tuple[ProgramFormat, ...]:
        """Program formats the job interface accepts."""
        return tuple(self.query_device_property(DeviceProperty.SUPPORTED_FORMATS))

    # ---- job interface --------------------------------------------------------------

    @abc.abstractmethod
    def submit_job(self, job: QDMIJob) -> None:
        """Accept *job* (CREATED -> SUBMITTED...) and eventually run it.

        Simulated devices in this repo execute synchronously, driving
        the job to a terminal state before returning; that keeps the
        reproduction deterministic while exercising the full FSM.
        """

    def submit_jobs(self, jobs: Sequence[QDMIJob]) -> None:
        """Accept a batch of jobs; each reaches its own terminal state.

        The default submits them one by one. Devices that can run many
        programs in one pass (the simulated QPUs batch their
        evolution) override it, and then :meth:`submit_job` is the
        one-member batch.
        """
        for job in jobs:
            self.submit_job(job)

    def supports_format(self, fmt: ProgramFormat) -> bool:
        """Whether the device accepts *fmt* payloads."""
        return fmt in self.supported_formats()
