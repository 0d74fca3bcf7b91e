"""Capability-based routing and failover for the serving layer.

The driver's registry (paper Fig. 2) holds heterogeneous QDMI devices;
when the requested device fails mid-job, a capable stand-in can often
serve the request instead — the same technology, at least as many
sites, pulse access no weaker, and an executable program format in
common. :class:`CapabilityRouter` ranks those equivalents per request;
:class:`PulseService` walks the list on failure (failover).
"""

from __future__ import annotations

from repro.client.client import JobRequest
from repro.qdmi.driver import QDMIDriver
from repro.qdmi.properties import DeviceProperty, ProgramFormat, PulseSupportLevel

#: Formats the client's execution paths can route (local / remote).
_EXECUTABLE_FORMATS = frozenset(
    {ProgramFormat.PULSE_SCHEDULE, ProgramFormat.QIR_PULSE}
)

_PULSE_RANK = {
    PulseSupportLevel.NONE: 0,
    PulseSupportLevel.SITE: 1,
    PulseSupportLevel.PORT: 2,
}


class CapabilityRouter:
    """Ranks capability-equivalent devices for each request.

    Parameters
    ----------
    driver:
        The device registry to route over.
    """

    #: Upper bound on the candidate list length (primary included).
    max_candidates = 3

    def __init__(self, driver: QDMIDriver) -> None:
        self.driver = driver

    # ---- capability model ----------------------------------------------------------

    def _profile(self, name: str) -> tuple[str, int, int, frozenset] | None:
        """(technology, sites, pulse rank, formats) or None if unqueryable."""
        device = self.driver.get_device(name)
        try:
            technology = device.query_device_property(DeviceProperty.TECHNOLOGY)
            sites = int(device.query_device_property(DeviceProperty.NUM_SITES))
            formats = frozenset(device.supported_formats())
        except Exception:
            return None  # query-only devices (databases) are not executable
        return (technology, sites, _PULSE_RANK[device.pulse_support_level()], formats)

    def equivalent(self, primary: str, candidate: str) -> bool:
        """Whether *candidate* can stand in for *primary*."""
        base = self._profile(primary)
        other = self._profile(candidate)
        if base is None or other is None:
            return False
        return (
            other[0] == base[0]
            and other[1] >= base[1]
            and other[2] >= base[2]
            and bool(other[3] & _EXECUTABLE_FORMATS)
        )

    def candidates(self, request: JobRequest) -> list[str]:
        """Candidate device names for *request*, requested device first.

        Raises :class:`~repro.errors.QDMIError` when the requested
        device is unknown — routing never invents a primary.
        """
        primary = request.device
        self.driver.get_device(primary)  # existence check, raises QDMIError
        out = [primary]
        for name in self.driver.device_names():
            if name != primary and self.equivalent(primary, name):
                out.append(name)
            if len(out) >= self.max_candidates:
                break
        return out
