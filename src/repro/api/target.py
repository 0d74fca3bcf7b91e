"""Execution targets: where a compiled program will run.

A :class:`Target` pins one device *and* the machinery that compiles
for and dispatches to it — resolving a device name to capabilities and
calibration state across the three execution surfaces the stack has:

* **a bare simulated device** (:meth:`Target.from_device`) — runs
  in-process through the device's own
  :class:`~repro.sim.executor.ScheduleExecutor`: the primitives batch
  on it directly, and an executable dispatches through a private
  client that keeps one session open (the low-overhead QPI-parity
  path);
* **a QDMI client** (:meth:`Target.from_client`) — any device in the
  client's driver registry, local or remote
  (:class:`~repro.client.remote.RemoteDeviceProxy` routes serialized
  QIR); dispatch via :meth:`MQSSClient.execute_compiled`;
* **a running service** (:meth:`Target.from_service`) — asynchronous
  dispatch through the :class:`~repro.serving.service.PulseService`
  queues (tickets, coalescing, failover), sharing the compile cache
  of the service's client.

The target owns the *compile identity* of the device: its
:meth:`calibration_key` combines the device name with the believed
frame frequencies and the calibration epoch — the key of the JIT
compile cache, so a recalibration misses every compiled artifact. It
also owns the executable memo (:meth:`Target.executable`) every
primitive over it shares; an executable keeps its schedule template
across a frequency write-back and rebinds it.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any

from repro.errors import ValidationError
from repro.obs.metrics import REGISTRY, CacheStats
from repro.obs.tracing import span
from repro.qdmi.properties import DeviceProperty

#: Attribute under which :meth:`Target.from_device` memoizes its
#: Target on the device object itself.  Tying the memo's lifetime to
#: the device (instead of a module-level registry) means a transient
#: device's driver/client/compiler memo is collectable with it — the
#: reference cycle device -> target -> client -> driver -> device is
#: ordinary garbage the collector handles.
_DEVICE_TARGET_ATTR = "_repro_api_target"


class Target:
    """One resolved execution endpoint for the two-phase API."""

    #: Executables kept warm per target (:meth:`executable`).
    _MAX_EXECUTABLES = 128

    def __init__(
        self,
        client: Any,
        device_name: str,
        *,
        service: Any | None = None,
        direct: bool = False,
    ) -> None:
        self.client = client
        self.device_name = device_name
        self.service = service
        #: A bare-device target (:meth:`from_device`): its primitives
        #: run on the device's own executor.
        self.direct = direct
        self._capabilities: dict[str, Any] | None = None
        self._executables: OrderedDict[Any, Any] = OrderedDict()
        self._executables_lock = threading.Lock()
        #: Hit/miss/eviction accounting of the executable memo (the
        #: "template cache"), exported like every other cache.
        self.stats = CacheStats(
            lambda: len(self._executables),
            lambda: self._MAX_EXECUTABLES,
            hits=0,
            misses=0,
            evictions=0,
        )
        REGISTRY.register_cache(REGISTRY.autoname("template"), self, kind="template")

    # ---- constructors ----------------------------------------------------------------

    @classmethod
    def from_device(cls, device: Any) -> "Target":
        """A local target over a bare (typically simulated) device.

        The device is wrapped in a private driver + client so the one
        compile/cache path applies; the client keeps one persistent
        session, so a run opens none — the behaviour the C-style
        ``qExecute`` had.  Targets are memoized per device
        object, so per-iteration calls in an optimizer loop reuse one
        client.
        """
        memo = getattr(device, _DEVICE_TARGET_ATTR, None)
        if isinstance(memo, cls):
            return memo
        from repro.client.client import MQSSClient
        from repro.qdmi.driver import QDMIDriver

        driver = QDMIDriver()
        driver.register_device(device)
        client = MQSSClient(driver, persistent_sessions=True)
        target = cls(client, device.name, direct=True)
        try:
            setattr(device, _DEVICE_TARGET_ATTR, target)
        except (AttributeError, TypeError):
            pass  # slotted/frozen device: just skip the memo
        return target

    @classmethod
    def from_client(cls, client: Any, device_name: str) -> "Target":
        """A target over a device registered with *client*'s driver."""
        return cls(client, device_name)

    @classmethod
    def from_service(cls, service: Any, device_name: str) -> "Target":
        """An asynchronous target dispatching through *service*.

        *service* may be a :class:`~repro.serving.service.PulseService`,
        a :class:`~repro.serving.cluster.ClusterService`, a connected
        :class:`~repro.serving.connect.ServiceClient`, or an
        ``http(s)://`` address of a running front-end (resolved via
        :func:`repro.serving.connect`).  Transports without a local
        client (cluster, HTTP) produce a *detached* target: requests
        carry the raw program and its scalar args (a primitive's, its
        ``(K, P)`` value matrix), and binding and compilation happen
        service-side against the service's own compiler.
        """
        if isinstance(service, str):
            from repro.serving.connect import connect

            service = connect(service)
        return cls(
            getattr(service, "client", None), device_name, service=service
        )

    @classmethod
    def resolve(cls, spec: Any, endpoint: Any | None = None) -> "Target":
        """Normalize ``(spec, endpoint)`` into a Target.

        *spec* may already be a Target (returned unchanged), a device
        object (wrapped via :meth:`from_device`), or a device name —
        in which case *endpoint* must be the client, service, or driver
        that knows the name.
        """
        if isinstance(spec, Target):
            return spec
        if isinstance(spec, str):
            if endpoint is None:
                raise ValidationError(
                    f"resolving device name {spec!r} needs a client, "
                    "service, or driver endpoint"
                )
            if isinstance(endpoint, str):  # front-end address
                return cls.from_service(endpoint, spec)
            if hasattr(endpoint, "submit_sweep"):  # service or client
                return cls.from_service(endpoint, spec)
            if hasattr(endpoint, "execute_compiled"):  # MQSSClient
                return cls.from_client(endpoint, spec)
            if hasattr(endpoint, "get_device"):  # QDMIDriver
                return cls.from_device(endpoint.get_device(spec))
            raise ValidationError(
                f"cannot resolve device name against "
                f"{type(endpoint).__name__}"
            )
        if hasattr(spec, "submit_job"):  # a QDMI device object
            return cls.from_device(spec)
        raise ValidationError(
            f"cannot build a Target from {type(spec).__name__}"
        )

    # ---- resolution ------------------------------------------------------------------

    def _require_client(self, what: str) -> Any:
        if self.client is None:
            raise ValidationError(
                f"{what} needs a local client, but this target is "
                "detached (cluster/HTTP transport): compilation and "
                "device resolution happen service-side"
            )
        return self.client

    @property
    def is_detached(self) -> bool:
        """Service-only target with no local client (cluster/HTTP)."""
        return self.client is None

    @property
    def device(self) -> Any:
        """The registered device object (remote proxy included)."""
        return self._require_client("device lookup").driver.get_device(
            self.device_name
        )

    @property
    def compile_device(self) -> Any:
        """The calibration-bearing device compilation runs against."""
        client = self._require_client("compilation")
        _, compile_device, _ = client.resolve_target(self.device_name)
        return compile_device

    @property
    def is_remote(self) -> bool:
        """Whether dispatch serializes to QIR over the remote path."""
        if self.client is None:
            return False
        _, _, remote = self.client.resolve_target(self.device_name)
        return remote

    @property
    def is_async(self) -> bool:
        """Whether dispatch goes through a service (tickets)."""
        return self.service is not None

    @property
    def compiler(self) -> Any:
        return self._require_client("compilation").compiler

    # ---- the executable memo ---------------------------------------------------------

    def executable(self, program: Any) -> Any:
        """The memoized :class:`~repro.api.executable.Executable` of
        *program* (identity-keyed; a parametric one with its schedule
        template compiled). Every primitive over this target shares the
        memo, so an optimizer loop, or each task of a calibration
        runner, re-submitting one program skips the re-prepare and the
        template re-trace; the executable follows write-backs itself.
        """
        from repro.api.executable import Executable

        with self._executables_lock:
            executable = self._executables.get(program)
            if executable is not None:
                self.stats["hits"] += 1
                self._executables.move_to_end(program)
                return executable
            self.stats["misses"] += 1
        with span("compile", program=program.name):
            executable = Executable.prepare(program, self)
            if program.is_parametric:
                executable.compile()  # the schedule template
        with self._executables_lock:
            self._executables[program] = executable
            while len(self._executables) > self._MAX_EXECUTABLES:
                self._executables.popitem(last=False)
                self.stats["evictions"] += 1
        return executable

    # ---- capabilities / calibration state -------------------------------------------

    @property
    def capabilities(self) -> dict[str, Any]:
        """QDMI-derived capability summary (queried once, cached)."""
        if self._capabilities is None:
            device = self.compile_device
            self._capabilities = {
                "technology": device.query_device_property(
                    DeviceProperty.TECHNOLOGY
                ),
                "num_sites": device.query_device_property(
                    DeviceProperty.NUM_SITES
                ),
                "pulse_support": device.pulse_support_level().value,
                "constraints": device.query_device_property(
                    DeviceProperty.PULSE_CONSTRAINTS
                ),
                "formats": device.supported_formats(),
                "remote": self.is_remote,
            }
        return self._capabilities

    @property
    def constraints(self) -> Any:
        return self.capabilities["constraints"]

    def calibration_key(self) -> str:
        """Device identity x calibration state (cache invalidation key)."""
        return self.compiler.device_state_key(self.compile_device)

    def describe(self) -> str:
        """One-line human summary for examples and logs."""
        if self.is_detached:
            return f"{self.device_name} dispatch=service (detached)"
        caps = self.capabilities
        mode = "service" if self.is_async else ("remote" if caps["remote"] else "local")
        return (
            f"{self.device_name} [{caps['technology']}] "
            f"{caps['num_sites']} sites, pulse={caps['pulse_support']}, "
            f"dispatch={mode}"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = "service" if self.is_async else ("direct" if self.direct else "client")
        return f"Target({self.device_name!r}, dispatch={mode!r})"
