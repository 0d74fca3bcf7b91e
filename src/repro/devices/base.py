"""Shared machinery for simulated QDMI devices.

A :class:`SimulatedDevice` owns:

* a :class:`~repro.sim.model.SystemModel` factory parameterized by the
  device's *true* (drifting, hidden) qubit-frequency offsets,
* the published ports, frames and :class:`PulseConstraints`,
* a :class:`~repro.devices.calibrations.CalibrationSet`,
* the QDMI query + job implementation.

Drift vs. calibration — the device keeps two offset vectors:

* ``_true_offsets`` — where the qubit transition frequencies actually
  are. :meth:`advance_time` random-walks them (paper §2.1: transition
  frequencies "drift on timescales of minutes to hours").
* ``_believed_offsets`` — what the published default frames assume.
  Calibration routines (:mod:`repro.calibration`) measure the true
  values and update these via :meth:`set_frame_frequency`.

A program built against the published frames is therefore *detuned* by
exactly the tracking error — which is what makes the automated
calibration experiment (E9 in DESIGN.md) physically meaningful.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from repro.core.constraints import PulseConstraints
from repro.core.frame import Frame
from repro.core.port import Port, PortKind
from repro.core.schedule import FamilyBatch, PulseSchedule
from repro.devices.calibrations import CalibrationSet
from repro.errors import (
    CancelledError,
    ConstraintError,
    JobError,
    QDMIError,
    UnsupportedQueryError,
)
from repro.qdmi.device import QDMIDevice
from repro.qdmi.job import JOB_HISTORY, QDMIJob
from repro.qdmi.properties import (
    DeviceProperty,
    DeviceStatus,
    FrameProperty,
    JobStatus,
    OperationProperty,
    PortProperty,
    ProgramFormat,
    PulseSupportLevel,
    SiteProperty,
)
from repro.qdmi.types import OperationInfo, Site
from repro.sim.executor import ScheduleExecutor
from repro.sim.measurement import ReadoutModel
from repro.sim.model import DecoherenceSpec, SystemModel


@dataclass
class DeviceConfig:
    """Static configuration of a simulated device."""

    name: str
    technology: str
    num_sites: int
    constraints: PulseConstraints
    pulse_support: PulseSupportLevel = PulseSupportLevel.PORT
    supported_formats: tuple[ProgramFormat, ...] = (
        ProgramFormat.PULSE_SCHEDULE,
        ProgramFormat.QIR_PULSE,
        ProgramFormat.MLIR_PULSE,
        ProgramFormat.QIR_BASE,
    )
    drift_rate: float = 0.0  # Hz of frequency drift per sqrt(second)
    version: str = "1.0"
    extra: dict = field(default_factory=dict)


class SimulatedDevice(QDMIDevice):
    """A QDMI device whose "hardware" is the :mod:`repro.sim` engine."""

    #: Largest number of decoherence-override executors kept warm.
    _MAX_NOISY_EXECUTORS = 64

    def __init__(
        self,
        config: DeviceConfig,
        *,
        model_factory: Callable[[np.ndarray], SystemModel],
        base_frequencies: Sequence[float],
        ports: Sequence[Port],
        operations: Sequence[OperationInfo],
        calibrations: CalibrationSet,
        readout: Mapping[int, ReadoutModel] | None = None,
        seed: int = 0,
    ) -> None:
        self.config = config
        self._model_factory = model_factory
        self._base_frequencies = np.asarray(base_frequencies, dtype=np.float64)
        if self._base_frequencies.shape != (config.num_sites,):
            raise QDMIError(
                "base_frequencies must list one frequency per site"
            )
        self._ports: dict[str, Port] = {p.name: p for p in ports}
        if len(self._ports) != len(ports):
            raise QDMIError("duplicate port names on device")
        self._operations = {op.name: op for op in operations}
        self.calibrations = calibrations
        self._readout = dict(readout or {})
        self._rng = np.random.default_rng(seed)
        self._true_offsets = np.zeros(config.num_sites, dtype=np.float64)
        self._believed_offsets = np.zeros(config.num_sites, dtype=np.float64)
        self._status = DeviceStatus.IDLE
        self._executor: ScheduleExecutor | None = None
        # Executors for per-job decoherence overrides (noise sweeps),
        # keyed by the override tuple; they share the base executor's
        # propagator cache (unitaries don't depend on T1/T2, and the
        # open-system entries are namespaced per dissipator) and are
        # invalidated together with it on frequency drift. LRU-bounded
        # so adaptive sweeps with ever-new grid points cannot grow the
        # device's memory monotonically.
        self._noisy_executors: OrderedDict[
            tuple[DecoherenceSpec, ...], ScheduleExecutor
        ] = OrderedDict()
        self._jobs: deque[QDMIJob] = deque(maxlen=JOB_HISTORY)
        self.elapsed_seconds = 0.0
        #: Monotonic calibration generation. Every committed write-back
        #: (frame frequency, DRAG beta, readout refresh) bumps it, and
        #: the compiler folds it into ``device_state_key`` — so caches
        #: keyed on device state invalidate even for write-backs that
        #: do not move a believed frequency.
        self.calibration_epoch = 0

    # ---- identity -------------------------------------------------------------------

    @property
    def name(self) -> str:
        return self.config.name

    # ---- physics / drift ------------------------------------------------------------

    @property
    def model(self) -> SystemModel:
        """The current (true-frequency) system model."""
        return self._current_executor().model

    @property
    def executor(self) -> ScheduleExecutor:
        """Direct simulator access (bypasses the job interface; used by
        calibration routines and variational algorithms that need exact
        states rather than shot counts)."""
        return self._current_executor()

    def _current_executor(self) -> ScheduleExecutor:
        if self._executor is None:
            model = self._model_factory(self._true_offsets.copy())
            self._executor = ScheduleExecutor(model, readout=self._readout)
        return self._executor

    def _executor_for(self, decoherence: Sequence | None) -> ScheduleExecutor:
        """The executor for an optional per-job decoherence override.

        *decoherence* lists one :class:`DecoherenceSpec` — or a
        ``(t1, t2)`` pair — per site; ``None`` means the device's own
        noise model. Override executors are memoized per spec tuple so
        a noise sweep builds each grid point's model once.
        """
        base = self._current_executor()
        if decoherence is None:
            return base
        specs = tuple(
            spec
            if isinstance(spec, DecoherenceSpec)
            else DecoherenceSpec(t1=float(spec[0]), t2=float(spec[1]))
            for spec in decoherence
        )
        if len(specs) != self.config.num_sites:
            raise JobError(
                f"decoherence override lists {len(specs)} specs for "
                f"{self.config.num_sites} sites"
            )
        executor = self._noisy_executors.get(specs)
        if executor is None:
            model = dataclasses.replace(base.model, decoherence=specs)
            executor = ScheduleExecutor(
                model,
                readout=self._readout,
                propagator_cache=base.propagator_cache,
            )
            self._noisy_executors[specs] = executor
            while len(self._noisy_executors) > self._MAX_NOISY_EXECUTORS:
                self._noisy_executors.popitem(last=False)
        else:
            self._noisy_executors.move_to_end(specs)
        return executor

    def advance_time(self, seconds: float) -> None:
        """Let wall-clock time pass: qubit frequencies random-walk.

        The step is a Wiener process with the device's configured
        ``drift_rate`` (Hz / sqrt(s)), seeded at construction.
        """
        if seconds < 0:
            raise QDMIError("cannot advance time backwards")
        if seconds == 0:
            return
        self.elapsed_seconds += seconds
        if self.config.drift_rate > 0:
            step = self.config.drift_rate * np.sqrt(seconds)
            self._true_offsets += step * self._rng.standard_normal(
                self.config.num_sites
            )
            self._executor = None  # model must be rebuilt
            self._noisy_executors.clear()

    def true_frequency(self, site: int) -> float:
        """Ground truth transition frequency (hidden from clients; used
        by experiments to score calibration tracking)."""
        return float(self._base_frequencies[site] + self._true_offsets[site])

    def believed_frequency(self, site: int) -> float:
        """The frequency the published default frame currently assumes."""
        return float(self._base_frequencies[site] + self._believed_offsets[site])

    def set_frame_frequency(self, site: int, frequency: float) -> None:
        """Calibration write-back: update the published default frame."""
        if not 0 <= site < self.config.num_sites:
            raise QDMIError(f"site {site} out of range")
        self._believed_offsets[site] = frequency - self._base_frequencies[site]
        self.bump_calibration()

    def bump_calibration(self) -> int:
        """Advance the calibration generation; returns the new epoch.

        Called by every write-back path so compile/payload caches keyed
        on :meth:`repro.compiler.jit.JITCompiler.device_state_key` miss
        cleanly after a calibration commit.
        """
        self.calibration_epoch += 1
        return self.calibration_epoch

    def tracking_error(self, site: int) -> float:
        """|believed - true| frequency error in Hz."""
        return abs(self.believed_frequency(site) - self.true_frequency(site))

    # ---- ports and frames ------------------------------------------------------------

    def port(self, name: str) -> Port:
        """Lookup a port by name."""
        try:
            return self._ports[name]
        except KeyError:
            raise QDMIError(
                f"device {self.name!r} has no port {name!r}"
            ) from None

    def drive_port(self, site: int) -> Port:
        """The drive port of *site* (kind DRIVE/RF/LASER, single target)."""
        for p in self._ports.values():
            if p.targets == (site,) and p.kind in (
                PortKind.DRIVE,
                PortKind.RF,
                PortKind.LASER,
            ):
                return p
        raise QDMIError(f"device {self.name!r} has no drive port for site {site}")

    def readout_port(self, site: int) -> Port:
        """The readout stimulus port of *site*."""
        for p in self._ports.values():
            if p.targets == (site,) and p.kind is PortKind.READOUT:
                return p
        raise QDMIError(f"device {self.name!r} has no readout port for site {site}")

    def acquire_port(self, site: int) -> Port:
        """The acquisition port of *site*."""
        for p in self._ports.values():
            if p.targets == (site,) and p.kind is PortKind.ACQUIRE:
                return p
        raise QDMIError(f"device {self.name!r} has no acquire port for site {site}")

    def coupler_port(self, site_a: int, site_b: int) -> Port:
        """The coupler port between two sites."""
        key = tuple(sorted((site_a, site_b)))
        for p in self._ports.values():
            if p.kind is PortKind.COUPLER and p.targets == key:
                return p
        raise QDMIError(
            f"device {self.name!r} has no coupler port for sites {key}"
        )

    def default_frame(self, port: Port) -> Frame:
        """The published default frame for *port*.

        Drive frames sit at the *believed* qubit frequency; readout and
        acquire frames at the site's readout frequency (modeled as 0 in
        the rotating frame); coupler frames are baseband.
        """
        if port.kind in (PortKind.DRIVE, PortKind.RF, PortKind.LASER):
            site = port.targets[0]
            return Frame(f"{port.name}-frame", self.believed_frequency(site), 0.0)
        return Frame(f"{port.name}-frame", 0.0, 0.0)

    # ---- QDMI query interface --------------------------------------------------------

    def query_device_property(self, prop: DeviceProperty) -> Any:
        cfg = self.config
        if prop is DeviceProperty.NAME:
            return cfg.name
        if prop is DeviceProperty.VERSION:
            return cfg.version
        if prop is DeviceProperty.TECHNOLOGY:
            return cfg.technology
        if prop is DeviceProperty.NUM_SITES:
            return cfg.num_sites
        if prop is DeviceProperty.STATUS:
            return self._status
        if prop is DeviceProperty.COUPLING_MAP:
            return tuple(
                p.targets
                for p in sorted(self._ports.values(), key=lambda p: p.name)
                if p.kind is PortKind.COUPLER
            )
        if prop is DeviceProperty.SUPPORTED_FORMATS:
            return cfg.supported_formats
        if prop is DeviceProperty.NATIVE_GATES:
            return tuple(
                self._operations[k] for k in sorted(self._operations)
            )
        if cfg.pulse_support is PulseSupportLevel.NONE:
            raise UnsupportedQueryError(
                f"device {cfg.name!r} exposes no pulse properties"
            )
        if prop is DeviceProperty.PULSE_SUPPORT_LEVEL:
            return cfg.pulse_support
        if prop is DeviceProperty.PULSE_CONSTRAINTS:
            return cfg.constraints
        if prop is DeviceProperty.PORTS:
            return tuple(sorted(self._ports.values(), key=lambda p: p.name))
        if prop is DeviceProperty.FRAMES:
            return tuple(
                self.default_frame(p)
                for p in sorted(self._ports.values(), key=lambda p: p.name)
                if not p.is_output
            )
        if prop is DeviceProperty.SAMPLE_RATE:
            return 1.0 / cfg.constraints.dt
        if prop is DeviceProperty.TIMING_GRANULARITY:
            return cfg.constraints.granularity
        if prop is DeviceProperty.SUPPORTED_ENVELOPES:
            env = cfg.constraints.supported_envelopes
            return tuple(sorted(env)) if env is not None else None
        raise UnsupportedQueryError(
            f"device {cfg.name!r} does not answer {prop.value!r}"
        )

    def query_site_property(self, site: Site, prop: SiteProperty) -> Any:
        idx = site.index
        if not 0 <= idx < self.config.num_sites:
            raise QDMIError(f"site {idx} out of range on {self.name!r}")
        model = self.model
        if prop is SiteProperty.INDEX:
            return idx
        if prop is SiteProperty.T1:
            return model.decoherence[idx].t1 if model.decoherence else float("inf")
        if prop is SiteProperty.T2:
            return model.decoherence[idx].t2 if model.decoherence else float("inf")
        if prop is SiteProperty.FREQUENCY:
            return self.believed_frequency(idx)
        if prop is SiteProperty.READOUT_ERROR:
            m = self._readout.get(idx, ReadoutModel())
            return 0.5 * (m.p01 + m.p10)
        if prop is SiteProperty.RABI_RATE:
            try:
                return model.channel(self.drive_port(idx).name).rabi_rate
            except QDMIError:
                raise UnsupportedQueryError("site has no drive channel") from None
        if prop is SiteProperty.DRIVE_PORT:
            return self.drive_port(idx)
        if prop is SiteProperty.READOUT_PORT:
            return self.readout_port(idx)
        if prop is SiteProperty.ACQUIRE_PORT:
            return self.acquire_port(idx)
        if prop is SiteProperty.DEFAULT_FRAME:
            return self.default_frame(self.drive_port(idx))
        if prop is SiteProperty.ANHARMONICITY:
            extra = self.config.extra.get("anharmonicities")
            if extra is None:
                raise UnsupportedQueryError(
                    f"device {self.name!r} has no anharmonicity data"
                )
            return extra[idx]
        raise UnsupportedQueryError(
            f"device {self.name!r} does not answer site property {prop.value!r}"
        )

    def query_operation_property(
        self, operation: str, sites: Sequence[Site], prop: OperationProperty
    ) -> Any:
        site_tuple = tuple(s.index for s in sites)
        if operation not in self._operations:
            raise QDMIError(
                f"device {self.name!r} has no operation {operation!r}"
            )
        info = self._operations[operation]
        if prop is OperationProperty.NAME:
            return info.name
        if prop is OperationProperty.NUM_QUBITS:
            return info.num_qubits
        if prop is OperationProperty.PARAMETERS:
            return info.parameters
        if prop is OperationProperty.IS_VIRTUAL:
            return info.is_virtual
        if prop is OperationProperty.HAS_PULSE_IMPLEMENTATION:
            return self.calibrations.has(operation, site_tuple)
        if prop is OperationProperty.DURATION:
            entry = self.calibrations.get(operation, site_tuple)
            return entry.duration * self.config.constraints.dt
        if prop is OperationProperty.PULSE_SCHEDULE:
            entry = self.calibrations.get(operation, site_tuple)
            sched = PulseSchedule(f"{operation}{site_tuple}")
            entry.apply(
                sched, [0.0] * entry.num_params
            )
            return sched
        if prop is OperationProperty.FIDELITY:
            fid = self.config.extra.get("fidelities", {}).get(operation)
            if fid is None:
                raise UnsupportedQueryError(
                    f"no fidelity data for {operation!r}"
                )
            return fid
        raise UnsupportedQueryError(
            f"device {self.name!r} does not answer operation property {prop.value!r}"
        )

    def query_port_property(self, port: Port, prop: PortProperty) -> Any:
        if prop is PortProperty.MAX_AMPLITUDE:
            return self.config.constraints.max_amplitude
        if prop is PortProperty.FREQUENCY_RANGE:
            c = self.config.constraints
            return (c.min_frequency, c.max_frequency)
        return super().query_port_property(port, prop)

    def query_frame_property(self, frame: Frame, prop: FrameProperty) -> Any:
        if prop is FrameProperty.PORT:
            # Default frames are named "<port>-frame".
            if frame.name.endswith("-frame"):
                port_name = frame.name[: -len("-frame")]
                if port_name in self._ports:
                    return self._ports[port_name]
            raise UnsupportedQueryError(
                f"frame {frame.name!r} is not a published default frame"
            )
        return super().query_frame_property(frame, prop)

    # ---- job interface ---------------------------------------------------------------

    def submit_job(self, job: QDMIJob) -> None:
        """Run *job* synchronously; terminal state is DONE or FAILED."""
        self.submit_jobs([job])

    def submit_jobs(self, jobs: Sequence[QDMIJob]) -> None:
        """Run *jobs* synchronously, batching their evolution.

        Jobs sharing a decoherence override and a shot count run
        through one :meth:`ScheduleExecutor.execute_batch
        <repro.sim.executor.ScheduleExecutor.execute_batch>`, each on
        its own seeded stream (``metadata["seed"]``, else the job id),
        exactly the stream it would draw when submitted alone. Each
        job then completes or fails individually. A job whose
        payload does not decode or validate fails alone; an execution
        fault fails its whole group. A job whose payload is a bound
        :class:`~repro.core.schedule.FamilyBatch` (a served sweep) runs
        as its own batch and completes with the whole
        :class:`~repro.sim.executor.BatchResult`.
        """
        jobs = list(jobs)
        for job in jobs:
            if job.status is not JobStatus.CREATED:
                raise JobError(
                    f"job {job.job_id} already submitted "
                    f"(status {job.status.value})"
                )
        groups: dict[tuple, tuple[ScheduleExecutor, list]] = {}
        for job in jobs:
            job.transition(JobStatus.SUBMITTED)
            if not self.supports_format(job.program_format):
                job.fail(
                    f"device {self.name!r} does not accept format "
                    f"{job.program_format.value!r}"
                )
                continue
            job.transition(JobStatus.QUEUED)
            self._jobs.append(job)
            job.transition(JobStatus.RUNNING)
            try:
                schedule = self._payload_to_schedule(job)
                if isinstance(schedule, FamilyBatch):
                    for family in schedule.families:
                        self.config.constraints.validate_family(family)
                else:
                    self.config.constraints.validate_schedule(schedule)
                executor = self._executor_for(job.metadata.get("decoherence"))
            except Exception as exc:  # deliberate: device must not crash the stack
                job.fail(f"{type(exc).__name__}: {exc}")
                continue
            # A family batch is one job run as its own batch.
            key = (id(executor), job.shots) + (
                (job.job_id,) if isinstance(schedule, FamilyBatch) else ()
            )
            groups.setdefault(key, (executor, []))[1].append((job, schedule))
        self._status = DeviceStatus.BUSY
        try:
            for (_, shots, *_), (executor, members) in groups.items():
                job0, payload = members[0]
                if isinstance(payload, FamilyBatch):
                    # One stream per member, all from the job's seed
                    # (fresh entropy per member when unseeded).
                    batch, seed = payload, job0.metadata.get("seed")
                else:
                    batch = [schedule for _, schedule in members]
                    seed = [job.metadata.get("seed", job.job_id) for job, _ in members]
                try:
                    results = executor.execute_batch(
                        batch,
                        shots=shots,
                        seed=seed,
                        should_cancel=_batch_cancel(
                            [job.metadata.get("should_cancel") for job, _ in members]
                        ),
                    )
                except CancelledError:
                    # Cooperative cancellation is not a device fault: let
                    # the serving layer resolve the tickets CANCELLED.
                    raise
                except Exception as exc:  # deliberate: see above
                    for job, _ in members:
                        job.fail(f"{type(exc).__name__}: {exc}")
                    continue
                if isinstance(payload, FamilyBatch):
                    job0.complete(results)
                    continue
                for (job, _), result in zip(members, results):
                    job.complete(result)
        finally:
            self._status = DeviceStatus.IDLE

    def _payload_to_schedule(self, job: QDMIJob) -> PulseSchedule:
        """Decode a job payload into an executable pulse schedule."""
        fmt = job.program_format
        if fmt is ProgramFormat.PULSE_SCHEDULE:
            if not isinstance(job.payload, (PulseSchedule, FamilyBatch)):
                raise ConstraintError(
                    "PULSE_SCHEDULE payload must be a PulseSchedule object "
                    "or a FamilyBatch"
                )
            return job.payload
        if fmt is ProgramFormat.QIR_PULSE:
            # Local import: qir depends only on core, devices may depend on qir.
            from repro.qir.linker import link_qir_to_schedule

            return link_qir_to_schedule(job.payload, self)
        if fmt is ProgramFormat.MLIR_PULSE:
            from repro.compiler.lowering import mlir_pulse_to_schedule

            return mlir_pulse_to_schedule(job.payload, self)
        if fmt is ProgramFormat.QIR_BASE:
            from repro.qir.linker import link_qir_to_schedule

            return link_qir_to_schedule(job.payload, self)
        raise ConstraintError(f"format {fmt.value!r} not executable on this device")

    @property
    def executed_jobs(self) -> tuple[QDMIJob, ...]:
        """The last ``JOB_HISTORY`` jobs this device accepted, in
        submission order."""
        return tuple(self._jobs)


def _batch_cancel(checks: Sequence[Callable[[], bool] | None]):
    """One cancel poll for a batch: it aborts only when every job asks."""
    if any(check is None for check in checks):
        return None
    distinct = list({id(check): check for check in checks}.values())
    if len(distinct) == 1:
        return distinct[0]
    return lambda: all(check() for check in distinct)
