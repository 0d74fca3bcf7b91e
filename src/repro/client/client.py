"""MQSSClient: adapter dispatch, JIT compilation, job routing.

The client is the single entry point of Fig. 2: programs arrive from
any adapter, are JIT-compiled against the selected device's QDMI
constraints, and are routed either locally (in-memory schedule — the
fast HPC path) or remotely (serialized QIR with the Pulse Profile).
Per-stage timings are recorded for the architecture benchmark (E3).

The submission pipeline is split into two reusable halves so the
serving layer (:mod:`repro.serving`) can interpose between them:

* :meth:`MQSSClient.compile_request` — the payload
  (:meth:`MQSSClient.to_payload`) + JIT compilation through the client
  compiler's memo;
* :meth:`MQSSClient.execute_compiled_batch` — session lease + format
  routing + one batched device submission + result assembly
  (:meth:`MQSSClient.execute_compiled` is its one-member case).

:func:`repro.api.core.run_request` is the one-shot path over both
halves; :class:`PulseService` workers call them separately to insert
request coalescing and failover in the middle.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.client.adapters import Adapter, default_adapters
from repro.compiler.jit import CompiledProgram, JITCompiler
from repro.core.schedule import FamilyBatch
from repro.errors import ExecutionError, QDMIError
from repro.qdmi.driver import QDMIDriver
from repro.qdmi.properties import DeviceProperty, JobStatus, ProgramFormat
from repro.qdmi.session import QDMISession
from repro.qir.emitter import schedule_to_qir


@dataclass
class JobRequest:
    """One client-side submission."""

    program: Any
    device: str
    shots: int = 1024
    adapter: str | None = None  # autodetect when None
    priority: int = 0
    scalar_args: dict[str, float] = field(default_factory=dict)
    seed: int | None = None
    metadata: dict = field(default_factory=dict)


@dataclass
class ClientResult:
    """What the client returns to the application."""

    device: str
    counts: dict[str, int]
    probabilities: dict[str, float]
    shots: int
    duration_samples: int
    timings_s: dict[str, float]
    job_id: int
    remote: bool
    qir_size_bytes: int = 0
    #: The :class:`~repro.sim.executor.BatchResult` of a job that ran
    #: a bound family batch (its per-member arrays); ``None`` otherwise.
    batch: Any = None


class MQSSClient:
    """Routes jobs from adapters to QDMI devices (paper Fig. 2).

    Parameters
    ----------
    driver:
        The QDMI driver owning the device registry.
    compiler:
        JIT compiler instance; a fresh one when omitted. Its memo is
        the compile cache every path over this client shares.
    persistent_sessions:
        When true, the client keeps one QDMI session open per device
        and reuses it across submissions instead of opening and
        closing a session per job — the serving layer's workers use
        this to avoid per-request session churn. Call :meth:`close`
        (or use the client as a context manager) to release them.
    """

    def __init__(
        self,
        driver: QDMIDriver,
        *,
        compiler: JITCompiler | None = None,
        client_name: str = "mqss-client",
        persistent_sessions: bool = False,
    ) -> None:
        self.driver = driver
        self.compiler = compiler if compiler is not None else JITCompiler()
        self.client_name = client_name
        self.persistent_sessions = persistent_sessions
        self._adapters: dict[str, Adapter] = {}
        self._session_pool: dict[str, QDMISession] = {}
        self._session_lock = threading.Lock()
        for adapter in default_adapters():
            self.register_adapter(adapter)

    # ---- adapters ------------------------------------------------------------------

    def register_adapter(self, adapter: Adapter) -> None:
        """Register an adapter under its name."""
        if adapter.name in self._adapters:
            raise QDMIError(f"adapter {adapter.name!r} already registered")
        self._adapters[adapter.name] = adapter

    def adapter_names(self) -> list[str]:
        return sorted(self._adapters)

    def select_adapter(self, request: JobRequest) -> Adapter:
        """The adapter serving *request* (explicit name or autodetect)."""
        if request.adapter is not None:
            try:
                return self._adapters[request.adapter]
            except KeyError:
                raise QDMIError(
                    f"unknown adapter {request.adapter!r}; have "
                    f"{self.adapter_names()}"
                ) from None
        for adapter in self._adapters.values():
            if adapter.accepts(request.program):
                return adapter
        raise QDMIError(
            f"no adapter accepts program of type "
            f"{type(request.program).__name__}"
        )

    # ---- device / session plumbing -----------------------------------------------

    def resolve_target(self, device_name: str) -> tuple[Any, Any, bool]:
        """``(device, compile_target, remote)`` for *device_name*.

        Remote devices hide the calibration-bearing inner device;
        compilation happens against the execution target.
        """
        from repro.client.remote import RemoteDeviceProxy

        device = self.driver.get_device(device_name)
        remote = isinstance(device, RemoteDeviceProxy)
        return device, (device.inner if remote else device), remote

    def _lease_session(self, device_name: str) -> tuple[QDMISession, bool]:
        """A session on *device_name* plus whether the caller must close it."""
        if not self.persistent_sessions:
            return self.driver.open_session(device_name, self.client_name), True
        with self._session_lock:
            session = self._session_pool.get(device_name)
            if session is None or not session.is_open:
                session = self.driver.open_session(device_name, self.client_name)
                self._session_pool[device_name] = session
            return session, False

    def close(self) -> None:
        """Close any persistent sessions held by this client."""
        with self._session_lock:
            for session in self._session_pool.values():
                if session.is_open:
                    session.close()
            self._session_pool.clear()

    def __enter__(self) -> "MQSSClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ---- submission ------------------------------------------------------------------

    def to_payload(
        self,
        request: JobRequest,
        device_name: str | None = None,
        *,
        timings: dict[str, float] | None = None,
    ) -> Any:
        """*request*'s compiler payload for a device (default: its own):
        a bound :class:`~repro.core.schedule.FamilyBatch` is its own
        payload, a :class:`~repro.api.executable.ProgramBatch` binds
        here, where the device is, into one; any other program goes
        through its adapter."""
        from repro.api.core import adapter_payload
        from repro.api.executable import ProgramBatch

        name = device_name or request.device
        if isinstance(request.program, FamilyBatch):
            return request.program
        if isinstance(request.program, ProgramBatch):
            return request.program.bind(self, name)
        _, target, _ = self.resolve_target(name)
        return adapter_payload(
            self, request.program, target, adapter=request.adapter, timings=timings
        )

    def compile_request(
        self,
        request: JobRequest,
        *,
        device_name: str | None = None,
        timings: dict[str, float] | None = None,
    ) -> CompiledProgram | FamilyBatch:
        """Payload -> JIT compile *request* for a device (default: its own).

        Routes through the unified compile/cache core
        (:mod:`repro.api.core`) shared with the serving workers and the
        two-phase ``Executable`` API (a bound family batch is checked,
        not compiled).
        """
        from repro.api.core import compile_payload

        _, target, _ = self.resolve_target(device_name or request.device)
        return compile_payload(
            self.compiler,
            self.to_payload(request, device_name, timings=timings),
            target,
            scalar_args=request.scalar_args or None,
            timings=timings,
        )

    def execute_compiled(
        self,
        request: JobRequest,
        program: CompiledProgram | FamilyBatch,
        *,
        device_name: str | None = None,
        shots: int | None = None,
        timings: dict[str, float] | None = None,
        should_cancel: Any | None = None,
    ) -> ClientResult:
        """Route *program* to a device and execute it.

        The one-member case of :meth:`execute_compiled_batch`.
        *device_name* overrides the request's device (failover path);
        *shots* overrides the request's shot count (coalesced batches).
        *should_cancel* is an optional zero-arg callable the device
        executor polls at chunk boundaries; when it returns True the
        execution aborts with :class:`~repro.errors.CancelledError`.
        """
        return self.execute_compiled_batch(
            [request],
            [program],
            device_name=device_name,
            shots=None if shots is None else [shots],
            timings=timings,
            should_cancel=should_cancel,
        )[0]

    def execute_compiled_batch(
        self,
        requests: Sequence[JobRequest],
        programs: Sequence[CompiledProgram | FamilyBatch],
        *,
        device_name: str | None = None,
        shots: Sequence[int] | None = None,
        timings: dict[str, float] | None = None,
        should_cancel: Any | None = None,
    ) -> list[ClientResult]:
        """Execute compiled requests, one batched submission per device.

        ``programs[i]`` is request i compiled for its device. Requests
        bound for one device (*device_name*, else each request's own)
        become one QDMI job each, submitted together through
        :meth:`QDMISession.submit_jobs
        <repro.qdmi.session.QDMISession.submit_jobs>`, which lets a
        simulated device evolve them in one batched pass; every job
        keeps its own seed (``request.seed``, else its job id), shots
        (``shots[i]`` overrides) and decoherence override. The batch
        aborts with :class:`~repro.errors.CancelledError` only when
        *should_cancel* returns True, and raises
        :class:`~repro.errors.ExecutionError` when any job fails.
        *timings* receives the batch's ``"execute"`` wall time; every
        result carries a copy. A bound (uncompiled)
        :class:`~repro.core.schedule.FamilyBatch` is one job whose
        result carries the batch's arrays (:attr:`ClientResult.batch`).
        A remote device takes one QIR job per member instead, each on
        the member's stream, and the results stack into the arrays.
        """
        requests = list(requests)
        if len(programs) != len(requests) or (
            shots is not None and len(shots) != len(requests)
        ):
            raise ExecutionError(
                "execute_compiled_batch needs one program (and one shot "
                "count, when given) per request"
            )
        names = [device_name or r.device for r in requests]
        by_device: dict[str, list[int]] = {}
        for i, name in enumerate(names):
            by_device.setdefault(name, []).append(i)
        # Each request's QDMI jobs: one, or one per remote family member.
        jobs: list[list[Any]] = [[] for _ in requests]
        remote = {name: self.resolve_target(name)[2] for name in by_device}
        t0 = time.perf_counter()
        for name, members in by_device.items():
            qir = remote[name]
            fmt = ProgramFormat.QIR_PULSE if qir else ProgramFormat.PULSE_SCHEDULE
            session, close_after = self._lease_session(name)
            try:
                batch = []
                for i in members:
                    request, program = requests[i], programs[i]
                    metadata: dict = {}
                    if request.seed is not None:
                        metadata["seed"] = request.seed
                    # Per-request decoherence overrides (noise-parameter
                    # sweeps) ride through to the device executor.
                    decoherence = (request.metadata or {}).get("decoherence")
                    if decoherence is not None:
                        metadata["decoherence"] = decoherence
                    if should_cancel is not None:
                        metadata["should_cancel"] = should_cancel
                    if isinstance(program, FamilyBatch):
                        payloads = (
                            [schedule_to_qir(s) for s in program] if qir else [program]
                        )
                    else:
                        payloads = [program.qir if qir else program.schedule]
                    jobs[i] = [
                        session.create_job(
                            fmt,
                            payload,
                            shots=request.shots if shots is None else shots[i],
                            metadata=metadata or None,
                        )
                        for payload in payloads
                    ]
                    batch += jobs[i]
                session.submit_jobs(batch)
            finally:
                if close_after:
                    session.close()
        if timings is not None:
            timings["execute"] = time.perf_counter() - t0
        for request_jobs, name in zip(jobs, names):
            for job in request_jobs:
                if job.status is not JobStatus.DONE:
                    raise ExecutionError(
                        f"job {job.job_id} on {name!r} failed: {job.error}"
                    )
        results = []
        for i, (request_jobs, name, program) in enumerate(zip(jobs, names, programs)):
            # Serialization cost is only paid (and only meaningful) on
            # the remote path; the local fast path skips it.
            qir_bytes = 0
            if remote[name]:
                qir_bytes = sum(len(job.payload.encode()) for job in request_jobs)
            if not isinstance(program, FamilyBatch):
                (job,) = request_jobs
                result = job.result
                results.append(
                    ClientResult(
                        device=name,
                        counts=result.counts,
                        probabilities=result.ideal_probabilities,
                        shots=result.shots,
                        duration_samples=result.duration_samples,
                        timings_s=dict(timings) if timings is not None else {},
                        job_id=job.job_id,
                        remote=remote[name],
                        qir_size_bytes=qir_bytes,
                    )
                )
                continue
            batch = (
                _stacked(program, request_jobs, self.resolve_target(name)[1])
                if remote[name]
                else request_jobs[0].result
            )
            durations = [int(f.durations.max()) for f in batch.families if len(f)]
            results.append(
                ClientResult(
                    device=name,
                    counts={},
                    probabilities={},
                    shots=requests[i].shots if shots is None else shots[i],
                    duration_samples=max(durations, default=0),
                    timings_s=dict(timings) if timings is not None else {},
                    job_id=request_jobs[0].job_id if request_jobs else -1,
                    remote=remote[name],
                    qir_size_bytes=qir_bytes,
                    batch=batch,
                )
            )
        return results


def _stacked(batch: FamilyBatch, jobs: Sequence[Any], device: Any):
    """The :class:`~repro.sim.executor.BatchResult` of *batch* run as
    one remote job per member: the members' results stacked per family
    at the ``dt`` *device* (the execution target) reports."""
    from repro.sim.executor import BatchResult, FamilyOutcome

    dt = device.query_device_property(DeviceProperty.PULSE_CONSTRAINTS).dt
    results = [job.result for job in jobs]
    outcomes, start = [], 0
    for family in batch.families:
        members = results[start : start + len(family)]
        start += len(family)
        if members:
            outcomes.append(FamilyOutcome.stack(members, dt))
    return BatchResult(outcomes, {})
