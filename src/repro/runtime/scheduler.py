"""The second-level scheduler and calibration-aware planning.

MQSS's QRM&CI "encompasses MQSS's second-level scheduler" (Fig. 2); the
pulse extension's calibration use case (§2.1) asks that "QC service
providers, like HPC centers ... dynamically schedule calibrations based
on anticipated demand", enabling "resource-aware calibration planning".

:class:`SecondLevelScheduler` orders queued jobs by (priority, arrival)
and drains them through the serving layer: :meth:`drain` builds a
:class:`~repro.serving.service.PulseService` over the client, so
independent devices execute concurrently while each device's queue
keeps priority+FIFO order. Request coalescing and failover are
disabled in this mode — the scheduler promises one device execution
per queued job, in schedule order, which the calibration-aware
subclass depends on.

:class:`CalibrationAwareScheduler` additionally tracks a drift budget
per device — wall-clock since last calibration times the device's drift
rate — and interleaves a calibration callback whenever the predicted
frequency error crosses a threshold, amortizing it before batches
rather than mid-stream. The hook runs on the thread that executes the
job — the device's worker, or the draining caller when the job heads
an idle queue — serialized per device by the pool's one execution
slot.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.client.client import ClientResult, JobRequest, MQSSClient


@dataclass(order=True)
class ScheduledJob:
    """A queued request with scheduling metadata."""

    sort_key: tuple = field(init=False, repr=False)
    request: JobRequest = field(compare=False)
    arrival: int = field(compare=False, default=0)
    result: ClientResult | None = field(compare=False, default=None)
    #: Stamped when the job enters the queue; the wait clock starts here.
    enqueued_at: float = field(compare=False, default=0.0)
    #: Time from enqueue to dispatch-start (pure queueing delay; it does
    #: not include the job's own execution).
    wait_s: float = field(compare=False, default=0.0)

    def __post_init__(self) -> None:
        self.sort_key = (-self.request.priority, self.arrival)


@dataclass
class SchedulerReport:
    """Outcome of draining the queue."""

    completed: int = 0
    failed: int = 0
    calibrations: int = 0
    total_wall_s: float = 0.0
    per_device_jobs: dict[str, int] = field(default_factory=dict)
    mean_wait_s: float = 0.0


class SecondLevelScheduler:
    """Priority + FIFO scheduling of client requests over devices."""

    def __init__(self, client: MQSSClient) -> None:
        self.client = client
        self._queue: list[ScheduledJob] = []
        self._arrivals = 0

    def enqueue(self, request: JobRequest) -> ScheduledJob:
        """Queue a request; returns its scheduling handle."""
        job = ScheduledJob(
            request=request,
            arrival=self._arrivals,
            enqueued_at=time.perf_counter(),
        )
        self._arrivals += 1
        self._queue.append(job)
        return job

    @property
    def pending(self) -> int:
        return len(self._queue)

    def _before_dispatch(self, job: ScheduledJob, report: SchedulerReport) -> None:
        """Hook for subclasses (calibration interleaving).

        Called on the thread that executes the job (its device's
        worker, or the draining caller), immediately before the job
        executes; calls are serialized per device (and globally
        serialized by the drain-wide hook lock)."""

    def _make_service(self, capacity: int):
        """The PulseService drain() executes through (one per drain)."""
        from repro.serving import (
            CapabilityRouter,
            PulseService,
            RequestBatcher,
        )

        return PulseService(
            self.client,
            router=CapabilityRouter(self.client.driver, allow_failover=False),
            batcher=RequestBatcher(enabled=False),
            max_pending=max(1, capacity),
            per_device_pending=None,
            # One worker per device: the _before_dispatch contract
            # (hook + execution serialized per device, schedule order
            # preserved) requires it.
            workers_per_device=1,
            start=False,
        )

    def drain(self) -> SchedulerReport:
        """Run every queued job to completion, in schedule order."""
        report = SchedulerReport()
        t_start = time.perf_counter()
        queue = sorted(self._queue)
        self._queue.clear()

        service = self._make_service(len(queue))
        jobs_by_ticket: dict[Any, ScheduledJob] = {}
        hook_lock = threading.Lock()

        def hook(entry) -> None:
            job = jobs_by_ticket[entry.tickets[0]]
            with hook_lock:
                self._before_dispatch(job, report)

        service.before_execute = hook

        # Queue everything before the workers start, so each device
        # pool sees the full (priority, arrival) order up front.
        pairs = []
        for job in queue:
            ticket = service.submit(job.request)
            jobs_by_ticket[ticket] = job
            pairs.append((job, ticket))
        service.start()
        try:
            for job, ticket in pairs:
                error = ticket.exception()
                if error is None:
                    job.result = ticket.result()
                    report.completed += 1
                    dev = job.result.device
                    report.per_device_jobs[dev] = (
                        report.per_device_jobs.get(dev, 0) + 1
                    )
                else:
                    report.failed += 1
                if ticket.dispatched_at is not None:
                    job.wait_s = max(0.0, ticket.dispatched_at - job.enqueued_at)
        finally:
            service.stop()

        report.total_wall_s = time.perf_counter() - t_start
        waits = [j.wait_s for j in queue]
        report.mean_wait_s = sum(waits) / len(waits) if waits else 0.0
        return report


class CalibrationAwareScheduler(SecondLevelScheduler):
    """Interleaves calibrations when a device's drift budget is spent.

    A thin layer over the pipeline subsystem: the drift-budget
    arithmetic lives in
    :class:`repro.pipeline.triggers.DriftBudgetTrigger` (exposed here
    as :attr:`trigger`, whose ``clock`` holds each device's seconds
    since its last calibration), and each firing executes the
    calibration callback as a one-task pipeline DAG through
    :class:`~repro.pipeline.runner.PipelineRunner` — so interleaved
    recalibrations appear in the same ``repro_pipeline_*`` metrics and
    trace spans as any other scheduled calibration workload.

    Parameters
    ----------
    client:
        The MQSS client used for execution.
    calibrate:
        Callback ``calibrate(device_name) -> None`` that runs the
        calibration routine (typically a
        :func:`repro.pipeline.frequency_tracking_dag` run, whose
        ``writeback`` tasks commit the corrected frames).
    error_budget_hz:
        Predicted frequency error at which calibration is triggered.
    job_seconds:
        Simulated wall-clock seconds of device time per user job (the
        drift clock advanced between jobs).
    """

    def __init__(
        self,
        client: MQSSClient,
        calibrate: Callable[[str], None],
        *,
        error_budget_hz: float = 50e3,
        job_seconds: float = 10.0,
    ) -> None:
        super().__init__(client)
        from repro.pipeline.triggers import DriftBudgetTrigger

        self.calibrate = calibrate
        self.error_budget_hz = error_budget_hz
        self.job_seconds = job_seconds
        self.trigger = DriftBudgetTrigger(error_budget_hz)

    def _run_calibration(self, name: str) -> None:
        """Execute the calibration callback as a pipeline DAG run."""
        from repro.client.remote import RemoteDeviceProxy
        from repro.errors import PipelineError
        from repro.pipeline.dag import DAG
        from repro.pipeline.runner import PipelineRunner

        device = self.client.driver.get_device(name)
        if isinstance(device, RemoteDeviceProxy):
            device = device.inner
        dag = DAG(f"recalibrate-{name}")
        dag.task("calibrate", "callback")
        runner = PipelineRunner(
            device, extras={"callback": lambda: self.calibrate(name)}
        )
        run = runner.run(dag)
        if not run.ok:
            raise PipelineError(
                f"interleaved recalibration of {name!r} failed: {run.error}"
            )

    def _before_dispatch(self, job: ScheduledJob, report: SchedulerReport) -> None:
        name = job.request.device
        device = self.client.driver.get_device(name)
        from repro.client.remote import RemoteDeviceProxy

        if isinstance(device, RemoteDeviceProxy):
            device = device.inner
        if not hasattr(device, "advance_time"):
            return
        # Device time passes (drift accumulates) between jobs.
        device.advance_time(self.job_seconds)
        if self.trigger.note_elapsed(name, device, self.job_seconds):
            self._run_calibration(name)
            report.calibrations += 1
            self.trigger.reset(name)
