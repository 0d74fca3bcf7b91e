"""The second-level scheduler and calibration-aware planning.

MQSS's QRM&CI "encompasses MQSS's second-level scheduler" (Fig. 2); the
pulse extension's calibration use case (§2.1) asks that "QC service
providers, like HPC centers ... dynamically schedule calibrations based
on anticipated demand", enabling "resource-aware calibration planning".

:class:`SecondLevelScheduler` orders queued jobs by (priority, arrival)
and :meth:`~SecondLevelScheduler.drain` runs them through the client:
each device's jobs run in that order on one lane, and independent
devices' lanes run concurrently (the draining thread runs one, each
further device gets its own thread). The scheduler promises one device
execution per queued job, on its requested device, in schedule order,
which the calibration-aware subclass depends on.

:class:`CalibrationAwareScheduler` additionally tracks a drift budget
per device — wall-clock since last calibration times the device's drift
rate — and interleaves a calibration callback whenever the predicted
frequency error crosses a threshold, amortizing it before batches
rather than mid-stream. The hook runs on the job's lane, right before
the job, under the drain-wide lock.
"""

from __future__ import annotations

import contextvars
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

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

        Called on the job's lane immediately before the job compiles
        and executes, under the drain-wide lock; an exception fails
        the job."""

    def drain(self) -> SchedulerReport:
        """Run every queued job to completion, in schedule order.

        Jobs are split into one lane per requested device, each in
        (priority, arrival) order. The calling thread runs the first
        lane and each further lane runs on its own thread, so
        independent devices execute concurrently. Every lane runs in a
        copy of the caller's context (a ``use_dtype`` scope around
        ``drain()`` reaches every job).
        """
        report = SchedulerReport()
        t_start = time.perf_counter()
        queue = sorted(self._queue)
        self._queue.clear()
        lanes: dict[str, list[ScheduledJob]] = {}
        for job in queue:
            lanes.setdefault(job.request.device, []).append(job)
        lock = threading.Lock()

        def run_lane(jobs: list[ScheduledJob]) -> None:
            for job in jobs:
                job.wait_s = max(0.0, time.perf_counter() - job.enqueued_at)
                try:
                    with lock:
                        self._before_dispatch(job, report)
                    program = self.client.compile_request(job.request)
                    job.result = self.client.execute_compiled(job.request, program)
                except Exception:
                    with lock:
                        report.failed += 1
                    continue
                with lock:
                    report.completed += 1
                    device = job.result.device
                    report.per_device_jobs[device] = (
                        report.per_device_jobs.get(device, 0) + 1
                    )

        first, *rest = list(lanes.values()) or [[]]
        threads = [
            threading.Thread(
                target=contextvars.copy_context().run,
                args=(run_lane, jobs),
                name=f"drain-{jobs[0].request.device}",
            )
            for jobs in rest
        ]
        for thread in threads:
            thread.start()
        run_lane(first)
        for thread in threads:
            thread.join()

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
