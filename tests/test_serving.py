"""Tests: the serving subsystem (PulseService and its policy objects).

Covers the acceptance surface of the serving PR: concurrency across
devices, compile-cache hits, batching with shot-splitting, bounded
backpressure, capability failover, metrics exposition, and the
scheduler-wait regression.
"""

from __future__ import annotations

import threading
import time

import pytest

import repro
from repro.api.core import run_request
from repro.client import JobRequest, MQSSClient, RemoteDeviceProxy
from repro.compiler import JITCompiler
from repro.devices import SuperconductingDevice, TrappedIonDevice
from repro.errors import (
    BackpressureError,
    ExecutionError,
    QDMIError,
    ServiceError,
)
from repro.qdmi import QDMIDriver
from repro.qdmi.properties import JobStatus
from repro.qpi import PythonicCircuit
from repro.runtime import SecondLevelScheduler
from repro.serving import (
    CapabilityRouter,
    PulseService,
    RequestBatcher,
    ServingMetrics,
    TicketState,
)


def x_program(width: int = 2):
    c = PythonicCircuit(width, width).x(0)
    for q in range(width):
        c.measure(q, q)
    return c


class SlowDevice(SuperconductingDevice):
    """A transmon device with an artificial per-submission latency."""

    def __init__(self, name: str, delay_s: float, **kwargs) -> None:
        super().__init__(name, **kwargs)
        self.delay_s = delay_s

    def submit_jobs(self, jobs) -> None:
        time.sleep(self.delay_s)
        super().submit_jobs(jobs)


class FailingDevice(SuperconductingDevice):
    """A device whose hardware faults on every job."""

    def submit_jobs(self, jobs) -> None:
        for job in jobs:
            job.transition(JobStatus.SUBMITTED)
            job.fail("synthetic hardware fault")


def make_stack(*devices):
    driver = QDMIDriver()
    for d in devices:
        driver.register_device(d)
    return driver, MQSSClient(driver, persistent_sessions=True)


class TestTickets:
    def test_submit_returns_resolving_ticket(self):
        _, client = make_stack(SuperconductingDevice("sc-a", num_qubits=2))
        with PulseService(client) as svc:
            ticket = svc.submit(JobRequest(x_program(), "sc-a", shots=64, seed=1))
            result = ticket.result(timeout=30)
        assert ticket.done()
        assert ticket.state is TicketState.DONE
        assert sum(result.counts.values()) == 64
        assert result.device == "sc-a"
        assert ticket.wait_s is not None and ticket.wait_s >= 0.0

    def test_constructor_starts_workers_without_context_manager(self):
        # Regression: start=True must actually start the pools — the
        # context-manager path masked a missing start() call.
        _, client = make_stack(SuperconductingDevice("sc-a", num_qubits=2))
        svc = PulseService(client)
        ticket = svc.submit(JobRequest(x_program(), "sc-a", shots=8, seed=1))
        assert sum(ticket.result(timeout=30).counts.values()) == 8
        svc.stop()
        svc.start()  # a stopped service is restartable
        again = svc.submit(JobRequest(x_program(), "sc-a", shots=8, seed=1))
        assert again.result(timeout=30)
        svc.stop()

    def test_unknown_device_fails_ticket_not_submit(self):
        _, client = make_stack(SuperconductingDevice("sc-a", num_qubits=2))
        with PulseService(client) as svc:
            ticket = svc.submit(JobRequest(x_program(), "nope", shots=8))
            with pytest.raises(QDMIError):
                ticket.result(timeout=10)
            assert ticket.state is TicketState.FAILED

    def test_result_timeout_raises_service_error(self):
        _, client = make_stack(SlowDevice("sc-slow", 0.5, num_qubits=2))
        with PulseService(client) as svc:
            ticket = svc.submit(JobRequest(x_program(), "sc-slow", shots=8, seed=1))
            with pytest.raises(ServiceError):
                ticket.result(timeout=0.01)
            ticket.result(timeout=30)  # resolves eventually


class TestConcurrency:
    def test_independent_devices_execute_in_parallel(self):
        delay = 0.25
        devices = [SlowDevice(f"sc-{i}", delay, num_qubits=2) for i in range(4)]
        _, client = make_stack(*devices)
        with PulseService(client) as svc:
            t0 = time.perf_counter()
            tickets = [
                svc.submit(JobRequest(x_program(), d.name, shots=16, seed=1))
                for d in devices
            ]
            for t in tickets:
                t.result(timeout=30)
            wall = time.perf_counter() - t0
        # Serial execution would take >= 4 * delay; the four device
        # workers overlap their (GIL-releasing) executions.
        assert wall < 4 * delay * 0.7, f"no overlap: wall={wall:.3f}s"

    def test_device_queue_preserves_priority_then_fifo(self):
        _, client = make_stack(SuperconductingDevice("sc-a", num_qubits=2))
        svc = PulseService(client, start=False)
        # Distinct seeds: the two requests must not coalesce.
        low = svc.submit(JobRequest(x_program(), "sc-a", shots=8, seed=1))
        high = svc.submit(
            JobRequest(x_program(), "sc-a", shots=8, priority=5, seed=2)
        )
        svc.start()
        assert svc.flush(timeout=30)
        svc.stop()
        assert high.result().job_id < low.result().job_id


class TestCompileCache:
    def test_second_submission_skips_compilation(self):
        _, client = make_stack(SuperconductingDevice("sc-a", num_qubits=2))
        prog = x_program()
        with PulseService(client) as svc:
            svc.submit(JobRequest(prog, "sc-a", shots=8, seed=1)).result(30)
            misses = client.compiler.stats()["misses"]
            second = svc.submit(JobRequest(prog, "sc-a", shots=8, seed=1))
            second.result(30)
            assert client.compiler.stats()["misses"] == misses
            assert client.compiler.stats()["hits"] >= 1
            assert svc.metrics.get("cache_hits") >= 1

    def test_recalibration_invalidates_cache(self):
        device = SuperconductingDevice("sc-a", num_qubits=2)
        _, client = make_stack(device)
        prog = x_program()
        with PulseService(client) as svc:
            svc.submit(JobRequest(prog, "sc-a", shots=8, seed=1)).result(30)
            # Calibration write-back: the believed frequency moves, so
            # the device-state half of the cache key changes.
            device.set_frame_frequency(0, device.believed_frequency(0) + 1e6)
            svc.submit(JobRequest(prog, "sc-a", shots=8, seed=1)).result(30)
        assert client.compiler.stats()["misses"] >= 2

    def test_lru_eviction_is_bounded(self):
        driver = QDMIDriver()
        driver.register_device(SuperconductingDevice("sc-a", num_qubits=2))
        client = MQSSClient(
            driver,
            compiler=JITCompiler(max_cache_entries=1),
            persistent_sessions=True,
        )
        with PulseService(client) as svc:
            svc.submit(JobRequest(x_program(), "sc-a", shots=8, seed=1)).result(30)
            svc.submit(JobRequest(x_program(1), "sc-a", shots=8, seed=1)).result(30)
        stats = client.compiler.stats()
        assert stats["size"] == 1
        assert stats["evictions"] == 1

    def test_repeat_run_request_is_one_memo_hit(self):
        _, client = make_stack(SuperconductingDevice("sc-a", num_qubits=2))
        prog = x_program()
        run_request(client, JobRequest(prog, "sc-a", shots=8, seed=1))
        before = client.compiler.stats()
        run_request(client, JobRequest(prog, "sc-a", shots=8, seed=1))
        after = client.compiler.stats()
        assert after["hits"] == before["hits"] + 1
        assert after["misses"] == before["misses"]

    def test_direct_compile_is_a_hit_for_the_service(self):
        """A program compiled on a direct target is served from the
        same memo when a service over the same client runs it."""
        _, client = make_stack(SuperconductingDevice("sc-a", num_qubits=2))
        prog = x_program()
        target = repro.Target.from_client(client, "sc-a")
        repro.compile(repro.Program.coerce(prog), target).run(shots=8, seed=1)
        misses = client.compiler.stats()["misses"]
        hits = client.compiler.stats()["hits"]
        with PulseService(client) as svc:
            svc.submit(JobRequest(prog, "sc-a", shots=8, seed=1)).result(30)
        assert client.compiler.stats()["misses"] == misses
        assert client.compiler.stats()["hits"] == hits + 1
        assert svc.metrics.get("cache_hits") == 1


class TestBatching:
    def test_identical_requests_share_one_execution(self):
        device = SuperconductingDevice("sc-a", num_qubits=2)
        _, client = make_stack(device)
        prog = x_program()
        svc = PulseService(client, start=False)
        shots = [100, 50, 25, 25]
        tickets = [
            svc.submit(JobRequest(prog, "sc-a", shots=n, seed=7)) for n in shots
        ]
        svc.start()
        assert svc.flush(timeout=30)
        svc.stop()
        results = [t.result() for t in tickets]
        # One combined device execution with the summed shot count...
        assert len(device.executed_jobs) == 1
        assert device.executed_jobs[0].shots == sum(shots)
        # ...split back so every request gets exactly its own shots.
        for ticket, result, n in zip(tickets, results, shots):
            assert sum(result.counts.values()) == n
            assert result.shots == n
            assert ticket.group_size == len(shots)
        assert svc.metrics.get("coalesced_requests") == len(shots)

    def test_split_shots_conserve_the_combined_sample(self):
        device = SuperconductingDevice("sc-a", num_qubits=2)
        _, client = make_stack(device)
        prog = x_program()
        svc = PulseService(client, start=False)
        tickets = [
            svc.submit(JobRequest(prog, "sc-a", shots=200, seed=7))
            for _ in range(3)
        ]
        svc.start()
        assert svc.flush(timeout=30)
        svc.stop()
        combined = device.executed_jobs[0].result.counts
        merged: dict[str, int] = {}
        for t in tickets:
            for key, n in t.result().counts.items():
                merged[key] = merged.get(key, 0) + n
        assert merged == combined

    def test_distinct_seeds_do_not_coalesce(self):
        # A coalesced group executes once with a single seed; merging
        # requests that asked for different seeds would silently change
        # their deterministic counts.
        device = SuperconductingDevice("sc-a", num_qubits=2)
        _, client = make_stack(device)
        prog = x_program()
        svc = PulseService(client, start=False)
        svc.submit(JobRequest(prog, "sc-a", shots=16, seed=1))
        svc.submit(JobRequest(prog, "sc-a", shots=16, seed=2))
        svc.start()
        assert svc.flush(timeout=30)
        svc.stop()
        assert len(device.executed_jobs) == 2

    def test_distinct_programs_do_not_coalesce(self):
        device = SuperconductingDevice("sc-a", num_qubits=2)
        _, client = make_stack(device)
        svc = PulseService(client, start=False)
        svc.submit(JobRequest(x_program(), "sc-a", shots=16, seed=1))
        svc.submit(JobRequest(x_program(1), "sc-a", shots=16, seed=1))
        svc.start()
        assert svc.flush(timeout=30)
        svc.stop()
        assert len(device.executed_jobs) == 2

    def test_batcher_split_counts_rejects_overdraw(self):
        batcher = RequestBatcher()
        with pytest.raises(ValueError):
            batcher.split_counts({"00": 5}, [4, 4])

    def test_batcher_split_zero_shot_requests(self):
        batcher = RequestBatcher()
        parts = batcher.split_counts({"00": 4, "11": 4}, [0, 8, 0])
        assert parts[0] == {} and parts[2] == {}
        assert sum(parts[1].values()) == 8


class TestBackpressure:
    def test_submit_raises_when_service_full(self):
        _, client = make_stack(SuperconductingDevice("sc-a", num_qubits=2))
        svc = PulseService(client, max_pending=2, start=False)
        svc.submit(JobRequest(x_program(), "sc-a", shots=8, seed=1))
        svc.submit(JobRequest(x_program(), "sc-a", shots=8, seed=1))
        with pytest.raises(BackpressureError):
            svc.submit(JobRequest(x_program(), "sc-a", shots=8, seed=1))
        assert svc.metrics.get("rejected_backpressure") == 1
        svc.start()
        assert svc.flush(timeout=30)
        # Space freed: admission works again.
        svc.submit(JobRequest(x_program(), "sc-a", shots=8, seed=1)).result(30)
        svc.stop()

    def test_blocking_submit_waits_for_capacity(self):
        _, client = make_stack(SlowDevice("sc-slow", 0.1, num_qubits=2))
        with PulseService(client, max_pending=1) as svc:
            first = svc.submit(JobRequest(x_program(), "sc-slow", shots=8, seed=1))
            second = svc.submit(
                JobRequest(x_program(), "sc-slow", shots=8, seed=1),
                block=True,
                timeout=30,
            )
            assert first.result(30) and second.result(30)

    def test_unstarted_submit_many_past_a_device_queue_returns(self):
        """Regression: 65 requests for one device on an unstarted
        service once blocked forever on a 64-point device queue bound."""
        _, client = make_stack(SuperconductingDevice("sc-a", num_qubits=2))
        svc = PulseService(client, start=False)
        requests = [
            JobRequest(x_program(), "sc-a", shots=8, seed=i) for i in range(65)
        ]
        tickets = []
        submitter = threading.Thread(
            target=lambda: tickets.extend(svc.submit_many(requests))
        )
        submitter.start()
        submitter.join(10)
        try:
            assert not submitter.is_alive(), "submit_many never returned"
            assert len(tickets) == svc.pending == 65
            svc.start()
            assert all(t.result(timeout=30).shots == 8 for t in tickets)
        finally:
            svc.stop()

    def test_submit_after_stop_raises_service_error(self):
        _, client = make_stack(SuperconductingDevice("sc-a", num_qubits=2))
        svc = PulseService(client)
        svc.submit(JobRequest(x_program(), "sc-a", shots=8, seed=1)).result(30)
        svc.stop()
        with pytest.raises(ServiceError, match="stopped") as info:
            svc.submit(JobRequest(x_program(), "sc-a", shots=8, seed=1))
        assert not isinstance(info.value, BackpressureError)
        sweep = svc.submit_sweep(angle_sweep(n=3, shots=8, seed=1))
        for ticket in sweep.tickets:
            with pytest.raises(ServiceError, match="stopped"):
                ticket.result(timeout=0)
        assert svc.metrics.get("rejected_backpressure") == 0
        assert svc.pending == 0
        svc.start()  # a restarted service admits again
        assert svc.submit(JobRequest(x_program(), "sc-a", shots=8, seed=1)).result(30)
        svc.stop()

class TestFailover:
    def test_failed_device_retries_on_equivalent(self):
        _, client = make_stack(
            FailingDevice("sc-bad", num_qubits=2),
            SuperconductingDevice("sc-good", num_qubits=2),
        )
        with PulseService(client) as svc:
            ticket = svc.submit(JobRequest(x_program(), "sc-bad", shots=32, seed=1))
            result = ticket.result(timeout=30)
        assert result.device == "sc-good"
        assert ticket.attempts == 1
        assert svc.metrics.get("failovers") == 1
        assert sum(result.counts.values()) == 32

    def test_exhausted_failover_surfaces_the_error(self):
        _, client = make_stack(FailingDevice("sc-bad", num_qubits=2))
        with PulseService(client) as svc:
            ticket = svc.submit(JobRequest(x_program(), "sc-bad", shots=8, seed=1))
            with pytest.raises(ExecutionError):
                ticket.result(timeout=30)

    def test_router_requires_matching_capabilities(self):
        driver, _ = make_stack(
            SuperconductingDevice("sc-2q", num_qubits=2),
            SuperconductingDevice("sc-1q", num_qubits=1),
            TrappedIonDevice("ion", num_qubits=2),
        )
        router = CapabilityRouter(driver)
        # Different technology and fewer sites are both disqualifying.
        assert router.candidates(JobRequest(None, "sc-2q")) == ["sc-2q"]
        # A bigger same-technology device can stand in for a smaller one.
        assert "sc-2q" in router.candidates(JobRequest(None, "sc-1q"))

    def test_remote_proxy_counts_as_equivalent(self):
        driver, _ = make_stack(
            SuperconductingDevice("sc-a", num_qubits=2),
            RemoteDeviceProxy(SuperconductingDevice("sc-cloud", num_qubits=2)),
        )
        router = CapabilityRouter(driver)
        assert router.candidates(JobRequest(None, "sc-a")) == [
            "sc-a",
            "remote:sc-cloud",
        ]


class TestMetrics:
    def test_histogram_quantiles_bracket_samples(self):
        metrics = ServingMetrics()
        for v in (0.001, 0.002, 0.004, 0.1):
            metrics.observe("stage", v)
        hist = metrics.histogram("stage")
        assert hist.count == 4
        assert hist.quantile(0.5) >= 0.001
        assert hist.quantile(1.0) >= 0.1
        assert abs(hist.sum_value - 0.107) < 1e-9

    def test_overflow_quantile_reports_last_finite_bound(self):
        """A stage histogram is a plain ``repro.obs.Histogram``: a
        quantile in the +Inf overflow bucket gives the last finite
        bound (~134 s), not the observed max."""
        from repro.obs import Histogram
        from repro.obs.metrics import DEFAULT_TIME_BUCKETS_S

        metrics = ServingMetrics()
        metrics.observe("stage", 500.0)
        hist = metrics.histogram("stage")
        assert type(hist) is Histogram
        assert hist.max_value == 500.0
        assert hist.quantile(0.99) == DEFAULT_TIME_BUCKETS_S[-1]
        assert metrics.snapshot()["stage_p99_s"] == DEFAULT_TIME_BUCKETS_S[-1]

    def test_serving_metrics_is_thread_safe(self):
        metrics = ServingMetrics()

        def spin():
            for _ in range(500):
                metrics.incr("n")
                metrics.observe("stage", 0.001)

        threads = [threading.Thread(target=spin) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert metrics.get("n") == 4000
        assert metrics.histogram("stage").count == 4000
        assert metrics.snapshot()["stage_count"] == 4000

    def test_snapshot_sums_each_stage_once(self):
        metrics = ServingMetrics()
        metrics.incr("done", 2)
        metrics.observe("execute", 0.5)
        metrics.observe("execute", 0.25)
        metrics.histogram("idle")  # created, never observed
        hist = metrics.histogram("execute")
        assert metrics.snapshot() == {
            "done": 2.0,
            "execute_s": 0.75,
            "execute_count": 2.0,
            "execute_p50_s": hist.quantile(0.5),
            "execute_p99_s": hist.quantile(0.99),
            "idle_count": 0.0,
            "idle_p50_s": 0.0,
            "idle_p99_s": 0.0,
        }

    def test_service_snapshot_has_stage_percentiles(self):
        _, client = make_stack(SuperconductingDevice("sc-a", num_qubits=2))
        with PulseService(client) as svc:
            svc.submit(JobRequest(x_program(), "sc-a", shots=8, seed=1)).result(30)
        snap = svc.metrics.snapshot()
        assert snap["execute_count"] == 1
        assert snap["execute_p50_s"] > 0

    def test_served_request_is_one_series_set_in_exposition(self):
        from repro.obs import exposition

        _, client = make_stack(SuperconductingDevice("sc-a", num_qubits=2))
        with PulseService(client) as svc:
            svc.submit(JobRequest(x_program(), "sc-a", shots=8, seed=1)).result(30)
        text = exposition()
        label = f'service="{svc.metrics.name}"'
        mine = [line for line in text.splitlines() if label in line]
        assert 'repro_serving_events_total{name="completed",' + label in text
        families = {line.split("{")[0] for line in mine}
        assert families == {
            "repro_serving_events_total",
            "repro_serving_latency_seconds_bucket",
            "repro_serving_latency_seconds_sum",
            "repro_serving_latency_seconds_count",
        }
        for family in ("repro_serving_events_total", "repro_serving_latency_seconds"):
            assert text.count(f"# TYPE {family} ") == 1
        series = [line.rsplit(" ", 1)[0] for line in mine]
        assert len(series) == len(set(series))
        assert "repro_serving_stage_seconds_total" not in text
        assert "repro_telemetry_" not in text


class TestSchedulerWaitRegression:
    def test_wait_measures_enqueue_to_dispatch_start(self):
        _, client = make_stack(SlowDevice("sc-slow", 0.2, num_qubits=2))
        sched = SecondLevelScheduler(client)
        first = sched.enqueue(JobRequest(x_program(), "sc-slow", shots=8, seed=1))
        second = sched.enqueue(JobRequest(x_program(), "sc-slow", shots=8, seed=1))
        sched.drain()
        # The first job dispatches immediately: its wait must not
        # include its own 0.2 s execution (the old implementation
        # conflated the two).
        assert first.wait_s < 0.15
        # The second job queues behind the first's execution.
        assert second.wait_s >= 0.18

    def test_wait_clock_starts_at_enqueue_not_drain(self):
        _, client = make_stack(SuperconductingDevice("sc-a", num_qubits=2))
        sched = SecondLevelScheduler(client)
        job = sched.enqueue(JobRequest(x_program(), "sc-a", shots=8, seed=1))
        time.sleep(0.1)
        sched.drain()
        assert job.wait_s >= 0.1

    def test_drain_overlaps_independent_devices(self):
        delay = 0.2
        _, client = make_stack(
            SlowDevice("sc-a", delay, num_qubits=2),
            SlowDevice("sc-b", delay, num_qubits=2),
        )
        sched = SecondLevelScheduler(client)
        sched.enqueue(JobRequest(x_program(), "sc-a", shots=8, seed=1))
        sched.enqueue(JobRequest(x_program(), "sc-b", shots=8, seed=1))
        report = sched.drain()
        assert report.completed == 2
        assert report.total_wall_s < 2 * delay * 0.9


class TestSchedulerContract:
    def test_identical_jobs_each_execute_once_in_schedule_order(self):
        """Identical requests (same program, same seed) drain as one
        device execution and one ``_before_dispatch`` call each, in
        (priority, arrival) order: the scheduler never coalesces."""
        events: list[tuple[str, int]] = []

        class CountingDevice(SuperconductingDevice):
            def submit_jobs(self, jobs) -> None:
                events.append(("execute", len(jobs)))
                super().submit_jobs(jobs)

        class Recording(SecondLevelScheduler):
            def _before_dispatch(self, job, report):
                events.append(("dispatch", job.arrival))

        device = CountingDevice("sc-a", num_qubits=2)
        _, client = make_stack(device)
        sched = Recording(client)
        priorities = [0, 2, 1, 2, 0, 1]
        jobs = [
            sched.enqueue(
                JobRequest(x_program(), "sc-a", shots=8, seed=7, priority=p)
            )
            for p in priorities
        ]
        report = sched.drain()
        order = sorted(range(len(jobs)), key=lambda i: (-priorities[i], i))
        assert report.completed == len(jobs)
        assert len(device.executed_jobs) == len(jobs)
        assert events == [
            event for i in order for event in (("dispatch", i), ("execute", 1))
        ]
        ids = [jobs[i].result.job_id for i in order]
        assert ids == sorted(ids)


class CancellingDevice(SuperconductingDevice):
    """Runs a hook (the test's cancels) as each batch reaches the device."""

    on_submit = None

    def submit_jobs(self, jobs) -> None:
        if self.on_submit is not None:
            self.on_submit()
        super().submit_jobs(jobs)


def angle_sweep(device: str = "sc-a", n: int = 6, **kwargs):
    from repro.serving import SweepRequest

    def build(i):
        c = PythonicCircuit(2, 2).sx(0).rz(0, 0.3 * i).sx(0)
        return c.measure(0, 0).measure(1, 1)

    return SweepRequest(build=build, parameters=list(range(n)), device=device, **kwargs)


class TestBatchedSweeps:
    """A sweep is one queue entry and one batched device execution."""

    def test_sweep_is_one_execution(self):
        device = SuperconductingDevice("sc-a", num_qubits=2)
        _, client = make_stack(device)
        with PulseService(client) as svc:
            ticket = svc.submit_sweep(angle_sweep(shots=32, seed=4))
            results = ticket.results(30)
        assert len(results) == 6
        assert svc.metrics.snapshot()["execute_count"] == 1
        assert svc.metrics.get("submitted") == 6
        assert svc.metrics.get("completed") == 6
        # Every point is its own device job with its own seeded stream.
        assert len(device.executed_jobs) == 6
        assert all(job.metadata["seed"] == 4 for job in device.executed_jobs)

    def test_primitive_run_is_one_execution_per_shot_group(self):
        import repro
        from repro.primitives import Sampler

        device = SuperconductingDevice("sc-a", num_qubits=2)
        _, client = make_stack(device)
        programs = [
            repro.Program.from_circuit(x_program()),
            repro.Program.from_circuit(PythonicCircuit(2, 2).measure(0, 0)),
        ]
        with PulseService(client) as svc:
            sampler = Sampler(repro.Target.from_service(svc, "sc-a"), seed=1)
            sampler.run(programs + programs, shots=16)
            assert svc.metrics.snapshot()["execute_count"] == 1
            sampler.run([(p, None, 8) for p in programs] + programs, shots=16)
            assert svc.metrics.snapshot()["execute_count"] == 3
        assert svc.metrics.get("sweeps") == 3

    def test_partly_cancelled_sweep(self):
        device = SuperconductingDevice("sc-a", num_qubits=2)
        _, client = make_stack(device)
        svc = PulseService(client, start=False)
        ticket = svc.submit_sweep(angle_sweep(shots=16, seed=2))
        for i in (1, 4):
            assert ticket.tickets[i].cancel()
        # Queued points drop out of their entry at once.
        assert ticket.tickets[1].status() is TicketState.CANCELLED
        assert svc.pending == 4
        svc.start()
        assert svc.flush(timeout=30)
        svc.stop()
        states = [t.status() for t in ticket.tickets]
        assert states == [
            TicketState.CANCELLED if i in (1, 4) else TicketState.DONE
            for i in range(6)
        ]
        assert ticket.status() is TicketState.CANCELLED
        assert len(device.executed_jobs) == 4

    def test_fully_cancelled_sweep_never_executes(self):
        device = SuperconductingDevice("sc-a", num_qubits=2)
        _, client = make_stack(device)
        svc = PulseService(client, start=False)
        ticket = svc.submit_sweep(angle_sweep(shots=16, seed=2))
        assert ticket.cancel()
        svc.start()
        assert svc.flush(timeout=30)
        svc.stop()
        assert all(t.status() is TicketState.CANCELLED for t in ticket.tickets)
        assert device.executed_jobs == ()
        assert svc.metrics.get("cancelled") == 6

    def test_running_sweep_aborts_only_when_every_point_cancels(self):
        device = CancellingDevice("sc-a", num_qubits=2)
        _, client = make_stack(device)

        def run(cancel):
            svc = PulseService(client, start=False)
            ticket = svc.submit_sweep(angle_sweep(shots=16, seed=2))
            device.on_submit = lambda: cancel(ticket)
            svc.start()
            assert svc.flush(timeout=30)
            svc.stop()
            return [t.status() for t in ticket.tickets]

        # One vote is not enough: the batch runs, every point resolves.
        assert run(lambda t: t.tickets[0].cancel()) == [TicketState.DONE] * 6
        # Every point voted: the batch aborts at its next chunk boundary.
        assert run(lambda t: t.cancel()) == [TicketState.CANCELLED] * 6

    def test_sweep_larger_than_max_pending_completes(self):
        device = SuperconductingDevice("sc-a", num_qubits=2)
        _, client = make_stack(device)
        with PulseService(client, max_pending=4) as svc:
            ticket = svc.submit_sweep(angle_sweep(n=10, shots=16, seed=2))
            results = ticket.results(60)
        assert len(results) == 10
        assert all(sum(r.counts.values()) == 16 for r in results)
        # Admitted in chunks of at most max_pending points.
        assert svc.metrics.snapshot()["execute_count"] >= 3

    def test_concurrent_sweeps_and_cancels_balance_admission(self):
        import sys

        _, client = make_stack(SuperconductingDevice("sc-a", num_qubits=2))
        svc = PulseService(client, max_pending=8)
        sweeps = []
        lock = threading.Lock()

        def drive(k):
            for j in range(3):
                sweep = svc.submit_sweep(angle_sweep(n=5, shots=8, seed=k))
                sweep.tickets[j].cancel()
                with lock:
                    sweeps.append(sweep)

        threads = [threading.Thread(target=drive, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
                assert not t.is_alive()
            assert svc.flush(timeout=60)
        finally:
            sys.setswitchinterval(interval)
            svc.stop()
        # Every point released exactly one admission slot.
        assert svc.pending == 0
        assert len(sweeps) == 12
        for sweep in sweeps:
            assert all(t.status().terminal for t in sweep.tickets)

    def test_noise_grid_points_keep_their_decoherence(self):
        from repro.serving import SweepRequest
        from repro.sim.model import DecoherenceSpec

        device = SuperconductingDevice("sc-a", num_qubits=1)
        _, client = make_stack(device)
        program = PythonicCircuit(1, 1).x(0).measure(0, 0)
        grid = [(5e-6, 5e-6), (20e-6, 10e-6), (80e-6, 40e-6)]
        sweep = SweepRequest.noise_grid(
            program,
            "sc-a",
            t1_values=[t1 for t1, _ in grid],
            t2_values=sorted({t2 for _, t2 in grid}),
            n_sites=1,
            shots=0,
            seed=3,
        )
        with PulseService(client) as svc:
            results = svc.submit_sweep(sweep).results(60)
        assert svc.metrics.snapshot()["execute_count"] == 1
        schedule = client.compile_request(JobRequest(program, "sc-a")).schedule
        for point, result in zip(sweep.parameters, results):
            spec = (DecoherenceSpec(t1=point[0], t2=point[1]),)
            expected = device._executor_for(spec).execute(schedule, shots=0)
            assert result.probabilities == expected.ideal_probabilities
        assert len({r.probabilities["1"] for r in results}) == len(results)

    def test_sweep_entry_fails_over_with_its_live_points(self):
        _, client = make_stack(
            FailingDevice("sc-bad", num_qubits=2),
            SuperconductingDevice("sc-good", num_qubits=2),
        )
        svc = PulseService(client, start=False)
        ticket = svc.submit_sweep(angle_sweep("sc-bad", shots=16, seed=2))
        ticket.tickets[2].cancel()
        svc.start()
        assert svc.flush(timeout=30)
        svc.stop()
        assert svc.metrics.get("failovers") == 1
        for i, t in enumerate(ticket.tickets):
            if i == 2:
                assert t.status() is TicketState.CANCELLED
            else:
                assert t.result().device == "sc-good"
                assert t.attempts == 1
