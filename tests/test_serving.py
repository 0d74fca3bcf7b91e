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

from repro.api.core import run_request
from repro.client import JobRequest, MQSSClient, RemoteDeviceProxy
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
    CompileCache,
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
    """A transmon device with an artificial per-job latency."""

    def __init__(self, name: str, delay_s: float, **kwargs) -> None:
        super().__init__(name, **kwargs)
        self.delay_s = delay_s

    def submit_job(self, job) -> None:
        time.sleep(self.delay_s)
        super().submit_job(job)


class FailingDevice(SuperconductingDevice):
    """A device whose hardware faults on every job."""

    def submit_job(self, job) -> None:
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
            assert isinstance(ticket.exception(timeout=10), QDMIError)
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
        svc = PulseService(client, batcher=RequestBatcher(enabled=False), start=False)
        low = svc.submit(JobRequest(x_program(), "sc-a", shots=8, seed=1))
        high = svc.submit(
            JobRequest(x_program(), "sc-a", shots=8, priority=5, seed=1)
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
            compilations = client.compiler.stats["compilations"]
            second = svc.submit(JobRequest(prog, "sc-a", shots=8, seed=1))
            second.result(30)
            assert client.compiler.stats["compilations"] == compilations
            assert svc.cache.stats["hits"] >= 1
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
        assert svc.cache.stats["misses"] >= 2

    def test_lru_eviction_is_bounded(self):
        device = SuperconductingDevice("sc-a", num_qubits=2)
        _, client = make_stack(device)
        cache = CompileCache(max_entries=1)
        with PulseService(client, compile_cache=cache) as svc:
            svc.submit(JobRequest(x_program(), "sc-a", shots=8, seed=1)).result(30)
            svc.submit(JobRequest(x_program(1), "sc-a", shots=8, seed=1)).result(30)
        assert len(cache) == 1
        assert cache.stats["evictions"] == 1

    def test_client_compile_cache_hook(self):
        _, client = make_stack(SuperconductingDevice("sc-a", num_qubits=2))
        client.compile_cache = CompileCache()
        prog = x_program()
        run_request(client, JobRequest(prog, "sc-a", shots=8, seed=1))
        run_request(client, JobRequest(prog, "sc-a", shots=8, seed=1))
        assert client.compile_cache.stats["hits"] == 1
        # The compiler's internal memo was bypassed entirely.
        assert client.compiler.stats["cache_hits"] == 0


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

    def test_full_device_queue_spills_to_equivalent(self):
        sc_a = SlowDevice("sc-a", 0.05, num_qubits=2)
        sc_b = SuperconductingDevice("sc-b", num_qubits=2)
        _, client = make_stack(sc_a, sc_b)
        svc = PulseService(client, per_device_pending=1, start=False)
        t1 = svc.submit(JobRequest(x_program(), "sc-a", shots=8, seed=1))
        t2 = svc.submit(JobRequest(x_program(), "sc-a", shots=8, seed=1))
        svc.start()
        assert svc.flush(timeout=30)
        svc.stop()
        assert svc.metrics.get("spills") == 1
        devices = {t1.result().device, t2.result().device}
        assert devices == {"sc-a", "sc-b"}


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
            assert isinstance(ticket.exception(timeout=30), ExecutionError)

    def test_failover_disabled_pins_the_device(self):
        driver, client = make_stack(
            FailingDevice("sc-bad", num_qubits=2),
            SuperconductingDevice("sc-good", num_qubits=2),
        )
        router = CapabilityRouter(driver, allow_failover=False)
        with PulseService(client, router=router) as svc:
            ticket = svc.submit(JobRequest(x_program(), "sc-bad", shots=8, seed=1))
            assert isinstance(ticket.exception(timeout=30), ExecutionError)

    def test_router_requires_matching_capabilities(self):
        driver, _ = make_stack(
            SuperconductingDevice("sc-2q", num_qubits=2),
            SuperconductingDevice("sc-1q", num_qubits=1),
            TrappedIonDevice("ion", num_qubits=2),
        )
        router = CapabilityRouter(driver, max_candidates=5)
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
        assert abs(hist.sum_s - 0.107) < 1e-9

    def test_render_text_exposition(self):
        metrics = ServingMetrics()
        metrics.incr("completed", 3)
        metrics.observe("execute", 0.01)
        text = metrics.render_text()
        assert "serving_completed 3" in text
        assert 'serving_latency_seconds_bucket{stage="execute",le="+Inf"} 1' in text
        assert 'serving_latency_seconds_count{stage="execute"} 1' in text

    def test_telemetry_is_thread_safe(self):
        from repro.runtime import Telemetry

        telemetry = Telemetry()

        def spin():
            for _ in range(500):
                telemetry.incr("n")

        threads = [threading.Thread(target=spin) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert telemetry.get("n") == 4000

    def test_service_snapshot_has_stage_percentiles(self):
        _, client = make_stack(SuperconductingDevice("sc-a", num_qubits=2))
        with PulseService(client) as svc:
            svc.submit(JobRequest(x_program(), "sc-a", shots=8, seed=1)).result(30)
        snap = svc.metrics.snapshot()
        assert snap["execute_count"] == 1
        assert snap["execute_p50_s"] > 0


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
