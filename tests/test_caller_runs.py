"""Tests: a thread blocked on a PulseService ticket runs the entry itself.

An unbounded wait (``result()`` or ``wait()``) on a
ticket whose entry heads its started pool's queue, while no group of
the pool runs, pops the entry with its coalescing mates and runs
``PulseService._execute_group`` on the waiting thread. A bounded
wait, a pool that is not started, or a busy pool leaves the entry to
the worker.

Whether the caller or the woken worker reaches an entry first is a GIL
race that the caller wins unless it loses the GIL between the offer
and its wait. The ``long_switch_interval`` fixture keeps a loaded host
from forcing that switch, so the tests below see the same outcome on
every run.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

import repro
from repro.client import JobRequest, MQSSClient
from repro.devices import SuperconductingDevice
from repro.errors import CancelledError, ServiceError
from repro.pipeline import PipelineRunner, full_calibration_dag
from repro.qdmi import QDMIDriver
from repro.qdmi.properties import JobStatus
from repro.qpi import PythonicCircuit
from repro.serving import PulseService, TicketState
from repro.sim.precision import use_dtype


def x_program():
    return PythonicCircuit(2, 2).x(0).measure(0, 0).measure(1, 1)


def make_stack(*devices):
    driver = QDMIDriver()
    for d in devices:
        driver.register_device(d)
    return MQSSClient(driver, persistent_sessions=True)


class FailingDevice(SuperconductingDevice):
    """A device whose hardware faults on every job."""

    def submit_jobs(self, jobs) -> None:
        for job in jobs:
            job.transition(JobStatus.SUBMITTED)
            job.fail("synthetic hardware fault")


class HookedDevice(SuperconductingDevice):
    """Runs ``on_submit`` as each batch reaches the device."""

    on_submit = None

    def submit_jobs(self, jobs) -> None:
        if self.on_submit is not None:
            self.on_submit()
        super().submit_jobs(jobs)


@pytest.fixture
def long_switch_interval():
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1.0)
    try:
        yield
    finally:
        sys.setswitchinterval(previous)


@pytest.fixture
def runs_on(monkeypatch):
    """The thread of every ``_execute_group`` call, in call order."""
    threads: list[threading.Thread] = []
    execute = PulseService._execute_group

    def spy(self, pool, group):
        threads.append(threading.current_thread())
        return execute(self, pool, group)

    monkeypatch.setattr(PulseService, "_execute_group", spy)
    return threads


class TestWhereWorkRuns:
    def test_a_calibration_op_runs_every_group_on_the_waiting_thread(
        self, runs_on, long_switch_interval
    ):
        device = SuperconductingDevice("cal", num_qubits=1, seed=5, drift_rate=2e4)
        client = make_stack(device)
        service = PulseService(client)
        try:
            runner = PipelineRunner(service, device=device)
            for seed in (1, 2):
                device.advance_time(60.0)
                run = runner.run(full_calibration_dag(include_drag=False), seed=seed)
                assert run.ok, run.error
        finally:
            service.stop()
            client.close()
        # Three scans per op (Rabi, readout, Ramsey), each one group.
        assert len(runs_on) == 6
        assert all(t is threading.current_thread() for t in runs_on)

    def test_a_caller_scope_does_not_reach_work_it_runs(
        self, runs_on, long_switch_interval
    ):
        """Work a waiting caller runs sees the context a worker thread
        starts with: a ``use_dtype`` scope around the wait is not it."""
        device = SuperconductingDevice("sc-a", num_qubits=2, drift_rate=0.0)
        direct = repro.compile(
            repro.Program.from_circuit(x_program()), repro.Target.from_device(device)
        )
        with use_dtype("complex64"):
            direct64 = direct.run(shots=0).probabilities
        client = make_stack(device)
        service = PulseService(client)
        request = JobRequest(x_program(), "sc-a", shots=0)
        try:
            plain = service.submit(request).result(timeout=30).probabilities
            del runs_on[:]
            with use_dtype("complex64"):
                scoped = service.submit(request).result().probabilities
        finally:
            service.stop()
            client.close()
        assert runs_on == [threading.current_thread()]
        assert scoped == plain
        assert direct64 != plain  # the scope does switch a direct run

    def test_an_unstarted_service_never_runs_inline(self, runs_on):
        client = make_stack(SuperconductingDevice("sc-a", num_qubits=2))
        service = PulseService(client, start=False)
        try:
            ticket = service.submit(JobRequest(x_program(), "sc-a", shots=8, seed=1))
            with pytest.raises(ServiceError):
                ticket.result(timeout=0.05)
            # An unbounded wait before start() holds too: it waits.
            waiter = threading.Thread(target=ticket.wait)
            waiter.start()
            waiter.join(0.1)
            assert waiter.is_alive() and runs_on == []
            assert ticket.status() is TicketState.PENDING
            service.start()
            waiter.join(30)
            assert not waiter.is_alive()
            assert ticket.status() is TicketState.DONE
            assert runs_on[0] not in (threading.current_thread(), waiter)
            # A bounded wait on a started service never runs work.
            bounded = service.submit(
                JobRequest(x_program(), "sc-a", shots=8, seed=2)
            )
            assert bounded.result(timeout=30).shots == 8
            assert runs_on[1] is not threading.current_thread()
        finally:
            service.stop()
            client.close()


class TestOneGroupPerDevice:
    def test_a_busy_worker_keeps_executions_in_queue_order(self, monkeypatch):
        """Each group holds its pool's one slot for a while after it
        resolves its ticket, so the caller, woken by that ticket, finds
        its next entry at the queue head while the worker is still
        busy: it must wait, not run the entry beside the worker."""
        from repro.serving.workers import DevicePool

        events: list[tuple[str, int]] = []
        lock = threading.Lock()
        tried_while_busy = []
        execute = PulseService._execute_group
        run_here = DevicePool.run_here

        def note(kind, i):
            with lock:
                events.append((kind, i))

        def slow_execute(self, pool, group):
            i = group[0].request.metadata["i"]
            note("start", i)
            execute(self, pool, group)
            time.sleep(0.03)  # tickets resolved; the slot is still held
            note("end", i)

        def spy_run_here(self, entry):
            busy = self._busy
            ran = run_here(self, entry)
            if busy:
                tried_while_busy.append(ran)
            return ran

        monkeypatch.setattr(PulseService, "_execute_group", slow_execute)
        monkeypatch.setattr(DevicePool, "run_here", spy_run_here)

        client = make_stack(SuperconductingDevice("sc-a", num_qubits=2))
        service = PulseService(client, start=False)
        priorities = [0, 2, 1, 2, 0, 1]
        tickets = [
            service.submit(
                JobRequest(
                    x_program(), "sc-a", shots=8, seed=i, priority=priority,
                    metadata={"i": i},
                )
            )
            for i, priority in enumerate(priorities)
        ]
        order = sorted(range(len(priorities)), key=lambda i: (-priorities[i], i))
        service.start()
        try:
            for i in order:
                assert tickets[i].result().shots == 8
        finally:
            service.stop()
            client.close()
        assert events == [(kind, i) for i in order for kind in ("start", "end")]
        # The caller did try while the worker held the slot, and waited.
        assert False in tried_while_busy


class TestCallerRunEdgeCases:
    def test_a_caller_run_group_cancelled_from_another_thread(
        self, runs_on, long_switch_interval
    ):
        device = HookedDevice("sc-a", num_qubits=2)
        client = make_stack(device)
        service = PulseService(client)
        try:
            ticket = service.submit(JobRequest(x_program(), "sc-a", shots=8, seed=1))

            def cancel_elsewhere():
                other = threading.Thread(target=ticket.cancel)
                other.start()
                other.join()

            device.on_submit = cancel_elsewhere
            with pytest.raises(CancelledError):
                ticket.result()
        finally:
            service.stop()
            client.close()
        assert runs_on == [threading.current_thread()]
        assert ticket.status() is TicketState.CANCELLED
        assert service.metrics.get("cancelled") == 1
        assert service.pending == 0

    def test_a_caller_run_group_fails_over_and_resolves_on_the_fallback(
        self, runs_on, long_switch_interval
    ):
        client = make_stack(
            FailingDevice("sc-bad", num_qubits=2),
            SuperconductingDevice("sc-good", num_qubits=2),
        )
        service = PulseService(client)
        try:
            # Start the fallback pool first: its worker is idle when the
            # failover re-offers the entry.
            service.submit(
                JobRequest(x_program(), "sc-good", shots=8, seed=1)
            ).result(timeout=30)
            del runs_on[:]
            ticket = service.submit(
                JobRequest(x_program(), "sc-bad", shots=32, seed=1)
            )
            result = ticket.result()
        finally:
            service.stop()
            client.close()
        assert result.device == "sc-good"
        assert ticket.attempts == 1
        assert sum(result.counts.values()) == 32
        assert service.metrics.get("failovers") == 1
        # The caller ran the failed attempt, then the retry.
        assert runs_on == [threading.current_thread()] * 2
