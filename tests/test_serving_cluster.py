"""Tests: durable multi-process serving and the unified ticket surface.

Covers the acceptance surface of the cluster PR: the SQLite job store
(atomic leases, heartbeat expiry, cancel votes, assembly claims), the
shared-memory result transport, the process worker pool end to end,
crash durability (SIGKILL mid-job, restart against an existing store),
cooperative cancellation through the executor's chunk boundaries, the
``connect()``/HTTP tier with bit-identical results, and pool-wide
metrics exposition with a ``worker`` label.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import time
import urllib.request

import numpy as np
import pytest

from repro.client import JobRequest, MQSSClient
from repro.devices import SuperconductingDevice
from repro.errors import (
    CancelledError,
    ExecutionError,
    ServiceError,
)
from repro.qdmi import QDMIDriver
from repro.qdmi.properties import JobStatus
from repro.qpi import PythonicCircuit
from repro.serving import (
    ClusterService,
    JobStore,
    PulseService,
    Ticket,
    TicketState,
    connect,
)
from repro.serving import shm as shm_mod
from repro.serving import wire
from repro.serving.cluster import join_results, split_results
from repro.serving.http import HttpServiceClient, serve_http


def x_program(width: int = 2):
    c = PythonicCircuit(width, width).x(0)
    for q in range(width):
        c.measure(q, q)
    return c


def make_client(*, delay_s: float = 0.0, name: str = "sc-a") -> MQSSClient:
    driver = QDMIDriver()
    if delay_s > 0.0:
        driver.register_device(SlowDevice(name, delay_s, num_qubits=2))
    else:
        driver.register_device(SuperconductingDevice(name, num_qubits=2))
    return MQSSClient(driver, persistent_sessions=True)


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


def request(seed: int = 1, shots: int = 32, device: str = "sc-a") -> JobRequest:
    return JobRequest(x_program(), device, shots=shots, seed=seed)


@pytest.fixture
def store_path(tmp_path) -> str:
    return str(tmp_path / "jobs.sqlite3")


# ---- wire + shm codecs ---------------------------------------------------------------


class TestWire:
    def test_request_round_trip(self):
        req = request(seed=7, shots=99)
        req.metadata["tag"] = "t"
        back = wire.decode_request(wire.encode_request(req))
        assert back.device == req.device
        assert back.shots == 99
        assert back.seed == 7
        assert back.metadata["tag"] == "t"
        # The program survives (pickle blob) and compiles identically.
        client = make_client()
        a = client.execute_compiled(req, client.compile_request(req))
        b = client.execute_compiled(back, client.compile_request(back))
        assert a.counts == b.counts

    def test_result_round_trip_is_exact(self):
        client = make_client()
        req = request(seed=3)
        result = client.execute_compiled(req, client.compile_request(req))
        back = wire.decode_result(wire.encode_result(result))
        assert back.counts == result.counts
        assert back.probabilities == result.probabilities  # bit-identical
        assert back.shots == result.shots

    def test_error_round_trip_restores_type(self):
        err = wire.decode_error(wire.encode_error(ExecutionError("device fault")))
        assert isinstance(err, ExecutionError)
        assert "device fault" in str(err)
        cancelled = wire.decode_error(wire.encode_error(CancelledError("stop")))
        assert isinstance(cancelled, CancelledError)


class TestSharedMemory:
    def test_pack_load_unlink_round_trip(self):
        arrays = {
            "probs": np.linspace(0.0, 1.0, 7),
            "counts": np.arange(5, dtype=np.int64),
        }
        spec = shm_mod.pack_arrays(arrays)
        out = shm_mod.load_arrays(spec)
        np.testing.assert_array_equal(out["probs"], arrays["probs"])
        np.testing.assert_array_equal(out["counts"], arrays["counts"])
        assert shm_mod.unlink(spec) is True
        assert shm_mod.unlink(spec) is False  # already gone
        with pytest.raises(FileNotFoundError):
            shm_mod.load_arrays(spec)

    def test_concurrent_loads_keep_tracker_books_balanced(self):
        """Two threads loading one segment (the cluster monitor and an
        HTTP handler do) must not unregister it twice: the resource
        tracker would print a KeyError traceback per surplus."""
        import subprocess
        import sys
        import textwrap

        script = textwrap.dedent(
            """
            import sys
            import threading

            import numpy as np

            from repro.serving import shm

            sys.setswitchinterval(1e-6)  # interleave attach and untrack
            spec = shm.pack_arrays({"a": np.arange(64.0)})

            def load():
                for _ in range(200):
                    shm.load_arrays(spec)

            threads = [threading.Thread(target=load) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert shm.segment_alive(spec)
            assert shm.unlink(spec)
            assert not shm.segment_alive(spec)
            """
        )
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "KeyError" not in proc.stderr

    def test_empty_arrays_need_no_segment(self):
        spec = shm_mod.pack_arrays({})
        assert spec["segment"] is None
        assert shm_mod.load_arrays(spec) == {}
        assert shm_mod.unlink(spec) is True

    def test_split_join_results_round_trip(self):
        client = make_client()
        results = [
            client.execute_compiled(
                request(seed=s), client.compile_request(request(seed=s))
            )
            for s in (1, 2)
        ]
        meta, arrays = split_results(results)
        rebuilt = [
            wire.decode_result(e) for e in join_results(meta, arrays)
        ]
        for orig, back in zip(results, rebuilt):
            assert back.counts == orig.counts
            assert back.probabilities == orig.probabilities


# ---- the job store -------------------------------------------------------------------


class TestJobStore:
    def test_lease_is_priority_then_fifo(self, store_path):
        store = JobStore(store_path)
        store.put("low", b"r", priority=0)
        store.put("high", b"r", priority=5)
        store.put("low2", b"r", priority=0)
        order = [store.lease("w", 5.0)["id"] for _ in range(3)]
        assert order == ["high", "low", "low2"]
        assert store.lease("w", 5.0) is None

    def test_complete_is_lease_guarded(self, store_path):
        store = JobStore(store_path)
        store.put("j", b"r")
        store.lease("w1", 0.01)
        time.sleep(0.05)
        assert store.reap_expired() == ["j"]  # w1 presumed dead
        store.lease("w2", 5.0)
        # The zombie's completion must not clobber the re-execution.
        assert not store.complete("j", "w1", result_meta="{}", shm_spec=None)
        assert store.complete("j", "w2", result_meta="{}", shm_spec=None)
        assert store.state("j") is TicketState.DONE

    def test_heartbeat_extends_lease(self, store_path):
        store = JobStore(store_path)
        store.put("j", b"r")
        store.lease("w", 0.15)
        store.mark_running("j", "w", 0.15)
        for _ in range(4):
            time.sleep(0.05)
            assert store.heartbeat("w", 0.15) == 1
        assert store.reap_expired() == []  # never expired while beating
        assert store.state("j") is TicketState.RUNNING

    def test_reap_fails_rows_out_of_attempts(self, store_path):
        store = JobStore(store_path)
        store.put("j", b"r", max_attempts=2)
        for _ in range(2):
            assert store.lease("w", 0.0)["id"] == "j"
            store.reap_expired()
        assert store.state("j") is TicketState.FAILED
        assert "attempts" in json.loads(store.get("j")["error"])["message"]

    def test_cancel_pending_is_immediate(self, store_path):
        store = JobStore(store_path)
        store.put("j", b"r")
        assert store.request_cancel("j") is TicketState.CANCELLED
        assert store.lease("w", 5.0) is None  # dropped from the queue

    def test_chunk_cancel_needs_every_vote(self, store_path):
        store = JobStore(store_path)
        store.put("c", b"r", kind="chunk", size=3)
        assert store.request_cancel("c", index=0) is TicketState.PENDING
        assert store.request_cancel("c", index=1) is TicketState.PENDING
        assert not store.cancel_requested("c")
        assert store.request_cancel("c", index=2) is TicketState.CANCELLED
        assert store.cancel_requested("c")

    def test_attach_result_claims_once(self, store_path):
        store = JobStore(store_path)
        store.put("j", b"r")
        store.lease("w", 5.0)
        spec = {"segment": None, "arrays": []}
        store.complete("j", "w", result_meta="{}", shm_spec=spec)
        expected = json.dumps(spec)
        assert store.attach_result("j", b"[]", expected_shm=expected)
        # Second claimant loses: the shm column was cleared by the win.
        assert not store.attach_result("j", b"[]", expected_shm=expected)
        assert store.get("j")["result"] == b"[]"

    def test_recover_requeues_dead_segments(self, store_path):
        store = JobStore(store_path)
        store.put("j", b"r")
        store.lease("w", 5.0)
        # Worker completed against a segment that died with it.
        store.complete(
            "j",
            "w",
            result_meta="{}",
            shm_spec={"segment": "psm_gone_" + os.urandom(4).hex(), "arrays": []},
        )
        swept = store.recover()
        assert swept["reexecuted"] == 1
        assert store.state("j") is TicketState.PENDING  # back in backlog

    def test_worker_counters_commit_with_the_done_row(self, store_path):
        """A reader woken by a job's done report already sees the job
        counted in the worker's metrics: the counters commit in the
        same transaction as the done row."""
        from repro.serving.cluster import _run_leased_job

        client = make_client()
        requests = [request(seed=1), request(seed=2)]
        results = [
            client.execute_compiled(r, client.compile_request(r)) for r in requests
        ]

        class StubClient:
            def compile_request(self, req):
                return None

            def execute_compiled_batch(self, reqs, programs, should_cancel=None):
                return results

        store = JobStore(store_path)
        blob = json.dumps([wire.encode_request(r) for r in requests]).encode()
        store.put("j", blob)
        row = store.lease("w", 5.0)
        counters = dict.fromkeys(
            ("jobs_done", "jobs_failed", "jobs_cancelled", "requests_done"), 0
        )
        counters["execute_seconds"] = 0.0
        seen = []

        def report(job_id, state):
            if state is TicketState.DONE:
                seen.append(store.worker_metrics()["w"])

        _run_leased_job(store, StubClient(), "w", row, 5.0, counters, report)
        shm_mod.unlink(json.loads(store.get("j")["shm"]))
        assert [(m["jobs_done"], m["requests_done"]) for m in seen] == [(1, 2)]
        assert counters["requests_done"] == 2


# ---- ticket protocol -----------------------------------------------------------------


class TestTicketProtocol:
    def test_all_transports_satisfy_the_protocol(self, store_path):
        client = make_client()
        with PulseService(client) as svc:
            ticket = svc.submit(request())
            assert isinstance(ticket, Ticket)
            ticket.result(30)
        cluster = ClusterService(make_client, store_path, num_workers=1, start=False)
        assert isinstance(cluster.submit(request()), Ticket)
        http = HttpServiceClient("http://127.0.0.1:1")
        assert isinstance(http.ticket("t"), Ticket)

    def test_snapshot_round_trip(self):
        client = make_client()
        with PulseService(client) as svc:
            ticket = svc.submit(request(seed=5))
            result = ticket.result(30)
            data = json.loads(json.dumps(ticket.to_dict()))
        assert data["id"] == ticket.id
        assert TicketState(data["state"]) is TicketState.DONE
        decoded = wire.decode_result(data["result"])
        assert decoded.counts == result.counts
        assert decoded.probabilities == result.probabilities

    def test_sweep_ticket_aggregates(self):
        from repro.serving import SweepRequest

        client = make_client()
        with PulseService(client) as svc:
            sweep = SweepRequest.from_programs(
                [x_program(), x_program()], "sc-a", shots=16, seed=1
            )
            agg = svc.submit_sweep(sweep)
            assert isinstance(agg, Ticket)
            assert len(agg.result(30)) == 2
            assert agg.status() is TicketState.DONE
            assert agg.cancel() is False  # everything already terminal


# ---- cooperative cancellation --------------------------------------------------------


class TestCancellation:
    def test_executor_checks_chunk_boundaries(self):
        client = make_client()
        req = request()
        program = client.compile_request(req)
        with pytest.raises(CancelledError):
            client.execute_compiled(req, program, should_cancel=lambda: True)

    def test_pending_job_drops_from_queue(self):
        client = make_client(delay_s=0.3)
        with PulseService(client) as svc:
            first = svc.submit(request(seed=1, shots=8))
            queued = svc.submit(request(seed=2, shots=16))
            assert queued.cancel() is True
            with pytest.raises(CancelledError):
                queued.result(10)
            assert queued.status() is TicketState.CANCELLED
            assert sum(first.result(30).counts.values()) == 8

    def test_cancel_after_done_is_false(self):
        client = make_client()
        with PulseService(client) as svc:
            ticket = svc.submit(request())
            ticket.result(30)
            assert ticket.cancel() is False

    def test_cluster_cancel_before_start(self, store_path):
        svc = ClusterService(make_client, store_path, num_workers=1, start=False)
        ticket = svc.submit(request())
        assert ticket.cancel() is True
        assert ticket.status() is TicketState.CANCELLED
        with pytest.raises(CancelledError):
            ticket.result(1)

    def test_cluster_chunk_cancels_on_unanimity(self, store_path):
        svc = ClusterService(make_client, store_path, num_workers=1, start=False)
        tickets = svc.submit_many([request(seed=s) for s in (1, 2)])
        assert tickets[0].cancel() is True  # one vote: still queued
        assert tickets[0].status() is TicketState.PENDING
        assert tickets[1].cancel() is True  # unanimous: row drops
        assert tickets[0].status() is TicketState.CANCELLED


# ---- the cluster ---------------------------------------------------------------------


class TestClusterService:
    def test_end_to_end_matches_in_process(self, store_path):
        client = make_client()
        req = request(seed=11, shots=128)
        direct = client.execute_compiled(req, client.compile_request(req))
        with ClusterService(make_client, store_path, num_workers=2) as svc:
            result = svc.submit(request(seed=11, shots=128)).result(60)
        assert result.counts == direct.counts
        assert result.probabilities == direct.probabilities

    def test_chunked_batch_and_sweep(self, store_path):
        from repro.serving import SweepRequest

        with ClusterService(
            make_client, store_path, num_workers=2, chunk_size=3
        ) as svc:
            tickets = svc.submit_many([request(seed=s, shots=16) for s in range(7)])
            assert [sum(t.result(60).counts.values()) for t in tickets] == [
                16
            ] * 7
            agg = svc.submit_sweep(
                SweepRequest.from_programs(
                    [x_program(), x_program()], "sc-a", shots=8, seed=2
                )
            )
            assert [sum(r.counts.values()) for r in agg.results(60)] == [8, 8]

    def test_failure_propagates_typed_error(self, store_path):
        def broken_factory():
            driver = QDMIDriver()
            driver.register_device(FailingDevice("sc-a", num_qubits=2))
            return MQSSClient(driver, persistent_sessions=True)

        with ClusterService(
            broken_factory, store_path, num_workers=1, max_attempts=1
        ) as svc:
            ticket = svc.submit(request())
            with pytest.raises(ExecutionError):
                ticket.result(60)
            assert ticket.status() is TicketState.FAILED

    def test_ticket_lookup_by_id(self, store_path):
        with ClusterService(make_client, store_path, num_workers=1) as svc:
            ticket = svc.submit(request(seed=4))
            ticket.result(60)
            again = svc.ticket(ticket.id)
            assert again.result(1).counts == ticket.result(1).counts

    def test_metrics_expose_worker_label(self, store_path):
        from repro.obs.metrics import exposition

        with ClusterService(
            make_client, store_path, num_workers=1, name="clu-test"
        ) as svc:
            svc.submit(request()).result(60)
            svc.flush(30)
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                text = exposition()
                done_lines = [
                    line
                    for line in text.splitlines()
                    if "repro_cluster_worker_events_total" in line
                    and 'name="jobs_done"' in line
                    and 'service="clu-test"' in line
                ]
                if any(line.endswith(" 1") for line in done_lines):
                    break
                time.sleep(0.1)
            assert any(line.endswith(" 1") for line in done_lines)
            assert all('worker="clu-test-w0' in line for line in done_lines)
            assert 'repro_cluster_jobs{service="clu-test",state="done"} 1' in text


class TestDurability:
    def test_sigkill_mid_job_releases_and_completes(self, store_path):
        factory = lambda: make_client(delay_s=1.2)  # noqa: E731
        svc = ClusterService(
            factory,
            store_path,
            num_workers=1,
            lease_s=0.6,
        )
        try:
            ticket = svc.submit(request(seed=9, shots=16))
            deadline = time.monotonic() + 15.0
            while (
                ticket.status() is not TicketState.RUNNING
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            assert ticket.status() is TicketState.RUNNING
            victim = svc._processes[0]
            os.kill(victim.pid, signal.SIGKILL)
            # The dead worker stops heartbeating; the monitor re-leases
            # the job and a respawned worker completes it.
            result = ticket.result(40)
            assert sum(result.counts.values()) == 16
            assert svc.store.get(ticket.id)["attempts"] >= 2
        finally:
            svc.stop()

    def test_restart_drains_backlog(self, store_path):
        staging = ClusterService(make_client, store_path, num_workers=1, start=False)
        tickets = staging.submit_many([request(seed=s, shots=16) for s in range(3)])
        ids = [t.id for t in tickets]
        assert staging.backlog()  # durable rows, no workers yet
        with ClusterService(make_client, store_path, num_workers=2) as svc:
            for ticket_id in ids:
                result = svc.ticket(ticket_id).result(60)
                assert sum(result.counts.values()) == 16
            assert svc.backlog() == []

    def test_restart_replays_without_reexecution(self, store_path):
        svc = ClusterService(make_client, store_path, num_workers=1)
        try:
            ticket = svc.submit(request(seed=21, shots=64))
            first = ticket.result(60)
            svc.flush(30)
            row_id = ticket.id
        finally:
            svc.stop()
        attempts_before = JobStore(store_path).get(row_id)["attempts"]
        restarted = ClusterService(make_client, store_path, num_workers=1)
        try:
            replay = restarted.ticket(row_id).result(10)
            assert replay.counts == first.counts
            assert replay.probabilities == first.probabilities
            row = restarted.store.get(row_id)
            assert row["attempts"] == attempts_before  # no re-execution
        finally:
            restarted.stop()


class TestWakeups:
    def test_waiters_wake_without_sleeping(self, store_path, monkeypatch):
        """Completion reaches a direct waiter, an HTTP long-poll and
        ``flush`` by wake-up: ``time.sleep`` raises in this process."""
        parent = os.getpid()
        real_sleep = time.sleep

        def no_sleep(seconds: float) -> None:
            if os.getpid() == parent:
                raise AssertionError("a waiter polled with time.sleep")
            real_sleep(seconds)

        # Patched before the workers fork, so they inherit it as well.
        monkeypatch.setattr(time, "sleep", no_sleep)
        with ClusterService(make_client, store_path, num_workers=1) as svc:
            fe = serve_http(svc)
            try:
                direct = svc.submit(request(seed=5)).result(30)
                via_http = connect(fe.address).submit(request(seed=5)).result(30)
                svc.submit_many([request(seed=s) for s in (6, 7)])
                assert svc.flush(30)
            finally:
                fe.stop()
        assert via_http.counts == direct.counts
        assert via_http.probabilities == direct.probabilities


# ---- connect() + HTTP ----------------------------------------------------------------


class TestConnect:
    def test_rejects_non_transports(self):
        with pytest.raises(ServiceError):
            connect(object())
        with pytest.raises(ServiceError):
            connect("ftp://nope")

    def test_by_id_helpers(self):
        client = make_client()
        with PulseService(client) as svc:
            unified = connect(svc)
            assert connect(unified) is unified  # passthrough
            ticket = unified.submit(request(seed=2, shots=16))
            assert unified.status(ticket.id) in (
                TicketState.PENDING,
                TicketState.DISPATCHED,
                TicketState.RUNNING,
                TicketState.DONE,
            )
            result = unified.result(ticket.id, 30)
            assert sum(result.counts.values()) == 16
            assert unified.cancel(ticket.id) is False
            assert unified.devices() == ["sc-a"]
            assert "repro" in unified.metrics_text()


class TestHttpTier:
    @pytest.fixture
    def frontend(self):
        client = make_client()
        with PulseService(client) as svc:
            fe = serve_http(svc)
            try:
                yield fe, connect(svc)
            finally:
                fe.stop()
        client.close()

    def test_round_trip_is_bit_identical(self, frontend):
        fe, local = frontend
        http = connect(fe.address)
        with urllib.request.urlopen(fe.address + "/healthz", timeout=30) as reply:
            assert json.loads(reply.read()) == {"ok": True}
        via_local = local.result(local.submit(request(seed=13, shots=64)), 30)
        ticket = http.submit(request(seed=13, shots=64))
        via_http = ticket.result(30)
        assert via_http.counts == via_local.counts
        assert via_http.probabilities == via_local.probabilities
        assert ticket.status() is TicketState.DONE
        assert ticket.done()

    def test_batch_devices_metrics_health(self, frontend):
        fe, _ = frontend
        http = connect(fe.address)
        tickets = http.submit_many([request(seed=s, shots=8) for s in (1, 2)])
        assert [sum(t.result(30).counts.values()) for t in tickets] == [8, 8]
        assert http.devices() == ["sc-a"]
        assert "repro" in http.metrics_text()
        snapshot = tickets[0].to_dict()
        assert snapshot["state"] == "done"
        assert "request" not in snapshot  # blob stays server-side

    def test_sweep_expands_client_side(self, frontend):
        from repro.serving import SweepRequest

        fe, _ = frontend
        http = connect(fe.address)
        agg = http.submit_sweep(
            SweepRequest.from_programs(
                [x_program(), x_program()], "sc-a", shots=8, seed=3
            )
        )
        assert [sum(r.counts.values()) for r in agg.results(30)] == [8, 8]

    def test_unknown_ticket_is_service_error(self, frontend):
        fe, _ = frontend
        http = connect(fe.address)
        with pytest.raises(ServiceError):
            http.status("no-such-ticket")

    def test_long_poll_outlives_the_socket_timeout(self):
        """The server may hold a result poll longer than the client's
        transport timeout; the poll's socket must wait that long."""
        client = make_client(delay_s=1.5)
        with PulseService(client) as svc:
            fe = serve_http(svc)
            try:
                http = HttpServiceClient(fe.address, timeout_s=0.5)
                result = http.submit(request(shots=16)).result(10)
                assert sum(result.counts.values()) == 16
            finally:
                fe.stop()
        client.close()

    def test_unanswered_request_is_service_error(self):
        with socket.socket() as server:
            server.bind(("127.0.0.1", 0))
            server.listen(1)
            host, port = server.getsockname()
            http = HttpServiceClient(f"http://{host}:{port}", timeout_s=0.2)
            with pytest.raises(ServiceError):
                http.status("t")

    def test_failure_propagates_typed_error(self):
        driver = QDMIDriver()
        driver.register_device(FailingDevice("sc-bad", num_qubits=2))
        client = MQSSClient(driver, persistent_sessions=True)
        with PulseService(client) as svc:
            fe = serve_http(svc)
            try:
                http = connect(fe.address)
                ticket = http.submit(request(device="sc-bad"))
                with pytest.raises(ExecutionError):
                    ticket.result(30)
                assert ticket.status() is TicketState.FAILED
            finally:
                fe.stop()
        client.close()


class TestDetachedTargets:
    def test_url_target_runs_detached(self):
        import repro

        client = make_client()
        with PulseService(client) as svc:
            fe = serve_http(svc)
            try:
                target = repro.Target.from_service(fe.address, "sc-a")
                assert target.is_detached
                exe = repro.compile(x_program(), target)
                via_http = exe.run(shots=64, seed=17, timeout=60)
                attached = repro.Target.from_service(svc, "sc-a")
                via_local = repro.compile(x_program(), attached).run(
                    shots=64, seed=17, timeout=60
                )
                assert via_http.counts == via_local.counts
            finally:
                fe.stop()
        client.close()

    def test_cluster_target_runs_detached(self, store_path):
        import repro

        with ClusterService(make_client, store_path, num_workers=1) as svc:
            target = repro.Target.resolve("sc-a", svc)
            assert target.is_detached
            result = repro.compile(x_program(), target).run(
                shots=32, seed=23, timeout=60
            )
            assert sum(result.counts.values()) == 32
