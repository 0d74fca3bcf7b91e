"""Durable multi-process serving: worker pools over a persistent store.

:class:`ClusterService` is the process-parallel sibling of the
thread-based :class:`~repro.serving.service.PulseService`.  Simulation
is CPU-bound numerics, so threads share one GIL; here every worker is
a full OS process with its own interpreter, its own
:class:`~repro.client.client.MQSSClient` (built by the caller's
``client_factory``), whose JIT compiler memo is its compile cache.
Both services hand out the same :class:`~repro.serving.service.JobTicket`.

Architecture::

    submit ──▶ JobStore (SQLite, WAL) ◀── lease ── worker processes
       └──▶ semaphore, one permit per row ── wake ──▶ idle workers
    monitor thread ◀── (row id, state) ── one pipe per worker
       ├─▶ assemble shm into the durable result blob
       ├─▶ resolve the row's JobTickets (wakes every waiter)
       └─▶ lease tick: reap expired leases, reconcile live tickets
           with their rows, respawn dead workers

Completion is pushed, not polled: ``ticket.wait``, an HTTP long-poll
and :meth:`ClusterService.flush` wake on an event or condition, and
idle workers block on a semaphore released once per admitted row.  The
lease tick is the only timer.  Pipes and a semaphore leave no shared
lock a SIGKILLed worker could die holding.

Durability model — everything lives in the store:

* tickets survive restarts: a restarted service ``recover()``\\ s the
  store, drains exactly the unfinished backlog, and *replays* finished
  tickets from their persisted result blobs without re-execution
  (:meth:`ClusterService.ticket` re-attaches a ticket to its row);
* a worker killed mid-job (SIGKILL, OOM) stops heartbeating; the
  monitor re-leases its jobs after the lease deadline.  Re-execution
  is idempotent because the worker's compiler is content-addressed
  and execution is seeded, so the re-run reproduces the same result.
  The lease tick catches up a report lost with a killed worker from
  its row;
* results return over :mod:`multiprocessing.shared_memory` — the
  stacked probability/count arrays of a whole job chunk ride one
  segment, never pickled per job — and the parent persists the
  assembled blob so the arrays outlive the segment.

Cancellation is uniform with the rest of the serving stack: pending
rows drop from the backlog immediately; running rows set a cooperative
flag the worker polls into the executor's chunk boundaries.  Chunked
rows (``submit_many``/``submit_sweep`` batches) execute as a unit and
cancel like an in-process coalesced group: only when every member
votes.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import threading
import time
import uuid
from multiprocessing import connection
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from repro.client.client import ClientResult, JobRequest
from repro.errors import CancelledError, ServiceError
from repro.obs.metrics import REGISTRY
from repro.serving import shm as _shm
from repro.serving import wire
from repro.serving.service import JobTicket
from repro.serving.store import JobStore
from repro.serving.tickets import TicketState, new_ticket_id

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.client.client import MQSSClient
    from repro.serving.sweeps import SweepRequest, SweepTicket


# ---- result <-> (meta, arrays) split ------------------------------------------------
#
# Scalars and outcome labels travel as JSON in the store row; the
# numeric vectors of the whole chunk concatenate into two flat arrays
# shipped through one shared-memory segment, and a family job's
# outcome arrays ride the same segment, one entry each.


def split_results(results: Sequence[ClientResult]) -> tuple[dict, dict]:
    """(JSON meta, shm arrays) for a chunk's results."""
    import numpy as np

    meta = []
    probs: list[float] = []
    counts: list[int] = []
    outcomes: dict = {}
    for i, result in enumerate(results):
        batch = result.batch
        encoded = wire.encode_result(
            result if batch is None else dataclasses.replace(result, batch=None)
        )
        pkeys = sorted(encoded.pop("probabilities"))
        ckeys = sorted(encoded.pop("counts"))
        probs.extend(result.probabilities[k] for k in pkeys)
        counts.extend(result.counts[k] for k in ckeys)
        encoded["prob_keys"] = pkeys
        encoded["count_keys"] = ckeys
        if batch is not None:
            encoded["batch"], parts = wire.batch_parts(batch)
            outcomes.update((f"{i}:{key}", a) for key, a in parts.items())
        meta.append(encoded)
    arrays = {
        "probs": np.asarray(probs, dtype=np.float64),
        "counts": np.asarray(counts, dtype=np.int64),
        **outcomes,
    }
    return {"results": meta}, arrays


def join_results(meta: dict, arrays: dict) -> list[dict]:
    """Rebuild the chunk's encoded results from meta + shm arrays."""
    probs = arrays["probs"]
    counts = arrays["counts"]
    out = []
    p = c = 0
    for i, encoded in enumerate(meta["results"]):
        entry = dict(encoded)
        pkeys = entry.pop("prob_keys")
        ckeys = entry.pop("count_keys")
        entry["probabilities"] = {
            k: float(v) for k, v in zip(pkeys, probs[p : p + len(pkeys)])
        }
        entry["counts"] = {
            k: int(v) for k, v in zip(ckeys, counts[c : c + len(ckeys)])
        }
        p += len(pkeys)
        c += len(ckeys)
        if "batch" in entry:
            entry["batch"] = {
                "families": entry["batch"],
                "arrays": {
                    key.partition(":")[2]: a.tolist()
                    for key, a in arrays.items()
                    if key.startswith(f"{i}:")
                },
            }
        out.append(entry)
    return out


# ---- worker process -----------------------------------------------------------------


def _throttled_cancel_check(store: JobStore, job_id: str, interval_s: float = 0.05):
    """A ``should_cancel`` callable polling the store at most every
    *interval_s* (chunk-boundary checks are hot)."""
    state = [0.0, False]

    def check() -> bool:
        now = time.monotonic()
        if not state[1] and now - state[0] >= interval_s:
            state[0] = now
            state[1] = store.cancel_requested(job_id)
        return state[1]

    return check


def _worker_main(
    store_path: str,
    client_factory: Callable[[], "MQSSClient"],
    label: str,
    lease_s: float,
    wake,
    stopping,
    conn,
) -> None:
    """Worker loop: lease -> compile -> execute -> shm -> complete ->
    report on *conn*; an empty backlog blocks on the *wake* semaphore."""
    worker_id = f"{label}-{uuid.uuid4().hex[:8]}"
    store = JobStore(store_path)
    client = client_factory()
    counters: dict[str, float] = {
        "jobs_done": 0,
        "jobs_failed": 0,
        "jobs_cancelled": 0,
        "requests_done": 0,
        "execute_seconds": 0.0,
        "pid": float(os.getpid()),
    }

    # Heartbeats extend the lease while a long execution runs; a
    # SIGKILLed worker stops beating and the monitor re-leases.
    hb_stop = threading.Event()

    def heartbeat() -> None:
        while not hb_stop.wait(max(lease_s / 3.0, 0.05)):
            try:
                store.heartbeat(worker_id, lease_s)
            except Exception:
                pass

    hb = threading.Thread(target=heartbeat, daemon=True)
    hb.start()

    def report(job_id: str, state: TicketState) -> None:
        try:
            conn.send((job_id, state.value))
        except OSError:
            pass  # the service stopped listening; the row is durable

    _publish(store, worker_id, counters)
    try:
        while not stopping.value:
            # A store error ends the worker; the lease tick respawns it.
            row = store.lease(worker_id, lease_s)
            if row is None:
                wake.acquire()  # a submit, recovery, re-lease or stop
                continue
            _run_leased_job(store, client, worker_id, row, lease_s, counters, report)
    finally:
        hb_stop.set()
        _publish(store, worker_id, counters)
        store.close()
        conn.close()


def _publish(store: JobStore, worker_id: str, counters: dict) -> None:
    """Publish *counters* as the worker's metrics row (best effort)."""
    try:
        store.publish_worker_metrics(worker_id, counters)
    except Exception:
        pass


def _run_leased_job(
    store: JobStore,
    client: "MQSSClient",
    worker_id: str,
    row: dict,
    lease_s: float,
    counters: dict,
    report: Callable[[str, TicketState], None],
) -> None:
    job_id = row["id"]
    should_cancel = _throttled_cancel_check(store, job_id)
    try:
        if should_cancel():
            raise CancelledError(f"job {job_id} cancelled before start")
        if store.mark_running(job_id, worker_id, lease_s):
            report(job_id, TicketState.RUNNING)
        requests = [
            wire.decode_request(r) for r in json.loads(row["request"])
        ]
        t0 = time.perf_counter()
        # Compile is content-addressed through the worker's compiler,
        # so a re-leased job (or a repeat point of a sweep chunk) skips
        # the pipeline. The whole row then runs as one batched device
        # submission, each request on its own seeded stream, so
        # re-execution reproduces the original result exactly.
        programs = [client.compile_request(request) for request in requests]
        results = client.execute_compiled_batch(
            requests, programs, should_cancel=should_cancel
        )
        counters["execute_seconds"] += time.perf_counter() - t0
        meta, arrays = split_results(results)
        spec = _shm.pack_arrays(arrays)
        # The counters with this job counted commit with its done row.
        done = dict(counters)
        done["jobs_done"] += 1
        done["requests_done"] += len(results)
        if store.complete(
            job_id,
            worker_id,
            result_meta=json.dumps(meta),
            shm_spec=spec,
            metrics=done,
        ):
            counters.update(done)
            report(job_id, TicketState.DONE)
        else:
            # Lease lost (we were presumed dead and the job was
            # re-leased): drop our segment, the other execution wins.
            _shm.unlink(spec)
    except CancelledError:
        counters["jobs_cancelled"] += 1
        _publish(store, worker_id, counters)
        if store.mark_cancelled(job_id, worker_id):
            report(job_id, TicketState.CANCELLED)
    except Exception as exc:
        counters["jobs_failed"] += 1
        _publish(store, worker_id, counters)
        try:
            if store.fail(job_id, worker_id, json.dumps(wire.encode_error(exc))):
                report(job_id, TicketState.FAILED)
        except Exception:
            pass


# ---- the service --------------------------------------------------------------------


class ClusterService:
    """Process-based durable serving over a :class:`JobStore`.

    Parameters
    ----------
    client_factory:
        Zero-arg callable building the worker's
        :class:`~repro.client.client.MQSSClient` *inside the worker
        process*.  It must be importable/fork-inheritable; with the
        default ``fork`` start method any closure works.
    store_path:
        SQLite file shared by the front-end, the workers, and any
        later restarted service (durability boundary).
    num_workers:
        Worker processes to keep alive (dead ones are respawned).
    lease_s:
        Heartbeat lease horizon; a worker silent for this long has its
        jobs re-leased.  Keep well above the longest chunk-boundary
        interval of your executions.
    chunk_size:
        Max requests bundled into one durable row by ``submit_many`` /
        ``submit_sweep``; a chunk's stacked result arrays ship through
        one shared-memory segment.
    """

    def __init__(
        self,
        client_factory: Callable[[], "MQSSClient"],
        store_path: str,
        *,
        num_workers: int = 2,
        lease_s: float = 5.0,
        chunk_size: int = 8,
        max_attempts: int = 3,
        name: str | None = None,
        start: bool = True,
    ) -> None:
        if num_workers < 1:
            raise ServiceError(f"num_workers must be >= 1, got {num_workers}")
        self.client_factory = client_factory
        self.store = JobStore(store_path)
        self.num_workers = num_workers
        self.lease_s = float(lease_s)
        self.chunk_size = max(1, int(chunk_size))
        self.max_attempts = int(max_attempts)
        self.name = name or REGISTRY.autoname("cluster")
        self._ctx = multiprocessing.get_context()
        #: One permit per admitted row wakes one idle worker.
        self._wake = self._ctx.Semaphore(0)
        #: Lock-free stop flag the workers read after each wake.
        self._stopping = self._ctx.RawValue("b", 0)
        self._processes: list = []
        self._conns: list = []  # read ends of the workers' report pipes
        self._monitor: threading.Thread | None = None
        self._monitor_stop = threading.Event()
        self._lock = threading.RLock()
        self._started = False
        #: Row id -> [(member index, ticket)] still waiting on the row.
        self._live: dict[str, list[tuple[int, JobTicket]]] = {}
        #: Guards ``_live``; notified whenever a row settles (flush).
        self._settled = threading.Condition()
        REGISTRY.register_collector(self, ClusterService._metric_samples)
        if start:
            self.start()

    # ---- lifecycle -----------------------------------------------------------------

    def start(self) -> "ClusterService":
        """Recover the store, fork the workers, start the monitor."""
        with self._lock:
            if self._started:
                return self
            self._started = True
            self._stopping.value = 0
            self._monitor_stop.clear()
            self.store.recover()
            for _ in range(self.store.counts_by_state().get("pending", 0)):
                self._wake.release()
            # Fork before starting the monitor thread: forking a
            # multi-threaded parent risks inheriting held locks.
            for i in range(self.num_workers):
                self._spawn(i)
            self._monitor = threading.Thread(
                target=self._monitor_loop,
                name=f"{self.name}-monitor",
                daemon=True,
            )
            self._monitor.start()
        return self

    def _spawn(self, slot: int) -> None:
        reader, writer = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(
                self.store.path,
                self.client_factory,
                f"{self.name}-w{slot}",
                self.lease_s,
                self._wake,
                self._stopping,
                writer,
            ),
            name=f"{self.name}-w{slot}",
            daemon=True,
        )
        proc.start()
        # The worker holds the only write end, so its exit reads as EOF.
        writer.close()
        self._conns.append(reader)
        if len(self._processes) <= slot:
            self._processes.extend([None] * (slot + 1 - len(self._processes)))
        self._processes[slot] = proc

    def stop(self, wait: bool = True, timeout: float = 10.0) -> None:
        """Stop workers and the monitor; the store stays on disk."""
        with self._lock:
            if not self._started:
                return
            self._started = False
            self._stopping.value = 1
            self._monitor_stop.set()
            processes = [p for p in self._processes if p is not None]
            for _ in processes:
                self._wake.release()
            monitor, self._monitor = self._monitor, None
            self._processes = []
        deadline = time.monotonic() + timeout
        for proc in processes:
            if wait:
                proc.join(timeout=max(0.0, deadline - time.monotonic()))
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        # The monitor drains the workers' last reports, then exits on
        # their pipes' EOF.
        if monitor is not None:
            monitor.join(timeout=timeout)
        # One final pass settles what went unreported and leaves nothing
        # durable pinned to shared memory by our own exit.
        self._reconcile()

    def __enter__(self) -> "ClusterService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ---- submission ----------------------------------------------------------------

    def submit(self, request: JobRequest) -> JobTicket:
        """Admit one request as one durable row; ticket immediately."""
        return self._put_chunk([request])[0]

    def submit_many(self, requests: Iterable[JobRequest]) -> list[JobTicket]:
        """Admit a batch, chunked into durable rows of ``chunk_size``.

        Each chunk executes on one worker as a unit and its stacked
        result arrays return through one shared-memory segment.
        """
        requests = list(requests)
        tickets: list[JobTicket] = []
        for i in range(0, len(requests), self.chunk_size):
            tickets.extend(self._put_chunk(requests[i : i + self.chunk_size]))
        return tickets

    def run(
        self, requests: Iterable[JobRequest], *, timeout: float | None = None
    ) -> list[JobTicket]:
        """Submit a batch and wait for all of it (tickets in order)."""
        tickets = self.submit_many(requests)
        for t in tickets:
            t.wait(timeout)
        return tickets

    def submit_sweep(self, sweep: "SweepRequest") -> "SweepTicket":
        """Admit a parameter sweep; points chunk onto the workers.

        Returns a :class:`~repro.serving.sweeps.SweepTicket` over
        per-point tickets, scan-ordered.
        """
        from repro.serving.sweeps import SweepTicket

        return SweepTicket(sweep, self.submit_many(sweep.expand()))

    def _put_chunk(self, requests: list[JobRequest]) -> list[JobTicket]:
        if not requests:
            return []
        row_id = new_ticket_id()
        size = len(requests)
        # Attach before the row exists, so its report finds the tickets.
        tickets = [
            self._attach(row_id, i, size, request)
            for i, request in enumerate(requests)
        ]
        blob = json.dumps([wire.encode_request(r) for r in requests]).encode()
        try:
            self.store.put(
                row_id,
                blob,
                kind="chunk" if size > 1 else "job",
                device=requests[0].device,
                priority=max(r.priority for r in requests),
                size=size,
                max_attempts=self.max_attempts,
            )
        except BaseException:
            with self._settled:
                self._live.pop(row_id, None)
            raise
        self._wake.release()
        return tickets

    # ---- tickets -------------------------------------------------------------------

    def _attach(
        self, row_id: str, index: int, size: int, request: JobRequest | None = None
    ) -> JobTicket:
        """A ticket for member *index* of row *row_id*, resolved by the
        monitor when the row settles."""
        ticket = JobTicket(request)
        ticket.id = row_id if size <= 1 else f"{row_id}#{index}"
        vote = index if size > 1 else None
        ticket._cancel_hook = lambda _ticket: self._cancel(row_id, vote)
        with self._settled:
            self._live.setdefault(row_id, []).append((index, ticket))
        return ticket

    def ticket(self, ticket_id: str) -> JobTicket:
        """Re-attach to a durable ticket by id (survives restarts): the
        live ticket while its row is unsettled, else a new one that the
        store's row resolves."""
        row_id, _, member = ticket_id.partition("#")
        index = int(member or 0)
        with self._settled:
            for i, live in self._live.get(row_id, ()):
                if i == index:
                    return live
        row = self.store.get(row_id)  # raises ServiceError when unknown
        ticket = self._attach(row_id, index, int(row["size"]))
        self._settle(row_id)  # a finished row resolves it at once
        return ticket

    def _cancel(self, row_id: str, vote: int | None) -> None:
        """Ticket cancel hook: record the request (or chunk vote).

        Pending rows cancel immediately; running rows set the flag the
        worker polls at chunk boundaries.  Members of a chunk row vote
        — the chunk aborts only when every member has cancelled (it
        executes as a unit, like an in-process coalesced group).
        """
        if self.store.request_cancel(row_id, index=vote).terminal:
            self._settle(row_id)

    def backlog(self) -> list[str]:
        """Ids of rows still unfinished (what a restart will drain)."""
        return [
            row["id"]
            for row in self.store.jobs(("pending", "dispatched", "running"))
        ]

    @property
    def pending(self) -> int:
        return self.store.unfinished()

    def flush(self, timeout: float | None = None) -> bool:
        """Block until the backlog is drained and results assembled."""
        with self._settled:
            return self._settled.wait_for(self._drained, timeout)

    def _drained(self) -> bool:
        return self.store.unfinished() == 0 and not self.store.pending_assembly()

    # ---- monitor -------------------------------------------------------------------

    def _monitor_loop(self) -> None:
        tick = min(max(self.lease_s / 3.0, 0.02), 0.25)
        next_tick = time.monotonic()
        while True:
            with self._lock:
                conns = list(self._conns)
            if not conns and self._monitor_stop.is_set():
                return
            timeout = max(0.0, next_tick - time.monotonic())
            try:
                ready = connection.wait(conns, timeout=timeout)
                for conn in ready:
                    self._on_report(conn)
                if self._monitor_stop.is_set() and not ready:
                    return  # stop() reconciles anything still unreported
                if time.monotonic() >= next_tick:
                    next_tick = time.monotonic() + tick
                    for _ in self.store.reap_expired():
                        self._wake.release()
                    self._reconcile()
                    self._respawn_dead()
            except Exception:
                # The monitor must survive transient store contention;
                # the next lease tick reconciles whatever was missed.
                pass

    def _on_report(self, conn) -> None:
        """Apply one worker report: mark RUNNING, or settle the row."""
        try:
            row_id, state = conn.recv()
        except (EOFError, OSError):  # the worker exited
            with self._lock:
                self._conns.remove(conn)
            conn.close()
            return
        if state != TicketState.RUNNING.value:
            self._settle(row_id)
            return
        with self._settled:
            members = list(self._live.get(row_id, ()))
        for _, ticket in members:
            ticket._mark_running()

    def _reconcile(self) -> None:
        """Settle live tickets whose rows finished unreported, and
        assemble results whose report was lost."""
        with self._settled:
            rows = list(self._live)
        for row_id in rows:
            if self.store.state(row_id).terminal:
                self._settle(row_id)
        for row in self.store.pending_assembly():
            self._assemble(row)
        with self._settled:
            self._settled.notify_all()

    def _respawn_dead(self) -> None:
        with self._lock:
            if not self._started:
                return
            for slot, proc in enumerate(self._processes):
                if proc is not None and not proc.is_alive():
                    self._spawn(slot)

    def _settle(self, row_id: str) -> None:
        """Finalize a terminal row: assemble it, resolve its tickets.

        Every store read comes first: should one fail, the tickets stay
        live and the next lease tick settles them.
        """
        row = self.store.get(row_id)
        state = TicketState(row["state"])
        if not state.terminal:
            return
        if state is TicketState.DONE and row["shm"] is not None:
            self._assemble(row)
            row = self.store.get(row_id)
        encoded = json.loads(row["result"]) if row["result"] is not None else None
        with self._settled:
            members = self._live.pop(row_id, [])
            self._settled.notify_all()
        for index, ticket in members:
            if state is TicketState.CANCELLED:
                ticket._cancelled()
            elif state is TicketState.FAILED:
                ticket._fail(wire.decode_error(json.loads(row["error"] or "{}")))
            elif encoded is None:
                ticket._fail(
                    ServiceError(
                        f"job {row_id} finished but its result is not "
                        "recoverable (shared memory lost before assembly); "
                        "restart the service to re-execute it"
                    )
                )
            else:
                ticket._resolve(wire.decode_result(encoded[index]))

    def _assemble(self, row: dict) -> None:
        """Move a done row's arrays from shared memory into its blob."""
        spec = json.loads(row["shm"])
        try:
            arrays = _shm.load_arrays(spec)
        except FileNotFoundError:
            # Segment died with its creator before assembly: recover()
            # on the next start re-executes the row.
            return
        blob = json.dumps(join_results(json.loads(row["result_meta"]), arrays))
        if self.store.attach_result(row["id"], blob.encode(), expected_shm=row["shm"]):
            # We won the assembly claim, so the unlink is ours.
            _shm.unlink(spec)

    # ---- metrics -------------------------------------------------------------------

    def _metric_samples(self) -> list[tuple]:
        """Pool-wide series for the global obs registry.

        Worker processes cannot touch the parent's registry, so their
        counter snapshots flow through the store's metrics channel and
        are re-emitted here with a ``worker`` label — one exposition
        reflects the whole pool.
        """
        service = self.name
        try:
            by_state = self.store.counts_by_state()
            worker_metrics = self.store.worker_metrics()
        except Exception:
            return []
        samples = [
            (
                "repro_cluster_jobs",
                "gauge",
                {"service": service, "state": state},
                float(count),
            )
            for state, count in sorted(by_state.items())
        ]
        for worker, counters in sorted(worker_metrics.items()):
            for key, value in sorted(counters.items()):
                if key == "pid":
                    continue
                samples.append(
                    (
                        "repro_cluster_worker_events_total",
                        "counter",
                        {"service": service, "worker": worker, "name": key},
                        float(value),
                    )
                )
        alive = sum(1 for p in self._processes if p is not None and p.is_alive())
        samples.append(
            ("repro_cluster_workers", "gauge", {"service": service}, float(alive))
        )
        return samples

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ClusterService({self.name!r}, workers={self.num_workers}, "
            f"store={self.store.path!r})"
        )
