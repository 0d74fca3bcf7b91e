"""Durable multi-process serving: worker pools over a persistent store.

:class:`ClusterService` is the process-parallel sibling of the
thread-based :class:`~repro.serving.service.PulseService`.  Simulation
is CPU-bound numerics, so threads share one GIL; here every worker is
a full OS process with its own interpreter, its own
:class:`~repro.client.client.MQSSClient` (built by the caller's
``client_factory``), and its own content-addressed compile cache.

Architecture::

    submit ──▶ JobStore (SQLite, WAL)  ◀── lease ── worker process 0
                  │    ▲                ◀── lease ── worker process 1
                  │    │ complete(meta, shm spec)        ...
                  ▼    │
            monitor thread ──▶ assemble shm ──▶ durable result blob
                  │
                  └──▶ reap expired leases, respawn dead workers,
                       aggregate worker metrics

Durability model — everything lives in the store:

* tickets survive restarts: a restarted service ``recover()``\\ s the
  store, drains exactly the unfinished backlog, and *replays* finished
  tickets from their persisted result blobs without re-execution;
* a worker killed mid-job (SIGKILL, OOM) stops heartbeating; the
  monitor re-leases its jobs after the lease deadline.  Re-execution
  is idempotent: compilation is content-addressed (the same cache key
  the in-process service uses) and execution is seeded, so the re-run
  reproduces the same result;
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

import json
import multiprocessing
import os
import threading
import time
import uuid
import weakref
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from repro.client.client import ClientResult, JobRequest
from repro.errors import CancelledError, ServiceError
from repro.obs.metrics import REGISTRY
from repro.serving import shm as _shm
from repro.serving import wire
from repro.serving.store import JobStore
from repro.serving.tickets import TicketState, new_ticket_id

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.client.client import MQSSClient
    from repro.serving.sweeps import SweepRequest


# ---- result <-> (meta, arrays) split ------------------------------------------------
#
# Scalars and outcome labels travel as JSON in the store row; the
# numeric vectors of the whole chunk concatenate into two flat arrays
# shipped through one shared-memory segment.


def split_results(results: Sequence[ClientResult]) -> tuple[dict, dict]:
    """(JSON meta, shm arrays) for a chunk's results."""
    import numpy as np

    meta = []
    probs: list[float] = []
    counts: list[int] = []
    for result in results:
        encoded = wire.encode_result(result)
        pkeys = sorted(encoded.pop("probabilities"))
        ckeys = sorted(encoded.pop("counts"))
        probs.extend(result.probabilities[k] for k in pkeys)
        counts.extend(result.counts[k] for k in ckeys)
        encoded["prob_keys"] = pkeys
        encoded["count_keys"] = ckeys
        meta.append(encoded)
    arrays = {
        "probs": np.asarray(probs, dtype=np.float64),
        "counts": np.asarray(counts, dtype=np.int64),
    }
    return {"results": meta}, arrays


def join_results(meta: dict, arrays: dict) -> list[dict]:
    """Rebuild the chunk's encoded results from meta + shm arrays."""
    probs = arrays["probs"]
    counts = arrays["counts"]
    out = []
    p = c = 0
    for encoded in meta["results"]:
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
    poll_s: float,
    stop_event,
) -> None:
    """Worker loop: lease -> compile -> execute -> shm -> complete."""
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

    def publish() -> None:
        try:
            store.publish_worker_metrics(worker_id, counters)
        except Exception:
            pass

    publish()
    try:
        while not stop_event.is_set():
            try:
                row = store.lease(worker_id, lease_s)
            except Exception:
                time.sleep(poll_s)
                continue
            if row is None:
                stop_event.wait(poll_s)
                continue
            _run_leased_job(store, client, worker_id, row, lease_s, counters)
            publish()
    finally:
        hb_stop.set()
        publish()
        store.close()


def _run_leased_job(
    store: JobStore,
    client: "MQSSClient",
    worker_id: str,
    row: dict,
    lease_s: float,
    counters: dict,
) -> None:
    job_id = row["id"]
    should_cancel = _throttled_cancel_check(store, job_id)
    try:
        if should_cancel():
            raise CancelledError(f"job {job_id} cancelled before start")
        store.mark_running(job_id, worker_id, lease_s)
        requests = [
            wire.decode_request(r) for r in json.loads(row["request"])
        ]
        t0 = time.perf_counter()
        # Compile is content-addressed through the worker-local cache,
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
        if store.complete(
            job_id, worker_id, result_meta=json.dumps(meta), shm_spec=spec
        ):
            counters["jobs_done"] += 1
            counters["requests_done"] += len(results)
        else:
            # Lease lost (we were presumed dead and the job was
            # re-leased): drop our segment, the other execution wins.
            _shm.unlink(spec)
    except CancelledError:
        counters["jobs_cancelled"] += 1
        store.mark_cancelled(job_id, worker_id)
    except Exception as exc:
        counters["jobs_failed"] += 1
        try:
            store.fail(job_id, worker_id, json.dumps(wire.encode_error(exc)))
        except Exception:
            pass


# ---- tickets ------------------------------------------------------------------------


class ClusterTicket:
    """Store-backed ticket: one member of one durable job row.

    Implements the unified :class:`repro.serving.tickets.Ticket`
    protocol by polling the job store, so the handle works from any
    process that can open the store — including a service restarted
    after the submitting process died.
    """

    kind = "job"

    def __init__(
        self,
        service: "ClusterService",
        row_id: str,
        index: int = 0,
        size: int = 1,
    ) -> None:
        self._service = service
        self.row_id = row_id
        self.index = index
        self.size = size
        self.id = row_id if size <= 1 else f"{row_id}#{index}"

    # ---- protocol ------------------------------------------------------------------

    def status(self) -> TicketState:
        return self._service.store.state(self.row_id)

    def done(self) -> bool:
        return self.status().terminal

    def wait(self, timeout: float | None = None) -> bool:
        deadline = None if timeout is None else time.monotonic() + float(timeout)
        pause = 0.002
        while True:
            if self.status().terminal:
                return True
            if deadline is not None and time.monotonic() >= deadline:
                return False
            time.sleep(pause)
            pause = min(pause * 2.0, 0.05)

    def result(self, timeout: float | None = None) -> ClientResult:
        deadline = None if timeout is None else time.monotonic() + float(timeout)
        pause = 0.002
        while True:
            row = self._service.store.get(self.row_id)
            state = TicketState(row["state"])
            if state is TicketState.DONE:
                encoded = self._service._materialize(row)
                return wire.decode_result(encoded[self.index])
            if state is TicketState.FAILED:
                raise wire.decode_error(json.loads(row["error"] or "{}"))
            if state is TicketState.CANCELLED:
                raise CancelledError(f"ticket {self.id} was cancelled")
            if deadline is not None and time.monotonic() >= deadline:
                raise ServiceError(f"ticket {self.id} not done within {timeout}s")
            time.sleep(pause)
            pause = min(pause * 2.0, 0.05)

    def exception(self, timeout: float | None = None) -> Exception | None:
        try:
            self.result(timeout)
            return None
        except ServiceError as exc:
            if not self.status().terminal:
                raise  # genuine wait timeout
            return exc
        except Exception as exc:
            return exc

    def cancel(self) -> bool:
        """Request cancellation through the store.

        Pending rows cancel immediately; running rows set the flag the
        worker polls at chunk boundaries.  Members of a chunk row vote
        — the chunk aborts only when every member has cancelled (it
        executes as a unit, like an in-process coalesced group).
        """
        state = self.status()
        if state.terminal:
            return False
        self._service.store.request_cancel(
            self.row_id, index=self.index if self.size > 1 else None
        )
        return True

    def to_dict(self) -> dict:
        data = {
            "kind": "job",
            "id": self.id,
            "row_id": self.row_id,
            "index": self.index,
            "size": self.size,
            "state": self.status().value,
        }
        row = self._service.store.get(self.row_id)
        if row["state"] == "done" and row["result"] is not None:
            encoded = json.loads(row["result"])
            data["result"] = encoded[self.index]
        if row["error"]:
            data["error"] = json.loads(row["error"])
        data["device"] = row["device"] or None
        return data


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
        poll_s: float = 0.02,
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
        self.poll_s = float(poll_s)
        self.chunk_size = max(1, int(chunk_size))
        self.max_attempts = int(max_attempts)
        self.name = name or REGISTRY.autoname("cluster")
        self._ctx = multiprocessing.get_context()
        self._stop_event = self._ctx.Event()
        self._processes: list = []
        self._monitor: threading.Thread | None = None
        self._monitor_stop = threading.Event()
        self._lock = threading.RLock()
        self._started = False
        self._register_metrics()
        if start:
            self.start()

    # ---- lifecycle -----------------------------------------------------------------

    def start(self) -> "ClusterService":
        """Recover the store, fork the workers, start the monitor."""
        with self._lock:
            if self._started:
                return self
            self._started = True
            self._stop_event.clear()
            self._monitor_stop.clear()
            self.store.recover()
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
        proc = self._ctx.Process(
            target=_worker_main,
            args=(
                self.store.path,
                self.client_factory,
                f"{self.name}-w{slot}",
                self.lease_s,
                self.poll_s,
                self._stop_event,
            ),
            name=f"{self.name}-w{slot}",
            daemon=True,
        )
        proc.start()
        if len(self._processes) <= slot:
            self._processes.extend([None] * (slot + 1 - len(self._processes)))
        self._processes[slot] = proc

    def stop(self, wait: bool = True, timeout: float = 10.0) -> None:
        """Stop workers and the monitor; the store stays on disk."""
        with self._lock:
            if not self._started:
                return
            self._started = False
            self._stop_event.set()
            self._monitor_stop.set()
            monitor, self._monitor = self._monitor, None
            processes = [p for p in self._processes if p is not None]
            self._processes = []
        if monitor is not None:
            monitor.join(timeout=timeout)
        deadline = time.monotonic() + timeout
        for proc in processes:
            if wait:
                proc.join(timeout=max(0.0, deadline - time.monotonic()))
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        # One final assembly pass so nothing durable is left pinned to
        # shared memory by our own exit.
        self._assemble_pending()

    def __enter__(self) -> "ClusterService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ---- submission ----------------------------------------------------------------

    def submit(self, request: JobRequest) -> ClusterTicket:
        """Admit one request as one durable row; ticket immediately."""
        return self._put_chunk([request])[0]

    def submit_many(
        self, requests: Iterable[JobRequest], *, block: bool = True
    ) -> list[ClusterTicket]:
        """Admit a batch, chunked into durable rows of ``chunk_size``.

        Each chunk executes on one worker as a unit and its stacked
        result arrays return through one shared-memory segment.
        """
        requests = list(requests)
        tickets: list[ClusterTicket] = []
        for i in range(0, len(requests), self.chunk_size):
            tickets.extend(self._put_chunk(requests[i : i + self.chunk_size]))
        return tickets

    def run(
        self, requests: Iterable[JobRequest], *, timeout: float | None = None
    ) -> list[ClusterTicket]:
        """Submit a batch and wait for all of it (tickets in order)."""
        tickets = self.submit_many(requests)
        for t in tickets:
            t.wait(timeout)
        return tickets

    def submit_sweep(self, sweep: "SweepRequest", *, block: bool = True):
        """Admit a parameter sweep; points chunk onto the workers.

        Returns a :class:`~repro.serving.sweeps.SweepTicket` over
        per-point cluster tickets, scan-ordered.
        """
        from repro.serving.sweeps import SweepTicket

        tickets = self.submit_many(sweep.expand(), block=block)
        return SweepTicket(sweep, tickets)

    def _put_chunk(self, requests: list[JobRequest]) -> list[ClusterTicket]:
        if not requests:
            return []
        row_id = new_ticket_id()
        blob = json.dumps([wire.encode_request(r) for r in requests]).encode()
        self.store.put(
            row_id,
            blob,
            kind="chunk" if len(requests) > 1 else "job",
            device=requests[0].device,
            priority=max(r.priority for r in requests),
            size=len(requests),
            max_attempts=self.max_attempts,
        )
        return [
            ClusterTicket(self, row_id, index=i, size=len(requests))
            for i in range(len(requests))
        ]

    # ---- ticket lookup (restart / HTTP surface) ------------------------------------

    def ticket(self, ticket_id: str) -> ClusterTicket:
        """Re-attach to a durable ticket by id (survives restarts)."""
        row_id, _, index = ticket_id.partition("#")
        row = self.store.get(row_id)  # raises ServiceError when unknown
        return ClusterTicket(
            self,
            row_id,
            index=int(index) if index else 0,
            size=int(row["size"]),
        )

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
        deadline = None if timeout is None else time.monotonic() + float(timeout)
        pause = 0.005
        while True:
            if self.store.unfinished() == 0 and not self.store.pending_assembly():
                return True
            if deadline is not None and time.monotonic() >= deadline:
                return False
            time.sleep(pause)
            pause = min(pause * 2.0, 0.05)

    # ---- monitor -------------------------------------------------------------------

    def _monitor_loop(self) -> None:
        tick = min(max(self.lease_s / 3.0, 0.02), 0.25)
        while not self._monitor_stop.wait(tick):
            try:
                self.store.reap_expired()
                self._assemble_pending()
                self._respawn_dead()
            except Exception:
                # The monitor must survive transient store contention.
                pass

    def _respawn_dead(self) -> None:
        with self._lock:
            if not self._started:
                return
            for slot, proc in enumerate(self._processes):
                if proc is not None and not proc.is_alive():
                    self._spawn(slot)

    def _assemble_pending(self) -> int:
        """Move finished results from shared memory into durable blobs."""
        n = 0
        for row in self.store.pending_assembly():
            if self._assemble_row(row):
                n += 1
        return n

    def _assemble_row(self, row: dict) -> bool:
        spec = json.loads(row["shm"])
        meta = json.loads(row["result_meta"])
        try:
            arrays = _shm.load_arrays(spec)
        except FileNotFoundError:
            # Segment died with its creator before assembly: recover()
            # on the next start re-executes the row.
            return False
        blob = json.dumps(join_results(meta, arrays)).encode()
        if self.store.attach_result(row["id"], blob, expected_shm=row["shm"]):
            # We won the assembly claim, so the unlink is ours.
            _shm.unlink(spec)
            return True
        return False

    def _materialize(self, row: dict) -> list[dict]:
        """The encoded result list of a done row, assembling if needed."""
        if row["result"] is not None:
            return json.loads(row["result"])
        self._assemble_row(row)
        row = self.store.get(row["id"])
        if row["result"] is None:
            raise ServiceError(
                f"job {row['id']} finished but its result is not "
                "recoverable (shared memory lost before assembly); "
                "restart the service to re-execute it"
            )
        return json.loads(row["result"])

    # ---- metrics -------------------------------------------------------------------

    def _register_metrics(self) -> None:
        """Publish pool-wide series on the global obs registry.

        Worker processes cannot touch the parent's registry, so their
        counter snapshots flow through the store's metrics channel and
        are re-emitted here with a ``worker`` label — one exposition
        reflects the whole pool.
        """
        ref = weakref.ref(self)
        service = self.name

        def collect():
            obj = ref()
            if obj is None:
                return None
            samples = []
            try:
                by_state = obj.store.counts_by_state()
                worker_metrics = obj.store.worker_metrics()
            except Exception:
                return []
            for state, count in sorted(by_state.items()):
                samples.append(
                    (
                        "repro_cluster_jobs",
                        "gauge",
                        {"service": service, "state": state},
                        float(count),
                    )
                )
            for worker, counters in sorted(worker_metrics.items()):
                for key, value in sorted(counters.items()):
                    if key == "pid":
                        continue
                    samples.append(
                        (
                            "repro_cluster_worker_events_total",
                            "counter",
                            {
                                "service": service,
                                "worker": worker,
                                "name": key,
                            },
                            float(value),
                        )
                    )
            samples.append(
                (
                    "repro_cluster_workers",
                    "gauge",
                    {"service": service},
                    float(
                        sum(1 for p in obj._processes if p is not None and p.is_alive())
                    ),
                )
            )
            return samples

        collect._obs_alive = lambda: ref() is not None
        REGISTRY.register_collector(collect)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ClusterService({self.name!r}, workers={self.num_workers}, "
            f"store={self.store.path!r})"
        )
