"""The durable job store: SQLite-backed ticket state for the cluster.

Every cluster submission becomes one row whose ``state`` column walks
the unified ticket lifecycle (``pending -> dispatched -> running ->
done/failed/cancelled``).  SQLite in WAL mode gives the properties the
serving layer needs without a new dependency:

* **durability** — tickets survive service restarts; a restarted
  service drains exactly the unfinished backlog and *replays* finished
  results without re-execution;
* **multi-process safety** — workers in separate processes lease jobs
  with one atomic ``BEGIN IMMEDIATE`` transaction each, so a job is
  never executed twice concurrently;
* **crash recovery** — leases carry a heartbeat deadline; a worker
  that dies mid-job (SIGKILL, OOM) simply stops heartbeating and the
  reaper re-leases its jobs.  Re-execution is idempotent because the
  worker's compiler is content-addressed and execution is seeded, so
  a re-run reproduces the same result.

The store is also the cluster's result and metrics channel: workers
record a per-job shared-memory spec (:mod:`repro.serving.shm`) plus a
JSON result header, and publish per-worker counter snapshots into
``worker_metrics`` for the parent's registry collector.
"""

from __future__ import annotations

import json
import time
from typing import Iterable

from repro.errors import ServiceError
from repro.serving.tickets import TicketState
from repro.storage import SQLiteStore

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    seq            INTEGER PRIMARY KEY AUTOINCREMENT,
    id             TEXT NOT NULL UNIQUE,
    kind           TEXT NOT NULL DEFAULT 'job',
    state          TEXT NOT NULL DEFAULT 'pending',
    device         TEXT NOT NULL DEFAULT '',
    priority       INTEGER NOT NULL DEFAULT 0,
    request        BLOB,
    result         BLOB,
    result_meta    TEXT,
    shm            TEXT,
    error          TEXT,
    size           INTEGER NOT NULL DEFAULT 1,
    cancel         INTEGER NOT NULL DEFAULT 0,
    cancel_votes   TEXT,
    attempts       INTEGER NOT NULL DEFAULT 0,
    max_attempts   INTEGER NOT NULL DEFAULT 3,
    lease_owner    TEXT,
    lease_deadline REAL,
    created_at     REAL NOT NULL,
    updated_at     REAL NOT NULL,
    completed_at   REAL
);
CREATE INDEX IF NOT EXISTS jobs_state ON jobs (state, priority, seq);
CREATE TABLE IF NOT EXISTS worker_metrics (
    worker     TEXT PRIMARY KEY,
    payload    TEXT NOT NULL,
    updated_at REAL NOT NULL
);
"""

#: Row states a job can still make progress from.
UNFINISHED = ("pending", "dispatched", "running")


class JobStore(SQLiteStore):
    """One SQLite file of durable job state, usable from many processes.

    Connections are per-thread (SQLite connections are not thread-safe
    by default) and every process opens its own — cross-process
    coordination happens entirely through the database file.
    """

    def __init__(self, path: str, *, busy_timeout_s: float = 30.0) -> None:
        if not path or path == ":memory:":
            raise ServiceError(
                "JobStore needs a file path (shared across processes); "
                "':memory:' stores are invisible to workers"
            )
        super().__init__(path, schema=_SCHEMA, busy_timeout_s=busy_timeout_s)

    # ---- admission -------------------------------------------------------------------

    def put(
        self,
        job_id: str,
        request_blob: bytes,
        *,
        kind: str = "job",
        device: str = "",
        priority: int = 0,
        size: int = 1,
        max_attempts: int = 3,
    ) -> None:
        now = time.time()
        self._connect().execute(
            "INSERT INTO jobs (id, kind, state, device, priority, "
            "request, size, max_attempts, created_at, updated_at) "
            "VALUES (?, ?, 'pending', ?, ?, ?, ?, ?, ?, ?)",
            (
                job_id,
                kind,
                device,
                priority,
                request_blob,
                size,
                max_attempts,
                now,
                now,
            ),
        )

    # ---- worker side -----------------------------------------------------------------

    def lease(self, worker: str, lease_s: float) -> dict | None:
        """Atomically claim the next pending job for *worker*.

        Priority first, FIFO within priority — the same ordering the
        in-process device queues use.  Returns the claimed row (as a
        plain dict) or None when the backlog is empty.
        """
        now = time.time()
        with self._transaction() as conn:
            row = conn.execute(
                "SELECT * FROM jobs WHERE state = 'pending' AND cancel = 0 "
                "ORDER BY priority DESC, seq LIMIT 1"
            ).fetchone()
            if row is None:
                return None
            conn.execute(
                "UPDATE jobs SET state = 'dispatched', lease_owner = ?, "
                "lease_deadline = ?, attempts = attempts + 1, "
                "updated_at = ? WHERE seq = ?",
                (worker, now + lease_s, now, row["seq"]),
            )
        out = dict(row)
        out["state"] = "dispatched"
        out["attempts"] = row["attempts"] + 1
        out["lease_owner"] = worker
        return out

    def mark_running(self, job_id: str, worker: str, lease_s: float) -> bool:
        """dispatched -> running; False when the lease was lost."""
        now = time.time()
        cur = self._connect().execute(
            "UPDATE jobs SET state = 'running', lease_deadline = ?, "
            "updated_at = ? WHERE id = ? AND lease_owner = ? "
            "AND state = 'dispatched'",
            (now + lease_s, now, job_id, worker),
        )
        return cur.rowcount == 1

    def heartbeat(self, worker: str, lease_s: float) -> int:
        """Extend the deadline of every lease *worker* still holds."""
        now = time.time()
        cur = self._connect().execute(
            "UPDATE jobs SET lease_deadline = ? WHERE lease_owner = ? "
            "AND state IN ('dispatched', 'running')",
            (now + lease_s, worker),
        )
        return cur.rowcount

    def complete(
        self,
        job_id: str,
        worker: str,
        *,
        result_meta: str,
        shm_spec: dict | None,
        metrics: dict | None = None,
    ) -> bool:
        """Record a finished execution (result header + shm spec).

        Guarded on the lease: a zombie worker whose job was re-leased
        after a missed heartbeat cannot clobber the re-execution.
        *metrics*, the worker's counters with this job counted, commit
        in the same transaction as the ``done`` row, so a reader that
        sees the result also sees them.
        """
        now = time.time()
        with self._transaction() as conn:
            cur = conn.execute(
                "UPDATE jobs SET state = 'done', result_meta = ?, shm = ?, "
                "error = NULL, updated_at = ?, completed_at = ? "
                "WHERE id = ? AND lease_owner = ? "
                "AND state IN ('dispatched', 'running')",
                (
                    result_meta,
                    json.dumps(shm_spec) if shm_spec is not None else None,
                    now,
                    now,
                    job_id,
                    worker,
                ),
            )
            done = cur.rowcount == 1
            if done and metrics is not None:
                self._upsert_worker_metrics(conn, worker, metrics, now)
        return done

    def fail(self, job_id: str, worker: str, error_json: str) -> bool:
        now = time.time()
        cur = self._connect().execute(
            "UPDATE jobs SET state = 'failed', error = ?, updated_at = ?, "
            "completed_at = ? WHERE id = ? AND lease_owner = ? "
            "AND state IN ('dispatched', 'running')",
            (error_json, now, now, job_id, worker),
        )
        return cur.rowcount == 1

    def mark_cancelled(self, job_id: str, worker: str | None = None) -> bool:
        now = time.time()
        if worker is None:
            cur = self._connect().execute(
                "UPDATE jobs SET state = 'cancelled', updated_at = ?, "
                "completed_at = ? WHERE id = ? AND state = 'pending'",
                (now, now, job_id),
            )
        else:
            cur = self._connect().execute(
                "UPDATE jobs SET state = 'cancelled', updated_at = ?, "
                "completed_at = ? WHERE id = ? AND lease_owner = ? "
                "AND state IN ('dispatched', 'running')",
                (now, now, job_id, worker),
            )
        return cur.rowcount == 1

    # ---- cancellation ----------------------------------------------------------------

    def request_cancel(self, job_id: str, index: int | None = None) -> TicketState:
        """Request cancellation; pending jobs drop immediately.

        With *index* given, records one member's vote on a chunk row
        (size > 1): the chunk executes as a unit, so the cancel flag
        only arms once *every* member has voted — the same all-members
        rule the in-process coalescer applies.  ``index=None`` (or a
        size-1 row) cancels outright.

        Returns the row state *after* the request (CANCELLED when the
        job was still queued, otherwise its current state — running
        jobs observe the flag cooperatively).
        """
        now = time.time()
        with self._transaction() as conn:
            row = conn.execute(
                "SELECT state, size, cancel, cancel_votes FROM jobs "
                "WHERE id = ?",
                (job_id,),
            ).fetchone()
            if row is None:
                raise ServiceError(f"unknown job {job_id!r}")
            if TicketState(row["state"]).terminal:
                out_state = TicketState(row["state"])
            else:
                full = index is None or int(row["size"]) <= 1
                votes: set[int] = set(json.loads(row["cancel_votes"] or "[]"))
                if not full:
                    votes.add(int(index))
                    full = len(votes) >= int(row["size"])
                conn.execute(
                    "UPDATE jobs SET cancel = ?, cancel_votes = ?, "
                    "updated_at = ? WHERE id = ?",
                    (
                        1 if (full or row["cancel"]) else 0,
                        json.dumps(sorted(votes)),
                        now,
                        job_id,
                    ),
                )
                if full:
                    conn.execute(
                        "UPDATE jobs SET state = 'cancelled', "
                        "updated_at = ?, completed_at = ? "
                        "WHERE id = ? AND state = 'pending'",
                        (now, now, job_id),
                    )
                out = conn.execute(
                    "SELECT state FROM jobs WHERE id = ?", (job_id,)
                ).fetchone()
                out_state = TicketState(out["state"])
        return out_state

    def cancel_requested(self, job_id: str) -> bool:
        row = self._connect().execute(
            "SELECT cancel FROM jobs WHERE id = ?", (job_id,)
        ).fetchone()
        return bool(row and row["cancel"])

    # ---- parent side -----------------------------------------------------------------

    def get(self, job_id: str) -> dict:
        row = self._connect().execute(
            "SELECT * FROM jobs WHERE id = ?", (job_id,)
        ).fetchone()
        if row is None:
            raise ServiceError(f"unknown job {job_id!r}")
        return dict(row)

    def state(self, job_id: str) -> TicketState:
        row = self._connect().execute(
            "SELECT state FROM jobs WHERE id = ?", (job_id,)
        ).fetchone()
        if row is None:
            raise ServiceError(f"unknown job {job_id!r}")
        return TicketState(row["state"])

    def unfinished(self) -> int:
        row = self._connect().execute(
            "SELECT COUNT(*) AS n FROM jobs WHERE state IN (?, ?, ?)",
            UNFINISHED,
        ).fetchone()
        return int(row["n"])

    def counts_by_state(self) -> dict[str, int]:
        rows = self._connect().execute(
            "SELECT state, COUNT(*) AS n FROM jobs GROUP BY state"
        ).fetchall()
        return {row["state"]: int(row["n"]) for row in rows}

    def reap_expired(self) -> list[str]:
        """Re-lease jobs whose worker stopped heartbeating.

        Expired leases go back to ``pending`` (idempotent re-execution)
        unless the row is out of attempts, in which case it fails with
        a descriptive error.  Returns the ids that were re-leased.
        """
        now = time.time()
        with self._transaction() as conn:
            rows = conn.execute(
                "SELECT seq, id, attempts, max_attempts, lease_owner "
                "FROM jobs WHERE state IN ('dispatched', 'running') "
                "AND lease_deadline < ?",
                (now,),
            ).fetchall()
            releases: list[str] = []
            for row in rows:
                if row["attempts"] >= row["max_attempts"]:
                    conn.execute(
                        "UPDATE jobs SET state = 'failed', error = ?, "
                        "updated_at = ?, completed_at = ? WHERE seq = ?",
                        (
                            json.dumps(
                                {
                                    "type": "ExecutionError",
                                    "message": (
                                        f"job lease expired after "
                                        f"{row['attempts']} attempts "
                                        f"(last worker "
                                        f"{row['lease_owner']!r} died?)"
                                    ),
                                }
                            ),
                            now,
                            now,
                            row["seq"],
                        ),
                    )
                else:
                    conn.execute(
                        "UPDATE jobs SET state = 'pending', "
                        "lease_owner = NULL, lease_deadline = NULL, "
                        "updated_at = ? WHERE seq = ?",
                        (now, row["seq"]),
                    )
                    releases.append(row["id"])
        return releases

    def attach_result(
        self, job_id: str, blob: bytes, *, expected_shm: str | None
    ) -> bool:
        """Persist the assembled result blob, claiming the shm unlink.

        The ``WHERE shm IS ?`` guard makes assembly race-free between
        the service monitor and a caller re-attaching a ticket: exactly
        one wins (and must unlink the segment); the loser re-reads the
        blob the winner stored.
        """
        cur = self._connect().execute(
            "UPDATE jobs SET result = ?, shm = NULL, updated_at = ? "
            "WHERE id = ? AND state = 'done' AND shm IS ?",
            (blob, time.time(), job_id, expected_shm),
        )
        return cur.rowcount == 1

    def pending_assembly(self) -> list[dict]:
        """Finished rows whose arrays still sit in shared memory."""
        rows = self._connect().execute(
            "SELECT * FROM jobs WHERE state = 'done' AND shm IS NOT NULL"
        ).fetchall()
        return [dict(row) for row in rows]

    def recover(self) -> dict[str, int]:
        """Startup sweep after a (possibly unclean) shutdown.

        * expired leases are re-leased (or failed) via
          :meth:`reap_expired`;
        * ``done`` rows still pointing at shared memory lose the
          segment with the process that held it — those re-execute, so
          they go back to ``pending`` (their specs are returned for
          best-effort unlinking by the caller).
        """
        from repro.serving import shm as _shm

        released = len(self.reap_expired())
        reexecuted = 0
        for row in self.pending_assembly():
            if _shm.segment_alive(json.loads(row["shm"])):
                continue  # segment still alive; normal assembly will run
            now = time.time()
            self._connect().execute(
                "UPDATE jobs SET state = 'pending', shm = NULL, "
                "result_meta = NULL, lease_owner = NULL, "
                "lease_deadline = NULL, completed_at = NULL, "
                "updated_at = ? WHERE seq = ? AND shm IS NOT NULL",
                (now, row["seq"]),
            )
            reexecuted += 1
        return {"released": released, "reexecuted": reexecuted}

    # ---- metrics channel -------------------------------------------------------------

    def publish_worker_metrics(self, worker: str, payload: dict) -> None:
        self._upsert_worker_metrics(self._connect(), worker, payload, time.time())

    @staticmethod
    def _upsert_worker_metrics(conn, worker: str, payload: dict, now: float) -> None:
        conn.execute(
            "INSERT INTO worker_metrics (worker, payload, updated_at) "
            "VALUES (?, ?, ?) ON CONFLICT(worker) DO UPDATE SET "
            "payload = excluded.payload, updated_at = excluded.updated_at",
            (worker, json.dumps(payload), now),
        )

    def worker_metrics(self) -> dict[str, dict]:
        rows = self._connect().execute(
            "SELECT worker, payload FROM worker_metrics"
        ).fetchall()
        return {row["worker"]: json.loads(row["payload"]) for row in rows}

    # ---- introspection ---------------------------------------------------------------

    def jobs(self, states: Iterable[str] | None = None) -> list[dict]:
        if states is None:
            rows = self._connect().execute("SELECT * FROM jobs ORDER BY seq").fetchall()
        else:
            states = tuple(states)
            marks = ",".join("?" for _ in states)
            rows = self._connect().execute(
                f"SELECT * FROM jobs WHERE state IN ({marks}) ORDER BY seq",
                states,
            ).fetchall()
        return [dict(row) for row in rows]

    def __len__(self) -> int:
        row = self._connect().execute("SELECT COUNT(*) AS n FROM jobs").fetchone()
        return int(row["n"])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"JobStore({self.path!r}, {self.counts_by_state()})"
