"""Durable pipeline run/task state on the shared SQLite store substrate.

:class:`PipelineStore` persists runs and tasks into one SQLite file in
WAL mode — per-thread connections, ``BEGIN IMMEDIATE`` transactions,
the :class:`repro.storage.SQLiteStore` recipe the cluster's
:class:`repro.serving.store.JobStore` uses too.  A run row carries the
*serialized DAG itself* (every :class:`~repro.pipeline.dag.TaskSpec` is
JSON by construction), so a process that was SIGKILLed mid-run can be
replaced by a fresh one that rebuilds the DAG from the database,
replays the completed tasks (:mod:`repro.pipeline.dag` replay
semantics) and executes only the remainder.

``PipelineStore()`` without a path is the ephemeral store —
trigger-driven recalibrations inside a scheduler, unit tests: a private
temporary file deleted on :meth:`~repro.storage.SQLiteStore.close`,
running through exactly the same code as a durable store.
"""

from __future__ import annotations

import json
import sqlite3
import time
from typing import Iterable

from repro.errors import PipelineError
from repro.pipeline.dag import DAG
from repro.storage import SQLiteStore

#: Run/task lifecycle states (a subset of the serving ticket walk).
RUN_STATES = ("pending", "running", "done", "failed")
TASK_STATES = ("pending", "running", "done", "failed")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS runs (
    id           TEXT PRIMARY KEY,
    dag_name     TEXT NOT NULL,
    dag_json     TEXT NOT NULL,
    state        TEXT NOT NULL DEFAULT 'pending',
    seed         INTEGER,
    error        TEXT,
    created_at   REAL NOT NULL,
    updated_at   REAL NOT NULL,
    completed_at REAL
);
CREATE TABLE IF NOT EXISTS tasks (
    run_id       TEXT NOT NULL,
    name         TEXT NOT NULL,
    kind         TEXT NOT NULL,
    state        TEXT NOT NULL DEFAULT 'pending',
    seed         INTEGER,
    attempts     INTEGER NOT NULL DEFAULT 0,
    result       TEXT,
    error        TEXT,
    created_at   REAL NOT NULL,
    updated_at   REAL NOT NULL,
    completed_at REAL,
    PRIMARY KEY (run_id, name)
);
CREATE INDEX IF NOT EXISTS tasks_run_state ON tasks (run_id, state);
"""


class PipelineStore(SQLiteStore):
    """One SQLite file of durable pipeline state.

    Thread- and process-safe the same way the serving job store is:
    every thread owns its connection, writes go through WAL, and the
    run-creation path uses one ``BEGIN IMMEDIATE`` transaction so a
    run plus its task rows land atomically.  Without *path* the store
    is ephemeral (a private temporary file removed on :meth:`close`).
    """

    def __init__(
        self, path: str | None = None, *, busy_timeout_s: float = 30.0
    ) -> None:
        if path in ("", ":memory:"):
            raise PipelineError(
                f"PipelineStore needs a file path, got {path!r}; use "
                "PipelineStore() for an ephemeral store"
            )
        super().__init__(path, schema=_SCHEMA, busy_timeout_s=busy_timeout_s)

    # ---- runs ------------------------------------------------------------------------

    def create_run(
        self,
        run_id: str,
        dag: DAG,
        *,
        seed: int | None,
        task_seeds: dict[str, int],
    ) -> None:
        """Persist a new run and one pending row per task, atomically."""
        now = time.time()
        try:
            with self._transaction() as conn:
                conn.execute(
                    "INSERT INTO runs (id, dag_name, dag_json, state, seed, "
                    "created_at, updated_at) "
                    "VALUES (?, ?, ?, 'pending', ?, ?, ?)",
                    (run_id, dag.name, dag.to_json(), seed, now, now),
                )
                for spec in dag.tasks:
                    conn.execute(
                        "INSERT INTO tasks (run_id, name, kind, state, seed, "
                        "created_at, updated_at) "
                        "VALUES (?, ?, ?, 'pending', ?, ?, ?)",
                        (
                            run_id,
                            spec.name,
                            spec.kind,
                            task_seeds.get(spec.name),
                            now,
                            now,
                        ),
                    )
        except sqlite3.IntegrityError as exc:
            raise PipelineError(f"run {run_id!r} already exists") from exc

    def get_run(self, run_id: str) -> dict | None:
        row = self._connect().execute(
            "SELECT * FROM runs WHERE id = ?", (run_id,)
        ).fetchone()
        return dict(row) if row is not None else None

    def load_dag(self, run_id: str) -> DAG:
        """Rebuild the persisted DAG of *run_id*."""
        row = self.get_run(run_id)
        if row is None:
            raise PipelineError(f"unknown pipeline run {run_id!r}")
        return DAG.from_json(row["dag_json"])

    def set_run_state(
        self, run_id: str, state: str, *, error: str | None = None
    ) -> None:
        now = time.time()
        terminal = state in ("done", "failed")
        self._connect().execute(
            "UPDATE runs SET state = ?, error = ?, updated_at = ?, "
            "completed_at = ? WHERE id = ?",
            (state, error, now, now if terminal else None, run_id),
        )

    def runs(self, states: Iterable[str] | None = None) -> list[dict]:
        if states is None:
            rows = self._connect().execute(
                "SELECT * FROM runs ORDER BY created_at"
            ).fetchall()
        else:
            states = tuple(states)
            marks = ",".join("?" for _ in states)
            rows = self._connect().execute(
                f"SELECT * FROM runs WHERE state IN ({marks}) "
                "ORDER BY created_at",
                states,
            ).fetchall()
        return [dict(r) for r in rows]

    # ---- tasks -----------------------------------------------------------------------

    def tasks(self, run_id: str) -> dict[str, dict]:
        rows = self._connect().execute(
            "SELECT * FROM tasks WHERE run_id = ?", (run_id,)
        ).fetchall()
        out: dict[str, dict] = {}
        for row in rows:
            rec = dict(row)
            if rec.get("result"):
                rec["result"] = json.loads(rec["result"])
            out[rec["name"]] = rec
        return out

    def mark_task_running(self, run_id: str, name: str) -> int:
        """pending/failed -> running; returns the new attempt count."""
        now = time.time()
        with self._transaction() as conn:
            row = conn.execute(
                "UPDATE tasks SET state = 'running', "
                "attempts = attempts + 1, updated_at = ? "
                "WHERE run_id = ? AND name = ? RETURNING attempts",
                (now, run_id, name),
            ).fetchone()
        if row is None:
            raise PipelineError(f"unknown task {name!r} in run {run_id!r}")
        return int(row["attempts"])

    def complete_task(self, run_id: str, name: str, result: dict) -> None:
        now = time.time()
        cur = self._connect().execute(
            "UPDATE tasks SET state = 'done', result = ?, error = NULL, "
            "updated_at = ?, completed_at = ? WHERE run_id = ? AND name = ?",
            (json.dumps(result), now, now, run_id, name),
        )
        if cur.rowcount == 0:
            raise PipelineError(f"unknown task {name!r} in run {run_id!r}")

    def fail_task(self, run_id: str, name: str, error: str) -> None:
        now = time.time()
        cur = self._connect().execute(
            "UPDATE tasks SET state = 'failed', error = ?, updated_at = ?, "
            "completed_at = ? WHERE run_id = ? AND name = ?",
            (error, now, now, run_id, name),
        )
        if cur.rowcount == 0:
            raise PipelineError(f"unknown task {name!r} in run {run_id!r}")

    def counts_by_state(self, run_id: str) -> dict[str, int]:
        rows = self._connect().execute(
            "SELECT state, COUNT(*) AS n FROM tasks WHERE run_id = ? "
            "GROUP BY state",
            (run_id,),
        ).fetchall()
        return {row["state"]: int(row["n"]) for row in rows}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PipelineStore({self.path!r})"
