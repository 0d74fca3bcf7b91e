"""The SQLite store substrate shared by the job and pipeline stores.

:class:`~repro.serving.store.JobStore` (cluster tickets) and
:class:`~repro.pipeline.state.PipelineStore` (calibration runs) keep
their state the same way: one SQLite file in WAL mode, one connection
per thread (SQLite connections are not thread-safe by default), and
``BEGIN IMMEDIATE`` transactions wherever a read-modify-write must be
atomic across threads and processes.  This module holds that recipe
once.

A store opened without a path lives in a private temporary file that
:meth:`SQLiteStore.close` on the creating thread (or garbage
collection, or interpreter exit) removes together with its
``-wal``/``-shm`` companions, so ephemeral state runs through exactly
the same code as durable state.
"""

from __future__ import annotations

import os
import sqlite3
import tempfile
import threading
import weakref
from contextlib import contextmanager
from typing import Iterator

#: Files SQLite keeps beside a WAL-mode database.
_COMPANIONS = ("", "-wal", "-shm")


def _remove_files(path: str, owner_pid: int) -> None:
    # A forked child inherits the finalizer; only the creating process
    # may delete the files the parent is still using.
    if os.getpid() != owner_pid:
        return
    for suffix in _COMPANIONS:
        try:
            os.unlink(path + suffix)
        except FileNotFoundError:
            pass


class SQLiteStore:
    """Per-thread WAL connections and immediate transactions on one file.

    *path* ``None`` opens a private temporary database that is deleted
    when the thread that opened it calls :meth:`close`.  Subclasses
    validate their own path rules before calling this constructor and
    pass the *schema* script to apply.
    """

    def __init__(
        self,
        path: str | None,
        *,
        schema: str,
        busy_timeout_s: float = 30.0,
    ) -> None:
        self.ephemeral = path is None
        if path is None:
            fd, path = tempfile.mkstemp(prefix="repro-", suffix=".sqlite3")
            os.close(fd)
            self._cleanup = weakref.finalize(
                self, _remove_files, path, os.getpid()
            )
        self.path = os.path.abspath(path)
        self.busy_timeout_s = busy_timeout_s
        self._owner_thread = threading.get_ident()
        self._local = threading.local()
        with self._connect() as conn:
            conn.executescript(schema)

    def _connect(self) -> sqlite3.Connection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = sqlite3.connect(
                self.path, timeout=self.busy_timeout_s, isolation_level=None
            )
            conn.row_factory = sqlite3.Row
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.execute(f"PRAGMA busy_timeout={int(self.busy_timeout_s * 1000)}")
            self._local.conn = conn
        return conn

    @contextmanager
    def _transaction(self) -> Iterator[sqlite3.Connection]:
        """One ``BEGIN IMMEDIATE`` transaction: commit on exit, roll
        back on any exception."""
        conn = self._connect()
        conn.execute("BEGIN IMMEDIATE")
        try:
            yield conn
            conn.execute("COMMIT")
        except BaseException:
            conn.execute("ROLLBACK")
            raise

    def close(self) -> None:
        """Close this thread's connection; on the creating thread an
        ephemeral store also deletes its files.

        Worker threads sharing the store close only their own
        connection, so one of them finishing first cannot delete the
        database under the others.
        """
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            conn.close()
            self._local.conn = None
        if self.ephemeral and threading.get_ident() == self._owner_thread:
            self._cleanup()
