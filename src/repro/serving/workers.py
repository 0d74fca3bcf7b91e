"""Per-device pools: one queue and one worker thread per device.

Each registered device gets its own :class:`DevicePool` — a priority
queue (FIFO within equal priority) drained by one worker thread.
Independent devices therefore execute concurrently, while a device
runs one group at a time (the simulated QPUs, like real ones, run one
program at a time).

A thread that blocks on a ticket whose entry heads the queue runs the
entry itself (:meth:`DevicePool.run_here`) instead of waking the
worker and sleeping until it finishes. The worker and callers pop
through the same :meth:`DevicePool._pop_group_locked` and share one
slot: a group runs only while no other group of the pool does,
whoever runs it.
"""

from __future__ import annotations

import contextvars
import heapq
import threading
from typing import TYPE_CHECKING, Any

from repro.client.client import JobRequest

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.serving.service import JobTicket, PulseService


class ServiceEntry:
    """One queue entry: a single request or a chunk of sweep points.

    The points travel, execute and fail over together; each keeps its
    own ticket and compiler payload. Only single-point entries
    carry a ``coalesce_key`` — identical requests coalesce into one
    shot-split execution, while the points of a sweep each sample
    their own seeded stream.
    """

    __slots__ = (
        "requests",
        "tickets",
        "payloads",
        "coalesce_key",
        "arrival",
        "enqueued_at",
        "candidates",
        "attempt",
    )

    def __init__(
        self,
        requests: list[JobRequest],
        tickets: list["JobTicket"],
        *,
        arrival: int,
        enqueued_at: float,
        candidates: list[str],
    ) -> None:
        self.requests = requests
        self.tickets = tickets
        self.payloads: list[Any] = []
        self.coalesce_key: str | None = None
        self.arrival = arrival
        self.enqueued_at = enqueued_at
        self.candidates = candidates
        self.attempt = 0

    def __len__(self) -> int:
        return len(self.tickets)

    @property
    def request(self) -> JobRequest:
        """The head request: it carries the entry's priority and route."""
        return self.requests[0]

    @property
    def device(self) -> str:
        """The device this entry is currently routed to."""
        return self.candidates[self.attempt]

    def retain(self, keep) -> list["JobTicket"]:
        """Keep the points whose ticket satisfies *keep*; return the rest."""
        flags = [bool(keep(t)) for t in self.tickets]
        if all(flags):
            return []
        dropped = [t for t, flag in zip(self.tickets, flags) if not flag]
        for name in ("requests", "tickets", "payloads"):
            values = getattr(self, name)
            if values:
                setattr(self, name, [v for v, flag in zip(values, flags) if flag])
        return dropped

    def sort_key(self) -> tuple[int, int]:
        return (-self.request.priority, self.arrival)

    def __lt__(self, other: "ServiceEntry") -> bool:
        return self.sort_key() < other.sort_key()


class DevicePool:
    """Queue + worker thread for one device.

    A group runs on the worker thread, or on a caller blocked on one
    of its tickets (:meth:`run_here`); either way it holds the pool's
    one slot, so the device runs one group at a time, in queue order.
    """

    def __init__(self, service: "PulseService", device_name: str) -> None:
        self.service = service
        self.device_name = device_name
        self._entries: list[ServiceEntry] = []
        self._cond = threading.Condition()
        self._thread: threading.Thread | None = None
        self._stopping = False
        self._started = False
        self._busy = False  # a popped group has not finished yet

    # ---- lifecycle -----------------------------------------------------------------

    def start(self) -> None:
        with self._cond:
            if self._started:
                return
            self._started = True
            self._stopping = False
        self._thread = threading.Thread(
            target=self._run, name=f"serve-{self.device_name}", daemon=True
        )
        self._thread.start()

    def stop(self, wait: bool = True) -> None:
        """Ask the worker to exit after draining the queue."""
        with self._cond:
            self._stopping = True
            self._cond.notify_all()
        if wait and self._thread is not None:
            self._thread.join()
        self._thread = None
        with self._cond:
            self._started = False

    @property
    def pending(self) -> int:
        """Requests queued here (a sweep entry counts all its points)."""
        with self._cond:
            return sum(len(entry) for entry in self._entries)

    # ---- queue ---------------------------------------------------------------------

    def offer(self, entry: ServiceEntry) -> bool:
        """Queue *entry*; False once the pool has stopped and no worker
        is left to drain the queue — accepting then would strand it."""
        with self._cond:
            if self._stopping and not (self._thread and self._thread.is_alive()):
                return False
            heapq.heappush(self._entries, entry)
            self._cond.notify_all()
            return True

    def purge(self, predicate) -> list["JobTicket"]:
        """Drop still-queued points whose ticket matches *predicate*.

        Used by ticket cancellation: a cancelled point that has not
        been popped yet is dropped here, so it never executes; an
        entry left without points leaves the queue. Points already
        popped are beyond the queue's reach (the cooperative cancel
        flag covers them). Returns the dropped tickets.
        """
        with self._cond:
            removed: list["JobTicket"] = []
            for entry in self._entries:
                removed += entry.retain(lambda t: not predicate(t))
            if removed:
                self._entries[:] = [e for e in self._entries if len(e)]
                heapq.heapify(self._entries)
            return removed

    def _pop_group_locked(self) -> list[ServiceEntry]:
        """Head entry + any coalescable mates currently queued."""
        head = heapq.heappop(self._entries)
        group = [head]
        if self._entries and head.coalesce_key is not None:
            max_batch = self.service.batcher.max_batch
            mates: list[ServiceEntry] = []
            rest: list[ServiceEntry] = []
            for entry in self._entries:
                if (
                    entry.coalesce_key == head.coalesce_key
                    and len(group) + len(mates) < max_batch
                ):
                    mates.append(entry)
                else:
                    rest.append(entry)
            if mates:
                self._entries[:] = rest
                heapq.heapify(self._entries)
                group.extend(sorted(mates, key=ServiceEntry.sort_key))
        return group

    def _take_locked(self) -> list[ServiceEntry]:
        group = self._pop_group_locked()
        self._busy = True
        return group

    def _execute(self, group: list[ServiceEntry]) -> None:
        """Run a taken group, then free the pool's slot."""
        try:
            # A fresh context, as on a worker thread: a caller's
            # ``use_dtype`` scope never reaches served work.
            contextvars.Context().run(self.service._execute_group, self, group)
        finally:
            with self._cond:
                self._busy = False
                self._cond.notify_all()

    # ---- execution -----------------------------------------------------------------

    def run_here(self, entry: ServiceEntry) -> bool:
        """Run *entry*'s group on the calling thread; whether it ran.

        Only the entry the worker would pop next is taken, only while
        the pool is started, not stopping and not running a group.
        Otherwise the caller leaves the entry to the worker.
        """
        with self._cond:
            if (
                not self._started
                or self._stopping
                or self._busy
                or not self._entries
                or self._entries[0] is not entry
            ):
                return False
            group = self._take_locked()
        self._execute(group)
        return True

    def _run(self) -> None:
        while True:
            with self._cond:
                while not self._entries or self._busy:
                    if self._stopping and not self._entries:
                        return
                    self._cond.wait()
                group = self._take_locked()
            self._execute(group)
