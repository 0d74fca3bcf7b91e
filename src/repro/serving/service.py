"""The asynchronous multi-device execution service.

:class:`PulseService` is the serving front door the paper's
architecture implies but the synchronous stack lacked: many frontends
submit :class:`~repro.client.client.JobRequest`\\ s, get future-like
:class:`JobTicket`\\ s back immediately, and the service drains the
per-device queues concurrently with compile caching, identical-program
coalescing, and capability failover.

Pipeline per queue entry (one request, or the points of a sweep)::

    submit ──▶ admission control (bounded in-flight requests)
           ──▶ routing (capability candidates)
           ──▶ device queue (priority + FIFO)
    waiting caller (entry at the queue head) or the device's worker
           ──▶ coalesce mates ──▶ compile cache (per point)
           ──▶ one batched execution (one group per device at a time)
           ──▶ shot split ──▶ resolve tickets
    failure ──▶ failover to the next equivalent device, else fail tickets

An unbounded wait on a ticket (``result()`` or ``wait()``) runs the
ticket's entry on the waiting thread when the worker would pop it
next: the pool is started and not stopping, the entry heads its
queue, and no group of the pool is running. The caller pops the entry
with its coalescing mates, exactly as the worker would, and runs the
same :meth:`PulseService._execute_group`, so a closed loop of submit
then wait pays no thread handoff. A bounded wait never runs work.

Failure semantics: a full service (``max_pending`` requests in flight,
and not asked to block) raises :class:`~repro.errors.BackpressureError`
at ``submit``; a stopped service raises
:class:`~repro.errors.ServiceError`; *request* problems (unknown
device/adapter, execution failure after failover is exhausted) are
carried by the ticket and re-raised from ``ticket.result()``.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import threading
import time
from typing import TYPE_CHECKING, Callable, Iterable

from repro.api.executable import ProgramBatch
from repro.client.client import ClientResult, JobRequest, MQSSClient
from repro.core.schedule import FamilyBatch
from repro.errors import BackpressureError, CancelledError, ServiceError
from repro.obs.tracing import span
from repro.serving.batching import RequestBatcher
from repro.serving.metrics import ServingMetrics
from repro.serving.routing import CapabilityRouter
from repro.serving.tickets import TicketState, new_ticket_id
from repro.serving.workers import DevicePool, ServiceEntry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.serving.sweeps import SweepRequest

__all__ = ["JobTicket", "PulseService", "TicketState"]


class JobTicket:
    """Future-like handle for one request accepted by a service.

    The one concrete in-process :class:`repro.serving.tickets.Ticket`:
    :class:`PulseService` and
    :class:`~repro.serving.cluster.ClusterService` both hand it out,
    and :class:`~repro.serving.http.HttpTicket` proxies it over the
    wire.  The owning service resolves it and sets ``_cancel_hook``;
    a :class:`PulseService` also sets ``_run_hook``, which an
    unbounded wait calls to run the ticket's queued entry on the
    waiting thread.  All terminal transitions go through one
    idempotent :meth:`_finalize` — exactly one of resolve / fail /
    cancel wins, late arrivals are dropped — which wakes every waiter
    at once.
    """

    def __init__(self, request: JobRequest | None) -> None:
        self.id = new_ticket_id()
        self.request = request
        self.state = TicketState.PENDING
        self.device: str | None = None  # device that actually executed
        self.attempts = 0  # failover hops taken
        self.group_size = 0  # requests sharing one shot-split execution (1 = alone)
        self.enqueued_at = time.perf_counter()
        self.dispatched_at: float | None = None
        self.completed_at: float | None = None
        self._event = threading.Event()
        self._result: ClientResult | None = None
        self._error: Exception | None = None
        self._state_lock = threading.Lock()
        self._cancel_requested = False
        #: Set by the admitting service; lets ``cancel()`` drop still-
        #: queued entries immediately instead of waiting for dispatch.
        self._cancel_hook: Callable[["JobTicket"], None] | None = None
        #: Set by a PulseService: runs the ticket's entry on the calling
        #: thread if its pool lets it; returns whether it ran.
        self._run_hook: Callable[[], bool] | None = None

    # ---- caller API ----------------------------------------------------------------

    def status(self) -> TicketState:
        """The current lifecycle state (non-blocking)."""
        return self.state

    def done(self) -> bool:
        return self._event.is_set()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until terminal; False when *timeout* elapses first.

        With ``timeout=None`` the waiting thread first runs the
        ticket's entry itself while its pool lets it (see
        :mod:`repro.serving.service`), again after each failover
        re-offer; a bounded wait only waits.
        """
        if timeout is None:
            while not self._event.is_set():
                hook = self._run_hook
                if hook is None or not hook():
                    break
        return self._event.wait(timeout)

    def result(self, timeout: float | None = None) -> ClientResult:
        """The execution result; blocks, re-raises the failure if any.

        ``result()`` without a timeout may run the request on the
        calling thread (see :meth:`wait`); the result is the same.
        """
        if not self.wait(timeout):
            raise ServiceError(
                f"ticket {self.id} not done within {timeout}s"
            )
        if self._error is not None:
            raise self._error
        assert self._result is not None
        return self._result

    def cancel(self) -> bool:
        """Request cancellation; False once the ticket is terminal.

        A still-queued job drops from its device queue and resolves
        ``CANCELLED`` immediately; a running job sets a cooperative
        flag checked at execution chunk boundaries.  ``True`` means
        the request was *accepted*, not that interruption is
        guaranteed — a job past its last chunk boundary completes.
        """
        with self._state_lock:
            if self.state.terminal:
                return False
            self._cancel_requested = True
        hook = self._cancel_hook
        if hook is not None:
            hook(self)
        return True

    @property
    def cancel_requested(self) -> bool:
        """Whether :meth:`cancel` has been called (cooperative flag)."""
        return self._cancel_requested

    @property
    def wait_s(self) -> float | None:
        """Queue wait: admission to dispatch-start (None while queued)."""
        if self.dispatched_at is None:
            return None
        return self.dispatched_at - self.enqueued_at

    # ---- serialization -------------------------------------------------------------

    def to_dict(self) -> dict:
        """A JSON-safe snapshot (wire format of :mod:`repro.serving.wire`)."""
        from repro.serving import wire

        data: dict = {
            "kind": "job",
            "id": self.id,
            "state": self.state.value,
            "device": self.device
            or (self.request.device if self.request is not None else None),
            "attempts": self.attempts,
            "group_size": self.group_size,
        }
        if self.request is not None:
            data["request"] = wire.encode_request(self.request)
        if self._result is not None:
            data["result"] = wire.encode_result(self._result)
        if self._error is not None:
            data["error"] = wire.encode_error(self._error)
        return data

    # ---- service internals ---------------------------------------------------------

    def _mark_dispatched(self) -> bool:
        """First dispatch stamps the ticket; re-dispatches return False."""
        if self.dispatched_at is not None:
            return False
        self.dispatched_at = time.perf_counter()
        with self._state_lock:
            if not self.state.terminal:
                self.state = TicketState.DISPATCHED
        return True

    def _mark_running(self) -> None:
        with self._state_lock:
            if not self.state.terminal:
                self.state = TicketState.RUNNING

    def _finalize(
        self,
        state: TicketState,
        *,
        result: ClientResult | None = None,
        error: Exception | None = None,
    ) -> bool:
        """Terminal transition; exactly the first caller wins."""
        with self._state_lock:
            if self.state.terminal:
                return False
            self.state = state
            self._result = result
            self._error = error
            if result is not None:
                self.device = result.device
            self.completed_at = time.perf_counter()
            self._run_hook = None  # drops the ticket -> entry cycle
        self._event.set()
        return True

    def _resolve(self, result: ClientResult) -> bool:
        return self._finalize(TicketState.DONE, result=result)

    def _fail(self, error: Exception) -> bool:
        return self._finalize(TicketState.FAILED, error=error)

    def _cancelled(self, error: CancelledError | None = None) -> bool:
        if error is None:
            error = CancelledError(f"ticket {self.id} was cancelled")
        return self._finalize(TicketState.CANCELLED, error=error)


class PulseService:
    """Concurrent job service over an :class:`MQSSClient`.

    Parameters
    ----------
    Each device gets one queue and one worker thread; identical
    requests coalesce and a failed execution fails over to a
    capability-equivalent device (:class:`CapabilityRouter`).
    Compilation goes through ``client.compiler``, whose memo is the
    compile cache the service shares with every other path over the
    client.

    Parameters
    ----------
    client:
        The client whose compile/execute halves do the actual work.
        Give it ``persistent_sessions=True`` to avoid per-job session
        churn under load.
    max_pending:
        Bound on requests in flight service-wide — admission control.
    start:
        Start the worker threads immediately. With ``start=False``,
        requests queue up until :meth:`start` — useful to maximize
        coalescing for a known batch.
    """

    def __init__(
        self, client: MQSSClient, *, max_pending: int = 1024, start: bool = True
    ) -> None:
        if max_pending < 1:
            raise ServiceError(f"max_pending must be >= 1, got {max_pending}")
        self.client = client
        self.router = CapabilityRouter(client.driver)
        self.batcher = RequestBatcher()
        self.metrics = ServingMetrics()
        self.max_pending = max_pending
        self._pools: dict[str, DevicePool] = {}
        self._pools_lock = threading.RLock()
        self._admit = threading.Condition()
        self._in_flight = 0
        self._arrivals = itertools.count()
        self._started = False
        self._stopped = False
        if start:
            self.start()

    # ---- lifecycle -----------------------------------------------------------------

    def start(self) -> "PulseService":
        """Start (or resume) draining the device queues."""
        with self._pools_lock:
            self._started = True
            self._stopped = False
            for pool in self._pools.values():
                pool.start()
        return self

    def stop(self, wait: bool = True) -> None:
        """Drain queued work and stop the worker threads.

        Submissions raise :class:`~repro.errors.ServiceError` until
        :meth:`start` resumes the service.
        """
        with self._pools_lock:
            self._started = False
            self._stopped = True
            pools = list(self._pools.values())
        for pool in pools:
            pool.stop(wait=wait)

    def __enter__(self) -> "PulseService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    @property
    def pending(self) -> int:
        """Requests admitted but not yet resolved."""
        with self._admit:
            return self._in_flight

    def flush(self, timeout: float | None = None) -> bool:
        """Block until every admitted request has resolved."""
        with self._admit:
            return self._admit.wait_for(lambda: self._in_flight == 0, timeout)

    # ---- submission ----------------------------------------------------------------

    def submit(
        self,
        request: JobRequest,
        *,
        block: bool = False,
        timeout: float | None = None,
    ) -> JobTicket:
        """Admit *request*; returns its ticket immediately.

        Raises :class:`~repro.errors.BackpressureError` when the
        service is full — unless *block*, which waits up to *timeout*
        for space — and :class:`~repro.errors.ServiceError` when it is
        stopped. Request-level errors (unknown device/adapter…) do not
        raise: they come back on the ticket.

        ``submit_many`` and ``Executable.run_async`` on a service
        target (``repro.compile(program, Target.from_service(service,
        device)).run_async()``) admit through it; ``submit_sweep``
        admits its points through the same slot reservation and
        placement, as multi-point entries.
        """
        ticket = self._new_ticket(request)
        self._reserve(1, block=block, timeout=timeout)
        self._enqueue([request], [ticket])
        return ticket

    def submit_many(
        self, requests: Iterable[JobRequest], *, block: bool = True
    ) -> list[JobTicket]:
        """Submit a batch in order; blocks for admission by default."""
        return [self.submit(r, block=block) for r in requests]

    def run(
        self, requests: Iterable[JobRequest], *, timeout: float | None = None
    ) -> list[JobTicket]:
        """Submit a batch and wait for all of it (tickets in order)."""
        tickets = self.submit_many(requests)
        for t in tickets:
            t.wait(timeout)
        return tickets

    def submit_sweep(self, sweep: "SweepRequest", *, block: bool = True):
        """Admit a parameter sweep as one queue entry.

        Expands *sweep* into one :class:`JobRequest` (and one
        :class:`JobTicket`) per scan point and returns a
        :class:`~repro.serving.sweeps.SweepTicket` over them. The
        points queue as a single entry — split into chunks only when
        the sweep exceeds the free admission slots (``max_pending``) —
        and each chunk runs as one batched device execution: every
        point compiles through the shared compile cache, then all of
        them evolve in one :meth:`ScheduleExecutor.execute_batch
        <repro.sim.executor.ScheduleExecutor.execute_batch>` pass, each
        on its own seeded stream, so identical points do not coalesce
        (see :mod:`repro.serving.sweeps`).

        A sweep over one bound
        :class:`~repro.core.schedule.FamilyBatch` (or one
        :class:`~repro.api.executable.ProgramBatch`, bound here at
        admission) is one request: one admission slot, one check of
        its families against the device's constraints (no compile),
        one QDMI job (one per member on a remote device) and one
        execution of the families, counted as its members in
        ``sweep_points``.

        A point cancelled while its chunk is queued drops out of it;
        a running chunk aborts only when every point asked to cancel.
        An admission failure partway through (backpressure with
        ``block=False``, or a stopped service) never orphans the points
        already admitted: the failed points' tickets carry the error
        and the returned :class:`SweepTicket` stays complete and
        scan-ordered.
        """
        from repro.serving.sweeps import SweepTicket

        requests = sweep.expand()
        batches = (FamilyBatch, ProgramBatch)
        self.metrics.incr("sweeps")
        self.metrics.incr(
            "sweep_points",
            sum(
                len(r.program) if isinstance(r.program, batches) else 1
                for r in requests
            ),
        )
        tickets = [self._new_ticket(r) for r in requests]
        # Built before admission: its id's ``os.urandom`` releases the
        # GIL, which after the last offer would let the woken worker pop
        # the entry before the caller's wait could run it.
        sweep_ticket = SweepTicket(sweep, tickets)
        start = 0
        while start < len(requests):
            try:
                size = self._reserve(len(requests) - start, block=block, timeout=None)
            except Exception as exc:
                tickets[start]._fail(exc)
                start += 1
                continue
            stop = start + size
            try:
                self._enqueue(requests[start:stop], tickets[start:stop])
            except Exception as exc:
                for ticket in tickets[start:stop]:
                    ticket._fail(exc)
            start = stop
        return sweep_ticket

    def _new_ticket(self, request: JobRequest) -> JobTicket:
        ticket = JobTicket(request)
        ticket._cancel_hook = self._on_ticket_cancel
        return ticket

    def _reserve(self, want: int, *, block: bool, timeout: float | None) -> int:
        """Take up to *want* admission slots (at least one); the count."""
        with self._admit:
            if self._stopped:
                raise ServiceError("service is stopped: start() it to submit")
            if self._in_flight >= self.max_pending:
                if not block:
                    self.metrics.incr("rejected_backpressure")
                    raise BackpressureError(
                        f"service full: {self._in_flight} requests in flight "
                        f"(max_pending={self.max_pending})"
                    )
                if not self._started:
                    # Nothing will free admission slots until start();
                    # blocking here (esp. with timeout=None) deadlocks.
                    self.metrics.incr("rejected_backpressure")
                    raise BackpressureError(
                        f"service full (max_pending={self.max_pending}) and "
                        "not started: blocking admission cannot make progress"
                    )
                ok = self._admit.wait_for(
                    lambda: self._in_flight < self.max_pending, timeout
                )
                if not ok:
                    self.metrics.incr("rejected_backpressure")
                    raise BackpressureError(
                        f"service still full after {timeout}s "
                        f"(max_pending={self.max_pending})"
                    )
            granted = min(want, self.max_pending - self._in_flight)
            self._in_flight += granted
            return granted

    def _enqueue(self, requests: list[JobRequest], tickets: list[JobTicket]) -> None:
        """Queue admitted points as one entry (slots already reserved)."""
        try:
            entry = self._build_entry(requests, tickets)
        except Exception as exc:
            self._release(len(tickets))
            self.metrics.incr("rejected_invalid", len(tickets))
            for ticket in tickets:
                ticket._fail(exc)
            return
        if not self._pool(entry.device).offer(entry):
            # stop() ran after admission: no worker is left to drain it.
            self._release(len(tickets))
            raise ServiceError("service is stopped: start() it to submit")
        self.metrics.incr("submitted", len(tickets))

    # ---- routing / placement -------------------------------------------------------

    def _pool(self, device_name: str) -> DevicePool:
        with self._pools_lock:
            pool = self._pools.get(device_name)
            if pool is None:
                pool = DevicePool(self, device_name)
                self._pools[device_name] = pool
                if self._started:
                    pool.start()
            return pool

    def _build_entry(
        self, requests: list[JobRequest], tickets: list[JobTicket]
    ) -> ServiceEntry:
        entry = ServiceEntry(
            requests,
            tickets,
            arrival=next(self._arrivals),
            enqueued_at=tickets[0].enqueued_at,
            candidates=self.router.candidates(requests[0]),
        )
        self._prepare_for_device(entry)
        run_here = functools.partial(self._run_here, entry)
        for ticket in tickets:
            ticket._run_hook = run_here
        return entry

    def _prepare_for_device(self, entry: ServiceEntry) -> None:
        """(Re)generate the payloads for the entry's current device."""
        entry.payloads = [
            self.client.to_payload(r, entry.device) for r in entry.requests
        ]
        if len(entry) > 1 or isinstance(entry.payloads[0], FamilyBatch):
            # Sweep points and bound families each sample their own
            # streams: never a shot-split execution.
            entry.coalesce_key = None
            return
        request = entry.request
        decoherence = (request.metadata or {}).get("decoherence")
        entry.coalesce_key = self.batcher.coalesce_key(
            entry.device,
            self.client.compiler.payload_fingerprint(
                entry.payloads[0], request.scalar_args or None
            ),
            request.seed,
            variant=repr(decoherence) if decoherence is not None else "",
        )

    # ---- cancellation --------------------------------------------------------------

    def _on_ticket_cancel(self, _ticket: JobTicket) -> None:
        """Ticket cancel hook: drop still-queued cancelled points now."""
        self._purge_cancelled_entries()

    def _purge_cancelled_entries(self) -> None:
        """Remove cancel-requested points from every device queue.

        Purged tickets resolve ``CANCELLED`` immediately; points a
        worker already popped are left to the cooperative flag.
        """
        with self._pools_lock:
            pools = list(self._pools.values())
        for pool in pools:
            purged = pool.purge(
                lambda t: t.cancel_requested and not t.state.terminal
            )
            for ticket in purged:
                if ticket._cancelled():
                    self.metrics.incr("cancelled")
                self._release()

    # ---- execution (worker threads and waiting callers) ----------------------------

    def _run_here(self, entry: ServiceEntry) -> bool:
        """Ticket run hook: run *entry* on the waiting thread if its
        pool lets it (see :meth:`DevicePool.run_here`)."""
        with self._pools_lock:
            pool = self._pools.get(entry.device)
        return pool is not None and pool.run_here(entry)

    def _execute_group(self, pool: DevicePool, group: list[ServiceEntry]) -> None:
        """Run one popped group as one batched device execution.

        *group* is either one entry (a single request or a sweep
        chunk: one execution unit per point) or several coalesced
        single-request entries (one unit, run with the summed shots
        and split back). Every unit compiles through the shared cache
        (a bound family batch is checked, not compiled), then all of
        them execute in one
        :meth:`MQSSClient.execute_compiled_batch` call.
        """
        for entry in group:
            # Points cancelled between queue and pop never execute.
            for ticket in entry.retain(
                lambda t: not t.state.terminal and not t.cancel_requested
            ):
                if ticket._cancelled():
                    self.metrics.incr("cancelled")
                self._release()
        group = [entry for entry in group if len(entry)]
        if not group:
            return
        if len(group) == 1:
            (entry,) = group
            units = [
                (request, payload, request.shots, [ticket])
                for request, payload, ticket in zip(
                    entry.requests, entry.payloads, entry.tickets
                )
            ]
        else:
            head = group[0]
            units = [
                (
                    head.request,
                    head.payloads[0],
                    sum(e.request.shots for e in group),
                    [e.tickets[0] for e in group],
                )
            ]
        tickets = [t for entry in group for t in entry.tickets]
        for _, _, _, members in units:
            for ticket in members:
                ticket.group_size = len(members)
        for ticket in tickets:
            if ticket._mark_dispatched():
                # Only the first dispatch is a queue wait; failover
                # re-dispatches would inflate the histogram.
                self.metrics.observe(
                    "queue_wait", ticket.dispatched_at - ticket.enqueued_at
                )

        def _group_cancelled() -> bool:
            # A batched execution serves every member; it is only
            # abandoned when *all* of them asked to cancel.
            return all(t.cancel_requested for t in tickets)

        try:
            with span(
                "serving.execute",
                device=pool.device_name,
                group=len(tickets),
            ):
                from repro.api.core import compile_payload

                _, target, _ = self.client.resolve_target(pool.device_name)
                programs, compile_s = [], []
                for request, payload, _, _ in units:
                    timings: dict[str, float] = {}
                    program = compile_payload(
                        self.client.compiler,
                        payload,
                        target,
                        scalar_args=request.scalar_args or None,
                        timings=timings,
                    )
                    self.metrics.observe("compile", timings["compile"])
                    if not isinstance(program, FamilyBatch):
                        self.metrics.incr(
                            "cache_hits" if program.cache_hit else "cache_misses"
                        )
                    programs.append(program)
                    compile_s.append(timings["compile"])
                for ticket in tickets:
                    ticket._mark_running()
                batch_timings: dict[str, float] = {}
                results = self.client.execute_compiled_batch(
                    [unit[0] for unit in units],
                    programs,
                    device_name=pool.device_name,
                    shots=[unit[2] for unit in units],
                    timings=batch_timings,
                    should_cancel=_group_cancelled,
                )
                self.metrics.observe("execute", batch_timings["execute"])
                for result, seconds in zip(results, compile_s):
                    result.timings_s["compile"] = seconds
                for (_, _, _, members), result in zip(units, results):
                    self._resolve_unit(members, result)
        except Exception as exc:
            self._handle_failure(group, exc)

    def _resolve_unit(self, tickets: list[JobTicket], combined: ClientResult) -> None:
        """Resolve the tickets one execution unit served."""
        if len(tickets) == 1:
            results = [combined]
        else:
            self.metrics.incr("coalesced_executions")
            self.metrics.incr("coalesced_requests", len(tickets))
            splits = self.batcher.split_counts(
                combined.counts, [t.request.shots for t in tickets]
            )
            results = [
                dataclasses.replace(
                    combined,
                    counts=counts,
                    shots=ticket.request.shots,
                    timings_s=dict(combined.timings_s),
                )
                for ticket, counts in zip(tickets, splits)
            ]
        for ticket, result in zip(tickets, results):
            ticket._resolve(result)
            self.metrics.incr("completed")
            self.metrics.observe("total", ticket.completed_at - ticket.enqueued_at)
            self._release()

    def _handle_failure(self, group: list[ServiceEntry], exc: Exception) -> None:
        if isinstance(exc, CancelledError):
            # Cooperative cancel observed mid-execution: resolve every
            # member CANCELLED (the group only aborts when all asked)
            # and never fail over — the cancel would follow the entry.
            for entry in group:
                for ticket in entry.tickets:
                    if ticket._cancelled(exc):
                        self.metrics.incr("cancelled")
                    self._release()
            return
        self.metrics.incr("execution_failures")
        for entry in group:
            nxt = entry.attempt + 1
            # No failover while the service is stopping: a re-enqueued
            # entry could land on a pool whose worker already exited
            # and strand its tickets forever.
            if nxt < len(entry.candidates) and self._started:
                entry.attempt = nxt
                for ticket in entry.tickets:
                    ticket.attempts = nxt
                try:
                    self._prepare_for_device(entry)
                except Exception as prep_exc:
                    self._fail_entry(entry, prep_exc)
                    continue
                if self._pool(entry.device).offer(entry):
                    self.metrics.incr("failovers")
                else:  # fallback pool already stopped
                    self._fail_entry(entry, exc)
            else:
                self._fail_entry(entry, exc)

    def _fail_entry(self, entry: ServiceEntry, exc: Exception) -> None:
        for ticket in entry.tickets:
            ticket._fail(exc)
            self.metrics.incr("failed")
            self._release()

    def _release(self, slots: int = 1) -> None:
        """Return admission slots (one per resolved or dropped point)."""
        with self._admit:
            self._in_flight -= slots
            self._admit.notify_all()
