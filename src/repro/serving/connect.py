"""``connect()``: one client surface over every serving transport.

The unified entry point::

    client = repro.serving.connect(service_or_addr)

accepts an in-process :class:`~repro.serving.service.PulseService`, a
:class:`~repro.serving.cluster.ClusterService`, or an ``http://`` /
``https://`` address of a running front-end
(:mod:`repro.serving.http`), and returns a :class:`ServiceClient`
whose surface is identical across all three::

    ticket = client.submit(request)       # -> Ticket (protocol)
    client.submit_many(requests)
    client.submit_sweep(sweep)
    client.status(ticket_or_id)           # -> TicketState
    client.result(ticket_or_id, timeout)  # -> ClientResult
    client.cancel(ticket_or_id)           # -> bool
    client.devices(), client.metrics_text()

In-process tickets are :class:`~repro.serving.service.JobTicket`\\ s,
remote ones :class:`~repro.serving.http.HttpTicket` proxies; both
block on a completion event rather than a polling loop.

Results are bit-identical across transports: the HTTP path serializes
through :mod:`repro.serving.wire`, whose scalar fields are plain JSON
(exact float round-trip), so the same seeded request returns the same
counts and probabilities whether it executed in-process or behind the
front-end.

The service surfaces and their unified-client spelling (``connect``
is the transport-agnostic one):

===============================  ======================================
existing surface                  unified client
===============================  ======================================
``service.submit(req)``           ``client.submit(req)``
``service.submit_many(reqs)``     ``client.submit_many(reqs)``
``service.submit_sweep(sweep)``   ``client.submit_sweep(sweep)``
``ticket.result(timeout)``        same (tickets implement the protocol)
``Executable.run_async()``        unchanged — works against any
                                  connected client via
                                  ``Target.from_service(client, dev)``
===============================  ======================================
"""

from __future__ import annotations

import threading
from typing import Any, Iterable

from repro.client.client import ClientResult, JobRequest
from repro.errors import ServiceError
from repro.serving.tickets import Ticket, TicketState


class ServiceClient:
    """Shared surface of every connected serving transport.

    Concrete transports implement ``submit``/``submit_many``/
    ``submit_sweep``/``devices``/``metrics_text``; the by-id helpers
    (``status``/``result``/``cancel``) resolve ids through a
    transport-specific :meth:`ticket` lookup, so both ticket objects
    and bare id strings are accepted everywhere.
    """

    def submit(self, request: JobRequest) -> Ticket:
        raise NotImplementedError

    def submit_many(self, requests: Iterable[JobRequest]) -> list[Ticket]:
        return [self.submit(r) for r in requests]

    def submit_sweep(self, sweep: Any):
        raise NotImplementedError

    def ticket(self, ticket_id: str) -> Ticket:
        """Resolve a ticket id back to a live handle."""
        raise NotImplementedError

    def devices(self) -> list[str]:
        raise NotImplementedError

    def metrics_text(self) -> str:
        """The obs registry exposition covering this service."""
        raise NotImplementedError

    def close(self) -> None:
        """Release transport resources (no-op by default)."""

    # ---- by-id conveniences ----------------------------------------------------------

    def _coerce(self, ticket_or_id) -> Ticket:
        if isinstance(ticket_or_id, str):
            return self.ticket(ticket_or_id)
        return ticket_or_id

    def status(self, ticket_or_id) -> TicketState:
        return self._coerce(ticket_or_id).status()

    def result(self, ticket_or_id, timeout: float | None = None) -> ClientResult:
        return self._coerce(ticket_or_id).result(timeout)

    def cancel(self, ticket_or_id) -> bool:
        return self._coerce(ticket_or_id).cancel()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class InProcessClient(ServiceClient):
    """Unified client over a service object living in this process.

    Works for both :class:`~repro.serving.service.PulseService`
    (thread pool) and :class:`~repro.serving.cluster.ClusterService`
    (process pool + durable store); both hand out
    :class:`~repro.serving.service.JobTicket`\\ s. A cluster
    re-attaches a ticket by id from its durable store (surviving
    restarts), so only its sweep aggregates, which have no store row,
    are kept in the registry :meth:`ticket` reads; a ``PulseService``
    has no store, so every ticket it hands out is kept.
    """

    def __init__(self, service: Any) -> None:
        self.service = service
        self._tickets: dict[str, Ticket] = {}
        self._lock = threading.Lock()
        self._reattach = getattr(service, "ticket", None)

    # expose the underlying client when the service has one, so
    # Target.from_service(connect(service), dev) keeps local compile.
    @property
    def client(self):
        return getattr(self.service, "client", None)

    def _remember(self, ticket: Ticket, *, durable: bool = True) -> Ticket:
        """Keep *ticket* for :meth:`ticket`, unless it is *durable* and
        the service re-attaches it by id."""
        if not durable or self._reattach is None:
            with self._lock:
                self._tickets[ticket.id] = ticket
        return ticket

    def submit(self, request: JobRequest) -> Ticket:
        return self._remember(self.service.submit(request))

    def submit_many(self, requests: Iterable[JobRequest]) -> list[Ticket]:
        tickets = self.service.submit_many(list(requests))
        for t in tickets:
            self._remember(t)
        return tickets

    def submit_sweep(self, sweep: Any):
        aggregate = self.service.submit_sweep(sweep)
        for t in aggregate.tickets:
            self._remember(t)
        return self._remember(aggregate, durable=False)

    def ticket(self, ticket_id: str) -> Ticket:
        with self._lock:
            ticket = self._tickets.get(ticket_id)
        if ticket is not None:
            return ticket
        if self._reattach is not None:  # durable store lookup (cluster)
            return self._reattach(ticket_id)
        raise ServiceError(f"unknown ticket {ticket_id!r}")

    def devices(self) -> list[str]:
        client = self.client
        if client is not None:
            return sorted(client.driver.device_names())
        # Cluster services own no client; ask a worker-equivalent one.
        factory = getattr(self.service, "client_factory", None)
        if factory is not None:
            probe = factory()
            try:
                return sorted(probe.driver.device_names())
            finally:
                close = getattr(probe, "close", None)
                if close is not None:
                    close()
        return []

    def metrics_text(self) -> str:
        from repro.obs.metrics import exposition

        return exposition()

    def flush(self, timeout: float | None = None) -> bool:
        return self.service.flush(timeout)


def connect(target: Any) -> ServiceClient:
    """One client over any serving transport.

    *target* may be a :class:`PulseService`, a
    :class:`ClusterService`, an already-connected
    :class:`ServiceClient` (returned unchanged), or an ``http(s)://``
    address string of a running :mod:`repro.serving.http` front-end.
    """
    if isinstance(target, ServiceClient):
        return target
    if isinstance(target, str):
        if target.startswith(("http://", "https://")):
            from repro.serving.http import HttpServiceClient

            return HttpServiceClient(target)
        raise ServiceError(
            f"cannot connect to {target!r}: expected an http(s):// "
            "address or a service object"
        )
    if hasattr(target, "submit") and hasattr(target, "submit_sweep"):
        return InProcessClient(target)
    raise ServiceError(
        f"cannot connect to {type(target).__name__}: not a serving "
        "transport"
    )
