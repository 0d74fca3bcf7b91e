"""The unified ticket surface shared by every serving transport.

One serializable protocol — :class:`Ticket` — has one concrete
in-process ticket, :class:`~repro.serving.service.JobTicket`, handed
out by the thread and the process services alike; the wire-level
:class:`~repro.serving.http.HttpTicket` proxies it and
:class:`~repro.serving.sweeps.SweepTicket` aggregates a sweep's.
Callers write against the protocol and stay transport-agnostic::

    client = repro.serving.connect(service_or_url)
    ticket = client.submit(request)          # any transport
    ticket.status()                          # -> TicketState
    ticket.result(timeout=30)                # blocks, typed re-raise
    ticket.cancel()                          # best-effort, see below
    snapshot = ticket.to_dict()              # wire/store serializable

Lifecycle::

    PENDING ──▶ DISPATCHED ──▶ RUNNING ──▶ DONE
           \\            \\            ├──▶ FAILED
            ▼             ▼           └──▶ CANCELLED
        CANCELLED     CANCELLED

Cancellation semantics are uniform: a *pending* ticket drops from its
queue and resolves immediately; a *running* ticket sets a cooperative
flag that the execution engine checks at chunk boundaries — the job
either raises :class:`~repro.errors.CancelledError` at the next
boundary or, if it was already past the last one, completes normally
(``cancel()`` then returns ``False`` only when the ticket is already
terminal; acceptance of the request does not guarantee interruption).
"""

from __future__ import annotations

import uuid
from enum import Enum
from typing import Any, Protocol, runtime_checkable


class TicketState(Enum):
    """Lifecycle states shared by every ticket implementation."""

    PENDING = "pending"
    DISPATCHED = "dispatched"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        """Whether the state is final (result/error/cancel resolved)."""
        return self in (
            TicketState.DONE,
            TicketState.FAILED,
            TicketState.CANCELLED,
        )


def new_ticket_id() -> str:
    """A process-unique, wire-safe ticket identifier."""
    return uuid.uuid4().hex


@runtime_checkable
class Ticket(Protocol):
    """What every serving transport hands back for a submission.

    ``result`` blocks up to *timeout* seconds and re-raises the
    failure (or :class:`~repro.errors.CancelledError`) carried by the
    ticket; ``to_dict`` emits a JSON-serializable snapshot suitable
    for the wire and the durable store (its ``result`` field decodes
    with :func:`repro.serving.wire.decode_result`).
    """

    id: str

    def status(self) -> TicketState: ...

    def done(self) -> bool: ...

    def wait(self, timeout: float | None = None) -> bool: ...

    def result(self, timeout: float | None = None) -> Any: ...

    def cancel(self) -> bool: ...

    def to_dict(self) -> dict: ...
