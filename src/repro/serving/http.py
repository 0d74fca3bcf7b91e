"""A thin HTTP front-end over the unified serving surface.

Stdlib-only (:mod:`http.server` + :mod:`urllib.request`) so the wire
tier adds no dependency.  The front-end wraps any connected
:class:`~repro.serving.connect.ServiceClient` — in-process thread
service or durable cluster alike — and speaks the JSON codecs of
:mod:`repro.serving.wire`, so results are bit-identical to in-process
submission.

Endpoints::

    POST /v1/jobs               encoded JobRequest -> {"id", "state"}
    POST /v1/jobs/batch         {"requests": [...]} -> {"ids": [...]}
    GET  /v1/jobs/<id>          ticket snapshot {"id", "state", ...}
    GET  /v1/jobs/<id>/result   long-poll (?timeout=s): blocks on the
                                ticket's completion event; 200 when
                                terminal, 202 while in flight
    POST /v1/jobs/<id>/cancel   -> {"cancelled": bool}
    GET  /v1/devices            -> {"devices": [...]}
    GET  /metrics               obs registry text exposition
    GET  /healthz               -> {"ok": true}

The matching client is :class:`HttpServiceClient` — construct it
directly or via ``repro.serving.connect("http://host:port")`` — whose
tickets (:class:`HttpTicket`, the one proxy ticket) implement the
same :class:`~repro.serving.tickets.Ticket` protocol as the
:class:`~repro.serving.service.JobTicket` they stand for.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Iterable

from repro.client.client import ClientResult, JobRequest
from repro.errors import CancelledError, ServiceError
from repro.serving import wire
from repro.serving.connect import ServiceClient, connect
from repro.serving.tickets import TicketState

#: Cap on one server-side long-poll block; clients re-poll past it.
_MAX_POLL_S = 30.0


# ---- server --------------------------------------------------------------------------


class _Handler(BaseHTTPRequestHandler):
    """Routes requests to the owning :class:`HttpFrontend`."""

    protocol_version = "HTTP/1.1"

    # Silence per-request stderr logging (tests and benches hit this
    # endpoint thousands of times).
    def log_message(self, fmt: str, *args: Any) -> None:
        pass

    @property
    def frontend(self) -> "HttpFrontend":
        return self.server.frontend  # type: ignore[attr-defined]

    def _send_json(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, status: int, text: str) -> None:
        body = text.encode()
        self.send_response(status)
        self.send_header("Content-Type", "text/plain; version=0.0.4")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b"{}"
        try:
            return json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ServiceError(f"malformed JSON body: {exc}") from exc

    def _dispatch(self, method: str) -> None:
        parsed = urllib.parse.urlsplit(self.path)
        parts = [p for p in parsed.path.split("/") if p]
        query = urllib.parse.parse_qs(parsed.query)
        try:
            status, payload = self.frontend.route(
                method, parts, query, self._read_json if method == "POST" else None
            )
        except ServiceError as exc:
            status_code = 404 if "unknown" in str(exc) else 400
            self._send_json(status_code, {"error": wire.encode_error(exc)})
            return
        except Exception as exc:  # pragma: no cover - defensive boundary
            self._send_json(500, {"error": wire.encode_error(exc)})
            return
        if isinstance(payload, str):
            self._send_text(status, payload)
        else:
            self._send_json(status, payload)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("POST")


class HttpFrontend:
    """Serve a connected client (or raw service) over HTTP.

    ``port=0`` binds an ephemeral port; read :attr:`address` after
    :meth:`start`.  The server runs threaded, so a long-polling result
    request does not block submissions.
    """

    def __init__(self, service: Any, host: str = "127.0.0.1", port: int = 0) -> None:
        self.client = connect(service)
        self._host = host
        self._port = port
        self._server: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    # ---- lifecycle -----------------------------------------------------------------

    def start(self) -> "HttpFrontend":
        if self._server is not None:
            return self
        server = ThreadingHTTPServer((self._host, self._port), _Handler)
        server.daemon_threads = True
        server.frontend = self  # type: ignore[attr-defined]
        self._server = server
        self._thread = threading.Thread(
            target=server.serve_forever,
            name="repro-http-frontend",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        server, self._server = self._server, None
        if server is not None:
            server.shutdown()
            server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    @property
    def address(self) -> str:
        if self._server is None:
            raise ServiceError("front-end not started")
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}"

    def __enter__(self) -> "HttpFrontend":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ---- routing -------------------------------------------------------------------

    def route(self, method, parts, query, read_body):
        """(status, payload) for one request; raises ServiceError on 4xx."""
        if method == "GET" and parts == ["healthz"]:
            return 200, {"ok": True}
        if method == "GET" and parts == ["metrics"]:
            return 200, self.client.metrics_text()
        if method == "GET" and parts == ["v1", "devices"]:
            return 200, {"devices": self.client.devices()}
        if parts[:2] == ["v1", "jobs"]:
            if method == "POST" and len(parts) == 2:
                request = wire.decode_request(read_body())
                ticket = self.client.submit(request)
                return 200, {"id": ticket.id, "state": ticket.status().value}
            if method == "POST" and parts[2:] == ["batch"]:
                requests = [
                    wire.decode_request(r)
                    for r in read_body().get("requests", [])
                ]
                tickets = self.client.submit_many(requests)
                return 200, {"ids": [t.id for t in tickets]}
            if len(parts) >= 3:
                ticket_id = urllib.parse.unquote(parts[2])
                if method == "GET" and len(parts) == 3:
                    return 200, self._snapshot(ticket_id)
                if method == "GET" and parts[3:] == ["result"]:
                    return self._result(ticket_id, query)
                if method == "POST" and parts[3:] == ["cancel"]:
                    return 200, {
                        "cancelled": self.client.cancel(ticket_id)
                    }
        raise ServiceError(f"unknown endpoint {method} /{'/'.join(parts)}")

    def _snapshot(self, ticket_id: str) -> dict:
        ticket = self.client.ticket(ticket_id)
        data = ticket.to_dict()
        # Snapshots answer status polls; the request blob (a pickle
        # of arbitrary size) stays server-side.
        data.pop("request", None)
        return data

    def _result(self, ticket_id: str, query) -> tuple[int, dict]:
        """Long-poll: 200 once the ticket settles, 202 on timeout."""
        ticket = self.client.ticket(ticket_id)
        timeout = float(query.get("timeout", ["0"])[0])
        if not ticket.wait(min(max(timeout, 0.0), _MAX_POLL_S)):
            return 202, {"id": ticket_id, "state": ticket.status().value}
        payload = {"id": ticket_id, "state": ticket.status().value}
        try:
            payload["result"] = wire.encode_result(ticket.result(0))
        except Exception as exc:
            payload["error"] = wire.encode_error(exc)
        return 200, payload


def serve_http(service: Any, host: str = "127.0.0.1", port: int = 0) -> HttpFrontend:
    """Start (and return) an :class:`HttpFrontend` over *service*."""
    return HttpFrontend(service, host, port).start()


# ---- client --------------------------------------------------------------------------


class HttpTicket:
    """Wire-level proxy of a server-side ticket: the unified protocol
    over HTTP long-polls."""

    kind = "job"

    def __init__(self, client: "HttpServiceClient", ticket_id: str) -> None:
        self._client = client
        self.id = ticket_id

    def status(self) -> TicketState:
        return TicketState(self._client._get_json(
            f"/v1/jobs/{urllib.parse.quote(self.id)}"
        )["state"])

    def done(self) -> bool:
        return self.status().terminal

    def _long_poll(self, timeout: float | None) -> dict | None:
        """The terminal payload, or None when *timeout* ran out first;
        each request blocks server-side on the ticket's event."""
        deadline = None if timeout is None else time.monotonic() + float(timeout)
        while True:
            budget = (
                _MAX_POLL_S
                if deadline is None
                else max(0.0, deadline - time.monotonic())
            )
            status, payload = self._client._poll_result(self.id, budget)
            if status == 200:
                return payload
            if deadline is not None and time.monotonic() >= deadline:
                return None

    def wait(self, timeout: float | None = None) -> bool:
        return self._long_poll(timeout) is not None

    def result(self, timeout: float | None = None) -> ClientResult:
        payload = self._long_poll(timeout)
        if payload is None:
            raise ServiceError(f"ticket {self.id} not done within {timeout}s")
        if "result" in payload:
            return wire.decode_result(payload["result"])
        error = wire.decode_error(payload.get("error") or {})
        if payload.get("state") == "cancelled" and not isinstance(
            error, CancelledError
        ):
            error = CancelledError(f"ticket {self.id} was cancelled")
        raise error

    def cancel(self) -> bool:
        payload = self._client._post_json(
            f"/v1/jobs/{urllib.parse.quote(self.id)}/cancel", {}
        )
        return bool(payload.get("cancelled"))

    def to_dict(self) -> dict:
        return self._client._get_json(f"/v1/jobs/{urllib.parse.quote(self.id)}")


class HttpServiceClient(ServiceClient):
    """The unified client surface over an HTTP front-end address."""

    def __init__(self, base_url: str, *, timeout_s: float = 60.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout_s = timeout_s

    # ---- transport -----------------------------------------------------------------

    def _request(
        self,
        method: str,
        path: str,
        body: dict | None = None,
        *,
        timeout_s: float | None = None,
    ) -> tuple[int, Any]:
        """One round trip; *timeout_s* overrides the socket timeout."""
        data = json.dumps(body).encode() if body is not None else None
        req = urllib.request.Request(
            self.base_url + path,
            data=data,
            method=method,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(
                req, timeout=timeout_s or self.timeout_s
            ) as resp:
                raw = resp.read()
                ctype = resp.headers.get("Content-Type", "")
                status = resp.status
        except urllib.error.HTTPError as exc:
            raw = exc.read()
            try:
                payload = json.loads(raw)
            except json.JSONDecodeError:
                raise ServiceError(
                    f"HTTP {exc.code} from {path}: {raw[:200]!r}"
                ) from exc
            raise wire.decode_error(
                payload.get("error") or {"message": str(exc)}
            ) from exc
        except urllib.error.URLError as exc:
            raise ServiceError(
                f"cannot reach serving front-end at {self.base_url}: "
                f"{exc.reason}"
            ) from exc
        except OSError as exc:  # socket timeouts, resets mid-response
            raise ServiceError(
                f"{method} {path} to {self.base_url} failed: {exc!r}"
            ) from exc
        if ctype.startswith("application/json"):
            return status, json.loads(raw)
        return status, raw.decode()

    def _get_json(self, path: str) -> dict:
        return self._request("GET", path)[1]

    def _post_json(self, path: str, body: dict) -> dict:
        return self._request("POST", path, body)[1]

    def _poll_result(self, ticket_id: str, budget_s: float) -> tuple[int, dict]:
        poll = min(max(budget_s, 0.0), _MAX_POLL_S)
        # The server may hold the request for *poll* seconds, so the
        # socket must outlive that block by the usual transport budget.
        return self._request(
            "GET",
            f"/v1/jobs/{urllib.parse.quote(ticket_id)}/result"
            f"?timeout={poll:.3f}",
            timeout_s=poll + self.timeout_s,
        )

    # ---- unified surface -----------------------------------------------------------

    def submit(self, request: JobRequest) -> HttpTicket:
        payload = self._post_json("/v1/jobs", wire.encode_request(request))
        return HttpTicket(self, payload["id"])

    def submit_many(self, requests: Iterable[JobRequest]) -> list[HttpTicket]:
        payload = self._post_json(
            "/v1/jobs/batch",
            {"requests": [wire.encode_request(r) for r in requests]},
        )
        return [HttpTicket(self, tid) for tid in payload["ids"]]

    def submit_sweep(self, sweep: Any):
        """Expand the sweep client-side and submit the points.

        Sweep builders are arbitrary callables, so expansion happens
        here rather than on the wire; the aggregated handle is the
        same :class:`~repro.serving.sweeps.SweepTicket` the other
        transports return.
        """
        from repro.serving.sweeps import SweepTicket

        tickets = self.submit_many(sweep.expand())
        return SweepTicket(sweep, tickets)

    def ticket(self, ticket_id: str) -> HttpTicket:
        return HttpTicket(self, ticket_id)

    def devices(self) -> list[str]:
        return list(self._get_json("/v1/devices")["devices"])

    def metrics_text(self) -> str:
        return self._request("GET", "/metrics")[1]
