"""The serving layer: an asynchronous multi-device execution service.

The paper's Fig. 2 places the MQSS client and second-level scheduler
between many user frontends and heterogeneous QDMI devices, and its
calibration use case (§2.1) assumes HPC centers operating quantum
services under sustained multi-tenant demand. This package turns the
synchronous client stack into that service:

* :mod:`repro.serving.service` — :class:`PulseService`: accepts
  :class:`~repro.client.client.JobRequest`\\ s, returns future-like
  :class:`JobTicket`\\ s, enforces bounded admission (backpressure);
  workers compile through the client's JIT compiler, whose
  content-addressed memo (payload x device calibration state) lets
  repeat programs skip the pass pipeline;
* :mod:`repro.serving.workers` — one queue and one worker thread per
  device, so independent devices execute in parallel while each
  device's queue drains FIFO-within-priority; a caller blocked on a
  ticket whose entry heads an idle queue runs it on its own thread;
* :mod:`repro.serving.routing` — :class:`CapabilityRouter`: failover
  onto capability-equivalent devices;
* :mod:`repro.serving.batching` — :class:`RequestBatcher`: coalesces
  identical-program requests into one execution and splits the
  sampled shots back per request;
* :mod:`repro.serving.metrics` — :class:`ServingMetrics`: thread-safe
  counters + per-stage latency histograms, published in
  ``repro.obs.exposition()``;
* :mod:`repro.serving.sweeps` — :class:`SweepRequest` /
  :class:`SweepTicket`: one request fanning out into a batch of
  parameterized schedules, evaluated through the simulator's batched
  propagator engine with a shared propagator cache.

Durable multi-process serving stacks three more tiers on top:

* :mod:`repro.serving.tickets` — the unified :class:`Ticket` protocol
  (``status``/``result``/``cancel``/``to_dict``): :class:`JobTicket`
  is its one concrete in-process ticket, handed out by both services;
* :mod:`repro.serving.store` — :class:`JobStore`: a SQLite (WAL) job
  store holding every ticket state transition; tickets survive
  restarts and crashed workers' leases expire back onto the queue;
* :mod:`repro.serving.cluster` — :class:`ClusterService`: a process
  worker pool leasing jobs from the store and shipping stacked result
  arrays back through ``multiprocessing.shared_memory``; workers
  report on per-worker pipes, so completions wake their waiters;
* :mod:`repro.serving.http` — :class:`HttpFrontend` /
  :class:`HttpServiceClient`: a stdlib HTTP tier over the same
  surface, whose :class:`~repro.serving.http.HttpTicket` long-polls;
* :mod:`repro.serving.connect` — :func:`connect`: one
  :class:`ServiceClient` over all three transports, bit-identical
  results in-process and over the wire.
"""

from repro.serving.batching import RequestBatcher
from repro.serving.cluster import ClusterService
from repro.serving.connect import InProcessClient, ServiceClient, connect
from repro.serving.metrics import ServingMetrics
from repro.serving.routing import CapabilityRouter
from repro.serving.service import JobTicket, PulseService
from repro.serving.store import JobStore
from repro.serving.sweeps import SweepRequest, SweepTicket
from repro.serving.tickets import Ticket, TicketState
from repro.serving.workers import DevicePool, ServiceEntry

__all__ = [
    "PulseService",
    "JobTicket",
    "Ticket",
    "TicketState",
    "connect",
    "ServiceClient",
    "InProcessClient",
    "ClusterService",
    "JobStore",
    "SweepRequest",
    "SweepTicket",
    "DevicePool",
    "ServiceEntry",
    "CapabilityRouter",
    "RequestBatcher",
    "ServingMetrics",
]


def serve_http(service, host: str = "127.0.0.1", port: int = 0):
    """Start an HTTP front-end over *service* (lazy import wrapper)."""
    from repro.serving.http import serve_http as _serve

    return _serve(service, host, port)
