"""Unified observability: tracing, metrics, and profiling.

The paper's QDMI workflow calls out telemetry-driven error
mitigation (§5.3); closing that loop — and serving heavy traffic at
all — needs one place to ask *where time and cache capacity go*.
This package is that seam:

* :mod:`repro.obs.tracing` — :func:`span` / :func:`trace`: a span
  tree over compile → dispatch → simulate, exportable as a Chrome
  ``trace_event`` JSON or an indented text dump;
* :mod:`repro.obs.metrics` — the global :data:`REGISTRY` of
  counters/gauges/histograms plus pull-collectors for every cache
  and the serving layer; :func:`exposition` renders one Prometheus
  text page for the whole process;
* :mod:`repro.obs.profile` — per-batch sim-kernel records (stack
  size, dimension, squaring levels, dedup ratio, GEMM seconds)
  surfaced as ``result.metadata["profile"]``.

Everything is near-zero cost when disabled; the CI smoke
``benchmarks/bench_obs_overhead.py --quick`` holds it under 2%.
"""

from repro.obs.metrics import (
    REGISTRY,
    CacheStats,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    exposition,
    register_cache,
)
from repro.obs.profile import (
    disable_profiling,
    enable_profiling,
    profiling_enabled,
)
from repro.obs.tracing import (
    Span,
    Trace,
    current_trace,
    span,
    trace,
    tracing_enabled,
)

__all__ = [
    "Span",
    "Trace",
    "span",
    "trace",
    "tracing_enabled",
    "current_trace",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "CacheStats",
    "REGISTRY",
    "exposition",
    "register_cache",
    "enable_profiling",
    "disable_profiling",
    "profiling_enabled",
]
