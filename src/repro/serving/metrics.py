"""Thread-safe serving telemetry: event counters and stage latencies.

The paper's calibration use case assumes HPC centers operating QC
services under sustained multi-tenant demand (§2.1); operating such a
service requires observability. :class:`ServingMetrics` aggregates the
counters every worker thread emits plus a latency histogram per
pipeline stage (queue wait, compile, execute, end-to-end). A caller
times a stage itself and records it with :meth:`ServingMetrics.observe`.

Each event is a plain registry :class:`repro.obs.Counter` and each
stage a :class:`repro.obs.Histogram` on the default time buckets (2 us
to ~134 s, plus the ``+Inf`` overflow bucket). Every instance
publishes them on the global :data:`repro.obs.REGISTRY`, so
``repro.obs.exposition()`` renders the serving series
(``repro_serving_events_total`` and ``repro_serving_latency_seconds``,
labelled by ``service``) alongside caches and sim kernels.
"""

from __future__ import annotations

import threading

from repro.obs.metrics import REGISTRY, Counter, Histogram


class ServingMetrics:
    """Counters + per-stage latency histograms for a :class:`PulseService`."""

    def __init__(self, name: str | None = None) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._histograms: dict[str, Histogram] = {}
        self.name = name or REGISTRY.autoname("serving")
        REGISTRY.register_collector(self, ServingMetrics._metric_samples)

    def _instruments(self) -> tuple[dict[str, Counter], dict[str, Histogram]]:
        with self._lock:
            return dict(self._counters), dict(self._histograms)

    def _metric_samples(self) -> list[tuple]:
        """This instance's series for the global obs registry."""
        counters, stages = self._instruments()
        service = self.name
        return [
            (
                "repro_serving_events_total",
                "counter",
                {"service": service, "name": key},
                counter.value,
            )
            for key, counter in counters.items()
        ] + [
            (
                "repro_serving_latency_seconds",
                "histogram",
                {"service": service, "stage": stage},
                hist,
            )
            for stage, hist in stages.items()
        ]

    # ---- recording -----------------------------------------------------------------

    def incr(self, name: str, amount: float = 1.0) -> None:
        counter = self._counters.get(name)
        if counter is None:
            with self._lock:
                counter = self._counters.setdefault(name, Counter())
        counter.inc(amount)

    def get(self, name: str) -> float:
        counter = self._counters.get(name)
        return 0.0 if counter is None else counter.value

    def histogram(self, stage: str) -> Histogram:
        """The histogram for *stage*, created on first use."""
        hist = self._histograms.get(stage)
        if hist is None:
            with self._lock:
                hist = self._histograms.setdefault(stage, Histogram())
        return hist

    def observe(self, stage: str, seconds: float) -> None:
        """Record a latency sample for *stage*."""
        self.histogram(stage).observe(seconds)

    # ---- export --------------------------------------------------------------------

    def snapshot(self) -> dict[str, float]:
        """Counters, then per observed stage ``<stage>_s`` (summed
        seconds), ``<stage>_count`` and ``_p50_s``/``_p99_s``."""
        counters, stages = self._instruments()
        out = {key: counter.value for key, counter in counters.items()}
        out.update({f"{k}_s": h.sum_value for k, h in stages.items() if h.count})
        for stage, hist in stages.items():
            out[f"{stage}_count"] = float(hist.count)
            out[f"{stage}_p50_s"] = hist.quantile(0.5)
            out[f"{stage}_p99_s"] = hist.quantile(0.99)
        return out
