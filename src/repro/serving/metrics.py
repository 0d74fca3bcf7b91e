"""Thread-safe serving telemetry: per-stage latency histograms.

The paper's calibration use case assumes HPC centers operating QC
services under sustained multi-tenant demand (§2.1); operating such a
service requires observability. :class:`ServingMetrics` aggregates the
counters every worker thread emits plus a latency histogram per
pipeline stage (queue wait, compile, execute, end-to-end), and renders
a Prometheus-style text exposition for scrapers and humans alike.

Each stage histogram is a plain registry :class:`repro.obs.Histogram`
on the default time buckets (2 us to ~134 s, plus the ``+Inf``
overflow bucket), and every :class:`ServingMetrics` instance
self-registers on the global :data:`repro.obs.REGISTRY` so
``repro.obs.exposition()`` includes the serving series
(``repro_serving_*``) alongside caches and sim kernels.
"""

from __future__ import annotations

import threading
import time
import weakref
from contextlib import contextmanager

from repro.obs.metrics import REGISTRY, Histogram
from repro.runtime.telemetry import Telemetry

class ServingMetrics:
    """Counters + per-stage latency histograms for a :class:`PulseService`."""

    def __init__(self, name: str | None = None) -> None:
        self.telemetry = Telemetry()
        self._lock = threading.Lock()
        self._histograms: dict[str, Histogram] = {}
        self.name = name or REGISTRY.autoname("serving")
        self._register()

    def _register(self) -> None:
        """Publish this instance's series on the global registry."""
        ref = weakref.ref(self)
        service = self.name

        def collect():
            obj = ref()
            if obj is None:
                return None
            snap = obj.telemetry.snapshot()
            samples = []
            for key, value in snap["counters"].items():
                samples.append(
                    (
                        "repro_serving_events_total",
                        "counter",
                        {"service": service, "name": key},
                        value,
                    )
                )
            for key, value in snap["timers"].items():
                samples.append(
                    (
                        "repro_serving_stage_seconds_total",
                        "counter",
                        {"service": service, "stage": key},
                        value,
                    )
                )
            with obj._lock:
                stages = dict(obj._histograms)
            for stage, hist in stages.items():
                samples.append(
                    (
                        "repro_serving_latency_seconds",
                        "histogram",
                        {"service": service, "stage": stage},
                        hist,
                    )
                )
            return samples

        collect._obs_alive = lambda: ref() is not None
        REGISTRY.register_collector(collect)

    # ---- recording -----------------------------------------------------------------

    def incr(self, name: str, amount: float = 1.0) -> None:
        self.telemetry.incr(name, amount)

    def get(self, name: str) -> float:
        return self.telemetry.get(name)

    def histogram(self, stage: str) -> Histogram:
        """The histogram for *stage*, created on first use."""
        with self._lock:
            hist = self._histograms.get(stage)
            if hist is None:
                hist = self._histograms[stage] = Histogram()
            return hist

    def observe(self, stage: str, seconds: float) -> None:
        """Record a latency sample for *stage* (histogram + timer sum)."""
        self.histogram(stage).observe(seconds)
        self.telemetry.add_time(stage, seconds)

    @contextmanager
    def timer(self, stage: str):
        """Time a block and :meth:`observe` it under *stage*."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.observe(stage, time.perf_counter() - t0)

    # ---- export --------------------------------------------------------------------

    def _flat_telemetry(self) -> dict[str, float]:
        """Counters plus ``_s``-suffixed timers (legacy key layout)."""
        snap = self.telemetry.snapshot()
        out = dict(snap["counters"])
        out.update({f"{k}_s": v for k, v in snap["timers"].items()})
        return out

    def snapshot(self) -> dict[str, float]:
        """Counters/timers plus ``<stage>_p50_s``/``_p99_s``/``_count``."""
        out = self._flat_telemetry()
        with self._lock:
            stages = dict(self._histograms)
        for stage, hist in stages.items():
            out[f"{stage}_count"] = float(hist.count)
            out[f"{stage}_p50_s"] = hist.quantile(0.5)
            out[f"{stage}_p99_s"] = hist.quantile(0.99)
        return out

    def render_text(self) -> str:
        """Prometheus-style text exposition of counters and histograms."""
        lines: list[str] = []
        snap = self._flat_telemetry()
        for name in sorted(snap):
            lines.append(f"serving_{name} {snap[name]:.9g}")
        with self._lock:
            stages = sorted(self._histograms.items())
        for stage, hist in stages:
            metric = "serving_latency_seconds"
            for bound, cumulative in hist.cumulative_buckets():
                le = "+Inf" if bound == float("inf") else f"{bound:.9g}"
                lines.append(
                    f'{metric}_bucket{{stage="{stage}",le="{le}"}} {cumulative}'
                )
            lines.append(f'{metric}_sum{{stage="{stage}"}} {hist.sum_value:.9g}')
            lines.append(f'{metric}_count{{stage="{stage}"}} {hist.count}')
        return "\n".join(lines) + "\n"
