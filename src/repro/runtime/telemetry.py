"""Counters and timers for runtime observability.

QDMI's stated use cases include "telemetry-driven error mitigation"
(paper §5.3); this small module is the telemetry sink the scheduler
and benchmarks write into.

:class:`Telemetry` is thread-safe: the serving layer
(:mod:`repro.serving`) writes into one instance from every device
worker thread, so all counter/timer mutation happens under a lock.
Richer aggregation (latency histograms, text exposition) lives in
:mod:`repro.serving.metrics`; process-wide exposition lives in
:mod:`repro.obs` — call :meth:`Telemetry.register` to publish an
instance on the global :data:`repro.obs.REGISTRY`.

:meth:`Telemetry.snapshot` namespaces counters and timers under
distinct keys, so a counter named ``foo_s`` never collides with timer
``foo``.
"""

from __future__ import annotations

import re
import threading
import time
from contextlib import contextmanager

_SANITIZE_RE = re.compile(r"[^a-zA-Z0-9_:]")


class Telemetry:
    """Named counters + accumulated timers (thread-safe)."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self.counters: dict[str, float] = {}
        self.timers: dict[str, float] = {}

    def incr(self, name: str, amount: float = 1.0) -> None:
        """Increment counter *name* by *amount*."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + amount

    def get(self, name: str) -> float:
        """Current value of counter *name* (0 when unset)."""
        with self._lock:
            return self.counters.get(name, 0.0)

    def add_time(self, name: str, seconds: float) -> None:
        """Accumulate *seconds* of wall-clock time under *name*."""
        with self._lock:
            self.timers[name] = self.timers.get(name, 0.0) + seconds

    def get_time(self, name: str) -> float:
        """Accumulated seconds under timer *name* (0 when unset)."""
        with self._lock:
            return self.timers.get(name, 0.0)

    @contextmanager
    def timer(self, name: str):
        """Accumulate wall-clock time under *name*."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.add_time(name, time.perf_counter() - t0)

    def snapshot(self) -> dict[str, dict[str, float]]:
        """``{"counters": {...}, "timers": {...}}`` (timers in s).

        Counters and timers live under distinct keys, so a counter
        named ``foo_s`` can no longer collide with timer ``foo``.
        """
        with self._lock:
            return {
                "counters": dict(self.counters),
                "timers": dict(self.timers),
            }

    def register(self, name: str | None = None) -> str:
        """Publish this instance on the global obs registry.

        Emits ``repro_telemetry_counter_total{instance=...,name=...}``
        and ``repro_telemetry_timer_seconds_total`` series via a
        weak-reference collector (the series vanish when the
        instance is garbage-collected). *name* is used as a prefix —
        each registration gets a unique ``name-N`` instance label so
        two same-named registrants never emit duplicate series.
        Returns the instance label.
        """
        import weakref

        from repro.obs.metrics import REGISTRY

        name = REGISTRY.autoname(name or "telemetry")
        ref = weakref.ref(self)

        def collect():
            obj = ref()
            if obj is None:
                return None
            snap = obj.snapshot()
            samples = []
            for key, value in snap["counters"].items():
                samples.append(
                    (
                        "repro_telemetry_counter_total",
                        "counter",
                        {
                            "instance": name,
                            "name": _SANITIZE_RE.sub("_", key),
                        },
                        value,
                    )
                )
            for key, value in snap["timers"].items():
                samples.append(
                    (
                        "repro_telemetry_timer_seconds_total",
                        "counter",
                        {
                            "instance": name,
                            "name": _SANITIZE_RE.sub("_", key),
                        },
                        value,
                    )
                )
            return samples

        collect._obs_alive = lambda: ref() is not None
        REGISTRY.register_collector(collect)
        return name
