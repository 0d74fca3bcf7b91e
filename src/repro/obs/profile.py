"""Profiling hooks for the simulation hot paths.

Two tiers, chosen so the always-on part stays out of inner loops:

* **Registry histograms** — every call to
  :func:`~repro.sim.evolve.batched_propagators` /
  :func:`~repro.sim.evolve.batched_expm` reports its wall time and
  stack size into ``repro_sim_kernel_seconds`` /
  ``repro_sim_kernel_slices`` (one observe per *batch*, not per
  slice, so the cost is a few microseconds against millisecond-scale
  GEMMs).
* **Per-batch records** — with :func:`enable_profiling` on,
  kernel and cache-dedup records accumulate in a thread-local sink
  that :meth:`~repro.sim.executor.ScheduleExecutor.execute_batch`
  drains into each result's ``metadata["profile"]``: stack sizes,
  Hilbert dimension, squaring levels, dedup ratio, and GEMM seconds.

Disabled (the default), the per-record path is one module-global
check; the CI smoke ``benchmarks/bench_obs_overhead.py --quick`` holds
disabled instrumentation under 2% of wall time.
"""

from __future__ import annotations

import threading
from typing import Any

from repro.obs.metrics import REGISTRY

__all__ = [
    "enable_profiling",
    "disable_profiling",
    "profiling_enabled",
    "kernel",
    "cache_batch",
    "begin_collect",
    "end_collect",
    "summarize",
]

_enabled = False
_tls = threading.local()

# Powers of 4 from 1 to ~262k: batch ("stack") sizes.
_SLICE_BUCKETS = tuple(float(4**i) for i in range(10))


def enable_profiling() -> None:
    """Start collecting per-batch profile records process-wide."""
    global _enabled
    _enabled = True


def disable_profiling() -> None:
    """Stop collecting per-batch profile records."""
    global _enabled
    _enabled = False


def profiling_enabled() -> bool:
    return _enabled


def _observe_kernel(name: str, n: int, seconds: float, dtype: str = "") -> None:
    labels = {"kernel": name}
    if dtype:
        labels["dtype"] = dtype
    REGISTRY.histogram(
        "repro_sim_kernel_seconds",
        "Wall time of one batched sim kernel call.",
        labels,
    ).observe(seconds)
    REGISTRY.histogram(
        "repro_sim_kernel_slices",
        "Stack size (number of matrices) per sim kernel call.",
        labels,
        buckets=_SLICE_BUCKETS,
    ).observe(float(n))


def _sink() -> list[dict[str, Any]] | None:
    return getattr(_tls, "sink", None)


def kernel(
    name: str,
    *,
    n: int,
    dim: int,
    seconds: float,
    levels: int = 0,
    method: str = "",
    dtype: str = "",
) -> None:
    """Report one batched-kernel invocation (always feeds REGISTRY).

    *dtype* is the dtype policy name (``"complex128"``) the kernel ran
    in; it becomes a metric label and a record field so profiles from
    different precision scopes stay separable.
    """
    _observe_kernel(name, n, seconds, dtype)
    if not _enabled:
        return
    sink = _sink()
    if sink is not None:
        sink.append(
            {
                "kind": "kernel",
                "kernel": name,
                "n": int(n),
                "dim": int(dim),
                "seconds": float(seconds),
                "levels": int(levels),
                "method": method,
                "dtype": dtype,
            }
        )


def cache_batch(
    *, n: int, unique: int, hits: int, misses: int
) -> None:
    """Report one PropagatorCache batch lookup's dedup outcome."""
    if not _enabled:
        return
    sink = _sink()
    if sink is not None:
        sink.append(
            {
                "kind": "cache",
                "n": int(n),
                "unique": int(unique),
                "hits": int(hits),
                "misses": int(misses),
            }
        )


def begin_collect() -> list[dict[str, Any]] | None:
    """Open a thread-local record sink; ``None`` when disabled.

    Returns the previous sink so nested collectors restore it via
    :func:`end_collect`.
    """
    if not _enabled:
        return None
    prev = getattr(_tls, "sink", None)
    _tls.sink = []
    return prev


def end_collect(
    prev: list[dict[str, Any]] | None,
) -> list[dict[str, Any]]:
    """Close the current sink, restore *prev*, return the records."""
    records = getattr(_tls, "sink", None) or []
    _tls.sink = prev
    return records


def summarize(
    records: list[dict[str, Any]], **extra: Any
) -> dict[str, Any]:
    """Fold raw records into one ``metadata["profile"]`` dict."""
    kernels = [r for r in records if r["kind"] == "kernel"]
    caches = [r for r in records if r["kind"] == "cache"]
    looked_up = sum(c["n"] for c in caches)
    unique = sum(c["unique"] for c in caches)
    out: dict[str, Any] = {
        "kernel_calls": len(kernels),
        "slices": sum(k["n"] for k in kernels),
        "max_stack": max((k["n"] for k in kernels), default=0),
        "dim": max((k["dim"] for k in kernels), default=0),
        "max_squaring_levels": max(
            (k["levels"] for k in kernels), default=0
        ),
        "gemm_s": sum(k["seconds"] for k in kernels),
        "cache_lookups": looked_up,
        "cache_hits": sum(c["hits"] for c in caches),
        "cache_misses": sum(c["misses"] for c in caches),
        "dedup_ratio": (looked_up / unique) if unique else 1.0,
        "records": records,
    }
    out.update(extra)
    return out
