"""Process-wide metrics: counters, gauges, histograms, exposition.

A :class:`MetricsRegistry` owns metric *families* (one name, one
type, one help string) holding one instrument per distinct label
set. The module-level :data:`REGISTRY` is the process default; the
serving layer, the worker cluster, and every cache
(:class:`~repro.sim.evolve.PropagatorCache`, the JIT compiler's
artifact memo, the primitives template memo) report into it, so a single
:func:`exposition` call emits one Prometheus text page for the
whole process.

Conventions (see the README "Observability" section):

* metric names are ``repro_<area>_<noun>[_<unit>][_total]`` —
  e.g. ``repro_cache_hits_total``, ``repro_sim_kernel_seconds``;
* label keys are sorted lexicographically in the exposition, so
  output is byte-stable for a given registry state;
* durations are seconds, sizes are entries/bytes as named.
"""

from __future__ import annotations

import math
import re
import threading
import weakref
from bisect import bisect_left
from typing import Any, Callable, Iterable, Mapping

from repro.errors import ValidationError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "CacheStats",
    "MetricsRegistry",
    "REGISTRY",
    "exposition",
    "register_cache",
    "DEFAULT_TIME_BUCKETS_S",
]

# Log-spaced 2 µs .. ~134 s (powers of four); the serving stage
# histograms use these too.
DEFAULT_TIME_BUCKETS_S = tuple(2e-6 * 4**i for i in range(14))

_METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _format_value(value: float) -> str:
    """Prometheus sample value: integers bare, floats via repr."""
    if value != value:  # NaN
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text format."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def escape_help(text: str) -> str:
    """Escape a HELP string per the Prometheus text format."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _label_suffix(labels: tuple[tuple[str, str], ...]) -> str:
    if not labels:
        return ""
    body = ",".join(
        f'{k}="{escape_label_value(v)}"' for k, v in labels
    )
    return "{" + body + "}"


class Counter:
    """Monotonically increasing value; thread-safe."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValidationError(
                f"counters only go up; got inc({amount})"
            )
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """A value that can go up and down; thread-safe."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Fixed-bucket histogram with cumulative Prometheus semantics.

    *buckets* are strictly increasing finite upper bounds; an
    implicit ``+Inf`` bucket catches the overflow. Thread-safe;
    :meth:`observe` is a bisect plus two adds under one lock.
    """

    __slots__ = ("bounds", "_counts", "_lock", "_count", "_sum", "_max")

    def __init__(
        self, buckets: Iterable[float] = DEFAULT_TIME_BUCKETS_S
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValidationError("histogram needs >= 1 bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValidationError(
                "bucket bounds must be strictly increasing"
            )
        if bounds[-1] == math.inf:
            bounds = bounds[:-1]
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # final slot = +Inf
        self._lock = threading.Lock()
        self._count = 0
        self._sum = 0.0
        self._max = 0.0

    def observe(self, value: float) -> None:
        idx = bisect_left(self.bounds, value)
        with self._lock:
            self._counts[idx] += 1
            self._count += 1
            self._sum += value
            if value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum_value(self) -> float:
        return self._sum

    @property
    def max_value(self) -> float:
        return self._max

    def mean(self) -> float:
        with self._lock:
            return self._sum / self._count if self._count else 0.0

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """``[(upper_bound, cumulative_count)]`` ending at ``+Inf``."""
        with self._lock:
            counts = list(self._counts)
        out: list[tuple[float, int]] = []
        running = 0
        for bound, n in zip(self.bounds + (math.inf,), counts):
            running += n
            out.append((bound, running))
        return out

    def quantile(self, q: float) -> float:
        """Upper bound of the bucket containing quantile *q*.

        Returns the last finite bound when *q* lands in the
        overflow bucket, and 0.0 with no observations.
        """
        if not 0.0 <= q <= 1.0:
            raise ValidationError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            total = self._count
            counts = list(self._counts)
        if total == 0:
            return 0.0
        rank = q * total
        running = 0
        for bound, n in zip(self.bounds, counts):
            running += n
            if running >= rank:
                return bound
        return self.bounds[-1]


_TYPE_FOR = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class _Family:
    __slots__ = ("name", "type", "help", "children", "buckets")

    def __init__(
        self, name: str, type_: str, help_: str, buckets: Any
    ) -> None:
        self.name = name
        self.type = type_
        self.help = help_
        self.buckets = buckets
        # label tuple (sorted) -> instrument
        self.children: dict[tuple[tuple[str, str], ...], Any] = {}


def _label_key(
    labels: Mapping[str, str] | None,
) -> tuple[tuple[str, str], ...]:
    if not labels:
        return ()
    items = []
    for k in sorted(labels):
        if not _LABEL_NAME_RE.match(k):
            raise ValidationError(f"invalid label name {k!r}")
        items.append((k, str(labels[k])))
    return tuple(items)


class MetricsRegistry:
    """Families of named instruments plus pull-style collectors.

    ``counter`` / ``gauge`` / ``histogram`` get-or-create an
    instrument for (name, labels); re-registering a name with a
    different type raises. Collectors are evaluated at exposition
    time over an owner they hold by weak reference, so an object
    whose numbers live elsewhere (a cache's ``stats()``, a
    :class:`~repro.serving.metrics.ServingMetrics`' instruments, a
    cluster's SQLite store) publishes them without a second copy, and
    its series leave the page when it is garbage-collected.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._families: dict[str, _Family] = {}
        self._collectors: list[tuple[weakref.ref, Callable]] = []
        self._autonames: dict[str, int] = {}
        self._prune_at = 64

    # -- instrument management -------------------------------------------

    def _family(
        self, name: str, type_: str, help_: str, buckets: Any = None
    ) -> _Family:
        if not _METRIC_NAME_RE.match(name):
            raise ValidationError(f"invalid metric name {name!r}")
        with self._lock:
            fam = self._families.get(name)
            if fam is None:
                fam = _Family(name, type_, help_, buckets)
                self._families[name] = fam
            elif fam.type != type_:
                raise ValidationError(
                    f"metric {name!r} already registered as "
                    f"{fam.type}, not {type_}"
                )
            return fam

    def _child(
        self,
        name: str,
        type_: str,
        help_: str,
        labels: Mapping[str, str] | None,
        buckets: Any = None,
    ) -> Any:
        fam = self._family(name, type_, help_, buckets)
        key = _label_key(labels)
        with self._lock:
            inst = fam.children.get(key)
            if inst is None:
                if type_ == "histogram":
                    inst = Histogram(
                        fam.buckets
                        if fam.buckets is not None
                        else DEFAULT_TIME_BUCKETS_S
                    )
                else:
                    inst = _TYPE_FOR[type_]()
                fam.children[key] = inst
            return inst

    def counter(
        self,
        name: str,
        help: str = "",
        labels: Mapping[str, str] | None = None,
    ) -> Counter:
        return self._child(name, "counter", help, labels)

    def gauge(
        self,
        name: str,
        help: str = "",
        labels: Mapping[str, str] | None = None,
    ) -> Gauge:
        return self._child(name, "gauge", help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Mapping[str, str] | None = None,
        buckets: Iterable[float] | None = None,
    ) -> Histogram:
        return self._child(name, "histogram", help, labels, buckets)

    # -- collectors ------------------------------------------------------

    def register_collector(
        self, owner: Any, fn: Callable[[Any], Iterable[tuple]]
    ) -> None:
        """Publish ``fn(owner)`` samples while *owner* is alive.

        *fn* yields ``(name, type, labels, value)`` tuples at
        exposition time. The registry holds *owner* by weak
        reference only (so *fn* must not capture it) and drops the
        collector once *owner* is garbage-collected.
        """
        with self._lock:
            self._collectors.append((weakref.ref(owner), fn))
            if len(self._collectors) > self._prune_at:
                self._collectors = [
                    c for c in self._collectors if c[0]() is not None
                ]
                self._prune_at = max(64, 2 * len(self._collectors))

    def autoname(self, kind: str) -> str:
        """Process-unique default instance name like ``compile-2``."""
        with self._lock:
            n = self._autonames.get(kind, 0)
            self._autonames[kind] = n + 1
            return f"{kind}-{n}"

    def register_cache(
        self, name: str, cache: Any, kind: str = ""
    ) -> str:
        """Expose a cache's ``stats()`` as gauge/counter series.

        Holds only a weak reference; the collector evaporates when
        the cache is garbage-collected. Emits
        ``repro_cache_{hits,misses,evictions}_total`` plus
        ``repro_cache_entries`` / ``repro_cache_capacity``, all
        labelled ``{cache=name, kind=kind}``.
        """
        labels = {"cache": name}
        if kind:
            labels["kind"] = kind

        def collect(obj: Any) -> list[tuple[str, str, dict[str, str], float]]:
            stats = obj.stats() if callable(obj.stats) else dict(obj.stats)
            out = [
                (f"repro_cache_{key}_total", "counter", labels, float(stats[key]))
                for key in ("hits", "misses", "evictions")
                if key in stats
            ]
            if stats.get("size") is not None:
                out.append(
                    ("repro_cache_entries", "gauge", labels, float(stats["size"]))
                )
            if stats.get("capacity") is not None:
                out.append(
                    (
                        "repro_cache_capacity",
                        "gauge",
                        labels,
                        float(stats["capacity"]),
                    )
                )
            return out

        self.register_collector(cache, collect)
        return name

    # -- exposition ------------------------------------------------------

    _HELP_FOR_COLLECTED = {
        "repro_cache_hits_total": "Cache lookup hits.",
        "repro_cache_misses_total": "Cache lookup misses.",
        "repro_cache_evictions_total": "Cache LRU evictions.",
        "repro_cache_entries": "Entries currently cached.",
        "repro_cache_capacity": "Configured cache capacity.",
    }

    def collect(
        self,
    ) -> dict[str, tuple[str, str, dict[tuple, Any]]]:
        """Snapshot: name -> (type, help, {label_key: value-ish}).

        Histogram children stay as :class:`Histogram` objects;
        scalar children become floats.
        """
        out: dict[str, tuple[str, str, dict[tuple, Any]]] = {}
        with self._lock:
            families = list(self._families.values())
            collectors = list(self._collectors)
        for fam in families:
            children: dict[tuple, Any] = {}
            for key, inst in list(fam.children.items()):
                if isinstance(inst, Histogram):
                    children[key] = inst
                else:
                    children[key] = inst.value
            out[fam.name] = (fam.type, fam.help, children)
        for ref, fn in collectors:
            owner = ref()
            if owner is None:
                continue
            for name, type_, labels, value in fn(owner):
                entry = out.get(name)
                if entry is None:
                    help_ = self._HELP_FOR_COLLECTED.get(name, "")
                    entry = out[name] = (type_, help_, {})
                entry[2][_label_key(labels)] = value
        return out

    def exposition(self) -> str:
        """One Prometheus text-format page for the whole registry."""
        lines: list[str] = []
        collected = self.collect()
        for name in sorted(collected):
            type_, help_, children = collected[name]
            if help_:
                lines.append(f"# HELP {name} {escape_help(help_)}")
            lines.append(f"# TYPE {name} {type_}")
            for key in sorted(children):
                value = children[key]
                if isinstance(value, Histogram):
                    self._render_histogram(lines, name, key, value)
                else:
                    lines.append(
                        f"{name}{_label_suffix(key)} "
                        f"{_format_value(float(value))}"
                    )
        return "\n".join(lines) + "\n" if lines else ""

    @staticmethod
    def _render_histogram(
        lines: list[str],
        name: str,
        key: tuple[tuple[str, str], ...],
        hist: Histogram,
    ) -> None:
        for bound, cum in hist.cumulative_buckets():
            le = "+Inf" if bound == math.inf else _format_value(bound)
            bucket_key = key + (("le", le),)
            lines.append(
                f"{name}_bucket{_label_suffix(bucket_key)} {cum}"
            )
        lines.append(
            f"{name}_sum{_label_suffix(key)} "
            f"{_format_value(hist.sum_value)}"
        )
        lines.append(f"{name}_count{_label_suffix(key)} {hist.count}")

    def reset(self) -> None:
        """Drop every family and collector (tests only)."""
        with self._lock:
            self._families.clear()
            self._collectors.clear()
            self._autonames.clear()
            self._prune_at = 64


class CacheStats(dict):
    """Mutable hit/miss/eviction counters that double as ``stats()``.

    Subclasses ``dict`` so a cache bumps ``stats["hits"]`` in place,
    while *calling* it yields the uniform shape shared by every cache
    in the process::

        {"hits": int, "misses": int, "evictions": int,
         "size": int, "capacity": int | None}
    """

    __slots__ = ("_size_fn", "_capacity_fn")

    def __init__(
        self,
        size_fn: Callable[[], int],
        capacity_fn: Callable[[], int | None],
        **counters: int,
    ) -> None:
        super().__init__(counters)
        self._size_fn = size_fn
        self._capacity_fn = capacity_fn

    def __call__(self) -> dict[str, int | None]:
        out: dict[str, int | None] = {
            key: int(self.get(key, 0)) for key in ("hits", "misses", "evictions")
        }
        out["size"] = int(self._size_fn())
        capacity = self._capacity_fn()
        out["capacity"] = None if capacity is None else int(capacity)
        return out


#: The process-default registry every built-in subsystem reports to.
REGISTRY = MetricsRegistry()


def exposition() -> str:
    """Prometheus text page for the default :data:`REGISTRY`."""
    return REGISTRY.exposition()


def register_cache(name: str, cache: Any, kind: str = "") -> str:
    """Register *cache* on the default :data:`REGISTRY`."""
    return REGISTRY.register_cache(name, cache, kind=kind)
