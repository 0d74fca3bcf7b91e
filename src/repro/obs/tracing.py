"""Structured tracing: spans, thread-local context, Chrome export.

One :func:`trace` block captures every :func:`span` opened
anywhere in the process — across threads — into a single
:class:`Trace`. A span records wall-clock start/stop via
``time.perf_counter`` plus arbitrary attributes, and nests under
whichever span is open on the *same thread*, so one
``Estimator.run`` call yields a tree covering
adapter → compile → specialize → cache lookup → ``execute_batch`` →
expm kernels → measurement.

Export formats:

* :meth:`Trace.tree_str` — human-readable indented tree dump;
* :meth:`Trace.chrome_trace` — Chrome ``trace_event`` JSON
  (load in ``chrome://tracing`` or https://ui.perfetto.dev).

Cost model: when tracing is disabled (the default) :func:`span`
returns a shared no-op singleton, so an instrumented call site costs
one global-flag check plus a trivial ``with`` enter/exit. The CI smoke
``benchmarks/bench_obs_overhead.py --quick`` fails when that exceeds
2% of end-to-end wall time.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from typing import Any, Iterator

__all__ = [
    "Span",
    "Trace",
    "span",
    "trace",
    "tracing_enabled",
    "current_trace",
]

_state_lock = threading.Lock()
_tls = threading.local()

# Module-level fast path: ``span()`` reads this one global before
# touching anything else. Rebinding it is atomic under the GIL.
_enabled = False
_active_trace: "Trace | None" = None


class Span:
    """One timed, attributed stage of a traced operation.

    Use as a context manager (normally via :func:`span`). On entry
    the span pushes itself onto the calling thread's span stack; on
    exit it records its duration and attaches itself to its parent
    (or, for a root span, to the active :class:`Trace`).
    """

    __slots__ = (
        "name",
        "attrs",
        "children",
        "thread_id",
        "start_s",
        "end_s",
        "_trace",
    )

    def __init__(self, name: str, attrs: dict[str, Any]) -> None:
        self.name = name
        self.attrs = attrs
        self.children: list[Span] = []
        self.thread_id = threading.get_ident()
        self.start_s = 0.0
        self.end_s = 0.0
        self._trace = _active_trace

    @property
    def duration_s(self) -> float:
        """Wall-clock duration in seconds (0.0 while still open)."""
        if self.end_s < self.start_s:
            return 0.0
        return self.end_s - self.start_s

    def annotate(self, **attrs: Any) -> "Span":
        """Attach extra attributes; returns ``self`` for chaining."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        stack = getattr(_tls, "stack", None)
        if stack is None:
            stack = _tls.stack = []
        stack.append(self)
        self.start_s = time.perf_counter()
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        self.end_s = time.perf_counter()
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        stack = getattr(_tls, "stack", None) or []
        if stack and stack[-1] is self:
            stack.pop()
        elif self in stack:  # unbalanced exit; recover best-effort
            stack.remove(self)
        parent = stack[-1] if stack else None
        if parent is not None and parent._trace is self._trace:
            parent.children.append(self)
        elif self._trace is not None:
            self._trace._add_root(self)
        return False

    def walk(self) -> Iterator["Span"]:
        """Yield this span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Span({self.name!r}, {self.duration_s * 1e3:.3f} ms, "
            f"{len(self.children)} children)"
        )


class _NoopSpan:
    """Shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        return False

    def annotate(self, **attrs: Any) -> "_NoopSpan":
        return self


_NOOP_SPAN = _NoopSpan()


def span(name: str, **attrs: Any) -> Any:
    """Open a named span under the current thread's active span.

    Returns a context manager. With tracing disabled this is a
    near-free call returning a shared no-op singleton.
    """
    if not _enabled:
        return _NOOP_SPAN
    return Span(name, attrs)


class Trace:
    """A collection of root spans captured while tracing was on."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.roots: list[Span] = []
        self.origin_s = time.perf_counter()

    def _add_root(self, sp: Span) -> None:
        with self._lock:
            self.roots.append(sp)

    def spans(self) -> Iterator[Span]:
        """All completed spans in this trace, depth-first."""
        with self._lock:
            roots = list(self.roots)
        for root in roots:
            yield from root.walk()

    def find(self, name: str) -> list[Span]:
        """Every span in the trace with the given name."""
        return [sp for sp in self.spans() if sp.name == name]

    def tree_str(self, *, attrs: bool = True) -> str:
        """Human-readable indented dump of the span forest."""
        lines: list[str] = []
        with self._lock:
            roots = list(self.roots)
        for root in roots:
            self._render(root, "", lines, attrs)
        return "\n".join(lines)

    def _render(
        self, sp: Span, indent: str, lines: list[str], attrs: bool
    ) -> None:
        label = f"{indent}- {sp.name}  {sp.duration_s * 1e3:.3f} ms"
        if attrs and sp.attrs:
            kv = ", ".join(f"{k}={v!r}" for k, v in sp.attrs.items())
            label += f"  [{kv}]"
        lines.append(label)
        for child in sp.children:
            self._render(child, indent + "  ", lines, attrs)

    def chrome_trace(self) -> dict[str, Any]:
        """Chrome ``trace_event`` document (dict; see module doc)."""
        events: list[dict[str, Any]] = []
        tid_map: dict[int, int] = {}
        for sp in self.spans():
            tid = tid_map.setdefault(sp.thread_id, len(tid_map) + 1)
            events.append(
                {
                    "name": sp.name,
                    "ph": "X",
                    "ts": (sp.start_s - self.origin_s) * 1e6,
                    "dur": sp.duration_s * 1e6,
                    "pid": 1,
                    "tid": tid,
                    "args": {k: _jsonable(v) for k, v in sp.attrs.items()},
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def chrome_trace_json(self, **dumps_kwargs: Any) -> str:
        """The :meth:`chrome_trace` document serialized to JSON."""
        return json.dumps(self.chrome_trace(), **dumps_kwargs)

    def save(self, path: str) -> None:
        """Write the Chrome trace JSON to *path*."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.chrome_trace_json())


def _jsonable(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def tracing_enabled() -> bool:
    """Whether spans are currently being recorded."""
    return _enabled


def current_trace() -> Trace | None:
    """The :class:`Trace` currently receiving spans, if any."""
    return _active_trace


@contextmanager
def trace() -> Iterator[Trace]:
    """Context manager: record all spans in the block into a Trace.

    >>> with trace() as tr:          # doctest: +SKIP
    ...     estimator.run(pubs)
    >>> print(tr.tree_str())         # doctest: +SKIP
    """
    global _enabled, _active_trace
    with _state_lock:
        prev_enabled, prev_trace = _enabled, _active_trace
        tr = Trace()
        _active_trace = tr
        _enabled = True
    try:
        yield tr
    finally:
        with _state_lock:
            _enabled, _active_trace = prev_enabled, prev_trace
