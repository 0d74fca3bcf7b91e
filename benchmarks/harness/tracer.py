"""Per-layer spans recorded from outside the program, and their fold.

:class:`Tracer` replaces the attribute a caller resolves — a class
method or a module-level function — with a wrapper that records one
span per call: ``(thread, id, parent, layer, start, end, counters)``.
Nothing under ``src/`` is edited; uninstalling restores the original
objects, so identity checks (``getattr(owner, attr) is original``)
hold again afterwards.

:func:`fold` turns a span list into per-layer self time. A span's self
time is its duration minus the durations of its direct children on the
same thread. Spans whose root ancestor is an ``op`` span (the harness
wraps every timed operation in one) count toward the operation; every
other span — HTTP handler threads, service worker threads, forked
cluster workers — counts as that layer's busy time.
"""

from __future__ import annotations

import functools
import glob
import inspect
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

#: Layer name of the span around each timed operation.
OP = "op"
#: Attribute set on every wrapper, so an untraced run can prove it
#: sees the original functions.
MARK = "__harness_layer__"

Count = Callable[[tuple, dict, Any], dict]
Probe = Callable[[tuple], dict]


class Tracer:
    """Records a span for every call of the attributes it wraps."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._tls = threading.local()
        self._ids = itertools.count(1)
        self._patches: list[tuple[Any, str, Any]] = []
        self._pid = os.getpid()
        # Forked cluster workers inherit the wrappers; they start with
        # an empty span list of their own.
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        self.spans.clear()
        self._pid = os.getpid()
        self._tls.__dict__.clear()

    @contextmanager
    def span(self, layer: str, counters: dict | None = None):
        """Record one span around a block; *counters* may fill in it."""
        tls = self._tls
        try:
            key, stack = tls.key, tls.stack
        except AttributeError:
            key = tls.key = f"{self._pid}:{threading.get_ident()}"
            stack = tls.stack = []
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append((key, sid, parent, layer, t0, t1, counters or None))

    # ---- patching --------------------------------------------------------------------

    def _patch(self, owner: Any, attr: str, wrapper: Any, mark: str) -> None:
        raw = inspect.getattr_static(owner, attr)
        setattr(wrapper, MARK, mark)
        if isinstance(raw, (staticmethod, classmethod)):
            wrapper = type(raw)(wrapper)
        self._patches.append((owner, attr, raw if attr in vars(owner) else None))
        setattr(owner, attr, wrapper)

    def wrap(
        self,
        owner: Any,
        attr: str,
        layer: str,
        *,
        count: Count | None = None,
        probe: Probe | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        *count* maps ``(args, kwargs, result)`` of a successful call to
        counters; *probe* maps the call's ``args`` to counter readings
        taken before and after the call, recording their difference.
        """
        raw = inspect.getattr_static(owner, attr)
        fn = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters: dict = {}
            with self.span(layer, counters):
                before = probe(args) if probe is not None else None
                result = fn(*args, **kwargs)
                if count is not None:
                    counters.update(count(args, kwargs, result))
                if probe is not None:
                    for name, value in probe(args).items():
                        counters[name] = value - before[name]
            return result

        self._patch(owner, attr, wrapper, layer)

    def export_on_return(self, owner: Any, attr: str, directory: str) -> None:
        """Dump this process's spans to *directory* when ``owner.attr``
        returns: wrapped around a cluster worker's main loop, it hands
        the worker's spans to :meth:`load_exports` as the worker stops."""
        raw = inspect.getattr_static(owner, attr)

        @functools.wraps(raw)
        def wrapper(*args, **kwargs):
            try:
                return raw(*args, **kwargs)
            finally:
                path = os.path.join(directory, f"spans-{os.getpid()}.json")
                with open(path, "w") as fh:
                    json.dump(self.spans, fh)

        self._patch(owner, attr, wrapper, "export")

    def load_exports(self, directory: str) -> None:
        """Merge the span files workers exported into :attr:`spans`."""
        for path in sorted(glob.glob(os.path.join(directory, "spans-*.json"))):
            with open(path) as fh:
                self.spans.extend(tuple(s) for s in json.load(fh))

    def uninstall(self) -> None:
        """Restore every patched attribute to its original object."""
        while self._patches:
            owner, attr, own = self._patches.pop()
            if own is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)


def is_wrapped(obj: Any) -> bool:
    """Whether *obj* (a function, staticmethod or classmethod) is ours."""
    fn = obj.__func__ if isinstance(obj, (staticmethod, classmethod)) else obj
    return hasattr(fn, MARK)


# ---- the fold ------------------------------------------------------------------------


@dataclass
class LayerTotals:
    """One layer's share of a traced run."""

    calls: int = 0
    self_op_s: float = 0.0
    busy_s: float = 0.0
    op_durations: list[float] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=lambda: defaultdict(float))


@dataclass
class Fold:
    """Self time per layer over the timed windows of a traced run."""

    ops: int
    op_wall_s: float
    layers: dict[str, LayerTotals]

    @property
    def other_s(self) -> float:
        """Op time no wrapper covers (the op spans' own self time)."""
        totals = self.layers.get(OP)
        return totals.self_op_s if totals is not None else 0.0


def fold(
    spans: Iterable[tuple], windows: list[tuple[float, float]] | None = None
) -> Fold:
    """Fold *spans* into per-layer self and busy time.

    With *windows* given, only spans starting inside one of them
    (``perf_counter`` seconds, which share one clock across the
    processes of a host) count. Counters and call counts come from each
    layer's outermost calls only, so a recursive kernel is not counted
    twice.
    """
    by_key: dict[tuple[str, int], tuple] = {}
    for s in spans:
        if windows is None or any(lo <= s[4] <= hi for lo, hi in windows):
            by_key[(s[0], s[1])] = s
    child_time: dict[tuple[str, int], float] = defaultdict(float)
    for s in by_key.values():
        if s[2]:
            child_time[(s[0], s[2])] += s[5] - s[4]

    def ancestry(s: tuple) -> tuple[str, bool]:
        """``(root layer, nested under a span of the same layer)``."""
        nested = False
        node = s
        while node[2] and (node[0], node[2]) in by_key:
            node = by_key[(node[0], node[2])]
            nested = nested or node[3] == s[3]
        return node[3], nested

    layers: dict[str, LayerTotals] = defaultdict(LayerTotals)
    ops = 0
    op_wall = 0.0
    for key, s in by_key.items():
        duration = s[5] - s[4]
        self_time = duration - child_time.get(key, 0.0)
        root, nested = ancestry(s)
        totals = layers[s[3]]
        if root == OP:
            totals.self_op_s += self_time
        else:
            totals.busy_s += self_time
        if nested:
            continue
        totals.calls += 1
        if root == OP:
            totals.op_durations.append(duration)
        if s[3] == OP:
            ops += 1
            op_wall += duration
        for name, value in (s[6] or {}).items():
            totals.counters[name] += value
    return Fold(ops=ops, op_wall_s=op_wall, layers=dict(layers))
