"""Self-tests of the benchmark harness.

Run with ``PYTHONPATH=src python -m pytest benchmarks/harness``.
"""

from __future__ import annotations

import inspect
import os
import sys
import time

import numpy as np
import pytest

from benchmarks.harness import layers
from benchmarks.harness.__main__ import HarnessError, run_group
from benchmarks.harness.stats import nearest_rank
from benchmarks.harness.tracer import OP, Tracer, fold


def test_fold_gives_exact_self_times_across_threads():
    # Thread A runs one op: L1 [1, 6] holding L2 [2, 4], then L1 [7, 8].
    # Thread B runs L2 [3, 9] holding L3 [4, 5], outside any op: busy.
    spans = [
        ("A", 1, 0, OP, 0.0, 10.0, None),
        ("A", 2, 1, "L1", 1.0, 6.0, {"n": 3.0}),
        ("A", 3, 2, "L2", 2.0, 4.0, None),
        ("A", 4, 1, "L1", 7.0, 8.0, {"n": 1.0}),
        ("B", 1, 0, "L2", 3.0, 9.0, None),
        ("B", 2, 1, "L3", 4.0, 5.0, None),
    ]
    result = fold(spans)
    assert result.ops == 1
    assert result.op_wall_s == 10.0
    assert result.other_s == 10.0 - 5.0 - 1.0
    assert result.layers["L1"].self_op_s == (5.0 - 2.0) + 1.0
    assert result.layers["L1"].counters["n"] == 4.0
    assert result.layers["L2"].self_op_s == 2.0
    assert result.layers["L2"].busy_s == 6.0 - 1.0
    assert result.layers["L3"].busy_s == 1.0
    assert result.layers["L3"].self_op_s == 0.0
    own = sum(t.self_op_s for t in result.layers.values())
    assert own == result.op_wall_s
    # Windows drop spans that start outside them.
    assert "L3" not in fold(spans, windows=[(0.0, 3.5)]).layers


def test_untraced_child_sees_the_original_functions():
    targets = [
        (owner, attr)
        for layer in layers.LAYERS
        for owner, attr, _ in layers.targets(layer)
    ]
    originals = [inspect.getattr_static(owner, attr) for owner, attr in targets]
    assert layers.wrapped_targets() == []
    tracer = Tracer()
    layers.install(tracer, export_dir=".")
    try:
        assert len(layers.wrapped_targets()) == len(targets) + 1
        from repro.sim.evolve import PropagatorCache

        # Two equal slices: one kernel slice, two cache misses.
        PropagatorCache(max_entries=4).propagators(np.zeros((2, 3, 3)), 1e-9)
        counters = {s[3]: s[6] for s in tracer.spans}
        assert counters["sim.cache"] == {
            "slices": 2.0,
            "hits": 0.0,
            "misses": 2.0,
            "evictions": 0.0,
        }
        assert counters["sim.kernel"] == {"slices": 1.0}
    finally:
        tracer.uninstall()
    assert layers.wrapped_targets() == []
    for (owner, attr), original in zip(targets, originals):
        assert inspect.getattr_static(owner, attr) is original


def test_p90_is_nearest_rank_and_reports_its_sample():
    p90 = nearest_rank(list(range(20, 0, -1)), 0.9)
    assert p90 == (18, 20, 2)
    p90 = nearest_rank([float(v) for v in range(1, 101)], 0.9)
    assert (p90.value, p90.samples, p90.beyond) == (90.0, 100, 10)
    assert nearest_rank([5.0], 0.9) == (5.0, 1, 0)
    with pytest.raises(ValueError):
        nearest_rank([], 0.9)


def test_timeout_stops_a_child_whose_fork_holds_stdout():
    # Like a forked cluster worker, the sleeper inherits the child's
    # stdout pipe and outlives a kill of the child alone.
    sleeper = [sys.executable, "-c", "import time; time.sleep(60)"]
    code = f"import subprocess, time; subprocess.Popen({sleeper!r}); time.sleep(60)"
    start = time.monotonic()
    with pytest.raises(HarnessError, match="exceeded"):
        run_group([sys.executable, "-c", code], dict(os.environ), timeout=1.0)
    assert time.monotonic() - start < 10.0
