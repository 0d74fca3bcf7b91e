"""Tests: the observability layer (repro.obs).

Covers the tracing span tree (including the acceptance criterion: one
``Estimator.run`` on a direct target yields >= 5 nested pipeline
stages exportable as valid Chrome trace-event JSON), the metrics
registry and its Prometheus text exposition (escaping, stable
ordering, histogram cumulative-bucket invariants, concurrent-writer
exactness), the uniform ``stats()`` shape and auto-registration of
every cache in the stack, the registry-backed ServingMetrics, and the
profiling hooks that surface ``metadata["profile"]``.
"""

from __future__ import annotations

import gc
import json
import math
import threading

import numpy as np
import pytest

import repro
from repro.core.waveform import ParametricWaveform
from repro.devices import SuperconductingDevice
from repro.errors import ValidationError
from repro.mlir.dialects.pulse import SequenceBuilder
from repro.mlir.ir import print_module
from repro.obs import (
    CacheStats,
    Histogram,
    MetricsRegistry,
    disable_profiling,
    enable_profiling,
    exposition,
    span,
    trace,
    tracing_enabled,
)
from repro.obs.metrics import escape_label_value
from repro.obs.tracing import _NOOP_SPAN, current_trace
from repro.primitives import Estimator, Observable


def parametric_kernel(device, n_params: int = 2) -> str:
    """A phase-parametrized measuring pulse kernel (MLIR text)."""
    sb = SequenceBuilder("obs_ansatz")
    drive = sb.add_mixed_frame_arg("f0", device.drive_port(0).name)
    acquire = sb.add_mixed_frame_arg("a0", device.acquire_port(0).name)
    thetas = [sb.add_scalar_arg(f"theta{i}") for i in range(n_params)]
    wave = sb.waveform(ParametricWaveform("square", 16, {"amp": 0.2}))
    for theta in thetas:
        sb.shift_phase(drive, theta)
        sb.play(drive, wave)
    sb.barrier(drive, acquire)
    sb.capture(acquire, 0, 8)
    sb.ret()
    return print_module(sb.module)


def grid_for(n_params: int, n_points: int) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(11)
    return {
        f"theta{i}": rng.uniform(-np.pi, np.pi, n_points)
        for i in range(n_params)
    }


# ---- tracing -------------------------------------------------------------------------


class TestTracing:
    def test_disabled_span_is_shared_noop(self):
        assert not tracing_enabled()
        assert current_trace() is None
        sp = span("anything", foo=1)
        assert sp is _NOOP_SPAN
        with sp as inner:  # enter/exit must be harmless
            assert inner.annotate(bar=2) is inner

    def test_nesting_and_attributes(self):
        with trace() as tr:
            with span("outer", a=1):
                with span("inner") as sp:
                    sp.annotate(b=2)
        assert [r.name for r in tr.roots] == ["outer"]
        outer = tr.roots[0]
        assert outer.attrs == {"a": 1}
        assert [c.name for c in outer.children] == ["inner"]
        assert outer.children[0].attrs == {"b": 2}
        assert outer.duration_s >= outer.children[0].duration_s >= 0.0
        assert [sp.name for sp in tr.spans()] == ["outer", "inner"]
        assert len(tr.find("inner")) == 1

    def test_exception_recorded_and_propagated(self):
        with trace() as tr:
            with pytest.raises(RuntimeError):
                with span("boom"):
                    raise RuntimeError("nope")
        (sp,) = tr.find("boom")
        assert sp.attrs["error"] == "RuntimeError"

    def test_trace_restores_previous_state(self):
        with trace() as outer_tr:
            with trace() as inner_tr:
                with span("in-inner"):
                    pass
            with span("in-outer"):
                pass
        assert [r.name for r in inner_tr.roots] == ["in-inner"]
        assert [r.name for r in outer_tr.roots] == ["in-outer"]
        assert not tracing_enabled()

    def test_spans_from_worker_threads_become_roots(self):
        barrier = threading.Barrier(4)
        with trace() as tr:
            def work():
                barrier.wait(5)  # all alive at once: distinct idents
                with span("worker-span"):
                    pass

            threads = [threading.Thread(target=work) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert len(tr.find("worker-span")) == 4
        doc = tr.chrome_trace()
        tids = {ev["tid"] for ev in doc["traceEvents"]}
        assert len(tids) == 4  # one lane per thread

    def test_estimator_run_span_tree_and_chrome_export(self, tmp_path):
        device = SuperconductingDevice(num_qubits=1, drift_rate=0.0)
        estimator = Estimator(device)
        text = parametric_kernel(device)
        with trace() as tr:
            estimator.run([(text, Observable.z(0), grid_for(2, 3))])
        names = {sp.name for sp in tr.spans()}
        required = {
            "estimator.run",
            "compile",
            "specialize",
            "cache",
            "execute_batch",
            "measurement",
        }
        assert required <= names
        # The pipeline stages nest under the one estimator.run root.
        (root,) = [r for r in tr.roots if r.name == "estimator.run"]
        nested = {sp.name for sp in root.walk()}
        assert len(required & nested) >= 5
        dump = tr.tree_str()
        for name in required:
            assert name in dump
        # Valid Chrome trace_event JSON: complete events only.
        doc = json.loads(tr.chrome_trace_json())
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        assert len(events) >= 6
        for ev in events:
            assert ev["ph"] == "X"
            assert isinstance(ev["name"], str)
            assert ev["ts"] >= 0.0 and ev["dur"] >= 0.0
            assert ev["pid"] == 1 and ev["tid"] >= 1
            json.dumps(ev["args"])  # args must stay JSON-serializable
        path = tmp_path / "trace.json"
        tr.save(str(path))
        assert json.loads(path.read_text())["traceEvents"]


# ---- metrics registry ----------------------------------------------------------------


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        c1 = reg.counter("repro_test_total", "t", {"a": "x"})
        c2 = reg.counter("repro_test_total", "t", {"a": "x"})
        c3 = reg.counter("repro_test_total", "t", {"a": "y"})
        assert c1 is c2 and c1 is not c3
        c1.inc()
        c1.inc(2.5)
        assert c1.value == 3.5

    def test_counter_rejects_negative(self):
        reg = MetricsRegistry()
        with pytest.raises(ValidationError):
            reg.counter("repro_test_total").inc(-1)

    def test_type_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("repro_test_total")
        with pytest.raises(ValidationError):
            reg.gauge("repro_test_total")

    def test_invalid_names_raise(self):
        reg = MetricsRegistry()
        with pytest.raises(ValidationError):
            reg.counter("0bad name")
        with pytest.raises(ValidationError):
            reg.counter("repro_ok_total", labels={"0bad": "v"})

    def test_gauge_moves_both_ways(self):
        g = MetricsRegistry().gauge("repro_test_gauge")
        g.set(5)
        g.inc(2)
        g.inc(-3)
        assert g.value == 4.0

    def test_label_escaping(self):
        assert escape_label_value('a\\b"c\nd') == 'a\\\\b\\"c\\nd'
        reg = MetricsRegistry()
        reg.counter("repro_test_total", labels={"p": 'x"\\\n'}).inc()
        text = reg.exposition()
        assert 'p="x\\"\\\\\\n"' in text

    def test_exposition_stable_ordering(self):
        reg = MetricsRegistry()
        reg.counter("repro_zz_total", "last", {"b": "2"}).inc()
        reg.counter("repro_aa_total", "first", {"z": "1", "a": "2"}).inc()
        reg.counter("repro_zz_total", "last", {"b": "1"}).inc()
        text = reg.exposition()
        assert text == reg.exposition()  # byte-stable
        lines = [
            ln for ln in text.splitlines() if not ln.startswith("#")
        ]
        assert lines == [
            'repro_aa_total{a="2",z="1"} 1',
            'repro_zz_total{b="1"} 1',
            'repro_zz_total{b="2"} 1',
        ]
        assert text.index("# HELP repro_aa_total first") < text.index(
            "# TYPE repro_zz_total"
        )

    def test_histogram_cumulative_invariants(self):
        hist = Histogram([0.1, 1.0, 10.0])
        for v in (0.05, 0.1, 0.5, 5.0, 100.0):
            hist.observe(v)
        cumulative = hist.cumulative_buckets()
        bounds = [b for b, _ in cumulative]
        counts = [c for _, c in cumulative]
        assert bounds == [0.1, 1.0, 10.0, math.inf]
        assert counts == sorted(counts)  # le-monotone
        assert counts[-1] == hist.count == 5
        # Upper bounds are inclusive (0.1 lands in the 0.1 bucket).
        assert counts[0] == 2
        assert hist.sum_value == pytest.approx(105.65)
        assert hist.max_value == 100.0
        assert hist.mean() == pytest.approx(105.65 / 5)

    def test_histogram_rendering(self):
        reg = MetricsRegistry()
        hist = reg.histogram(
            "repro_test_seconds", "t", {"k": "v"}, buckets=[1.0, 2.0]
        )
        hist.observe(0.5)
        hist.observe(3.0)
        lines = reg.exposition().splitlines()
        assert 'repro_test_seconds_bucket{k="v",le="1"} 1' in lines
        assert 'repro_test_seconds_bucket{k="v",le="2"} 1' in lines
        assert 'repro_test_seconds_bucket{k="v",le="+Inf"} 2' in lines
        assert 'repro_test_seconds_sum{k="v"} 3.5' in lines
        assert 'repro_test_seconds_count{k="v"} 2' in lines
        # +Inf bucket is rendered last and equals the _count sample.
        bucket_lines = [
            ln for ln in lines if ln.startswith("repro_test_seconds_bucket")
        ]
        assert bucket_lines[-1].endswith('le="+Inf"} 2')

    def test_histogram_validation_and_quantiles(self):
        with pytest.raises(ValidationError):
            Histogram([])
        with pytest.raises(ValidationError):
            Histogram([1.0, 1.0])
        hist = Histogram([1.0, 2.0])
        assert hist.quantile(0.5) == 0.0  # empty
        hist.observe(0.5)
        hist.observe(99.0)  # overflow bucket
        with pytest.raises(ValidationError):
            hist.quantile(1.5)
        assert hist.quantile(0.25) == 1.0
        assert hist.quantile(1.0) == 2.0  # overflow -> last finite bound

    def test_concurrent_writers_are_exact(self):
        reg = MetricsRegistry()
        counter = reg.counter("repro_test_total")
        hist = reg.histogram("repro_test_seconds", buckets=[1.0, 2.0])
        n_threads, n_iter = 8, 1000

        def work():
            for i in range(n_iter):
                counter.inc()
                hist.observe(float(i % 3))

        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        total = n_threads * n_iter
        assert counter.value == total
        assert hist.count == total
        assert hist.cumulative_buckets()[-1][1] == total

    def test_cache_collector_weakref_lifecycle(self):
        reg = MetricsRegistry()

        class Dummy:
            def __init__(self):
                self.stats = CacheStats(
                    lambda: 3, lambda: 10, hits=7, misses=2, evictions=1
                )

        cache = Dummy()
        reg.register_cache("dummy-0", cache, kind="dummy")
        text = reg.exposition()
        assert (
            'repro_cache_hits_total{cache="dummy-0",kind="dummy"} 7' in text
        )
        assert (
            'repro_cache_entries{cache="dummy-0",kind="dummy"} 3' in text
        )
        assert (
            'repro_cache_capacity{cache="dummy-0",kind="dummy"} 10' in text
        )
        del cache
        gc.collect()
        assert "dummy-0" not in reg.exposition()

        from repro.serving.metrics import ServingMetrics

        metrics = ServingMetrics()
        metrics.incr("executed")
        metrics.observe("compile", 0.004)
        label = f'service="{metrics.name}"'
        assert label in exposition()
        del metrics
        gc.collect()
        assert label not in exposition()

    def test_autoname_is_unique(self):
        reg = MetricsRegistry()
        assert reg.autoname("x") == "x-0"
        assert reg.autoname("x") == "x-1"
        assert reg.autoname("y") == "y-0"

    def test_cache_stats_hybrid(self):
        stats = CacheStats(
            lambda: 5,
            lambda: 100,
            hits=3,
            misses=4,
            evictions=0,
        )
        stats["hits"] += 1  # dict mutation shows in the called shape
        assert stats() == {
            "hits": 4,
            "misses": 4,
            "evictions": 0,
            "size": 5,
            "capacity": 100,
        }


# ---- cache integration ---------------------------------------------------------------


class TestCacheIntegration:
    def test_uniform_stats_shape_across_all_caches(self):
        from repro.compiler.jit import JITCompiler
        from repro.qem.engine import VARIANTS
        from repro.sim.evolve import PropagatorCache

        caches = [
            JITCompiler(max_cache_entries=4),
            PropagatorCache(max_entries=4),
            # The executable memo ("template" cache) lives on the target.
            Estimator(SuperconductingDevice(num_qubits=1)).target,
            # Drive plans per template, and mitigation variants.
            SuperconductingDevice(num_qubits=1).executor.drive_plans,
            VARIANTS,
        ]
        for cache in caches:
            shape = cache.stats()
            assert set(shape) == {
                "hits",
                "misses",
                "evictions",
                "size",
                "capacity",
            }
            assert all(
                v is None or isinstance(v, int) for v in shape.values()
            )

    def test_all_cache_kinds_in_one_exposition(self):
        from repro.compiler.jit import JITCompiler
        from repro.sim.evolve import PropagatorCache

        compiler = JITCompiler(max_cache_entries=4)
        prop_cache = PropagatorCache(max_entries=4)
        estimator = Estimator(SuperconductingDevice(num_qubits=1))
        text = exposition()
        for kind in ("jit-artifact", "propagator", "template"):
            assert f'kind="{kind}"' in text, kind
        del compiler, prop_cache, estimator

    def test_propagator_cache_concurrent_stats(self):
        from repro.sim.evolve import PropagatorCache

        cache = PropagatorCache(max_entries=256)
        rng = np.random.default_rng(3)
        mats = rng.normal(size=(8, 2, 2))
        hams = [
            -1j * (m + m.T.conj()) * 1j for m in mats
        ]  # hermitian inputs
        n_threads, n_iter = 6, 40

        def work():
            for i in range(n_iter):
                cache.propagators(hams[i % len(hams)][None], dt=0.1)

        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stats = cache.stats()
        total = n_threads * n_iter
        assert stats["hits"] + stats["misses"] == total
        assert stats["misses"] >= len(hams)
        assert cache.hits == stats["hits"]
        assert cache.misses == stats["misses"]

    def test_propagator_cache_counts_evictions(self):
        from repro.sim.evolve import PropagatorCache

        cache = PropagatorCache(max_entries=2)
        for k in range(4):
            ham = np.diag([0.0, float(k + 1)])
            cache.propagators(ham[None], dt=0.1)
        assert cache.stats()["evictions"] == 2
        assert len(cache) == 2


# ---- serving metrics -----------------------------------------------------------------


class TestTelemetryExposition:
    def test_serving_metrics_in_global_exposition(self):
        from repro.serving.metrics import ServingMetrics

        metrics = ServingMetrics()
        metrics.incr("executed")
        metrics.observe("compile", 0.004)
        text = exposition()
        svc = metrics.name
        assert (
            f'repro_serving_events_total{{name="executed",service="{svc}"}} 1'
            in text
        )
        assert (
            f'repro_serving_latency_seconds_bucket{{service="{svc}",'
            f'stage="compile",' in text
        )
        assert (
            f'repro_serving_latency_seconds_sum{{service="{svc}",'
            f'stage="compile"}} 0.004' in text
        )


# ---- profiling -----------------------------------------------------------------------


class TestProfiling:
    @pytest.fixture()
    def estimator(self):
        device = SuperconductingDevice(num_qubits=1, drift_rate=0.0)
        return Estimator(device), parametric_kernel(device)

    def test_profile_metadata_when_enabled(self, estimator):
        est, text = estimator
        enable_profiling()
        try:
            result = est.run([(text, Observable.z(0), grid_for(2, 3))])
        finally:
            disable_profiling()
        profile = result[0].metadata["profile"]
        for key in (
            "kernel_calls",
            "slices",
            "max_stack",
            "dim",
            "max_squaring_levels",
            "gemm_s",
            "cache_lookups",
            "cache_hits",
            "cache_misses",
            "dedup_ratio",
            "records",
        ):
            assert key in profile, key
        assert profile["kernel_calls"] >= 1
        assert profile["dim"] >= 2
        assert profile["gemm_s"] > 0.0
        assert profile["dedup_ratio"] >= 1.0
        assert profile["batch"] == 3

    def test_no_profile_metadata_when_disabled(self, estimator):
        est, text = estimator
        result = est.run([(text, Observable.z(0), grid_for(2, 3))])
        assert "profile" not in result[0].metadata

    def test_kernel_histograms_always_populate_registry(self, estimator):
        est, text = estimator
        est.run([(text, Observable.z(0), grid_for(2, 3))])
        text_page = exposition()
        assert "repro_sim_kernel_seconds_count{" in text_page
        assert "repro_sim_kernel_slices_bucket{" in text_page


# ---- package surface -----------------------------------------------------------------


class TestPackageSurface:
    def test_root_exports(self):
        assert repro.span is span
        assert repro.trace is trace
        assert repro.exposition is exposition
        assert repro.obs.REGISTRY is not None
