"""One workload in one fresh process: set up, time, check, report.

The harness runs ``python -m benchmarks.harness.child --workload NAME
...`` once untraced (end-to-end numbers) and once traced (per-layer
numbers). The child prints one JSON object as the last line of its
standard output.

Right after each op, its client thread samples the host speed
(:mod:`benchmarks.harness.host`); every timing is reported both as
measured and divided by the host speed sampled beside it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import threading
import time
import traceback
from statistics import fmean, median

from benchmarks.harness import host, layers
from benchmarks.harness.stats import interquartile_mean, nearest_rank
from benchmarks.harness.tracer import OP, Tracer, fold
from benchmarks.harness.workloads import WORKLOADS
from benchmarks.harness.workloads.base import write_golden

#: Every run times at least this many ops, so at least ten samples lie
#: beyond the nearest-rank p90.
MIN_OPS = 100
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5
#: A time-bounded run stops at this multiple of ``--seconds`` even
#: when fewer than MIN_OPS ops finished.
CAP_FACTOR = 6


def _unscaled() -> float:
    return 1.0


class Loop:
    """Closed-loop op execution over the workload's client threads.

    Stops after ``ops`` ops when given, otherwise once ``seconds`` have
    passed and MIN_OPS ops were attempted.
    """

    def __init__(self, workload, state, seed, seconds, ops, tracer) -> None:
        self.workload = workload
        self.state = state
        self.seed = seed
        self.seconds = seconds
        self.ops = ops
        self.tracer = tracer
        self.speed = host.speed if workload.host_scaled else _unscaled
        #: (wall seconds, host speed) of each successful op.
        self.samples: list[tuple[float, float]] = []
        self.attempted = 0
        self.failed = 0
        self._lock = threading.Lock()
        self._reported = False

    def _claim(self) -> int | None:
        with self._lock:
            index = self.attempted
            if self.ops is not None:
                if index >= self.ops:
                    return None
            else:
                elapsed = time.perf_counter() - self.start
                if elapsed >= self.seconds and index >= MIN_OPS:
                    return None
                if elapsed >= CAP_FACTOR * self.seconds:
                    return None
            self.attempted += 1
            return index

    def _client(self) -> None:
        workload, state = self.workload, self.state
        while (index := self._claim()) is not None:
            try:
                inputs = workload.prepare(state, self.seed, index)
                t0 = time.perf_counter()
                if self.tracer is None:
                    output = workload.op(state, inputs)
                else:
                    with self.tracer.span(OP):
                        output = workload.op(state, inputs)
                elapsed = time.perf_counter() - t0
                speed = self.speed()
                ok = workload.check(state, inputs, output)
            except Exception:
                ok = False
                with self._lock:
                    if not self._reported:
                        self._reported = True
                        traceback.print_exc()
            with self._lock:
                if ok:
                    self.samples.append((elapsed, speed))
                else:
                    self.failed += 1

    def run(self) -> None:
        self.wall_start = time.time()
        self.start = time.perf_counter()
        threads = [
            threading.Thread(target=self._client)
            for _ in range(1, self.workload.clients)
        ]
        for t in threads:
            t.start()
        self._client()
        for t in threads:
            t.join()
        self.end = time.perf_counter()
        self.wall_end = time.time()


def _timings(loop: Loop, setup_s: list[float], setup_speeds: list[float]) -> dict:
    """End-to-end metrics, host-scaled and as measured.

    Each op's time is divided by the host speed its client sampled right
    after it, throughput is multiplied by their mean, and each set-up is
    divided by the mean of the settled speeds before and after it.
    """
    latencies = [lat for lat, _ in loop.samples]
    scaled = [lat / s for lat, s in loop.samples]
    throughput = len(latencies) / (loop.end - loop.start)
    around = [(a + b) / 2 for a, b in zip(setup_speeds, setup_speeds[1:])]
    p90 = nearest_rank(latencies, 0.9)
    return {
        "latency_iqm_ms": interquartile_mean(scaled) * 1e3,
        "latency_p50_ms": median(scaled) * 1e3,
        "latency_p90_ms": nearest_rank(scaled, 0.9).value * 1e3,
        "throughput_ops_per_s": throughput * fmean(s for _, s in loop.samples),
        "setup_s": median([t / s for t, s in zip(setup_s, around)]),
        "measured.latency_iqm_ms": interquartile_mean(latencies) * 1e3,
        "measured.latency_p50_ms": median(latencies) * 1e3,
        "measured.latency_p90_ms": p90.value * 1e3,
        "measured.throughput_ops_per_s": throughput,
        "measured.setup_s": median(setup_s),
        "samples": p90.samples,
        "beyond_p90": p90.beyond,
    }


def measure(args) -> dict:
    workload = WORKLOADS[args.workload]
    gemm = host.CalibrationGemm()
    gemm_before = gemm.ms()
    settled = host.settled_speed if workload.host_scaled else _unscaled

    tracer = None
    spans_dir = os.path.join(args.work_dir, "spans")
    if args.trace:
        os.makedirs(spans_dir, exist_ok=True)
        tracer = Tracer()
        layers.install(tracer, spans_dir)
    elif wrapped := layers.wrapped_targets():
        raise RuntimeError(f"untraced run sees harness wrappers: {wrapped}")
    from repro.obs import tracing_enabled

    if tracing_enabled():
        raise RuntimeError("repro.obs tracing must stay off in both runs")

    setup_s = []
    setup_speeds = []
    state = None
    for _ in range(SETUPS):
        if state is not None:
            workload.teardown(state)
        setup_speeds.append(settled())
        t0 = time.perf_counter()
        state = workload.setup(args.seed, args.work_dir)
        setup_s.append(time.perf_counter() - t0)
    setup_speeds.append(settled())
    loop = Loop(workload, state, args.seed, args.seconds, args.ops, tracer)
    try:
        loop.run()
        # Before verify, which builds stacks of its own.
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        gemm_after = gemm.ms()
        verification = workload.verify(state, (loop.wall_start, loop.wall_end))
    finally:
        workload.teardown(state)

    result = {
        "workload": workload.name,
        "seed": args.seed,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "checked": verification.checked,
        "mismatches": verification.mismatches,
        "worst_of_tolerance": verification.worst,
        "values": verification.values,
        "setup_runs_s": setup_s,
        "gemm_ms": [gemm_before, gemm_after],
    }
    if loop.samples:
        timings = _timings(loop, setup_s, setup_speeds)
        result["samples"] = timings.pop("samples")
        result["beyond_p90"] = timings.pop("beyond_p90")
        result["metrics"] = {**timings, "peak_rss_mb": rss_kib / 1024.0}
        result["host_speed"] = median(s for _, s in loop.samples)
    if tracer is not None:
        tracer.uninstall()
        tracer.load_exports(spans_dir)
        result["layer_metrics"] = {
            **layers.metrics(fold(tracer.spans, [(loop.start, loop.end)])),
            **verification.values,
        }
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument(
        "--ops", type=int, help="run exactly this many ops instead of --seconds"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--regen-golden", action="store_true")
    args = parser.parse_args(argv)
    if args.regen_golden:
        workload = WORKLOADS[args.workload]
        path = write_golden(workload.name, workload.reference())
        result = {"golden": path}
    else:
        result = measure(args)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
