"""Run the benchmark workloads; see ``benchmarks/harness/README.md``.

    python -m benchmarks.harness [--workload NAME] [--seed N]
        [--seconds S] [--trace 0|1] [--regen-golden]

Each workload runs in a fresh child process, untraced, for the
end-to-end metrics. With ``--trace 1`` (the default) a second, traced
child then replays the same seed and op count for the per-layer table.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer ones with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

from benchmarks.harness.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
WORK = Path(__file__).resolve().parent / ".work"

#: End-to-end metrics printed besides the gated ones in BENCHMARK.json
#: (README.md says why the median and p90 are not gated).
REPORTED = {"latency_p50_ms": "ms", "latency_p90_ms": "ms"}
#: Per-layer metrics the table shows as columns (``ms_per_op`` is the
#: sum of two of them) rather than listing them.
LAYER_COLUMNS = (
    "calls_per_op",
    "self_ms_per_op",
    "busy_ms_per_op",
    "share",
    "ms_per_op",
)
#: Two host GEMMs of one child further apart than this flag the run.
GEMM_DRIFT = 0.25
#: Wall-time budget of one workload, traced child included: one
#: workload's run must end within 180 s.
BUDGET_S = 170.0
#: One BLAS thread per process. The served workload already runs
#: three busy processes on two cores, and a second BLAS thread that
#: starts on its parent's core makes early kernels several times slower
#: until the scheduler moves it, which swamps set-up time.
SINGLE_THREADED_BLAS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class HarnessError(RuntimeError):
    pass


def _stop_group(pgid: int, timeout: float = 10.0) -> None:
    """Stop what is left of a child's process group, then SIGKILL it."""
    deadline = time.monotonic() + timeout
    sig = signal.SIGTERM
    while time.monotonic() < deadline + timeout:
        try:
            os.killpg(pgid, sig)
        except ProcessLookupError:
            return
        if time.monotonic() >= deadline:
            sig = signal.SIGKILL
        time.sleep(0.05)


def gated_metrics(section: str) -> dict[str, str]:
    """``{name: unit}`` of one metric list of BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def run_group(cmd: list[str], env: dict, timeout: float) -> tuple[int, bytes]:
    """Run *cmd* in a process group of its own; ``(exit code, stdout)``.

    Forked cluster workers inherit the stdout pipe, so on a timeout the
    whole group is killed before the pipe is drained: killing only the
    child would leave the workers holding it open. Whatever is left of
    the group is stopped before this returns.
    """
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, start_new_session=True
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise HarnessError(f"{shlex.join(cmd)}: exceeded {timeout:.0f} s") from None
    finally:
        _stop_group(proc.pid)
    return proc.returncode, out


def run_child(
    name: str,
    seed: int,
    seconds: float,
    trace: int,
    ops: int | None = None,
    regen: bool = False,
    timeout: float = BUDGET_S,
) -> dict:
    """Run one child; returns its JSON result."""
    work = WORK / f"{os.getpid()}-{name}-{trace}"
    work.mkdir(parents=True, exist_ok=True)
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
        TMPDIR=str(work),
        **SINGLE_THREADED_BLAS,
    )
    cmd = [sys.executable, "-m", "benchmarks.harness.child", "--workload", name]
    cmd += ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    cmd += ["--work-dir", str(work)]
    if ops is not None:
        cmd += ["--ops", str(ops)]
    if regen:
        cmd.append("--regen-golden")
    try:
        code, out = run_group(cmd, env, timeout)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = out.decode().strip().splitlines()
    if code != 0 or not lines:
        raise HarnessError(f"{name}: child exited with code {code}")
    result = json.loads(lines[-1])
    if "gemm_ms" in result:
        before, after = result["gemm_ms"]
        result["gemm_drift"] = abs(after / before - 1.0) > GEMM_DRIFT
    return result


def is_correct(result: dict) -> bool:
    failures = result["failed"] + result["mismatches"]
    return failures == 0 and "metrics" in result


# ---- reporting -----------------------------------------------------------------------


def _print_end_to_end(result: dict, gated: dict[str, str]) -> None:
    m = result["metrics"]
    print(f"\n== {result['workload']} (seed {result['seed']}): end to end ==")
    print(f"  {'':24s} {'host-scaled':>12s} {'measured':>12s}")
    for metric, unit in {**gated, **REPORTED}.items():
        measured = m.get(f"measured.{metric}")
        column = f"{measured:12.4f}" if measured is not None else f"{'':12s}"
        print(f"  {metric:24s} {m[metric]:12.4f} {column} {unit}")
    failures = result["failed"] + result["mismatches"]
    print(
        f"  {'fail_frac':24s} {failures / result['attempted']:12.4f} "
        f"({result['failed']} of {result['attempted']} ops failed, "
        f"{result['mismatches']} of {result['checked']} golden/spot checks off, "
        f"worst error {result['worst_of_tolerance']:.2g} of tolerance)"
    )
    setups = ", ".join(f"{s:.3f}" for s in result["setup_runs_s"])
    drift = " (drifted)" if result["gemm_drift"] else ""
    print(f"  samples {result['samples']}, {result['beyond_p90']} beyond p90")
    print(f"  set-ups {setups} s")
    print(
        f"  host.gemm_ms {result['gemm_ms'][0]:.2f} before / "
        f"{result['gemm_ms'][1]:.2f} after{drift}; "
        f"median host speed {result['host_speed']:.2f}"
    )
    for key, value in sorted(result["values"].items()):
        print(f"  {key:24s} {value:12.4f}")


def _print_layers(result: dict, plain: dict) -> None:
    m = result["layer_metrics"]
    print(f"\n== {result['workload']}: per layer ({result['attempted']} ops) ==")
    print(
        f"  {'layer':26s} {'calls/op':>9s} {'self ms/op':>11s} "
        f"{'busy ms/op':>11s} {'share':>7s}"
    )
    names = [k[: -len(".share")] for k in m if k.endswith(".share")]
    names.remove("harness.other")
    names.sort(key=lambda n: (-m[f"{n}.self_ms_per_op"], -m[f"{n}.busy_ms_per_op"]))
    for n in names:
        print(
            f"  {n:26s} {m[f'{n}.calls_per_op']:9.2f} "
            f"{m[f'{n}.self_ms_per_op']:11.3f} {m[f'{n}.busy_ms_per_op']:11.3f} "
            f"{m[f'{n}.share']:7.1%}"
        )
    other = m["harness.other.share"]
    total = other + sum(m[f"{n}.share"] for n in names)
    print(f"  {'harness.other':26s} {'':33s} {other:7.1%}")
    traced_ms = result["metrics"]["measured.latency_iqm_ms"]
    print(
        f"  layer self times + harness.other = {total:.1%} of op wall "
        f"(latency_iqm_ms {traced_ms:.3f} traced)"
    )
    for key in sorted(m):
        if key.rsplit(".", 1)[-1] not in LAYER_COLUMNS:
            print(f"  {key:44s} {m[key]:14.6f}")
    overhead = traced_ms / plain["metrics"]["measured.latency_iqm_ms"] - 1.0
    print(f"  {'trace_overhead_frac':44s} {overhead:14.6f} (informational)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.harness",
        description="MQSS Pulse reproduction benchmark harness",
    )
    parser.add_argument(
        "--workload", choices=list(WORKLOADS), help="one workload (default: all)"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds",
        type=float,
        default=10.0,
        help="timed seconds per run (at least 100 ops run)",
    )
    parser.add_argument(
        "--trace",
        type=int,
        choices=(0, 1),
        default=1,
        help="0: the untraced child only; 1 (default): then the traced child, "
        "replaying the untraced op count",
    )
    parser.add_argument(
        "--regen-golden",
        action="store_true",
        help="rewrite golden/<workload>.json from the reference paths",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    end_to_end = gated_metrics("end_to_end")
    per_layer = gated_metrics("per_layer")

    if args.regen_golden:
        for name in names:
            print(run_child(name, args.seed, args.seconds, 0, regen=True)["golden"])
        return 0

    results: list[dict] = []
    metrics: dict[str, dict] = {}
    try:
        for name in names:
            start = time.monotonic()
            plain = run_child(name, args.seed, args.seconds, 0)
            results.append(plain)
            if "metrics" not in plain:
                continue
            _print_end_to_end(plain, end_to_end)
            if not args.trace:
                for metric, unit in end_to_end.items():
                    value = plain["metrics"][metric]
                    metrics[f"{name}/{metric}"] = {"value": value, "unit": unit}
                continue
            left = BUDGET_S - (time.monotonic() - start)
            traced = run_child(
                name, args.seed, args.seconds, 1, plain["attempted"], timeout=left
            )
            results.append(traced)
            if "metrics" in traced:
                _print_layers(traced, plain)
                for metric, unit in per_layer.items():
                    value = traced["layer_metrics"].get(metric, 0.0)
                    metrics[f"{name}/{metric}"] = {"value": value, "unit": unit}
    except HarnessError as exc:
        print(f"harness: {exc}", file=sys.stderr)
        return 1

    if len(names) == 1:
        metrics = {key.split("/", 1)[1]: value for key, value in metrics.items()}
    summary = {
        "correct": all(is_correct(r) for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] + r["mismatches"] for r in results),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
