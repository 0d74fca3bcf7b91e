"""The layers a traced run wraps, and the per-layer metrics they give.

Each :class:`Layer` names the public functions and methods one layer
of the stack exposes, as ``"module:attribute.path"``. The traced child
wraps exactly these attributes (the ones callers resolve at call time:
class attributes for methods, module globals for functions). A target
may carry a counter function: ``(path, count)``.
"""

from __future__ import annotations

import importlib
import inspect
from dataclasses import dataclass
from statistics import median
from typing import Any

from benchmarks.harness.tracer import OP, Count, Fold, Probe, Tracer, is_wrapped


def _one(*names: str) -> Count:
    return lambda args, kwargs, result: dict.fromkeys(names, 1.0)


def _length(name: str, index: int) -> Count:
    return lambda args, kwargs, result: {name: float(len(args[index]))}


def _jit_hits(args, kwargs, result) -> dict:
    return {"hits": float(result.cache_hit)}


def _variants(args, kwargs, result) -> dict:
    return {"variants": float(sum(len(point) for point in result))}


def _cache_stats(args) -> dict:
    stats = args[0].stats
    return {key: float(stats[key]) for key in ("hits", "misses", "evictions")}


@dataclass(frozen=True)
class Layer:
    name: str
    targets: tuple[str | tuple[str, Count], ...]
    probe: Probe | None = None


_EXE = "repro.sim.executor:ScheduleExecutor"
_JOBS = "repro.serving.store:JobStore"
_RUNS = "repro.pipeline.state:PipelineStore"

LAYERS: tuple[Layer, ...] = (
    Layer(
        "primitives.run",
        (
            "repro.primitives.estimator:Estimator.run",
            "repro.primitives.sampler:Sampler.run",
        ),
    ),
    Layer("api.specialize", ("repro.api.executable:Executable.specialize",)),
    Layer(
        "api.compile",
        (
            "repro.api.executable:Executable.prepare",
            "repro.api.executable:Executable.compile",
        ),
    ),
    Layer("compiler.jit", (("repro.compiler.jit:JITCompiler.compile", _jit_hits),)),
    Layer("qem.expand", (("repro.qem.engine:_expand_pub", _variants),)),
    Layer(
        "qem.stretch",
        (
            "repro.core.stretch:stretch_schedule",
            "repro.qem.engine:stretch_schedule",
        ),
    ),
    Layer("qem.fold", ("repro.qem.engine:_assemble_estimator",)),
    Layer(
        "sim.execute",
        (
            (f"{_EXE}.execute_batch", _length("schedules", 1)),
            (f"{_EXE}.execute", _one("schedules")),
        ),
    ),
    Layer(
        "sim.cache",
        (("repro.sim.evolve:PropagatorCache.propagators", _length("slices", 1)),),
        probe=_cache_stats,
    ),
    Layer(
        "sim.kernel",
        (
            ("repro.sim.evolve:batched_propagators", _length("slices", 0)),
            (
                "repro.sim.open_system:batched_superpropagators",
                _length("slices", 0),
            ),
        ),
    ),
    Layer("sim.measurement", (f"{_EXE}._finalize", f"{_EXE}._finalize_family")),
    Layer("serving.http.submit", ("repro.serving.http:HttpServiceClient.submit",)),
    Layer("serving.http.result_wait", ("repro.serving.http:HttpTicket.result",)),
    Layer("serving.http.handler", ("repro.serving.http:HttpFrontend.route",)),
    Layer(
        "serving.wire",
        tuple(
            f"repro.serving.wire:{fn}"
            for fn in (
                "encode_request",
                "decode_request",
                "encode_result",
                "decode_result",
            )
        ),
    ),
    Layer(
        "serving.store",
        tuple(
            f"{_JOBS}.{method}"
            for method in (
                "put",
                "lease",
                "mark_running",
                "heartbeat",
                "complete",
                "fail",
                "get",
                "state",
                "unfinished",
                "cancel_requested",
                "reap_expired",
                "attach_result",
                "pending_assembly",
                "publish_worker_metrics",
                "worker_metrics",
            )
        ),
    ),
    Layer(
        "serving.shm",
        ("repro.serving.shm:pack_arrays", "repro.serving.shm:load_arrays"),
    ),
    Layer("serving.worker", ("repro.serving.cluster:_run_leased_job",)),
    Layer("serving.pulse.wait", ("repro.serving.sweeps:SweepTicket.results",)),
    Layer(
        "serving.pulse.execute",
        ("repro.serving.service:PulseService._execute_group",),
    ),
    Layer("pipeline.run", ("repro.pipeline.runner:PipelineRunner.run",)),
    Layer(
        "pipeline.task",
        (("repro.pipeline.runner:PipelineRunner._run_task", _one("tasks")),),
    ),
    Layer(
        "pipeline.store",
        (
            f"{_RUNS}.get_run",
            f"{_RUNS}.load_dag",
            f"{_RUNS}.tasks",
            (f"{_RUNS}.create_run", _one("writes")),
            (f"{_RUNS}.set_run_state", _one("writes")),
            (f"{_RUNS}.complete_task", _one("writes")),
            (f"{_RUNS}.fail_task", _one("writes")),
            (f"{_RUNS}.mark_task_running", _one("writes", "attempts")),
        ),
    ),
    Layer("pipeline.writeback", ("repro.pipeline.writeback:commit_writeback",)),
)

#: The cluster worker's main loop: traced workers export their spans
#: when it returns.
WORKER_MAIN = "repro.serving.cluster:_worker_main"


def resolve(target: str) -> tuple[Any, str]:
    """``(owner, attribute)`` of a ``"module:attr.path"`` target."""
    module, _, path = target.partition(":")
    owner: Any = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


def targets(layer: Layer):
    """``(owner, attribute, count)`` of each of *layer*'s targets."""
    for entry in layer.targets:
        path, count = (entry, None) if isinstance(entry, str) else entry
        yield (*resolve(path), count)


def install(tracer: Tracer, export_dir: str) -> None:
    """Wrap every layer target, and make cluster workers export spans."""
    for layer in LAYERS:
        for owner, attr, count in targets(layer):
            tracer.wrap(owner, attr, layer.name, count=count, probe=layer.probe)
    tracer.export_on_return(*resolve(WORKER_MAIN), export_dir)


def wrapped_targets() -> list[str]:
    """Layer targets currently replaced by a harness wrapper."""
    found = [
        f"{layer.name}: {owner.__name__}.{attr}"
        for layer in LAYERS
        for owner, attr, _ in targets(layer)
        if is_wrapped(inspect.getattr_static(owner, attr))
    ]
    if is_wrapped(inspect.getattr_static(*resolve(WORKER_MAIN))):
        found.append(WORKER_MAIN)
    return found


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def metrics(result: Fold) -> dict[str, float]:
    """Every per-layer number of one traced run, by name.

    Per layer: ``calls_per_op`` (outermost calls), ``self_ms_per_op``
    (self time on op threads), ``busy_ms_per_op`` (self time on other
    threads and in cluster workers), ``ms_per_op`` (both), ``share``
    (op-thread self time over op wall time), ``ms_p50`` (median
    duration of its op-thread calls) and each counter per op.
    """
    ops = max(result.ops, 1)
    wall = result.op_wall_s
    out = {"harness.other.share": _ratio(result.other_s, wall)}
    for name, totals in result.layers.items():
        if name == OP:
            continue
        out[f"{name}.calls_per_op"] = totals.calls / ops
        out[f"{name}.self_ms_per_op"] = totals.self_op_s / ops * 1e3
        out[f"{name}.busy_ms_per_op"] = totals.busy_s / ops * 1e3
        out[f"{name}.ms_per_op"] = (totals.self_op_s + totals.busy_s) / ops * 1e3
        out[f"{name}.share"] = _ratio(totals.self_op_s, wall)
        if totals.op_durations:
            out[f"{name}.ms_p50"] = median(totals.op_durations) * 1e3
        for counter, value in totals.counters.items():
            out[f"{name}.{counter}_per_op"] = value / ops
    hits = out.get("sim.cache.hits_per_op", 0.0)
    misses = out.get("sim.cache.misses_per_op", 0.0)
    out["sim.cache.hit_ratio"] = _ratio(hits, hits + misses)
    out["compiler.jit.hit_ratio"] = _ratio(
        out.get("compiler.jit.hits_per_op", 0.0),
        out.get("compiler.jit.calls_per_op", 0.0),
    )
    attempts = out.get("pipeline.store.attempts_per_op", 0.0)
    tasks = out.get("pipeline.task.tasks_per_op", 0.0)
    out["pipeline.retries_per_op"] = attempts - tasks
    return out
