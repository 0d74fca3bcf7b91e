"""The pipeline runner: DAG execution over any serving surface.

:class:`PipelineRunner` binds a calibration DAG to one device behind
one execution surface and drives it to completion:

* **surface resolution** — the constructor accepts a simulated device
  (direct dispatch through the primitives' ``execute_batch`` fast
  path), a :class:`~repro.serving.service.PulseService` (experiment
  PUBs dispatch as served sweeps), or anything
  :func:`repro.serving.connect.connect` accepts
  (:class:`~repro.serving.cluster.ClusterService`, ``http(s)://``
  front-end addresses, an already-connected client).  Detached
  transports own no local compiler, so they additionally need the
  local ``device=`` handle experiments build schedules against.
* **scheduling** — tasks run in topological ready-set order with
  per-task retry (``max_attempts``) and soft timeout (``timeout_s``,
  enforced by a watchdog join — the straggler thread is abandoned,
  not interrupted).
* **seeding** — per-task seeds derive from one
  :class:`numpy.random.SeedSequence` spawn per run, are persisted in
  the task rows, and are reused on retry *and* on resume, so a
  campaign reproduces bit-for-bit however often it is interrupted.
* **durability** — run/task state persists through a
  :class:`~repro.pipeline.state.PipelineStore` (by default an
  ephemeral ``PipelineStore()``).  ``run()`` on an
  existing ``run_id`` resumes: completed tasks replay from their
  recorded results (effectful kinds re-apply their recorded effects
  to the fresh device object), and only the remainder executes.
* **observability** — per-task :func:`~repro.obs.tracing.span` plus
  the ``repro_pipeline_*`` metrics family on the global registry.
"""

from __future__ import annotations

import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

import numpy as np

from repro.errors import PipelineError
from repro.obs.metrics import REGISTRY
from repro.obs.tracing import span
from repro.pipeline.dag import DAG, task_type
from repro.pipeline.state import PipelineStore


def derive_task_seeds(seed: int, order: list[str]) -> dict[str, int]:
    """Collision-free per-task seeds via ``SeedSequence.spawn``.

    One child sequence per task, assigned by topological position —
    the replacement for ad-hoc ``seed + 1000 * k + site`` arithmetic,
    which collides as campaigns scale. The derived 32-bit value is
    what the store persists, so retries and resumed runs observe the
    exact seed the first attempt used.
    """
    root = np.random.SeedSequence(int(seed))
    return {
        name: int(child.generate_state(1)[0])
        for name, child in zip(order, root.spawn(len(order)))
    }


@dataclass
class TaskContext:
    """What a task implementation sees while running.

    ``device`` is the *local* device handle (schedule construction,
    write-back, ground-truth probes); :meth:`estimator` and
    :meth:`sampler` build primitives bound to the runner's execution
    surface, so the same task code measures through ``execute_batch``
    directly or through a served sweep depending on how the runner
    was constructed. They share the runner's one target, and so its
    executable memo; :meth:`program` memoizes the programs they run.
    """

    device: Any
    runner: "PipelineRunner"
    extras: dict = field(default_factory=dict)

    def estimator(self, *, shots: int = 0, seed: int | None = None):
        from repro.primitives import Estimator

        return Estimator(self.runner.primitive_target(), shots=shots, seed=seed)

    def sampler(self, *, default_shots: int = 1024, seed: int | None = None):
        from repro.primitives import Sampler

        return Sampler(
            self.runner.primitive_target(),
            default_shots=default_shots,
            seed=seed,
        )

    def program(self, key: Any, build: Callable[[], Any]) -> Any:
        """The runner's program under *key*, from ``build()`` on first
        use and again after the device's calibration structure
        (:attr:`CalibrationSet.generation
        <repro.devices.calibrations.CalibrationSet.generation>`)
        changes. A program that names its calibrated frames instead of
        copying their frequencies is the same program after a
        frequency write-back, so its executable keeps its template."""
        generation = self.device.calibrations.generation
        known = self.runner._programs.get(key)
        if known is None or known[0] != generation:
            known = self.runner._programs[key] = (generation, build())
        return known[1]


@dataclass
class PipelineRun:
    """Outcome of one (possibly resumed) DAG run."""

    run_id: str
    dag_name: str
    state: str  # "done" | "failed"
    results: dict[str, dict]
    replayed: list[str]
    executed: list[str]
    error: str | None = None
    failed_task: str | None = None

    @property
    def ok(self) -> bool:
        return self.state == "done"

    def result(self, name: str) -> dict:
        try:
            return self.results[name]
        except KeyError:
            raise PipelineError(
                f"run {self.run_id!r} has no completed task {name!r}"
            ) from None


class PipelineRunner:
    """Executes calibration DAGs against one device on one surface."""

    def __init__(
        self,
        surface: Any,
        *,
        store: Any = None,
        device_name: str | None = None,
        device: Any = None,
        extras: Mapping[str, Any] | None = None,
    ) -> None:
        self.store = store if store is not None else PipelineStore()
        self.extras = dict(extras or {})
        self._service = None  # PulseService for sweep dispatch, if any
        self._target = None  # built on first use by primitive_target()
        #: Scan programs by key, with the calibration generation each
        #: was built at (:meth:`TaskContext.program`).
        self._programs: dict[Any, tuple[int, Any]] = {}
        self.client = None
        if hasattr(surface, "executor") and hasattr(surface, "config"):
            # A bare simulated device: everything runs in-process.
            self.device = surface
            self.device_name = surface.name
            return
        from repro.serving.connect import connect
        from repro.serving.service import PulseService

        self.client = connect(surface)
        inner = getattr(self.client, "service", None)
        if isinstance(inner, PulseService):
            self._service = inner  # primitives sweep path
        if device_name is None:
            names = self.client.devices()
            if len(names) != 1:
                raise PipelineError(
                    "device_name= is required when the connected surface "
                    f"serves {len(names)} devices"
                )
            device_name = names[0]
        self.device_name = device_name
        local = device
        if local is None:
            mqss = getattr(self.client, "client", None)
            if mqss is not None:
                local = mqss.driver.get_device(device_name)
                from repro.client.remote import RemoteDeviceProxy

                if isinstance(local, RemoteDeviceProxy):
                    local = local.inner
        if local is None or not hasattr(local, "advance_time"):
            raise PipelineError(
                "the pipeline needs a local simulated-device handle for "
                "schedule construction and write-back; pass device= when "
                "connecting through a detached transport (cluster/HTTP)"
            )
        self.device = local

    # ---- surface plumbing ------------------------------------------------------------

    def primitive_target(self) -> Any:
        """The one target primitives built by task contexts bind to."""
        if self._target is None:
            from repro.api.target import Target

            self._target = (
                Target.from_service(self._service, self.device_name)
                if self._service is not None
                else Target.from_device(self.device)
            )
        return self._target

    @property
    def dispatch(self) -> str:
        """``"service"`` (served sweeps) or ``"direct"``."""
        return "service" if self._service is not None else "direct"

    # ---- run / resume ----------------------------------------------------------------

    def run(
        self,
        dag: DAG | None = None,
        *,
        run_id: str | None = None,
        seed: int = 0,
    ) -> PipelineRun:
        """Execute *dag* (or resume *run_id*) to a terminal state.

        A ``run_id`` that already exists in the store resumes: the
        persisted DAG is authoritative, completed tasks replay without
        re-execution, and pending tasks run with their recorded seeds.
        """
        if dag is None and run_id is None:
            raise PipelineError("run() needs a DAG or a run_id to resume")
        if run_id is None:
            run_id = f"{dag.name}-{uuid.uuid4().hex[:8]}"
        existing = self.store.get_run(run_id)
        if existing is None:
            if dag is None:
                raise PipelineError(f"unknown pipeline run {run_id!r}")
            dag.validate()
            order = dag.topological_order()
            self.store.create_run(
                run_id, dag, seed=seed, task_seeds=derive_task_seeds(seed, order)
            )
        else:
            dag = self.store.load_dag(run_id)
        return self._execute(dag, run_id)

    def resume(self, run_id: str) -> PipelineRun:
        """Resume a persisted run from its completed tasks."""
        return self.run(run_id=run_id)

    # ---- execution core --------------------------------------------------------------

    def _execute(self, dag: DAG, run_id: str) -> PipelineRun:
        ctx = TaskContext(device=self.device, runner=self, extras=self.extras)
        order = dag.topological_order()
        rows = self.store.tasks(run_id)
        self.store.set_run_state(run_id, "running")
        done: dict[str, dict] = {}
        replayed: list[str] = []
        executed: list[str] = []
        error: str | None = None
        failed_task: str | None = None

        with span("pipeline.run", run=run_id, dag=dag.name, tasks=len(order)):
            # Phase 1 — replay: completed tasks (in topological order)
            # contribute their recorded results; effectful kinds
            # re-apply those results to the fresh device object.
            for name in order:
                row = rows.get(name)
                if row is None or row["state"] != "done":
                    continue
                spec = dag[name]
                ttype = task_type(spec.kind)
                result = row["result"] or {}
                if ttype.replay is not None:
                    with span(
                        "pipeline.replay", run=run_id, task=name, kind=spec.kind
                    ):
                        ttype.replay(ctx, spec.params, result)
                done[name] = result
                replayed.append(name)
            if replayed:
                self._count_tasks(dag.name, "replayed", len(replayed))

            # Phase 2 — ready-set scheduling over the remainder.
            while error is None and len(done) < len(order):
                ready = dag.ready(done)
                if not ready:
                    error = (
                        f"no runnable tasks with {len(order) - len(done)} "
                        "pending (failed dependency)"
                    )
                    break
                for name in ready:
                    spec = dag[name]
                    seed_row = rows.get(name) or {}
                    result, task_error = self._run_task(
                        ctx, run_id, dag, spec, seed_row.get("seed"), done
                    )
                    if task_error is not None:
                        error = f"task {name!r} failed: {task_error}"
                        failed_task = name
                        break
                    done[name] = result
                    executed.append(name)

        state = "failed" if error else "done"
        self.store.set_run_state(run_id, state, error=error)
        REGISTRY.counter(
            "repro_pipeline_runs_total",
            "Pipeline runs by terminal state",
            {"dag": dag.name, "state": state},
        ).inc()
        return PipelineRun(
            run_id=run_id,
            dag_name=dag.name,
            state=state,
            results=done,
            replayed=replayed,
            executed=executed,
            error=error,
            failed_task=failed_task,
        )

    def _run_task(
        self,
        ctx: TaskContext,
        run_id: str,
        dag: DAG,
        spec,
        task_seed: int | None,
        done: Mapping[str, dict],
    ) -> tuple[dict | None, str | None]:
        ttype = task_type(spec.kind)
        upstream = {dep: done[dep] for dep in spec.after}
        last_error: str | None = None
        for attempt in range(1, spec.max_attempts + 1):
            self.store.mark_task_running(run_id, spec.name)
            start = time.perf_counter()
            try:
                with span(
                    "pipeline.task",
                    run=run_id,
                    task=spec.name,
                    kind=spec.kind,
                    category=ttype.category,
                    attempt=attempt,
                ):
                    result = _call_with_timeout(
                        lambda: ttype.run(ctx, spec.params, task_seed, upstream),
                        spec.timeout_s,
                        spec.name,
                    )
                self.store.complete_task(run_id, spec.name, result)
                self._count_tasks(dag.name, "done", 1, kind=spec.kind)
                REGISTRY.histogram(
                    "repro_pipeline_task_seconds",
                    "Per-task wall time",
                    {"kind": spec.kind},
                ).observe(time.perf_counter() - start)
                return result, None
            except Exception as exc:
                last_error = f"{type(exc).__name__}: {exc}"
                if attempt < spec.max_attempts:
                    REGISTRY.counter(
                        "repro_pipeline_retries_total",
                        "Task attempts that failed and were retried",
                        {"dag": dag.name, "kind": spec.kind},
                    ).inc()
        self.store.fail_task(run_id, spec.name, last_error or "unknown error")
        self._count_tasks(dag.name, "failed", 1, kind=spec.kind)
        return None, last_error

    @staticmethod
    def _count_tasks(
        dag_name: str, state: str, amount: int, *, kind: str = ""
    ) -> None:
        REGISTRY.counter(
            "repro_pipeline_tasks_total",
            "Pipeline tasks by outcome",
            {"dag": dag_name, "kind": kind, "state": state},
        ).inc(amount)


def _call_with_timeout(
    fn: Callable[[], dict], timeout_s: float | None, name: str
) -> dict:
    """Run *fn*, bounding its wall time with a watchdog join.

    Soft enforcement: an expired task's thread is abandoned (daemon),
    not interrupted — acceptable for simulation workloads, and the
    same compromise the serving layer's lease timeouts make.
    """
    if not timeout_s:
        return fn()
    box: dict[str, Any] = {}

    def worker() -> None:
        try:
            box["result"] = fn()
        except BaseException as exc:  # propagated below
            box["error"] = exc

    thread = threading.Thread(
        target=worker, name=f"pipeline-task-{name}", daemon=True
    )
    thread.start()
    thread.join(timeout_s)
    if thread.is_alive():
        raise PipelineError(
            f"task {name!r} exceeded its timeout of {timeout_s}s"
        )
    if "error" in box:
        raise box["error"]
    return box["result"]
