"""Shared machinery of the Sampler/Estimator primitives.

A primitive is constructed from any :class:`~repro.api.target.Target`
(or a bare device, or — for in-process callers like the variational
algorithms — directly from a :class:`~repro.sim.executor.ScheduleExecutor`)
and owns one dispatch decision for all its PUBs:

* **direct** — the target is a local simulated device (or a raw
  executor): every PUB point across every PUB becomes one schedule,
  and the whole batch runs through
  :meth:`ScheduleExecutor.execute_batch
  <repro.sim.executor.ScheduleExecutor.execute_batch>` — one stacked
  propagator (or Lindblad superpropagator) call instead of a
  per-point ``run()`` loop.
* **service** — the target dispatches through a
  :class:`~repro.serving.service.PulseService`: the points of every
  PUB sharing a shot count form one sweep, which the service queues
  as one entry and runs as one batched device execution (with
  admission control and failover), and the primitives collect the
  tickets. Seeded results equal the direct mode's bit for bit.
* **client** — anything else (remote QDMI routing): the per-point
  ``Executable`` loop, kept as the correctness baseline.

On a direct target, and on an in-process service over a local device,
a parametric PUB binds as one
:class:`~repro.core.schedule.ScheduleFamily` through
:meth:`Executable.bind_many <repro.api.executable.Executable.bind_many>`:
the compiled schedule template plus the PUB's ``(K, P)`` value matrix,
which the executor writes straight into its frame timelines, pulse
amplitudes and idle runs — no schedule per point. A served group of
families travels as one :class:`~repro.core.schedule.FamilyBatch`
request (one compile, one QDMI job, one execution) and comes back as
the executor's :class:`~repro.sim.executor.BatchResult`. Cluster and
HTTP targets, and PUBs that fail a bind check, mint one schedule per
point through
:meth:`Executable.specialize <repro.api.executable.Executable.specialize>`,
falling back to :meth:`Executable.bind` when the template is
unavailable, so PUB evaluation never recompiles the front-end per
point and every bind error surfaces where the per-point bind raises it.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Sequence

import numpy as np

from repro.api.executable import Executable
from repro.api.target import Target
from repro.core.schedule import FamilyBatch, ScheduleFamily
from repro.errors import ValidationError
from repro.obs.metrics import REGISTRY, CacheStats
from repro.obs.tracing import span

#: Dispatch modes (documented above).
_DIRECT, _SERVICE, _CLIENT = "direct", "service", "client"


class BasePrimitive:
    """Target resolution + batched PUB execution shared by primitives."""

    #: Compiled executables kept warm per primitive (identity-keyed by
    #: Program; optimizer loops re-submitting one Program skip the
    #: re-prepare + template re-trace entirely).
    _MAX_EXECUTABLE_MEMO = 128
    #: Whether a parametric PUB binds as one schedule family (direct
    #: targets, and in-process services over local devices).
    _binds_families = True

    def __init__(
        self,
        target: Any = None,
        *,
        executor: Any = None,
        seed: int | None = None,
    ) -> None:
        self._seed = seed
        self._executor = None
        self._target: Target | None = None
        self._executables: OrderedDict[Any, Executable] = OrderedDict()
        #: Uniform hit/miss/eviction accounting for the executable memo
        #: (the "template cache"), exported to the metrics registry like
        #: every other cache in the stack.
        self.stats = CacheStats(
            lambda: len(self._executables),
            lambda: self._MAX_EXECUTABLE_MEMO,
            hits=0,
            misses=0,
            evictions=0,
        )
        REGISTRY.register_cache(
            REGISTRY.autoname("template"), self, kind="template"
        )
        if executor is not None:
            if target is not None:
                raise ValidationError(
                    "pass either a target or an executor, not both"
                )
            self._executor = executor
            self._mode = _DIRECT
            return
        if target is None:
            raise ValidationError("a primitive needs a target (or executor)")
        resolved = Target.resolve(target)
        self._target = resolved
        if resolved.is_async:
            self._mode = _SERVICE
            # An in-process service runs bound families; detached
            # (cluster/HTTP) and remote targets take points.
            self._binds_families = not (
                resolved.is_detached or resolved.is_remote
            )
        elif resolved.direct and not resolved.is_remote:
            device = resolved.device
            if hasattr(device, "executor"):
                self._mode = _DIRECT
                self._executor = device.executor
            else:  # a direct target without a simulator: client loop
                self._mode = _CLIENT
        else:
            self._mode = _CLIENT

    @classmethod
    def from_executor(cls, executor: Any, **kwargs: Any):
        """A primitive over a bare :class:`ScheduleExecutor`.

        The in-process route for callers that already hold an executor
        (variational algorithms, mitigation validation): PUB programs
        must be pulse schedules, and everything dispatches through
        :meth:`ScheduleExecutor.execute_batch` with zero compile-layer
        overhead.
        """
        return cls(executor=executor, **kwargs)

    # ---- introspection ---------------------------------------------------------------

    @property
    def mode(self) -> str:
        """``"direct"``, ``"service"`` or ``"client"`` dispatch."""
        return self._mode

    @property
    def target(self) -> Target | None:
        return self._target

    def _device_name(self) -> str:
        if self._target is not None:
            return self._target.device_name
        model = self._executor.model
        return f"executor[{'x'.join(str(d) for d in model.dims)}]"

    def _dims(self) -> tuple[int, ...]:
        """Per-site dimensions of the simulated system (direct only)."""
        return tuple(self._executor.model.dims)

    # ---- schedule minting ------------------------------------------------------------

    def _point_schedules(self, pub) -> Sequence[Any]:
        """One concrete schedule per *unique* binding point of *pub*.

        Compiles the PUB's program once (template for parametric
        programs). On a direct or in-process service target a
        parametric PUB binds as one
        :class:`~repro.core.schedule.ScheduleFamily`
        (:meth:`Executable.bind_many
        <repro.api.executable.Executable.bind_many>`), a sequence whose
        members are built only on access; otherwise, or when a point
        fails a bind check, it specializes per point through the fast
        path. A program without parameters is one schedule repeated
        per point. In executor mode the program must already be a
        schedule.
        """
        bindings = pub.bindings
        n_points = bindings.size
        if self._executor is not None and self._target is None:
            if pub.program.kind != "schedule":
                raise ValidationError(
                    "an executor-backed primitive takes pulse-schedule "
                    f"programs only, got kind {pub.program.kind!r}; "
                    "construct the primitive from a Target to compile "
                    "other front ends"
                )
            if bindings.num_parameters:
                raise ValidationError(
                    "an executor-backed primitive cannot bind parametric "
                    "programs; construct it from a Target instead"
                )
            return [pub.program.source] * n_points
        executable = self._executables.get(pub.program)
        if executable is None:
            self.stats["misses"] += 1
            with span("compile", program=pub.program.name):
                executable = Executable.prepare(pub.program, self._target)
                if pub.program.is_parametric:
                    executable.compile()  # the schedule template
            self._executables[pub.program] = executable
            while len(self._executables) > self._MAX_EXECUTABLE_MEMO:
                self._executables.popitem(last=False)
                self.stats["evictions"] += 1
        else:
            self.stats["hits"] += 1
            self._executables.move_to_end(pub.program)
        if not pub.program.is_parametric:
            if self._mode == _CLIENT:
                return [executable] * n_points
            return [executable._ensure_compiled().schedule] * n_points
        schedules: list[Any] = []
        with span("specialize", points=n_points):
            if self._mode != _CLIENT and self._binds_families:
                family = executable.bind_many(bindings.values())
                if family is not None:
                    return family
            for i in range(n_points):
                point = bindings.point(i)
                if self._mode == _CLIENT:
                    schedules.append(executable.bind(point))
                    continue
                schedule = executable.specialize(point)
                if schedule is None:  # template unavailable: full bind
                    schedule = executable.bind(point).schedule
                schedules.append(schedule)
        return schedules

    # ---- batched dispatch ------------------------------------------------------------

    def _execute_all(
        self,
        per_pub: Sequence[tuple[Any, list[Any], int]],
        *,
        timeout: float | None = None,
    ) -> list[list[Any]]:
        """Execute every pub's points; returns per-pub result lists.

        *per_pub* entries are ``(pub, point_handles, shots)`` where the
        handles are schedules, a schedule family or a
        :class:`~repro.core.schedule.FamilyBatch` (direct/service) or
        executables (client). Direct and service dispatch
        both batch all points sharing a shot count, across every pub:
        direct runs each such group through one :meth:`execute_batch`
        call, service admits it as one sweep — one queue entry, one
        batched device execution — and admits every sweep before
        collecting any ticket. A pub alone in its group gets the batch
        itself back (a family's results stay arrays); pubs that share a
        group get their slice of it. When every pub of a group is bound
        as families the group runs as one
        :class:`~repro.core.schedule.FamilyBatch` — on a service as one
        request, whose ticket hands back the executor's
        :class:`~repro.sim.executor.BatchResult` — so the slices stay
        arrays too.
        """
        with span("dispatch", mode=self._mode, pubs=len(per_pub)):
            if self._mode == _CLIENT:
                return [
                    [
                        handle.run(shots=shots, seed=self._seed, timeout=timeout)
                        for handle in handles
                    ]
                    for _, handles, shots in per_pub
                ]
            groups: dict[int, list[int]] = {}
            for p, (_, _, shots) in enumerate(per_pub):
                groups.setdefault(shots, []).append(p)

            def handles(members: list[int]) -> Sequence[Any]:
                parts = [per_pub[p][1] for p in members]
                if all(isinstance(h, (ScheduleFamily, FamilyBatch)) for h in parts):
                    if len(parts) == 1 and self._mode == _DIRECT:
                        return parts[0]
                    return FamilyBatch(
                        f for h in parts for f in getattr(h, "families", (h,))
                    )
                if len(members) == 1:
                    return parts[0]
                return [h for part in parts for h in part]

            if self._mode == _DIRECT:
                batches = [
                    self._executor.execute_batch(
                        handles(members), shots=shots, seed=self._seed
                    )
                    for shots, members in groups.items()
                ]
            else:
                from repro.serving.sweeps import SweepRequest

                service = self._target.service
                tickets = []
                for shots, members in groups.items():
                    group = handles(members)
                    # A family batch is one program: one request.
                    programs = [group] if isinstance(group, FamilyBatch) else group
                    tickets.append(
                        service.submit_sweep(
                            SweepRequest.from_programs(
                                programs,
                                self._target.device_name,
                                shots=shots,
                                seed=self._seed,
                            )
                        )
                    )
                batches = [t.results(timeout) for t in tickets]
            out: list[Sequence[Any]] = [[] for _ in per_pub]
            for members, results in zip(groups.values(), batches):
                start = 0
                for p in members:
                    stop = start + len(per_pub[p][1])
                    out[p] = results if len(members) == 1 else results[start:stop]
                    start = stop
            return out

    # ---- result-shape helpers --------------------------------------------------------

    @staticmethod
    def _batch_profile(results: Sequence[Any]) -> dict | None:
        """The shared ``metadata["profile"]`` of a result batch, if any.

        Present on direct-dispatch results when profiling is enabled
        (:func:`repro.obs.enable_profiling`). A whole
        :class:`~repro.sim.executor.BatchResult` carries it on the
        batch, so reading it builds no result view; in a slice every
        result carries the same summary object, so the first one wins.
        """
        meta = getattr(results, "metadata", None)
        if meta is None and len(results):
            meta = getattr(results[0], "metadata", None)
        if isinstance(meta, dict):
            return meta.get("profile")
        return None

    @staticmethod
    def _object_array(shape: tuple[int, ...], values: list[Any]) -> np.ndarray:
        """Object ndarray of *shape* filled from flat *values*."""
        out = np.empty(shape, dtype=object)
        flat = out.reshape(-1) if shape else out
        if shape:
            for i, v in enumerate(values):
                flat[i] = v
        else:
            out[()] = values[0]
        return out
