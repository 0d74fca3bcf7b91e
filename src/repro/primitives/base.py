"""Shared machinery of the Sampler/Estimator primitives.

A primitive is constructed from any :class:`~repro.api.target.Target`
(or a bare device, or — for in-process callers like the variational
algorithms — directly from a :class:`~repro.sim.executor.ScheduleExecutor`)
and runs every PUB on one of two paths, chosen once at construction
from what the target holds:

* **family path** — the primitive holds an executor (a direct target
  over a local simulated device, or a raw executor) or an in-process
  :class:`~repro.serving.service.PulseService` over a local device.
  Every PUB becomes schedule families
  (:class:`~repro.core.schedule.ScheduleFamily`): a parametric PUB
  binds as one through :meth:`Executable.bind_many
  <repro.api.executable.Executable.bind_many>` (the compiled schedule
  template plus the PUB's ``(K, P)`` value matrix, which the executor
  writes straight into its frame timelines, pulse amplitudes and idle
  runs); a program without parameters is one slot-free family of K
  rows; a PUB the template cannot take binds point by point through
  :meth:`Executable.bind <repro.api.executable.Executable.bind>`, each
  point a one-member family, so every bind error surfaces where the
  per-point bind raises it. The PUBs sharing a shot count run as one
  :class:`~repro.core.schedule.FamilyBatch`: one
  :meth:`ScheduleExecutor.execute_batch
  <repro.sim.executor.ScheduleExecutor.execute_batch>` call, or one
  served sweep request (one compile, one QDMI job, one execution) whose
  ticket hands back the executor's
  :class:`~repro.sim.executor.BatchResult`. The primitives read its
  per-family ``(K, 2**m)`` arrays; no per-point result is built.
* **per-point path** — every other target: a client target (local or
  remote device), a service over a remote device, a
  :class:`~repro.serving.cluster.ClusterService` or an HTTP front-end.
  Each PUB runs through :meth:`Executable.sweep
  <repro.api.executable.Executable.sweep>`, one bound point per
  request, and is assembled from the
  :class:`~repro.client.client.ClientResult` dicts. A detached target
  (cluster/HTTP) ships the raw program with each point's scalar
  bindings and compiles on the service side.

Seeded results of the two paths agree: every point samples its own
stream seeded with the primitive's seed.
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
from repro.sim.executor import BatchResult, outcome_dict

#: Dispatch modes, as reported in result metadata: an executor,
#: a service, or a client's per-point runs.
_DIRECT, _SERVICE, _CLIENT = "direct", "service", "client"


class BasePrimitive:
    """Target resolution + batched PUB execution shared by primitives."""

    #: Compiled executables kept warm per primitive (identity-keyed by
    #: Program; optimizer loops re-submitting one Program skip the
    #: re-prepare + template re-trace entirely).
    _MAX_EXECUTABLE_MEMO = 128

    def __init__(
        self,
        target: Any = None,
        *,
        executor: Any = None,
        seed: int | None = None,
    ) -> None:
        self._seed = seed
        self._executor = None
        #: The in-process service a family batch is submitted to.
        self._service = None
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
            if not (resolved.is_detached or resolved.is_remote):
                self._service = resolved.service
            return
        if resolved.direct and not resolved.is_remote:
            self._executor = getattr(resolved.device, "executor", None)
        self._mode = _CLIENT if self._executor is None else _DIRECT

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

    @property
    def _runs_families(self) -> bool:
        """Whether PUBs take the family path (documented above)."""
        return self._executor is not None or self._service is not None

    def _device_name(self) -> str:
        if self._target is not None:
            return self._target.device_name
        model = self._executor.model
        return f"executor[{'x'.join(str(d) for d in model.dims)}]"

    def _dims(self) -> tuple[int, ...]:
        """Per-site dimensions of the simulated system (direct only)."""
        return tuple(self._executor.model.dims)

    # ---- PUB execution ---------------------------------------------------------------

    def _run_pubs(
        self,
        specs: Sequence[tuple[Any, int]],
        *,
        timeout: float | None = None,
    ) -> list[Any]:
        """Run every ``(pub, shots)`` of *specs*; one result per PUB.

        On the family path a PUB's result is a
        :class:`~repro.sim.executor.BatchResult` over its families; on
        the per-point path a list of
        :class:`~repro.client.client.ClientResult`, one per binding
        point.
        """
        if self._runs_families:
            return self._execute_all(
                [(pub, self._families(pub), shots) for pub, shots in specs],
                timeout=timeout,
            )
        with span("dispatch", mode=self._mode, pubs=len(specs)):
            return [
                self._executable(pub.program).sweep(
                    [pub.bindings.point(i) for i in range(pub.bindings.size)],
                    shots=shots,
                    seed=self._seed,
                    timeout=timeout,
                )
                for pub, shots in specs
            ]

    def _executable(self, program: Any) -> Executable:
        """The memoized executable of *program* on the target (a
        parametric one with its schedule template compiled)."""
        executable = self._executables.get(program)
        if executable is not None:
            self.stats["hits"] += 1
            self._executables.move_to_end(program)
            return executable
        self.stats["misses"] += 1
        with span("compile", program=program.name):
            executable = Executable.prepare(program, self._target)
            if program.is_parametric:
                executable.compile()  # the schedule template
        self._executables[program] = executable
        while len(self._executables) > self._MAX_EXECUTABLE_MEMO:
            self._executables.popitem(last=False)
            self.stats["evictions"] += 1
        return executable

    def _families(self, pub) -> list[ScheduleFamily]:
        """The binding points of *pub* as schedule families, in point
        order (family path only).

        A parametric PUB is its one bound family; a program without
        parameters, and an executor-backed primitive's schedule, one
        slot-free family of K rows; a PUB the template cannot take is
        one one-member family per point, each bound through the
        per-point compile (which raises a bad point's typed error).
        """
        bindings = pub.bindings
        n_points = bindings.size
        if self._target is None:
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
            return [ScheduleFamily.repeated(pub.program.source, n_points)]
        executable = self._executable(pub.program)
        if not pub.program.is_parametric:
            schedule = executable._ensure_compiled().schedule
            return [ScheduleFamily.repeated(schedule, n_points)]
        with span("specialize", points=n_points):
            family = executable.bind_many(bindings.values())
            if family is not None:
                return [family]
            points = (executable.bind(bindings.point(i)) for i in range(n_points))
            return [ScheduleFamily.repeated(p.schedule, 1) for p in points]

    def _execute_all(
        self,
        per_pub: Sequence[tuple[Any, Sequence[ScheduleFamily], int]],
        *,
        timeout: float | None = None,
    ) -> list[BatchResult]:
        """Run every PUB's families; one :class:`BatchResult` per PUB.

        *per_pub* entries are ``(pub, families, shots)``. The families
        of every PUB sharing a shot count run as one
        :class:`~repro.core.schedule.FamilyBatch`: one
        :meth:`execute_batch` call on an executor, or one sweep request
        on the service — one queue entry, one batched device execution
        — with every request admitted before any ticket is collected.
        Each PUB gets the rows of its own families back.
        """
        groups: dict[int, list[int]] = {}
        for p, (_, _, shots) in enumerate(per_pub):
            groups.setdefault(shots, []).append(p)
        batches = {
            shots: FamilyBatch(f for p in members for f in per_pub[p][1])
            for shots, members in groups.items()
        }
        with span("dispatch", mode=self._mode, pubs=len(per_pub)):
            if self._executor is not None:
                # A lone family is itself a batch for the executor.
                results = [
                    self._executor.execute_batch(
                        batch.families[0] if len(batch.families) == 1 else batch,
                        shots=shots,
                        seed=self._seed,
                    )
                    for shots, batch in batches.items()
                ]
            else:
                from repro.serving.sweeps import SweepRequest

                tickets = [
                    self._service.submit_sweep(
                        SweepRequest.from_programs(
                            [batch],
                            self._target.device_name,
                            shots=shots,
                            seed=self._seed,
                        )
                    )
                    for shots, batch in batches.items()
                ]
                results = [t.results(timeout) for t in tickets]
            out: list[Any] = [None] * len(per_pub)
            for members, result in zip(groups.values(), results):
                start = 0
                for p in members:
                    stop = start + sum(len(f) for f in per_pub[p][1])
                    out[p] = result if len(members) == 1 else result[start:stop]
                    start = stop
            return out

    # ---- result-shape helpers --------------------------------------------------------

    @staticmethod
    def _batch_profile(results: Sequence[Any]) -> dict | None:
        """The ``metadata["profile"]`` of a family-path result, if any.

        Present when profiling is enabled
        (:func:`repro.obs.enable_profiling`); a
        :class:`~repro.sim.executor.BatchResult` (and each slice of
        one) carries it on the batch, so reading it builds no result
        view. Per-point results carry none.
        """
        return getattr(results, "metadata", {}).get("profile")

    @staticmethod
    def _member_dicts(families) -> tuple[list[dict], list[dict], list[dict]]:
        """``(counts, ideal, noisy)`` per member of *families*, in order:
        the sampled counts and the pre- and post-readout distributions
        (non-zero outcomes only) read from each family's arrays."""
        counts: list[dict] = []
        ideal: list[dict] = []
        noisy: list[dict] = []
        for family in families:
            m = len(family.measured_sites)
            counts += (
                [dict(c) for c in family.counts]
                if family.counts is not None
                else [{} for _ in range(len(family))]
            )
            ideal += [outcome_dict(row, m) for row in family.ideal_probabilities]
            noisy += [outcome_dict(row, m) for row in family.probabilities]
        return counts, ideal, noisy

    @staticmethod
    def _leakage(families) -> np.ndarray:
        """``(K,)`` total leakage population per member of *families*."""
        return np.concatenate([np.zeros(0)] + [f.leakage.sum(axis=0) for f in families])

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
