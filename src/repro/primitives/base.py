"""Shared machinery of the Sampler/Estimator primitives.

A primitive is constructed from any :class:`~repro.api.target.Target`
(or a bare device, or — for in-process callers like the variational
algorithms — directly from a :class:`~repro.sim.executor.ScheduleExecutor`)
and runs every PUB on one path, whatever the target: the PUBs sharing
a shot count are one shot group, and a shot group is one
:class:`~repro.core.schedule.FamilyBatch` run as one unit of work.

A PUB binds where the device is, through one function,
:meth:`Executable.families
<repro.api.executable.Executable.families>`: a parametric PUB is one
family (the schedule template plus the PUB's ``(K, P)`` value
matrix), a program without parameters one slot-free family of K rows,
and a PUB the template cannot take one one-member family per point,
bound where the per-point bind raises its typed error.

* An executor (a direct target over a local simulated device, or a
  raw executor) runs the batch as one
  :meth:`ScheduleExecutor.execute_batch
  <repro.sim.executor.ScheduleExecutor.execute_batch>` call.
* A client target (local or remote device) or an in-process
  :class:`~repro.serving.service.PulseService` binds here and sends
  the batch as one request: no compile (the families are checked
  against the device's constraints), one QDMI job (one QIR job per
  member on a remote device), one execution.
* A detached target (:class:`~repro.serving.cluster.ClusterService`
  or an HTTP front-end) sends each program with its value matrix
  (:class:`~repro.api.executable.ProgramBatch`) as one request, and
  the serving side binds it and runs it the same way.

Every path hands back a :class:`~repro.sim.executor.BatchResult`
whose per-family ``(K, 2**m)`` arrays the primitives read; no
per-point result is built. Seeded results agree across targets: every
point samples its own stream seeded with the primitive's seed.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.api.executable import ProgramBatch
from repro.api.target import Target
from repro.client.client import JobRequest
from repro.core.schedule import FamilyBatch, ScheduleFamily
from repro.errors import ValidationError
from repro.obs.tracing import span
from repro.sim.executor import BatchResult, outcome_dict

#: Dispatch modes, as reported in result metadata: an executor, a
#: service, or a client.
_DIRECT, _SERVICE, _CLIENT = "direct", "service", "client"


class BasePrimitive:
    """Target resolution + batched PUB execution shared by primitives."""

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
        families: Sequence[Sequence[ScheduleFamily]] | None = None,
    ) -> list[BatchResult]:
        """Run every ``(pub, shots)`` of *specs*, one shot group per shot
        count, all admitted before any result is collected; one
        :class:`~repro.sim.executor.BatchResult` per PUB. *families*
        holds each PUB's families when the caller bound them (the
        mitigation engine's variants).
        """
        detached = self._target is not None and self._target.is_detached
        if families is None and not detached:
            families = [self._families(pub) for pub, _ in specs]
        # Each PUB's part of its group's batch: its families, or on a
        # detached target its program and value matrix.
        batch: Any = FamilyBatch if families is not None else ProgramBatch
        parts = families
        if parts is None:
            parts = [[(pub.program, _matrix(pub.bindings))] for pub, _ in specs]
        groups: dict[int, list[int]] = {}
        for p, (_, shots) in enumerate(specs):
            groups.setdefault(shots, []).append(p)
        with span("dispatch", mode=self._mode, pubs=len(specs)):
            pending = [
                self._dispatch(batch(x for p in members for x in parts[p]), shots)
                for shots, members in groups.items()
            ]
            out: list[Any] = [None] * len(specs)
            for members, collect in zip(groups.values(), pending):
                result = collect(timeout)
                start = 0
                for p in members:
                    stop = start + len(batch(parts[p]))
                    out[p] = result if len(members) == 1 else result[start:stop]
                    start = stop
            return out

    def _dispatch(self, program: FamilyBatch | ProgramBatch, shots: int):
        """Start one shot group's batch; returns ``collect(timeout)``,
        which gives its :class:`~repro.sim.executor.BatchResult`."""
        if self._executor is not None:
            # A lone family is itself a batch for the executor.
            result = self._executor.execute_batch(
                program.families[0] if len(program.families) == 1 else program,
                shots=shots,
                seed=self._seed,
            )
            return lambda timeout: result
        target = self._target
        if target.service is None:
            client = target.client
            request = JobRequest(
                program, target.device_name, shots=shots, seed=self._seed
            )
            result = client.execute_compiled(request, client.compile_request(request))
            return lambda timeout: result.batch
        from repro.serving.sweeps import SweepRequest

        return target.service.submit_sweep(
            SweepRequest.from_programs(
                [program], target.device_name, shots=shots, seed=self._seed
            )
        ).results

    def _families(self, pub) -> list[ScheduleFamily]:
        """*pub*'s points as schedule families (:meth:`Executable.families
        <repro.api.executable.Executable.families>`); an executor-backed
        primitive's schedule is one slot-free family of K rows."""
        bindings = pub.bindings
        if self._target is not None:
            return self._target.executable(pub.program).families(_matrix(bindings))
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
        return [ScheduleFamily.repeated(pub.program.source, bindings.size)]

    # ---- result-shape helpers --------------------------------------------------------

    @staticmethod
    def _batch_profile(results: BatchResult) -> dict:
        """``{"profile": summary}`` when profiling is enabled
        (:func:`repro.obs.enable_profiling`) on an in-process executor,
        read off the batch without building a result view; else ``{}``."""
        return {k: v for k, v in results.metadata.items() if k == "profile"}

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


def _matrix(bindings) -> np.ndarray:
    """A PUB's points as the ``(K, P)`` value matrix, one row per point
    in flat order and one column per parameter."""
    return bindings.values().reshape(bindings.size, bindings.num_parameters)
