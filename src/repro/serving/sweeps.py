"""Served parameter sweeps: one request, a batch of schedules.

Parameter scans — calibration sweeps, robustness plateaus, ctrl-VQE
energy landscapes — are the workload shape the batched propagator
engine (:mod:`repro.sim.evolve`) was built for: many structurally
identical schedules differing only in a few amplitudes. A
:class:`SweepRequest` carries a *builder* (parameter set -> program)
plus the list of parameter sets; :meth:`PulseService.submit_sweep
<repro.serving.service.PulseService.submit_sweep>` expands it into one
:class:`~repro.client.client.JobRequest` (and one ticket) per point,
queues the points as a single entry, and returns a single
:class:`SweepTicket` aggregating the per-point tickets.

The primitives never expand a sweep: every shot group of PUBs is a
sweep over one program, so one request — one admission slot, one
check of the bound families against the device's constraints (a
bound batch is not compiled), one QDMI job (one QIR job per member on
a remote device), one ``execute_batch`` and one measurement pass. The
program is the :class:`~repro.core.schedule.FamilyBatch` the caller
bound, or on a detached cluster or HTTP target a
:class:`~repro.api.executable.ProgramBatch` (programs with their
``(K, P)`` value matrices) the serving side binds.
:meth:`SweepTicket.results` hands back the
:class:`~repro.sim.executor.BatchResult`, whose per-family arrays the
Estimator and Sampler read without a per-point result.

Why this is fast end to end:

* a closed loop pays no thread handoff: a caller blocked in
  :meth:`SweepTicket.results` (no timeout) on a sweep whose entry
  heads an idle device queue runs the entry on its own thread through
  the same ``PulseService._execute_group`` a worker would (see
  :mod:`repro.serving.service`), instead of waking a worker and
  sleeping until the worker wakes it back,
* the whole sweep is one queue entry and one batched device execution:
  every point compiles through the shared compile cache, then all of
  them evolve in one :meth:`ScheduleExecutor.execute_batch
  <repro.sim.executor.ScheduleExecutor.execute_batch>` pass instead of
  one queue entry, QDMI job submission and evolution per point, and
* the executor's :class:`~repro.sim.evolve.PropagatorCache` is shared
  across the whole sweep, so points re-visiting the same segment
  amplitudes (flat-tops, symmetric scans) skip decompositions.

Identical points inside one sweep do not coalesce into a shot-split
execution: each samples its own seeded stream, exactly as a direct
``execute_batch`` does, so a served sweep returns the same counts as
the direct run. Coalescing applies to separately submitted identical
requests only (:mod:`repro.serving.batching`).

Noise-parameter sweeps — the open-system engine's workload — scan
T1/T2 instead of (or on top of) pulse amplitudes: the *decoherence*
hook maps each parameter set to a per-site
:class:`~repro.sim.model.DecoherenceSpec` override that rides in the
expanded request's metadata, and the simulated device executes that
point against a model with exactly those coherence times (same drift,
same calibrations, same shared unitary-propagator cache).
:meth:`SweepRequest.noise_grid` builds the common case: one fixed
program evaluated over a T1 x T2 grid.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from repro.client.client import JobRequest
from repro.errors import ServiceError
from repro.sim.model import DecoherenceSpec


@dataclass
class SweepRequest:
    """One submission describing a whole parameter scan.

    Parameters
    ----------
    build:
        Callable mapping one parameter set to a program any registered
        adapter accepts (a :class:`PulseSchedule`, a Pythonic circuit,
        a QPI ``QCircuit``...). Called once per entry of *parameters*
        at submission time.
    parameters:
        The scan points, in order. Results come back aligned.
    device, shots, adapter, priority, seed:
        Forwarded to every expanded :class:`JobRequest`.
    decoherence:
        Optional callable mapping one parameter set to a per-site
        sequence of :class:`~repro.sim.model.DecoherenceSpec` (or
        ``(t1, t2)`` pairs). When given, each expanded request carries
        the override in ``metadata["decoherence"]`` and the simulated
        device executes that point with exactly those coherence times
        — the serving route into the open-system engine.
    """

    build: Callable[[Any], Any]
    parameters: Sequence[Any]
    device: str
    shots: int = 1024
    adapter: str | None = None
    priority: int = 0
    seed: int | None = None
    metadata: dict = field(default_factory=dict)
    decoherence: Callable[[Any], Sequence] | None = None

    @classmethod
    def from_programs(
        cls, programs: Sequence[Any], device: str, **kwargs: Any
    ) -> "SweepRequest":
        """A sweep over pre-built programs (builder is the identity)."""
        return cls(
            build=lambda program: program,
            parameters=list(programs),
            device=device,
            **kwargs,
        )

    @classmethod
    def noise_grid(
        cls,
        program: Any,
        device: str,
        *,
        t1_values: Sequence[float],
        t2_values: Sequence[float],
        n_sites: int,
        skip_unphysical: bool = True,
        **kwargs: Any,
    ) -> "SweepRequest":
        """A T1 x T2 grid sweep of one fixed *program*.

        Every site gets the point's ``DecoherenceSpec(t1, t2)``.
        Combinations with ``t2 > 2*t1`` are unphysical; they are
        dropped by default (*skip_unphysical*) so rectangular grids
        stay convenient — pass ``False`` to get the
        :class:`~repro.errors.ValidationError` instead.
        """
        points = [
            (float(t1), float(t2))
            for t1 in t1_values
            for t2 in t2_values
            if not (skip_unphysical and t2 > 2.0 * t1)
        ]
        if not points:
            raise ServiceError(
                "noise grid is empty (every T1/T2 combination was "
                "unphysical: T2 <= 2*T1 required)"
            )
        return cls(
            build=lambda point: program,
            parameters=points,
            device=device,
            decoherence=lambda point: tuple(
                DecoherenceSpec(t1=point[0], t2=point[1])
                for _ in range(n_sites)
            ),
            **kwargs,
        )

    def expand(self) -> list[JobRequest]:
        """One :class:`JobRequest` per scan point, in scan order."""
        if not self.parameters:
            raise ServiceError("sweep has no parameter sets")
        requests = []
        for i, p in enumerate(self.parameters):
            metadata = {**self.metadata, "sweep_index": i}
            if self.decoherence is not None:
                metadata["decoherence"] = tuple(self.decoherence(p))
            requests.append(
                JobRequest(
                    program=self.build(p),
                    device=self.device,
                    shots=self.shots,
                    adapter=self.adapter,
                    priority=self.priority,
                    seed=self.seed,
                    metadata=metadata,
                )
            )
        return requests


class SweepTicket:
    """Aggregated handle over the per-point tickets of one sweep.

    Implements the unified :class:`repro.serving.tickets.Ticket`
    protocol — ``status()`` aggregates the per-point states,
    ``cancel()`` fans out to every unresolved point, ``result()`` is
    an alias of :meth:`results` — so sweep handles interoperate with
    everything written against the protocol.
    """

    def __init__(
        self,
        request: SweepRequest,
        tickets: list,
    ) -> None:
        from repro.serving.tickets import new_ticket_id

        self.id = new_ticket_id()
        self.request = request
        self.tickets = tickets

    def __len__(self) -> int:
        return len(self.tickets)

    def done(self) -> bool:
        return all(t.done() for t in self.tickets)

    def status(self):
        """Aggregate lifecycle state across the scan points.

        FAILED if any point failed, else CANCELLED if any point was
        cancelled, else DONE when all points are done; otherwise the
        most advanced in-flight state (RUNNING > DISPATCHED > PENDING).
        """
        from repro.serving.tickets import TicketState

        states = [t.status() for t in self.tickets]
        if any(s is TicketState.FAILED for s in states):
            return TicketState.FAILED
        if any(s is TicketState.CANCELLED for s in states):
            return TicketState.CANCELLED
        if all(s is TicketState.DONE for s in states):
            return TicketState.DONE
        for live in (TicketState.RUNNING, TicketState.DISPATCHED):
            if any(s is live for s in states):
                return live
        return TicketState.PENDING

    def cancel(self) -> bool:
        """Cancel every unresolved point; False when all are terminal."""
        accepted = [t.cancel() for t in self.tickets]
        return any(accepted)

    def result(self, timeout: float | None = None) -> Sequence[Any]:
        """Protocol alias of :meth:`results` (scan-ordered)."""
        return self.results(timeout)

    def to_dict(self) -> dict:
        """A JSON-safe snapshot: per-point ticket snapshots, in order."""
        return {
            "kind": "sweep",
            "id": self.id,
            "state": self.status().value,
            "tickets": [t.to_dict() for t in self.tickets],
        }

    @staticmethod
    def _deadline(timeout: float | None):
        """Per-ticket remaining-time callable sharing one deadline."""
        if timeout is None:
            return lambda: None
        deadline = time.perf_counter() + timeout
        return lambda: max(0.0, deadline - time.perf_counter())

    def wait(self, timeout: float | None = None) -> bool:
        """Block until every point resolved (or *timeout* elapses)."""
        remaining = self._deadline(timeout)
        return all(t.wait(remaining()) for t in self.tickets)

    def results(self, timeout: float | None = None) -> Sequence[Any]:
        """Per-point results in scan order; re-raises the first failure.

        A sweep of one family batch returns its one job's
        :class:`~repro.sim.executor.BatchResult`: the members' results
        in order, with their arrays per family. *timeout* bounds the
        whole call, not each point; without one, the calling thread
        may run the sweep itself (:meth:`JobTicket.result
        <repro.serving.service.JobTicket.result>`).
        """
        remaining = self._deadline(timeout)
        results = [t.result(remaining()) for t in self.tickets]
        if len(results) == 1 and results[0].batch is not None:
            return results[0].batch
        return results

    def expectations(
        self, observable, timeout: float | None = None
    ) -> np.ndarray:
        """Expectation of a diagonal observable across the scan.

        *observable* is anything
        :meth:`~repro.primitives.observables.Observable.coerce`
        accepts (an Observable, a Pauli label like ``"ZI"``, or a
        ``{label: coeff}`` mapping); evaluation runs through the one
        expectation engine the primitives use, against each point's
        exact outcome distribution.
        """
        from repro.primitives.observables import Observable

        obs = Observable.coerce(observable)
        if not obs.is_hermitian:
            raise ServiceError(
                f"sweep expectations need a Hermitian observable (real "
                f"coefficients); got {obs!r}"
            )
        # Every served result reports the pre-readout distribution
        # (a batched sweep's members as ``ideal_probabilities``).
        return np.array(
            [
                obs.expectation(getattr(r, "ideal_probabilities", r.probabilities))
                for r in self.results(timeout)
            ],
            dtype=np.float64,
        )
