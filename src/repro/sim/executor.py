"""Schedule execution: pulse schedules -> quantum dynamics -> shots.

The :class:`ScheduleExecutor` is what a simulated QDMI device calls when
a pulse job reaches it. It interprets a
:class:`~repro.core.schedule.PulseSchedule` against a
:class:`~repro.sim.model.SystemModel`. Every schedule runs through one
batched pipeline — a single schedule is a one-member batch:

1. Families — the unit of work is a
   :class:`~repro.core.schedule.ScheduleFamily`: a template schedule
   plus a ``(K, P)`` value matrix whose columns feed the template's
   frame-event fields (frequencies, phases, shift deltas). A bound
   parameter sweep arrives as one family
   (:meth:`Executable.bind_many
   <repro.api.executable.Executable.bind_many>`), the mitigated
   variants of a PUB as a :class:`~repro.core.schedule.FamilyBatch` of
   families; a schedule list is grouped once into maximal runs of
   consecutive structural clones, each run's differing fields gathered
   into columns, and a schedule that clones nothing is a family of
   one.
2. Run planning (:mod:`repro.sim.runs`) — per family, frame
   timelines (carrier frequency and static phase, with
   phase-continuous frequency updates) are ``(K, n_breakpoints)``
   piecewise-constant arrays, one breakpoint per
   frame event: each event writes its value column (or the
   template's scalar) for all members at once. The drive can change
   only at a candidate start — a play's ends, a change of its shape,
   a timeline breakpoint inside it, every sample of a detuned play —
   so every :class:`Play`'s modulated envelope is evaluated at the
   candidates only, as ``(K, n_candidates, n_channels)`` drive rows;
   no per-sample drive stack is built. Everything that reads no value
   (timeline events, candidates, shape samples, fixed timelines and
   drive terms) is a plan built once per template base and memoised
   (:attr:`ScheduleExecutor.drive_plans`); a call binds its value
   matrix against it.
3. Runs — equal neighbouring candidate rows merge
   (:func:`~repro.sim.evolve.segment_runs`) into runs of constant
   drive at the union of the members' boundaries; every sample
   between two candidates equals the one before it, so these are the
   runs of the per-sample stack (splitting a constant run is exact).
4. Evolution — one kernel for the whole batch. Closed systems make one
   :meth:`~repro.sim.evolve.PropagatorCache.propagators` call for every
   driven run of every family (repeated amplitudes — flat-tops,
   parameter sweeps — skip the exponential), and drift-only runs reuse
   the model's precomputed eigendecomposition. With finite T1/T2 the
   state is a density matrix and the runs' exact Lindblad
   superpropagators come from the batched open-system engine
   (:class:`~repro.sim.open_system.OpenSystemEngine`), flushed in
   bounded chunks; for large Hilbert spaces the engine's quantum-jump
   trajectories evolve each schedule with its own RNG instead. The
   kernel hands back a table of distinct propagators and one row per
   slice; every family's state stack then advances by one stacked
   product per run position, applying the one shared row when all
   members use it. A constant play on a detuned frame, whose every
   sample is a run, merges into one chirped run: one cached
   one-sample propagator raised to its length by repeated squaring
   (:meth:`ScheduleExecutor._chirps`). Drive phases are canonicalized
   before the kernel: on every channel whose phase is a symmetry of
   the model (a lowering-operator drive; see
   :meth:`ScheduleExecutor._phase_generators`) a run's amplitude ``a``
   becomes ``|a|``, and the phase comes back as a diagonal rotation of
   the state around that run's product, ``e^{i phi} * (P(|a|) @
   (e^{-i phi} * state))``. Runs that differ only in frame phase
   (phase sweeps, detuned plays) thus share one propagator.
5. Measurement — :class:`Capture` instructions define the measured
   sites and classical slots. Each family's tail is one array pass
   (:class:`FamilyOutcome`): ``(K, 2**m)`` exact probabilities before
   and after readout confusion (the kron'd joint confusion matrix
   applied to every member at once), ``(n_sites, K)`` leakage, and
   seeded shot counts, with a member's RNG built only when it draws
   shots or samples trajectories. :meth:`ScheduleExecutor.execute_batch`
   returns a :class:`BatchResult` whose per-schedule
   :class:`ExecutionResult` views are built on first access, so a
   consumer of the arrays builds none.
"""

from __future__ import annotations

import dataclasses
import itertools
from bisect import bisect_right
from collections.abc import Sequence as _Sequence
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.core.instructions import Capture
from repro.core.schedule import (
    FRAME_EVENT_FIELDS,
    FamilyBatch,
    PulseSchedule,
    ScheduleFamily,
)
from repro.errors import CancelledError, ExecutionError, ValidationError
from repro.obs import profile as _profile
from repro.obs.tracing import span
from repro.sim.evolve import PropagatorCache, free_propagators
from repro.sim.measurement import ReadoutModel, joint_confusion, sample_counts
from repro.sim.model import SystemModel
from repro.sim.open_system import (
    OpenSystemEngine,
    collapse_operators,
    vectorize_density,
)
from repro.sim.operators import basis_state, identity
from repro.sim.runs import DrivePlans, drive_runs, insert_idle
from repro.sim.precision import active_dtype

_TWO_PI = 2.0 * np.pi


def _eigen_commutator(
    w: np.ndarray, op: np.ndarray, eigenvalue: float | None = None
) -> bool:
    """Whether ``[diag(w), op] = lambda * op``, relative to the norms.

    *eigenvalue* pins ``lambda``; ``None`` accepts any scalar (fitted
    by least squares).
    """
    comm = (w[:, None] - w[None, :]) * op
    scale = float(np.linalg.norm(op))
    if scale == 0.0:
        return True
    if eigenvalue is None:
        eigenvalue = np.vdot(op, comm) / scale**2
    residual = float(np.linalg.norm(comm - eigenvalue * op))
    return residual <= _COVARIANCE_RTOL * (1.0 + float(np.abs(w).max())) * scale


def _distinct(columns: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """``(first, inverse)`` of the rows of the ``(n, w)`` *columns*,
    read side by side.

    *first* holds the first row of every distinct row, in order of
    first appearance, and *inverse* each row's place in it. Equal
    neighbours (the members' copies of a shared run) collapse in one
    comparison pass first; the rest dedup by their bytes.
    """
    changed = np.any(columns[0][1:] != columns[0][:-1], axis=1)
    for column in columns[1:]:
        changed |= np.any(column[1:] != column[:-1], axis=1)
    head = np.ones(len(columns[0]), dtype=bool)
    head[1:] = changed
    reps = np.flatnonzero(head)
    key = np.concatenate([column[reps] for column in columns], axis=1)
    raw = key.tobytes()
    width = key.shape[1] * key.itemsize
    seen: dict[bytes, int] = {}
    first: list[int] = []
    label: list[int] = []
    for i in range(len(reps)):
        g = seen.setdefault(raw[i * width : (i + 1) * width], len(seen))
        if g == len(first):
            first.append(i)
        label.append(g)
    return reps[first], np.array(label, dtype=np.intp)[np.cumsum(head) - 1]


def _matrix_powers(a: np.ndarray, exponents: np.ndarray) -> np.ndarray:
    """``a_k ** e_k`` for an ``(n, m, m)`` stack: one repeated squaring
    of the stack per distinct exponent."""
    distinct = set(exponents.tolist())
    if len(distinct) == 1:
        return np.linalg.matrix_power(a, distinct.pop())
    out = np.empty_like(a)
    for e in distinct:
        at = exponents == e
        out[at] = np.linalg.matrix_power(a[at], e)
    return out


def _check_cancel(should_cancel) -> None:
    """Raise at a chunk boundary when cooperative cancel is requested.

    ``should_cancel`` is the zero-arg callable the serving layer plumbs
    down (ticket cancel flags); None means cancellation is disabled.
    """
    if should_cancel is not None and should_cancel():
        raise CancelledError(
            "execution cancelled cooperatively at a chunk boundary"
        )

#: Relative tolerance of the phase-covariance checks: the operators
#: involved are exact ladder/number/projector matrices, so a genuine
#: symmetry holds to rounding.
_COVARIANCE_RTOL = 1e-10


@dataclass
class ExecutionResult:
    """Outcome of executing one pulse schedule.

    Attributes
    ----------
    counts:
        Sampled shot counts keyed by bitstring (slot 0 leftmost).
    probabilities:
        Exact outcome distribution *after* readout error.
    ideal_probabilities:
        Exact outcome distribution *before* readout error.
    final_state:
        Final ket (no decoherence) or density matrix.
    measured_sites:
        Site index per classical slot, ascending slot order.
    leakage:
        Per-site population of levels >= 2 at the end.
    duration_samples / duration_seconds:
        Schedule length.
    shots:
        Number of samples drawn.
    """

    counts: dict[str, int]
    probabilities: dict[str, float]
    ideal_probabilities: dict[str, float]
    final_state: np.ndarray
    measured_sites: tuple[int, ...]
    leakage: dict[int, float]
    duration_samples: int
    duration_seconds: float
    shots: int
    metadata: dict = field(default_factory=dict)


def _stream(streams: list, i: int) -> np.random.Generator:
    """Member *i*'s RNG: built from its seed on first use, then kept.

    *streams* holds one seed (or a caller's generator) per member, so a
    member that draws no shots and samples no trajectory never builds
    one.
    """
    rng = streams[i]
    if not isinstance(rng, np.random.Generator):
        rng = streams[i] = np.random.default_rng(rng)
    return rng


def outcome_dict(row: np.ndarray, m: int) -> dict[str, float]:
    """The non-zero outcomes of one ``(2**m,)`` distribution row."""
    return {
        format(i, f"0{m}b"): p for i, p in enumerate(row.tolist()) if p > 0.0
    }


@dataclass(eq=False)
class FamilyOutcome:
    """The measurement tail of one schedule family, as arrays.

    Row ``k`` is member ``k``. Outcome columns are the bitstrings over
    the measured slots in binary order (slot 0 is the leftmost,
    most significant bit); a family that measures nothing has zero
    columns.
    """

    measured_sites: tuple[int, ...]
    #: ``(K, 2**m)`` exact outcome distributions before readout error.
    ideal_probabilities: np.ndarray
    #: ``(K, 2**m)`` exact outcome distributions after readout error.
    probabilities: np.ndarray
    #: ``(K, ...)`` final kets or density matrices; ``None`` on a
    #: result that crossed a process or the wire (the arrays only).
    final_states: np.ndarray | None
    #: ``(n_sites, K)`` population of levels >= 2.
    leakage: np.ndarray
    #: Sampled counts per member; ``None`` when no shot was drawn.
    counts: list[dict[str, int]] | None
    #: ``(K,)`` schedule lengths in samples (members of a family with a
    #: delay slot differ).
    durations: np.ndarray
    #: Sample period (s).
    dt: float
    shots: int

    def __len__(self) -> int:
        return len(self.durations)

    @classmethod
    def stack(cls, results: Sequence[ExecutionResult], dt: float) -> "FamilyOutcome":
        """The arrays of a family whose members ran one by one, as
        *results* (a remote device's per-member jobs)."""
        first = results[0]
        m = len(first.measured_sites)

        def table(field: str) -> np.ndarray:
            out = np.zeros((len(results), 1 << m if m else 0))
            for k, result in enumerate(results):
                for bits, p in getattr(result, field).items():
                    out[k, int(bits, 2)] = p
            return out

        return cls(
            measured_sites=first.measured_sites,
            ideal_probabilities=table("ideal_probabilities"),
            probabilities=table("probabilities"),
            final_states=np.stack([r.final_state for r in results]),
            leakage=np.array([list(r.leakage.values()) for r in results]).T,
            counts=[r.counts for r in results] if m and first.shots else None,
            durations=np.array([r.duration_samples for r in results]),
            dt=dt,
            shots=first.shots,
        )

    def rows(self, start: int, stop: int) -> "FamilyOutcome":
        """Members ``start:stop`` as their own outcome."""
        states = self.final_states
        return dataclasses.replace(
            self,
            ideal_probabilities=self.ideal_probabilities[start:stop],
            probabilities=self.probabilities[start:stop],
            final_states=None if states is None else states[start:stop],
            leakage=self.leakage[:, start:stop],
            counts=None if self.counts is None else self.counts[start:stop],
            durations=self.durations[start:stop],
        )

    def result(self, k: int, metadata: dict) -> ExecutionResult:
        """Member *k* as an :class:`ExecutionResult`."""
        m = len(self.measured_sites)
        return ExecutionResult(
            counts=self.counts[k] if self.counts is not None else {},
            probabilities=outcome_dict(self.probabilities[k], m),
            ideal_probabilities=outcome_dict(self.ideal_probabilities[k], m),
            final_state=None if self.final_states is None else self.final_states[k],
            measured_sites=self.measured_sites,
            leakage=dict(enumerate(self.leakage[:, k].tolist())),
            duration_samples=int(self.durations[k]),
            duration_seconds=int(self.durations[k]) * self.dt,
            shots=self.shots,
            metadata=metadata,
        )


class BatchResult(_Sequence):
    """The results of one :meth:`ScheduleExecutor.execute_batch` call.

    A sequence of :class:`ExecutionResult`, one per schedule in input
    order. Each is a view built on first access from the arrays of its
    family: :attr:`families` holds one :class:`FamilyOutcome` per
    family (one per family of a
    :class:`~repro.core.schedule.ScheduleFamily` or
    :class:`~repro.core.schedule.FamilyBatch` input), so a consumer
    that reads the arrays builds no per-point result at all. A
    contiguous slice is again a :class:`BatchResult`, over the rows of
    the families it covers. :attr:`metadata` belongs to the batch (the
    profile summary); every view carries its own copy.
    """

    __slots__ = ("families", "metadata", "_starts", "_views")

    def __init__(self, families: Sequence[FamilyOutcome], metadata: dict) -> None:
        self.families = tuple(families)
        self.metadata = metadata
        self._starts: list[int] = []
        total = 0
        for family in self.families:
            self._starts.append(total)
            total += len(family)
        self._views: list[ExecutionResult | None] = [None] * total

    def __len__(self) -> int:
        return len(self._views)

    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, step = index.indices(len(self))
            if step != 1:
                return [self[i] for i in range(start, stop, step)]
            parts = []
            for family, first in zip(self.families, self._starts):
                a = max(start - first, 0)
                b = min(stop - first, len(family))
                if a < b:
                    whole = a == 0 and b == len(family)
                    parts.append(family if whole else family.rows(a, b))
            return BatchResult(parts, self.metadata)
        i = range(len(self._views))[index]
        view = self._views[i]
        if view is None:
            f = bisect_right(self._starts, i) - 1
            view = self._views[i] = self.families[f].result(
                i - self._starts[f], dict(self.metadata)
            )
        return view


class ScheduleExecutor:
    """Executes pulse schedules against one :class:`SystemModel`."""

    #: Superoperator slices materialized at once by an open-system
    #: flush (a (D^2, D^2) slice is D^2 times a unitary's footprint).
    _MAX_OPEN_BATCH_SLICES = 512
    #: Largest Hilbert dimension whose Lindblad evolution materializes
    #: (D^2, D^2) superoperators (32 -> 1024^2 complex entries per run,
    #: ~16 MiB); larger models sample quantum-jump trajectories.
    _MAX_SUPEROP_DIM = 32
    #: Matrix entries of a closed-system kernel chunk: small models run
    #: a whole batch as one chunk, large ones (D = 3^5 = 243) flush
    #: every few slices so the stacked Hamiltonians and their
    #: eigendecompositions stay cache-sized.
    _MAX_CLOSED_BATCH_ENTRIES = 1 << 18

    def __init__(
        self,
        model: SystemModel,
        readout: Mapping[int, ReadoutModel] | None = None,
        *,
        propagator_cache: PropagatorCache | None = None,
    ) -> None:
        self.model = model
        self.readout = dict(readout or {})
        self._drift_eig = np.linalg.eigh(model.drift)
        #: Drive-stack column order.
        self._channel_names = sorted(model.channels)
        #: ``(C, D)`` diagonal phase generators, one row per channel
        #: column; all-zero for channels whose phase is not a symmetry
        #: of the model (see :meth:`_phase_generators`).
        self._phase_gen = self._phase_generators()
        self._phase_channels = np.any(self._phase_gen != 0, axis=1)
        #: Shared slice-propagator cache: repeated drive amplitudes
        #: (flat-tops, parameter sweeps) skip the eigendecomposition.
        self.propagator_cache = (
            propagator_cache if propagator_cache is not None else PropagatorCache()
        )
        self._open_engine: "OpenSystemEngine | None" = None
        #: Each template's value-free drive plan (:mod:`repro.sim.runs`):
        #: a family of a base planned before binds its values only.
        self.drive_plans = DrivePlans()

    @property
    def open_system(self) -> "OpenSystemEngine":
        """The lazily built open-system engine for this model."""
        if self._open_engine is None:
            # Share the executor's propagator cache: the engine's
            # namespace tag keeps superpropagators and unitaries from
            # colliding, and sweeps/serving then hold one bounded
            # cache instead of one per engine.
            self._open_engine = OpenSystemEngine.from_model(
                self.model, cache=self.propagator_cache
            )
        return self._open_engine

    # ---- public API ---------------------------------------------------------

    def execute(
        self,
        schedule: PulseSchedule,
        *,
        shots: int = 1024,
        rng: np.random.Generator | None = None,
        seed: int | None = None,
        initial_state: np.ndarray | None = None,
        should_cancel=None,
    ) -> ExecutionResult:
        """Run *schedule* and sample *shots* measurement outcomes.

        A one-member :meth:`execute_batch`: *rng* (``default_rng(seed)``
        when omitted, built only if it is used) drives the schedule's
        trajectory sampling, if any, and then its shot sampling.

        *initial_state* (default: every site in ``|0>``) is a finite,
        non-zero ``(D,)`` ket, or a ``(D, D)`` density matrix on a
        model with decoherence; anything else raises
        :class:`~repro.errors.ValidationError`.

        The evolution runs in the ambient dtype policy
        (:func:`repro.sim.precision.use_dtype`).

        *should_cancel* (zero-arg callable) enables cooperative
        cancellation: it is polled at chunk boundaries — before the
        evolution, before every kernel call, and before the measurement
        tail — and a True return raises
        :class:`~repro.errors.CancelledError`.
        """
        [outcome] = self._run(
            [schedule],
            [rng if rng is not None else seed],
            shots,
            initial_state,
            should_cancel,
        )
        return outcome.result(0, {})

    def execute_batch(
        self,
        schedules: ScheduleFamily | FamilyBatch | Sequence[PulseSchedule],
        *,
        shots: int = 1024,
        seed: int | Sequence[int | None] | None = None,
        initial_state: np.ndarray | None = None,
        should_cancel=None,
    ) -> Sequence[ExecutionResult]:
        """Run many schedules through one batched evolution pass.

        *schedules* is a list of schedules, one
        :class:`~repro.core.schedule.ScheduleFamily` (a template plus a
        ``(K, P)`` value matrix, what :meth:`Executable.bind_many
        <repro.api.executable.Executable.bind_many>` gives) or a
        :class:`~repro.core.schedule.FamilyBatch` of families (what the
        mitigation engine sends: one family per stretch factor and
        twirl mask). A family's value columns are written straight into
        the run planner's frame timelines, with no per-point
        schedule.

        The whole batch's constant-drive runs are stacked and
        exponentiated together — one
        :meth:`PropagatorCache.propagators` call for every driven run
        of every schedule (closed system) or chunked
        :meth:`OpenSystemEngine.superpropagators
        <repro.sim.open_system.OpenSystemEngine.superpropagators>`
        calls (Lindblad) — instead of one small batched call per
        schedule. This is the execution kernel the primitives tier
        (:mod:`repro.primitives`) dispatches PUBs through: a 64-point
        parameter scan costs one propagator batch, not 64.

        Results are identical to ``[execute(s, shots=shots, seed=seed)
        for s in schedules]``: each schedule's trajectory sampling (if
        any) and measurement tail draw from a fresh
        ``default_rng(seed)``, so seeded runs reproduce the per-point
        loop exactly. *seed* may also list one seed per schedule; the
        batch then equals ``[execute(s, shots=shots, seed=s_i) ...]``,
        which is how a device serves many jobs, each on its own
        stream, in one pass. A generator is built only for a schedule
        that draws shots or samples trajectories.

        The return value is a :class:`BatchResult`: a sequence of
        :class:`ExecutionResult` views built on first access, with the
        arrays of each family in :attr:`BatchResult.families`.

        With profiling enabled (:func:`repro.obs.enable_profiling`)
        the batch's ``metadata["profile"]`` (and every result's) is a
        summary of the batch: stack sizes, Hilbert dimension, squaring
        levels, cache dedup ratio, and GEMM wall-time.

        Every evolution kernel of the batch runs in the ambient dtype
        policy (:func:`repro.sim.precision.use_dtype`).

        *should_cancel* enables cooperative cancellation, polled at
        the batch's chunk boundaries: before the evolution, before
        every kernel call (each open-system flush of up to
        ``_MAX_OPEN_BATCH_SLICES`` superoperator slices, each
        trajectory-sampled schedule), and before the measurement tail.
        """
        if not isinstance(schedules, (ScheduleFamily, FamilyBatch)):
            schedules = list(schedules)
        n = len(schedules)
        if not n:
            return BatchResult((), {})
        if seed is None or isinstance(seed, (int, np.integer)):
            streams = [seed] * n
        else:
            streams = list(seed)
            if len(streams) != n:
                raise ValidationError(
                    f"got {len(streams)} seeds for {n} schedules"
                )
        profiling = _profile.profiling_enabled()
        with span("execute_batch", schedules=n, shots=shots):
            prev = _profile.begin_collect() if profiling else None
            try:
                outcomes = self._run(
                    schedules, streams, shots, initial_state, should_cancel
                )
            finally:
                records = _profile.end_collect(prev) if profiling else None
        metadata = {}
        if records is not None:
            metadata["profile"] = _profile.summarize(records, batch=n)
        return BatchResult(outcomes, metadata)

    def unitary(self, schedule: PulseSchedule) -> np.ndarray:
        """Total propagator of *schedule* (requires no decoherence).

        The closed pipeline evolving the identity instead of a ket.
        """
        if self.model.has_decoherence():
            raise ExecutionError("unitary() is undefined with decoherence enabled")
        [states] = self._final_states(
            self._families([schedule]), [None], identity(self.model.dimension)
        )
        return states[0]

    def _phase_generators(self) -> np.ndarray:
        """Diagonal generators ``W_j`` of the drive-phase symmetries.

        A non-Hermitian channel ``j`` with operator ``A`` qualifies when
        ``W = Re diag(A^dag A)`` lowers it (``[W, A] = -A``), commutes
        with the drift and with every other channel operator, and
        commutes up to a scalar with every collapse operator. Then the
        Hamiltonian (and the Lindblad generator) at amplitude ``a`` is
        ``V H(|a|) V^dag`` with ``V = exp(i arg(a) W)``, so a run's
        propagator is the ``|a|`` one conjugated by a diagonal phase.
        Hermitian (coupler) channels take the drive's real part, so
        their phase is never a symmetry.
        """
        model = self.model
        names = self._channel_names
        ops = [model.channels[n].operator for n in names]
        collapse = (
            collapse_operators(model.dims, model.decoherence)
            if model.has_decoherence()
            else []
        )
        gens = np.zeros((len(names), model.dimension))
        for j, name in enumerate(names):
            if model.channels[name].hermitian:
                continue
            op = ops[j]
            w = np.real(np.einsum("ki,ki->i", op.conj(), op))
            if (
                _eigen_commutator(w, op, -1.0)
                and _eigen_commutator(w, model.drift, 0.0)
                and all(
                    _eigen_commutator(w, other, 0.0)
                    for k, other in enumerate(ops)
                    if k != j
                )
                and all(_eigen_commutator(w, c) for c in collapse)
            ):
                gens[j] = w
        return gens

    # ---- the pipeline -----------------------------------------------------------

    def _run(
        self,
        batch: ScheduleFamily | FamilyBatch | list[PulseSchedule],
        streams: list,
        shots: int,
        initial_state: np.ndarray | None,
        should_cancel,
    ) -> list[FamilyOutcome]:
        """Evolve and measure *batch*, member i drawing from
        ``_stream(streams, i)``."""
        if initial_state is not None:
            self._check_initial_state(initial_state)
        _check_cancel(should_cancel)
        if isinstance(batch, ScheduleFamily):
            families = [batch]
        elif isinstance(batch, FamilyBatch):
            families = list(batch.families)
        else:
            families = self._families(batch)
        finals = self._final_states(
            families, streams, initial_state, should_cancel
        )
        _check_cancel(should_cancel)
        with span("measurement", points=len(streams)):
            return self._measure(families, finals, shots, streams)

    def _measure(
        self,
        families: list[ScheduleFamily],
        finals: list[np.ndarray],
        shots: int,
        streams: list,
    ) -> list[FamilyOutcome]:
        """The measurement tails of *families*, stacked.

        Consecutive families that measure the same sites share one
        :meth:`_finalize` pass over their stacked states, split back
        into one :class:`FamilyOutcome` per family; each row keeps its
        own schedule's length.
        """
        outcomes: list[FamilyOutcome] = []
        start = 0
        f = 0
        while f < len(families):
            sites = self._measured_sites(families[f].base)
            stop = f + 1
            while (
                stop < len(families)
                and finals[stop].shape[1:] == finals[f].shape[1:]
                and self._measured_sites(families[stop].base) == sites
            ):
                stop += 1
            group = families[f:stop]
            sizes = [len(family) for family in group]
            count = sum(sizes)
            stacked = self._finalize(
                sites,
                finals[f] if stop == f + 1 else np.concatenate(finals[f:stop]),
                shots,
                streams[start : start + count],
                np.concatenate([self._durations(family) for family in group]),
            )
            first = 0
            for size in sizes:
                outcomes.append(
                    stacked if size == count else stacked.rows(first, first + size)
                )
                first += size
            start += count
            f = stop
        return outcomes

    @staticmethod
    def _durations(family: ScheduleFamily) -> np.ndarray:
        """The ``(K,)`` schedule lengths of *family*'s members."""
        duration = family.base.duration
        if family.idle is None:
            return np.full(len(family), duration, dtype=np.int64)
        return duration + family.idle.extra(family.values)

    def _families(self, schedules: Sequence[PulseSchedule]) -> list[ScheduleFamily]:
        """The batch as maximal runs of consecutive structural clones,
        each gathered into one family (a schedule that clones nothing
        is a family of one)."""
        families: list[ScheduleFamily] = []
        start = 0
        for i in range(1, len(schedules) + 1):
            if i == len(schedules) or not self._is_clone(
                schedules[start], schedules[i]
            ):
                families.append(ScheduleFamily.gather(schedules[start:i]))
                start = i
        return families

    def _is_clone(self, base: PulseSchedule, other: PulseSchedule) -> bool:
        """Whether *other* shares *base*'s schedule structure.

        Both must have identical item counts, placements and
        instruction types; items may differ only by being distinct
        frame-event instances on the same (port, frame) — i.e. the
        clone-and-swap output of the schedule-template fast path. Play
        items must be the *same object* (templates share them), so
        waveforms and timings are guaranteed equal without comparing
        samples.
        """
        items0, items = base._items, other._items
        if items is items0:
            return True
        if len(items) != len(items0):
            return False
        for a, b in zip(items0, items):
            if a is b:
                continue
            ia, ib = a.instruction, b.instruction
            if (
                a.t0 != b.t0
                or a.seq != b.seq
                or type(ia) is not type(ib)
                or type(ia) not in FRAME_EVENT_FIELDS
                or ia.port.name != ib.port.name
                or ia.frame.name != ib.frame.name
            ):
                return False
        return True

    def _run_hamiltonians_stack(self, rows: np.ndarray) -> np.ndarray:
        """Total Hamiltonians (Hz) of a ``(N, C)`` stack of drive rows.

        Channel terms apply through masked broadcast multiplies, one
        channel at a time (in place when every row drives the channel);
        drift-only rows come out as the drift.
        """
        model = self.model
        n = rows.shape[0]
        hs = np.repeat(model.drift[None, :, :], n, axis=0)
        for j, name in enumerate(self._channel_names):
            a = rows[:, j]
            nz = a != 0
            if not np.any(nz):
                continue
            rows_on = slice(None) if nz.all() else nz
            a = a[rows_on]
            ch = model.channels[name]
            if ch.hermitian:
                hs[rows_on] += (ch.rabi_rate * a.real)[:, None, None] * (
                    ch.operator
                )
            else:
                half = 0.5 * ch.rabi_rate
                hs[rows_on] += half * (
                    np.conj(a)[:, None, None] * ch.operator
                    + a[:, None, None] * ch.adjoint_operator()
                )
        return hs

    def _final_states(
        self,
        families: list[ScheduleFamily],
        streams: list,
        initial_state: np.ndarray | None,
        should_cancel=None,
    ) -> list[np.ndarray]:
        """Final ``(K, ...)`` state stack of every family.

        Kets for a closed system (matrices for an operator-valued
        initial state), density matrices with decoherence.

        Each family's runs come from
        :func:`~repro.sim.runs.drive_runs`, which binds the family's
        values against its template's plan, built once per base and
        held in :attr:`drive_plans` (a sweep's next call and a
        mitigation variant's next run plan nothing); its delay slot's
        idle run comes from :func:`~repro.sim.runs.insert_idle`.

        A plan's prefix (:meth:`DrivePlan.leading
        <repro.sim.runs.DrivePlan.leading>`) is its leading runs that
        no value can change. The first call that evolves them keeps
        the state they leave on the plan, per working dtype and apart
        for a one-member family, when every member shares it; a later
        call whose first runs are the prefix starts every member from
        that state, and its prefix runs take no slice at all (no
        canonical rows, chirp merge, dedup, kernel or apply). A slot-free
        family's runs are all its prefix. A family whose runs differ
        from the prefix (a value merged the first slotted run into the
        last prefix run), a caller's *initial_state* and the
        quantum-jump fallback evolve from the start and keep nothing.

        Slices are laid out family by family and, within a family,
        position-major — run r of every member, then r+1. After phase
        canonicalization the per-sample positions of a detuned constant
        play merge into one chirped run (:meth:`_chirps`), whose propagator is one cached
        one-sample propagator and one matrix power (:meth:`_chirped`);
        the quantum-jump fallback above steps the unmerged runs. Before
        each kernel chunk, slices of one canonical row, length and
        chirp ``(N, Delta)`` collapse to one wherever they sit (the
        members' copies of a shared run, a run repeated later), so one
        Hamiltonian is built and looked up per distinct run, in order
        of first appearance, and the slices index its row. Each kernel
        chunk returns a ``(table, index)`` pair: one propagator per
        distinct run and the table row of every slice, so nothing is
        copied per slice. At a run position where all K members share
        a row, that one matrix is applied to the whole state stack;
        where they differ, only that position's rows are gathered; a
        zero-step idle member indexes one shared identity row. Either
        way the update is a stacked per-member matmul, bitwise what a
        one-member batch gives. A closed batch is one kernel chunk; an open one flushes
        every ``_MAX_OPEN_BATCH_SLICES`` slices, which bounds the stack
        of cold superpropagators one chunk computes, while the shared
        cache still dedups across flushes.
        """
        model = self.model
        use_dm = model.has_decoherence()
        # Large-D fallback: quantum jumps consume each schedule's own
        # RNG during evolution.
        jumps = use_dm and self.open_system.dim > self._MAX_SUPEROP_DIM
        cdtype = active_dtype().cdtype
        memo = self.drive_plans
        with span("synthesize", points=len(streams)) as sp:
            # (rows (R, K, C), magnitudes (R, 1 or K, C), steps (R, 1
            # or K)) per family, and its prefix: None, or (P, plan,
            # key, what the plan holds for it or None).
            plans = []
            heads = []
            evaluated = samples = 0
            for family in families:
                runs, rows, mags, n = drive_runs(
                    family, model, self._channel_names, memo
                )
                head = None
                if initial_state is None and not jumps:
                    key = (cdtype, len(family) == 1)
                    plan, p, held = memo.prefix(
                        family, self._channel_names, runs, key
                    )
                    if p:
                        head = (p, plan, key, held)
                heads.append(head)
                steps = np.array([n for _, n in runs], dtype=np.int64)[:, None]
                if family.idle is not None:
                    rows, mags, steps = insert_idle(family, runs, rows, mags, steps)
                plans.append((rows, mags, steps))
                evaluated += n
                samples += len(family) * sum(n for _, n in runs)
            sp.annotate(rows=evaluated, samples=samples)
        state0 = self._initial_state(initial_state, use_dm)

        if jumps:
            engine = self.open_system
            finals = []
            start = 0
            for family, (rows, _, steps) in zip(families, plans):
                stack = []
                for j in range(len(family)):
                    _check_cancel(should_cancel)
                    if not len(steps):
                        stack.append(state0)
                        continue
                    member = steps[:, min(j, steps.shape[1] - 1)]
                    live = member > 0
                    hs = self._run_hamiltonians_stack(rows[live, j])
                    stack.append(
                        engine.evolve_trajectories(
                            hs,
                            member[live],
                            state0,
                            rng=_stream(streams, start + j),
                        )
                    )
                finals.append(np.stack(stack))
                start += len(family)
            return finals
        if use_dm:
            engine = self.open_system
            state0 = vectorize_density(state0)

        # A held prefix: the family starts from its state, past its
        # runs, and hands _chirps the carry of its last run.
        initial = [state0] * len(families)
        seeds: list = [None] * len(families)
        for f, head in enumerate(heads):
            if head and head[3] is not None:
                p, _, _, (initial[f], *seed) = head
                plans[f] = tuple(part[p:] for part in plans[f])
                seeds[f] = seed

        # Flat slice table, and kernel chunks of whole run positions,
        # each position a (family, first slice, K) triple.
        rows, phases, angles = self._canonical_rows(
            np.concatenate([r.reshape(-1, r.shape[2]) for r, _, _ in plans]),
            np.concatenate(
                [
                    np.broadcast_to(m, r.shape).reshape(-1, r.shape[2])
                    for r, m, _ in plans
                ]
            ),
        )
        steps = np.concatenate(
            [np.broadcast_to(st, r.shape[:2]).reshape(-1) for r, _, st in plans]
        )
        positions = [len(r) for r, _, _ in plans]
        # The prefixes this call evolves and keeps: family -> (its
        # first slice, P, carry).
        keeping = {}
        offset = 0
        for f, (family, head) in enumerate(zip(families, heads)):
            k = len(family)
            if head and head[3] is None:  # a miss
                p = head[0]
                carry = self._carry(angles[offset : offset + p * k : k])
                keeping[f] = (offset, p, carry)
            offset += positions[f] * k
        # Chirped runs: (N, Delta) per slice, or None when none merged.
        chirps = self._chirps(families, positions, rows, angles, steps, seeds)
        if chirps is not None:
            keep, positions, counts, deltas, covered = chirps
            rows, phases, steps = rows[keep], phases[keep], steps[keep]
            steps[covered] = 0
            phases[covered] = 0.0
        # Slices whose state must rotate (a list: cheap per-position any).
        moving = phases.any(axis=1).tolist()
        idle_free = steps == 0
        side = model.dimension ** (2 if use_dm else 1)

        def kernel(rows_: np.ndarray, steps_: np.ndarray) -> tuple:
            if use_dm:
                return engine.superpropagators(
                    self._run_hamiltonians_stack(rows_), steps_
                )
            return self._closed_propagators(rows_, steps_)

        if use_dm:
            limit = self._MAX_OPEN_BATCH_SLICES
        else:
            limit = max(1, self._MAX_CLOSED_BATCH_ENTRIES // model.dimension**2)
        chunks: list[list[tuple[int, int, int]]] = []
        chunk: list[tuple[int, int, int]] = []
        # The slice after which a kept prefix's state is read.
        ends = {}
        offset = 0
        for f, family in enumerate(families):
            if not len(family):  # a zero-point PUB: no slices
                continue
            if f in keeping:
                first, p, _ = keeping[f]
                if chirps is not None:  # the prefix's positions a chirp kept
                    kept = keep[first : first + p * len(family)]
                    p = int(np.count_nonzero(kept)) // len(family)
                ends[f] = offset + p * len(family)
            for _ in range(positions[f]):
                chunk.append((f, offset, len(family)))
                offset += len(family)
                if offset - chunk[0][1] >= limit:
                    chunks.append(chunk)
                    chunk = []
        if chunk:
            chunks.append(chunk)

        states = [
            np.asarray(np.repeat(start[None], len(family), axis=0), dtype=cdtype)
            for start, family in zip(initial, families)
        ]
        for chunk in chunks:
            lo = chunk[0][1]
            hi = chunk[-1][1] + chunk[-1][2]
            _check_cancel(should_cancel)
            live = ~idle_free[lo:hi]
            live_rows, live_steps = rows[lo:hi][live], steps[lo:hi][live]
            # Slices of one row, length and chirp (the members' copies
            # of a shared run, a run repeated at another position) take
            # one Hamiltonian and one lookup: the kernel sees the
            # distinct runs in the order the cache would have computed
            # them.
            columns = [live_rows, live_steps[:, None]]
            if chirps is not None:
                live_counts = counts[lo:hi][live]
                live_deltas = deltas[lo:hi][live]
                columns += [live_counts[:, None], live_deltas]
            first, inverse = _distinct(columns)
            table, index = kernel(live_rows[first], live_steps[first])
            if chirps is not None:
                table, index = self._chirped(
                    table, index, live_counts[first], live_deltas[first], use_dm
                )
            index = index[inverse]
            if not live.all():
                # Zero-length runs (a delay-slot member that inserts no
                # idle sample, a position a member's chirp covers)
                # evolve by the exact identity: one row.
                full = np.full(hi - lo, len(table), dtype=np.intp)
                full[live] = index
                index = full
                table += (np.eye(side, dtype=cdtype),)
            index = index.tolist()
            if any(moving[lo:hi]):
                rot, unrot = self._state_rotations(phases[lo:hi], use_dm)
            for f, a, k in chunk:
                at = index[a - lo : a - lo + k]
                state = states[f]
                # P(a) = V P(|a|) V^dag with V diagonal: rotate the
                # state into the phase-free frame and back.
                turn = any(moving[a : a + k])
                if turn:
                    out, back = rot[a - lo : a - lo + k], unrot[a - lo : a - lo + k]
                    if state.ndim == 3:  # operator-valued: V scales rows
                        out, back = out[:, :, None], back[:, :, None]
                    state = back * state
                # One matmul per member (BLAS gemv/gemm on its own
                # rows), never one GEMM over the stack, whose rows are
                # not bitwise independent of K.
                if at.count(at[0]) == k:  # the members share one row
                    u = table[at[0]]
                else:
                    u = np.stack([table[i] for i in at])
                if state.ndim == 2:  # stacked kets / vectorized rhos
                    state = np.matmul(u, state[..., None])[..., 0]
                else:  # stacked matrices (operator-valued initial state)
                    state = np.matmul(u, state)
                states[f] = out * state if turn else state
                if ends.get(f) == a + k:
                    _, plan, key, _ = heads[f]
                    state = states[f]
                    # Held only when every member shares it, as the
                    # prefix's shared rows give.
                    if (state == state[0]).all():
                        held = (state[0].copy(), *keeping[f][2])
                        memo.keep(plan, key, held)
        if use_dm:
            dim = model.dimension
            return [s.reshape(-1, dim, dim) for s in states]
        return states

    def _canonical_rows(
        self, rows: np.ndarray, magnitudes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Phase-free ``(N, C)`` drive rows, their ``(N, D)`` phases and
        the ``(N, C)`` channel angles those sum.

        Every covariant channel's amplitude ``a`` becomes ``|a|`` (the
        envelope magnitude, so it is bitwise the same whatever the
        frame phase), and ``phases[n] = sum_j arg(a_nj) W_j`` is the
        diagonal of ``V`` that puts the phase back. Runs differing only
        in frame phase then share one Hamiltonian fingerprint — one
        cache entry — and other channels keep their value with zero
        phase (and zero angle).
        """
        lifted = self._phase_channels & (magnitudes > 0)
        angles = np.where(lifted, np.angle(rows), 0.0)
        # Channel by channel, not one GEMM (as for a chirp's increment):
        # a member's phases must not depend on the rows sharing its call.
        phases = np.zeros((len(rows), self._phase_gen.shape[1]))
        for j, w in enumerate(self._phase_gen):
            phases += angles[:, j, None] * w
        return np.where(lifted, magnitudes, rows), phases, angles

    @staticmethod
    def _carry(angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """What :meth:`_chirps` reads of a prefix of ``(P, C)`` channel
        *angles*: the last row, and the running sum of the wrapped
        turns into it, as its ``total`` holds it there."""
        turn = np.diff(angles, axis=0)
        turn -= _TWO_PI * np.round(turn / _TWO_PI)
        if not len(turn):
            return angles[-1].copy(), np.zeros(angles.shape[1])
        return angles[-1].copy(), np.cumsum(turn, axis=0)[-1]

    def _chirps(
        self,
        families: list[ScheduleFamily],
        positions: list[int],
        rows: np.ndarray,
        angles: np.ndarray,
        steps: np.ndarray,
        seeds: list,
    ):
        """Merge every detuned constant play into one chirped run.

        A play on a frame detuned from its channel is one run per
        sample, and sample ``k`` has propagator ``V_k P V_k^dag``: one
        phase-free ``P`` (its row is ``|a|``) and phases advancing by
        the same diagonal ``Delta`` each sample. So a member's N
        consecutive run positions merge when each has steps 1, their
        phase-free rows are equal and the wrapped channel angles
        advance by the same increment into every one (equal to 12
        decimals, as :func:`~repro.sim.evolve.segment_runs` merges
        samples). Overlapping plays and channels whose phase is no
        symmetry keep their complex rows, which differ per sample; a
        frame event inside a play changes the increment, and the chirp
        after it starts one position later. The merged run sits at its
        first position, with that position's phase; :meth:`_chirped`
        gives its phase-free propagator.

        Every member merges on its own rows alone, so a member's runs
        are the ones it has run alone: at a position a chirp covers,
        the member takes the exact identity (steps 0, phase 0), and a
        position every member's chirp covers is dropped.

        A family whose held prefix state skips its first runs has a
        *seed*, that prefix's :meth:`_carry`: its turns and their running
        sum go on from the skipped runs', as if they were there (no
        chirp crosses a prefix's end). *seeds* holds one per family, or
        ``None``.

        Returns ``None`` when nothing merges, else ``(keep, positions,
        counts, deltas, covered)``: the kept slices, each family's run
        positions after merging, and per kept slice its N (1 off
        chirps), its ``(D,)`` increment ``Delta = sum_j dtheta_j W_j``
        (the mean over its chirp) and whether a chirp covers it.
        """
        if not (steps == 1).any():
            return None
        plans = []
        offset = 0
        for family, r, seed in zip(families, positions, seeds):
            k = len(family)
            part = slice(offset, offset + r * k)
            offset += r * k
            plans.append(None)
            if r < 2 or not k:
                continue
            unit = steps[part].reshape(r, k) == 1
            link = unit[1:] & unit[:-1]  # link j joins positions j, j+1
            if not link.any():
                continue
            block = rows[part].reshape(r, k, -1)
            link &= (block[1:] == block[:-1]).all(axis=2)
            if not link.any():
                continue
            turned = angles[part].reshape(r, k, -1)
            if seed is not None:  # from the skipped prefix's last run
                first = np.broadcast_to(seed[0], turned[:1].shape)
                turned = np.concatenate([first, turned])
            turn = np.diff(turned, axis=0)
            turn -= _TWO_PI * np.round(turn / _TWO_PI)
            if seed is None:
                total = np.cumsum(turn, axis=0)
                total = np.concatenate([np.zeros_like(total[:1]), total])
            else:  # summed on from the prefix's running sum
                first = np.broadcast_to(seed[1], turn[:1].shape)
                total = np.cumsum(np.concatenate([first, turn]), axis=0)[1:]
                turn = turn[1:]
            key = np.round(turn, 12)
            # A link continues the one before when both advance alike;
            # one that starts a new increment right after another link
            # would share that link's last position, so it is dropped.
            same = np.zeros_like(link)
            same[1:] = link[1:] & link[:-1] & (key[1:] == key[:-1]).all(axis=2)
            late = link & ~same
            late[0] = False
            late[1:] &= link[:-1]
            usable = link & ~late
            cont = np.zeros_like(link)
            cont[1:] = same[1:] & usable[:-1]
            carried = np.zeros_like(link)  # the next link continues
            carried[:-1] = cont[1:]
            ends = usable & ~carried
            # Member-major, so the chirps' first and last links pair up.
            firsts = np.flatnonzero((usable & ~cont).T)
            lasts = np.flatnonzero(ends.T)
            member, a = np.divmod(firsts, r - 1)
            b = lasts % (r - 1)
            mean = (total[b + 1, member] - total[a, member]) / (b + 1 - a)[:, None]
            counts = np.ones((r, k), dtype=np.int64)
            counts[a, member] = b + 2 - a
            deltas = np.zeros((r, k, self._phase_gen.shape[1]))
            # Channel by channel, not one GEMM: a BLAS row depends on
            # how many rows share the call, and a member's increment
            # must not.
            deltas[a, member] = sum(
                mean[:, j, None] * w for j, w in enumerate(self._phase_gen)
            )
            covered = np.zeros((r, k), dtype=bool)
            covered[1:] = usable  # a link's chirp covers its second position
            plans[-1] = (counts, deltas, covered)
        if not any(plan is not None for plan in plans):
            return None
        positions = list(positions)
        parts: list[list[np.ndarray]] = [[], [], [], []]
        dim = self._phase_gen.shape[1]
        for f, (family, r, plan) in enumerate(zip(families, positions, plans)):
            k = len(family)
            if plan is None:
                plan = (
                    np.ones((r, k), dtype=np.int64),
                    np.zeros((r, k, dim)),
                    np.zeros((r, k), dtype=bool),
                )
            counts, deltas, covered = plan
            kept = ~covered.all(axis=1)
            positions[f] = int(np.count_nonzero(kept))
            parts[0].append(np.repeat(kept, k))
            parts[1].append(counts[kept].reshape(-1))
            parts[2].append(deltas[kept].reshape(-1, dim))
            parts[3].append(covered[kept].reshape(-1))
        keep, counts, deltas, covered = (
            p[0] if len(p) == 1 else np.concatenate(p) for p in parts
        )
        return keep, positions, counts, deltas, covered

    def _chirped(
        self,
        table: tuple,
        index: np.ndarray,
        counts: np.ndarray,
        deltas: np.ndarray,
        use_dm: bool,
    ) -> tuple:
        """``(table, index)`` with each chirped run's propagator.

        Entry ``e`` with ``N = counts[e] > 1`` indexes its one-sample
        propagator ``U0``; the run's samples multiply to ``V_{N-1} U0
        V_{N-1}^dag ... V_0 U0 V_0^dag`` with ``V_{k+1} = V_k
        e^{i Delta}``, which the executor's rotation at the first
        phase ``V_0`` gives from the phase-free ``Q = e^{i (N-1)
        Delta} U0 (E U0)^{N-1}``, ``E = e^{-i Delta}``. The powers are
        one repeated squaring over the stack. A vectorized density
        matrix takes the rotations of :meth:`_state_rotations`, which
        holds wherever the dissipator is phase-covariant — the only
        channels whose angles are nonzero. A wrapped angle changes
        ``Delta`` by ``2 pi`` times an integer spacing of ``W``: a
        global phase, which cancels between ``e^{i (N-1) Delta}`` and
        ``E^{N-1}``.
        """
        chirped = np.flatnonzero(counts > 1)
        if not chirped.size:
            return table, index
        u0 = np.stack([table[i] for i in index[chirped].tolist()])
        n = counts[chirped] - 1
        delta = deltas[chirped]
        _, step = self._state_rotations(delta, use_dm)
        ahead, _ = self._state_rotations(n[:, None] * delta, use_dm)
        q = np.matmul(u0, _matrix_powers(step[:, :, None] * u0, n))
        q *= ahead[:, :, None]
        index = index.copy()
        index[chirped] = len(table) + np.arange(chirped.size)
        return table + tuple(q), index

    @staticmethod
    def _state_rotations(phases: np.ndarray, use_dm: bool):
        """``V`` and ``V^dag`` of ``(n, D)`` phases as diagonals of the
        state space (``D^2`` entries for a vectorized density matrix),
        in the active dtype."""
        rot = np.exp(1j * phases)
        if use_dm:  # row-major vec(V rho V^dag): exp(i (phi_i - phi_k))
            rot = (rot[:, :, None] * rot.conj()[:, None, :]).reshape(len(rot), -1)
        cdtype = active_dtype().cdtype
        return tuple(np.asarray(r, dtype=cdtype) for r in (rot, rot.conj()))

    def _closed_propagators(self, rows: np.ndarray, steps: np.ndarray) -> tuple:
        """Unitary run propagators as ``(table, index)``: one cached
        batched call for the driven runs, then one stacked multiply of
        the drift eigendecomposition for every distinct length of the
        drift-only runs."""
        dt = self.model.dt
        drift = ~np.any(rows != 0, axis=1)
        index = np.empty(len(steps), dtype=np.intp)
        table: tuple = ()
        if not drift.all():
            driven = ~drift
            table, index[driven] = self.propagator_cache.propagators(
                self._run_hamiltonians_stack(rows[driven]),
                dt,
                steps[driven],
            )
        if drift.any():
            lengths, which = np.unique(steps[drift], return_inverse=True)
            index[drift] = len(table) + which
            table += tuple(free_propagators(self._drift_eig, dt, lengths))
        return table, index

    def _measured_sites(self, base: PulseSchedule) -> tuple[int, ...]:
        """The site of each classical slot of *base*, in slot order."""
        captures = base.instructions_of(Capture)
        slots = sorted(
            (it.instruction.memory_slot, it.instruction) for it in captures
        )
        measured_sites = tuple(self._capture_site(ins) for _, ins in slots)
        if len(set(measured_sites)) != len(measured_sites):
            raise ValidationError("measured sites must be distinct")
        return measured_sites

    def _finalize(
        self,
        measured_sites: tuple[int, ...],
        states: np.ndarray,
        shots: int,
        streams: list,
        durations: np.ndarray,
    ) -> FamilyOutcome:
        """Measurement tail of stacked members, as arrays.

        The members measure the same sites, so the level-to-bit
        outcome mapping happens once. Exact probabilities, readout
        corruption and leakage are array expressions over the whole
        stack; only shot sampling runs per member, drawing from
        ``_stream(streams, k)``.
        """
        model = self.model
        dims = model.dims
        k_members = states.shape[0]
        if states.ndim == 2:  # kets
            probs = np.abs(states) ** 2
        else:  # density matrices
            probs = np.real(np.diagonal(states, axis1=1, axis2=2)).copy()
        probs = np.clip(probs, 0.0, None)
        norms = probs.sum(axis=1)
        if np.any(norms <= 0):
            raise ValidationError("state has zero norm")
        probs /= norms[:, None]
        full = probs.reshape((k_members,) + tuple(dims))

        # (K, 2**m) exact distributions over the measured sites: any
        # level >= 1 reads as bit 1, and each outcome sums its level
        # labels in ascending label order.
        m = len(measured_sites)
        ideal = np.zeros((k_members, 1 << m if m else 0))
        if m:
            others = [s + 1 for s in range(len(dims)) if s not in measured_sites]
            marg = full.sum(axis=tuple(others)) if others else full
            sorted_keep = sorted(measured_sites)
            weight = {
                site: 1 << (m - 1 - slot) for slot, site in enumerate(measured_sites)
            }
            for labels in itertools.product(*[range(dims[s]) for s in sorted_keep]):
                column = sum(
                    weight[site]
                    for site, lbl in zip(sorted_keep, labels)
                    if lbl >= 1
                )
                ideal[:, column] += marg[(slice(None),) + labels]
            confusion = joint_confusion(
                [self.readout.get(site, ReadoutModel()) for site in measured_sites]
            )
            # One matrix-vector product per member (a stacked matmul),
            # bitwise what a single member's readout gives.
            noisy = np.matmul(confusion, ideal[:, :, None])[:, :, 0]
        else:
            noisy = ideal
        # (n_sites, K) leakage, one marginal per site for the family.
        leakage = np.zeros((len(dims), k_members))
        for site, d in enumerate(dims):
            if d > 2:
                axes = tuple(a + 1 for a in range(len(dims)) if a != site)
                leakage[site] = full.sum(axis=axes)[:, 2:].sum(axis=1)

        counts = None
        if m and shots:
            counts = [
                sample_counts(
                    outcome_dict(noisy[k], m), shots, _stream(streams, k)
                )
                for k in range(k_members)
            ]
        return FamilyOutcome(
            measured_sites=measured_sites,
            ideal_probabilities=ideal,
            probabilities=noisy,
            final_states=states,
            leakage=leakage,
            counts=counts,
            durations=durations,
            dt=model.dt,
            shots=shots if measured_sites else 0,
        )

    # The benchmark harness times the tail under both of its former names.
    _finalize_family = _finalize

    # ---- internals -------------------------------------------------------------

    def _initial_state(
        self, initial_state: np.ndarray | None, use_dm: bool
    ) -> np.ndarray:
        model = self.model
        if initial_state is None:
            psi = basis_state([0] * model.n_sites, model.dims)
        else:
            psi = np.asarray(initial_state, dtype=np.complex128)
        if use_dm and psi.ndim == 1:
            return np.outer(psi, psi.conj())
        return psi.copy()

    def _check_initial_state(self, state) -> None:
        """Refuse a caller's initial state that is not a finite,
        non-zero ``(D,)`` ket, or ``(D, D)`` density matrix when the
        model decoheres."""
        d = self.model.dimension
        use_dm = self.model.has_decoherence()
        state = np.asarray(state)
        if state.shape == (d,):
            weight = np.vdot(state, state).real
        elif use_dm and state.shape == (d, d):
            weight = np.trace(state).real
        else:
            shapes = f"a ({d},) ket"
            if use_dm:
                shapes += f" or a ({d}, {d}) density matrix"
            raise ValidationError(
                f"initial_state must be {shapes}, got shape {state.shape}"
            )
        if not np.all(np.isfinite(state)):
            raise ValidationError("initial_state has a non-finite entry")
        if not weight > 0:
            kind = "norm" if state.ndim == 1 else "trace"
            raise ValidationError(f"initial_state has zero {kind}")

    def _capture_site(self, capture: Capture) -> int:
        targets = capture.port.targets
        if len(targets) != 1:
            raise ExecutionError(
                f"capture port {capture.port.name!r} must target exactly one site"
            )
        site = targets[0]
        if site >= self.model.n_sites:
            raise ExecutionError(
                f"capture site {site} out of range for {self.model.n_sites} sites"
            )
        return site
