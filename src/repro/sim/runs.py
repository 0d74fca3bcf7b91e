"""Run planning: a schedule family's drive as runs of constant value.

The simulator evolves a pulse schedule run by run: within a run every
sample drives the Hamiltonian with the same amplitudes, so one
propagator raised to the run's length stands for the run's samples.
:func:`drive_runs` finds the runs of a
:class:`~repro.core.schedule.ScheduleFamily` — K members of one
template — without a per-sample drive. Like qibolab's ``Pulse``, which
keeps a segment's shape apart from its scalars, it splits the work in
two. A :class:`DrivePlan` holds everything the family's value matrix
cannot change: each frame timeline as a few breakpoints and the events
that write it, the candidate run starts, each play's shape samples at
those starts, and whatever part of the drive no slot touches. It is
built once per template: :class:`DrivePlans` memoises it per base
schedule. :meth:`DrivePlan.bind` then evaluates one value matrix
against it per call. :func:`insert_idle` adds a delay slot's idle
run, whose length differs per member.

Every value is computed with the operations a per-sample evaluation
would take, so the runs and their rows are bitwise what segmenting the
whole per-sample ``(K, T, n_channels)`` drive stack gives, whether the
plan is fresh or reused. A play on a detuned frame is one run per
sample here; the executor merges those runs into one chirped run after
it strips their phases
(:meth:`~repro.sim.executor.ScheduleExecutor._chirps`).
"""

from __future__ import annotations

import math
import threading
import weakref
from bisect import bisect_left, bisect_right
from typing import Sequence

import numpy as np

from repro.core.instructions import (
    FrameChange,
    Play,
    SetFrequency,
    SetPhase,
    ShiftFrequency,
    ShiftPhase,
)
from repro.core.port import PortKind
from repro.core.schedule import FRAME_EVENT_FIELDS, SCALE, ScheduleFamily
from repro.errors import ExecutionError
from repro.obs.metrics import REGISTRY, CacheStats
from repro.sim.evolve import segment_runs
from repro.sim.model import SystemModel

_TWO_PI = 2.0 * math.pi

#: The instructions that update a (port, frame) timeline.
_FRAME_EVENTS = tuple(FRAME_EVENT_FIELDS)


def _frozen(array):
    """*array*, made read-only (a plan is shared between threads)."""
    if array is not None:
        array.flags.writeable = False
    return array


def _replay(initial: float, events: list, shape: tuple, values, window=None):
    """A timeline array after its *events*, and its carrier window.

    Each event is ``(add, breakpoint, scalar, column)``: it sets or
    adds its value column (a slot) or scalar from its breakpoint on,
    in order. *window*, ``(events, breakpoint)``, asks for a copy of
    that breakpoint's column after the first *events* of them.
    """
    # float64 pinned explicitly: an integer frame frequency/phase would
    # otherwise set an integer dtype and truncate every later event.
    array = np.full(shape, initial, dtype=np.float64)
    carrier = None
    for i, (add, s, scalar, column) in enumerate(events):
        if window is not None and i == window[0]:
            carrier = array[:, window[1]].copy()
        value = scalar if column is None else values[:, column, None]
        if add:
            array[:, s:] += value
        else:
            array[:, s:] = value
    if window is not None and carrier is None:
        carrier = array[:, window[1]].copy()
    return array, carrier


class _Timeline:
    """One (port, frame) timeline of a plan: its breakpoints, initial
    frequency and phase, and the events that write them. Once sealed,
    an array no slot writes is a fixed ``(1, n)`` row, and so are its
    carrier window and ``psi``."""

    __slots__ = (
        "points",
        "frequency",
        "phase",
        "freq_events",
        "phase_events",
        "window",
        "reference",
        "dt",
        "duration",
        "psi",
        "carrier",
    )

    def __init__(self, points: list[int], frame) -> None:
        self.points = points
        self.frequency = frame.frequency
        self.phase = frame.phase
        self.freq_events: list | None = []
        self.phase_events: list | None = []
        #: ``(kept frequency events, breakpoint)`` of the carrier that a
        #: delay slot's inserted samples see, or ``None``.
        self.window: tuple[int, int] | None = None
        self.reference: float | None = None

    def seal(self, reference: float, duration: int, dt: float) -> None:
        """Fix what no slot writes, for plays on a channel at
        *reference*."""
        self.reference = reference
        self.dt = dt
        self.duration = duration
        self.psi = self.carrier = None
        if all(column is None for *_, column in self.freq_events):
            freq, carrier = self._frequencies(None, 1)
            self.psi = _frozen(self._psi(freq))
            self.carrier = _frozen(carrier)
            self.freq_events = None
        if all(column is None for *_, column in self.phase_events):
            shape = (1, len(self.points))
            self.phase = _frozen(_replay(self.phase, self.phase_events, shape, None)[0])
            self.phase_events = None

    def bind(self, values: np.ndarray) -> tuple:
        """``(phase, psi, carrier)`` for the members of *values*."""
        phase = self.phase
        if self.phase_events is not None:
            shape = (len(values), len(self.points))
            phase = _replay(phase, self.phase_events, shape, values)[0]
        if self.freq_events is None:
            return phase, self.psi, self.carrier
        freq, carrier = self._frequencies(values, len(values))
        return phase, self._psi(freq), carrier

    def _frequencies(self, values, rows: int) -> tuple:
        shape = (rows, len(self.points))
        return _replay(self.frequency, self.freq_events, shape, values, self.window)

    def _psi(self, freq: np.ndarray) -> np.ndarray | None:
        """The carrier phase the detuning accumulates before each
        sample, or ``None`` at the reference, where it is exactly 0."""
        if not (freq != self.reference).any():
            return None
        repeats = np.diff(self.points + [self.duration])
        detuning = np.repeat(freq, repeats, axis=1)
        detuning -= self.reference
        psi = np.cumsum(detuning, axis=1)
        psi -= detuning  # exclusive: phase *before* sample t
        psi *= _TWO_PI * self.dt
        return psi


class _Step:
    """One evaluation of a plan's drive: one play, or a group of plays
    on one (channel, timeline) that share no sample with another play
    on the channel, at the candidates they cover."""

    __slots__ = (
        "timeline",
        "channel",
        "rows",
        "at",
        "static",
        "samples",
        "magnitudes",
        "moved",
        "scale",
        "frame",
        "cover",
        "spans",
        "singles",
        "wave",
        "term",
        "term1",
    )


def _overlapping(plays: list) -> set[int]:
    """The plays that share a sample with another play on their
    channel. Sorted by start, a play overlaps when it starts before
    the furthest end so far, and so does the play that ends there."""
    out: set[int] = set()
    if len({play.channel for play in plays}) == len(plays):
        return out  # one play per channel
    spans: dict[int, list] = {}
    for i, play in enumerate(plays):
        spans.setdefault(play.channel, []).append((play.t0, play.t1, i))
    for channel in spans.values():
        end, holder = 0, -1
        for t0, t1, i in sorted(channel):
            if holder >= 0 and t0 < end:
                out.update((i, holder))
            if t1 > end:
                end, holder = t1, i
    return out


def _single_products(term, samples, wave, singles) -> None:
    """Redo, in *term*, the product of each one-candidate play of a
    one-member family, given as ``(offset, size)`` in the step.

    NumPy multiplies a ``(1,)`` by a ``(1, 1)`` complex array, what
    such a play's own evaluation takes, through its scalar loop, whose
    rounding differs from the vector loop's in the last bit. The play
    is constant over its span, so one product fills it.
    """
    for j, size in singles:
        w = wave if wave.shape[1] == 1 else wave[:, j : j + 1]
        term[:, j : j + size] = samples[j : j + 1] * w


def _write_magnitudes(envelope: np.ndarray, step: _Step, magnitudes) -> None:
    rows, c = step.rows, step.channel
    if step.cover:  # an earlier play may cover these samples
        written = envelope[:, rows, c]
        magnitudes = np.where(written != 0, -1.0, magnitudes)
    envelope[:, rows, c] = magnitudes


class _Play:
    __slots__ = ("pos", "t0", "t1", "channel", "timeline", "lag", "scale", "frame")

    def __init__(self, pos, item, channel, timeline, lag, scale) -> None:
        self.pos, self.t0, self.t1 = pos, item.t0, item.t1
        self.channel, self.timeline = channel, timeline
        #: Its sample at time t is the plan's concatenated shapes at
        #: ``t + lag``.
        self.lag = lag
        self.scale = scale
        self.frame = item.instruction.frame.frequency


class DrivePlan:
    """The part of a family's drive that its value matrix cannot change.

    Built from the base schedule, its slots, its delay slot and the
    model; it reads no value. Its arrays are read-only, so one plan
    serves every thread that binds it.
    """

    __slots__ = (
        "duration",
        "starts",
        "channels",
        "timelines",
        "steps",
        "envelope",
        "idle",
        "dt",
        "brought",
    )

    def __init__(
        self, family: ScheduleFamily, model: SystemModel, channels: Sequence[str]
    ) -> None:
        items = family.base._items
        duration = family.base.duration
        slot = {(pos, fld): col for pos, fld, col in family.slots}
        idle = family.idle
        moving = idle.shifted if idle is not None else frozenset()
        events: list[int] = []
        plays_at: list[int] = []
        breaks: dict[tuple[str, str], set[int]] = {}
        for pos, item in enumerate(items):
            ins = item.instruction
            if isinstance(ins, Play):
                plays_at.append(pos)
            elif isinstance(ins, _FRAME_EVENTS):
                events.append(pos)
                points = breaks.setdefault((ins.port.name, ins.frame.name), {0})
                if item.t0 < duration:
                    points.add(item.t0)
        timelines: dict[tuple[str, str], _Timeline] = {}

        def timeline(port, frame) -> _Timeline:
            key = (port.name, frame.name)
            tl = timelines.get(key)
            if tl is None:
                tl = timelines[key] = _Timeline(sorted(breaks.get(key, (0,))), frame)
            return tl

        # Pass 1: frame events, in time order, the ones a delay slot
        # moves after the ones it keeps; between them, the carrier
        # frequencies over the inserted idle samples. An event at t0
        # updates every segment from its breakpoint on (none past the
        # schedule).
        events.sort(key=lambda i: (i in moving, items[i].t0, items[i].seq))
        kept = sum(pos not in moving for pos in events)
        for i, pos in enumerate(events + [None]):
            if i == kept and moving and duration:
                at = min(idle.cut, duration - 1)
                for tl in timelines.values():
                    tl.window = (len(tl.freq_events), bisect_right(tl.points, at) - 1)
            if pos is None:
                break
            item = items[pos]
            ins = item.instruction
            tl = timeline(ins.port, ins.frame)
            s = bisect_left(tl.points, item.t0)

            def event(fld: str, add: bool) -> tuple:
                return (add, s, getattr(ins, fld), slot.get((pos, fld)))

            if isinstance(ins, SetFrequency):
                tl.freq_events.append(event("frequency", False))
            elif isinstance(ins, ShiftFrequency):
                tl.freq_events.append(event("delta", True))
            elif isinstance(ins, SetPhase):
                tl.phase_events.append(event("phase", False))
            elif isinstance(ins, ShiftPhase):
                tl.phase_events.append(event("delta", True))
            elif isinstance(ins, FrameChange):
                tl.freq_events.append(event("frequency", False))
                tl.phase_events.append(event("phase", False))

        # Pass 2: the plays and the candidate run starts they bring.
        # *starts* holds those of every member at its reference; a
        # timeline a slot may detune brings all its plays' samples.
        col = {name: j for j, name in enumerate(channels)}
        plays: list[_Play] = []
        shapes: list[np.ndarray] = []
        offset = 0
        starts = {0, idle.cut if idle is not None else 0}
        every: dict[_Timeline, set[int]] = {}
        for pos in plays_at:
            item = items[pos]
            ins = item.instruction
            if ins.port.name not in model.channels:
                if ins.port.kind is PortKind.READOUT:
                    # Readout stimulus tones do not enter the qubit
                    # Hamiltonian; their effect is the measurement model.
                    continue
                raise ExecutionError(
                    f"schedule plays on port {ins.port.name!r} which has no "
                    f"channel coupling in the system model"
                )
            tl = timeline(ins.port, ins.frame)
            if tl.reference is None:
                reference = model.channels[ins.port.name].reference_frequency
                tl.seal(reference, duration, model.dt)
            t0, t1 = item.t0, item.t1
            scale = slot.get((pos, SCALE))
            shape = (ins.waveform if scale is None else ins.waveform.base).samples()
            shapes.append(shape)
            if tl.psi is not None:
                # Detuned: the carrier phase advances every sample.
                starts.update(range(t0, t1 + 1))
            else:
                if len(tl.points) > 1:
                    starts.update(t for t in tl.points if t0 < t < t1)
                starts.update((t0, t1))
                if tl.freq_events is not None:
                    every.setdefault(tl, set()).update(range(t0, t1 + 1))
            plays.append(_Play(pos, item, col[ins.port.name], tl, offset - t0, scale))
            offset += t1 - t0
        # Every sample where a play's shape changes, found at once in
        # the concatenated shapes (for an amplitude slot, the base's).
        shapes = np.concatenate(shapes) if shapes else np.zeros(0, complex)
        changes = np.flatnonzero(shapes[1:] != shapes[:-1]) + 1
        if len(plays) > 1 and len(changes):
            firsts = np.array([p.t0 + p.lag for p in plays])
            owner = np.searchsorted(firsts, changes, side="right") - 1
            inner = changes != firsts[owner]  # else between two plays
            lag = np.array([p.lag for p in plays])[owner[inner]]
            changes = changes[inner] - lag
        elif plays:
            changes = changes - plays[0].lag
        starts.update(changes.tolist())
        flat = set(starts)
        for brought in every.values():
            starts |= brought
        starts = sorted(starts)
        self.starts = starts = starts[: bisect_left(starts, duration)]
        candidates = np.array(starts, dtype=np.int64)
        # Which candidates each member-set brings, for a one-member
        # family (see _single_products): at the reference, and per
        # timeline a slot may detune.
        self.brought = None
        if every:
            self.brought = (
                _frozen(np.isin(candidates, list(flat))),
                {tl: _frozen(np.isin(candidates, list(t))) for tl, t in every.items()},
            )

        # Pass 3: the steps. A play that shares no sample with another
        # play on its channel writes drive and envelope entries no
        # other play writes, so it joins the other such plays of its
        # (channel, timeline); the others keep their own step, in order.
        overlapping = _overlapping(plays)
        ends = [0] * len(col)  # where each channel's plays so far end
        groups: dict[tuple, list] = {}
        members: list[tuple[list, bool]] = []
        for i, play in enumerate(plays):
            cover = play.t0 < ends[play.channel]
            ends[play.channel] = max(ends[play.channel], play.t1)
            if i in overlapping:
                members.append(([play], cover))
                continue
            moved = play.pos in moving
            key = (play.timeline, moved, play.scale, play.frame if moved else None)
            group = groups.get(key)
            if group is None:
                group = groups[key] = []
                members.append((group, False))
            group.append(play)
        self.steps = tuple(
            self._step(group, cover, starts, candidates, shapes, moving)
            for group, cover in members
        )
        self.timelines = tuple(
            dict.fromkeys(s.timeline for s in self.steps if s.term is None)
        )
        self.duration = duration
        self.channels = len(col)
        self.idle = idle
        self.dt = model.dt
        self.envelope = None
        if not any(fld == SCALE for _, fld, _ in family.slots):
            # The envelope reads no value: one row serves the family.
            envelope = np.zeros((1, len(starts), len(col)))
            for step in self.steps:
                _write_magnitudes(envelope, step, step.magnitudes)
            self.envelope = _frozen(envelope)

    @staticmethod
    def _step(plays: list, cover: bool, starts, candidates, shapes, moving) -> _Step:
        step = _Step()
        first = plays[0]
        tl = step.timeline = first.timeline
        step.channel = first.channel
        step.cover = cover
        step.scale = first.scale
        step.moved = first.pos in moving
        step.frame = first.frame
        spans = []
        offset = 0
        for p in plays:
            lo, hi = bisect_left(starts, p.t0), bisect_left(starts, p.t1)
            spans.append((offset, lo, hi))
            offset += hi - lo
        step.spans = tuple(spans)
        step.singles = [(o, 1) for o, lo, hi in spans if hi - lo == 1]
        lo, hi = spans[0][1], spans[-1][2]
        if all(a[2] == b[1] for a, b in zip(spans, spans[1:])):
            rows = slice(lo, hi)  # one stretch of candidates
        else:
            rows = np.concatenate([np.arange(lo, hi) for _, lo, hi in spans])
        at = candidates[rows]
        lags = [p.lag for p in plays]
        sizes = [hi - lo for _, lo, hi in spans]
        samples = shapes[at + (lags[0] if len(lags) == 1 else np.repeat(lags, sizes))]
        static = None
        if len(tl.points) > 1:  # else one column serves every sample
            static = _frozen(np.searchsorted(tl.points, at, side="right") - 1)
        step.rows = rows if isinstance(rows, slice) else _frozen(rows)
        step.at = _frozen(at)
        if isinstance(rows, slice) and at[-1] - at[0] == len(at) - 1:
            step.at = slice(int(at[0]), int(at[-1]) + 1)  # every sample
        step.static = static
        step.samples = _frozen(samples)
        step.magnitudes = None if step.scale is not None else _frozen(np.abs(samples))
        step.wave = step.term = step.term1 = None
        if (
            tl.freq_events is None
            and tl.phase_events is None
            and step.scale is None
            and not step.moved
        ):
            # Nothing here reads a value: the drive term is fixed.
            phase = tl.phase if static is None else tl.phase[:, static]
            # psi is exactly 0 on a frame at the reference.
            phase = (0.0 if tl.psi is None else tl.psi[:, step.at]) + phase
            wave = step.wave = _frozen(np.exp(1j * phase))
            # Both 2-D: the vector loop, what a K-member family takes.
            step.term = _frozen(samples[None] * wave)
            if step.singles:
                term1 = step.term.copy()
                _single_products(term1, samples, wave, step.singles)
                step.term1 = _frozen(term1)
        return step

    def _singles(self, bound: dict) -> np.ndarray | None:
        """For a one-member family, which candidates its own evaluation
        would take: ``None`` when all of them, else a mask (a timeline
        whose slotted frequency stays at the reference brings only the
        candidates a fixed one would)."""
        if self.brought is None:
            return None
        flat, every = self.brought
        detuned = [mask for tl, mask in every.items() if bound[tl][1] is not None]
        if len(detuned) == len(every):
            return None
        return np.logical_or.reduce([flat, *detuned])

    def bind(self, values: np.ndarray) -> tuple:
        """The runs of the family whose ``(K, P)`` value matrix is
        *values*: ``(runs, rows, magnitudes, evaluated)`` as
        :func:`drive_runs` returns them."""
        k = len(values)
        bound = {tl: tl.bind(values) for tl in self.timelines}
        keep = self._singles(bound) if k == 1 else None
        extra = self.idle.extra(values) if self.idle is not None else None
        shifting = extra is not None and bool(extra.any())
        m = len(self.starts)
        drives = np.zeros((k, m, self.channels), dtype=np.complex128)
        envelope = self.envelope
        if envelope is None:  # an amplitude slot scales it per member
            envelope = np.zeros((k, m, self.channels))
        for step in self.steps:
            rows, c = step.rows, step.channel
            singles = None
            if k == 1 and step.scale is None:
                singles = step.singles
                if keep is not None:
                    singles = [
                        (o, hi - lo)
                        for o, lo, hi in step.spans
                        if np.count_nonzero(keep[lo:hi]) == 1
                    ]
            samples = step.samples
            if step.term is not None:
                term = step.term
                if singles and keep is None:
                    term = step.term1
                elif singles:
                    term = term.copy()
                    _single_products(term, samples, step.wave, singles)
                magnitudes = step.magnitudes
            else:
                phase, psi, carrier = bound[step.timeline]
                if step.static is not None:
                    phase = phase[:, step.static]
                # psi is exactly 0 on a frame at the reference.
                phase = (0.0 if psi is None else psi[:, step.at]) + phase
                if step.moved and shifting:
                    # The timeline's carrier over the idle samples, or
                    # the play's frame when no kept event wrote one.
                    f_window = step.frame if carrier is None else carrier
                    offset = _TWO_PI * self.dt * (f_window - step.timeline.reference)
                    phase = phase + (offset * extra)[:, None]
                if step.scale is not None:
                    samples = samples * values[:, step.scale, None]
                wave = np.exp(1j * phase)
                term = samples * wave
                if singles:
                    _single_products(term, samples, wave, singles)
                magnitudes = step.magnitudes if step.scale is None else np.abs(samples)
            drives[:, rows, c] += term
            if envelope is not self.envelope:
                _write_magnitudes(envelope, step, magnitudes)

        merged = [first for first, _ in segment_runs(drives.transpose(1, 0, 2))]
        bounds = [self.starts[i] for i in merged] + [self.duration]
        runs = [(a, b - a) for a, b in zip(bounds, bounds[1:])]
        return (
            runs,
            drives[:, merged].transpose(1, 0, 2),
            envelope[:, merged].transpose(1, 0, 2),
            k * m,
        )


class DrivePlans:
    """The :class:`DrivePlan` of each template one model runs.

    A plan is memoised per ``(base, base._seq, slots, idle, channels)``:
    the same base schedule with the same slots plans once, and placing
    an item on it (which bumps ``_seq``) plans it again. Bases are held
    weakly, so a template that is refreshed or dropped takes its plans
    with it. Thread-safe; ``stats()`` has the uniform cache shape.
    """

    def __init__(self) -> None:
        self._plans: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._lock = threading.Lock()
        self.stats = CacheStats(
            self.__len__, lambda: None, hits=0, misses=0, evictions=0
        )
        REGISTRY.register_cache(
            REGISTRY.autoname("drive-plan"), self, kind="drive-plan"
        )

    def __len__(self) -> int:
        with self._lock:
            return sum(len(plans) for _, plans in self._plans.values())

    def plan(
        self, family: ScheduleFamily, model: SystemModel, channels: Sequence[str]
    ) -> DrivePlan:
        """*family*'s plan, built on the first call for its key."""
        base = family.base
        key = (family.slots, family.idle, tuple(channels))
        with self._lock:
            seq, plans = self._plans.get(base, (None, {}))
            plan = plans.get(key) if seq == base._seq else None
            if plan is not None:
                self.stats["hits"] += 1
                return plan
        plan = DrivePlan(family, model, channels)
        with self._lock:
            self.stats["misses"] += 1
            seq, plans = self._plans.get(base, (None, {}))
            if seq != base._seq:
                self.stats["evictions"] += len(plans)
                plans = {}
                self._plans[base] = (base._seq, plans)
            plans[key] = plan
        return plan


def drive_runs(
    family: ScheduleFamily,
    model: SystemModel,
    channels: Sequence[str],
    plans: DrivePlans | None = None,
) -> tuple[list[tuple[int, int]], np.ndarray, np.ndarray, int]:
    """The constant-drive runs of a family, evaluated at their starts.

    Returns ``(runs, rows, magnitudes, evaluated)``: the ``(start,
    length)`` runs covering the base schedule, their ``(R, K,
    n_channels)`` drive rows, their ``(R, 1 or K, n_channels)``
    envelope magnitudes, and the ``K * m`` sample rows evaluated
    for the ``m`` candidate starts. *channels* names the model's
    channels in column order. *plans*, the memo of *model*'s plans,
    supplies the :class:`DrivePlan` when it holds one for the family's
    template; without it the plan is built for this call.

    The plan is the value-free half. A frame timeline is a ``(K,
    n_breakpoints)`` piecewise-constant array, with a breakpoint at
    each of its frame events, and the events apply to all members
    at once — a slotted field writes its ``values[:, column]``, any
    other the base's scalar — in time order with the set/add a
    per-sample timeline would take, so every value is bitwise the
    per-sample one. A timeline no slot writes is fixed once, as one
    row. The drive can change only at a candidate start: 0, the
    delay-slot cut, the ends of every play, every sample where a
    play's shape changes (for an amplitude slot, the base shape),
    every timeline breakpoint inside a play, and every sample of a
    play whose frame may be detuned from the channel's reference
    (a slotted frequency, or a fixed one off the reference), where
    the carrier phase advances each sample (one exclusive cumsum per
    such timeline). Extra candidates a slotted frequency brings for
    members at the reference repeat their neighbours exactly.

    The bind evaluates the drive and envelope rows at the
    candidates only, and :func:`~repro.sim.evolve.segment_runs`
    merges equal neighbours: every sample between two candidates
    equals the one before it, so these are the runs of the whole
    per-sample stack. A modulated sample is the envelope sample
    times ``exp(1j * phase)``; an amplitude slot scales the play's
    shape by its column. The plays on one (channel, timeline) that
    share no sample with another play on the channel are one gather,
    one ``exp`` and one ``+=`` into the zeroed stack (a fixed one is
    evaluated in the plan); overlapping plays add in schedule order.

    A delay slot (:class:`~repro.core.schedule.IdleSlot`) is
    planned at the base's length: its members' extra idle samples
    are inserted at the cut by :func:`insert_idle`. The frame
    events that stay run before the ones that move, as in every
    longer member, and each moved play carries the carrier phase
    its frame accumulates over the inserted samples, ``2 pi
    (f_frame - f_ref) extra_k dt``.

    The magnitudes are the drive's ``|a|`` taken from the envelope
    before modulation — members share their plays, so one row
    serves the family unless an amplitude slot scales it per
    member, and it is bitwise independent of the frame phase
    (``abs`` of the modulated sample is not). Where two plays
    overlap on one channel it reads ``-1``: their sum has no single
    phase to factor out.
    """
    if plans is None:
        plan = DrivePlan(family, model, channels)
    else:
        plan = plans.plan(family, model, channels)
    return plan.bind(family.values)


def insert_idle(family: ScheduleFamily, runs: list, rows, mags, steps):
    """The plan ``(rows, mags, steps)`` of *family* with its delay
    slot's idle run inserted at the cut.

    The run holding the cut is split there (splitting a constant
    run is exact up to rounding); the inserted run is drift only,
    and its ``(K,)`` steps are each member's extra idle samples.
    """
    extra = family.idle.extra(family.values)
    if not extra.any():
        return rows, mags, steps
    cut = family.idle.cut
    at = len(runs)
    for r, (start, n) in enumerate(runs):
        if start <= cut < start + n:
            at = r
            if start < cut:  # split: the run's head, then its tail
                rows = np.insert(rows, r, rows[r], axis=0)
                mags = np.insert(mags, r, mags[r], axis=0)
                steps = np.insert(steps, r, cut - start, axis=0)
                steps[r + 1] = start + n - cut
                at = r + 1
            break
    k = len(family)
    steps = np.insert(np.broadcast_to(steps, (len(steps), k)), at, extra, axis=0)
    rows = np.insert(rows, at, 0.0, axis=0)
    mags = np.insert(mags, at, 0.0, axis=0)
    return rows, mags, steps
