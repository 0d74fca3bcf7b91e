"""Run planning: a schedule family's drive as runs of constant value.

The simulator evolves a pulse schedule run by run: within a run every
sample drives the Hamiltonian with the same amplitudes, so one
propagator raised to the run's length stands for the run's samples.
:func:`drive_runs` finds the runs of a
:class:`~repro.core.schedule.ScheduleFamily` — K members of one
template — without a per-sample drive: like qibolab's ``Pulse``, which
keeps a segment as one object (duration, amplitude, shape), it keeps
each frame timeline as a few breakpoints and evaluates a play only
where the drive can change. :func:`insert_idle` then adds a delay
slot's idle run, whose length differs per member.

Every value is computed with the operations a per-sample evaluation
would take, so the runs and their rows are bitwise what segmenting the
whole per-sample ``(K, T, n_channels)`` drive stack gives. A play on a
detuned frame is one run per sample here; the executor merges those
runs into one chirped run after it strips their phases
(:meth:`~repro.sim.executor.ScheduleExecutor._chirps`).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Sequence

import numpy as np

from repro.core.frame import Frame
from repro.core.instructions import (
    FrameChange,
    Play,
    SetFrequency,
    SetPhase,
    ShiftFrequency,
    ShiftPhase,
)
from repro.core.port import Port, PortKind
from repro.core.schedule import FRAME_EVENT_FIELDS, SCALE, ScheduleFamily
from repro.errors import ExecutionError
from repro.sim.evolve import segment_runs
from repro.sim.model import SystemModel

_TWO_PI = 2.0 * math.pi

#: The instructions that update a (port, frame) timeline.
_FRAME_EVENTS = tuple(FRAME_EVENT_FIELDS)


def drive_runs(
    family: ScheduleFamily, model: SystemModel, channels: Sequence[str]
) -> tuple[list[tuple[int, int]], np.ndarray, np.ndarray, int]:
    """The constant-drive runs of a family, evaluated at their starts.

    Returns ``(runs, rows, magnitudes, evaluated)``: the ``(start,
    length)`` runs covering the base schedule, their ``(R, K,
    n_channels)`` drive rows, their ``(R, 1 or K, n_channels)``
    envelope magnitudes, and the ``K * m`` sample rows evaluated
    for the ``m`` candidate starts. *channels* names the model's
    channels in column order.

    Nothing is evaluated per sample. A frame timeline is a ``(K,
    n_breakpoints)`` piecewise-constant array, with a breakpoint at
    each of its frame events, and the events apply to all members
    at once — a slotted field writes its ``values[:, column]``, any
    other the base's scalar — in time order with the set/add a
    per-sample timeline would take, so every value is bitwise the
    per-sample one. The drive can change only at a candidate start:
    0, the delay-slot cut, the ends of every play, every sample
    where a play's shape changes (for an amplitude slot, the base
    shape), every timeline breakpoint inside a play, and every
    sample of a play whose frame is detuned from the channel's
    reference, where the carrier phase advances each sample (one
    exclusive cumsum per such timeline). The drive and envelope
    rows are evaluated at the candidates only, and
    :func:`~repro.sim.evolve.segment_runs` merges equal
    neighbours: every sample between two candidates equals the one
    before it, so these are the runs of the whole per-sample stack.
    A modulated sample is the envelope sample times ``exp(1j *
    phase)``; an amplitude slot scales the play's shape by its
    column.

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
    base = family.base
    items = base._items
    k_members = len(family)
    duration = base.duration
    columns = {
        (pos, fld): family.values[:, col, None] for pos, fld, col in family.slots
    }
    idle = family.idle
    moving = idle.shifted if idle is not None else frozenset()
    window: dict[tuple[str, str], np.ndarray] | None = None
    breaks: dict[tuple[str, str], set[int]] = {}
    for item in items:
        ins = item.instruction
        if isinstance(ins, _FRAME_EVENTS):
            points = breaks.setdefault((ins.port.name, ins.frame.name), {0})
            if item.t0 < duration:
                points.add(item.t0)
    # (breakpoints, (K, n) carrier frequencies, (K, n) static phases)
    timelines: dict[tuple[str, str], tuple[list[int], np.ndarray, np.ndarray]] = {}

    def timeline(port: Port, frame: Frame):
        key = (port.name, frame.name)
        tl = timelines.get(key)
        if tl is None:
            points = sorted(breaks.get(key, (0,)))
            # float64 pinned explicitly: an integer frame
            # frequency/phase would otherwise set an integer dtype
            # and truncate every later event.
            shape = (k_members, len(points))
            tl = timelines[key] = (
                points,
                np.full(shape, frame.frequency, dtype=np.float64),
                np.full(shape, frame.phase, dtype=np.float64),
            )
        return tl

    def value(pos: int, fld: str):
        column = columns.get((pos, fld))
        if column is None:
            return getattr(items[pos].instruction, fld)
        return column

    # Pass 1: frame events, in time order (the ones a delay slot
    # moves after the ones it keeps). An event at t0 updates every
    # segment from its breakpoint on (none past the schedule).
    order = sorted(
        range(len(items)),
        key=lambda i: (i in moving, items[i].t0, items[i].seq),
    )
    for pos in order:
        item = items[pos]
        ins = item.instruction
        if window is None and pos in moving and duration:
            # Carrier frequencies over the inserted idle samples.
            at = min(idle.cut, duration - 1)
            window = {
                key: freq[:, bisect_right(points, at) - 1].copy()
                for key, (points, freq, _) in timelines.items()
            }
        if not isinstance(ins, _FRAME_EVENTS):
            continue
        points, freq, phase = timeline(ins.port, ins.frame)
        s = bisect_left(points, item.t0)
        if isinstance(ins, SetFrequency):
            freq[:, s:] = value(pos, "frequency")
        elif isinstance(ins, ShiftFrequency):
            freq[:, s:] += value(pos, "delta")
        elif isinstance(ins, SetPhase):
            phase[:, s:] = value(pos, "phase")
        elif isinstance(ins, ShiftPhase):
            phase[:, s:] += value(pos, "delta")
        elif isinstance(ins, FrameChange):
            freq[:, s:] = value(pos, "frequency")
            phase[:, s:] = value(pos, "phase")

    # Pass 2: the plays and the candidate run starts they bring.
    col = {name: j for j, name in enumerate(channels)}
    psis: dict[tuple[str, str, float], np.ndarray | None] = {}
    plays = []
    starts = {0, idle.cut if idle is not None else 0}
    for pos, item in enumerate(items):
        ins = item.instruction
        if not isinstance(ins, Play):
            continue
        if ins.port.name not in model.channels:
            if ins.port.kind is PortKind.READOUT:
                # Readout stimulus tones do not enter the qubit
                # Hamiltonian; their effect is the measurement model.
                continue
            raise ExecutionError(
                f"schedule plays on port {ins.port.name!r} which has no "
                f"channel coupling in the system model"
            )
        reference = model.channels[ins.port.name].reference_frequency
        points, freq, phase = timeline(ins.port, ins.frame)
        psi_key = (ins.port.name, ins.frame.name, reference)
        if psi_key not in psis:
            psi = None
            if (freq != reference).any():
                # Accumulated carrier phase of the detuning, per sample.
                detuning = np.repeat(freq, np.diff(points + [duration]), axis=1)
                detuning -= reference
                psi = np.cumsum(detuning, axis=1)
                psi -= detuning  # exclusive: phase *before* sample t
                psi *= _TWO_PI * model.dt
            psis[psi_key] = psi
        psi = psis[psi_key]
        t0, t1 = item.t0, item.t1
        scale = columns.get((pos, SCALE))
        shape = (ins.waveform if scale is None else ins.waveform.base).samples()
        starts.update(((shape[1:] != shape[:-1]).nonzero()[0] + t0 + 1).tolist())
        if psi is None:
            if len(points) > 1:
                starts.update(t for t in points if t0 < t < t1)
            starts.update((t0, t1))
        else:
            starts.update(range(t0, t1 + 1))
        plays.append((pos, t0, t1, ins, reference, points, phase, psi, shape, scale))
    starts = sorted(t for t in starts if t < duration)
    candidates = np.array(starts, dtype=np.int64)

    # Pass 3: every play, modulated by its frame timeline, at the
    # candidates it covers.
    drives = np.zeros((k_members, len(candidates), len(col)), dtype=np.complex128)
    scaled = any(fld == SCALE for _, fld, _ in family.slots)
    envelope = np.zeros((k_members if scaled else 1,) + drives.shape[1:])
    extra = idle.extra(family.values) if idle is not None else None
    shifting = extra is not None and bool(extra.any())
    ends = [0] * len(col)  # where each channel's plays so far end
    for pos, t0, t1, ins, reference, points, static, psi, shape, scale in plays:
        lo, hi = bisect_left(starts, t0), bisect_left(starts, t1)
        at = candidates[lo:hi]
        if len(points) > 1:  # else one (K, 1) column serves every sample
            static = static[:, np.searchsorted(points, at, side="right") - 1]
        if hi - lo == t1 - t0:  # every sample is a candidate: slice
            samples = shape
            at = slice(t0, t1)
        else:
            samples = shape[at - t0]
        # psi is exactly 0 on a frame at the reference.
        phase = (0.0 if psi is None else psi[:, at]) + static
        if pos in moving and shifting:
            f_window = (window or {}).get(
                (ins.port.name, ins.frame.name), ins.frame.frequency
            )
            offset = _TWO_PI * model.dt * (f_window - reference)
            phase = phase + (offset * extra)[:, None]
        if scale is not None:
            samples = samples * scale
        c = col[ins.port.name]
        drives[:, lo:hi, c] += samples * np.exp(1j * phase)
        if t0 < ends[c]:  # an earlier play may cover these samples
            written = envelope[:, lo:hi, c]
            samples = np.where(written != 0, -1.0, np.abs(samples))
        else:
            samples = np.abs(samples)
        envelope[:, lo:hi, c] = samples
        ends[c] = max(ends[c], t1)

    merged = [first for first, _ in segment_runs(drives.transpose(1, 0, 2))]
    bounds = [starts[i] for i in merged] + [duration]
    runs = [(a, b - a) for a, b in zip(bounds, bounds[1:])]
    return (
        runs,
        drives[:, merged].transpose(1, 0, 2),
        envelope[:, merged].transpose(1, 0, 2),
        drives.shape[0] * drives.shape[1],
    )


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
