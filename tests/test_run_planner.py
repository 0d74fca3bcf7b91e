"""The run planner: a family's drive, evaluated at its run starts only.

``repro.sim.runs.drive_runs`` keeps each frame timeline as a
piecewise-constant ``(K, n_breakpoints)`` array and evaluates the drive
only at the samples where it can change (play ends, shape changes,
timeline breakpoints inside a play, every sample of a detuned play),
then merges equal neighbours. These generated differential tests hold
its runs, repeated by their steps, against the independent per-sample
walker ``reference_drives`` for every member of hand-built families:
slotted frame events (``ShiftPhase``, ``SetPhase``, ``ShiftFrequency``,
``SetFrequency``), plays scaled by an amplitude column, two plays
overlapping on one channel, a readout play and a delay slot.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_bound_batch import DEVICES, GRANULARITY
from test_phase_covariance import SC, angles, envelopes, unit
from test_sim_executor import reference_drives

from repro.core import (
    Play,
    PulseSchedule,
    SampledWaveform,
    ScaledWaveform,
    SetFrequency,
    SetPhase,
    ShiftFrequency,
    ShiftPhase,
    constant_waveform,
)
from repro.core.instructions import Delay
from repro.core.schedule import DURATION, SCALE, IdleSlot, ScheduleFamily
from repro.sim.runs import drive_runs, insert_idle

PROFILE = settings(derandomize=True, max_examples=12, deadline=None, database=None)

#: Per-sample reference vs runs: a moved play's carrier phase is one
#: product instead of a per-sample sum, and ``segment_runs`` merges
#: samples equal to 12 decimals.
TOL = 1e-12

_EVENTS = ("shift_phase", "set_phase", "shift_frequency", "set_frequency")


@st.composite
def _steps(draw, n_ports):
    port = st.integers(0, n_ports - 1)
    event = st.tuples(
        st.sampled_from(_EVENTS), port, unit, st.booleans(), st.integers(0, 8)
    )
    play = st.tuples(
        st.just("play"), port, envelopes(SC["max_len"]), st.booleans(), st.booleans()
    )
    return draw(st.lists(st.one_of(event, play), min_size=1, max_size=6))


@st.composite
def planned_families(draw, device, k=4):
    """A hand-built template and its ``(k, P)`` value matrix.

    Frame events and plays on up to two drive ports: each event may be
    slotted (its own column) and placed inside the port's last play,
    each play scaled by an amplitude column or placed over the port's
    last play (``append`` serializes a port, so these are placed
    directly), a readout play, and optionally a delay slot on every
    drive after a barrier, whose first member inserts no idle sample.
    """
    n = min(2, device.config.num_sites)
    ports = [device.drive_port(q) for q in range(n)]
    frames = [device.default_frame(p) for p in ports]
    base = PulseSchedule("planned")
    slots: list[tuple[int, str, int]] = []
    columns: list[list[float]] = []
    last_play: dict[int, tuple[int, int]] = {}  # port -> (t0, t1)

    def column(values) -> int:
        columns.append(list(values))
        return len(columns) - 1

    def emit(steps) -> None:
        for step in steps:
            kind, q = step[0], step[1]
            port, frame = ports[q], frames[q]
            if kind == "play":
                _, _, envelope, scaled, overlap = step
                shape = SampledWaveform(SC["amplitude"] * envelope)
                wf = ScaledWaveform(shape, 1.0) if scaled else shape
                if overlap and q in last_play:
                    base._place(last_play[q][0], Play(port, frame, wf))
                else:
                    item = base.append(Play(port, frame, wf))
                    last_play[q] = (item.t0, item.t1)
                if scaled:
                    values = [draw(unit) for _ in range(k)]
                    slots.append((len(base._items) - 1, SCALE, column(values)))
                continue
            _, _, value, slotted, inside = step
            detuning = SC["detuning"]
            make, fld, scalar, draw_value = {
                "shift_phase": (ShiftPhase, "delta", value, lambda: draw(angles)),
                "set_phase": (SetPhase, "phase", value, lambda: draw(angles)),
                "shift_frequency": (
                    ShiftFrequency,
                    "delta",
                    detuning * value,
                    lambda: detuning * draw(unit),
                ),
                "set_frequency": (
                    SetFrequency,
                    "frequency",
                    frame.frequency + detuning * value,
                    lambda: frame.frequency + detuning * draw(unit),
                ),
            }[kind]
            t0, t1 = last_play.get(q, (0, 0))
            if t0 < t0 + inside < t1:
                base._place(t0 + inside, make(port, frame, scalar))
            else:
                base.append(make(port, frame, scalar))
            if slotted:
                values = [draw_value() for _ in range(k)]
                slots.append((len(base._items) - 1, fld, column(values)))

    readout = device.readout_port(0)
    base.append(
        Play(readout, device.default_frame(readout), constant_waveform(12, 0.3))
    )
    emit(draw(_steps(n)))
    idle = None
    if draw(st.booleans()):
        base.barrier(*ports, readout)
        ticks = [0] + [draw(st.integers(0, 4)) for _ in range(k - 1)]
        col = column(GRANULARITY * t for t in ticks)
        for port in ports:
            base.append(Delay(port, 0))
            slots.append((len(base._items) - 1, DURATION, col))
        first = len(base._items)
        last_play.clear()
        emit(draw(_steps(n)))
        cut = base._items[first - 1].t0  # the delays, at length 0
        idle = IdleSlot(col, cut, frozenset(range(first, len(base._items))))
    values = np.array(columns, dtype=np.float64).T.reshape(k, len(columns))
    return ScheduleFamily(base, slots, values, idle)


@pytest.mark.parametrize("name", sorted(DEVICES))
@PROFILE
@given(data=st.data())
def test_runs_repeat_to_every_members_per_sample_drive(name, data):
    device = DEVICES[name]()
    family = data.draw(planned_families(device))
    model = device.model
    runs, rows, magnitudes, evaluated = drive_runs(
        family, model, sorted(model.channels)
    )
    k = len(family)
    duration = family.base.duration
    assert [start for start, _ in runs] == sorted({start for start, _ in runs})
    assert sum(n for _, n in runs) == duration
    assert evaluated <= k * duration
    # Maximal: no two adjacent runs are equal to 12 decimals.
    rounded = np.round(rows, 12)
    assert not np.any(np.all(rounded[1:] == rounded[:-1], axis=(1, 2)))
    # The magnitudes are |a| wherever no two plays overlap.
    magnitude = np.broadcast_to(magnitudes, rows.shape)
    single = magnitude >= 0
    assert np.abs(np.abs(rows)[single] - magnitude[single]).max(initial=0.0) < TOL
    steps = np.array([n for _, n in runs], dtype=np.int64)[:, None]
    if family.idle is not None:
        rows, _, steps = insert_idle(family, runs, rows, magnitudes, steps)
    for j in range(k):
        reference, _ = reference_drives(model, family.member(j))
        member = np.repeat(rows[:, j], steps[:, min(j, steps.shape[1] - 1)], axis=0)
        assert member.shape == reference.shape
        assert np.abs(member - reference).max(initial=0.0) < TOL
