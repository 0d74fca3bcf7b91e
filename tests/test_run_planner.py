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

A plan is value-free: the executor memoises it per template
(``DrivePlans``) and binds each call's value matrix against it. The
reuse tests bind a memoised plan with a second value matrix and hold
the result, bit for bit, against a cold plan of a fresh copy of the
base; placing an item on a planned base plans it again.
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
from repro.devices import SuperconductingDevice
from repro.primitives import Estimator
from repro.sim.runs import DrivePlans, drive_runs, insert_idle

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


# ---- a memoised plan binds what a cold plan gives ------------------------------------


@st.composite
def value_matrices(draw, family, device):
    """A second ``(k, P)`` value matrix for *family*'s slots, of 1 to 5
    rows: each column drawn the way ``planned_families`` draws it, and
    a slotted carrier frequency sometimes left at its frame's value."""
    k = draw(st.integers(1, 5))
    values = np.zeros((k, family.values.shape[1]))
    detuning = SC["detuning"]
    for pos, fld, col in family.slots:
        ins = family.base._items[pos].instruction
        if fld == DURATION:
            ticks = [draw(st.integers(0, 4)) for _ in range(k)]
            values[:, col] = [GRANULARITY * t for t in ticks]
        elif fld == SCALE:
            values[:, col] = [draw(unit) for _ in range(k)]
        elif isinstance(ins, (ShiftPhase, SetPhase)):
            values[:, col] = [draw(angles) for _ in range(k)]
        elif draw(st.booleans()):  # at the frame's frequency
            values[:, col] = 0.0 if fld == "delta" else ins.frame.frequency
        else:
            offset = 0.0 if fld == "delta" else ins.frame.frequency
            values[:, col] = [offset + detuning * draw(unit) for _ in range(k)]
    return values


def assert_bitwise(got, want) -> None:
    (runs, rows, mags, evaluated), (runs0, rows0, mags0, evaluated0) = got, want
    assert runs == runs0 and evaluated == evaluated0
    assert rows.shape == rows0.shape and rows.tobytes() == rows0.tobytes()
    assert mags.shape == mags0.shape and mags.tobytes() == mags0.tobytes()


def cold_runs(family, model, plans):
    """*family*'s runs from a fresh copy of its base, which *plans*
    has never seen."""
    base = family.base.clone_with_items(list(family.base._items))
    fresh = ScheduleFamily(base, family.slots, family.values, family.idle)
    return drive_runs(fresh, model, sorted(model.channels), plans)


def assert_reuse(family, values, model) -> None:
    """Plan *family*, bind the memoised plan with *values*, and hold it
    against a cold plan of a copy of the base bound with them."""
    channels = sorted(model.channels)
    plans = DrivePlans()
    drive_runs(family, model, channels, plans)
    again = ScheduleFamily(family.base, family.slots, values, family.idle)
    reused = drive_runs(again, model, channels, plans)
    assert plans.stats() == {
        "hits": 1, "misses": 1, "evictions": 0, "size": 1, "capacity": None
    }
    assert_bitwise(reused, cold_runs(again, model, plans))
    assert plans.stats["misses"] == 2  # the copy planned again


@pytest.mark.parametrize("name", sorted(DEVICES))
@PROFILE
@given(data=st.data())
def test_a_memoised_plan_binds_a_second_matrix_as_a_cold_plan(name, data):
    device = DEVICES[name]()
    family = data.draw(planned_families(device))
    assert_reuse(family, data.draw(value_matrices(family, device)), device.model)


def every_feature(device) -> ScheduleFamily:
    """A template with every slot and play arrangement the planner
    handles: a readout play, a slotted ``ShiftPhase`` and
    ``SetFrequency``, a play scaled by an amplitude column, a play
    overlapping it, and after a barrier a delay slot followed by a
    slotted ``ShiftFrequency`` and a play. Its one-row value matrix
    is all neutral."""
    port, readout = device.drive_port(0), device.readout_port(0)
    frame = device.default_frame(port)
    base = PulseSchedule("every-feature")
    base.append(Play(readout, device.default_frame(readout), constant_waveform(12, 0.3)))
    base.append(ShiftPhase(port, frame, 0.0))
    base.append(SetFrequency(port, frame, frame.frequency))
    shape = SampledWaveform(0.4 * np.hanning(8) + 0.1j)
    scaled = base.append(Play(port, frame, ScaledWaveform(shape, 1.0)))
    base._place(scaled.t0 + 3, Play(port, frame, constant_waveform(8, 0.2)))
    base.barrier(port, readout)
    delay = base.append(Delay(port, 0))
    base.append(ShiftFrequency(port, frame, 0.0))
    base.append(Play(port, frame, constant_waveform(8, 0.3)))
    slots = [(1, "delta", 0), (2, "frequency", 1), (3, SCALE, 2)]
    slots += [(6, DURATION, 3), (7, "delta", 4)]
    idle = IdleSlot(3, delay.t0, frozenset({7, 8}))
    values = np.array([[0.0, frame.frequency, 1.0, 0.0, 0.0]])
    return ScheduleFamily(base, slots, values, idle)


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("detuned", [False, True])
def test_every_feature_binds_a_second_matrix_as_a_cold_plan(k, detuned):
    device = DEVICES["sc1-closed"]()
    family = every_feature(device)
    frequency = family.values[0, 1]
    rng = np.random.default_rng(k)
    detunings = SC["detuning"] * rng.uniform(-1, 1, (2, k)) * detuned
    values = np.column_stack(
        [
            rng.uniform(-np.pi, np.pi, k),
            frequency + detunings[0],
            rng.uniform(-1, 1, k),
            GRANULARITY * rng.integers(0, 4, k),
            detunings[1],
        ]
    )
    assert_reuse(family, values, device.model)


def test_placing_an_item_on_a_planned_base_plans_it_again():
    device = DEVICES["sc1-closed"]()
    model, channels = device.model, sorted(device.model.channels)
    family = every_feature(device)
    plans = DrivePlans()
    before = drive_runs(family, model, channels, plans)
    port = device.drive_port(0)
    end = family.base.duration
    family.base._place(end, Play(port, device.default_frame(port), constant_waveform(8, 0.1)))
    after = drive_runs(family, model, channels, plans)
    assert plans.stats["misses"] == 2 and plans.stats["evictions"] == 1
    assert sum(n for _, n in after[0]) == sum(n for _, n in before[0]) + 8
    assert_bitwise(after, cold_runs(family, model, plans))


def test_two_runs_of_one_parametric_pub_build_one_plan():
    from test_qem_families import ansatz

    device = SuperconductingDevice(num_qubits=1, drift_rate=0.0)
    estimator = Estimator(device)
    program = ansatz(device)
    rng = np.random.default_rng(0)
    for _ in range(2):
        grid = {f"theta{k}": rng.uniform(-np.pi, np.pi, 5) for k in range(4)}
        estimator.run([(program, "Z", grid)])
    stats = device.executor.drive_plans.stats()
    assert (stats["misses"], stats["hits"], stats["size"]) == (1, 1, 1)
