"""The held prefix state: a template's value-free leading runs evolve once.

A drive plan's prefix is its leading runs before the first candidate a
slot can move. The executor keeps, on the plan, the state those runs
leave (per working dtype, and apart for one-member families), and a
later call whose leading runs are the prefix starts every member there.
These tests bind one template twice, a miss and then a hit, and hold
each call, bit for bit, against the same family on a fresh executor
that shares the warm ``PropagatorCache`` but holds no state: generated
templates (the ``test_run_planner`` families behind a drawn fixed head)
and hand-built ones for each case the prefix must get right: every slot
kind, chirps inside the prefix and across its end, a value that merges
the first slotted run into the last prefix run, a slot-free family,
complex64, and a caller's initial state.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_bound_batch import DEVICES, GRANULARITY
from test_phase_covariance import SC, angles, envelopes, unit
from test_run_planner import PROFILE, planned_families, value_matrices

from repro.core import (
    Play,
    PulseSchedule,
    SampledWaveform,
    ScaledWaveform,
    SetFrequency,
    ShiftPhase,
    constant_waveform,
)
from repro.core.instructions import Capture, Delay
from repro.core.schedule import DURATION, SCALE, IdleSlot, ScheduleFamily
from repro.sim.executor import ScheduleExecutor
from repro.sim.precision import use_dtype
from repro.sim.runs import drive_runs


def fresh(executor: ScheduleExecutor) -> ScheduleExecutor:
    """An executor of *executor*'s model sharing its propagator cache,
    with no plan and no held state."""
    return ScheduleExecutor(
        executor.model, executor.readout, propagator_cache=executor.propagator_cache
    )


def assert_matches(executor, family, **kwargs) -> None:
    """*family* on *executor* equals it on a fresh executor, bitwise:
    final states, and the counts drawn from the call's streams."""
    kwargs.setdefault("seed", 0)
    got = executor.execute_batch(family, **kwargs).families[0]
    want = fresh(executor).execute_batch(family, **kwargs).families[0]
    assert got.final_states.dtype == want.final_states.dtype
    assert got.final_states.tobytes() == want.final_states.tobytes()
    assert got.counts == want.counts


def held(executor) -> tuple[int, int, int]:
    stats = executor.drive_plans.snapshots.stats()
    return stats["hits"], stats["misses"], stats["size"]


def leads(executor, family: ScheduleFamily) -> int:
    """1 when a call of *family* looks up its plan's prefix state: its
    bound runs open with the prefix (a drawn value may merge the first
    slotted run into the last prefix run); else 0."""
    channels = executor._channel_names
    runs = drive_runs(family, executor.model, channels, executor.drive_plans)[0]
    plan = executor.drive_plans.plan(family, executor.model, channels)
    return int(plan.leading(runs, len(family)) > 0)


def with_head(device, family: ScheduleFamily, head: list) -> ScheduleFamily:
    """*family* behind the fixed instructions *head*, an 8-sample idle
    on every drive and a barrier: its items, slots and delay slot move
    past them."""
    n = min(2, device.config.num_sites)
    ports = [device.drive_port(q) for q in range(n)] + [device.readout_port(0)]
    base = PulseSchedule("prefixed")
    for instruction in head:
        base.append(instruction)
    for port in ports[:n]:
        base.append(Delay(port, 8))
    base.barrier(*ports)
    shift, first = base.duration, len(base._items)
    for item in family.base._items:
        base._place(item.t0 + shift, item.instruction)
    slots = [(pos + first, fld, col) for pos, fld, col in family.slots]
    idle = family.idle
    if idle is not None:
        moved = frozenset(pos + first for pos in idle.shifted)
        idle = IdleSlot(idle.column, idle.cut + shift, moved)
    return ScheduleFamily(base, slots, family.values, idle)


@st.composite
def heads(draw, device):
    """Fixed plays and phase shifts on the drive ports, and sometimes a
    constant play on a frame a fixed frequency detunes (a chirped run,
    and a carrier phase the template's plays on that frame carry on)."""
    n = min(2, device.config.num_sites)
    out = []
    for _ in range(draw(st.integers(1, 3))):
        port = device.drive_port(draw(st.integers(0, n - 1)))
        frame = device.default_frame(port)
        kind = draw(st.sampled_from(["play", "shift_phase", "detuned"]))
        if kind == "play":
            shape = SC["amplitude"] * draw(envelopes(SC["max_len"]))
            out.append(Play(port, frame, SampledWaveform(shape)))
        elif kind == "shift_phase":
            out.append(ShiftPhase(port, frame, draw(angles)))
        else:
            detuned = frame.frequency + SC["detuning"] * draw(unit)
            out.append(SetFrequency(port, frame, detuned))
            length = draw(st.integers(2, 8))
            out.append(Play(port, frame, constant_waveform(length, 0.3)))
    return out


@pytest.mark.parametrize("name", sorted(DEVICES))
@PROFILE
@given(data=st.data())
def test_a_held_prefix_gives_a_full_evolutions_bits(name, data):
    device = DEVICES[name]()
    family = data.draw(planned_families(device))
    family = with_head(device, family, data.draw(heads(device)))
    executor = device.executor
    first = leads(executor, family)
    assert_matches(executor, family, shots=0)  # evolves and keeps the prefix
    assert held(executor) == (0, first, first)
    values = data.draw(value_matrices(family, device))
    again = ScheduleFamily(family.base, family.slots, values, family.idle)
    second = leads(executor, again)
    assert_matches(executor, again, shots=0)  # starts past it
    # A one-member family keeps its state apart.
    hit = first & second & ((len(family) == 1) == (len(again) == 1))
    assert held(executor) == (hit, first + second - hit, first + second - hit)


# ---- hand-built templates ---------------------------------------------------------


def template(device, kind: str, detuned: bool) -> tuple:
    """A measured template whose head (plays, a fixed phase, optionally
    a constant play on a detuned frame) ends before one slot of *kind*
    on drive 0, followed by plays; and a function drawing its ``(K,
    P)`` values."""
    port, acquire = device.drive_port(0), device.acquire_port(0)
    frame = device.default_frame(port)
    base = PulseSchedule(kind)
    base.append(Play(port, frame, SampledWaveform(0.3 * np.hanning(8) + 0.05j)))
    base.append(ShiftPhase(port, frame, 0.7))
    if detuned:
        base.append(SetFrequency(port, frame, frame.frequency + 0.4 * SC["detuning"]))
    base.append(Play(port, frame, constant_waveform(16, 0.2)))
    if kind == "phase":
        slot = base.append(ShiftPhase(port, frame, 0.0))
        fld = "delta"
    elif kind == "frequency":
        slot = base.append(SetFrequency(port, frame, frame.frequency))
        fld = "frequency"
    elif kind == "amplitude":
        shape = SampledWaveform(0.4 * np.hanning(16) + 0.1j)
        slot = base.append(Play(port, frame, ScaledWaveform(shape, 1.0)))
        fld = SCALE
    else:
        slot = base.append(Delay(port, 0))
        fld = DURATION
    position = first = len(base._items)
    position -= 1
    base.append(Play(port, frame, constant_waveform(16, 0.25)))
    base.append(Play(port, frame, SampledWaveform(0.2 * np.hanning(8))))
    base.barrier(port, acquire)
    base.append(Capture(acquire, device.default_frame(acquire), 0, 8))
    idle = None
    if kind == "delay":
        idle = IdleSlot(0, slot.t0, frozenset(range(first, len(base._items))))

    def values(rng, k):
        if kind == "phase":
            column = rng.uniform(-np.pi, np.pi, k)
        elif kind == "frequency":
            column = frame.frequency + SC["detuning"] * rng.uniform(-1, 1, k)
        elif kind == "amplitude":
            column = rng.uniform(0.5, 1.0, k)
        else:
            column = GRANULARITY * rng.integers(0, 4, k)
        return np.asarray(column, dtype=np.float64)[:, None]

    def family(column):
        return ScheduleFamily(base, [(position, fld, 0)], column, idle)

    return family, values


@pytest.mark.parametrize("dtype", ["complex128", "complex64"])
@pytest.mark.parametrize("name", ["sc2-closed", "sc2-lindblad"])
@pytest.mark.parametrize("detuned", [False, True])
@pytest.mark.parametrize("kind", ["phase", "frequency", "amplitude", "delay"])
def test_every_slot_kind_starts_past_its_prefix(kind, detuned, name, dtype):
    device = DEVICES[name]()
    executor = device.executor
    family, values = template(device, kind, detuned)
    rng = np.random.default_rng(3)
    with use_dtype(dtype):
        assert_matches(executor, family(values(rng, 3)), shots=64, seed=1)
        assert held(executor) == (0, 1, 1)
        assert_matches(executor, family(values(rng, 4)), shots=64, seed=2)
        assert held(executor) == (1, 1, 1)


def test_a_chirp_across_the_heads_end_stays_out_of_the_prefix():
    """A constant play on a detuned frame ends the head and another
    continues it after a slotted phase: at phase 0 the two are one
    chirped run, so the prefix ends before the first."""
    device = DEVICES["sc1-closed"]()
    port = device.drive_port(0)
    frame = device.default_frame(port)
    base = PulseSchedule("across")
    base.append(Play(port, frame, constant_waveform(8, 0.3)))
    base.append(SetFrequency(port, frame, frame.frequency + 0.3 * SC["detuning"]))
    base.append(Play(port, frame, constant_waveform(16, 0.2)))
    base.append(ShiftPhase(port, frame, 0.0))
    base.append(Play(port, frame, constant_waveform(16, 0.2)))
    executor = device.executor
    for column in ([0.4, -0.9], [0.0, 0.0], [0.0, 0.0]):
        values = np.array(column)[:, None]
        assert_matches(executor, ScheduleFamily(base, [(3, "delta", 0)], values))
    assert held(executor) == (2, 1, 1)


def test_a_value_that_merges_into_the_prefix_takes_the_full_path():
    """A zero phase shift between two equal plays merges the slotted
    run into the head's last run: that call's runs are not the prefix,
    so it evolves from the start and looks nothing up."""
    device = DEVICES["sc2-lindblad"]()
    port = device.drive_port(0)
    frame = device.default_frame(port)
    base = PulseSchedule("merging")
    base.append(Play(port, frame, SampledWaveform(0.3 * np.hanning(8))))
    base.append(Play(port, frame, constant_waveform(16, 0.2)))
    base.append(ShiftPhase(port, frame, 0.0))
    base.append(Play(port, frame, constant_waveform(16, 0.2)))
    executor = device.executor

    def family(column):
        return ScheduleFamily(base, [(2, "delta", 0)], np.array(column)[:, None])

    assert_matches(executor, family([0.5, 1.0, 1.5]))
    assert held(executor) == (0, 1, 1)
    assert_matches(executor, family([0.0, 0.0, 0.0]))
    assert held(executor) == (0, 1, 1)
    assert_matches(executor, family([0.5, 0.0, 0.0]))
    assert held(executor) == (1, 1, 1)


@pytest.mark.parametrize("name", ["sc2-closed", "sc2-lindblad"])
def test_a_slot_free_family_skips_its_evolution(name):
    """Every run of a slot-free family is its prefix: a warm call
    evolves nothing, and each call's shots still come from its own
    streams."""
    device = DEVICES[name]()
    family, values = template(device, "phase", True)
    schedule = family(values(np.random.default_rng(0), 1)).member(0)
    executor = device.executor
    built = []
    real = executor._run_hamiltonians_stack

    def spy(rows):
        built.append(len(rows))
        return real(rows)

    executor._run_hamiltonians_stack = spy
    for seed in (4, 5):
        assert_matches(executor, ScheduleFamily.repeated(schedule, 3), seed=seed)
    assert held(executor) == (1, 1, 1)
    assert len(built) == 1  # the first call only
    # One member of the same base: its own state (one-candidate plays
    # take NumPy's scalar product there).
    for seed in (6, 7):
        got = executor.execute(schedule, seed=seed)
        want = fresh(executor).execute(schedule, seed=seed)
        assert got.final_state.tobytes() == want.final_state.tobytes()
        assert got.counts == want.counts
    assert held(executor) == (2, 2, 2)


def test_a_caller_initial_state_bypasses_the_held_state():
    device = DEVICES["sc2-closed"]()
    executor = device.executor
    family, values = template(device, "amplitude", False)
    rng = np.random.default_rng(8)
    assert_matches(executor, family(values(rng, 3)))
    d = device.model.dimension
    psi = np.zeros(d, dtype=complex)
    psi[1] = 1.0
    for _ in range(2):
        assert_matches(executor, family(values(rng, 3)), initial_state=psi)
    assert held(executor) == (0, 1, 1)


def test_a_state_held_in_one_dtype_is_not_read_in_another():
    device = DEVICES["sc2-lindblad"]()
    executor = device.executor
    family, values = template(device, "phase", True)
    rng = np.random.default_rng(9)
    assert_matches(executor, family(values(rng, 3)))
    with use_dtype("complex64"):
        assert_matches(executor, family(values(rng, 3)))
        assert held(executor) == (0, 2, 2)
        assert_matches(executor, family(values(rng, 3)))
    assert held(executor) == (1, 2, 2)


def test_a_one_member_family_with_a_slotted_frequency_holds_no_state():
    """One member evaluates a play's one-candidate spans with NumPy's
    scalar product, and which spans those are depends on whether its
    slotted frequency detunes it: such a family looks nothing up."""
    device = DEVICES["sc2-closed"]()
    executor = device.executor
    family, _ = template(device, "frequency", True)
    frequency = device.default_frame(device.drive_port(0)).frequency
    for offset in (0.0, 0.3, 0.0, -0.2):
        column = np.array([[frequency + offset * SC["detuning"]]])
        assert_matches(executor, family(column))
    assert held(executor) == (0, 0, 0)
