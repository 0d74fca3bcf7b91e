"""Chirped runs: a constant play on a detuned frame evolves as one run.

On a frame detuned from its channel every sample of a play is its own
run, with propagator ``V_k P V_k^dag``: one phase-free ``P`` and phases
advancing by the same diagonal increment each sample. The executor
merges such positions into one chirped run, ``V_0 Q V_0^dag`` with
``Q = e^{i (N-1) Delta} P (e^{-i Delta} P)^{N-1}``, whose power is one
repeated squaring. The product order changes, so these tests hold every
member's final state to a tolerance, not bitwise: to 1e-12 against the
same executor stepping every sample, and against the per-sample
``expm`` reference of ``test_sim_executor``. They run the run-planner
strategies of ``test_run_planner`` and long constant plays on detuned
frames with frequency, amplitude and delay slots, on closed and Lindblad
transmons and through ``unitary()``. Each case the merge must refuse
(a channel whose phase is no symmetry, overlapping plays, a frame event
inside a play, runs longer than one sample) is checked the same way.

The module also pins the executor's other per-chunk savings: one
Hamiltonian per distinct run anywhere in a kernel chunk, drift-only
runs from one stacked multiply, and no ``numpy.ma`` import.
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_bound_batch import DEVICES, GRANULARITY
from test_phase_covariance import SC, _exchange_case, unit
from test_phase_covariance import TOL as LINDBLAD_TOL
from test_propagator_table import _segments
from test_run_planner import planned_families
from test_sim_executor import reference_final_state

import repro.sim.executor as executor_module
from repro.core import (
    Play,
    PulseSchedule,
    ScaledWaveform,
    SetFrequency,
    ShiftFrequency,
    ShiftPhase,
    constant_waveform,
)
from repro.core.instructions import Delay
from repro.core.schedule import DURATION, SCALE, IdleSlot, ScheduleFamily
from repro.devices import SuperconductingDevice
from repro.pipeline import DAG, PipelineRunner
from repro.sim import ScheduleExecutor, free_propagator, free_propagators
from repro.sim.evolve import _adjoint

PROFILE = settings(derandomize=True, max_examples=10, deadline=None, database=None)

#: The merge against the same kernel stepping every sample.
TOL = 1e-12
#: Against the per-sample ``expm`` reference. The batched Taylor
#: kernel's truncation bound is ~1e-11 per run, and the unmerged
#: per-sample path already parts from ``expm`` by up to ~1.3e-12 on
#: these families, so the reference is held at the phase-covariance
#: suite's tolerance.
REFERENCE_TOL = LINDBLAD_TOL


@st.composite
def chirped_families(draw, device, k=4, max_len=64):
    """Long constant plays on detuned frames, as a ``k``-member family.

    Every drive port gets a ``SetFrequency`` off its channel's
    reference (a frequency slot gives each member its own detuning)
    and a constant play of 9 to *max_len* samples (an amplitude slot
    scales it per member); optionally a delay slot follows, then a
    second such play on every port (a Ramsey shape, whose moved plays
    carry their member's carrier phase).
    """
    n = min(2, device.config.num_sites)
    ports = [device.drive_port(q) for q in range(n)]
    frames = [device.default_frame(p) for p in ports]
    base = PulseSchedule("chirped")
    slots: list[tuple[int, str, int]] = []
    columns: list[list[float]] = []

    def column(values) -> int:
        columns.append(list(values))
        return len(columns) - 1

    def plays() -> None:
        for port, frame in zip(ports, frames):
            detuned = frame.frequency + SC["detuning"] * draw(unit)
            base.append(SetFrequency(port, frame, detuned))
            if draw(st.booleans()):
                values = [
                    frame.frequency + SC["detuning"] * draw(unit) for _ in range(k)
                ]
                slots.append((len(base._items) - 1, "frequency", column(values)))
            shape = constant_waveform(
                draw(st.integers(9, max_len)), SC["amplitude"] * draw(unit)
            )
            if draw(st.booleans()):
                base.append(Play(port, frame, ScaledWaveform(shape, 1.0)))
                values = [draw(unit) for _ in range(k)]
                slots.append((len(base._items) - 1, SCALE, column(values)))
            else:
                base.append(Play(port, frame, shape))

    readout = device.readout_port(0)
    base.append(
        Play(readout, device.default_frame(readout), constant_waveform(12, 0.3))
    )
    plays()
    idle = None
    if draw(st.booleans()):
        base.barrier(*ports, readout)
        ticks = [0] + [draw(st.integers(0, 4)) for _ in range(k - 1)]
        col = column(GRANULARITY * t for t in ticks)
        for port in ports:
            base.append(Delay(port, 0))
            slots.append((len(base._items) - 1, DURATION, col))
        first = len(base._items)
        plays()
        cut = base._items[first - 1].t0
        idle = IdleSlot(col, cut, frozenset(range(first, len(base._items))))
    values = np.array(columns, dtype=np.float64).T.reshape(k, len(columns))
    return ScheduleFamily(base, slots, values, idle)


STRATEGIES = {"planned": planned_families, "chirped": chirped_families}


def assert_matches_reference(executor, schedules, finals):
    """Every final state (and, closed, ``unitary()`` on the ground
    state) is the per-sample ``expm`` product."""
    model = executor.model
    for schedule, final in zip(schedules, finals):
        reference = reference_final_state(model, schedule)
        assert np.abs(final - reference).max() < REFERENCE_TOL
        if not model.has_decoherence():
            u = executor.unitary(schedule)
            assert np.abs(u[:, 0] - reference).max() < REFERENCE_TOL


def _evolve(executor, family, members):
    finals = executor.execute_batch(family, shots=0).families[0].final_states
    if executor.model.has_decoherence():
        return finals, []
    return finals, [executor.unitary(m) for m in members]


def assert_matches_unmerged(executor, family):
    """The family's final states (and, closed, every member's
    ``unitary()``) equal the same executor's with no chirp merged."""
    members = [family.member(j) for j in range(len(family))]
    merged, u_merged = _evolve(executor, family, members)
    executor._chirps = lambda *args: None
    try:
        unmerged, u_unmerged = _evolve(executor, family, members)
    finally:
        del executor._chirps
    assert np.abs(merged - unmerged).max() < TOL
    for a, b in zip(u_merged, u_unmerged):
        assert np.abs(a - b).max() < TOL
    return merged


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
@pytest.mark.parametrize("name", sorted(DEVICES))
@PROFILE
@given(data=st.data())
def test_every_member_matches_the_per_sample_reference(name, strategy, data):
    device = DEVICES[name]()
    # A two-transmon Lindblad reference step is one 81x81 expm: keep
    # those plays short and check two members (the long-play test and
    # the unmerged comparison cover the rest).
    short = {"max_len": 24} if device.model.has_decoherence() else {}
    family = data.draw(
        chirped_families(device, **short)
        if strategy == "chirped"
        else planned_families(device)
    )
    executor = ScheduleExecutor(device.model)
    finals = assert_matches_unmerged(executor, family)
    if device.model.has_decoherence():
        # The unmerged comparison covers every member.
        picked = [0, len(family) - 1]
    else:
        picked = range(len(family))
    members = [family.member(j) for j in picked]
    assert_matches_reference(executor, members, finals[list(picked)])


@pytest.mark.parametrize("name", sorted(DEVICES))
@PROFILE
@given(data=st.data())
def test_long_chirps_match_the_unmerged_runs(name, data):
    """Plays of up to 400 samples, against the unmerged path only."""
    device = DEVICES[name]()
    family = data.draw(chirped_families(device, max_len=400))
    assert_matches_unmerged(ScheduleExecutor(device.model), family)


@pytest.mark.parametrize("name", sorted(DEVICES))
@PROFILE
@given(data=st.data())
def test_members_chirp_as_they_do_alone(name, data):
    """Each member merges on its own rows, so a batched member is
    bitwise the member run alone, chirps and all."""
    device = DEVICES[name]()
    family = data.draw(chirped_families(device))
    executor = ScheduleExecutor(device.model)
    batch = executor.execute_batch(family, shots=0)
    runs = _segments(executor, family)
    idle = family.idle
    extra = np.ones(len(family)) if idle is None else idle.extra(family.values)
    for k in range(len(family)):
        member = family.member(k)
        # A member whose own runs differ (one left on resonance, say)
        # merges other runs alone, and one that inserts no idle sample
        # may chirp across the cut alone (its batch keeps an identity
        # there, as it splits a run at the cut).
        own = _segments(executor, ScheduleFamily.gather([member]))
        if extra[k] and own == runs:
            alone = executor.execute(member, shots=0)
            np.testing.assert_array_equal(batch[k].final_state, alone.final_state)


def _merges(executor, schedule) -> list[int]:
    """The N of every chirped run the executor forms for *schedule*."""
    seen: list[int] = []
    real = executor._chirped

    def spy(table, index, counts, deltas, use_dm):
        seen.extend(counts[counts > 1].tolist())
        return real(table, index, counts, deltas, use_dm)

    executor._chirped = spy
    try:
        final = executor.execute(schedule, shots=0).final_state
    finally:
        del executor._chirped
    assert_matches_reference(executor, [schedule], [final])
    return seen


def _sc1(noisy=False):
    kw = {"with_decoherence": True, "t1": 20e-6, "t2": 15e-6} if noisy else {}
    device = SuperconductingDevice(num_qubits=1, drift_rate=0.0, **kw)
    port = device.drive_port(0)
    return device, port, device.default_frame(port)


@pytest.mark.parametrize("noisy", [False, True])
def test_a_detuned_constant_play_is_one_chirped_run(noisy):
    device, port, frame = _sc1(noisy)
    s = PulseSchedule("chirp")
    s.append(SetFrequency(port, frame, frame.frequency + 7.3e6))
    s.append(Play(port, frame, constant_waveform(200, 0.31)))
    assert _merges(ScheduleExecutor(device.model), s) == [200]


def test_a_channel_whose_phase_is_no_symmetry_is_not_merged():
    """Drives next to an exchange coupler keep their complex amplitude,
    which turns every sample on a detuned frame."""
    model, ports = _exchange_case(False)()
    port, frame = ports[0]
    s = PulseSchedule("exchange")
    s.append(SetFrequency(port, frame, frame.frequency + 11e6))
    s.append(Play(port, frame, constant_waveform(24, 0.4)))
    executor = ScheduleExecutor(model)
    assert not executor._phase_channels.any()
    assert _merges(executor, s) == []


def test_overlapping_plays_are_not_merged():
    """Two detuned constant plays summed on one channel read magnitude
    -1: their complex rows stay in the key and differ per sample."""
    device, port, frame = _sc1()
    s = PulseSchedule("overlap")
    s.append(SetFrequency(port, frame, frame.frequency + 9e6))
    s.append(Play(port, frame, constant_waveform(24, 0.3)))
    s._place(4, Play(port, frame, constant_waveform(12, 0.2)))
    merged = _merges(ScheduleExecutor(device.model), s)
    # Only the samples outside the overlap chirp.
    assert merged == [4, 8]


@pytest.mark.parametrize(
    "event, value, merged",
    [(ShiftPhase, 0.7, [13, 16]), (ShiftFrequency, 5e6, [14, 16])],
)
def test_a_frame_event_inside_a_play_splits_the_chirp(event, value, merged):
    """A phase step at sample 13 of a detuned play changes the
    increment into it, a frequency step the increment out of it: two
    chirps, the second starting after the changed increment (sample 14
    alone after the phase step)."""
    device, port, frame = _sc1()
    s = PulseSchedule("split")
    s.append(SetFrequency(port, frame, frame.frequency + 9e6))
    s.append(Play(port, frame, constant_waveform(30, 0.3)))
    s._place(13, event(port, frame, value))
    assert _merges(ScheduleExecutor(device.model), s) == merged


def test_runs_longer_than_one_sample_are_not_merged():
    """A resonant play stepped by equal phase shifts at uneven
    intervals: equal phase-free rows and equal increments, but runs of
    2, 3 and 1 samples, which no one-sample power stands for."""
    device, port, frame = _sc1()
    s = PulseSchedule("steps")
    s.append(Play(port, frame, constant_waveform(13, 0.3)))
    for t in (2, 5, 7, 10, 12):
        s._place(t, ShiftPhase(port, frame, 0.4))
    assert _merges(ScheduleExecutor(device.model), s) == []


def test_every_member_chirps_by_its_own_increment():
    """A frequency slot: the members' detunings differ, so one chirp
    per member, each with its own increment."""
    device, port, frame = _sc1()
    base = PulseSchedule("slot")
    base.append(SetFrequency(port, frame, frame.frequency))
    base.append(Play(port, frame, constant_waveform(40, 0.3)))
    detunings = [-3e6, 0.0, 2e6, 5e6]
    values = np.array([[frame.frequency + d] for d in detunings])
    family = ScheduleFamily(base, [(0, "frequency", 0)], values)
    executor = ScheduleExecutor(device.model)
    finals = executor.execute_batch(family, shots=0).families[0].final_states
    # The members share one |a| row: one propagator computed for all
    # four chirps (the resonant member's has Delta = 0).
    cache = executor.propagator_cache
    assert cache.misses - cache.deduped == 1
    members = [family.member(j) for j in range(len(family))]
    assert_matches_reference(executor, members, finals)


def _count_hamiltonians(monkeypatch) -> list[int]:
    built: list[int] = []
    real = executor_module.ScheduleExecutor._run_hamiltonians_stack

    def spy(self, rows):
        built.append(len(rows))
        return real(self, rows)

    monkeypatch.setattr(
        executor_module.ScheduleExecutor, "_run_hamiltonians_stack", spy
    )
    return built


def test_rabi_scan_off_resonance_builds_one_hamiltonian_per_amplitude(monkeypatch):
    """The calibration Rabi scan on a frame 300 Hz off the qubit: 16
    amplitudes of a 40-sample pulse build at most 16 Hamiltonians, not
    one per sample (640)."""
    device = SuperconductingDevice(num_qubits=1, drift_rate=0.0)
    device.set_frame_frequency(0, device.true_frequency(0) + 300.0)
    dag = DAG("rabi")
    dag.task("rabi-scan", "rabi_scan")
    built = _count_hamiltonians(monkeypatch)
    run = PipelineRunner(device).run(dag, seed=0)
    assert run.ok, run.error
    assert 0 < sum(built) <= 16


def test_equal_rows_anywhere_in_a_chunk_build_one_hamiltonian(monkeypatch):
    """Members alternating between two amplitudes share two rows, not
    one per member: the dedup is not limited to neighbours."""
    device, port, frame = _sc1()
    base = PulseSchedule("alternate")
    base.append(Play(port, frame, ScaledWaveform(constant_waveform(16, 0.3), 1.0)))
    values = np.array([[0.5], [0.9]] * 4)
    family = ScheduleFamily(base, [(0, SCALE, 0)], values)
    built = _count_hamiltonians(monkeypatch)
    executor = ScheduleExecutor(device.model)
    finals = executor.execute_batch(family, shots=0).families[0].final_states
    assert built == [2]
    assert np.array_equal(finals[0::2], np.repeat(finals[:1], 4, axis=0))
    assert np.array_equal(finals[1::2], np.repeat(finals[1:2], 4, axis=0))


def test_stacked_free_propagators_are_bitwise_the_one_length_ones():
    device = SuperconductingDevice(num_qubits=2, drift_rate=0.0)
    model = device.model
    eig = np.linalg.eigh(model.drift)
    lengths = np.array([1, 3, 8, 40, 41, 1000, 123456])
    stack = free_propagators(eig, model.dt, lengths)
    evals, evecs = eig
    evecs = evecs.astype(np.complex128)
    for n, row in zip(lengths.tolist(), stack):
        phases = np.exp(-1j * 2.0 * np.pi * evals * model.dt * n)
        assert np.array_equal(row, np.matmul(evecs * phases, _adjoint(evecs)))
        assert np.array_equal(row, free_propagator(eig, model.dt, n))


_NO_MASKED_ARRAYS = """
import sys
import repro
from repro.core import constant_waveform
from repro.devices import SuperconductingDevice
from repro.mlir.dialects.pulse import SequenceBuilder
from repro.mlir.ir import print_module
from repro.pipeline import PipelineRunner, full_calibration_dag
from repro.primitives import Estimator

device = SuperconductingDevice(num_qubits=1, drift_rate=0.0)
sb = SequenceBuilder("first")
drive = sb.add_mixed_frame_arg("f0", device.drive_port(0).name)
acquire = sb.add_mixed_frame_arg("a0", device.acquire_port(0).name)
sb.shift_phase(drive, sb.add_scalar_arg("theta"))
sb.play(drive, sb.waveform(constant_waveform(16, 0.2)))
sb.barrier(drive, acquire)
sb.capture(acquire, 0, 8)
sb.ret()
program = repro.Program.from_mlir(print_module(sb.module))
Estimator(repro.Target.from_device(device)).run([(program, "Z", {"theta": [0.0, 1.0]})])
calibrated = SuperconductingDevice("cal", num_qubits=1, seed=0, drift_rate=2e4)
calibrated.advance_time(60.0)
run = PipelineRunner(calibrated).run(full_calibration_dag(include_drag=False), seed=3)
assert run.ok, run.error
print("numpy.ma" in sys.modules)
"""


def test_estimator_and_calibration_never_import_masked_arrays():
    """NumPy's ``unique`` imports ``numpy.ma`` lazily when asked for no
    index output; the first propagator batch of a process paid it."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    out = subprocess.run(
        [sys.executable, "-c", _NO_MASKED_ARRAYS],
        env=dict(os.environ, PYTHONPATH=os.path.abspath(src)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
