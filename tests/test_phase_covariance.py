"""Differential property tests: frame phases as diagonal state rotations.

The executor strips the phase off every drive amplitude of a channel
whose phase is a symmetry of the model, evolves under ``|a|`` and puts
the phase back as a diagonal rotation of the state. These tests check
that rewrite against the test-local per-sample reference of
``test_sim_executor`` on generated schedules: random ``ShiftPhase`` /
``SetPhase`` values, detuned ``SetFrequency`` events (so every sample
carries its own phase) and plays on one or two drive ports.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from test_sim_executor import (
    reference_drives,
    reference_final_state,
    reference_hamiltonian,
)

from repro.core import (
    Frame,
    Play,
    Port,
    PulseSchedule,
    SampledWaveform,
    SetFrequency,
    SetPhase,
    ShiftPhase,
)
from repro.devices import SuperconductingDevice, TrappedIonDevice
from repro.sim import ScheduleExecutor
from repro.sim.model import transmon_model
from repro.sim.precision import use_dtype

#: Derandomized, so tier-1 runs the same examples every time.
PROFILE = settings(derandomize=True, max_examples=6, deadline=None, database=None)

TOL = 1e-10


@dataclass(frozen=True)
class Case:
    name: str
    #: () -> (model, [(port, frame)] of the driven channels)
    build: Callable
    #: Largest |detuning| of a SetFrequency event, Hz.
    detuning: float
    #: Largest |sample| of a play.
    amplitude: float
    #: Longest play, samples.
    max_len: int


def _device_case(device_factory):
    def build():
        device = device_factory()
        n = min(2, device.model.n_sites)
        ports = [device.drive_port(q) for q in range(n)]
        return device.model, [(p, device.default_frame(p)) for p in ports]

    return build


def _exchange_case(noisy):
    def build():
        from repro.sim import DecoherenceSpec

        model = transmon_model(
            2,
            qubit_frequencies=[5.0e9, 5.1e9],
            anharmonicities=[-300e6] * 2,
            rabi_rates=[50e6] * 2,
            couplings={(0, 1): 8e6},
            levels=3,
            decoherence=[DecoherenceSpec(t1=20e-6, t2=15e-6)] * 2 if noisy else None,
        )
        ports = [
            (Port.drive(q), Frame(f"q{q}-drive-frame", f))
            for q, f in enumerate(model.site_frequencies)
        ]
        # An offset coupler frame keeps every detuned frequency positive.
        coupler = (Port.coupler(0, 1), Frame("coupler-frame", 50e6))
        return model, ports + [coupler]

    return build


def _sc(n, noisy):
    kw = {"with_decoherence": True, "t1": 20e-6, "t2": 15e-6} if noisy else {}
    return lambda: SuperconductingDevice(num_qubits=n, drift_rate=0.0, **kw)


SC = dict(detuning=30e6, amplitude=0.5, max_len=8)
CASES = [
    Case("sc1-closed", _device_case(_sc(1, False)), **SC),
    Case("sc2-closed", _device_case(_sc(2, False)), **SC),
    Case("sc1-lindblad", _device_case(_sc(1, True)), **SC),
    Case("sc2-lindblad", _device_case(_sc(2, True)), **SC),
    Case(
        "ion2-closed",
        _device_case(lambda: TrappedIonDevice(num_qubits=2, drift_rate=0.0)),
        detuning=300e3,
        amplitude=1.0,
        max_len=24,
    ),
]

angles = st.floats(-2 * np.pi, 2 * np.pi, allow_nan=False)
unit = st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def envelopes(draw, max_len):
    """A square (one complex value held) or a raw complex envelope."""
    n = draw(st.integers(1, max_len))
    if draw(st.booleans()):
        value = complex(draw(unit), draw(unit))
        return np.full(n, value / np.sqrt(2))
    parts = draw(st.lists(st.tuples(unit, unit), min_size=n, max_size=n))
    return np.array([complex(re, im) for re, im in parts]) / np.sqrt(2)


@st.composite
def programs(draw, n_ports, max_len):
    """Frame events and plays as ``(kind, port index, value)`` steps;
    the first port always starts detuned and every port ends on a play."""
    port = st.integers(0, n_ports - 1)
    steps = draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("shift"), port, angles),
                st.tuples(st.just("set"), port, angles),
                st.tuples(st.just("detune"), port, unit),
                st.tuples(st.just("play"), port, envelopes(max_len)),
            ),
            max_size=6,
        )
    )
    detune = draw(st.floats(0.05, 1.0)) * draw(st.sampled_from([-1.0, 1.0]))
    tail = [("play", i, draw(envelopes(max_len))) for i in range(n_ports)]
    return [("detune", 0, detune)] + steps + tail


def build_schedule(ports, steps, case):
    s = PulseSchedule("covariance")
    for kind, i, value in steps:
        port, frame = ports[i]
        if kind == "shift":
            s.append(ShiftPhase(port, frame, value))
        elif kind == "set":
            s.append(SetPhase(port, frame, value))
        elif kind == "detune":
            s.append(SetFrequency(port, frame, frame.frequency + case.detuning * value))
        else:
            s.append(Play(port, frame, SampledWaveform(case.amplitude * value)))
    return s


def phase_events(schedule):
    return [
        it
        for it in schedule._items
        if isinstance(it.instruction, (ShiftPhase, SetPhase))
    ]


def rephased(schedule, values):
    """A template clone with new values on its phase events, in order."""
    new = dict(zip(phase_events(schedule), values))

    def swap(it):
        field = "delta" if isinstance(it.instruction, ShiftPhase) else "phase"
        return replace(it, instruction=replace(it.instruction, **{field: new[it]}))

    return schedule.clone_with_items(
        [swap(it) if it in new else it for it in schedule._items]
    )


def draw_family(data, case, ports, k=3):
    """A generated schedule and k-1 template clones of it."""
    base = build_schedule(ports, data.draw(programs(len(ports), case.max_len)), case)
    n = len(phase_events(base))
    values = st.lists(angles, min_size=n, max_size=n)
    return [base] + [rephased(base, data.draw(values)) for _ in range(k - 1)]


def covariant_ports(executor, ports):
    names = executor._channel_names
    return [bool(executor._phase_channels[names.index(p.name)]) for p, _ in ports]


def assert_matches_reference(model, schedules, results, tol=TOL):
    for schedule, result in zip(schedules, results):
        ref = reference_final_state(model, schedule)
        assert result.final_state.shape == ref.shape
        assert np.abs(result.final_state - ref).max() < tol


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
@PROFILE
@given(data=st.data())
def test_execute_and_batch_match_reference(case, data):
    model, ports = case.build()
    family = draw_family(data, case, ports)
    ex = ScheduleExecutor(model)
    # The device drive ports are covariant: the rotation path runs.
    assert all(covariant_ports(ex, ports))
    ex._MAX_OPEN_BATCH_SLICES = 5  # flushes split run positions' families
    assert_matches_reference(model, family, ex.execute_batch(family, shots=0))
    single = ScheduleExecutor(model).execute(family[-1], shots=0)
    assert_matches_reference(model, family[-1:], [single])


@PROFILE
@given(data=st.data())
def test_unitary_matches_reference(data):
    case = CASES[1]
    model, ports = case.build()
    [schedule] = draw_family(data, case, ports, k=1)
    total = np.eye(model.dimension, dtype=complex)
    drives, names = reference_drives(model, schedule)
    for row in drives:
        h = reference_hamiltonian(model, row, names)
        total = expm(-2j * np.pi * h * model.dt) @ total
    u = ScheduleExecutor(model).unitary(schedule)
    assert np.abs(u - total).max() < TOL


@pytest.mark.parametrize("noisy", [False, True], ids=["closed", "lindblad"])
@PROFILE
@given(data=st.data())
def test_exchange_coupler_is_not_covariant(noisy, data):
    """A live exchange coupler breaks every drive's phase symmetry: no
    channel is rewritten and the run matches the reference as before."""
    case = Case("exchange", _exchange_case(noisy), **SC)
    model, ports = case.build()
    family = draw_family(data, case, ports, k=2)
    ex = ScheduleExecutor(model)
    assert not any(covariant_ports(ex, ports))
    assert_matches_reference(model, family, ex.execute_batch(family, shots=0))


def _transverse_drift_case():
    """A qubit whose drift holds a static sigma_x: it does not commute
    with the number operator, so the drive phase is no symmetry."""
    from repro.sim.model import ChannelCoupling, SystemModel
    from repro.sim.operators import destroy_on, pauli

    model = SystemModel(
        dims=(2,),
        drift=2e6 * pauli("x"),
        channels={
            "q0-drive-port": ChannelCoupling(destroy_on(0, (2,)), 5.0e9, 50e6)
        },
    )
    return model, [(Port.drive(0), Frame("q0-drive-frame", 5.0e9))]


@PROFILE
@given(data=st.data())
def test_transverse_drift_is_not_covariant(data):
    case = Case("transverse", _transverse_drift_case, **SC)
    model, ports = case.build()
    family = draw_family(data, case, ports, k=2)
    ex = ScheduleExecutor(model)
    assert not any(covariant_ports(ex, ports))
    assert_matches_reference(model, family, ex.execute_batch(family, shots=0))


@PROFILE
@given(data=st.data())
def test_complex64_within_policy_atol(data):
    case = CASES[3]
    model, ports = case.build()
    family = draw_family(data, case, ports)
    with use_dtype("complex64") as scope:
        results = ScheduleExecutor(model).execute_batch(family, shots=0)
        atol = scope.atol
    assert_matches_reference(model, family, results, tol=atol)


def test_collapse_check_accepts_ladder_and_rejects_mixtures():
    """Collapse operators need only commute with W up to a scalar: a
    ladder operator or a diagonal one passes, ``sigma_x`` (raising plus
    lowering) does not."""
    from repro.sim.executor import _eigen_commutator
    from repro.sim.operators import destroy_on, pauli

    w = np.array([0.0, 1.0, 2.0])
    a = destroy_on(0, (3,))
    assert _eigen_commutator(w, a)
    assert _eigen_commutator(w, np.diag([1.0, -1.0, -1.0]))
    assert not _eigen_commutator(w, a + a.conj().T)
    assert not _eigen_commutator(w[:2], pauli("x"))


def test_canonical_phases_do_not_depend_on_the_batch():
    """A slice's phases are its own: each row of a table's phases is
    bitwise the row computed alone, on the two-transmon model (two
    covariant drives and a coupler, D = 9)."""
    executor = SuperconductingDevice(num_qubits=2, drift_rate=0.0).executor
    rng = np.random.default_rng(7)
    channels = executor._phase_gen.shape[0]
    for n in (2, 3, 4, 5, 8, 17, 64):
        for _ in range(10):
            rows = rng.normal(size=(n, channels)) + 1j * rng.normal(size=(n, channels))
            magnitudes = np.abs(rows)
            _, phases, _ = executor._canonical_rows(rows, magnitudes)
            for i in range(n):
                _, alone, _ = executor._canonical_rows(
                    rows[i : i + 1], magnitudes[i : i + 1]
                )
                assert phases[i].tobytes() == alone[0].tobytes()


@settings(derandomize=True, max_examples=25, deadline=None, database=None)
@given(data=st.data())
def test_batched_member_state_equals_the_member_alone(data):
    """A member of a batch of generated two-transmon schedules ends in
    bitwise the state ``execute`` gives it alone."""
    case = CASES[1]
    _, ports = case.build()
    device = SuperconductingDevice(num_qubits=2, drift_rate=0.0)
    schedules = [
        build_schedule(ports, data.draw(programs(len(ports), case.max_len)), case)
        for _ in range(data.draw(st.integers(2, 8)))
    ]
    batch = device.executor.execute_batch(schedules, shots=0)
    for schedule, result in zip(schedules, batch):
        alone = device.executor.execute(schedule, shots=0)
        assert result.final_state.tobytes() == alone.final_state.tobytes()
