"""The propagator table: each distinct run is evolved, stored and applied
once.

``PropagatorCache.propagators`` returns ``(table, index)``: the distinct
cache entries and one table row per slice. The executor applies a run
position's one shared row to the whole state stack, gathers rows only
where the members differ, and lets a member that inserts no idle
sample index one identity row. Each update is a per-member matmul, so
a family run through ``execute_batch`` equals each member run alone
through ``execute``, bitwise, once the family has filled the cache
(cold propagators depend in the last bits on the chunk they were
computed in). The generated programs keep each member's own runs the
family's runs — no value makes a member's drive constant across a
boundary where another member's changes — because splitting a run is
exact only up to rounding.
"""

from __future__ import annotations

import types

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from test_bound_batch import DEVICES, GRANULARITY
from test_phase_covariance import PROFILE, SC, programs
from test_slotted_families import _emit

import repro
import repro.sim.executor as executor_module
from repro.core import SampledWaveform, constant_waveform
from repro.core.schedule import ScheduleFamily
from repro.devices import SuperconductingDevice
from repro.mlir.dialects.pulse import SequenceBuilder
from repro.mlir.ir import print_module
from repro.primitives import Estimator
from repro.sim.evolve import PropagatorCache
from repro.sim.runs import drive_runs

#: Phase values away from 0 (mod 2 pi), amplitude scales away from 0,
#: detunings away from 0: none makes a member's drive constant across
#: a boundary where another member's changes.
phases = st.floats(0.1, 3.0) | st.floats(-3.0, -0.1)
scales = st.floats(0.5, 1.0) | st.floats(-1.0, -0.5)
detunings = st.floats(0.05, 1.0) | st.floats(-1.0, -0.05)


def _columns(draw, device, program, kinds, k):
    columns = []
    for name in program.parameters:
        if name == "amp":
            columns.append([draw(scales) for _ in range(k)])
            continue
        kind, q = kinds[name]
        if kind == "delay":  # the first member inserts no idle sample
            ticks = [0] + [draw(st.integers(0, 4)) for _ in range(k - 1)]
            columns.append([float(GRANULARITY * t) for t in ticks])
        elif kind == "detune":
            frequency = device.default_frame(device.drive_port(q)).frequency
            columns.append(
                [frequency + SC["detuning"] * draw(detunings) for _ in range(k)]
            )
        else:
            columns.append([draw(phases) for _ in range(k)])
    return np.array(columns).T


@st.composite
def mixed_sweeps(draw, device, k=4):
    """Two generated step lists (the ``test_bound_batch`` programs, each
    frame event its own parameter): the head's plays as they are, the
    tail's scaled by an ``amp`` parameter. The members share the head's
    run positions and differ at the tail's."""
    n = min(2, device.config.num_sites)
    sb = SequenceBuilder("mixed")
    drives = [
        sb.add_mixed_frame_arg(f"f{q}", device.drive_port(q).name) for q in range(n)
    ]
    acquires = [
        sb.add_mixed_frame_arg(f"a{q}", device.acquire_port(q).name) for q in range(n)
    ]
    amp = sb.add_scalar_arg("amp")
    kinds: dict[str, tuple[str, int]] = {}
    _emit(sb, drives, kinds, draw(programs(n, SC["max_len"])), None)
    _emit(sb, drives, kinds, draw(programs(n, SC["max_len"])), amp)
    sb.barrier(*drives, *acquires)
    for q, acquire in enumerate(acquires):
        sb.capture(acquire, q, 8)
    sb.ret()
    program = repro.Program.from_mlir(print_module(sb.module))
    return program, _columns(draw, device, program, kinds, k)


def _segments(executor, family):
    model = executor.model
    runs, _, _, _ = drive_runs(family, model, sorted(model.channels))
    return runs


def _own_runs_agree(executor, family) -> bool:
    """Whether every member alone segments into the family's runs."""
    runs = _segments(executor, family)
    return all(
        _segments(executor, ScheduleFamily.gather([family.member(k)])) == runs
        for k in range(len(family))
    )


def _assert_members_bitwise(executor, family):
    batch = executor.execute_batch(family, shots=0)
    for k in range(len(family)):
        alone = executor.execute(family.member(k), shots=0)
        np.testing.assert_array_equal(batch[k].final_state, alone.final_state)
        assert batch[k].probabilities == alone.probabilities
        assert batch[k].ideal_probabilities == alone.ideal_probabilities
        assert batch[k].leakage == alone.leakage
        assert batch[k].duration_samples == alone.duration_samples


@pytest.mark.parametrize("name", sorted(DEVICES))
@PROFILE
@given(data=st.data())
def test_family_equals_members_run_alone(name, data):
    device = DEVICES[name]()
    program, values = data.draw(mixed_sweeps(device))
    family = repro.compile(program, repro.Target.from_device(device)).bind_many(
        values
    )
    assert family is not None
    executor = device.executor
    assume(_own_runs_agree(executor, family))
    _assert_members_bitwise(executor, family)
    if device.model.has_decoherence():
        return
    # Operator-valued: the family evolves the identity as each member's
    # total propagator, bitwise ``unitary`` of the member alone.
    [unitaries] = executor._final_states(
        [family], [None] * len(family), np.eye(device.model.dimension)
    )
    for k in range(len(family)):
        np.testing.assert_array_equal(
            unitaries[k], executor.unitary(family.member(k))
        )


@st.composite
def delay_sweeps(draw, device, k=4):
    """Squares of whole 8-sample blocks, then a ``tau`` delay on every
    drive, then squares scaled by ``amp``; phase shifts may precede any
    play. No zero padding and disjoint magnitudes before and after the
    delay keep its cut a run boundary in every member, and the frames
    stay on resonance, so an inserted idle sample adds no carrier phase.
    The first member inserts no idle sample."""
    n = min(2, device.config.num_sites)
    sb = SequenceBuilder("delayed")
    drives = [
        sb.add_mixed_frame_arg(f"f{q}", device.drive_port(q).name) for q in range(n)
    ]
    acquires = [
        sb.add_mixed_frame_arg(f"a{q}", device.acquire_port(q).name) for q in range(n)
    ]
    amp = sb.add_scalar_arg("amp")
    tau = sb.add_scalar_arg("tau")
    kinds: dict[str, tuple[str, int]] = {"tau": ("delay", 0)}
    for scaled, magnitudes in ((False, (0.1, 0.25)), (True, (0.6, 1.0))):
        square = st.tuples(
            st.integers(0, n - 1),
            st.integers(1, 3),
            st.floats(*magnitudes),
            st.floats(-np.pi, np.pi),
            st.booleans(),
        )
        steps = draw(st.lists(square, min_size=1, max_size=4))
        for q, blocks, magnitude, angle, shifted in steps:
            if shifted:
                name = f"p{len(kinds) - 1}"
                kinds[name] = ("shift", q)
                sb.shift_phase(drives[q], sb.add_scalar_arg(name))
            value = SC["amplitude"] * magnitude * np.exp(1j * angle)
            wf = constant_waveform(GRANULARITY * blocks, value)
            sb.play(drives[q], sb.waveform(wf, amplitude=amp if scaled else None))
        if not scaled:
            sb.barrier(*drives)
            for mf in drives:
                sb.delay(mf, tau)
    sb.barrier(*drives, *acquires)
    for q, acquire in enumerate(acquires):
        sb.capture(acquire, q, 8)
    sb.ret()
    program = repro.Program.from_mlir(print_module(sb.module))
    return program, _columns(draw, device, program, kinds, k)


@pytest.mark.parametrize("name", sorted(DEVICES))
@PROFILE
@given(data=st.data())
def test_delay_family_equals_members_run_alone(name, data):
    """A member that inserts no idle sample applies the identity row at
    the inserted position: bitwise its schedule without the delay."""
    device = DEVICES[name]()
    program, values = data.draw(delay_sweeps(device))
    family = repro.compile(program, repro.Target.from_device(device)).bind_many(
        values
    )
    assert family is not None and family.idle is not None
    _assert_members_bitwise(device.executor, family)


class _Numpy(types.SimpleNamespace):
    """NumPy as the executor module sees it, with ``einsum`` refused and
    ``stack`` counted."""

    def __init__(self) -> None:
        super().__init__(stacked=[])

    def __getattr__(self, name):
        return getattr(np, name)

    def einsum(self, *args, **kwargs):
        raise AssertionError("the executor applies no propagator by einsum")

    def stack(self, arrays, *args, **kwargs):
        out = np.stack(arrays, *args, **kwargs)
        self.stacked.append(out.shape)
        return out


def _ansatz(device):
    """The benchmark ansatz shape: 12 raw-sample prep pulses, then 8
    phase-shifted squares of distinct amplitudes."""
    sb = SequenceBuilder("ansatz")
    drive = sb.add_mixed_frame_arg("f0", device.drive_port(0).name)
    acquire = sb.add_mixed_frame_arg("a0", device.acquire_port(0).name)
    thetas = [sb.add_scalar_arg(f"theta{k}") for k in range(8)]
    for p in range(12):
        sb.play(drive, sb.waveform(SampledWaveform(np.full(32, 0.05 + 0.01 * p))))
    for k, theta in enumerate(thetas):
        sb.shift_phase(drive, theta)
        sb.play(drive, sb.waveform(constant_waveform(8, 0.10 + 0.005 * k)))
    sb.barrier(drive, acquire)
    sb.capture(acquire, 0, 8)
    sb.ret()
    return repro.Program.from_mlir(print_module(sb.module))


def test_lindblad_pub_applies_one_row_per_distinct_run(monkeypatch):
    device = SuperconductingDevice(
        num_qubits=2, drift_rate=0.0, with_decoherence=True, t1=20e-6, t2=15e-6
    )
    program = _ansatz(device)
    estimator = Estimator(repro.Target.from_device(device))
    cache = device.executor.propagator_cache  # builds the executor
    lookups = []
    real = PropagatorCache.propagators

    def spy(self, hamiltonians, *args, **kwargs):
        table, index = real(self, hamiltonians, *args, **kwargs)
        lookups.append((len(hamiltonians), len(table), len(index)))
        return table, index

    monkeypatch.setattr(PropagatorCache, "propagators", spy)
    numpy = _Numpy()
    monkeypatch.setattr(executor_module, "np", numpy)

    def run(seed):
        rng = np.random.default_rng(seed)
        grid = {f"theta{k}": rng.uniform(-np.pi, np.pi, 8) for k in range(8)}
        return estimator.run([(program, "Z", grid)])[0].data.evs

    run(1)
    # 21 run positions x 8 members: one kernel chunk. The 8 members
    # share every position's phase-free row, so the executor hands the
    # cache one slice per position: one lookup of 21 slices whose table
    # holds the 21 distinct superpropagators. The cache's hits and
    # misses count the slices it is handed.
    assert lookups == [(21, 21, 21)]
    assert (cache.stats["hits"], cache.stats["misses"], len(cache)) == (0, 21, 21)
    # A frame phase rotates the state, not the propagator: all members
    # share every position's row, so no rows are gathered.
    assert numpy.stacked == []
    lookups.clear()
    run(2)
    # The first 12 positions are the template's value-free prefix: the
    # warm call starts every member from the state they left, and looks
    # up the other 9.
    assert lookups == [(9, 9, 9)]
    assert (cache.stats["hits"], cache.stats["misses"]) == (9, 21)
    assert numpy.stacked == []


def test_closed_pub_builds_one_hamiltonian_per_driven_position(monkeypatch):
    """A 64-point closed ansatz PUB: the members share every run
    position's phase-free row, so the executor builds one Hamiltonian
    per driven position (20 of the 21; the capture tail is drift
    only), not one per slice (1,280)."""
    device = SuperconductingDevice(num_qubits=1, drift_rate=0.0)
    program = _ansatz(device)
    estimator = Estimator(repro.Target.from_device(device))
    executor = device.executor
    built = []
    real = executor_module.ScheduleExecutor._run_hamiltonians_stack

    def spy(self, rows):
        built.append(len(rows))
        return real(self, rows)

    monkeypatch.setattr(
        executor_module.ScheduleExecutor, "_run_hamiltonians_stack", spy
    )
    rng = np.random.default_rng(0)
    grid = {f"theta{k}": rng.uniform(-np.pi, np.pi, 64) for k in range(8)}
    # The warm call starts from the state the 12-position value-free
    # prefix left, and builds the other 8 driven positions.
    for expected in ([20], [8]):
        estimator.run([(program, "Z", grid)])
        assert built == expected
        built.clear()
    cache = executor.propagator_cache
    assert (cache.stats["hits"], cache.stats["misses"], len(cache)) == (8, 20, 20)


def test_members_differing_at_a_position_gather_its_rows(monkeypatch):
    """An amplitude slot gives every member its own row at the scaled
    plays, and members that insert no idle sample share the identity
    row; only those positions are gathered."""
    device = DEVICES["sc1-closed"]()
    sb = SequenceBuilder("gathered")
    drive = sb.add_mixed_frame_arg("f0", device.drive_port(0).name)
    acquire = sb.add_mixed_frame_arg("a0", device.acquire_port(0).name)
    amp = sb.add_scalar_arg("amp")
    tau = sb.add_scalar_arg("tau")
    sb.play(drive, sb.waveform(constant_waveform(16, 0.2)))
    sb.delay(drive, tau)
    sb.play(drive, sb.waveform(constant_waveform(16, 0.3), amplitude=amp))
    sb.barrier(drive, acquire)
    sb.capture(acquire, 0, 8)
    sb.ret()
    program = repro.Program.from_mlir(print_module(sb.module))
    points = {"amp": [0.5, 0.5, 0.9], "tau": [0.0, 16.0, 0.0]}
    values = np.array([points[name] for name in program.parameters]).T
    family = repro.compile(program, repro.Target.from_device(device)).bind_many(
        values
    )
    assert family is not None and family.idle is not None
    executor = device.executor
    numpy = _Numpy()
    monkeypatch.setattr(executor_module, "np", numpy)
    executor.execute_batch(family, shots=0)
    d = device.model.dimension
    # The shared first play is applied alone; the inserted idle run
    # (identity, 16 samples of drift, identity) and the scaled play
    # (0.5, 0.5, 0.9) are gathered.
    assert numpy.stacked == [(3, d, d), (3, d, d)]
    monkeypatch.undo()
    _assert_members_bitwise(executor, family)


def test_deduped_counts_slices_a_repeat_in_the_same_call_served():
    """``hits`` and ``misses`` count slices; ``deduped`` counts the
    missed slices an equal slice of the same call served."""
    cache = PropagatorCache(max_entries=4)
    cache.propagators(np.zeros((2, 3, 3)), 1e-9)  # two equal slices
    assert (cache.hits, cache.misses, cache.deduped) == (0, 2, 1)
    a, b = np.diag([0.0, 1.0, 2.0]), np.diag([0.0, 1.0, 3.0])
    table, index = cache.propagators(np.stack([a, b, a]), 1e-9)
    # The non-adjacent repeat of ``a`` shares its row: one more deduped.
    assert (len(table), index.tolist()) == (2, [0, 1, 0])
    assert (cache.hits, cache.misses, cache.deduped) == (0, 5, 2)
    cache.propagators(np.stack([a, b, a]), 1e-9)
    assert (cache.hits, cache.misses, cache.deduped) == (3, 5, 2)


def test_misses_less_deduped_is_the_kernel_work(monkeypatch):
    """On a calibration DAG op (the ``calibration_dag`` workload's
    shape) the cache misses far more slices than the kernel computes;
    ``misses - deduped`` is exactly what it computes."""
    import repro.sim.evolve as evolve
    from repro.pipeline import PipelineRunner, full_calibration_dag

    missed, computed, kernel = [], [], []
    real_lookup, real_kernel = PropagatorCache.propagators, evolve.batched_propagators

    def lookup(self, *args, **kwargs):
        misses, deduped = self.misses, self.deduped
        out = real_lookup(self, *args, **kwargs)
        missed.append(self.misses - misses)
        computed.append(missed[-1] - (self.deduped - deduped))
        return out

    def counted_kernel(hamiltonians, *args, **kwargs):
        kernel.append(len(hamiltonians))
        return real_kernel(hamiltonians, *args, **kwargs)

    monkeypatch.setattr(PropagatorCache, "propagators", lookup)
    monkeypatch.setattr(evolve, "batched_propagators", counted_kernel)
    device = SuperconductingDevice("cal-sc", num_qubits=1, seed=0, drift_rate=2e4)
    device.advance_time(60.0)
    run = PipelineRunner(device).run(full_calibration_dag(include_drag=False), seed=3)
    assert run.ok, run.error
    assert 0 < sum(kernel) < sum(missed)
    assert sum(computed) == sum(kernel)


def test_a_family_slotted_at_its_start_looks_up_no_prefix_state():
    """The mitigated workload's variants open with a slotted phase
    shift: their plans have no prefix, so no call looks a state up."""
    from test_qem_families import STACKS, ansatz, qem_device

    device = qem_device()
    estimator = Estimator(device, options=STACKS["zne-twirl-readout"], seed=0)
    program = ansatz(device)
    grid = {f"theta{k}": np.linspace(-1, 1, 8) + k for k in range(4)}
    for _ in range(2):
        estimator.run([(program, "Z", grid)])
    assert device.executor.drive_plans.stats()["hits"] == 6
    stats = device.executor.drive_plans.snapshots.stats()
    assert (stats["hits"], stats["misses"], stats["size"]) == (0, 0, 0)


def test_the_first_call_after_a_drift_step_misses_the_prefix_state():
    """A drift step replaces the executor: the held Estimator's next
    call runs on the new model and evolves its prefix (an idle head,
    which the drift leaves one run) again."""
    device = SuperconductingDevice(num_qubits=1, drift_rate=2e4, seed=3)
    sb = SequenceBuilder("idle-head")
    drive = sb.add_mixed_frame_arg("f0", device.drive_port(0).name)
    acquire = sb.add_mixed_frame_arg("a0", device.acquire_port(0).name)
    thetas = [sb.add_scalar_arg(f"theta{k}") for k in range(2)]
    sb.delay(drive, 64)
    for theta in thetas:
        sb.shift_phase(drive, theta)
        sb.play(drive, sb.waveform(constant_waveform(16, 0.2)))
    sb.barrier(drive, acquire)
    sb.capture(acquire, 0, 8)
    sb.ret()
    program = repro.Program.from_mlir(print_module(sb.module))
    estimator = Estimator(repro.Target.from_device(device))
    rng = np.random.default_rng(0)
    grid = {f"theta{k}": rng.uniform(-np.pi, np.pi, 4) for k in range(2)}

    def snapshots():
        stats = device.executor.drive_plans.snapshots.stats()
        return stats["hits"], stats["misses"], stats["size"]

    for _ in range(2):
        estimator.run([(program, "Z", grid)])
    assert snapshots() == (1, 1, 1)
    device.advance_time(600.0)
    estimator.run([(program, "Z", grid)])
    assert snapshots() == (0, 1, 1)
