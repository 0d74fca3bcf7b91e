"""Amplitude and delay slots: a scan that binds a pulse amplitude or a
free-evolution delay compiles once and runs as one schedule family.

``pulse.waveform`` takes an optional ``f64`` amplitude operand and
``pulse.delay`` an optional ``f64`` duration operand. The template
records them as ``(idx, "scale", col)`` and ``(idx, "duration", col)``
slots; the executor scales a play's shape by its column in one
broadcast multiply and inserts each member's extra idle samples at the
delay's cut, with the carrier phase the later plays' frames accumulate
over them. The differential tests below compare such families with
their ``member(k)`` schedules run one by one.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_bound_batch import DEVICES, GRANULARITY
from test_phase_covariance import PROFILE, SC, angles, programs, unit
from test_serving import FailingDevice

import repro
from repro.client import MQSSClient, RemoteDeviceProxy
from repro.core import SampledWaveform, ScaledWaveform, constant_waveform
from repro.core.instructions import Barrier, Delay
from repro.core.schedule import FamilyBatch, ScheduleFamily
from repro.devices import SuperconductingDevice
from repro.errors import (
    IRError,
    LinkError,
    PassError,
    ServiceError,
    ValidationError,
)
from repro.mlir.context import default_context
from repro.mlir.dialects.pulse import SequenceBuilder
from repro.mlir.interp import module_to_schedule
from repro.mlir.ir import print_module, verify_module
from repro.mlir.parser import parse_module
from repro.mlir.passes import (
    PulseCanonicalizePass,
    PulseLegalizationPass,
    WaveformCSEPass,
)
from repro.pipeline import DAG, PipelineRunner
from repro.pipeline.experiments import (
    _ramsey_delays,
    _ramsey_program,
    _ramsey_schedule,
)
from repro.primitives import Estimator, Observable, Sampler
from repro.qdmi import QDMIDriver
from repro.qir.emitter import schedule_to_qir
from repro.qir.linker import link_qir_to_schedule
from repro.serving import PulseService, SweepRequest
from repro.sim.executor import ScheduleExecutor

#: Family vs one-by-one members. Not bitwise: the family evolves its
#: members' slices in one position-major kernel call (the batched
#: exponential's scaling power is shared per chunk), splits the run
#: that holds the delay's cut, and adds the inserted samples' carrier
#: phase to a later play's phase instead of accumulating it sample by
#: sample. Each is a rounding-level difference.
TOL = 1e-12


def _emit(sb, drives, kinds, steps, amp):
    """Generated steps into *sb*: plays scaled by *amp*, frame events
    each reading their own parameter (``kinds[name]``)."""
    for kind, q, value in steps:
        if kind == "play":
            padded = -(-len(value) // GRANULARITY) * GRANULARITY
            samples = np.zeros(padded, dtype=complex)
            samples[: len(value)] = SC["amplitude"] * value
            wf = sb.waveform(SampledWaveform(samples), amplitude=amp)
            sb.play(drives[q], wf)
            continue
        name = f"p{len(kinds)}"
        kinds[name] = (kind, q)
        arg = sb.add_scalar_arg(name)
        {"shift": sb.shift_phase, "set": sb.set_phase, "detune": sb.set_frequency}[
            kind
        ](drives[q], arg)


def slotted_program(device, head, tail):
    """*head*, a delay ``tau`` on every drive after a barrier, then
    *tail*; every play's amplitude is the parameter ``amp``."""
    n = min(2, device.config.num_sites)
    sb = SequenceBuilder("slotted")
    drives = [
        sb.add_mixed_frame_arg(f"f{q}", device.drive_port(q).name) for q in range(n)
    ]
    acquires = [
        sb.add_mixed_frame_arg(f"a{q}", device.acquire_port(q).name) for q in range(n)
    ]
    amp = sb.add_scalar_arg("amp")
    tau = sb.add_scalar_arg("tau")
    kinds: dict[str, tuple[str, int]] = {}
    _emit(sb, drives, kinds, head, amp)
    sb.barrier(*drives)
    for mf in drives:
        sb.delay(mf, tau)
    _emit(sb, drives, kinds, tail, amp)
    sb.barrier(*drives, *acquires)
    for q, acquire in enumerate(acquires):
        sb.capture(acquire, q, 8)
    sb.ret()
    return repro.Program.from_mlir(print_module(sb.module)), kinds


@st.composite
def slotted_sweeps(draw, device, k=4):
    """A generated slotted program and a ``(k, P)`` matrix of points;
    the first point's delay is 0."""
    n = min(2, device.config.num_sites)
    head = draw(programs(n, SC["max_len"]))
    tail = draw(programs(n, SC["max_len"]))
    program, kinds = slotted_program(device, head, tail)
    columns = []
    for name in program.parameters:
        if name == "amp":
            columns.append([draw(unit) for _ in range(k)])
        elif name == "tau":
            ticks = [0] + [draw(st.integers(0, 6)) for _ in range(k - 1)]
            columns.append([float(GRANULARITY * t) for t in ticks])
        elif kinds[name][0] == "detune":
            frequency = device.default_frame(device.drive_port(kinds[name][1]))
            columns.append(
                [frequency.frequency + SC["detuning"] * draw(unit) for _ in range(k)]
            )
        else:
            columns.append([draw(angles) for _ in range(k)])
    return program, np.array(columns).T


@pytest.mark.parametrize("name", sorted(DEVICES))
@PROFILE
@given(data=st.data())
def test_slotted_family_equals_members_run_one_by_one(name, data):
    device = DEVICES[name]()
    program, values = data.draw(slotted_sweeps(device))
    target = repro.Target.from_device(device)
    family = repro.compile(program, target).bind_many(values)
    assert family is not None and family.idle is not None
    executor = device.executor
    batch = executor.execute_batch(family, shots=0)
    for k, row in enumerate(values):
        member = family.member(k)
        interpreted = module_to_schedule(
            program.module, device, dict(zip(program.parameters, row.tolist()))
        )
        # The member is the per-point schedule: same events, same times.
        assert member.equivalent_to(interpreted)
        assert [(i.t0, i.seq) for i in member._items] == [
            (i.t0, i.seq) for i in interpreted._items
        ]
        alone = executor.execute(member, shots=0)
        np.testing.assert_allclose(
            batch[k].final_state, alone.final_state, rtol=0, atol=TOL
        )
        assert batch[k].duration_samples == alone.duration_samples
        for key, p in alone.probabilities.items():
            assert batch[k].probabilities.get(key, 0.0) == pytest.approx(p, abs=TOL)


def test_a_frame_event_at_the_cut_sets_the_inserted_samples_carrier():
    """Another port's ``set_frequency`` at the cut stays put, so its
    frequency is the one that accumulates phase over the inserted idle
    samples, though a moved play starts at the cut earlier in program
    order."""
    device = DEVICES["sc2-closed"]()
    sb = SequenceBuilder("cut")
    d0 = sb.add_mixed_frame_arg("d0", device.drive_port(0).name)
    d1 = sb.add_mixed_frame_arg("d1", device.drive_port(1).name)
    a0 = sb.add_mixed_frame_arg("a0", device.acquire_port(0).name)
    tau = sb.add_scalar_arg("tau")
    pulse = sb.waveform(constant_waveform(16, 0.2))
    sb.play(d1, pulse)
    sb.delay(d1, tau)
    sb.play(d1, pulse)  # moves, and starts at the cut when tau = 0
    sb.play(d0, pulse)
    frequency = device.default_frame(device.drive_port(0)).frequency
    sb.set_frequency(d0, frequency + 3e6)  # stays, at the cut
    sb.barrier(d0, d1, a0)
    sb.play(d0, pulse)
    sb.capture(a0, 0, 8)
    sb.ret()
    program = repro.Program.from_mlir(print_module(sb.module))
    taus = np.array([[0.0], [8.0], [40.0]])
    family = repro.compile(program, repro.Target.from_device(device)).bind_many(taus)
    assert family is not None and family.idle.cut == 16
    batch = device.executor.execute_batch(family, shots=0)
    for k in range(len(taus)):
        alone = device.executor.execute(family.member(k), shots=0)
        np.testing.assert_allclose(
            batch[k].final_state, alone.final_state, rtol=0, atol=TOL
        )


def _two_site_delay_program(device, shape):
    """Two drives and a delay parameter laid out by *shape*."""
    sb = SequenceBuilder(shape)
    d0 = sb.add_mixed_frame_arg("d0", device.drive_port(0).name)
    d1 = sb.add_mixed_frame_arg("d1", device.drive_port(1).name)
    a0 = sb.add_mixed_frame_arg("a0", device.acquire_port(0).name)
    tau = sb.add_scalar_arg("tau")
    short = sb.waveform(constant_waveform(16, 0.2))
    long = sb.waveform(constant_waveform(32, 0.1))
    if shape == "staggered":  # the sites' second pulses overlap at tau = 0
        for mf, wf in ((d0, short), (d1, long)):
            sb.play(mf, wf)
            sb.delay(mf, tau)
            sb.play(mf, wf)
    elif shape == "outlasted":  # the delay ends inside another port's pulse
        sb.delay(d0, tau)
        sb.play(d1, long)
    else:  # two delay parameters
        sb.delay(d0, tau)
        sb.play(d0, short)
        sb.delay(d0, sb.add_scalar_arg("tau2"))
        sb.play(d0, short)
    sb.barrier(d0, d1, a0)
    sb.capture(a0, 0, 8)
    sb.ret()
    return repro.Program.from_mlir(print_module(sb.module))


@pytest.mark.parametrize("shape", ["staggered", "outlasted", "two-delays"])
def test_a_delay_that_is_no_idle_insertion_binds_per_point(shape):
    """No template, so no family: the per-point route evaluates it."""
    device = SuperconductingDevice(num_qubits=2, drift_rate=0.0)
    device.set_frame_frequency(0, device.true_frequency(0) + 1e6)
    program = _two_site_delay_program(device, shape)
    target = repro.Target.from_device(device)
    points = np.array([[0.0, 8.0], [48.0, 16.0], [96.0, 0.0]])[
        :, : len(program.parameters)
    ]
    assert repro.compile(program, target).bind_many(points) is None
    grid = {name: points[:, j] for j, name in enumerate(program.parameters)}
    evs = Estimator(target).run([(program, "Z", grid)])[0].data.evs
    for k, row in enumerate(points):
        schedule = module_to_schedule(
            program.module, device, dict(zip(program.parameters, row.tolist()))
        )
        exact = device.executor.execute(schedule, shots=0).ideal_probabilities
        assert evs[k] == pytest.approx(
            Observable.z(0).expectation(exact), abs=1e-12
        )


def amplitude_program(device, n=1):
    """A Rabi-style program: a unit flat pulse scaled by ``amp`` on
    every site, then a measurement of every site."""
    sb = SequenceBuilder("rabi")
    drives = [
        sb.add_mixed_frame_arg(f"d{q}", device.drive_port(q).name) for q in range(n)
    ]
    acquires = [
        sb.add_mixed_frame_arg(f"a{q}", device.acquire_port(q).name) for q in range(n)
    ]
    amp = sb.add_scalar_arg("amp")
    for mf in drives:
        sb.play(mf, sb.waveform(constant_waveform(80, 1.0), amplitude=amp))
    sb.barrier(*drives, *acquires)
    for q, acquire in enumerate(acquires):
        sb.capture(acquire, q, 8)
    sb.ret()
    return repro.Program.from_mlir(print_module(sb.module))


def delay_program(device):
    """A Ramsey-style program: pi/2-ish pulse, delay ``tau``, again."""
    sb = SequenceBuilder("ramsey")
    drive = sb.add_mixed_frame_arg("d0", device.drive_port(0).name)
    acquire = sb.add_mixed_frame_arg("a0", device.acquire_port(0).name)
    tau = sb.add_scalar_arg("tau")
    half = sb.waveform(constant_waveform(40, 0.125))
    sb.play(drive, half)
    sb.delay(drive, tau)
    sb.play(drive, half)
    sb.barrier(drive, acquire)
    sb.capture(acquire, 0, 8)
    sb.ret()
    return repro.Program.from_mlir(print_module(sb.module))


def served(device):
    driver = QDMIDriver()
    driver.register_device(device)
    client = MQSSClient(driver, persistent_sessions=True)
    return client, PulseService(client)


@pytest.mark.parametrize("kind", ["amplitude", "delay"])
def test_served_parametric_pub_equals_per_point_served_route(kind):
    """A parametric PUB on an in-process service runs as one family.
    Its evs equal the direct target's bit for bit, and the per-point
    route's (one schedule program per point through the same service):
    bitwise for an amplitude slot, within ``TOL`` for a delay slot,
    whose family splits the run at the cut and adds the inserted
    samples' carrier phase in one step."""
    device = SuperconductingDevice("sc", num_qubits=1, seed=2, drift_rate=0.0)
    device.set_frame_frequency(0, device.true_frequency(0) + 2e6)
    if kind == "amplitude":
        program, grid = amplitude_program(device), {"amp": np.linspace(-1, 1, 9)}
    else:
        program, grid = delay_program(device), {"tau": np.arange(0, 400, 40.0)}
    pub = (program, "Z", grid)
    direct = Estimator(repro.Target.from_device(device)).run([pub])[0].data.evs
    client, service = served(device)
    try:
        target = repro.Target.from_service(service, device.name)
        estimator = Estimator(target)
        evs = estimator.run([pub])[0].data.evs
        family = repro.compile(program, target).bind_many(
            np.c_[next(iter(grid.values()))]
        )
        per_point = estimator.run(
            [
                (repro.Program.from_schedule(family.member(k)), "Z")
                for k in range(len(family))
            ]
        )
    finally:
        service.stop()
        client.close()
    np.testing.assert_array_equal(evs, direct)
    reference = [float(r.data.evs) for r in per_point]
    if kind == "amplitude":
        np.testing.assert_array_equal(evs, reference)
    else:
        np.testing.assert_allclose(evs, reference, rtol=0, atol=TOL)


def test_family_sweep_is_one_request_with_the_batch_as_its_result():
    """A sweep over one bound ``FamilyBatch`` is one request; its
    ticket hands back the ``BatchResult`` and reads the pre-readout
    expectations a per-point sweep reads."""
    device = SuperconductingDevice("sc", num_qubits=1, seed=2, drift_rate=0.0)
    program = delay_program(device)
    taus = np.arange(0, 200, 40.0)
    client, service = served(device)
    try:
        target = repro.Target.from_service(service, device.name)
        family = repro.compile(program, target).bind_many(taus[:, None])
        ticket = service.submit_sweep(
            SweepRequest.from_programs([FamilyBatch([family])], device.name, shots=0)
        )
        batch = ticket.results(30)
        evs = ticket.expectations("Z", 30)
        per_point = service.submit_sweep(
            SweepRequest.from_programs(
                [family.member(k) for k in range(len(taus))], device.name, shots=0
            )
        ).expectations("Z", 30)
        snapshot = service.metrics.snapshot()
    finally:
        service.stop()
        client.close()
    assert len(ticket) == 1 and len(batch) == len(taus)
    assert [len(f) for f in batch.families] == [len(taus)]
    assert snapshot["sweep_points"] == 2 * len(taus)
    np.testing.assert_allclose(evs, per_point, rtol=0, atol=TOL)


def _family_stack(primary):
    """A service over *primary*, a remote equivalent (which sorts
    first among the candidates) and a local one, ``sc-good``."""
    driver = QDMIDriver()
    driver.register_device(primary)
    driver.register_device(
        RemoteDeviceProxy(SuperconductingDevice("sc-cloud", num_qubits=1, seed=2))
    )
    driver.register_device(SuperconductingDevice("sc-good", num_qubits=1, seed=2))
    return MQSSClient(driver, persistent_sessions=True)


def _family_sweep(service, device_name):
    """A sweep over one two-member amplitude family bound on
    *device_name*; returns ``(ticket, family)``."""
    program = amplitude_program(SuperconductingDevice(num_qubits=1))
    target = repro.Target.from_service(service, device_name)
    family = repro.compile(program, target).bind_many(np.c_[[0.2, 0.6]])
    ticket = service.submit_sweep(
        SweepRequest.from_programs([FamilyBatch([family])], device_name, shots=0)
    )
    return ticket, family


def _assert_ran_remotely(client, ticket, family):
    """The family ran on the remote device as one QIR job per member,
    and its stacked arrays equal the family run directly."""
    [got] = ticket.results(30).families
    result = ticket.tickets[0].result()
    assert result.device == "remote:sc-cloud" and result.remote
    remote = client.driver.get_device("remote:sc-cloud")
    assert remote.telemetry["jobs"] == len(family)
    direct = SuperconductingDevice(num_qubits=1, seed=2).executor
    [want] = direct.execute_batch(family, shots=0).families
    np.testing.assert_allclose(
        got.ideal_probabilities, want.ideal_probabilities, rtol=0, atol=1e-12
    )
    np.testing.assert_array_equal(got.durations, want.durations)


def test_a_family_batch_fails_over_to_the_remote_device():
    """After a primary fault a bound family batch fails over to the
    first equivalent device, the remote one, and runs there."""
    client = _family_stack(FailingDevice("sc-bad", num_qubits=1, seed=2))
    service = PulseService(client)
    try:
        sweep, family = _family_sweep(service, "sc-bad")
        assert len(sweep.results(30)) == 2
        assert sweep.tickets[0].attempts == 1
        assert service.metrics.get("failovers") == 1
        _assert_ran_remotely(client, sweep, family)
    finally:
        service.stop()
        client.close()


def test_a_family_batch_runs_on_a_remote_device():
    client = _family_stack(SuperconductingDevice("sc-a", num_qubits=1, seed=2))
    service = PulseService(client)
    try:
        sweep, family = _family_sweep(service, "remote:sc-cloud")
        _assert_ran_remotely(client, sweep, family)
    finally:
        service.stop()
        client.close()


def test_served_parametric_sampler_equals_per_point_served_route():
    """Seeded counts and pre-readout probabilities of a served
    amplitude PUB equal the per-point served route's."""
    device = SuperconductingDevice("sc", num_qubits=1, seed=2, drift_rate=0.0)
    program = amplitude_program(device)
    amps = np.linspace(0.1, 0.9, 5)
    client, service = served(device)
    try:
        target = repro.Target.from_service(service, device.name)
        sampler = Sampler(target, seed=11)
        family = sampler.run([(program, {"amp": amps}, 64)])[0].data
        members = repro.compile(program, target).bind_many(amps[:, None])
        per_point = sampler.run(
            [
                (repro.Program.from_schedule(members.member(k)), None, 64)
                for k in range(len(amps))
            ]
        )
    finally:
        service.stop()
        client.close()
    assert list(family.counts) == [r.data.counts[()] for r in per_point]
    assert list(family.probabilities) == [r.data.probabilities[()] for r in per_point]


@pytest.mark.parametrize(
    ("kind", "params"),
    [("rabi_scan", {"shots": 0}), ("ramsey_scan", {"shots": 0})],
)
def test_served_scan_is_one_family_one_job_one_execution(kind, params, monkeypatch):
    """One scan on a ``PulseService``: no cold compile (the bound family
    is checked, not compiled), 1 QDMI job, 1 ``execute_batch`` of one
    family, 1 measurement pass, and no per-point schedule."""
    device = SuperconductingDevice("cal", num_qubits=2, seed=5)
    client, service = served(device)
    batches, tails, members = [], [], []
    execute, finalize, member = (
        ScheduleExecutor.execute_batch,
        ScheduleExecutor._finalize,
        ScheduleFamily.member,
    )

    def spy_execute(self, schedules, **kwargs):
        batches.append([len(f) for f in getattr(schedules, "families", [])])
        return execute(self, schedules, **kwargs)

    monkeypatch.setattr(ScheduleExecutor, "execute_batch", spy_execute)
    monkeypatch.setattr(
        ScheduleExecutor,
        "_finalize",
        lambda self, *a: tails.append(1) or finalize(self, *a),
    )
    monkeypatch.setattr(
        ScheduleFamily, "member", lambda self, k: members.append(k) or member(self, k)
    )
    try:
        misses = client.compiler.stats()["misses"]
        jobs = len(device.executed_jobs)
        dag = DAG("scan")
        dag.task("scan", kind, params)
        run = PipelineRunner(service).run(dag, seed=0)
        assert run.ok, run.error
        points = len(next(iter(run.result("scan")["populations"].values())))
        assert client.compiler.stats()["misses"] == misses
        assert len(device.executed_jobs) == jobs + 1
        assert service.metrics.snapshot()["execute_count"] == 1
        assert batches == [[points]]
        assert len(tails) == 1
        assert members == []
    finally:
        service.stop()
        client.close()


def test_scans_bind_one_family_on_a_direct_target(monkeypatch):
    """Rabi and Ramsey each evolve as one family (an amplitude slot,
    then a delay slot) with one measurement pass."""
    device = SuperconductingDevice(num_qubits=2, seed=1)
    families = []
    execute = ScheduleExecutor.execute_batch

    def spy(self, schedules, **kwargs):
        families.append(schedules)
        return execute(self, schedules, **kwargs)

    monkeypatch.setattr(ScheduleExecutor, "execute_batch", spy)
    for kind in ("rabi_scan", "ramsey_scan"):
        dag = DAG(kind)
        dag.task("scan", kind, {"shots": 0})
        assert PipelineRunner(device).run(dag, seed=0).ok
    rabi, ramsey = families
    assert isinstance(rabi, ScheduleFamily) and isinstance(ramsey, ScheduleFamily)
    assert {f for _, f, _ in rabi.slots} == {"scale"}
    assert {f for _, f, _ in ramsey.slots} == {"duration"}
    assert ramsey.idle is not None


def _timed_events(sched):
    """Every event but barriers and delays as ``(t0, t1, key, frame
    frequency and phase)``: the canonical form plus the exact frames,
    which the canonical key names only."""
    events = []
    for item in sched.ordered():
        ins = item.instruction
        if isinstance(ins, (Barrier, Delay)):
            continue
        frame = getattr(ins, "frame", None)
        exact = () if frame is None else (frame.frequency, frame.phase)
        events.append((item.t0, item.t1, sched._instruction_key(ins), exact))
    return sorted(events)


def test_ramsey_program_binds_to_the_hand_built_schedule():
    """The parametric Ramsey program bound at a delay is the hand-built
    two-site schedule: the same events at the same times on the same
    detuned frames, with the measurement after the second pulses."""
    device = SuperconductingDevice(num_qubits=2, seed=11)
    sites, detuning = [0, 1], 2e6
    program = _ramsey_program(device, sites, detuning)
    delays = _ramsey_delays(device, 1024, 41)
    for tau in (0, int(delays[5]), int(delays[-1])):
        bound = module_to_schedule(program.module, device, {"tau": float(tau)})
        reference = _ramsey_schedule(device, sites, tau, detuning, "ref")
        assert bound.equivalent_to(reference)
        assert bound.duration == reference.duration
        assert _timed_events(bound) == _timed_events(reference)


@pytest.mark.parametrize(
    ("kind", "values", "error"),
    [
        ("amplitude", [0.5, 1.5], PassError),
        ("delay", [40.0, -40.0], ValidationError),
        ("delay", [40.0, 41.5], ValidationError),
    ],
    ids=["over-amplitude", "negative-delay", "fractional-delay"],
)
@pytest.mark.parametrize("where", ["direct", "service"])
def test_out_of_range_point_raises_the_per_point_error(kind, values, error, where):
    """A point that fails a bind check sends the PUB down the per-point
    route on both targets, which raises the per-point compile's error."""
    device = SuperconductingDevice(num_qubits=1, drift_rate=0.0)
    build = amplitude_program if kind == "amplitude" else delay_program
    program = build(device)
    name = program.parameters[0]
    client = service = None
    if where == "direct":
        target = repro.Target.from_device(device)
    else:
        client, service = served(device)
        target = repro.Target.from_service(service, device.name)
    try:
        assert repro.compile(program, target).bind_many(np.c_[values]) is None
        with pytest.raises(error):
            Estimator(target).run([(program, "Z", {name: values})])
    finally:
        if service is not None:
            service.stop()
            client.close()


def test_off_grid_delay_takes_the_per_point_route_alike():
    """An off-grid delay is not a family member: both targets compile
    it point by point, where legalization aligns it to the grid."""
    grid = {"tau": [40.0, 44.0]}
    device = SuperconductingDevice(num_qubits=1, drift_rate=0.0)
    program = delay_program(device)
    target = repro.Target.from_device(device)
    assert repro.compile(program, target).bind_many(np.c_[grid["tau"]]) is None
    direct = Estimator(target).run([(program, "Z", grid)])[0].data.evs
    client, service = served(SuperconductingDevice(num_qubits=1, drift_rate=0.0))
    try:
        target = repro.Target.from_service(service, "sc-transmon")
        remote = Estimator(target).run([(program, "Z", grid)])[0].data.evs
    finally:
        service.stop()
        client.close()
    np.testing.assert_array_equal(direct, remote)


def test_mitigated_amplitude_pub_matches_per_variant_reference():
    """Stretching replaces a scaled play, so a mitigated PUB over an
    amplitude slot runs its variants per point; its evs equal those of
    one single-point PUB per member."""
    from repro.qem import EstimatorOptions

    device = SuperconductingDevice(
        num_qubits=1, drift_rate=0.0, with_decoherence=True, t1=30e-6, t2=20e-6
    )
    target = repro.Target.from_device(device)
    program = amplitude_program(device)
    amps = np.linspace(0.1, 0.9, 4)
    options = EstimatorOptions(mitigation=("zne", "twirling", "readout"))
    evs = Estimator(target, options=options, seed=3).run(
        [(program, "Z", {"amp": amps})]
    )[0].data.evs
    family = repro.compile(program, target).bind_many(amps[:, None])
    reference = Estimator(target, options=options, seed=3).run(
        [(repro.Program.from_schedule(family.member(k)), "Z") for k in range(len(amps))]
    )
    np.testing.assert_allclose(
        evs, [float(r.data.evs) for r in reference], rtol=0, atol=1e-12
    )


# ---- IR: verifiers, passes, exchange ------------------------------------------------


def _operand_module():
    sb = SequenceBuilder("ops")
    mf = sb.add_mixed_frame_arg("d0", "q0-drive-port")
    a = sb.add_scalar_arg("a")
    b = sb.add_scalar_arg("b")
    tau = sb.add_scalar_arg("tau")
    shape = constant_waveform(16, 2.0)
    sb.play(mf, sb.waveform(shape, amplitude=a))
    sb.play(mf, sb.waveform(shape, amplitude=b))
    sb.delay(mf, tau)
    sb.delay(mf, tau)
    sb.delay(mf, 12)
    sb.ret()
    return sb.module


def _device_schedule(module, **params):
    return module_to_schedule(module, SuperconductingDevice(num_qubits=1), params)


def test_verifier_accepts_zero_or_one_f64_operand():
    module = parse_module(print_module(_operand_module()))
    verify_module(module, default_context())
    sb = SequenceBuilder("bad")
    mf = sb.add_mixed_frame_arg("d0", "q0-drive-port")
    a = sb.add_scalar_arg("a")
    sb.waveform(constant_waveform(16, 0.1), amplitude=a)
    sb.sequence.region().entry.operations[-1].operands.append(a)
    with pytest.raises(IRError, match="at most one f64 operand"):
        verify_module(sb.module, default_context())
    sb = SequenceBuilder("bad-delay")
    mf = sb.add_mixed_frame_arg("d0", "q0-drive-port")
    sb.delay(mf, mf)  # a mixed frame is no duration
    with pytest.raises(IRError, match="expected f64"):
        verify_module(sb.module, default_context())


def test_cse_keeps_waveforms_scaled_by_different_operands():
    module = _operand_module()
    WaveformCSEPass().run(module, default_context())
    assert len(module.ops_of("pulse.waveform")) == 2
    plays = _device_schedule(module, a=0.1, b=0.3, tau=8.0).instructions_of(
        repro.core.Play
    )
    assert [p.instruction.waveform.scale for p in plays] == [0.1, 0.3]


def test_canonicalize_leaves_dynamic_delays_alone():
    module = _operand_module()
    PulseCanonicalizePass().run(module, default_context())
    assert len(module.ops_of("pulse.delay")) == 3
    assert _device_schedule(module, a=0.1, b=0.3, tau=8.0).duration == 32 + 28


def test_legalize_skips_dynamic_amplitudes_and_delays():
    module = _operand_module()
    constraints = SuperconductingDevice(num_qubits=1).config.constraints
    PulseLegalizationPass(constraints).run(module, default_context())
    delays = module.ops_of("pulse.delay")
    assert [op.attr("duration") for op in delays] == [None, None, 16]
    # The shapes peak at 2.0, past the device's limit; only the bound
    # amplitude can tell.
    assert [op.attr("duration") for op in module.ops_of("pulse.waveform")] == [16, 16]


def test_qir_carries_a_scaled_waveform_as_a_runtime_double():
    device = SuperconductingDevice(num_qubits=1)
    schedule = _device_schedule(_operand_module(), a=0.25, b=-0.5, tau=8.0)
    # A trailing delay pins nothing; a play after it makes QIR keep it.
    drive = device.drive_port(0)
    frame = device.default_frame(drive)
    schedule.append(repro.core.Play(drive, frame, constant_waveform(16, 0.1)))
    qir = schedule_to_qir(schedule)
    assert "@__quantum__pulse__waveform_scale__body(%Waveform* %" in qir
    assert "double 0.25" in qir and "double -0.5" in qir
    linked = link_qir_to_schedule(qir, device)
    assert linked.equivalent_to(schedule)
    assert linked.duration == schedule.duration
    scaled = [
        p.instruction.waveform
        for p in linked.instructions_of(repro.core.Play)
        if isinstance(p.instruction.waveform, ScaledWaveform)
    ]
    assert [w.scale for w in scaled] == [0.25, -0.5]
    as_double = qir.replace("i64 28)", "double 28.0)", 1)
    assert as_double != qir
    assert link_qir_to_schedule(as_double, device).duration == schedule.duration
    with pytest.raises(LinkError, match="whole number"):
        link_qir_to_schedule(qir.replace("i64 28)", "double 28.5)", 1), device)


def test_interpreter_rejects_a_fractional_delay():
    with pytest.raises(ValidationError, match="whole number"):
        _device_schedule(_operand_module(), a=0.1, b=0.2, tau=4.5)


def test_estimator_reads_one_slotted_observable_per_site():
    """Both sites of a two-site amplitude program read their own slot."""
    device = SuperconductingDevice(num_qubits=2, drift_rate=0.0)
    program = amplitude_program(device, n=2)
    evs = Estimator(repro.Target.from_device(device)).run(
        [(program, [[Observable.z(0)], [Observable.z(1)]], {"amp": [0.0, 0.125]})]
    )[0].data.evs
    np.testing.assert_allclose(evs[:, 0], [1.0, 1.0], atol=1e-9)
    assert (evs[:, 1] < 0.9).all()
