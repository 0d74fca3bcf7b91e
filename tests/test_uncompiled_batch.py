"""A bound family batch runs as it stands; a schedule key covers its frames.

``repro.api.core.compile_payload`` checks each family of a bound
``FamilyBatch`` against the constraints the device reports and hands
the batch back uncompiled, so the JIT never sees one and its memo holds
compiled schedules only, however many calibration ops write back. An
out-of-range batch still raises the typed ``ConstraintError`` on a
client and on a service target.

A schedule's fingerprint (the JIT memo key and the serving layer's
coalescing key) describes a ``Play`` and a ``Capture`` by the frame's
frequency and phase as well as its name, so a detuned copy of a
schedule is a different program everywhere.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.client import JobRequest, MQSSClient
from repro.core import (
    FamilyBatch,
    Frame,
    Play,
    PulseSchedule,
    SampledWaveform,
    ScheduleFamily,
    SetFrequency,
)
from repro.devices import SuperconductingDevice
from repro.errors import ConstraintError
from repro.pipeline import PipelineRunner, full_calibration_dag
from repro.qdmi import QDMIDriver
from repro.serving import PulseService, SweepRequest

DETUNING_HZ = 20e6


def _client(device) -> MQSSClient:
    driver = QDMIDriver()
    driver.register_device(device)
    return MQSSClient(driver, persistent_sessions=True)


def _one_play(device, detuning: float = 0.0, *, measured: bool = False):
    """One 32-sample play on qubit 0's drive frame, *detuning* Hz off
    the believed frequency, measured when *measured*."""
    port = device.drive_port(0)
    default = device.default_frame(port)
    frame = Frame(default.name, default.frequency + detuning, default.phase)
    schedule = PulseSchedule("one-play")
    schedule.append(Play(port, frame, SampledWaveform(np.full(32, 0.1 + 0j))))
    if measured:
        device.calibrations.get("measure", (0,)).apply(schedule, [0])
    return schedule


def _out_of_range_batch(device) -> FamilyBatch:
    """A hand-built two-member family whose second member sets the
    drive carrier past the device's frequency range."""
    port = device.drive_port(0)
    frame = device.default_frame(port)
    base = PulseSchedule("retune")
    base.append(SetFrequency(port, frame, frame.frequency))
    base.append(Play(port, frame, SampledWaveform(np.full(32, 0.1 + 0j))))
    values = np.array([[frame.frequency], [1e13]])
    return FamilyBatch([ScheduleFamily(base, [(0, "frequency", 0)], values)])


def test_calibration_ops_through_a_service_compile_no_batch():
    """Ten calibration DAG ops through a ``PulseService``: the JIT's
    cold-compile count does not move and its memo holds no batch."""
    device = SuperconductingDevice("cal", num_qubits=1, seed=0, drift_rate=2e4)
    client = _client(device)
    service = PulseService(client)
    try:
        runner = PipelineRunner(service, device=device)
        misses = client.compiler.stats["misses"]
        for seed in range(10):
            device.advance_time(60.0)
            run = runner.run(full_calibration_dag(include_drag=False), seed=seed)
            assert run.ok, run.error
        assert client.compiler.stats["misses"] == misses
        memo = list(client.compiler._cache.values())
        assert all(isinstance(p.schedule, PulseSchedule) for p in memo)
    finally:
        service.stop()
        client.close()


def test_out_of_range_batch_raises_on_a_client_target():
    device = SuperconductingDevice("sc", num_qubits=1, drift_rate=0.0)
    client = _client(device)
    request = JobRequest(_out_of_range_batch(device), device.name, shots=0)
    try:
        with pytest.raises(ConstraintError, match="frequency"):
            client.compile_request(request)
        assert client.compiler.stats["misses"] == 0
    finally:
        client.close()


def test_out_of_range_batch_raises_on_a_service_target():
    device = SuperconductingDevice("sc", num_qubits=1, drift_rate=0.0)
    client = _client(device)
    service = PulseService(client)
    try:
        ticket = service.submit_sweep(
            SweepRequest.from_programs(
                [_out_of_range_batch(device)], device.name, shots=0
            )
        )
        with pytest.raises(ConstraintError, match="frequency"):
            ticket.results(30)
    finally:
        service.stop()
        client.close()


def test_a_detuned_schedule_is_a_jit_miss_at_its_own_frequency():
    device = SuperconductingDevice("sc", num_qubits=1, drift_rate=0.0)
    believed = device.believed_frequency(0)
    compiler = _client(device).compiler
    first = compiler.compile(_one_play(device), device)
    detuned = compiler.compile(_one_play(device, DETUNING_HZ), device)
    assert not detuned.cache_hit
    assert compiler.stats["misses"] == 2
    (play,) = detuned.schedule.instructions_of(Play)
    assert play.instruction.frame.frequency == believed + DETUNING_HZ
    (play,) = first.schedule.instructions_of(Play)
    assert play.instruction.frame.frequency == believed


def test_schedules_differing_in_a_frame_frequency_are_not_equivalent():
    device = SuperconductingDevice("sc", num_qubits=1, drift_rate=0.0)
    on, off = _one_play(device), _one_play(device, DETUNING_HZ)
    assert on.equivalent_to(_one_play(device))
    assert not on.equivalent_to(off)
    assert on.fingerprint() != off.fingerprint()


def test_service_requests_differing_in_a_frame_frequency_do_not_coalesce():
    """Two equal requests coalesce into one execution; a third that
    differs only in a frame frequency runs on its own."""
    device = SuperconductingDevice("sc", num_qubits=1, drift_rate=0.0)
    client = _client(device)
    service = PulseService(client, start=False)
    try:
        tickets = [
            service.submit(
                JobRequest(_one_play(device, d, measured=True), device.name, 64, seed=3)
            )
            for d in (0.0, 0.0, DETUNING_HZ)
        ]
        service.start()
        results = [t.result(30) for t in tickets]
        assert service.metrics.get("coalesced_executions") == 1
        assert service.metrics.get("coalesced_requests") == 2
    finally:
        service.stop()
        client.close()
    assert results[0].probabilities == results[1].probabilities
    assert results[2].probabilities != results[0].probabilities


def test_a_bound_batch_reaches_the_device_uncompiled():
    """A client target hands the bound batch itself to the device."""
    device = SuperconductingDevice("sc", num_qubits=1, drift_rate=0.0)
    client = _client(device)
    target = repro.Target.from_client(client, device.name)
    program = repro.Program.from_schedule(_one_play(device, measured=True))
    batch = FamilyBatch(target.executable(program).families(np.zeros((3, 0))))
    request = JobRequest(batch, device.name, shots=0)
    try:
        assert client.compile_request(request) is batch
        result = client.execute_compiled(request, batch)
    finally:
        client.close()
    assert len(result.batch) == 3
