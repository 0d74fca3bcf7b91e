"""Calibration write-backs rebind, they do not recompile.

Scan programs name their calibrated frames (``pulse.argFrames``
``["default", offset]`` entries), so a write-back that moves believed
frequencies or readout confusion leaves the program and its schedule
template as they are: the next bind writes the new frames into the
template's base. A write-back that changes the calibration structure
(a DRAG beta reshapes the ``x`` waveform) retraces.
"""

from __future__ import annotations

import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
import repro.api.executable as executable_module
from repro.client import MQSSClient
from repro.compiler.jit import JITCompiler
from repro.core import Barrier, Delay
from repro.devices import SuperconductingDevice
from repro.errors import IRError
from repro.mlir.interp import module_to_schedule
from repro.mlir.parser import parse_module
from repro.mlir.ir import print_module
from repro.pipeline import PipelineRunner, commit_writeback, full_calibration_dag
from repro.pipeline.experiments import (
    _rabi_program,
    _ramsey_delays,
    _ramsey_program,
    _ramsey_schedule,
    _readout_program,
    _ScanProgram,
)
from repro.qdmi import QDMIDriver
from repro.serving import PulseService

SITES = [0, 1]


def _programs(device):
    """Each scan's program with a few of its points."""
    delays = _ramsey_delays(device, 256, 5).astype(np.float64)
    return {
        "rabi": (_rabi_program(device, SITES, 40), np.linspace(0.1, 0.9, 4)),
        "ramsey": (_ramsey_program(device, SITES, 2e6), delays),
        "readout": (_readout_program(device, SITES), np.array([0.0, 1.0])),
    }


def _exact(family):
    """The family's base items with every field exact (frames, scalars,
    waveform samples), its slots, idle slot and value bytes."""
    items = []
    for item in family.base._items:
        ins = item.instruction
        fields = {k: v for k, v in vars(ins).items() if k != "waveform"}
        wf = getattr(ins, "waveform", None)
        samples = None if wf is None else wf.samples().tobytes()
        items.append((item.t0, item.seq, type(ins), repr(fields), samples))
    return items, family.slots, family.idle, family.values.tobytes()


def _outcomes(device, family):
    out = device.executor.execute_batch(family, shots=0).families[0]
    return out.ideal_probabilities.tobytes(), out.probabilities.tobytes()


def _write_back(device, write) -> None:
    kind, a, b = write
    if kind == "frequency":
        commit_writeback(
            device, frequencies={a: device.believed_frequency(a) + b}
        )
    elif kind == "confusion":
        commit_writeback(
            device, confusion={s: {"p01": a, "p10": b} for s in SITES}
        )
    else:
        commit_writeback(device, drag_beta=a)


WRITES = st.one_of(
    st.tuples(
        st.just("frequency"),
        st.sampled_from(SITES),
        st.floats(-5e6, 5e6, allow_nan=False),
    ),
    st.tuples(
        st.just("confusion"), st.floats(0.0, 0.1), st.floats(0.0, 0.1)
    ),
    st.tuples(st.just("drag"), st.floats(-1.0, 1.0), st.just(None)),
)


@settings(derandomize=True, max_examples=12, deadline=None, database=None)
@given(
    kind=st.sampled_from(["rabi", "ramsey", "readout"]),
    writes=st.lists(WRITES, min_size=1, max_size=3),
)
def test_surviving_template_binds_like_a_fresh_trace(kind, writes):
    """After each write-back the surviving template's family equals a
    freshly traced template's bit for bit (base items, slots, values),
    and so do their executed outcomes; only a DRAG write-back
    retraces, once."""
    device = SuperconductingDevice(num_qubits=2, seed=4, drift_rate=0.0)
    program, points = _programs(device)[kind]
    values = points[:, None]
    target = repro.Target.from_device(device)
    surviving = repro.compile(program, target)
    assert surviving.bind_many(values) is not None
    traces = []
    build = executable_module._build_template

    def counted(*args):
        traces.append(1)
        return build(*args)

    with mock.patch.object(executable_module, "_build_template", counted):
        for write in writes:
            _write_back(device, write)
            traces.clear()
            family = surviving.bind_many(values)
            assert len(traces) == (write[0] == "drag")
            assert surviving.bind_many(values) is not None
            assert len(traces) == (write[0] == "drag")
            fresh = repro.compile(program, target).bind_many(values)
            assert _exact(family) == _exact(fresh)
            assert _outcomes(device, family) == _outcomes(device, fresh)


def _timed_events(sched):
    """Every event but barriers and delays as ``(t0, t1, key, frame
    frequency and phase)``: the canonical form plus the exact frames."""
    events = []
    for item in sched.ordered():
        ins = item.instruction
        if isinstance(ins, (Barrier, Delay)):
            continue
        frame = getattr(ins, "frame", None)
        exact = () if frame is None else (frame.frequency, frame.phase)
        events.append((item.t0, item.t1, sched._instruction_key(ins), exact))
    return sorted(events)


def test_ramsey_program_binds_to_the_hand_built_schedule_after_a_write_back():
    """A Ramsey program built before a frequency write-back, and its
    template, bind to the hand-built schedule at the new frequency."""
    device = SuperconductingDevice(num_qubits=2, seed=11)
    program = _ramsey_program(device, SITES, 2e6)
    delays = _ramsey_delays(device, 1024, 41)
    executable = repro.compile(program, repro.Target.from_device(device))
    executable.bind_many(delays[:, None].astype(np.float64))
    commit_writeback(
        device,
        frequencies={0: device.believed_frequency(0) + 3.25e6, 1: 5.0991e9},
    )
    family = executable.bind_many(delays[:, None].astype(np.float64))
    for k in (0, 5, len(delays) - 1):
        tau = int(delays[k])
        reference = _ramsey_schedule(device, SITES, tau, 2e6, "ref")
        for bound in (
            module_to_schedule(program.module, device, {"tau": float(tau)}),
            family.member(k),
        ):
            assert bound.equivalent_to(reference)
            assert bound.duration == reference.duration
            assert _timed_events(bound) == _timed_events(reference)


def test_offset_frames_survive_the_text_form_and_malformed_entries_raise():
    """A ``["default", offset]`` frame entry prints, parses back and
    interprets to the same detuned frames; an entry of neither known
    form is refused."""
    device = SuperconductingDevice(num_qubits=2, seed=11)
    module = parse_module(print_module(_ramsey_program(device, SITES, 2e6).module))
    reference = _ramsey_schedule(device, SITES, 64, 2e6, "ref")
    bound = module_to_schedule(module, device, {"tau": 64.0})
    assert _timed_events(bound) == _timed_events(reference)
    (sequence,) = module.ops_of("pulse.sequence")
    sequence.attributes["pulse.argFrames"][1] = ["offset", 2e6]
    with pytest.raises(IRError, match="malformed pulse.argFrames"):
        module_to_schedule(module, device, {"tau": 64.0})


def test_a_warm_calibration_op_builds_traces_and_compiles_nothing_new(
    monkeypatch,
):
    """The second of two calibration DAG ops on one runner through a
    ``PulseService`` (the first op's write-back between them) builds no
    scan program, traces no template and compiles nothing on either
    side: the service checks each scan's new bound family against the
    device's constraints without compiling it."""
    device = SuperconductingDevice("cal", num_qubits=1, seed=5, drift_rate=2e4)
    driver = QDMIDriver()
    driver.register_device(device)
    client = MQSSClient(driver, persistent_sessions=True)
    service = PulseService(client)
    calls = []
    build, program, cold = (
        executable_module._build_template,
        _ScanProgram.program,
        JITCompiler._compile_cold,
    )
    caller = threading.current_thread()

    def spy_cold(self, payload, *args):
        side = "client" if threading.current_thread() is caller else "service"
        calls.append((side, type(payload).__name__))
        return cold(self, payload, *args)

    monkeypatch.setattr(
        executable_module,
        "_build_template",
        lambda *a: calls.append("trace") or build(*a),
    )
    monkeypatch.setattr(
        _ScanProgram, "program", lambda self: calls.append("build") or program(self)
    )
    monkeypatch.setattr(JITCompiler, "_compile_cold", spy_cold)
    try:
        runner = PipelineRunner(service, device=device)
        epochs = []
        for seed in (1, 2):
            calls.clear()
            device.advance_time(60.0)
            run = runner.run(full_calibration_dag(include_drag=False), seed=seed)
            assert run.ok, run.error
            epochs.append(device.calibration_epoch)
        assert epochs[1] > epochs[0] > 0  # each op wrote back
        assert calls == []
    finally:
        service.stop()
        client.close()
