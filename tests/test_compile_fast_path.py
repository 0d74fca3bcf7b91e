"""The JIT's fast path: a legal schedule the pass pipeline would hand
back unchanged is compiled as it stands.

The differential tests run each schedule down both routes. The fast
route is ``JITCompiler.compile``. The pipeline route is forced by
calling the private lowering step (lift + passes) and interpreting its
module back, which is what every cold compile of a schedule did before
the fast path existed. Both routes must denote the same program,
execute to bitwise-equal numbers, emit the same QIR and lower to the
same pulse-MLIR text.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from test_roundtrip_properties import DEVICE, device_schedules

import repro.compiler.jit as jit_module
from repro.compiler import JITCompiler, mlir_pulse_to_schedule
from repro.core import (
    Delay,
    ParametricWaveform,
    Play,
    PulseSchedule,
    SampledWaveform,
    ShiftPhase,
)
from repro.core.constraints import PulseConstraints
from repro.errors import PassError
from repro.mlir.context import default_context
from repro.mlir.ir import print_module
from repro.mlir.passes import PassManager
from repro.qdmi.properties import DeviceProperty
from repro.qir import schedule_to_qir

#: Derandomized, so tier-1 runs the same examples every time.
PROFILE = settings(
    derandomize=True, max_examples=30, deadline=None, database=None
)


def pipeline_route(schedule, device):
    """The eager compile: lift, pass pipeline, interpret, validate."""
    constraints = device.query_device_property(DeviceProperty.PULSE_CONSTRAINTS)
    module, report = jit_module._pulse_pipeline(
        schedule, constraints, default_context()
    )
    out = mlir_pulse_to_schedule(module, device)
    constraints.validate_schedule(out)
    return out, module, report


def took_fast_route(program) -> bool:
    return program._lowered is None


def assert_routes_agree(program, schedule, device):
    reference, module, _ = pipeline_route(schedule, device)
    assert program.schedule.equivalent_to(reference)
    [fast] = device.executor.execute_batch([program.schedule], shots=0)
    [slow] = device.executor.execute_batch([reference], shots=0)
    # Bitwise: both routes place the same drive samples at the same
    # times over the same duration, so every float op is the same.
    assert fast.probabilities == slow.probabilities
    assert np.array_equal(fast.final_state, slow.final_state)
    assert program.qir == schedule_to_qir(reference)
    assert print_module(program.pulse_module) == print_module(module)


@PROFILE
@given(device_schedules())
def test_generated_schedules_compile_the_same_on_both_routes(schedule):
    program = JITCompiler().compile(schedule, DEVICE)
    assert_routes_agree(program, schedule, DEVICE)


@PROFILE
@given(device_schedules())
def test_pipeline_output_takes_the_fast_route(schedule):
    """The pipeline's output is its own fixed point, so recompiling it
    always takes the fast route — and must agree with the pipeline."""
    legal, _, _ = pipeline_route(schedule, DEVICE)
    program = JITCompiler().compile(legal, DEVICE)
    assert took_fast_route(program)
    assert_routes_agree(program, legal, DEVICE)


def drive_play(device, waveform, schedule=None):
    schedule = schedule if schedule is not None else PulseSchedule("s")
    port = device.drive_port(0)
    schedule.append(Play(port, device.default_frame(port), waveform))
    return schedule


class TestRoutes:
    def test_legal_schedule_takes_the_fast_route(self, sc_device):
        wf = ParametricWaveform("gaussian", 32, {"amp": 0.3, "sigma": 8.0})
        s = drive_play(sc_device, wf)
        program = JITCompiler().compile(s, sc_device)
        assert took_fast_route(program)
        assert program.metadata == {"granularity": 8, "dt": 1e-9}
        assert program.pass_report.ran  # the lazy step ran the passes

    @pytest.mark.parametrize(
        "tail",
        [
            # zero-delta shift: canonicalize drops it
            lambda port, frame: ShiftPhase(port, frame, 0.0),
            # trailing delay: the lift keeps only delays that pin events
            lambda port, frame: Delay(port, 16),
        ],
        ids=["zero-shift", "trailing-delay"],
    )
    def test_schedules_the_pipeline_rewrites_take_it(self, sc_device, tail):
        s = drive_play(sc_device, SampledWaveform(np.full(16, 0.2)))
        port = sc_device.drive_port(0)
        s.append(tail(port, sc_device.default_frame(port)))
        program = JITCompiler().compile(s, sc_device)
        assert not took_fast_route(program)
        assert_routes_agree(program, s, sc_device)

    def test_off_grid_delay_is_aligned(self, sc_device):
        s = PulseSchedule("offgrid")
        s.append(Delay(sc_device.drive_port(0), 5))
        drive_play(sc_device, SampledWaveform(np.full(16, 0.2)), s)
        program = JITCompiler().compile(s, sc_device)
        assert not took_fast_route(program)
        [play] = program.schedule.instructions_of(Play)
        assert play.t0 == 8
        assert_routes_agree(program, s, sc_device)

    def test_foreign_envelope_is_sampled(self, sc_device):
        wf = ParametricWaveform("sech", 64, {"amp": 0.3, "sigma": 8.0})
        s = drive_play(sc_device, wf)
        program = JITCompiler().compile(s, sc_device)
        assert not took_fast_route(program)
        [play] = program.schedule.instructions_of(Play)
        assert isinstance(play.instruction.waveform, SampledWaveform)
        assert_routes_agree(program, s, sc_device)

    @pytest.mark.parametrize(
        "device_name, waveform, match",
        [
            ("sc", SampledWaveform(np.full(16, 1.7)), "exceeds device limit"),
            ("ion", SampledWaveform(np.full(32, 0.3)), "raw sampled waveforms"),
        ],
        ids=["over-amplitude", "raw-samples-on-ion"],
    )
    def test_infeasible_schedules_are_rejected_as_by_the_pipeline(
        self, sc_device, ion_device, device_name, waveform, match
    ):
        device = {"sc": sc_device, "ion": ion_device}[device_name]
        s = drive_play(device, waveform)
        with pytest.raises(PassError, match=match) as via_pipeline:
            pipeline_route(s, device)
        with pytest.raises(PassError, match=match) as via_jit:
            JITCompiler().compile(s, device)
        assert str(via_jit.value) == str(via_pipeline.value)


class TestNoAliasing:
    def test_memoized_schedule_is_not_the_callers(self, sc_device):
        def build():
            return drive_play(sc_device, SampledWaveform(np.full(16, 0.2)))

        jit = JITCompiler()
        payload = build()
        first = jit.compile(payload, sc_device)
        fingerprint, length = first.schedule.fingerprint(), len(first.schedule)
        drive_play(sc_device, SampledWaveform(np.full(8, 0.1)), payload)
        again = jit.compile(build(), sc_device)
        assert again.cache_hit
        assert len(again.schedule) == length
        assert again.schedule.fingerprint() == fingerprint


class TestCompileCounts:
    """Pinned call counts of the cold compile's stages."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"lift": 0, "passes": 0, "interpret": 0, "validate": 0}

        def counting(key, fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            jit_module,
            "schedule_to_pulse_module",
            counting("lift", jit_module.schedule_to_pulse_module),
        )
        monkeypatch.setattr(
            jit_module,
            "mlir_pulse_to_schedule",
            counting("interpret", jit_module.mlir_pulse_to_schedule),
        )
        monkeypatch.setattr(
            PassManager, "run", counting("passes", PassManager.run)
        )
        monkeypatch.setattr(
            PulseConstraints,
            "validate_schedule",
            counting("validate", PulseConstraints.validate_schedule),
        )
        return counts

    def test_legal_schedule_skips_the_pipeline(self, sc_device, calls):
        s = drive_play(sc_device, SampledWaveform(np.full(16, 0.2)))
        jit = JITCompiler()
        program = jit.compile(s, sc_device)
        assert calls == {"lift": 0, "passes": 0, "interpret": 0, "validate": 1}
        assert jit.stats["misses"] == 1
        assert jit.compile(s, sc_device).cache_hit  # memoized under its key
        # Reading the module runs the lowering step once, then caches it.
        assert "pulse.sequence" in print_module(program.pulse_module)
        assert program.pass_report is program.pass_report
        assert calls == {"lift": 1, "passes": 1, "interpret": 0, "validate": 1}

    def test_illegal_schedule_runs_the_pipeline(self, sc_device, calls):
        wf = ParametricWaveform("sech", 64, {"amp": 0.3, "sigma": 8.0})
        JITCompiler().compile(drive_play(sc_device, wf), sc_device)
        # validate twice: the payload, then the legalized schedule.
        assert calls == {"lift": 1, "passes": 1, "interpret": 1, "validate": 2}
