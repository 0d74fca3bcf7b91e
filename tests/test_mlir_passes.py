"""Unit tests: pass manager + pulse passes (paper claim C2)."""

import numpy as np
import pytest

from repro.core import PulseConstraints, gaussian_waveform, SampledWaveform
from repro.errors import ConstraintError, PassError
from repro.mlir.context import default_context
from repro.mlir.dialects.pulse import SequenceBuilder, attrs_to_waveform
from repro.mlir.dialects.quantum import CircuitBuilder
from repro.mlir.ir import Module, Operation
from repro.mlir.passes import (
    DeadWaveformEliminationPass,
    Pass,
    PassManager,
    PulseCanonicalizePass,
    PulseLegalizationPass,
    WaveformCSEPass,
)


def pulse_module_with(build):
    sb = SequenceBuilder("k")
    mf = sb.add_mixed_frame_arg("d0", "q0-drive-port")
    build(sb, mf)
    return sb.module


class TestPassManager:
    def test_dialect_targeted_pass_skipped(self):
        """The dialect-agnostic orchestration of paper §5.2: a pulse
        pass is skipped for a gate-only module and runs for a pulse
        module, in the same pipeline."""
        pm = PassManager(default_context()).add(PulseCanonicalizePass())
        gate_only = CircuitBuilder("c", 1).x(0).module
        report = pm.run(gate_only)
        assert report.skipped == ["pulse-canonicalize"]

        pulse = pulse_module_with(lambda sb, mf: sb.delay(mf, 0))
        report2 = pm.run(pulse)
        assert report2.ran == ["pulse-canonicalize"]

    def test_full_pipeline_on_a_lowered_deep_circuit(self, sc_device):
        """One four-pass pipeline: skipped wholesale on a gate-only
        module; on a lowered 6-layer circuit it runs every pass, never
        grows the waveform table and keeps the schedule's meaning."""
        from repro.compiler import (
            mlir_pulse_to_schedule,
            quantum_module_to_schedule,
            schedule_to_pulse_module,
        )

        pm = (
            PassManager(default_context())
            .add(PulseCanonicalizePass())
            .add(WaveformCSEPass())
            .add(DeadWaveformEliminationPass())
            .add(PulseLegalizationPass(sc_device.config.constraints))
        )
        gate_report = pm.run(CircuitBuilder("g", 2).x(0).module)
        assert gate_report.skipped and not gate_report.ran
        cb = CircuitBuilder("deep", 2)
        for _ in range(6):
            cb.x(0).x(1).cz(0, 1)
        cb.measure(0, 0).measure(1, 1)
        source = quantum_module_to_schedule(cb.module, sc_device)
        module = schedule_to_pulse_module(source)
        before = len(module.ops_of("pulse.waveform"))
        report = pm.run(module)
        assert len(report.ran) == 4 and not report.skipped
        assert len(module.ops_of("pulse.waveform")) <= before
        assert source.equivalent_to(mlir_pulse_to_schedule(module, sc_device))

    def test_mixed_module_runs_both(self):
        class GateCounter(Pass):
            name = "gate-counter"
            dialect = "quantum"

            def run(self, module, context):
                self.count = len(module.ops_of("quantum.x"))
                return False

        sb = SequenceBuilder("k")
        mf = sb.add_mixed_frame_arg("d0", "p")
        sb.delay(mf, 0)
        sb.module.append(Operation("quantum.x", attributes={"qubit": 0}))
        gc = GateCounter()
        pm = PassManager(default_context()).add(gc).add(PulseCanonicalizePass())
        report = pm.run(sb.module)
        assert report.skipped == []
        assert gc.count == 1

    def test_failing_pass_wrapped(self):
        class Bomb(Pass):
            name = "bomb"

            def run(self, module, context):
                raise RuntimeError("boom")

        pm = PassManager(default_context()).add(Bomb())
        with pytest.raises(PassError):
            pm.run(Module())

    def test_report_runtime_recorded(self):
        pm = PassManager(default_context()).add(PulseCanonicalizePass())
        report = pm.run(pulse_module_with(lambda sb, mf: sb.delay(mf, 8)))
        assert len(report.results) == 1
        assert report.results[0].runtime_s >= 0


class TestCanonicalize:
    def run_pass(self, module):
        return PulseCanonicalizePass().run(module, default_context())

    def test_zero_delay_removed(self):
        m = pulse_module_with(lambda sb, mf: sb.delay(mf, 0))
        assert self.run_pass(m)
        assert not [op for op in m.walk() if op.name == "pulse.delay"]

    def test_adjacent_delays_merged(self):
        def build(sb, mf):
            sb.delay(mf, 8)
            sb.delay(mf, 16)

        m = pulse_module_with(build)
        assert self.run_pass(m)
        delays = m.ops_of("pulse.delay")
        assert len(delays) == 1
        assert delays[0].attr("duration") == 24

    def test_noop_shift_removed(self):
        m = pulse_module_with(lambda sb, mf: sb.shift_phase(mf, 0.0))
        assert self.run_pass(m)
        assert m.ops_of("pulse.shift_phase") == []

    def test_nonzero_shift_kept(self):
        m = pulse_module_with(lambda sb, mf: sb.shift_phase(mf, 0.5))
        assert not self.run_pass(m)

    def test_set_freq_set_phase_fused(self):
        def build(sb, mf):
            sb.set_frequency(mf, 5e9)
            sb.set_phase(mf, 0.25)

        m = pulse_module_with(build)
        assert self.run_pass(m)
        fc = m.ops_of("pulse.frame_change")
        assert len(fc) == 1
        assert fc[0].attr("frequency") == 5e9
        assert fc[0].attr("phase") == 0.25

    def test_shadowed_set_frequency_dropped(self):
        def build(sb, mf):
            sb.set_frequency(mf, 5e9)
            sb.set_frequency(mf, 6e9)

        m = pulse_module_with(build)
        assert self.run_pass(m)
        sf = m.ops_of("pulse.set_frequency")
        assert len(sf) == 1
        assert sf[0].attr("frequency") == 6e9


class TestDCEAndCSE:
    def test_dead_waveform_removed(self):
        def build(sb, mf):
            sb.waveform(gaussian_waveform(16, 0.2, 4))  # unused
            w = sb.waveform(gaussian_waveform(16, 0.3, 4))
            sb.play(mf, w)

        m = pulse_module_with(build)
        assert DeadWaveformEliminationPass().run(m, default_context())
        assert len(m.ops_of("pulse.waveform")) == 1

    def test_live_waveform_kept(self):
        def build(sb, mf):
            w = sb.waveform(gaussian_waveform(16, 0.3, 4))
            sb.play(mf, w)

        m = pulse_module_with(build)
        assert not DeadWaveformEliminationPass().run(m, default_context())

    def test_cse_dedupes_identical(self):
        def build(sb, mf):
            w1 = sb.waveform(gaussian_waveform(16, 0.3, 4))
            w2 = sb.waveform(gaussian_waveform(16, 0.3, 4))
            sb.play(mf, w1)
            sb.play(mf, w2)

        m = pulse_module_with(build)
        assert WaveformCSEPass().run(m, default_context())
        assert len(m.ops_of("pulse.waveform")) == 1
        plays = m.ops_of("pulse.play")
        assert plays[0].operands[1] is plays[1].operands[1]

    def test_cse_keeps_distinct(self):
        def build(sb, mf):
            w1 = sb.waveform(gaussian_waveform(16, 0.3, 4))
            w2 = sb.waveform(gaussian_waveform(16, 0.4, 4))
            sb.play(mf, w1)
            sb.play(mf, w2)

        m = pulse_module_with(build)
        assert not WaveformCSEPass().run(m, default_context())


class TestLegalization:
    def constraints(self, **kw):
        base = dict(
            dt=1e-9,
            granularity=8,
            min_pulse_duration=8,
            max_pulse_duration=1024,
            max_amplitude=1.0,
        )
        base.update(kw)
        return PulseConstraints(**base)

    def test_misaligned_waveform_padded(self):
        def build(sb, mf):
            w = sb.waveform(SampledWaveform(np.full(13, 0.4)))
            sb.play(mf, w)

        m = pulse_module_with(build)
        assert PulseLegalizationPass(self.constraints()).run(m, default_context())
        wf = attrs_to_waveform(m.ops_of("pulse.waveform")[0].attributes)
        assert wf.duration == 16
        assert wf.samples()[13] == 0

    def test_unsupported_envelope_sampled(self):
        def build(sb, mf):
            w = sb.waveform(gaussian_waveform(16, 0.4, 4))
            sb.play(mf, w)

        m = pulse_module_with(build)
        c = self.constraints(supported_envelopes=frozenset({"constant"}))
        assert PulseLegalizationPass(c).run(m, default_context())
        attrs = m.ops_of("pulse.waveform")[0].attributes
        assert "samples" in attrs  # now raw

    def test_supported_envelope_stays_parametric(self):
        def build(sb, mf):
            w = sb.waveform(gaussian_waveform(16, 0.4, 4))
            sb.play(mf, w)

        m = pulse_module_with(build)
        c = self.constraints(supported_envelopes=frozenset({"gaussian"}))
        PulseLegalizationPass(c).run(m, default_context())
        assert m.ops_of("pulse.waveform")[0].attr("envelope") == "gaussian"

    def test_over_amplitude_rejected(self):
        def build(sb, mf):
            w = sb.waveform(SampledWaveform(np.full(16, 1.5)))
            sb.play(mf, w)

        m = pulse_module_with(build)
        with pytest.raises(PassError) as err:
            PassManager(default_context()).add(
                PulseLegalizationPass(self.constraints())
            ).run(m)
        assert "amplitude" in str(err.value)

    def test_raw_on_parametric_only_device_rejected(self):
        def build(sb, mf):
            w = sb.waveform(SampledWaveform(np.full(16, 0.4)))
            sb.play(mf, w)

        m = pulse_module_with(build)
        c = self.constraints(
            supported_envelopes=frozenset({"constant"}),
            supports_raw_samples=False,
        )
        with pytest.raises((ConstraintError, PassError)):
            PulseLegalizationPass(c).run(m, default_context())

    def test_delay_aligned_up(self):
        m = pulse_module_with(lambda sb, mf: sb.delay(mf, 13))
        assert PulseLegalizationPass(self.constraints()).run(m, default_context())
        assert m.ops_of("pulse.delay")[0].attr("duration") == 16

    def test_out_of_range_frequency_rejected(self):
        m = pulse_module_with(lambda sb, mf: sb.set_frequency(mf, 50e9))
        with pytest.raises(ConstraintError):
            PulseLegalizationPass(self.constraints(max_frequency=20e9)).run(
                m, default_context()
            )

    def test_legal_module_unchanged(self):
        def build(sb, mf):
            w = sb.waveform(SampledWaveform(np.full(16, 0.4)))
            sb.play(mf, w)
            sb.delay(mf, 8)

        m = pulse_module_with(build)
        assert not PulseLegalizationPass(self.constraints()).run(m, default_context())
