"""Unit tests: QIR exchange format — emitter, parser, profile, linker
(paper challenge C4 / Listing 3)."""

import numpy as np
import pytest

from repro.core import (
    Capture,
    Delay,
    FrameChange,
    Play,
    PulseSchedule,
    SampledWaveform,
    constant_waveform,
    gaussian_waveform,
)
from repro.errors import LinkError, ParseError
from repro.qir import (
    link_qir_to_schedule,
    parse_qir,
    schedule_to_qir,
    validate_profile,
)
from repro.qir.module import QIRArg, QIRCall, QIRGlobal, QIRModule


def simple_schedule(device):
    s = PulseSchedule("kernel")
    p = device.drive_port(0)
    f = device.default_frame(p)
    s.append(Play(p, f, gaussian_waveform(32, 0.4, 8)))
    s.append(FrameChange(p, f, f.frequency, 0.25))
    s.append(Delay(p, 16))
    s.append(Play(p, f, SampledWaveform(np.full(16, 0.2 + 0.1j))))
    acq = device.acquire_port(0)
    s.append(Capture(acq, device.default_frame(acq), 0, 96))
    return s


class TestEmission:
    def test_pulse_profile_attributes(self, sc_device):
        text = schedule_to_qir(simple_schedule(sc_device))
        assert 'qir_profiles"="pulse"' in text.replace(" ", "")
        assert "entry_point" in text
        assert "%Port = type opaque" in text
        assert "%Waveform = type opaque" in text
        assert "%Frame = type opaque" in text

    def test_intrinsic_calls_present(self, sc_device):
        text = schedule_to_qir(simple_schedule(sc_device))
        assert "__quantum__pulse__waveform_play__body" in text
        assert "__quantum__pulse__frame_change__body" in text
        assert "__quantum__pulse__capture__body" in text

    def test_parametric_stays_symbolic(self, sc_device):
        text = schedule_to_qir(simple_schedule(sc_device))
        assert "__quantum__pulse__waveform_parametric__body" in text
        assert "gaussian" in text

    def test_sampled_becomes_arrays(self, sc_device):
        text = schedule_to_qir(simple_schedule(sc_device))
        assert "x double]" in text  # data globals emitted

    def test_waveform_dedup(self, sc_device):
        s = PulseSchedule("k")
        p = sc_device.drive_port(0)
        f = sc_device.default_frame(p)
        w = constant_waveform(16, 0.3)
        s.append(Play(p, f, w))
        s.append(Play(p, f, w))
        text = schedule_to_qir(s)
        assert (
            text.count("call %Waveform* @__quantum__pulse__waveform_parametric__body")
            == 1
        )


class TestParsing:
    def test_roundtrip_fixed_point(self, sc_device):
        text = schedule_to_qir(simple_schedule(sc_device))
        module = parse_qir(text)
        assert module.render() == text

    def test_parse_recovers_structure(self, sc_device):
        module = parse_qir(schedule_to_qir(simple_schedule(sc_device)))
        assert module.entry_name == "kernel"
        assert module.profile() == "pulse"
        assert "__quantum__pulse__capture__body" in module.callees()

    def test_parse_rejects_garbage(self):
        with pytest.raises(ParseError):
            parse_qir("definitely not QIR")

    def test_parse_rejects_no_entry(self):
        with pytest.raises(ParseError):
            parse_qir("; ModuleID = 'm'\n")

    def test_string_global_roundtrip(self):
        g = QIRGlobal("s", "string", 'weird "name" \\ here')
        text = g.render()
        # Render into a module context and parse back.
        mod_text = (
            f"; ModuleID = 'm'\n{text}\n"
            "define void @k() #0 {\nentry:\n  ret void\n}\n"
            'attributes #0 = { "entry_point" }\n'
        )
        parsed = parse_qir(mod_text)
        assert parsed.global_named("s").data == 'weird "name" \\ here'


class TestProfileValidation:
    def test_valid_pulse_module(self, sc_device):
        module = parse_qir(schedule_to_qir(simple_schedule(sc_device)))
        report = validate_profile(module)
        assert report.valid, report.errors
        assert report.num_pulse_calls > 0
        assert report.num_results == 1

    def test_base_profile_rejects_pulse_calls(self):
        m = QIRModule("m", "k", attributes={"qir_profiles": "base", "entry_point": ""})
        m.body.append(
            QIRCall(
                "__quantum__pulse__delay__body",
                [QIRArg("%Port*", "local", "p"), QIRArg("i64", "literal", 8)],
            )
        )
        report = validate_profile(m)
        assert not report.valid
        assert any("base profile" in e for e in report.errors)

    def test_unknown_intrinsic_flagged(self):
        m = QIRModule("m", "k", attributes={"qir_profiles": "pulse"})
        m.body.append(QIRCall("__quantum__evil__body", []))
        assert not validate_profile(m).valid

    def test_undefined_handle_flagged(self):
        m = QIRModule("m", "k", attributes={"qir_profiles": "pulse"})
        m.body.append(
            QIRCall(
                "__quantum__pulse__delay__body",
                [QIRArg("%Port*", "local", "ghost"), QIRArg("i64", "literal", 8)],
            )
        )
        assert not validate_profile(m).valid

    def test_port_count_mismatch_flagged(self, sc_device):
        module = parse_qir(schedule_to_qir(simple_schedule(sc_device)))
        module.attributes["required_num_ports"] = "99"
        report = validate_profile(module)
        assert not report.valid

    def test_mixed_qis_and_pulse_allowed_in_pulse_profile(self):
        m = QIRModule("m", "k", attributes={"qir_profiles": "pulse", "entry_point": ""})
        m.body.append(
            QIRCall(
                "__quantum__qis__mz__body",
                [QIRArg("%Qubit*", "qubit", 0), QIRArg("%Result*", "result", 0)],
            )
        )
        report = validate_profile(m)
        assert report.valid
        assert report.num_qis_calls == 1


class TestLinking:
    def test_roundtrip_equivalence(self, sc_device):
        s = simple_schedule(sc_device)
        linked = link_qir_to_schedule(schedule_to_qir(s), sc_device)
        assert s.equivalent_to(linked)

    def test_linked_executes(self, sc_device):
        s = simple_schedule(sc_device)
        linked = link_qir_to_schedule(schedule_to_qir(s), sc_device)
        r = sc_device.executor.execute(linked, shots=0)
        assert r.duration_samples == s.duration

    def test_unknown_port_fails_link(self, sc_device, ion_device):
        # A schedule built for the transmon references ports the ion
        # device does not have: the link step must fail loudly.
        text = schedule_to_qir(simple_schedule(sc_device))
        with pytest.raises(Exception):
            link_qir_to_schedule(text, ion_device)

    def test_invalid_profile_fails_link(self, sc_device):
        module = parse_qir(schedule_to_qir(simple_schedule(sc_device)))
        module.attributes["required_num_ports"] = "99"
        with pytest.raises(LinkError):
            link_qir_to_schedule(module, sc_device)

    def test_gate_level_qis_links_via_calibrations(self, sc_device):
        """The paper's mixed Listing-3 scenario: QIS gate calls resolve
        through the device calibrations and coexist with pulse calls."""
        m = QIRModule(
            "m",
            "mixed",
            attributes={
                "qir_profiles": "pulse",
                "entry_point": "",
            },
        )
        m.body.append(
            QIRCall("__quantum__qis__x__body", [QIRArg("%Qubit*", "qubit", 0)])
        )
        m.body.append(
            QIRCall(
                "__quantum__qis__rz__body",
                [QIRArg("double", "literal", 0.5), QIRArg("%Qubit*", "qubit", 0)],
            )
        )
        m.body.append(
            QIRCall(
                "__quantum__qis__cz__body",
                [QIRArg("%Qubit*", "qubit", 0), QIRArg("%Qubit*", "qubit", 1)],
            )
        )
        m.body.append(
            QIRCall(
                "__quantum__qis__mz__body",
                [QIRArg("%Qubit*", "qubit", 0), QIRArg("%Result*", "result", 0)],
            )
        )
        sched = link_qir_to_schedule(m, sc_device)
        r = sc_device.executor.execute(sched, shots=0)
        assert r.ideal_probabilities.get("1", 0) > 0.9

    def test_waveform_length_mismatch_rejected(self, sc_device):
        text = schedule_to_qir(simple_schedule(sc_device))
        module = parse_qir(text)
        for g in module.globals:
            if g.kind == "f64_array":
                g.data.append(0.0)  # corrupt one array
                break
        with pytest.raises(LinkError):
            link_qir_to_schedule(module, sc_device)

    def test_payload_size_scales_with_sampling(self, sc_device, ion_device):
        """Parametric pulses keep payloads small; forced sampling blows
        them up — the compiler's reason to prefer parametric forms."""
        w = gaussian_waveform(256, 0.3, 32)
        p = sc_device.drive_port(0)
        f = sc_device.default_frame(p)
        s1 = PulseSchedule("a")
        s1.append(Play(p, f, w))
        s2 = PulseSchedule("b")
        s2.append(Play(p, f, SampledWaveform(w.samples())))
        assert len(schedule_to_qir(s2)) > 3 * len(schedule_to_qir(s1))

    def test_parametric_payload_is_duration_independent(self, sc_device):
        """A parametric pulse ships the same few attributes at any
        length; a sampled one ships every sample."""
        p = sc_device.drive_port(0)
        f = sc_device.default_frame(p)

        def qir_bytes(n, sampled):
            w = gaussian_waveform(n, 0.3, n / 8)
            s = PulseSchedule("p")
            s.append(Play(p, f, SampledWaveform(w.samples()) if sampled else w))
            return len(schedule_to_qir(s))

        assert qir_bytes(1024, False) < 1.2 * qir_bytes(64, False)
        assert qir_bytes(1024, True) > 5 * qir_bytes(64, True)
