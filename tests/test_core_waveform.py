"""Unit tests: envelopes and waveforms."""

import numpy as np
import pytest

from repro.core import (
    EnvelopeRegistry,
    ParametricWaveform,
    SampledWaveform,
    constant_waveform,
    drag_waveform,
    gaussian_square_waveform,
    gaussian_waveform,
)
from repro.core.envelopes import DEFAULT_REGISTRY
from repro.errors import ValidationError


class TestEnvelopes:
    def test_library_is_complete(self):
        names = DEFAULT_REGISTRY.names()
        for expected in (
            "constant",
            "square",
            "gaussian",
            "drag",
            "gaussian_square",
            "cosine",
            "sine",
            "sech",
            "triangle",
            "blackman",
        ):
            assert expected in names

    @pytest.mark.parametrize("name", ["gaussian", "sech"])
    def test_symmetric_envelopes(self, name):
        s = DEFAULT_REGISTRY.evaluate(name, 64, {"amp": 1.0, "sigma": 10.0})
        assert np.allclose(s, s[::-1])

    def test_gaussian_is_lifted(self):
        s = DEFAULT_REGISTRY.evaluate("gaussian", 64, {"amp": 1.0, "sigma": 8.0})
        # Edges at (numerically) zero, peak at amp.
        assert abs(s[0]) < 5e-3
        assert np.abs(s).max() == pytest.approx(1.0, abs=1e-2)

    def test_gaussian_square_flat_top(self):
        s = DEFAULT_REGISTRY.evaluate(
            "gaussian_square", 64, {"amp": 0.5, "sigma": 8.0, "width": 32.0}
        )
        mid = s[24:40]
        assert np.allclose(np.real(mid), 0.5, atol=1e-6)

    def test_drag_has_imaginary_quadrature(self):
        params = {"amp": 1.0, "sigma": 8.0, "beta": 0.5}
        s = DEFAULT_REGISTRY.evaluate("drag", 64, params)
        assert np.abs(np.imag(s)).max() > 0
        # beta=0 degenerates to gaussian.
        g = DEFAULT_REGISTRY.evaluate("drag", 64, {**params, "beta": 0.0})
        gauss = DEFAULT_REGISTRY.evaluate("gaussian", 64, {"amp": 1.0, "sigma": 8.0})
        assert np.allclose(np.real(g), gauss)
        assert np.allclose(np.imag(g), 0.0)

    def test_cosine_and_sine_zero_at_ends(self):
        for name in ("cosine", "sine"):
            s = DEFAULT_REGISTRY.evaluate(name, 100, {"amp": 1.0})
            assert abs(s[0]) < 1e-3 or abs(s[0]) < abs(s[50])

    def test_missing_parameter_raises(self):
        with pytest.raises(ValidationError):
            DEFAULT_REGISTRY.evaluate("gaussian", 32, {"amp": 1.0})

    def test_bad_sigma_raises(self):
        with pytest.raises(ValidationError):
            DEFAULT_REGISTRY.evaluate("gaussian", 32, {"amp": 1.0, "sigma": 0.0})

    def test_bad_duration_raises(self):
        with pytest.raises(ValidationError):
            DEFAULT_REGISTRY.evaluate("constant", 0, {"amp": 1.0})

    def test_unknown_envelope_raises(self):
        with pytest.raises(ValidationError):
            DEFAULT_REGISTRY.evaluate("nope", 32, {})

    def test_custom_registry_isolated(self):
        reg = EnvelopeRegistry()
        reg.register("ramp", lambda n, p: np.linspace(0, p["amp"], n).astype(complex))
        assert "ramp" in reg
        assert "ramp" not in DEFAULT_REGISTRY.names()
        out = reg.evaluate("ramp", 10, {"amp": 1.0})
        assert out.shape == (10,)

    def test_registry_refuses_redefinition(self):
        reg = EnvelopeRegistry()
        fn = lambda n, p: np.zeros(n, dtype=complex)  # noqa: E731
        reg.register("z", fn)
        with pytest.raises(ValidationError):
            reg.register("z", fn)
        reg.register("z", fn, overwrite=True)

    def test_registry_rejects_wrong_shape(self):
        reg = EnvelopeRegistry()
        reg.register("bad", lambda n, p: np.zeros(n + 1, dtype=complex))
        with pytest.raises(ValidationError):
            reg.evaluate("bad", 8, {})


class TestSampledWaveform:
    def test_immutability(self):
        w = SampledWaveform([0.1, 0.2, 0.3])
        with pytest.raises((ValueError, RuntimeError)):
            w.samples()[0] = 1.0

    def test_duration(self):
        assert SampledWaveform(np.zeros(7) + 0.1).duration == 7

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            SampledWaveform([])

    def test_2d_rejected(self):
        with pytest.raises(ValidationError):
            SampledWaveform(np.zeros((2, 2)))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValidationError):
            SampledWaveform([0.1, float("nan")])

    def test_max_amplitude_and_energy(self):
        w = SampledWaveform([0.3, 0.4j, -0.5])
        assert w.max_amplitude() == pytest.approx(0.5)
        assert w.energy() == pytest.approx(0.09 + 0.16 + 0.25)

    def test_algebra(self):
        w = SampledWaveform([0.1, 0.2])
        assert np.allclose(w.scaled(2).samples(), [0.2, 0.4])
        assert np.allclose(w.reversed().samples(), [0.2, 0.1])
        assert np.allclose(w.conjugated().samples(), [0.1, 0.2])
        padded = w.padded(left=1, right=2)
        assert padded.duration == 5
        assert padded.samples()[0] == 0

    def test_negative_padding_rejected(self):
        with pytest.raises(ValidationError):
            SampledWaveform([0.1]).padded(left=-1)


class TestParametricWaveform:
    def test_evaluates_and_caches(self):
        w = gaussian_waveform(64, 0.5, 10)
        s1 = w.samples()
        s2 = w.samples()
        assert s1 is s2  # cached

    def test_equality_with_sampled_image(self):
        w = gaussian_waveform(64, 0.5, 10)
        s = SampledWaveform(w.samples())
        assert w == s
        assert hash(w) == hash(s)

    def test_fingerprint_distinguishes(self):
        a = gaussian_waveform(64, 0.5, 10)
        b = gaussian_waveform(64, 0.5001, 10)
        assert a.fingerprint() != b.fingerprint()

    def test_invalid_duration(self):
        with pytest.raises(ValidationError):
            ParametricWaveform("gaussian", 0, {"amp": 1, "sigma": 2})

    def test_unknown_envelope(self):
        with pytest.raises(ValidationError):
            ParametricWaveform("wiggle", 8, {})

    def test_eager_validation(self):
        # Bad parameters fail at construction, not at first use.
        with pytest.raises(ValidationError):
            ParametricWaveform("gaussian", 8, {"amp": 1.0, "sigma": -1.0})

    def test_convenience_constructors(self):
        assert constant_waveform(8, 0.2).duration == 8
        assert drag_waveform(16, 0.3, 4, 0.1).envelope == "drag"
        gs = gaussian_square_waveform(32, 0.4, 4, 16)
        assert gs.parameters["width"] == 16.0
