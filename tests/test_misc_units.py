"""Remaining unit coverage: dialect registration, QIR primitives,
client result helpers, envelope parity."""

import numpy as np
import pytest

from repro.core.envelopes import DEFAULT_REGISTRY
from repro.errors import IRError, ValidationError
from repro.mlir.context import Dialect, MLIRContext, OpSpec
from repro.mlir.ir import F64, Operation
from repro.qir.module import QIRArg, QIRCall, QIRGlobal, QIRModule


class TestDialectRegistration:
    def test_op_must_match_dialect(self):
        d = Dialect("foo")
        with pytest.raises(IRError):
            d.register_op(OpSpec("bar.op"))

    def test_no_duplicate_ops(self):
        d = Dialect("foo")
        d.register_op(OpSpec("foo.op"))
        with pytest.raises(IRError):
            d.register_op(OpSpec("foo.op"))

    def test_register_type(self):
        d = Dialect("foo")
        t = d.register_type("thing")
        assert t.spelling == "!foo.thing"
        assert t.dialect == "foo"

    def test_invalid_dialect_name(self):
        with pytest.raises(IRError):
            Dialect("has space")

    def test_context_spec_lookup(self):
        ctx = MLIRContext()
        d = Dialect("foo")
        spec = OpSpec("foo.op", num_operands=2)
        d.register_op(spec)
        ctx.load_dialect(d)
        assert ctx.dialect("foo").ops["foo.op"] is spec
        a = Operation("t.make", result_types=[F64]).result()
        ctx.verify_op(Operation("foo.op", [a, a]))
        with pytest.raises(IRError, match="expected 2 operands"):
            ctx.verify_op(Operation("foo.op", [a]))
        with pytest.raises(IRError, match="unknown operation"):
            ctx.verify_op(Operation("foo.unknown"))
        ctx.verify_op(Operation("other.op"))  # unloaded dialect: unverified

    def test_unknown_dialect_lookup(self):
        with pytest.raises(IRError):
            MLIRContext().dialect("ghost")

    def test_region_requirement_enforced(self):
        ctx = MLIRContext()
        d = Dialect("foo")
        d.register_op(OpSpec("foo.block", 0, 0, has_region=True))
        ctx.load_dialect(d)
        with pytest.raises(IRError):
            ctx.verify_op(Operation("foo.block"))


class TestQIRPrimitives:
    def test_arg_render_forms(self):
        assert QIRArg("i64", "literal", 8).render() == "i64 8"
        assert QIRArg("double", "literal", 0.5).render() == "double 0.5"
        assert QIRArg("i8*", "global", "name").render() == "i8* @name"
        assert QIRArg("%Port*", "local", "p0").render() == "%Port* %p0"
        assert "inttoptr (i64 3 to %Qubit*)" in QIRArg("%Qubit*", "qubit", 3).render()

    def test_bad_arg_kind(self):
        with pytest.raises(ValidationError):
            QIRArg("i64", "banana", 1)

    def test_call_render_with_result(self):
        call = QIRCall(
            "__quantum__pulse__port__body",
            [QIRArg("i8*", "global", "s")],
            result="p0",
            result_type="%Port*",
        )
        text = call.render()
        assert text.startswith("%p0 = call %Port*")

    def test_global_string_nul_terminated(self):
        g = QIRGlobal("s", "string", "abc")
        assert "[4 x i8]" in g.render()  # 3 chars + NUL

    def test_global_array_render(self):
        g = QIRGlobal("a", "f64_array", [0.5, -1.0])
        text = g.render()
        assert "[2 x double]" in text
        assert "double 0.5" in text

    def test_bad_global_kind(self):
        with pytest.raises(ValidationError):
            QIRGlobal("g", "i32_array", [1])

    def test_module_helpers(self):
        m = QIRModule("m", "k", attributes={"qir_profiles": "pulse"})
        m.body.append(
            QIRCall(
                "__quantum__pulse__delay__body",
                [QIRArg("%Port*", "local", "p"), QIRArg("i64", "literal", 8)],
            )
        )
        assert m.profile() == "pulse"
        assert "__quantum__pulse__delay__body" in m.callees()
        with pytest.raises(ValidationError):
            m.global_named("missing")

    def test_base_profile_default(self):
        assert QIRModule("m", "k").profile() == "base"


class TestClientResultHelpers:
    def test_expectation_z(self, client):
        from repro.api.core import run_request
        from repro.client import JobRequest
        from repro.primitives import Observable
        from repro.qpi import (
            QCircuit,
            qCircuitBegin,
            qCircuitEnd,
            qMeasure,
            qX,
        )

        c = QCircuit()
        qCircuitBegin(c)
        qX(0)
        qMeasure(0, 0)
        qMeasure(1, 1)
        qCircuitEnd()
        r = run_request(client, JobRequest(c, "sc-transmon", shots=0, seed=1))
        z = [Observable.z(slot).expectation(r.probabilities) for slot in (0, 1)]
        assert z[0] < -0.9  # qubit 0 flipped
        assert z[1] > 0.9  # qubit 1 untouched


class TestEnvelopeParity:
    def test_square_equals_constant(self):
        a = DEFAULT_REGISTRY.evaluate("constant", 16, {"amp": 0.4})
        b = DEFAULT_REGISTRY.evaluate("square", 16, {"amp": 0.4})
        assert np.array_equal(a, b)

    def test_gaussian_square_zero_width_is_gaussianish(self):
        s = DEFAULT_REGISTRY.evaluate(
            "gaussian_square", 64, {"amp": 1.0, "sigma": 8.0, "width": 0.0}
        )
        # Peak in the middle, decaying edges.
        assert np.argmax(np.real(s)) in range(28, 36)
        assert np.real(s)[0] < 0.01

    def test_envelope_peak_never_exceeds_amp(self):
        params_by_name = {
            "constant": {"amp": 0.7},
            "square": {"amp": 0.7},
            "gaussian": {"amp": 0.7, "sigma": 8.0},
            "gaussian_square": {"amp": 0.7, "sigma": 8.0, "width": 16.0},
            "cosine": {"amp": 0.7},
            "sine": {"amp": 0.7},
            "sech": {"amp": 0.7, "sigma": 8.0},
            "triangle": {"amp": 0.7},
            "blackman": {"amp": 0.7},
        }
        for name in DEFAULT_REGISTRY.names():
            if name == "drag":
                continue  # quadrature may exceed the in-phase amp
            s = DEFAULT_REGISTRY.evaluate(name, 64, params_by_name[name])
            assert np.abs(s).max() <= 0.7 + 1e-9


class TestPulseSupportLevels:
    def test_site_level_device_hides_nothing_else(self):
        """A device configured for SITE-level access still answers the
        pulse queries (level is advisory to clients)."""
        from repro.devices import SuperconductingDevice
        from repro.qdmi import PulseSupportLevel

        dev = SuperconductingDevice(num_qubits=1)
        dev.config.pulse_support = PulseSupportLevel.SITE
        assert dev.pulse_support_level() is PulseSupportLevel.SITE
        assert dev.ports()  # structure still queryable

    def test_driver_rank_ordering(self, driver):
        from repro.qdmi import PulseSupportLevel

        port_level = driver.devices_with_pulse_support(PulseSupportLevel.PORT)
        any_level = driver.devices_with_pulse_support(PulseSupportLevel.SITE)
        assert set(port_level) <= set(any_level)
