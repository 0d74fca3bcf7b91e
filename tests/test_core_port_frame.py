"""Unit tests: ports and frames (paper §4 abstractions)."""

import pytest

from repro.core import Frame, MixedFrame, Port, PortDirection, PortKind
from repro.errors import ValidationError


class TestPort:
    def test_drive_constructor(self):
        p = Port.drive(3)
        assert p.name == "q3-drive-port"
        assert p.kind is PortKind.DRIVE
        assert p.targets == (3,)
        assert not p.is_output

    def test_coupler_sorts_targets(self):
        p = Port.coupler(5, 2)
        assert p.targets == (2, 5)
        assert p.name == "q2q5-coupler-port"

    def test_acquire_is_output(self):
        p = Port.acquire(0)
        assert p.is_output
        assert p.direction is PortDirection.OUTPUT

    def test_readout_is_input(self):
        assert not Port.readout(0).is_output

    def test_empty_name_rejected(self):
        with pytest.raises(ValidationError):
            Port("", PortKind.DRIVE, (0,))

    def test_negative_target_rejected(self):
        with pytest.raises(ValidationError):
            Port("p", PortKind.DRIVE, (-1,))

    def test_wrong_direction_rejected(self):
        with pytest.raises(ValidationError):
            Port("p", PortKind.DRIVE, (0,), PortDirection.OUTPUT)
        with pytest.raises(ValidationError):
            Port("p", PortKind.ACQUIRE, (0,), PortDirection.INPUT)

    def test_hashable_and_ordered(self):
        a, b = Port.drive(0), Port.drive(1)
        assert len({a, b, Port.drive(0)}) == 2
        assert sorted([b, a])[0] == a

    def test_custom_kind_names(self):
        p = Port("ion0-rf-port", PortKind.RF, (0,))
        assert p.kind is PortKind.RF


class TestFrame:
    def test_basic(self):
        f = Frame("f", 5e9, 0.25)
        assert f.frequency == 5e9
        assert f.phase == 0.25

    def test_negative_frequency_rejected(self):
        with pytest.raises(ValidationError):
            Frame("f", -1.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValidationError):
            Frame("f", float("nan"))
        with pytest.raises(ValidationError):
            Frame("f", 1.0, float("inf"))

    def test_empty_name_rejected(self):
        with pytest.raises(ValidationError):
            Frame("")


class TestMixedFrame:
    def test_name_combines_port_and_frame(self):
        mf = MixedFrame(Port.drive(0), Frame("d0", 5e9))
        assert mf.name == "d0@q0-drive-port"

    def test_equality(self):
        a = MixedFrame(Port.drive(0), Frame("d0", 5e9))
        b = MixedFrame(Port.drive(0), Frame("d0", 5e9))
        assert a == b
        assert hash(a) == hash(b)
