"""Property-based tests (hypothesis) on core invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Frame,
    Play,
    Port,
    PulseSchedule,
    SampledWaveform,
    align_up,
)
from repro.core.instructions import Delay, ShiftPhase

finite_floats = st.floats(
    min_value=-1.0, max_value=1.0, allow_nan=False, allow_infinity=False
)


@st.composite
def waveforms(draw, max_len=32):
    n = draw(st.integers(min_value=1, max_value=max_len))
    re = draw(
        st.lists(finite_floats, min_size=n, max_size=n)
    )
    im = draw(
        st.lists(finite_floats, min_size=n, max_size=n)
    )
    return SampledWaveform(np.array(re) + 1j * np.array(im))


class TestWaveformProperties:
    @given(waveforms())
    @settings(max_examples=50, deadline=None)
    def test_reverse_involution(self, w):
        assert w.reversed().reversed() == w

    @given(waveforms())
    @settings(max_examples=50, deadline=None)
    def test_conjugate_involution(self, w):
        assert w.conjugated().conjugated() == w

    @given(waveforms(), st.integers(0, 8), st.integers(0, 8))
    @settings(max_examples=50, deadline=None)
    def test_padding_preserves_energy(self, w, left, right):
        padded = w.padded(left=left, right=right)
        assert padded.duration == w.duration + left + right
        assert abs(padded.energy() - w.energy()) < 1e-9

    @given(waveforms())
    @settings(max_examples=50, deadline=None)
    def test_fingerprint_stable(self, w):
        assert w.fingerprint() == SampledWaveform(w.samples()).fingerprint()

    @given(waveforms(), st.floats(0.1, 2.0))
    @settings(max_examples=50, deadline=None)
    def test_scaling_scales_peak(self, w, factor):
        scaled = w.scaled(factor)
        assert np.isclose(scaled.max_amplitude(), w.max_amplitude() * factor)


class TestAlignmentProperties:
    @given(st.integers(0, 10_000), st.integers(1, 64))
    def test_align_up_properties(self, value, g):
        up = align_up(value, g)
        assert up >= value
        assert up % g == 0
        assert up - value < g


@st.composite
def random_schedules(draw):
    ports = [Port.drive(i) for i in range(3)]
    frames = [Frame(f"f{i}", 1e6 * (i + 1)) for i in range(3)]
    s = PulseSchedule()
    n = draw(st.integers(1, 15))
    for _ in range(n):
        kind = draw(st.integers(0, 2))
        p = draw(st.integers(0, 2))
        if kind == 0:
            dur = draw(st.integers(1, 16))
            s.append(Play(ports[p], frames[p], SampledWaveform(np.full(dur, 0.3))))
        elif kind == 1:
            s.append(Delay(ports[p], draw(st.integers(0, 16))))
        else:
            s.append(ShiftPhase(ports[p], frames[p], draw(finite_floats)))
    return s


class TestScheduleProperties:
    @given(random_schedules())
    @settings(max_examples=50, deadline=None)
    def test_no_overlap_per_port(self, s):
        """ASAP scheduling never overlaps timed instructions on a port."""
        by_port: dict = {}
        for item in s.ordered():
            if item.instruction.duration == 0:
                continue
            for p in item.instruction.ports:
                by_port.setdefault(p, []).append((item.t0, item.t1))
        for intervals in by_port.values():
            intervals.sort()
            for (a0, a1), (b0, b1) in zip(intervals, intervals[1:]):
                assert a1 <= b0

    @given(random_schedules(), st.integers(0, 50))
    @settings(max_examples=50, deadline=None)
    def test_shift_preserves_equivalence_structure(self, s, delta):
        shifted = s.shifted(delta)
        ev0 = s.canonical_events()
        ev1 = shifted.canonical_events()
        assert len(ev0) == len(ev1)
        for (t0, k0), (t1, k1) in zip(ev0, ev1):
            assert t1 == t0 + delta
            assert k0 == k1

    @given(random_schedules())
    @settings(max_examples=50, deadline=None)
    def test_copy_equivalent(self, s):
        assert s.equivalent_to(s.copy())

    @given(random_schedules())
    @settings(max_examples=50, deadline=None)
    def test_duration_is_max_end(self, s):
        ends = [it.t1 for it in s.ordered()]
        assert s.duration == (max(ends) if ends else 0)
