"""Unit tests: instructions, schedules, timing, constraints."""

import pytest

from repro.core import (
    Barrier,
    Capture,
    Delay,
    Frame,
    FrameChange,
    Play,
    Port,
    PulseConstraints,
    PulseSchedule,
    SetFrequency,
    SetPhase,
    ShiftPhase,
    align_up,
    constant_waveform,
    gaussian_waveform,
    validate_granularity,
)
from repro.errors import ConstraintError, ScheduleError, ValidationError

P0 = Port.drive(0)
P1 = Port.drive(1)
ACQ = Port.acquire(0)
F0 = Frame("d0", 5e9)
F1 = Frame("d1", 5.1e9)
FA = Frame("a0", 0.0)
W16 = constant_waveform(16, 0.5)
W32 = constant_waveform(32, 0.5)


class TestTiming:
    def test_align_up_down(self):
        assert align_up(13, 8) == 16
        assert align_up(16, 8) == 16

    def test_validate_granularity(self):
        validate_granularity(24, 8)
        with pytest.raises(ValidationError):
            validate_granularity(25, 8)

    def test_bad_granularity(self):
        with pytest.raises(ValidationError):
            align_up(4, 0)


class TestInstructions:
    def test_play_duration_follows_waveform(self):
        assert Play(P0, F0, W32).duration == 32

    def test_play_on_output_port_rejected(self):
        with pytest.raises(ValidationError):
            Play(ACQ, FA, W16)

    def test_virtual_instructions(self):
        assert FrameChange(P0, F0, 5e9, 0.1).is_virtual
        assert SetPhase(P0, F0, 0.1).is_virtual
        assert not Play(P0, F0, W16).is_virtual

    def test_negative_frequency_rejected(self):
        with pytest.raises(ValidationError):
            SetFrequency(P0, F0, -1.0)
        with pytest.raises(ValidationError):
            FrameChange(P0, F0, -1.0, 0.0)

    def test_delay_validation(self):
        assert Delay(P0, 0).duration == 0
        with pytest.raises(ValidationError):
            Delay(P0, -1)

    def test_barrier_needs_distinct_ports(self):
        with pytest.raises(ValidationError):
            Barrier((P0, P0))
        with pytest.raises(ValidationError):
            Barrier(())

    def test_capture_requires_output_port(self):
        with pytest.raises(ValidationError):
            Capture(P0, F0, 0)
        c = Capture(ACQ, FA, 2, 96)
        assert c.duration == 96
        assert c.memory_slot == 2


class TestScheduleASAP:
    def test_sequential_on_same_port(self):
        s = PulseSchedule()
        s.append(Play(P0, F0, W32))
        item = s.append(Play(P0, F0, W16))
        assert item.t0 == 32
        assert s.duration == 48

    def test_parallel_on_different_ports(self):
        s = PulseSchedule()
        s.append(Play(P0, F0, W32))
        item = s.append(Play(P1, F1, W16))
        assert item.t0 == 0

    def test_virtual_does_not_advance_clock(self):
        s = PulseSchedule()
        s.append(Play(P0, F0, W32))
        s.append(ShiftPhase(P0, F0, 0.5))
        item = s.append(Play(P0, F0, W16))
        assert item.t0 == 32

    def test_barrier_synchronizes(self):
        s = PulseSchedule()
        s.append(Play(P0, F0, W32))  # port0 busy to 32
        s.barrier(P0, P1)
        item = s.append(Play(P1, F1, W16))
        assert item.t0 == 32

    def test_delay_advances_port(self):
        s = PulseSchedule()
        s.append(Delay(P0, 40))
        assert s.append(Play(P0, F0, W16)).t0 == 40

    def test_empty_barrier_on_empty_schedule_raises(self):
        with pytest.raises(ScheduleError):
            PulseSchedule().barrier()


class TestScheduleInsert:
    def test_insert_at_time(self):
        s = PulseSchedule()
        s.insert(100, Play(P0, F0, W16))
        assert s.duration == 116

    def test_overlap_rejected(self):
        s = PulseSchedule()
        s.insert(0, Play(P0, F0, W32))
        with pytest.raises(ScheduleError):
            s.insert(16, Play(P0, F0, W16))

    def test_overlap_on_other_port_ok(self):
        s = PulseSchedule()
        s.insert(0, Play(P0, F0, W32))
        s.insert(16, Play(P1, F1, W16))
        assert len(s) == 2

    def test_virtual_may_share_time(self):
        s = PulseSchedule()
        s.insert(0, Play(P0, F0, W32))
        s.insert(16, ShiftPhase(P0, F0, 0.1))  # virtual inside a play

    def test_negative_time_rejected(self):
        with pytest.raises(ScheduleError):
            PulseSchedule().insert(-1, Play(P0, F0, W16))


class TestScheduleComposition:
    def _simple(self):
        s = PulseSchedule("a")
        s.append(Play(P0, F0, W32))
        return s

    def test_shift(self):
        s2 = self._simple().shifted(10)
        assert s2.ordered()[0].t0 == 10

    def test_negative_shift_rejected(self):
        with pytest.raises(ScheduleError):
            self._simple().shifted(-1)

    def test_then(self):
        s = self._simple().then(self._simple())
        items = s.instructions_of(Play)
        assert [it.t0 for it in items] == [0, 32]

    def test_union_conflict(self):
        with pytest.raises(ScheduleError):
            self._simple().union(self._simple())

    def test_union_disjoint(self):
        other = PulseSchedule("b")
        other.append(Play(P1, F1, W16))
        merged = self._simple().union(other)
        assert len(merged) == 2
        assert merged.duration == 32

    def test_copy_independent(self):
        a = self._simple()
        b = a.copy()
        b.append(Play(P0, F0, W16))
        assert len(a) == 1 and len(b) == 2


class TestCanonicalEquivalence:
    def test_barriers_and_delays_ignored(self):
        a = PulseSchedule()
        a.append(Play(P0, F0, W32))
        a.append(Delay(P0, 8))
        a.append(Play(P0, F0, W16))

        b = PulseSchedule()
        b.insert(0, Play(P0, F0, W32))
        b.insert(40, Play(P0, F0, W16))
        assert a.equivalent_to(b)
        assert a.fingerprint() == b.fingerprint()

    def test_different_times_not_equivalent(self):
        a = PulseSchedule()
        a.append(Play(P0, F0, W32))
        b = PulseSchedule()
        b.insert(8, Play(P0, F0, W32))
        assert not a.equivalent_to(b)

    def test_different_waveforms_not_equivalent(self):
        a = PulseSchedule()
        a.append(Play(P0, F0, W32))
        b = PulseSchedule()
        b.append(Play(P0, F0, constant_waveform(32, 0.51)))
        assert not a.equivalent_to(b)

    def test_frame_events_part_of_canon(self):
        a = PulseSchedule()
        a.append(FrameChange(P0, F0, 5e9, 0.1))
        b = PulseSchedule()
        b.append(FrameChange(P0, F0, 5e9, 0.2))
        assert not a.equivalent_to(b)

    def test_ports_and_frames_inventory(self):
        s = PulseSchedule()
        s.append(Play(P0, F0, W16))
        s.append(Play(P1, F1, W16))
        s.append(Capture(ACQ, FA, 0))
        assert [p.name for p in s.ports()] == sorted(
            [P0.name, P1.name, ACQ.name]
        )
        assert {f.name for f in s.frames()} == {"d0", "d1", "a0"}


class TestConstraints:
    def make(self, **kw):
        defaults = dict(
            dt=1e-9,
            granularity=8,
            min_pulse_duration=8,
            max_pulse_duration=128,
            max_amplitude=1.0,
        )
        defaults.update(kw)
        return PulseConstraints(**defaults)

    def test_waveform_granularity(self):
        c = self.make()
        with pytest.raises(ConstraintError):
            c.validate_waveform(constant_waveform(12, 0.5))
        c.validate_waveform(constant_waveform(16, 0.5))

    def test_waveform_bounds(self):
        c = self.make()
        with pytest.raises(ConstraintError):
            c.validate_waveform(constant_waveform(256, 0.5))
        with pytest.raises(ConstraintError):
            c.validate_waveform(constant_waveform(16, 1.5))

    def test_envelope_vocabulary(self):
        c = self.make(
            supported_envelopes=frozenset({"constant"}), supports_raw_samples=False
        )
        with pytest.raises(ConstraintError):
            c.validate_waveform(gaussian_waveform(16, 0.5, 4))
        c.validate_waveform(constant_waveform(16, 0.5))

    def test_requires_sampling(self):
        c = self.make(supported_envelopes=frozenset({"constant"}))
        assert c.requires_sampling(gaussian_waveform(16, 0.5, 4))
        assert not c.requires_sampling(constant_waveform(16, 0.5))

    def test_frequency_range(self):
        c = self.make(min_frequency=1e9, max_frequency=6e9)
        c.validate_frequency(5e9)
        with pytest.raises(ConstraintError):
            c.validate_frequency(7e9)

    def test_schedule_validation_catches_misaligned_start(self):
        c = self.make()
        s = PulseSchedule()
        s.insert(4, Play(P0, F0, constant_waveform(16, 0.5)))
        with pytest.raises(ConstraintError):
            c.validate_schedule(s)

    def test_schedule_validation_memory_slots(self):
        c = self.make(num_memory_slots=1)
        s = PulseSchedule()
        s.append(Capture(ACQ, FA, 1))
        with pytest.raises(ConstraintError):
            c.validate_schedule(s)

    def test_double_capture_same_slot_rejected(self):
        c = self.make()
        s = PulseSchedule()
        s.append(Capture(ACQ, FA, 0))
        s.append(Capture(ACQ, FA, 0))
        with pytest.raises(ConstraintError):
            c.validate_schedule(s)

    def test_max_schedule_duration(self):
        c = self.make(max_schedule_duration=16)
        s = PulseSchedule()
        s.append(Play(P0, F0, constant_waveform(32, 0.5)))
        with pytest.raises(ConstraintError):
            c.validate_schedule(s)

    def test_invalid_construction(self):
        with pytest.raises(ConstraintError):
            PulseConstraints(dt=-1)
        with pytest.raises(ConstraintError):
            PulseConstraints(granularity=0)
        with pytest.raises(ConstraintError):
            PulseConstraints(min_pulse_duration=4, max_pulse_duration=2)
