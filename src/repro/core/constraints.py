"""Device pulse constraints, as published over QDMI (paper §5.3).

The backend interface must let the stack "query quantum accelerators
regarding their supported pulse implementations" — the allowed range of
values for pulse parameters, timing granularity, amplitude bounds, and
which parametric envelopes the control electronics understand natively.
:class:`PulseConstraints` is the record devices return from a QDMI
query, and which the compiler's legalization pass (paper challenge C3)
checks and enforces.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.instructions import Capture, Delay, FrameChange, Play, SetFrequency
from repro.core.schedule import PulseSchedule
from repro.core.timing import validate_granularity
from repro.core.waveform import ParametricWaveform, ScaledWaveform, Waveform
from repro.errors import ConstraintError


@dataclass(frozen=True)
class PulseConstraints:
    """Hardware limits for pulse programs on one device.

    Attributes
    ----------
    dt:
        Sample period in seconds (e.g. ``1e-9`` for a 1 GS/s AWG).
    granularity:
        Start times and durations must be multiples of this many samples.
    min_pulse_duration / max_pulse_duration:
        Bounds on a single waveform's length in samples.
    max_amplitude:
        Peak |amplitude| allowed on any sample (normalized units).
    max_schedule_duration:
        Upper bound on total schedule length in samples (0 = unlimited).
    supported_envelopes:
        Parametric envelope names the hardware understands natively;
        ``None`` means "any" (device accepts arbitrary sampled data).
    min_frequency / max_frequency:
        Allowed carrier frequency range in Hz for frame updates.
    num_memory_slots:
        Classical result slots available for captures.
    supports_raw_samples:
        Whether explicitly sampled waveforms are accepted at all (some
        arbitrary-waveform-generator-less platforms only take
        parametric pulses).
    """

    dt: float = 1e-9
    granularity: int = 1
    min_pulse_duration: int = 1
    max_pulse_duration: int = 1_000_000
    max_amplitude: float = 1.0
    max_schedule_duration: int = 0
    supported_envelopes: frozenset[str] | None = None
    min_frequency: float = 0.0
    max_frequency: float = 20e9
    num_memory_slots: int = 64
    supports_raw_samples: bool = True
    extras: tuple[tuple[str, float], ...] = field(default=())

    def __post_init__(self) -> None:
        if self.dt <= 0:
            raise ConstraintError(f"dt must be > 0, got {self.dt}")
        if self.granularity < 1:
            raise ConstraintError(f"granularity must be >= 1, got {self.granularity}")
        if self.min_pulse_duration < 1:
            raise ConstraintError("min_pulse_duration must be >= 1")
        if self.max_pulse_duration < self.min_pulse_duration:
            raise ConstraintError(
                "max_pulse_duration must be >= min_pulse_duration"
            )
        if self.max_amplitude <= 0:
            raise ConstraintError("max_amplitude must be > 0")
        if self.min_frequency < 0 or self.max_frequency < self.min_frequency:
            raise ConstraintError("invalid frequency range")

    # ---- single-object checks --------------------------------------------------

    def validate_waveform(self, waveform: Waveform) -> None:
        """Raise :class:`ConstraintError` if *waveform* is not playable."""
        d = waveform.duration
        if d < self.min_pulse_duration:
            raise ConstraintError(
                f"waveform duration {d} below minimum {self.min_pulse_duration}"
            )
        if d > self.max_pulse_duration:
            raise ConstraintError(
                f"waveform duration {d} above maximum {self.max_pulse_duration}"
            )
        try:
            validate_granularity(d, self.granularity, "waveform duration")
        except Exception as exc:
            raise ConstraintError(str(exc)) from None
        peak = waveform.max_amplitude()
        if peak > self.max_amplitude * (1 + 1e-9):
            raise ConstraintError(
                f"waveform peak amplitude {peak:.6g} exceeds limit {self.max_amplitude}"
            )
        shape = waveform.base if isinstance(waveform, ScaledWaveform) else waveform
        if isinstance(shape, ParametricWaveform):
            if (
                self.supported_envelopes is not None
                and shape.envelope not in self.supported_envelopes
                and not self.supports_raw_samples
            ):
                raise ConstraintError(
                    f"envelope {shape.envelope!r} unsupported and device "
                    "rejects raw samples"
                )
        elif not self.supports_raw_samples:
            raise ConstraintError("device does not accept raw sampled waveforms")

    def validate_frequency(self, frequency: float) -> None:
        """Raise unless *frequency* lies in the device's carrier range."""
        if not (self.min_frequency <= frequency <= self.max_frequency):
            raise ConstraintError(
                f"frequency {frequency:.6g} Hz outside "
                f"[{self.min_frequency:.6g}, {self.max_frequency:.6g}]"
            )

    def requires_sampling(self, waveform: Waveform) -> bool:
        """True when the compiler must lower *waveform* to raw samples
        because the hardware doesn't know its parametric form (a scaled
        waveform is judged by its shape)."""
        if isinstance(waveform, ScaledWaveform):
            waveform = waveform.base
        if not isinstance(waveform, ParametricWaveform):
            return False
        if self.supported_envelopes is None:
            return False
        return waveform.envelope not in self.supported_envelopes

    # ---- whole-schedule check ----------------------------------------------------

    def validate_family(self, family, *, base: bool = True) -> None:
        """Validate a :class:`~repro.core.schedule.ScheduleFamily`:
        its base schedule (unless *base* is False), then each value
        column once — the carrier range of a frequency column,
        ``|scale| * peak`` of an amplitude column against
        :attr:`max_amplitude`, and the grid of a delay column, with
        the longest member within :attr:`max_schedule_duration`.
        """
        from repro.core.schedule import DURATION, SCALE

        if base:
            self.validate_schedule(family.base)
        values = family.values
        if not np.isfinite(values).all():
            raise ConstraintError("family values must be finite")
        items = family.base._items
        for idx, fld, col in family.slots:
            column = values[:, col]
            if fld == "frequency":
                for frequency in column.tolist():
                    self.validate_frequency(frequency)
            elif fld == SCALE:
                shape = items[idx].instruction.waveform.base
                peak = float(np.abs(column).max(initial=0.0)) * shape.max_amplitude()
                if peak > self.max_amplitude * (1 + 1e-9):
                    raise ConstraintError(
                        f"waveform peak amplitude {peak:.6g} exceeds limit "
                        f"{self.max_amplitude}"
                    )
            elif fld == DURATION:
                if (column < 0).any() or (column % self.granularity != 0).any():
                    raise ConstraintError(
                        "delay durations must be non-negative multiples of "
                        f"the granularity {self.granularity}"
                    )
        if family.idle is not None and self.max_schedule_duration:
            longest = family.base.duration + int(family.idle.extra(values).max())
            if longest > self.max_schedule_duration:
                raise ConstraintError(
                    f"schedule duration {longest} exceeds device limit "
                    f"{self.max_schedule_duration}"
                )

    def validate_schedule(self, schedule: PulseSchedule) -> None:
        """Validate every instruction and timing in *schedule*.

        Raises :class:`ConstraintError` with the first violation found.
        """
        too_long = (
            self.max_schedule_duration
            and schedule.duration > self.max_schedule_duration
        )
        if too_long:
            raise ConstraintError(
                f"schedule duration {schedule.duration} exceeds device limit "
                f"{self.max_schedule_duration}"
            )
        used_slots: set[int] = set()
        for item in schedule.ordered():
            ins = item.instruction
            try:
                validate_granularity(item.t0, self.granularity, "start time")
            except Exception as exc:
                raise ConstraintError(str(exc)) from None
            if isinstance(ins, Play):
                self.validate_waveform(ins.waveform)
            elif isinstance(ins, Delay):
                try:
                    validate_granularity(
                        ins.duration_samples, self.granularity, "delay duration"
                    )
                except Exception as exc:
                    raise ConstraintError(str(exc)) from None
            elif isinstance(ins, (SetFrequency, FrameChange)):
                self.validate_frequency(ins.frequency)
            elif isinstance(ins, Capture):
                if ins.memory_slot >= self.num_memory_slots:
                    raise ConstraintError(
                        f"memory slot {ins.memory_slot} out of range "
                        f"(device has {self.num_memory_slots})"
                    )
                if ins.memory_slot in used_slots:
                    raise ConstraintError(
                        f"memory slot {ins.memory_slot} captured twice"
                    )
                used_slots.add(ins.memory_slot)
