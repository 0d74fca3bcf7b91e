"""Frames: stateful timing + carrier abstractions (paper §4).

A frame combines a reference clock, a carrier frequency and a phase. It
"tracks the elapsed time and provides the timing, frequency, and phase
context for playing waveforms, enabling precise carrier modulation and
virtual phase rotations".

Two objects model this split between *declaration* and *execution*:

* :class:`Frame` — the immutable declaration (name + initial carrier
  frequency/phase). This is what programs, IR modules and QDMI queries
  reference.
* :class:`FrameState` — the mutable runtime state (current frequency
  and phase offset) a declaration starts from.

A :class:`MixedFrame` pairs a frame with the port it is played on,
mirroring the ``!pulse.mixed_frame`` type of the MLIR pulse dialect in
the paper's Listing 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.port import Port
from repro.errors import ValidationError

_TWO_PI = 2.0 * math.pi


def _wrap_phase(phase: float) -> float:
    """Wrap a phase into ``[-pi, pi)`` so accumulated virtual rotations
    stay numerically well-conditioned over long schedules."""
    return (phase + math.pi) % _TWO_PI - math.pi


@dataclass(frozen=True, order=True)
class Frame:
    """An immutable frame declaration.

    Parameters
    ----------
    name:
        Unique frame identifier, e.g. ``"q0-drive-frame"``.
    frequency:
        Initial carrier frequency in Hz. Must be finite and
        non-negative (the rotating-frame frequency of the carrier).
    phase:
        Initial phase in radians.
    """

    name: str
    frequency: float = 0.0
    phase: float = 0.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("frame name must be a non-empty string")
        if not math.isfinite(self.frequency) or self.frequency < 0.0:
            raise ValidationError(
                f"frame frequency must be finite and >= 0, got {self.frequency!r}"
            )
        if not math.isfinite(self.phase):
            raise ValidationError(f"frame phase must be finite, got {self.phase!r}")

    def initial_state(self) -> "FrameState":
        """Create the runtime state this declaration starts from."""
        return FrameState(frequency=self.frequency, phase=self.phase)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


@dataclass(frozen=True, order=True)
class MixedFrame:
    """A (port, frame) pair: a frame as played on a specific channel.

    This mirrors the paper's description of the MLIR pulse dialect where
    ``play`` operates on *mixed frames* — "structures mixing port
    channel and frame state".
    """

    port: Port
    frame: Frame

    @property
    def name(self) -> str:
        """Canonical name, used by the IR printers."""
        return f"{self.frame.name}@{self.port.name}"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


@dataclass
class FrameState:
    """Mutable runtime state of a frame: the current carrier frequency
    (Hz) and the static phase offset (radians, wrapped).

    Virtual Z rotations only move the phase offset, so they are free,
    as on real control electronics. The executor keeps the same books
    per sample in its frame timelines (:func:`repro.sim.runs.drive_runs`).
    """

    frequency: float = 0.0
    phase: float = 0.0

    def set_frequency(self, frequency: float) -> None:
        """Set the carrier frequency."""
        if not math.isfinite(frequency) or frequency < 0.0:
            raise ValidationError(f"invalid frame frequency {frequency!r}")
        self.frequency = frequency

    def shift_frequency(self, delta: float) -> None:
        """Shift the carrier frequency by *delta* Hz."""
        self.set_frequency(self.frequency + delta)

    def set_phase(self, phase: float) -> None:
        """Set the static phase offset (virtual Z) in radians."""
        if not math.isfinite(phase):
            raise ValidationError(f"invalid frame phase {phase!r}")
        self.phase = _wrap_phase(phase)

    def shift_phase(self, delta: float) -> None:
        """Shift the static phase offset by *delta* radians."""
        if not math.isfinite(delta):
            raise ValidationError(f"invalid frame phase shift {delta!r}")
        self.phase = _wrap_phase(self.phase + delta)

    def copy(self) -> "FrameState":
        """Return an independent copy of this state."""
        return FrameState(frequency=self.frequency, phase=self.phase)
