"""Frames: stateful timing + carrier abstractions (paper §4).

A frame combines a reference clock, a carrier frequency and a phase. It
"tracks the elapsed time and provides the timing, frequency, and phase
context for playing waveforms, enabling precise carrier modulation and
virtual phase rotations".

:class:`Frame` is the immutable declaration (name + initial carrier
frequency/phase) that programs, IR modules and QDMI queries reference;
the executor keeps the runtime state it starts from in its frame
timelines (:func:`repro.sim.runs.drive_runs`).

A :class:`MixedFrame` pairs a frame with the port it is played on,
mirroring the ``!pulse.mixed_frame`` type of the MLIR pulse dialect in
the paper's Listing 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.port import Port
from repro.errors import ValidationError


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
