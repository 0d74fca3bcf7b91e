"""Timing and granularity arithmetic.

Control hardware accepts pulse start times and durations only on a
fixed grid: an integer multiple of the device *granularity* (in
samples). QDMI exposes the granularity and sample period ``dt`` as
device properties (paper §5.3, Fig. 2 "timing/granularity and
constraints"); the compiler's legalization pass uses these helpers to
snap schedules onto the grid.
"""

from __future__ import annotations

from repro.errors import ValidationError


def _check_granularity(granularity: int) -> None:
    if not isinstance(granularity, int) or granularity <= 0:
        raise ValidationError(
            f"granularity must be a positive int, got {granularity!r}"
        )


def align_up(value: int, granularity: int) -> int:
    """Smallest multiple of *granularity* that is >= *value*."""
    _check_granularity(granularity)
    if value < 0:
        raise ValidationError(f"cannot align negative value {value}")
    return ((value + granularity - 1) // granularity) * granularity


def validate_granularity(value: int, granularity: int, what: str = "value") -> None:
    """Raise :class:`ValidationError` unless *value* sits on the grid."""
    _check_granularity(granularity)
    if value % granularity != 0:
        raise ValidationError(
            f"{what} {value} is not a multiple of granularity {granularity}"
        )
