"""Bitstring-distribution statistics shared by every result type.

Every layer of the stack hands measurement outcomes back as a mapping
of bitstrings to probabilities (simulator ``ExecutionResult``, client
``ClientResult``, QPI ``QuantumResult``, mitigation
``MitigatedResult``). The observable arithmetic on those mappings
lives here so slot validation is enforced once, at every boundary.
The general diagonal-observable engine built on these kernels is
:class:`repro.primitives.Observable`.
"""

from __future__ import annotations

from typing import Mapping

from repro.errors import ValidationError


def distribution_width(
    probabilities: Mapping[str, float],
    *,
    n_slots: int | None = None,
    empty_message: str | None = None,
) -> int:
    """Validated bitstring width of a non-empty outcome distribution.

    Rejects an empty mapping and — unlike reading ``len(first_key)``
    and hoping — rejects mixed-width keys, which would otherwise make
    per-slot arithmetic read garbage positions (or crash with a bare
    ``IndexError`` deep in a loop). When the caller knows the measured
    layout, *n_slots* is enforced against every key.
    """
    if not probabilities:
        raise ValidationError(
            empty_message
            or "expectation is undefined: the result holds an "
            "empty distribution (no measurements captured)"
        )
    width = n_slots
    for key in probabilities:
        if width is None:
            width = len(key)
        elif len(key) != width:
            raise ValidationError(
                f"inconsistent bitstring widths in distribution: "
                f"key {key!r} has {len(key)} slot(s), expected {width}"
            )
    assert width is not None
    return width


def distribution_expectation_z(
    probabilities: Mapping[str, float],
    slot: int,
    *,
    n_slots: int | None = None,
    empty_message: str | None = None,
) -> float:
    """``<Z>`` of the bit at *slot* of a bitstring distribution.

    Validates *slot* against the bitstring width (or *n_slots* when
    the caller knows the measured layout), rejects an empty
    distribution instead of silently returning 0.0, and rejects
    mixed-width keys instead of letting ``key[slot]`` read a garbage
    position or raise a bare ``IndexError``.
    """
    width = distribution_width(
        probabilities, n_slots=n_slots, empty_message=empty_message
    )
    if not 0 <= slot < width:
        raise ValidationError(
            f"slot {slot} out of range: result has {width} measured slot(s)"
        )
    total = 0.0
    for key, p in probabilities.items():
        total += p * (1.0 if key[slot] == "0" else -1.0)
    return total
