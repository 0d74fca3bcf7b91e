"""Bitstring-distribution statistics shared by every result type.

Every layer of the stack hands measurement outcomes back as a mapping
of bitstrings to probabilities (simulator ``ExecutionResult``, client
``ClientResult``, QPI ``QuantumResult``, mitigation
``MitigatedResult``). Their width validation lives here so it is
enforced once, at every boundary. The diagonal-observable engine
built on it is :class:`repro.primitives.Observable`.
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
