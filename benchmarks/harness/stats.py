"""Order statistics of per-op samples."""

from __future__ import annotations

import math
import statistics
from typing import NamedTuple, Sequence


class Quantile(NamedTuple):
    """A nearest-rank quantile with the sample it was taken from."""

    value: float
    samples: int
    #: Samples strictly above the quantile's rank: the tail the value
    #: summarizes (a p90 needs at least ten of them to mean anything).
    beyond: int


def nearest_rank(values: Sequence[float], q: float) -> Quantile:
    """The nearest-rank *q* quantile: the ``ceil(q * n)``-th smallest value."""
    if not values:
        raise ValueError("a quantile needs at least one sample")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must be in (0, 1], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return Quantile(ordered[rank - 1], len(ordered), len(ordered) - rank)


def interquartile_mean(values: Sequence[float]) -> float:
    """Mean of the middle half of *values* (``n // 4`` cut from each end).

    Unlike the median it moves smoothly when a bimodal sample shifts
    weight between its modes, and unlike the mean it ignores bursts
    that slow fewer than a quarter of the ops.
    """
    if not values:
        raise ValueError("an interquartile mean needs at least one sample")
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut : len(ordered) - cut])
