"""Measurement pieces: readout (assignment) errors and shot sampling.

Captures in a pulse schedule mark which sites are read out and into
which classical memory slot. The executor's measurement tail
(:meth:`ScheduleExecutor._finalize
<repro.sim.executor.ScheduleExecutor._finalize>`) turns final states
into exact outcome probabilities over the measured sites, pushes them
through the per-site :class:`ReadoutModel` confusion matrices
(:func:`joint_confusion`) and draws seeded shot counts
(:func:`sample_counts`). Leakage levels (|2> on qutrits) read as ``1``
— the standard behaviour of threshold-based dispersive readout — and
their exact populations are reported separately so the ctrl-VQE and
DRAG experiments can track leakage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.errors import ValidationError


@dataclass(frozen=True)
class ReadoutModel:
    """Per-site symmetric-or-not assignment error.

    ``p01`` is the probability of reading 1 when the qubit is 0;
    ``p10`` of reading 0 when it is 1.
    """

    p01: float = 0.0
    p10: float = 0.0

    def __post_init__(self) -> None:
        for p in (self.p01, self.p10):
            if not 0.0 <= p <= 1.0:
                raise ValidationError(f"readout error probability {p} not in [0,1]")

    def confusion_matrix(self) -> np.ndarray:
        """2x2 matrix ``M[observed, actual]``."""
        return np.array(
            [[1.0 - self.p01, self.p10], [self.p01, 1.0 - self.p10]],
            dtype=np.float64,
        )


def joint_confusion(models: Sequence[ReadoutModel]) -> np.ndarray:
    """``M[observed, actual]`` over bitstrings: the kron of the per-site
    confusion matrices, the first model's bit most significant."""
    joint = models[0].confusion_matrix()
    for model in models[1:]:
        joint = np.kron(joint, model.confusion_matrix())
    return joint


def sample_counts(
    distribution: Mapping[str, float],
    shots: int,
    rng: np.random.Generator,
) -> dict[str, int]:
    """Draw *shots* samples from a bitstring distribution (multinomial)."""
    if shots < 0:
        raise ValidationError(f"shots must be >= 0, got {shots}")
    if shots == 0 or not distribution:
        return {}
    keys = sorted(distribution)
    probs = np.array([distribution[k] for k in keys], dtype=np.float64)
    probs = np.clip(probs, 0.0, None)
    probs /= probs.sum()
    draws = rng.multinomial(shots, probs)
    return {k: int(c) for k, c in zip(keys, draws) if c > 0}
