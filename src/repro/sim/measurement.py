"""Measurement: projective readout, assignment errors, shot sampling.

Captures in a pulse schedule mark which sites are read out and into
which classical memory slot. This module turns a final quantum state
into (a) exact outcome probabilities over the measured sites and (b)
seeded shot counts after applying a per-site readout (assignment) error
model. Leakage levels (|2> on qutrits) are reported as ``1`` by the
discriminator — the standard behaviour of threshold-based dispersive
readout — but their exact populations are preserved separately so the
ctrl-VQE and DRAG experiments can track leakage.
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


def state_probabilities(state: np.ndarray, dims: Sequence[int]) -> np.ndarray:
    """Probability of each full product-basis label, shape ``dims``.

    *state* may be a ket or a density matrix.
    """
    state = np.asarray(state, dtype=np.complex128)
    total = int(np.prod(dims))
    if state.ndim == 1:
        if state.shape != (total,):
            raise ValidationError(
                f"ket length {state.shape} does not match dims {tuple(dims)}"
            )
        probs = np.abs(state) ** 2
    elif state.ndim == 2:
        if state.shape != (total, total):
            raise ValidationError(
                f"density matrix shape {state.shape} does not match dims {tuple(dims)}"
            )
        probs = np.real(np.diag(state)).copy()
    else:
        raise ValidationError("state must be a ket or a density matrix")
    probs = np.clip(probs, 0.0, None)
    s = probs.sum()
    if s <= 0:
        raise ValidationError("state has zero norm")
    return (probs / s).reshape(tuple(dims))


def measured_bit_distribution(
    state: np.ndarray,
    dims: Sequence[int],
    measured_sites: Sequence[int],
) -> dict[str, float]:
    """Joint distribution of *bit* outcomes over *measured_sites*.

    Levels >= 1 on a site are discriminated as bit 1. Unmeasured sites
    are traced out. Keys are bitstrings ordered like *measured_sites*
    (first listed site = leftmost character).
    """
    if len(set(measured_sites)) != len(measured_sites):
        raise ValidationError("measured sites must be distinct")
    probs = state_probabilities(state, dims)
    n = len(dims)
    # Trace out unmeasured sites.
    keep = list(measured_sites)
    others = [s for s in range(n) if s not in keep]
    marg = probs.sum(axis=tuple(others)) if others else probs
    # Collapse each remaining axis to two bins — level 0 vs. levels
    # >= 1 — so the enumeration below runs over 2^m bit patterns, not
    # the full prod(dims) level grid.
    for ax in range(marg.ndim):
        zero = np.take(marg, [0], axis=ax)
        rest = np.take(marg, range(1, marg.shape[ax]), axis=ax).sum(
            axis=ax, keepdims=True
        )
        marg = np.concatenate([zero, rest], axis=ax)
    # Axes of marg follow ascending site index; permute to the
    # caller's measured-site order, then flatten (C order = leftmost
    # site is the most significant bit of the key).
    sorted_keep = sorted(keep)
    marg = marg.transpose([sorted_keep.index(s) for s in keep])
    m = len(keep)
    return {
        format(i, f"0{m}b"): float(p)
        for i, p in enumerate(marg.reshape(-1))
        if p != 0.0
    }


def joint_confusion(models: Sequence[ReadoutModel]) -> np.ndarray:
    """``M[observed, actual]`` over bitstrings: the kron of the per-site
    confusion matrices, the first model's bit most significant."""
    joint = models[0].confusion_matrix()
    for model in models[1:]:
        joint = np.kron(joint, model.confusion_matrix())
    return joint


def apply_readout_error(
    distribution: Mapping[str, float],
    models: Sequence[ReadoutModel],
) -> dict[str, float]:
    """Push a joint bit distribution through per-site confusion matrices.

    *models* must align with the bit positions of the keys.
    """
    if not distribution:
        return {}
    n_bits = len(next(iter(distribution)))
    if len(models) != n_bits:
        raise ValidationError(
            f"{len(models)} readout models for {n_bits}-bit outcomes"
        )
    # One (2^n, 2^n) matvec replaces the per-string enumeration — tiny
    # for the bit counts seen here and O(4^n) either way.
    joint = joint_confusion(models)
    actual_vec = np.zeros(2**n_bits, dtype=np.float64)
    for actual, p in distribution.items():
        if len(actual) != n_bits:
            raise ValidationError("inconsistent bitstring lengths in distribution")
        actual_vec[int(actual, 2)] += p
    observed_vec = joint @ actual_vec
    return {
        format(i, f"0{n_bits}b"): float(w)
        for i, w in enumerate(observed_vec)
        if w > 0.0
    }


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


def leakage_populations(
    state: np.ndarray, dims: Sequence[int]
) -> dict[int, float]:
    """Per-site probability of occupying levels >= 2 (leakage)."""
    probs = state_probabilities(state, dims)
    out: dict[int, float] = {}
    for site, d in enumerate(dims):
        if d <= 2:
            out[site] = 0.0
            continue
        axes = tuple(a for a in range(len(dims)) if a != site)
        marginal = probs.sum(axis=axes)
        out[site] = float(marginal[2:].sum())
    return out
