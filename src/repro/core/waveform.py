"""Waveforms: pulse amplitude envelopes (paper §4).

A waveform is "a time-ordered array of samples, defining the amplitude
envelope of a control signal. The amplitudes can be provided either
explicitly or by parametrized functions which, when assigned with
specific parameter values, evaluate to a concrete array of samples."

Two concrete forms implement the shared :class:`Waveform` interface:

* :class:`SampledWaveform` — explicit complex samples.
* :class:`ParametricWaveform` — an envelope name + parameters,
  evaluated lazily (and cached) through an
  :class:`~repro.core.envelopes.EnvelopeRegistry`.

Durations are integer *samples*; the physical sample period ``dt`` is a
device property, so the same waveform object is portable across devices
with different sample rates — exactly the portability property the
exchange format (paper §5.4) needs.
"""

from __future__ import annotations

import hashlib
from typing import Mapping

import numpy as np

from repro.core import envelopes as _env
from repro.errors import ValidationError


class Waveform:
    """Abstract base: anything that evaluates to complex samples.

    Subclasses must implement :meth:`samples` and :attr:`duration`.
    Equality is defined on evaluated samples via :meth:`fingerprint`,
    so a parametric pulse and its explicitly-sampled image compare equal
    — the property that makes Listing-1/2/3 equivalence checkable.
    """

    @property
    def duration(self) -> int:
        """Length in samples."""
        raise NotImplementedError

    def samples(self) -> np.ndarray:
        """Evaluate to a read-only complex128 array of length *duration*."""
        raise NotImplementedError

    # ---- derived utilities -------------------------------------------------

    def max_amplitude(self) -> float:
        """Peak |amplitude| over the waveform."""
        s = self.samples()
        return float(np.abs(s).max()) if s.size else 0.0

    def energy(self) -> float:
        """Sum of |amplitude|^2 (discrete pulse energy, in sample units)."""
        s = self.samples()
        return float(np.real(np.vdot(s, s)))

    def fingerprint(self) -> str:
        """Stable content hash of the evaluated samples.

        Used for structural equality, compile caching and exchange-
        format integrity checks. Rounds to 12 decimal digits so that
        round-trips through textual formats stay stable.
        """
        s = np.round(self.samples(), 12) + 0.0  # +0.0 normalizes -0.0
        h = hashlib.sha256()
        h.update(str(self.duration).encode())
        h.update(s.tobytes())
        return h.hexdigest()[:16]

    def scaled(self, factor: complex) -> "SampledWaveform":
        """A new waveform with every sample multiplied by *factor*."""
        return SampledWaveform(self.samples() * complex(factor))

    def reversed(self) -> "SampledWaveform":
        """Time-reversed copy."""
        return SampledWaveform(self.samples()[::-1].copy())

    def conjugated(self) -> "SampledWaveform":
        """Complex-conjugated copy (inverts the quadrature)."""
        return SampledWaveform(np.conj(self.samples()))

    def padded(self, left: int = 0, right: int = 0) -> "SampledWaveform":
        """Copy with zero samples prepended/appended."""
        if left < 0 or right < 0:
            raise ValidationError("padding must be non-negative")
        s = self.samples()
        return SampledWaveform(
            np.concatenate(
                [
                    np.zeros(left, dtype=np.complex128),
                    s,
                    np.zeros(right, dtype=np.complex128),
                ]
            )
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Waveform):
            return NotImplemented
        return (
            self.duration == other.duration
            and self.fingerprint() == other.fingerprint()
        )

    def __hash__(self) -> int:
        return hash((self.duration, self.fingerprint()))


class SampledWaveform(Waveform):
    """A waveform given by explicit complex samples.

    The sample array is copied once, made read-only, and shared by all
    views — waveform objects are immutable values.
    """

    __slots__ = ("_samples",)

    def __init__(self, samples: "np.ndarray | list[complex]") -> None:
        arr = np.ascontiguousarray(samples, dtype=np.complex128)
        if arr.ndim != 1:
            raise ValidationError(
                f"waveform samples must be 1-D, got shape {arr.shape}"
            )
        if arr.size == 0:
            raise ValidationError("waveform must contain at least one sample")
        if not np.all(np.isfinite(arr.view(np.float64))):
            raise ValidationError("waveform samples must be finite")
        arr = arr.copy()
        arr.setflags(write=False)
        self._samples = arr

    @property
    def duration(self) -> int:
        return int(self._samples.size)

    def samples(self) -> np.ndarray:
        return self._samples

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SampledWaveform(duration={self.duration}, "
            f"peak={self.max_amplitude():.4g})"
        )


class ParametricWaveform(Waveform):
    """A waveform described by an envelope name + parameters.

    Evaluation happens through the default
    :class:`~repro.core.envelopes.EnvelopeRegistry` and is cached — the
    first call to :meth:`samples` pays the vector evaluation, subsequent
    calls are free. The symbolic (name, params) description is retained
    so IR printers and the exchange format can keep pulses parametric.
    """

    __slots__ = ("_name", "_duration", "_params", "_cache")

    def __init__(self, name: str, duration: int, params: Mapping[str, float]) -> None:
        if not isinstance(duration, (int, np.integer)) or duration <= 0:
            raise ValidationError(
                f"waveform duration must be a positive int, got {duration!r}"
            )
        if name not in _env.DEFAULT_REGISTRY:
            raise ValidationError(
                f"unknown envelope {name!r}; "
                f"available: {list(_env.DEFAULT_REGISTRY.names())}"
            )
        self._name = name
        self._duration = int(duration)
        self._params = {k: float(v) for k, v in sorted(params.items())}
        self._cache: np.ndarray | None = None
        # Validate eagerly: a parametric waveform that cannot evaluate is
        # a programming error we want at construction, not at submit time.
        self.samples()

    @property
    def envelope(self) -> str:
        """Envelope name in the registry."""
        return self._name

    @property
    def parameters(self) -> dict[str, float]:
        """Copy of the envelope parameters."""
        return dict(self._params)

    @property
    def duration(self) -> int:
        return self._duration

    def samples(self) -> np.ndarray:
        if self._cache is None:
            arr = _env.DEFAULT_REGISTRY.evaluate(
                self._name, self._duration, self._params
            )
            arr = np.ascontiguousarray(arr, dtype=np.complex128)
            if not np.all(np.isfinite(arr.view(np.float64))):
                raise ValidationError(
                    f"envelope {self._name!r} produced non-finite samples"
                )
            arr.setflags(write=False)
            self._cache = arr
        return self._cache

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        ps = ", ".join(f"{k}={v:g}" for k, v in self._params.items())
        return f"ParametricWaveform({self._name!r}, duration={self._duration}, {ps})"


class ScaledWaveform(Waveform):
    """A waveform times a real amplitude: *base*'s samples times *scale*.

    What a ``pulse.waveform`` with an amplitude operand evaluates to.
    Keeping the factor beside the shape (qibolab's ``Pulse`` split of
    ``amplitude`` and ``shape``) lets a bound sweep hold one base
    waveform and a column of scales: member ``k`` samples
    ``base.samples() * scale_k``, the one multiply the simulator makes
    for the whole column.
    """

    __slots__ = ("base", "scale", "_cache")

    def __init__(self, base: Waveform, scale: float) -> None:
        scale = float(scale)
        if not np.isfinite(scale):
            raise ValidationError(f"waveform scale must be finite, got {scale!r}")
        self.base = base
        self.scale = scale
        self._cache: np.ndarray | None = None

    @property
    def duration(self) -> int:
        return self.base.duration

    def samples(self) -> np.ndarray:
        if self._cache is None:
            arr = self.base.samples() * self.scale
            arr.setflags(write=False)
            self._cache = arr
        return self._cache

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ScaledWaveform({self.base!r}, scale={self.scale:g})"


# ---- convenience constructors ----------------------------------------------


def constant_waveform(duration: int, amp: complex) -> ParametricWaveform:
    """Flat pulse of the given amplitude (real amplitude only; use
    ``.scaled`` for complex rotation)."""
    return ParametricWaveform("constant", duration, {"amp": float(np.real(amp))})


def gaussian_waveform(duration: int, amp: float, sigma: float) -> ParametricWaveform:
    """Lifted-gaussian pulse."""
    return ParametricWaveform("gaussian", duration, {"amp": amp, "sigma": sigma})


def drag_waveform(
    duration: int, amp: float, sigma: float, beta: float
) -> ParametricWaveform:
    """DRAG pulse (gaussian + derivative quadrature)."""
    return ParametricWaveform(
        "drag", duration, {"amp": amp, "sigma": sigma, "beta": beta}
    )


def gaussian_square_waveform(
    duration: int, amp: float, sigma: float, width: float
) -> ParametricWaveform:
    """Flat-top pulse with gaussian edges."""
    return ParametricWaveform(
        "gaussian_square", duration, {"amp": amp, "sigma": sigma, "width": width}
    )
