"""Parametric waveform envelope library.

The paper (§4) allows waveform amplitudes to "be provided either
explicitly or by parametrized functions which, when assigned with
specific parameter values, evaluate to a concrete array of samples".
This module is that function library: a registry of named, vectorized
envelope generators. Devices advertise which envelope names they
support natively (via :class:`~repro.core.constraints.PulseConstraints`)
so that the compiler can keep pulses parametric when the hardware
understands them and only fall back to explicit sampling otherwise.

All generators are vectorized over the sample index (no per-sample
Python loops — see the HPC guide notes in DESIGN.md) and return complex
``float64`` arrays of length *duration* samples.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterable, Mapping

import numpy as np

from repro.errors import ValidationError

#: Signature of an envelope generator: (duration_samples, params) -> samples.
EnvelopeFn = Callable[[int, Mapping[str, float]], np.ndarray]


def _time_axis(duration: int) -> np.ndarray:
    """Sample midpoints ``0.5, 1.5, ...`` — midpoint sampling keeps
    short pulses symmetric and avoids a zero first sample."""
    return np.arange(duration, dtype=np.float64) + 0.5


def _require(params: Mapping[str, float], *names: str) -> list[float]:
    missing = [n for n in names if n not in params]
    if missing:
        raise ValidationError(f"envelope missing parameters: {missing}")
    return [float(params[n]) for n in names]


def _check_duration(duration: int) -> None:
    if not isinstance(duration, (int, np.integer)) or duration <= 0:
        raise ValidationError(
            f"envelope duration must be a positive int, got {duration!r}"
        )


def constant(duration: int, params: Mapping[str, float]) -> np.ndarray:
    """Flat envelope: ``amp`` everywhere."""
    _check_duration(duration)
    (amp,) = _require(params, "amp")
    return np.full(duration, amp, dtype=np.complex128)


def square(duration: int, params: Mapping[str, float]) -> np.ndarray:
    """Alias of :func:`constant`; kept for vendor-vocabulary parity."""
    return constant(duration, params)


def gaussian(duration: int, params: Mapping[str, float]) -> np.ndarray:
    """Gaussian envelope ``amp * exp(-(t - mu)^2 / (2 sigma^2))``,
    centered in the window, baseline-subtracted so it starts/ends at 0."""
    _check_duration(duration)
    amp, sigma = _require(params, "amp", "sigma")
    if sigma <= 0:
        raise ValidationError(f"gaussian sigma must be > 0, got {sigma}")
    t = _time_axis(duration)
    mu = duration / 2.0
    body = np.exp(-0.5 * ((t - mu) / sigma) ** 2)
    # Subtract the edge value and renormalize so the peak stays `amp`
    # and the tails hit exactly zero (standard "lifted gaussian").
    edge = math.exp(-0.5 * (mu / sigma) ** 2)
    body = (body - edge) / (1.0 - edge)
    return (amp * body).astype(np.complex128)


def drag(duration: int, params: Mapping[str, float]) -> np.ndarray:
    """DRAG pulse: gaussian with a scaled derivative on the quadrature,
    ``G(t) + 1j * beta * dG/dt``, suppressing leakage to the |2> level."""
    _check_duration(duration)
    amp, sigma, beta = _require(params, "amp", "sigma", "beta")
    if sigma <= 0:
        raise ValidationError(f"drag sigma must be > 0, got {sigma}")
    t = _time_axis(duration)
    mu = duration / 2.0
    gauss = np.exp(-0.5 * ((t - mu) / sigma) ** 2)
    edge = math.exp(-0.5 * (mu / sigma) ** 2)
    lifted = (gauss - edge) / (1.0 - edge)
    dgauss = -(t - mu) / (sigma**2) * gauss / (1.0 - edge)
    return (amp * (lifted + 1j * beta * dgauss)).astype(np.complex128)


def gaussian_square(duration: int, params: Mapping[str, float]) -> np.ndarray:
    """Flat-top pulse with gaussian rising/falling edges.

    Parameters: ``amp``, ``sigma``, ``width`` (flat-top length in
    samples). The ramps occupy ``(duration - width) / 2`` samples each.
    """
    _check_duration(duration)
    amp, sigma, width = _require(params, "amp", "sigma", "width")
    if sigma <= 0:
        raise ValidationError(f"gaussian_square sigma must be > 0, got {sigma}")
    if not 0 <= width <= duration:
        raise ValidationError(
            f"gaussian_square width must be in [0, duration], got {width}"
        )
    t = _time_axis(duration)
    ramp = (duration - width) / 2.0
    rise_mu = ramp
    fall_mu = duration - ramp
    env = np.ones(duration, dtype=np.float64)
    rising = t < rise_mu
    falling = t > fall_mu
    env[rising] = np.exp(-0.5 * ((t[rising] - rise_mu) / sigma) ** 2)
    env[falling] = np.exp(-0.5 * ((t[falling] - fall_mu) / sigma) ** 2)
    return (amp * env).astype(np.complex128)


def cosine(duration: int, params: Mapping[str, float]) -> np.ndarray:
    """Raised-cosine (Hann) envelope: smooth, zero at both ends."""
    _check_duration(duration)
    (amp,) = _require(params, "amp")
    t = _time_axis(duration)
    return (amp * 0.5 * (1.0 - np.cos(2.0 * math.pi * t / duration))).astype(
        np.complex128
    )


def sine(duration: int, params: Mapping[str, float]) -> np.ndarray:
    """Half-period sine envelope: zero at both ends, peak in the middle."""
    _check_duration(duration)
    (amp,) = _require(params, "amp")
    t = _time_axis(duration)
    return (amp * np.sin(math.pi * t / duration)).astype(np.complex128)


def sech(duration: int, params: Mapping[str, float]) -> np.ndarray:
    """Hyperbolic-secant envelope (adiabatic-passage workhorse)."""
    _check_duration(duration)
    amp, sigma = _require(params, "amp", "sigma")
    if sigma <= 0:
        raise ValidationError(f"sech sigma must be > 0, got {sigma}")
    t = _time_axis(duration)
    mu = duration / 2.0
    return (amp / np.cosh((t - mu) / sigma)).astype(np.complex128)


def triangle(duration: int, params: Mapping[str, float]) -> np.ndarray:
    """Symmetric triangular ramp up/down."""
    _check_duration(duration)
    (amp,) = _require(params, "amp")
    t = _time_axis(duration)
    mu = duration / 2.0
    return (amp * (1.0 - np.abs(t - mu) / mu)).astype(np.complex128)


def blackman(duration: int, params: Mapping[str, float]) -> np.ndarray:
    """Blackman window envelope: very low spectral leakage."""
    _check_duration(duration)
    (amp,) = _require(params, "amp")
    t = _time_axis(duration)
    x = 2.0 * math.pi * t / duration
    env = 0.42 - 0.5 * np.cos(x) + 0.08 * np.cos(2.0 * x)
    return (amp * env).astype(np.complex128)


class EnvelopeRegistry:
    """Mutable mapping of envelope name -> generator function.

    A registry instance (rather than a bare module dict) lets devices
    and tests build restricted vocabularies; the module-level
    :data:`DEFAULT_REGISTRY` holds the standard library above.
    """

    def __init__(self, initial: Mapping[str, EnvelopeFn] | None = None) -> None:
        self._fns: Dict[str, EnvelopeFn] = dict(initial or {})

    def register(self, name: str, fn: EnvelopeFn, *, overwrite: bool = False) -> None:
        """Register *fn* under *name*; refuses silent redefinition."""
        if not name or not name.isidentifier():
            raise ValidationError(f"invalid envelope name {name!r}")
        if name in self._fns and not overwrite:
            raise ValidationError(f"envelope {name!r} already registered")
        self._fns[name] = fn

    def evaluate(
        self, name: str, duration: int, params: Mapping[str, float]
    ) -> np.ndarray:
        """Evaluate envelope *name* to concrete complex samples."""
        try:
            fn = self._fns[name]
        except KeyError:
            raise ValidationError(
                f"unknown envelope {name!r}; available: {sorted(self._fns)}"
            ) from None
        out = fn(duration, params)
        if out.shape != (duration,):
            raise ValidationError(
                f"envelope {name!r} returned shape {out.shape}, expected ({duration},)"
            )
        return out

    def names(self) -> Iterable[str]:
        """Registered envelope names, sorted."""
        return sorted(self._fns)

    def __contains__(self, name: str) -> bool:
        return name in self._fns

    def copy(self) -> "EnvelopeRegistry":
        """Independent copy (used by devices restricting the vocabulary)."""
        return EnvelopeRegistry(self._fns)


#: The standard envelope vocabulary shared by the whole stack.
DEFAULT_REGISTRY = EnvelopeRegistry(
    {
        "constant": constant,
        "square": square,
        "gaussian": gaussian,
        "drag": drag,
        "gaussian_square": gaussian_square,
        "cosine": cosine,
        "sine": sine,
        "sech": sech,
        "triangle": triangle,
        "blackman": blackman,
    }
)
