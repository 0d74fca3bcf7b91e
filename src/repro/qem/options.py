"""Composable mitigation options for the primitives tier.

``EstimatorOptions`` / ``SamplerOptions`` hold an ordered ``mitigation``
stack naming the techniques to compose, plus one options block per
technique. The *declared order* is the composition order: circuit
variants expand left-to-right (the first mitigator is the outermost
loop of the variant grid) and estimates fold back right-to-left, so

``EstimatorOptions(mitigation=("zne", "twirling", "readout"))``

means: for every ZNE stretch factor, run every twirling randomization;
fold by confusion-inverting each variant's distribution, averaging the
twirls within each stretch factor, and extrapolating the per-factor
means to zero noise. Declaring ``("twirling", "zne")`` instead
extrapolates *within* each randomization and averages the extrapolated
values — identical for linear folds, deliberately different for
nonlinear ones.

Every mitigator declares its ``overhead`` — the circuit/shot multiplier
it costs — and :attr:`EstimatorOptions.overhead` is their product, so a
caller can budget a mitigated sweep before running it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import ValidationError

#: Techniques the Estimator composes (ZNE is an expectation-value
#: technique; samplers only symmetrize/invert distributions).
ESTIMATOR_MITIGATORS = ("zne", "twirling", "readout")
SAMPLER_MITIGATORS = ("twirling", "readout")


@dataclass(frozen=True)
class ZNEOptions:
    """Zero-noise extrapolation via pulse stretching.

    ``stretch_factors`` must start at ``1.0`` (the unstretched circuit)
    and increase strictly; ``extrapolation`` picks the ``c -> 0`` fold:
    ``"linear"`` (least-squares line), ``"exponential"``
    (``a + b*exp(-g*c)``, a separable least-squares fit over ``g``,
    falling back to linear with fewer than three factors or data no
    exponential fits) or ``"richardson"`` (exact polynomial through
    all factors).
    """

    stretch_factors: tuple[float, ...] = (1.0, 1.5, 2.0)
    extrapolation: str = "linear"

    def __post_init__(self) -> None:
        factors = tuple(float(f) for f in self.stretch_factors)
        object.__setattr__(self, "stretch_factors", factors)
        if len(factors) < 2:
            raise ValidationError(
                "ZNE needs at least two stretch factors to extrapolate"
            )
        if any(not math.isfinite(f) or f < 1.0 for f in factors):
            raise ValidationError(
                f"stretch factors must be finite and >= 1, got {factors}"
            )
        if factors[0] != 1.0:
            raise ValidationError(
                "the first stretch factor must be 1.0 (the unstretched "
                f"circuit), got {factors[0]}"
            )
        if list(factors) != sorted(set(factors)):
            raise ValidationError(
                f"stretch factors must be strictly increasing, got {factors}"
            )
        if self.extrapolation not in ("linear", "exponential", "richardson"):
            raise ValidationError(
                f"unknown extrapolation {self.extrapolation!r}; expected "
                "'linear', 'exponential' or 'richardson'"
            )

    @property
    def overhead(self) -> float:
        """Circuit multiplier: one execution per stretch factor."""
        return float(len(self.stretch_factors))


@dataclass(frozen=True)
class TwirlingOptions:
    """Pauli (bit-flip) twirling of the measurement.

    Each randomization conjugates the final measurement by X on a
    random subset of measured slots — physically an X pulse before
    readout, algebraically a sign-tracked frame change of the
    observable — which symmetrizes coherent/asymmetric readout bias
    into unbiased stochastic noise. With ``balanced=True`` (default)
    the flip masks enumerate all ``2**n_slots`` patterns whenever that
    many fit in ``num_randomizations`` — an exhaustive twirl whose
    average is exact, not sampled.
    """

    num_randomizations: int = 8
    balanced: bool = True

    def __post_init__(self) -> None:
        n = int(self.num_randomizations)
        object.__setattr__(self, "num_randomizations", n)
        if n < 1:
            raise ValidationError(
                f"num_randomizations must be >= 1, got {self.num_randomizations}"
            )

    @property
    def overhead(self) -> float:
        """Circuit multiplier: one execution per randomization."""
        return float(self.num_randomizations)


@dataclass(frozen=True)
class ReadoutOptions:
    """Confusion-matrix inversion of measured distributions.

    ``models`` optionally overrides the per-slot
    :class:`~repro.sim.measurement.ReadoutModel` sequence; by default
    the executor's configured readout models are used (exact inversion
    on the simulator).
    """

    models: tuple | None = None

    def __post_init__(self) -> None:
        if self.models is not None:
            object.__setattr__(self, "models", tuple(self.models))

    @property
    def overhead(self) -> float:
        """Pure post-processing: no extra circuits."""
        return 1.0


def _coerce_stack(mitigation, known: tuple[str, ...]) -> tuple[str, ...]:
    if isinstance(mitigation, str):
        mitigation = (mitigation,)
    stack = tuple(str(m) for m in mitigation)
    for name in stack:
        if name not in known:
            raise ValidationError(
                f"unknown mitigator {name!r}; expected a subset of {known}"
            )
    if len(set(stack)) != len(stack):
        raise ValidationError(f"mitigation stack repeats a technique: {stack}")
    return stack


@dataclass(frozen=True)
class EstimatorOptions:
    """Mitigation stack for :class:`~repro.primitives.estimator.Estimator`.

    An *empty* stack is meaningful: the estimator then evaluates from
    the exact post-readout distribution — the noisy, unmitigated
    baseline every mitigated run is scored against — instead of the
    default pre-readout convention.
    """

    mitigation: tuple[str, ...] = ()
    zne: ZNEOptions = field(default_factory=ZNEOptions)
    twirling: TwirlingOptions = field(default_factory=TwirlingOptions)
    readout: ReadoutOptions = field(default_factory=ReadoutOptions)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "mitigation", _coerce_stack(self.mitigation, ESTIMATOR_MITIGATORS)
        )

    @property
    def overhead(self) -> float:
        """Total circuit multiplier of the declared stack (product)."""
        out = 1.0
        for name in self.mitigation:
            out *= getattr(self, name).overhead
        return out


@dataclass(frozen=True)
class SamplerOptions:
    """Mitigation stack for :class:`~repro.primitives.sampler.Sampler`.

    Samplers mitigate *distributions*, so only ``twirling`` and
    ``readout`` compose here (ZNE is an expectation-value technique).
    The mitigated distributions land in ``quasi_dists``; ``counts`` /
    ``probabilities`` keep reporting the raw base execution.
    """

    mitigation: tuple[str, ...] = ()
    twirling: TwirlingOptions = field(default_factory=TwirlingOptions)
    readout: ReadoutOptions = field(default_factory=ReadoutOptions)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "mitigation", _coerce_stack(self.mitigation, SAMPLER_MITIGATORS)
        )

    @property
    def overhead(self) -> float:
        """Total circuit multiplier of the declared stack (product)."""
        out = 1.0
        for name in self.mitigation:
            out *= getattr(self, name).overhead
        return out
