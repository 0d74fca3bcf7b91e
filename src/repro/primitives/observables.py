"""Observable algebra: the stack's single expectation engine.

An :class:`Observable` is a weighted sum of Pauli strings over
measurement *slots* (qubit indices). Every expectation value the stack
reports — Estimator PUBs, VQE energies, sweep curves, ``<Z>`` of a
result's ``probabilities`` — evaluates through this one module, so
slot validation, width checks and qudit-embedding conventions live in
exactly one place instead of on each result dataclass.

Two evaluation paths, chosen by what the backend can provide:

* **distribution path** (:meth:`Observable.expectation`) — for
  *diagonal* observables (``I``/``Z`` factors only) against a
  bitstring outcome distribution. Levels ``>= 1`` were discriminated
  as bit ``1`` by the readout model, so on qudits this path carries
  the *threshold* convention: leakage counts toward the ``-1``
  eigenvalue, exactly like the sampled counts it must stay consistent
  with. ``Observable.z(slot).expectation(result.probabilities)`` is
  the one way to read ``<Z>`` off any result type.
* **state path** (:meth:`Observable.matrix`) — for arbitrary
  observables against an exact simulator state (ket or density
  matrix): the Estimator takes the moments of this matrix, lifted into
  the device dimensions through
  :func:`repro.control.hamiltonians.embed_qubit_operator`,
  i.e. the *computational-subspace* convention: the operator is zero
  on leakage levels. This matches how the variational algorithms
  (GateVQE, CtrlVQE) have always scored their ansatz states.

The conventions agree exactly on true qubits (``dims == (2, ...)``)
and differ on qudits only by leakage-population terms — which is why
the Estimator evaluates diagonal observables through the distribution
path whenever the program captured measurements (bit-for-bit parity
with the pre-readout distribution ``Executable.run`` results carry)
and reserves the state path for non-diagonal observables and
capture-less programs.
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping, Sequence

import numpy as np

from repro.core.distributions import distribution_width
from repro.errors import ValidationError


#: Sparse term key: sorted ``((slot, pauli_char), ...)`` with pauli in
#: {"X", "Y", "Z"} (identity factors are simply absent).
_TermKey = tuple[tuple[int, str], ...]

_PAULIS = frozenset("XYZ")

#: Coefficients below this magnitude are dropped by the algebra.
_COEFF_TOL = 0.0


def _validate_key(key: _TermKey) -> _TermKey:
    seen: set[int] = set()
    for slot, ch in key:
        if not isinstance(slot, (int, np.integer)) or slot < 0:
            raise ValidationError(
                f"observable slot must be a non-negative int, got {slot!r}"
            )
        if slot in seen:
            raise ValidationError(
                f"observable term repeats slot {slot}"
            )
        if ch not in _PAULIS:
            raise ValidationError(
                f"unknown Pauli factor {ch!r}; expected one of X, Y, Z"
            )
        seen.add(int(slot))
    return tuple(sorted((int(s), str(c)) for s, c in key))


class Observable:
    """A weighted sum of Pauli strings over measurement slots.

    Construct through the classmethods (:meth:`z`, :meth:`from_pauli`,
    :meth:`from_terms`, :meth:`identity`) or combine existing
    observables with ``+``, ``-`` and scalar ``*`` — the algebra keeps
    terms merged and sparse. Instances are immutable and hashable on
    their term structure, so they can key caches and deduplicate
    broadcast PUB grids.
    """

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[_TermKey, complex]) -> None:
        merged: dict[_TermKey, complex] = {}
        for key, coeff in terms.items():
            key = _validate_key(tuple(key))
            value = merged.get(key, 0.0) + complex(coeff)
            if value == 0 and key in merged:
                del merged[key]
            elif value != 0 or key not in merged:
                merged[key] = value
        self._terms: dict[_TermKey, complex] = {
            k: v for k, v in merged.items() if abs(v) > _COEFF_TOL
        }
        self._hash: int | None = None

    # ---- constructors ----------------------------------------------------------------

    @classmethod
    def identity(cls, coeff: complex = 1.0) -> "Observable":
        """The identity observable (a constant energy offset)."""
        return cls({(): coeff})

    @classmethod
    def z(cls, slot: int = 0, coeff: complex = 1.0) -> "Observable":
        """``Z`` on one measurement slot."""
        return cls({((int(slot), "Z"),): coeff})

    @classmethod
    def from_pauli(cls, label: str, coeff: complex = 1.0) -> "Observable":
        """One Pauli string, e.g. ``"ZI"`` (index 0 is the leftmost
        character — the :func:`repro.control.hamiltonians.pauli_sum`
        convention)."""
        if not isinstance(label, str) or not label:
            raise ValidationError(f"Pauli label must be a non-empty str, got {label!r}")
        key = []
        for slot, ch in enumerate(label.upper()):
            if ch == "I":
                continue
            key.append((slot, ch))
        return cls({tuple(key): coeff})

    @classmethod
    def from_terms(cls, terms: Mapping[str, complex]) -> "Observable":
        """A weighted Pauli sum from ``{label: coefficient}``.

        Accepts exactly the dictionaries the variational experiments
        already use (e.g. :data:`repro.control.hamiltonians.H2_TERMS`).
        """
        out = cls({})
        for label, coeff in terms.items():
            out = out + cls.from_pauli(label, coeff)
        return out

    @classmethod
    def from_matrix(
        cls, matrix: np.ndarray, *, tol: float = 1e-12
    ) -> "Observable":
        """Pauli-decompose a dense ``2^n x 2^n`` qubit operator.

        ``coeff_P = tr(P M) / 2^n`` over the n-qubit Pauli basis;
        terms below *tol* are dropped. This is how the variational
        algorithms feed their dense Hamiltonians (e.g. the H2 matrix)
        into the Estimator.
        """
        import itertools

        from repro.sim.operators import kron_all, pauli

        m = np.asarray(matrix, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValidationError(
                f"observable matrix must be square, got shape {m.shape}"
            )
        n = int(m.shape[0]).bit_length() - 1
        if 2**n != m.shape[0] or n < 1:
            raise ValidationError(
                f"observable matrix dimension {m.shape[0]} is not a "
                "power of two >= 2"
            )
        dim = m.shape[0]
        terms: dict[str, complex] = {}
        for labels in itertools.product("IXYZ", repeat=n):
            p = kron_all([pauli(ch) for ch in labels])
            coeff = complex(np.trace(p @ m)) / dim  # paulis are Hermitian
            if abs(coeff) > tol:
                terms["".join(labels)] = coeff
        return cls.from_terms(terms)

    @classmethod
    def coerce(cls, obj: Any) -> "Observable":
        """Normalize *obj* into an Observable.

        Accepts an :class:`Observable`, a Pauli label string, or a
        ``{label: coefficient}`` mapping.
        """
        if isinstance(obj, cls):
            return obj
        if isinstance(obj, str):
            return cls.from_pauli(obj)
        if isinstance(obj, Mapping):
            return cls.from_terms(obj)
        raise ValidationError(
            f"cannot build an Observable from {type(obj).__name__}; "
            "expected an Observable, a Pauli label, or a {label: coeff} "
            "mapping"
        )

    # ---- structure -------------------------------------------------------------------

    @property
    def terms(self) -> dict[_TermKey, complex]:
        """The merged sparse terms (copy)."""
        return dict(self._terms)

    @property
    def num_slots(self) -> int:
        """Slots this observable touches: ``max slot + 1`` (0 if none)."""
        slots = [s for key in self._terms for s, _ in key]
        return max(slots) + 1 if slots else 0

    @property
    def is_diagonal(self) -> bool:
        """Whether every factor is ``Z`` (evaluable from counts)."""
        return all(ch == "Z" for key in self._terms for _, ch in key)

    @property
    def is_hermitian(self) -> bool:
        """Whether every coefficient is real (within rounding)."""
        return all(
            abs(c.imag) <= 1e-14 * max(1.0, abs(c))
            for c in self._terms.values()
        )

    def labels(self, width: int | None = None) -> dict[str, complex]:
        """Dense ``{label: coefficient}`` view padded to *width* slots."""
        width = self.num_slots if width is None else int(width)
        if width < self.num_slots:
            raise ValidationError(
                f"width {width} cannot hold an observable on "
                f"{self.num_slots} slot(s)"
            )
        out: dict[str, complex] = {}
        for key, coeff in self._terms.items():
            chars = ["I"] * max(width, 1)
            for slot, ch in key:
                chars[slot] = ch
            out["".join(chars)] = coeff
        return out

    # ---- algebra ---------------------------------------------------------------------

    def __add__(self, other: "Observable | float | int | complex") -> "Observable":
        if isinstance(other, (int, float, complex)):
            other = Observable.identity(other)
        if not isinstance(other, Observable):
            return NotImplemented
        terms = dict(self._terms)
        for key, coeff in other._terms.items():
            terms[key] = terms.get(key, 0.0) + coeff
        return Observable(terms)

    __radd__ = __add__

    def __sub__(self, other: "Observable | float | int | complex") -> "Observable":
        return self + (-1.0) * (
            Observable.identity(other)
            if isinstance(other, (int, float, complex))
            else other
        )

    def __mul__(self, scalar: float | int | complex) -> "Observable":
        if not isinstance(scalar, (int, float, complex)):
            return NotImplemented
        return Observable({k: v * scalar for k, v in self._terms.items()})

    __rmul__ = __mul__

    def __neg__(self) -> "Observable":
        return self * -1.0

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Observable) and self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    def __iter__(self) -> Iterator[tuple[_TermKey, complex]]:
        return iter(self._terms.items())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if not self._terms:
            return "Observable(0)"
        parts = []
        for label, coeff in sorted(self.labels().items()):
            c = coeff.real if abs(coeff.imag) < 1e-14 else coeff
            parts.append(f"{c:+g}*{label}")
        return f"Observable({' '.join(parts)})"

    # ---- distribution path -----------------------------------------------------------

    def values_per_outcome(
        self, probabilities: Mapping[str, float], *, n_slots: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(values, probs)`` of the observable per measured outcome.

        Diagonal observables only. Validates the distribution is
        non-empty, the key widths are consistent, and every touched
        slot exists; the returned arrays align outcome-for-outcome.
        """
        self._require_diagonal()
        width = distribution_width(probabilities, n_slots=n_slots)
        self._require_slots(width)
        keys = list(probabilities)
        probs = np.array([probabilities[k] for k in keys], dtype=np.float64)
        bit_signs = np.array(
            [[1.0 if ch == "0" else -1.0 for ch in k] for k in keys],
            dtype=np.float64,
        )
        return self._signed_values(bit_signs), probs

    def outcome_values(self, width: int) -> np.ndarray:
        """The (real part of the) observable on every *width*-bit
        outcome, in binary order: ``values[i]`` belongs to
        ``format(i, f"0{width}b")``. Diagonal only, validated and
        computed like :meth:`values_per_outcome`.
        """
        self._require_diagonal()
        self._require_slots(width)
        bits = (np.arange(1 << width)[:, None] >> np.arange(width - 1, -1, -1)) & 1
        return self._signed_values(1.0 - 2.0 * bits).real

    def _signed_values(self, signs: np.ndarray) -> np.ndarray:
        """The observable on each row of an ``(outcome, slot)`` table of
        ``+1`` (bit 0) / ``-1`` (bit 1) signs: each term reduces over
        its touched slots instead of re-walking every outcome."""
        values = np.zeros(len(signs), dtype=np.complex128)
        for term, coeff in self._terms.items():
            slots = [s for s, _ in term]
            values += coeff * signs[:, slots].prod(axis=1)
        return values

    def _require_diagonal(self) -> None:
        if not self.is_diagonal:
            raise ValidationError(
                "observable has X/Y factors and cannot be evaluated from "
                "a Z-basis outcome distribution; evaluate it from the "
                "state (direct simulator targets) instead"
            )

    def _require_slots(self, width: int) -> None:
        if self.num_slots > width:
            raise ValidationError(
                f"slot {self.num_slots - 1} out of range: result has "
                f"{width} measured slot(s)"
            )

    def expectation(
        self, probabilities: Mapping[str, float], *, n_slots: int | None = None
    ) -> float:
        """Expectation against a bitstring distribution (diagonal only).

        The threshold-discrimination convention: whatever the readout
        called bit ``1`` (including leakage levels on qudits) carries
        the ``-1`` eigenvalue. Raises
        :class:`~repro.errors.ValidationError` on an empty
        distribution, inconsistent key widths, out-of-range slots, or
        non-diagonal terms.
        """
        values, probs = self.values_per_outcome(
            probabilities, n_slots=n_slots
        )
        total = complex(np.dot(values, probs))
        return total.real if self.is_hermitian else total  # type: ignore[return-value]

    def variance(
        self, probabilities: Mapping[str, float], *, n_slots: int | None = None
    ) -> float:
        """``E[O^2] - E[O]^2`` under the distribution (diagonal only)."""
        values, probs = self.values_per_outcome(
            probabilities, n_slots=n_slots
        )
        values = values.real
        mean = float(np.dot(values, probs))
        return max(0.0, float(np.dot(values * values, probs)) - mean * mean)

    # ---- state path ------------------------------------------------------------------

    def matrix(
        self,
        dims: Sequence[int],
        sites: Sequence[int] | None = None,
    ) -> np.ndarray:
        """The observable lifted into the full device space.

        *dims* are the per-site Hilbert dimensions; *sites* maps
        observable slot ``i`` to device site ``sites[i]`` (identity:
        slot i = site i). Qudit embedding goes through
        :func:`repro.control.hamiltonians.embed_qubit_operator`: the
        computational-subspace convention, zero on leakage levels.
        """
        from repro.control.hamiltonians import embed_qubit_operator, pauli_sum

        n = len(dims)
        sites = list(range(self.num_slots)) if sites is None else list(sites)
        if len(set(sites)) != len(sites):
            raise ValidationError("observable site mapping must be distinct")
        if self.num_slots > len(sites):
            raise ValidationError(
                f"observable touches {self.num_slots} slot(s) but only "
                f"{len(sites)} site(s) are mapped"
            )
        if any(not 0 <= s < n for s in sites):
            raise ValidationError(
                f"observable site mapping {sites} out of range for "
                f"{n} device site(s)"
            )
        # Re-key each term from slots onto device sites, then embed the
        # dense n-qubit operator into the qudit dimensions.
        site_terms: dict[str, complex] = {}
        for key, coeff in self._terms.items():
            chars = ["I"] * n
            for slot, ch in key:
                chars[sites[slot]] = ch
            label = "".join(chars)
            site_terms[label] = site_terms.get(label, 0.0) + coeff
        return embed_qubit_operator(pauli_sum(site_terms, n), dims)
