"""Dialect registry and per-op verification hooks.

MLIR's pass manager "supports MLIR dialect-agnostic orchestration by
allowing both operation-specific and operation-agnostic passes to be
registered and executed on IR modules, regardless of the dialect they
belong to — as long as the pass is targered to the correct dialect
context" (paper §5.2). The :class:`MLIRContext` is that dialect
context: dialects register their operations (with arity and verifier)
and types; the verifier and the pass manager consult it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import IRError
from repro.mlir.ir import Operation, Type


@dataclass(frozen=True)
class OpSpec:
    """Registered definition of one operation.

    ``num_operands``/``num_results`` of ``-1`` mean variadic.
    """

    name: str
    num_operands: int = -1
    num_results: int = 0
    has_region: bool = False
    verifier: Callable[[Operation], None] | None = None
    traits: frozenset[str] = frozenset()


class Dialect:
    """A named collection of op specs and type spellings."""

    def __init__(self, name: str) -> None:
        if not name or not name.isidentifier():
            raise IRError(f"invalid dialect name {name!r}")
        self.name = name
        self.ops: dict[str, OpSpec] = {}
        self.types: dict[str, Type] = {}

    def register_op(self, spec: OpSpec) -> None:
        if not spec.name.startswith(self.name + "."):
            raise IRError(
                f"op {spec.name!r} does not belong to dialect {self.name!r}"
            )
        if spec.name in self.ops:
            raise IRError(f"op {spec.name!r} already registered")
        self.ops[spec.name] = spec

    def register_type(self, short_name: str) -> Type:
        t = Type(f"!{self.name}.{short_name}")
        self.types[short_name] = t
        return t


class MLIRContext:
    """Holds the loaded dialects; shared across a compilation."""

    def __init__(self) -> None:
        self._dialects: dict[str, Dialect] = {}

    def load_dialect(self, dialect: Dialect) -> Dialect:
        """Register *dialect*; idempotent if the same object is reloaded."""
        existing = self._dialects.get(dialect.name)
        if existing is dialect:
            return existing
        if existing is not None:
            raise IRError(f"dialect {dialect.name!r} already loaded")
        self._dialects[dialect.name] = dialect
        return dialect

    def dialect(self, name: str) -> Dialect:
        try:
            return self._dialects[name]
        except KeyError:
            raise IRError(
                f"dialect {name!r} not loaded; loaded: {sorted(self._dialects)}"
            ) from None

    def verify_op(self, op: Operation) -> None:
        """Run structural + registered verification for one op.

        Ops of unloaded dialects verify trivially (MLIR's unregistered-
        op behaviour); ops of loaded dialects must be registered.
        """
        dialect_name = op.dialect
        d = self._dialects.get(dialect_name)
        if d is None:
            return
        spec = d.ops.get(op.name)
        if spec is None:
            raise IRError(
                f"unknown operation {op.name!r} in loaded dialect "
                f"{dialect_name!r}"
            )
        if spec.num_operands >= 0 and len(op.operands) != spec.num_operands:
            raise IRError(
                f"{op.name}: expected {spec.num_operands} operands, "
                f"got {len(op.operands)}"
            )
        if spec.num_results >= 0 and len(op.results) != spec.num_results:
            raise IRError(
                f"{op.name}: expected {spec.num_results} results, "
                f"got {len(op.results)}"
            )
        if spec.has_region and not op.regions:
            raise IRError(f"{op.name}: expected a region")
        if spec.verifier is not None:
            spec.verifier(op)


def default_context() -> MLIRContext:
    """A context with the quantum and pulse dialects loaded."""
    from repro.mlir.dialects.pulse import pulse_dialect
    from repro.mlir.dialects.quantum import quantum_dialect

    ctx = MLIRContext()
    ctx.load_dialect(quantum_dialect())
    ctx.load_dialect(pulse_dialect())
    return ctx
