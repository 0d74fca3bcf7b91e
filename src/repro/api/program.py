"""Front-end-agnostic programs: the first phase of compile -> bind -> run.

A :class:`Program` wraps any of the stack's front-end representations
behind one type so the rest of the API (``Target``, ``Executable``,
``repro.compile``) never needs to know which surface built the kernel:

============  =====================================================
kind          source
============  =====================================================
``qpi``       a :class:`~repro.qpi.qpi.QCircuit` (paper Listing 1)
``circuit``   a :class:`~repro.qpi.pythonic.PythonicCircuit` or a
              gate-level ``quantum`` MLIR module
``schedule``  a :class:`~repro.core.schedule.PulseSchedule`
``qir``       QIR text with the Pulse Profile (paper Listing 3)
``mlir``      a ``pulse`` dialect module or its text (Listing 2) —
              the only kind that can declare scalar parameters
``qasm3``     OpenQASM-3-style text with ``cal`` blocks
============  =====================================================

Construction never touches a device: payload generation happens later,
against a concrete :class:`~repro.api.target.Target`, through the
client adapter registry.  For ``mlir`` sources the parsed module and
the declared scalar-parameter names are cached here so an
:class:`~repro.api.executable.Executable` can bind parameters without
re-parsing.
"""

from __future__ import annotations

from typing import Any

from repro.core.schedule import PulseSchedule
from repro.errors import ValidationError
from repro.mlir.ir import F64, Module
from repro.qir.parser import looks_like_qir
from repro.qpi.pythonic import PythonicCircuit
from repro.qpi.qpi import QCircuit

#: kind -> adapter registry name (None: the payload is compiler-ready).
_KIND_ADAPTERS = {
    "qpi": "qpi",
    "circuit": "circuit",
    "schedule": "pulse-ir",
    "qir": "qir",
    "mlir": "pulse-ir",
    "qasm3": "qasm3",
}


class Program:
    """A front-end program, normalized for the two-phase execution API."""

    __slots__ = ("source", "kind", "name", "adapter", "_module", "_parameters")

    def __init__(
        self,
        source: Any,
        kind: str,
        *,
        name: str | None = None,
        adapter: str | None = "auto",
    ) -> None:
        if kind not in _KIND_ADAPTERS:
            raise ValidationError(
                f"unknown program kind {kind!r}; expected one of "
                f"{sorted(_KIND_ADAPTERS)}"
            )
        self.source = source
        self.kind = kind
        self.name = name or kind
        # "auto" pins the kind's canonical adapter; an explicit name is
        # kept verbatim; None defers to the registry's autodetection
        # (so unrecognized objects fail with the registry's QDMIError
        # and custom client adapters get their chance).
        self.adapter = _KIND_ADAPTERS[kind] if adapter == "auto" else adapter
        self._module: Module | None = None
        self._parameters: tuple[str, ...] | None = None

    # ---- constructors ----------------------------------------------------------------

    @classmethod
    def from_qpi(cls, circuit: QCircuit, *, name: str | None = None) -> "Program":
        """A program from a QPI circuit handle."""
        if not isinstance(circuit, QCircuit):
            raise ValidationError(
                f"from_qpi expects a QCircuit, got {type(circuit).__name__}"
            )
        return cls(circuit, "qpi", name=name)

    @classmethod
    def from_circuit(cls, circuit: Any, *, name: str | None = None) -> "Program":
        """A program from a Pythonic circuit or a gate-level MLIR module."""
        ok = isinstance(circuit, PythonicCircuit) or (
            isinstance(circuit, Module) and "quantum" in circuit.dialects_used()
        )
        if not ok:
            raise ValidationError(
                "from_circuit expects a PythonicCircuit or a quantum-dialect "
                f"module, got {type(circuit).__name__}"
            )
        return cls(circuit, "circuit", name=name)

    @classmethod
    def from_schedule(
        cls, schedule: PulseSchedule, *, name: str | None = None
    ) -> "Program":
        """A program from an executable pulse schedule."""
        if not isinstance(schedule, PulseSchedule):
            raise ValidationError(
                f"from_schedule expects a PulseSchedule, got "
                f"{type(schedule).__name__}"
            )
        return cls(schedule, "schedule", name=name or schedule.name)

    @classmethod
    def from_qir(cls, text: str, *, name: str | None = None) -> "Program":
        """A program from QIR text carrying the Pulse Profile."""
        if not isinstance(text, str) or not looks_like_qir(text):
            raise ValidationError("from_qir expects QIR text")
        return cls(text, "qir", name=name)

    @classmethod
    def from_mlir(
        cls, payload: "Module | str", *, name: str | None = None
    ) -> "Program":
        """A program from a pulse-dialect module or its printed text.

        The only program kind that can declare scalar parameters
        (``pulse.sequence`` block arguments of type ``f64``); see
        :meth:`parameters` and :meth:`Executable.bind
        <repro.api.executable.Executable.bind>`.
        """
        if not isinstance(payload, (Module, str)):
            raise ValidationError(
                f"from_mlir expects a Module or MLIR text, got "
                f"{type(payload).__name__}"
            )
        return cls(payload, "mlir", name=name)

    @classmethod
    def from_qasm3(cls, text: str, *, name: str | None = None) -> "Program":
        """A program from OpenQASM-3-style text (with ``cal`` blocks)."""
        if not isinstance(text, str) or not text.lstrip().startswith("OPENQASM"):
            raise ValidationError("from_qasm3 expects OpenQASM 3 text")
        return cls(text, "qasm3", name=name)

    @classmethod
    def coerce(cls, obj: Any, *, adapter: str | None = None) -> "Program":
        """Normalize *obj* (any front-end object, or a Program) to a Program.

        An explicit *adapter* name overrides autodetection and is passed
        through to the client's adapter registry unchanged — custom
        adapters registered on a client keep working.
        """
        if isinstance(obj, Program):
            if adapter is not None:
                return cls(obj.source, obj.kind, name=obj.name, adapter=adapter)
            return obj
        if isinstance(obj, QCircuit):
            program = cls(obj, "qpi")
        elif isinstance(obj, PythonicCircuit):
            program = cls(obj, "circuit")
        elif isinstance(obj, PulseSchedule):
            program = cls(obj, "schedule", name=obj.name)
        elif isinstance(obj, Module):
            dialects = obj.dialects_used()
            gate_level = "quantum" in dialects and "pulse" not in dialects
            program = cls(obj, "circuit" if gate_level else "mlir")
        elif isinstance(obj, str):
            head = obj.lstrip()
            if head.startswith("OPENQASM"):
                program = cls(obj, "qasm3")
            elif looks_like_qir(obj):
                program = cls(obj, "qir")
            elif "pulse.sequence" in obj:
                program = cls(obj, "mlir")
            else:
                # Unrecognized text: autodetect through the registry so
                # custom client-registered adapters keep working (and
                # truly unadaptable strings fail with the registry's
                # QDMIError, not a parse error deep in the JIT).  The
                # "circuit" kind is only a label here — it implies no
                # parsing and declares no parameters.
                program = cls(obj, "circuit", adapter=None)
        else:
            # Unknown type: leave the decision to the adapter registry so
            # client-registered custom adapters still get a chance (and
            # unadaptable objects fail with the registry's QDMIError).
            program = cls(obj, "circuit", adapter=None)
        if adapter is not None:
            program.adapter = adapter
        return program

    # ---- parametric structure --------------------------------------------------------

    @property
    def module(self) -> Module | None:
        """The parsed pulse module (``mlir`` kind only), parsed once."""
        if self.kind != "mlir":
            return None
        if self._module is None:
            if isinstance(self.source, Module):
                self._module = self.source
            else:
                from repro.mlir.parser import parse_module

                self._module = parse_module(self.source)
        return self._module

    @property
    def parameters(self) -> tuple[str, ...]:
        """Declared scalar parameter names, in declaration order.

        Non-``mlir`` programs have no declared parameters; binding them
        is a no-op that reuses the compiled artifact unchanged.
        """
        if self._parameters is None:
            names: list[str] = []
            module = self.module
            if module is not None:
                for seq in module.ops_of("pulse.sequence"):
                    entry = seq.region().entry
                    arg_names = seq.attr("pulse.args") or [
                        a.name for a in entry.arguments
                    ]
                    for arg, arg_name in zip(entry.arguments, arg_names):
                        if arg.type == F64 and arg_name not in names:
                            names.append(str(arg_name))
            self._parameters = tuple(names)
        return self._parameters

    @property
    def is_parametric(self) -> bool:
        """Whether the program declares scalar parameters."""
        return bool(self.parameters)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        params = f", parameters={list(self.parameters)}" if self.is_parametric else ""
        return f"Program(kind={self.kind!r}, name={self.name!r}{params})"
