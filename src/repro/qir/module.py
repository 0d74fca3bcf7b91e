"""QIR module object model.

A faithful-but-small subset of an LLVM module: named opaque types,
global constants, one entry function whose body is a linear list of
intrinsic calls, declarations, and an attribute group. The textual
form (see :mod:`repro.qir.emitter`) matches the paper's Listing 3
conventions: pulse operations are ``call``s to declared-but-undefined
``__quantum__pulse__*`` symbols on opaque ``%Port``/``%Waveform``/
``%Frame`` pointers, resolved at link time by the device runtime.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from repro.errors import ValidationError

#: The pulse intrinsic surface (the proposed Pulse Profile vocabulary).
PULSE_INTRINSICS = frozenset(
    {
        "__quantum__pulse__port__body",
        "__quantum__pulse__frame__body",
        "__quantum__pulse__waveform__body",
        "__quantum__pulse__waveform_parametric__body",
        "__quantum__pulse__waveform_scale__body",
        "__quantum__pulse__waveform_play__body",
        "__quantum__pulse__frame_change__body",
        "__quantum__pulse__set_frequency__body",
        "__quantum__pulse__shift_frequency__body",
        "__quantum__pulse__set_phase__body",
        "__quantum__pulse__shift_phase__body",
        "__quantum__pulse__delay__body",
        "__quantum__pulse__barrier__body",
        "__quantum__pulse__capture__body",
    }
)

#: The gate-level QIS intrinsics the linker also resolves (the paper's
#: Listing 3 mixes `__quantum__qis__mz__body` with pulse calls).
QIS_INTRINSICS = frozenset(
    {
        "__quantum__qis__x__body",
        "__quantum__qis__sx__body",
        "__quantum__qis__rz__body",
        "__quantum__qis__cz__body",
        "__quantum__qis__mz__body",
    }
)


@dataclass(frozen=True)
class QIRArg:
    """One call argument: an LLVM type spelling + a value.

    ``kind`` distinguishes how ``value`` is interpreted:

    * ``"literal"`` — int or float literal (``i64 32``, ``double 0.5``)
    * ``"global"`` — reference to a global constant (``i8* @name``)
    * ``"local"`` — reference to an SSA result (``%Port* %p0``)
    * ``"qubit"`` / ``"result"`` — ``inttoptr`` encoded static index
    """

    type: str
    kind: str
    value: Union[int, float, str]

    def __post_init__(self) -> None:
        if self.kind not in ("literal", "global", "local", "qubit", "result"):
            raise ValidationError(f"bad QIR arg kind {self.kind!r}")

    def render(self) -> str:
        if self.kind == "literal":
            if isinstance(self.value, float):
                return f"{self.type} {self.value!r}"
            return f"{self.type} {self.value}"
        if self.kind == "global":
            return f"{self.type} @{self.value}"
        if self.kind == "local":
            return f"{self.type} %{self.value}"
        if self.kind == "qubit":
            return f"%Qubit* inttoptr (i64 {self.value} to %Qubit*)"
        return f"%Result* inttoptr (i64 {self.value} to %Result*)"


@dataclass
class QIRCall:
    """One ``call`` instruction in the entry function."""

    callee: str
    args: list[QIRArg] = field(default_factory=list)
    result: str | None = None  # SSA name without the %
    result_type: str = "void"

    def render(self) -> str:
        args = ", ".join(a.render() for a in self.args)
        call = f"call {self.result_type} @{self.callee}({args})"
        if self.result is not None:
            return f"%{self.result} = {call}"
        return f"{call}"


@dataclass
class QIRGlobal:
    """A global constant: a name string or a double array."""

    name: str
    kind: str  # "string" | "f64_array"
    data: Union[str, list[float]]

    def __post_init__(self) -> None:
        if self.kind not in ("string", "f64_array"):
            raise ValidationError(f"bad QIR global kind {self.kind!r}")

    def render(self) -> str:
        if self.kind == "string":
            assert isinstance(self.data, str)
            payload = self.data.replace("\\", "\\5C").replace('"', "\\22")
            n = len(self.data) + 1  # trailing NUL, LLVM-style
            return (
                f"@{self.name} = private constant [{n} x i8] "
                f'c"{payload}\\00"'
            )
        assert isinstance(self.data, list)
        body = ", ".join(f"double {v!r}" for v in self.data)
        return (
            f"@{self.name} = private constant "
            f"[{len(self.data)} x double] [{body}]"
        )


@dataclass
class QIRModule:
    """A QIR module: globals + one entry function + attributes."""

    module_id: str
    entry_name: str
    globals: list[QIRGlobal] = field(default_factory=list)
    body: list[QIRCall] = field(default_factory=list)
    attributes: dict[str, str] = field(default_factory=dict)
    declared: set[str] = field(default_factory=set)

    def global_named(self, name: str) -> QIRGlobal:
        for g in self.globals:
            if g.name == name:
                return g
        raise ValidationError(f"QIR module has no global @{name}")

    def callees(self) -> set[str]:
        """Every intrinsic symbol called in the body."""
        return {c.callee for c in self.body}

    def profile(self) -> str:
        """The declared profile name ('pulse', 'base', ...)."""
        return self.attributes.get("qir_profiles", "base")

    def render(self) -> str:
        """Emit the textual LLVM-like form."""
        lines: list[str] = [f"; ModuleID = '{self.module_id}'"]
        lines += [
            "%Qubit = type opaque",
            "%Result = type opaque",
            "%Port = type opaque",
            "%Frame = type opaque",
            "%Waveform = type opaque",
            "",
        ]
        for g in self.globals:
            lines.append(g.render())
        if self.globals:
            lines.append("")
        lines.append(f"define void @{self.entry_name}() #0 {{")
        lines.append("entry:")
        for call in self.body:
            lines.append("  " + call.render())
        lines.append("  ret void")
        lines.append("}")
        lines.append("")
        for sym in sorted(self.callees() | self.declared):
            lines.append(f"declare void @{sym}()")
        lines.append("")
        attrs = " ".join(
            f'"{k}"="{v}"' if v else f'"{k}"'
            for k, v in sorted(self.attributes.items())
        )
        lines.append(f"attributes #0 = {{ {attrs} }}")
        return "\n".join(lines) + "\n"
