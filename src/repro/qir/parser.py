"""QIR text parser.

Parses the LLVM-like textual form back into a :class:`QIRModule`. The
format is machine-generated and line-oriented: one global, declaration,
or call per line, which keeps the parser a set of anchored regexes
instead of a full LLVM grammar. Round-trip (emit -> parse -> emit fixed
point) is covered by tests.
"""

from __future__ import annotations

import re

from repro.errors import ParseError
from repro.qir.module import QIRArg, QIRCall, QIRGlobal, QIRModule

_MODULE_ID_RE = re.compile(r";\s*ModuleID\s*=\s*'([^']*)'")
_STRING_GLOBAL_RE = re.compile(
    r"@([\w.]+)\s*=\s*(?:private\s+)?constant\s*\[\d+\s*x\s*i8\]\s*c\"(.*)\"\s*$"
)
_ARRAY_GLOBAL_RE = re.compile(
    r"@([\w.]+)\s*=\s*(?:private\s+)?constant\s*\[\d+\s*x\s*double\]\s*\[(.*)\]\s*$"
)
_DEFINE_RE = re.compile(r"define\s+void\s+@([\w.]+)\s*\(\)\s*#0\s*\{")
_CALL_RE = re.compile(
    r"(?:%([\w.]+)\s*=\s*)?call\s+([\w%*]+)\s+@([\w.]+)\s*\((.*)\)\s*$"
)
_DECLARE_RE = re.compile(r"declare\s+[\w%*]+\s+@([\w.]+)")
_ATTR_LINE_RE = re.compile(r"attributes\s+#0\s*=\s*\{(.*)\}")
_ATTR_ITEM_RE = re.compile(r'"([^"]+)"(?:\s*=\s*"([^"]*)")?')
_QUBIT_PTR_RE = re.compile(
    r"%(Qubit|Result)\*\s+inttoptr\s*\(\s*i64\s+(\d+)\s+to\s+%(?:Qubit|Result)\*\s*\)"
)


def looks_like_qir(text: str) -> bool:
    """Whether *text* is QIR: a module header or a QIR intrinsic.

    The one QIR autodetection rule, shared by ``Program.coerce`` and
    the client's QIR adapter.
    """
    return text.lstrip().startswith("; ModuleID") or "__quantum__" in text


def _unescape_c_string(payload: str) -> str:
    out = []
    i = 0
    while i < len(payload):
        ch = payload[i]
        if ch == "\\" and i + 2 < len(payload) + 1:
            code = payload[i + 1 : i + 3]
            out.append(chr(int(code, 16)))
            i += 3
        else:
            out.append(ch)
            i += 1
    text = "".join(out)
    return text[:-1] if text.endswith("\x00") else text


def _split_args(argstr: str) -> list[str]:
    """Split a call argument list on top-level commas (parens may nest
    inside ``inttoptr (...)``)."""
    parts: list[str] = []
    depth = 0
    current: list[str] = []
    for ch in argstr:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
    tail = "".join(current).strip()
    if tail:
        parts.append(tail)
    return parts


def _parse_arg(text: str) -> QIRArg:
    m = _QUBIT_PTR_RE.fullmatch(text)
    if m:
        kind = "qubit" if m.group(1) == "Qubit" else "result"
        return QIRArg(f"%{m.group(1)}*", kind, int(m.group(2)))
    pieces = text.split(None, 1)
    if len(pieces) != 2:
        raise ParseError(f"cannot parse QIR argument {text!r}")
    type_, value = pieces
    value = value.strip()
    if value.startswith("@"):
        return QIRArg(type_, "global", value[1:])
    if value.startswith("%"):
        return QIRArg(type_, "local", value[1:])
    try:
        if re.fullmatch(r"-?\d+", value):
            return QIRArg(type_, "literal", int(value))
        return QIRArg(type_, "literal", float(value))
    except ValueError:
        raise ParseError(f"cannot parse QIR literal {value!r}") from None


def parse_qir(text: str) -> QIRModule:
    """Parse QIR text into a :class:`QIRModule`."""
    module_id = "module"
    entry = None
    globals_: list[QIRGlobal] = []
    body: list[QIRCall] = []
    declared: set[str] = set()
    attributes: dict[str, str] = {}
    in_function = False

    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        m = _MODULE_ID_RE.match(line)
        if m:
            module_id = m.group(1)
            continue
        if line.startswith("%") and "type opaque" in line:
            continue
        m = _STRING_GLOBAL_RE.match(line)
        if m:
            globals_.append(
                QIRGlobal(m.group(1), "string", _unescape_c_string(m.group(2)))
            )
            continue
        m = _ARRAY_GLOBAL_RE.match(line)
        if m:
            values = []
            for piece in _split_args(m.group(2)):
                tokens = piece.split()
                if len(tokens) != 2 or tokens[0] != "double":
                    raise ParseError(f"bad array element {piece!r}")
                values.append(float(tokens[1]))
            globals_.append(QIRGlobal(m.group(1), "f64_array", values))
            continue
        m = _DEFINE_RE.match(line)
        if m:
            entry = m.group(1)
            in_function = True
            continue
        if line == "entry:":
            continue
        if line == "ret void":
            continue
        if line == "}":
            in_function = False
            continue
        m = _DECLARE_RE.match(line)
        if m:
            declared.add(m.group(1))
            continue
        m = _ATTR_LINE_RE.match(line)
        if m:
            for item in _ATTR_ITEM_RE.finditer(m.group(1)):
                attributes[item.group(1)] = item.group(2) or ""
            continue
        m = _CALL_RE.match(line)
        if m and in_function:
            result, result_type, callee, argstr = m.groups()
            args = (
                [_parse_arg(a) for a in _split_args(argstr)] if argstr.strip() else []
            )
            body.append(QIRCall(callee, args, result=result, result_type=result_type))
            continue
        if in_function:
            raise ParseError(f"unrecognized line inside function: {line!r}")
        # Tolerate unknown top-level lines (comments, metadata).
        if not line.startswith(";"):
            raise ParseError(f"unrecognized top-level line: {line!r}")

    if entry is None:
        raise ParseError("QIR module has no entry function")
    return QIRModule(
        module_id=module_id,
        entry_name=entry,
        globals=globals_,
        body=body,
        attributes=attributes,
        declared=declared,
    )
