"""The dialect-agnostic pass manager.

"LLVM's built-in pass manager supports MLIR dialect-agnostic
orchestration by allowing both operation-specific and
operation-agnostic passes to be registered and executed on IR modules,
regardless of the dialect they belong to — as long as the pass is
targeted to the correct dialect context. Thus, any MLIR job loaded into
memory can be processed by a pass suite appropriate for its dialect."
(paper §5.2)

Concretely: a :class:`Pass` may declare a target ``dialect``; the
:class:`PassManager` runs it only on modules that actually use that
dialect and silently skips it otherwise — which is what lets one pass
suite serve gate-only, pulse-only and mixed modules (experiment E6).
The manager verifies the module after every mutating pass, so a buggy
pass fails loudly instead of corrupting downstream stages.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass, field

from repro.errors import PassError
from repro.mlir.context import MLIRContext
from repro.mlir.ir import Module, verify_module


class Pass(abc.ABC):
    """Base class for module-level passes."""

    #: Human-readable pass name (defaults to the class name).
    name: str = ""
    #: Target dialect; None means the pass is dialect-agnostic.
    dialect: str | None = None

    def __init__(self) -> None:
        if not self.name:
            self.name = type(self).__name__

    @abc.abstractmethod
    def run(self, module: Module, context: MLIRContext) -> bool:
        """Transform *module* in place; return True when changed."""


@dataclass
class PassResult:
    """Outcome of one pass invocation."""

    name: str
    changed: bool
    skipped: bool
    runtime_s: float
    error: str | None = None


@dataclass
class PipelineReport:
    """Aggregate of one pipeline run."""

    results: list[PassResult] = field(default_factory=list)

    @property
    def ran(self) -> list[str]:
        return [r.name for r in self.results if not r.skipped]

    @property
    def skipped(self) -> list[str]:
        return [r.name for r in self.results if r.skipped]


class PassManager:
    """Orders and runs passes over a module."""

    def __init__(self, context: MLIRContext) -> None:
        self.context = context
        self._passes: list[Pass] = []

    def add(self, pass_: Pass) -> "PassManager":
        """Append *pass_* to the pipeline (fluent)."""
        self._passes.append(pass_)
        return self

    def run(self, module: Module) -> PipelineReport:
        """Run the pipeline on *module* in place."""
        report = PipelineReport()
        verify_module(module, self.context)
        for p in self._passes:
            dialects = module.dialects_used()
            if p.dialect is not None and p.dialect not in dialects:
                report.results.append(PassResult(p.name, False, True, 0.0))
                continue
            t0 = time.perf_counter()
            try:
                changed = p.run(module, self.context)
            except Exception as exc:
                raise PassError(f"pass {p.name!r} failed: {exc}") from exc
            dt = time.perf_counter() - t0
            report.results.append(PassResult(p.name, bool(changed), False, dt))
            if changed:
                verify_module(module, self.context)
        return report
