"""Pulse canonicalization.

Rewrites that normalize pulse sequences without changing semantics:

* merge consecutive ``pulse.delay`` ops on the same mixed frame,
* drop zero-length delays (a delay whose duration is an SSA operand
  is dynamic: never merged or dropped),
* drop no-op frame updates (``shift_phase``/``shift_frequency`` with a
  statically-zero delta),
* fuse an adjacent attribute-form ``set_frequency`` + ``set_phase`` on
  the same mixed frame into one ``frame_change`` (the fused primitive
  all three paper listings use).

The pass is local (per block) and runs to a fixed point.
"""

from __future__ import annotations

from repro.mlir.context import MLIRContext
from repro.mlir.dialects.pulse import is_dynamic
from repro.mlir.ir import Block, Module, Operation
from repro.mlir.passes.manager import Pass


def _same_mf(a: Operation, b: Operation) -> bool:
    return bool(a.operands) and bool(b.operands) and a.operands[0] is b.operands[0]


def _static_delay(op: Operation) -> bool:
    return op.name == "pulse.delay" and not is_dynamic(op)


class PulseCanonicalizePass(Pass):
    """Normalize pulse sequences (see module docstring)."""

    name = "pulse-canonicalize"
    dialect = "pulse"

    def run(self, module: Module, context: MLIRContext) -> bool:
        changed = False
        for seq in module.ops_of("pulse.sequence"):
            for block in seq.region().blocks:
                while self._run_on_block(block):
                    changed = True
        return changed

    def _run_on_block(self, block: Block) -> bool:
        ops = block.operations
        for i, op in enumerate(ops):
            # Zero delay.
            if _static_delay(op) and op.attr("duration") == 0:
                op.erase()
                return True
            # No-op shifts (attribute form only: SSA deltas are dynamic).
            if (
                op.name in ("pulse.shift_phase", "pulse.shift_frequency")
                and len(op.operands) == 1
                and op.attr("delta") == 0.0
            ):
                op.erase()
                return True
            nxt = ops[i + 1] if i + 1 < len(ops) else None
            if nxt is None:
                continue
            # Merge adjacent delays on the same mixed frame.
            if _static_delay(op) and _static_delay(nxt) and _same_mf(op, nxt):
                total = int(op.attr("duration")) + int(nxt.attr("duration"))
                op.attributes["duration"] = total
                nxt.erase()
                return True
            # Fuse set_frequency + set_phase (attribute forms) into
            # frame_change.
            if (
                op.name == "pulse.set_frequency"
                and nxt.name == "pulse.set_phase"
                and _same_mf(op, nxt)
                and len(op.operands) == 1
                and len(nxt.operands) == 1
                and op.attr("frequency") is not None
                and nxt.attr("phase") is not None
            ):
                fused = Operation(
                    "pulse.frame_change",
                    operands=[op.operands[0]],
                    attributes={
                        "frequency": float(op.attr("frequency")),
                        "phase": float(nxt.attr("phase")),
                    },
                )
                idx = ops.index(op)
                nxt.erase()
                op.erase()
                block.insert(idx, fused)
                return True
            # Later set_frequency on the same frame with no intervening
            # time-consuming or phase-sensitive op shadows the earlier one.
            if (
                op.name == "pulse.set_frequency"
                and nxt.name == "pulse.set_frequency"
                and _same_mf(op, nxt)
                and len(op.operands) == 1
            ):
                op.erase()
                return True
        return False
