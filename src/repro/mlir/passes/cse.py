"""Common-subexpression elimination for waveform constants.

Gate->pulse lowering inlines one waveform per gate instance, so a
circuit with fifty X gates initially carries fifty identical waveform
constants. This pass dedupes them within each block (keyed by a stable
encoding of the op attributes and its amplitude operand, if any) and
rewires all uses to the surviving definition — shrinking both the IR
and the eventual exchange payload.
"""

from __future__ import annotations

import json

from repro.mlir.context import MLIRContext
from repro.mlir.ir import Block, Module, Value
from repro.mlir.passes.manager import Pass


def _attr_key(op) -> tuple:
    """Attributes plus operands: two waveforms scaled by different
    amplitude values are different waveforms."""
    return (
        json.dumps(op.attributes, sort_keys=True, default=repr),
        tuple(id(v) for v in op.operands),
    )


class WaveformCSEPass(Pass):
    """Deduplicate identical ``pulse.waveform`` constants per block."""

    name = "waveform-cse"
    dialect = "pulse"

    def run(self, module: Module, context: MLIRContext) -> bool:
        changed = False
        for seq in module.ops_of("pulse.sequence"):
            for block in seq.region().blocks:
                changed |= self._run_on_block(block)
        return changed

    def _run_on_block(self, block: Block) -> bool:
        seen: dict[tuple, Value] = {}
        replacements: dict[Value, Value] = {}
        dead = []
        for op in block.operations:
            if op.name != "pulse.waveform":
                continue
            key = _attr_key(op)
            if key in seen:
                replacements[op.result()] = seen[key]
                dead.append(op)
            else:
                seen[key] = op.result()
        if not replacements:
            return False
        # Rewire uses anywhere below (single-block sequences in practice).
        for op in block.operations:
            op.operands = [replacements.get(v, v) for v in op.operands]
        for op in dead:
            op.erase()
        return True
