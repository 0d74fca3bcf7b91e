"""Pulse legalization against device constraints (paper challenge C3).

The paper's backend interface exists so the compiler can "query relevant
hardware constraints" during JIT compilation. This pass is where those
answers bite: constructed with the :class:`PulseConstraints` the
compiler queried over QDMI, it rewrites the pulse module to fit the
target —

* waveform durations not on the device's timing granularity are
  zero-padded up to the grid (parametric pulses are re-sampled to raw
  data first, since padding breaks the parametric form),
* parametric envelopes the hardware does not understand are lowered to
  explicit samples (when the device accepts raw samples at all),
* ``pulse.delay`` durations are aligned up to the grid,
* an amplitude or duration given as an SSA operand is dynamic: the
  peak check and the delay alignment skip it (the binder range-checks
  bound values),
* violations that cannot be fixed by rewriting (over-amplitude pulses,
  raw samples on a parametric-only device, out-of-range frequencies)
  raise :class:`~repro.errors.ConstraintError` — the program is
  rejected before submission rather than mangled.
"""

from __future__ import annotations

from repro.core.constraints import PulseConstraints
from repro.core.timing import align_up
from repro.core.waveform import ParametricWaveform, SampledWaveform, ScaledWaveform
from repro.errors import ConstraintError
from repro.mlir.context import MLIRContext
from repro.mlir.dialects.pulse import (
    attrs_to_waveform,
    is_dynamic,
    waveform_to_attrs,
)
from repro.mlir.ir import Module, Operation
from repro.mlir.passes.manager import Pass


class PulseLegalizationPass(Pass):
    """Make a pulse module satisfy one device's constraints."""

    name = "pulse-legalize"
    dialect = "pulse"

    def __init__(self, constraints: PulseConstraints) -> None:
        super().__init__()
        self.constraints = constraints

    def run(self, module: Module, context: MLIRContext) -> bool:
        changed = False
        for op in list(module.walk()):
            if op.name == "pulse.waveform":
                changed |= self._legalize_waveform(op)
            elif op.name == "pulse.delay":
                changed |= self._legalize_delay(op)
            elif op.name in ("pulse.frame_change", "pulse.set_frequency"):
                self._check_frequency(op)
        return changed

    # ---- rewrites ----------------------------------------------------------------

    def _legalize_waveform(self, op: Operation) -> bool:
        c = self.constraints
        wf = attrs_to_waveform(op.attributes)
        changed = False

        # Amplitude can never be fixed by rewriting: reject (unless an
        # operand scales it, which only binding knows).
        peak = wf.max_amplitude()
        if not is_dynamic(op) and peak > c.max_amplitude * (1 + 1e-9):
            raise ConstraintError(
                f"waveform peak amplitude {peak:.6g} exceeds device limit "
                f"{c.max_amplitude}"
            )
        if wf.duration > c.max_pulse_duration:
            raise ConstraintError(
                f"waveform duration {wf.duration} exceeds device limit "
                f"{c.max_pulse_duration}"
            )
        # A static scale rides along: the shape is what gets legalized.
        scale = None
        if isinstance(wf, ScaledWaveform):
            wf, scale = wf.base, wf.scale

        # Unsupported parametric envelope -> raw samples.
        if c.requires_sampling(wf):
            if not c.supports_raw_samples:
                raise ConstraintError(
                    f"device supports neither envelope "
                    f"{wf.envelope!r} nor raw samples"  # type: ignore[union-attr]
                )
            wf = SampledWaveform(wf.samples())
            changed = True

        # Raw samples on a parametric-only device: reject.
        if isinstance(wf, SampledWaveform) and not c.supports_raw_samples:
            raise ConstraintError("device does not accept raw sampled waveforms")

        # Grid alignment: pad with zeros up to the granularity/minimum.
        target = max(align_up(wf.duration, c.granularity), c.min_pulse_duration)
        target = max(target, align_up(c.min_pulse_duration, c.granularity))
        if target != wf.duration:
            if isinstance(wf, ParametricWaveform):
                if not c.supports_raw_samples:
                    raise ConstraintError(
                        f"cannot pad parametric waveform of duration "
                        f"{wf.duration} to granularity {c.granularity} on a "
                        "parametric-only device"
                    )
                wf = SampledWaveform(wf.samples())
            wf = wf.padded(right=target - wf.duration)
            changed = True

        if changed:
            new_attrs = waveform_to_attrs(
                wf if scale is None else ScaledWaveform(wf, scale)
            )
            op.attributes.clear()
            op.attributes.update(new_attrs)
        return changed

    def _legalize_delay(self, op: Operation) -> bool:
        if is_dynamic(op):
            return False
        c = self.constraints
        duration = int(op.attr("duration"))
        aligned = align_up(duration, c.granularity)
        if aligned != duration:
            op.attributes["duration"] = aligned
            return True
        return False

    def _check_frequency(self, op: Operation) -> None:
        freq = op.attr("frequency")
        if freq is None:
            return  # SSA operand: dynamic value, checked at execution
        c = self.constraints
        if not (c.min_frequency <= float(freq) <= c.max_frequency):
            raise ConstraintError(
                f"{op.name}: frequency {freq:.6g} Hz outside device range "
                f"[{c.min_frequency:.6g}, {c.max_frequency:.6g}]"
            )
