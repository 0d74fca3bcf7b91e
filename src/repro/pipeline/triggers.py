"""When does a calibration DAG run?  The drift-budget trigger.

:class:`DriftBudgetTrigger` is predictive: it fires when the
Wiener-drift error forecast ``rate * sqrt(elapsed)`` crosses an error
budget. :class:`~repro.runtime.scheduler.CalibrationAwareScheduler`
delegates to it and runs the recalibration as a pipeline DAG.

Every firing increments ``repro_pipeline_triggers_total`` on the
global metrics registry, labeled by trigger kind.
"""

from __future__ import annotations

from repro.errors import ValidationError
from repro.obs.metrics import REGISTRY


def _fired(kind: str) -> None:
    REGISTRY.counter(
        "repro_pipeline_triggers_total",
        "Calibration trigger firings by kind",
        {"trigger": kind},
    ).inc()


class DriftBudgetTrigger:
    """Fire when predicted drift error crosses *error_budget_hz*.

    Tracks per-device elapsed seconds in :attr:`clock` (a plain dict,
    which :class:`~repro.runtime.scheduler.CalibrationAwareScheduler`
    reads as ``trigger.clock``) and forecasts the tracking error of a
    device with configured ``drift_rate`` as ``rate * sqrt(elapsed)``,
    the RMS displacement of the Wiener drift process.
    """

    def __init__(self, error_budget_hz: float) -> None:
        if error_budget_hz <= 0:
            raise ValidationError(
                f"error_budget_hz must be > 0, got {error_budget_hz}"
            )
        self.error_budget_hz = float(error_budget_hz)
        #: Per-device accumulated seconds since the last recalibration.
        self.clock: dict[str, float] = {}

    def predicted_error_hz(self, device, name: str | None = None) -> float:
        name = name or device.name
        rate = getattr(device.config, "drift_rate", 0.0)
        return float(rate) * self.clock.get(name, 0.0) ** 0.5

    def note_elapsed(self, name: str, device, seconds: float) -> bool:
        """Advance *name*'s drift clock; True when over budget."""
        rate = getattr(device.config, "drift_rate", 0.0)
        if not rate:
            return False
        self.clock[name] = self.clock.get(name, 0.0) + float(seconds)
        if self.predicted_error_hz(device, name) >= self.error_budget_hz:
            _fired("drift_budget")
            return True
        return False

    def reset(self, name: str) -> None:
        """Zero *name*'s clock (a recalibration just landed)."""
        self.clock[name] = 0.0
