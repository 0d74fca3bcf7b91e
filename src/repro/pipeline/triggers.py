"""When does a calibration DAG run?  Trigger policies.

Three policies cover the closed-loop scheduling modes the paper's
calibration service needs:

* :class:`IntervalTrigger` — fixed cadence in simulated (or wall)
  seconds; the campaign's ``calibration_interval_s``.
* :class:`DriftBudgetTrigger` — predictive: fire when the Wiener-drift
  error forecast ``rate * sqrt(elapsed)`` crosses an error budget.
  This absorbs the drift-budget arithmetic that used to live inline in
  :class:`~repro.runtime.scheduler.CalibrationAwareScheduler`; the
  scheduler now delegates here and runs the recalibration as a
  pipeline DAG.
* :class:`StalenessTrigger` — reactive: fire when a device's observed
  ``calibration_key`` (see
  :meth:`~repro.compiler.jit.JITCompiler.device_state_key`) has not
  changed for longer than ``max_age_s`` — i.e. nothing has written
  calibration state back recently, so caches may be serving data from
  an epoch the drift model no longer trusts.

Every firing increments ``repro_pipeline_triggers_total`` on the
global metrics registry, labeled by trigger kind.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ValidationError
from repro.obs.metrics import REGISTRY


def _fired(kind: str) -> None:
    REGISTRY.counter(
        "repro_pipeline_triggers_total",
        "Calibration trigger firings by kind",
        {"trigger": kind},
    ).inc()


@dataclass
class IntervalTrigger:
    """Fire every *interval_s* accumulated seconds."""

    interval_s: float
    _elapsed: float = field(default=0.0, repr=False)

    def __post_init__(self) -> None:
        if self.interval_s <= 0:
            raise ValidationError(
                f"interval_s must be > 0, got {self.interval_s}"
            )

    def note_elapsed(self, seconds: float) -> bool:
        """Accumulate *seconds*; True when the interval has elapsed."""
        self._elapsed += float(seconds)
        if self._elapsed >= self.interval_s:
            _fired("interval")
            return True
        return False

    @property
    def elapsed_s(self) -> float:
        return self._elapsed

    def reset(self) -> None:
        self._elapsed = 0.0


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


class StalenessTrigger:
    """Fire when a device's calibration key stops changing.

    Feed it observations of ``(device_name, calibration_key, now_s)``
    — e.g. sampled from :func:`repro.compiler.jit.device_state_key` or
    the serving layer's cache keys.  A key change resets the age; an
    unchanged key older than *max_age_s* fires (once per stale period).
    """

    def __init__(self, max_age_s: float) -> None:
        if max_age_s <= 0:
            raise ValidationError(f"max_age_s must be > 0, got {max_age_s}")
        self.max_age_s = float(max_age_s)
        self._seen: dict[str, tuple[str, float, bool]] = {}

    def observe(self, device_name: str, calibration_key: str, now_s: float) -> bool:
        """Record one observation; True when staleness crosses the limit."""
        entry = self._seen.get(device_name)
        if entry is None or entry[0] != calibration_key:
            self._seen[device_name] = (calibration_key, float(now_s), False)
            return False
        key, since, fired = entry
        if not fired and float(now_s) - since >= self.max_age_s:
            self._seen[device_name] = (key, since, True)
            _fired("staleness")
            return True
        return False

    def age_s(self, device_name: str, now_s: float) -> float:
        entry = self._seen.get(device_name)
        return 0.0 if entry is None else float(now_s) - entry[1]
