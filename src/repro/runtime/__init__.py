"""Runtime resource management (paper Fig. 2: "MQSS's second-level
scheduler" inside the Quantum Resource Manager & Compiler
Infrastructure).

* :mod:`repro.runtime.scheduler` — a priority/FIFO second-level
  scheduler over multiple QDMI devices (drained through the client on
  one lane per device, so independent devices execute
  concurrently), plus the calibration-aware variant that implements
  §2.1's "resource-aware calibration planning": it watches each
  device's drift budget and interleaves calibration runs with user
  jobs.

Drain outcomes are reported in :class:`SchedulerReport`; process-wide
metrics live in :mod:`repro.obs`.
"""

from repro.runtime.scheduler import (
    CalibrationAwareScheduler,
    ScheduledJob,
    SchedulerReport,
    SecondLevelScheduler,
)

__all__ = [
    "SecondLevelScheduler",
    "CalibrationAwareScheduler",
    "ScheduledJob",
    "SchedulerReport",
]
