"""The five workloads, by name, in the order a full run measures them."""

from __future__ import annotations

from benchmarks.harness.workloads.base import Workload
from benchmarks.harness.workloads.calibration import CalibrationDag
from benchmarks.harness.workloads.qem import MitigatedSweep
from benchmarks.harness.workloads.served import ServedCluster
from benchmarks.harness.workloads.sweeps import PubSweep

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        PubSweep("pub_sweep_closed", noisy=False, points=64, probe=8, spot=4),
        PubSweep("pub_sweep_lindblad", noisy=True, points=8, probe=4, spot=2),
        MitigatedSweep(),
        ServedCluster(),
        CalibrationDag(),
    )
}
