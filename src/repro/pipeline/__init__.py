"""repro.pipeline — durable DAG-orchestrated closed-loop calibration.

Calibration as a first-class scheduled workload: typed task DAGs
(experiment -> fit -> write-back -> verify), a durable SQLite-WAL run
store so interrupted runs resume from their completed tasks, a
predictive drift-budget trigger that decides *when* a DAG runs, and a
runner that executes against any serving surface — a local device, a
:class:`~repro.serving.service.PulseService`, or anything
:func:`repro.serving.connect.connect` accepts.

>>> from repro.pipeline import PipelineRunner, frequency_tracking_dag
>>> runner = PipelineRunner(device, store=PipelineStore("runs.db"))
>>> run = runner.run(frequency_tracking_dag(rounds=2), seed=7)
>>> run.ok, run.result("verify")["tracking_error_hz"]
"""

from repro.pipeline.dag import (
    CATEGORIES,
    DAG,
    TaskSpec,
    TaskType,
    register_task,
    task_type,
)
from repro.pipeline.state import PipelineStore
from repro.pipeline.writeback import commit_writeback
from repro.pipeline.experiments import (
    ARTIFICIAL_DETUNING_HZ,
    campaign_dag,
    frequency_tracking_dag,
    full_calibration_dag,
)
from repro.pipeline.runner import (
    PipelineRun,
    PipelineRunner,
    TaskContext,
    derive_task_seeds,
)
from repro.pipeline.triggers import DriftBudgetTrigger

__all__ = [
    "ARTIFICIAL_DETUNING_HZ",
    "CATEGORIES",
    "DAG",
    "DriftBudgetTrigger",
    "PipelineRun",
    "PipelineRunner",
    "PipelineStore",
    "TaskContext",
    "TaskSpec",
    "TaskType",
    "campaign_dag",
    "commit_writeback",
    "derive_task_seeds",
    "frequency_tracking_dag",
    "full_calibration_dag",
    "register_task",
    "task_type",
]
