"""Tests: the package carries no deprecation layer.

Every job has one surface and one code path, so no module under
``src/repro`` may emit a ``DeprecationWarning``; the modules and
accessors the old layer consisted of stay gone.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import pathlib

import pytest

import repro

SRC = pathlib.Path(repro.__file__).resolve().parent


def test_no_deprecation_warning_in_src():
    offenders = [
        f"{path.relative_to(SRC.parent)}:{lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if "DeprecationWarning" in line
    ]
    assert offenders == []


@pytest.mark.parametrize(
    "module",
    [
        "repro.mitigation",
        "repro.calibration.readout",
        "repro.serving.cache",
        "repro.runtime.telemetry",
    ],
)
def test_shim_modules_are_gone(module):
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(module)


def test_shim_surfaces_are_gone():
    from repro.calibration import run_drift_campaign
    from repro.client import ClientResult, MQSSClient
    from repro.primitives import Sampler
    from repro.qem.readout import MitigatedResult
    from repro.qpi.qpi import QuantumResult
    from repro.serving import ClusterService, PulseService, ServiceClient, SweepTicket
    from repro.sim.executor import ExecutionResult

    for result_type in (
        ExecutionResult,
        ClientResult,
        QuantumResult,
        MitigatedResult,
        SweepTicket,
    ):
        assert not hasattr(result_type, "expectation_z")
    assert not hasattr(MQSSClient, "submit")
    assert not hasattr(MQSSClient, "run_batch")
    for service in (PulseService, ClusterService, ServiceClient):
        assert not hasattr(service, "_admit_request")
    assert not hasattr(repro.pipeline, "MemoryStore")
    assert "engine" not in inspect.signature(run_drift_campaign).parameters
    assert "mitigation" not in inspect.signature(Sampler).parameters


def test_one_compile_cache():
    from repro.api.core import compile_payload
    from repro.api.target import Target
    from repro.client import MQSSClient
    from repro.compiler import JITCompiler
    from repro.serving import PulseService

    assert "compile_cache" not in inspect.signature(MQSSClient).parameters
    assert "compile_cache" not in inspect.signature(PulseService).parameters
    assert "use_cache" not in inspect.signature(JITCompiler.compile).parameters
    assert "cache" not in inspect.signature(compile_payload).parameters
    assert not hasattr(Target, "cache")
    assert not hasattr(repro.serving, "CompileCache")


def test_one_calibration_experiment_path():
    import repro.calibration
    import repro.qem

    for name in (
        "ramsey_populations",
        "estimate_detuning",
        "track_frequency",
        "RamseyResult",
        "calibrate_pi_amplitude",
        "RabiResult",
        "calibrate_drag",
        "DragResult",
    ):
        assert not hasattr(repro.calibration, name)
        for module in ("ramsey", "rabi", "drag"):
            assert not hasattr(getattr(repro.calibration, module), name)
    for name in ("measure_confusion", "ReadoutCalibration"):
        assert not hasattr(repro.qem, name)
        assert not hasattr(repro.qem.readout, name)


# Packages that may run a schedule on a simulator executor directly:
# the simulator itself and the devices that own one.  Everything else
# (the VQE energy callbacks included) measures through the primitives.
EXECUTOR_OWNERS = ("sim", "devices")


def _executor_execute_calls(tree) -> list[int]:
    """Line numbers of ``<...>executor.execute(...)`` calls in *tree*."""
    lines = []
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "execute"
        ):
            continue
        receiver = node.func.value
        if isinstance(receiver, ast.Attribute):
            name = receiver.attr
        elif isinstance(receiver, ast.Name):
            name = receiver.id
        else:
            continue
        if name.lstrip("_") == "executor":
            lines.append(node.lineno)
    return lines


def test_executor_execute_stays_in_the_simulator_layers():
    calls = {
        path.relative_to(SRC): _executor_execute_calls(ast.parse(path.read_text()))
        for path in sorted(SRC.rglob("*.py"))
    }
    offenders = [
        f"{path}:{lineno}"
        for path, lines in calls.items()
        if path.parts[0] not in EXECUTOR_OWNERS
        for lineno in lines
    ]
    assert offenders == []
    # The matcher does see the owners' own calls, so an empty list
    # means something; the independent reference is the only caller.
    owners = {str(path) for path, lines in calls.items() if lines}
    assert owners == {"sim/ground_truth.py"}
