"""Tests: the package carries no deprecation layer.

Every job has one surface and one code path, so no module under
``src/repro`` may emit a ``DeprecationWarning``; the modules and
accessors the old layer consisted of stay gone.
"""

from __future__ import annotations

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
