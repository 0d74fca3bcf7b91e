"""Every public definition in ``src/repro`` is reached by code, or says why not.

A public top-level function or class, or a public method of a
top-level class, is *reached* when its name occurs in code outside its
own definition, in a non-``__init__`` module under ``src/repro``,
``benchmarks/`` or ``examples/`` (test modules excluded). An
occurrence is a name, an attribute, an imported name or a keyword
argument, so names inside f-string expressions count; docstrings,
comments and other string literals do not. A definition that only
tests reach fails the check unless :data:`ALLOWLIST` names it, as
``"module:qualname"``, with a one-line reason.

Matching by name over-approximates reach: any ``run`` anywhere reaches
every ``run`` method. So a rename or a shared name never makes the
check fail; it only misses some unreached code. An allowlist entry
that names a reached or missing definition fails too, so the list
shrinks when its code gains a caller or goes away.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"

_PAPER = "paper surface, kept without a caller in the stack"
_TEST_REFERENCE = "independent reference a test checks the stack against"

#: ``"module:qualname"`` -> why the definition stays without a caller.
ALLOWLIST: dict[str, str] = {
    # Paper surfaces (Listing 1, Fig. 2, Fig. 3, sections 2.1 and 2.2).
    "repro.qpi.qpi:qCircuitFree": f"Listing 1 QPI call; {_PAPER}",
    "repro.qpi.qpi:qSX": f"Listing 1 QPI call; {_PAPER}",
    "repro.qpi.qpi:qRZ": f"Listing 1 QPI call; {_PAPER}",
    "repro.qpi.qpi:qCZ": f"Listing 1 QPI call; {_PAPER}",
    "repro.qpi.qpi:qDelay": f"Listing 1 QPI call; {_PAPER}",
    "repro.qpi.qpi:qBarrier": f"Listing 1 QPI call; {_PAPER}",
    "repro.qpi.qpi:qExecute": f"Listing 1 QPI call; {_PAPER}",
    "repro.qpi.qpi:qRead": f"Listing 1 QPI call; {_PAPER}",
    "repro.mlir.dialects.pulse:SequenceBuilder.standard_x": (
        f"Listing 2 step 1, the calibrated X op; {_PAPER}"
    ),
    "repro.runtime.scheduler:SecondLevelScheduler.enqueue": f"Fig. 2; {_PAPER}",
    "repro.runtime.scheduler:SecondLevelScheduler.drain": f"Fig. 2; {_PAPER}",
    "repro.runtime.scheduler:CalibrationAwareScheduler": f"Fig. 2; {_PAPER}",
    "repro.pipeline.experiments:frequency_tracking_dag": (
        f"section 2.1 frequency tracking; {_PAPER}"
    ),
    "repro.qdmi.driver:QDMIDriver.unregister_device": f"Fig. 3 query; {_PAPER}",
    "repro.qdmi.driver:QDMIDriver.close_all_sessions": f"Fig. 3 query; {_PAPER}",
    "repro.qdmi.driver:QDMIDriver.open_sessions": f"Fig. 3 query; {_PAPER}",
    "repro.qdmi.driver:QDMIDriver.devices_with_pulse_support": (
        f"Fig. 3 query; {_PAPER}"
    ),
    "repro.qdmi.driver:QDMIDriver.devices_by_technology": f"Fig. 3 query; {_PAPER}",
    "repro.devices.database:CalibrationDatabaseDevice.put_record": (
        f"Fig. 3 calibration database; {_PAPER}"
    ),
    "repro.devices.database:CalibrationDatabaseDevice.get_record": (
        f"Fig. 3 calibration database; {_PAPER}"
    ),
    "repro.compiler.transforms:insert_echo_sequences": (
        f"section 2.2 echo insertion; {_PAPER}"
    ),
    "repro.compiler.transforms:idle_fraction": (
        f"section 2.2, what echo insertion targets; {_PAPER}"
    ),
    "repro.devices.calibrations:CalibrationSet.register_custom_gate": (
        "the user's way to add a calibrated gate to a device"
    ),
    "repro.api.program:Program.from_circuit": "front-end constructor",
    "repro.api.program:Program.from_qir": "front-end constructor",
    "repro.api.program:Program.from_qasm3": "front-end constructor",
    # Named from outside Python code.
    "repro.serving.http:_Handler.do_GET": "http.server dispatches it by name",
    "repro.serving.http:_Handler.do_POST": "http.server dispatches it by name",
    "repro.serving.http:_Handler.log_message": "http.server logging hook",
    # Public knobs and views the README documents.
    "repro.sim.precision:use_dtype": "the one working-precision knob",
    "repro.obs.tracing:Trace.tree_str": "the README's span-tree dump",
    "repro.obs.tracing:current_trace": "the trace a span reports to, if any",
    "repro.obs.metrics:MetricsRegistry.gauge": "the registry's gauge instrument",
    "repro.obs.metrics:Histogram.max_value": "largest observation of a histogram",
    "repro.pipeline.runner:PipelineRunner.resume": (
        "resumes an interrupted run from its store"
    ),
    "repro.serving.cluster:ClusterService.backlog": (
        "queued rows a restarted cluster drains"
    ),
    "repro.serving.sweeps:SweepTicket.expectations": (
        "the only expectation path of SweepRequest.noise_grid points"
    ),
    "repro.devices.base:SimulatedDevice.executed_jobs": "a device's job history",
    "repro.compiler.jit:CompiledProgram.pass_report": (
        "a compiled program's pass report, built on first read"
    ),
    "repro.mlir.passes.manager:PipelineReport.ran": "the passes a pipeline ran",
    "repro.core.envelopes:EnvelopeRegistry.register": (
        "adds a custom envelope to a registry"
    ),
    "repro.core.schedule:PulseSchedule.then": "sequential schedule composition",
    "repro.core.schedule:PulseSchedule.union": "parallel schedule composition",
    "repro.core.waveform:Waveform.reversed": "waveform algebra beside scaled",
    "repro.core.waveform:Waveform.conjugated": "waveform algebra beside scaled",
    "repro.control.grape:GrapeOptimizer.noisy_infidelity": (
        "GRAPE's Lindblad objective, to be checked against the executor"
    ),
    # Independent references and metrics the tests check the stack with.
    "repro.sim.evolve:evolve_piecewise": _TEST_REFERENCE,
    "repro.sim.evolve:step_propagator": _TEST_REFERENCE,
    "repro.sim.evolve:free_propagator": _TEST_REFERENCE,
    "repro.sim.evolve:propagator_sequence": _TEST_REFERENCE,
    "repro.sim.ground_truth:exact_distribution": _TEST_REFERENCE,
    "repro.qem.twirling:unflip_distribution": _TEST_REFERENCE,
    "repro.qem.characterization:inverse_word": _TEST_REFERENCE,
    "repro.primitives.observables:Observable.variance": _TEST_REFERENCE,
    "repro.core.schedule:PulseSchedule.equivalent_to": _TEST_REFERENCE,
    "repro.sim.fidelity:state_fidelity": "state fidelity metric",
    "repro.sim.fidelity:average_gate_fidelity": "average gate fidelity metric",
    "repro.sim.operators:pauli_on": "embedded Pauli operator",
    "repro.sim.operators:projector": "basis-state projector",
}


def _roots() -> list[Path]:
    files = [p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py"]
    for folder in ("benchmarks", "examples"):
        files += [
            p
            for p in (ROOT / folder).rglob("*.py")
            if p.name != "__init__.py" and not p.name.startswith("test_")
        ]
    return files


def _names(node: ast.AST) -> Counter:
    """The identifiers *node* uses as code."""
    out: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            out.update(sub.name.split("."))
        elif isinstance(sub, ast.keyword) and sub.arg:
            out[sub.arg] += 1
    return out


def _definitions(tree: ast.Module):
    """``(qualname, node)`` of each public top-level function or class
    and each public method of a top-level class."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(
                    item, (ast.FunctionDef, ast.AsyncFunctionDef)
                ) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def _survey() -> tuple[set[str], set[str]]:
    """``(unreached, defined)`` qualified names of the package."""
    roots = set(_roots())
    trees = {p: ast.parse(p.read_text(), str(p)) for p in roots}
    uses: Counter = Counter()
    for tree in trees.values():
        uses.update(_names(tree))
    unreached, defined = set(), set()
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = trees.get(path) or ast.parse(path.read_text(), str(path))
        module = ".".join(path.relative_to(PACKAGE.parent).with_suffix("").parts)
        module = module.removesuffix(".__init__")
        for qualname, node in _definitions(tree):
            key = f"{module}:{qualname}"
            defined.add(key)
            own = _names(node)[node.name] if path in roots else 0
            if uses[node.name] <= own:
                unreached.add(key)
    return unreached, defined


def test_every_public_definition_is_reached_or_allowlisted():
    unreached, _ = _survey()
    missing = sorted(unreached - set(ALLOWLIST))
    assert not missing, (
        "only tests reach these definitions; delete them, or add them to "
        "ALLOWLIST with a reason:\n  " + "\n  ".join(missing)
    )


def test_allowlist_names_only_unreached_definitions():
    unreached, defined = _survey()
    stale = sorted(
        f"{key} ({'reached' if key in defined else 'not defined'})"
        for key in set(ALLOWLIST) - unreached
    )
    assert not stale, "drop these ALLOWLIST entries:\n  " + "\n  ".join(stale)


def test_every_allowlist_entry_has_a_reason():
    assert all(
        isinstance(reason, str) and reason.strip() for reason in ALLOWLIST.values()
    )
