"""Tests: the unified two-phase execution API (Program/Target/Executable).

Covers the acceptance surface of the API-redesign PR: front-end
equivalence through one Target per device family, bind-vs-recompile
distribution identity, the bound-artifact cache, service dispatch, the
entry points that outlived the deprecation layer, and the public-API
snapshot.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.client import JobRequest, MQSSClient
from repro.core.waveform import ParametricWaveform
from repro.errors import QDMIError, ValidationError
from repro.mlir.dialects.pulse import SequenceBuilder
from repro.mlir.ir import print_module
from repro.qpi import (
    PythonicCircuit,
    QCircuit,
    qCircuitBegin,
    qCircuitEnd,
    qMeasure,
    qX,
    qpi_to_schedule,
)
from repro.serving import PulseService


def qpi_flip() -> QCircuit:
    c = QCircuit()
    qCircuitBegin(c)
    qX(0)
    qMeasure(0, 0)
    qMeasure(1, 1)
    qCircuitEnd()
    return c


def pythonic_flip() -> PythonicCircuit:
    return PythonicCircuit(2, 2).x(0).measure(0, 0).measure(1, 1)


def parametric_kernel(device, n_params: int = 2) -> str:
    """A phase-parametrized pulse kernel with measurement (MLIR text)."""
    sb = SequenceBuilder("ansatz")
    drive = sb.add_mixed_frame_arg("f0", device.drive_port(0).name)
    acquire = sb.add_mixed_frame_arg("a0", device.acquire_port(0).name)
    thetas = [sb.add_scalar_arg(f"theta{i}") for i in range(n_params)]
    wave = sb.waveform(ParametricWaveform("square", 16, {"amp": 0.2}))
    for theta in thetas:
        sb.shift_phase(drive, theta)
        sb.play(drive, wave)
    sb.barrier(drive, acquire)
    sb.capture(acquire, 0, 8)
    sb.ret()
    return print_module(sb.module)


class TestProgramCoercion:
    def test_kinds_detected(self, sc_device):
        schedule = qpi_to_schedule(qpi_flip(), sc_device)
        qir = repro.compile(schedule, sc_device).compiled.qir
        cases = [
            (qpi_flip(), "qpi"),
            (pythonic_flip(), "circuit"),
            (schedule, "schedule"),
            (qir, "qir"),
            (parametric_kernel(sc_device), "mlir"),
            ("OPENQASM 3;\nqubit[1] q;\n", "qasm3"),
        ]
        for obj, kind in cases:
            assert repro.Program.coerce(obj).kind == kind

    def test_coerce_passthrough(self):
        program = repro.Program.from_qpi(qpi_flip())
        assert repro.Program.coerce(program) is program

    def test_constructors_validate(self):
        with pytest.raises(ValidationError):
            repro.Program.from_qpi(pythonic_flip())
        with pytest.raises(ValidationError):
            repro.Program.from_qir("not qir at all")
        with pytest.raises(ValidationError):
            repro.Program.from_qasm3("; ModuleID = 'x'")

    def test_parameters_declared(self, sc_device):
        program = repro.Program.from_mlir(parametric_kernel(sc_device, 3))
        assert program.parameters == ("theta0", "theta1", "theta2")
        assert program.is_parametric
        assert not repro.Program.from_qpi(qpi_flip()).is_parametric

    def test_unrecognized_string_defers_to_registry(self, client):
        """Custom client-registered adapters still see unknown text."""
        from repro.client.adapters import Adapter
        from repro.core import PulseSchedule

        class MyFmtAdapter(Adapter):
            name = "myfmt"

            def accepts(self, program):
                return isinstance(program, str) and program.startswith("MYFMT")

            def to_payload(self, program, device):
                schedule = PulseSchedule("myfmt")
                device.calibrations.get("x", (0,)).apply(schedule, [])
                device.calibrations.get("measure", (0,)).apply(schedule, [0])
                return schedule

        client.register_adapter(MyFmtAdapter())
        target = repro.Target.from_client(client, "sc-transmon")
        result = repro.run("MYFMT: x q0", target, shots=20, seed=1)
        assert sum(result.counts.values()) == 20
        with pytest.raises(QDMIError):
            repro.run("complete nonsense", target, shots=1)


class TestFrontEndEquivalence:
    """(a) All four front-ends produce equivalent results through one
    Target per device family."""

    def front_ends(self, target):
        schedule = qpi_to_schedule(qpi_flip(), target.compile_device)
        qir = repro.compile(repro.Program.from_schedule(schedule), target).compiled.qir
        return {
            "qpi": repro.Program.from_qpi(qpi_flip()),
            "circuit": repro.Program.from_circuit(pythonic_flip()),
            "schedule": repro.Program.from_schedule(schedule),
            "qir": repro.Program.from_qir(qir),
        }

    @pytest.mark.parametrize(
        "family", ["sc_device", "ion_device", "atom_device"]
    )
    def test_equivalent_across_front_ends(self, family, request):
        device = request.getfixturevalue(family)
        target = repro.Target.from_device(device)
        results = {
            kind: repro.compile(program, target).run(shots=256, seed=11)
            for kind, program in self.front_ends(target).items()
        }
        reference = results["qpi"]
        assert sum(reference.counts.values()) == 256
        for kind, result in results.items():
            assert set(result.probabilities) == set(reference.probabilities)
            for state, p in reference.probabilities.items():
                assert result.probabilities[state] == pytest.approx(
                    p, abs=1e-9
                ), f"{kind} diverges on {state!r}"
            assert result.counts == reference.counts, kind

    def test_one_target_many_kinds_shares_cache(self, sc_device):
        target = repro.Target.from_device(sc_device)
        schedule = qpi_to_schedule(qpi_flip(), sc_device)
        first = repro.compile(schedule, target)
        again = repro.compile(
            repro.Program.from_schedule(schedule), target
        )
        assert again.compiled.cache_hit
        assert first.cache_key == again.cache_key


class TestBind:
    """(b) bind() returns identical distributions to a fresh compile."""

    def test_bind_matches_fresh_compile(self, sc_device_1q):
        from repro.devices import SuperconductingDevice

        text = parametric_kernel(sc_device_1q)
        target = repro.Target.from_device(sc_device_1q)
        executable = repro.compile(repro.Program.from_mlir(text), target)
        assert not executable.is_bound
        params = {"theta0": 0.37, "theta1": -0.8}
        bound = executable.bind(params)
        # A genuinely fresh compile: identical device, separate target,
        # cold caches — the full JIT pipeline, not the bound template.
        twin = SuperconductingDevice(num_qubits=1, drift_rate=0.0)
        fresh = repro.compile(
            repro.Program.from_mlir(text),
            repro.Target.from_device(twin),
            params=params,
        )
        assert bound.compiled.metadata.get("bound_template") is True
        assert fresh.compiled.metadata.get("bound_template") is None
        r_bound = bound.run(shots=0, seed=3)
        r_fresh = fresh.run(shots=0, seed=3)
        assert set(r_bound.probabilities) == set(r_fresh.probabilities)
        for state, p in r_fresh.probabilities.items():
            assert r_bound.probabilities[state] == pytest.approx(p, abs=1e-12)

    def test_bind_loop_is_one_cold_compile(self, sc_device_1q):
        """Compile once, bind cheaply: a loop of fresh parameter points
        over one compiled executable runs the JIT pipeline once."""
        target = repro.Target.from_device(sc_device_1q)
        executable = repro.compile(
            repro.Program.from_mlir(parametric_kernel(sc_device_1q)),
            target,
            params={"theta0": 0.0, "theta1": 0.0},
        )
        assert target.compiler.stats()["misses"] == 1
        paths = []
        for i in range(8):
            bound = executable.bind(theta0=0.1 * i, theta1=-0.2 * i - 0.1)
            bound.run(shots=0, seed=1)
            paths.append(bound.compiled.metadata.get("bound_template"))
        assert target.compiler.stats()["misses"] == 1
        assert paths == [True] * 8

    def test_rebind_is_cache_hit(self, sc_device_1q):
        target = repro.Target.from_device(sc_device_1q)
        executable = repro.compile(
            repro.Program.from_mlir(parametric_kernel(sc_device_1q)), target
        )
        first = executable.bind(theta0=0.1, theta1=0.2)
        again = executable.bind(theta0=0.1, theta1=0.2)
        assert not first.compiled.cache_hit
        assert again.compiled.cache_hit
        assert first.cache_key == again.cache_key

    def test_bind_key_varies_with_params(self, sc_device_1q):
        target = repro.Target.from_device(sc_device_1q)
        executable = repro.compile(
            repro.Program.from_mlir(parametric_kernel(sc_device_1q)), target
        )
        a = executable.bind(theta0=0.1, theta1=0.2)
        b = executable.bind(theta0=0.1, theta1=0.3)
        assert a.cache_key != b.cache_key

    def test_partial_bind_composes(self, sc_device_1q):
        target = repro.Target.from_device(sc_device_1q)
        executable = repro.compile(
            repro.Program.from_mlir(parametric_kernel(sc_device_1q)), target
        )
        half = executable.bind(theta0=0.5)
        assert not half.is_bound
        assert half.compiled is None  # still a template
        full = half.bind(theta1=0.7)
        direct = executable.bind(theta0=0.5, theta1=0.7)
        assert full.cache_key == direct.cache_key

    def test_frequency_parametric_uses_fast_path(self, sc_device_1q):
        """Scalar args feeding carrier-frequency fields must still get
        the template fast path (positive tracing sentinels) and the
        legalization-equivalent range check at bind time."""
        device = sc_device_1q
        sb = SequenceBuilder("freq_scan")
        drive = sb.add_mixed_frame_arg("f0", device.drive_port(0).name)
        acquire = sb.add_mixed_frame_arg("a0", device.acquire_port(0).name)
        freq = sb.add_scalar_arg("freq")
        wave = sb.waveform(ParametricWaveform("square", 16, {"amp": 0.2}))
        sb.set_frequency(drive, freq)
        sb.play(drive, wave)
        sb.barrier(drive, acquire)
        sb.capture(acquire, 0, 8)
        sb.ret()
        target = repro.Target.from_device(device)
        executable = repro.compile(
            repro.Program.from_mlir(print_module(sb.module)), target
        )
        bound = executable.bind(freq=5.001e9)
        assert bound.compiled.metadata.get("bound_template") is True
        result = bound.run(shots=0, seed=1)
        assert abs(sum(result.probabilities.values()) - 1.0) < 1e-9
        # An out-of-range carrier falls off the fast path and is
        # rejected by the full pipeline's legalization, exactly like a
        # fresh compile of the same binding.
        from repro.errors import PassError

        too_high = 10.0 * target.constraints.max_frequency
        with pytest.raises(PassError, match="outside device range"):
            executable.bind(freq=too_high)

    def test_unbound_run_raises(self, sc_device_1q):
        target = repro.Target.from_device(sc_device_1q)
        executable = repro.compile(
            repro.Program.from_mlir(parametric_kernel(sc_device_1q)), target
        )
        with pytest.raises(ValidationError, match="unbound parameters"):
            executable.run(shots=10)

    def test_recalibration_invalidates_bound_artifacts(self, sc_device_1q):
        target = repro.Target.from_device(sc_device_1q)
        executable = repro.compile(
            repro.Program.from_mlir(parametric_kernel(sc_device_1q)), target
        )
        key_before = executable.bind(theta0=0.1, theta1=0.2).cache_key
        sc_device_1q.set_frame_frequency(0, 5.0002e9)
        rebound = executable.bind(theta0=0.1, theta1=0.2)
        assert rebound.cache_key != key_before
        assert not rebound.compiled.cache_hit
        # The rebuilt artifact carries the *new* calibration, not a
        # stale template traced before the frequency write-back.
        from repro.core import Play

        drive_frequencies = {
            item.instruction.frame.frequency
            for item in rebound.compiled.schedule.instructions_of(Play)
            if "drive" in item.instruction.port.name
        }
        assert 5.0002e9 in drive_frequencies

    def test_bound_artifact_lowers_its_own_schedule(self, sc_device_1q):
        target = repro.Target.from_device(sc_device_1q)
        executable = repro.compile(
            repro.Program.from_mlir(parametric_kernel(sc_device_1q)), target
        )
        compiled = executable.bind(theta0=0.125, theta1=-0.375).compiled
        assert compiled.metadata == {
            "granularity": 8,
            "dt": 1e-9,
            "bound_template": True,
            "parameters": {"theta0": 0.125, "theta1": -0.375},
        }
        # The lazy module is the bound schedule, not the parametric one.
        text = print_module(compiled.pulse_module)
        assert "{delta = 0.125}" in text and "{delta = -0.375}" in text
        assert "theta" not in text
        assert "pulse-legalize" in compiled.pass_report.ran

    def test_calibration_state_hashed_once_per_check(
        self, sc_device, monkeypatch
    ):
        """prepare + compile hash the calibration state twice: prepare
        records it, compile checks it and reuses the answer as the JIT
        key. Each later entry point checks once."""
        from repro.api.executable import Executable
        from repro.compiler import JITCompiler
        from repro.primitives import Estimator, Observable

        calls = []
        state_key = JITCompiler.device_state_key

        def counting(self, device):
            calls.append(device)
            return state_key(self, device)

        monkeypatch.setattr(JITCompiler, "device_state_key", counting)
        target = repro.Target.from_device(sc_device)
        program = repro.Program.coerce(qpi_to_schedule(qpi_flip(), sc_device))
        executable = Executable.prepare(program, target).compile()
        assert len(calls) == 2
        assert not executable.compiled.cache_hit
        executable.run(shots=0)
        assert len(calls) == 3
        # A primitive over a fresh program: prepare, then one compile.
        calls.clear()
        Estimator(target).run([(program, Observable.z(0))])
        assert len(calls) == 2

    def test_sweep_matches_loop(self, sc_device_1q):
        target = repro.Target.from_device(sc_device_1q)
        executable = repro.compile(
            repro.Program.from_mlir(parametric_kernel(sc_device_1q)), target
        )
        grid = [
            {"theta0": 0.1 * i, "theta1": -0.05 * i} for i in range(4)
        ]
        swept = executable.sweep(grid, shots=0, seed=5)
        looped = [executable.bind(p).run(shots=0, seed=5) for p in grid]
        assert len(swept) == len(grid)
        for swept_r, looped_r in zip(swept, looped):
            assert swept_r.probabilities == looped_r.probabilities


class TestTargets:
    def test_capabilities_and_calibration_key(self, sc_device):
        target = repro.Target.from_device(sc_device)
        caps = target.capabilities
        assert caps["num_sites"] == 2
        assert not caps["remote"]
        key = target.calibration_key()
        sc_device.set_frame_frequency(0, 5.0005e9)
        assert target.calibration_key() != key

    def test_from_device_memoized(self, sc_device):
        assert repro.Target.from_device(sc_device) is repro.Target.from_device(
            sc_device
        )

    def test_from_device_memo_is_collectable(self):
        """Transient devices (and their targets) must not leak: the
        memo lives on the device object, not in a global registry."""
        import gc
        import weakref

        from repro.devices import SuperconductingDevice

        refs = []
        for _ in range(3):
            device = SuperconductingDevice(num_qubits=1, drift_rate=0.0)
            repro.Target.from_device(device)
            refs.append(weakref.ref(device))
        del device
        gc.collect()
        assert all(ref() is None for ref in refs)

    def test_bind_loop_memory_bounded(self, sc_device_1q):
        """A distinct-point bind hot loop must not grow the compiler
        memo without bound (LRU eviction)."""
        target = repro.Target.from_device(sc_device_1q)
        executable = repro.compile(
            repro.Program.from_mlir(parametric_kernel(sc_device_1q)), target
        )
        cap = target.compiler.max_cache_entries
        for i in range(cap + 50):
            executable.bind(theta0=0.001 * i, theta1=0.0)
        assert len(target.compiler._cache) <= cap
        assert target.compiler.stats["evictions"] >= 50

    def test_resolve_forms(self, client, sc_device):
        assert repro.Target.resolve(sc_device).direct
        by_name = repro.Target.resolve("sc-transmon", client)
        assert by_name.device_name == "sc-transmon"
        assert not by_name.direct
        already = repro.Target.from_client(client, "ion-chain")
        assert repro.Target.resolve(already) is already
        with pytest.raises(ValidationError):
            repro.Target.resolve("sc-transmon")

    def test_client_target_remote_routing(self, client):
        target = repro.Target.from_client(client, "remote:sc-remote")
        assert target.is_remote
        result = repro.compile(qpi_flip(), target).run(shots=50, seed=1)
        assert result.remote and result.qir_size_bytes > 0

    def test_unknown_device_raises(self, client):
        with pytest.raises(QDMIError):
            repro.compile(qpi_flip(), repro.Target.from_client(client, "nope"))


class TestServiceTargets:
    def test_run_async_and_sweep(self, sc_device_1q):
        from repro.qdmi import QDMIDriver

        driver = QDMIDriver()
        driver.register_device(sc_device_1q)
        client = MQSSClient(driver, persistent_sessions=True)
        with PulseService(client) as service:
            target = repro.Target.from_service(service, sc_device_1q.name)
            assert target.is_async
            executable = repro.compile(
                repro.Program.from_mlir(parametric_kernel(sc_device_1q)),
                target,
            )
            bound = executable.bind(theta0=0.3, theta1=0.1)
            ticket = bound.run_async(shots=64, seed=7)
            result = ticket.result(30)
            assert sum(result.counts.values()) == 64
            # The bound artifact was pre-warmed into the client's memo.
            assert client.compiler.stats()["hits"] >= 1
            grid = [{"theta0": 0.1 * i, "theta1": 0.0} for i in range(3)]
            swept = executable.sweep(grid, shots=0, seed=2, timeout=30)
            assert len(swept) == 3
        client.close()

    def test_service_run_blocks_on_ticket(self, sc_device):
        from repro.qdmi import QDMIDriver

        driver = QDMIDriver()
        driver.register_device(sc_device)
        client = MQSSClient(driver, persistent_sessions=True)
        with PulseService(client) as service:
            target = repro.Target.from_service(service, sc_device.name)
            result = repro.run(qpi_flip(), target, shots=32, seed=1)
            assert sum(result.counts.values()) == 32
        client.close()


class TestDeprecationShims:
    """(c) The entry points that outlived the deprecation layer —
    ``qExecute`` (paper Listing 1), ``run_request`` and the service
    submit surfaces — agree with the unified core and never warn."""

    def test_qexecute_matches_unified_core(self, sc_device):
        from repro.qpi import qExecute, qRead

        circuit = qpi_flip()
        assert qExecute(sc_device, circuit, 100, seed=1) == 0
        via_api = repro.run(qpi_flip(), sc_device, shots=100, seed=1)
        assert qRead(circuit).counts == via_api.counts

    def test_qexecute_failure_contract(self, sc_device):
        from repro.qpi import qExecute, qRead, qPlayWaveform, qWaveform

        circuit = QCircuit()
        qCircuitBegin(circuit)
        handle = qWaveform(np.full(32, 5.0))  # amplitude out of range
        qPlayWaveform("q0-drive-port", handle)
        qCircuitEnd()
        assert qExecute(sc_device, circuit, 10) == 1
        with pytest.raises(ValidationError):
            qRead(circuit)

    def test_run_request_matches_unified_core(self, client):
        from repro.api.core import run_request

        request = JobRequest(qpi_flip(), "sc-transmon", shots=64, seed=9)
        old = run_request(client, request)
        new = repro.run(
            qpi_flip(),
            repro.Target.from_client(client, "sc-transmon"),
            shots=64,
            seed=9,
        )
        assert old.counts == new.counts
        assert set(old.timings_s) == {"adapter", "compile", "execute"}

    def test_service_submit_is_warning_free(self, sc_device):
        # PulseService.submit is first-class on the unified ticket
        # surface (it maps 1:1 onto connect(service).submit), so it
        # must not warn.
        import warnings

        from repro.qdmi import QDMIDriver

        driver = QDMIDriver()
        driver.register_device(sc_device)
        client = MQSSClient(driver, persistent_sessions=True)
        with PulseService(client) as service:
            with warnings.catch_warnings():
                warnings.simplefilter("error", DeprecationWarning)
                ticket = service.submit(
                    JobRequest(qpi_flip(), sc_device.name, shots=16, seed=1)
                )
            assert sum(ticket.result(30).counts.values()) == 16
        client.close()

    def test_service_submit_sweep_is_warning_free(self, sc_device):
        import warnings

        from repro.qdmi import QDMIDriver
        from repro.serving import SweepRequest

        driver = QDMIDriver()
        driver.register_device(sc_device)
        client = MQSSClient(driver, persistent_sessions=True)
        with PulseService(client) as service:
            sweep = SweepRequest.from_programs(
                [qpi_flip(), qpi_flip()], sc_device.name, shots=8, seed=1
            )
            with warnings.catch_warnings():
                warnings.simplefilter("error", DeprecationWarning)
                ticket = service.submit_sweep(sweep)
            assert len(ticket.results(30)) == 2
        client.close()


# The intentional public surface of the package root.  Additions are
# fine but deliberate: extend this snapshot in the same change that
# extends __all__, so accidental drift fails the build.
PUBLIC_API_SNAPSHOT = frozenset(
    {
        "__version__",
        "Port",
        "PortKind",
        "Frame",
        "MixedFrame",
        "Waveform",
        "PulseSchedule",
        "PulseConstraints",
        "Program",
        "Target",
        "Executable",
        "compile",
        "run",
        "Sampler",
        "Estimator",
        "Observable",
        "DataBin",
        "PubResult",
        "PrimitiveResult",
        "pipeline",
        "DAG",
        "PipelineRunner",
        "PipelineStore",
        "obs",
        "span",
        "trace",
        "exposition",
        "qem",
        "EstimatorOptions",
        "SamplerOptions",
    }
)


class TestPublicAPISnapshot:
    def test_all_matches_snapshot(self):
        assert set(repro.__all__) == PUBLIC_API_SNAPSHOT

    def test_every_export_resolves(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_version_single_sourced(self):
        """pyproject.toml must read the version from repro._version."""
        import os
        import re

        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "pyproject.toml")) as fh:
            pyproject = fh.read()
        assert 'dynamic = ["version"]' in pyproject
        assert re.search(
            r'version\s*=\s*\{\s*attr\s*=\s*"repro._version.__version__"',
            pyproject,
        )
        assert not re.search(
            r'^version\s*=\s*"', pyproject, flags=re.MULTILINE
        ), "pyproject must not hardcode a version string"
