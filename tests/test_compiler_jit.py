"""Tests: lowering conversions and the JIT compiler (claims C2/C3)."""

import sys
import threading

import numpy as np
import pytest

from repro.compiler import (
    CompiledProgram,
    JITCompiler,
    mlir_pulse_to_schedule,
    quantum_module_to_schedule,
    schedule_to_pulse_module,
)
from repro.core import Frame, Play, PulseSchedule, SampledWaveform, ShiftPhase
from repro.errors import CompilationError, LoweringError, PassError
from repro.mlir.dialects.quantum import CircuitBuilder
from repro.mlir.ir import print_module


def bell_module():
    cb = CircuitBuilder("bell", 2)
    cb.x(0).cz(0, 1).rz(1, 0.7).measure(0, 0).measure(1, 1)
    return cb.module


class TestGateLowering:
    def test_gates_become_pulses(self, sc_device):
        s = quantum_module_to_schedule(bell_module(), sc_device)
        plays = s.instructions_of(Play)
        assert len(plays) >= 4  # x, cz coupler, 2 readout stimuli
        assert s.duration > 0

    def test_rz_lowers_to_phase_shift(self, sc_device):
        cb = CircuitBuilder("c", 1)
        cb.rz(0, 0.7)
        s = quantum_module_to_schedule(cb.module, sc_device)
        shifts = s.instructions_of(ShiftPhase)
        assert len(shifts) == 1
        assert shifts[0].instruction.delta == pytest.approx(-0.7)
        assert s.duration == 0

    def test_cz_synchronizes_qubits(self, sc_device):
        cb = CircuitBuilder("c", 2)
        cb.x(0).cz(0, 1).x(1)
        s = quantum_module_to_schedule(cb.module, sc_device)
        # x(1) must start only after the coupler pulse finishes.
        plays = s.instructions_of(Play)
        coupler = [p for p in plays if "coupler" in p.instruction.port.name][0]
        x1 = [p for p in plays if p.instruction.port.name == "q1-drive-port"][0]
        assert x1.t0 >= coupler.t1

    def test_barrier_lowering(self, sc_device):
        cb = CircuitBuilder("c", 2)
        cb.x(0).barrier(0, 1).x(1)
        s = quantum_module_to_schedule(cb.module, sc_device)
        plays = s.instructions_of(Play)
        assert plays[1].t0 == plays[0].t1

    def test_missing_calibration_raises(self, sc_device):
        cb = CircuitBuilder("c", 2)
        cb.gate("unknown_gate", [0])
        with pytest.raises(LoweringError):
            quantum_module_to_schedule(cb.module, sc_device)

    def test_custom_gate_via_registration(self, sc_device):
        """Paper footnote 2: extend the native gate set by waveform."""
        port = sc_device.drive_port(0)
        sc_device.calibrations.register_custom_gate(
            "hadamard_ish",
            (0,),
            port,
            sc_device.default_frame(port),
            sc_device.x_waveform(0.5),
        )
        cb = CircuitBuilder("c", 1)
        cb.gate("hadamard_ish", [0])
        s = quantum_module_to_schedule(cb.module, sc_device)
        assert len(s.instructions_of(Play)) == 1

    def test_grape_designed_gate_compiles_and_exchanges(self, sc_device):
        """Paper footnote 2 end to end: a GRAPE-designed X pulse,
        registered as a gate, lowers through the JIT, flips the qubit
        and survives the QIR exchange round trip."""
        from repro.control import GrapeOptimizer
        from repro.control.hamiltonians import qubit_subspace_isometry
        from repro.qir import link_qir_to_schedule
        from repro.sim.operators import destroy_on, number_on, pauli

        dims = (3,)
        a = destroy_on(0, dims)
        n = number_on(0, dims)
        opt = GrapeOptimizer(
            -300e6 * 0.5 * (n @ n - n),
            [0.5 * (a + a.conj().T), 0.5j * (a - a.conj().T)],
            pauli("x"),
            n_steps=24,
            dt=sc_device.config.constraints.dt,
            max_control=45e6,
            subspace=qubit_subspace_isometry(dims),
        )
        design = opt.optimize(maxiter=250, seed=5)
        assert design.fidelity > 0.999
        # H = rabi/2 (a* A + a A+) realizes u_x C_x - u_y C_y for the
        # drive a = (u_x + i u_y) / rabi: the y quadrature conjugates.
        rabi = 50e6
        samples = (design.controls[:, 0] - 1j * design.controls[:, 1]) / rabi
        port = sc_device.drive_port(0)
        sc_device.calibrations.register_custom_gate(
            "grape_x",
            (0,),
            port,
            sc_device.default_frame(port),
            SampledWaveform(samples),
        )
        cb = CircuitBuilder("custom", 1)
        cb.gate("grape_x", [0]).measure(0, 0)
        prog = JITCompiler().compile(cb.module, sc_device)
        result = sc_device.executor.execute(prog.schedule, shots=0)
        assert result.ideal_probabilities.get("1", 0.0) > 0.999
        linked = link_qir_to_schedule(prog.qir, sc_device)
        assert linked.equivalent_to(prog.schedule)

    def test_two_circuits_ambiguous(self, sc_device):
        m = bell_module()
        CircuitBuilder("other", 2, module=m)
        with pytest.raises(LoweringError):
            quantum_module_to_schedule(m, sc_device)
        s = quantum_module_to_schedule(m, sc_device, circuit_name="bell")
        assert s.name == "bell"


class TestScheduleLift:
    def test_lift_interp_roundtrip(self, sc_device):
        s = quantum_module_to_schedule(bell_module(), sc_device)
        module = schedule_to_pulse_module(s)
        back = mlir_pulse_to_schedule(module, sc_device)
        assert s.equivalent_to(back)

    def test_lift_preserves_custom_frames(self, sc_device):
        """Frames differing from device defaults survive the lift via
        pulse.argFrames."""
        s = PulseSchedule("k")
        p = sc_device.drive_port(0)
        custom = Frame("detuned", 5.002e9, 0.1)
        s.append(Play(p, custom, SampledWaveform(np.full(16, 0.3))))
        back = mlir_pulse_to_schedule(schedule_to_pulse_module(s), sc_device)
        assert s.equivalent_to(back)

    def test_lift_text_roundtrip(self, sc_device):
        s = quantum_module_to_schedule(bell_module(), sc_device)
        text = print_module(schedule_to_pulse_module(s))
        back = mlir_pulse_to_schedule(text, sc_device)
        assert s.equivalent_to(back)

    def test_lift_fixed_point(self, sc_device):
        s = quantum_module_to_schedule(bell_module(), sc_device)
        m1 = schedule_to_pulse_module(s)
        s2 = mlir_pulse_to_schedule(m1, sc_device)
        m2 = schedule_to_pulse_module(s2)
        assert print_module(m1) == print_module(m2)


class TestJITCompiler:
    def test_compile_produces_all_artifacts(self, sc_device):
        jit = JITCompiler()
        prog = jit.compile(bell_module(), sc_device)
        assert isinstance(prog, CompiledProgram)
        assert prog.schedule.duration > 0
        assert "pulse.sequence" in print_module(prog.pulse_module)
        assert 'qir_profiles"="pulse"' in prog.qir.replace(" ", "")
        assert prog.pass_report.ran

    def test_qir_is_emitted_lazily(self, sc_device, monkeypatch):
        import repro.compiler.jit as jit_module
        from repro.qir import schedule_to_qir

        calls = []

        def counting(schedule):
            calls.append(schedule)
            return schedule_to_qir(schedule)

        monkeypatch.setattr(jit_module, "schedule_to_qir", counting)
        prog = JITCompiler().compile(bell_module(), sc_device)
        assert calls == []  # a cold compile no longer emits QIR
        assert prog.qir == schedule_to_qir(prog.schedule)
        assert prog.qir is prog.qir
        assert len(calls) == 1

    def test_remote_dispatch_ships_the_schedule_qir(self, client):
        from repro.client import JobRequest
        from repro.qir import schedule_to_qir

        request = JobRequest(bell_module(), "remote:sc-remote", shots=16, seed=1)
        program = client.compile_request(request)
        result = client.execute_compiled(request, program)
        proxy = client.driver.get_device("remote:sc-remote")
        job = proxy.inner.executed_jobs[-1]
        expected = schedule_to_qir(program.schedule)
        assert job.payload == expected
        assert result.remote
        assert result.qir_size_bytes == len(expected.encode())

    def test_cache_hit_and_invalidation(self, sc_device):
        jit = JITCompiler()
        m = bell_module()
        p1 = jit.compile(m, sc_device)
        p2 = jit.compile(m, sc_device)
        assert not p1.cache_hit and p2.cache_hit
        # Recalibration (frame frequency change) invalidates the cache.
        sc_device.set_frame_frequency(0, 5.0001e9)
        p3 = jit.compile(m, sc_device)
        assert not p3.cache_hit
        assert jit.stats["misses"] == 2
        assert jit.stats["hits"] == 1

    def test_concurrent_compiles_share_one_memo(self, sc_device):
        """Threads racing on the same keys compile each payload once;
        every other call is a hit on that one artifact."""
        payloads = []
        for i in range(4):
            cb = CircuitBuilder(f"c{i}", 2)
            cb.x(0).rz(1, 0.1 * (i + 1)).measure(0, 0).measure(1, 1)
            payloads.append(cb.module)
        jit = JITCompiler()
        rounds, n_threads = 6, 8
        seen = [set() for _ in payloads]
        lock = threading.Lock()
        errors: list[BaseException] = []

        def work(offset: int) -> None:
            try:
                for r in range(rounds):
                    for j in range(len(payloads)):
                        k = (j + offset + r) % len(payloads)
                        program = jit.compile(payloads[k], sc_device)
                        with lock:
                            seen[k].add(program.schedule.fingerprint())
            except BaseException as exc:  # reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=work, args=(t,)) for t in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        calls = rounds * n_threads * len(payloads)
        stats = jit.stats()
        assert stats["misses"] == len(payloads)
        assert stats["hits"] == calls - len(payloads)
        assert stats["size"] == len(payloads)
        assert all(len(fps) == 1 for fps in seen)

    def test_compiled_schedule_satisfies_constraints(self, all_devices):
        jit = JITCompiler()
        for dev in all_devices:
            prog = jit.compile(bell_module(), dev)
            dev.config.constraints.validate_schedule(prog.schedule)

    def test_constraint_differences_change_output(self, sc_device, ion_device):
        """Claim C3: the same source compiles differently per target."""
        jit = JITCompiler()
        p_sc = jit.compile(bell_module(), sc_device)
        p_ion = jit.compile(bell_module(), ion_device)
        assert p_sc.duration_samples != p_ion.duration_samples
        assert p_sc.metadata["granularity"] != p_ion.metadata["granularity"]

    def test_infeasible_program_rejected(self, ion_device):
        """A raw-sample pulse cannot compile for the parametric-only ion
        device."""
        s = PulseSchedule("raw")
        p = ion_device.drive_port(0)
        # Oscillating raw samples: cannot be kept parametric.
        samples = 0.3 * np.sign(np.sin(np.arange(64)))
        s.append(Play(p, ion_device.default_frame(p), SampledWaveform(samples)))
        jit = JITCompiler()
        with pytest.raises((PassError, CompilationError, Exception)):
            jit.compile(s, ion_device)

    def test_foreign_envelope_sampled_or_rejected_per_device(self, all_devices):
        """A 'sech' envelope is native nowhere: raw-sample devices get it
        sampled, the parametric-only ion chain rejects it."""
        from repro.core import ParametricWaveform

        jit = JITCompiler()
        outcomes = {}
        for dev in all_devices:
            g = dev.config.constraints.granularity
            s = PulseSchedule("sech")
            p = dev.drive_port(0)
            wf = ParametricWaveform("sech", 8 * g, {"amp": 0.3, "sigma": float(g)})
            s.append(Play(p, dev.default_frame(p), wf))
            try:
                prog = jit.compile(s, dev)
            except (PassError, CompilationError):
                outcomes[dev.name] = "rejected"
                continue
            attrs = prog.pulse_module.ops_of("pulse.waveform")[0].attributes
            outcomes[dev.name] = "sampled" if "samples" in attrs else "parametric"
        assert outcomes == {
            "sc-transmon": "sampled",
            "ion-chain": "rejected",
            "atom-array": "sampled",
        }

    def test_over_amplitude_rejected_on_every_device(self, all_devices):
        jit = JITCompiler()
        for dev in all_devices:
            g = dev.config.constraints.granularity
            s = PulseSchedule("hot")
            p = dev.drive_port(0)
            s.append(
                Play(p, dev.default_frame(p), SampledWaveform(np.full(4 * g, 1.7)))
            )
            with pytest.raises((PassError, CompilationError)):
                jit.compile(s, dev)

    def test_schedule_payload_accepted(self, sc_device):
        s = quantum_module_to_schedule(bell_module(), sc_device)
        prog = JITCompiler().compile(s, sc_device)
        assert prog.schedule.equivalent_to(s)

    def test_text_payload_accepted(self, sc_device):
        s = quantum_module_to_schedule(bell_module(), sc_device)
        text = print_module(schedule_to_pulse_module(s))
        prog = JITCompiler().compile(text, sc_device)
        assert prog.schedule.equivalent_to(s)

    def test_bad_payload_type_rejected(self, sc_device):
        with pytest.raises(CompilationError):
            JITCompiler().compile(42, sc_device)

    def test_qir_executes_after_compile(self, sc_device):
        prog = JITCompiler().compile(bell_module(), sc_device)
        from repro.qir import link_qir_to_schedule

        linked = link_qir_to_schedule(prog.qir, sc_device)
        assert linked.equivalent_to(prog.schedule)
