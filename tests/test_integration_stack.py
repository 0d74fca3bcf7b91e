"""Integration tests across the whole stack.

The centerpiece is the paper's Listings 1-3 equivalence: the same
pulse-VQE kernel expressed through the QPI (Listing 1), the MLIR pulse
dialect (Listing 2) and QIR with the Pulse Profile (Listing 3) must
denote the same physical program — same canonical schedule, same
simulated outcome distribution.
"""

import numpy as np
import pytest

from repro.api.core import run_request
from repro.client import JobRequest
from repro.compiler import JITCompiler, quantum_module_to_schedule
from repro.mlir.dialects.pulse import SequenceBuilder
from repro.mlir.dialects.quantum import CircuitBuilder
from repro.mlir.interp import module_to_schedule
from repro.core import SampledWaveform
from repro.qir import (
    link_qir_to_schedule,
    parse_qir,
    schedule_to_qir,
    validate_profile,
)
from repro.qpi import (
    QCircuit,
    qCircuitBegin,
    qCircuitEnd,
    qFrameChange,
    qInitClassicalRegisters,
    qMeasure,
    qPlayWaveform,
    qWaveform,
    qX,
    qpi_to_schedule,
)

AMPS_1 = np.full(32, 0.25)
AMPS_2 = np.full(32, 0.30)
AMPS_3 = np.full(64, 0.20)
FREQ_Q0 = 5.0e9
FREQ_Q1 = 5.1e9
PHASE = 0.4


def listing1_qpi(device):
    """Listing 1: the QPI kernel."""
    circuit = QCircuit()
    qCircuitBegin(circuit)
    qInitClassicalRegisters(2)
    qX(0)
    qX(1)
    w1 = qWaveform(AMPS_1)
    w2 = qWaveform(AMPS_2)
    w3 = qWaveform(AMPS_3)
    qPlayWaveform("q0-drive-port", w1)
    qPlayWaveform("q1-drive-port", w2)
    qFrameChange("q0-drive-port", FREQ_Q0, PHASE)
    qFrameChange("q1-drive-port", FREQ_Q1, PHASE)
    qPlayWaveform("q0q1-coupler-port", w3)
    qMeasure(0, 0)
    qMeasure(1, 1)
    qCircuitEnd()
    return qpi_to_schedule(circuit, device, name="pulse_vqe_quantum_kernel")


def listing2_mlir(device):
    """Listing 2: the same kernel in the MLIR pulse dialect."""
    sb = SequenceBuilder("pulse_vqe_quantum_kernel")
    drive0 = sb.add_mixed_frame_arg("drive0", "q0-drive-port")
    drive1 = sb.add_mixed_frame_arg("drive1", "q1-drive-port")
    coupler = sb.add_mixed_frame_arg("coupler", "q0q1-coupler-port")
    freq0 = sb.add_scalar_arg("freq0")
    freq1 = sb.add_scalar_arg("freq1")
    phase = sb.add_scalar_arg("phase")
    # 1. Gate-level X on both qubits (pulse.standard_x).
    sb.standard_x(drive0)
    sb.standard_x(drive1)
    # 2-3. Waveform constants + single-qubit pulses.
    w1 = sb.waveform(SampledWaveform(AMPS_1))
    w2 = sb.waveform(SampledWaveform(AMPS_2))
    w3 = sb.waveform(SampledWaveform(AMPS_3))
    sb.play(drive0, w1)
    sb.play(drive1, w2)
    # 4. Frame changes.
    sb.frame_change(drive0, freq0, phase)
    sb.frame_change(drive1, freq1, phase)
    # 5. Entangling pulse.
    sb.play(coupler, w3)
    # 6-7. Measurement via the calibrated readout (standard_measure is
    # spelled through the device calibration in the interpreter; here we
    # append captures exactly like the lowering does).
    sched = module_to_schedule(
        sb.module,
        device,
        {"freq0": FREQ_Q0, "freq1": FREQ_Q1, "phase": PHASE},
    )
    device.calibrations.get("measure", (0,)).apply(sched, [0])
    device.calibrations.get("measure", (1,)).apply(sched, [1])
    return sched


class TestListingEquivalence:
    """Experiment E1."""

    def test_qpi_equals_mlir(self, sc_device):
        s1 = listing1_qpi(sc_device)
        s2 = listing2_mlir(sc_device)
        assert s1.equivalent_to(s2)

    def test_qpi_equals_qir(self, sc_device):
        s1 = listing1_qpi(sc_device)
        s3 = link_qir_to_schedule(schedule_to_qir(s1), sc_device)
        assert s1.equivalent_to(s3)

    def test_all_three_same_distribution(self, sc_device):
        s1 = listing1_qpi(sc_device)
        s2 = listing2_mlir(sc_device)
        s3 = link_qir_to_schedule(schedule_to_qir(s2), sc_device)
        results = [
            sc_device.executor.execute(s, shots=0).ideal_probabilities
            for s in (s1, s2, s3)
        ]
        keys = set().union(*results)
        for key in keys:
            vals = [r.get(key, 0.0) for r in results]
            assert max(vals) - min(vals) < 1e-12

    def test_fingerprints_match(self, sc_device):
        assert (
            listing1_qpi(sc_device).fingerprint()
            == listing2_mlir(sc_device).fingerprint()
        )


class TestTopDownFlow:
    """Fig. 1: algorithm -> circuit -> pulse IR -> waveforms."""

    def test_ladder_expands_toward_the_hardware(self, sc_device):
        from repro.compiler import schedule_to_pulse_module
        from repro.core import Play

        params = np.linspace(0.1, 1.2, 12)
        cb = CircuitBuilder("vqe-ansatz", 2)
        for layer in range(2):
            for q in (0, 1):
                a, b, c = params[6 * layer + 3 * q : 6 * layer + 3 * q + 3]
                cb.rz(q, a).sx(q).rz(q, b).sx(q).rz(q, c)
            cb.cz(0, 1)
        cb.measure(0, 0).measure(1, 1)
        n_gates = sum(
            1
            for op in cb.module.walk()
            if op.dialect == "quantum" and op.opname != "circuit"
        )
        schedule = quantum_module_to_schedule(cb.module, sc_device)
        pulse_module = schedule_to_pulse_module(schedule)
        n_pulse_ops = sum(1 for op in pulse_module.walk() if op.dialect == "pulse")
        samples = sum(
            it.instruction.waveform.duration for it in schedule.instructions_of(Play)
        )
        assert len(params) < n_gates < n_pulse_ops < samples


class TestCrossPlatformPortability:
    """The same gate-level source runs on all three technologies; the
    exchange format carries the *compiled* (device-specific) programs."""

    def bell(self):
        cb = CircuitBuilder("bell", 2)
        cb.sx(0).cz(0, 1).sx(1).measure(0, 0).measure(1, 1)
        return cb.module

    def test_same_source_compiles_everywhere(self, all_devices):
        jit = JITCompiler()
        durations = {}
        for dev in all_devices:
            prog = jit.compile(self.bell(), dev)
            durations[dev.name] = prog.duration_samples * dev.config.constraints.dt
        # Platform speed ordering: SC fastest, ion slowest.
        assert durations["sc-transmon"] < durations["atom-array"]
        assert durations["atom-array"] < durations["ion-chain"]

    def test_qir_round_trips_on_every_platform(self, all_devices):
        jit = JITCompiler()
        for dev in all_devices:
            prog = jit.compile(self.bell(), dev)
            module = parse_qir(prog.qir)
            assert validate_profile(module).valid
            linked = link_qir_to_schedule(module, dev)
            assert linked.equivalent_to(prog.schedule)

    def test_distributions_agree_across_platforms(self, all_devices):
        """Ideal (pre-readout-error) outcome distributions of the same
        circuit agree across technologies within gate-error tolerance."""
        jit = JITCompiler()
        dists = []
        for dev in all_devices:
            prog = jit.compile(self.bell(), dev)
            r = dev.executor.execute(prog.schedule, shots=0)
            dists.append(r.ideal_probabilities)
        keys = set().union(*dists)
        for key in keys:
            vals = [d.get(key, 0.0) for d in dists]
            assert max(vals) - min(vals) < 0.05


class TestEndToEnd:
    def test_fig2_walk(self, client):
        """Adapter -> client -> compiler -> QDMI -> device -> result."""
        cb = CircuitBuilder("walk", 2)
        cb.x(0).cz(0, 1).measure(0, 0).measure(1, 1)
        r = run_request(
            client, JobRequest(cb.module, "sc-transmon", shots=500, seed=7)
        )
        assert sum(r.counts.values()) == 500
        top = max(r.probabilities, key=r.probabilities.get)
        assert top == "10"

    def test_pulse_program_through_client_to_remote(self, client):
        """A pulse-level program travels as QIR to the remote device and
        produces the same distribution as the local twin."""
        local = run_request(
            client,
            JobRequest(self._pulse_program(), "sc-transmon", shots=0, seed=1),
        )
        remote = run_request(
            client,
            JobRequest(self._pulse_program(), "remote:sc-remote", shots=0, seed=1),
        )
        keys = set(local.probabilities) | set(remote.probabilities)
        for key in keys:
            assert local.probabilities.get(key, 0) == pytest.approx(
                remote.probabilities.get(key, 0), abs=1e-9
            )

    def _pulse_program(self):
        c = QCircuit()
        qCircuitBegin(c)
        qInitClassicalRegisters(1)
        w = qWaveform(np.full(32, 0.31))
        qPlayWaveform("q0-drive-port", w)
        qFrameChange("q0-drive-port", 5.0e9, 0.2)
        qPlayWaveform("q0-drive-port", w)
        qMeasure(0, 0)
        qCircuitEnd()
        return c

    def test_gate_lowering_matches_direct_calibration(self, sc_device):
        cb = CircuitBuilder("c", 2)
        cb.x(0).cz(0, 1)
        via_module = quantum_module_to_schedule(cb.module, sc_device)
        from repro.core import PulseSchedule

        direct = PulseSchedule("c")
        sc_device.calibrations.get("x", (0,)).apply(direct, [])
        sc_device.calibrations.get("cz", (0, 1)).apply(direct, [])
        assert via_module.equivalent_to(direct)

    def test_recalibration_affects_compiled_output(self, sc_device):
        """Closing the loop: calibration write-back changes what the
        compiler emits (frames at the new frequency)."""
        jit = JITCompiler()
        cb = CircuitBuilder("c", 1)
        cb.x(0)
        p1 = jit.compile(cb.module, sc_device)
        sc_device.set_frame_frequency(0, 5.0005e9)
        p2 = jit.compile(cb.module, sc_device)
        assert not p2.cache_hit
        assert "5000500000" in p2.qir.replace(".0", "")
