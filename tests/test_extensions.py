"""Tests: extension features — readout mitigation, echo insertion."""

import numpy as np
import pytest

from repro.compiler.transforms import idle_fraction, insert_echo_sequences
from repro.core import Delay, Frame, Play, PulseSchedule, constant_waveform
from repro.devices import SuperconductingDevice
from repro.errors import ValidationError
from repro.pipeline import DAG, PipelineRunner
from repro.primitives import Observable
from repro.qem.readout import mitigate_distribution
from repro.sim.measurement import ReadoutModel, joint_confusion


def corrupt(true, models):
    """*true* pushed through the joint confusion matrix, as the
    executor's measurement tail applies it."""
    n = len(models)
    actual = np.zeros(2**n)
    for key, p in true.items():
        actual[int(key, 2)] = p
    observed = joint_confusion(models) @ actual
    return {format(i, f"0{n}b"): float(w) for i, w in enumerate(observed) if w > 0}


class TestReadoutMitigation:
    def test_exact_inversion_of_model(self):
        models = [ReadoutModel(p01=0.02, p10=0.05)]
        true = {"0": 0.3, "1": 0.7}
        observed = corrupt(true, models)
        recovered = mitigate_distribution(observed, models).distribution
        assert recovered["0"] == pytest.approx(0.3, abs=1e-12)
        assert recovered["1"] == pytest.approx(0.7, abs=1e-12)

    def test_two_qubit_inversion(self):
        models = [ReadoutModel(p01=0.03, p10=0.06), ReadoutModel(p01=0.01, p10=0.02)]
        true = {"00": 0.4, "11": 0.5, "01": 0.1}
        observed = corrupt(true, models)
        recovered = mitigate_distribution(observed, models).distribution
        for key, p in true.items():
            assert recovered.get(key, 0.0) == pytest.approx(p, abs=1e-10)

    def test_expectation_improves_on_device(self):
        """End-to-end: calibrate confusion on the device, mitigate a
        measured X-state distribution; <Z> moves toward the ideal -1."""
        dev = SuperconductingDevice(num_qubits=1, drift_rate=0.0)
        dag = DAG("readout")
        dag.task("scan", "readout_scan", {"sites": [0], "shots": 8192})
        run = PipelineRunner(dev).run(dag, seed=3)
        assert run.ok, run.error
        cal = run.result("scan")["confusion"]["0"]
        models = [ReadoutModel(p01=cal["p01"], p10=cal["p10"])]
        sched = PulseSchedule()
        dev.calibrations.get("x", (0,)).apply(sched, [])
        dev.calibrations.get("measure", (0,)).apply(sched, [0])
        r = dev.executor.execute(sched, shots=8192, seed=4)
        raw_z = sum(
            (1.0 if k == "0" else -1.0) * v / 8192 for k, v in r.counts.items()
        )
        observed = {k: v / 8192 for k, v in r.counts.items()}
        mitigated = mitigate_distribution(observed, models)
        mitigated_z = Observable.z(0).expectation(mitigated.distribution)
        assert abs(mitigated_z - (-1.0)) < abs(raw_z - (-1.0))

    def test_validation(self):
        with pytest.raises(ValidationError):
            mitigate_distribution({}, [])
        with pytest.raises(ValidationError):
            mitigate_distribution({"00": 1.0}, [ReadoutModel()])


class TestEchoInsertion:
    def _clock_schedule(self, dev, detuned_frame, gap=2048):
        """sx - long idle - sx at a deliberately detuned frame."""
        s = PulseSchedule("clock")
        port = dev.drive_port(0)
        half = dev.x_waveform(0.5)
        s.append(Play(port, detuned_frame, half))
        s.append(Delay(port, gap))
        s.append(Play(port, detuned_frame, half))
        return s

    def test_echo_refocuses_static_detuning(self):
        dev = SuperconductingDevice(num_qubits=1, drift_rate=0.0)
        port = dev.drive_port(0)
        # 200 kHz static miscalibration.
        frame = Frame(f"{port.name}-frame", dev.true_frequency(0) + 2e5)

        def p1(schedule):
            r = dev.executor.execute(schedule, shots=0)
            return abs(r.final_state[1]) ** 2

        plain = self._clock_schedule(dev, frame)
        echoed = insert_echo_sequences(plain, dev)
        # Phase error 2*pi*2e5*2us ~ 2.5 rad: plain sequence dephases;
        # the echo refocuses it back toward P(1)=1.
        assert p1(plain) < 0.75
        assert p1(echoed) > 0.95

    def test_original_events_preserved(self):
        dev = SuperconductingDevice(num_qubits=1, drift_rate=0.0)
        port = dev.drive_port(0)
        frame = dev.default_frame(port)
        plain = self._clock_schedule(dev, frame)
        echoed = insert_echo_sequences(plain, dev)
        original = {
            (it.t0, it.instruction.duration) for it in plain.instructions_of(Play)
        }
        kept = {(it.t0, it.instruction.duration) for it in echoed.instructions_of(Play)}
        assert original <= kept
        assert len(kept) == len(original) + 2  # exactly one CPMG-2 pair

    def test_short_gaps_untouched(self):
        dev = SuperconductingDevice(num_qubits=1, drift_rate=0.0)
        port = dev.drive_port(0)
        frame = dev.default_frame(port)
        s = self._clock_schedule(dev, frame, gap=64)  # below min_gap
        echoed = insert_echo_sequences(s, dev)
        assert len(echoed.instructions_of(Play)) == len(s.instructions_of(Play))

    def test_min_gap_validation(self):
        dev = SuperconductingDevice(num_qubits=1, drift_rate=0.0)
        from repro.errors import PassError

        with pytest.raises(PassError):
            insert_echo_sequences(PulseSchedule(), dev, min_gap=8)

    def test_idle_fraction(self):
        dev = SuperconductingDevice(num_qubits=1, drift_rate=0.0)
        port = dev.drive_port(0)
        s = PulseSchedule()
        s.append(Play(port, dev.default_frame(port), constant_waveform(32, 0.1)))
        s.append(Delay(port, 32))
        s.append(Play(port, dev.default_frame(port), constant_waveform(32, 0.1)))
        assert idle_fraction(s, port) == pytest.approx(1 / 3)
