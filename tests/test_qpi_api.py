"""Tests: the QPI call surface and the Pythonic baseline (claim C1)."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.primitives import Observable
from repro.qpi import (
    PythonicCircuit,
    QCircuit,
    qBarrier,
    qCircuitBegin,
    qCircuitEnd,
    qCircuitFree,
    qCZ,
    qDelay,
    qExecute,
    qFrameChange,
    qInitClassicalRegisters,
    qMeasure,
    qPlayWaveform,
    qRead,
    qRZ,
    qSX,
    qWaveform,
    qX,
    qpi_to_schedule,
)


def build_listing1_kernel(device, amps1, amps2, amps3, freq, phase):
    """The paper's Listing 1, verbatim in structure."""
    circuit = QCircuit()
    qCircuitBegin(circuit)
    qInitClassicalRegisters(2)
    qX(0)
    qX(1)
    w1 = qWaveform(amps1)
    w2 = qWaveform(amps2)
    w3 = qWaveform(amps3)
    qPlayWaveform("q0-drive-port", w1)
    qPlayWaveform("q1-drive-port", w2)
    qFrameChange("q0-drive-port", freq, phase)
    qFrameChange("q1-drive-port", freq, phase)
    qBarrier("q0-drive-port", "q1-drive-port", "q0q1-coupler-port")
    qPlayWaveform("q0q1-coupler-port", w3)
    qMeasure(0, 0)
    qMeasure(1, 1)
    qCircuitEnd()
    return circuit


class TestQPILifecycle:
    def test_begin_end(self):
        c = QCircuit()
        qCircuitBegin(c)
        qX(0)
        qCircuitEnd()
        assert len(c.ops) == 1
        assert not c.open

    def test_no_open_circuit_raises(self):
        with pytest.raises(ValidationError):
            qX(0)

    def test_double_begin_raises(self):
        a, b = QCircuit(), QCircuit()
        qCircuitBegin(a)
        try:
            with pytest.raises(ValidationError):
                qCircuitBegin(b)
        finally:
            qCircuitEnd()

    def test_begin_resets_buffers(self):
        c = QCircuit()
        qCircuitBegin(c)
        qX(0)
        qCircuitEnd()
        qCircuitBegin(c)
        qCircuitEnd()
        assert c.ops == []

    def test_free_clears(self):
        c = QCircuit()
        qCircuitBegin(c)
        qX(0)
        qCircuitEnd()
        qCircuitFree(c)
        assert c.ops == [] and c.waveforms == []

    def test_execute_requires_closed(self, sc_device):
        c = QCircuit()
        qCircuitBegin(c)
        try:
            with pytest.raises(ValidationError):
                qExecute(sc_device, c, 10)
        finally:
            qCircuitEnd()

    def test_read_without_execute_raises(self):
        with pytest.raises(ValidationError):
            qRead(QCircuit())


class TestQPIExecution:
    def test_listing1_runs(self, sc_device):
        amps = np.full(32, 0.2)
        coupler = np.full(64, 0.3)
        c = build_listing1_kernel(sc_device, amps, amps, coupler, 5e9, 0.1)
        rc = qExecute(sc_device, c, 500, seed=1)
        assert rc == 0
        result = qRead(c)
        assert sum(result.counts.values()) == 500
        assert abs(sum(result.probabilities.values()) - 1.0) < 1e-9

    def test_gate_only_kernel(self, sc_device):
        c = QCircuit()
        qCircuitBegin(c)
        qX(0)
        qSX(1)
        qRZ(1, 0.3)
        qCZ(0, 1)
        qMeasure(0, 0)
        qMeasure(1, 1)
        qCircuitEnd()
        assert qExecute(sc_device, c, 300, seed=2) == 0
        counts = qRead(c).counts
        # Qubit 0 flipped with certainty (modulo readout error).
        ones = sum(v for k, v in counts.items() if k[0] == "1")
        assert ones > 250

    def test_failed_execution_returns_nonzero(self, sc_device):
        c = QCircuit()
        qCircuitBegin(c)
        w = qWaveform(np.full(32, 5.0))  # amplitude way out of range
        qPlayWaveform("q0-drive-port", w)
        qCircuitEnd()
        assert qExecute(sc_device, c, 10) == 1
        with pytest.raises(ValidationError):
            qRead(c)

    def test_expectation_z(self, sc_device):
        c = QCircuit()
        qCircuitBegin(c)
        qX(0)
        qMeasure(0, 0)
        qCircuitEnd()
        qExecute(sc_device, c, 0, seed=0)
        # X|0> = |1> -> <Z> near -1 (softened by readout error).
        assert Observable.z(0).expectation(qRead(c).probabilities) < -0.9

    def test_delay_and_barrier_ops(self, sc_device):
        c = QCircuit()
        qCircuitBegin(c)
        w = qWaveform(np.full(16, 0.2))
        qPlayWaveform("q0-drive-port", w)
        qDelay("q0-drive-port", 32)
        qBarrier("q0-drive-port", "q1-drive-port")
        qPlayWaveform("q1-drive-port", w)
        qCircuitEnd()
        sched = qpi_to_schedule(c, sc_device)
        from repro.core import Play

        plays = sched.instructions_of(Play)
        assert plays[1].t0 == 48  # after play(16) + delay(32)

    def test_measure_register_bounds(self, sc_device):
        c = QCircuit()
        qCircuitBegin(c)
        qInitClassicalRegisters(1)
        qMeasure(0, 5)
        qCircuitEnd()
        with pytest.raises(ValidationError):
            qpi_to_schedule(c, sc_device)


class TestPythonicBaseline:
    def test_same_semantics_as_qpi(self, sc_device):
        amps = np.full(32, 0.2)
        pc = PythonicCircuit(2, 2)
        pc.x(0).x(1)
        pc.waveform("w1", amps)
        pc.play("q0-drive-port", "w1")
        pc.frame_change("q0-drive-port", 5e9, 0.1)
        pc.measure(0, 0).measure(1, 1)
        sched_py = qpi_to_schedule(pc.to_qcircuit(), sc_device)

        c = QCircuit()
        qCircuitBegin(c)
        qInitClassicalRegisters(2)
        qX(0)
        qX(1)
        w = qWaveform(amps)
        qPlayWaveform("q0-drive-port", w)
        qFrameChange("q0-drive-port", 5e9, 0.1)
        qMeasure(0, 0)
        qMeasure(1, 1)
        qCircuitEnd()
        sched_qpi = qpi_to_schedule(c, sc_device)
        assert sched_py.equivalent_to(sched_qpi)
        assert len(c.ops) == len(pc.instructions) == 6

    def test_validation_is_eager(self):
        pc = PythonicCircuit(2)
        with pytest.raises(ValidationError):
            pc.x(5)
        with pytest.raises(ValidationError):
            pc.cz(1, 1)
        with pytest.raises(ValidationError):
            pc.play("p", "undefined-waveform")
        with pytest.raises(ValidationError):
            pc.waveform("w", np.full(4, 2.0))  # over amplitude

    def test_construction_overhead_gap(self, sc_device):
        """The C1 claim's direction: QPI construction is much cheaper
        than the object API. The precise ratio is benchmarked in E5;
        here we only pin the direction with a generous margin."""
        import time

        amps = np.full(32, 0.2)

        def qpi_build():
            c = QCircuit()
            qCircuitBegin(c)
            for q in (0, 1):
                qX(q)
            w = qWaveform(amps)
            qPlayWaveform("q0-drive-port", w)
            qFrameChange("q0-drive-port", 5e9, 0.1)
            qMeasure(0, 0)
            qCircuitEnd()

        def pythonic_build():
            pc = PythonicCircuit(2, 2)
            pc.x(0).x(1)
            pc.waveform("w", amps)
            pc.play("q0-drive-port", "w")
            pc.frame_change("q0-drive-port", 5e9, 0.1)
            pc.measure(0, 0)

        n = 500
        t0 = time.perf_counter()
        for _ in range(n):
            qpi_build()
        t_qpi = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(n):
            pythonic_build()
        t_py = time.perf_counter() - t0
        assert t_py > 2.0 * t_qpi
