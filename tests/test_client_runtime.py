"""Tests: adapters, client routing, remote proxy, scheduler (Fig. 2)."""

import pytest

from repro.api.core import run_request
from repro.client import (
    CircuitAdapter,
    JobRequest,
    MQSSClient,
    QASM3Adapter,
    QPIAdapter,
)
from repro.core import Play, PulseSchedule
from repro.devices import SuperconductingDevice
from repro.errors import ParseError, QDMIError
from repro.mlir.dialects.quantum import CircuitBuilder
from repro.qpi import (
    PythonicCircuit,
    QCircuit,
    qCircuitBegin,
    qCircuitEnd,
    qMeasure,
    qX,
)
from repro.runtime import CalibrationAwareScheduler, SecondLevelScheduler


def qpi_circuit():
    c = QCircuit()
    qCircuitBegin(c)
    qX(0)
    qMeasure(0, 0)
    qMeasure(1, 1)
    qCircuitEnd()
    return c


QASM = """OPENQASM 3;
qubit[2] q; bit[2] c;
x q[0];
cz q[0], q[1];
cal { play("q1-drive-port", gaussian(32, 0.3, 8.0));
      frame_change("q1-drive-port", 5.1e9, 0.2); }
c[0] = measure q[0];
c[1] = measure q[1];
"""


class TestAdapters:
    def test_qpi_adapter_accepts(self):
        a = QPIAdapter()
        assert a.accepts(qpi_circuit())
        assert not a.accepts("OPENQASM 3;")

    def test_circuit_adapter_accepts(self):
        a = CircuitAdapter()
        assert a.accepts(PythonicCircuit(2))
        assert a.accepts(CircuitBuilder("c", 2).x(0).module)
        assert not a.accepts(qpi_circuit())

    def test_qasm_adapter_accepts(self):
        a = QASM3Adapter()
        assert a.accepts(QASM)
        assert not a.accepts(PythonicCircuit(1))

    def test_qasm_lowering(self, sc_device):
        sched = QASM3Adapter().to_payload(QASM, sc_device)
        assert isinstance(sched, PulseSchedule)
        plays = sched.instructions_of(Play)
        # x, cz coupler, cal play, 2 readout stimuli.
        assert len(plays) == 5

    def test_qasm_cal_block_parametric(self, sc_device):
        sched = QASM3Adapter().to_payload(QASM, sc_device)
        from repro.core.waveform import ParametricWaveform

        cal_plays = [
            it.instruction
            for it in sched.instructions_of(Play)
            if isinstance(it.instruction.waveform, ParametricWaveform)
            and it.instruction.waveform.envelope == "gaussian"
            and it.instruction.port.name == "q1-drive-port"
        ]
        assert cal_plays

    def test_qasm_rejects_bad_statement(self, sc_device):
        with pytest.raises(ParseError):
            QASM3Adapter().to_payload("OPENQASM 3;\nfoo q[0];\n", sc_device)

    def test_qasm_rejects_unterminated_cal(self, sc_device):
        with pytest.raises(ParseError):
            QASM3Adapter().to_payload("OPENQASM 3;\ncal { play(\n", sc_device)

    def test_qasm_barrier_in_cal(self, sc_device):
        text = (
            "OPENQASM 3;\nqubit[2] q;\n"
            'cal { play("q0-drive-port", gaussian(32, 0.3, 8.0)); '
            'barrier("q0-drive-port", "q1-drive-port"); '
            'play("q1-drive-port", gaussian(32, 0.3, 8.0)); }\n'
        )
        sched = QASM3Adapter().to_payload(text, sc_device)
        plays = sched.instructions_of(Play)
        assert plays[1].t0 == plays[0].t1


class TestClientRouting:
    def test_all_adapters_all_local_devices(self, client):
        # Gate-only QASM is portable; the cal-block variant references
        # transmon port names and is tested on sc-transmon only.
        portable_qasm = (
            "OPENQASM 3;\nqubit[2] q; bit[2] c;\nx q[0];\n"
            "c[0] = measure q[0];\nc[1] = measure q[1];\n"
        )
        programs = [
            qpi_circuit(),
            PythonicCircuit(2, 2).x(0).measure(0, 0).measure(1, 1),
            portable_qasm,
        ]
        for device in ("sc-transmon", "ion-chain", "atom-array"):
            for prog in programs:
                r = run_request(client, JobRequest(prog, device, shots=100, seed=1))
                assert sum(r.counts.values()) == 100
                assert not r.remote
                best = max(r.probabilities, key=r.probabilities.get)
                assert best[0] == "1"  # x q[0] everywhere
                p_one = sum(p for k, p in r.probabilities.items() if k[0] == "1")
                assert p_one > 0.9

    def test_cal_block_qasm_on_transmon(self, client):
        r = run_request(client, JobRequest(QASM, "sc-transmon", shots=100, seed=1))
        assert sum(r.counts.values()) == 100

    def test_remote_routing_uses_qir(self, client):
        r = run_request(
            client, JobRequest(qpi_circuit(), "remote:sc-remote", shots=100, seed=1)
        )
        assert r.remote
        assert r.qir_size_bytes > 0

    def test_remote_telemetry(self, client, driver):
        proxy = driver.get_device("remote:sc-remote")
        before = proxy.telemetry["jobs"]
        run_request(
            client, JobRequest(qpi_circuit(), "remote:sc-remote", shots=10, seed=1)
        )
        assert proxy.telemetry["jobs"] == before + 1
        assert proxy.telemetry["bytes_sent"] > 0

    def test_remote_rejects_in_memory_payload(self, driver):
        proxy = driver.get_device("remote:sc-remote")
        from repro.qdmi import JobStatus, ProgramFormat, QDMIJob

        job = QDMIJob(proxy.name, ProgramFormat.PULSE_SCHEDULE, PulseSchedule())
        proxy.submit_job(job)
        assert job.status is JobStatus.FAILED

    def test_unknown_device(self, client):
        with pytest.raises(QDMIError):
            run_request(client, JobRequest(qpi_circuit(), "nope"))

    def test_unknown_adapter(self, client):
        with pytest.raises(QDMIError):
            run_request(
                client, JobRequest(qpi_circuit(), "sc-transmon", adapter="nope")
            )

    def test_no_adapter_for_type(self, client):
        with pytest.raises(QDMIError):
            run_request(client, JobRequest(3.14, "sc-transmon"))

    def test_timings_recorded(self, client):
        r = run_request(
            client, JobRequest(qpi_circuit(), "sc-transmon", shots=10, seed=1)
        )
        assert set(r.timings_s) == {"adapter", "compile", "execute"}

    def test_sessions_closed_after_submit(self, client, driver):
        run_request(client, JobRequest(qpi_circuit(), "sc-transmon", shots=10, seed=1))
        assert driver.open_sessions == []

    def test_compile_cache_shared_across_submissions(self, client):
        req = JobRequest(qpi_circuit(), "sc-transmon", shots=10, seed=1)
        run_request(client, req)
        before = client.compiler.stats["hits"]
        run_request(client, req)
        assert client.compiler.stats["hits"] == before + 1


class TestScheduler:
    def test_drain_executes_all(self, client):
        sched = SecondLevelScheduler(client)
        for device in ("sc-transmon", "ion-chain"):
            for _ in range(2):
                sched.enqueue(JobRequest(qpi_circuit(), device, shots=10, seed=1))
        report = sched.drain()
        assert report.completed == 4
        assert report.failed == 0
        assert report.per_device_jobs == {"sc-transmon": 2, "ion-chain": 2}
        assert sched.pending == 0

    def test_priority_first(self, client):
        sched = SecondLevelScheduler(client)
        low = sched.enqueue(JobRequest(qpi_circuit(), "sc-transmon", shots=10, seed=1))
        high = sched.enqueue(
            JobRequest(qpi_circuit(), "sc-transmon", shots=10, priority=9, seed=1)
        )
        sched.drain()
        assert high.result.job_id < low.result.job_id

    def test_failures_counted(self, client):
        sched = SecondLevelScheduler(client)
        sched.enqueue(JobRequest(qpi_circuit(), "missing-device", shots=1))
        report = sched.drain()
        assert report.failed == 1

    def test_calibration_aware_triggers(self):
        """A drifting device gets calibrations interleaved; counts scale
        with drift rate."""
        from repro.qdmi import QDMIDriver

        driver = QDMIDriver()
        dev = SuperconductingDevice("drifty", num_qubits=2, seed=3, drift_rate=5e4)
        driver.register_device(dev)
        client = MQSSClient(driver)
        calibrated = []

        def calibrate(name):
            d = driver.get_device(name)
            for site in range(d.config.num_sites):
                d.set_frame_frequency(site, d.true_frequency(site))
            calibrated.append(name)

        sched = CalibrationAwareScheduler(
            client, calibrate, error_budget_hz=100e3, job_seconds=30.0
        )
        for _ in range(8):
            sched.enqueue(JobRequest(qpi_circuit(), "drifty", shots=10, seed=1))
        report = sched.drain()
        assert report.completed == 8
        assert report.calibrations >= 1
        assert calibrated

    def test_faster_drift_earns_more_calibrations(self):
        """Resource-aware planning: over the same 16 jobs a device
        drifting at 5e4 Hz/sqrt(s) is recalibrated more often than one
        drifting at 1e3."""
        from repro.qdmi import QDMIDriver

        calibrations = {}
        for rate in (1e3, 5e4):
            driver = QDMIDriver()
            dev = SuperconductingDevice("d", num_qubits=2, seed=4, drift_rate=rate)
            driver.register_device(dev)

            def calibrate(name):
                d = driver.get_device(name)
                for site in range(d.config.num_sites):
                    d.set_frame_frequency(site, d.true_frequency(site))

            sched = CalibrationAwareScheduler(
                MQSSClient(driver), calibrate, error_budget_hz=150e3, job_seconds=30.0
            )
            for i in range(16):
                sched.enqueue(JobRequest(qpi_circuit(), "d", shots=16, seed=i))
            calibrations[rate] = sched.drain().calibrations
        assert calibrations[5e4] > calibrations[1e3]

    def test_calibration_not_triggered_without_drift(self, client):
        sched = CalibrationAwareScheduler(
            client, lambda name: None, error_budget_hz=1.0, job_seconds=30.0
        )
        sched.enqueue(JobRequest(qpi_circuit(), "sc-transmon", shots=10, seed=1))
        report = sched.drain()
        assert report.calibrations == 0  # fixture device has drift_rate=0

