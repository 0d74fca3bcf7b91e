"""E3 — Fig. 2: the end-to-end MQSS architecture walk.

Three adapters x three device technologies are routed through the MQSS
client (adapter -> JIT -> QDMI -> device), plus the remote path, with
per-stage latencies and scheduler throughput.
"""


from benchmarks.conftest import report
from repro.api.core import run_request
from repro.client import JobRequest
from repro.qpi import (
    PythonicCircuit,
    QCircuit,
    qCircuitBegin,
    qCircuitEnd,
    qMeasure,
    qX,
)
from repro.runtime import SecondLevelScheduler


def qpi_program():
    c = QCircuit()
    qCircuitBegin(c)
    qX(0)
    qMeasure(0, 0)
    qMeasure(1, 1)
    qCircuitEnd()
    return c


QASM = (
    "OPENQASM 3;\nqubit[2] q; bit[2] c;\nx q[0];\n"
    "c[0] = measure q[0];\nc[1] = measure q[1];\n"
)


def programs():
    return {
        "qpi": qpi_program(),
        "circuit": PythonicCircuit(2, 2).x(0).measure(0, 0).measure(1, 1),
        "qasm3": QASM,
    }


def test_adapter_device_matrix(client):
    rows = [("adapter", "device", "duration (samples)", "P('1x')", "stage ms")]
    for adapter_name, program in programs().items():
        for device in ("sc-transmon", "ion-chain", "atom-array"):
            r = run_request(client, JobRequest(program, device, shots=0, seed=3))
            p_one = sum(v for k, v in r.probabilities.items() if k[0] == "1")
            stages = ", ".join(
                f"{k}={v*1e3:.1f}" for k, v in r.timings_s.items()
            )
            rows.append(
                (adapter_name, device, r.duration_samples, f"{p_one:.3f}", stages)
            )
            assert p_one > 0.9
    report("E3: Fig. 2 adapter x device matrix", rows)


def test_local_vs_remote_path(client, full_driver):
    local = run_request(
        client, JobRequest(qpi_program(), "sc-transmon", shots=0, seed=3)
    )
    remote = run_request(
        client, JobRequest(qpi_program(), "remote:sc-remote", shots=0, seed=3)
    )
    proxy = full_driver.get_device("remote:sc-remote")
    rows = [
        ("path", "payload", "bytes", "simulated transfer (ms)"),
        ("local", "in-memory schedule", 0, 0.0),
        (
            "remote",
            "QIR pulse profile",
            remote.qir_size_bytes,
            round(proxy.telemetry["simulated_transfer_s"] * 1e3, 2),
        ),
    ]
    report("E3: local vs remote routing", rows)
    for key in set(local.probabilities) | set(remote.probabilities):
        assert abs(
            local.probabilities.get(key, 0) - remote.probabilities.get(key, 0)
        ) < 1e-9


def test_scheduler_throughput(client):
    sched = SecondLevelScheduler(client)
    n = 12
    for i in range(n):
        device = ["sc-transmon", "ion-chain", "atom-array"][i % 3]
        sched.enqueue(
            JobRequest(qpi_program(), device, shots=64, priority=i % 2, seed=i)
        )
    rep = sched.drain()
    assert rep.completed == n
    report(
        "E3: second-level scheduler",
        [
            ("jobs", rep.completed),
            ("wall (s)", round(rep.total_wall_s, 3)),
            ("throughput (jobs/s)", round(rep.completed / rep.total_wall_s, 1)),
            ("per-device", rep.per_device_jobs),
        ],
    )


def test_end_to_end_latency(benchmark, client):
    program = qpi_program()

    def submit():
        return run_request(client, JobRequest(program, "sc-transmon", shots=64, seed=1))

    result = benchmark(submit)
    assert sum(result.counts.values()) == 64
