"""Closed-loop HTTP clients in front of a two-process cluster."""

from __future__ import annotations

import math
import tempfile
import threading
from dataclasses import dataclass, field
from statistics import median
from typing import Any

from benchmarks.harness.workloads.base import (
    Verification,
    Workload,
    load_golden,
    op_rng,
)

DEVICES = ("sc-a", "sc-b", "ion-chain", "atom-array")
SHOTS = 256
REQUEST_SEED = 11
N_HOT = 8
#: Share of requests drawn from the hot set; the rest carry a fresh
#: rz angle, so they miss every compile cache.
HOT_SHARE = 0.75
#: Fixed angles of the fresh-circuit golden probes.
PROBE_ANGLES = (0.3, 1.1, 2.5, 4.0)
#: Fresh requests of a run checked against in-process execution.
SPOT_CHECKS = 4


def make_client():
    """The MQSS client over the four devices; each cluster worker
    builds its own."""
    from repro.client import MQSSClient
    from repro.devices import (
        NeutralAtomDevice,
        SuperconductingDevice,
        TrappedIonDevice,
    )
    from repro.qdmi import QDMIDriver

    driver = QDMIDriver()
    driver.register_device(SuperconductingDevice("sc-a", num_qubits=2))
    driver.register_device(SuperconductingDevice("sc-b", num_qubits=2))
    driver.register_device(TrappedIonDevice("ion-chain", num_qubits=2))
    driver.register_device(NeutralAtomDevice("atom-array", num_qubits=2))
    return MQSSClient(driver, persistent_sessions=True)


def hot_circuit(k: int):
    """Hot circuit *k* of 8: every combination of three gate blocks."""
    from repro.qpi import PythonicCircuit

    circuit = PythonicCircuit(2, 2)
    if k & 1:
        circuit.x(0)
    if k & 2:
        circuit.sx(1)
    if k & 4:
        circuit.sx(0).cz(0, 1)
    return circuit.measure(0, 0).measure(1, 1)


def fresh_circuit(theta: float):
    from repro.qpi import PythonicCircuit

    circuit = PythonicCircuit(2, 2).sx(0).rz(0, theta).sx(0)
    return circuit.measure(0, 0).measure(1, 1)


def request(program, device: str):
    from repro.client import JobRequest

    return JobRequest(program, device, shots=SHOTS, seed=REQUEST_SEED)


def in_process(requests) -> list:
    """Results of *requests* through one in-process ``MQSSClient``."""
    from repro.api.core import run_request

    client = make_client()
    try:
        return [run_request(client, r) for r in requests]
    finally:
        client.close()


@dataclass
class ServedState:
    service: Any
    frontend: Any
    client: Any
    hot: dict
    worker_start: dict
    lock: threading.Lock = field(default_factory=threading.Lock)
    #: (request, result) of the first fresh requests, for spot checks.
    fresh: list = field(default_factory=list)


def _worker_totals(metrics: dict) -> tuple[float, float]:
    """``(execute seconds, jobs done)`` summed over the pool's workers."""
    seconds = sum(m.get("execute_seconds", 0.0) for m in metrics.values())
    jobs = sum(m.get("jobs_done", 0.0) for m in metrics.values())
    return seconds, jobs


class ServedCluster(Workload):
    name = "served_http_cluster"
    clients = 2
    # The HTTP handler waits on the job store with 2-50 ms sleeps and
    # idle workers poll it every 20 ms. A tick on a client thread would
    # also time the contention from the cluster's own processes.
    host_scaled = False

    def setup(self, seed: int, work_dir: str) -> ServedState:
        from repro.serving import ClusterService, connect
        from repro.serving.http import serve_http

        store = tempfile.mkdtemp(prefix="jobs-", dir=work_dir) + "/jobs.sqlite3"
        service = ClusterService(make_client, store, num_workers=2)
        frontend = None
        try:
            frontend = serve_http(service)
            client = connect(frontend.address)
            for k in range(N_HOT):
                for device in DEVICES:
                    ticket = client.submit(request(hot_circuit(k), device))
                    client.result(ticket, 60)
            return ServedState(
                service,
                frontend,
                client,
                load_golden(self.name)["hot"],
                service.store.worker_metrics(),
            )
        except BaseException:
            if frontend is not None:
                frontend.stop()
            service.stop()
            raise

    def teardown(self, state: ServedState) -> None:
        state.frontend.stop()
        state.service.stop()

    def prepare(self, state, seed, index):
        rng = op_rng(seed, index)
        if rng.random() < HOT_SHARE:
            key = int(rng.integers(N_HOT))
            program = hot_circuit(key)
        else:
            key = float(rng.uniform(0.0, 2.0 * math.pi))
            program = fresh_circuit(key)
        device = DEVICES[int(rng.integers(len(DEVICES)))]
        return key, request(program, device)

    def op(self, state, inputs):
        client = state.client
        return client.result(client.submit(inputs[1]), 30)

    def check(self, state, inputs, result) -> bool:
        key, req = inputs
        if sum(result.counts.values()) != SHOTS:
            return False
        if isinstance(key, int):
            entry = state.hot[f"{key}/{req.device}"]
            probe = Verification()
            probe.compare_distribution(result.counts, entry["counts"])
            probe.compare_distribution(result.probabilities, entry["probabilities"])
            return probe.mismatches == 0
        with state.lock:
            if len(state.fresh) < SPOT_CHECKS:
                state.fresh.append((req, result))
        return True

    def verify(self, state, window) -> Verification:
        out = Verification(values=self._store_metrics(state, window))
        for entry in load_golden(self.name)["fresh"]:
            req = request(fresh_circuit(entry["theta"]), entry["device"])
            got = state.client.result(state.client.submit(req), 30)
            out.compare_distribution(got.counts, entry["counts"])
            out.compare_distribution(got.probabilities, entry["probabilities"])
        if state.fresh:
            refs = in_process([req for req, _ in state.fresh])
            for (_, got), want in zip(state.fresh, refs):
                out.compare_distribution(got.counts, want.counts)
                out.compare_distribution(got.probabilities, want.probabilities)
        return out

    @staticmethod
    def _store_metrics(state: ServedState, window) -> dict[str, float]:
        """Row lifetimes and attempts from the job store, worker
        execution time from the workers' published counters."""
        rows = [
            row
            for row in state.service.store.jobs(("done",))
            if window[0] <= row["created_at"] <= window[1]
        ]
        if not rows:
            return {}
        lifetimes = [(r["completed_at"] - r["created_at"]) * 1e3 for r in rows]
        lifetime_ms = median(lifetimes)
        seconds0, jobs0 = _worker_totals(state.worker_start)
        seconds1, jobs1 = _worker_totals(state.service.store.worker_metrics())
        execute_ms = (seconds1 - seconds0) / max(jobs1 - jobs0, 1.0) * 1e3
        attempts = sum(r["attempts"] for r in rows) / len(rows)
        return {
            "serving.store.row_lifetime_ms_p50": lifetime_ms,
            "serving.store.attempts_per_job": attempts,
            "serving.worker.execute_ms_per_job": execute_ms,
            "serving.queue_overhead_ms_p50": lifetime_ms - execute_ms,
        }

    def reference(self) -> dict:
        hot_keys = [(k, d) for k in range(N_HOT) for d in DEVICES]
        fresh_keys = [
            (theta, DEVICES[i % len(DEVICES)]) for i, theta in enumerate(PROBE_ANGLES)
        ]
        results = in_process(
            [request(hot_circuit(k), d) for k, d in hot_keys]
            + [request(fresh_circuit(t), d) for t, d in fresh_keys]
        )
        hot = {
            f"{k}/{d}": {"counts": r.counts, "probabilities": r.probabilities}
            for (k, d), r in zip(hot_keys, results)
        }
        fresh = [
            {
                "theta": t,
                "device": d,
                "counts": r.counts,
                "probabilities": r.probabilities,
            }
            for (t, d), r in zip(fresh_keys, results[len(hot_keys) :])
        ]
        return {"hot": hot, "fresh": fresh}
