"""Serving quickstart: an asynchronous multi-device execution service.

Stands up the serving layer over four heterogeneous QDMI devices and
walks its moving parts: future-like tickets, per-device concurrency,
identical-program coalescing with shot-splitting, the content-addressed
compile cache, capability failover, and the metrics exposition. It
ends with a parametric Estimator PUB served by an HTTP front-end over
a two-process cluster: one request that the worker binds as one
family, checked bit for bit against a direct target.

Submission goes through the unified two-phase API: a Target built
with ``Target.from_service`` dispatches ``Executable.run_async`` into
the service queues (``service.submit`` admits through the same core).

Run:  PYTHONPATH=src python examples/serving_quickstart.py
(exits 1 when the served family differs from the direct one)
"""

import sys
import tempfile

import numpy as np

import repro
from repro.client import JobRequest, MQSSClient
from repro.devices import (
    NeutralAtomDevice,
    SuperconductingDevice,
    TrappedIonDevice,
)
from repro.core import ParametricWaveform
from repro.mlir.dialects.pulse import SequenceBuilder
from repro.mlir.ir import print_module
from repro.primitives import Estimator
from repro.qdmi import QDMIDriver
from repro.qdmi.properties import JobStatus
from repro.qpi import PythonicCircuit
from repro.serving import ClusterService, PulseService, serve_http


class FlakyDevice(SuperconductingDevice):
    """A transmon whose hardware faults on every job (failover demo)."""

    def submit_jobs(self, jobs) -> None:
        for job in jobs:
            job.transition(JobStatus.SUBMITTED)
            job.fail("cryostat warmed up")


def make_cluster_client() -> MQSSClient:
    """The client each cluster worker builds: one drift-free transmon."""
    driver = QDMIDriver()
    driver.register_device(SuperconductingDevice("sc-a", num_qubits=2, drift_rate=0.0))
    return MQSSClient(driver, persistent_sessions=True)


def ansatz(device) -> repro.Program:
    """A two-phase pulse ansatz on qubit 0, measured (pulse MLIR)."""
    sb = SequenceBuilder("ansatz")
    drive = sb.add_mixed_frame_arg("d0", device.drive_port(0).name)
    acquire = sb.add_mixed_frame_arg("a0", device.acquire_port(0).name)
    wave = sb.waveform(ParametricWaveform("square", 16, {"amp": 0.2}))
    for name in ("theta0", "theta1"):
        sb.shift_phase(drive, sb.add_scalar_arg(name))
        sb.play(drive, wave)
    sb.barrier(drive, acquire)
    sb.capture(acquire, 0, 8)
    sb.ret()
    return repro.Program.from_mlir(print_module(sb.module))


def served_family() -> bool:
    """One 16-point PUB through HTTP -> cluster; True when its evs equal
    a direct target's bit for bit."""
    print("\n== served family: a parametric PUB over HTTP -> cluster ==")
    device = SuperconductingDevice("sc-a", num_qubits=2, drift_rate=0.0)
    theta = np.linspace(-1.0, 1.0, 16)
    pub = (ansatz(device), "Z", {"theta0": theta, "theta1": 2.0 * theta})
    direct = Estimator(repro.Target.from_device(device)).run([pub])[0].data.evs
    with tempfile.TemporaryDirectory() as tmp:
        store = f"{tmp}/jobs.sqlite3"
        with ClusterService(make_cluster_client, store, num_workers=2) as cluster:
            frontend = serve_http(cluster)
            try:
                target = repro.Target.from_service(frontend.address, "sc-a")
                evs = Estimator(target).run([pub], timeout=60)[0].data.evs
            finally:
                frontend.stop()
            rows = len(cluster.store.jobs(("done",)))
    same = np.array_equal(evs, direct)
    print(f"  {len(theta)} points -> {rows} job row; evs equal direct: {same}")
    return same


def main() -> int:
    # --- the device fleet (paper Fig. 2, bottom row) ---
    driver = QDMIDriver()
    driver.register_device(SuperconductingDevice("sc-a", num_qubits=2))
    driver.register_device(SuperconductingDevice("sc-b", num_qubits=2))
    driver.register_device(TrappedIonDevice("ion-chain", num_qubits=2))
    driver.register_device(NeutralAtomDevice("atom-array", num_qubits=2))
    driver.register_device(FlakyDevice("sc-flaky", num_qubits=2))
    client = MQSSClient(driver, persistent_sessions=True)

    program = PythonicCircuit(2, 2).x(0).measure(0, 0).measure(1, 1)

    with PulseService(client) as service:
        # --- asynchronous submission: tickets come back immediately ---
        print("== async submission across 4 devices ==")
        tickets = [
            repro.compile(
                program, repro.Target.from_service(service, device)
            ).run_async(shots=256, seed=1)
            for device in ("sc-a", "sc-b", "ion-chain", "atom-array")
        ]
        for ticket in tickets:
            result = ticket.result(timeout=60)
            print(
                f"  {result.device:<11} counts={result.counts} "
                f"wait={ticket.wait_s * 1e3:.1f}ms"
            )

        # --- identical programs coalesce into one device execution ---
        # (a paused service queues the whole batch first, so all six
        # requests are guaranteed to be in the coalescing window)
        print("\n== coalescing: 6 identical requests, one execution ==")
        batch_service = PulseService(client, start=False)
        batch = batch_service.submit_many(
            [JobRequest(program, "sc-a", shots=100, seed=7) for _ in range(6)]
        )
        batch_service.start()
        batch_service.flush(timeout=60)
        batch_service.stop()
        sizes = {t.group_size for t in batch}
        print(f"  group sizes: {sizes}, per-request shots all 100:",
              all(sum(t.result().counts.values()) == 100 for t in batch))

        # --- the client's warm compile cache skips the JIT pipeline ---
        # (both services compile through the same client compiler)
        print("\n== compile cache ==")
        cache = client.compiler.stats()
        hit_rate = cache["hits"] / max(1, cache["hits"] + cache["misses"])
        print(
            f"  entries={cache['size']} hits={cache['hits']}"
            f" misses={cache['misses']} hit_rate={hit_rate:.2f}"
        )

        # --- failover: a faulting device retries on an equivalent ---
        print("\n== failover ==")
        flaky = repro.Target.from_service(service, "sc-flaky")
        ticket = repro.compile(program, flaky).run_async(shots=64, seed=1)
        result = ticket.result(timeout=60)
        print(
            f"  requested sc-flaky -> executed on {result.device} "
            f"(attempts={ticket.attempts})"
        )

        # --- the operator's view ---
        print("\n== metrics exposition (excerpt) ==")
        label = f'service="{service.metrics.name}"'
        for line in repro.obs.exposition().splitlines():
            if label in line and "_bucket" not in line:
                print(" ", line)

    client.close()
    return 0 if served_family() else 1


if __name__ == "__main__":
    sys.exit(main())
