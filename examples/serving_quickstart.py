"""Serving quickstart: an asynchronous multi-device execution service.

Stands up the serving layer over four heterogeneous QDMI devices and
walks its moving parts: future-like tickets, per-device concurrency,
identical-program coalescing with shot-splitting, the content-addressed
compile cache, capability failover, and the metrics exposition.

Submission goes through the unified two-phase API: a Target built
with ``Target.from_service`` dispatches ``Executable.run_async`` into
the service queues (the deprecated ``service.submit`` shim routes to
the same core).

Run:  PYTHONPATH=src python examples/serving_quickstart.py
"""

import repro
from repro.client import JobRequest, MQSSClient
from repro.devices import (
    NeutralAtomDevice,
    SuperconductingDevice,
    TrappedIonDevice,
)
from repro.qdmi import QDMIDriver
from repro.qdmi.properties import JobStatus
from repro.qpi import PythonicCircuit
from repro.serving import PulseService


class FlakyDevice(SuperconductingDevice):
    """A transmon whose hardware faults on every job (failover demo)."""

    def submit_jobs(self, jobs) -> None:
        for job in jobs:
            job.transition(JobStatus.SUBMITTED)
            job.fail("cryostat warmed up")


def main() -> None:
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


if __name__ == "__main__":
    main()
