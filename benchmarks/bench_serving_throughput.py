"""Serving throughput: PulseService / ClusterService vs. a serial loop.

The serving PR's acceptance experiment: a 4-device mixed workload
(two transmon devices, an ion chain, an atom array) with the repeat
traffic a multi-tenant service actually sees — many requests carrying
the same few programs. The serial baseline executes every request
individually through ``repro.api.core.run_request``, in priority
order (higher first, then FIFO); the service coalesces
identical programs per device, serves compiles from the warm
content-addressed cache, and drains the four device queues with
concurrent workers. Required: >= 4x throughput with a warm cache.

Two more variants ride along:

* **multi-process** (``cluster_speedup``): the same workload through a
  :class:`~repro.serving.cluster.ClusterService` process pool, one
  worker per core (capped at 8).  Simulation is CPU-bound numerics, so
  process workers beat the GIL-shared thread pool; required >= 4x over
  serial on machines with >= 4 cores.  It only runs when the machine
  qualifies (``os.cpu_count() >= 4``) or with ``--cluster``.
* **HTTP round-trip**: submit the same seeded
  request in-process and through a live :mod:`repro.serving.http`
  front-end and require bit-identical counts — the wire tier must
  never change results.

Run directly (the CI smoke mode, which requires >= 1.5x and guards
request coalescing):

    PYTHONPATH=src python benchmarks/bench_serving_throughput.py --quick

The quick mode also gates coalescing by count, which does not move
with host load: the service queues the whole workload before it
starts, so it must run exactly one execution per (device, program).

This file is intentionally named ``bench_*`` so tier-1 pytest does not
collect it; the speedup and round-trip checks live in :func:`main`,
which exits 1 on a failure.
"""

from __future__ import annotations

import argparse
import os
import time

from repro.api.core import run_request
from repro.client import JobRequest, MQSSClient
from repro.devices import (
    NeutralAtomDevice,
    SuperconductingDevice,
    TrappedIonDevice,
)
from repro.qdmi import QDMIDriver
from repro.qpi import PythonicCircuit
from repro.serving import PulseService

DEVICES = ("sc-a", "sc-b", "ion-chain", "atom-array")


def make_driver() -> QDMIDriver:
    driver = QDMIDriver()
    driver.register_device(SuperconductingDevice("sc-a", num_qubits=2))
    driver.register_device(SuperconductingDevice("sc-b", num_qubits=2))
    driver.register_device(TrappedIonDevice("ion-chain", num_qubits=2))
    driver.register_device(NeutralAtomDevice("atom-array", num_qubits=2))
    return driver


def programs() -> list[PythonicCircuit]:
    flip = PythonicCircuit(2, 2).x(0).measure(0, 0).measure(1, 1)
    flip_both = PythonicCircuit(2, 2).x(0).x(1).measure(0, 0).measure(1, 1)
    return [flip, flip_both]


def workload(per_device: int, shots: int) -> list[JobRequest]:
    progs = programs()
    requests = []
    for device in DEVICES:
        for i in range(per_device):
            requests.append(
                JobRequest(
                    progs[i % len(progs)],
                    device,
                    shots=shots,
                    priority=i % 3,
                    seed=11,
                )
            )
    return requests


def unique_requests(shots: int) -> list[JobRequest]:
    return [
        JobRequest(prog, device, shots=shots, seed=11)
        for device in DEVICES
        for prog in programs()
    ]


def bench_serial(per_device: int, shots: int) -> tuple[float, int]:
    driver = make_driver()
    client = MQSSClient(driver)
    for request in unique_requests(shots):  # warm the JIT memo
        run_request(client, request)
    requests = workload(per_device, shots)
    t0 = time.perf_counter()
    # Stable sort: higher priority first, FIFO within a priority.
    ordered = sorted(requests, key=lambda r: -r.priority)
    results = [run_request(client, request) for request in ordered]
    wall = time.perf_counter() - t0
    executions = len(results)
    return wall, executions


def bench_service(per_device: int, shots: int):
    driver = make_driver()
    client = MQSSClient(driver, persistent_sessions=True)
    with PulseService(client) as warmup:
        for ticket in warmup.run(unique_requests(shots), timeout=120):
            ticket.result()

    requests = workload(per_device, shots)
    service = PulseService(client, start=False)
    t0 = time.perf_counter()
    tickets = service.submit_many(requests)
    service.start()
    if not service.flush(timeout=600):
        raise RuntimeError("service did not drain")
    wall = time.perf_counter() - t0
    service.stop()
    for ticket, request in zip(tickets, requests):
        result = ticket.result()
        assert sum(result.counts.values()) == request.shots
    executions = int(service.metrics.get("coalesced_executions")) + sum(
        1 for t in tickets if t.group_size == 1
    )
    stats = service.metrics.snapshot()
    client.close()
    return wall, executions, stats, service


def bench_cluster(per_device: int, shots: int, workers: int, tmpdir: str):
    """The same workload through the multi-process worker pool."""
    from repro.serving import ClusterService

    def factory():
        return MQSSClient(make_driver(), persistent_sessions=True)

    store_path = os.path.join(tmpdir, "bench_cluster.sqlite3")
    requests = workload(per_device, shots)
    with ClusterService(
        factory,
        store_path,
        num_workers=workers,
        chunk_size=max(1, len(requests) // (workers * 4) or 1),
    ) as service:
        # Warm every worker's compile cache (and fork cost) first.
        for ticket in service.run(unique_requests(shots), timeout=300):
            ticket.result()
        t0 = time.perf_counter()
        tickets = service.submit_many(requests)
        if not service.flush(timeout=600):
            raise RuntimeError("cluster did not drain")
        wall = time.perf_counter() - t0
        for ticket, request in zip(tickets, requests):
            assert sum(ticket.result().counts.values()) == request.shots
    return wall


def bench_http_roundtrip(shots: int) -> bool:
    """True when HTTP-transported results are bit-identical."""
    from repro.serving import PulseService, connect
    from repro.serving.http import serve_http

    client = MQSSClient(make_driver(), persistent_sessions=True)
    request = unique_requests(shots)[0]
    with PulseService(client) as service:
        local = connect(service).result(connect(service).submit(request), 120)
        frontend = serve_http(service)
        try:
            via_http = connect(frontend.address).result(
                connect(frontend.address).submit(request), 120
            )
        finally:
            frontend.stop()
    client.close()
    return (
        via_http.counts == local.counts
        and via_http.probabilities == local.probabilities
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small smoke workload (CI); relaxes the speedup assertion",
    )
    parser.add_argument("--per-device", type=int, default=None)
    parser.add_argument("--shots", type=int, default=256)
    parser.add_argument(
        "--cluster",
        action="store_true",
        help="force the multi-process variant even on < 4 cores",
    )
    args = parser.parse_args(argv)

    per_device = args.per_device or (6 if args.quick else 32)
    n_requests = per_device * len(DEVICES)

    serial_s, serial_execs = bench_serial(per_device, args.shots)
    service_s, service_execs, stats, service = bench_service(per_device, args.shots)
    speedup = serial_s / service_s

    print(f"\n--- serving throughput ({n_requests} requests, 4 devices) ---")
    print(f"    serial loop      : {serial_s:.3f} s  ({serial_execs} executions)")
    print(f"    PulseService     : {service_s:.3f} s  ({service_execs} executions)")
    print(f"    speedup          : {speedup:.2f}x")
    cache = service.client.compiler.stats()
    hit_rate = cache["hits"] / max(1, cache["hits"] + cache["misses"])
    print(
        f"    cache hit rate   : {hit_rate:.2f}  "
        f"(hits={cache['hits']}, misses={cache['misses']})"
    )
    print(
        f"    latency p50/p99  : "
        f"{stats.get('total_p50_s', 0) * 1e3:.1f} / "
        f"{stats.get('total_p99_s', 0) * 1e3:.1f} ms"
    )

    cores = os.cpu_count() or 1
    cluster_speedup = None
    if cores >= 4 or args.cluster:
        import tempfile

        workers = min(cores, 8)
        with tempfile.TemporaryDirectory() as tmpdir:
            cluster_s = bench_cluster(per_device, args.shots, workers, tmpdir)
        cluster_speedup = serial_s / cluster_s
        print(
            f"    ClusterService   : {cluster_s:.3f} s  "
            f"({workers} process workers, {cluster_speedup:.2f}x)"
        )
    else:
        print(
            f"    ClusterService   : skipped ({cores} cores < 4; "
            "pass --cluster to force)"
        )
    # The >= 4x cluster contract is for the full workload on a
    # qualifying machine; the quick smoke only proves the pool works.
    cluster_required = 4.0 if cores >= 4 and not args.quick else None

    http_ok = bench_http_roundtrip(args.shots)
    print(f"    HTTP round-trip  : {'bit-identical' if http_ok else 'MISMATCH'}")

    required = 1.5 if args.quick else 4.0
    failed = False
    if speedup < required:
        print(f"FAIL: speedup {speedup:.2f}x below required {required}x")
        failed = True
    expected_execs = min(per_device, len(programs())) * len(DEVICES)
    if args.quick and service_execs != expected_execs:
        print(
            f"FAIL: {service_execs} service executions, expected "
            f"{expected_execs} (one per device and program)"
        )
        failed = True
    if cluster_required is not None and cluster_speedup < cluster_required:
        print(
            f"FAIL: cluster speedup {cluster_speedup:.2f}x "
            f"below required {cluster_required}x"
        )
        failed = True
    if not http_ok:
        print("FAIL: HTTP round-trip results differ from in-process")
        failed = True
    if failed:
        return 1
    print(f"PASS: speedup {speedup:.2f}x >= {required}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
