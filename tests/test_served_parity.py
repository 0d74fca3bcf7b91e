"""Differential tests: a PulseService target equals a direct target.

A served primitive run queues each shot group as one sweep entry and
executes it as one batched device execution, every point on its own
seeded stream — the same batch a direct target hands to
``ScheduleExecutor.execute_batch``. So the two must agree exactly, not
within a tolerance: bitwise-equal expectation values at ``shots=0``
and equal seeded counts on generated schedules (the frame-event and
play strategies of ``test_phase_covariance``), equal task results for
a full calibration DAG, and equal results for a cluster sweep chunk.
The ``served_http_cluster`` topology (an HTTP front-end over a
``ClusterService``) returns results bitwise equal to a direct client
and carries cancellation, typed errors and re-attachment after a
restart end to end. On every target a primitive's shot group is one
family batch: no point is specialized, one execution runs, and a
served run is one request. A cluster or HTTP target sends the programs
with their value matrices, the worker binds them as one family, and
the evs (at ``shots=0``) and seeded counts equal a direct target's bit
for bit, for circuit and parametric PUBs; a bad point raises the
direct target's typed error. A remote (QIR) client target runs one job
per member and matches direct to 1e-12 with equal seeded counts.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_phase_covariance import PROFILE, SC, Case, build_schedule, programs
from test_api import parametric_kernel
from test_serving_cluster import FailingDevice
from test_slotted_families import amplitude_program, delay_program

import repro
from repro.api.executable import Executable
from repro.client import JobRequest, MQSSClient, RemoteDeviceProxy
from repro.core import PulseSchedule
from repro.devices import SuperconductingDevice
from repro.errors import CancelledError, ExecutionError, PassError, ValidationError
from repro.pipeline import PipelineRunner, full_calibration_dag
from repro.primitives import Estimator, Observable, Sampler
from repro.qdmi import QDMIDriver
from repro.qpi import PythonicCircuit
from repro.sim.executor import ScheduleExecutor
from repro.serving import (
    ClusterService,
    PulseService,
    SweepRequest,
    TicketState,
    connect,
    serve_http,
)


def transmons(num_qubits: int, **kwargs):
    return lambda: SuperconductingDevice(
        "dev", num_qubits=num_qubits, drift_rate=0.0, **kwargs
    )


#: Transmon devices: they accept the raw sampled envelopes the
#: strategies draw (the ion and atom families legalize them away).
DEVICES = {
    "sc1-closed": transmons(1),
    "sc2-closed": transmons(2),
    "sc2-lindblad": transmons(2, with_decoherence=True, t1=20e-6, t2=15e-6),
}


def measured_schedules(data, device, k=3):
    """k generated frame-event/play schedules, every site measured."""
    case = Case("served", None, **SC)
    n = min(2, device.config.num_sites)
    ports = [
        (device.drive_port(q), device.default_frame(device.drive_port(q)))
        for q in range(n)
    ]
    schedules = []
    for _ in range(k):
        steps = data.draw(programs(n, case.max_len))
        schedule = build_schedule(ports, steps, case)
        for slot in range(n):
            device.calibrations.get("measure", (slot,)).apply(schedule, [slot])
        schedules.append(schedule)
    return schedules


def served(device):
    """A started PulseService over a client that owns only *device*."""
    driver = QDMIDriver()
    driver.register_device(device)
    client = MQSSClient(driver, persistent_sessions=True)
    return client, PulseService(client)


def observables(device):
    n = min(2, device.config.num_sites)
    return [Observable.z(slot) for slot in range(n)] + ["Z" * n]


@pytest.mark.parametrize("name", sorted(DEVICES))
@PROFILE
@given(data=st.data())
def test_estimator_evs_are_bitwise_equal(name, data):
    direct_device, served_device = DEVICES[name](), DEVICES[name]()
    schedules = measured_schedules(data, direct_device)
    pubs = [
        (repro.Program.from_schedule(s), observables(direct_device))
        for s in schedules
    ]
    direct = Estimator(repro.Target.from_device(direct_device), shots=0).run(pubs)
    client, service = served(served_device)
    try:
        target = repro.Target.from_service(service, served_device.name)
        remote = Estimator(target, shots=0).run(pubs)
        # One sweep for the whole run: a single batched device execution.
        assert service.metrics.snapshot()["execute_count"] == 1
    finally:
        service.stop()
        client.close()
    for a, b in zip(direct, remote):
        np.testing.assert_array_equal(a.data.evs, b.data.evs)


@pytest.mark.parametrize("name", ["sc2-closed", "sc2-lindblad"])
@PROFILE
@given(data=st.data())
def test_seeded_sampler_counts_are_equal(name, data):
    direct_device, served_device = DEVICES[name](), DEVICES[name]()
    schedules = measured_schedules(data, direct_device)
    pubs = [repro.Program.from_schedule(s) for s in schedules]
    direct = Sampler(repro.Target.from_device(direct_device), seed=11).run(
        pubs, shots=64
    )
    client, service = served(served_device)
    try:
        target = repro.Target.from_service(service, served_device.name)
        remote = Sampler(target, seed=11).run(pubs, shots=64)
    finally:
        service.stop()
        client.close()
    for a, b in zip(direct, remote):
        assert list(a.data.counts.flat) == list(b.data.counts.flat)
        assert list(a.data.probabilities.flat) == list(b.data.probabilities.flat)


def x_schedule(device):
    schedule = PulseSchedule("x")
    device.calibrations.get("x", (0,)).apply(schedule, [])
    device.calibrations.get("measure", (0,)).apply(schedule, [0])
    return schedule


def test_identical_points_sample_their_own_streams():
    """Identical points of one run no longer coalesce into a shot split:
    each samples its own seeded stream, exactly as direct dispatch."""
    direct_device, served_device = DEVICES["sc1-closed"](), DEVICES["sc1-closed"]()
    pubs = [repro.Program.from_schedule(x_schedule(direct_device))] * 4
    direct = Sampler(repro.Target.from_device(direct_device), seed=3).run(
        pubs, shots=100
    )
    client, service = served(served_device)
    try:
        target = repro.Target.from_service(service, served_device.name)
        remote = Sampler(target, seed=3).run(pubs, shots=100)
    finally:
        service.stop()
        client.close()
    assert service.metrics.get("coalesced_executions") == 0
    for a, b in zip(direct, remote):
        assert a.data.counts.flat[0] == b.data.counts.flat[0]
        assert sum(b.data.counts.flat[0].values()) == 100


def test_full_calibration_dag_served_equals_direct():
    def drifted():
        device = SuperconductingDevice("sc-cal", num_qubits=1, seed=3, drift_rate=2e4)
        device.advance_time(60.0)
        return device

    dag = full_calibration_dag(include_drag=False)
    direct_device = drifted()
    direct = PipelineRunner(direct_device).run(dag, run_id="direct", seed=5)
    served_device = drifted()
    client, service = served(served_device)
    try:
        runner = PipelineRunner(service, device=served_device)
        assert runner.dispatch == "service"
        remote = runner.run(dag, run_id="served", seed=5)
    finally:
        service.stop()
        client.close()
    assert direct.ok and remote.ok
    assert remote.results == direct.results
    assert served_device.believed_frequency(0) == direct_device.believed_frequency(0)


def make_cluster_client() -> MQSSClient:
    driver = QDMIDriver()
    driver.register_device(SuperconductingDevice("sc-a", num_qubits=2, drift_rate=0.0))
    return MQSSClient(driver, persistent_sessions=True)


def rotation(angle):
    c = PythonicCircuit(2, 2).sx(0).rz(0, angle).sx(0)
    c.sx(1).rz(1, 2 * angle).sx(1)
    return c.measure(0, 0).measure(1, 1)


def test_cluster_sweep_chunk_equals_direct(tmp_path):
    angles = [0.3, 0.9, 1.7]
    client = make_cluster_client()
    requests = [JobRequest(rotation(a), "sc-a", shots=64, seed=9) for a in angles]
    direct = [client.execute_compiled(r, client.compile_request(r)) for r in requests]
    sweep = SweepRequest(
        build=rotation, parameters=angles, device="sc-a", shots=64, seed=9
    )
    with ClusterService(
        make_cluster_client,
        str(tmp_path / "jobs.sqlite3"),
        num_workers=1,
        chunk_size=len(angles),
    ) as svc:
        results = svc.submit_sweep(sweep).results(60)
    for a, b in zip(direct, results):
        assert b.counts == a.counts
        assert b.probabilities == a.probabilities


# ---- served_http_cluster: HTTP front-end over a 1-worker cluster ---------------------


def make_http_cluster_client() -> MQSSClient:
    client = make_cluster_client()
    client.driver.register_device(FailingDevice("sc-bad", num_qubits=2))
    return client


@pytest.fixture(scope="module")
def http_cluster(tmp_path_factory):
    """``(HTTP client, direct client)`` over one started 1-worker cluster."""
    store = str(tmp_path_factory.mktemp("http-cluster") / "jobs.sqlite3")
    direct = make_cluster_client()
    with ClusterService(make_http_cluster_client, store, num_workers=1) as svc:
        frontend = serve_http(svc)
        try:
            yield connect(frontend.address), direct
        finally:
            frontend.stop()
    direct.close()


@PROFILE
@given(data=st.data())
def test_http_cluster_results_equal_direct(http_cluster, data):
    http, direct = http_cluster
    device = SuperconductingDevice("sc-a", num_qubits=2, drift_rate=0.0)
    requests = [
        JobRequest(
            schedule,
            "sc-a",
            shots=data.draw(st.integers(1, 256)),
            seed=data.draw(st.integers(0, 2**31 - 1)),
        )
        for schedule in measured_schedules(data, device, k=2)
    ]
    tickets = [http.submit(r) for r in requests]
    for request, ticket in zip(requests, tickets):
        want = direct.execute_compiled(request, direct.compile_request(request))
        got = ticket.result(60)
        assert got.counts == want.counts
        assert got.probabilities == want.probabilities


def test_http_cluster_failure_raises_typed_error(http_cluster):
    http, _ = http_cluster
    ticket = http.submit(JobRequest(rotation(0.4), "sc-bad", shots=16, seed=1))
    with pytest.raises(ExecutionError, match="synthetic hardware fault"):
        ticket.result(60)
    assert ticket.status() is TicketState.FAILED


def test_http_cluster_cancel_before_start(tmp_path):
    svc = ClusterService(
        make_cluster_client, str(tmp_path / "jobs.sqlite3"), num_workers=1, start=False
    )
    frontend = serve_http(svc)
    try:
        ticket = connect(frontend.address).submit(
            JobRequest(rotation(0.4), "sc-a", shots=16, seed=1)
        )
        assert ticket.cancel() is True
        assert ticket.status() is TicketState.CANCELLED
        with pytest.raises(CancelledError):
            ticket.result(10)
    finally:
        frontend.stop()


def test_http_cluster_ticket_reattaches_after_restart(tmp_path):
    """The front end keeps no ticket the cluster's store re-attaches:
    after N requests its registry is empty, and every result resolves
    by id after completion and again after a restart."""
    store = str(tmp_path / "jobs.sqlite3")
    requests = [JobRequest(rotation(a), "sc-a", shots=64, seed=3) for a in (0.2, 1.3)]
    svc = ClusterService(make_cluster_client, store, num_workers=1)
    frontend = serve_http(svc)
    try:
        http = connect(frontend.address)
        done = http.submit(requests[0])
        first = done.result(60)
        more = [
            http.submit(JobRequest(rotation(a), "sc-a", shots=16, seed=4))
            for a in np.linspace(0.1, 0.9, 5)
        ]
        settled = [ticket.result(60) for ticket in more]
        assert frontend.client._tickets == {}
        assert http.result(done.id, 60).counts == first.counts
    finally:
        frontend.stop()
        svc.stop()
    # A second row is admitted while no worker runs: the restart drains it.
    staging = ClusterService(make_cluster_client, store, num_workers=1, start=False)
    queued = staging.submit(requests[1])
    with ClusterService(make_cluster_client, store, num_workers=1) as restarted:
        frontend = serve_http(restarted)
        try:
            http = connect(frontend.address)
            replay = http.result(done.id, 60)
            drained = http.result(queued.id, 60)
            replays = [http.result(ticket.id, 60) for ticket in more]
            assert frontend.client._tickets == {}
        finally:
            frontend.stop()
    assert [r.counts for r in replays] == [r.counts for r in settled]
    assert replay.counts == first.counts
    assert replay.probabilities == first.probabilities
    assert restarted.store.get(done.id)["attempts"] == 1  # replayed, not re-run
    direct = make_cluster_client()
    want = direct.execute_compiled(requests[1], direct.compile_request(requests[1]))
    direct.close()
    assert drained.counts == want.counts
    assert drained.probabilities == want.probabilities


# ---- primitives over detached targets: one request per shot group -------------------


@pytest.fixture(scope="module")
def detached_targets(tmp_path_factory):
    """``{"cluster": ..., "http": ...}`` targets over one 1-worker
    cluster serving ``sc-a``; the HTTP one through a front-end."""
    store = str(tmp_path_factory.mktemp("detached") / "jobs.sqlite3")
    with ClusterService(make_cluster_client, store, num_workers=1) as svc:
        frontend = serve_http(svc)
        try:
            yield {
                "cluster": repro.Target.from_service(svc, "sc-a"),
                "http": repro.Target.from_service(connect(frontend.address), "sc-a"),
            }
        finally:
            frontend.stop()


def parity_pub(kind: str, device):
    """``(program, parameter values)``: a circuit, or a parametric
    pulse-MLIR kernel over three points."""
    if kind == "circuit":
        return repro.Program.coerce(rotation(0.7)), None
    program = repro.Program.from_mlir(parametric_kernel(device, 2))
    return program, {"theta0": [0.1, 0.9, -1.3], "theta1": [0.4, 2.0, 0.0]}


@pytest.mark.parametrize("transport", ["cluster", "http"])
@pytest.mark.parametrize("kind", ["circuit", "parametric"])
def test_detached_estimator_equals_direct(detached_targets, transport, kind):
    device = SuperconductingDevice("sc-a", num_qubits=2, drift_rate=0.0)
    program, values = parity_pub(kind, device)
    observables = ["ZI", "IZ", "ZZ"] if kind == "circuit" else "Z"
    pub = (program, observables) if values is None else (program, observables, values)
    direct = Estimator(repro.Target.from_device(device)).run([pub])[0]
    estimator = Estimator(detached_targets[transport])
    got = estimator.run([pub], timeout=60)[0]
    assert got.metadata["dispatch"] == "service"
    np.testing.assert_array_equal(got.data.evs, direct.data.evs)


@pytest.mark.parametrize("transport", ["cluster", "http"])
@pytest.mark.parametrize("kind", ["circuit", "parametric"])
def test_detached_sampler_counts_equal_direct(detached_targets, transport, kind):
    device = SuperconductingDevice("sc-a", num_qubits=2, drift_rate=0.0)
    program, values = parity_pub(kind, device)
    pub = (program,) if values is None else (program, values)
    direct = Sampler(repro.Target.from_device(device), seed=5).run([pub], shots=128)
    sampler = Sampler(detached_targets[transport], seed=5)
    got = sampler.run([pub], shots=128, timeout=60)[0]
    assert list(got.data.counts.flat) == list(direct[0].data.counts.flat)
    assert list(got.data.probabilities.flat) == list(direct[0].data.probabilities.flat)


@pytest.mark.parametrize(
    ("kind", "values", "error"),
    [
        ("amplitude", [0.5, 1.5], PassError),
        ("delay", [40.0, -40.0], ValidationError),
        ("delay", [40.0, 41.5], ValidationError),
    ],
    ids=["over-amplitude", "negative-delay", "fractional-delay"],
)
@pytest.mark.parametrize("transport", ["cluster", "http"])
def test_detached_bad_point_raises_the_direct_error(
    detached_targets, transport, kind, values, error
):
    """A point the template rejects sends the worker down the per-point
    bind, whose typed error crosses the cluster and HTTP as on a direct
    target."""
    device = SuperconductingDevice("sc-a", num_qubits=2, drift_rate=0.0)
    program = (amplitude_program if kind == "amplitude" else delay_program)(device)
    pub = (program, "Z", {program.parameters[0]: values})
    direct = repro.Target.from_device(device)
    assert repro.compile(program, direct).bind_many(np.c_[values]) is None
    with pytest.raises(error) as want:
        Estimator(direct).run([pub])
    with pytest.raises(error) as got:
        Estimator(detached_targets[transport]).run([pub], timeout=60)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("transport", ["cluster", "http"])
def test_detached_zero_point_pub_beside_a_full_one(detached_targets, transport):
    device = SuperconductingDevice("sc-a", num_qubits=2, drift_rate=0.0)
    program = repro.Program.from_mlir(parametric_kernel(device, 2))
    pubs = [
        (program, "Z", {"theta0": np.zeros(0), "theta1": np.zeros(0)}),
        (program, "Z", {"theta0": [0.1, 0.9], "theta1": [0.4, 2.0]}),
    ]
    direct = Estimator(repro.Target.from_device(device)).run(pubs)
    got = Estimator(detached_targets[transport]).run(pubs, timeout=60)
    assert got[0].data.evs.shape == (0,)
    for a, b in zip(got, direct):
        np.testing.assert_array_equal(a.data.evs, b.data.evs)


# ---- a remote (QIR) device: one job per member, stacked into the family --------------


def make_remote_client() -> MQSSClient:
    driver = QDMIDriver()
    driver.register_device(
        RemoteDeviceProxy(
            SuperconductingDevice("sc-a", num_qubits=2, drift_rate=0.0), latency_s=0.0
        )
    )
    return MQSSClient(driver, persistent_sessions=True)


@pytest.mark.parametrize("kind", ["circuit", "parametric"])
def test_remote_client_target_equals_direct(kind):
    device = SuperconductingDevice("sc-a", num_qubits=2, drift_rate=0.0)
    program, values = parity_pub(kind, device)
    client = make_remote_client()
    remote = repro.Target.from_client(client, "remote:sc-a")
    direct = repro.Target.from_device(device)
    observables = ["ZI", "IZ", "ZZ"] if kind == "circuit" else "Z"
    pub = (program, observables) if values is None else (program, observables, values)
    got = Estimator(remote).run([pub])[0]
    want = Estimator(direct).run([pub])[0]
    assert got.metadata["dispatch"] == "client"
    np.testing.assert_allclose(got.data.evs, want.data.evs, rtol=0, atol=1e-12)
    pub = (program,) if values is None else (program, values)
    got = Sampler(remote, seed=5).run([pub], shots=128)[0]
    want = Sampler(direct, seed=5).run([pub], shots=128)[0]
    assert list(got.data.counts.flat) == list(want.data.counts.flat)
    client.close()


# ---- one 64-point parametric PUB: one bound family on every target -------------------


@pytest.fixture
def call_log(tmp_path, monkeypatch):
    """Spies on the bind, compile and execute steps. Each call appends
    a line to a file, so cluster workers forked after this fixture
    report theirs too; the fixture returns a reader of the counts."""
    import collections

    import repro.api.executable as executable_module
    from repro.compiler.jit import JITCompiler
    from repro.core.schedule import ScheduleFamily

    path = tmp_path / "calls.log"

    def spy(owner, name, tag):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            with open(path, "a") as log:
                log.write(tag(*args) + "\n")
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    spy(executable_module, "_build_template", lambda *a: "trace")
    spy(JITCompiler, "_compile_cold", lambda *a: "cold")
    spy(Executable, "bind", lambda *a: "bind")
    spy(ScheduleFamily, "member", lambda *a: "member")

    def batch_tag(self, schedules):
        families = getattr(schedules, "families", [schedules])
        return f"execute:{len(families)}x{len(schedules)}"

    spy(ScheduleExecutor, "execute_batch", batch_tag)
    return lambda: collections.Counter(
        path.read_text().split() if path.exists() else []
    )


def sweep_pub(device, offset):
    """A 64-point parametric PUB; *offset* makes its points fresh."""
    program = repro.Program.from_mlir(parametric_kernel(device, 2))
    theta = np.linspace(-1.0, 1.0, 64) + offset
    return (program, "Z", {"theta0": theta, "theta1": 0.5 * theta})


def test_a_parametric_pub_is_one_family_on_every_target(call_log, tmp_path):
    """A 64-point PUB binds once and runs as one family of 64 on every
    target: one template trace, one execution of one family, no member
    schedule, no cold compile (a bound batch is checked against the
    device's constraints and run as it stands), and evs bitwise equal
    to a direct target's. A cluster or HTTP target is one store row
    and one worker request; a remote device runs 64 QIR jobs, binds no
    point and evolves them as one batched pass."""
    device = SuperconductingDevice("sc-a", num_qubits=2, drift_rate=0.0)
    client = make_cluster_client()
    service = PulseService(client)
    cluster = ClusterService(
        make_cluster_client, str(tmp_path / "jobs.sqlite3"), num_workers=1
    )
    frontend = serve_http(cluster)
    remote_client = make_remote_client()
    targets = {
        "direct": repro.Target.from_device(device),
        "client": repro.Target.from_client(client, "sc-a"),
        "service": repro.Target.from_service(service, "sc-a"),
        "cluster": repro.Target.from_service(cluster, "sc-a"),
        "http": repro.Target.from_service(connect(frontend.address), "sc-a"),
    }
    try:
        reference = Estimator(repro.Target.from_device(DEVICES["sc2-closed"]()))
        for offset, (name, target) in enumerate(targets.items()):
            want = reference.run([sweep_pub(device, offset)])[0].data.evs
            before = call_log()
            rows = len(cluster.store.jobs(("done",)))
            requests = sum(
                m["requests_done"] for m in cluster.store.worker_metrics().values()
            )
            evs = Estimator(target).run([sweep_pub(device, offset)], timeout=60)
            calls = call_log() - before
            assert calls == {"trace": 1, "execute:1x64": 1}, name
            if name in ("cluster", "http"):
                assert len(cluster.store.jobs(("done",))) == rows + 1
                done = cluster.store.worker_metrics().values()
                assert sum(m["requests_done"] for m in done) == requests + 1
            np.testing.assert_array_equal(evs[0].data.evs, want)
        remote = repro.Target.from_client(remote_client, "remote:sc-a")
        before = call_log()
        Estimator(remote).run([sweep_pub(device, 0.0)])
        calls = call_log() - before
        assert remote_client.driver.get_device("remote:sc-a").telemetry["jobs"] == 64
        assert calls["bind"] == 0 and calls["trace"] == 1 and calls["cold"] == 0
        executions = {k: n for k, n in calls.items() if k.startswith("execute:")}
        assert executions == {"execute:1x64": 1}
    finally:
        frontend.stop()
        cluster.stop()
        service.stop()
        client.close()
        remote_client.close()


# ---- direct and in-process service: one family batch per shot group ------------------


def readout_pubs(device):
    """Two schedule programs shaped like ``readout_scan``: measure |0>,
    then x and measure."""
    ground = PulseSchedule("confusion-0")
    device.calibrations.get("measure", (0,)).apply(ground, [0])
    excited = x_schedule(device)
    return [repro.Program.from_schedule(s) for s in (ground, excited)]


@pytest.mark.parametrize("on_service", [False, True])
def test_pub_groups_run_as_one_family_batch(monkeypatch, on_service):
    """A parametric PUB and a run of two schedule PUBs each specialize
    no point and run as one execution; on a service, as one request."""
    device = DEVICES["sc1-closed"]()
    program = repro.Program.from_mlir(parametric_kernel(device, 2))
    grid = {"theta0": np.linspace(-1, 1, 8), "theta1": np.linspace(0, 2, 8)}
    specialized, batches, tickets = [], [], []
    real_specialize = Executable.specialize
    real_batch = ScheduleExecutor.execute_batch

    def specialize(self, *args, **kwargs):
        specialized.append(args)
        return real_specialize(self, *args, **kwargs)

    def execute_batch(self, schedules, **kwargs):
        batches.append(schedules)
        return real_batch(self, schedules, **kwargs)

    monkeypatch.setattr(Executable, "specialize", specialize)
    monkeypatch.setattr(ScheduleExecutor, "execute_batch", execute_batch)
    service = client = None
    if on_service:
        client, service = served(device)
        real_submit = service.submit_sweep

        def submit_sweep(sweep):
            tickets.append(real_submit(sweep))
            return tickets[-1]

        monkeypatch.setattr(service, "submit_sweep", submit_sweep)
        target = repro.Target.from_service(service, device.name)
    else:
        target = repro.Target.from_device(device)
    try:
        runs = [
            lambda: Estimator(target).run([(program, "Z", grid)], timeout=60),
            lambda: Sampler(target, seed=2).run(
                readout_pubs(device), shots=256, timeout=60
            ),
        ]
        for n, run in enumerate(runs, start=1):
            run()
            assert specialized == []
            assert len(batches) == n
            assert not isinstance(batches[-1], list)
            if on_service:
                assert len(tickets) == n and len(tickets[-1]) == 1
                assert service.metrics.snapshot()["execute_count"] == n
    finally:
        if on_service:
            service.stop()
            client.close()
    assert len(batches[0]) == 8
    assert [len(f) for f in batches[1].families] == [1, 1]
