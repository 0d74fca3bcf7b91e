"""Tests: the repro.pipeline subsystem (durable closed-loop calibration).

Covers the acceptance surface of the pipeline PR: DAG shape validation
and deterministic ready-set order, the SQLite-WAL run store (durable
file and ephemeral temporary file), SeedSequence-derived per-task seeds stable
under retry and resume, the runner's retry/timeout/failure semantics,
replay-based resume reconstructing identical device state (including a
subprocess SIGKILLed mid-campaign), batched-experiment parity with the
single-site reference runs, calibration-epoch cache invalidation with
an end-to-end staleness check through a live PulseService, and the
trigger policies (interval, drift budget, staleness).
"""

from __future__ import annotations

import importlib
import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.client import JobRequest, MQSSClient
from repro.devices import SuperconductingDevice
from repro.errors import PipelineError, ValidationError
from repro.obs.metrics import REGISTRY
from repro.pipeline import (
    DAG,
    DriftBudgetTrigger,
    PipelineRunner,
    PipelineStore,
    campaign_dag,
    commit_writeback,
    derive_task_seeds,
    frequency_tracking_dag,
    full_calibration_dag,
    register_task,
)
from repro.pipeline.dag import TASK_TYPES, TaskSpec, task_type
from repro.qdmi import QDMIDriver
from repro.qpi import PythonicCircuit
from repro.serving import PulseService, TicketState


# ---- test-only task kinds ------------------------------------------------------------

if "echo" not in TASK_TYPES:

    @register_task("echo", "control")
    def _echo(ctx, params, seed, upstream):
        return {
            "params": dict(params),
            "seed": seed,
            "upstream": sorted(upstream),
        }

    @register_task("flaky", "control")
    def _flaky(ctx, params, seed, upstream):
        attempts = ctx.extras.setdefault("flaky_seeds", [])
        attempts.append(seed)
        if len(attempts) < int(params.get("succeed_on", 2)):
            raise RuntimeError("transient failure")
        return {"seed": seed, "attempt": len(attempts)}

    @register_task("gate", "control")
    def _gate(ctx, params, seed, upstream):
        if ctx.extras.get("fail"):
            raise RuntimeError("injected failure")
        return {"seed": seed}

    @register_task("nap", "control")
    def _nap(ctx, params, seed, upstream):
        time.sleep(float(params.get("seconds", 0.2)))
        return {}


def sc(num_qubits: int = 1, seed: int = 3, **kw) -> SuperconductingDevice:
    return SuperconductingDevice("sc", num_qubits=num_qubits, seed=seed, **kw)


# ---- DAG shape -----------------------------------------------------------------------


class TestDAG:
    def diamond(self) -> DAG:
        dag = DAG("diamond")
        dag.task("a", "echo")
        dag.task("b", "echo", after=("a",))
        dag.task("c", "echo", after=("a",))
        dag.task("d", "echo", after=("b", "c"))
        return dag

    def test_topological_order_is_insertion_stable(self):
        assert self.diamond().topological_order() == ["a", "b", "c", "d"]

    def test_ready_set(self):
        dag = self.diamond()
        assert dag.ready(()) == ["a"]
        assert dag.ready(("a",)) == ["b", "c"]
        assert dag.ready(("a", "b")) == ["c"]
        assert dag.ready(("a", "b", "c")) == ["d"]
        assert dag.ready(("a",), exclude=("b",)) == ["c"]

    def test_cycle_is_rejected(self):
        dag = DAG("cyclic")
        dag.add(TaskSpec("a", "echo", after=("b",)))
        dag.add(TaskSpec("b", "echo", after=("a",)))
        with pytest.raises(PipelineError, match="cycle"):
            dag.topological_order()

    def test_unknown_dependency_is_rejected(self):
        dag = DAG("dangling")
        dag.task("a", "echo", after=("ghost",))
        with pytest.raises(PipelineError, match="unknown task 'ghost'"):
            dag.validate()

    def test_duplicate_name_is_rejected(self):
        dag = DAG("dup")
        dag.task("a", "echo")
        with pytest.raises(PipelineError, match="already has a task"):
            dag.task("a", "echo")

    def test_unknown_kind_raises_at_resolution(self):
        with pytest.raises(PipelineError, match="unknown task kind"):
            task_type("no-such-kind")

    def test_bad_category_is_rejected(self):
        with pytest.raises(PipelineError, match="unknown task category"):
            register_task("bad", "nonsense")

    def test_json_round_trip(self):
        dag = self.diamond()
        dag["d"]  # sanity: lookup works
        back = DAG.from_json(dag.to_json())
        assert back.name == dag.name
        assert [t.to_json() for t in back.tasks] == [
            t.to_json() for t in dag.tasks
        ]
        assert back.topological_order() == dag.topological_order()

    def test_builders_validate(self):
        for dag in (
            frequency_tracking_dag(rounds=2),
            full_calibration_dag(),
            campaign_dag(4, 60.0, calibration_interval_s=120.0),
        ):
            dag.validate()
            assert len(dag.topological_order()) == len(dag)


# ---- seeds ---------------------------------------------------------------------------


class TestSeeds:
    def test_spawned_seeds_are_unique_and_deterministic(self):
        order = [f"t{i}" for i in range(500)]
        seeds = derive_task_seeds(42, order)
        again = derive_task_seeds(42, order)
        assert seeds == again
        assert len(set(seeds.values())) == len(order)
        assert derive_task_seeds(43, order) != seeds

    def test_seed_reused_across_retries(self):
        dag = DAG("retry")
        dag.task("t", "flaky", {"succeed_on": 3}, max_attempts=3)
        runner = PipelineRunner(sc())
        run = runner.run(dag, seed=5)
        assert run.ok
        tried = runner.extras["flaky_seeds"]
        assert len(tried) == 3
        assert len(set(tried)) == 1  # same seed on every attempt
        assert run.result("t")["seed"] == tried[0]
        row = runner.store.tasks(run.run_id)["t"]
        assert row["seed"] == tried[0]
        assert row["attempts"] == 3


# ---- stores --------------------------------------------------------------------------


@pytest.fixture(params=["file", "ephemeral"])
def store(request, tmp_path):
    if request.param == "file":
        store = PipelineStore(str(tmp_path / "runs.db"))
    else:
        store = PipelineStore()
    yield store
    store.close()


class TestStore:
    def make_run(self, store) -> DAG:
        dag = DAG("d")
        dag.task("a", "echo")
        dag.task("b", "echo", after=("a",))
        store.create_run("r1", dag, seed=7, task_seeds={"a": 11, "b": 22})
        return dag

    def test_create_and_load(self, store):
        dag = self.make_run(store)
        run = store.get_run("r1")
        assert run["state"] == "pending" and run["seed"] == 7
        assert store.load_dag("r1").topological_order() == dag.topological_order()
        rows = store.tasks("r1")
        assert rows["a"]["seed"] == 11 and rows["b"]["seed"] == 22
        assert [r["id"] for r in store.runs(("pending", "running"))] == ["r1"]

    def test_task_lifecycle(self, store):
        self.make_run(store)
        assert store.mark_task_running("r1", "a") == 1
        store.complete_task("r1", "a", {"x": 1})
        assert store.mark_task_running("r1", "b") == 1
        assert store.mark_task_running("r1", "b") == 2
        store.fail_task("r1", "b", "boom")
        rows = store.tasks("r1")
        assert rows["a"]["state"] == "done" and rows["a"]["result"] == {"x": 1}
        assert rows["b"]["state"] == "failed" and rows["b"]["error"] == "boom"
        assert store.counts_by_state("r1") == {"done": 1, "failed": 1}
        store.set_run_state("r1", "failed", error="task b failed")
        assert store.runs(("pending", "running")) == []

    def test_duplicate_run_rejected(self, store):
        dag = self.make_run(store)
        with pytest.raises(PipelineError, match="already exists"):
            store.create_run("r1", dag, seed=7, task_seeds={})
        # The failed create rolled back: the original rows are intact.
        assert store.tasks("r1")["a"]["seed"] == 11

    def test_unknown_lookups(self, store):
        assert store.get_run("ghost") is None
        with pytest.raises(PipelineError):
            store.load_dag("ghost")
        self.make_run(store)
        with pytest.raises(PipelineError):
            store.mark_task_running("r1", "ghost")
        with pytest.raises(PipelineError, match="unknown task"):
            store.complete_task("r1", "ghost", {})
        with pytest.raises(PipelineError, match="unknown task"):
            store.fail_task("ghost-run", "a", "boom")

    def test_memory_path_points_to_ephemeral_store(self):
        with pytest.raises(PipelineError, match=r"PipelineStore\(\)"):
            PipelineStore(":memory:")

    def test_ephemeral_files_removed_on_close(self):
        store = PipelineStore()
        self.make_run(store)
        store.mark_task_running("r1", "a")
        path = store.path
        assert os.path.exists(path) and os.path.exists(path + "-wal")
        store.close()
        for suffix in ("", "-wal", "-shm"):
            assert not os.path.exists(path + suffix)

    def test_concurrent_runs_share_one_ephemeral_store(self):
        store = PipelineStore()
        dag = DAG("wide")
        for i in range(6):
            dag.task(f"t{i}", "echo", params={"i": i})
        dag.task("join", "echo", after=tuple(f"t{i}" for i in range(6)))
        runs: dict[str, object] = {}
        errors: list[BaseException] = []
        start = threading.Barrier(2)

        def drive(run_id: str) -> None:
            try:
                start.wait(10)
                runs[run_id] = PipelineRunner(sc(), store=store).run(
                    dag, run_id=run_id, seed=5
                )
            except BaseException as exc:  # surfaced below
                errors.append(exc)
            finally:
                store.close()  # this thread's connection only

        threads = [
            threading.Thread(target=drive, args=(rid,)) for rid in ("r1", "r2")
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        assert errors == []
        assert all(runs[rid].ok for rid in ("r1", "r2"))
        for rid in ("r1", "r2"):
            assert store.get_run(rid)["state"] == "done"
            rows = store.tasks(rid)
            assert len(rows) == 7
            assert all(
                r["state"] == "done" and r["attempts"] == 1 for r in rows.values()
            )
            assert rows["join"]["result"]["upstream"] == sorted(
                f"t{i}" for i in range(6)
            )
        # Same seed, same DAG: both runs derived identical task seeds.
        assert {n: r["seed"] for n, r in store.tasks("r1").items()} == {
            n: r["seed"] for n, r in store.tasks("r2").items()
        }
        store.close()


# ---- runner --------------------------------------------------------------------------


class TestRunner:
    def test_results_and_upstream_threading(self):
        dag = DAG("flow")
        dag.task("a", "echo", {"tag": 1})
        dag.task("b", "echo", {"tag": 2}, after=("a",))
        runner = PipelineRunner(sc())
        run = runner.run(dag, seed=1)
        assert run.ok and run.state == "done"
        assert run.executed == ["a", "b"] and run.replayed == []
        assert run.result("b")["upstream"] == ["a"]
        with pytest.raises(PipelineError):
            run.result("ghost")

    def test_failure_fails_the_run(self):
        dag = DAG("doomed")
        dag.task("g", "gate")
        dag.task("after", "echo", after=("g",))
        runner = PipelineRunner(sc(), extras={"fail": True})
        run = runner.run(dag, seed=1)
        assert not run.ok and run.state == "failed"
        assert run.failed_task == "g"
        assert "injected failure" in run.error
        assert runner.store.get_run(run.run_id)["state"] == "failed"
        # The dependent task never ran.
        assert runner.store.tasks(run.run_id)["after"]["state"] == "pending"

    def test_retry_exhaustion(self):
        dag = DAG("exhausted")
        dag.task("t", "flaky", {"succeed_on": 5}, max_attempts=2)
        runner = PipelineRunner(sc())
        run = runner.run(dag, seed=1)
        assert not run.ok
        assert runner.store.tasks(run.run_id)["t"]["attempts"] == 2

    def test_timeout(self):
        dag = DAG("slow")
        dag.task("t", "nap", {"seconds": 5.0}, timeout_s=0.2)
        run = PipelineRunner(sc()).run(dag, seed=1)
        assert not run.ok and "timeout" in run.error

    def test_callback_requires_extras(self):
        dag = DAG("cb")
        dag.task("t", "callback")
        run = PipelineRunner(sc()).run(dag, seed=1)
        assert not run.ok and "callback" in run.error

    def test_run_needs_dag_or_run_id(self):
        runner = PipelineRunner(sc())
        with pytest.raises(PipelineError):
            runner.run()
        with pytest.raises(PipelineError):
            runner.resume("ghost")

    def test_device_name_required_with_multiple_devices(self):
        driver = QDMIDriver()
        driver.register_device(SuperconductingDevice("sc-a", num_qubits=1))
        driver.register_device(SuperconductingDevice("sc-b", num_qubits=1))
        client = MQSSClient(driver, persistent_sessions=True)
        with PulseService(client) as svc:
            with pytest.raises(PipelineError, match="device_name"):
                PipelineRunner(svc)
            runner = PipelineRunner(svc, device_name="sc-b")
            assert runner.device.name == "sc-b"
            assert runner.dispatch == "service"

    def test_tracking_dag_converges_direct(self):
        device = sc(num_qubits=2)
        device.advance_time(600)
        before = max(device.tracking_error(s) for s in range(2))
        run = PipelineRunner(device).run(frequency_tracking_dag(rounds=2), seed=7)
        assert run.ok
        after = max(run.result("verify")["tracking_error_hz"])
        assert before > 1e3 and after < 500.0

    def test_tracking_dag_converges_via_service(self):
        driver = QDMIDriver()
        device = SuperconductingDevice("sc-a", num_qubits=1, seed=3)
        driver.register_device(device)
        device.advance_time(600)
        client = MQSSClient(driver, persistent_sessions=True)
        with PulseService(client) as svc:
            runner = PipelineRunner(svc)
            assert runner.dispatch == "service"
            run = runner.run(frequency_tracking_dag(rounds=1), seed=7)
        assert run.ok
        assert max(run.result("verify")["tracking_error_hz"]) < 1e3

    def test_metrics_are_emitted(self):
        dag = DAG("metered")
        dag.task("a", "echo")
        runs = REGISTRY.counter(
            "repro_pipeline_runs_total",
            "Pipeline runs by terminal state",
            {"dag": "metered", "state": "done"},
        )
        before = runs.value
        assert PipelineRunner(sc()).run(dag, seed=1).ok
        assert runs.value == before + 1


# ---- replay / resume -----------------------------------------------------------------


def resume_dag() -> DAG:
    """Two tracking rounds with an injectable failure gate between."""
    dag = DAG("resume")
    dag.task("probe-0", "probe_error")
    dag.task("advance-1", "advance_time", {"seconds": 300.0}, after=("probe-0",))
    dag.task("scan-1", "ramsey_scan", {"shots": 0}, after=("advance-1",))
    dag.task("fit-1", "ramsey_fit", after=("scan-1",))
    dag.task("writeback-1", "writeback", after=("fit-1",))
    dag.task("gate", "gate", after=("writeback-1",))
    dag.task("advance-2", "advance_time", {"seconds": 300.0}, after=("gate",))
    dag.task("scan-2", "ramsey_scan", {"shots": 0}, after=("advance-2",))
    dag.task("fit-2", "ramsey_fit", after=("scan-2",))
    dag.task("writeback-2", "writeback", after=("fit-2",))
    dag.task("verify", "verify_calibration", after=("writeback-2",))
    return dag


def device_state(device) -> list[float]:
    n = device.config.num_sites
    return [device.believed_frequency(s) for s in range(n)] + [
        device.true_frequency(s) for s in range(n)
    ]


class TestResume:
    def test_resume_replays_and_matches_uninterrupted_run(self, tmp_path):
        # Control: the same DAG straight through on a same-seed device.
        control_dev = sc()
        control = PipelineRunner(
            control_dev, store=PipelineStore(str(tmp_path / "ctl.db"))
        ).run(resume_dag(), run_id="ctl", seed=9)
        assert control.ok

        # Interrupted: fail at the gate, round 1 fully committed.
        store_path = str(tmp_path / "int.db")
        dev_b = sc()
        interrupted = PipelineRunner(
            dev_b, store=PipelineStore(store_path), extras={"fail": True}
        ).run(resume_dag(), run_id="camp", seed=9)
        assert not interrupted.ok and interrupted.failed_task == "gate"
        done_before = {
            n
            for n, row in PipelineStore(store_path).tasks("camp").items()
            if row["state"] == "done"
        }
        assert {"probe-0", "advance-1", "scan-1", "fit-1", "writeback-1"} == (
            done_before
        )

        # Resume on a FRESH same-seed device: completed tasks replay
        # (effectful ones re-apply), the rest execute.
        dev_c = sc()
        store = PipelineStore(store_path)
        attempts_before = {
            n: r["attempts"] for n, r in store.tasks("camp").items()
        }
        resumed = PipelineRunner(
            dev_c, store=store, extras={"fail": False}
        ).resume("camp")
        assert resumed.ok
        assert set(resumed.replayed) == done_before
        assert set(resumed.executed) == {
            "gate", "advance-2", "scan-2", "fit-2", "writeback-2", "verify",
        }
        # Replayed tasks were NOT re-executed (attempt counts frozen).
        rows = store.tasks("camp")
        for name in done_before:
            assert rows[name]["attempts"] == attempts_before[name]
        # The resumed run walked the device to the identical state the
        # uninterrupted control run reached, and measured identically.
        assert np.allclose(device_state(dev_c), device_state(control_dev))
        assert resumed.result("fit-1")["estimated_frequency_hz"] == (
            control.result("fit-1")["estimated_frequency_hz"]
        )
        assert resumed.result("verify")["tracking_error_hz"] == pytest.approx(
            control.result("verify")["tracking_error_hz"]
        )


KILL_HELPER = '''
"""Helper for the SIGKILL-resume test: a slowed campaign DAG."""
import sys
import time

from repro.devices import SuperconductingDevice
from repro.pipeline import DAG, PipelineRunner, PipelineStore, register_task
from repro.pipeline.dag import TASK_TYPES

if "kill_nap" not in TASK_TYPES:

    @register_task("kill_nap", "control")
    def _nap(ctx, params, seed, upstream):
        time.sleep(float(params.get("seconds", 0.2)))
        return {}


def build_dag():
    dag = DAG("kill-campaign")
    dag.task("probe-0", "probe_error")
    prev = "probe-0"
    for k in range(1, 5):
        dag.task(f"advance-{k}", "advance_time", {"seconds": 120.0}, after=(prev,))
        dag.task(f"nap-{k}", "kill_nap", {"seconds": 0.35}, after=(f"advance-{k}",))
        dag.task(
            f"scan-{k}",
            "ramsey_scan",
            {"shots": 0, "points": 21, "max_delay_samples": 512},
            after=(f"nap-{k}",),
        )
        dag.task(f"fit-{k}", "ramsey_fit", after=(f"scan-{k}",))
        dag.task(f"writeback-{k}", "writeback", after=(f"fit-{k}",))
        dag.task(f"probe-{k}", "probe_error", after=(f"writeback-{k}",))
        prev = f"probe-{k}"
    dag.task("verify", "verify_calibration", after=(prev,))
    return dag


def make_runner(store_path):
    device = SuperconductingDevice("sc", num_qubits=1, seed=3)
    return PipelineRunner(device, store=PipelineStore(store_path))


if __name__ == "__main__":
    make_runner(sys.argv[1]).run(build_dag(), run_id="camp", seed=7)
'''


class TestSigkillResume:
    def test_sigkill_mid_dag_then_resume_completes(self, tmp_path):
        """The PR's headline acceptance: SIGKILL a PipelineRunner
        mid-DAG, restart against the same store, and the resumed run
        replays completed tasks without re-execution and reaches the
        exact device state of an uninterrupted run."""
        helper = tmp_path / "killcamp.py"
        helper.write_text(KILL_HELPER)
        sys.path.insert(0, str(tmp_path))
        try:
            killcamp = importlib.import_module("killcamp")
        finally:
            sys.path.pop(0)

        # Uninterrupted control run.
        control_runner = killcamp.make_runner(str(tmp_path / "ctl.db"))
        control = control_runner.run(killcamp.build_dag(), run_id="camp", seed=7)
        assert control.ok

        # Child process runs the same campaign; SIGKILL it mid-DAG.
        store_path = str(tmp_path / "kill.db")
        env = dict(os.environ)
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p
        )
        child = subprocess.Popen(
            [sys.executable, str(helper), store_path],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        store = PipelineStore(store_path)
        try:
            deadline = time.time() + 60
            while time.time() < deadline:
                if child.poll() is not None:
                    pytest.fail("child finished before it could be killed")
                counts = (
                    store.counts_by_state("camp")
                    if store.get_run("camp")
                    else {}
                )
                if counts.get("done", 0) >= 5:
                    break
                time.sleep(0.02)
            else:
                pytest.fail("child never made progress")
            os.kill(child.pid, signal.SIGKILL)
        finally:
            child.wait()

        run_row = store.get_run("camp")
        assert run_row["state"] == "running"  # killed mid-flight
        done_before = {
            n for n, r in store.tasks("camp").items() if r["state"] == "done"
        }
        attempts_before = {
            n: r["attempts"] for n, r in store.tasks("camp").items()
        }
        assert len(done_before) >= 5

        # Restart: fresh process state, same store, same device seed.
        resumed = killcamp.make_runner(store_path).resume("camp")
        assert resumed.ok
        assert set(resumed.replayed) >= done_before
        rows = store.tasks("camp")
        for name in resumed.replayed:
            assert rows[name]["attempts"] == attempts_before[name]
        # Identical final device state and verification outcome.
        resumed_dev = SuperconductingDevice("sc", num_qubits=1, seed=3)
        # (replay against yet another fresh device to double-check the
        # recorded effects alone reconstruct the state)
        replay_all = PipelineRunner(resumed_dev, store=store).resume("camp")
        assert replay_all.ok and replay_all.executed == []
        assert np.allclose(
            device_state(resumed_dev), device_state(control_runner.device)
        )
        assert resumed.result("verify")["tracking_error_hz"] == pytest.approx(
            control.result("verify")["tracking_error_hz"]
        )


# ---- batching parity -----------------------------------------------------------------


class TestBatchingParity:
    def test_batched_ramsey_scan_matches_serial_populations(self):
        """One multi-site batched schedule per delay == single-site
        schedules run one by one on the scalar executor path (couplers
        are driven-only: exact factorization)."""
        from repro.pipeline.experiments import _ramsey_schedule

        device = sc(num_qubits=2, seed=11)
        device.advance_time(300)
        dag = DAG("one-scan")
        dag.task("scan", "ramsey_scan", {"shots": 0, "points": 21})
        run = PipelineRunner(device).run(dag, seed=0)
        assert run.ok
        scan = run.result("scan")
        for site in range(2):
            serial = []
            for tau in scan["delays_samples"]:
                sched = _ramsey_schedule(
                    device, [site], tau, scan["artificial_detuning_hz"], "serial"
                )
                result = device.executor.execute(sched, shots=0)
                serial.append(result.ideal_probabilities.get("1", 0.0))
            batched = np.asarray(scan["populations"][str(site)])
            assert np.allclose(batched, serial, atol=1e-6)

    def test_served_rabi_scan_is_one_sweep_matching_serial_pubs(self):
        """All sites x amplitudes of a ``rabi_scan`` reach the service as
        one sweep (one batched execution), with the populations of the
        per-site, per-amplitude PUB loop."""
        from repro.api import Target
        from repro.core import Play, PulseSchedule, constant_waveform
        from repro.pipeline.experiments import _p1, _program
        from repro.primitives import Estimator

        driver = QDMIDriver()
        device = SuperconductingDevice("rabi", num_qubits=2, seed=5)
        driver.register_device(device)
        client = MQSSClient(driver, persistent_sessions=True)
        amps = [0.1, 0.4, 0.7, 1.0]
        with PulseService(client) as svc:
            runner = PipelineRunner(svc)
            assert runner.dispatch == "service"
            dag = DAG("rabi")
            dag.task(
                "scan",
                "rabi_scan",
                {"shots": 0, "duration": 160, "amplitudes": amps},
            )
            run = runner.run(dag, seed=0)
            assert run.ok, run.error
            assert svc.metrics.snapshot()["execute_count"] == 1
            estimator = Estimator(Target.from_service(svc, "rabi"), shots=0)
            for site in range(2):
                drive = device.drive_port(site)
                serial = []
                for amp in amps:
                    sched = PulseSchedule("serial-rabi")
                    sched.append(
                        Play(
                            drive,
                            device.default_frame(drive),
                            constant_waveform(160, amp),
                        )
                    )
                    device.calibrations.get("measure", (site,)).apply(sched, [0])
                    res = estimator.run([(_program(sched), [_p1(0)])])
                    serial.append(float(res[0].data.evs[0]))
                batched = run.result("scan")["populations"][str(site)]
                assert np.allclose(batched, serial, atol=1e-6)

    def test_campaign_engines_agree(self):
        """Pipeline campaign == the per-site serial reference at shots=0."""
        from repro.calibration import run_drift_campaign

        kwargs = dict(
            duration_s=360,
            step_s=60,
            tracked=True,
            calibration_interval_s=120,
            shots=0,
            seed=0,
        )
        dev_serial = sc(num_qubits=2, seed=21, drift_rate=2e4)
        dev_pipe = sc(num_qubits=2, seed=21, drift_rate=2e4)
        calibrations, serial = serial_campaign(dev_serial, **kwargs)
        pipe = run_drift_campaign(dev_pipe, **kwargs)
        assert pipe.calibrations_performed == calibrations
        assert pipe.tracking_error_hz.shape == serial.shape
        # Same seed -> identical drift path; exact fits -> near-identical
        # corrections (batched vs single-site schedules differ only at
        # numerical-precision level).
        assert np.allclose(pipe.tracking_error_hz, serial, atol=5.0)


def serial_campaign(
    device,
    *,
    duration_s: float,
    step_s: float,
    tracked: bool,
    calibration_interval_s: float,
    shots: int,
    seed: int,
) -> tuple[int, np.ndarray]:
    """Per-site drift-campaign reference: one single-site tracking DAG
    per site and round.

    Drift every *step_s*; every *calibration_interval_s* track each site
    one at a time.  Returns ``(calibrations, (steps + 1, sites) error)``.
    """
    n_steps = int(round(duration_s / step_s))
    n_sites = device.config.num_sites
    errors = np.zeros((n_steps + 1, n_sites), dtype=np.float64)
    calibrations = 0
    since_cal = 0.0
    for site in range(n_sites):
        errors[0, site] = device.tracking_error(site)
    for k in range(1, n_steps + 1):
        device.advance_time(step_s)
        since_cal += step_s
        if tracked and since_cal >= calibration_interval_s:
            for site in range(n_sites):
                dag = frequency_tracking_dag([site], rounds=1, shots=shots)
                run = PipelineRunner(device).run(dag, seed=seed + 1000 * k + site)
                assert run.ok, run.error
            calibrations += n_sites
            since_cal = 0.0
        for site in range(n_sites):
            errors[k, site] = device.tracking_error(site)
    return calibrations, errors


# ---- write-back + invalidation -------------------------------------------------------


class TestWritebackInvalidation:
    def test_every_commit_bumps_the_epoch(self):
        device = sc()
        e0 = device.calibration_epoch
        commit_writeback(device, frequencies={0: device.believed_frequency(0)})
        assert device.calibration_epoch > e0
        e1 = device.calibration_epoch
        commit_writeback(device, drag_beta=0.1)
        assert device.calibration_epoch > e1
        e2 = device.calibration_epoch
        # Confusion moves no pulse parameter -> the commit itself bumps.
        commit_writeback(device, confusion={0: {"p01": 0.01, "p10": 0.02}})
        assert device.calibration_epoch > e2
        assert device.config.extra["readout_confusion"]["0"]["p01"] == 0.01
        with pytest.raises(PipelineError, match="nothing to apply"):
            commit_writeback(device)

    def test_device_state_key_tracks_the_epoch(self):
        from repro.compiler.jit import JITCompiler

        device = sc()
        compiler = JITCompiler()
        k0 = compiler.device_state_key(device)
        # Same frequency value, new epoch: the key must still move.
        commit_writeback(device, frequencies={0: device.believed_frequency(0)})
        assert compiler.device_state_key(device) != k0

    def test_writeback_task_collects_upstream_fields(self):
        device = sc(num_qubits=2)
        device.advance_time(600)
        run = PipelineRunner(device).run(frequency_tracking_dag(rounds=1), seed=3)
        assert run.ok
        applied = run.result("writeback-0")
        assert set(applied["frequencies"]) == {"0", "1"}
        assert applied["calibration_epoch"] == device.calibration_epoch


def x_request(shots: int = 256, device: str = "sc-a") -> JobRequest:
    c = PythonicCircuit(1, 1).x(0)
    c.measure(0, 0)
    return JobRequest(c, device, shots=shots, seed=1)


class SlowDevice(SuperconductingDevice):
    """A transmon with an artificial per-submission latency (execution-side)."""

    def __init__(self, name: str, delay_s: float, **kwargs) -> None:
        super().__init__(name, **kwargs)
        self.delay_s = delay_s

    def submit_jobs(self, jobs) -> None:
        time.sleep(self.delay_s)
        super().submit_jobs(jobs)


def ones_fraction(counts: dict) -> float:
    total = max(1, sum(counts.values()))
    return sum(c for k, c in counts.items() if k[0] == "1") / total


class TestStalenessEndToEnd:
    def test_writeback_mid_serving_invalidates_without_stale_results(self):
        """Satellite: write back while a job is in flight.  The
        in-flight ticket completes against the state it compiled on;
        the next submission recompiles (cache miss) against the new
        state; no stale cache entry is served."""
        driver = QDMIDriver()
        device = SlowDevice("sc-a", 0.6, num_qubits=1)
        driver.register_device(device)
        client = MQSSClient(driver, persistent_sessions=True)
        with PulseService(client) as svc:
            # Warm the cache and pin the old-state behavior.
            warm = svc.submit(x_request()).result(30)
            assert ones_fraction(warm.counts) > 0.85  # resonant X
            misses0 = client.compiler.stats()["misses"]
            hits0 = client.compiler.stats()["hits"]

            # Identical program: served from cache (hit, no recompile).
            again = svc.submit(x_request()).result(30)
            assert client.compiler.stats()["hits"] == hits0 + 1
            assert client.compiler.stats()["misses"] == misses0
            assert ones_fraction(again.counts) > 0.85

            # In-flight job: compiled (old state), now RUNNING...
            inflight = svc.submit(x_request())
            deadline = time.time() + 10
            while inflight.status() is not TicketState.RUNNING:
                assert time.time() < deadline, "job never started running"
                time.sleep(0.005)
            # ... and the calibration write-back lands mid-execution,
            # detuning the *believed* frequency by a full Rabi rate.
            commit_writeback(
                device,
                frequencies={0: device.believed_frequency(0) + 50e6},
            )
            # The in-flight ticket completes on the old compiled
            # artifact: still resonant, not half-detuned garbage.
            assert ones_fraction(inflight.result(30).counts) > 0.85

            # New submission: the epoch-bumped state key MISSES the
            # cache and recompiles against the detuned frame.
            misses1 = client.compiler.stats()["misses"]
            stale = svc.submit(x_request()).result(30)
            assert client.compiler.stats()["misses"] == misses1 + 1
            # 50 MHz detuning at a 50 MHz Rabi rate caps P1 at ~0.5 —
            # the result visibly reflects the NEW device state.
            assert ones_fraction(stale.counts) < 0.7


# ---- triggers ------------------------------------------------------------------------


class TestTriggers:
    def test_drift_budget_trigger(self):
        device = sc(drift_rate=1e4)
        budget = 1e4 * (30.0**0.5) - 1  # fires on the third 10 s job
        trig = DriftBudgetTrigger(budget)
        assert not trig.note_elapsed("sc", device, 10.0)
        assert not trig.note_elapsed("sc", device, 10.0)
        assert trig.note_elapsed("sc", device, 10.0)
        assert trig.clock["sc"] == pytest.approx(30.0)
        trig.reset("sc")
        assert trig.clock["sc"] == 0.0
        assert not trig.note_elapsed("sc", device, 10.0)
        assert trig.clock["sc"] == pytest.approx(10.0)
        with pytest.raises(ValidationError):
            DriftBudgetTrigger(0.0)

    def test_drift_budget_ignores_driftless_devices(self):
        stable = SuperconductingDevice("stable", num_qubits=1, drift_rate=0.0)
        trig = DriftBudgetTrigger(1.0)
        assert not trig.note_elapsed("stable", stable, 1e9)
        assert trig.clock == {}  # clock untouched, matching the old
        # scheduler's "no entries for non-drifting devices" contract

    def test_trigger_firings_are_counted(self):
        counter = REGISTRY.counter(
            "repro_pipeline_triggers_total",
            "Calibration trigger firings by kind",
            {"trigger": "drift_budget"},
        )
        before = counter.value
        trig = DriftBudgetTrigger(1.0)
        assert not trig.note_elapsed("stable", sc(drift_rate=0.0), 1e9)
        assert trig.note_elapsed("sc", sc(drift_rate=1e4), 10.0)
        assert counter.value == before + 1
