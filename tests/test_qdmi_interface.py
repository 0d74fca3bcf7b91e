"""Unit tests: QDMI jobs, sessions, driver (paper Fig. 3)."""

import pytest

from repro.core import PulseSchedule
from repro.errors import JobError, QDMIError, SessionError, UnsupportedQueryError
from repro.qdmi import (
    DeviceProperty,
    JobStatus,
    ProgramFormat,
    PulseSupportLevel,
    QDMIJob,
    SiteProperty,
    Site,
)


class TestJobFSM:
    def make(self):
        return QDMIJob("dev", ProgramFormat.PULSE_SCHEDULE, PulseSchedule())

    def test_initial_status(self):
        assert self.make().status is JobStatus.CREATED

    def test_legal_happy_path(self):
        j = self.make()
        for s in (JobStatus.SUBMITTED, JobStatus.QUEUED, JobStatus.RUNNING):
            j.transition(s)
        j.complete({"ok": True})
        assert j.status is JobStatus.DONE
        assert j.result == {"ok": True}

    def test_cannot_skip_to_done(self):
        j = self.make()
        with pytest.raises(JobError):
            j.transition(JobStatus.DONE)

    def test_cannot_complete_unstarted(self):
        with pytest.raises(JobError):
            self.make().complete(None)

    def test_cancel_from_queue(self):
        j = self.make()
        j.transition(JobStatus.SUBMITTED)
        j.cancel()
        assert j.status is JobStatus.CANCELLED

    def test_cannot_cancel_terminal(self):
        j = self.make()
        j.cancel()
        with pytest.raises(JobError):
            j.cancel()

    def test_fail_records_error(self):
        j = self.make()
        j.transition(JobStatus.SUBMITTED)
        j.fail("boom")
        assert j.status is JobStatus.FAILED
        assert j.error == "boom"
        with pytest.raises(JobError):
            _ = j.result

    def test_result_unavailable_before_done(self):
        with pytest.raises(JobError):
            _ = self.make().result

    def test_negative_shots_rejected(self):
        with pytest.raises(JobError):
            QDMIJob("dev", ProgramFormat.PULSE_SCHEDULE, None, shots=-1)

    def test_terminal_property(self):
        assert JobStatus.DONE.is_terminal
        assert JobStatus.FAILED.is_terminal
        assert not JobStatus.RUNNING.is_terminal

    def test_job_ids_unique(self):
        assert self.make().job_id != self.make().job_id


class TestDriverAndSessions:
    def test_register_and_list(self, driver):
        names = driver.device_names()
        assert "sc-transmon" in names
        assert "calibration-db" in names

    def test_duplicate_registration_rejected(self, driver, sc_device):
        with pytest.raises(QDMIError):
            driver.register_device(sc_device)

    def test_unknown_device(self, driver):
        with pytest.raises(QDMIError):
            driver.get_device("nope")

    def test_session_open_close(self, driver):
        s = driver.open_session("sc-transmon", "test-client")
        assert s.is_open
        assert s.device_name == "sc-transmon"
        s.close()
        with pytest.raises(SessionError):
            s.query_device_property(DeviceProperty.NAME)

    def test_unregister_closes_sessions(self, driver):
        s = driver.open_session("atom-array", "c")
        driver.unregister_device("atom-array")
        assert not s.is_open

    def test_close_all(self, driver):
        driver.open_session("sc-transmon", "a")
        driver.open_session("ion-chain", "b")
        assert driver.close_all_sessions() >= 2
        assert driver.open_sessions == []

    def test_pulse_support_filter(self, driver):
        with_pulse = driver.devices_with_pulse_support()
        assert "sc-transmon" in with_pulse
        assert "calibration-db" not in with_pulse

    def test_technology_filter(self, driver):
        assert driver.devices_by_technology("trapped-ion") == ["ion-chain"]

    def test_capability_matrix(self, driver):
        m = driver.capability_matrix()
        assert m["sc-transmon"]["technology"] == "superconducting"
        assert m["sc-transmon"]["num_ports"] > 0
        assert m["calibration-db"]["pulse_support"] == "none"
        for qpu in ("sc-transmon", "ion-chain", "atom-array"):
            assert m[qpu]["pulse_support"] == "port"

    def test_session_wrong_device_job(self, driver, sc_device):
        s_ion = driver.open_session("ion-chain", "c")
        job = QDMIJob("sc-transmon", ProgramFormat.PULSE_SCHEDULE, PulseSchedule())
        with pytest.raises(SessionError):
            s_ion.submit(job)

    def test_session_run_roundtrip(self, driver, sc_device):
        s = driver.open_session("sc-transmon", "c")
        sched = PulseSchedule()
        sc_device.calibrations.get("x", (0,)).apply(sched, [])
        sc_device.calibrations.get("measure", (0,)).apply(sched, [0])
        job = s.run(ProgramFormat.PULSE_SCHEDULE, sched, shots=100)
        assert job.status is JobStatus.DONE
        assert sum(job.result.counts.values()) == 100
        assert job in s.jobs

    def test_job_histories_are_bounded(self, driver, sc_device):
        """A session and a device keep only their last JOB_HISTORY
        jobs, so a long-running service does not hold every payload
        and result it ever ran."""
        from repro.qdmi.job import JOB_HISTORY

        s = driver.open_session("sc-transmon", "c")
        sched = PulseSchedule()
        sc_device.calibrations.get("measure", (0,)).apply(sched, [0])
        jobs = [
            s.create_job(ProgramFormat.PULSE_SCHEDULE, sched, shots=0)
            for _ in range(JOB_HISTORY + 3)
        ]
        s.submit_jobs(jobs)
        assert all(job.status is JobStatus.DONE for job in jobs)
        assert s.jobs == tuple(jobs[3:])
        assert sc_device.executed_jobs == tuple(jobs[3:])


class TestQueryInterface:
    def test_device_properties(self, sc_device):
        assert sc_device.query_device_property(DeviceProperty.NUM_SITES) == 2
        assert (
            sc_device.query_device_property(DeviceProperty.TECHNOLOGY)
            == "superconducting"
        )
        assert (
            sc_device.query_device_property(DeviceProperty.PULSE_SUPPORT_LEVEL)
            is PulseSupportLevel.PORT
        )
        assert sc_device.query_device_property(
            DeviceProperty.SAMPLE_RATE
        ) == pytest.approx(1e9)

    def test_coupling_map(self, sc_device):
        assert sc_device.query_device_property(DeviceProperty.COUPLING_MAP) == ((0, 1),)

    def test_site_properties(self, sc_device):
        assert sc_device.query_site_property(Site(0), SiteProperty.FREQUENCY) == 5.0e9
        port = sc_device.query_site_property(Site(0), SiteProperty.DRIVE_PORT)
        assert port.name == "q0-drive-port"
        frame = sc_device.query_site_property(Site(0), SiteProperty.DEFAULT_FRAME)
        assert frame.frequency == 5.0e9
        assert (
            sc_device.query_site_property(Site(1), SiteProperty.RABI_RATE) == 50e6
        )

    def test_site_out_of_range(self, sc_device):
        with pytest.raises(QDMIError):
            sc_device.query_site_property(Site(9), SiteProperty.T1)

    def test_operation_properties(self, sc_device):
        from repro.qdmi import OperationProperty

        dur = sc_device.query_operation_property(
            "x", [Site(0)], OperationProperty.DURATION
        )
        assert dur == pytest.approx(32e-9)
        assert sc_device.query_operation_property(
            "rz", [Site(0)], OperationProperty.IS_VIRTUAL
        )
        sched = sc_device.query_operation_property(
            "cz", [Site(0), Site(1)], OperationProperty.PULSE_SCHEDULE
        )
        assert sched.duration == sc_device.CZ_DURATION

    def test_unknown_operation(self, sc_device):
        from repro.qdmi import OperationProperty

        with pytest.raises(QDMIError):
            sc_device.query_operation_property(
                "toffoli", [Site(0)], OperationProperty.DURATION
            )

    def test_ports_and_frames_published(self, sc_device):
        ports = sc_device.ports()
        assert len(ports) == 7  # 2x(drive+readout+acquire) + 1 coupler
        frames = sc_device.frames()
        # One frame per non-output port.
        assert len(frames) == 5

    def test_unsupported_query_raises(self, sc_device):
        from repro.core import Frame
        from repro.qdmi import FrameProperty

        # A frame the device never published cannot be mapped to a port.
        with pytest.raises(UnsupportedQueryError):
            sc_device.query_frame_property(
                Frame("user-frame", 5e9), FrameProperty.PORT
            )

    def test_frame_port_resolution(self, sc_device):
        from repro.qdmi import FrameProperty

        frame = sc_device.default_frame(sc_device.drive_port(0))
        port = sc_device.query_frame_property(frame, FrameProperty.PORT)
        assert port.name == "q0-drive-port"

    def test_database_device(self, driver):
        db = driver.get_device("calibration-db")
        assert db.query_device_property(DeviceProperty.NUM_SITES) == 0
        assert db.supported_formats() == ()
        db.put_record("q0-freq", 5.0e9)
        assert db.get_record("q0-freq") == 5.0e9
        assert db.keys() == ["q0-freq"]
        with pytest.raises(UnsupportedQueryError):
            db.get_record("missing")
        job = QDMIJob("calibration-db", ProgramFormat.QIR_PULSE, "x")
        with pytest.raises(JobError):
            db.submit_job(job)
