"""Physics tests for the schedule executor: the simulator must get the
textbook experiments right, because the calibration layer depends on
exactly these behaviours."""

import numpy as np
import pytest

from repro.core import (
    Capture,
    Delay,
    Frame,
    FrameChange,
    Play,
    Port,
    PulseSchedule,
    ScheduleFamily,
    SetFrequency,
    SetPhase,
    ShiftFrequency,
    ShiftPhase,
    constant_waveform,
)
from repro.errors import ExecutionError, ValidationError
from repro.sim import DecoherenceSpec, ReadoutModel, ScheduleExecutor
from repro.sim.evolve import segment_runs
from repro.sim.model import transmon_model
from repro.sim.runs import drive_runs

RABI = 50e6  # Hz
DT = 1e-9


def make_model(levels=2, n=1, decoherence=None, **kw):
    return transmon_model(
        n,
        qubit_frequencies=[5e9 + 0.1e9 * q for q in range(n)],
        anharmonicities=[-300e6] * n,
        rabi_rates=[RABI] * n,
        dt=DT,
        levels=levels,
        decoherence=decoherence,
        **kw,
    )


def drive_frame(q=0):
    return Frame(f"q{q}-drive-frame", 5e9 + 0.1e9 * q)


def pi_pulse(fraction=1.0):
    # amp * rabi * T = fraction/2 with T = 10 samples.
    n = 10
    amp = fraction * 0.5 / (RABI * n * DT)
    return constant_waveform(n, amp)


class TestSingleQubitPhysics:
    def test_pi_pulse_flips(self):
        ex = ScheduleExecutor(make_model())
        s = PulseSchedule()
        s.append(Play(Port.drive(0), drive_frame(), pi_pulse()))
        psi = ex.execute(s, shots=0).final_state
        assert abs(psi[1]) ** 2 == pytest.approx(1.0, abs=1e-9)

    def test_half_pi_superposition(self):
        ex = ScheduleExecutor(make_model())
        s = PulseSchedule()
        s.append(Play(Port.drive(0), drive_frame(), pi_pulse(0.5)))
        psi = ex.execute(s, shots=0).final_state
        assert abs(psi[0]) ** 2 == pytest.approx(0.5, abs=1e-9)

    def test_two_pi_identity(self):
        ex = ScheduleExecutor(make_model())
        s = PulseSchedule()
        s.append(Play(Port.drive(0), drive_frame(), pi_pulse(2.0)))
        psi = ex.execute(s, shots=0).final_state
        assert abs(psi[0]) ** 2 == pytest.approx(1.0, abs=1e-8)

    def test_phase_shift_rotates_axis(self):
        """pi/2, virtual Z by pi, pi/2 == identity (echo)."""
        ex = ScheduleExecutor(make_model())
        s = PulseSchedule()
        p, f = Port.drive(0), drive_frame()
        s.append(Play(p, f, pi_pulse(0.5)))
        s.append(ShiftPhase(p, f, np.pi))
        s.append(Play(p, f, pi_pulse(0.5)))
        psi = ex.execute(s, shots=0).final_state
        assert abs(psi[0]) ** 2 == pytest.approx(1.0, abs=1e-9)

    def test_two_half_pis_make_pi(self):
        ex = ScheduleExecutor(make_model())
        s = PulseSchedule()
        p, f = Port.drive(0), drive_frame()
        s.append(Play(p, f, pi_pulse(0.5)))
        s.append(Play(p, f, pi_pulse(0.5)))
        psi = ex.execute(s, shots=0).final_state
        assert abs(psi[1]) ** 2 == pytest.approx(1.0, abs=1e-9)

    def test_ramsey_fringe_phase(self):
        """Detuned frame + delay gives the predicted fringe."""
        detuning = 10e6
        delay = 50  # 2*pi*10e6*50e-9 = pi -> P1 minimum (up to pulse-time effects)
        ex = ScheduleExecutor(make_model())
        p = Port.drive(0)
        f = Frame("q0-drive-frame", 5e9 + detuning)

        def p1(tau):
            s = PulseSchedule()
            s.append(Play(p, f, pi_pulse(0.5)))
            if tau:
                s.append(Delay(p, tau))
            s.append(Play(p, f, pi_pulse(0.5)))
            psi = ex.execute(s, shots=0).final_state
            return abs(psi[1]) ** 2

    # One full fringe period: 1/10 MHz = 100 samples.
        values = [p1(tau) for tau in (0, 25, 50, 75, 100)]
        assert values[2] < values[0]  # half period: inverted
        assert values[4] == pytest.approx(values[0], abs=0.05)  # full period

    def test_resonant_frame_no_fringe(self):
        ex = ScheduleExecutor(make_model())
        p, f = Port.drive(0), drive_frame()
        s = PulseSchedule()
        s.append(Play(p, f, pi_pulse(0.5)))
        s.append(Delay(p, 500))
        s.append(Play(p, f, pi_pulse(0.5)))
        psi = ex.execute(s, shots=0).final_state
        assert abs(psi[1]) ** 2 == pytest.approx(1.0, abs=1e-9)

    def test_set_frequency_changes_detuning(self):
        ex = ScheduleExecutor(make_model())
        p, f = Port.drive(0), drive_frame()
        s = PulseSchedule()
        s.append(SetFrequency(p, f, 5e9 + 50e6))  # drive far off resonance
        s.append(Play(p, f, pi_pulse()))
        psi = ex.execute(s, shots=0).final_state
        assert abs(psi[1]) ** 2 < 0.6  # detuned Rabi is incomplete

    def test_frame_change_sets_freq_and_phase(self):
        ex = ScheduleExecutor(make_model())
        p, f = Port.drive(0), drive_frame()
        s = PulseSchedule()
        s.append(Play(p, f, pi_pulse(0.5)))
        s.append(FrameChange(p, f, 5e9, np.pi))
        s.append(Play(p, f, pi_pulse(0.5)))
        psi = ex.execute(s, shots=0).final_state
        assert abs(psi[0]) ** 2 == pytest.approx(1.0, abs=1e-9)


class TestQutritLeakage:
    def test_strong_square_pulse_leaks(self):
        ex = ScheduleExecutor(make_model(levels=3))
        s = PulseSchedule()
        # Fast, strong square pulse: significant |2> occupation.
        s.append(Play(Port.drive(0), drive_frame(), constant_waveform(4, 1.0)))
        r = ex.execute(s, shots=0)
        assert r.leakage[0] > 1e-3

    def test_slow_pulse_leaks_less(self):
        ex = ScheduleExecutor(make_model(levels=3))
        fast = PulseSchedule()
        fast.append(Play(Port.drive(0), drive_frame(), constant_waveform(4, 1.0)))
        slow = PulseSchedule()
        slow.append(Play(Port.drive(0), drive_frame(), constant_waveform(40, 0.1)))
        leak_fast = ex.execute(fast, shots=0).leakage[0]
        leak_slow = ex.execute(slow, shots=0).leakage[0]
        assert leak_slow < leak_fast


class TestMeasurement:
    def _measured(self, model, schedule, shots=0, **kw):
        return ScheduleExecutor(model, **kw).execute(schedule, shots=shots, seed=1)

    def test_capture_produces_distribution(self):
        model = make_model()
        s = PulseSchedule()
        s.append(Play(Port.drive(0), drive_frame(), pi_pulse()))
        s.append(Capture(Port.acquire(0), Frame("acq", 0.0), 0))
        r = self._measured(model, s)
        assert r.ideal_probabilities["1"] == pytest.approx(1.0, abs=1e-9)

    def test_no_capture_no_counts(self):
        model = make_model()
        s = PulseSchedule()
        s.append(Play(Port.drive(0), drive_frame(), pi_pulse()))
        r = self._measured(model, s, shots=100)
        assert r.counts == {}
        assert r.shots == 0

    def test_readout_error_applied(self):
        model = make_model()
        s = PulseSchedule()
        s.append(Play(Port.drive(0), drive_frame(), pi_pulse()))
        s.append(Capture(Port.acquire(0), Frame("acq", 0.0), 0))
        r = ScheduleExecutor(model, readout={0: ReadoutModel(p10=0.1)}).execute(
            s, shots=0
        )
        assert r.probabilities["0"] == pytest.approx(0.1, abs=1e-6)

    def test_shots_reproducible(self):
        model = make_model()
        s = PulseSchedule()
        s.append(Play(Port.drive(0), drive_frame(), pi_pulse(0.5)))
        s.append(Capture(Port.acquire(0), Frame("acq", 0.0), 0))
        ex = ScheduleExecutor(model)
        c1 = ex.execute(s, shots=500, seed=42).counts
        c2 = ex.execute(s, shots=500, seed=42).counts
        assert c1 == c2

    def test_slot_order_defines_bit_order(self):
        model = make_model(n=2)
        s = PulseSchedule()
        s.append(Play(Port.drive(1), drive_frame(1), pi_pulse()))
        s.append(Capture(Port.acquire(0), Frame("a0", 0.0), 0))
        s.append(Capture(Port.acquire(1), Frame("a1", 0.0), 1))
        r = self._measured(model, s)
        assert r.ideal_probabilities["01"] == pytest.approx(1.0, abs=1e-9)

    def test_unknown_drive_port_rejected(self):
        model = make_model()
        s = PulseSchedule()
        s.append(Play(Port.drive(7), drive_frame(), pi_pulse()))
        with pytest.raises(ExecutionError):
            ScheduleExecutor(model).execute(s, shots=0)

    def test_readout_stimulus_play_ignored(self):
        model = make_model()
        s = PulseSchedule()
        s.append(Play(Port.readout(0), Frame("ro", 0.0), constant_waveform(16, 0.3)))
        r = self._measured(model, s)
        assert abs(r.final_state[0]) ** 2 == pytest.approx(1.0)


class TestDecoherence:
    def test_t1_decay(self):
        t1 = 10e-6
        model = make_model(decoherence=[DecoherenceSpec(t1=t1, t2=2 * t1)])
        ex = ScheduleExecutor(model)
        s = PulseSchedule()
        p, f = Port.drive(0), drive_frame()
        s.append(Play(p, f, pi_pulse()))
        s.append(Delay(p, 10000))  # 10 us = one T1
        rho = ex.execute(s, shots=0).final_state
        assert rho.ndim == 2
        p1 = float(np.real(rho[1, 1]))
        assert p1 == pytest.approx(np.exp(-1.0), abs=0.05)

    def test_t2_dephasing_kills_coherence(self):
        model = make_model(
            decoherence=[DecoherenceSpec(t1=float("inf"), t2=5e-6)]
        )
        ex = ScheduleExecutor(model)
        s = PulseSchedule()
        p, f = Port.drive(0), drive_frame()
        s.append(Play(p, f, pi_pulse(0.5)))
        s.append(Delay(p, 20000))  # 4 T2
        rho = ex.execute(s, shots=0).final_state
        assert abs(rho[0, 1]) < 0.05
        # Populations untouched by pure dephasing during the free
        # evolution; the exact Lindblad engine lets dephasing act
        # *during* the 10 ns drive window too (which the legacy
        # split-channel path could not), shifting the population by
        # O(gamma_phi * t_pulse) ~ 2e-3.
        assert float(np.real(rho[1, 1])) == pytest.approx(0.5, abs=5e-3)

    def test_unitary_raises_with_decoherence(self):
        model = make_model(decoherence=[DecoherenceSpec(t1=1e-5, t2=1e-5)])
        with pytest.raises(ExecutionError):
            ScheduleExecutor(model).unitary(PulseSchedule())

    def test_unphysical_t2_rejected(self):
        with pytest.raises(Exception):
            DecoherenceSpec(t1=1e-6, t2=3e-6)


class TestSegmentRuns:
    def test_constant_collapses(self):
        drives = np.ones((100, 2), dtype=complex)
        assert segment_runs(drives) == [(0, 100)]

    def test_change_points(self):
        drives = np.zeros((10, 1), dtype=complex)
        drives[4:7] = 0.5
        assert segment_runs(drives) == [(0, 4), (4, 3), (7, 3)]

    def test_empty(self):
        assert segment_runs(np.zeros((0, 1), dtype=complex)) == []

    def test_covers_everything(self):
        rng = np.random.default_rng(0)
        drives = rng.integers(0, 2, size=(57, 3)).astype(complex)
        runs = segment_runs(drives)
        assert sum(n for _, n in runs) == 57
        assert runs[0][0] == 0

    @staticmethod
    def ion_flat_top(samples):
        from repro.devices import TrappedIonDevice

        dev = TrappedIonDevice(num_qubits=2, drift_rate=0.0)
        port = dev.drive_port(0)
        amp = 0.5 / (125e3 * samples * dev.config.constraints.dt)
        sched = PulseSchedule("flat")
        sched.append(
            Play(port, dev.default_frame(port), constant_waveform(samples, amp))
        )
        return dev.executor, sched

    def test_long_flat_pulse_is_one_run(self):
        """A 4096-sample ion flat-top costs one propagator, not 4096,
        and its runs are planned from at most 3 candidate rows."""
        executor, sched = self.ion_flat_top(4096)
        model = executor.model
        runs, rows, _, evaluated = drive_runs(
            ScheduleFamily.gather([sched]), model, sorted(model.channels)
        )
        assert runs == [(0, 4096)] and rows.shape[:2] == (1, 1)
        assert evaluated <= 3

    def test_run_merging_matches_per_sample_stepping(self):
        from repro.sim.evolve import step_propagator

        executor, sched = self.ion_flat_top(1024)
        model = executor.model
        drives, names = reference_drives(model, sched)
        naive = np.eye(model.dimension, dtype=np.complex128)
        for row in drives:
            h = reference_hamiltonian(model, row, names)
            naive = step_propagator(h, model.dt) @ naive
        assert np.abs(executor.unitary(sched) - naive).max() < 1e-8


def reference_drives(model, schedule):
    """Per-sample drive matrix from per-sample frame bookkeeping.

    Walks the schedule one sample at a time: frame events at sample t
    update their (port, frame) state, every active play adds its
    envelope modulated by the frame's static phase plus the detuning
    phase accumulated over samples 0..t-1, and each frame then
    accumulates its own detuning for sample t.
    """
    names = sorted(model.channels)
    items = schedule.ordered()
    frames = {}  # (port, frame) -> [frequency, static phase, detuning phase]
    for item in items:
        ins = item.instruction
        if hasattr(ins, "frame") and hasattr(ins, "port"):
            key = (ins.port.name, ins.frame.name)
            frames.setdefault(key, [ins.frame.frequency, ins.frame.phase, 0.0])
    drives = np.zeros((schedule.duration, len(names)), dtype=complex)
    for t in range(schedule.duration):
        for item in items:
            ins = item.instruction
            if item.t0 != t or isinstance(ins, (Play, Capture, Delay)):
                continue
            if not hasattr(ins, "frame"):
                continue
            state = frames[(ins.port.name, ins.frame.name)]
            if isinstance(ins, SetFrequency):
                state[0] = ins.frequency
            elif isinstance(ins, ShiftFrequency):
                state[0] += ins.delta
            elif isinstance(ins, SetPhase):
                state[1] = ins.phase
            elif isinstance(ins, ShiftPhase):
                state[1] += ins.delta
            elif isinstance(ins, FrameChange):
                state[0], state[1] = ins.frequency, ins.phase
        for item in items:
            ins = item.instruction
            if not isinstance(ins, Play) or not item.t0 <= t < item.t1:
                continue
            if ins.port.name not in model.channels:
                continue  # readout stimulus: no Hamiltonian term
            freq, phase, acc = frames[(ins.port.name, ins.frame.name)]
            sample = ins.waveform.samples()[t - item.t0]
            drives[t, names.index(ins.port.name)] += sample * np.exp(
                1j * (acc + phase)
            )
        for (port, _), state in frames.items():
            if port in model.channels:
                ref = model.channels[port].reference_frequency
                state[2] += 2 * np.pi * model.dt * (state[0] - ref)
    return drives, names


def reference_hamiltonian(model, row, names):
    h = np.array(model.drift, dtype=complex)
    for a, name in zip(row, names):
        ch = model.channels[name]
        if ch.hermitian:
            h = h + ch.rabi_rate * a.real * ch.operator
        else:
            h = h + 0.5 * ch.rabi_rate * (
                np.conj(a) * ch.operator + a * ch.operator.conj().T
            )
    return h


def reference_final_state(model, schedule):
    """``expm`` per sample: a ket, or with T1/T2 a density matrix
    through a per-sample Lindblad superoperator."""
    from scipy.linalg import expm

    from repro.sim.open_system import collapse_operators

    dim = model.dimension
    psi = np.zeros(dim, dtype=complex)
    psi[0] = 1.0
    drives, names = reference_drives(model, schedule)
    if not model.has_decoherence():
        for row in drives:
            h = reference_hamiltonian(model, row, names)
            psi = expm(-2j * np.pi * h * model.dt) @ psi
        return psi
    eye = np.eye(dim)
    dissipator = np.zeros((dim * dim, dim * dim), dtype=complex)
    for c in collapse_operators(model.dims, model.decoherence):
        cdc = c.conj().T @ c
        dissipator += np.kron(c, c.conj())
        dissipator -= 0.5 * (np.kron(cdc, eye) + np.kron(eye, cdc.T))
    vec = np.outer(psi, psi.conj()).reshape(-1)
    for row in drives:
        h = reference_hamiltonian(model, row, names)
        generator = -2j * np.pi * (np.kron(h, eye) - np.kron(eye, h.T))
        vec = expm((generator + dissipator) * model.dt) @ vec
    return vec.reshape(dim, dim)


def mixed_batch(device):
    """Template clones (not all contiguous) among a stretched variant,
    a twirled variant, a zero-duration schedule, a schedule with no
    capture and a play on a readout port."""
    from dataclasses import replace

    from repro.core import gaussian_waveform
    from repro.core.stretch import stretch_schedule
    from repro.qem.twirling import twirl_schedule

    p = device.drive_port(0)
    f = device.default_frame(p)
    acq = device.acquire_port(0)
    ro = device.readout_port(0)
    base = PulseSchedule("ansatz")
    base.append(Play(p, f, gaussian_waveform(24, 0.2, 6.0)))
    detune = base.append(ShiftFrequency(p, f, 7e6))
    base.append(Delay(p, 20))
    shift = base.append(ShiftPhase(p, f, 0.0))
    base.append(Play(p, f, constant_waveform(24, 0.15)))
    base.append(Capture(acq, device.default_frame(acq), 0))

    def clone(theta, delta=7e6):
        # Members differ in frame-event values only; a zero detuning
        # keeps the constant pulse one run, so a family's runs must
        # split at the union of its members' boundaries.
        values = {shift: theta, detune: delta}
        return base.clone_with_items(
            [
                replace(it, instruction=replace(it.instruction, delta=values[it]))
                if it in values
                else it
                for it in base._items
            ]
        )

    zero = PulseSchedule("virtual-only")
    zero.append(ShiftPhase(p, f, 0.3))
    no_capture = PulseSchedule("no-capture")
    no_capture.append(SetFrequency(p, f, f.frequency - 4e6))
    no_capture.append(Play(p, f, constant_waveform(15, 0.1)))
    no_capture.append(FrameChange(p, f, f.frequency, 0.5))
    no_capture.append(Play(p, f, constant_waveform(10, 0.1)))
    readout = PulseSchedule("readout-play")
    readout.append(Play(p, f, constant_waveform(12, 0.12)))
    readout.append(Play(ro, device.default_frame(ro), constant_waveform(16, 0.3)))
    readout.append(Capture(acq, device.default_frame(acq), 0))
    return [
        clone(0.4),
        stretch_schedule(base, 1.5),
        clone(-1.1, 0.0),
        clone(2.0),
        twirl_schedule(clone(0.9), [True], device, [0]),
        zero,
        clone(0.7),
        no_capture,
        readout,
    ]


class TestIndependentReference:
    """``execute`` and ``execute_batch`` share one pipeline, so each is
    checked against a test-local per-sample simulation instead."""

    @pytest.mark.parametrize("noisy", [False, True])
    def test_mixed_batch_matches_per_sample_reference(self, noisy):
        from repro.devices import SuperconductingDevice

        kw = {"with_decoherence": True, "t1": 20e-6, "t2": 15e-6} if noisy else {}
        device = SuperconductingDevice(num_qubits=1, drift_rate=0.0, **kw)
        model = device.model
        assert model.has_decoherence() is noisy
        schedules = mixed_batch(device)
        ex = ScheduleExecutor(model)
        ex._MAX_OPEN_BATCH_SLICES = 7  # several flushes, some mid-family
        batch = ex.execute_batch(schedules, shots=64, seed=3)
        for schedule, br in zip(schedules, batch):
            ref = reference_final_state(model, schedule)
            single = ScheduleExecutor(model).execute(schedule, shots=64, seed=3)
            for result in (br, single):
                assert result.final_state.shape == ref.shape
                assert np.abs(result.final_state - ref).max() < 1e-10
            probs = np.abs(ref) ** 2 if ref.ndim == 1 else np.real(np.diag(ref))
            if schedule.instructions_of(Capture):
                expected = {"0": probs[0], "1": probs[1:].sum()}
            else:
                expected = {}
            assert set(br.ideal_probabilities) <= set(expected)
            for key, p in expected.items():
                assert br.ideal_probabilities.get(key, 0.0) == pytest.approx(
                    p, abs=1e-10
                )
            assert br.counts == single.counts
            assert br.leakage[0] == pytest.approx(probs[2], abs=1e-10)

    @pytest.mark.parametrize("noisy", [False, True])
    def test_per_schedule_seeds_match_execute_loop(self, noisy):
        """One seed per schedule: the batch is the ``execute(seed=s_i)``
        loop — each member samples the stream its own seed gives, which
        is how a device serves many jobs in one pass."""
        from repro.devices import SuperconductingDevice

        kw = {"with_decoherence": True, "t1": 20e-6, "t2": 15e-6} if noisy else {}
        device = SuperconductingDevice(num_qubits=1, drift_rate=0.0, **kw)
        schedules = mixed_batch(device)
        seeds = [11 * i + 1 for i in range(len(schedules))]
        seeds[3] = None  # unseeded members draw fresh entropy
        batch = ScheduleExecutor(device.model).execute_batch(
            schedules, shots=256, seed=seeds
        )
        for schedule, seed, br in zip(schedules, seeds, batch):
            single = ScheduleExecutor(device.model).execute(
                schedule, shots=256, seed=seed
            )
            np.testing.assert_allclose(
                br.final_state, single.final_state, rtol=0, atol=1e-12
            )
            assert br.ideal_probabilities.keys() == single.ideal_probabilities.keys()
            for key, p in single.ideal_probabilities.items():
                assert br.ideal_probabilities[key] == pytest.approx(p, abs=1e-12)
            if seed is not None:
                assert br.counts == single.counts
        with pytest.raises(ValidationError, match="seeds"):
            ScheduleExecutor(device.model).execute_batch(schedules, seed=[1, 2])

    def test_execute_rng_draws_like_sample_counts(self):
        import copy

        from repro.sim import sample_counts

        model = make_model()
        s = PulseSchedule()
        s.append(Play(Port.drive(0), drive_frame(), pi_pulse(0.5)))
        s.append(Capture(Port.acquire(0), Frame("acq", 0.0), 0))
        g = np.random.default_rng(11)
        twin = copy.deepcopy(g)
        ex = ScheduleExecutor(model)
        for _ in range(2):
            r = ex.execute(s, shots=300, rng=g)
            assert r.counts == sample_counts(r.probabilities, 300, twin)


class TestUnitaryExtraction:
    def test_unitary_matches_state_path(self):
        model = make_model()
        ex = ScheduleExecutor(model)
        s = PulseSchedule()
        s.append(Play(Port.drive(0), drive_frame(), pi_pulse(0.37)))
        u = ex.unitary(s)
        assert np.allclose(u @ u.conj().T, np.eye(2), atol=1e-10)
        psi = ex.execute(s, shots=0).final_state
        assert np.allclose(u[:, 0], psi, atol=1e-10)
