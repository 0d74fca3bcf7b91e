"""Calibration experiments as pipeline task kinds (paper §2.1).

This module is the one implementation of the calibration scans; the
measurement half and the fitting half of each experiment are separate
tasks:

* **experiment tasks** (``ramsey_scan``, ``rabi_scan``, ``drag_scan``,
  ``readout_scan``) build programs and measure through the
  Estimator/Sampler primitives — *all sites of a scan batch through
  one primitive call*. ``rabi_scan``, ``ramsey_scan`` and
  ``readout_scan`` compile once per runner: each emits one parametric
  pulse-MLIR program, the pulse amplitude, the free-evolution delay
  or the ``x`` amplitude (0 prepares |0>, 1 prepares |1>) as its
  sequence argument and every site in the one program, and submits
  it as one PUB. The program names its calibrated frames (the port's
  default frame plus a fixed offset) instead of copying their
  frequencies, so a write-back leaves it, and its compiled template,
  as they are (:meth:`TaskContext.program
  <repro.pipeline.runner.TaskContext.program>` rebuilds it only when
  the calibration structure changes). The PUB binds as one schedule
  family (an amplitude or a delay slot), which a direct target
  evolves in one ``execute_batch`` and an in-process service runs as
  one sweep of one family: one QDMI job, one execution, one
  measurement pass. ``drag_scan`` still builds a schedule per point.
  Their recorded results carry everything the downstream fit needs
  (including the believed frequencies at scan time), which makes the
  fits pure.
* **fit tasks** (``ramsey_fit``, ``rabi_fit``, ``drag_fit``) call the
  fitting functions of :mod:`repro.calibration`
  (:func:`~repro.calibration.ramsey.fit_ramsey_fringe`,
  :func:`~repro.calibration.rabi.fit_pi_amplitude`,
  :func:`~repro.calibration.drag.refine_beta`) on recorded scan data —
  no device access, trivially replayable, retryable without
  re-measuring.
* **control/verify tasks** (``advance_time``, ``probe_error``,
  ``verify_calibration``, ``callback``) advance simulated wall clock,
  score tracking error against ground truth, and host arbitrary
  callables (the scheduler shim's recalibration hook).

The DAG builders at the bottom assemble these kinds into the three
standard closed-loop workloads: single-shot frequency tracking, a full
calibration pass (Rabi + DRAG + readout + Ramsey), and the drift
campaign of experiment E9.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

import numpy as np

from repro.core.frame import Frame
from repro.core.instructions import Delay, Play
from repro.core.schedule import PulseSchedule
from repro.core.waveform import constant_waveform, drag_waveform
from repro.errors import CalibrationError, PipelineError
from repro.pipeline.dag import DAG, register_task

#: Default artificial detuning (Hz) — resolves drift sign, paper §2.1.
ARTIFICIAL_DETUNING_HZ = 2e6


def _sites(device, params: Mapping) -> list[int]:
    sites = params.get("sites")
    if sites is None:
        return list(range(device.config.num_sites))
    return [int(s) for s in sites]


def _p1(slot: int):
    """P1 on one measurement slot: ``(1 - Z)/2``."""
    from repro.primitives import Observable

    return Observable.identity(0.5) - Observable.z(slot, 0.5)


def _program(schedule: PulseSchedule):
    from repro.api.program import Program

    return Program.from_schedule(schedule)


class _ScanProgram:
    """A parametric scan as one ``pulse.sequence``.

    Mixed frames name calibrated frames instead of copying them: each
    is declared on first use as its port's default frame plus a fixed
    offset (``pulse.argFrames``), which the interpreter resolves
    against the device. So a frequency write-back leaves the program,
    and its compiled template, as they are. :meth:`apply` emits a
    device calibration op by op, barriers included, so the
    interpreter's as-soon-as-possible placement rebuilds it after the
    parametric part.
    """

    def __init__(self, name: str, device) -> None:
        from repro.mlir.dialects.pulse import SequenceBuilder

        self.device = device
        self.sb = SequenceBuilder(name)
        self._frames: list[list] = []
        self._mfs: dict[tuple[str, float], Any] = {}
        self._by_port: dict[str, Any] = {}

    def scalar(self, name: str):
        self._frames.append([])
        return self.sb.add_scalar_arg(name)

    def mf(self, port, offset: float | None = None):
        """The mixed-frame argument of *port* on its default frame
        shifted by *offset* Hz; *offset* ``None`` takes any frame
        already declared on the port, else the default frame."""
        if offset is None:
            known = self._by_port.get(port.name)
            if known is not None:
                return known
            offset = 0.0
        key = (port.name, float(offset))
        value = self._mfs.get(key)
        if value is None:
            value = self.sb.add_mixed_frame_arg(f"mf{len(self._mfs)}", port.name)
            self._frames.append(["default", float(offset)])
            self._mfs[key] = value
            self._by_port.setdefault(port.name, value)
        return value

    def _calibrated_mf(self, ins):
        """The argument of a calibration instruction's frame, which must
        be its port's default frame."""
        if ins.frame != self.device.default_frame(ins.port):
            raise PipelineError(
                f"calibration plays on frame {ins.frame.name!r}, not the "
                f"default frame of port {ins.port.name!r}"
            )
        return self.mf(ins.port, 0.0)

    def apply(self, operation: str, sites: Sequence[int], amplitude=None) -> None:
        """The device's *operation* calibration on each site (``measure``
        into the site's slot), every play scaled by the scalar
        *amplitude* when one is given."""
        from repro.core.instructions import Barrier, Capture

        tail = PulseSchedule(operation)
        for slot, site in enumerate(sites):
            entry = self.device.calibrations.get(operation, (site,))
            entry.apply(tail, [slot][: entry.num_params])
        for item in tail._items:
            ins = item.instruction
            if isinstance(ins, Barrier):
                self.sb.barrier(*(self.mf(p) for p in ins.barrier_ports))
            elif isinstance(ins, Play):
                wf = self.sb.waveform(ins.waveform, amplitude=amplitude)
                self.sb.play(self._calibrated_mf(ins), wf)
            elif isinstance(ins, Capture):
                mf = self._calibrated_mf(ins)
                self.sb.capture(mf, ins.memory_slot, ins.duration_samples)
            elif isinstance(ins, Delay):
                self.sb.delay(self.mf(ins.port), ins.duration_samples)
            else:
                raise PipelineError(
                    f"cannot emit {type(ins).__name__} of a {operation} calibration"
                )

    def program(self):
        from repro.api.program import Program

        self.sb.sequence.attributes["pulse.argFrames"] = self._frames
        self.sb.ret()
        return Program.from_mlir(self.sb.module)


# ---- control tasks -------------------------------------------------------------------


def _advance_run(ctx, params, seed, upstream) -> dict:
    seconds = float(params["seconds"])
    ctx.device.advance_time(seconds)
    return {"seconds": seconds, "elapsed_seconds": ctx.device.elapsed_seconds}


def _advance_replay(ctx, params, recorded) -> None:
    # Drift draws come from the device RNG in call order; replaying
    # every completed advance in topological order walks the fresh
    # device through the identical frequency trajectory.
    ctx.device.advance_time(float(recorded["seconds"]))


register_task("advance_time", "control", replay=_advance_replay)(_advance_run)


def _callback_run(ctx, params, seed, upstream) -> dict:
    fn = ctx.extras.get("callback")
    if fn is None:
        raise PipelineError(
            "callback task needs a 'callback' entry in the runner extras"
        )
    fn(*params.get("args", []))
    return {"ok": True}


register_task("callback", "control")(_callback_run)


# ---- verify tasks --------------------------------------------------------------------


def _probe_run(ctx, params, seed, upstream) -> dict:
    sites = _sites(ctx.device, params)
    return {
        "sites": sites,
        "tracking_error_hz": [ctx.device.tracking_error(s) for s in sites],
        "elapsed_seconds": ctx.device.elapsed_seconds,
    }


register_task("probe_error", "verify")(_probe_run)


def _verify_run(ctx, params, seed, upstream) -> dict:
    sites = _sites(ctx.device, params)
    errors = [ctx.device.tracking_error(s) for s in sites]
    budget = params.get("max_error_hz")
    ok = budget is None or all(e <= float(budget) for e in errors)
    if not ok and params.get("strict"):
        raise CalibrationError(
            f"post-calibration tracking error {max(errors):.1f} Hz exceeds "
            f"the verification budget of {float(budget):.1f} Hz"
        )
    return {"sites": sites, "tracking_error_hz": errors, "ok": ok}


register_task("verify_calibration", "verify")(_verify_run)


# ---- Ramsey --------------------------------------------------------------------------


def _ramsey_delays(device, max_delay_samples: int, points: int) -> np.ndarray:
    g = device.config.constraints.granularity
    # An index output keeps unique off NumPy's lazy numpy.ma import.
    return np.unique(
        (np.linspace(0, max_delay_samples, points) / g).astype(int) * g,
        return_index=True,
    )[0]


def _half_pi_pulse(device, site: int):
    """A pi/2 flat pulse built from the device's published Rabi rate."""
    from repro.qdmi.properties import SiteProperty
    from repro.qdmi.types import Site

    rabi = device.query_site_property(Site(site), SiteProperty.RABI_RATE)
    dt = device.config.constraints.dt
    granularity = device.config.constraints.granularity
    # Quarter rotation: amp * duration * dt * rabi = 1/4.
    duration = max(
        granularity, int(round(0.25 / (0.8 * rabi * dt) / granularity)) * granularity
    )
    amp = 0.25 / (rabi * duration * dt)
    return constant_waveform(duration, amp)


def _ramsey_program(device, sites: Sequence[int], artificial_detuning_hz: float):
    """The Ramsey sequence on *every* site at once, the free-evolution
    delay (samples) as the program's one parameter ``tau``.

    Instruction placement is per-port, so the per-site sequences run
    simultaneously; couplers are driven-only (no always-on ZZ), so the
    joint evolution factorizes and each slot's marginal equals the
    single-site Ramsey population.
    """
    scan = _ScanProgram("ramsey", device)
    tau = scan.scalar("tau")
    for site in sites:
        mf = scan.mf(device.drive_port(site), float(artificial_detuning_hz))
        half = scan.sb.waveform(_half_pi_pulse(device, site))
        scan.sb.play(mf, half)
        scan.sb.delay(mf, tau)
        scan.sb.play(mf, half)
    scan.apply("measure", sites)
    return scan.program()


def _ramsey_schedule(
    device, sites: Sequence[int], tau: int, artificial_detuning_hz: float, tag: str
) -> PulseSchedule:
    """One point of the Ramsey scan, built by hand: the per-point
    reference that :func:`_ramsey_program` bound at delay *tau* must
    reproduce."""
    sched = PulseSchedule(tag)
    for site in sites:
        drive = device.drive_port(site)
        base = device.default_frame(drive)
        frame = Frame(base.name, base.frequency + artificial_detuning_hz, base.phase)
        half = _half_pi_pulse(device, site)
        sched.append(Play(drive, frame, half))
        if tau > 0:
            sched.append(Delay(drive, int(tau)))
        sched.append(Play(drive, frame, half))
    for slot, site in enumerate(sites):
        device.calibrations.get("measure", (site,)).apply(sched, [slot])
    return sched


def _ramsey_scan_run(ctx, params, seed, upstream) -> dict:
    """Ramsey fringe populations: pi/2, free evolution tau, pi/2.

    The frame is offset by an artificial detuning, so the fringe
    frequency resolves both magnitude and sign of the tracking error.
    Populations are the Estimator's exact expectation values: *shots*
    only sets their recorded standard errors, not the values.
    """
    device = ctx.device
    sites = _sites(device, params)
    artificial = float(params.get("artificial_detuning_hz", ARTIFICIAL_DETUNING_HZ))
    max_delay = int(params.get("max_delay_samples", 1024))
    points = int(params.get("points", 41))
    shots = int(params.get("shots", 0))
    delays = _ramsey_delays(device, max_delay, points)
    # One parametric program and one PUB for the whole (delays x sites)
    # grid: it binds as one family with a delay slot, which a direct
    # target evolves in one execute_batch pass and an in-process
    # service runs as one sweep of that family (one job, one batched
    # execution). The program names the drive frames, so the runner
    # builds it once.
    program = ctx.program(
        ("ramsey_scan", tuple(sites), artificial),
        lambda: _ramsey_program(device, sites, artificial),
    )
    pub = (
        program,
        [[_p1(slot)] for slot in range(len(sites))],
        {"tau": delays.astype(np.float64)},
    )
    evs = ctx.estimator(shots=shots, seed=seed).run([pub])[0].data.evs
    populations = {
        str(site): [float(v) for v in evs[slot]] for slot, site in enumerate(sites)
    }
    return {
        "sites": sites,
        "delays_samples": [int(t) for t in delays],
        "artificial_detuning_hz": artificial,
        "dt": device.config.constraints.dt,
        "shots": shots,
        "populations": populations,
        # Captured at scan time so the downstream fit stays pure.
        "believed_frequency_hz": {
            str(site): device.believed_frequency(site) for site in sites
        },
    }


register_task("ramsey_scan", "experiment")(_ramsey_scan_run)


def _ramsey_fit_run(ctx, params, seed, upstream) -> dict:
    from repro.calibration.ramsey import fit_ramsey_fringe

    scan = _single_upstream(upstream, "ramsey_fit", "delays_samples")
    delays = np.asarray(scan["delays_samples"], dtype=np.float64)
    estimated: dict[str, float] = {}
    detuning: dict[str, float] = {}
    fringe: dict[str, float] = {}
    residual: dict[str, float] = {}
    for site, pops in scan["populations"].items():
        f, d, r = fit_ramsey_fringe(
            delays,
            np.asarray(pops, dtype=np.float64),
            float(scan["dt"]),
            float(scan["artificial_detuning_hz"]),
        )
        fringe[site], detuning[site], residual[site] = f, d, r
        estimated[site] = float(scan["believed_frequency_hz"][site]) - d
    return {
        "estimated_frequency_hz": estimated,
        "detuning_hz": detuning,
        "fringe_hz": fringe,
        "fit_residual": residual,
    }


register_task("ramsey_fit", "fit")(_ramsey_fit_run)


# ---- Rabi ----------------------------------------------------------------------------


def _rabi_program(device, sites: Sequence[int], duration: int):
    """The Rabi scan on every site at once, the flat pulse's amplitude
    as the program's one parameter ``amp``: each site plays the
    unit-height pulse of *duration* samples scaled by ``amp``."""
    scan = _ScanProgram("rabi", device)
    amp = scan.scalar("amp")
    unit = constant_waveform(duration, 1.0)
    for site in sites:
        wf = scan.sb.waveform(unit, amplitude=amp)
        scan.sb.play(scan.mf(device.drive_port(site)), wf)
    scan.apply("measure", sites)
    return scan.program()


def _rabi_scan_run(ctx, params, seed, upstream) -> dict:
    """Rabi oscillation populations over flat pulses of fixed length.

    The pulse area is ``amp * duration * dt``, so *duration* must be a
    multiple of the device granularity. Populations are the
    Estimator's exact expectation values: *shots* only sets their
    recorded standard errors, not the values.
    """
    device = ctx.device
    sites = _sites(device, params)
    constraints = device.config.constraints
    duration = int(params.get("duration", 40))
    if duration % constraints.granularity != 0:
        raise CalibrationError(
            f"duration {duration} violates granularity {constraints.granularity}"
        )
    amps = params.get("amplitudes")
    if amps is None:
        amps = np.linspace(0.05, min(1.0, constraints.max_amplitude), 16)
    amps = np.asarray(amps, dtype=np.float64)
    shots = int(params.get("shots", 0))
    program = ctx.program(
        ("rabi_scan", tuple(sites), duration),
        lambda: _rabi_program(device, sites, duration),
    )
    pub = (
        program,
        [[_p1(slot)] for slot in range(len(sites))],
        {"amp": amps},
    )
    evs = ctx.estimator(shots=shots, seed=seed).run([pub])[0].data.evs
    return {
        "sites": sites,
        "amplitudes": [float(a) for a in amps],
        "duration_samples": duration,
        "dt": constraints.dt,
        "shots": shots,
        "populations": {
            str(site): [float(v) for v in evs[slot]]
            for slot, site in enumerate(sites)
        },
    }


register_task("rabi_scan", "experiment")(_rabi_scan_run)


def _rabi_fit_run(ctx, params, seed, upstream) -> dict:
    from repro.calibration.rabi import fit_pi_amplitude

    scan = _single_upstream(upstream, "rabi_fit", "amplitudes")
    amps = np.asarray(scan["amplitudes"], dtype=np.float64)
    pulse_s = float(scan["duration_samples"]) * float(scan["dt"])
    pi_amplitude: dict[str, float] = {}
    implied_rabi: dict[str, float] = {}
    residual: dict[str, float] = {}
    for site, pops in scan["populations"].items():
        amp_pi, r = fit_pi_amplitude(amps, np.asarray(pops, dtype=np.float64))
        pi_amplitude[site] = amp_pi
        implied_rabi[site] = 0.5 / (amp_pi * pulse_s)
        residual[site] = r
    # Report-only: pi amplitudes cross-check the published RABI_RATE;
    # no write-back key, so a downstream writeback task ignores this.
    return {
        "pi_amplitude": pi_amplitude,
        "implied_rabi_rate_hz": implied_rabi,
        "fit_residual": residual,
    }


register_task("rabi_fit", "fit")(_rabi_fit_run)


# ---- DRAG ----------------------------------------------------------------------------


def _drag_scan_run(ctx, params, seed, upstream) -> dict:
    _require_direct(ctx, "drag_scan")
    device = ctx.device
    sites = _sites(device, params)
    dims = device.model.dims
    for site in sites:
        if dims[site] < 3:
            raise CalibrationError(
                f"site {site} has only {dims[site]} levels; DRAG "
                "calibration needs a leakage level"
            )
    for attr in ("X_DURATION", "X_SIGMA", "_pi_amp"):
        if not hasattr(device, attr):
            raise PipelineError(
                f"device {device.name!r} has no DRAG pulse parameters"
            )
    betas = params.get("betas")
    if betas is None:
        betas = np.linspace(-2.0, 2.0, 17)
    betas = np.asarray(betas, dtype=np.float64)
    repetitions = int(params.get("repetitions", 4))
    from repro.primitives import Observable

    amp = device._pi_amp(1.0)
    pubs = []
    # The Estimator's leakage channel is the *total* over sites, so the
    # beta sweep pulses one site per schedule; all (site, beta) points
    # still batch through one primitive call.
    for site in sites:
        drive = device.drive_port(site)
        frame = device.default_frame(drive)
        for i, beta in enumerate(betas):
            sched = PulseSchedule(f"drag-{site}-{i}")
            wf = drag_waveform(device.X_DURATION, amp, device.X_SIGMA, float(beta))
            for _ in range(repetitions):
                sched.append(Play(drive, frame, wf))
            pubs.append((_program(sched), [Observable.identity(1.0)]))
    res = ctx.estimator(seed=seed).run(pubs)
    leakage = {
        str(site): [
            float(res[s * len(betas) + i].data.leakage[0])
            for i in range(len(betas))
        ]
        for s, site in enumerate(sites)
    }
    return {
        "sites": sites,
        "betas": [float(b) for b in betas],
        "repetitions": repetitions,
        "leakage": leakage,
    }


register_task("drag_scan", "experiment")(_drag_scan_run)


def _drag_fit_run(ctx, params, seed, upstream) -> dict:
    from repro.calibration.drag import refine_beta

    scan = _single_upstream(upstream, "drag_fit", "betas")
    betas = np.asarray(scan["betas"], dtype=np.float64)
    # One beta knob on the device: minimize the summed leakage.
    total = np.zeros(len(betas), dtype=np.float64)
    for series in scan["leakage"].values():
        total += np.asarray(series, dtype=np.float64)
    best, coarse_min = refine_beta(betas, total)
    return {"drag_beta": best, "coarse_min_leakage": coarse_min}


register_task("drag_fit", "fit")(_drag_fit_run)


# ---- readout confusion ---------------------------------------------------------------


def _readout_program(device, sites: Sequence[int]):
    """Every site's ``x`` calibration scaled by the parameter ``amp``,
    then every site measured into its slot: ``amp = 0`` prepares |0>,
    ``amp = 1`` prepares |1>."""
    scan = _ScanProgram("readout", device)
    amp = scan.scalar("amp")
    scan.apply("x", sites, amplitude=amp)
    scan.apply("measure", sites)
    return scan.program()


def _readout_scan_run(ctx, params, seed, upstream) -> dict:
    """Measure per-site assignment error; doubles as its own fit.

    Confusion is a *post-readout* quantity, so this is the one scan
    that samples counts through the Sampler instead of taking exact
    Estimator expectation values, from one program at two points
    (:func:`_readout_program`).
    """
    device = ctx.device
    sites = _sites(device, params)
    shots = int(params.get("shots", 2048))
    program = ctx.program(
        ("readout_scan", tuple(sites)), lambda: _readout_program(device, sites)
    )
    counts = (
        ctx.sampler(default_shots=shots, seed=seed)
        .run([(program, {"amp": [0.0, 1.0]})])[0]
        .data.counts
    )

    def ones_fraction(point: int, slot: int) -> float:
        total = max(1, sum(counts[point].values()))
        return sum(c for k, c in counts[point].items() if k[slot] == "1") / total

    confusion = {
        str(site): {
            "p01": ones_fraction(0, slot),  # prepared |0>, read 1
            "p10": 1.0 - ones_fraction(1, slot),  # prepared |1>, read 0
            "shots": shots,
        }
        for slot, site in enumerate(sites)
    }
    return {"sites": sites, "confusion": confusion}


register_task("readout_scan", "experiment")(_readout_scan_run)


# ---- shared helpers ------------------------------------------------------------------


def _require_direct(ctx, kind: str) -> None:
    """Fail unless *ctx* runs in process: leakage, exact distributions
    and simulator state only come back from direct execution."""
    if ctx.runner.dispatch != "direct":
        raise PipelineError(
            f"{kind} needs a direct simulator runner (leakage, exact "
            "distributions and simulator state are only reported by "
            f"in-process execution); got dispatch {ctx.runner.dispatch!r}"
        )


def _single_upstream(upstream: Mapping, kind: str, marker: str) -> Mapping:
    """The one upstream result carrying *marker* (the scan to fit)."""
    matches = [
        r for r in upstream.values() if isinstance(r, Mapping) and marker in r
    ]
    if len(matches) != 1:
        raise PipelineError(
            f"{kind} needs exactly one upstream scan result with "
            f"{marker!r}, found {len(matches)}"
        )
    return matches[0]


# ---- DAG builders --------------------------------------------------------------------


def frequency_tracking_dag(
    sites: Sequence[int] | None = None,
    *,
    rounds: int = 1,
    shots: int = 0,
    artificial_detuning_hz: float = ARTIFICIAL_DETUNING_HZ,
    max_delay_samples: int = 1024,
    points: int = 41,
    max_error_hz: float | None = None,
    name: str = "frequency-tracking",
) -> DAG:
    """Closed-loop Ramsey tracking: (scan -> fit -> write-back) x rounds.

    Each round doubles the maximum delay, halving the frequency
    resolution limit (the adaptive schedule of Berritta et al., the
    paper's reference [4]), and a final ``verify_calibration`` task
    scores the result against ground truth.
    """
    dag = DAG(name)
    site_list = None if sites is None else [int(s) for s in sites]
    prev: tuple[str, ...] = ()
    for r in range(rounds):
        dag.task(
            f"scan-{r}",
            "ramsey_scan",
            {
                "sites": site_list,
                "shots": shots,
                "artificial_detuning_hz": artificial_detuning_hz,
                "max_delay_samples": max_delay_samples * (2**r),
                "points": points,
            },
            after=prev,
        )
        dag.task(f"fit-{r}", "ramsey_fit", after=(f"scan-{r}",))
        dag.task(f"writeback-{r}", "writeback", after=(f"fit-{r}",))
        prev = (f"writeback-{r}",)
    verify_params: dict[str, Any] = {"sites": site_list}
    if max_error_hz is not None:
        verify_params["max_error_hz"] = max_error_hz
    dag.task("verify", "verify_calibration", verify_params, after=prev)
    return dag


def full_calibration_dag(
    sites: Sequence[int] | None = None,
    *,
    shots: int = 0,
    readout_shots: int = 2048,
    include_drag: bool = True,
    name: str = "full-calibration",
) -> DAG:
    """The full bring-up pass: Rabi, DRAG, readout, Ramsey, write-back.

    Scans are mutually independent: they share the first ready set,
    which :class:`~repro.pipeline.runner.PipelineRunner` runs one task
    at a time, in insertion order. One write-back commits every fitted field
    atomically, then a verify task scores the tracked frequencies.
    """
    dag = DAG(name)
    site_list = None if sites is None else [int(s) for s in sites]
    base = {"sites": site_list, "shots": shots}
    dag.task("rabi-scan", "rabi_scan", dict(base))
    dag.task("rabi-fit", "rabi_fit", after=("rabi-scan",))
    fitted = ["ramsey-fit", "readout-scan"]
    if include_drag:
        dag.task("drag-scan", "drag_scan", {"sites": site_list})
        dag.task("drag-fit", "drag_fit", after=("drag-scan",))
        fitted.append("drag-fit")
    dag.task(
        "readout-scan",
        "readout_scan",
        {"sites": site_list, "shots": readout_shots},
    )
    dag.task("ramsey-scan", "ramsey_scan", dict(base))
    dag.task("ramsey-fit", "ramsey_fit", after=("ramsey-scan",))
    dag.task("writeback", "writeback", after=tuple(fitted))
    # rabi-fit is report-only but still gates completion.
    dag.task(
        "verify", "verify_calibration", {"sites": site_list},
        after=("writeback", "rabi-fit"),
    )
    return dag


def campaign_dag(
    n_steps: int,
    step_s: float,
    sites: Sequence[int] | None = None,
    *,
    tracked: bool = True,
    calibration_interval_s: float = 120.0,
    shots: int = 0,
    artificial_detuning_hz: float = ARTIFICIAL_DETUNING_HZ,
    max_delay_samples: int = 1024,
    points: int = 41,
    name: str = "drift-campaign",
) -> DAG:
    """The E9 drift campaign as a DAG.

    A linear chain — probe, then per step: advance time, optionally
    (scan -> fit -> write-back) when the calibration interval has
    elapsed, probe again.  The chain preserves the device-RNG call
    order, so a resumed run replays the identical drift trajectory.
    """
    dag = DAG(name)
    site_list = None if sites is None else [int(s) for s in sites]
    dag.task("probe-0", "probe_error", {"sites": site_list})
    prev = "probe-0"
    since = 0.0
    for k in range(1, n_steps + 1):
        dag.task(
            f"advance-{k}", "advance_time", {"seconds": step_s}, after=(prev,)
        )
        prev = f"advance-{k}"
        since += step_s
        if tracked and since >= calibration_interval_s:
            dag.task(
                f"scan-{k}",
                "ramsey_scan",
                {
                    "sites": site_list,
                    "shots": shots,
                    "artificial_detuning_hz": artificial_detuning_hz,
                    "max_delay_samples": max_delay_samples,
                    "points": points,
                },
                after=(prev,),
            )
            dag.task(f"fit-{k}", "ramsey_fit", after=(f"scan-{k}",))
            dag.task(f"writeback-{k}", "writeback", after=(f"fit-{k}",))
            prev = f"writeback-{k}"
            since = 0.0
        dag.task(f"probe-{k}", "probe_error", {"sites": site_list}, after=(prev,))
        prev = f"probe-{k}"
    return dag
