"""Device characterization as durable pipeline task kinds.

Three experiment families, each split into a measurement task
(category ``experiment``) and a pure fitting task (category ``fit``)
so they run as resumable :mod:`repro.pipeline` DAG nodes — a killed
run replays recorded scans instead of re-measuring:

* **Randomized benchmarking** (``rb_scan`` / ``rb_fit``) — standard
  and interleaved single-site RB over the 24-element single-qubit
  Clifford group, generated here by closure over the device's native
  ``sx`` pulse and the virtual ``rz(pi/2)``. The fit extracts the
  depolarizing decay ``A * p**m + B``, the error per Clifford
  ``r = (1 - p)/2``, and — when an interleaved scan rides along —
  the interleaved gate error ``r_gate = (1 - p_int/p_std)/2``. The
  scan records the device's configured T1/T2 and the measured
  Clifford block durations, so the fit can score ``p`` against the
  coherence-limited prediction ``(2*exp(-t/T2) + exp(-t/T1)) / 3``.

* **Coherence** (``coherence_scan`` / ``coherence_fit``) — T1
  (inversion recovery), T2 (Ramsey with artificial detuning) and
  T2echo (Hahn echo) delay scans with exponential / damped-cosine
  fits. The simulator collapses constant zero-drive stretches into
  repeated superpropagator powers, so long delays cost almost
  nothing extra.

* **Process tomography** (``tomography_scan`` / ``tomography_fit``)
  — single-site Pauli transfer matrix reconstruction from four
  linearly independent preparations. The prep matrix ``C`` is
  *measured* (prep-only scans), so ``R = S @ inv(C)`` is
  self-calibrated: systematic prep error cancels instead of
  biasing the gate fidelity.

Scans batch every schedule of the experiment through **one**
primitive call (one ``execute_batch`` evolution pass on a direct
target); fits touch only recorded dicts.

:func:`characterization_dag` assembles the standard full-suite DAG.
"""

from __future__ import annotations

import functools
from typing import Any, Mapping, Sequence

import numpy as np

from repro.core.frame import Frame
from repro.core.instructions import Delay, Play
from repro.core.schedule import PulseSchedule
from repro.errors import PipelineError, ValidationError
from repro.pipeline.dag import DAG, register_task
from repro.pipeline.experiments import (
    _half_pi_pulse,
    _p1,
    _program,
    _require_direct,
    _single_upstream,
)

__all__ = [
    "CLIFFORD_COUNT",
    "characterization_dag",
    "clifford_table",
    "clifford_word_schedule",
    "ideal_ptm",
    "inverse_word",
]

#: Order of the single-qubit Clifford group (mod global phase).
CLIFFORD_COUNT = 24

#: Generator matrices: ``s`` is the virtual ``rz(pi/2)`` frame shift,
#: ``x`` is the calibrated ``sx`` (pi/2 about X) pulse.
_GEN = {
    "s": np.diag([np.exp(-0.25j * np.pi), np.exp(0.25j * np.pi)]),
    "x": np.array([[1.0, -1.0j], [-1.0j, 1.0]]) / np.sqrt(2.0),
}

#: Single-qubit Paulis in PTM order (I, X, Y, Z).
_PAULIS = (
    np.eye(2, dtype=complex),
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]]),
    np.diag([1.0, -1.0]).astype(complex),
)

#: Unitaries of the gates tomography can score (global phase free).
_GATE_UNITARIES = {
    "id": np.eye(2, dtype=complex),
    "sx": _GEN["x"],
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
}


# ---- the single-qubit Clifford group -------------------------------------------------


def _canon_key(matrix: np.ndarray) -> bytes:
    """A hashable key identifying *matrix* up to global phase."""
    flat = matrix.reshape(-1)
    mags = np.abs(flat)
    # First entry within tolerance of the max: ``argmax`` alone is
    # unstable when several entries tie in magnitude up to rounding
    # (e.g. the all-1/sqrt(2) Cliffords), which would pick different
    # pivots for phase-equivalent matrices.
    pivot = flat[int(np.argmax(mags > mags.max() - 1e-9))]
    normalized = matrix * (abs(pivot) / pivot)
    # ``+ 0.0`` folds IEEE -0.0 into +0.0 so the byte keys agree.
    return (np.round(normalized, 6) + 0.0).tobytes()


@functools.lru_cache(maxsize=1)
def clifford_table() -> tuple[tuple[tuple[str, ...], ...], dict[bytes, int]]:
    """``(words, index)`` for the 24 single-qubit Cliffords.

    ``words[i]`` is the *shortest* generator word (letters ``s``/``x``,
    applied left to right) realizing element ``i``; ``index`` maps the
    phase-canonical matrix key back to the element. Breadth-first
    closure over the generators guarantees minimal words.
    """
    words: list[tuple[str, ...]] = [()]
    matrices: list[np.ndarray] = [np.eye(2, dtype=complex)]
    index: dict[bytes, int] = {_canon_key(matrices[0]): 0}
    head = 0
    while head < len(words):
        word, mat = words[head], matrices[head]
        head += 1
        for letter, gen in _GEN.items():
            new = gen @ mat
            key = _canon_key(new)
            if key not in index:
                index[key] = len(words)
                words.append(word + (letter,))
                matrices.append(new)
    if len(words) != CLIFFORD_COUNT:  # pragma: no cover - sanity net
        raise ValidationError(
            f"Clifford closure produced {len(words)} elements, "
            f"expected {CLIFFORD_COUNT}"
        )
    return tuple(words), index


def _word_matrix(word: Sequence[str]) -> np.ndarray:
    mat = np.eye(2, dtype=complex)
    for letter in word:
        mat = _GEN[letter] @ mat
    return mat


def inverse_word(word: Sequence[str]) -> tuple[str, ...]:
    """The Clifford word undoing *word* (shortest representative)."""
    words, index = clifford_table()
    inverse = _word_matrix(word).conj().T
    return words[index[_canon_key(inverse)]]


def clifford_word_schedule(
    device, site: int, schedule: PulseSchedule, word: Sequence[str]
) -> None:
    """Append *word* to *schedule* via the device's calibrations."""
    for letter in word:
        if letter == "s":
            device.calibrations.get("rz", (site,)).apply(
                schedule, [np.pi / 2.0]
            )
        elif letter == "x":
            device.calibrations.get("sx", (site,)).apply(schedule, [])
        else:  # pragma: no cover - table only emits s/x
            raise ValidationError(f"unknown Clifford generator {letter!r}")


# ---- shared helpers ------------------------------------------------------------------


def _survival(slot: int = 0):
    """P(0) on one measurement slot: ``(1 + Z)/2``."""
    from repro.primitives import Observable

    return Observable.identity(0.5) + Observable.z(slot, 0.5)


def _measure(device, site: int, schedule: PulseSchedule) -> None:
    device.calibrations.get("measure", (site,)).apply(schedule, [0])


def _site_coherence(device, site: int) -> dict[str, float]:
    from repro.qdmi.properties import SiteProperty
    from repro.qdmi.types import Site

    return {
        "t1": float(device.query_site_property(Site(site), SiteProperty.T1)),
        "t2": float(device.query_site_property(Site(site), SiteProperty.T2)),
    }


# ---- randomized benchmarking ---------------------------------------------------------


def _rb_scan_run(ctx, params, seed, upstream) -> dict:
    _require_direct(ctx, "rb_scan")
    device = ctx.device
    site = int(params.get("site", 0))
    lengths = [int(m) for m in params.get("lengths", (1, 4, 8, 12))]
    samples = int(params.get("samples", 2))
    shots = int(params.get("shots", 0))
    interleaved = params.get("interleaved")
    if interleaved is not None and interleaved not in _GATE_UNITARIES:
        raise PipelineError(
            f"interleaved gate must be one of {sorted(_GATE_UNITARIES)}, "
            f"got {interleaved!r}"
        )
    words, index = clifford_table()
    rng = np.random.default_rng(seed)
    pubs = []
    durations: list[list[int]] = []
    for m in lengths:
        row: list[int] = []
        for k in range(samples):
            sched = PulseSchedule(f"rb-{site}-m{m}-s{k}")
            net = np.eye(2, dtype=complex)
            for _ in range(m):
                choice = int(rng.integers(0, CLIFFORD_COUNT))
                clifford_word_schedule(device, site, sched, words[choice])
                net = _word_matrix(words[choice]) @ net
                if interleaved == "sx":
                    clifford_word_schedule(device, site, sched, ("x",))
                    net = _GEN["x"] @ net
                elif interleaved == "x":
                    clifford_word_schedule(device, site, sched, ("x", "x"))
                    net = _GATE_UNITARIES["x"] @ net
            recovery = words[index[_canon_key(net.conj().T)]]
            clifford_word_schedule(device, site, sched, recovery)
            row.append(int(sched.duration))  # gate block, pre-readout
            _measure(device, site, sched)
            pubs.append((_program(sched), _survival()))
        durations.append(row)
    res = ctx.estimator(shots=shots, seed=seed).run(pubs)
    survival = [
        [
            float(res[i * samples + k].data.evs)
            for k in range(samples)
        ]
        for i in range(len(lengths))
    ]
    return {
        "site": site,
        "rb_lengths": lengths,
        "samples": samples,
        "shots": shots,
        "interleaved": interleaved,
        "survival": survival,
        "block_durations": durations,
        "dt": float(device.config.constraints.dt),
        # Captured at scan time so the fit stays pure.
        "coherence": _site_coherence(device, site),
    }


register_task("rb_scan", "experiment")(_rb_scan_run)


def _fit_rb_decay(
    lengths: np.ndarray, survival: np.ndarray
) -> tuple[float, float, float]:
    from scipy.optimize import curve_fit

    # The depolarizing asymptote is pinned at 1/2: over the shallow
    # decays short sequences probe, a free baseline makes (A, p, B)
    # degenerate (only A*(1-p) is constrained) and the fitted rate
    # meaningless.
    def model(m, a, p):
        return a * np.power(p, m) + 0.5

    popt, _ = curve_fit(
        model,
        lengths,
        survival,
        p0=(0.5, 0.98),
        bounds=((0.0, 0.0), (1.0, 1.0)),
        maxfev=5000,
    )
    return float(popt[0]), float(popt[1]), 0.5


def _rb_fit_run(ctx, params, seed, upstream) -> dict:
    scans = [
        r
        for r in upstream.values()
        if isinstance(r, Mapping) and "rb_lengths" in r
    ]
    if not scans:
        raise PipelineError("rb_fit needs at least one upstream rb_scan")
    out: dict[str, Any] = {}
    fits: dict[str, dict] = {}
    for scan in scans:
        lengths = np.asarray(scan["rb_lengths"], dtype=np.float64)
        mean = np.asarray(scan["survival"], dtype=np.float64).mean(axis=1)
        a, p, b = _fit_rb_decay(lengths, mean)
        # Coherence-limited prediction: average Clifford duration from
        # the linear growth of the recorded gate-block durations.
        dur = np.asarray(scan["block_durations"], dtype=np.float64).mean(axis=1)
        t_clifford = (
            float(np.polyfit(lengths, dur, 1)[0]) * float(scan["dt"])
            if len(lengths) > 1
            else float(dur[0]) * float(scan["dt"])
        )
        t1 = scan["coherence"]["t1"]
        t2 = scan["coherence"]["t2"]
        p_pred = (
            2.0 * np.exp(-t_clifford / t2) + np.exp(-t_clifford / t1)
        ) / 3.0
        key = "interleaved" if scan.get("interleaved") else "standard"
        fits[key] = {
            "A": a,
            "p": p,
            "B": b,
            "error_per_clifford": (1.0 - p) / 2.0,
            "clifford_seconds": t_clifford,
            "p_predicted": float(p_pred),
        }
    out["fits"] = fits
    if "standard" in fits and "interleaved" in fits:
        ratio = fits["interleaved"]["p"] / fits["standard"]["p"]
        out["interleaved_gate_error"] = (1.0 - ratio) / 2.0
    return out


register_task("rb_fit", "fit")(_rb_fit_run)


# ---- coherence (T1 / T2 / T2echo) ----------------------------------------------------

#: Artificial Ramsey detuning (Hz) giving a few fringes per T2.
T2_DETUNING_HZ = 2e5


def _coherence_delays(device, params) -> list[int]:
    g = device.config.constraints.granularity
    delays = params.get("delays_samples")
    if delays is None:
        max_delay = int(params.get("max_delay_samples", 40000))
        points = int(params.get("points", 17))
        delays = np.linspace(0, max_delay, points)
    return sorted({int(round(d / g)) * g for d in np.asarray(delays)})


def _coherence_schedule(
    device, site: int, kind: str, tau: int, detuning_hz: float, tag: str
) -> PulseSchedule:
    sched = PulseSchedule(tag)
    drive = device.drive_port(site)
    if kind == "t1":
        device.calibrations.get("x", (site,)).apply(sched, [])
        if tau > 0:
            sched.append(Delay(drive, tau))
    elif kind == "t2":
        base = device.default_frame(drive)
        frame = Frame(base.name, base.frequency + detuning_hz, base.phase)
        half = _half_pi_pulse(device, site)
        sched.append(Play(drive, frame, half))
        if tau > 0:
            sched.append(Delay(drive, tau))
        sched.append(Play(drive, frame, half))
    elif kind == "t2echo":
        device.calibrations.get("sx", (site,)).apply(sched, [])
        first = tau // 2
        if first > 0:
            sched.append(Delay(drive, first))
        device.calibrations.get("x", (site,)).apply(sched, [])
        if tau - first > 0:
            sched.append(Delay(drive, tau - first))
        device.calibrations.get("sx", (site,)).apply(sched, [])
    else:
        raise PipelineError(
            f"coherence kind must be 't1', 't2' or 't2echo', got {kind!r}"
        )
    _measure(device, site, sched)
    return sched


def _coherence_scan_run(ctx, params, seed, upstream) -> dict:
    _require_direct(ctx, "coherence_scan")
    device = ctx.device
    site = int(params.get("site", 0))
    kind = str(params.get("kind", "t1"))
    shots = int(params.get("shots", 0))
    detuning = float(params.get("detuning_hz", T2_DETUNING_HZ))
    delays = _coherence_delays(device, params)
    pubs = [
        (
            _program(
                _coherence_schedule(
                    device, site, kind, tau, detuning, f"{kind}-{site}-{i}"
                )
            ),
            _p1(0),
        )
        for i, tau in enumerate(delays)
    ]
    res = ctx.estimator(shots=shots, seed=seed).run(pubs)
    return {
        "site": site,
        "coherence_kind": kind,
        "delays_samples": delays,
        "detuning_hz": detuning,
        "dt": float(device.config.constraints.dt),
        "shots": shots,
        "populations": [float(r.data.evs) for r in res],
        "coherence": _site_coherence(device, site),
    }


register_task("coherence_scan", "experiment")(_coherence_scan_run)


def _coherence_fit_run(ctx, params, seed, upstream) -> dict:
    from scipy.optimize import curve_fit

    scan = _single_upstream(upstream, "coherence_fit", "coherence_kind")
    kind = scan["coherence_kind"]
    tau = np.asarray(scan["delays_samples"], dtype=np.float64) * float(
        scan["dt"]
    )
    pops = np.asarray(scan["populations"], dtype=np.float64)
    t_guess = max(tau[-1] / 2.0, float(scan["dt"]))
    if kind == "t2":

        def model(t, a, T, f, phi, c):
            return a * np.exp(-t / T) * np.cos(2 * np.pi * f * t + phi) + c

        p0 = (0.5, t_guess, float(scan["detuning_hz"]), 0.0, 0.5)
    else:

        def model(t, a, T, c):
            return a * np.exp(-t / T) + c

        p0 = (pops[0] - pops[-1], t_guess, pops[-1])
    popt, _ = curve_fit(model, tau, pops, p0=p0, maxfev=20000)
    fitted = float(popt[1])
    residual = float(np.sqrt(np.mean((model(tau, *popt) - pops) ** 2)))
    configured = scan["coherence"]["t1" if kind == "t1" else "t2"]
    return {
        "kind": kind,
        "fitted_seconds": fitted,
        "configured_seconds": float(configured),
        "relative_error": (
            abs(fitted - configured) / configured
            if np.isfinite(configured) and configured > 0
            else float("nan")
        ),
        "fit_residual": residual,
    }


register_task("coherence_fit", "fit")(_coherence_fit_run)


# ---- single-site process tomography --------------------------------------------------

#: Four preparations spanning the Bloch ball affinely: |0>, |1>, the
#: -Y state sx|0>, and an equatorial +-X state from sx played after a
#: virtual rz(pi/2). The frame shift must precede the pulse — the
#: virtual Z only retargets *later* pulses' rotation axes, so a
#: trailing "s" would be a physical no-op and collapse the prep
#: matrix to singular.
_PREP_WORDS: tuple[tuple[str, ...], ...] = ((), ("x", "x"), ("x",), ("s", "x"))


def ideal_ptm(unitary: np.ndarray) -> np.ndarray:
    """The 4x4 Pauli transfer matrix of a single-qubit unitary."""
    out = np.empty((4, 4), dtype=np.float64)
    for i, pi in enumerate(_PAULIS):
        for j, pj in enumerate(_PAULIS):
            out[i, j] = 0.5 * np.real(
                np.trace(pi @ unitary @ pj @ unitary.conj().T)
            )
    return out


def _tomography_scan_run(ctx, params, seed, upstream) -> dict:
    _require_direct(ctx, "tomography_scan")
    device = ctx.device
    site = int(params.get("site", 0))
    gate = str(params.get("gate", "x"))
    if gate not in _GATE_UNITARIES:
        raise PipelineError(
            f"tomography gate must be one of {sorted(_GATE_UNITARIES)}, "
            f"got {gate!r}"
        )
    from repro.primitives import Observable

    observables = [
        Observable.from_pauli("X"),
        Observable.from_pauli("Y"),
        Observable.z(0),
    ]
    pubs = []
    for include_gate in (False, True):
        for p, word in enumerate(_PREP_WORDS):
            sched = PulseSchedule(
                f"ptm-{gate}-{site}-p{p}{'g' if include_gate else ''}"
            )
            clifford_word_schedule(device, site, sched, word)
            # A prep's virtual-Z shifts the frame for *everything*
            # after it — left in place it would retarget the gate's
            # rotation axis per prep. Undo it: the compensating rz is
            # virtual, so the prepared state itself is untouched.
            n_s = sum(1 for letter in word if letter == "s")
            if n_s:
                device.calibrations.get("rz", (site,)).apply(
                    sched, [-n_s * np.pi / 2.0]
                )
            if include_gate and gate != "id":
                clifford_word_schedule(
                    device, site, sched, ("x", "x") if gate == "x" else ("x",)
                )
            _measure(device, site, sched)
            pubs.append((_program(sched), observables))
    res = ctx.estimator(shots=0, seed=seed).run(pubs)
    columns = [
        [1.0] + [float(v) for v in res[i].data.evs] for i in range(len(pubs))
    ]
    n = len(_PREP_WORDS)
    return {
        "site": site,
        "tomography_gate": gate,
        # Column p is (1, <X>, <Y>, <Z>) of preparation p ...
        "prep_columns": columns[:n],
        # ... and of preparation p followed by the gate.
        "gate_columns": columns[n:],
    }


register_task("tomography_scan", "experiment")(_tomography_scan_run)


def _tomography_fit_run(ctx, params, seed, upstream) -> dict:
    scan = _single_upstream(upstream, "tomography_fit", "tomography_gate")
    c = np.asarray(scan["prep_columns"], dtype=np.float64).T
    s = np.asarray(scan["gate_columns"], dtype=np.float64).T
    condition = float(np.linalg.cond(c))
    # Self-calibrated PTM: measured prep matrix inverts out, so
    # systematic prep/measure error cancels to first order.
    ptm = s @ np.linalg.inv(c)
    ideal = ideal_ptm(_GATE_UNITARIES[scan["tomography_gate"]])
    f_pro = float(np.trace(ideal.T @ ptm)) / 4.0
    return {
        "gate": scan["tomography_gate"],
        "ptm": [[float(v) for v in row] for row in ptm],
        "prep_condition_number": condition,
        "process_fidelity": f_pro,
        "average_gate_fidelity": (2.0 * f_pro + 1.0) / 3.0,
    }


register_task("tomography_fit", "fit")(_tomography_fit_run)


# ---- DAG builder ---------------------------------------------------------------------


def characterization_dag(
    *,
    site: int = 0,
    name: str = "characterization",
    rb_lengths: Sequence[int] = (1, 4, 8, 12),
    rb_samples: int = 2,
    interleaved_gate: str | None = None,
    coherence_kinds: Sequence[str] = ("t1", "t2", "t2echo"),
    max_delay_samples: int = 40000,
    coherence_points: int = 17,
    tomography_gate: str | None = "x",
    shots: int = 0,
) -> DAG:
    """The full characterization suite as one resumable DAG.

    Every scan is an independent root (they parallelize across the
    runner's ready set); each fit depends only on its scan's recorded
    result, so a resumed run replays completed scans from the store
    and never re-measures.
    """
    dag = DAG(name)
    rb_after = ["rb-standard"]
    dag.task(
        "rb-standard",
        "rb_scan",
        {
            "site": site,
            "lengths": list(rb_lengths),
            "samples": rb_samples,
            "shots": shots,
        },
    )
    if interleaved_gate is not None:
        dag.task(
            "rb-interleaved",
            "rb_scan",
            {
                "site": site,
                "lengths": list(rb_lengths),
                "samples": rb_samples,
                "shots": shots,
                "interleaved": interleaved_gate,
            },
        )
        rb_after.append("rb-interleaved")
    dag.task("rb-fit", "rb_fit", after=rb_after)
    for kind in coherence_kinds:
        dag.task(
            f"{kind}-scan",
            "coherence_scan",
            {
                "site": site,
                "kind": kind,
                "max_delay_samples": max_delay_samples,
                "points": coherence_points,
                "shots": shots,
            },
        )
        dag.task(f"{kind}-fit", "coherence_fit", after=[f"{kind}-scan"])
    if tomography_gate is not None:
        dag.task(
            "ptm-scan",
            "tomography_scan",
            {"site": site, "gate": tomography_gate},
        )
        dag.task("ptm-fit", "tomography_fit", after=["ptm-scan"])
    dag.validate()
    return dag
