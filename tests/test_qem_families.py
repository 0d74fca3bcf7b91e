"""Differential tests: mitigated PUBs run as template families equal the
per-variant reference.

The mitigation engine stretches a PUB's bound template once per ZNE
factor, twirls it once per distinct mask, runs every (factor, mask)
group as one bound family of one batch, and folds the batch's
``(K, 2**m)`` arrays. The reference here is the per-variant route:
bind each point, stretch, twirl, ``executor.execute`` the schedule,
``mitigate_distribution`` its post-readout distribution, and fold one
variant at a time.

Generated parametric programs (the strategies of
``test_bound_batch``) run on a one- and a two-transmon Lindblad device
with per-site readout confusion, in both stack orders, with balanced
and unbalanced random twirl masks, readout-model overrides, two PUBs
in one run and the per-point fallback route. The mitigated Sampler
folds the same arrays and equals the per-variant dict fold exactly.

Evs agree to 1e-12, not bitwise, for two reasons, both in the
simulator rather than the fold: a cold kernel call shares one scaling
power across its chunk of slices, so a slice's propagator depends in
the last bits on what was computed with it; and a family splits its
drive at the union of its members' run boundaries, so it may evolve a
run in two steps that a lone schedule evolves in one. On the harness
ansatz (phase-only sweeps, whose members share their run boundaries)
with the propagator cache warmed by the reference, the two routes are
bitwise equal.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_bound_batch import sweeps
from test_phase_covariance import PROFILE

import repro
import repro.qem.engine as engine
import repro.qem.readout as readout
from repro.core import Play
from repro.core.schedule import PulseSchedule, ScheduleFamily
from repro.core.stretch import stretch_schedule
from repro.devices import SuperconductingDevice
from repro.devices.calibrations import CalibrationEntry
from repro.mlir.dialects.pulse import SequenceBuilder
from repro.mlir.ir import print_module
from repro.primitives import Estimator, Observable, Sampler
from repro.qem import (
    EstimatorOptions,
    ReadoutOptions,
    SamplerOptions,
    TwirlingOptions,
    ZNEOptions,
    extrapolate_to_zero,
    mitigate_distribution,
)
from repro.qem import twirling as tw
from repro.qem.readout import invert_readout
from repro.sim.executor import ScheduleExecutor
from repro.sim.measurement import ReadoutModel, joint_confusion

#: Derandomized; each case runs a whole mitigated sweep twice.
FEW = settings(derandomize=True, max_examples=3, deadline=None, database=None)

READOUT = {0: ReadoutModel(p01=0.02, p10=0.05), 1: ReadoutModel(p01=0.07, p10=0.01)}


def lindblad(n: int):
    device = SuperconductingDevice(
        num_qubits=n, drift_rate=0.0, with_decoherence=True, t1=30e-6, t2=20e-6
    )
    for site in range(n):
        device.executor.readout[site] = READOUT[site]
    return device


STACKS = {
    "zne-twirl-readout": EstimatorOptions(mitigation=("zne", "twirling", "readout")),
    "twirl-zne-readout": EstimatorOptions(mitigation=("twirling", "zne", "readout")),
    "random-masks": EstimatorOptions(
        mitigation=("zne", "twirling", "readout"),
        twirling=TwirlingOptions(num_randomizations=3, balanced=False),
    ),
    "random-masks-twirl-first": EstimatorOptions(
        mitigation=("twirling", "zne"),
        zne=ZNEOptions(
            stretch_factors=(1.0, 1.5, 2.0, 3.0), extrapolation="richardson"
        ),
        twirling=TwirlingOptions(num_randomizations=3, balanced=False),
    ),
    "zne": EstimatorOptions(mitigation=("zne", "readout")),
    "twirling": EstimatorOptions(mitigation=("twirling",)),
    "readout": EstimatorOptions(mitigation=("readout",)),
    "empty": EstimatorOptions(),
}


def with_override(options: EstimatorOptions, n_slots: int) -> EstimatorOptions:
    """*options* with readout models that are not the executor's."""
    models = tuple(ReadoutModel(p01=0.1, p10=0.03 * (s + 1)) for s in range(n_slots))
    return EstimatorOptions(
        mitigation=options.mitigation,
        zne=options.zne,
        twirling=options.twirling,
        readout=ReadoutOptions(models=models),
    )


def mean_and_variance(observable, distribution, n_slots):
    """One variant's moments, one dot product each."""
    values, probs = observable.values_per_outcome(distribution, n_slots=n_slots)
    mean = float(np.dot(values.real, probs))
    return mean, observable.variance(distribution, n_slots=n_slots)


def fold(options, grid):
    """The mitigated value of one point from its (factor, twirl) means."""
    stack = options.mitigation
    if "zne" not in stack:
        return float(grid[0].mean())
    zne = options.zne
    if "twirling" not in stack or stack.index("zne") < stack.index("twirling"):
        return extrapolate_to_zero(
            zne.stretch_factors, grid.mean(axis=1), zne.extrapolation
        )
    return float(
        np.mean(
            [
                extrapolate_to_zero(zne.stretch_factors, grid[:, r], zne.extrapolation)
                for r in range(grid.shape[1])
            ]
        )
    )


def variant_schedule(device, base, factor, mask, sites, zne_first):
    """*base* stretched by *factor* and twirled by *mask*, in stack order."""
    steps = [("zne", factor), ("twirl", mask)]
    schedule = base
    for kind, arg in steps if zne_first else steps[::-1]:
        if kind == "zne" and arg != 1.0:
            constraints = repro.Target.resolve(device).constraints
            schedule = stretch_schedule(schedule, arg, constraints=constraints)
        elif kind == "twirl" and arg is not None and any(arg):
            schedule = tw.twirl_schedule(schedule, arg, device, sites)
    return schedule


def variant_moments(executor, schedule, options, observables, mask):
    """``(mean, variance)`` of every observable on one executed variant."""
    result = executor.execute(schedule, shots=0)
    dist = dict(result.probabilities)
    if "readout" in options.mitigation:
        models = options.readout.models or [
            executor.readout.get(s, ReadoutModel()) for s in result.measured_sites
        ]
        dist = mitigate_distribution(dist, models).distribution
    m = len(result.measured_sites)
    return [
        mean_and_variance(o if mask is None else tw.conjugate_by_x(o, mask), dist, m)
        for o in observables
    ]


def reference(device, options, pubs, *, seed, shots, bind):
    """``(evs, stds)`` per PUB, one variant at a time.

    *pubs* holds ``(program, observables, points)``; *bind* turns a
    program and a point into its schedule.
    """
    stack = options.mitigation
    factors = options.zne.stretch_factors if "zne" in stack else (1.0,)
    twirl = options.twirling if "twirling" in stack else None
    zne_first = (
        twirl is None
        or "zne" not in stack
        or stack.index("zne") < stack.index("twirling")
    )
    rng = np.random.default_rng(seed)
    out = []
    for program, observables, points in pubs:
        evs = np.empty((len(observables), len(points)))
        variances = np.empty_like(evs)
        for b, point in enumerate(points):
            base = bind(program, point)
            sites = [site for _, site in tw.measured_slots(base)]
            masks = tw.twirl_masks(len(sites), twirl, rng) if twirl else [None]
            grid = np.empty((len(observables), len(factors), len(masks)))
            for fi, factor in enumerate(factors):
                for ri, mask in enumerate(masks):
                    schedule = variant_schedule(
                        device, base, factor, mask, sites, zne_first
                    )
                    moments = variant_moments(
                        device.executor, schedule, options, observables, mask
                    )
                    for o, (mean, var) in enumerate(moments):
                        grid[o, fi, ri] = mean
                        if fi == 0 and ri == 0:
                            variances[o, b] = var
            for o in range(len(observables)):
                evs[o, b] = fold(options, grid[o])
        stds = np.sqrt(variances / shots) if shots else np.zeros_like(evs)
        out.append((evs, stds))
    return out


def bind_point(target):
    def bind(program, point):
        if isinstance(program, PulseSchedule):
            return program
        return repro.compile(program, target).bind(point).schedule

    return bind


def observables_for(n: int):
    obs = [Observable.z(s) for s in range(n)]
    if n == 2:
        obs += [
            Observable({((0, "Z"), (1, "Z")): 1.0}),
            Observable({((0, "Z"),): 0.5, ((1, "Z"),): -0.25}),
        ]
    return obs


def engine_pub(program, observables, points):
    """The Estimator PUB of *points* (a schedule takes no parameters)."""
    observables = [[o] for o in observables]
    if isinstance(program, PulseSchedule):
        return (program, observables)
    return (program, observables, points_grid(program, points))


def run_engine(device, options, pubs, *, seed, shots, estimator=None):
    est = estimator or Estimator(device, options=options, seed=seed, shots=shots)
    res = est.run([engine_pub(*pub) for pub in pubs])
    return [(r.data.evs, r.data.stds) for r in res]


def points_grid(program, points):
    return {name: np.array([p[name] for p in points]) for name in program.parameters}


def as_points(program, values):
    return [dict(zip(program.parameters, row.tolist())) for row in values]


def assert_close(got, expected, atol):
    for (evs, stds), (ref_evs, ref_stds) in zip(got, expected):
        np.testing.assert_allclose(evs, ref_evs, rtol=0, atol=atol)
        np.testing.assert_allclose(stds, ref_stds, rtol=0, atol=atol)


# ---- generated differential test ---------------------------------------------------


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("stack", sorted(STACKS))
@FEW
@given(data=st.data())
def test_grouped_route_equals_per_variant_reference(n, stack, data):
    device = lindblad(n)
    program, values = data.draw(sweeps(device))
    options = STACKS[stack]
    if "readout" in options.mitigation and data.draw(st.booleans()):
        options = with_override(options, n)
    seed = data.draw(st.integers(0, 3))
    shots = data.draw(st.sampled_from([0, 100]))
    pubs = [(program, observables_for(n), as_points(program, values))]
    target = repro.Target.resolve(device)
    expected = reference(
        device, options, pubs, seed=seed, shots=shots, bind=bind_point(target)
    )
    got = run_engine(device, options, pubs, seed=seed, shots=shots)
    assert_close(got, expected, atol=1e-12)


@FEW
@given(data=st.data())
def test_two_pubs_of_different_programs_in_one_run(data):
    """A generated parametric PUB and a fixed schedule PUB share one
    batch; the schedule PUB is one family with no slots."""
    device = lindblad(2)
    program, values = data.draw(sweeps(device))
    schedule = x_then_measure(device, sites=(0, 1))
    options = STACKS[data.draw(st.sampled_from(sorted(STACKS)))]
    obs = observables_for(2)
    pubs = [(program, obs, as_points(program, values)), (schedule, obs[:1], [{}])]
    target = repro.Target.resolve(device)
    expected = reference(
        device, options, pubs, seed=2, shots=50, bind=bind_point(target)
    )
    got = run_engine(device, options, pubs, seed=2, shots=50)
    assert_close(got, expected, atol=1e-12)


@FEW
@given(data=st.data())
def test_fallback_route_equals_per_variant_reference(data):
    """Without a template every point is bound on its own and runs as
    a one-member family; the grouped fold is unchanged."""
    device = lindblad(2)
    program, values = data.draw(sweeps(device))
    options = STACKS[data.draw(st.sampled_from(sorted(STACKS)))]
    target = repro.Target.resolve(device)
    exe = repro.compile(program, target)
    exe._template = False  # the template is unavailable
    est = Estimator(device, options=options, seed=1, shots=0)
    est.target._executables[program] = exe  # the memo lives on the target
    pubs = [(program, observables_for(2), as_points(program, values))]

    def bind(program, point):
        return exe.bind(point).schedule

    expected = reference(device, options, pubs, seed=1, shots=0, bind=bind)
    got = run_engine(device, options, pubs, seed=1, shots=0, estimator=est)
    assert_close(got, expected, atol=1e-12)


def x_then_measure(device, sites):
    schedule = PulseSchedule("x-measure")
    for site in sites:
        device.calibrations.get("x", (site,)).apply(schedule, [])
    for site in sites:
        device.calibrations.get("measure", (site,)).apply(schedule, [site])
    return schedule


# ---- the workload's ansatz: bitwise ------------------------------------------------


def ansatz(device, phases: int = 4):
    """The qem harness workload's program: phase-shifted square pulses."""
    from repro.core.waveform import ParametricWaveform

    sb = SequenceBuilder("ansatz")
    drive = sb.add_mixed_frame_arg("f0", device.drive_port(0).name)
    acquire = sb.add_mixed_frame_arg("a0", device.acquire_port(0).name)
    for k in range(phases):
        theta = sb.add_scalar_arg(f"theta{k}")
        wave = sb.waveform(ParametricWaveform("square", 16, {"amp": 0.1 + 0.01 * k}))
        sb.shift_phase(drive, theta)
        sb.play(drive, wave)
    sb.barrier(drive, acquire)
    sb.capture(acquire, 0, 8)
    sb.ret()
    return repro.Program.from_mlir(print_module(sb.module))


def qem_device():
    return SuperconductingDevice(
        "sc-bench-qem",
        1,
        with_decoherence=True,
        t1=30e-6,
        t2=20e-6,
        drift_rate=0.0,
        seed=7,
    )


@pytest.mark.parametrize("stack", sorted(STACKS))
@pytest.mark.parametrize("seed", [0, 1])
def test_workload_ansatz_is_bitwise_equal_with_a_warm_cache(stack, seed):
    device = qem_device()
    program = ansatz(device)
    values = np.random.default_rng(seed).uniform(-np.pi, np.pi, (8, 4))
    options = STACKS[stack]
    pubs = [(program, [Observable.z(0)], as_points(program, values))]
    target = repro.Target.resolve(device)
    expected = reference(
        device, options, pubs, seed=seed, shots=100, bind=bind_point(target)
    )
    got = run_engine(device, options, pubs, seed=seed, shots=100)
    for (evs, stds), (ref_evs, ref_stds) in zip(got, expected):
        np.testing.assert_array_equal(evs, ref_evs)
        np.testing.assert_array_equal(stds, ref_stds)


# ---- invariants as generated properties --------------------------------------------


@PROFILE
@given(data=st.data())
def test_empty_stack_is_the_post_readout_expectation(data):
    device = lindblad(2)
    program, values = data.draw(sweeps(device))
    obs = observables_for(2)
    points = points_grid(program, as_points(program, values))
    est = Estimator(device, options=EstimatorOptions())
    evs = est.run([(program, [[o] for o in obs], points)])[0].data.evs
    exe = repro.compile(program, repro.Target.resolve(device))
    results = device.executor.execute_batch(exe.bind_many(values), shots=0)
    for o, observable in enumerate(obs):
        expected = [
            mean_and_variance(observable, r.probabilities, len(r.measured_sites))[0]
            for r in results
        ]
        np.testing.assert_array_equal(evs[o], expected)


@st.composite
def tables(draw):
    """A ``(K, 2**m)`` distribution table: 1-4 rows, 1-3 slots."""
    m = draw(st.integers(1, 3))
    row = st.lists(st.floats(0.0, 1.0), min_size=1 << m, max_size=1 << m)
    rows = draw(st.lists(row.filter(lambda r: sum(r) > 0.1), min_size=1, max_size=4))
    table = np.array(rows)
    return table / table.sum(axis=1, keepdims=True)


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(table=tables())
def test_identity_confusion_inverts_to_the_renormalized_table(table):
    m = table.shape[1].bit_length() - 1
    recovered = invert_readout(table, joint_confusion([ReadoutModel()] * m))
    expected = table / table.sum(axis=1, keepdims=True)
    expected[expected <= 1e-15] = 0.0
    np.testing.assert_array_equal(recovered, expected)
    np.testing.assert_allclose(recovered, table, rtol=0, atol=1e-15)


def invert_one(distribution, models):
    """One distribution inverted alone: solve, clip, renormalize, and
    drop what is left at or below 1e-15."""
    m = len(models)
    observed = np.zeros(1 << m)
    for key, p in distribution.items():
        observed[int(key, 2)] = p
    recovered = np.clip(np.linalg.solve(joint_confusion(models), observed), 0, None)
    recovered /= recovered.sum()
    return {format(i, f"0{m}b"): float(v) for i, v in enumerate(recovered) if v > 1e-15}


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(table=tables(), p=st.floats(0.0, 0.2), q=st.floats(0.0, 0.2))
def test_table_inversion_matches_one_distribution_at_a_time(table, p, q):
    """Each row of one stacked inversion is bitwise the inversion of
    that row alone, and so is ``mitigate_distribution``."""
    m = table.shape[1].bit_length() - 1
    models = [ReadoutModel(p01=p, p10=q)] * m
    recovered = invert_readout(table, joint_confusion(models))
    for row, got in zip(table, recovered):
        dist = {format(i, f"0{m}b"): v for i, v in enumerate(row.tolist())}
        expected = invert_one(dist, models)
        assert mitigate_distribution(dist, models).distribution == expected
        assert {
            format(i, f"0{m}b"): v for i, v in enumerate(got.tolist()) if v
        } == expected


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(
    extra=st.lists(st.floats(1.1, 4.0), min_size=1, max_size=3, unique=True),
    a=st.floats(-1.0, 1.0),
    slope=st.floats(-0.5, 0.5),
    twirl_noise=st.floats(-0.1, 0.1),
    twirl_first=st.booleans(),
)
def test_zne_is_exact_on_affine_noise(extra, a, slope, twirl_noise, twirl_first):
    """Variant means affine in the stretch factor, with a zero-mean
    per-twirl offset, fold to the noise-free value in either order."""
    factors = (1.0, *sorted(extra))
    order = ("twirling", "zne") if twirl_first else ("zne", "twirling")
    options = EstimatorOptions(
        mitigation=order,
        zne=ZNEOptions(stretch_factors=factors, extrapolation="linear"),
    )
    noise = np.array([twirl_noise, -twirl_noise])
    grid = a + slope * np.array(factors)[:, None] + noise
    assert engine._extrapolate(options, grid) == pytest.approx(a, abs=1e-9)


# ---- counts --------------------------------------------------------------------------


def counting(monkeypatch, owner, name, calls):
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)


def test_workload_stack_runs_six_families_in_one_batch(monkeypatch):
    """8 points x 3 stretch factors x 2 twirl masks: one batch of 48
    members in 6 families of 8, and no member schedule or per-variant
    inversion. The first run stretches twice and twirls three times;
    the warm run derives no variant again."""
    device = qem_device()
    program = ansatz(device)
    est = Estimator(device, options=STACKS["zne-twirl-readout"], seed=0)
    grid = {f"theta{k}": np.linspace(-1, 1, 8) + k for k in range(4)}
    calls: dict[str, int] = {}
    counting(monkeypatch, engine, "stretch_schedule", calls)
    counting(monkeypatch, tw, "twirl_schedule", calls)
    est.run([(program, Observable.z(0), grid)])  # first: compile the template
    assert calls == {"stretch_schedule": 2, "twirl_schedule": 3}
    calls.clear()
    batches = []
    original = ScheduleExecutor.execute_batch

    def execute_batch(self, schedules, **kwargs):
        batches.append(schedules)
        return original(self, schedules, **kwargs)

    monkeypatch.setattr(ScheduleExecutor, "execute_batch", execute_batch)
    counting(monkeypatch, ScheduleFamily, "member", calls)
    counting(monkeypatch, readout, "mitigate_distribution", calls)
    expanded = []
    expand = engine._expand_pub

    def expand_pub(*args):
        expanded.append(expand(*args))
        return expanded[-1]

    monkeypatch.setattr(engine, "_expand_pub", expand_pub)
    est.run([(program, Observable.z(0), grid)])
    [batch] = batches
    assert len(batch) == 48
    assert [len(f) for f in batch.families] == [8] * 6
    assert calls == {}
    # the batch is still a sequence of its members, in family order
    assert batch[8].equivalent_to(batch.families[1].member(0))
    [plans] = expanded
    assert [len(point) for point in plans] == [6] * 8


def x_writeback(device, how: str) -> None:
    """Write back a new ``x`` calibration: a DRAG beta, or a pi
    amplitude 2% larger."""
    if how == "drag-beta":
        device.set_drag_beta(0.5)
        return
    port = device.drive_port(0)
    wave = device.x_waveform(1.02)

    def builder(schedule, params):
        schedule.append(Play(port, device.default_frame(port), wave))

    entry = CalibrationEntry("x", (0,), builder, device.X_DURATION)
    device.calibrations.add(entry, overwrite=True)


@pytest.mark.parametrize("how", ["drag-beta", "pi-amplitude"])
def test_an_x_writeback_derives_the_variants_again(monkeypatch, how):
    """Between two mitigated runs a new ``x`` calibration lands: the
    second run stretches and twirls again, and its evs are a fresh
    Estimator's, bit for bit."""
    device = qem_device()
    program = ansatz(device)
    grid = {f"theta{k}": np.linspace(-1, 1, 4) + k for k in range(4)}
    pub = [(program, Observable.z(0), grid)]
    options = STACKS["zne-twirl-readout"]
    est = Estimator(device, options=options, seed=0)
    before = est.run(pub)[0].data.evs
    x_writeback(device, how)
    calls: dict[str, int] = {}
    counting(monkeypatch, engine, "stretch_schedule", calls)
    counting(monkeypatch, tw, "twirl_schedule", calls)
    after = est.run(pub)[0].data.evs
    assert calls == {"stretch_schedule": 2, "twirl_schedule": 3}
    fresh = Estimator(device, options=options, seed=0).run(pub)[0].data.evs
    assert after.tobytes() == fresh.tobytes()
    assert after.tobytes() != before.tobytes()


def test_the_memos_stay_bounded_on_a_drifting_device():
    """50 mitigated runs on a drifting device, each after a frequency
    write-back (so each binds a refreshed template), with time passing
    every 10 runs (so each executor runs 10 of them): the variant memo
    holds one template's variants and the live executor one plan per
    family."""
    device = SuperconductingDevice(
        "sc-drift", 1, with_decoherence=True, t1=30e-6, t2=20e-6,
        drift_rate=2e4, seed=7,
    )
    program = ansatz(device)
    grid = {f"theta{k}": np.linspace(-1, 1, 2) + k for k in range(4)}
    pub = [(program, Observable.z(0), grid)]
    options = STACKS["zne-twirl-readout"]
    gc.collect()
    variants = len(engine.VARIANTS)
    executors = []
    for i in range(50):
        if i % 10 == 0:
            device.advance_time(1e-3)
        device.set_frame_frequency(0, device.true_frequency(0))
        Estimator(device, options=options, seed=i).run(pub)
        executors.append(weakref.ref(device.executor))
    gc.collect()
    [live] = {ref() for ref in executors} - {None}
    assert len(live.drive_plans) == 6  # 3 factors x 2 masks
    assert len(engine.VARIANTS) <= variants + 5  # 2 stretches, 3 twirls


# ---- the mitigated Sampler folds the family arrays -----------------------------------


SAMPLER_STACKS = {
    "twirling-readout": SamplerOptions(mitigation=("twirling", "readout")),
    "readout": SamplerOptions(mitigation=("readout",)),
    "twirling": SamplerOptions(
        mitigation=("twirling",),
        twirling=TwirlingOptions(num_randomizations=3, balanced=False),
    ),
}


def dict_fold(executor, options, shots, variants, results):
    """One point's ``(quasi-distribution, condition number)``, folded
    one variant at a time through bitstring dicts: normalize, invert
    the confusion (``mitigate_distribution``), unflip the twirl
    (``unflip_distribution``), average."""
    twirling = "twirling" in options.mitigation
    fold = [(v, r) for v, r in zip(variants, results) if (not v.is_base) == twirling]
    condition = float("nan")
    folded: dict[str, float] = {}
    for variant, result in fold:
        total = sum(result.counts.values())
        observed = (
            {k: c / total for k, c in result.counts.items()}
            if shots > 0 and result.counts
            else dict(result.probabilities)
        )
        if "readout" in options.mitigation:
            models = [
                executor.readout.get(s, ReadoutModel()) for s in result.measured_sites
            ]
            mitigated = mitigate_distribution(observed, models)
            observed = mitigated.distribution
            if np.isnan(condition):
                condition = mitigated.condition_number
        if variant.mask is not None:
            observed = tw.unflip_distribution(observed, variant.mask)
        for key, p in observed.items():
            folded[key] = folded.get(key, 0.0) + p / len(fold)
    return folded, condition


def run_sampler(device, options, pub, *, seed, shots):
    """The mitigated Sampler's DataBin plus the plans and batch it
    folded."""
    captured = []
    assemble = engine._assemble_sampler

    def spy(sampler, options, pub, shots, plans, results):
        captured.append((plans, results))
        return assemble(sampler, options, pub, shots, plans, results)

    engine._assemble_sampler = spy
    try:
        sampler = Sampler(device, default_shots=shots, seed=seed, options=options)
        data = sampler.run([pub])[0].data
    finally:
        engine._assemble_sampler = assemble
    [(plans, results)] = captured
    return data, plans, results


@pytest.mark.parametrize("shots", [0, 256])
@pytest.mark.parametrize("stack", sorted(SAMPLER_STACKS))
@FEW
@given(data=st.data())
def test_sampler_fold_equals_per_variant_dict_fold(stack, shots, data):
    device = lindblad(2)
    program, values = data.draw(sweeps(device))
    options = SAMPLER_STACKS[stack]
    pub = (program, points_grid(program, as_points(program, values)))
    got, plans, results = run_sampler(device, options, pub, seed=3, shots=shots)
    start, total = {}, 0
    for family in engine._batch_order(plans):
        start[family] = total
        total += len(family)
    for b, variants in enumerate(plans):
        point = [results[start[v.family] + v.index] for v in variants]
        quasi, condition = dict_fold(device.executor, options, shots, variants, point)
        assert got.quasi_dists.flat[b] == quasi
        if "readout" in options.mitigation:
            assert got.condition_numbers.flat[b] == condition
        base = point[0]
        assert got.counts.flat[b] == base.counts
        assert got.probabilities.flat[b] == base.ideal_probabilities
        assert got.noisy_probabilities.flat[b] == base.probabilities
        assert got.leakage.flat[b] == sum(base.leakage.values())


def test_sampler_fold_inverts_once_per_family(monkeypatch):
    """Two qubits, twirling then readout: one confusion inversion per
    twirled family, one condition number per PUB, no per-variant dict
    fold."""
    device = lindblad(2)
    schedule = x_then_measure(device, [0, 1])
    options = SAMPLER_STACKS["twirling-readout"]
    calls: dict[str, int] = {}
    counting(monkeypatch, engine, "invert_readout", calls)
    counting(monkeypatch, readout, "mitigate_distribution", calls)
    counting(monkeypatch, tw, "unflip_distribution", calls)
    counting(monkeypatch, np.linalg, "cond", calls)
    sampler = Sampler(device, default_shots=128, seed=1, options=options)
    pubs = [(schedule,), (schedule,)]
    result = sampler.run(pubs)
    # Per PUB: the 4 flip patterns of 2 slots, one twirled family each,
    # and one confusion matrix.
    assert calls == {"invert_readout": 2 * 4, "cond": 2}
    for pub_result in result:
        assert sum(pub_result.data.quasi_dists[()].values()) == pytest.approx(1.0)
