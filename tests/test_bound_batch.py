"""Differential tests: a PUB bound as one schedule family equals the
per-point schedules.

``Executable.bind_many`` hands the executor the compiled template and
the PUB's ``(K, P)`` value matrix; the executor writes the columns into
its frame timelines. The reference is the per-point route: one
``Executable.specialize`` clone per point through ``execute_batch``.
Generated parametric programs (the frame-event and play strategies of
``test_phase_covariance``, every event value a program parameter, so
``SetFrequency`` is fed too) run down both routes on closed, Lindblad
and two-qubit transmons, all with readout confusion. Both routes make
the same float operations on the same drive samples, so final states,
distributions, leakage and seeded counts are bitwise equal. Points
that fail a bind check take the per-point route and raise its errors.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_phase_covariance import PROFILE, SC, angles, programs, unit

import repro
from repro.core import SampledWaveform
from repro.devices import SuperconductingDevice
from repro.errors import PassError, ValidationError
from repro.mlir.dialects.pulse import SequenceBuilder
from repro.mlir.interp import module_to_schedule
from repro.mlir.ir import print_module
from repro.primitives import Estimator, Observable, Sampler

DEVICES = {
    "sc1-closed": lambda: SuperconductingDevice(num_qubits=1, drift_rate=0.0),
    "sc2-closed": lambda: SuperconductingDevice(num_qubits=2, drift_rate=0.0),
    "sc2-lindblad": lambda: SuperconductingDevice(
        num_qubits=2, drift_rate=0.0, with_decoherence=True, t1=20e-6, t2=15e-6
    ),
}

#: SC devices play whole multiples of 8 samples.
GRANULARITY = 8


def parametric_program(device, steps):
    """*steps* as pulse MLIR: each frame event reads its own scalar
    parameter (``kinds[name]`` says which), plays are raw envelopes
    padded to the grid, and every driven site is measured."""
    n = min(2, device.config.num_sites)
    sb = SequenceBuilder("family")
    drives = [
        sb.add_mixed_frame_arg(f"f{q}", device.drive_port(q).name) for q in range(n)
    ]
    acquires = [
        sb.add_mixed_frame_arg(f"a{q}", device.acquire_port(q).name) for q in range(n)
    ]
    kinds: dict[str, tuple[str, int]] = {}
    for kind, q, value in steps:
        if kind == "play":
            padded = -(-len(value) // GRANULARITY) * GRANULARITY
            samples = np.zeros(padded, dtype=complex)
            samples[: len(value)] = SC["amplitude"] * value
            sb.play(drives[q], sb.waveform(SampledWaveform(samples)))
            continue
        name = f"p{len(kinds)}"
        kinds[name] = (kind, q)
        arg = sb.add_scalar_arg(name)
        {"shift": sb.shift_phase, "set": sb.set_phase, "detune": sb.set_frequency}[
            kind
        ](drives[q], arg)
    sb.barrier(*drives, *acquires)
    for q, acquire in enumerate(acquires):
        sb.capture(acquire, q, 8)
    sb.ret()
    return repro.Program.from_mlir(print_module(sb.module)), kinds


@st.composite
def sweeps(draw, device, k=3):
    """A generated parametric program and a ``(k, P)`` matrix of points."""
    n = min(2, device.config.num_sites)
    program, kinds = parametric_program(device, draw(programs(n, SC["max_len"])))
    columns = []
    for name in program.parameters:
        kind, q = kinds[name]
        if kind == "detune":
            frequency = device.default_frame(device.drive_port(q)).frequency
            values = [frequency + SC["detuning"] * draw(unit) for _ in range(k)]
        else:
            values = [draw(angles) for _ in range(k)]
        columns.append(values)
    return program, np.array(columns).T


def observables(device):
    n = min(2, device.config.num_sites)
    return [Observable.z(slot) for slot in range(n)] + ["Z" * n]


def grid(program, values):
    return {name: values[:, j] for j, name in enumerate(program.parameters)}


@pytest.mark.parametrize("name", sorted(DEVICES))
@PROFILE
@given(data=st.data())
def test_family_route_equals_per_point_schedules(name, data):
    device = DEVICES[name]()
    program, values = data.draw(sweeps(device))
    target = repro.Target.from_device(device)
    executable = repro.compile(program, target)
    family = executable.bind_many(values)
    assert family is not None and len(family) == len(values)
    points = [dict(zip(program.parameters, row.tolist())) for row in values]
    schedules = [executable.specialize(point) for point in points]
    # Both share the template's slots; the interpreter is the
    # independent reference for where each value lands.
    for k, point in enumerate(points):
        interpreted = module_to_schedule(program.module, device, point)
        assert family.member(k).equivalent_to(interpreted)
        assert schedules[k].equivalent_to(interpreted)
    executor = device.executor
    bound = executor.execute_batch(family, shots=0)
    listed = executor.execute_batch(schedules, shots=0)
    # The clones regather into one family: the same arrays, bitwise.
    [a], [b] = bound.families, listed.families
    for field in ("ideal_probabilities", "probabilities", "final_states", "leakage"):
        np.testing.assert_array_equal(getattr(a, field), getattr(b, field))
    for x, y in zip(bound, listed):
        assert x.ideal_probabilities == y.ideal_probabilities
        assert x.probabilities == y.probabilities
        assert x.leakage == y.leakage
        np.testing.assert_array_equal(x.final_state, y.final_state)

    # Estimator: one array expression over the family against each
    # point's distribution. The outcome sums run in a different order
    # (one matrix-vector product against a per-point dot), so the two
    # may differ in the last bit: 1e-15 is a few ulps of a value <= 1.
    obs = observables(device)
    evs = Estimator(target).run([(program, [[o] for o in obs], grid(program, values))])
    expected = [
        [Observable.coerce(o).expectation(r.ideal_probabilities) for r in listed]
        for o in obs
    ]
    np.testing.assert_allclose(evs[0].data.evs, expected, rtol=0, atol=1e-15)

    # Seeded Sampler counts: every point samples its own seeded stream.
    counts = Sampler(target, seed=5).run([(program, grid(program, values), 64)])
    sampled = executor.execute_batch(schedules, shots=64, seed=5)
    assert list(counts[0].data.counts) == [r.counts for r in sampled]
    assert list(counts[0].data.noisy_probabilities) == [
        r.probabilities for r in sampled
    ]


def frequency_program(device):
    """One ``SetFrequency`` and one ``ShiftPhase`` parameter."""
    steps = [
        ("detune", 0, 0.0),
        ("shift", 0, 0.0),
        ("play", 0, np.full(16, 0.2 + 0.0j)),
    ]
    return parametric_program(device, steps)[0]


@pytest.mark.parametrize(
    ("point", "error"),
    [
        ({"p0": 5.0e9, "p1": float("nan")}, ValidationError),
        ({"p0": 13.0e9, "p1": 0.3}, PassError),
    ],
    ids=["nan", "frequency-out-of-range"],
)
@pytest.mark.parametrize("primitive", ["estimator", "sampler"])
def test_failing_point_raises_the_per_point_error(point, error, primitive):
    """A point that fails a bind check sends the PUB down the per-point
    route, which raises the typed error it always raised: the finite
    check of the phase instruction, or legalization's frequency range."""
    device = DEVICES["sc1-closed"]()
    target = repro.Target.from_device(device)
    program = frequency_program(device)
    f0 = device.default_frame(device.drive_port(0)).frequency
    values = {"p0": [f0, point["p0"]], "p1": [0.1, point["p1"]]}
    assert repro.compile(program, target).bind_many(
        np.array([values["p0"], values["p1"]]).T
    ) is None
    run = (
        (lambda: Estimator(target).run([(program, "Z", values)]))
        if primitive == "estimator"
        else (lambda: Sampler(target, seed=1).run([(program, values, 16)]))
    )
    with pytest.raises(error):
        run()


def test_in_range_frequency_sweep_binds_as_a_family():
    device = DEVICES["sc1-closed"]()
    target = repro.Target.from_device(device)
    program = frequency_program(device)
    f0 = device.default_frame(device.drive_port(0)).frequency
    values = np.array([[f0, 0.1], [f0 + 2e6, -0.4]])
    family = repro.compile(program, target).bind_many(values)
    assert family is not None
    assert [fld for _, fld, _ in family.slots] == ["frequency", "delta"]
