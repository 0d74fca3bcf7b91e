"""repro.qem: the composable error-mitigation & characterization suite.

Covers, per the PR-10 acceptance criteria:

* pulse-stretch scaling (`repro.core.stretch`) of the PUB's template
  family *and* of the per-point bind fallback;
* ZNE extrapolation recovering exact-Lindblad expectations;
* Pauli twirling preserving means and cancelling coherent readout
  bias; composition-order semantics of the options stack;
* bit-for-bit parity of the readout-only sampler stack with
  `repro.qem.readout.mitigate_distribution` applied by hand;
* RB / T1 / T2 / tomography as durable pipeline task kinds, with the
  fitted rates scored against the injected Lindblad rates;
* SIGKILL-resume of a characterization DAG from `PipelineStore`;
* the headline >= 2x error reduction of the full mitigation stack
  against exact Lindblad ground truth.
"""

from __future__ import annotations

import importlib
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
import repro.qem as qem
from repro.core.instructions import Capture, Play
from repro.core.schedule import PulseSchedule
from repro.core.stretch import (
    coerce_stretch_factor,
    stretch_schedule,
    stretch_waveform,
)
from repro.core.waveform import (
    SampledWaveform,
    constant_waveform,
    drag_waveform,
    gaussian_square_waveform,
    gaussian_waveform,
)
from repro.devices import SuperconductingDevice
from repro.errors import PipelineError, ValidationError
from repro.pipeline import PipelineRunner, PipelineStore
from repro.primitives import Estimator, Observable, Sampler
from repro.qem import (
    EstimatorOptions,
    SamplerOptions,
    TwirlingOptions,
    ZNEOptions,
    extrapolate_to_zero,
)
from repro.qem.characterization import (
    CLIFFORD_COUNT,
    _canon_key,
    _word_matrix,
    characterization_dag,
    clifford_table,
    ideal_ptm,
    inverse_word,
)
from repro.qem.twirling import conjugate_by_x, twirl_masks, unflip_distribution
from repro.sim.ground_truth import (
    exact_distribution,
    noiseless_twin,
    reference_expectation,
)
from repro.sim.measurement import ReadoutModel


#: Derandomized, so tier-1 runs the same examples every time.
AREA_PROFILE = settings(derandomize=True, max_examples=60, deadline=None, database=None)


def noisy_device(seed: int = 7, t1: float = 30e-6, t2: float = 20e-6):
    return SuperconductingDevice(
        "sc-qem",
        1,
        with_decoherence=True,
        t1=t1,
        t2=t2,
        drift_rate=0.0,
        seed=seed,
    )


def x_train(device, n: int = 5) -> PulseSchedule:
    """*n* calibrated x pulses followed by a measurement."""
    sched = PulseSchedule(f"xtrain-{n}")
    for _ in range(n):
        device.calibrations.get("x", (0,)).apply(sched, [])
    device.calibrations.get("measure", (0,)).apply(sched, [0])
    return sched


def parametric_program(device, samples: int = 16, amp: float = 0.2):
    """A phase-parametrized measuring kernel (template-friendly)."""
    from repro.core.waveform import ParametricWaveform
    from repro.mlir.dialects.pulse import SequenceBuilder
    from repro.mlir.ir import print_module

    sb = SequenceBuilder("ansatz")
    drive = sb.add_mixed_frame_arg("f0", device.drive_port(0).name)
    acquire = sb.add_mixed_frame_arg("a0", device.acquire_port(0).name)
    theta = sb.add_scalar_arg("theta0")
    wave = sb.waveform(ParametricWaveform("square", samples, {"amp": amp}))
    sb.shift_phase(drive, theta)
    sb.play(drive, wave)
    sb.barrier(drive, acquire)
    sb.capture(acquire, 0, 8)
    sb.ret()
    return repro.Program.from_mlir(print_module(sb.module))


# ---- pulse stretching ----------------------------------------------------------------


class TestStretch:
    def test_factor_coercion(self):
        assert coerce_stretch_factor(2) == 2.0
        for bad in (0.5, 0.0, -1.0, float("nan"), float("inf"), "x"):
            with pytest.raises(ValidationError):
                coerce_stretch_factor(bad)

    def test_unit_factor_is_identity(self):
        dev = noisy_device()
        sched = x_train(dev, 2)
        assert stretch_schedule(sched, 1.0) is sched

    @AREA_PROFILE
    @given(
        envelope=st.sampled_from(
            ["sampled", "constant", "gaussian", "drag", "flat-top"]
        ),
        n=st.integers(min_value=1, max_value=96),
        amp=st.complex_numbers(min_magnitude=0.05, max_magnitude=1.0),
        factor=st.floats(min_value=1.0, max_value=4.0),
    )
    def test_waveform_area_preserved(self, envelope, n, amp, factor):
        """A legal stretch keeps every envelope's complex pulse area."""
        wave = {
            "sampled": lambda: SampledWaveform(np.full(n, amp)),
            "constant": lambda: constant_waveform(n, amp),
            "gaussian": lambda: gaussian_waveform(n, abs(amp), n / 6 + 0.5),
            "drag": lambda: drag_waveform(n, abs(amp), n / 6 + 0.5, 0.4),
            "flat-top": lambda: gaussian_square_waveform(
                n, abs(amp), n / 8 + 0.5, n // 2
            ),
        }[envelope]()
        c = coerce_stretch_factor(factor)
        duration = max(1, int(np.floor(n * c)))
        stretched = stretch_waveform(wave, duration)
        assert stretched.samples().size == duration
        area = wave.samples().sum()
        assert abs(stretched.samples().sum() - area) <= 1e-9 * abs(area)

    def test_schedule_dilation_scales_pulses_not_captures(self):
        dev = noisy_device()
        sched = x_train(dev, 3)
        out = stretch_schedule(sched, 1.5)
        assert out.name == f"{sched.name}@x1.5"
        plays_in = [
            i for i in sched.ordered() if isinstance(i.instruction, Play)
        ]
        plays_out = [
            i for i in out.ordered() if isinstance(i.instruction, Play)
        ]
        for a, b in zip(plays_in, plays_out):
            expected = int(np.floor(a.t1 * 1.5)) - int(np.floor(a.t0 * 1.5))
            assert b.instruction.duration == max(1, expected)
        caps_in = [
            i for i in sched.ordered() if isinstance(i.instruction, Capture)
        ]
        caps_out = [
            i for i in out.ordered() if isinstance(i.instruction, Capture)
        ]
        # Readout is instrumentation, not dynamics under test: the
        # capture window keeps its duration, only its start dilates.
        for a, b in zip(caps_in, caps_out):
            assert b.instruction.duration == a.instruction.duration
            assert b.t0 == int(np.floor(a.t0 * 1.5))

    def test_constraint_violation_raises(self):
        dev = noisy_device()
        constraints = dev.config.constraints
        sched = PulseSchedule("long")
        port = dev.drive_port(0)
        frame = dev.default_frame(port)
        n = int(constraints.max_pulse_duration // 1.5) + 4
        sched.append(Play(port, frame, SampledWaveform(np.full(n, 0.1))))
        with pytest.raises(ValidationError, match="max_pulse_duration"):
            stretch_schedule(sched, 1.5, constraints=constraints)


def batch_spy(monkeypatch):
    """The families of every ``execute_batch`` call, in call order."""
    from repro.sim.executor import ScheduleExecutor

    seen = []
    original = ScheduleExecutor.execute_batch

    def spy(self, schedules, **kwargs):
        seen.append(list(getattr(schedules, "families", [schedules])))
        return original(self, schedules, **kwargs)

    monkeypatch.setattr(ScheduleExecutor, "execute_batch", spy)
    return seen


class TestStretchedVariants:
    """ZNE variants are stretched once per factor, from the PUB's
    template family, and run as bound families."""

    def test_stretched_variants_run_as_template_families(self, monkeypatch):
        dev = noisy_device()
        seen = batch_spy(monkeypatch)
        opts = EstimatorOptions(
            mitigation=("zne",), zne=ZNEOptions(stretch_factors=(1.0, 1.5))
        )
        Estimator(dev, options=opts).run(
            [(parametric_program(dev), Observable.z(0), {"theta0": [0.3, 0.6]})]
        )
        [(plain, stretched)] = seen
        assert len(plain) == len(stretched) == 2
        assert plain.slots and stretched.slots
        assert stretched.base.duration > plain.base.duration
        assert stretched.base.name.endswith("@x1.5")

    def test_bad_factor_raises(self):
        dev = noisy_device()
        with pytest.raises(ValidationError):
            ZNEOptions(stretch_factors=(1.0, 0.25))
        opts = EstimatorOptions(mitigation=("zne",))
        # past the options' own check, the stretch still refuses it
        object.__setattr__(opts.zne, "stretch_factors", (1.0, 0.25))
        with pytest.raises(ValidationError, match="stretch factor"):
            Estimator(dev, options=opts).run(
                [(parametric_program(dev), Observable.z(0), {"theta0": [0.3]})]
            )

    def test_stretch_past_max_pulse_duration_raises(self):
        dev = noisy_device()
        limit = repro.Target.resolve(dev).constraints.max_pulse_duration
        samples = -(-int(limit // 1.5 + 16) // 16) * 16
        opts = EstimatorOptions(
            mitigation=("zne",), zne=ZNEOptions(stretch_factors=(1.0, 1.5))
        )
        with pytest.raises(ValidationError, match="max_pulse_duration"):
            Estimator(dev, options=opts).run(
                [
                    (
                        parametric_program(dev, samples=samples, amp=0.001),
                        Observable.z(0),
                        {"theta0": [0.3]},
                    )
                ]
            )

    def test_zne_variants_mint_without_jit(self):
        """Every (point, stretch factor) variant of a ZNE sweep is minted
        from the compiled template: the JIT never runs."""
        dev = noisy_device()
        est = Estimator(dev, options=EstimatorOptions(mitigation=("zne",)))
        res = est.run(
            [(parametric_program(dev), Observable.z(0), {"theta0": [0, 0.5, 1]})]
        )
        assert res[0].data.evs.shape == (3,)
        assert res[0].metadata["qem"]["overhead"] == 3
        assert est.target.compiler.stats()["misses"] == 0

    def test_template_miss_fallback_stretches(self, monkeypatch):
        dev = noisy_device()
        program = parametric_program(dev)
        opts = EstimatorOptions(
            mitigation=("zne",), zne=ZNEOptions(stretch_factors=(1.0, 1.5))
        )
        pub = (program, Observable.z(0), {"theta0": [0.3, 0.6]})
        seen = batch_spy(monkeypatch)
        templated = Estimator(dev, options=opts).run([pub])[0].data.evs
        exe = repro.compile(program, repro.Target.resolve(dev))
        exe._template = False  # force the template-miss path
        est = Estimator(dev, options=opts)
        est.target._executables[program] = exe  # the memo lives on the target
        fallback = est.run([pub])[0].data.evs
        [(_, template_stretched), families] = seen
        # One bound schedule per point, each its own family, stretched
        # explicitly: never handed back un-stretched.
        assert [len(f) for f in families] == [1, 1, 1, 1]
        assert not any(f.slots for f in families)
        stretched = [f for f in families if f.base.name.endswith("@x1.5")]
        assert len(stretched) == 2
        assert all(
            f.base.duration == template_stretched.base.duration for f in stretched
        )
        np.testing.assert_allclose(fallback, templated, rtol=0, atol=1e-12)


# ---- extrapolation -------------------------------------------------------------------


class TestExtrapolation:
    def test_linear_exact_on_affine_data(self):
        c = np.array([1.0, 1.5, 2.0])
        assert np.isclose(
            extrapolate_to_zero(c, 3.0 - 0.4 * c, method="linear"), 3.0
        )

    def test_richardson_exact_on_polynomial(self):
        c = np.array([1.0, 1.5, 2.0])
        v = 2.0 + 0.3 * c - 0.7 * c**2
        assert np.isclose(
            extrapolate_to_zero(c, v, method="richardson"), 2.0
        )

    def test_exponential_recovers_asymptote(self):
        c = np.array([1.0, 1.5, 2.0, 3.0])
        v = 0.8 + 0.15 * np.exp(-0.9 * c)
        est = extrapolate_to_zero(c, v, method="exponential")
        assert abs(est - 0.95) < 1e-6

    def test_exponential_falls_back_to_linear_on_two_points(self):
        c = np.array([1.0, 2.0])
        v = np.array([1.0, 0.5])
        assert np.isclose(
            extrapolate_to_zero(c, v, method="exponential"),
            extrapolate_to_zero(c, v, method="linear"),
        )

    def test_validation(self):
        with pytest.raises(ValidationError):
            extrapolate_to_zero([1.0, 2.0], [1.0], method="linear")
        with pytest.raises(ValidationError):
            extrapolate_to_zero([1.0], [1.0], method="linear")


# ---- options stack -------------------------------------------------------------------


class TestOptions:
    def test_overhead_composes_multiplicatively(self):
        opts = EstimatorOptions(
            mitigation=("zne", "twirling", "readout"),
            zne=ZNEOptions(stretch_factors=(1.0, 1.5, 2.0)),
            twirling=TwirlingOptions(num_randomizations=4),
        )
        assert opts.overhead == 12.0
        assert EstimatorOptions().overhead == 1.0

    def test_unknown_and_duplicate_mitigators_rejected(self):
        with pytest.raises(ValidationError, match="unknown"):
            EstimatorOptions(mitigation=("dd",))
        with pytest.raises(ValidationError, match="repeats"):
            EstimatorOptions(mitigation=("zne", "zne"))
        with pytest.raises(ValidationError, match="unknown"):
            SamplerOptions(mitigation=("zne",))  # sampler has no ZNE

    def test_zne_options_validation(self):
        with pytest.raises(ValidationError):
            ZNEOptions(stretch_factors=(1.5, 2.0))  # must start at 1.0
        with pytest.raises(ValidationError):
            ZNEOptions(stretch_factors=(1.0, 2.0, 1.5))  # increasing
        with pytest.raises(ValidationError):
            ZNEOptions(stretch_factors=(1.0,))  # >= 2 factors
        with pytest.raises(ValidationError):
            ZNEOptions(extrapolation="cubic")
        with pytest.raises(ValidationError):
            TwirlingOptions(num_randomizations=0)

    def test_primitive_constructor_validation(self):
        dev = noisy_device()
        with pytest.raises(ValidationError, match="EstimatorOptions"):
            Estimator(dev, options=object())
        with pytest.raises(ValidationError, match="SamplerOptions"):
            Sampler(dev, options=object())


# ---- ZNE end to end ------------------------------------------------------------------


class TestZNE:
    @pytest.mark.parametrize("method", ["linear", "exponential"])
    def test_recovers_exact_lindblad_expectation(self, method):
        dev = noisy_device()
        sched = x_train(dev, 5)
        obs = Observable.z(0)
        truth = reference_expectation(dev.executor, sched, obs)
        noisy = float(
            Estimator(dev, options=EstimatorOptions())
            .run([(sched, obs)])[0]
            .data.evs
        )
        opts = EstimatorOptions(
            mitigation=("zne", "readout"),
            zne=ZNEOptions(
                stretch_factors=(1.0, 1.5, 2.0), extrapolation=method
            ),
        )
        result = Estimator(dev, options=opts).run([(sched, obs)])
        mitigated = float(result[0].data.evs)
        assert abs(mitigated - truth) < 0.5 * abs(noisy - truth)
        assert abs(mitigated - truth) < 0.02
        meta = result[0].metadata["qem"]
        assert meta["stretch_factors"] == [1.0, 1.5, 2.0]
        assert meta["extrapolation"] == method
        assert meta["overhead"] == 3.0

    def test_remote_dispatch_rejects_stretch(self):
        dev = noisy_device()
        est = Estimator(dev, options=EstimatorOptions(mitigation=("zne",)))
        est._mode = "client"  # simulate remote dispatch
        with pytest.raises(ValidationError, match="direct simulator target"):
            est.run([(parametric_program(dev), Observable.z(0), {"theta0": [0.1]})])


# ---- twirling ------------------------------------------------------------------------


class TestTwirling:
    def test_masks_exhaustive_when_small(self):
        rng = np.random.default_rng(0)
        masks = twirl_masks(1, TwirlingOptions(num_randomizations=8), rng)
        assert sorted(tuple(m) for m in masks) == [(False,), (True,)]
        masks2 = twirl_masks(2, TwirlingOptions(num_randomizations=4), rng)
        assert len(masks2) == 4
        assert len({tuple(m) for m in masks2}) == 4

    def test_masks_sampled_when_large(self):
        rng = np.random.default_rng(0)
        masks = twirl_masks(4, TwirlingOptions(num_randomizations=3), rng)
        assert len(masks) == 3

    def test_conjugate_by_x_flips_z_and_y(self):
        flipped = conjugate_by_x(
            Observable.z(0), np.array([True]),
        )
        assert flipped.terms == {((0, "Z"),): -1.0}
        unchanged = conjugate_by_x(Observable.z(0), np.array([False]))
        assert unchanged.terms == {((0, "Z"),): 1.0}
        x_term = conjugate_by_x(
            Observable.from_pauli("X"), np.array([True])
        )
        assert x_term.terms == {((0, "X"),): 1.0}

    def test_unflip_distribution(self):
        out = unflip_distribution({"01": 0.75, "11": 0.25}, np.array([True, False]))
        assert out == {"11": 0.75, "01": 0.25}
        with pytest.raises(ValidationError):
            unflip_distribution({"0": 1.0}, np.array([True, False]))

    def test_preserves_mean_under_ideal_readout(self):
        dev = noisy_device()
        dev.executor.readout[0] = ReadoutModel()  # ideal readout
        sched = x_train(dev, 5)
        obs = Observable.z(0)
        plain = float(
            Estimator(dev, options=EstimatorOptions())
            .run([(sched, obs)])[0]
            .data.evs
        )
        twirled = float(
            Estimator(dev, options=EstimatorOptions(mitigation=("twirling",)))
            .run([(sched, obs)])[0]
            .data.evs
        )
        assert abs(twirled - plain) < 5e-3

    def test_cancels_coherent_readout_bias(self):
        dev = noisy_device()  # asymmetric default readout (1%/2%)
        sched = PulseSchedule("equator")
        dev.calibrations.get("sx", (0,)).apply(sched, [])
        dev.calibrations.get("measure", (0,)).apply(sched, [0])
        obs = Observable.z(0)
        truth = float(
            np.real(
                Observable.z(0).expectation(
                    exact_distribution(dev.executor, sched), n_slots=1
                )
            )
        )
        plain = float(
            Estimator(dev, options=EstimatorOptions())
            .run([(sched, obs)])[0]
            .data.evs
        )
        twirled = float(
            Estimator(dev, options=EstimatorOptions(mitigation=("twirling",)))
            .run([(sched, obs)])[0]
            .data.evs
        )
        # The asymmetric part of the confusion bias flips sign under
        # the exhaustive bit-flip frame and cancels exactly.
        assert abs(plain - truth) > 5e-3
        assert abs(twirled - truth) < 0.3 * abs(plain - truth)


# ---- composition ---------------------------------------------------------------------


class TestComposition:
    def test_declared_order_sets_expansion_and_agrees_for_linear(self):
        dev = noisy_device()
        sched = x_train(dev, 5)
        obs = Observable.z(0)
        results = {}
        for order in (("zne", "twirling"), ("twirling", "zne")):
            opts = EstimatorOptions(
                mitigation=order,
                zne=ZNEOptions(
                    stretch_factors=(1.0, 1.5, 2.0), extrapolation="linear"
                ),
                twirling=TwirlingOptions(num_randomizations=2),
            )
            res = Estimator(dev, options=opts).run([(sched, obs)])
            meta = res[0].metadata["qem"]
            assert meta["mitigation"] == list(order)
            assert meta["variants_per_point"] == 6
            assert meta["overhead"] == 6.0
            results[order] = float(res[0].data.evs)
        # Declared order is circuit-minting order: zne-first twirls the
        # stretched circuit with native-duration flip pulses, while
        # twirling-first dilates the flips too. The fold itself commutes
        # for linear extrapolation, so the orders agree to the (small)
        # extra decay of the dilated flip pulses.
        assert results[("zne", "twirling")] != results[("twirling", "zne")]
        assert np.isclose(
            results[("zne", "twirling")],
            results[("twirling", "zne")],
            atol=5e-3,
        )

    def test_full_stack_beats_noisy_by_2x(self):
        """Full-stack mitigation: >= 2x error reduction vs exact Lindblad, and
        an absolute 0.01 ceiling on the mitigated error."""
        dev = noisy_device()
        sched = x_train(dev, 5)
        obs = Observable.z(0)
        truth = reference_expectation(dev.executor, sched, obs)
        noisy = float(
            Estimator(dev, options=EstimatorOptions())
            .run([(sched, obs)])[0]
            .data.evs
        )
        opts = EstimatorOptions(mitigation=("zne", "twirling", "readout"))
        mitigated = float(
            Estimator(dev, options=opts).run([(sched, obs)])[0].data.evs
        )
        assert abs(mitigated - truth) <= 0.5 * abs(noisy - truth)
        assert abs(mitigated - truth) <= 0.01

    def test_parametric_broadcast_through_engine(self):
        dev = noisy_device()
        program = parametric_program(dev)
        opts = EstimatorOptions(mitigation=("zne",))
        res = Estimator(dev, options=opts).run(
            [(program, Observable.z(0), {"theta0": np.array([0.0, 0.5, 1.0])})]
        )
        assert res[0].data.evs.shape == (3,)
        assert np.all(np.isfinite(res[0].data.evs))


# ---- mitigated sampler ---------------------------------------------------------------


class TestMitigatedSampler:
    def test_readout_options_match_legacy_bit_for_bit(self):
        # The readout-only stack is exactly confusion inversion of the
        # normalized counts with the executor's per-site readout models.
        dev = noisy_device()
        sched = x_train(dev, 1)
        plain = Sampler(dev, default_shots=256, seed=3).run([(sched,)])[0]
        new = Sampler(
            dev,
            default_shots=256,
            seed=3,
            options=SamplerOptions(mitigation=("readout",)),
        ).run([(sched,)])[0]
        counts = plain.data.counts[()]
        assert counts == new.data.counts[()]
        total = sum(counts.values())
        sites = dev.executor.execute(sched, shots=0).measured_sites
        reference = qem.mitigate_distribution(
            {k: v / total for k, v in counts.items()},
            [dev.executor.readout.get(site, ReadoutModel()) for site in sites],
        )
        assert reference.distribution == new.data.quasi_dists[()]
        assert reference.condition_number == float(
            new.data.condition_numbers[()]
        )

    def test_twirled_quasi_dists_close_to_ideal(self):
        dev = noisy_device()
        sched = x_train(dev, 1)
        res = Sampler(
            dev,
            default_shots=0,
            seed=3,
            options=SamplerOptions(mitigation=("twirling", "readout")),
        ).run([(sched,)])[0]
        ideal = dict(res.data.probabilities[()])
        quasi = dict(res.data.quasi_dists[()])
        noisy = dict(res.data.noisy_probabilities[()])
        tv_mitigated = qem.total_variation_distance(quasi, ideal)
        tv_noisy = qem.total_variation_distance(noisy, ideal)
        assert tv_mitigated < tv_noisy
        assert res.metadata["qem"]["mitigation"] == ["twirling", "readout"]


# ---- ground truth helpers ------------------------------------------------------------


class TestGroundTruth:
    def test_noiseless_twin_strips_decoherence_and_readout(self):
        dev = noisy_device()
        twin = noiseless_twin(dev.executor)
        assert twin.model.decoherence == ()
        assert twin.readout == {}
        assert dev.executor.model.decoherence  # original untouched

    def test_reference_beats_noisy_for_excited_state(self):
        dev = noisy_device()
        sched = x_train(dev, 1)
        obs = Observable.z(0)
        ref = reference_expectation(dev.executor, sched, obs)
        assert ref < -0.99  # |1> survives without decoherence


# ---- characterization ----------------------------------------------------------------


class TestCliffordGroup:
    def test_closure_has_24_elements(self):
        words, index = clifford_table()
        assert len(words) == CLIFFORD_COUNT
        assert len(index) == CLIFFORD_COUNT

    def test_every_inverse_composes_to_identity(self):
        words, _ = clifford_table()
        eye = _canon_key(np.eye(2, dtype=complex))
        for word in words:
            inv = inverse_word(word)
            assert _canon_key(_word_matrix(inv) @ _word_matrix(word)) == eye

    def test_ideal_ptm_of_x(self):
        ptm = ideal_ptm(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
        assert np.allclose(ptm, np.diag([1.0, 1.0, -1.0, -1.0]))


class TestCharacterizationTasks:
    @pytest.fixture(scope="class")
    def suite(self):
        dev = SuperconductingDevice(
            "sc-char",
            1,
            with_decoherence=True,
            t1=10e-6,
            t2=8e-6,
            drift_rate=0.0,
            seed=7,
        )
        dag = characterization_dag(
            rb_lengths=(1, 8, 20, 40),
            rb_samples=3,
            interleaved_gate="sx",
            max_delay_samples=24000,
            coherence_points=21,
            tomography_gate="x",
        )
        run = PipelineRunner(dev).run(dag, seed=11)
        assert run.ok
        return run.results

    def test_rb_decay_matches_injected_rates(self, suite):
        fit = suite["rb-fit"]["fits"]["standard"]
        ratio = (1.0 - fit["p"]) / (1.0 - fit["p_predicted"])
        assert 0.6 < ratio < 1.6

    def test_interleaved_gate_error_is_coherence_limited(self, suite):
        gate_error = suite["rb-fit"]["interleaved_gate_error"]
        assert 0.0 < gate_error < 0.01

    def test_t1_fit_recovers_configured_value(self, suite):
        assert suite["t1-fit"]["relative_error"] < 1e-2

    def test_t2_fits_recover_configured_value(self, suite):
        assert suite["t2-fit"]["relative_error"] < 1e-2
        assert suite["t2echo-fit"]["relative_error"] < 1e-2

    def test_tomography_reconstructs_x_gate(self, suite):
        fit = suite["ptm-fit"]
        assert fit["average_gate_fidelity"] > 0.99
        assert np.allclose(
            np.asarray(fit["ptm"]),
            np.diag([1.0, 1.0, -1.0, -1.0]),
            atol=0.06,
        )

    def test_scan_requires_direct_dispatch(self):
        from repro.qem.characterization import _rb_scan_run

        class FakeRunner:
            dispatch = "service"

        class FakeCtx:
            runner = FakeRunner()
            device = None

        with pytest.raises(PipelineError, match="direct"):
            _rb_scan_run(FakeCtx(), {}, 0, {})


# ---- SIGKILL resume ------------------------------------------------------------------

KILL_HELPER = '''
"""Helper for the qem SIGKILL-resume test: a slowed characterization DAG."""
import sys
import time

import repro.qem  # registers the characterization task kinds
from repro.devices import SuperconductingDevice
from repro.pipeline import DAG, PipelineRunner, PipelineStore, register_task
from repro.pipeline.dag import TASK_TYPES

if "qem_kill_nap" not in TASK_TYPES:

    @register_task("qem_kill_nap", "control")
    def _nap(ctx, params, seed, upstream):
        time.sleep(float(params.get("seconds", 0.2)))
        return {}


def build_dag():
    dag = DAG("qem-kill")
    prev = None
    for k, kind in enumerate(("t1", "t2echo", "t1", "t2echo")):
        after = (prev,) if prev else ()
        dag.task(f"nap-{k}", "qem_kill_nap", {"seconds": 0.3}, after=after)
        dag.task(
            f"scan-{k}",
            "coherence_scan",
            {"kind": kind, "max_delay_samples": 16000, "points": 9},
            after=(f"nap-{k}",),
        )
        dag.task(f"fit-{k}", "coherence_fit", after=(f"scan-{k}",))
        prev = f"fit-{k}"
    dag.task(
        "rb-scan",
        "rb_scan",
        {"lengths": [1, 4, 8], "samples": 2},
        after=(prev,),
    )
    dag.task("rb-fit", "rb_fit", after=("rb-scan",))
    return dag


def make_runner(store_path):
    device = SuperconductingDevice(
        "sc",
        1,
        with_decoherence=True,
        t1=10e-6,
        t2=8e-6,
        drift_rate=0.0,
        seed=3,
    )
    return PipelineRunner(device, store=PipelineStore(store_path))


if __name__ == "__main__":
    make_runner(sys.argv[1]).run(build_dag(), run_id="qemchar", seed=7)
'''


class TestSigkillResume:
    def test_characterization_dag_resumes_after_sigkill(self, tmp_path):
        """RB/coherence experiments survive a SIGKILL mid-DAG and
        resume from the durable store without re-measuring."""
        helper = tmp_path / "qemkill.py"
        helper.write_text(KILL_HELPER)
        sys.path.insert(0, str(tmp_path))
        try:
            qemkill = importlib.import_module("qemkill")
        finally:
            sys.path.pop(0)

        store_path = str(tmp_path / "kill.db")
        env = dict(os.environ)
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env["PYTHONPATH"] = os.pathsep.join(
            p
            for p in (os.path.join(root, "src"), env.get("PYTHONPATH"))
            if p
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
                    store.counts_by_state("qemchar")
                    if store.get_run("qemchar")
                    else {}
                )
                if counts.get("done", 0) >= 3:
                    break
                time.sleep(0.02)
            else:
                pytest.fail("child never made progress")
            os.kill(child.pid, signal.SIGKILL)
        finally:
            child.wait()

        run_row = store.get_run("qemchar")
        assert run_row["state"] == "running"  # killed mid-flight
        done_before = {
            n
            for n, r in store.tasks("qemchar").items()
            if r["state"] == "done"
        }
        assert len(done_before) >= 3

        resumed = qemkill.make_runner(store_path).resume("qemchar")
        assert resumed.ok
        assert set(resumed.replayed) >= done_before
        assert "rb-fit" in resumed.results
        fit = resumed.results["rb-fit"]["fits"]["standard"]
        assert 0.0 < fit["p"] <= 1.0
