"""A ZNE + twirling + readout-mitigated Estimator on a noisy transmon."""

from __future__ import annotations

import numpy as np

from benchmarks.harness.workloads.sweeps import PubSweep, ansatz_text, grid_points

STACK = ("zne", "twirling", "readout")


def _options():
    from repro.qem import EstimatorOptions

    return EstimatorOptions(mitigation=STACK)


def folded_expectation(device, executable, point: dict[str, float]) -> float:
    """The mitigated <Z> of one point, variant by variant.

    Each (stretch factor, twirl mask) variant is bound through
    ``Executable.bind``, stretched and twirled explicitly, executed by
    the scalar ``executor.execute``, confusion-inverted, and folded with
    the public ZNE extrapolation: the per-variant path the batched
    engine must reproduce.
    """
    from repro.core.stretch import stretch_schedule
    from repro.primitives import Observable
    from repro.qem import extrapolate_to_zero, mitigate_distribution
    from repro.qem.twirling import (
        conjugate_by_x,
        measured_slots,
        twirl_masks,
        twirl_schedule,
    )
    from repro.sim.measurement import ReadoutModel

    options = _options()
    base = executable.bind(point).schedule
    sites = [site for _, site in measured_slots(base)]
    masks = twirl_masks(len(sites), options.twirling, np.random.default_rng(0))
    constraints = executable.target.constraints
    readout = device.executor.readout
    z = Observable.z(0)
    means = []
    for factor in options.zne.stretch_factors:
        stretched = (
            base
            if factor == 1.0
            else stretch_schedule(base, factor, constraints=constraints)
        )
        values = []
        for mask in masks:
            schedule = (
                twirl_schedule(stretched, mask, device, sites)
                if any(mask)
                else stretched
            )
            result = device.executor.execute(schedule, shots=0)
            slots = len(result.measured_sites)
            models = [readout.get(s, ReadoutModel()) for s in result.measured_sites]
            dist = mitigate_distribution(dict(result.probabilities), models)
            observable = conjugate_by_x(z, mask)
            values.append(observable.expectation(dist.distribution, n_slots=slots))
        means.append(np.mean(values))
    zne = options.zne
    return float(
        extrapolate_to_zero(zne.stretch_factors, np.asarray(means), zne.extrapolation)
    )


class MitigatedSweep(PubSweep):
    """One mitigated ``Estimator.run`` of fresh binding points per op:
    8 points x 3 stretch factors x 2 twirls = 48 variants."""

    phases = 4
    #: Extrapolation may leave [-1, 1]; it must stay finite and sane.
    ev_limit = 2.0

    def __init__(self) -> None:
        super().__init__(
            "qem_zne_twirl_readout", noisy=True, points=8, probe=4, spot=1
        )

    def device(self):
        from repro.devices import SuperconductingDevice

        return SuperconductingDevice(
            "sc-bench-qem",
            1,
            with_decoherence=True,
            t1=30e-6,
            t2=20e-6,
            drift_rate=0.0,
            seed=7,
        )

    def program_text(self, device) -> str:
        return ansatz_text(
            device, phases=self.phases, samples=16, amp0=0.1, amp_step=0.01, prep=0
        )

    def estimator(self, target):
        from repro.primitives import Estimator

        return Estimator(target, options=_options())

    def reference_value(self, device, executable, point) -> float:
        return folded_expectation(device, executable, point)

    def reference(self) -> dict:
        import repro
        from repro.primitives import Observable
        from repro.qem import reference_expectation

        data = super().reference()
        device, target, program = self._compiled()
        executable = repro.compile(program, target)
        grid = {k: np.asarray(v) for k, v in data["grid"].items()}
        z = Observable.z(0)
        data["exact"] = [
            reference_expectation(device.executor, executable.bind(p).schedule, z)
            for p in grid_points(grid)
        ]
        return data
