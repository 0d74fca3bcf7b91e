"""Sampler: shot-based execution of broadcastable PUBs.

``Sampler.run([(program, parameter_values, shots), ...])`` executes
every parameter point of every PUB and returns one
:class:`~repro.primitives.containers.PubResult` per PUB whose
:class:`~repro.primitives.containers.DataBin` holds, per point:

* ``counts`` — sampled shot counts after readout error (exactly what
  ``Executable.run`` returns);
* ``quasi_dists`` — normalized counts, or — with
  ``options=SamplerOptions(mitigation=(...))`` on a direct simulator
  target — their mitigated distribution (:mod:`repro.qem.engine`),
  alongside the per-point ``condition_numbers`` of a readout
  inversion;
* ``probabilities`` — the exact pre-readout outcome distribution the
  backend reports (shot-noise free);
* direct simulator targets additionally expose the exact post-readout
  ``noisy_probabilities`` — the ground truth the mitigation literature
  scores against — and per-point ``leakage``.

All points dispatch as schedule families: one batched evolution pass
(:meth:`ScheduleExecutor.execute_batch`) on a direct target, one
request on every other target — see :mod:`repro.primitives.base`.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.errors import ValidationError
from repro.obs.tracing import span
from repro.primitives.base import BasePrimitive
from repro.primitives.containers import DataBin, PrimitiveResult, PubResult
from repro.primitives.pubs import SamplerPub


class Sampler(BasePrimitive):
    """Shot sampler over one execution target.

    Parameters
    ----------
    target:
        A :class:`~repro.api.target.Target`, or anything
        :meth:`Target.resolve <repro.api.target.Target.resolve>`
        accepts (e.g. a bare device). Alternatively build from a raw
        executor with :meth:`from_executor`.
    default_shots:
        Shots for PUBs that do not carry their own.
    seed:
        Seed forwarded to every execution (reproducible sampling).
    options:
        Optional :class:`repro.qem.SamplerOptions`; when set, ``run``
        routes through the composable mitigation engine (twirling +
        readout inversion folded into ``quasi_dists``). Direct
        simulator targets only (the confusion matrices live on the
        executor).
    """

    def __init__(
        self,
        target: Any = None,
        *,
        executor: Any = None,
        default_shots: int = 1024,
        seed: int | None = None,
        options: Any = None,
    ) -> None:
        super().__init__(target, executor=executor, seed=seed)
        if default_shots < 0:
            raise ValidationError(
                f"default_shots must be >= 0, got {default_shots}"
            )
        self.default_shots = int(default_shots)
        self.options = options
        if options is not None:
            if not hasattr(options, "mitigation"):
                raise ValidationError(
                    "options must be a repro.qem.SamplerOptions "
                    f"(got {type(options).__name__})"
                )
            if self.mode != "direct":
                raise ValidationError(
                    "mitigation options need a direct simulator target "
                    "(the confusion matrices live on the device executor)"
                )

    def run(
        self,
        pubs: Iterable[Any],
        *,
        shots: int | None = None,
        timeout: float | None = None,
    ) -> PrimitiveResult:
        """Execute *pubs*; results align with the input order.

        *shots* overrides the sampler default for PUBs that carry no
        shot count of their own.
        """
        coerced = [SamplerPub.coerce(p) for p in pubs]
        if not coerced:
            raise ValidationError("Sampler.run needs at least one PUB")
        specs = [
            (
                pub,
                pub.shots
                if pub.shots is not None
                else (self.default_shots if shots is None else int(shots)),
            )
            for pub in coerced
        ]
        with span("sampler.run", pubs=len(coerced), mode=self.mode):
            if self.options is not None:
                from repro.qem.engine import run_mitigated_sampler

                return run_mitigated_sampler(self, specs, timeout=timeout)
            results = self._run_pubs(specs, timeout=timeout)
            with span("measurement", pubs=len(coerced)):
                pub_results = [
                    self._assemble(pub, shots_, res)
                    for (pub, shots_), res in zip(specs, results)
                ]
        return PrimitiveResult(
            pub_results, metadata={"dispatch": self.mode, "seed": self._seed}
        )

    # ---- assembly --------------------------------------------------------------------

    def _assemble(self, pub: SamplerPub, shots: int, results: Any):
        shape = pub.shape
        direct = self.mode == "direct"
        counts, probabilities, noisy = self._member_dicts(results.families)
        # Off a direct target, the pre-readout distribution stands in
        # for the exact one when no shot was drawn.
        exact = noisy if direct else probabilities
        quasi = [
            _normalized(c) if shots > 0 and c else dict(p)
            for c, p in zip(counts, exact)
        ]
        fields: dict[str, Any] = {
            "counts": self._object_array(shape, counts),
            "quasi_dists": self._object_array(shape, quasi),
            "probabilities": self._object_array(shape, probabilities),
        }
        if direct:
            fields["noisy_probabilities"] = self._object_array(shape, noisy)
            fields["leakage"] = self._leakage(results.families).reshape(shape)
        metadata: dict[str, Any] = {
            "shots": shots,
            "target": self._device_name(),
            "dispatch": self.mode,
            "mitigated": False,
            **self._batch_profile(results),
        }
        return PubResult(DataBin(shape=shape, **fields), metadata=metadata)


def _normalized(counts: dict) -> dict:
    """*counts* as a quasi-distribution (each count over the total)."""
    total = sum(counts.values())
    return {k: v / total for k, v in counts.items()}
