"""The mitigated execution engine behind the primitives' options stack.

When an :class:`~repro.primitives.estimator.Estimator` (or
:class:`~repro.primitives.sampler.Sampler`) carries a
:class:`~repro.qem.options.EstimatorOptions` /
:class:`~repro.qem.options.SamplerOptions`, its ``run`` routes here.
The engine expands every PUB point into a grid of circuit variants —
one per (stretch factor x twirl randomization) — without building a
schedule per variant. The PUB binds once into its template family
(:meth:`Executable.bind_many
<repro.api.executable.Executable.bind_many>`). Stretching and twirling
re-insert every frame-event instruction unchanged and never read a
frame scalar, so they commute with binding: the template is stretched
once per factor and twirled once per distinct mask (masks are still
drawn per point) — once per template and calibration state, since
:data:`VARIANTS` keeps the derived schedules across runs — and the
points carrying each (factor, mask) run as the members of one derived
family (:meth:`~repro.core.schedule.ScheduleFamily.derive`). A warm
run derives nothing, and the executor reuses each variant's drive
plan. A PUB the
template cannot take, or a plain schedule, expands the same way from
one-member or slot-free families. All families of all PUBs run in one
batched dispatch, and the results fold back in reverse declared order
as arrays: one confusion inversion per family's ``(K, 2**m)``
post-readout table, the twirl frame as a gather of the observable's
outcome values (``values[outcome ^ flips]``), one product per row for
the variant means, then per point the twirl average and the
extrapolation of the stretch factors to zero noise. The Sampler's
quasi-distributions fold from the same arrays: one inversion per
twirled family's normalized counts, the twirl unflip as a gather of
each row (``row[outcome ^ flips]``), then per point the average of
its randomizations.

Mitigated evaluation reads the **post-readout** distribution
(``ExecutionResult.probabilities``) — the noisy quantity mitigation
exists to clean up — unlike the default Estimator convention of
pre-readout exactness, and therefore requires a direct simulator
target and diagonal (Z-basis) observables. An *empty* stack is the
unmitigated noisy baseline over the same convention.
"""

from __future__ import annotations

import itertools
import math
import threading
import weakref
from typing import Any, Callable, Sequence

import numpy as np

from repro.core.schedule import ScheduleFamily
from repro.errors import ValidationError
from repro.obs.metrics import REGISTRY, CacheStats
from repro.obs.tracing import span
from repro.primitives.containers import DataBin, PrimitiveResult, PubResult
from repro.qem import twirling as _twirling
from repro.qem.readout import invert_readout
from repro.qem.zne import extrapolate_to_zero, stretch_schedule
from repro.sim.executor import outcome_dict
from repro.sim.measurement import ReadoutModel, joint_confusion


class _Variant:
    """One executed circuit variant of one PUB point: member *index* of
    the batch family *family*.

    While a PUB expands, *family* is the ``(source, key)`` pair naming
    the derived family and *index* the point's row in its source
    family; :func:`_group` turns both into the final family and member.
    """

    __slots__ = ("family", "index", "factor_index", "twirl_index", "mask", "is_base")

    def __init__(self, family, index, factor_index, twirl_index, mask, is_base=False):
        self.family = family
        self.index = index
        self.factor_index = factor_index
        self.twirl_index = twirl_index
        self.mask = mask
        self.is_base = is_base


class VariantMemo:
    """The stretched and twirled variants of each source schedule.

    Keyed weakly on the source (a refreshed template is a new base, so
    its variants go with the old one) and held for one stamp: the
    source's ``_seq`` and the calibration state of the device the
    variants read (its state key and calibration generation). A new
    stamp drops the source's variants. The variants keep the source's
    instruction objects, so a family over the source derives onto
    them, and each variant is a stable base the executor's plan memo
    reuses. Thread-safe; ``stats()`` has the uniform cache shape.
    """

    def __init__(self) -> None:
        self._variants: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._lock = threading.Lock()
        self.stats = CacheStats(
            self.__len__, lambda: None, hits=0, misses=0, evictions=0
        )
        REGISTRY.register_cache(
            REGISTRY.autoname("qem-variant"), self, kind="qem-variant"
        )

    def __len__(self) -> int:
        with self._lock:
            return sum(len(held) for _, held in self._variants.values())

    def variant(self, source, stamp, key, build: Callable[[], Any]):
        """The variant *key* of *source* under *stamp*, built by
        *build* on a miss. The variant must not hold *source*."""
        stamp = (source._seq, stamp)
        with self._lock:
            held_stamp, held = self._variants.get(source, (None, {}))
            out = held.get(key) if held_stamp == stamp else None
            if out is not None:
                self.stats["hits"] += 1
                return out
        out = build()
        with self._lock:
            self.stats["misses"] += 1
            held_stamp, held = self._variants.get(source, (None, {}))
            if held_stamp != stamp:
                self.stats["evictions"] += len(held)
                held = {}
                self._variants[source] = (stamp, held)
            held[key] = out
        return out


#: The process's variant memo, shared by every mitigated primitive.
VARIANTS = VariantMemo()


def _calibration_stamp(primitive):
    """The calibration state a variant of *primitive*'s schedules reads:
    the device's state key and calibration generation (``None`` for an
    executor-backed primitive, which has no device)."""
    target = primitive.target
    if target is None:
        return None
    device = target.compile_device
    generation = getattr(getattr(device, "calibrations", None), "generation", 0)
    return target.calibration_key(), generation


def _stretched(schedule, factor, constraints, stamp):
    """*schedule* stretched by *factor*, memoised in :data:`VARIANTS`."""
    if factor == 1.0:
        return schedule
    return VARIANTS.variant(
        schedule,
        stamp,
        ("stretch", factor, constraints),
        lambda: stretch_schedule(schedule, factor, constraints=constraints),
    )


def _twirled(schedule, mask, device, sites, stamp):
    """*schedule* twirled by *mask*, memoised in :data:`VARIANTS`."""
    if mask is None or not any(mask):
        return schedule
    return VARIANTS.variant(
        schedule,
        stamp,
        ("twirl", tuple(mask), tuple(sites)),
        lambda: _twirling.twirl_schedule(schedule, mask, device, sites),
    )


def _require_direct(primitive, what: str) -> None:
    if primitive.mode != "direct":
        raise ValidationError(
            f"{what} needs a direct simulator target (mitigation folds "
            "exact post-readout distributions that only the local "
            "executor reports)"
        )


def _twirl_device(primitive):
    device = None if primitive.target is None else primitive.target.device
    if device is None:
        raise ValidationError(
            "twirling needs a device-backed target (the flip pulses come "
            "from the device's calibrated 'x' entries); executor-backed "
            "primitives compose 'readout' only"
        )
    return device


def _readout_models(primitive, options, result) -> list[ReadoutModel]:
    override = options.readout.models
    sites = result.measured_sites
    if override is not None:
        if len(override) != len(sites):
            raise ValidationError(
                f"{len(override)} readout-model overrides for "
                f"{len(sites)} measured sites"
            )
        return list(override)
    return [
        primitive._executor.readout.get(site, ReadoutModel()) for site in sites
    ]


def _point_families(primitive, pub) -> list[ScheduleFamily]:
    """The PUB's binding points as schedule families, in point order.

    The primitive's families, except that a family with amplitude or
    delay slots (which stretching and twirling cannot derive: stretching
    replaces a play whose amplitude is slotted, and a delay slot
    re-times the items a transform moves) runs its variants per point,
    as one-member families.
    """
    out: list[ScheduleFamily] = []
    for family in primitive._families(pub):
        if family.frame_only:
            out.append(family)
        else:
            out += [
                ScheduleFamily.repeated(family.member(k), 1) for k in range(len(family))
            ]
    return out


def _twirl_sites(schedule) -> list[int]:
    """The measured site of each slot of *schedule*, for twirling."""
    slots = _twirling.measured_slots(schedule)
    if not slots:
        raise ValidationError(
            "twirling needs measuring programs (the schedule captured nothing)"
        )
    return [site for _, site in slots]


def _group(plans, sources, derive) -> None:
    """Gather the variants of *plans* into their derived families.

    Every variant still names ``(source, key)`` and its source row;
    each distinct pair becomes ``sources[source].derive(derive(source,
    key), rows)`` over the rows that carry it, in first-use order, and
    each variant then names that family and its member.
    """
    rows: dict[tuple, list[int]] = {}
    for point in plans:
        for v in point:
            members = rows.setdefault(v.family, [])
            members.append(v.index)
            v.index = len(members) - 1
    families = {
        pair: sources[pair[0]].derive(derive(*pair), members)
        for pair, members in rows.items()
    }
    for point in plans:
        for v in point:
            v.family = families[v.family]


def _batch_order(plans) -> list[ScheduleFamily]:
    """The distinct families of *plans* in first-use order: the order
    they run in, one batch per PUB."""
    return list(dict.fromkeys(v.family for point in plans for v in point))


def _expand_pub(est, pub, options, rng, n_points) -> list[list[_Variant]]:
    """The variant grid of one Estimator PUB, per binding point.

    The points' source families are stretched per factor and twirled
    per distinct mask (in declared order), each variant once per source
    and calibration state (:data:`VARIANTS`); the variants sharing a
    (factor, mask) then run as members of one derived family. Masks are
    drawn per point, in point order.
    """
    stack = options.mitigation
    zne_opt = options.zne if "zne" in stack else None
    tw_opt = options.twirling if "twirling" in stack else None
    factors = zne_opt.stretch_factors if zne_opt is not None else (1.0,)
    zne_outer = (
        tw_opt is None
        or zne_opt is None
        or stack.index("zne") < stack.index("twirling")
    )
    constraints = (
        est.target.constraints if est.target is not None else None
    )
    device = _twirl_device(est) if tw_opt is not None else None
    sources = _point_families(est, pub)
    sites = [
        _twirl_sites(family.base) if tw_opt is not None else None
        for family in sources
    ]
    plans: list[list[_Variant]] = []
    for s, family in enumerate(sources):
        for row in range(len(family)):
            masks = (
                _twirling.twirl_masks(len(sites[s]), tw_opt, rng)
                if tw_opt is not None
                else [None]
            )
            grid = list(itertools.product(range(len(factors)), range(len(masks))))
            if not zne_outer:  # twirling declared first
                grid.sort(key=lambda pair: pair[1])
            plans.append(
                [
                    _Variant((s, (fi, masks[ri])), row, fi, ri, masks[ri])
                    for fi, ri in grid
                ]
            )

    stamp = _calibration_stamp(est)

    def derive(s, key):
        fi, mask = key
        factor = factors[fi]
        base = sources[s].base
        if zne_outer:
            base = _stretched(base, factor, constraints, stamp)
            return _twirled(base, mask, device, sites[s], stamp)
        base = _twirled(base, mask, device, sites[s], stamp)
        return _stretched(base, factor, constraints, stamp)

    _group(plans, sources, derive)
    return plans


def _qem_metadata(options, plans) -> dict[str, Any]:
    meta: dict[str, Any] = {
        "mitigation": list(options.mitigation),
        "overhead": options.overhead,
        "variants_per_point": len(plans[0]) if plans and plans[0] else 1,
    }
    if "zne" in options.mitigation:
        meta["stretch_factors"] = list(options.zne.stretch_factors)
        meta["extrapolation"] = options.zne.extrapolation
    if "twirling" in options.mitigation:
        meta["randomizations"] = options.twirling.num_randomizations
    return meta


def run_mitigated_estimator(est, pubs, *, timeout=None) -> PrimitiveResult:
    """Mitigated ``Estimator.run``: expand, batch-execute, fold."""
    options = est.options
    _require_direct(est, "mitigated estimation")
    rng = np.random.default_rng(est._seed if est._seed is not None else 0)
    stack = ",".join(options.mitigation) or "none"
    with span("qem.expand", pubs=len(pubs), stack=stack):
        all_plans = [
            _expand_pub(est, pub, options, rng, pub.bindings.size)
            for pub in pubs
        ]
    families = [_batch_order(plans) for plans in all_plans]
    REGISTRY.counter(
        "repro_qem_variants_total",
        "Circuit variants executed by the mitigation engine",
        {"primitive": "estimator"},
    ).inc(sum(len(f) for fams in families for f in fams))
    results = est._run_pubs(
        [(pub, 0) for pub in pubs], families=families, timeout=timeout
    )
    with span("qem.fold", pubs=len(pubs), stack=stack):
        pub_results = [
            _assemble_estimator(est, options, pub, plans, res)
            for (pub, plans), res in zip(zip(pubs, all_plans), results)
        ]
    return PrimitiveResult(
        pub_results,
        metadata={
            "dispatch": est.mode,
            "seed": est._seed,
            "qem": _qem_metadata(options, all_plans[0]),
        },
    )


def _variant_means(est, options, observables, plans, results):
    """``(means, variances)`` of every observable on every variant.

    *means* is ``(observables, points, factors, twirls)``; *variances*
    ``(observables, points)`` comes from each point's first variant.
    Per batch family: one confusion inversion of its ``(K, 2**m)``
    post-readout table, then per observable the twirl frame as a
    gather of its outcome values and one product with the table.
    """
    n_points = len(plans)
    n_factors = 1 + max((v.factor_index for v in plans[0]), default=0)
    n_twirls = len(plans[0]) // n_factors
    means = np.empty((len(observables), n_points, n_factors, n_twirls))
    variances = np.zeros((len(observables), n_points))
    members: dict[Any, list[tuple[int, _Variant]]] = {}
    for b, point in enumerate(plans):
        for v in point:
            members.setdefault(v.family, []).append((b, v))
    confusions: dict[tuple[int, ...], np.ndarray] = {}
    for family, outcome in zip(_batch_order(plans), results.families):
        m = len(outcome.measured_sites)
        if not m:
            raise ValidationError(
                "mitigated evaluation needs measuring programs (the schedule "
                "captured nothing)"
            )
        table = outcome.probabilities
        if "readout" in options.mitigation:
            sites = outcome.measured_sites
            if sites not in confusions:
                confusions[sites] = joint_confusion(
                    _readout_models(est, options, outcome)
                )
            table = invert_readout(table, confusions[sites])
        # Members were numbered in point order, so this is row order.
        rows = members[family]
        mask = rows[0][1].mask or ()
        b = np.array([b for b, _ in rows])
        fi = np.array([v.factor_index for _, v in rows])
        ri = np.array([v.twirl_index for _, v in rows])
        first = (fi == 0) & (ri == 0)
        # The twirl frame: a flipped slot reads the other outcome.
        flip = sum(1 << (m - 1 - slot) for slot, bit in enumerate(mask) if bit)
        outcomes = np.arange(1 << m) ^ flip
        for o, observable in enumerate(observables):
            values = observable.outcome_values(m)[outcomes]
            mean = table @ values
            means[o, b, fi, ri] = mean
            if est.shots > 0 and first.any():
                sq = table[first] @ (values * values)
                variances[o, b[first]] = np.maximum(
                    0.0, sq - mean[first] * mean[first]
                )
    return means, variances


def _extrapolate(options, grid: np.ndarray) -> float:
    """The mitigated value of one point from its ``(factors, twirls)``
    grid of variant means."""
    stack = options.mitigation
    zne_opt = options.zne if "zne" in stack else None
    if zne_opt is None:
        return float(grid[0].mean())
    factors = zne_opt.stretch_factors
    if "twirling" not in stack or stack.index("zne") < stack.index("twirling"):
        # fold right-to-left: twirl-average within each factor, then
        # extrapolate the per-factor means to c = 0
        return extrapolate_to_zero(factors, grid.mean(axis=1), zne_opt.extrapolation)
    # twirling declared first: extrapolate within each randomization,
    # then average the extrapolated values
    return float(
        np.mean(
            [
                extrapolate_to_zero(factors, grid[:, ri], zne_opt.extrapolation)
                for ri in range(grid.shape[1])
            ]
        )
    )


def _assemble_estimator(
    est, options, pub, plans, results: Sequence[Any]
) -> PubResult:
    shape = pub.shape
    size = pub.size
    bind_idx = pub.binding_indices().reshape(-1) if shape else None
    obs_idx = pub.observable_indices().reshape(-1) if shape else None
    observables = pub.observables.flat()
    for observable in observables:
        if not observable.is_diagonal:
            raise ValidationError(
                "mitigated estimation evaluates from measured outcome "
                "distributions; only diagonal (Z-basis) observables compose "
                "with the mitigation stack"
            )
    evs = np.empty(size, dtype=np.float64)
    variances = np.empty(size, dtype=np.float64)
    if plans:
        means, point_variances = _variant_means(
            est, options, observables, plans, results
        )
    memo: dict[tuple[int, int], float] = {}
    for flat in range(size):
        b = int(bind_idx[flat]) if bind_idx is not None else 0
        o = int(obs_idx[flat]) if obs_idx is not None else 0
        if (b, o) not in memo:
            memo[b, o] = _extrapolate(options, means[o, b])
        evs[flat] = memo[b, o]
        variances[flat] = point_variances[o, b]
    stds = (
        np.sqrt(variances / est.shots)
        if est.shots > 0
        else np.zeros(size, dtype=np.float64)
    )
    metadata: dict[str, Any] = {
        "shots": est.shots,
        "target": est._device_name(),
        "dispatch": est.mode,
        "qem": _qem_metadata(options, plans),
        **est._batch_profile(results),
    }
    return PubResult(
        DataBin(shape=shape, evs=evs.reshape(shape), stds=stds.reshape(shape)),
        metadata=metadata,
    )


# ---- sampler -------------------------------------------------------------------------


def _expand_sampler_pub(sampler, pub, options, rng):
    """Variant grid of one Sampler PUB: the raw base execution first
    (it keeps reporting ``counts``/``probabilities``), then the twirl
    randomizations the quasi-distribution folds over. The base
    variants run as their source family, each distinct mask as one
    twirled family."""
    tw_opt = options.twirling if "twirling" in options.mitigation else None
    device = _twirl_device(sampler) if tw_opt is not None else None
    sources = _point_families(sampler, pub)
    sites = [
        _twirl_sites(family.base) if tw_opt is not None else None
        for family in sources
    ]
    plans: list[list[_Variant]] = []
    for s, family in enumerate(sources):
        for row in range(len(family)):
            variants = [_Variant((s, None), row, 0, 0, None, is_base=True)]
            if tw_opt is not None:
                masks = _twirling.twirl_masks(len(sites[s]), tw_opt, rng)
                variants += [
                    _Variant((s, mask), row, 0, ri, mask)
                    for ri, mask in enumerate(masks)
                ]
            plans.append(variants)

    stamp = _calibration_stamp(sampler)

    def derive(s, mask):
        return _twirled(sources[s].base, mask, device, sites[s], stamp)

    _group(plans, sources, derive)
    return plans


def run_mitigated_sampler(sampler, specs, *, timeout=None) -> PrimitiveResult:
    """Mitigated ``Sampler.run``; *specs* is ``[(pub, shots), ...]``."""
    options = sampler.options
    _require_direct(sampler, "mitigated sampling")
    rng = np.random.default_rng(
        sampler._seed if sampler._seed is not None else 0
    )
    stack = ",".join(options.mitigation) or "none"
    with span("qem.expand", pubs=len(specs), stack=stack):
        all_plans = [
            _expand_sampler_pub(sampler, pub, options, rng)
            for pub, _ in specs
        ]
    families = [_batch_order(plans) for plans in all_plans]
    REGISTRY.counter(
        "repro_qem_variants_total",
        "Circuit variants executed by the mitigation engine",
        {"primitive": "sampler"},
    ).inc(sum(len(f) for fams in families for f in fams))
    results = sampler._run_pubs(specs, families=families, timeout=timeout)
    with span("qem.fold", pubs=len(specs), stack=stack):
        pub_results = [
            _assemble_sampler(sampler, options, pub, shots, plans, res)
            for ((pub, shots), plans), res in zip(
                zip(specs, all_plans), results
            )
        ]
    return PrimitiveResult(
        pub_results,
        metadata={
            "dispatch": sampler.mode,
            "seed": sampler._seed,
            "qem": _qem_metadata(options, all_plans[0]),
        },
    )


def _observed_tables(sampler, options, shots, outcomes, folded):
    """The fold input of every batch family in *folded*, as arrays.

    Returns ``({family: (K, 2**m) table}, {sites: condition number})``.
    A family's table is its normalized counts (its post-readout
    distribution when no shot was drawn), confusion-inverted once per
    family under ``"readout"``, with the condition number computed once
    per confusion matrix.
    """
    tables: dict[Any, np.ndarray] = {}
    conditions: dict[tuple[int, ...], float] = {}
    confusions: dict[tuple[int, ...], np.ndarray] = {}
    for family, outcome in outcomes.items():
        sites = outcome.measured_sites
        if family not in folded or not sites:
            continue
        if shots > 0 and outcome.counts is not None:
            table = np.zeros((len(outcome), 1 << len(sites)))
            for k, counts in enumerate(outcome.counts):
                for key, c in counts.items():
                    table[k, int(key, 2)] = c
            table /= table.sum(axis=1, keepdims=True)
        else:
            table = outcome.probabilities
        if "readout" in options.mitigation:
            if sites not in confusions:
                confusions[sites] = joint_confusion(
                    _readout_models(sampler, options, outcome)
                )
                conditions[sites] = float(np.linalg.cond(confusions[sites]))
            table = invert_readout(table, confusions[sites])
        tables[family] = table
    return tables, conditions


def _assemble_sampler(
    sampler, options, pub, shots, plans, results: Sequence[Any]
) -> PubResult:
    """Fold one Sampler PUB from its families' arrays.

    The raw base executions report ``counts``/``probabilities``; the
    quasi-distribution of a point averages its fold variants' tables
    (the twirl randomizations, or the base execution alone without
    twirling), each twirled row unflipped by the index gather
    ``row[outcome ^ flips]``.
    """
    shape = pub.shape
    twirling = "twirling" in options.mitigation
    outcomes = dict(zip(_batch_order(plans), results.families))
    folded = {v.family for point in plans for v in point if (not v.is_base) == twirling}
    tables, conditions = _observed_tables(sampler, options, shots, outcomes, folded)
    # Base families hold one member per point, in point order.
    base = [outcomes[f] for f in dict.fromkeys(point[0].family for point in plans)]
    counts, probabilities, noisy = sampler._member_dicts(base)
    quasi: list[dict] = []
    condition_numbers: list[float] = []
    for variants in plans:
        fold = [v for v in variants if v.family in folded]
        sites = outcomes[fold[0].family].measured_sites
        condition_numbers.append(conditions.get(sites, math.nan))
        m = len(sites)
        total = np.zeros(1 << m)
        for v in fold if m else ():
            row = tables[v.family][v.index]
            if v.mask is not None:
                flips = sum(1 << (m - 1 - s) for s, bit in enumerate(v.mask) if bit)
                row = row[np.arange(1 << m) ^ flips]
            total += row / len(fold)
        quasi.append(outcome_dict(total, m))
    fields: dict[str, Any] = {
        "counts": sampler._object_array(shape, counts),
        "quasi_dists": sampler._object_array(shape, quasi),
        "probabilities": sampler._object_array(shape, probabilities),
        "noisy_probabilities": sampler._object_array(shape, noisy),
        "leakage": sampler._leakage(base).reshape(shape),
    }
    if "readout" in options.mitigation:
        fields["condition_numbers"] = np.asarray(
            condition_numbers, dtype=np.float64
        ).reshape(shape)
    metadata: dict[str, Any] = {
        "shots": shots,
        "target": sampler._device_name(),
        "dispatch": sampler.mode,
        "mitigated": True,
        "qem": _qem_metadata(options, plans),
        **sampler._batch_profile(results),
    }
    return PubResult(DataBin(shape=shape, **fields), metadata=metadata)
