"""Executables: compiled, content-addressed, parameter-bindable artifacts.

The second phase of the two-phase API.  ``repro.compile(program,
target)`` produces an :class:`Executable`; the expensive work (adapter
normalization, JIT pipeline, constraint legalization, QIR emission)
happens once, and the hot-loop operations are cheap:

* :meth:`Executable.bind` — rebind scalar parameters, reusing the
  compiled template.  For parametric pulse programs the bind
  specializes a pre-compiled *schedule template* (clone + swap the
  scalar-fed instruction fields) instead of re-running the compiler,
  and the bound artifact is remembered under its
  :meth:`JITCompiler.cache_key <repro.compiler.jit.JITCompiler.cache_key>`
  so revisited parameter points are cache hits.  This is the
  FWDA-style amortization the paper's Listing-1 VQE loop needs:
  factorize once, solve per query.
* :meth:`Executable.bind_many` — bind a whole ``(K, P)`` sweep at once
  into a :class:`~repro.core.schedule.ScheduleFamily` (the template
  plus the value matrix) for the simulator to synthesize as arrays;
  :meth:`Executable.families` binds a PUB wherever the device is.
* :meth:`Executable.run` — execute and return a
  :class:`~repro.client.client.ClientResult`: service targets through
  the ticket queue, every other target through
  :meth:`MQSSClient.execute_compiled
  <repro.client.client.MQSSClient.execute_compiled>` (a local device
  target's client keeps one persistent session, so the QPI-parity
  path opens none per run).
* :meth:`Executable.run_async` / :meth:`Executable.sweep` — service
  fan-out over the same artifacts, one request per point.

The schedule-template trick is sound because the pulse dialect has no
scalar arithmetic: an ``f64`` block argument flows *verbatim* into
instruction fields (frame frequencies, phases, shift deltas, a
waveform's amplitude, a delay's length).  Binding therefore cannot
change instruction count or waveform shapes — only those fields, and
through a delay's length the start of the items after it — which the
template records by interpreting the sequence with distinct in-range
sentinel values and diffing the results (a third trace proves a delay
length moves later items as one idle insertion).
Anything that breaks the assumptions (multiple sequences, constraint
violations in the static structure, scalar-dependent divergence)
disables the fast path and binds fall back to the full compiler, so
the semantics never depend on the optimization.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from repro.api.core import adapter_payload, compile_payload
from repro.api.program import Program
from repro.api.target import Target
from repro.core.frame import Frame
from repro.core.instructions import Delay, Play
from repro.core.schedule import (
    DURATION,
    FRAME_EVENT_FIELDS,
    SCALE,
    FamilyBatch,
    IdleSlot,
    PulseSchedule,
    ScheduleFamily,
)
from repro.core.waveform import ScaledWaveform
from repro.errors import ReproError, ValidationError
from repro.obs.tracing import span

#: Instruction fields a pulse.sequence scalar argument can feed.
_SCALAR_FIELDS = ("frequency", "phase", "delta")


class _ScheduleTemplate:
    """A compiled schedule with recorded scalar-parameter slots.

    Slots are ``(item index, field, column)``, the column indexing
    *names* (the program's parameter order), so a ``(K, P)`` matrix of
    points binds as one :class:`~repro.core.schedule.ScheduleFamily`.
    The base holds neutral in-range values, so it is itself a legal
    schedule.

    *frames* lists ``(item index, offset)`` for each base item whose
    frame the device resolves (its port's default frame shifted by
    *offset* Hz): :meth:`refresh` writes the current calibration into
    them, so the template outlives a write-back that moves believed
    frequencies. It is ``None`` when a calibration placed a framed item
    (``pulse.standard_x``), whose frame the template cannot follow.
    """

    __slots__ = ("base", "names", "slots", "idle", "frames", "_state")

    def __init__(
        self,
        base: PulseSchedule,
        names: Sequence[str],
        slots: list[tuple[int, str, str]],
        idle: IdleSlot | None = None,
        frames: Sequence[tuple[int, float]] | None = (),
    ) -> None:
        self.base = base
        self.names = tuple(names)
        column = {name: j for j, name in enumerate(self.names)}
        self.slots = tuple((idx, fld, column[name]) for idx, fld, name in slots)
        self.idle = idle
        self.frames = None if frames is None else tuple(frames)
        self._state: str | None = None

    def refresh(self, device: Any, state: str | None) -> None:
        """Write *device*'s default frames, each shifted by its item's
        offset, into the base's device-resolved items: one pass over
        the items, once per calibration state key *state*."""
        if state == self._state:
            return
        items = list(self.base._items)
        defaults: dict[Any, Frame] = {}
        for idx, offset in self.frames or ():
            item = items[idx]
            ins = item.instruction
            default = defaults.get(ins.port)
            if default is None:
                default = defaults[ins.port] = device.default_frame(ins.port)
            frame = Frame(default.name, default.frequency + offset, default.phase)
            if frame != ins.frame:
                ins = dataclasses.replace(ins, frame=frame)
                items[idx] = dataclasses.replace(item, instruction=ins)
        self.base = self.base.clone_with_items(items)
        self._state = state

    @property
    def frequency_params(self) -> set[str]:
        """The parameters that land in carrier-frequency fields."""
        return {self.names[col] for _, fld, col in self.slots if fld == "frequency"}

    def family(self, values: np.ndarray) -> ScheduleFamily:
        """The ``(K, P)`` points *values* bound as one family."""
        return ScheduleFamily(self.base, self.slots, values, self.idle)

    def admits(self, values: np.ndarray, constraints: Any) -> bool:
        """Whether every point of *values* binds to a legal schedule.

        The base was validated when the template was traced, so this
        checks the value columns only, each once
        (:meth:`PulseConstraints.validate_family
        <repro.core.constraints.PulseConstraints.validate_family>`). A
        point this rejects takes the per-point compile, which raises
        its typed error.
        """
        try:
            constraints.validate_family(self.family(values), base=False)
        except ReproError:
            return False
        return True


def _row(template: _ScheduleTemplate, params: Mapping[str, float]) -> np.ndarray:
    """*params* as a one-point ``(1, P)`` value matrix."""
    return np.array([[float(params[name]) for name in template.names]])


def _parameter_kinds(module: Any, names: Sequence[str]) -> dict[str, str] | None:
    """What each scalar argument feeds: ``"scale"`` (a waveform's
    amplitude operand), ``"duration"`` (a delay's length operand) or
    ``"frame"`` (a frame-event scalar). ``None`` when one argument
    feeds two kinds."""
    from repro.mlir.ir import F64

    kinds: dict[str, str] = {}
    for seq in module.ops_of("pulse.sequence"):
        entry = seq.region().entry
        arg_names = seq.attr("pulse.args") or [a.name for a in entry.arguments]
        by_value = {
            arg: name
            for arg, name in zip(entry.arguments, arg_names)
            if arg.type == F64
        }
        for op in entry.operations:
            kind = {"pulse.waveform": SCALE, "pulse.delay": DURATION}.get(
                op.name, "frame"
            )
            for v in op.operands:
                name = by_value.get(v)
                if name is not None and kinds.setdefault(name, kind) != kind:
                    return None
    return {n: kinds.get(n, "frame") for n in names}


def _trace_args(
    names: Sequence[str], kinds: Mapping[str, str], trace: int, tau: float
) -> dict[str, float]:
    """Sentinel scalars of trace *trace* (0 or 1), each exactly
    representable, distinct per argument and across the two traces.

    Frame scalars are large and positive (a frequency field rejects
    negatives at construction, and the values must map back to
    names); amplitudes are small, so a traced waveform stays in range;
    the one delay length is *tau*, so no trace builds a long base.
    """
    out: dict[str, float] = {}
    for k, name in enumerate(names):
        kind = kinds[name]
        if kind == SCALE:
            out[name] = (k + 1) / (4096.0 if trace == 0 else 2048.0)
        elif kind == DURATION:
            out[name] = tau
        else:
            out[name] = (k + 1) * 1048576.0 + (0.5 if trace == 0 else 0.25)
    return out


def _idle_slot(
    column: int, traces: Sequence[PulseSchedule], taus: Sequence[int]
) -> IdleSlot | None:
    """The :class:`IdleSlot` of a delay column, or ``None`` when
    binding it is not an idle insertion.

    *traces* interpret the program at delay lengths *taus* = ``(0, T,
    T + g)``, with ``T`` past the zero-length schedule's duration. An
    item's start time is a max-plus expression of the length: convex,
    piecewise linear with integer slopes whose breakpoints lie below
    ``T``. So the slope over ``[T, T + g]`` is the final one, and a
    start that moved by exactly that slope times ``T`` from 0 is
    affine for every length. The slot is an insertion when every
    start has slope 0 or 1 and the schedule's duration slope 1, the items
    that stay end by the first one that moves (the cut), and at the
    cut a frame event that stays precedes, in insertion order, any
    on the same frame that moves.
    """
    a, b, c = traces
    span_b, span_c = taus[1] - taus[0], taus[2] - taus[1]

    def slope(ta: int, tb: int, tc: int) -> int | None:
        s, rem = divmod(tc - tb, span_c)
        if rem or s not in (0, 1) or tb - ta != s * span_b:
            return None
        return s

    # The slotted delay itself ends past every length-0 item, so an
    # insertion always grows the schedule by the inserted length.
    if slope(a.duration, b.duration, c.duration) != 1:
        return None
    shifted = []
    for idx, (ia, ib, ic) in enumerate(zip(a._items, b._items, c._items)):
        s = slope(ia.t0, ib.t0, ic.t0)
        if s is None:
            return None
        if s:
            shifted.append(idx)
    items = a._items
    cut = min((items[i].t0 for i in shifted), default=a.duration)
    moving = set(shifted)
    staying_events: dict[tuple[str, str], int] = {}
    for idx, item in enumerate(items):
        if idx in moving:
            continue
        if item.t1 > cut:
            return None
        ins = item.instruction
        if item.t0 == cut and type(ins) in FRAME_EVENT_FIELDS:
            key = (ins.port.name, ins.frame.name)
            staying_events[key] = max(staying_events.get(key, -1), item.seq)
    for idx in shifted:
        item, ins = items[idx], items[idx].instruction
        if item.t0 == cut and type(ins) in FRAME_EVENT_FIELDS:
            if item.seq < staying_events.get((ins.port.name, ins.frame.name), -1):
                return None
    return IdleSlot(column=column, cut=cut, shifted=frozenset(shifted))


def _build_template(
    program: Program, device: Any, constraints: Any
) -> _ScheduleTemplate | None:
    """Trace *program*'s pulse module into a bindable schedule template.

    Returns ``None`` whenever any assumption fails — callers then bind
    through the full compiler instead.
    """
    module = program.module
    names = program.parameters
    if module is None or not names:
        return None
    try:
        from repro.mlir.interp import module_to_schedule

        kinds = _parameter_kinds(module, names)
        if kinds is None:
            return None
        delays = [n for n in names if kinds[n] == DURATION]
        if len(delays) > 1:
            return None
        trace_a = _trace_args(names, kinds, 0, 0.0)
        resolved: list[tuple[int, float | None]] = []
        sched_a = module_to_schedule(module, device, trace_a, resolved=resolved)
        taus = [0]
        if delays:
            g = constraints.granularity
            taus = [0, (sched_a.duration // g + 1) * g]
            taus.append(taus[1] + g)
        traces = [sched_a] + [
            module_to_schedule(
                module, device, _trace_args(names, kinds, 1, float(tau))
            )
            for tau in taus[1:] or [0]
        ]
        sched_b = traces[1]
        items_a, items_b = sched_a._items, sched_b._items
        if any(len(t._items) != len(items_a) for t in traces):
            return None
        by_value = {v: n for n, v in trace_a.items() if kinds[n] != DURATION}
        slots: list[tuple[int, str, str]] = []
        for idx, (ia, ib) in enumerate(zip(items_a, items_b)):
            ins_a, ins_b = ia.instruction, ib.instruction
            if type(ins_a) is not type(ins_b) or ia.seq != ib.seq:
                return None
            if not delays and ia.t0 != ib.t0:
                return None
            if isinstance(ins_a, Delay):
                if ins_a.duration_samples != ins_b.duration_samples:
                    slots.append((idx, DURATION, delays[0]))
                continue
            if isinstance(ins_a, Play):
                wa, wb = ins_a.waveform, ins_b.waveform
                if isinstance(wa, ScaledWaveform) and wa.scale != getattr(
                    wb, "scale", None
                ):
                    name = by_value.get(wa.scale)
                    if name is None:
                        return None
                    slots.append((idx, SCALE, name))
                continue
            for fld in _SCALAR_FIELDS:
                va = getattr(ins_a, fld, None)
                if va is None:
                    continue
                if va != getattr(ins_b, fld):
                    name = by_value.get(va)
                    if name is None:  # value was transformed: bail out
                        return None
                    slots.append((idx, fld, name))
        if not slots:
            return None
        idle = None
        if delays:
            idle = _idle_slot(names.index(delays[0]), traces, taus)
            if idle is None:
                return None
        frames = None if any(o is None for _, o in resolved) else resolved
        template = _ScheduleTemplate(sched_a, names, slots, idle, frames)
        # Validate the *static* structure once (timing grid, waveform
        # durations/amplitudes) with neutral, in-range scalar values,
        # which the template then keeps as its base; a failure means
        # legalization has real work to do, so the fast path stays off
        # and binds run the full pipeline.
        mid_freq = 0.5 * (constraints.min_frequency + constraints.max_frequency)
        neutral = {
            n: (mid_freq if n in template.frequency_params else 0.0)
            for n in names
        }
        row = _row(template, neutral)
        template.base = template.family(row).bound(row[0])
        constraints.validate_schedule(template.base)
        return template
    except ReproError:
        return None


class Executable:
    """A compiled program pinned to one target, ready to bind and run."""

    def __init__(
        self,
        program: Program,
        target: Target,
        *,
        params: Mapping[str, float] | None = None,
    ) -> None:
        self.program = program
        self.target = target
        # Coerce to float exactly like bind() does, so compile-time and
        # bind-time keys for the same logical point agree (1 vs 1.0).
        self.params: dict[str, float] = {
            str(k): float(v) for k, v in dict(params or {}).items()
        }
        self.compiled: Any | None = None
        self._payload: Any = None
        self._payload_fp: str | None = None
        self._template: _ScheduleTemplate | None | bool = None
        self._timings: dict[str, float] = {}
        #: Calibration state key and structure generation the
        #: payload/template/artifact were built against.
        self._state_key: str | None = None
        self._generation: int | None = None

    # ---- construction ----------------------------------------------------------------

    @classmethod
    def prepare(
        cls,
        program: Program,
        target: Target,
        *,
        params: Mapping[str, float] | None = None,
    ) -> "Executable":
        """Adapter-normalize *program* for *target* (no compilation yet).

        Detached service targets skip local normalization — the raw
        program travels with the request and the serving side runs the
        adapter + compile pipeline.
        """
        executable = cls(program, target, params=params)
        if not target.is_detached:
            executable._refresh_if_recalibrated()
            executable._ensure_payload()
        return executable

    def compile(self) -> "Executable":
        """Run the compile phase now (idempotent); returns ``self``.

        A parametric program with incomplete bindings compiles its
        schedule template instead of a concrete artifact; the artifact
        materializes at the first :meth:`bind`.  Detached service
        targets (cluster/HTTP) compile service-side, so this is a
        no-op for them.
        """
        if self.target.is_detached:
            return self
        if self.is_bound:
            self._ensure_compiled()
        else:
            self._refresh_if_recalibrated()
            self._ensure_payload()
            self._ensure_template()
        return self

    # ---- internal plumbing -----------------------------------------------------------

    def _refresh_if_recalibrated(self) -> str | None:
        """Drop what a calibration write-back made stale.

        The compiled artifact bakes in the calibration state key (the
        key that namespaces the compile cache), so any write-back drops
        it. A schedule template survives a write-back that moves only
        believed frequencies or readout confusion: the next bind writes
        the new frames into it (:meth:`_ScheduleTemplate.refresh`). It
        is retraced when the calibration structure changes
        (:attr:`CalibrationSet.generation
        <repro.devices.calibrations.CalibrationSet.generation>`, e.g. a
        DRAG-beta write-back reshapes a waveform) or when it cannot
        follow frames (:attr:`_ScheduleTemplate.frames` is ``None``).
        An adapter payload lowered against the device is rebuilt; a
        passthrough payload (pulse IR, a schedule) is the program.

        Returns the current state key (``None`` for detached targets).
        Each entry point checks once and hands the key down, so the
        internal steps, including the compile-cache key, never hash the
        calibration state again.
        """
        if self.target.is_detached:
            return None  # no local calibration view; service-side cache rules
        device = self.target.compile_device
        state = self.target.compiler.device_state_key(device)
        generation = getattr(getattr(device, "calibrations", None), "generation", 0)
        if self._state_key is not None and (state, generation) != (
            self._state_key,
            self._generation,
        ):
            self.compiled = None
            restructured = generation != self._generation
            if restructured or self._payload is not self.program.source:
                self._payload = None
                self._payload_fp = None
            if restructured or not self._template or self._template.frames is None:
                self._template = None
        self._state_key = state
        self._generation = generation
        return state

    def _ensure_payload(self) -> Any:
        """The adapter payload (callers check freshness first)."""
        if self._payload is None:
            self._payload = adapter_payload(
                self.target.client,
                self.program.source,
                self.target.compile_device,
                adapter=self.program.adapter,
                timings=self._timings,
            )
        return self._payload

    def _payload_fingerprint(self) -> str:
        if self._payload_fp is None:
            self._payload_fp = self.target.compiler.payload_fingerprint(
                self._ensure_payload()
            )
        return self._payload_fp

    def _ensure_template(self) -> "_ScheduleTemplate | None":
        if self._template is None:
            with span("template.trace", program=self.program.name) as sp:
                try:
                    constraints = self.target.constraints
                except ReproError:
                    constraints = None
                template = (
                    _build_template(
                        self.program, self.target.compile_device, constraints
                    )
                    if constraints is not None
                    else None
                )
                sp.annotate(templated=template is not None)
            self._template = template if template is not None else False
        return self._template or None

    def _cache_key(self, state: str | None) -> str:
        return self.target.compiler.compose_cache_key(
            self._payload_fingerprint(),
            self.target.compile_device,
            self.params or None,
            state_key=state,
        )

    def _ensure_compiled(self, state: str | None = None) -> Any:
        """The full compile path (adapter payload -> JIT -> cache).

        *state* is the key a caller's freshness check just returned;
        without one, this checks freshness itself.
        """
        if state is None:
            state = self._refresh_if_recalibrated()
        if self.compiled is not None:
            return self.compiled
        self._ensure_payload()
        missing = set(self.program.parameters) - set(self.params)
        if missing:
            raise ValidationError(
                f"executable has unbound parameters {sorted(missing)}; "
                "call bind() before run()"
            )
        self.compiled = compile_payload(
            self.target.compiler,
            self._payload,
            self.target.compile_device,
            scalar_args=self.params or None,
            timings=self._timings,
            key=self._cache_key(state),
        )
        return self.compiled

    def _compile_bound(self, state: str | None) -> Any:
        """The bind-time compile: cache probe, then template, then JIT.

        *state* is the calibration state key the binding executable
        checked this bind against.
        """
        self._ensure_payload()
        compiler = self.target.compiler
        device = self.target.compile_device
        t0 = time.perf_counter()
        key = self._cache_key(state)
        with span("compile", bound=True) as sp:
            with span("cache.lookup", cache="artifact") as lsp:
                cached = compiler.lookup(key)
                lsp.annotate(hit=cached is not None)
            if cached is not None:
                self.compiled = cached
                self._timings["compile"] = time.perf_counter() - t0
                sp.annotate(path="cache-hit")
                return cached
            # The point bound through the template is legal by
            # construction, so it is an artifact the way a legal
            # schedule payload is in the JIT.
            schedule = self.specialize()
            if schedule is not None:
                from repro.compiler.jit import CompiledProgram

                compiled = CompiledProgram.from_schedule(
                    device.name,
                    schedule,
                    self.target.constraints,
                    started=t0,
                    context=compiler.context,
                    bound_template=True,
                    parameters=dict(self.params),
                )
                compiler.store(key, compiled)
                self.compiled = compiled
                self._timings["compile"] = time.perf_counter() - t0
                sp.annotate(path="template")
                return compiled
            sp.annotate(path="jit")
            return self._ensure_compiled(state)

    # ---- the two-phase hot loop ------------------------------------------------------

    def specialize(
        self, params: Mapping[str, float] | None = None
    ) -> PulseSchedule | None:
        """The bound schedule via the template fast path *only*.

        The one member of the family :meth:`bind_many` builds from the
        executable's bindings merged with *params*: no artifact, no
        cache write. Returns ``None`` whenever the fast path is
        unavailable (non-parametric program, no template, a rejected
        point, incomplete bindings); callers then fall back to
        :meth:`bind`, whose compile raises the typed error for such a
        point.
        """
        merged = dict(self.params)
        merged.update({str(k): float(v) for k, v in dict(params or {}).items()})
        names = self.program.parameters
        if set(names) - set(merged):
            return None
        family = self.bind_many(np.array([[merged[name] for name in names]]))
        return None if family is None else family.member(0)

    def bind_many(self, values: np.ndarray) -> ScheduleFamily | None:
        """A whole sweep bound through the template fast path at once.

        *values* holds one point per row, one column per program
        parameter in :attr:`Program.parameters
        <repro.api.program.Program.parameters>` order (what
        :meth:`BindingsArray.values
        <repro.primitives.pubs.BindingsArray.values>` gives). The
        result is one :class:`~repro.core.schedule.ScheduleFamily`: the
        template schedule, its slots and the ``(K, P)`` matrix — no
        per-point schedule. The checks :meth:`specialize` makes per
        point run once over the matrix: calibration freshness,
        finiteness, the carrier-frequency range of every frequency
        column, the peak amplitude of every amplitude column and the
        grid of every delay column (:meth:`_ScheduleTemplate.admits`).
        Returns ``None`` when the template is unavailable or
        any point fails a check; callers then bind point by point,
        which raises wherever it always did.
        """
        if not self.program.is_parametric or self.target.is_detached:
            return None
        state = self._refresh_if_recalibrated()
        self._ensure_payload()
        template = self._ensure_template()
        if template is None:
            return None
        template.refresh(self.target.compile_device, state)
        values = np.asarray(values, dtype=np.float64).reshape(
            -1, len(template.names)
        )
        if not template.admits(values, self.target.constraints):
            return None
        return template.family(values)

    def families(self, values: np.ndarray) -> list[ScheduleFamily]:
        """The ``(K, P)`` points *values* (columns in
        :attr:`Program.parameters <repro.api.program.Program.parameters>`
        order) bound as schedule families, wherever the device is.

        A parametric program is its one bound family (:meth:`bind_many`),
        one without parameters a slot-free family of K rows; points the
        template rejects bind one by one through :meth:`bind`, which
        raises a bad point's typed error.
        """
        values = np.asarray(values, dtype=np.float64)
        if not self.program.is_parametric:
            schedule = self._ensure_compiled().schedule
            return [ScheduleFamily.repeated(schedule, len(values))]
        with span("specialize", points=len(values)):
            family = self.bind_many(values)
            if family is not None:
                return [family]
            names = self.program.parameters
            return [
                ScheduleFamily.repeated(self.bind(dict(zip(names, row))).schedule, 1)
                for row in values.tolist()
            ]

    def bind(
        self, params: Mapping[str, float] | None = None, **kwargs: float
    ) -> "Executable":
        """A new executable with (re)bound scalar parameters.

        Merges over any existing bindings.  The returned executable
        shares this one's adapter payload, fingerprint, and schedule
        template, so the per-bind cost is a cache probe plus — at most
        — a template specialization; the full compiler only runs when
        the fast path is unavailable.
        """
        merged = dict(self.params)
        if params:
            merged.update({str(k): float(v) for k, v in dict(params).items()})
        if kwargs:
            merged.update({k: float(v) for k, v in kwargs.items()})
        if self.target.is_detached:
            # Bindings ride the request's scalar_args; the serving
            # side compiles (and caches) the bound point.
            return Executable(self.program, self.target, params=merged)
        state = self._refresh_if_recalibrated()
        self._ensure_payload()
        if self.program.is_parametric:
            self._ensure_template()  # built once, shared by every bind
        bound = Executable(self.program, self.target, params=merged)
        bound._payload = self._payload
        bound._payload_fp = self._payload_fp
        bound._template = self._template
        bound._timings = dict(self._timings)
        bound._state_key = self._state_key
        bound._generation = self._generation
        if bound.is_bound:
            bound._compile_bound(state)
        return bound

    def run(
        self,
        shots: int = 1024,
        *,
        seed: int | None = None,
        metadata: Mapping[str, Any] | None = None,
        timeout: float | None = None,
    ) -> Any:
        """Execute and return a :class:`~repro.client.client.ClientResult`.

        Service targets submit asynchronously and block on the ticket
        (bounded by *timeout*); everything else dispatches inline, so
        direct and client runs evolve under the caller's
        :func:`repro.sim.precision.use_dtype` scope.
        """
        with span(
            "run", device=self.target.device_name, shots=shots
        ):
            if self.target.is_async:
                ticket = self.run_async(
                    shots=shots, seed=seed, metadata=metadata
                )
                return ticket.result(timeout)
            compiled = self._ensure_compiled()
            request = self._as_request(shots, seed, metadata)
            with span("dispatch", mode="client"):
                return self.target.client.execute_compiled(
                    request, compiled, timings=dict(self._timings)
                )

    def run_async(
        self,
        shots: int = 1024,
        *,
        seed: int | None = None,
        metadata: Mapping[str, Any] | None = None,
        block: bool = True,
    ) -> Any:
        """Submit through the target's service; returns the JobTicket.

        The bound artifact is already in the compile cache of the
        service's client, so the worker's compile step is a cache hit.
        """
        service = self.target.service
        if service is None:
            raise ValidationError(
                "run_async needs a service target; build it with "
                "Target.from_service(service, device_name)"
            )
        if self.target.is_detached:
            # Cluster/HTTP transports compile on the serving side; the
            # request ships the raw program plus scalar bindings.
            if not self.is_bound:
                missing = sorted(
                    set(self.program.parameters) - set(self.params)
                )
                raise ValidationError(
                    f"executable has unbound parameters {missing}; "
                    "call bind() before run()"
                )
        else:
            self._ensure_compiled()
        from repro.serving.service import PulseService

        request = self._as_request(shots, seed, metadata)
        if isinstance(service, PulseService):
            # Only the in-process service applies backpressure; the
            # durable and connected transports admit without waiting.
            return service.submit(request, block=block)
        return service.submit(request)

    def sweep(
        self,
        grid: Iterable[Mapping[str, float]],
        *,
        shots: int = 1024,
        seed: int | None = None,
        metadata: Mapping[str, Any] | None = None,
        timeout: float | None = None,
    ) -> list[Any]:
        """Bind + run every parameter point; results in grid order.

        Each point binds through the template fast path (warming the
        shared compile cache) and is one request: on a service target,
        the points execute concurrently through the device queues; a
        detached (cluster/HTTP) target ships each point's bindings with
        the raw program and compiles on the service side. The
        primitives instead run a PUB as one family
        (:meth:`families`).
        """
        points: Sequence[Mapping[str, float]] = list(grid)
        bound = [self.bind(point) for point in points]
        if self.target.is_async:
            tickets = [
                b.run_async(shots=shots, seed=seed, metadata=metadata)
                for b in bound
            ]
            return [t.result(timeout) for t in tickets]
        return [
            b.run(shots=shots, seed=seed, metadata=metadata) for b in bound
        ]

    # ---- dispatch helpers ------------------------------------------------------------

    def _as_request(
        self,
        shots: int,
        seed: int | None,
        metadata: Mapping[str, Any] | None,
    ) -> Any:
        from repro.client.client import JobRequest

        return JobRequest(
            program=self.program.source,
            device=self.target.device_name,
            shots=shots,
            adapter=self.program.adapter,
            scalar_args=dict(self.params),
            seed=seed,
            metadata=dict(metadata or {}),
        )

    # ---- introspection ---------------------------------------------------------------

    @property
    def is_bound(self) -> bool:
        """Whether every declared parameter has a binding."""
        return not (set(self.program.parameters) - set(self.params))

    @property
    def cache_key(self) -> str:
        """The content-addressed key of this (bound) compilation."""
        state = self._refresh_if_recalibrated()
        self._ensure_payload()
        return self._cache_key(state)

    @property
    def schedule(self) -> PulseSchedule | None:
        """The compiled schedule, if the artifact is materialized."""
        return self.compiled.schedule if self.compiled is not None else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.compiled is not None:
            state = "compiled"
        elif not self.is_bound:
            state = "template"
        else:
            state = "prepared"
        return (
            f"Executable({self.program.name!r} @ {self.target.device_name!r}, "
            f"{state}, params={self.params})"
        )


class ProgramBatch:
    """A shot group's programs with their ``(K, P)`` value matrices
    (columns in :attr:`Program.parameters
    <repro.api.program.Program.parameters>` order), not yet bound: what
    a detached (cluster/HTTP) target's request carries. The serving
    side binds it where the device is (:meth:`bind`), into one
    :class:`~repro.core.schedule.FamilyBatch` run as one job.
    """

    def __init__(self, pubs: Iterable[tuple[Program, np.ndarray]]) -> None:
        self.pubs = tuple(pubs)

    def __len__(self) -> int:
        return sum(len(values) for _, values in self.pubs)

    def bind(self, client: Any, device_name: str) -> FamilyBatch:
        """Every program's points bound for a device of *client*."""
        target = Target.from_client(client, device_name)
        return FamilyBatch(
            family
            for program, values in self.pubs
            for family in Executable.prepare(program, target).families(values)
        )
