"""The JIT compiler: QDMI-informed compilation to the exchange format.

Reproduces the paper's pipeline (§5.5 "Consistency Across the Stack"):

1. accept a payload from an adapter — a gate-level ``quantum`` module,
   a ``pulse`` module (object or text), or a raw schedule;
2. query the target device over QDMI for its pulse constraints
   (challenge C3: "query relevant hardware constraints" during JIT
   compilation);
3. lower gates to pulses through the device's calibrations;
4. run the pulse pass pipeline — canonicalize, CSE, DCE, and the
   constraint legalization built from the queried constraints. A
   schedule payload that already meets the constraints, and that the
   pipeline would hand back unchanged, skips it: it is validated and
   used as is, and its pulse-MLIR module and pass report are built
   only when something reads them;
5. emit the executable schedule, and QIR with the Pulse Profile
   (challenge C4) when a consumer asks for it.

Compilations are cached in one memo per compiler: the cache key
combines the payload's stable fingerprint with the device name and its
current calibration state, so a re-calibrated device (new frame
frequencies) correctly invalidates old compilations — the behaviour
automated calibration (paper §2.1) depends on.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Any, Mapping

from repro.core.constraints import PulseConstraints
from repro.core.frame import Frame
from repro.core.instructions import (
    Barrier,
    Delay,
    Play,
    SetFrequency,
    SetPhase,
    ShiftFrequency,
    ShiftPhase,
)
from repro.core.schedule import PulseSchedule
from repro.errors import CompilationError, ConstraintError, ReproError
from repro.compiler.lowering import (
    mlir_pulse_to_schedule,
    quantum_module_to_schedule,
    schedule_to_pulse_module,
)
from repro.mlir.context import MLIRContext, default_context
from repro.obs.metrics import REGISTRY, CacheStats
from repro.obs.tracing import span
from repro.mlir.ir import Module, print_module
from repro.mlir.passes import (
    DeadWaveformEliminationPass,
    PassManager,
    PulseCanonicalizePass,
    PulseLegalizationPass,
    WaveformCSEPass,
)
from repro.mlir.passes.manager import PipelineReport
from repro.qdmi.properties import DeviceProperty
from repro.qir.emitter import schedule_to_qir


def _pulse_pipeline(
    schedule: PulseSchedule,
    constraints: PulseConstraints,
    context: MLIRContext,
) -> tuple[Module, PipelineReport]:
    """Lift *schedule* to pulse-MLIR and run the pass pipeline on it:
    canonicalize, CSE, DCE, and legalization against *constraints*."""
    module = schedule_to_pulse_module(schedule)
    report = (
        PassManager(context)
        .add(PulseCanonicalizePass())
        .add(WaveformCSEPass())
        .add(DeadWaveformEliminationPass())
        .add(PulseLegalizationPass(constraints))
        .run(module)
    )
    return module, report


def _pipeline_keeps(
    schedule: PulseSchedule, constraints: PulseConstraints, device: Any
) -> bool:
    """True when the pass pipeline would hand *schedule* back unchanged.

    Call it only on a schedule that passed ``validate_schedule``:
    legalization then has nothing to pad, align or reject. What is
    left is what the passes and the lift/interpret round trip rewrite:

    * a parametric envelope the device must receive as samples;
    * a zero-delta shift, or a ``set_frequency`` directly followed by a
      ``set_phase``/``set_frequency`` on its mixed frame (canonicalize
      drops or fuses them);
    * a delay that outlasts every event (the lift keeps only the
      delays that pin an event's start time);
    * two frames sharing one (port, name) pair, or a port the device
      does not resolve to itself (the interpreter rebinds both by name).
    """
    try:
        if any(device.port(p.name) != p for p in schedule.ports()):
            return False
    except ReproError:
        return False
    frames: dict[tuple[str, str], Frame] = {}
    last_event_end = 0
    delay_end = 0
    previous = None
    for item in schedule.ordered():
        ins = item.instruction
        if isinstance(ins, Delay):
            delay_end = max(delay_end, item.t1)
            continue
        if isinstance(ins, Barrier):
            continue
        last_event_end = max(last_event_end, item.t1)
        if isinstance(ins, Play) and constraints.requires_sampling(ins.waveform):
            return False
        if isinstance(ins, (ShiftPhase, ShiftFrequency)) and ins.delta == 0.0:
            return False
        if (
            isinstance(previous, SetFrequency)
            and isinstance(ins, (SetPhase, SetFrequency))
            and (previous.port, previous.frame) == (ins.port, ins.frame)
        ):
            return False
        frame = getattr(ins, "frame", None)
        if frame is not None:
            known = frames.setdefault((ins.port.name, frame.name), frame)
            if known != frame:
                return False
        previous = ins
    return delay_end <= last_event_end


@dataclass
class CompiledProgram:
    """Output of one JIT compilation.

    :attr:`schedule` is the legal program the device executes. The
    other views of it are built on first access and then cached:

    * :attr:`qir` — QIR with the Pulse Profile; only remote dispatch
      and QIR size accounting read it;
    * :attr:`pulse_module` and :attr:`pass_report` — the schedule as a
      pulse-MLIR module after the pass pipeline, and that run's report.
      A compile that ran the pipeline keeps both from that run; an
      artifact built from an already legal schedule (a schedule payload
      the pipeline would not change, a bound schedule template) lifts
      its schedule and runs the pipeline when one of them is first
      read. Nothing on the execution path reads either.

    Build one with :meth:`from_schedule`.
    """

    device_name: str
    schedule: PulseSchedule
    compile_time_s: float
    #: The device constraints the schedule was compiled against.
    constraints: PulseConstraints = field(repr=False, compare=False)
    cache_hit: bool = False
    metadata: dict = field(default_factory=dict)
    _context: MLIRContext | None = field(default=None, repr=False, compare=False)
    _lowered: tuple[Module, PipelineReport] | None = field(
        default=None, repr=False, compare=False
    )
    _qir: str | None = field(default=None, repr=False, compare=False)

    @classmethod
    def from_schedule(
        cls,
        device_name: str,
        schedule: PulseSchedule,
        constraints: PulseConstraints,
        *,
        started: float,
        context: MLIRContext | None = None,
        lowered: tuple[Module, PipelineReport] | None = None,
        **metadata: Any,
    ) -> "CompiledProgram":
        """The artifact of *schedule*, which meets *constraints*.

        *started* is the ``time.perf_counter()`` reading the compile
        began at; *lowered* is the ``(module, report)`` of a pipeline
        run that produced *schedule*, when there was one. *metadata*
        extends the ``granularity``/``dt`` entries every artifact
        carries.
        """
        return cls(
            device_name=device_name,
            schedule=schedule,
            compile_time_s=time.perf_counter() - started,
            metadata={
                "granularity": constraints.granularity,
                "dt": constraints.dt,
                **metadata,
            },
            constraints=constraints,
            _context=context,
            _lowered=lowered,
        )

    @property
    def pulse_module(self) -> Module:
        """The schedule as pulse-MLIR after the pass pipeline (lazy)."""
        return self._lower()[0]

    @property
    def pass_report(self) -> PipelineReport:
        """The report of the pipeline run behind :attr:`pulse_module`."""
        return self._lower()[1]

    def _lower(self) -> tuple[Module, PipelineReport]:
        if self._lowered is None:
            self._lowered = _pulse_pipeline(
                self.schedule,
                self.constraints,
                self._context or default_context(),
            )
        return self._lowered

    @property
    def qir(self) -> str:
        """The schedule as QIR with the Pulse Profile (emitted lazily)."""
        if self._qir is None:
            self._qir = schedule_to_qir(self.schedule)
        return self._qir

    @property
    def duration_samples(self) -> int:
        return self.schedule.duration


class JITCompiler:
    """Compiles adapter payloads for a concrete QDMI device.

    The memo is the stack's one compile cache: direct executables,
    ``MQSSClient.compile_request`` and the serving workers all share
    their client's compiler, so a program compiled on one path is a
    hit on the others.  It is a bounded LRU: parameter-binding hot
    loops (``Executable.bind`` with a fresh point per iteration) and
    long scalar-argument sweeps insert one artifact per distinct
    binding, so an unbounded dict would grow for the life of the
    process.  The memo is thread-safe, and cold compiles are
    serialized: the MLIR context and pass pipeline are shared mutable
    state, so a thread that waited for another's compile of the same
    key gets that artifact as a hit.  ``stats`` counts ``hits``,
    ``misses`` (cold compiles) and ``evictions``.
    """

    def __init__(
        self,
        context: MLIRContext | None = None,
        *,
        max_cache_entries: int = 512,
    ) -> None:
        if max_cache_entries < 1:
            raise CompilationError(
                f"max_cache_entries must be >= 1, got {max_cache_entries}"
            )
        self.context = context if context is not None else default_context()
        self.max_cache_entries = max_cache_entries
        self._cache: OrderedDict[str, CompiledProgram] = OrderedDict()
        self._lock = threading.Lock()
        self._compile_lock = threading.Lock()
        self.stats = CacheStats(
            lambda: len(self._cache),
            lambda: self.max_cache_entries,
            hits=0,
            misses=0,
            evictions=0,
        )
        REGISTRY.register_cache(
            REGISTRY.autoname("jit"), self, kind="jit-artifact"
        )

    # ---- cache keys ---------------------------------------------------------------

    def payload_fingerprint(
        self, payload: Any, scalar_args: Mapping | None = None
    ) -> str:
        """Stable content hash of a payload (+ bound scalar arguments).

        Device-independent half of :meth:`cache_key`; the serving
        layer's request coalescing also keys on it.
        """
        if isinstance(payload, PulseSchedule):
            base = payload.fingerprint()
        elif isinstance(payload, Module):
            base = hashlib.sha256(print_module(payload).encode()).hexdigest()[:16]
        elif isinstance(payload, str):
            base = hashlib.sha256(payload.encode()).hexdigest()[:16]
        else:
            raise CompilationError(
                f"unsupported payload type {type(payload).__name__}"
            )
        if scalar_args:
            base += self._scalar_suffix(scalar_args)
        return base

    @staticmethod
    def _scalar_suffix(scalar_args: Mapping) -> str:
        extra = repr(sorted(scalar_args.items()))
        return hashlib.sha256(extra.encode()).hexdigest()[:8]

    def device_state_key(self, device: Any) -> str:
        """Device identity + calibration state.

        Recalibration changes the key, so stale compilations are never
        served after a calibration: the believed frequencies cover
        frame write-backs directly, and the device's
        ``calibration_epoch`` (bumped by *every* write-back, including
        DRAG-beta and readout refreshes that move no frequency) covers
        the rest. Devices without an epoch counter — remote proxies,
        external backends — degrade to the frequency-only key.
        """
        freqs = tuple(
            round(device.believed_frequency(s), 3)
            for s in range(device.config.num_sites)
        )
        epoch = getattr(device, "calibration_epoch", 0)
        digest = hashlib.sha256(repr((epoch, freqs)).encode()).hexdigest()[:8]
        return f"{device.name}:{digest}"

    def cache_key(
        self,
        payload: Any,
        device: Any,
        scalar_args: Mapping | None = None,
    ) -> str:
        """Content-addressed compilation key: payload x device state.

        The key of the compiler's memo; two requests with equal keys
        are guaranteed to compile to the same program. Compiled
        artifacts do not depend on the simulator's dtype policy, so it
        is not part of the key.
        """
        return self.compose_cache_key(
            self.payload_fingerprint(payload), device, scalar_args
        )

    def compose_cache_key(
        self,
        payload_fingerprint: str,
        device: Any,
        scalar_args: Mapping | None = None,
        *,
        state_key: str | None = None,
    ) -> str:
        """:meth:`cache_key` from a precomputed payload fingerprint.

        Hot loops (``Executable.bind``) fingerprint the payload once
        and recompose the key per parameter binding; the result is
        byte-identical to :meth:`cache_key` on the same inputs. A
        caller that has just read :meth:`device_state_key` for its own
        freshness check passes it as *state_key* instead of having it
        hashed again.
        """
        base = payload_fingerprint
        if scalar_args:
            base += self._scalar_suffix(scalar_args)
        if state_key is None:
            state_key = self.device_state_key(device)
        return f"{base}@{state_key}"

    # ---- compilation -----------------------------------------------------------------

    def compile(
        self,
        payload: Any,
        device: Any,
        *,
        scalar_args: Mapping[str, float] | None = None,
        key: str | None = None,
    ) -> CompiledProgram:
        """Compile *payload* for *device*; returns a CompiledProgram.

        Payload kinds: a gate-level MLIR module (``quantum.circuit``),
        a pulse MLIR module or its text, or a :class:`PulseSchedule`.
        A bound family batch is not a payload: it is checked and run
        as it stands (:func:`repro.api.core.compile_payload`).
        *key*, when given, must be the :meth:`cache_key` of the same
        inputs (``Executable`` composes it from its cached payload
        fingerprint).
        """
        if key is None:
            key = self.cache_key(payload, device, scalar_args)
        cached = self.lookup(key)
        if cached is not None:
            return cached
        with self._compile_lock:
            # Another thread may have compiled the same key while this
            # one waited on the lock.
            cached = self.lookup(key)
            if cached is not None:
                return cached
            with span("compile.jit", device=device.name):
                program = self._compile_cold(payload, device, scalar_args)
            self.store(key, program)
            return program

    def _compile_cold(
        self,
        payload: Any,
        device: Any,
        scalar_args: Mapping[str, float] | None,
    ) -> CompiledProgram:
        t0 = time.perf_counter()
        with self._lock:
            self.stats["misses"] += 1
        constraints = device.query_device_property(
            DeviceProperty.PULSE_CONSTRAINTS
        )

        # A schedule payload the pipeline would not change is the
        # compiled program as it stands (a copy: the caller's schedule
        # stays theirs to mutate).
        if isinstance(payload, PulseSchedule):
            try:
                constraints.validate_schedule(payload)
                legal = _pipeline_keeps(payload, constraints, device)
            except ConstraintError:
                legal = False
            if legal:
                return CompiledProgram.from_schedule(
                    device.name,
                    payload.copy(),
                    constraints,
                    started=t0,
                    context=self.context,
                )

        # 1-3. Front-end: get to a schedule, through the calibrations.
        schedule = self._to_schedule(payload, device, scalar_args)

        # 4. Pulse-level pass pipeline on the lifted module, informed by
        #    the constraints queried over QDMI.
        pulse_module, report = _pulse_pipeline(
            schedule, constraints, self.context
        )

        # Re-extract the (legalized) schedule and hard-check constraints.
        final_schedule = mlir_pulse_to_schedule(pulse_module, device)
        constraints.validate_schedule(final_schedule)

        # 5. Exchange format: emitted on first use (CompiledProgram.qir).
        return CompiledProgram.from_schedule(
            device.name,
            final_schedule,
            constraints,
            started=t0,
            context=self.context,
            lowered=(pulse_module, report),
        )

    def _to_schedule(
        self, payload: Any, device: Any, scalar_args: Mapping | None
    ) -> PulseSchedule:
        if isinstance(payload, PulseSchedule):
            return payload
        if isinstance(payload, Module):
            dialects = payload.dialects_used()
            if "quantum" in dialects and "pulse" not in dialects:
                return quantum_module_to_schedule(payload, device)
            return mlir_pulse_to_schedule(payload, device, scalar_args)
        if isinstance(payload, str):
            return mlir_pulse_to_schedule(payload, device, scalar_args)
        raise CompilationError(
            f"unsupported payload type {type(payload).__name__}"
        )

    # ---- cache surface ---------------------------------------------------------------

    def lookup(self, key: str) -> CompiledProgram | None:
        """The memoized program under *key* (marked as a hit); None on miss.

        Part of the public cache surface used by the unified execution
        API: misses are silent so callers can probe before deciding how
        to produce the artifact.
        """
        with self._lock:
            cached = self._cache.get(key)
            if cached is None:
                return None
            self._cache.move_to_end(key)
            self.stats["hits"] += 1
        return replace(cached, cache_hit=True, metadata=dict(cached.metadata))

    def store(self, key: str, program: CompiledProgram) -> None:
        """Remember *program* under *key* (bound-template artifacts use
        this to make revisited parameter points cache hits), evicting
        the least-recently-used entries beyond the memo bound."""
        with self._lock:
            self._cache[key] = program
            self._cache.move_to_end(key)
            while len(self._cache) > self.max_cache_entries:
                self._cache.popitem(last=False)
                self.stats["evictions"] += 1
