"""Pulse schedules: time-ordered containers of pulse instructions.

A :class:`PulseSchedule` is the common currency of the stack — the QPI
builder produces one, gate->pulse lowering produces one, the QIR linker
reconstructs one, devices execute one. Semantics:

* Time is measured in integer samples from schedule start.
* Each port is a serial resource: two timed instructions on the same
  port may not overlap.
* :meth:`append` schedules as-soon-as-possible *per port* (the ASAP
  policy used by the paper's Listing 1 builder API); :meth:`insert`
  places an instruction at an explicit time for compiler passes that
  re-schedule.
* Barriers synchronize the listed ports.

Schedules can be canonicalized and fingerprinted, which is how the
Listing 1 = Listing 2 = Listing 3 equivalence experiment (E1 in
DESIGN.md) asserts that three different front-end representations
denote the same physical program.
"""

from __future__ import annotations

import hashlib
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from repro.core.frame import Frame
from repro.core.instructions import (
    Barrier,
    Capture,
    Delay,
    FrameChange,
    Instruction,
    Play,
    SetFrequency,
    SetPhase,
    ShiftFrequency,
    ShiftPhase,
)
from repro.core.port import Port
from repro.core.waveform import ScaledWaveform
from repro.errors import ScheduleError


@dataclass(frozen=True, order=True)
class ScheduledInstruction:
    """An instruction placed at an absolute start time (samples)."""

    t0: int
    seq: int  # insertion order; breaks ties deterministically
    instruction: Instruction = None  # type: ignore[assignment]

    @property
    def t1(self) -> int:
        """End time (samples)."""
        return self.t0 + self.instruction.duration


class PulseSchedule:
    """A mutable, per-port-serialized sequence of pulse instructions."""

    def __init__(self, name: str = "schedule") -> None:
        self.name = name
        self._items: list[ScheduledInstruction] = []
        self._port_free: dict[Port, int] = {}
        self._seq = 0

    # ---- construction -------------------------------------------------------

    def append(self, instruction: Instruction) -> ScheduledInstruction:
        """Schedule *instruction* as soon as every port it touches is free.

        Virtual instructions (frame changes) are placed at the port's
        current free time and do not advance it. Barriers advance all
        listed ports to their common maximum.
        """
        ports = instruction.ports
        if not ports:
            raise ScheduleError(f"instruction {instruction!r} touches no ports")
        t0 = max(self._port_free.get(p, 0) for p in ports)
        return self._place(t0, instruction)

    def insert(self, t0: int, instruction: Instruction) -> ScheduledInstruction:
        """Place *instruction* at absolute time *t0* (samples).

        Overlap with an already-scheduled timed instruction on the same
        port is rejected; virtual instructions may share a time point.
        """
        if t0 < 0:
            raise ScheduleError(f"start time must be >= 0, got {t0}")
        if instruction.duration > 0:
            t1 = t0 + instruction.duration
            for item in self._items:
                if item.instruction.duration == 0:
                    continue
                if not set(item.instruction.ports) & set(instruction.ports):
                    continue
                if t0 < item.t1 and item.t0 < t1:
                    raise ScheduleError(
                        f"instruction at [{t0}, {t1}) overlaps existing "
                        f"[{item.t0}, {item.t1}) on a shared port"
                    )
        return self._place(t0, instruction)

    def _place(self, t0: int, instruction: Instruction) -> ScheduledInstruction:
        item = ScheduledInstruction(t0, self._seq, instruction)
        self._seq += 1
        self._items.append(item)
        end = t0 + instruction.duration
        for p in instruction.ports:
            self._port_free[p] = max(self._port_free.get(p, 0), end)
        return item

    def barrier(self, *ports: Port) -> ScheduledInstruction:
        """Append a barrier over *ports* (all known ports if empty)."""
        targets = tuple(ports) if ports else tuple(sorted(self._port_free))
        if not targets:
            raise ScheduleError("barrier on an empty schedule with no ports given")
        return self.append(Barrier(targets))

    # ---- composition --------------------------------------------------------

    def shifted(self, delta: int) -> "PulseSchedule":
        """A copy with every start time shifted by *delta* >= 0 samples."""
        if delta < 0:
            raise ScheduleError(f"shift must be >= 0, got {delta}")
        out = PulseSchedule(self.name)
        for item in self._items:
            out._place(item.t0 + delta, item.instruction)
        return out

    def then(self, other: "PulseSchedule") -> "PulseSchedule":
        """Sequential composition: *other* starts after this ends."""
        out = self.copy()
        offset = self.duration
        for item in other.ordered():
            out._place(item.t0 + offset, item.instruction)
        return out

    def union(self, other: "PulseSchedule") -> "PulseSchedule":
        """Parallel composition: overlay *other* at time 0.

        Raises :class:`ScheduleError` on port conflicts.
        """
        out = self.copy()
        for item in other.ordered():
            out.insert(item.t0, item.instruction)
        return out

    def copy(self) -> "PulseSchedule":
        """Deep-enough copy (instructions are immutable and shared)."""
        out = PulseSchedule(self.name)
        for item in self._items:
            out._place(item.t0, item.instruction)
        return out

    def clone_with_items(
        self, items: "list[ScheduledInstruction]"
    ) -> "PulseSchedule":
        """A structural copy carrying *items* in place of this
        schedule's own, preserving placement bookkeeping.

        The item list must be position-compatible (same ports, same
        times) — e.g. this schedule's items with some instructions
        swapped via :func:`dataclasses.replace`.  Used by the execution
        API's parameter-binding templates; kept next to the class so a
        new instance attribute cannot be silently missed by an external
        field-by-field copy.
        """
        out = PulseSchedule.__new__(PulseSchedule)
        out.name = self.name
        out._items = list(items)
        out._port_free = dict(self._port_free)
        out._seq = self._seq
        return out

    # ---- inspection ----------------------------------------------------------

    def ordered(self) -> list[ScheduledInstruction]:
        """Instructions sorted by (start time, insertion order)."""
        return sorted(self._items, key=lambda it: (it.t0, it.seq))

    def __iter__(self) -> Iterator[ScheduledInstruction]:
        return iter(self.ordered())

    def __len__(self) -> int:
        return len(self._items)

    @property
    def duration(self) -> int:
        """Total schedule length in samples."""
        return max((it.t1 for it in self._items), default=0)

    def ports(self) -> list[Port]:
        """Every port referenced, sorted by name."""
        seen: set[Port] = set()
        for item in self._items:
            seen.update(item.instruction.ports)
        return sorted(seen, key=lambda p: p.name)

    def frames(self) -> list[Frame]:
        """Every frame referenced, sorted by name."""
        seen: set[Frame] = set()
        for item in self._items:
            frame = getattr(item.instruction, "frame", None)
            if frame is not None:
                seen.add(frame)
        return sorted(seen, key=lambda f: f.name)

    def instructions_of(self, kind: type) -> list[ScheduledInstruction]:
        """All scheduled instructions of the given class."""
        return [it for it in self.ordered() if isinstance(it.instruction, kind)]

    # ---- canonicalization / equality ------------------------------------------

    def _instruction_key(self, ins: Instruction) -> tuple:
        """A stable, hashable description of one instruction."""
        if isinstance(ins, Play):
            return (
                "play",
                ins.port.name,
                *_frame_key(ins.frame),
                ins.waveform.fingerprint(),
            )
        if isinstance(ins, Delay):
            return ("delay", ins.port.name, ins.duration_samples)
        if isinstance(ins, Barrier):
            return ("barrier",) + tuple(sorted(p.name for p in ins.barrier_ports))
        if isinstance(ins, Capture):
            return (
                "capture",
                ins.port.name,
                *_frame_key(ins.frame),
                ins.memory_slot,
                ins.duration_samples,
            )
        if isinstance(ins, FrameChange):
            return (
                "frame_change",
                ins.port.name,
                ins.frame.name,
                round(ins.frequency, 9),
                round(ins.phase, 12),
            )
        if isinstance(ins, SetFrequency):
            return (
                "set_frequency",
                ins.port.name,
                ins.frame.name,
                round(ins.frequency, 9),
            )
        if isinstance(ins, ShiftFrequency):
            return (
                "shift_frequency",
                ins.port.name,
                ins.frame.name,
                round(ins.delta, 9),
            )
        if isinstance(ins, SetPhase):
            return ("set_phase", ins.port.name, ins.frame.name, round(ins.phase, 12))
        if isinstance(ins, ShiftPhase):
            return ("shift_phase", ins.port.name, ins.frame.name, round(ins.delta, 12))
        raise ScheduleError(f"cannot canonicalize instruction {ins!r}")

    def canonical_events(self) -> list[tuple[int, tuple]]:
        """The schedule as sorted ``(t0, instruction-key)`` events.

        Barriers are synchronization directives and delays are pure
        timing padding; once every event carries its absolute start
        time, neither adds information, so both are dropped from the
        canonical form. Two schedules with different barrier/delay
        structure but identical physical events at identical times are
        the same program.
        """
        events = [
            (it.t0, self._instruction_key(it.instruction))
            for it in self.ordered()
            if not isinstance(it.instruction, (Barrier, Delay))
        ]
        events.sort()
        return events

    def fingerprint(self) -> str:
        """Content hash of the canonical event list."""
        h = hashlib.sha256()
        for t0, key in self.canonical_events():
            h.update(repr((t0, key)).encode())
        return h.hexdigest()[:16]

    def equivalent_to(self, other: "PulseSchedule") -> bool:
        """True when both schedules denote the same physical program."""
        return self.canonical_events() == other.canonical_events()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PulseSchedule({self.name!r}, n={len(self._items)}, "
            f"duration={self.duration}, ports={len(self.ports())})"
        )


def _frame_key(frame: Frame) -> tuple:
    """A frame as an instruction key part: name, frequency and phase,
    rounded the way a ``FrameChange`` key rounds them."""
    return (frame.name, round(frame.frequency, 9), round(frame.phase, 12))


#: The scalar fields of each frame-event type: the fields in which the
#: members of a :class:`ScheduleFamily` may differ, besides a ``Play``'s
#: amplitude (:data:`SCALE`) and a ``Delay``'s length (:data:`DURATION`).
FRAME_EVENT_FIELDS: dict[type, tuple[str, ...]] = {
    SetFrequency: ("frequency",),
    ShiftFrequency: ("delta",),
    SetPhase: ("phase",),
    ShiftPhase: ("delta",),
    FrameChange: ("frequency", "phase"),
}

#: Slot field of a ``Play`` whose waveform is a
#: :class:`~repro.core.waveform.ScaledWaveform`: the member's scale.
SCALE = "scale"
#: Slot field of a ``Delay``: the member's length in samples.
DURATION = "duration"


@dataclass(frozen=True)
class IdleSlot:
    """How a family's delay column moves its schedule in time.

    The base holds the slotted delays at length 0. Binding a length
    ``tau_k`` to them is the same as inserting ``tau_k`` idle samples
    into the base at sample :attr:`cut`: every item the base starts
    before the cut keeps its time (and ends by the cut), every item in
    :attr:`shifted` starts ``tau_k`` later, and nothing plays in
    between. The template that records the slot proves this holds for
    every length (see :func:`repro.api.executable._idle_slot`).
    """

    #: The duration column of the family's value matrix.
    column: int
    #: Base sample at which members insert their extra idle samples.
    cut: int
    #: Base item indices that start later by the inserted length.
    shifted: frozenset[int]

    def extra(self, values: np.ndarray) -> np.ndarray:
        """The ``(K,)`` idle samples each member inserts at the cut."""
        return values[:, self.column].astype(np.int64)


class ScheduleFamily(Sequence):
    """K one-point schedules of one template, held as a value matrix.

    *base* is the template schedule. Each slot ``(item index, field,
    column)`` says that the field of ``base``'s item at that index
    takes ``values[k, column]`` in member ``k``; everything else is
    ``base``'s (the same timing, waveforms and ``Play`` objects). A
    field is a frame-event scalar (:data:`FRAME_EVENT_FIELDS`), a
    ``Play``'s amplitude (:data:`SCALE`) or a ``Delay``'s length
    (:data:`DURATION`, with *idle* saying how the members' later items
    shift). This is what binding a parameter sweep produces: the pulse
    dialect has no scalar arithmetic, so a parameter lands verbatim in
    one of these fields. A consumer that reads the slots (the
    simulator's drive synthesis) never needs the K schedules;
    :meth:`member` builds one when something asks for it.
    """

    __slots__ = ("base", "slots", "values", "idle", "_by_index")

    def __init__(
        self,
        base: PulseSchedule,
        slots: Iterable[tuple[int, str, int]],
        values: np.ndarray,
        idle: IdleSlot | None = None,
    ) -> None:
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2:
            raise ScheduleError(
                f"family values must be a (K, P) matrix, got shape {values.shape}"
            )
        self.base = base
        self.slots = tuple((int(i), str(f), int(c)) for i, f, c in slots)
        self.values = values
        durations = {c for _, f, c in self.slots if f == DURATION}
        if (idle is None) != (not durations) or (
            idle is not None and durations != {idle.column}
        ):
            raise ScheduleError(
                "a family's delay slots need one duration column and its "
                "IdleSlot"
            )
        self.idle = idle
        grouped: dict[int, list[tuple[str, int]]] = {}
        for idx, fld, col in self.slots:
            grouped.setdefault(idx, []).append((fld, col))
        self._by_index = tuple(
            (idx, tuple(pairs)) for idx, pairs in sorted(grouped.items())
        )

    @property
    def frame_only(self) -> bool:
        """Whether members differ in frame-event scalars only (no
        amplitude or delay slot)."""
        return all(f not in (SCALE, DURATION) for _, f, _ in self.slots)

    @classmethod
    def repeated(cls, schedule: PulseSchedule, rows: int) -> "ScheduleFamily":
        """*schedule* as a slot-free family of *rows* equal members."""
        return cls(schedule, (), np.zeros((rows, 0)))

    @classmethod
    def gather(cls, members: Sequence[PulseSchedule]) -> "ScheduleFamily":
        """The family of *members*, structural clones of ``members[0]``.

        Every frame-event position where some member carries its own
        item becomes a slot per field, and the column holds each
        member's value. The caller guarantees the clone structure (the
        simulator checks it with ``ScheduleExecutor._is_clone``).
        """
        base = members[0]
        slots: list[tuple[int, str, int]] = []
        columns: list[list[float]] = []
        others = members[1:]
        for pos, item0 in enumerate(base._items if others else ()):
            if all(s._items[pos] is item0 for s in others):
                continue
            for fld in FRAME_EVENT_FIELDS[type(item0.instruction)]:
                slots.append((pos, fld, len(columns)))
                columns.append(
                    [getattr(s._items[pos].instruction, fld) for s in members]
                )
        values = np.array(columns, dtype=np.float64).T.reshape(
            len(members), len(columns)
        )
        return cls(base, slots, values)

    def derive(
        self, schedule: PulseSchedule, rows: Sequence[int] | None = None
    ) -> "ScheduleFamily":
        """The family over *schedule*, a transform of :attr:`base`.

        A transform that re-inserts every slotted instruction object
        unchanged and never reads a frame scalar (pulse stretching,
        measurement twirling) commutes with binding: each slot follows
        its instruction object to its position in *schedule*, and the
        values stay. *rows* keeps only those members. A family with
        delay slots does not derive: a transform re-times the items
        its :class:`IdleSlot` names.
        """
        if self.idle is not None:
            raise ScheduleError("a family with delay slots cannot be derived")
        where: dict[int, list[int]] = {}
        for pos, item in enumerate(schedule._items):
            where.setdefault(id(item.instruction), []).append(pos)
        slots = []
        for idx, fld, col in self.slots:
            found = where.get(id(self.base._items[idx].instruction), [])
            if len(found) != 1:
                raise ScheduleError(
                    f"slotted item {idx} occurs {len(found)} times in the "
                    "derived schedule"
                )
            slots.append((found[0], fld, col))
        values = self.values if rows is None else self.values[np.asarray(rows)]
        return ScheduleFamily(schedule, slots, values)

    def __len__(self) -> int:
        return self.values.shape[0]

    def __getitem__(self, k: int) -> PulseSchedule:  # type: ignore[override]
        return self.member(k)

    def member(self, k: int) -> PulseSchedule:
        """Member *k* as a schedule: ``base`` with its slots swapped.

        The slotted (frozen dataclass) items are shallow-copied
        field-for-field instead of going through
        :func:`dataclasses.replace`, whose per-call field introspection
        dominated sweep-sized binds; the values are trusted (binders
        check finiteness and ranges first). An amplitude slot scales
        the base waveform's shape; a delay slot sets the delay's
        length and starts the items the :class:`IdleSlot` names later.
        """
        return self.bound(self.values[operator.index(k)])

    def bound(self, row: np.ndarray) -> PulseSchedule:
        """The base with its slots bound from one value *row* (what
        :meth:`member` builds for ``values[k]``; a template binds its
        own base through it)."""
        base = self.base
        items = list(base._items)
        for idx, pairs in self._by_index:
            item = items[idx]
            ins = item.instruction
            new_ins = object.__new__(type(ins))
            new_ins.__dict__.update(ins.__dict__)
            for fld, col in pairs:
                if fld == SCALE:
                    new_ins.__dict__["waveform"] = ScaledWaveform(
                        ins.waveform.base, float(row[col])
                    )
                elif fld == DURATION:
                    new_ins.__dict__["duration_samples"] = int(row[col])
                else:
                    new_ins.__dict__[fld] = float(row[col])
            items[idx] = _moved(item, new_ins, item.t0)
        if self.idle is None:
            return base.clone_with_items(items)
        shift = int(self.idle.extra(row[None, :])[0])
        if shift:
            for idx in self.idle.shifted:
                item = items[idx]
                items[idx] = _moved(item, item.instruction, item.t0 + shift)
        out = base.clone_with_items(items)
        out._port_free = {}
        for item in items:
            for p in item.instruction.ports:
                out._port_free[p] = max(out._port_free.get(p, 0), item.t1)
        return out


def _moved(
    item: ScheduledInstruction, instruction: Instruction, t0: int
) -> ScheduledInstruction:
    """*item* carrying *instruction* at *t0* (same insertion order)."""
    new_item = object.__new__(type(item))
    new_item.__dict__.update(item.__dict__)
    new_item.__dict__["instruction"] = instruction
    new_item.__dict__["t0"] = t0
    return new_item


class FamilyBatch(Sequence):
    """Schedule families run as one batch.

    A sequence of every family's members in family order, so its
    length is the member count; the simulator reads :attr:`families`
    and builds no member.
    """

    __slots__ = ("families", "_starts")

    def __init__(self, families: Iterable[ScheduleFamily]) -> None:
        self.families = tuple(families)
        self._starts = np.cumsum([0] + [len(f) for f in self.families])

    def __len__(self) -> int:
        return int(self._starts[-1])

    def __getitem__(self, i: int) -> PulseSchedule:  # type: ignore[override]
        i = range(len(self))[operator.index(i)]
        f = int(np.searchsorted(self._starts, i, side="right")) - 1
        return self.families[f].member(i - int(self._starts[f]))
