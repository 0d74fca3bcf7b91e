"""Gate calibrations: the gate -> pulse lowering tables.

Each device publishes, per (operation, site tuple), a *builder* that
appends the operation's pulse implementation to a schedule. This is the
"provided calibration waveforms" mechanism of the IBM pulse dialect the
paper adopts (§5.2): "every gate has an associated pulse waveform", and
the gate->pulse lowering pass replaces each gate op with its calibrated
pulse sequence.

Footnote 2 of the paper highlights that treating pulses as first-class
IR makes the native gate set *extensible*: "an expert can define a new
quantum gate by providing its pulse waveform". That is
:meth:`CalibrationSet.register_custom_gate`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.core.frame import Frame
from repro.core.instructions import Play
from repro.core.port import Port
from repro.core.schedule import PulseSchedule
from repro.core.waveform import Waveform
from repro.errors import LoweringError, ValidationError

#: A builder appends one operation's pulses to *schedule*; *params* are
#: the operation's continuous parameters (e.g. the angle of ``rz``).
CalibrationBuilder = Callable[[PulseSchedule, Sequence[float]], None]


@dataclass(frozen=True)
class CalibrationEntry:
    """One calibrated operation on concrete sites.

    Attributes
    ----------
    operation:
        Operation name (``"x"``, ``"cz"``, ``"measure"``...).
    sites:
        The concrete site tuple this calibration applies to.
    builder:
        Appends the pulse implementation to a schedule.
    duration:
        Wall-clock cost in samples (0 for virtual operations).
    num_params:
        Number of continuous parameters the builder expects.
    is_virtual:
        True when the operation is frame updates only.
    """

    operation: str
    sites: tuple[int, ...]
    builder: CalibrationBuilder
    duration: int
    num_params: int = 0
    is_virtual: bool = False

    def __post_init__(self) -> None:
        if not self.operation:
            raise ValidationError("calibration operation name must be non-empty")
        if self.duration < 0:
            raise ValidationError("calibration duration must be >= 0")
        if self.is_virtual and self.duration != 0:
            raise ValidationError("virtual operations must have zero duration")

    def apply(self, schedule: PulseSchedule, params: Sequence[float]) -> None:
        """Append this operation's pulses to *schedule*."""
        if len(params) != self.num_params:
            raise LoweringError(
                f"operation {self.operation!r} on sites {self.sites} expects "
                f"{self.num_params} parameters, got {len(params)}"
            )
        self.builder(schedule, params)


class CalibrationSet:
    """All calibrated operations of one device."""

    def __init__(self) -> None:
        self._entries: dict[tuple[str, tuple[int, ...]], CalibrationEntry] = {}
        #: The structure generation: bumped by every ``add(overwrite=True)``,
        #: which may change an entry's pulses (shape, duration). A
        #: frequency write-back leaves it alone: entries read the
        #: believed frequency from their port's default frame.
        self.generation = 0

    def add(self, entry: CalibrationEntry, *, overwrite: bool = False) -> None:
        """Register *entry*; refuses silent redefinition unless asked.

        Calibration loops legitimately *re*-calibrate, so ``overwrite``
        exists (and bumps :attr:`generation`); accidental
        double-registration is still an error.
        """
        key = (entry.operation, entry.sites)
        if key in self._entries and not overwrite:
            raise ValidationError(
                f"calibration for {entry.operation!r} on {entry.sites} exists; "
                "pass overwrite=True to re-calibrate"
            )
        self._entries[key] = entry
        if overwrite:
            self.generation += 1

    def get(self, operation: str, sites: Sequence[int]) -> CalibrationEntry:
        """Lookup; raises :class:`LoweringError` when missing — the
        failure mode that aborts gate->pulse lowering."""
        key = (operation, tuple(sites))
        try:
            return self._entries[key]
        except KeyError:
            raise LoweringError(
                f"no pulse calibration for {operation!r} on sites {tuple(sites)}"
            ) from None

    def has(self, operation: str, sites: Sequence[int]) -> bool:
        return (operation, tuple(sites)) in self._entries

    def operations(self) -> list[str]:
        """Distinct calibrated operation names, sorted."""
        return sorted({op for op, _ in self._entries})

    def entries(self) -> list[CalibrationEntry]:
        """All entries, deterministically ordered."""
        return [self._entries[k] for k in sorted(self._entries)]

    def register_custom_gate(
        self,
        name: str,
        sites: Sequence[int],
        port: Port,
        frame: Frame,
        waveform: Waveform,
        *,
        overwrite: bool = False,
    ) -> CalibrationEntry:
        """Define a new gate by its pulse waveform (paper footnote 2).

        The gate becomes indistinguishable from a native one: the
        lowering pass will inline the waveform wherever the gate
        appears.
        """

        def builder(schedule: PulseSchedule, params: Sequence[float]) -> None:
            schedule.append(Play(port, frame, waveform))

        entry = CalibrationEntry(
            operation=name,
            sites=tuple(sites),
            builder=builder,
            duration=waveform.duration,
            num_params=0,
        )
        self.add(entry, overwrite=overwrite)
        return entry
