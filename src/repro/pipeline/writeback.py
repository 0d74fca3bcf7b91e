"""Atomic calibration write-back.

:func:`commit_writeback` is the single device-mutation point of the
pipeline: it applies every fitted field of a calibration round — frame
frequencies, DRAG beta, refreshed readout confusion — and guarantees
the device's ``calibration_epoch`` advances at least once, so every
compiled artifact keyed on
:meth:`~repro.compiler.jit.JITCompiler.device_state_key` misses
cleanly on the next lookup.  A write-back rebinds, it does not
recompile: a schedule template survives one that moves only believed
frequencies or readout confusion (the next bind writes the new frames
into it), and only a change of the calibration structure (a DRAG beta
reshapes the ``x`` waveform, bumping
:attr:`CalibrationSet.generation
<repro.devices.calibrations.CalibrationSet.generation>`) retraces it.
In-flight work observes the staleness transition the way the serving
layer defines it: a job whose compile finished before the commit
executes its already-compiled (old-state) artifact to completion;
every job compiled after the commit sees the new key.

The ``writeback`` task kind wraps the same commit for DAG use.  Its
recorded result is the exact field set it applied, which makes resume
trivial: replaying a completed write-back on a freshly constructed
device is just committing the recorded fields again.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.errors import PipelineError
from repro.pipeline.dag import register_task


def commit_writeback(
    device: Any,
    *,
    frequencies: Mapping[int, float] | None = None,
    drag_beta: float | None = None,
    confusion: Mapping[int, Mapping[str, float]] | None = None,
) -> dict:
    """Commit fitted device state; returns the applied record.

    All fields land before control returns (single-threaded device
    mutation), and the calibration epoch is bumped even when no field
    individually bumps it — one commit, at least one invalidation.
    """
    if frequencies is None and drag_beta is None and confusion is None:
        raise PipelineError("commit_writeback called with nothing to apply")
    epoch_before = getattr(device, "calibration_epoch", 0)
    applied: dict = {}
    if frequencies:
        for site, freq in frequencies.items():
            device.set_frame_frequency(int(site), float(freq))
        applied["frequencies"] = {
            str(site): float(freq) for site, freq in frequencies.items()
        }
    if drag_beta is not None:
        if not hasattr(device, "set_drag_beta"):
            raise PipelineError(
                f"device {device.name!r} has no DRAG write-back hook"
            )
        device.set_drag_beta(float(drag_beta))
        applied["drag_beta"] = float(drag_beta)
    if confusion is not None:
        # Refreshed assignment matrices live in the device's published
        # extras (mitigation reads them from there); this write-back
        # moves no pulse parameter, so the epoch bump below is what
        # changes the compile-cache key.
        device.config.extra["readout_confusion"] = {
            str(site): dict(entry) for site, entry in confusion.items()
        }
        applied["confusion"] = device.config.extra["readout_confusion"]
    bump = getattr(device, "bump_calibration", None)
    if bump is not None and device.calibration_epoch == epoch_before:
        bump()
    applied["calibration_epoch"] = getattr(device, "calibration_epoch", 0)
    return applied


def _collect_fields(upstream: Mapping[str, Mapping]) -> dict:
    """Merge write-back fields from upstream fit results.

    Recognized result keys: ``estimated_frequency_hz`` (Ramsey fits),
    ``drag_beta`` (DRAG fits), ``confusion`` (readout refreshes).
    Later dependencies win on overlap, matching DAG edge order.
    """
    frequencies: dict[int, float] = {}
    drag_beta: float | None = None
    confusion: dict[int, dict] | None = None
    for result in upstream.values():
        if not isinstance(result, Mapping):
            continue
        freqs = result.get("estimated_frequency_hz")
        if isinstance(freqs, Mapping):
            for site, freq in freqs.items():
                frequencies[int(site)] = float(freq)
        if result.get("drag_beta") is not None:
            drag_beta = float(result["drag_beta"])
        if isinstance(result.get("confusion"), Mapping):
            confusion = {
                int(site): dict(entry)
                for site, entry in result["confusion"].items()
            }
    out: dict = {}
    if frequencies:
        out["frequencies"] = frequencies
    if drag_beta is not None:
        out["drag_beta"] = drag_beta
    if confusion is not None:
        out["confusion"] = confusion
    return out


def _writeback_run(ctx, params: Mapping, seed, upstream: Mapping) -> dict:
    fields = _collect_fields(upstream)
    # Explicit params override anything collected from upstream.
    if params.get("frequencies"):
        fields["frequencies"] = {
            int(site): float(freq)
            for site, freq in params["frequencies"].items()
        }
    if params.get("drag_beta") is not None:
        fields["drag_beta"] = float(params["drag_beta"])
    if not fields:
        raise PipelineError(
            "writeback task found no fitted fields in its upstream "
            "results (expected estimated_frequency_hz / drag_beta / "
            "confusion)"
        )
    return commit_writeback(ctx.device, **fields)


def _writeback_replay(ctx, params: Mapping, recorded: Mapping) -> None:
    """Re-apply a recorded commit to a freshly constructed device."""
    commit_writeback(
        ctx.device,
        frequencies={
            int(site): freq
            for site, freq in (recorded.get("frequencies") or {}).items()
        }
        or None,
        drag_beta=recorded.get("drag_beta"),
        confusion={
            int(site): dict(entry)
            for site, entry in (recorded.get("confusion") or {}).items()
        }
        or None,
    )


register_task("writeback", "writeback", replay=_writeback_replay)(_writeback_run)
