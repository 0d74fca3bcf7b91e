"""repro.api — the unified two-phase execution API.

One front door over every front-end and every backend::

    Program  --compile-->  Executable  --bind/run-->  Result
                  |
                Target

* :class:`Program` — a :class:`~repro.qpi.qpi.QCircuit`, a
  :class:`~repro.qpi.pythonic.PythonicCircuit`, a
  :class:`~repro.core.schedule.PulseSchedule`, QIR text, a pulse
  MLIR module/text, or QASM-3 text, behind one type;
* :class:`Target` — a device name resolved to capabilities +
  calibration state, whether it lives behind a bare simulated device,
  an :class:`~repro.client.client.MQSSClient`, or a running
  :class:`~repro.serving.service.PulseService`;
* :class:`Executable` — the compiled, content-addressed artifact with
  ``bind(params)``, ``run(shots=...)``, ``run_async()`` and
  ``sweep(grid)``.

:func:`compile` and :func:`run` are the convenience entry points
re-exported from the package root.  ``qExecute`` (paper Listing 1),
:func:`repro.api.core.run_request` and the serving layer's
``PulseService.submit``/``submit_sweep`` route through this module's
core, so there is exactly one compile/cache/dispatch path.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.api.executable import Executable
from repro.api.program import Program
from repro.api.target import Target


def compile(
    program: Any,
    target: Any,
    *,
    params: Mapping[str, float] | None = None,
    endpoint: Any | None = None,
) -> Executable:
    """Compile *program* for *target*; phase one of compile -> bind -> run.

    *program* is a :class:`Program` or any front-end object
    (:meth:`Program.coerce` rules); *target* is a :class:`Target`, a
    device object, or a device name resolved against *endpoint* (a
    client, service, or driver).  A parametric program compiled without
    (full) *params* returns an unbound executable whose artifact
    materializes at the first :meth:`Executable.bind`.
    """
    resolved = Target.resolve(target, endpoint)
    executable = Executable.prepare(
        Program.coerce(program), resolved, params=params
    )
    return executable.compile()


def run(
    program: Any,
    target: Any,
    *,
    shots: int = 1024,
    params: Mapping[str, float] | None = None,
    seed: int | None = None,
    metadata: Mapping[str, Any] | None = None,
    endpoint: Any | None = None,
) -> Any:
    """One-shot convenience: ``compile(...)`` then ``run(shots=...)``."""
    return compile(program, target, params=params, endpoint=endpoint).run(
        shots=shots, seed=seed, metadata=metadata
    )


__all__ = ["Program", "Target", "Executable", "compile", "run"]
