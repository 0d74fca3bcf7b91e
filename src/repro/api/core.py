"""The single compile/cache/dispatch path under every entry point.

``qExecute``, :func:`run_request`, ``MQSSClient.compile_request`` and
the ``PulseService`` workers all funnel through the two primitives
here:

* :func:`adapter_payload` — front-end program -> compiler payload via
  the client's adapter registry (the only place adapters are invoked);
* :func:`compile_payload` — payload -> :class:`CompiledProgram` through
  the JIT compiler and its content-addressed memo (the only place
  compilation is triggered); a bound family batch is checked against
  the device's constraints and passed through uncompiled.

Dispatch stays :meth:`MQSSClient.execute_compiled` (sessions, format
routing, result assembly); :class:`repro.api.executable.Executable`
adds the direct-device fast path for local targets, which mirrors what
``qExecute`` used to do by hand.

This module deliberately imports nothing from :mod:`repro.client` or
:mod:`repro.serving` at module level so the package root can re-export
the API without import cycles.
"""

from __future__ import annotations

import time
from typing import Any, Mapping

from repro.core.schedule import FamilyBatch
from repro.obs.tracing import span
from repro.qdmi.properties import DeviceProperty


def adapter_payload(
    client: Any,
    program: Any,
    compile_device: Any,
    *,
    adapter: str | None = None,
    timings: dict[str, float] | None = None,
) -> Any:
    """Normalize *program* into a compiler payload for *compile_device*.

    Adapter selection reuses the client's registry (explicit *adapter*
    name, else autodetect), so custom adapters registered on the client
    keep working through the unified API.
    """
    from repro.client.client import JobRequest

    t0 = time.perf_counter()
    with span("adapter", device=compile_device.name):
        request = JobRequest(program, compile_device.name, adapter=adapter)
        payload = client.select_adapter(request).to_payload(
            program, compile_device
        )
    if timings is not None:
        timings["adapter"] = time.perf_counter() - t0
    return payload


def compile_payload(
    compiler: Any,
    payload: Any,
    device: Any,
    *,
    scalar_args: Mapping[str, float] | None = None,
    timings: dict[str, float] | None = None,
    key: str | None = None,
) -> Any:
    """Compile *payload* for *device* through *compiler*'s memo.

    Every compilation in the stack — client submissions, serving
    workers, ``Executable`` binds — passes through this function, so
    they all share the client's one compile cache. *key* is the memo
    key when the caller has already composed it.
    A bound :class:`~repro.core.schedule.FamilyBatch` is not compiled:
    it is returned as it stands once each family passes the constraints
    *device* reports (a :class:`~repro.errors.ConstraintError` if not).
    """
    t0 = time.perf_counter()
    with span("compile", device=device.name) as sp:
        if isinstance(payload, FamilyBatch):
            constraints = device.query_device_property(
                DeviceProperty.PULSE_CONSTRAINTS
            )
            for family in payload.families:
                constraints.validate_family(family)
            program = payload
        else:
            program = compiler.compile(
                payload, device, scalar_args=scalar_args, key=key
            )
            sp.annotate(cache_hit=program.cache_hit)
    if timings is not None:
        timings["compile"] = time.perf_counter() - t0
    return program


def run_request(client: Any, request: Any) -> Any:
    """One-shot submission routed through Program -> Target -> Executable.

    The single-call surface expressed in terms of the two-phase core:
    coerce, resolve the target through *client*, prepare, run.
    """
    from repro.api.executable import Executable
    from repro.api.program import Program
    from repro.api.target import Target

    program = Program.coerce(request.program, adapter=request.adapter)
    target = Target.from_client(client, request.device)
    executable = Executable.prepare(
        program, target, params=request.scalar_args or None
    )
    return executable.run(
        shots=request.shots,
        seed=request.seed,
        metadata=request.metadata or None,
    )
