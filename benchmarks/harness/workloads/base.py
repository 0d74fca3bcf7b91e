"""What every workload provides, and the helpers they share."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any

import numpy as np

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.dirname(__file__)), "golden")

#: Absolute tolerance of a golden or spot-check comparison (complex128).
TOLERANCE = 1e-9


def op_rng(seed: int, index: int, stream: int = 0) -> np.random.Generator:
    """The generator of op *index* of a run seeded with *seed*.

    Inputs depend only on ``(seed, index)``, so a traced rerun with the
    same seed and op count replays exactly the untimed run's inputs,
    whichever client thread executes each op. *stream* separates
    warm-up inputs from op inputs.
    """
    return np.random.default_rng([int(seed), int(stream), int(index)])


def golden_path(name: str) -> str:
    return os.path.join(GOLDEN_DIR, f"{name}.json")


def load_golden(name: str) -> dict:
    with open(golden_path(name)) as fh:
        return json.load(fh)


def write_golden(name: str, data: dict) -> str:
    path = golden_path(name)
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


@dataclass
class Verification:
    """Outcome of the golden and spot checks of one run."""

    checked: int = 0
    mismatches: int = 0
    #: Largest error seen, as a fraction of its comparison's tolerance.
    worst: float = 0.0
    #: Workload-specific numbers measured along the way.
    values: dict[str, float] = field(default_factory=dict)

    def compare(self, value: float, reference: float, tol: float = TOLERANCE) -> None:
        err = abs(complex(value) - complex(reference))
        self.checked += 1
        self.worst = max(self.worst, err / tol)
        if not err <= tol:
            self.mismatches += 1

    def compare_distribution(
        self, got: dict, want: dict, tol: float = TOLERANCE
    ) -> None:
        """One comparison per outcome key of either distribution."""
        for key in sorted(set(got) | set(want)):
            self.compare(got.get(key, 0), want.get(key, 0), tol)


class Workload:
    """One closed-loop workload.

    The child process calls :meth:`setup` (five times, timing each),
    then, per op index, :meth:`prepare` (untimed), :meth:`op` (timed)
    and :meth:`check` (untimed); then :meth:`verify` and finally
    :meth:`teardown`.
    """

    name: str = ""
    #: Closed-loop client threads; each waits for its op to finish
    #: before it starts the next.
    clients: int = 1
    #: Whether timings are divided by the host speed sampled beside
    #: them. False when fixed-length sleeps (polling intervals) make up
    #: much of op time: those do not slow down with the host, so host
    #: scaling would over-correct.
    host_scaled: bool = True

    def setup(self, seed: int, work_dir: str) -> Any:
        raise NotImplementedError

    def teardown(self, state: Any) -> None:
        """Release what :meth:`setup` started."""

    def prepare(self, state: Any, seed: int, index: int) -> Any:
        """The inputs of op *index* (may advance simulated time)."""
        raise NotImplementedError

    def op(self, state: Any, inputs: Any) -> Any:
        raise NotImplementedError

    def check(self, state: Any, inputs: Any, output: Any) -> bool:
        """Whether one op's output is valid; may stash spot-check samples."""
        raise NotImplementedError

    def verify(self, state: Any, window: tuple[float, float]) -> Verification:
        """Golden probes and spot checks against independent paths.

        *window* is the timed span in ``time.time()`` seconds, for
        workloads that read per-layer numbers from their own stores.
        """
        raise NotImplementedError

    def reference(self) -> dict:
        """The golden file's content, from paths independent of the
        batched code under test."""
        raise NotImplementedError
