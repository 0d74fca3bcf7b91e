"""Request coalescing: identical programs share one device execution.

Under multi-tenant load many requests carry the *same* program — every
tenant's calibration check, the same benchmark circuit, a variational
loop re-evaluating one ansatz point. Executing each copy separately
repeats the expensive part (state evolution) for an identical answer.
The batcher groups queue entries whose (device, payload fingerprint)
match, executes the program once with the summed shot count, and
splits the sampled shots back per request with a multivariate
hypergeometric draw — statistically identical to each request having
drawn its own shots from the single execution's distribution.

Only single-request queue entries coalesce. The points of a sweep
already share one batched execution, and each keeps its own seeded
stream there, so identical points of one sweep are never merged.
"""

from __future__ import annotations

import threading

import numpy as np


class RequestBatcher:
    """Coalescing policy + shot-splitting for identical-program requests.

    Shot splits draw from an RNG seeded with 0, so they are
    deterministic.
    """

    #: Largest number of requests coalesced into one execution.
    max_batch = 32

    def __init__(self) -> None:
        self._rng = np.random.default_rng(0)
        self._rng_lock = threading.Lock()

    @staticmethod
    def coalesce_key(
        device_name: str,
        fingerprint: str,
        seed: int | None = None,
        variant: str = "",
    ) -> str:
        """Grouping key: same device + same payload content + same seed.

        The seed is part of the key because a coalesced group executes
        once with the group's (shared) seed — merging requests that
        asked for different seeds would silently change their
        documented deterministic counts. *variant* distinguishes
        requests whose payload is identical but whose execution model
        is not (per-request decoherence overrides in a noise sweep):
        two points of a T1/T2 grid must never share one execution.
        """
        return f"{device_name}/{fingerprint}/s{seed}/{variant}"

    def split_counts(
        self, counts: dict[str, int], shots_per_request: list[int]
    ) -> list[dict[str, int]]:
        """Partition sampled *counts* into per-request count dicts.

        ``sum(shots_per_request)`` must not exceed the total shots in
        *counts*; each request receives exactly its shot count, drawn
        without replacement from the combined sample.
        """
        total_requested = sum(shots_per_request)
        pool_total = sum(counts.values())
        if total_requested > pool_total:
            raise ValueError(
                f"cannot split {pool_total} sampled shots into "
                f"{total_requested} requested shots"
            )
        keys = sorted(counts)
        pool = np.array([counts[k] for k in keys], dtype=np.int64)
        out: list[dict[str, int]] = []
        for shots in shots_per_request:
            if shots == 0 or not keys:
                out.append({})
                continue
            with self._rng_lock:
                draw = self._rng.multivariate_hypergeometric(pool, shots)
            pool = pool - draw
            out.append({k: int(n) for k, n in zip(keys, draw) if n})
        return out
