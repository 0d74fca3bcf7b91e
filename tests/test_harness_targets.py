"""Every name the benchmark harness wraps still resolves.

The traced harness run wraps the functions and methods
``benchmarks.harness.layers`` names by ``"module:attribute.path"``; a
renamed or deleted one fails the traced run. This checks the names
with ``hasattr`` only, so a rename fails in seconds on every Python the
tests run on. It reads the harness and changes nothing in it.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from benchmarks.harness import layers  # noqa: E402


def _paths() -> list[str]:
    out = []
    for layer in layers.LAYERS:
        for entry in layer.targets:
            out.append(entry if isinstance(entry, str) else entry[0])
    return out + [layers.WORKER_MAIN]


@pytest.mark.parametrize("path", _paths())
def test_harness_target_resolves(path):
    module, _, attribute = path.partition(":")
    owner = importlib.import_module(module)
    *parents, name = attribute.split(".")
    for parent in parents:
        assert hasattr(owner, parent), f"{path}: no {parent!r} on {owner!r}"
        owner = getattr(owner, parent)
    assert hasattr(owner, name), f"{path}: no {name!r} on {owner!r}"
