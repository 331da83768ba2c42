"""The benchmark wraps package functions by name; every target must exist.

A renamed or deleted target would otherwise only raise the benchmark's
``trace.absent_targets`` count, which no gate reads.
"""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
layers = importlib.import_module("layers")


@pytest.mark.parametrize("module,path", [(m, p) for m, p, _, _ in layers.TARGETS])
def test_benchmark_wrap_target_resolves(module, path):
    obj = importlib.import_module(module)
    for name in path.split("."):
        obj = getattr(obj, name)
    assert callable(obj)
