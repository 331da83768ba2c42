"""The benchmark wraps package functions by name; every target must exist.

A renamed or deleted target would otherwise only raise the benchmark's
``trace.absent_targets`` count, which no gate reads.  The reference recorder
also calls the package directly, so its qpe path runs here on tiny inputs.
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

from vibronic.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
layers = importlib.import_module("layers")
check = importlib.import_module("check")
record = importlib.import_module("record")
workloads = importlib.import_module("workloads")


@pytest.mark.parametrize("module,path", [(m, p) for m, p, _, _ in layers.TARGETS])
def test_benchmark_wrap_target_resolves(module, path):
    obj = importlib.import_module(module)
    for name in path.split("."):
        obj = getattr(obj, name)
    assert callable(obj)


@pytest.mark.parametrize("op", workloads.TINY["qpe"], ids=lambda op: op.key)
def test_recorder_distribution_matches_cli_histogram(op, tmp_path):
    data = PERFBENCH.parent / "src" / "vibronic" / "data"
    argv = op.render(str(data), str(tmp_path), workloads.RECORDED_SEED)
    assert main(argv) == 0
    metadata = json.loads(next(tmp_path.glob("*_metadata.json")).read_text())
    histogram = check.histogram_bins(next(tmp_path.glob("*_histogram.csv")))
    reference = record.qpe_distribution(argv, metadata)
    assert check.tv_distance(histogram, reference) <= check.QPE_TV_MAX
