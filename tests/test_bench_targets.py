"""The benchmark wraps package functions by name; every target must exist.

A renamed or deleted target would otherwise only raise the benchmark's
``trace.absent_targets`` count, which no gate reads.  The reference recorder
also calls the package directly, so its qpe path runs here on tiny inputs.
"""

import gzip
import hashlib
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


#: sha256 of each histogram CSV at the recorded seed.  The benchmark checks
#: these bytes only at full size; the tiny ops and a zero-temperature thermal
#: run pin the sampler, the decode and the histogram in the test suite.
PINNED_HISTOGRAMS = {
    "qpe_binary_10": "e381a4f85e6289d4672068fbd8ef71dc96c35a92825881d2bfff80388a4238f0",
    "qpe_unary_3_trotter": "a5a0a7ba1de5fc84a7033f2074b6caaf0f394c48e11b03fd4ff5581565eb624e",
    "thermal_binary_3": "789ce93f7f543beb9e85f911a5d01e2e69e5581cf57fb35027c28d7a007addf9",
    "thermal_zero_t": "b7817855d10a7ea7fe98352e49ce24053be22371490f4719fd47d9568460bec7",
}
ZERO_T = workloads._sample("thermal_zero_t", "thermal", "3,3", "binary", 10, "20000",
                           "--temperature-K", "0")


@pytest.mark.parametrize("op", [*workloads.TINY["qpe"], ZERO_T], ids=lambda op: op.key)
def test_histogram_bytes_at_recorded_seed(op, tmp_path):
    data = PERFBENCH.parent / "src" / "vibronic" / "data"
    assert main(op.render(str(data), str(tmp_path), workloads.RECORDED_SEED)) == 0
    histogram = next(tmp_path.glob("*_histogram.csv")).read_bytes()
    assert hashlib.sha256(histogram).hexdigest() == PINNED_HISTOGRAMS[op.key]


#: sha256 of the metadata JSON of an exact and a Trotter run of each sampling
#: command at the recorded seed
PINNED_METADATA = {
    "qpe_binary_10": "110cecd5b148578cc7791c73c37e8af1f18ee49aaca2f5e9c0e4fb302d975ed8",
    "qpe_unary_3_trotter": "99504ca8f4e2f9e9cdbcd96f368229e679544e77a4416f4742417865a527c39c",
    "thermal_binary_3": "5f91d0b8097cb041c03a60f9cddd6fb940a2acb0474422b457ddc92e7b008ad5",
    "thermal_unary_2_trotter": "9011e451983f26d67e3e82fb22ac6ec0865788b640a26b26127e92c6ec39508a",
}
THERMAL_TROTTER = workloads._sample("thermal_unary_2_trotter", "thermal", "2,2", "unary", 6,
                                    "20000", "--temperature-K", "300", "--backend", "trotter:2:2")


@pytest.mark.parametrize("op", [*workloads.TINY["qpe"], THERMAL_TROTTER], ids=lambda op: op.key)
def test_metadata_bytes_at_recorded_seed(op, tmp_path):
    data = PERFBENCH.parent / "src" / "vibronic" / "data"
    assert main(op.render(str(data), str(tmp_path), workloads.RECORDED_SEED)) == 0
    metadata = next(tmp_path.glob("*_metadata.json")).read_bytes()
    assert hashlib.sha256(metadata).hexdigest() == PINNED_METADATA[op.key]


@pytest.mark.parametrize("op", workloads.WORKLOADS["qpe"], ids=lambda op: op.key)
def test_full_size_qpe_histogram_matches_benchmark_reference(op, tmp_path):
    # the benchmark's qpe ops at the recorded seed, against the sha256 its check reads
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    data = PERFBENCH.parent / "src" / "vibronic" / "data"
    assert main(op.render(str(data), str(tmp_path), reference["recorded_seed"])) == 0
    histogram = next(tmp_path.glob("*_histogram.csv")).read_bytes()
    assert hashlib.sha256(histogram).hexdigest() == reference["ops"][op.key]["sha256"]


@pytest.mark.parametrize("op", workloads.WORKLOADS["compile"], ids=lambda op: op.key)
def test_compile_pauli_file_matches_reference(op, tmp_path):
    # the benchmark's full-size compile ops, against the benchmark's own reference text
    data = PERFBENCH.parent / "src" / "vibronic" / "data"
    assert main(op.render(str(data), str(tmp_path), workloads.RECORDED_SEED)) == 0
    written = next(tmp_path.glob("*_pauli.txt")).read_bytes()
    reference = (PERFBENCH / "reference" / f"{op.key}.txt.gz").read_bytes()
    assert written == gzip.decompress(reference)
