import contextlib
import hashlib
import io
import json
import math
import os
import re
import resource
import subprocess
import sys
import tempfile
import warnings
from decimal import Decimal
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from dense_reference import converge_sweep_held
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vibronic import cli, fock, qpe
from vibronic.cli import main
from vibronic.problem import bundled_problem, serialize_problem

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture()
def so2_file(tmp_path):
    path = tmp_path / "so2.json"
    path.write_text(serialize_problem(bundled_problem("so2")))
    return str(path)


@pytest.fixture()
def toy_file(tmp_path):
    path = tmp_path / "toy.json"
    path.write_text(json.dumps({
        "label": "toy", "omega_A": [1000.0], "omega_B": [1000.0],
        "S": [[1.0]], "delta": [0.0],
    }))
    return str(path)


def test_exact_writes_files(so2_file, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["exact", "--problem", so2_file, "--cutoffs", "13,20", "--out", str(out)])
    assert code == 0
    files = {p.name for p in out.iterdir()}
    assert {"so2_so2_e_sticks.csv", "so2_so2_e_binned.csv",
            "so2_so2_e_broadened.csv", "so2_so2_e_metadata.json"} <= files
    meta = json.loads((out / "so2_so2_e_metadata.json").read_text())
    assert meta["cutoffs"] == [13, 20]
    assert abs(meta["leakage"]) < 1e-6
    assert "leakage" in capsys.readouterr().out


#: sha256 of every `exact` file for the bundled so2 at cutoffs (4,4)
EXACT_SO2_4_SHA256 = {
    "so2_so2_e_sticks.csv": "d54a55586e36069979d244478ea13674665d6e55d848da07f25e6d16a47cc2bf",
    "so2_so2_e_binned.csv": "7afca09e52d929d973e8954057ddd8ee6e86eac4f214005c5144f1354a4912ce",
    "so2_so2_e_broadened.csv": "1a07eceb18e2a199f2fa3398c5554e373f8616e4d98bb69596861f80131f5f80",
    "so2_so2_e_metadata.json": "f14c27f4d500c2bfded9307f544eaf269fa88943b8d95c2db23ad2669b204ed9",
}


def test_exact_file_bytes_pinned(tmp_path):
    so2 = ROOT / "src" / "vibronic" / "data" / "so2.json"
    assert main(["exact", "--problem", str(so2), "--cutoffs", "4,4", "--out", str(tmp_path)]) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert written == EXACT_SO2_4_SHA256


#: sha256 of both CSVs and the stdout of the benchmark's so2 `converge` window
CONVERGE_SO2_SHA256 = {
    "so2_so2_e_converge_trace.csv": "e75924662bfc476e2bb76c87c492f1176c70da44e81dcf391f06ab3ac6adc329",
    "so2_so2_e_l1_vs_exact.csv": "f56dfee82e51f251ab4acb6db96f3d86869004b8487a2db805d73b0ba0be0a16",
    "stdout": "8d4deea2b93ce1f6a9f954c600227dda66b295f360b848533ec5f4ac5f358ad7",
}


def test_converge_window_bytes_pinned(tmp_path, capsys):
    so2 = ROOT / "src" / "vibronic" / "data" / "so2.json"
    assert main(["converge", "--problem", str(so2), "--route", "ladder", "--vary-mode", "1",
                 "--fixed-cutoffs", "8", "--l-start", "1", "--l-cap", "24",
                 "--out", str(tmp_path)]) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    written["stdout"] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert written == CONVERGE_SO2_SHA256


#: sha256 of both CSVs and the stdout of the benchmark's h2o `converge` window
CONVERGE_H2O_SHA256 = {
    "h2o_h2o_e_converge_trace.csv": "60ac298adec91934d8c18152a86e2337e151f1f576993e5b254e928a57c38c0d",
    "h2o_h2o_e_l1_vs_exact.csv": "75c27b8437cae1aea6223c57644a379e8a21a4668708ad93e80cc60b2426b32f",
    "stdout": "ced5213d2c08c1eb16bf38d9a53ea85416eba36bef0fd80988c5b70434f3b7d4",
}


def test_converge_h2o_window_bytes_pinned(tmp_path, capsys):
    h2o = ROOT / "src" / "vibronic" / "data" / "h2o.json"
    assert main(["converge", "--problem", str(h2o), "--route", "ladder", "--vary-mode", "2",
                 "--fixed-cutoffs", "10", "--l-start", "48", "--l-cap", "68",
                 "--out", str(tmp_path)]) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    written["stdout"] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert written == CONVERGE_H2O_SHA256


#: sha256 of every `exact` file for so2_anharmonic at cutoffs (6,4,3), sigma 50 cm^-1 FWHM
EXACT_SO2_ANHARMONIC_FWHM_SHA256 = {
    "so2_so2_e_anharmonic_pes_sticks.csv":
        "d7daa5621356d6bbd444348558ef9c119f0b6d35439d0a007948969c3afdd8a3",
    "so2_so2_e_anharmonic_pes_binned.csv":
        "f85a5cb277b43dab5bef2d6e874bc5ef98b9bcd62914caedd59c02b2f58c73e0",
    "so2_so2_e_anharmonic_pes_broadened.csv":
        "000a36de283831975b035f482ebe8bcdbce86147695e867ae3813cf3aceea7c5",
    "so2_so2_e_anharmonic_pes_metadata.json":
        "775aa8fd37dc60a255a2edf6fe8bb3d82953547552af7c6113f54f72930ff87e",
}


def test_exact_fwhm_file_bytes_pinned(tmp_path):
    # --sigma is converted to a standard deviation once, in the CLI; the
    # metadata still records the width and convention as given
    problem = ROOT / "src" / "vibronic" / "data" / "so2_anharmonic.json"
    assert main(["exact", "--problem", str(problem), "--cutoffs", "6,4,3", "--sigma", "50",
                 "--sigma-convention", "fwhm", "--out", str(tmp_path)]) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert written == EXACT_SO2_ANHARMONIC_FWHM_SHA256
    meta = json.loads((tmp_path / "so2_so2_e_anharmonic_pes_metadata.json").read_text())
    assert (meta["sigma"], meta["sigma_convention"]) == (50.0, "fwhm")


#: sha256 of both CSVs and the stdout of the so2 `converge` window at sigma 80 cm^-1 FWHM
CONVERGE_SO2_FWHM_SHA256 = {
    "so2_so2_e_converge_trace.csv": "5df3312249f2695818452de82e9f1b500d5896b8af480310da0522422be54ba8",
    "so2_so2_e_l1_vs_exact.csv": "8ede459940d4dd945816aa807f7757edb16b149e7048abb11d606c20243b4457",
    "stdout": "0958837e4e4b48d92a324a5d5e334de44a8b1ec69cb65dcdc7f96b0fcdf48e8d",
}


def test_converge_fwhm_window_bytes_pinned(tmp_path, capsys):
    so2 = ROOT / "src" / "vibronic" / "data" / "so2.json"
    assert main(["converge", "--problem", str(so2), "--route", "ladder", "--vary-mode", "1",
                 "--fixed-cutoffs", "8", "--l-start", "1", "--l-cap", "24", "--sigma", "80",
                 "--sigma-convention", "fwhm", "--out", str(tmp_path)]) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    written["stdout"] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert written == CONVERGE_SO2_FWHM_SHA256


def test_exact_identity_single_stick(toy_file, tmp_path):
    out = tmp_path / "out"
    assert main(["exact", "--problem", toy_file, "--cutoffs", "6", "--out", str(out)]) == 0
    rows = (out / "toy_sticks.csv").read_text().strip().splitlines()[1:]
    intensities = np.array([float(r.split(",")[1]) for r in rows])
    assert intensities[0] == pytest.approx(1.0)
    assert (intensities[1:] > 1e-12).sum() == 0


def test_missing_problem_file_exit_2(tmp_path, capsys):
    code = main(["exact", "--problem", str(tmp_path / "nope.json"),
                 "--cutoffs", "4", "--out", str(tmp_path)])
    assert code == 2
    assert "nope.json" in capsys.readouterr().err


def test_cutoff_dimension_mismatch_exit_2(so2_file, tmp_path, capsys):
    code = main(["exact", "--problem", so2_file, "--cutoffs", "4,4,4",
                 "--out", str(tmp_path)])
    assert code == 2
    assert "modes" in capsys.readouterr().err


def test_qpe_deterministic_rerun(toy_file, tmp_path):
    out = tmp_path / "out"
    args = ["qpe", "--problem", toy_file, "--cutoffs", "3", "--t", "8",
            "--shots", "500", "--seed", "7", "--out", str(out)]
    assert main(args) == 0
    first = (out / "toy_qpe_histogram.csv").read_bytes()
    assert main(args) == 0
    assert (out / "toy_qpe_histogram.csv").read_bytes() == first
    meta = json.loads((out / "toy_qpe_metadata.json").read_text())
    assert meta["seed"] == 7
    assert meta["phase_map"]["t"] == 8


def test_qpe_seed_takes_largest_philox_key(toy_file, tmp_path):
    out = tmp_path / "out"
    assert main(["qpe", "--problem", toy_file, "--cutoffs", "2", "--t", "4", "--shots", "10",
                 "--seed", str(2**64 - 1), "--out", str(out)]) == 0
    assert json.loads((out / "toy_qpe_metadata.json").read_text())["seed"] == 2**64 - 1


def test_qpe_budget_exceeded_exit_2(so2_file, tmp_path, capsys):
    code = main(["qpe", "--problem", so2_file, "--cutoffs", "3,3", "--t", "40",
                 "--shots", "10", "--out", str(tmp_path)])
    assert code == 2
    assert "budget" in capsys.readouterr().err


def test_thermal_hot_bands(tmp_path):
    path = tmp_path / "warm.json"
    path.write_text(json.dumps({
        "label": "warm", "omega_A": [500.0], "omega_B": [500.0],
        "S": [[1.0]], "delta": [1.0],
    }))
    out = tmp_path / "out"
    code = main(["thermal", "--problem", str(path), "--cutoffs", "6",
                 "--temperature-K", "300", "--t", "10", "--shots", "2000",
                 "--seed", "3", "--out", str(out)])
    assert code == 0
    rows = (out / "warm_thermal_histogram.csv").read_text().strip().splitlines()[1:]
    energies = np.array([float(r.split(",")[0]) for r in rows])
    values = np.array([float(r.split(",")[1]) for r in rows])
    assert values[energies < -100].sum() > 0  # hot bands below the 0-0 line


@pytest.mark.parametrize("command", ["qpe", "thermal"])
def test_sampler_metadata_records_the_backend(command, so2_file, tmp_path):
    extra = ["--temperature-K", "300"] if command == "thermal" else []
    recorded = {}
    for backend in ("trotter:2:3", "exact"):
        out = tmp_path / backend.replace(":", "_")
        assert main([command, "--problem", so2_file, "--cutoffs", "2,2", "--encoding", "unary",
                     "--t", "6", "--shots", "100", "--backend", backend, *extra,
                     "--out", str(out)]) == 0
        meta = json.loads(next(out.glob("*_metadata.json")).read_text())
        recorded[backend] = [meta.get(key) for key in
                             ("backend", "trotter_order", "trotter_steps", "leaked_weight")]
    # only a Trotter run leaves the code space, so only it reports the weight it leaked
    assert 0.0 < recorded["trotter:2:3"].pop() < 1e-2
    assert recorded == {"trotter:2:3": ["trotter", 2, 3], "exact": ["exact", None, None, None]}


def test_thermal_requires_temperature(so2_file, tmp_path, capsys):
    code = main(["thermal", "--problem", so2_file, "--cutoffs", "4,4",
                 "--t", "8", "--shots", "10", "--out", str(tmp_path)])
    assert code == 2
    assert "temperature" in capsys.readouterr().err.lower()


@pytest.mark.parametrize("command,extra", [("qpe", []), ("thermal", ["--temperature-K", "300"])])
def test_shot_bytes_checked_before_sampling_exit_2(command, extra, toy_file, tmp_path, capsys,
                                                   monkeypatch):
    # 5e8 shots need 3.7 GiB for their uniforms alone
    def refuse(*args, **kwargs):
        pytest.fail("shots were drawn although their arrays exceed the byte budget")

    monkeypatch.setattr(qpe, "shot_uniforms", refuse)
    code = main([command, "--problem", toy_file, "--cutoffs", "3", "--t", "4",
                 "--shots", "500000000", "--out", str(tmp_path), *extra])
    assert code == 2
    assert "GiB" in capsys.readouterr().err


def _run_capped(argv):
    """Run the CLI in a child capped at 3 GiB of address space.

    An allocation made before its byte check then fails fast (a traceback,
    exit 1) instead of exhausting the machine.
    """
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    cap = 3 << 30
    return subprocess.run(
        [sys.executable, "-m", "vibronic.cli", *argv], env=env, capture_output=True, text=True,
        timeout=300, preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )


def test_histogram_bin_bytes_checked_exit_2(so2_file, tmp_path):
    # so2 samples span thousands of cm^-1: about 1e11 bins of 1e-7 cm^-1
    proc = _run_capped(["qpe", "--problem", so2_file, "--cutoffs", "3,3", "--t", "6",
                        "--shots", "100", "--hist-width", "1e-7", "--out", str(tmp_path)])
    assert proc.returncode == 2, proc.stderr
    assert "-bin histogram" in proc.stderr and "GiB" in proc.stderr


@pytest.mark.parametrize("command", ["exact", "qpe"])
def test_sparse_assembly_bytes_checked_exit_2(command, toy_file, tmp_path):
    # 1e8 + 1 levels of one mode: the assembly's value grids would take several GiB
    proc = _run_capped([command, "--problem", toy_file, "--cutoffs", "100000000",
                        "--out", str(tmp_path)])
    assert proc.returncode == 2, proc.stderr
    assert "-term sparse H on 100000001 states" in proc.stderr and "GiB" in proc.stderr


def test_map_product_bytes_checked_exit_2(so2_file, tmp_path):
    # binary (511,511): 1.7e8 products, whose ids, masks and sort would take about 8 GiB
    proc = _run_capped(["map", "--problem", so2_file, "--cutoffs", "511", "--out", str(tmp_path)])
    assert proc.returncode == 2, proc.stderr
    assert "-product Pauli map" in proc.stderr and "GiB" in proc.stderr


def test_tiny_histogram_width_exit_2_with_real_bin_count(so2_file, tmp_path, capsys):
    # E / 1e-310 overflows float: the count must not come from a wrapped int64 cast
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["qpe", "--problem", so2_file, "--cutoffs", "3,3", "--t", "6",
                     "--shots", "100", "--hist-width", "1e-310", "--out", str(tmp_path)])
    assert code == 2
    count = re.search(r"a (\S+)-bin histogram", capsys.readouterr().err).group(1)
    assert Decimal("1e312") < Decimal(count) < Decimal("1e316")  # thousands of cm^-1 / 1e-310


@pytest.mark.parametrize("flag,value", [("--beta-invcm", "1e-300"), ("--temperature-K", "1e300")])
def test_infinite_squeezing_temperature_exit_2(flag, value, so2_file, tmp_path, capsys):
    # exp(-beta w / 2) rounds to 1, so arctanh gives an infinite angle and kappa is nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["thermal", "--problem", so2_file, "--cutoffs", "2,2", flag, value,
                     "--t", "6", "--shots", "100", "--out", str(tmp_path / "out")])
    assert code == 2
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_huge_beta_is_zero_temperature_without_warning(so2_file, tmp_path):
    # -beta w overflows to -inf: exp gives the exact zero-temperature ratio 0
    histograms = []
    for flag, value in (("--beta-invcm", "1e308"), ("--temperature-K", "0")):
        out = tmp_path / value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["thermal", "--problem", so2_file, "--cutoffs", "2,2", flag, value,
                         "--t", "6", "--shots", "100", "--out", str(out)]) == 0
        histograms.append((out / "so2_so2_e_thermal_histogram.csv").read_bytes())
    assert histograms[0] == histograms[1]


def test_broadening_kernel_bytes_checked_exit_2(toy_file, tmp_path):
    # sigma = 1e11 cm^-1 on 1 cm^-1 bins needs a 1.2e12-point kernel
    proc = _run_capped(["exact", "--problem", toy_file, "--cutoffs", "4",
                        "--sigma", "1e11", "--out", str(tmp_path)])
    assert proc.returncode == 2, proc.stderr
    assert "broadened grid" in proc.stderr and "GiB" in proc.stderr


def test_map_unary_number_terms(toy_file, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["map", "--problem", toy_file, "--cutoffs", "3",
                 "--encoding", "unary", "--out", str(out)])
    assert code == 0
    text = (out / "toy_unary_pauli.txt").read_text()
    assert text.startswith("# problem=toy")
    lines = [l for l in text.splitlines() if not l.startswith(("#", "re,"))]
    # identity-transform single mode: number-operator image, weight <= 1
    for line in lines:
        string = line.split(",")[2]
        assert sum(c != "I" for c in string) <= 1
    stdout = capsys.readouterr().out
    assert "Pauli terms" in stdout


def test_map_stable_sort(so2_file, tmp_path):
    out = tmp_path / "out"
    main(["map", "--problem", so2_file, "--cutoffs", "2,2", "--out", str(out)])
    lines = [l for l in (out / "so2_so2_e_binary_pauli.txt").read_text().splitlines()
             if not l.startswith(("#", "re,"))]
    strings = [l.split(",")[2] for l in lines]
    assert strings == sorted(strings)


def test_converge_trivial_problem(toy_file, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["converge", "--problem", toy_file, "--vary-mode", "1",
                 "--l-cap", "6", "--out", str(out)])
    assert code == 0
    assert "L_max* = 1" in capsys.readouterr().out
    trace = (out / "toy_converge_trace.csv").read_text().splitlines()
    assert trace[0] == "l_max,successive_l1"


def test_converge_vary_mode_out_of_range(toy_file, tmp_path, capsys):
    code = main(["converge", "--problem", toy_file, "--vary-mode", "2",
                 "--out", str(tmp_path)])
    assert code == 2


def test_converge_cap_below_start_exit_2(so2_file, tmp_path, capsys):
    # used to end in "max() arg is an empty sequence" after running no cutoff
    code = main(["converge", "--problem", so2_file, "--vary-mode", "1",
                 "--l-cap", "0", "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "--l-cap 0" in err and "--l-start 1" in err


def test_converge_not_converged_exit_1(tmp_path, capsys):
    path = tmp_path / "d.json"
    path.write_text(json.dumps({
        "label": "disp", "omega_A": [800.0], "omega_B": [800.0],
        "S": [[1.0]], "delta": [2.0],
    }))
    code = main(["converge", "--problem", str(path), "--vary-mode", "1",
                 "--threshold", "1e-12", "--l-cap", "5", "--out", str(tmp_path)])
    assert code == 1
    assert "NOT converged" in capsys.readouterr().out


def test_compare_identical_files(toy_file, tmp_path, capsys):
    out = tmp_path / "out"
    main(["exact", "--problem", toy_file, "--cutoffs", "5", "--out", str(out)])
    spec = str(out / "toy_broadened.csv")
    assert main(["compare", spec, spec]) == 0
    assert "L1 = 0" in capsys.readouterr().out


def test_compare_missing_file_exit_2(tmp_path, capsys):
    code = main(["compare", str(tmp_path / "a.csv"), str(tmp_path / "b.csv")])
    assert code == 2


def _refused(argv, capsys, *named) -> None:
    """``main`` exits 2 with one ``error:`` line naming each of ``named``, and no traceback."""
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert all(name in err for name in named)


@pytest.mark.parametrize("anharmonic, named", [
    pytest.param(7, "'anharmonic'", id="not-a-list"),
    pytest.param([5], "anharmonic[0]", id="entry-not-an-object"),
    pytest.param([{"indices": 5, "coeff": 1.0}], "anharmonic[0]", id="indices-not-a-list"),
    pytest.param([{"indices": [1, 1, 2], "coeff": "x"}], "anharmonic[0]", id="coeff-text"),
    pytest.param([{"indices": [1, 1, 2], "coeff": [1]}], "anharmonic[0]", id="coeff-list"),
    pytest.param([{"indices": [1, 1, 2], "coeff": 1.0}, {"indices": [1, True, 2], "coeff": 1.0}],
                 "anharmonic[1]", id="index-true"),
])
def test_malformed_anharmonic_terms_exit_2(anharmonic, named, tmp_path, capsys):
    # JSON true is a bool, which Python counts as the integer 1: not an index
    doc = json.loads(serialize_problem(bundled_problem("so2")))
    path = tmp_path / "anharmonic.json"
    path.write_text(json.dumps({**doc, "anharmonic": anharmonic}))
    _refused(["exact", "--problem", str(path), "--cutoffs", "2", "--out", str(tmp_path / "out")],
             capsys, named)
    assert not (tmp_path / "out").exists()


def test_problem_file_not_utf8_exit_2(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"label": "SO₂ é"}'.encode("latin-1", errors="replace"))
    _refused(["exact", "--problem", str(path), "--cutoffs", "2", "--out", str(tmp_path)],
             capsys, str(path), "utf-8")


def test_problem_path_is_a_directory_exit_2(tmp_path, capsys):
    _refused(["qpe", "--problem", str(tmp_path), "--cutoffs", "2", "--out", str(tmp_path)],
             capsys, str(tmp_path), "directory")


def test_compare_path_is_a_directory_exit_2(toy_file, tmp_path, capsys):
    main(["exact", "--problem", toy_file, "--cutoffs", "2", "--out", str(tmp_path)])
    capsys.readouterr()
    _refused(["compare", str(tmp_path / "toy_broadened.csv"), str(tmp_path)], capsys,
             str(tmp_path), "directory")


def test_qpe_past_the_stick_solve_budget_names_the_law(so2_file, tmp_path, capsys):
    # D = 8,281: the phase map holds no dense copy of H, so the run's own
    # check refuses it, counting the stick solve's 16 D^2 bytes
    _refused(["qpe", "--problem", so2_file, "--cutoffs", "90,90", "--out", str(tmp_path)],
             capsys, "8281-state exact QPE law")


#: each command's arguments besides --problem and --out
_COMPUTING = {"exact": ["--cutoffs", "2"], "qpe": ["--cutoffs", "2"],
              "thermal": ["--cutoffs", "2", "--beta-invcm", "1e-3"], "map": ["--cutoffs", "2"],
              "converge": ["--vary-mode", "1"], "repro": []}


@pytest.mark.parametrize("command", _COMPUTING)
def test_out_names_an_existing_file_exit_2(command, toy_file, tmp_path, capsys, monkeypatch):
    # the output directory is refused before any computation starts
    def refuse(*args, **kwargs):
        pytest.fail(f"{command} computed before it checked --out")

    for module, name in ((cli.oracle, "spectrum_pipeline"), (cli.oracle, "converge_sweep"),
                         (cli, "run_qpe_problem"), (cli, "run_qpe_thermal"),
                         (cli, "map_second_quantized")):
        monkeypatch.setattr(module, name, refuse)
    out = tmp_path / "taken"
    out.write_text("kept\n")
    problem = ["--problem", toy_file] if command != "repro" else []
    _refused([command, *problem, *_COMPUTING[command], "--out", str(out)], capsys, str(out),
             "exists")
    assert out.read_text() == "kept\n"


@pytest.mark.parametrize("argv", [
    ["map", "--cutoffs", "2", "--route", "qp"],
    ["map", "--cutoffs", "2", "--sigma", "5"],
    ["qpe", "--cutoffs", "2", "--sigma", "5"],
    ["thermal", "--cutoffs", "2", "--sigma-convention", "fwhm"],
    ["exact", "--cutoffs", "2", "--jobs", "9"],
])
def test_unread_flags_rejected_exit_2(argv, toy_file):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--problem", toy_file])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["exact", "--cutoffs", "2", "--sigma", "nan"],
    ["exact", "--cutoffs", "2", "--sigma", "1e-300"],  # sigma^2 underflowed: nan rows
    ["exact", "--cutoffs", "2", "--sigma-convention", "fwhm", "--sigma", "3e-154"],
    ["exact", "--cutoffs", "2", "--sigma", "1e300"],  # kernel size printed as 300 digits
    ["exact", "--cutoffs", "2", "--sigma", "1e308"],  # 6 sigma overflowed the int cast
    ["qpe", "--cutoffs", "2", "--hist-width", "-5"],
    ["converge", "--vary-mode", "1", "--threshold", "nan"],
    ["qpe", "--cutoffs", "2", "--shots", "0"],
    ["qpe", "--cutoffs", "2", "--t", "-1"],
    ["qpe", "--cutoffs", "2", "--seed", "-1"],
    ["qpe", "--cutoffs", "2", "--seed", str(2**64)],
], ids=["sigma", "sigma-tiny", "sigma-tiny-fwhm", "sigma-huge", "sigma-overflow", "hist-width",
        "threshold", "shots", "t", "seed-negative", "seed-2**64"])
def test_bad_numeric_flags_exit_2(argv, toy_file, tmp_path, capsys):
    # each value used to end in a traceback or in silently wrong output
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--problem", toy_file, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert argv[-2] in err
    assert all(len(number) < 30 for number in re.findall(r"[\d.e+-]+", err))
    assert not (tmp_path / "out").exists()


#: tiny, subnormal, huge, boundary and invalid spellings of a float flag
_FLOATS = ["0", "-1", "5e-324", "1e-310", "2.2250738585072014e-308", "1e-300", "3e-154",
           "1e-12", "1e300", "1e308", "1.7976931348623157e308", "inf", "nan"]
#: boundary and out-of-range integers
_INTS = ["-1", "0", "1", "62", "63", "1000000000000", "1.5"]
#: ordinary values, drawn as often as the extreme ones; valid runs stay small and cheap
_TYPICAL = {"--sigma": ["100", "1"], "--t": ["4", "7"], "--shots": ["50", "2"],
            "--hist-width": ["1", "25"], "--beta-invcm": ["0.005", "1"],
            "--temperature-K": ["300", "1"]}


def _written_numbers(out: Path):
    """Every number in the CSV and JSON files under ``out``."""
    def walk(value):
        if isinstance(value, dict):
            for item in value.values():
                yield from walk(item)
        elif isinstance(value, list):
            for item in value:
                yield from walk(item)
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            yield float(value)

    for path in sorted(out.glob("*")):
        if path.suffix == ".json":
            yield from walk(json.loads(path.read_text()))
        elif path.suffix == ".csv":
            for row in path.read_text().splitlines()[1:]:
                yield from (float(field) for field in row.split(","))
        elif path.suffix == ".txt":  # a Pauli file: re,im,string rows after the header
            for row in path.read_text().splitlines():
                if not row.startswith(("#", "re,")):
                    yield from (float(field) for field in row.split(",")[:2])


def _main_quietly(argv) -> int:
    """``main``'s exit code, with stdout and stderr swallowed."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:  # argparse's usage error
            return exc.code


@st.composite
def _hostile_argv(draw):
    def value(flag):
        extreme = _INTS if flag in ("--t", "--shots") else _FLOATS
        return draw(st.one_of(st.sampled_from(_TYPICAL[flag]), st.sampled_from(extreme)))

    command = draw(st.sampled_from(["exact", "qpe", "thermal"]))
    argv = [command, "--cutoffs", draw(st.sampled_from(["1", "2", "1,2", "2,2"]))]
    if command == "exact":
        return argv + ["--sigma", value("--sigma"),
                       "--sigma-convention", draw(st.sampled_from(["stdev", "fwhm"]))]
    argv += ["--encoding", draw(st.sampled_from(["binary", "unary"]))]
    argv += [x for flag in ("--t", "--shots", "--hist-width") for x in (flag, value(flag))]
    if command == "thermal":
        flag = draw(st.sampled_from(["--beta-invcm", "--temperature-K"]))
        argv += [flag, value(flag)]
    return argv


@settings(max_examples=100, deadline=None, derandomize=True)
@given(argv=_hostile_argv())
@example(argv=["exact", "--cutoffs", "2", "--sigma", "1e308"])
@example(argv=["thermal", "--cutoffs", "2,2", "--t", "4", "--shots", "50", "--beta-invcm", "1e308"])
def test_numeric_flags_never_raise_warn_or_write_non_finite(argv):
    # exit 0, 1 or 2 for any value; no exception, no warning, no inf or nan in any file
    so2 = ROOT / "src" / "vibronic" / "data" / "so2.json"
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        out = Path(tmp) / "out"
        assert _main_quietly([*argv, "--problem", str(so2), "--out", str(out)]) in (0, 1, 2)
        assert all(math.isfinite(x) for x in _written_numbers(out))


#: tiny, subnormal and huge magnitudes of problem-file data
_EXTREMES = [1e-12, 1e-300, 1e-310, 5e-324, 1e100, 1e200, 1e300, 1.7976931348623157e308]


@st.composite
def _random_problem(draw):
    """(problem-file document, --cutoffs) with 1-2 modes, cutoffs <= 2 and a random orthogonal S.

    Each frequency and delta is drawn half from ordinary values (so2's) and
    half from the extremes.
    """
    n = draw(st.integers(1, 2))
    angle = draw(st.floats(-math.pi, math.pi))
    sign = draw(st.sampled_from([1.0, -1.0]))  # a rotation or a reflection
    s = ([[sign]] if n == 1 else
         [[math.cos(angle), -math.sin(angle)], [sign * math.sin(angle), sign * math.cos(angle)]])

    def values(ordinary, signed=False):
        magnitude = st.one_of(st.sampled_from(ordinary), st.sampled_from(_EXTREMES))
        if signed:
            magnitude = st.builds(lambda m, sg: sg * m, magnitude, st.sampled_from([1.0, -1.0]))
        return draw(st.lists(magnitude, min_size=n, max_size=n))

    doc = {"label": "random", "omega_A": values([943.3, 464.7]),
           "omega_B": values([1178.1, 518.8]), "S": s,
           "delta": values([0.0, 1.883, 0.4551], signed=True)}
    return doc, ",".join(str(draw(st.integers(1, 2))) for _ in range(n))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=_random_problem())
@example(case=({"label": "huge delta", "omega_A": [1000.0], "omega_B": [1000.0], "S": [[1.0]],
                "delta": [1e200]}, "2"))
@example(case=({"label": "tiny omega", "omega_A": [1e-300], "omega_B": [1e-300], "S": [[1.0]],
                "delta": [1.0]}, "2"))
@example(case=({"label": "bins past int64", "omega_A": [1e100], "omega_B": [1178.1],
                "S": [[1.0]], "delta": [0.0]}, "1"))
def test_problem_files_never_raise_warn_or_write_non_finite(case):
    # every route and the mapper on one drawn problem: exit 0, 1 or 2, no
    # exception, no warning, no inf or nan in any CSV, JSON or Pauli file
    doc, cutoffs = case
    sampling = ["--t", "4", "--shots", "50"]
    runs = [["exact"], ["qpe", *sampling], ["thermal", *sampling, "--temperature-K", "300"],
            ["map"]]
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        path = Path(tmp) / "problem.json"
        path.write_text(json.dumps(doc))
        for argv in runs:
            out = Path(tmp) / argv[0]
            argv = [*argv, "--problem", str(path), "--cutoffs", cutoffs, "--out", str(out)]
            assert _main_quietly(argv) in (0, 1, 2)
            assert all(math.isfinite(x) for x in _written_numbers(out))


def test_repro_rejects_route_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["repro", "--route", "qp"])
    assert exc.value.code == 2


def test_converge_held_spectra_bytes_checked_exit_2(so2_file, tmp_path, capsys, monkeypatch):
    # at sigma = 1e5 each cutoff's grid is 9.7 MB and broadening it is checked
    # at 39 MB.  The sweep holds one grid and each cutoff's occupied bins, so
    # all eight cutoffs fit a 40 MB budget; under 38 MB the first grid does not
    argv = ["converge", "--problem", so2_file, "--vary-mode", "1", "--fixed-cutoffs", "1",
            "--l-cap", "8", "--sigma", "1e5", "--threshold", "1e-300", "--out", str(tmp_path)]
    ref = converge_sweep_held(bundled_problem("so2"), 0, {1: 1}, 1e-300, 1, 8, "qp", 1e5)
    monkeypatch.setattr(fock, "MAX_DENSE_BYTES", 40_000_000)
    assert main(argv) == 1  # every cutoff ran; none converged at this threshold
    out, err = capsys.readouterr()
    assert "NOT converged within L_max cap 8" in out and err == ""
    for name, rows in (("converge_trace", ref.trace), ("l1_vs_exact", ref.vs_exact)):
        text = (tmp_path / f"so2_so2_e_{name}.csv").read_text().splitlines()[1:]
        assert text == [f"{l},{d:.10g}" for l, d in rows]
    monkeypatch.setattr(fock, "MAX_DENSE_BYTES", 38_000_000)
    assert main(argv) == 2
    assert "a 1.204e+06-point broadened grid" in capsys.readouterr().err


def test_one_fixed_cutoff_is_every_non_varied_modes(tmp_path, capsys):
    # --fixed-cutoffs takes one value for every non-varied mode, like
    # --cutoffs, and defaults to 10 for each
    problem = str(ROOT / "src" / "vibronic" / "data" / "so2_anharmonic.json")
    written = {}
    for flags in ([], ["--fixed-cutoffs", "10"], ["--fixed-cutoffs", "10,10"]):
        out = tmp_path / str(len(written))
        assert main(["converge", "--problem", problem, "--vary-mode", "1", "--l-cap", "3",
                     "--threshold", "1e-300", *flags, "--out", str(out)]) == 1
        written[" ".join(flags)] = ({p.name: p.read_bytes() for p in out.iterdir()},
                                    capsys.readouterr().out)
    assert len(written[""][0]) == 2
    assert written[""] == written["--fixed-cutoffs 10"] == written["--fixed-cutoffs 10,10"]
    assert written[""][1].count("L_max=") == 2
    assert main(["converge", "--problem", problem, "--vary-mode", "1",
                 "--fixed-cutoffs", "8,9,10", "--out", str(tmp_path)]) == 2
    assert "--fixed-cutoffs has 3 entries for 2 modes" in capsys.readouterr().err


def test_converge_bad_fixed_cutoffs_exit_2(so2_file, tmp_path, capsys):
    code = main(["converge", "--problem", so2_file, "--vary-mode", "1",
                 "--fixed-cutoffs", "x", "--out", str(tmp_path)])
    assert code == 2
    assert "--fixed-cutoffs" in capsys.readouterr().err


@pytest.mark.parametrize("row", ["100.0", "100.0,abc"])
def test_compare_malformed_row_exit_2(row, tmp_path, capsys):
    good = tmp_path / "good.csv"
    good.write_text("energy_cm1,density\n100.0,0.5\n")
    bad = tmp_path / "bad.csv"
    bad.write_text(f"energy_cm1,density\n100.0,0.5\n{row}\n")
    assert main(["compare", str(good), str(bad)]) == 2
    assert "bad.csv" in capsys.readouterr().err


@pytest.mark.parametrize("rows,other", [
    ("12,1\n11,2\n10,3\n", "12,1\n11,2\n10,4\n"),
    ("10,1\n11,0\n500,1\n", "10,1\n11,0\n12,1\n"),
], ids=["descending", "uneven"])
def test_compare_rejects_nonuniform_grid_exit_2(rows, other, tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("energy_cm1,density\n" + rows)
    (tmp_path / "other.csv").write_text("energy_cm1,density\n" + other)
    assert main(["compare", str(bad), str(tmp_path / "other.csv")]) == 2
    err = capsys.readouterr().err
    assert "bad.csv" in err and "uniform grid" in err


@pytest.mark.parametrize("rows_a,rows_b,message", [
    ("0,1\n1,nan\n2,1\n", "0,1\n1,1\n2,1\n", "a.csv: spectrum CSV has a non-finite value"),
    ("0,1\n1,1\n2,1\n", "0,1\n1,inf\n2,1\n", "b.csv: spectrum CSV has a non-finite value"),
    ("0,1e308\n1,1e308\n", "0,-1e308\n1,-1e308\n", "overflow a float sum"),
    ("1e15,1\n1000000000000001,1\n", "0,1\n1,1\n", "1e+15-point L1 union grid"),
    ("0,1\n1e-9,1\n", "0,1\n1e9,1\n", "1e+18-point L1 union grid"),
    ("0,1\n" + "1" * 200_000 + ",1\n", "0,1\n1,1\n", "a.csv: spectrum CSV is malformed"),
], ids=["nan", "inf", "overflow", "offset-1e15", "steps-1e-9-and-1e9", "field-past-csv-limit"])
def test_compare_refuses_non_finite_input_union_grid_and_l1_exit_2(rows_a, rows_b, message,
                                                                    tmp_path, capsys):
    # without the checks: L1 = nan or inf at exit 0, an overflow warning,
    # union grids of 16 PB and 40 EB asked of numpy, and the csv module's error
    for name, rows in (("a.csv", rows_a), ("b.csv", rows_b)):
        (tmp_path / name).write_text("energy_cm1,density\n" + rows)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["compare", str(tmp_path / "a.csv"), str(tmp_path / "b.csv")]) == 2
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""


#: ordinary, subnormal and huge magnitudes, beside every float hypothesis draws
_CSV_FLOATS = st.one_of(st.floats(), st.sampled_from(
    [0.0, 5e-324, 1e-9, 1.0, 1e9, 1e15, 1e308, -1e308, 1.7976931348623157e308]))


@st.composite
def _spectrum_csv(draw):
    """A spectrum CSV of 1-4 rows, on a drawn uniform grid half the time."""
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        start, step = draw(_CSV_FLOATS), draw(_CSV_FLOATS)
        energies = [start + k * step for k in range(n)]
    else:
        energies = draw(st.lists(_CSV_FLOATS, min_size=n, max_size=n))
    values = draw(st.lists(_CSV_FLOATS, min_size=n, max_size=n))
    return "energy_cm1,density\n" + "".join(f"{e!r},{v!r}\n" for e, v in zip(energies, values))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(a=_spectrum_csv(), b=_spectrum_csv())
@example(a="energy_cm1,density\n0,1e308\n1,1e308\n2,1e308\n",
         b="energy_cm1,density\n0.5,-1e308\n1.5,-1e308\n")
@example(a="energy_cm1,density\n1e15,1\n", b="energy_cm1,density\n0,1\n")
def test_compare_never_raises_warns_or_prints_non_finite(a, b):
    # exit 0 with a finite L1, or 2 with a message; a 1 MiB budget keeps every
    # union grid small
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(), \
            mock.patch.object(fock, "MAX_DENSE_BYTES", 1 << 20):
        warnings.simplefilter("error")
        paths = [str(Path(tmp) / name) for name in ("a.csv", "b.csv")]
        for path, text in zip(paths, (a, b)):
            Path(path).write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["compare", *paths])
    assert (code, err.getvalue().startswith("error: ")) in ((0, False), (2, True))
    if code == 0:
        assert math.isfinite(float(out.getvalue().removeprefix("L1 = ")))


@pytest.fixture(scope="module")
def so2_csv(tmp_path_factory):
    """Path maker for so2 `exact` outputs at (4,4), (6,5) and two qpe histograms."""
    tmp = tmp_path_factory.mktemp("so2_spectra")
    problem = tmp / "so2.json"
    problem.write_text(serialize_problem(bundled_problem("so2")))
    for cutoffs in ("4,4", "6,5"):
        main(["exact", "--problem", str(problem), "--cutoffs", cutoffs,
              "--out", str(tmp / cutoffs.replace(",", ""))])
    for seed in ("1", "2"):
        main(["qpe", "--problem", str(problem), "--cutoffs", "2,2", "--t", "8",
              "--shots", "2000", "--seed", seed, "--hist-width", "0.1",
              "--out", str(tmp / f"q{seed}")])
    return lambda d, kind: str(tmp / d / f"so2_so2_e_{kind}.csv")


def test_compare_rejects_sticks_exit_2(so2_csv, capsys):
    # sticks sit at eigenvalues, not on a uniform grid
    assert main(["compare", so2_csv("44", "sticks"), so2_csv("44", "broadened")]) == 2
    assert "so2_so2_e_sticks.csv" in capsys.readouterr().err


def test_compare_accepts_broadened_and_histograms(so2_csv, capsys):
    assert main(["compare", so2_csv("44", "broadened"), so2_csv("65", "broadened")]) == 0
    assert main(["compare", so2_csv("q1", "qpe_histogram"), so2_csv("q2", "qpe_histogram")]) == 0
    assert capsys.readouterr().out == "L1 = 1.4281423\nL1 = 0.0054\n"


@pytest.mark.parametrize("command,extra", [
    ("qpe", []),
    ("thermal", ["--temperature-K", "300"]),
])
def test_trotter_runs_anharmonic(command, extra, tmp_path):
    # the Trotter backend compiles the ladder-route terms the exact solve assembles
    path = tmp_path / "anharmonic.json"
    path.write_text(serialize_problem(bundled_problem("so2_anharmonic")))
    code = main([command, "--problem", str(path), "--cutoffs", "1,1,1", "--t", "6",
                 "--shots", "10", "--backend", "trotter:1:2", "--out", str(tmp_path), *extra])
    assert code == 0
    meta = json.loads((tmp_path / f"so2_so2_e_anharmonic_pes_{command}_metadata.json").read_text())
    assert meta["backend"] == "trotter" and meta["route"] == "ladder"


def test_map_compiles_anharmonic_terms(tmp_path):
    path = ROOT / "src" / "vibronic" / "data" / "so2_anharmonic.json"
    assert main(["map", "--problem", str(path), "--cutoffs", "3,3,3", "--out", str(tmp_path)]) == 0
    text = (tmp_path / "so2_so2_e_anharmonic_pes_binary_pauli.txt").read_text()
    # 521 ladder-route products, where the harmonic part alone has 25
    assert "# second_quantized_terms=521" in text.splitlines()


def test_output_dir_env_var(toy_file, tmp_path, monkeypatch):
    env_out = tmp_path / "envout"
    monkeypatch.setenv("VIBRONIC_OUTDIR", str(env_out))
    assert main(["exact", "--problem", toy_file, "--cutoffs", "4"]) == 0
    assert (env_out / "toy_sticks.csv").exists()


def test_repro_summary(tmp_path, capsys):
    # full truncation-error study: four molecules plus the anharmonic run
    out = tmp_path / "out"
    assert main(["repro", "--out", str(out)]) == 0
    lines = (out / "repro_summary.csv").read_text().strip().splitlines()
    assert lines[0] == "molecule,approx_l_max,l1,published_l1"
    rows = {l.split(",")[0]: l.split(",") for l in lines[1:]}
    assert float(rows["so2"][2]) == pytest.approx(0.208, abs=0.02)
    assert float(rows["no2"][2]) == pytest.approx(0.241, abs=0.02)
    assert float(rows["so2_anharmonic_vs_harmonic"][2]) > 0.1
    assert "published" in capsys.readouterr().out
