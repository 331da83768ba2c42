"""Tiny versions of each workload: run, record, check, and catch perturbations."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import check
import record
import run
import runner
from layers import METRICS
from workloads import RECORDED_SEED, TINY, WORKLOADS

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent


@pytest.fixture
def tiny_repro(monkeypatch):
    import vibronic.cli

    monkeypatch.setattr(vibronic.cli, "REPRO_RECIPE", {
        "so2": {"varied": 0, "fixed": {1: 3}, "exact": 6, "approx": 4, "target_l1": 0.2},
    })


def _record_and_run(workload, tmp_path, seed=RECORDED_SEED):
    """Record a tiny reference, rerun traced; returns (ops, reference, run dir, result)."""
    ops = TINY[workload]
    first = runner.run_pass(ops, tmp_path / "first", RECORDED_SEED)
    assert all(r["exit"] == 0 and r["error"] is None for r in first["ops"]), first
    ref = {"recorded_seed": RECORDED_SEED, "ops": {
        op.key: {"kind": op.kind, **record.record_op(op, tmp_path / "first" / op.key, tmp_path)}
        for op in ops
    }}
    second = runner.traced_pass(ops, tmp_path / "second", seed)
    return ops, ref, tmp_path / "second", second


def _problems(ops, ref, out, result, seed=RECORDED_SEED):
    return [problem for op, r in zip(ops, result["ops"])
            for problem in check.check_op(op, r, ref, out / op.key, seed)]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_workload_passes_its_checks_and_is_traced(workload, tmp_path, tiny_repro):
    ops, ref, out, result = _record_and_run(workload, tmp_path)
    assert _problems(ops, ref, out, result) == []
    layers = result["layers"]
    assert set(layers) == set(METRICS) - {"trace.overhead_s"}
    assert 0.9 < layers["trace.top_coverage"] <= 1.0 + 1e-9
    assert layers["cli.self_s"] > 0 and layers["problem.parse_s"] > 0


def test_qpe_other_seed_falls_back_to_tv(tmp_path):
    ops, ref, out, result = _record_and_run("qpe", tmp_path, seed=RECORDED_SEED + 1)
    assert _problems(ops, ref, out, result, seed=RECORDED_SEED + 1) == []


def test_checker_flags_one_moved_shot(tmp_path):
    ops, ref, out, result = _record_and_run("qpe", tmp_path)
    path = next((out / ops[0].key).glob("*_histogram.csv"))
    lines = path.read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    kept = int(rows[0][2])
    top = max(range(len(rows)), key=lambda i: float(rows[i][1]))
    rows[top][1] = f"{float(rows[top][1]) - 1.0 / kept:.10g}"
    rows.append([f"{float(rows[-1][0]) + 1.0:.10g}", f"{1.0 / kept:.10g}", rows[0][2]])
    path.write_text("\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n")
    problems = _problems(ops, ref, out, result)
    assert len(problems) == 1 and "bytes differ" in problems[0]


def test_checker_flags_l1_off_by_1e5(tmp_path, tiny_repro):
    ops, ref, out, result = _record_and_run("repro", tmp_path)
    path = out / "repro" / "repro_summary.csv"
    lines = path.read_text().splitlines()
    name, l_max, value, published = lines[1].split(",")
    lines[1] = ",".join([name, l_max, f"{float(value) + 1e-5:.6f}", published])
    path.write_text("\n".join(lines) + "\n")
    problems = _problems(ops, ref, out, result)
    assert len(problems) == 1 and "L1" in problems[0]


def test_checker_flags_a_changed_pauli_coefficient(tmp_path):
    ops, ref, out, result = _record_and_run("compile", tmp_path)
    path = next((out / ops[0].key).glob("*_pauli.txt"))
    lines = path.read_text().splitlines()
    re_part, rest = lines[-1].split(",", 1)
    lines[-1] = f"{float(re_part) * (1 + 1e-9) + 1e-9!r},{rest}"
    path.write_text("\n".join(lines) + "\n")
    problems = _problems(ops, ref, out, result)
    assert len(problems) == 1 and "coefficients" in problems[0]


def test_checker_flags_sweep_drift_and_exit_codes(tmp_path):
    ops, ref, out, result = _record_and_run("sweep", tmp_path)
    path = next((out / ops[0].key).glob("*_converge_trace.csv"))
    lines = path.read_text().splitlines()
    l_max, value = lines[-1].split(",")
    lines[-1] = f"{l_max},{float(value) * (1 + 1e-5):.10g}"
    path.write_text("\n".join(lines) + "\n")
    problems = _problems(ops, ref, out, result)
    assert len(problems) == 1 and "trace" in problems[0]
    failed = {"key": ops[0].key, "exit": 1, "error": None}
    assert check.check_op(ops[0], failed, ref, out / ops[0].key, RECORDED_SEED) == [
        f"{ops[0].key}: exit code 1"
    ]


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == list(METRICS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == METRICS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "qpe", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
