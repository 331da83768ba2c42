"""Output checks: every operation's files against the recorded reference.

The reference (``reference.json`` plus ``reference/*.txt.gz``) was recorded
from the seed commit's own outputs by ``record.py``, not from the published
targets, so the acceptance suite's known misses do not count as failures
here.  The tolerances come from the ROADMAP gates:

* repro: each L1 in ``repro_summary.csv`` within 1e-6 (the file prints six
  decimals, so this is one unit in its last digit);
* sweep: the converged L* identical, the same cutoffs in the trace and in
  the L1-vs-largest curve, and every value within 1e-6 relative;
* qpe: at the recorded seed the histogram CSV is byte-identical; at any
  seed its 50 cm^-1 rebinning is within total variation 0.05 of the
  reference distribution (criterion 8);
* compile: the same Pauli string set, each coefficient within 1e-12
  (relative to max(1, |reference|)), and the same greedy depth.

Pure standard library, so the checks run in the parent process, outside
every timed interval.
"""

from __future__ import annotations

import csv
import gzip
import hashlib
import json
import math
import re
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

REPRO_L1_TOL = 1e-6
SWEEP_REL_TOL = 1e-6
QPE_TV_MAX = 0.05
QPE_TV_WIDTH = 50.0
QPE_TV_ORIGIN = -25.0
COMPILE_COEFF_TOL = 1e-12

_CONVERGED = re.compile(r"converged at L_max\* = (\d+)")


def load_reference(path: Path = REFERENCE) -> dict:
    return json.loads(path.read_text())


def _one(op_dir: Path, pattern: str) -> Path:
    found = sorted(op_dir.glob(pattern))
    if len(found) != 1:
        raise FileNotFoundError(f"expected one {pattern} in {op_dir.name}, found {len(found)}")
    return found[0]


def _rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as handle:
        return [row for row in csv.reader(handle) if row and not row[0].startswith("#")][1:]


# -- repro ---------------------------------------------------------------


def repro_values(op_dir: Path) -> dict[str, float]:
    return {row[0]: float(row[2]) for row in _rows(op_dir / "repro_summary.csv")}


def check_repro(ref: dict, op_dir: Path, seed: int, recorded_seed: int) -> list[str]:
    got = repro_values(op_dir)
    if set(got) != set(ref["l1"]):
        return [f"repro rows {sorted(got)} != {sorted(ref['l1'])}"]
    return [
        f"repro {name}: L1 {got[name]!r} vs reference {want!r}"
        for name, want in ref["l1"].items()
        if not abs(got[name] - want) <= REPRO_L1_TOL + 1e-12
    ]


# -- sweep ---------------------------------------------------------------


def sweep_values(op_dir: Path) -> dict:
    match = _CONVERGED.search((op_dir / "stdout.txt").read_text())
    return {
        "l_star": int(match.group(1)) if match else None,
        "trace": [[int(l), float(d)] for l, d in _rows(_one(op_dir, "*_converge_trace.csv"))],
        "vs_exact": [[int(l), float(d)] for l, d in _rows(_one(op_dir, "*_l1_vs_exact.csv"))],
    }


def check_sweep(ref: dict, op_dir: Path, seed: int, recorded_seed: int) -> list[str]:
    got = sweep_values(op_dir)
    problems = []
    if got["l_star"] != ref["l_star"]:
        problems.append(f"sweep L* {got['l_star']} vs reference {ref['l_star']}")
    for curve in ("trace", "vs_exact"):
        mine, want = got[curve], ref[curve]
        if [l for l, _ in mine] != [l for l, _ in want]:
            problems.append(f"sweep {curve} cutoffs differ")
            continue
        problems += [
            f"sweep {curve} L={l}: {d!r} vs reference {w!r}"
            for (l, d), (_, w) in zip(mine, want)
            if not abs(d - w) <= SWEEP_REL_TOL * abs(w)
        ]
    return problems


# -- qpe -----------------------------------------------------------------


def bin50(energies, weights) -> dict[int, float]:
    """Sum weights into the 50 cm^-1 bins of criterion 8 (edges at 25 + 50 k)."""
    out: dict[int, float] = {}
    for e, w in zip(energies, weights):
        k = math.floor((e - QPE_TV_ORIGIN) / QPE_TV_WIDTH)
        out[k] = out.get(k, 0.0) + w
    return out


def tv_distance(p: dict[int, float], q: dict[int, float]) -> float:
    sp, sq = sum(p.values()), sum(q.values())
    return 0.5 * sum(abs(p.get(k, 0.0) / sp - q.get(k, 0.0) / sq) for k in set(p) | set(q))


def histogram_bins(path: Path) -> dict[int, float]:
    rows = _rows(path)
    return bin50([float(r[0]) for r in rows], [float(r[1]) for r in rows])


def check_qpe(ref: dict, op_dir: Path, seed: int, recorded_seed: int) -> list[str]:
    path = _one(op_dir, "*_histogram.csv")
    problems = []
    if seed == recorded_seed:
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        if digest != ref["sha256"]:
            problems.append(f"qpe histogram bytes differ at the recorded seed {seed}")
    want = {int(k): v for k, v in ref["bins50"].items()}
    tv = tv_distance(histogram_bins(path), want)
    if not tv <= QPE_TV_MAX:
        problems.append(f"qpe TV(50 cm^-1) to the reference distribution {tv:.4f} > {QPE_TV_MAX}")
    return problems


# -- compile -------------------------------------------------------------


def pauli_terms(text: str) -> tuple[dict[str, str], dict[str, complex]]:
    header: dict[str, str] = {}
    terms: dict[str, complex] = {}
    for line in text.splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            header[key] = value
        elif line and not line.startswith("re,"):
            re_part, im_part, string = line.split(",")
            terms[string] = complex(float(re_part), float(im_part))
    return header, terms


def check_compile(ref: dict, op_dir: Path, seed: int, recorded_seed: int) -> list[str]:
    header, terms = pauli_terms(_one(op_dir, "*_pauli.txt").read_text())
    with gzip.open(HERE / ref["terms"], "rt") as handle:
        ref_header, ref_terms = pauli_terms(handle.read())
    problems = []
    if header.get("greedy_depth") != ref_header.get("greedy_depth"):
        problems.append(f"greedy_depth {header.get('greedy_depth')} vs "
                        f"reference {ref_header.get('greedy_depth')}")
    if set(terms) != set(ref_terms):
        problems.append(f"Pauli string sets differ ({len(set(terms) ^ set(ref_terms))} strings)")
        return problems
    bad = [s for s, c in ref_terms.items()
           if not abs(terms[s] - c) <= COMPILE_COEFF_TOL * max(1.0, abs(c))]
    if bad:
        problems.append(f"{len(bad)} Pauli coefficients off by more than {COMPILE_COEFF_TOL}, "
                        f"e.g. {bad[0]}")
    return problems


CHECKS = {"repro": check_repro, "sweep": check_sweep, "qpe": check_qpe, "compile": check_compile}


def check_op(op, result: dict, ref: dict, op_dir: Path, seed: int) -> list[str]:
    """Problems with one operation's run: exit code, crash, or outputs."""
    if result.get("error"):
        return [f"{op.key}: raised\n{result['error']}"]
    if result.get("exit") != 0:
        return [f"{op.key}: exit code {result.get('exit')}"]
    try:
        problems = CHECKS[op.kind](ref["ops"][op.key], op_dir, seed, ref["recorded_seed"])
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problems = [f"unreadable output: {exc!r}"]
    return [f"{op.key}: {p}" for p in problems]
