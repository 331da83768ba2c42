"""Record the reference outputs that check.py compares every run against.

    python3 perfbench/record.py

Runs each workload once at the recorded seed through the same runner the
benchmark uses, and stores what the checks need: the repro L1 table, the
sweep L* and traces, the histogram digests and 50 cm^-1 reference
distributions for qpe, and the compiled Pauli files (gzipped) for compile.
Run it only on a commit whose outputs are the reference; the stored files
were recorded at the seed commit of the benchmark.

The qpe reference distribution is the emulator's own: for the
zero-temperature runs its exact pre-measurement outcome distribution,
decoded through the phase map the CLI chose (read from its metadata file);
for the thermal run, which exposes no such distribution, the same CLI run
with 20 times the shots at another seed.  The Franck-Condon oracle is not
used: with the CLI's Gershgorin phase map the QPE kernel's leakage alone
puts binary (10,10) at TV 0.26 from it.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
from check import HERE, REFERENCE, bin50, repro_values, sweep_values
from workloads import RECORDED_SEED, WORKLOADS

THERMAL_SHOT_FACTOR = 20


def qpe_distribution(argv: list[str], metadata: dict) -> dict[int, float]:
    import numpy as np
    from vibronic import cli
    from vibronic.hamiltonian import build_hamiltonian, ladder_terms
    from vibronic.mapping import Encoding, QubitLayout, map_second_quantized
    from vibronic.problem import ThermalConfig, load_problem
    from vibronic.qpe import PhaseMap, run_qpe, run_qpe_thermal

    args = cli.build_parser().parse_args(argv)
    problem = load_problem(args.problem)
    cutoffs = cli._parse_cutoffs(args.cutoffs, problem.n_modes)
    backend = cli._parse_backend(args.backend)
    if args.command == "thermal":
        thermal = ThermalConfig.from_temperature_kelvin(args.temperature_k)
        spectrum = run_qpe_thermal(
            problem, cutoffs, t=args.t, shots=THERMAL_SHOT_FACTOR * args.shots,
            thermal=thermal, encoding_variant=args.encoding, backend=backend,
            seed=args.seed + 1000, route=args.route,
        )
        return bin50(spectrum.energies, np.ones(len(spectrum.energies)))
    encoding = Encoding(args.encoding, cutoffs)
    pauli = None
    route = args.route
    if backend.kind == "trotter":
        route = "ladder"
        pauli = map_second_quantized(ladder_terms(problem), encoding,
                                     QubitLayout.for_encoding(encoding))
    h = build_hamiltonian(problem, cutoffs, route=route).hamiltonian
    pm = metadata["phase_map"]
    phase_map = PhaseMap(tau=pm["tau"], energy_shift=pm["energy_shift"], t=pm["t"])
    _, probs = run_qpe(h, encoding, args.t, 1, backend=backend, phase_map=phase_map,
                       pauli_hamiltonian=pauli, return_distribution=True)
    return bin50(phase_map.energy(np.arange(len(probs))), probs)


def record_op(op, op_dir: Path, target: Path) -> dict:
    if op.kind == "repro":
        return {"l1": repro_values(op_dir)}
    if op.kind == "sweep":
        return sweep_values(op_dir)
    if op.kind == "qpe":
        histogram = next(op_dir.glob("*_histogram.csv"))
        metadata = json.loads(next(op_dir.glob("*_metadata.json")).read_text())
        argv = op.render(str(run.ROOT / "src" / "vibronic" / "data"), str(op_dir), RECORDED_SEED)
        bins = qpe_distribution(argv, metadata)
        return {"sha256": hashlib.sha256(histogram.read_bytes()).hexdigest(),
                "bins50": {str(k): v for k, v in sorted(bins.items())}}
    if op.kind == "compile":
        name = f"{op.key}.txt.gz"
        with gzip.GzipFile(target / name, "wb", mtime=0) as handle:
            handle.write(next(op_dir.glob("*_pauli.txt")).read_bytes())
        path = target / name
        return {"terms": str(path.relative_to(HERE) if path.is_relative_to(HERE) else path)}
    raise ValueError(f"unknown check kind {op.kind!r}")


def record(workloads: dict, target: Path, reference: Path) -> dict:
    sys.path.insert(0, str(run.ROOT / "src"))
    env = run.child_env(run.blas_threads())
    target.mkdir(parents=True, exist_ok=True)
    ref = {"recorded_seed": RECORDED_SEED, "ops": {}}
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT))
    try:
        for workload, ops in workloads.items():
            out = tmp / workload
            result = run.spawn("pass", out, env, workload, RECORDED_SEED)
            for op, op_result in zip(ops, result["ops"]):
                if op_result["exit"] != 0 or op_result["error"]:
                    raise RuntimeError(f"{op.key} failed: {op_result}")
                ref["ops"][op.key] = {"kind": op.kind, **record_op(op, out / op.key, target)}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    reference.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return ref


if __name__ == "__main__":
    record(WORKLOADS, HERE / "reference", REFERENCE)
