"""Command-line front-end: ingestion -> build -> oracle/emulator -> analysis.

Exit codes: 0 success, 1 numerical-convergence warnings (sweep did not
converge or was non-monotone), 2 usage or validation errors.  Outputs are
deterministic for a fixed (config, seed); no timestamps are written.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import oracle
from .hamiltonian import hamiltonian_terms
from .fock import DenseBudgetError
from .mapping import (Encoding, QubitLayout, map_second_quantized, pauli_listing, pauli_rows,
                      resource_count)
from .problem import (
    ModeCutoffs,
    ProblemFormatError,
    ProblemValidationError,
    ThermalConfig,
    VibronicProblem,
    bundled_problem,
    load_problem,
    validate,
)
from .qpe import (
    MAX_T,
    EvolutionBackend,
    run_qpe_problem,
    run_qpe_thermal,
    thermal_angles,
)

OUTPUT_DIR_ENV = "VIBRONIC_OUTDIR"

#: Reproduction recipe for the four-molecule truncation-error study.
#: varied: the larger-displacement mode; fixed/exact/approx cutoffs were
#: derived by auxiliary sweeps (fixed mode converged, exact comfortably past
#: the varied mode's convergence point).  approx matches the published
#: under-truncated spectra when the published cutoff is read as the ladder
#: matrix dimension (levels 0..L-1).
REPRO_RECIPE = {
    "so2": {"varied": 0, "fixed": {1: 8}, "exact": 22, "approx": 9, "target_l1": 0.208},
    "h2o": {"varied": 1, "fixed": {0: 10}, "exact": 72, "approx": 44, "target_l1": 0.231},
    "d2o": {"varied": 1, "fixed": {0: 10}, "exact": 84, "approx": 56, "target_l1": 0.228},
    "no2": {"varied": 1, "fixed": {0: 36}, "exact": 88, "approx": 60, "target_l1": 0.241},
}
REPRO_ROUTE = "ladder"


class CliError(Exception):
    """Usage/validation failure carrying the message for stderr."""


def _levels(text: str, n_modes: int, flag: str) -> list[int]:
    """``flag``'s L_max per mode: a comma list of ``n_modes`` values, or one for every mode."""
    try:
        values = [int(p) for p in text.split(",") if p]
    except ValueError as exc:
        raise CliError(f"invalid {flag} {text!r}: {exc}") from exc
    if len(values) == 1:
        values = values * n_modes
    if len(values) != n_modes:
        raise CliError(f"{flag} has {len(values)} entries for {n_modes} modes: give 1 or {n_modes}")
    return values


def _parse_cutoffs(text: str, n_modes: int) -> ModeCutoffs:
    return ModeCutoffs(tuple(_levels(text, n_modes, "--cutoffs")))


def _positive_float(text: str) -> float:
    """argparse type: a finite float > 0."""
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {text!r}")
    return value


def _stdev(args) -> float:
    """--sigma read in --sigma-convention: the standard deviation the oracle broadens with."""
    return oracle.sigma_from_convention(args.sigma, args.sigma_convention)


def _int_range(lo: int, hi: float):
    """argparse type: an integer in [lo, hi]."""
    def integer(text: str) -> int:
        value = int(text)
        if not lo <= value <= hi:
            raise argparse.ArgumentTypeError(f"must be in [{lo}, {hi}], got {text!r}")
        return value
    return integer


def _parse_backend(text: str) -> EvolutionBackend:
    if text == "exact":
        return EvolutionBackend.exact()
    if text.startswith("trotter:"):
        try:
            _, order, steps = text.split(":")
            return EvolutionBackend.trotter(int(order), int(steps))
        except ValueError as exc:
            raise CliError(f"invalid --backend {text!r}; use trotter:ORDER:STEPS") from exc
    raise CliError(f"unknown backend {text!r}; use 'exact' or 'trotter:ORDER:STEPS'")


def _load(path: str) -> VibronicProblem:
    if not os.path.exists(path):
        raise CliError(f"problem file not found: {path}")
    try:
        return load_problem(path)
    except (OSError, UnicodeDecodeError) as exc:  # a directory, or not UTF-8 text
        raise CliError(f"cannot read problem file {path}: {exc}") from exc


def _out_dir(args) -> Path:
    out = args.out or os.environ.get(OUTPUT_DIR_ENV) or "."
    path = Path(out)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # an existing file, or a path under one
        raise CliError(f"cannot use output directory {out}: {exc}") from exc
    return path


def _slug(label: str) -> str:
    parts = "".join(c if c.isalnum() else " " for c in label).split()
    return "_".join(parts).lower()


def _thermal_config(args, problem: VibronicProblem) -> ThermalConfig:
    if args.beta_invcm is not None and args.temperature_k is not None:
        raise CliError("give either --beta-invcm or --temperature-K, not both")
    if args.beta_invcm is None and args.temperature_k is None:
        raise CliError("thermal command requires --beta-invcm or --temperature-K")
    flag = "--beta-invcm" if args.beta_invcm is not None else "--temperature-K"
    try:
        thermal = (ThermalConfig(beta=args.beta_invcm) if args.beta_invcm is not None
                   else ThermalConfig.from_temperature_kelvin(args.temperature_k))
        thermal_angles(problem, thermal.beta)
    except ValueError as exc:
        raise CliError(f"{flag}: {exc}") from exc
    return thermal


def cmd_exact(args) -> int:
    problem = _load(args.problem)
    report = validate(problem)
    cutoffs = _parse_cutoffs(args.cutoffs, problem.n_modes)
    out = _out_dir(args)
    sticks, binned, broad = oracle.spectrum_pipeline(problem, cutoffs, route=args.route,
                                                     sigma=_stdev(args))
    base = _slug(problem.label)
    header = "energy_cm1,intensity\r\n"
    oracle.write_csv(out / f"{base}_sticks.csv", header, sticks.energies, sticks.intensities)
    oracle.write_csv(out / f"{base}_binned.csv", header, binned.bin_centers, binned.values)
    oracle.write_csv(out / f"{base}_broadened.csv", "energy_cm1,density\r\n", broad.grid,
                     broad.values)
    meta = {
        "problem": problem.label,
        "cutoffs": list(cutoffs.levels),
        "route": args.route,
        "sigma": args.sigma,
        "sigma_convention": args.sigma_convention,
        "leakage": sticks.leakage,
        "total_intensity": sticks.total_intensity,
        "orthogonality_deviation": report.orthogonality_deviation,
        "validation_warnings": report.warnings,
    }
    (out / f"{base}_metadata.json").write_text(oracle.metadata_json(meta))
    print(f"wrote {base}_{{sticks,binned,broadened}}.csv to {out}")
    print(f"total intensity {sticks.total_intensity:.9f} (leakage {sticks.leakage:.3e})")
    return 0


def _sampling_inputs(args) -> tuple[VibronicProblem, ModeCutoffs, dict]:
    """(problem, cutoffs, keyword options) shared by the qpe and thermal commands."""
    problem = _load(args.problem)
    cutoffs = _parse_cutoffs(args.cutoffs, problem.n_modes)
    options = dict(t=args.t, shots=args.shots, encoding_variant=args.encoding,
                   backend=_parse_backend(args.backend), seed=args.seed, route=args.route)
    return problem, cutoffs, options


def cmd_qpe(args) -> int:
    problem, cutoffs, options = _sampling_inputs(args)
    out = _out_dir(args)
    return _write_sampled(out, args, problem, run_qpe_problem(problem, cutoffs, **options))


def cmd_thermal(args) -> int:
    problem, cutoffs, options = _sampling_inputs(args)
    thermal = _thermal_config(args, problem)
    out = _out_dir(args)
    return _write_sampled(out, args, problem,
                          run_qpe_thermal(problem, cutoffs, thermal=thermal, **options))


def _write_sampled(out: Path, args, problem: VibronicProblem, spectrum) -> int:
    base = f"{_slug(problem.label)}_{args.command}"
    hist = spectrum.histogram(width=args.hist_width)
    oracle.write_csv(out / f"{base}_histogram.csv", "energy_cm1,intensity,shots\n",
                     hist.bin_centers, hist.values, tail=f",{spectrum.shots}\n")
    meta = {
        "problem": problem.label,
        "phase_map": spectrum.phase_map.as_dict(),
        "shots": spectrum.shots,
        "seed": spectrum.seed,
        "histogram_bin_width": args.hist_width,
        **spectrum.metadata,
    }
    (out / f"{base}_metadata.json").write_text(oracle.metadata_json(meta))
    print(f"wrote {base}_histogram.csv to {out} ({spectrum.shots} shots)")
    return 0


def cmd_map(args) -> int:
    problem = _load(args.problem)
    cutoffs = _parse_cutoffs(args.cutoffs, problem.n_modes)
    encoding = Encoding(args.encoding, cutoffs)
    layout = QubitLayout.for_encoding(encoding)
    terms = hamiltonian_terms(problem, route="ladder")
    out = _out_dir(args)
    pauli = map_second_quantized(terms, encoding, layout)
    report = resource_count(pauli)
    header = {
        "problem": problem.label,
        "encoding": args.encoding,
        "cutoffs": ",".join(str(l) for l in cutoffs.levels),
        "qubits": layout.total_qubits,
        "second_quantized_terms": len(terms),
        "pauli_terms": len(pauli),
        "greedy_depth": report.greedy_depth,
    }
    path = out / f"{_slug(problem.label)}_{args.encoding}_pauli.txt"
    with open(path, "w") as fh:
        fh.writelines(pauli_listing(pauli, header))
    for block in pauli_rows(pauli, "(%+.6g%+.6gj)*%s\n"):
        print(block, end="")
    print(f"wrote {path} ({len(pauli)} Pauli terms on {layout.total_qubits} qubits)")
    return 0


def cmd_converge(args) -> int:
    if args.l_cap < args.l_start:
        raise CliError(f"--l-cap {args.l_cap} is below --l-start {args.l_start}")
    problem = _load(args.problem)
    varied = args.vary_mode - 1
    if not 0 <= varied < problem.n_modes:
        raise CliError(f"--vary-mode {args.vary_mode} out of range 1..{problem.n_modes}")
    others = [m for m in range(problem.n_modes) if m != varied]
    fixed = dict(zip(others, _levels(args.fixed_cutoffs, len(others), "--fixed-cutoffs")))
    out = _out_dir(args)
    result = oracle.converge_sweep(
        problem,
        varied,
        fixed,
        threshold=args.threshold,
        l_start=args.l_start,
        l_cap=args.l_cap,
        route=args.route,
        sigma=_stdev(args),
    )
    base = _slug(problem.label)
    for name, header, rows in (("converge_trace", "successive_l1", result.trace),
                               ("l1_vs_exact", "l1_vs_largest", result.vs_exact)):
        l_max, l1 = np.array(rows, dtype=float).reshape(-1, 2).T
        oracle.write_csv(out / f"{base}_{name}.csv", f"l_max,{header}\n", l_max, l1, tail="\n")
    print(f"varied mode {args.vary_mode} (1-based), threshold {args.threshold:g}")
    for l, d in result.trace:
        print(f"  L_max={l:3d}  successive L1 = {d:.3e}")
    if result.converged_l_max is None:
        print(f"NOT converged within L_max cap {args.l_cap}")
        return 1
    print(f"converged at L_max* = {result.converged_l_max}")
    if not result.monotone:
        print("warning: non-monotone convergence trace")
        return 1
    return 0


@np.errstate(over="ignore", invalid="ignore")  # an overflowing step or L1 is refused below
def cmd_compare(args) -> int:
    spectra = []
    for path in (args.spectrum_a, args.spectrum_b):
        if not os.path.exists(path):
            raise CliError(f"spectrum file not found: {path}")
        try:
            grid, values = oracle.read_spectrum_csv(Path(path).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:  # UnicodeDecodeError is a ValueError
            raise CliError(f"{path}: {exc}") from exc
        step = grid[1] - grid[0] if len(grid) > 1 else 1.0
        # .10g printing moves each energy by at most 5e-11 of max|E|
        atol = 1e-8 * np.abs(grid).max()
        if not (step > 0 and np.all(np.abs(np.diff(grid) - step) <= atol)):
            raise CliError(f"{path}: energies must ascend on one uniform grid")
        spectra.append(oracle.BroadenedSpectrum(grid_start=grid[0], grid_step=step, values=values))
    value = oracle.l1_distance(*spectra)
    if not math.isfinite(value):
        raise CliError(f"L1 = {value}: the spectra's values overflow a float sum")
    print(f"L1 = {value:.10g}")
    return 0


def cmd_repro(args) -> int:
    """Reproduce the truncation-error table and the anharmonic comparison."""
    out = _out_dir(args)
    sigma = _stdev(args)
    rows = []
    print("molecule  L1(under-truncated vs exact)  published")
    for name, recipe in REPRO_RECIPE.items():
        problem = bundled_problem(name)
        exact, approx = (
            oracle.spectrum_pipeline(
                problem, ModeCutoffs.one_varied(recipe["fixed"], recipe["varied"], l),
                route=REPRO_ROUTE, sigma=sigma)[2]
            for l in (recipe["exact"], recipe["approx"])
        )
        value = oracle.l1_distance(exact, approx)
        rows.append((name, recipe["approx"], value, recipe["target_l1"]))
        print(f"{name:8s}  {value:.4f} (approx L_max={recipe['approx']})"
              f"        {recipe['target_l1']:.3f}")

    anharm = bundled_problem("so2_anharmonic")
    cutoffs = ModeCutoffs((11, 8, 6))
    broad_anharm, broad_harm = (
        oracle.spectrum_pipeline(p, cutoffs, route="qp", sigma=sigma)[2]
        for p in (anharm, replace(anharm, anharmonic=()))
    )
    anharm_l1 = oracle.l1_distance(broad_anharm, broad_harm)
    print(f"anharmonic-vs-harmonic SO2 broadened L1 = {anharm_l1:.4f}")

    lines = ["molecule,approx_l_max,l1,published_l1"]
    lines += [f"{n},{l},{v:.6f},{t}" for n, l, v, t in rows]
    lines.append(f"so2_anharmonic_vs_harmonic,,{anharm_l1:.6f},")
    (out / "repro_summary.csv").write_text("\n".join(lines) + "\n")
    print(f"wrote {out / 'repro_summary.csv'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vibronic",
        description="Vibronic spectra via truncated Fock Hamiltonians and QPE emulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, problem=True, cutoffs=True, route=True, sigma=True):
        """Declare the shared flags that this subcommand reads."""
        if problem:
            p.add_argument("--problem", required=True, help="problem JSON file")
        if problem and cutoffs:
            p.add_argument("--cutoffs", required=True,
                           help="per-mode L_max list '13,20' or uniform '13'")
        if route:
            p.add_argument("--route", choices=("qp", "ladder"), default="qp")
        if sigma:
            p.add_argument("--sigma", type=_positive_float, default=oracle.DEFAULT_SIGMA,
                           help="Gaussian broadening width, cm^-1")
            p.add_argument("--sigma-convention", choices=("stdev", "fwhm"), default="stdev")
        p.add_argument("--out", default=None,
                       help=f"output directory (default ${OUTPUT_DIR_ENV} or .)")

    def sampling(p):
        p.add_argument("--encoding", choices=("binary", "unary"), default="binary")
        # the range PhaseMap accepts, checked here so the message names the flag
        p.add_argument("--t", type=_int_range(1, MAX_T), default=12, help="energy-register bits")
        p.add_argument("--shots", type=_int_range(1, math.inf), default=100000)
        p.add_argument("--seed", type=_int_range(0, 2**64 - 1), default=0)  # a Philox key
        p.add_argument("--backend", default="exact", help="'exact' or 'trotter:ORDER:STEPS'")
        p.add_argument("--hist-width", type=_positive_float, default=oracle.DEFAULT_BIN_WIDTH)

    p = sub.add_parser("exact", help="exact stick/binned/broadened spectra")
    common(p)
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("qpe", help="zero-temperature QPE sampling")
    common(p, sigma=False)
    sampling(p)
    p.set_defaults(func=cmd_qpe)

    p = sub.add_parser("thermal", help="finite-temperature QPE sampling")
    common(p, sigma=False)
    sampling(p)
    p.add_argument("--beta-invcm", type=float, default=None)
    p.add_argument("--temperature-K", dest="temperature_k", type=float, default=None)
    p.set_defaults(func=cmd_thermal)

    p = sub.add_parser("map", help="compile the ladder-route Hamiltonian to a Pauli-sum file")
    common(p, route=False, sigma=False)
    p.add_argument("--encoding", choices=("binary", "unary"), default="binary")
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("converge", help="varied-mode cutoff convergence sweep")
    common(p, cutoffs=False)
    p.add_argument("--vary-mode", type=int, required=True,
                   help="1-based index of the varied mode")
    p.add_argument("--threshold", type=_positive_float, default=1e-4)
    p.add_argument("--l-start", type=int, default=1)
    p.add_argument("--l-cap", type=int, default=100)
    p.add_argument("--fixed-cutoffs", default="10",
                   help="non-varied modes' L_max list '8,12' or uniform '10'")
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("compare", help="L1 distance between two spectrum CSV files")
    p.add_argument("spectrum_a")
    p.add_argument("spectrum_b")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("repro", help="reproduce the truncation-error study end to end")
    common(p, problem=False, route=False)
    p.set_defaults(func=cmd_repro)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if "sigma" in args:  # read in its convention: its variance and one-bin grid must suit it
        try:
            oracle.kernel_half_width(_stdev(args), oracle.DEFAULT_BIN_WIDTH, 1)
        except ValueError as exc:
            parser.error(f"argument --sigma: {args.sigma!r} as a {args.sigma_convention}: {exc}")
    try:
        return args.func(args)
    except (CliError, ProblemFormatError, ProblemValidationError, DenseBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
