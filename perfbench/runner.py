"""One benchmark process: set up vibronic, then run one workload pass.

    python3 perfbench/runner.py {setup,pass} --out DIR --spawned-at T
        [--workload NAME --seed N --trace 0|1]

``run.py`` starts a fresh interpreter per set-up probe and per pass, with
the BLAS thread count already in its environment, because a CLI user pays
the interpreter start, the imports and the problem parsing on every call.
``--spawned-at`` is the parent's ``time.monotonic()`` just before the start;
CLOCK_MONOTONIC is system-wide, so set-up time includes interpreter start.
The result goes to ``DIR/result.json``; each operation writes its outputs,
stdout and stderr under ``DIR/<op key>/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

from workloads import BUNDLED, WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "src" / "vibronic" / "data"


def setup(spawned_at: float) -> float:
    """Import the package and parse every bundled problem; returns set-up seconds."""
    import vibronic.cli  # noqa: F401  (the CLI imports every layer)
    from vibronic.problem import bundled_problem

    for name in BUNDLED:
        bundled_problem(name)
    return time.monotonic() - spawned_at


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def run_op(op, out: Path, seed: int) -> dict:
    """One CLI invocation in this process; returns its exit code or error."""
    import vibronic.cli

    op_out = out / op.key
    op_out.mkdir(parents=True, exist_ok=True)
    argv = op.render(str(DATA), str(op_out), seed)
    error = None
    with open(op_out / "stdout.txt", "w") as so, open(op_out / "stderr.txt", "w") as se, \
            contextlib.redirect_stdout(so), contextlib.redirect_stderr(se):
        try:
            code = vibronic.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crashing operation is a failed operation, not a crashed pass
            code = None
            error = traceback.format_exc()
    return {"key": op.key, "exit": code, "error": error}


def run_pass(ops, out: Path, seed: int) -> dict:
    """Run the operations back to back; wall and CPU time exclude set-up."""
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    results = [run_op(op, out, seed) for op in ops]
    wall = time.perf_counter() - t0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    cpu = (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime)
    return {"wall_s": wall, "cpu_s": cpu, "ops": results}


def traced_pass(ops, out: Path, seed: int) -> dict:
    from layers import TARGETS, pass_metrics, span_table
    from spans import Recorder, install, uninstall

    recorder = Recorder()
    absent, undo = install(recorder, [(m, p, c) for m, p, _, c in TARGETS])
    try:
        result = run_pass(ops, out, seed)
    finally:
        uninstall(undo)
    result["layers"] = pass_metrics(recorder, result["wall_s"], absent)
    result["absent"] = absent
    result["span_table"] = span_table(recorder)
    result["spans"] = [[s.name, s.start, s.end, s.parent] for s in recorder.spans]
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "pass"))
    parser.add_argument("--out", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))

    out = Path(args.out)
    result = {"setup_s": setup(args.spawned_at)}
    import vibronic

    if not Path(vibronic.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"vibronic imported from {vibronic.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    if args.mode == "pass":
        ops = WORKLOADS[args.workload]
        result.update((traced_pass if args.trace else run_pass)(ops, out, args.seed))
    result["env"] = environment()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    (out / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
