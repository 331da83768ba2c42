"""Benchmark command: replay one workload through ``vibronic.cli.main``.

    python3 perfbench/run.py --workload {repro,sweep,qpe,compile} --seed N \\
        --seconds S --trace {0,1} [--spans-out FILE]

Run from the root of a checkout.  Every pass (one run of the workload's
operations) happens in a fresh interpreter with the BLAS thread count pinned
in its environment; there are at least two passes, and more until the next
one would overrun ``--seconds``.  Every operation's exit code and output files are checked
against ``reference.json`` after its pass, outside the timed interval.

``--trace 0`` reports the end-to-end metrics: medians of the per-pass wall
time, CPU time and peak RSS, the median set-up time over several set-up-only
processes plus every pass process, and the share of operations that passed
their checks.  ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics of ``layers.py`` as medians over the traced
passes, with the tracing overhead as traced minus untraced median wall time.
The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from check import check_op, load_reference  # noqa: E402
from layers import COMPUTED, METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Set-up-only processes per untraced run, on top of one sample per pass.
SETUP_PROBES = 3
#: BLAS threads per process: two, or fewer on a smaller machine.
MAX_BLAS_THREADS = 2
#: Every process of a run ends within this many seconds of the run's start.
RUN_LIMIT_S = 170
END_TO_END = {
    "wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_ratio": "ratio",
}


class ChildFailed(RuntimeError):
    pass


def blas_threads() -> int:
    return max(1, min(MAX_BLAS_THREADS, len(os.sched_getaffinity(0))))


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


def spawn(mode: str, out: Path, env: dict, workload: str | None = None,
          seed: int = 0, trace: bool = False, timeout: float = RUN_LIMIT_S) -> dict:
    """Run one runner.py process to completion and return its result."""
    out.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "runner.py"), mode, "--out", str(out)]
    if workload is not None:
        cmd += ["--workload", workload, "--seed", str(seed), "--trace", str(int(trace))]
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{mode} process killed after {timeout:.0f} s") from exc
    result = out / "result.json"
    if proc.returncode != 0 or not result.is_file():
        raise ChildFailed(f"{mode} process exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(result.read_text())


def environment(threads: int, child: dict) -> dict:
    sha = None
    try:
        lines = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                               capture_output=True, text=True, timeout=10).stdout.split()
        if len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            sha = lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "vibronic").rglob("*")):
        if path.suffix in (".py", ".json"):
            digest.update(path.relative_to(ROOT).as_posix().encode() + path.read_bytes())
    cpu = "?"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"git_sha": sha, "src_sha256": digest.hexdigest()[:16], "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "threads": threads, **child}


def measure(workload: str, seed: int, seconds: float, trace: bool, tmp: Path) -> dict:
    """All passes of one run; returns samples, op counts and the environment."""
    deadline = time.monotonic() + RUN_LIMIT_S
    ops = WORKLOADS[workload]
    ref = load_reference()
    threads = blas_threads()
    env = child_env(threads)
    samples: dict[str, list] = defaultdict(list)
    run = {"attempted": 0, "failed": 0, "env": {}, "absent": [], "spans": None}
    if not trace:
        for i in range(SETUP_PROBES):
            result = spawn("setup", tmp / f"setup{i}", env, timeout=deadline - time.monotonic())
            samples["setup_s"].append(result["setup_s"])
    start = time.monotonic()
    longest = 0.0
    n = 0
    while True:
        traced = trace and n % 2 == 1
        out = tmp / f"pass{n}"
        began = time.monotonic()
        try:
            result = spawn("pass", out, env, workload, seed, traced,
                           timeout=deadline - time.monotonic())
        except ChildFailed as exc:
            result = None
            run["attempted"] += len(ops)
            run["failed"] += len(ops)
            print(f"pass {n} failed: {exc}")
        longest = max(longest, time.monotonic() - began)
        if result is not None:
            run["env"] = result["env"]
            for op, op_result in zip(ops, result["ops"]):
                problems = check_op(op, op_result, ref, out / op.key, seed)
                run["attempted"] += 1
                run["failed"] += bool(problems)
                for problem in problems:
                    print(f"CHECK FAILED {problem}")
            if traced:
                samples["traced_wall_s"].append(result["wall_s"])
                for name, value in result["layers"].items():
                    samples[name].append(value)
                run["absent"] = result["absent"]
                run["spans"] = {"span_table": result["span_table"], "spans": result["spans"]}
            else:
                for name in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb"):
                    samples[name].append(result[name])
        shutil.rmtree(out, ignore_errors=True)
        n += 1
        now = time.monotonic()
        if (n >= 2 and now - start + longest > seconds) or now + longest > deadline:
            break
    run["env"] = environment(threads, run["env"])
    run["samples"] = dict(samples)
    run["passes"] = n
    return run


def metrics_of(run: dict, trace: bool) -> dict:
    samples = run["samples"]
    if trace:
        if not samples.get("traced_wall_s") or not samples.get("wall_s"):
            raise ChildFailed("no complete traced and untraced pass pair")
        out = {name: statistics.median(samples[name]) for name in METRICS if name in samples}
        out["trace.overhead_s"] = (statistics.median(samples["traced_wall_s"])
                                   - statistics.median(samples["wall_s"]))
        return {name: {"value": out[name], "unit": METRICS[name][0]} for name in METRICS}
    if not samples.get("wall_s"):
        raise ChildFailed("no pass completed")
    out = {name: statistics.median(samples[name])
           for name in ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")}
    out["ok_ratio"] = 1.0 - run["failed"] / run["attempted"]
    return {name: {"value": out[name], "unit": unit} for name, unit in END_TO_END.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", help="write the last traced pass's spans here (JSON)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "vibronic" / "cli.py").is_file():
        print(f"error: no vibronic sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    trace = bool(args.trace)
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        run = measure(args.workload, args.seed, args.seconds, trace, tmp)
        metrics = metrics_of(run, trace)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}: {run['passes']} passes, "
          f"{run['attempted']} operations checked, {run['failed']} failed")
    for name, series in sorted(run["samples"].items()):
        print(f"  {name}: " + " ".join(f"{v:.6g}" for v in series))
    print("env " + json.dumps(run["env"], sort_keys=True))
    if trace:
        print("absent wrap targets: " + (", ".join(run["absent"]) or "none"))
        print("computed from sizes, not measured: " + ", ".join(COMPUTED))
        print(f"  {'span':36s} {'calls':>6s} {'total_s':>10s} {'self_s':>10s}")
        for name, calls, total, own in run["spans"]["span_table"]:
            print(f"  {name:36s} {calls:6d} {total:10.4f} {own:10.4f}")
        if args.spans_out:
            Path(args.spans_out).write_text(json.dumps(run["spans"]))
    print(json.dumps({"correct": run["failed"] == 0, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
