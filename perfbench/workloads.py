"""The benchmark's fixed workloads, as argument lists for ``vibronic.cli.main``.

Each workload is a list of operations.  An operation is one CLI invocation:
a key that names it in the reference file, the check kind applied to its
outputs, and the argv.  ``{out}`` and ``{seed}`` in an argv are filled in per
run; ``{data}`` is the directory of the bundled problem files.

Only ``qpe`` uses the workload seed (as the sampling seed); the other three
workloads are deterministic.  ``tiny`` variants keep the same operations on
inputs small enough for the benchmark's own smoke tests.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Problems parsed during set-up, as every CLI process pays for them.
BUNDLED = ("so2", "h2o", "d2o", "no2", "so2_anharmonic")

#: Sampling seed whose histogram bytes are recorded in the reference file.
RECORDED_SEED = 7

QPE_SHOTS = "100000"


@dataclass(frozen=True)
class Op:
    key: str
    kind: str
    argv: tuple[str, ...]

    def render(self, data: str, out: str, seed: int) -> list[str]:
        return [a.format(data=data, out=out, seed=seed) for a in self.argv]


def _converge(key: str, problem: str, vary: int, fixed: int, start: int, cap: int) -> Op:
    return Op(key, "sweep", (
        "converge", "--problem", f"{{data}}/{problem}.json", "--route", "ladder",
        "--vary-mode", str(vary), "--fixed-cutoffs", str(fixed),
        "--l-start", str(start), "--l-cap", str(cap), "--out", "{out}",
    ))


def _sample(key: str, command: str, cutoffs: str, encoding: str, t: int,
            shots: str, *extra: str) -> Op:
    return Op(key, "qpe", (
        command, "--problem", "{data}/so2.json", "--cutoffs", cutoffs,
        "--encoding", encoding, "--t", str(t), "--shots", shots,
        "--seed", "{seed}", "--out", "{out}", *extra,
    ))


def _map(key: str, problem: str, cutoffs: str, encoding: str) -> Op:
    return Op(key, "compile", (
        "map", "--problem", f"{{data}}/{problem}.json", "--cutoffs", cutoffs,
        "--encoding", encoding, "--out", "{out}",
    ))


WORKLOADS: dict[str, list[Op]] = {
    # The paper's headline study: 10 dense solves up to D = 3,293.
    "repro": [Op("repro", "repro", ("repro", "--out", "{out}"))],
    # Criterion 2's windows minus no2 (which alone takes 25 s): 50 small solves.
    "sweep": [
        _converge("so2", "so2", 1, 8, 1, 24),
        _converge("h2o", "h2o", 2, 10, 48, 68),
        _converge("d2o", "d2o", 2, 10, 62, 80),
    ],
    # The QPE emulator: exact ladder in both encodings, Trotter, thermal.
    "qpe": [
        _sample("qpe_binary_10", "qpe", "10,10", "binary", 12, QPE_SHOTS),
        _sample("qpe_unary_4", "qpe", "4,4", "unary", 12, QPE_SHOTS),
        _sample("qpe_unary_3_trotter", "qpe", "3,3", "unary", 12, QPE_SHOTS,
                "--backend", "trotter:2:8"),
        _sample("thermal_binary_3", "thermal", "3,3", "binary", 10, QPE_SHOTS,
                "--temperature-K", "300"),
    ],
    # The boson-to-qubit compiler, which qpe barely exercises.
    "compile": [
        _map("h2o_binary_31", "h2o", "31,31", "binary"),
        _map("so2_unary_31", "so2", "31,31", "unary"),
    ],
}

#: Same operations on so2-sized inputs; ``repro`` has no size options, so its
#: smoke test shrinks the recipe instead (see the tests).
TINY: dict[str, list[Op]] = {
    "repro": WORKLOADS["repro"],
    "sweep": [_converge("so2", "so2", 1, 2, 1, 24)],
    "qpe": [
        _sample("qpe_binary_10", "qpe", "3,3", "binary", 6, "20000"),
        _sample("qpe_unary_3_trotter", "qpe", "2,2", "unary", 6, "20000",
                "--backend", "trotter:2:2"),
        _sample("thermal_binary_3", "thermal", "1,1", "binary", 10, "20000",
                "--temperature-K", "300"),
    ],
    "compile": [_map("so2_unary_31", "so2", "3,3", "unary")],
}
