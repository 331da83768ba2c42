"""Which vibronic functions the traced run wraps, and the per-layer metrics.

Layers are the ``src/vibronic/`` modules.  Each wrapped function's span self
time is added to one layer metric; counters are read from arguments and
results after the span has closed, inside a ``trace.count`` span that no
layer is charged for.  Counts marked computed are derived from sizes
(D^3, 8 D^2, 16 * 2^t * 2^n_s), not measured.
"""

from __future__ import annotations

from collections import defaultdict

from spans import COUNT_SPAN, Recorder, self_times


def _count_build(rec: Recorder, args, kwargs, report) -> None:
    matrix = report.hamiltonian.matrix
    nnz = matrix.nnz if hasattr(matrix, "nnz") else int((matrix != 0).sum())
    rec.add("hamiltonian.builds", 1)
    rec.add("hamiltonian.dim_sum", report.space.dimension)
    rec.add("hamiltonian.nnz_sum", nnz)


def _count_eig(rec: Recorder, args, kwargs, result) -> None:
    d = (args[0] if args else kwargs["h"]).space.dimension
    rec.add("oracle.eigensolves", 1)
    rec.add("oracle.eig_work", d**3)
    rec.maximum("oracle.dense_bytes_max", 8 * d * d)


def _count_sweep(rec: Recorder, args, kwargs, result) -> None:
    rec.add("oracle.sweep_useful", len(result.trace) + 1)


def _count_map(rec: Recorder, args, kwargs, pauli) -> None:
    rec.add("mapping.pauli_terms", len(pauli))
    rec.add("mapping.qubits", pauli.n_qubits)


def _count_resources(rec: Recorder, args, kwargs, report) -> None:
    rec.add("mapping.greedy_depth", report.greedy_depth)


def _sampled(rec: Recorder, result, register_dim) -> None:
    spectrum = result[0] if isinstance(result, tuple) else result
    n_s = spectrum.metadata["system_qubits"]
    t = spectrum.metadata["t"]
    rec.add("qpe.shots", spectrum.shots)
    rec.add("qpe.kept", len(spectrum.energies))
    rec.maximum("qpe.state_bytes", 16 * 2**t * register_dim(n_s))
    rec.maximum("qpe.unitary_bytes", 16 * 4**n_s)


def _count_qpe(rec: Recorder, args, kwargs, result) -> None:
    _sampled(rec, result, lambda n_s: 2**n_s)


def _count_thermal(rec: Recorder, args, kwargs, result) -> None:
    _sampled(rec, result, lambda n_s: 4**n_s)


#: (module, attribute path, layer metric, counter)
TARGETS = [
    ("vibronic.problem", "parse_problem", "problem.parse_s", None),
    ("vibronic.problem", "load_problem", "problem.parse_s", None),
    ("vibronic.problem", "bundled_problem", "problem.parse_s", None),
    ("vibronic.hamiltonian", "build_hamiltonian", "hamiltonian.build_s", _count_build),
    ("vibronic.hamiltonian", "ladder_terms", "hamiltonian.ladder_terms_s", None),
    ("vibronic.oracle", "eigensolve", "oracle.eigensolve_s", _count_eig),
    ("vibronic.oracle", "spectrum_pipeline", "oracle.pipeline_self_s", None),
    ("vibronic.oracle", "diagonalize_fcp", "oracle.pipeline_self_s", None),
    ("vibronic.oracle", "bin_spectrum", "oracle.bin_broaden_s", None),
    ("vibronic.oracle", "broaden", "oracle.bin_broaden_s", None),
    ("vibronic.oracle", "l1_distance", "oracle.l1_s", None),
    ("vibronic.oracle", "converge_sweep", "oracle.sweep_self_s", _count_sweep),
    ("vibronic.mapping", "map_second_quantized", "mapping.map_s", _count_map),
    ("vibronic.mapping", "resource_count", "mapping.resource_s", _count_resources),
    ("vibronic.mapping", "pauli_sum_to_text", "mapping.text_s", None),
    ("vibronic.mapping", "pauli_to_matrix", "mapping.pauli_to_matrix_s", None),
    ("vibronic.qpe", "run_qpe_problem", "qpe.run_self_s", None),
    ("vibronic.qpe", "run_qpe", "qpe.run_self_s", _count_qpe),
    ("vibronic.qpe", "run_qpe_thermal", "qpe.thermal_self_s", _count_thermal),
    ("vibronic.qpe", "prepare_thermal", "qpe.prepare_thermal_s", None),
    ("vibronic.qpe", "trotter_step_unitary", "qpe.trotter_s", None),
    ("vibronic.qpe", "trotter_unitary", "qpe.trotter_s", None),
    ("vibronic.qpe", "shot_uniforms", "qpe.sample_s", None),
    ("vibronic.qpe", "choose_phase_map", "qpe.phase_map_s", None),
    ("vibronic.qpe", "SampledSpectrum.histogram", "qpe.histogram_s", None),
    ("vibronic.cli", "main", "cli.self_s", None),
    *[("vibronic.cli", f"cmd_{name}", "cli.self_s", None)
      for name in ("exact", "qpe", "thermal", "map", "converge", "compare", "repro")],
]

SPAN_METRIC = {f"{m.rsplit('.', 1)[-1]}.{path}": metric for m, path, metric, _ in TARGETS}

#: Per-layer metrics: name -> (unit, better).  Order is the report order.
METRICS = {
    "problem.parse_s": ("s", "lower"),
    "hamiltonian.build_s": ("s", "lower"),
    "hamiltonian.ladder_terms_s": ("s", "lower"),
    "hamiltonian.builds": ("count", "lower"),
    "hamiltonian.dim_sum": ("count", "lower"),
    "hamiltonian.nnz_sum": ("count", "lower"),
    "oracle.eigensolve_s": ("s", "lower"),
    "oracle.pipeline_self_s": ("s", "lower"),
    "oracle.bin_broaden_s": ("s", "lower"),
    "oracle.l1_s": ("s", "lower"),
    "oracle.sweep_self_s": ("s", "lower"),
    "oracle.eigensolves": ("count", "lower"),
    "oracle.eig_work": ("count", "lower"),
    "oracle.dense_bytes_max": ("B", "lower"),
    "oracle.sweep_solves": ("count", "lower"),
    "oracle.sweep_useful_ratio": ("ratio", "higher"),
    "mapping.map_s": ("s", "lower"),
    "mapping.resource_s": ("s", "lower"),
    "mapping.text_s": ("s", "lower"),
    "mapping.pauli_to_matrix_s": ("s", "lower"),
    "mapping.pauli_terms": ("count", "lower"),
    "mapping.qubits": ("count", "lower"),
    "mapping.greedy_depth": ("count", "lower"),
    "qpe.run_self_s": ("s", "lower"),
    "qpe.trotter_s": ("s", "lower"),
    "qpe.thermal_self_s": ("s", "lower"),
    "qpe.prepare_thermal_s": ("s", "lower"),
    "qpe.sample_s": ("s", "lower"),
    "qpe.phase_map_s": ("s", "lower"),
    "qpe.histogram_s": ("s", "lower"),
    "qpe.shots": ("count", "higher"),
    "qpe.kept_ratio": ("ratio", "higher"),
    "qpe.state_bytes": ("B", "lower"),
    "qpe.unitary_bytes": ("B", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.top_coverage": ("ratio", "higher"),
    "trace.absent_targets": ("count", "lower"),
    "trace.counter_errors": ("count", "lower"),
    "trace.spans": ("count", "lower"),
}

#: Counts derived from sizes rather than measured.
COMPUTED = ("oracle.eig_work", "oracle.dense_bytes_max", "qpe.state_bytes", "qpe.unitary_bytes")

#: Counters passed through unchanged.
_COUNTERS = (
    "hamiltonian.builds", "hamiltonian.dim_sum", "hamiltonian.nnz_sum",
    "oracle.eigensolves", "oracle.eig_work", "oracle.dense_bytes_max",
    "mapping.pauli_terms", "mapping.qubits", "mapping.greedy_depth",
    "qpe.shots", "qpe.state_bytes", "qpe.unitary_bytes",
)


def pass_metrics(recorder: Recorder, wall: float, absent: list[str]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (everything but trace.overhead_s)."""
    spans = recorder.spans
    out: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        metric = SPAN_METRIC.get(span.name)
        if metric is not None:
            out[metric] += own
    for name in _COUNTERS:
        out[name] = recorder.counters.get(name, 0.0)
    solves = 0
    for i, span in enumerate(spans):
        if span.name == "oracle.spectrum_pipeline" and _inside(spans, i, "oracle.converge_sweep"):
            solves += 1
    out["oracle.sweep_solves"] = solves
    useful = recorder.counters.get("oracle.sweep_useful", 0.0)
    out["oracle.sweep_useful_ratio"] = useful / solves if solves else 0.0
    shots = recorder.counters.get("qpe.shots", 0.0)
    out["qpe.kept_ratio"] = recorder.counters.get("qpe.kept", 0.0) / shots if shots else 0.0
    top = sum(s.duration for s in spans if s.parent < 0)
    out["trace.wall_s"] = wall
    out["trace.top_coverage"] = top / wall if wall > 0 else 0.0
    out["trace.absent_targets"] = len(absent)
    out["trace.counter_errors"] = recorder.counter_errors
    out["trace.spans"] = sum(1 for s in spans if s.name != COUNT_SPAN)
    return {name: float(out[name]) for name in METRICS if name != "trace.overhead_s"}


def _inside(spans, index: int, name: str) -> bool:
    parent = spans[index].parent
    while parent >= 0:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


def span_table(recorder: Recorder) -> list[tuple[str, int, float, float]]:
    """(span name, calls, total s, self s) per span name, largest self first."""
    rows: dict[str, list] = {}
    spans = recorder.spans
    for span, own in zip(spans, self_times(spans)):
        row = rows.setdefault(span.name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += span.duration
        row[2] += own
    return sorted(((n, c, t, s) for n, (c, t, s) in rows.items()), key=lambda r: -r[3])
