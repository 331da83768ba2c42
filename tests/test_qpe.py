import functools
import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from dense_reference import (controlled_power_state, outcome_distribution, qpe_kernel_sq,
                             render, thermofield_matrix, trotter_register_step,
                             trotter_register_unitary)
from hypothesis import given, settings
from hypothesis import strategies as st

from vibronic import fock, oracle, qpe
from vibronic.fock import MAX_DENSE_BYTES, DenseBudgetError, ManyBodyOperator
from vibronic.hamiltonian import build_hamiltonian, hamiltonian_terms, ladder_terms
from vibronic.mapping import (
    Encoding,
    PauliSum,
    QubitLayout,
    codespace_indices,
    invariant_sector,
    map_second_quantized,
    pauli_masks,
    pauli_to_matrix,
    sector_states,
)
from vibronic.oracle import rebin, tv_distance
from vibronic.problem import ModeCutoffs, ThermalConfig, VibronicProblem, bundled_problem
from vibronic.qpe import (
    EvolutionBackend,
    PhaseMap,
    choose_phase_map,
    fock_state_energy,
    gershgorin_bounds,
    prepare_thermal,
    run_qpe,
    run_qpe_problem,
    run_qpe_thermal,
    shot_uniforms,
    thermal_angles,
    trotter_step_unitary,
    trotter_unitary,
)


def toy_problem(delta=0.0, omega=1000.0):
    return VibronicProblem("toy", [omega], [omega], [[1.0]], [delta])


def diag_h(values):
    space = ModeCutoffs((len(values) - 1,))
    return ManyBodyOperator(space, np.diag(values).astype(complex))


def _aligned(a, b):
    lo = min(a.first_bin, b.first_bin)
    hi = max(a.first_bin + len(a.values), b.first_bin + len(b.values))
    pa = np.zeros(hi - lo)
    pb = np.zeros(hi - lo)
    pa[a.first_bin - lo : a.first_bin - lo + len(a.values)] = a.values
    pb[b.first_bin - lo : b.first_bin - lo + len(b.values)] = b.values
    return pa, pb


# -- phase map ----------------------------------------------------------


def test_phase_map_resolution_and_decode():
    pmap = PhaseMap(tau=0.01, energy_shift=50.0, t=8)
    assert pmap.resolution == pytest.approx(2 * math.pi / (0.01 * 256))
    j = np.arange(256)
    back = pmap.phase(pmap.energy(j)) * 256
    assert np.allclose(back, j, atol=1e-9)


def test_choose_phase_map_psd_no_shift():
    # harmonic H is a sum of squares; the builder-level entry points pass the
    # tight PSD lower bound of 0 so no shift is applied
    rep = build_hamiltonian(bundled_problem("so2"), ModeCutoffs((6, 6)))
    pmap = choose_phase_map(rep.hamiltonian, t=10, lower_bound=0.0)
    assert pmap.energy_shift == 0.0
    evals = np.linalg.eigvalsh(rep.hamiltonian.to_dense().real)
    phases = pmap.phase(evals)
    assert phases.min() >= 0.0 and phases.max() < 1.0


def test_choose_phase_map_bounds_contain_spectrum():
    rng = np.random.default_rng(0)
    m = rng.normal(size=(12, 12))
    h = ManyBodyOperator(ModeCutoffs((11,)), (m + m.T).astype(complex))
    lo, hi = gershgorin_bounds(h)
    evals = np.linalg.eigvalsh(h.to_dense().real)
    assert lo <= evals.min() and evals.max() <= hi
    pmap = choose_phase_map(h, t=6)
    phases = pmap.phase(evals)
    assert phases.min() >= 0.0 and phases.max() < 1.0


def test_choose_phase_map_anharmonic_negative_artifacts():
    p = bundled_problem("so2_anharmonic")
    rep = build_hamiltonian(p, ModeCutoffs((3, 3, 3)))
    pmap = choose_phase_map(rep.hamiltonian, t=8)
    evals = np.linalg.eigvalsh(rep.hamiltonian.to_dense().real)
    phases = pmap.phase(evals)
    assert phases.min() >= 0.0 and phases.max() < 1.0


def test_choose_phase_map_degenerate_spectrum():
    h = diag_h([0.0, 0.0])
    pmap = choose_phase_map(h, t=4)
    assert pmap.tau == 1.0


#: Spaces of D < 4096 on all five bundled problems.
PHASE_MAP_GRID = [
    *[(name, cuts) for name in ("so2", "h2o", "d2o", "no2")
      for cuts in ((3, 3), (8, 5), (20, 30), (40, 60))],
    *[("so2_anharmonic", cuts) for cuts in ((2, 2, 2), (6, 5, 4), (12, 10, 8))],
]


def test_phase_map_bits_pinned():
    # tau and shift to the last bit on both routes, with the PSD and the
    # Gershgorin lower bound.  Summing the Gershgorin rows in CSR order moves
    # 28 of these 76 lines, and every decoded energy with them.
    lines = []
    for name, cuts in PHASE_MAP_GRID:
        problem = bundled_problem(name)
        for route in ("qp", "ladder"):
            h = build_hamiltonian(problem, ModeCutoffs(cuts), route=route).hamiltonian
            for lower in (0.0, None):
                pmap = choose_phase_map(h, t=10, lower_bound=lower)
                lines.append(f"{pmap.tau.hex()} {pmap.energy_shift.hex()}\n")
    digest = hashlib.sha256("".join(lines).encode()).hexdigest()
    assert digest == "6abda42bda0b5115a0fa0466bd5e175f845bce64b3a981a35538aae367e02543"


def test_phase_map_holds_no_dense_copy_of_h():
    # so2 (40,40), D = 1,681: a dense H and its |H| would hold 43 MiB; the
    # Gershgorin sums read 19 rows at a time
    h = build_hamiltonian(bundled_problem("so2"), ModeCutoffs((40, 40))).hamiltonian
    tracemalloc.start()
    try:
        choose_phase_map(h, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_phase_map_register_width_checked():
    for t in (0, 63, 10**12):
        with pytest.raises(ValueError, match="energy-register bits"):
            PhaseMap(tau=1.0, energy_shift=0.0, t=t)


def test_phase_map_for_another_register_width_refused():
    # sampling on t bits and decoding on the map's would misplace every energy
    so2, cuts = bundled_problem("so2"), ModeCutoffs((3, 3))
    h = build_hamiltonian(so2, cuts).hamiltonian
    pmap = choose_phase_map(h, t=10, lower_bound=0.0)
    with pytest.raises(ValueError, match="t=10 bits but the run samples t=8"):
        run_qpe(h, Encoding("binary", cuts), t=8, shots=10, phase_map=pmap)
    with pytest.raises(ValueError, match="t=10 bits but the run samples t=8"):
        run_qpe_thermal(so2, cuts, t=8, shots=10, thermal=ThermalConfig(beta=0.01),
                        phase_map=pmap)


def test_huge_register_width_refused_before_forming_two_to_the_t():
    # 2^t for t = 10^12 never finishes, so a late check would hang the child
    child = ("from vibronic import ModeCutoffs, bundled_problem, run_qpe_problem\n"
             "run_qpe_problem(bundled_problem('so2'), ModeCutoffs((2, 2)), t=10**12, shots=10)")
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", child], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert "ValueError: energy-register bits t must be in [1, 62]" in proc.stderr


# -- zero-temperature QPE ----------------------------------------------


def test_exact_phase_deterministic_outcome():
    h = diag_h([1.0, 5.0])
    pmap = PhaseMap(tau=2 * math.pi * 3 / 16, energy_shift=0.0, t=4)
    enc = Encoding("binary", ModeCutoffs((1,)))
    spec = run_qpe(h, enc, t=4, shots=500, seed=3, phase_map=pmap,
                   initial_state=np.array([1.0, 0.0]))
    assert set(spec.j_outcomes) == {3}
    assert np.allclose(spec.energies, pmap.energy(3))


def test_superposition_frequencies_binomial():
    h = diag_h([1.0, 2.0])
    pmap = PhaseMap(tau=2 * math.pi / 16, energy_shift=0.0, t=4)
    enc = Encoding("binary", ModeCutoffs((1,)))
    init = np.array([0.5, math.sqrt(3) / 2])
    shots = 10000
    spec = run_qpe(h, enc, t=4, shots=shots, seed=5, phase_map=pmap, initial_state=init)
    frac = (spec.j_outcomes == 2).mean()
    sigma = math.sqrt(0.75 * 0.25 / shots)
    assert abs(frac - 0.75) < 3 * sigma


def test_outcome_distribution_sums_to_one():
    rep = build_hamiltonian(toy_problem(delta=1.0), ModeCutoffs((7,)))
    pmap = choose_phase_map(rep.hamiltonian, t=8)
    probs = outcome_distribution(rep.hamiltonian, pmap)
    assert probs.sum() == pytest.approx(1.0, abs=1e-10)


def test_outcome_distribution_exact_phase_delta():
    h = diag_h([1.0, 3.0])
    pmap = PhaseMap(tau=2 * math.pi * 4 / 16, energy_shift=0.0, t=4)
    probs = outcome_distribution(h, pmap, initial_state=np.array([1.0, 0.0]))
    assert probs[4] == pytest.approx(1.0, abs=1e-12)


def test_outcome_distribution_mid_bin_neighbors():
    h = diag_h([1.0, 9.0])
    pmap = PhaseMap(tau=2 * math.pi * 1.5 / 16, energy_shift=0.0, t=4)
    probs = outcome_distribution(h, pmap, initial_state=np.array([1.0, 0.0]))
    assert probs[1] == pytest.approx(probs[2], abs=1e-12)
    assert probs[1] == pytest.approx(4 / math.pi**2, abs=0.01)


def test_emulator_matches_analytic_distribution():
    rng = np.random.default_rng(17)
    m = rng.normal(size=(8, 8))
    h = ManyBodyOperator(ModeCutoffs((7,)), (m + m.T).astype(complex))
    enc = Encoding("binary", ModeCutoffs((7,)))
    pmap = choose_phase_map(h, t=5)
    shots = 10000
    spec = run_qpe(h, enc, t=5, shots=shots, seed=21, phase_map=pmap)
    probs = outcome_distribution(h, pmap)
    emp = np.bincount(spec.j_outcomes, minlength=32) / shots
    sigma = np.sqrt(probs * (1 - probs) / shots)
    assert np.all(np.abs(emp - probs) <= 3 * sigma + 5e-4)


def test_norm_preserved_and_post_measurement_state():
    # two eigenstates at exactly representable phases: conditioning on the
    # measured outcome projects onto the corresponding eigenstate
    h = diag_h([1.0, 2.0])
    pmap = PhaseMap(tau=2 * math.pi / 16, energy_shift=0.0, t=4)
    enc = Encoding("binary", ModeCutoffs((1,)))
    init = np.array([1.0, 1.0]) / math.sqrt(2)
    spec, state = run_qpe(h, enc, t=4, shots=50, seed=9, phase_map=pmap,
                          initial_state=init, return_state=True)
    assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-10)
    j_last = spec.j_outcomes[-1]
    expected_level = 0 if j_last == 1 else 1
    fidelity = abs(state[expected_level]) ** 2
    assert fidelity >= 1 - 1e-8


def test_seed_reproducibility():
    rep = build_hamiltonian(toy_problem(delta=0.8), ModeCutoffs((5,)))
    enc = Encoding("binary", ModeCutoffs((5,)))
    a = run_qpe(rep.hamiltonian, enc, t=6, shots=300, seed=42)
    b = run_qpe(rep.hamiltonian, enc, t=6, shots=300, seed=42)
    assert np.array_equal(a.j_outcomes, b.j_outcomes)
    c = run_qpe(rep.hamiltonian, enc, t=6, shots=300, seed=43)
    assert not np.array_equal(a.j_outcomes, c.j_outcomes)
    assert np.array_equal(shot_uniforms(42, 10), shot_uniforms(42, 10))


def test_qubit_budget_enforced():
    # the exact law and its cdf hold 16 bytes per outcome: 2^26 of them fill the budget
    rep = build_hamiltonian(toy_problem(), ModeCutoffs((3,)))
    enc = Encoding("binary", ModeCutoffs((3,)))
    with pytest.raises(DenseBudgetError, match="a 26-qubit x 1-row x 4-state exact QPE law"):
        run_qpe(rep.hamiltonian, enc, t=26, shots=1, seed=0)


def test_many_system_qubits_small_code_space_runs():
    # unary (12,12) has 26 system qubits but D = 169, so the exact state is
    # 2^4 x 169 amplitudes; no qubit count is capped, only array bytes
    spec = run_qpe_problem(bundled_problem("so2"), ModeCutoffs((12, 12)), t=4, shots=50,
                           encoding_variant="unary")
    assert spec.metadata["system_qubits"] == 26
    assert len(spec.j_outcomes) == 50


def test_return_state_bytes_checked_before_run(monkeypatch):
    # unary (13,13) has 28 system qubits: the returned 2^28 state needs 4 GiB
    def refuse(*args, **kwargs):
        pytest.fail("QPE ran although the returned state exceeds the byte budget")

    monkeypatch.setattr(qpe, "eigensolve", refuse)
    cuts = ModeCutoffs((13, 13))
    h = ManyBodyOperator(cuts, sp.identity(196, format="csr"))
    pmap = PhaseMap(tau=1.0, energy_shift=0.0, t=4)
    with pytest.raises(DenseBudgetError, match="GiB"):
        run_qpe(h, Encoding("unary", cuts), t=4, shots=1, phase_map=pmap, return_state=True)


def _so2_ladder_sum(enc):
    return map_second_quantized(ladder_terms(bundled_problem("so2")), enc,
                                QubitLayout.for_encoding(enc))


@pytest.mark.parametrize("backend", [EvolutionBackend.exact(), EvolutionBackend.trotter(1, 1)])
def test_byte_estimate_checked_before_allocation(backend, monkeypatch):
    # unary (9,9) has 20 system qubits.  so2's mapped ladder sum reaches a
    # 2^18-state sector from the code space, whose Trotter step would take
    # 324 GiB; the exact backend evolves on the D = 100 code space and runs.
    def refuse(*args, **kwargs):
        pytest.fail("dense step unitary built despite the byte estimate")

    monkeypatch.setattr(qpe, "trotter_step_unitary", refuse)
    monkeypatch.setattr(qpe, "sector_states", refuse)
    pmap = PhaseMap(tau=1.0, energy_shift=0.0, t=6)
    cuts = ModeCutoffs((9, 9))
    h = ManyBodyOperator(cuts, sp.identity(100, format="csr"))
    if backend.kind == "trotter":
        enc = Encoding("unary", cuts)
        with pytest.raises(DenseBudgetError, match="a 262144-state trotter QPE step"):
            run_qpe(h, enc, t=6, shots=1, backend=backend, phase_map=pmap,
                    pauli_hamiltonian=_so2_ladder_sum(enc))
        return
    assert len(run_qpe(h, Encoding("unary", cuts), t=6, shots=7, phase_map=pmap).j_outcomes) == 7
    # binary (1023,1023) has D = 2^20, so the D x D propagator would take 16 TiB
    monkeypatch.setattr(qpe, "eigensolve", refuse)
    cuts = ModeCutoffs((1023, 1023))
    h = ManyBodyOperator(cuts, sp.identity(1 << 20, format="csr"))
    with pytest.raises(DenseBudgetError, match="GiB"):
        run_qpe(h, Encoding("binary", cuts), t=6, shots=1, phase_map=pmap)


@pytest.mark.parametrize("variant, cuts, backend, from_state, outcome", [
    pytest.param("binary", (63, 63), EvolutionBackend.exact(), True, "eigensolve",
                 id="binary-cuts0-backend0-4096"),
    pytest.param("unary", (6, 6), EvolutionBackend.trotter(1, 1), False,
                 "a 4096-state trotter QPE step", id="unary-cuts1-backend1-4096"),
    pytest.param("binary", (67, 69), EvolutionBackend.exact(), False, "diagonalize_fcp",
                 id="binary-67-69-exact-4760"),
    pytest.param("binary", (67, 69), EvolutionBackend.exact(), True, "eigensolve",
                 id="binary-67-69-exact-initial-state-4760"),
    pytest.param("binary", (79, 79), EvolutionBackend.exact(), True,
                 "a 4-qubit x 1-row x 6400-state exact QPE law",
                 id="binary-79-79-exact-initial-state-6400"),
    pytest.param("binary", (90, 90), EvolutionBackend.exact(), False,
                 "a 4-qubit x 1-row x 8281-state exact QPE law", id="binary-90-90-exact-8281"),
])
def test_step_estimate_counts_every_array_the_step_holds(variant, cuts, backend, from_state,
                                                         outcome, monkeypatch):
    # a 4096 x 4096 Trotter U alone is 0.25 GiB, but the step holds four such
    # arrays (the rotation copies, or the squaring ladder's); so2's mapped
    # ladder sum reaches 2^6 x 2^6 states of unary (6,6)'s 2^14 register.
    # The exact backend never forms U.  From the vacuum it solves for the
    # sticks in 16 bytes per entry of H, so D = 4760 reaches diagonalize_fcp
    # and D = 8281 is refused; from an explicit initial state its eigensolve
    # holds 28, so D = 4760 reaches the eigensolve and D = 6400 is refused.
    class Reached(Exception):
        pass

    def reach(name):
        def stub(*args, **kwargs):
            raise Reached(name)
        return stub

    def refuse(*args, **kwargs):
        pytest.fail("a D x D array was built despite the step's byte estimate")

    for module, name in ((qpe, "eigensolve"), (oracle, "eigensolve"), (qpe, "diagonalize_fcp"),
                         (qpe, "trotter_step_unitary")):
        monkeypatch.setattr(module, name, reach(name))
    monkeypatch.setattr(ManyBodyOperator, "to_dense", refuse)
    cutoffs = ModeCutoffs(cuts)
    enc = Encoding(variant, cutoffs)
    # only (90,90)'s dense copy would not fit the budget alone
    assert (16 * cutoffs.dimension**2 <= MAX_DENSE_BYTES) == (cuts != (90, 90))
    h = ManyBodyOperator(cutoffs, sp.identity(cutoffs.dimension, format="csr"))
    pmap = PhaseMap(tau=1.0, energy_shift=0.0, t=4)
    expected = (pytest.raises(Reached, match=f"^{outcome}$") if " " not in outcome
                else pytest.raises(DenseBudgetError, match=outcome))
    pauli = _so2_ladder_sum(enc) if backend.kind == "trotter" else None
    initial = np.eye(1, cutoffs.dimension)[0] if from_state else None
    with expected:
        run_qpe(h, enc, t=4, shots=1, backend=backend, phase_map=pmap, pauli_hamiltonian=pauli,
                initial_state=initial)


def test_vacuum_run_forms_no_eigenvectors(monkeypatch):
    # from the vacuum the law's weights are the Franck-Condon sticks: the same
    # law as the eigensolve route from the explicit vacuum, with no eigh at all
    problem, cutoffs = bundled_problem("so2"), ModeCutoffs((6, 5))
    h = build_hamiltonian(problem, cutoffs).hamiltonian
    enc = Encoding("binary", cutoffs)
    pmap = choose_phase_map(h, 8, lower_bound=0.0)
    _, expected = run_qpe(h, enc, t=8, shots=1, phase_map=pmap, return_distribution=True,
                          initial_state=np.eye(1, cutoffs.dimension)[0])

    def refuse(*args, **kwargs):
        pytest.fail("a vacuum run formed H's eigenvectors")

    for module, name in ((qpe, "eigensolve"), (oracle, "eigensolve"), (np.linalg, "eigh")):
        monkeypatch.setattr(module, name, refuse)
    spectrum, law = run_qpe(h, enc, t=8, shots=500, seed=3, phase_map=pmap,
                            return_distribution=True)
    assert np.abs(law - expected).max() < 1e-12
    assert len(spectrum.j_outcomes) == 500
    assert run_qpe_problem(problem, cutoffs, t=8, shots=10).metadata["backend"] == "exact"


def test_vacuum_run_peak_stays_within_its_checked_bytes(monkeypatch):
    # at so2 (19,19), D = 400, the stick solve's 16 D^2 bytes outweigh the
    # law, the kernel block and the shots; the run's one check counts them all
    cutoffs = ModeCutoffs((19, 19))
    h = build_hamiltonian(bundled_problem("so2"), cutoffs).hamiltonian
    pmap = choose_phase_map(h, 8, lower_bound=0.0)
    checked = []
    monkeypatch.setattr(qpe, "check_dense_bytes", lambda n_bytes, what: checked.append(n_bytes))
    tracemalloc.start()
    try:
        run_qpe(h, Encoding("binary", cutoffs), t=8, shots=1000, phase_map=pmap)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    solve = 16 * cutoffs.dimension**2
    assert len(checked) == 1 and solve > 0.75 * checked[0]
    assert 0.9 * solve < peak <= checked[0] + 4096


#: 50 above the diagonal and 0 below: a solve that read one triangle alone
#: would see [1000, 2000, 3000] and sample a spectrum H does not have
NON_SYMMETRIC = np.diag([1000.0, 2000.0, 3000.0]) + np.diag([50.0, 50.0], 1)


@pytest.mark.parametrize("options", [
    pytest.param({}, id="vacuum"),
    pytest.param({"initial_state": [1.0, 0.0, 0.0]}, id="initial-state"),
    pytest.param({"return_state": True}, id="return-state"),
])
def test_every_exact_run_refuses_a_non_hermitian_h(options, monkeypatch):
    # one gate in oracle.dense_matrix, which both dense solves call
    monkeypatch.setattr(qpe, "shot_uniforms", lambda *args: pytest.fail("shots were drawn"))
    cutoffs = ModeCutoffs((2,))
    h = ManyBodyOperator(cutoffs, NON_SYMMETRIC)
    with pytest.raises(ValueError, match=r"Hamiltonian is not Hermitian \(deviation 5.00e\+01\)"):
        run_qpe(h, Encoding("binary", cutoffs), t=6, shots=10, **options)


def test_eigensolve_refuses_a_non_hermitian_h():
    with pytest.raises(ValueError, match=r"Hamiltonian is not Hermitian \(deviation 5.00e\+01\)"):
        oracle.eigensolve(ManyBodyOperator(ModeCutoffs((2,)), NON_SYMMETRIC))


def _direct_run(problem, space, **options):
    return run_qpe(build_hamiltonian(problem, space).hamiltonian, Encoding("binary", space),
                   **options)


@pytest.mark.parametrize("run, cutoffs", [
    (run_qpe_problem, (90, 90)),
    (functools.partial(run_qpe_thermal, thermal=ThermalConfig.from_temperature_kelvin(300.0)),
     (68, 68)),
    (_direct_run, (150, 150)),
], ids=["vacuum-90,90", "thermal-68,68", "direct-150,150"])
def test_exact_run_past_its_solve_budget_refused_before_the_phase_map(run, cutoffs, monkeypatch):
    # the phase map's Gershgorin pass densifies all D rows (about 30 s at so2
    # (400,400)), but the solve's 16 D^2 bytes (vacuum, D = 8,281) or the
    # thermal rows' whole law (D = 4,761: 1.05 GiB) already exceed the budget;
    # a direct run_qpe chooses its own map, after its law check (D = 22,801:
    # 7.7 GiB)
    def refuse(*args, **kwargs):
        pytest.fail("the phase map ran although the run's solve exceeds the byte budget")

    monkeypatch.setattr(qpe, "gershgorin_bounds", refuse)
    problem, space = bundled_problem("so2"), ModeCutoffs(cutoffs)
    with pytest.raises(DenseBudgetError, match=f"{space.dimension}-state exact QPE law"):
        run(problem, space, t=12, shots=10)


@pytest.mark.parametrize("initial, named", [
    pytest.param(np.zeros(9), "norm 0.0", id="zero"),
    pytest.param(np.full(9, np.nan), "norm nan", id="nan"),
    pytest.param(np.ones(8), "shape (8,)", id="wrong-length"),
])
def test_bad_initial_state_refused_before_any_solve(initial, named, monkeypatch):
    def refuse(*args, **kwargs):
        pytest.fail("the run went on with an initial state it cannot normalize")

    for module, name in ((qpe, "eigensolve"), (qpe, "diagonalize_fcp"),
                         (qpe, "choose_phase_map"), (qpe, "shot_uniforms")):
        monkeypatch.setattr(module, name, refuse)
    cutoffs = ModeCutoffs((2, 2))
    h = build_hamiltonian(bundled_problem("so2"), cutoffs).hamiltonian
    with pytest.raises(ValueError, match=r"initial_state must be 9 finite amplitudes") as exc:
        run_qpe(h, Encoding("binary", cutoffs), t=6, shots=10, initial_state=initial)
    assert named in str(exc.value)


def test_unary_encoding_agrees_with_binary():
    rep = build_hamiltonian(toy_problem(delta=1.0), ModeCutoffs((4,)))
    pmap = choose_phase_map(rep.hamiltonian, t=6)
    out = {}
    for variant in ("binary", "unary"):
        enc = Encoding(variant, ModeCutoffs((4,)))
        spec = run_qpe(rep.hamiltonian, enc, t=6, shots=2000, seed=1, phase_map=pmap)
        out[variant] = np.bincount(spec.j_outcomes, minlength=64)
    # identical seeded sampling of the same distribution
    assert np.array_equal(out["binary"], out["unary"])


# -- Trotter -------------------------------------------------------------


def test_trotter_single_term_exact():
    ps = PauliSum(2, {"XZ": 0.7})
    u1 = trotter_unitary(ps, time=0.9, order=1, steps=1)
    exact = np.cos(0.63) * np.eye(4) - 1j * np.sin(0.63) * pauli_to_matrix(
        PauliSum(2, {"XZ": 1.0})
    )
    assert np.abs(u1 - exact).max() < 1e-12


def test_trotter_commuting_terms_exact():
    ps = PauliSum(2, {"ZI": 0.5, "IZ": -0.25, "ZZ": 0.1})
    h = pauli_to_matrix(ps)
    evals, evecs = np.linalg.eigh(h)
    exact = (evecs * np.exp(-1j * 1.3 * evals)) @ evecs.conj().T
    u = trotter_unitary(ps, time=1.3, order=1, steps=1)
    assert np.abs(u - exact).max() < 1e-12


@pytest.mark.parametrize("order", [1, 2])
def test_trotter_step_matches_dense_rotation_product(order):
    rng = np.random.default_rng(order)
    strings = {"IIII", "YIII", "IXYZ", "YYZX"}
    strings |= {"".join(rng.choice(list("IXYZ"), 4)) for _ in range(12)}
    ps = PauliSum(4, {s: rng.normal() for s in strings})
    dt = 0.37
    terms = ps.sorted_terms()
    if order == 2:
        sequence = [(s, c, dt / 2) for s, c in terms + terms[::-1]]
    else:
        sequence = [(s, c, dt) for s, c in terms]
    expected = np.eye(16, dtype=complex)
    for string, coeff, step in sequence:
        pmat = pauli_to_matrix(PauliSum(4, {string: 1.0}))
        expected = (np.cos(coeff * step) * np.eye(16) - 1j * np.sin(coeff * step) * pmat) @ expected
    assert np.abs(trotter_step_unitary(ps, dt, order) - expected).max() < 1e-13


@st.composite
def _masked_sums(draw):
    n = draw(st.integers(1, 8))
    masks = st.integers(0, (1 << n) - 1)
    terms = draw(st.lists(st.tuples(masks, masks), max_size=6))
    coeffs = draw(st.lists(st.floats(-2.0, 2.0), min_size=len(terms), max_size=len(terms)))
    starts = draw(st.lists(masks, min_size=1, max_size=4))
    return PauliSum(n, {render(x, z, n): c for (x, z), c in zip(terms, coeffs)}), starts


@settings(max_examples=80, deadline=None, derandomize=True)
@given(case=_masked_sums(), order=st.sampled_from([1, 2]))
def test_sector_step_is_the_register_step_block(case, order):
    # the sector holds the initial states and is closed under every term's x;
    # the step on it is the whole-register step's block, which no rotation
    # couples to the rest of the register
    ps, starts = case
    sector = sector_states(*invariant_sector(ps, np.array(starts)))
    assert np.array_equal(sector, np.unique(sector))
    assert np.isin(starts, sector).all()
    for string in ps.terms:
        assert np.isin(sector ^ pauli_masks(string)[0], sector).all()
    full = trotter_register_step(ps, 0.37, order)
    block = trotter_step_unitary(ps, 0.37, order, sector)
    assert np.abs(block - full[np.ix_(sector, sector)]).max() < 1e-13
    assert not np.delete(full, sector, axis=0)[:, sector].any()


@pytest.mark.parametrize("name", ["so2", "h2o", "d2o", "no2"])
@pytest.mark.parametrize("cuts", [(3, 3), (10, 10)])
def test_binary_sector_is_the_whole_register(name, cuts):
    # the x masks of a binary mode span all its qubits, so the sector is the
    # 2^n_s register and nothing is dropped
    enc = Encoding("binary", ModeCutoffs(cuts))
    layout = QubitLayout.for_encoding(enc)
    pauli = map_second_quantized(ladder_terms(bundled_problem(name)), enc, layout)
    reps, generators = invariant_sector(pauli, codespace_indices(enc, layout))
    assert len(reps) == 1 and len(generators) == layout.total_qubits
    assert np.array_equal(sector_states(reps, generators), np.arange(1 << layout.total_qubits))


def test_unary_sector_is_each_modes_odd_weight_words():
    # a unary mode's transitions flip two qubits, so from the one-hot code its
    # words keep odd weight: 2^3 of 2^4 per mode at (3,3), 64 of 256 states
    enc = Encoding("unary", ModeCutoffs((3, 3)))
    layout = QubitLayout.for_encoding(enc)
    pauli = map_second_quantized(ladder_terms(bundled_problem("so2")), enc, layout)
    sector = sector_states(*invariant_sector(pauli, codespace_indices(enc, layout)))
    odd = [w for w in range(16) if w.bit_count() % 2]
    assert np.array_equal(sector, sorted(a | b << 4 for a in odd for b in odd))


def test_trotter_rejects_complex_coefficients():
    ps = PauliSum(1, {"X": 1j})
    with pytest.raises(ValueError):
        trotter_step_unitary(ps, 0.1, 1)


def _eigenphase_error(ps, tau, order, steps):
    # largest eigenphase of the defect unitary U_exact^dag U_trot; note the
    # eigenVALUE phases alone superconverge for real Hamiltonians (every
    # Trotter commutator has zero diagonal expectation in a real eigenbasis),
    # so the defect unitary is the right place to read off the -1/-2 orders
    h = pauli_to_matrix(ps)
    evals, evecs = np.linalg.eigh(h)
    u_exact = (evecs * np.exp(-1j * tau * evals)) @ evecs.conj().T
    u_t = trotter_unitary(ps, tau, order, steps)
    lam = np.linalg.eigvals(u_exact.conj().T @ u_t)
    return np.abs(np.angle(lam)).max()


@pytest.mark.parametrize("order,expected_slope", [(1, -1.0), (2, -2.0)])
def test_trotter_eigenphase_error_slope(order, expected_slope):
    problem = toy_problem(delta=1.0, omega=1000.0)
    cuts = ModeCutoffs((3,))
    enc = Encoding("binary", cuts)
    layout = QubitLayout.for_encoding(enc)
    ps = map_second_quantized(ladder_terms(problem), enc, layout)
    tau = 2 * math.pi * 0.9 / 5000.0
    steps = np.array([4, 8, 16, 32])
    errs = np.array([_eigenphase_error(ps, tau, order, s) for s in steps])
    slope = np.polyfit(np.log(steps), np.log(errs), 1)[0]
    assert slope == pytest.approx(expected_slope, abs=0.3)


def test_anharmonic_trotter_law_converges_to_the_exact_law():
    # the Trotter backend compiles the ladder-route terms that the exact solve
    # assembles, cubic and quartic included; measured TV 0.076, 5.4e-3, 3.4e-4
    problem, cuts = bundled_problem("so2_anharmonic"), ModeCutoffs((3, 3, 3))
    enc = Encoding("binary", cuts)
    h = build_hamiltonian(problem, cuts, route="ladder").hamiltonian
    pauli = map_second_quantized(hamiltonian_terms(problem, route="ladder"), enc,
                                 QubitLayout.for_encoding(enc))
    pmap = choose_phase_map(h, 10)
    exact = run_qpe(h, enc, t=10, shots=1, phase_map=pmap, return_distribution=True)[1]
    tv = [0.5 * np.abs(run_qpe(h, enc, t=10, shots=1, phase_map=pmap, pauli_hamiltonian=pauli,
                               backend=EvolutionBackend.trotter(2, steps),
                               return_distribution=True)[1] - exact).sum()
          for steps in (8, 32, 128)]
    assert tv[0] > tv[1] > tv[2] and tv[2] < 1e-3


def test_qpe_trotter_backend_matches_exact_ladder():
    problem = toy_problem(delta=0.6)
    spec = run_qpe_problem(problem, ModeCutoffs((3,)), t=8, shots=2000, seed=2,
                           backend=EvolutionBackend.trotter(2, 32))
    exact = run_qpe_problem(problem, ModeCutoffs((3,)), t=8, shots=2000, seed=2,
                            route="ladder")
    pa, pb = _aligned(spec.histogram(width=200.0), exact.histogram(width=200.0))
    assert tv_distance(pa, pb) < 0.05


# -- finite temperature ---------------------------------------------------


def test_thermal_angles_formula():
    p = toy_problem(omega=500.0)
    beta = 0.004
    theta = thermal_angles(p, beta)[0]
    assert math.tanh(theta / 2) == pytest.approx(math.exp(-beta * 500.0 / 2))


def test_prepare_thermal_zero_temperature():
    kappa = prepare_thermal(toy_problem(omega=500.0), ModeCutoffs((5,)),
                            ThermalConfig(beta=math.inf))
    assert kappa.shape == (6,)
    assert kappa[0] == 1.0
    assert np.abs(kappa).sum() == 1.0


def test_prepare_thermal_boltzmann_ratios():
    p = toy_problem(omega=500.0)
    thermal = ThermalConfig.from_temperature_kelvin(300.0)
    bw = math.exp(-thermal.beta * 500.0)
    weights = prepare_thermal(p, ModeCutoffs((14,)), thermal) ** 2
    assert weights[0] == pytest.approx(1 - bw, abs=1e-8)
    # boundary distortion decays geometrically away from the cutoff, so
    # levels up to 6 are clean at L_max = 14
    for n in range(1, 7):
        assert weights[n] / weights[n - 1] == pytest.approx(bw, abs=1e-8)


def test_prepare_thermal_two_modes_factorizes():
    p = VibronicProblem("two", [500.0, 900.0], [500.0, 900.0], np.eye(2), [0.0, 0.0])
    thermal = ThermalConfig.from_temperature_kelvin(400.0)
    kappa = prepare_thermal(p, ModeCutoffs((4, 4)), thermal)
    dims = (5, 5)
    # amplitude at |n,m>_I |n,m>_S equals product of per-mode amplitudes
    k1 = prepare_thermal(VibronicProblem("a", [500.0], [500.0], [[1.0]], [0.0]),
                         ModeCutoffs((4,)), thermal)
    k2 = prepare_thermal(VibronicProblem("b", [900.0], [900.0], [[1.0]], [0.0]),
                         ModeCutoffs((4,)), thermal)
    for n in range(5):
        for m in range(5):
            flat = np.ravel_multi_index((n, m), dims)
            assert kappa[flat] == pytest.approx(k1[n] * k2[m], abs=1e-10)


@pytest.mark.parametrize("name, cuts, kelvin", [
    ("so2", (1, 1), 300.0), ("so2", (3, 3), 300.0), ("so2", (14, 14), 300.0),
    ("so2", (6, 9), 120.0), ("so2", (10, 10), 1000.0), ("so2", (2, 2), 0.0),
    ("so2_anharmonic", (3, 2, 4), 500.0),
])
def test_prepare_thermal_is_the_pair_diagonal_of_the_two_mode_squeezer(name, cuts, kelvin):
    # the d^2 x d^2 generators' thermofield double has no amplitude off the pairs
    problem, cutoffs = bundled_problem(name), ModeCutoffs(cuts)
    thermal = ThermalConfig.from_temperature_kelvin(kelvin)
    reference = thermofield_matrix(problem, cutoffs, thermal)
    kappa = prepare_thermal(problem, cutoffs, thermal)
    assert np.array_equal(reference, np.diag(np.diag(reference)))
    assert np.abs(kappa - np.diag(reference)).max() <= 1e-15


def test_prepare_thermal_generator_bytes_checked_before_expm(monkeypatch):
    # a 100,001-level mode: its pair generator alone would take 75 GiB
    def refuse(*args, **kwargs):
        pytest.fail("expm ran despite the squeezer's byte estimate")

    monkeypatch.setattr(qpe.scipy.linalg, "expm", refuse)
    with pytest.raises(DenseBudgetError, match="a 100001-level two-mode squeezer"):
        prepare_thermal(toy_problem(omega=500.0), ModeCutoffs((100000,)),
                        ThermalConfig.from_temperature_kelvin(300.0))


def test_fock_state_energy():
    p = toy_problem(omega=500.0)
    assert np.allclose(fock_state_energy(p, np.array([[0], [2]])), [250.0, 1250.0])


def test_thermal_qpe_marginals_match_boltzmann():
    p = toy_problem(delta=1.0, omega=500.0)
    thermal = ThermalConfig.from_temperature_kelvin(300.0)
    shots = 20000
    spec = run_qpe_thermal(p, ModeCutoffs((7,)), t=10, shots=shots, thermal=thermal, seed=13)
    assert len(spec.energies) == spec.shots
    bw = math.exp(-thermal.beta * 500.0)
    probs = (1 - bw) * bw ** np.arange(8)
    counts = np.bincount(spec.initial_levels[:, 0], minlength=8)[:8]
    for n in range(3):
        sigma = math.sqrt(probs[n] * (1 - probs[n]) / shots)
        assert abs(counts[n] / shots - probs[n]) < 3 * sigma + 1e-3


def test_thermal_qpe_zero_temperature_matches_shifted_zero_t():
    p = toy_problem(delta=1.0, omega=500.0)
    cuts = ModeCutoffs((7,))
    cold = run_qpe_thermal(p, cuts, t=10, shots=4000,
                           thermal=ThermalConfig(beta=math.inf), seed=6)
    plain = run_qpe_problem(p, cuts, t=10, shots=4000, seed=6)
    # same seed, same kernel: thermal at beta=inf is the zero-T run shifted
    # by -E_A(0) = -250
    assert np.array_equal(cold.j_outcomes, plain.j_outcomes)
    assert np.allclose(cold.energies, plain.energies - 250.0, atol=1e-9)


def test_thermal_qpe_budget():
    # R = D = 16 register rows: the exact law and its cdf take 16 R 2^t bytes.
    # At t = 18 that is 64 MiB, where the (2^t, R, D) ladder state took 1.06 GiB;
    # at t = 22 it fills the budget.
    p, thermal = toy_problem(), ThermalConfig(beta=0.01)
    spec = run_qpe_thermal(p, ModeCutoffs((15,)), t=18, shots=1, thermal=thermal, seed=0)
    assert len(spec.energies) == 1
    with pytest.raises(DenseBudgetError, match="a 22-qubit x 16-row x 16-state exact QPE law"):
        run_qpe_thermal(p, ModeCutoffs((15,)), t=22, shots=1, thermal=thermal, seed=0)


def test_thermal_trotter_backend_matches_exact_ladder():
    p = toy_problem(delta=0.6, omega=600.0)
    thermal = ThermalConfig(beta=0.003)
    trotter = run_qpe_thermal(p, ModeCutoffs((3,)), t=8, shots=2000, thermal=thermal,
                              seed=2, backend=EvolutionBackend.trotter(2, 32))
    exact = run_qpe_thermal(p, ModeCutoffs((3,)), t=8, shots=2000, thermal=thermal,
                            seed=2, route="ladder")
    # the reference H, hence the phase map, comes from the ladder route
    assert trotter.metadata["route"] == "ladder"
    assert trotter.phase_map == exact.phase_map
    pa, pb = _aligned(trotter.histogram(width=200.0), exact.histogram(width=200.0))
    assert tv_distance(pa, pb) < 0.05


def test_thermal_decode_matches_per_shot_lookup(monkeypatch):
    # a unary Trotter run leaks out of the code space, but only the system
    # register is evolved; the initial register holds the codewords in
    # basis-index order, and each sampled (j, register) category decodes
    # to the codeword's Fock levels
    p = bundled_problem("so2")
    cuts = ModeCutoffs((2, 2))
    enc = Encoding("unary", cuts)
    layout = QubitLayout.for_encoding(enc)
    code = codespace_indices(enc, layout)
    sampled = []
    real_sample = qpe._sample_joint

    def sample(joint, n_rows, seed, shots):
        j, row = real_sample(joint, n_rows, seed, shots)
        sampled.append(j * n_rows + row)  # the joint category, j-major
        return j, row

    monkeypatch.setattr(qpe, "_sample_joint", sample)
    spec = run_qpe_thermal(p, cuts, t=6, shots=3000, thermal=ThermalConfig(beta=0.002),
                           encoding_variant="unary", seed=5,
                           backend=EvolutionBackend.trotter(1, 1))
    step = trotter_step_unitary(map_second_quantized(ladder_terms(p), enc, layout),
                                spec.phase_map.tau, 1)
    assert np.abs(np.delete(step, code, axis=0)[:, code]).max() > 1e-3

    levels = cuts.all_multi_indices()
    decode = {int(c): tuple(levels[flat]) for flat, c in enumerate(code)}
    register = sorted(decode)
    kept_j, kept_levels = [], []
    for outcome in sampled[0]:
        j, r = divmod(int(outcome), len(register))
        kept_j.append(j)
        kept_levels.append(decode[register[r]])
    assert len(spec.energies) == spec.shots
    assert np.array_equal(spec.j_outcomes, kept_j)
    assert np.array_equal(spec.initial_levels, kept_levels)
    assert spec.initial_levels.dtype == spec.j_outcomes.dtype == np.int64


def test_thermal_qpe_histogram_metadata():
    p = toy_problem(delta=0.5, omega=600.0)
    spec = run_qpe_thermal(p, ModeCutoffs((4,)), t=8, shots=500,
                           thermal=ThermalConfig(beta=0.003), seed=4)
    hist = spec.histogram(width=25.0)
    assert hist.total_intensity == pytest.approx(1.0, abs=1e-12)
    assert (spec.energies < -1.0).sum() > 0  # hot bands present


@pytest.mark.parametrize(
    "name,cuts,variant",
    [("so2", (3, 3), "binary"), ("h2o", (2, 3), "binary"), ("d2o", (2, 3), "binary"),
     ("no2", (3, 3), "binary"), ("so2", (5, 5), "unary")],
    ids=["so2-cuts0", "h2o-cuts1", "d2o-cuts2", "no2-cuts3", "so2-unary-5-5"],
)
def test_emulator_distribution_equals_kernel_mixture(name, cuts, variant):
    # with the exact backend the emulated E-register distribution must equal
    # the analytic t-bit kernel mixture for every bundled problem; unary (5,5)
    # has 12 system qubits, which the code-space ladder never allocates
    problem = bundled_problem(name)
    cutoffs = ModeCutoffs(cuts)
    h = build_hamiltonian(problem, cutoffs).hamiltonian
    pmap = choose_phase_map(h, t=7, lower_bound=0.0)
    _, probs = run_qpe(h, Encoding(variant, cutoffs), t=7, shots=10, seed=1,
                       phase_map=pmap, return_distribution=True)
    analytic = outcome_distribution(h, pmap)
    assert np.abs(probs - analytic).max() < 1e-8


def _sweep_inputs(cuts, variant, backend, t):
    # the exact U = V exp(-2 pi i phi) V^dagger, or the Trotter step on the
    # whole register, is built here for the ladder reference only
    problem = bundled_problem("so2")
    cutoffs = ModeCutoffs(cuts)
    enc = Encoding(variant, cutoffs)
    layout = QubitLayout.for_encoding(enc)
    _, h, pauli, pmap = qpe._problem_hamiltonian(problem, cutoffs, t, enc, backend, "qp",
                                                 lambda h: None)  # a few states: no check
    code = codespace_indices(enc, layout)
    if backend.kind == "exact":
        evals, evecs = oracle.eigensolve(h)
        u = (evecs * np.exp(-2j * np.pi * pmap.phase(evals))) @ evecs.conj().T
        return problem, cutoffs, enc, h, pmap, code, u, code, np.arange(len(code))
    u = trotter_register_unitary(pauli, pmap, backend)
    return problem, cutoffs, enc, pauli, pmap, code, u, np.arange(len(u)), code


def test_law_matches_matrix_powers_from_initial_state():
    # exact binary, one register row in a complex non-vacuum state: the law, and
    # the post-measurement state at each outcome 40 seeds draw, against U^x for each x
    t = 6
    _, _, enc, h, pmap, code, u, basis, columns = _sweep_inputs((2, 2), "binary",
                                                                EvolutionBackend.exact(), t)
    rng = np.random.default_rng(3)
    vec = rng.normal(size=len(code)) + 1j * rng.normal(size=len(code))
    rows = (vec / np.linalg.norm(vec))[None, :]
    ref_amps, ref_joint = controlled_power_state(u, columns, rows, t)
    _, probs = run_qpe(h, enc, t, shots=100, seed=4, initial_state=vec, phase_map=pmap,
                       return_distribution=True)
    assert np.abs(probs - ref_joint).max() < 1e-12
    seen = set()
    for seed in range(40):
        spec, state = run_qpe(h, enc, t, shots=1, seed=seed, initial_state=vec,
                              phase_map=pmap, return_state=True)
        j = int(spec.j_outcomes[-1])
        if j in seen:
            continue
        seen.add(j)
        post = ref_amps[j, 0]
        expected = np.zeros(len(state), dtype=complex)
        expected[basis] = post / np.linalg.norm(post)
        assert np.abs(state - expected).max() < 1e-12
    assert len(seen) >= 8


TROTTER = EvolutionBackend.trotter(1, 1)


def _sector_sweeps(monkeypatch):
    # (amplitudes, joint law, leaked weight) of every ladder the runs sweep
    sweeps = []
    real_sweep = qpe._controlled_power_sweep

    def keep_sweep(*args):
        sweeps.append(real_sweep(*args))
        return sweeps[-1]

    monkeypatch.setattr(qpe, "_controlled_power_sweep", keep_sweep)
    return sweeps


def test_ladder_matches_matrix_powers_with_trotter_leakage(monkeypatch):
    # unary trotter:1:1: the reference evolves all 2^6 register states, the
    # run the 16-state sector of the code space; about 1e-3 of the vacuum's
    # weight leaks off the code space, and none off the sector
    t = 6
    problem, cutoffs, _, pauli, pmap, code, u, _, columns = _sweep_inputs((2, 2), "unary",
                                                                         TROTTER, t)
    rows = np.eye(1, len(code))
    ref_amps, ref_joint = controlled_power_state(u, columns, rows, t)
    leaked = (np.abs(np.delete(ref_amps, code, axis=2)) ** 2).sum()
    assert 1e-4 < leaked < 1e-2
    sweeps = _sector_sweeps(monkeypatch)
    spec = run_qpe_problem(problem, cutoffs, t, shots=100, encoding_variant="unary",
                           backend=TROTTER, seed=4)
    _, _, amps, joint, sector_leaked = sweeps[0]
    sector = sector_states(*invariant_sector(pauli, code))
    assert len(sector) == 16 and spec.phase_map == pmap
    assert np.abs(amps - ref_amps[:, :, sector]).max() < 1e-12
    assert not np.delete(ref_amps, sector, axis=2).any()
    assert np.abs(joint - ref_joint).max() < 1e-12
    assert abs(sector_leaked - leaked) < 1e-12
    assert abs(spec.metadata["leaked_weight"] - leaked) < 1e-12


def test_thermal_ladder_matches_matrix_powers_with_trotter_leakage(monkeypatch):
    # the same sector ladder with the thermofield rows, R = D = 9
    t = 6
    problem, cutoffs, _, _, pmap, code, u, _, columns = _sweep_inputs((2, 2), "unary",
                                                                     TROTTER, t)
    thermal = ThermalConfig(beta=0.002)
    rows = np.diag(prepare_thermal(problem, cutoffs, thermal))[np.argsort(code)]
    ref_amps, ref_joint = controlled_power_state(u, columns, rows, t)
    leaked = (np.abs(np.delete(ref_amps, code, axis=2)) ** 2).sum()
    assert 1e-4 < leaked < 1e-2
    sweeps = _sector_sweeps(monkeypatch)
    spec = run_qpe_thermal(problem, cutoffs, t, shots=100, thermal=thermal,
                           encoding_variant="unary", backend=TROTTER, seed=4, phase_map=pmap)
    assert np.abs(sweeps[0][3] - ref_joint).max() < 1e-12
    assert abs(spec.metadata["leaked_weight"] - leaked) < 1e-12


def test_trotter_return_state_scatters_the_sector():
    # the post-measurement state is the sector's amplitudes at the last j,
    # placed at the sector's register indices
    t = 6
    _, cutoffs, enc, pauli, pmap, code, u, _, columns = _sweep_inputs((2, 2), "unary",
                                                                     TROTTER, t)
    ref_amps, _ = controlled_power_state(u, columns, np.eye(1, len(code)), t)
    h = build_hamiltonian(bundled_problem("so2"), cutoffs, route="ladder").hamiltonian
    spec, state = run_qpe(h, enc, t, shots=5, backend=TROTTER, seed=2, phase_map=pmap,
                          pauli_hamiltonian=pauli, return_state=True)
    post = ref_amps[int(spec.j_outcomes[-1]), 0]
    assert np.abs(state - post / np.linalg.norm(post)).max() < 1e-12


def _thermal_law(cuts, t, monkeypatch):
    # the law that run_qpe_thermal samples at 300 K, with the register rows and U
    problem, cutoffs, _, _, pmap, code, u, _, columns = _sweep_inputs(
        cuts, "binary", EvolutionBackend.exact(), t)
    thermal = ThermalConfig.from_temperature_kelvin(300.0)
    rows = np.diag(prepare_thermal(problem, cutoffs, thermal))[np.argsort(code)]
    laws = []
    real_law = qpe._eigenphase_law

    def keep_law(*args):
        laws.append(real_law(*args))
        return laws[-1]

    monkeypatch.setattr(qpe, "_eigenphase_law", keep_law)
    run_qpe_thermal(problem, cutoffs, t, shots=10, thermal=thermal, phase_map=pmap)
    return laws[0], u, columns, rows


def test_law_matches_matrix_powers_for_thermal_register(monkeypatch):
    # thermofield rows at 300 K: R = D register rows, against U^x for each x
    t = 6
    law, u, columns, rows = _thermal_law((1, 1), t, monkeypatch)
    assert rows.shape == (4, 4) and np.count_nonzero(rows) == 4
    _, ref_joint = controlled_power_state(u, columns, rows, t)
    assert np.abs(law - ref_joint).max() < 1e-12


def test_thermal_law_matches_the_ladder_at_benchmark_size(monkeypatch):
    # the benchmark's thermal op: so2 binary (3,3), t = 10, R = D = 16
    law, u, columns, rows = _thermal_law((3, 3), 10, monkeypatch)
    joint = qpe._controlled_power_sweep(u, columns, rows, 10, seed=4, shots=100)[3]
    assert law.shape == joint.shape == (2**10 * 16,)
    assert np.abs(law - joint).max() < 1e-12


@pytest.mark.parametrize("delta", [1e-17, 1e-14, 1e-11, 0.0, -1e-17, -1e-14])
def test_law_accurate_next_to_an_outcome(delta):
    # phi = 1/16 + delta at t = 4: the outer-form denominator cancels there
    # (K at j = 1 read 0.743 at delta = 1e-17, and sum_j K 1 - 0.26)
    law = qpe._eigenphase_law(np.array([1 / 16 + delta]), np.ones((1, 1)), 4)
    assert abs(law[1] - 1.0) < 1e-12
    assert abs(law.sum() - 1.0) < 1e-12


def test_law_matches_the_analytic_kernel_away_from_the_grid():
    rng = np.random.default_rng(8)
    phases, t = rng.random(50), 7
    weights = rng.random((3, 50))
    j = np.arange(2**t)
    delta = phases[None, :] - j[:, None] / 2**t
    expected = qpe_kernel_sq(delta, t) @ weights.T
    assert np.abs(qpe._eigenphase_law(phases, weights, t) - expected.reshape(-1)).max() < 1e-12


@pytest.mark.parametrize("dim, n_rows, t, shots", [
    pytest.param(16, 16, 10, 10, id="16-16-10"),
    pytest.param(64, 1, 12, 10, id="64-1-12"),
    pytest.param(121, 121, 6, 10, id="121-121-6"),
    pytest.param(2, 1, 1, 10**6, id="2-1-1-1e6shots"),
])
def test_sweep_peak_stays_within_its_checked_bytes(dim, n_rows, t, shots, monkeypatch):
    # the inverse FFT runs in place and |amplitude|^2 is formed a block at a
    # time, so the state holds 16 bytes per entry where it held 32; a shot
    # holds its uniform, outcome, j and row.  The caller's U is traced too:
    # it stays alive beside the ladder's two newest powers
    checked = []
    monkeypatch.setattr(qpe, "check_dense_bytes", lambda n_bytes, what: checked.append(n_bytes))
    rng = np.random.default_rng(5)
    u = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0]
    rows, columns = np.eye(n_rows, dim), np.arange(dim)
    tracemalloc.start()
    try:
        u = u.copy()
        qpe._controlled_power_sweep(u, columns, rows, t, seed=0, shots=shots)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= sum(checked) + 4096  # a few Python objects ride on the arrays


@pytest.mark.parametrize("dim, n_rows, t, shots", [
    pytest.param(16, 16, 12, 10, id="16-16-12"),
    pytest.param(121, 1, 14, 10, id="121-1-14"),
    pytest.param(121, 121, 8, 10, id="121-121-8"),
    pytest.param(2, 1, 1, 10**6, id="2-1-1-1e6shots"),
])
def test_law_peak_stays_within_its_checked_bytes(dim, n_rows, t, shots, monkeypatch):
    # the eigensolve, the weights, the law with its cdf, a kernel block and the
    # sampled shots, as the exact runs take them
    rng = np.random.default_rng(6)
    m = rng.normal(size=(dim, dim))
    h = ManyBodyOperator(ModeCutoffs((dim - 1,)), m + m.T)
    pmap = choose_phase_map(h, t)
    checked = []
    monkeypatch.setattr(qpe, "check_dense_bytes", lambda n_bytes, what: checked.append(n_bytes))
    tracemalloc.start()
    try:
        qpe._check_law(h, t, n_rows, shots, oracle.eigensolve_bytes(h))
        evals, evecs = oracle.eigensolve(h)
        weights = np.abs(evecs[:n_rows]) ** 2
        law = qpe._eigenphase_law(pmap.phase(evals), weights, t)
        qpe._sample_joint(law, n_rows, 0, shots)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= sum(checked) + 4096


def test_largest_accepted_shot_count_at_16_bytes_per_word():
    # a zero-temperature shot holds 32 bytes, so 2^25 shots alone fill the
    # budget; a 16-row thermal register (b = 5) holds up to 96
    assert qpe._shot_bytes(2**25, 1) == MAX_DENSE_BYTES
    assert qpe._shot_bytes(MAX_DENSE_BYTES // 96, 16) <= MAX_DENSE_BYTES
    assert qpe._shot_bytes(MAX_DENSE_BYTES // 96 + 1, 16) > MAX_DENSE_BYTES
    h = diag_h([0.0, 1.0])
    pmap = PhaseMap(tau=1.0, energy_shift=0.0, t=1)
    with pytest.raises(DenseBudgetError, match="33554432 sampled shots"):
        run_qpe(h, Encoding("binary", h.space), t=1, shots=2**25, phase_map=pmap)


@pytest.mark.parametrize("backend", [EvolutionBackend.exact(), TROTTER], ids=["exact", "trotter"])
def test_one_byte_check_per_sampled_run(backend, monkeypatch):
    # the law (or the ladder's state) is alive while the shots are sampled and
    # decoded, so a run whose parts each fit the budget, but not their sum, is
    # refused before a shot is drawn
    problem, cutoffs = bundled_problem("so2"), ModeCutoffs((2, 2))
    checked = []
    real_check = qpe.check_dense_bytes

    def record(n_bytes, what):
        checked.append(n_bytes)
        real_check(n_bytes, what)

    monkeypatch.setattr(qpe, "check_dense_bytes", record)
    run_qpe_problem(problem, cutoffs, t=6, shots=1, encoding_variant="unary", backend=backend)
    held = checked[-1] - qpe._shot_bytes(1, 1)
    shots = held // 32
    budget = max(held, qpe._shot_bytes(shots, 1))
    # the run's other checks (the Trotter step) fit too
    assert budget < held + qpe._shot_bytes(shots, 1) and max(checked[:-1], default=0) < budget

    def refuse(*args, **kwargs):
        pytest.fail("shots were drawn although the run exceeds the byte budget")

    monkeypatch.setattr(fock, "MAX_DENSE_BYTES", budget)
    monkeypatch.setattr(qpe, "shot_uniforms", refuse)
    with pytest.raises(DenseBudgetError, match=f"{shots} sampled shots"):
        run_qpe_problem(problem, cutoffs, t=6, shots=shots, encoding_variant="unary",
                        backend=backend)


@pytest.mark.parametrize("thermal, cutoffs", [
    (False, (1, 1)), (True, (1, 1)), (True, (2, 2)),
], ids=["qpe-1,1", "thermal-1,1", "thermal-2,2"])
def test_sampled_run_peak_stays_within_its_checked_bytes(thermal, cutoffs, monkeypatch):
    # 1e6 shots, through decoding and the histogram: the per-shot words
    # dominate every other checked array
    checked = []
    for module in (qpe, oracle):
        monkeypatch.setattr(module, "check_dense_bytes",
                            lambda n_bytes, what: checked.append(n_bytes))
    problem, space = bundled_problem("so2"), ModeCutoffs(cutoffs)
    tracemalloc.start()
    try:
        if thermal:
            spectrum = run_qpe_thermal(problem, space, 6, 10**6,
                                       ThermalConfig.from_temperature_kelvin(300.0), seed=1)
        else:
            spectrum = run_qpe_problem(problem, space, t=6, shots=10**6, seed=1)
        spectrum.histogram()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= sum(checked) + 4096
