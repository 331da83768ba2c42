import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from dense_reference import controlled_power_state, outcome_distribution
from vibronic import oracle, qpe
from vibronic.fock import ManyBodyOperator
from vibronic.hamiltonian import build_hamiltonian, ladder_terms
from vibronic.mapping import (
    MAX_DENSE_BYTES,
    DenseBudgetError,
    Encoding,
    PauliSum,
    QubitLayout,
    codespace_indices,
    map_second_quantized,
    pauli_to_matrix,
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
    rep = build_hamiltonian(toy_problem(), ModeCutoffs((3,)))
    enc = Encoding("binary", ModeCutoffs((3,)))
    with pytest.raises(DenseBudgetError):
        run_qpe(rep.hamiltonian, enc, t=25, shots=1, seed=0)


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


@pytest.mark.parametrize("backend", [EvolutionBackend.exact(), EvolutionBackend.trotter(1, 1)])
def test_byte_estimate_checked_before_allocation(backend, monkeypatch):
    # unary (9,9) has 20 system qubits.  The Trotter step unitary on that
    # register would take 16 TiB; the exact backend evolves on the D = 100
    # code space and runs.
    def refuse(*args, **kwargs):
        pytest.fail("dense step unitary built despite the byte estimate")

    monkeypatch.setattr(qpe, "trotter_step_unitary", refuse)
    pmap = PhaseMap(tau=1.0, energy_shift=0.0, t=6)
    cuts = ModeCutoffs((9, 9))
    h = ManyBodyOperator(cuts, sp.identity(100, format="csr"))
    if backend.kind == "trotter":
        with pytest.raises(DenseBudgetError, match="GiB"):
            run_qpe(h, Encoding("unary", cuts), t=6, shots=1, backend=backend,
                    phase_map=pmap, pauli_hamiltonian=PauliSum(20))
        return
    assert len(run_qpe(h, Encoding("unary", cuts), t=6, shots=7, phase_map=pmap).j_outcomes) == 7
    # binary (1023,1023) has D = 2^20, so the D x D propagator would take 16 TiB
    monkeypatch.setattr(qpe, "eigensolve", refuse)
    cuts = ModeCutoffs((1023, 1023))
    h = ManyBodyOperator(cuts, sp.identity(1 << 20, format="csr"))
    with pytest.raises(DenseBudgetError, match="GiB"):
        run_qpe(h, Encoding("binary", cuts), t=6, shots=1, phase_map=pmap)


@pytest.mark.parametrize("variant, cuts, backend, side", [
    ("binary", (63, 63), EvolutionBackend.exact(), 4096),
    ("unary", (5, 5), EvolutionBackend.trotter(1, 1), 4096),
])
def test_step_estimate_counts_every_array_the_step_holds(variant, cuts, backend, side,
                                                         monkeypatch):
    # a 4096 x 4096 U alone is 0.25 GiB, but the step holds four such arrays
    # (eigenvectors and their phased copy, or the Trotter rotation copies) and
    # the squaring ladder three
    def refuse(*args, **kwargs):
        pytest.fail("a D x D array was built despite the step's byte estimate")

    for module, name in ((qpe, "eigensolve"), (oracle, "eigensolve"),
                         (qpe, "trotter_step_unitary")):
        monkeypatch.setattr(module, name, refuse)
    monkeypatch.setattr(ManyBodyOperator, "to_dense", refuse)
    cutoffs = ModeCutoffs(cuts)
    enc = Encoding(variant, cutoffs)
    assert 16 * side**2 <= MAX_DENSE_BYTES < qpe.STEP_BYTES_PER_ENTRY * side**2
    h = ManyBodyOperator(cutoffs, sp.identity(cutoffs.dimension, format="csr"))
    pmap = PhaseMap(tau=1.0, energy_shift=0.0, t=4)
    with pytest.raises(DenseBudgetError, match=f"a {side}-state {backend.kind} QPE step"):
        run_qpe(h, enc, t=4, shots=1, backend=backend, phase_map=pmap,
                pauli_hamiltonian=PauliSum(QubitLayout.for_encoding(enc).total_qubits))


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
    assert kappa[0, 0] == 1.0
    assert np.abs(kappa).sum() == 1.0


def test_prepare_thermal_boltzmann_ratios():
    p = toy_problem(omega=500.0)
    thermal = ThermalConfig.from_temperature_kelvin(300.0)
    bw = math.exp(-thermal.beta * 500.0)
    kappa = prepare_thermal(p, ModeCutoffs((14,)), thermal)
    diag = np.diag(kappa) ** 2
    assert diag[0] == pytest.approx(1 - bw, abs=1e-8)
    # boundary distortion decays geometrically away from the cutoff, so
    # levels up to 6 are clean at L_max = 14
    for n in range(1, 7):
        assert diag[n] / diag[n - 1] == pytest.approx(bw, abs=1e-8)
    off = kappa - np.diag(np.diag(kappa))
    assert np.abs(off).max() < 1e-12


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
            assert kappa[flat, flat] == pytest.approx(k1[n, n] * k2[m, m], abs=1e-10)


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
    p = toy_problem()
    with pytest.raises(DenseBudgetError):
        run_qpe_thermal(p, ModeCutoffs((15,)), t=20, shots=1,
                        thermal=ThermalConfig(beta=0.01), seed=0)


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
    real_sample = qpe._sample_from_probabilities

    def sample(probs, seed, shots):
        outcomes = real_sample(probs, seed, shots)
        sampled.append(outcomes)
        return outcomes

    monkeypatch.setattr(qpe, "_sample_from_probabilities", sample)
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
    assert hist.metadata["shots"] == 500
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
    problem = bundled_problem("so2")
    cutoffs = ModeCutoffs(cuts)
    enc = Encoding(variant, cutoffs)
    layout = QubitLayout.for_encoding(enc)
    _, h, pauli, pmap = qpe._problem_hamiltonian(problem, cutoffs, t, enc, backend, "qp")
    code = codespace_indices(enc, layout)
    u, basis, columns = qpe._step_unitary(h, pmap, backend, pauli, code, layout.total_qubits)
    return problem, cutoffs, enc, h, pauli, pmap, code, u, basis, columns


def test_ladder_matches_matrix_powers_from_initial_state():
    # exact binary, one register row in a complex non-vacuum state
    t = 6
    _, _, enc, h, _, pmap, code, u, basis, columns = _sweep_inputs((2, 2), "binary",
                                                                   EvolutionBackend.exact(), t)
    rng = np.random.default_rng(3)
    vec = rng.normal(size=len(code)) + 1j * rng.normal(size=len(code))
    rows = (vec / np.linalg.norm(vec))[None, :]
    ref_amps, ref_joint = controlled_power_state(u, columns, rows, t)
    _, _, amps, joint = qpe._controlled_power_sweep(u, columns, rows, t, seed=4, shots=100)
    assert np.abs(amps - ref_amps).max() < 1e-12
    assert np.abs(joint - ref_joint).max() < 1e-12

    spec, state, probs = run_qpe(h, enc, t, shots=100, seed=4, initial_state=vec,
                                 phase_map=pmap, return_state=True, return_distribution=True)
    post = ref_amps[spec.j_outcomes[-1], 0]
    expected = np.zeros(len(state), dtype=complex)
    expected[basis] = post / np.linalg.norm(post)
    assert np.abs(state - expected).max() < 1e-12
    assert np.abs(probs - ref_joint).max() < 1e-12


def test_ladder_matches_matrix_powers_with_trotter_leakage():
    # unary trotter:1:1 evolves all 2^6 register states; about 1e-3 of the
    # vacuum's weight leaks off the code space
    t = 6
    *_, code, u, _, columns = _sweep_inputs((2, 2), "unary", EvolutionBackend.trotter(1, 1), t)
    rows = np.eye(1, len(code))
    ref_amps, ref_joint = controlled_power_state(u, columns, rows, t)
    _, _, amps, joint = qpe._controlled_power_sweep(u, columns, rows, t, seed=4, shots=100)
    leaked = (np.abs(np.delete(ref_amps, code, axis=2)) ** 2).sum()
    assert 1e-4 < leaked < 1e-2
    assert np.abs(amps - ref_amps).max() < 1e-12
    assert np.abs(joint - ref_joint).max() < 1e-12


def test_ladder_matches_matrix_powers_for_thermal_register():
    # thermofield rows at 300 K: R = D register rows evolved together
    t = 6
    problem, cutoffs, _, _, _, _, code, u, _, columns = _sweep_inputs(
        (1, 1), "binary", EvolutionBackend.exact(), t)
    rows = prepare_thermal(problem, cutoffs, ThermalConfig.from_temperature_kelvin(300.0))
    rows = rows[np.argsort(code)]
    assert len(rows) == len(code) == 4
    ref_amps, ref_joint = controlled_power_state(u, columns, rows, t)
    _, _, amps, joint = qpe._controlled_power_sweep(u, columns, rows, t, seed=4, shots=100)
    assert np.abs(amps - ref_amps).max() < 1e-12
    assert np.abs(joint - ref_joint).max() < 1e-12
