"""Acceptance suite: every exit criterion at its stated tolerance.

Each check prints one `ACCEPTANCE <k>: PASS/FAIL` line (run pytest with -s
to stream them).  Shared heavy artifacts (converged spectra, sampled runs)
are module-scoped fixtures.  Where published reference numbers could not be
reproduced despite verified machinery, the checks assert the stated targets
anyway and fail honestly; the measured values are in the printed lines.
"""

import math
import time

import numpy as np
import pytest

from vibronic import fock
from vibronic.cli import REPRO_RECIPE, REPRO_ROUTE
from vibronic.hamiltonian import (
    build_b_dagger,
    build_hamiltonian,
    ladder_terms,
)
from vibronic.mapping import (
    Encoding,
    QubitLayout,
    codespace_indices,
    map_second_quantized,
    map_single_mode,
    pauli_to_matrix,
)
from vibronic.oracle import (
    bin_spectrum,
    converge_sweep,
    cumulative_fcf_by_level,
    diagonalize_fcp,
    eigensolve,
    l1_distance,
    spectrum_pipeline,
    thermal_fcp_oracle,
    tv_distance,
)
from vibronic.problem import ModeCutoffs, ThermalConfig, VibronicProblem, bundled_problem
from vibronic.qpe import (
    EvolutionBackend,
    PhaseMap,
    prepare_thermal,
    run_qpe,
    run_qpe_thermal,
    trotter_unitary,
)


def report(line: str, ok: bool) -> bool:
    print(f"ACCEPTANCE {line}: {'PASS' if ok else 'FAIL'}")
    return ok


def binned_tv(energies_a, weights_a, energies_b, weights_b, width, origin):
    """TV distance between two stick/sample sets binned on a common grid."""
    ia = np.floor((np.asarray(energies_a) - origin) / width).astype(int)
    ib = np.floor((np.asarray(energies_b) - origin) / width).astype(int)
    lo = min(ia.min(), ib.min())
    n = max(ia.max(), ib.max()) - lo + 1
    ha = np.bincount(ia - lo, weights=weights_a, minlength=n)
    hb = np.bincount(ib - lo, weights=weights_b, minlength=n)
    return 0.5 * float(np.abs(ha / ha.sum() - hb / hb.sum()).sum())


def recipe_cutoffs(problem, recipe, varied_value):
    levels = [0] * problem.n_modes
    for mode, value in recipe["fixed"].items():
        levels[mode] = value
    levels[recipe["varied"]] = varied_value
    return ModeCutoffs(tuple(levels))


# ---------------------------------------------------------------- 1 ----


@pytest.fixture(scope="module")
def repro_l1():
    """Exact-vs-under-truncated L1 for the four molecules (repro recipe)."""
    t0 = time.time()
    values = {}
    for name, recipe in REPRO_RECIPE.items():
        problem = bundled_problem(name)
        _, _, exact = spectrum_pipeline(
            problem, recipe_cutoffs(problem, recipe, recipe["exact"]), route=REPRO_ROUTE
        )
        _, _, approx = spectrum_pipeline(
            problem, recipe_cutoffs(problem, recipe, recipe["approx"]), route=REPRO_ROUTE
        )
        values[name] = l1_distance(exact, approx)
    values["elapsed"] = time.time() - t0
    return values


@pytest.mark.parametrize("name", ["so2", "h2o", "d2o", "no2"])
def test_criterion_1_l1_reproduction(repro_l1, name):
    target = REPRO_RECIPE[name]["target_l1"]
    value = repro_l1[name]
    ok = abs(value - target) <= 0.02
    report(f"1.{name}: L1 = {value:.4f} (published {target}, tol 0.02)", ok)
    assert ok, f"{name}: |{value:.4f} - {target}| > 0.02"


def test_criterion_1_runtime(repro_l1):
    ok = repro_l1["elapsed"] < 120.0
    report(f"1.runtime: four-molecule L1 table in {repro_l1['elapsed']:.0f} s (< 120 s)", ok)
    assert ok


# ---------------------------------------------------------------- 2 ----

SWEEP_WINDOWS = {
    # published L*, sweep window chosen around the published value and the
    # measured crossing (traces are monotone, so no crossing hides below)
    "so2": (12, 1, 24),
    "h2o": (51, 48, 68),
    "d2o": (64, 62, 80),
    "no2": (69, 66, 73),
}


@pytest.mark.parametrize("name", ["so2", "h2o", "d2o", "no2"])
def test_criterion_2_convergence_cutoffs(name):
    target, l_start, l_cap = SWEEP_WINDOWS[name]
    problem = bundled_problem(name)
    recipe = REPRO_RECIPE[name]
    result = converge_sweep(
        problem,
        recipe["varied"],
        recipe["fixed"],
        threshold=1e-4,
        l_start=l_start,
        l_cap=l_cap,
        route=REPRO_ROUTE,
    )
    found = result.converged_l_max
    shown = found if found is not None else f">{l_cap}"
    ok = found is not None and abs(found - target) <= 1
    tail = ", ".join(f"d({l})={d:.1e}" for l, d in result.trace[-3:])
    report(f"2.{name}: sweep(1e-4) L* = {shown} (published {target} +-1; {tail})", ok)
    assert ok, f"{name}: sweep converged at {shown}, published {target}"


# ---------------------------------------------------------------- 3 ----


@pytest.fixture(scope="module")
def so2_cumulative():
    return cumulative_fcf_by_level(bundled_problem("so2"), ModeCutoffs((22, 12)), mode=0)


@pytest.mark.parametrize("level,target", [(8, 1.6e-3), (12, 5.2e-5), (13, 1.5e-5)])
def test_criterion_3_cumulative_fcfs(so2_cumulative, level, target):
    value = so2_cumulative[level]
    ok = abs(value - target) / target <= 0.10
    report(f"3.level{level}: cumulative FCF = {value:.3e} (published {target:g}, tol 10%)", ok)
    assert ok, f"level {level}: {value:.3e} vs {target:g}"


# ---------------------------------------------------------------- 4 ----


@pytest.mark.parametrize("name", ["so2", "h2o", "d2o", "no2", "so2_anharmonic"])
def test_criterion_4_interior_elements(name):
    problem = bundled_problem(name)
    cutoffs = ModeCutoffs.uniform(6, problem.n_modes)
    h_qp = build_hamiltonian(problem, cutoffs, route="qp").hamiltonian.to_dense()
    h_ld = build_hamiltonian(problem, cutoffs, route="ladder").hamiltonian.to_dense()
    interior = [
        np.ravel_multi_index(levels, cutoffs.local_dims)
        for levels in np.ndindex(*([5] * problem.n_modes))
    ]
    diff = np.abs(h_qp[np.ix_(interior, interior)] - h_ld[np.ix_(interior, interior)]).max()
    ok = diff < 1e-9
    report(f"4.elements.{name}: interior |QP - Ladder| = {diff:.2e} (<= 1e-9)", ok)
    assert ok


DUAL_ROUTE_CUTOFFS = {
    # largest cutoffs where the cross-route distance still improves at desk
    # scale; d2o and no2 stay above 1e-4 (measured flat across fixed 26..44
    # and varied 100..108), so those two checks record an honest failure.
    # d2o's route difference is genuine (direct-Gaussian L1 about 4.8e-4).
    # no2's residue is 1 cm^-1 bin aliasing: its eigenvalues sit on bin
    # edges, so round-off picks the bin (direct-Gaussian L1 about 5.5e-11).
    "so2": (26, 10),
    "h2o": (26, 78),
    "d2o": (26, 108),
    "no2": (52, 108),
}


@pytest.mark.parametrize("name", ["so2", "h2o", "d2o", "no2"])
def test_criterion_4_converged_spectra(name):
    problem = bundled_problem(name)
    cutoffs = ModeCutoffs(DUAL_ROUTE_CUTOFFS[name])
    _, _, b_qp = spectrum_pipeline(problem, cutoffs, route="qp")
    _, _, b_ld = spectrum_pipeline(problem, cutoffs, route="ladder")
    value = l1_distance(b_qp, b_ld)
    ok = value <= 1e-4
    report(f"4.spectra.{name}: converged-route L1 = {value:.2e} (<= 1e-4)", ok)
    assert ok


# ---------------------------------------------------------------- 5 ----


def test_criterion_5_poisson_oracle():
    delta = 1.8830
    l_max = 40  # >= delta^2 + 10
    problem = VibronicProblem("poisson", [1000.0], [1000.0], [[1.0]], [delta])
    sticks = diagonalize_fcp(build_hamiltonian(problem, ModeCutoffs((l_max,))).hamiltonian)
    lam = delta**2 / 2
    analytic = np.array(
        [math.exp(-lam) * lam**n / math.factorial(n) for n in range(l_max + 1)]
    )
    err = np.abs(sticks.intensities - analytic).max()
    ok = err < 1e-8
    report(f"5: displaced-mode FCF vs Poisson, max err = {err:.2e} (< 1e-8, L={l_max})", ok)
    assert ok


# ---------------------------------------------------------------- 6 ----


@pytest.mark.parametrize("variant", ["binary", "unary"])
def test_criterion_6_pauli_round_trip(variant):
    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(50):
        l_max = int(rng.integers(1, 8))
        d = l_max + 1
        enc = Encoding(variant, ModeCutoffs((l_max,)))
        layout = QubitLayout.for_encoding(enc)
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        m = pauli_to_matrix(map_single_mode(a, 0, enc, layout))
        code = codespace_indices(enc, layout)
        worst = max(worst, float(np.abs(m[np.ix_(code, code)] - a).max()))
    ok = worst < 1e-12
    report(f"6.{variant}: 50 random operators, max round-trip err = {worst:.2e} (< 1e-12)", ok)
    assert ok


# ---------------------------------------------------------------- 7 ----


def test_criterion_7_quadratic_term_scaling():
    rng = np.random.default_rng(7)
    ms = np.arange(2, 7)
    counts = []
    for m in ms:
        q, r = np.linalg.qr(rng.normal(size=(m, m)))
        s = q * np.sign(np.diag(r))
        problem = VibronicProblem(
            f"rand{m}", rng.uniform(400, 1500, m), rng.uniform(400, 1500, m),
            s, rng.uniform(-2, 2, m),
        )
        counts.append(len(ladder_terms(problem)))
    counts = np.array(counts, dtype=float)
    c = (counts @ ms**2) / (ms**4).sum()
    r2 = 1 - ((counts - c * ms**2) ** 2).sum() / ((counts - counts.mean()) ** 2).sum()
    ok = r2 >= 0.99
    report(f"7: ladder term count ~ c M^2 fit, R^2 = {r2:.4f} (>= 0.99)", ok)
    assert ok


# ---------------------------------------------------------------- 8 ----


@pytest.fixture(scope="module")
def so2_qpe_run():
    t0 = time.time()
    problem = bundled_problem("so2")
    cutoffs = ModeCutoffs((10, 10))
    sticks, _, _ = spectrum_pipeline(problem, cutoffs, route="qp")
    # tau is a free calibration knob; pin it from the known top of the
    # spectrum, and center bins so no stick sits on a 50 cm^-1 edge
    pmap = PhaseMap(
        tau=2 * math.pi * 0.98 / (float(sticks.energies.max()) * 1.001),
        energy_shift=0.0,
        t=12,
    )
    h = build_hamiltonian(problem, cutoffs, route="qp").hamiltonian
    spec = run_qpe(h, Encoding("binary", cutoffs), t=12, shots=100000, seed=7,
                   phase_map=pmap)
    return sticks, spec, time.time() - t0


def test_criterion_8_qpe_fidelity(so2_qpe_run):
    sticks, spec, elapsed = so2_qpe_run
    value = binned_tv(
        spec.energies, np.ones(len(spec.energies)),
        sticks.energies, sticks.intensities, width=50.0, origin=-25.0,
    )
    ok = value <= 0.05 and elapsed < 600.0
    report(f"8: SO2 sampled-vs-oracle TV(50 cm^-1) = {value:.4f} "
           f"(<= 0.05; 1e5 shots in {elapsed:.1f} s)", ok)
    assert ok


def test_criterion_8_exact_phase_determinism():
    space = ModeCutoffs((1,))
    h = fock.ManyBodyOperator(space, np.diag([1.0, 5.0]).astype(complex))
    pmap = PhaseMap(tau=2 * math.pi * 3 / 16, energy_shift=0.0, t=4)
    spec = run_qpe(h, Encoding("binary", ModeCutoffs((1,))), t=4, shots=1000,
                   seed=11, phase_map=pmap, initial_state=np.array([1.0, 0.0]))
    ok = set(spec.j_outcomes) == {3}
    report("8.determinism: exact-phase eigenstate gives a single outcome", ok)
    assert ok


# ---------------------------------------------------------------- 9 ----


@pytest.mark.parametrize("order,expected", [(1, -1.0), (2, -2.0)])
def test_criterion_9_trotter_slopes(order, expected):
    problem = VibronicProblem("single", [1000.0], [1000.0], [[1.0]], [1.0])
    enc = Encoding("binary", ModeCutoffs((3,)))
    layout = QubitLayout.for_encoding(enc)
    ps = map_second_quantized(ladder_terms(problem), enc, layout)
    h = pauli_to_matrix(ps)
    evals, evecs = np.linalg.eigh(h)
    tau = 2 * math.pi * 0.9 / 5000.0
    u_exact = (evecs * np.exp(-1j * tau * evals)) @ evecs.conj().T
    steps = np.array([4, 8, 16, 32, 64])
    errs = []
    for s in steps:
        defect = u_exact.conj().T @ trotter_unitary(ps, tau, order, s)
        errs.append(np.abs(np.angle(np.linalg.eigvals(defect))).max())
    slope = np.polyfit(np.log(steps), np.log(errs), 1)[0]
    ok = abs(slope - expected) <= 0.3
    report(f"9.order{order}: eigenphase-error slope = {slope:.3f} ({expected} +- 0.3)", ok)
    assert ok


# --------------------------------------------------------------- 10 ----


def test_criterion_10_boltzmann_amplitudes():
    problem = VibronicProblem("warm", [500.0], [500.0], [[1.0]], [1.0])
    thermal = ThermalConfig.from_temperature_kelvin(300.0)
    q = math.exp(-thermal.beta * 500.0)
    kappa = prepare_thermal(problem, ModeCutoffs((14,)), thermal)
    weights = np.diag(kappa) ** 2
    analytic = (1 - q) * q ** np.arange(15)
    err = np.abs(weights[:7] - analytic[:7]).max()
    ok = err < 1e-8
    report(f"10.kappa: |kappa_n^2 - Boltzmann| = {err:.2e} (< 1e-8)", ok)
    assert ok


@pytest.fixture(scope="module")
def thermal_runs():
    problem = VibronicProblem("warm", [500.0], [500.0], [[1.0]], [1.0])
    cutoffs = ModeCutoffs((7,))
    thermal = ThermalConfig.from_temperature_kelvin(300.0)
    evals = eigensolve(build_hamiltonian(problem, cutoffs).hamiltonian)[0]
    pmap = PhaseMap(tau=2 * math.pi * 0.98 / (float(evals.max()) * 1.001),
                    energy_shift=0.0, t=12)
    cold = run_qpe_thermal(problem, cutoffs, t=12, shots=100000,
                           thermal=ThermalConfig(beta=math.inf), seed=101,
                           phase_map=pmap)
    warm = run_qpe_thermal(problem, cutoffs, t=12, shots=100000,
                           thermal=thermal, seed=17, phase_map=pmap)
    zero_t = run_qpe(build_hamiltonian(problem, cutoffs).hamiltonian,
                     Encoding("binary", cutoffs), t=12, shots=100000, seed=202,
                     phase_map=pmap)
    oracle_sticks = thermal_fcp_oracle(problem, cutoffs, thermal)
    return problem, cold, warm, zero_t, oracle_sticks


def test_criterion_10_zero_temperature_limit(thermal_runs):
    problem, cold, _, zero_t, _ = thermal_runs
    # beta -> inf contributes only n=0, i.e. the zero-T run shifted by -E_A(0)
    value = binned_tv(cold.energies, np.ones(len(cold.energies)),
                      zero_t.energies - 250.0, np.ones(len(zero_t.energies)),
                      width=1.0, origin=-0.5)
    ok = value <= 0.02
    report(f"10.beta-inf: TV(thermal, shifted zero-T) = {value:.4f} (<= 0.02, "
           "independent seeds)", ok)
    assert ok


def test_criterion_10_thermal_oracle_match(thermal_runs):
    _, _, warm, _, oracle_sticks = thermal_runs
    value = binned_tv(warm.energies, np.ones(len(warm.energies)),
                      oracle_sticks.energies, oracle_sticks.intensities,
                      width=50.0, origin=-25.0)
    ok = value <= 0.05
    report(f"10.oracle: sampled finite-T vs thermal oracle TV(50) = {value:.4f} (<= 0.05)", ok)
    assert ok


# --------------------------------------------------------------- 11 ----


@pytest.fixture(scope="module")
def anharmonic_artifacts():
    problem = bundled_problem("so2_anharmonic")
    spectra = {}
    for base in range(12, 17):
        cutoffs = ModeCutoffs((base, 8, 6))
        rep = build_hamiltonian(problem, cutoffs)
        _, _, broadened = spectrum_pipeline(problem, cutoffs, route="qp")
        spectra[base] = (rep, broadened)
    harmonic = VibronicProblem(
        "harmonic part", problem.omega_A, problem.omega_B,
        problem.duschinsky_S, problem.delta,
    )
    _, _, harm = spectrum_pipeline(harmonic, ModeCutoffs((16, 8, 6)), route="qp")
    return spectra, harm


def test_criterion_11_builds_hermitian(anharmonic_artifacts):
    spectra, _ = anharmonic_artifacts
    rep, _ = spectra[16]
    dev = rep.hermiticity_deviation
    evals = eigensolve(rep.hamiltonian)[0]
    ok = dev <= 1e-10 and np.abs(np.imag(evals)).max() == 0.0
    report(f"11.hermitian: anharmonic H deviation = {dev:.2e} (<= 1e-10), real spectrum", ok)
    assert ok


def test_criterion_11_converges(anharmonic_artifacts):
    spectra, _ = anharmonic_artifacts
    successive = [
        l1_distance(spectra[base][1], spectra[base - 1][1]) for base in range(13, 17)
    ]
    value = successive[-1]
    ok = value < 1e-3
    trace = ", ".join(f"{v:.1e}" for v in successive)
    report(f"11.converges: successive L1 under cutoff growth [{trace}] -> {value:.2e} (< 1e-3)", ok)
    assert ok


def test_criterion_11_differs_from_harmonic(anharmonic_artifacts):
    spectra, harm = anharmonic_artifacts
    value = l1_distance(spectra[16][1], harm)
    ok = value > 0.1
    report(f"11.anharmonicity: broadened L1(anharmonic, harmonic) = {value:.3f} (> 0.1)", ok)
    assert ok


# --------------------------------------------------------------- 12 ----


def _labeled_sticks(problem, cutoffs, bias):
    """Stick list with final-surface quantum-number labels per eigenstate.

    Labels come from floor(<b^dag b> + bias): interior occupations sit at
    integers, boundary-distorted states float ~0.5 above their true label,
    so a sub-0.5 positive bias assigns both correctly.
    """
    rep = build_hamiltonian(problem, cutoffs, route=REPRO_ROUTE)
    evals, evecs = eigensolve(rep.hamiltonian)
    fcf = np.abs(evecs[0, :]) ** 2
    b_ops = build_b_dagger(problem, rep.space)
    labels = []
    for mode in range(problem.n_modes):
        nmat = (b_ops[mode] @ b_ops[mode].dagger()).to_dense().real
        occ = np.einsum("ji,jk,ki->i", evecs, nmat, evecs)
        labels.append(np.floor(occ + bias).astype(int))
    return evals, fcf, np.stack(labels, axis=1)


def test_criterion_12_blue_shift_signature():
    # bias 0.15: interior occupations sit within 0.1 of their integer while
    # boundary-distorted ones float 0.2..0.8 above it, so floor(occ + 0.15)
    # recovers the physical level on both sides
    problem = bundled_problem("so2")
    exact_e, exact_f, exact_l = _labeled_sticks(problem, ModeCutoffs((22, 8)), bias=0.15)
    approx_e, approx_f, approx_l = _labeled_sticks(problem, ModeCutoffs((10, 8)), bias=0.15)
    exact_by_label = {tuple(l): e for e, l in zip(exact_e, exact_l)}

    high_pairs = 0
    min_shift = np.inf
    low_pairs = 0
    max_low_err = 0.0
    for e, f, l in zip(approx_e, approx_f, approx_l):
        if f < 1e-8:
            continue
        partner = exact_by_label.get(tuple(l))
        if partner is None:
            continue
        if e > 6000.0:
            high_pairs += 1
            min_shift = min(min_shift, e - partner)
        elif e < 2000.0:
            low_pairs += 1
            max_low_err = max(max_low_err, abs(e - partner))

    ok = high_pairs >= 10 and min_shift >= -1e-6 and low_pairs >= 3 and max_low_err <= 1.0
    report(
        f"12: blue shift, {high_pairs} sticks > 6000 all shifted up "
        f"(min shift {min_shift:+.2f}); {low_pairs} sticks < 2000 match to "
        f"{max_low_err:.4f} cm^-1 (<= 1)",
        ok,
    )
    assert ok
