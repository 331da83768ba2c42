import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from dense_reference import (bin_spectrum_dense, binned_from_dense, broaden_dense,
                             converge_sweep_held, cumulative_fcf_by_level_dense,
                             l1_distance_interp)
from hypothesis import given, settings
from hypothesis import strategies as st

from vibronic import oracle
from vibronic.fock import HERMITICITY_RTOL, MAX_DENSE_BYTES, DenseBudgetError, ManyBodyOperator
from vibronic.hamiltonian import build_hamiltonian
from vibronic.oracle import (
    BroadenedSpectrum,
    bin_spectrum,
    broaden,
    converge_sweep,
    cumulative_fcf_by_level,
    diagonalize_fcp,
    l1_distance,
    rebin,
    spectrum_pipeline,
    thermal_fcp_oracle,
    tv_distance,
)
from vibronic.problem import (
    ModeCutoffs,
    ThermalConfig,
    VibronicProblem,
    bundled_problem,
    fock_state_energy,
)
from vibronic.qpe import PhaseMap, SampledSpectrum


def toy_problem(delta=0.0, omega=1000.0, label="toy"):
    return VibronicProblem(label, [omega], [omega], [[1.0]], [delta])


def poisson_pmf(n, lam):
    return math.exp(-lam) * lam**n / math.factorial(n)


def test_identity_transform_single_stick():
    rep = build_hamiltonian(toy_problem(), ModeCutoffs((6,)))
    sticks = diagonalize_fcp(rep.hamiltonian)
    assert sticks.energies[0] == pytest.approx(500.0)
    assert sticks.intensities[0] == pytest.approx(1.0)
    assert sticks.intensities[1:].max() < 1e-20


def test_displaced_oscillator_poisson_fcf():
    delta = -1.8830
    lam = delta**2 / 2
    rep = build_hamiltonian(toy_problem(delta=delta), ModeCutoffs((30,)))
    sticks = diagonalize_fcp(rep.hamiltonian)
    assert sticks.intensities[0] == pytest.approx(math.exp(-lam), abs=1e-9)
    assert sticks.intensities[0] == pytest.approx(0.1698, abs=1e-4)
    for n in range(12):
        assert sticks.intensities[n] == pytest.approx(poisson_pmf(n, lam), abs=1e-7)


def test_fcf_completeness_is_exact_for_full_eigenbasis():
    rep = build_hamiltonian(bundled_problem("so2"), ModeCutoffs((10, 10)))
    sticks = diagonalize_fcp(rep.hamiltonian)
    assert sticks.total_intensity == pytest.approx(1.0, abs=1e-12)
    assert abs(sticks.leakage) < 1e-12
    assert sticks.intensities.min() >= 0.0
    assert sticks.intensities.max() <= 1.0


def test_non_hermitian_rejected():
    space = ModeCutoffs((2,))
    op = ManyBodyOperator(space, np.triu(np.ones((3, 3))) + 0j)
    with pytest.raises(ValueError, match="Hermitian"):
        diagonalize_fcp(op)


def test_hermiticity_read_once_per_solve(monkeypatch):
    # dense_matrix is the one gate: H - H^T is formed once per spectrum_pipeline
    # (not again by the build) and once per eigensolve
    calls = []
    real = ManyBodyOperator.hermiticity_deviation
    monkeypatch.setattr(ManyBodyOperator, "hermiticity_deviation",
                        lambda self: calls.append(1) or real(self))
    problem, cutoffs = bundled_problem("so2"), ModeCutoffs((4, 3))
    spectrum_pipeline(problem, cutoffs)
    assert len(calls) == 1
    h = build_hamiltonian(problem, cutoffs).hamiltonian
    assert len(calls) == 1
    oracle.eigensolve(h)
    assert len(calls) == 2


STICK_CASES = [
    pytest.param("so2", (8, 8), "qp", id="so2-8,8-qp"),
    pytest.param("so2", (8, 8), "ladder", id="so2-8,8-ladder"),
    pytest.param("no2", (20, 30), "qp", id="no2-20,30-qp"),
    pytest.param("no2", (20, 30), "ladder", id="no2-20,30-ladder"),
    pytest.param("so2_anharmonic", (4, 3, 3), "qp", id="so2_anharmonic-4,3,3-qp"),
    pytest.param("so2_anharmonic", (4, 3, 3), "ladder", id="so2_anharmonic-4,3,3-ladder"),
    pytest.param("toy", (1,), "qp", id="toy-D2-qp"),
]


@pytest.mark.parametrize("name,cutoffs,route", STICK_CASES)
def test_sticks_bit_identical_to_dsyevd(name, cutoffs, route):
    problem = toy_problem(delta=0.7) if name == "toy" else bundled_problem(name)
    h = build_hamiltonian(problem, ModeCutoffs(cutoffs), route=route).hamiltonian
    sticks = diagonalize_fcp(h)
    mat = h.to_dense()
    evals, evecs = scipy.linalg.eigh(mat, driver="evd")
    assert np.array_equal(sticks.energies, evals)
    assert np.array_equal(sticks.intensities, np.abs(evecs[0]) ** 2)
    evals, evecs = np.linalg.eigh(mat)
    assert np.abs(sticks.energies - evals).max() <= 1e-12 * np.abs(evals).max()
    assert np.abs(sticks.intensities - np.abs(evecs[0]) ** 2).max() <= 1e-12


@pytest.mark.parametrize("name,cutoffs", [
    ("so2", (20, 20)), ("no2", (36, 40)), ("so2_anharmonic", (8, 6, 6)), ("h2o", (10, 40)),
])
def test_sticks_are_the_eigensolves_eigenvalues_and_squared_row_0(name, cutoffs):
    # one LAPACK: dsyevd's back-transform leaves row 0 of dstedc's Z unchanged
    h = build_hamiltonian(bundled_problem(name), ModeCutoffs(cutoffs)).hamiltonian
    sticks = diagonalize_fcp(h)
    evals, evecs = oracle.eigensolve(h)
    assert np.array_equal(sticks.energies, evals)
    assert np.array_equal(sticks.intensities, evecs[0] ** 2)


def test_eigensolve_peak_rss_within_its_checked_bytes():
    # a fresh interpreter, so2 (50,50), D = 2,601: dsyevd in place on the
    # dense copy grew the peak RSS by 25.1 bytes per entry of H, where
    # numpy's eigh, with its own copy, grew it by 40.9.  VmHWM is the child's
    # own peak: ru_maxrss would carry the forking test process's across exec
    child = """
from vibronic import oracle
from vibronic.hamiltonian import build_hamiltonian
from vibronic.problem import ModeCutoffs, bundled_problem
def kib(field):
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith(field))
oracle.eigensolve(build_hamiltonian(bundled_problem("so2"), ModeCutoffs((9, 9))).hamiltonian)
h = build_hamiltonian(bundled_problem("so2"), ModeCutoffs((50, 50))).hamiltonian
before = kib("VmRSS:")
oracle.eigensolve(h)
print(1024 * (kib("VmHWM:") - before))
"""
    if not sys.platform.startswith("linux"):
        pytest.skip("reads the peak RSS from /proc/self/status")
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", child], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    growth = int(proc.stdout)
    assert 0 < growth <= oracle.EIGH_BYTES_PER_ENTRY * 2601**2 <= 28 * 2601**2


def test_sticks_read_the_lower_triangle_of_h_bit_for_bit():
    # the Fortran-order copy must hold H's own elements: dsytrd(lower=1) on
    # H^T's would read H's upper triangle, which differs here in its last bits
    rng = np.random.default_rng(11)
    d = 200  # above dsytrd's blocking crossover
    m = rng.normal(size=(d, d))
    mat = m + m.T + np.tril(rng.normal(size=(d, d)), -1) * 1e-14
    h = ManyBodyOperator(ModeCutoffs((d - 1,)), mat)
    assert 0 < h.hermiticity_deviation() <= HERMITICITY_RTOL * np.abs(mat).max()
    sticks = diagonalize_fcp(h)

    def lower_sticks(a):
        lwork, _ = scipy.linalg.lapack.dsytrd_lwork(d, lower=1)
        _, diag, off, _, _ = scipy.linalg.lapack.dsytrd(a, lower=1, lwork=int(lwork))
        vals, z, _ = scipy.linalg.lapack.dstevd(diag, off)
        return vals, z[0] ** 2

    vals, weights = lower_sticks(h.to_dense())
    assert np.array_equal(sticks.energies, vals)
    assert np.array_equal(sticks.intensities, weights)
    assert not np.array_equal(lower_sticks(h.to_dense().T)[0], vals)


def test_stick_solve_holds_one_dense_copy_of_h():
    # the copy is reduced in place and released before dstevd's Z and
    # workspace: 16 D^2 bytes at the peak, where two copies made 24 D^2
    h = build_hamiltonian(bundled_problem("no2"), ModeCutoffs((36, 40))).hamiltonian
    d = h.space.dimension
    assert d >= 1500
    tracemalloc.start()
    try:
        diagonalize_fcp(h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * d * d + 128 * d


def test_complex_hermitian_h_is_refused_at_construction():
    # dsytrd would drop the imaginary part, so H is real from construction on
    rng = np.random.default_rng(3)
    m = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    with pytest.raises(ValueError, match="not real"):
        ManyBodyOperator(ModeCutoffs((11,)), m + m.conj().T)


def test_sticks_form_no_eigenvector_matrix(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("diagonalize_fcp must not compute eigenvectors of H")

    monkeypatch.setattr(oracle, "eigensolve", refuse)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(scipy.linalg, "eigh", refuse)
    rep = build_hamiltonian(bundled_problem("so2"), ModeCutoffs((6, 6)))
    sticks = diagonalize_fcp(rep.hamiltonian)
    assert sticks.total_intensity == pytest.approx(1.0, abs=1e-12)


def test_lapack_failure_raises(monkeypatch):
    monkeypatch.setattr(oracle.lapack, "dstevd", lambda d, e: (d, np.eye(len(d)), 3))
    rep = build_hamiltonian(bundled_problem("so2"), ModeCutoffs((2, 2)))
    with pytest.raises(np.linalg.LinAlgError, match="dstevd"):
        diagonalize_fcp(rep.hamiltonian)


def test_scaled_roundoff_asymmetry_passes_hermiticity_gate():
    rep = build_hamiltonian(bundled_problem("h2o"), ModeCutoffs((8, 8)), route="qp")
    h = rep.hamiltonian
    scaled = ManyBodyOperator(h.space, h.matrix * 1e3)
    assert scaled.hermiticity_deviation() > 1e-10  # above the old absolute gate
    sticks = diagonalize_fcp(scaled)
    assert sticks.total_intensity == pytest.approx(1.0, abs=1e-12)


def test_eigensolver_dimension_guard():
    space = ModeCutoffs((100, 100))
    with pytest.raises(DenseBudgetError, match="10201-state dense eigensolve"):
        identity = sp.identity(space.dimension, dtype=complex, format="csr")
        oracle.eigensolve(ManyBodyOperator(space, identity))


class DenseCopyMade(Exception):
    pass


@pytest.mark.parametrize("dtype", [float, complex])
def test_dense_budget_admits_8192_states_and_refuses_8193(dtype, monkeypatch):
    # 16 bytes x 8192^2 is exactly the 1 GiB budget, which only a larger need exceeds
    def sentinel(self):
        raise DenseCopyMade

    monkeypatch.setattr(ManyBodyOperator, "to_dense", sentinel)
    fits, over = ModeCutoffs((127, 63)), ModeCutoffs((2, 2730))
    assert (fits.dimension, over.dimension) == (8192, 8193)
    with pytest.raises(DenseCopyMade):
        oracle.dense_matrix(ManyBodyOperator(fits, sp.identity(8192, dtype=dtype, format="csr")))
    with pytest.raises(DenseBudgetError, match="8193-state dense eigensolve"):
        oracle.dense_matrix(ManyBodyOperator(over, sp.identity(8193, dtype=dtype, format="csr")))


def test_eigensolve_counts_its_workspace_not_only_the_dense_copy(monkeypatch):
    # D = 6400: the 16 D^2 dense copy (0.61 GiB) fits the budget, but the
    # eigensolve holds 28 bytes per entry (1.07 GiB)
    def sentinel(self):
        raise DenseCopyMade

    monkeypatch.setattr(ManyBodyOperator, "to_dense", sentinel)
    space = ModeCutoffs((63, 99))
    assert 16 * space.dimension**2 <= MAX_DENSE_BYTES < 28 * space.dimension**2
    with pytest.raises(DenseBudgetError, match="6400-state dense eigensolve"):
        oracle.eigensolve(ManyBodyOperator(space, sp.identity(6400, format="csr")))


def test_eigensolve_budget_admits_6192_states_and_refuses_6193(monkeypatch):
    # 28 bytes per entry: the copy dsyevd overwrites and its 2 D^2 workspace
    # doubles; numpy's eigh, at 48, stopped at D = 4,729
    def sentinel(self):
        raise DenseCopyMade

    monkeypatch.setattr(ManyBodyOperator, "to_dense", sentinel)
    with pytest.raises(DenseCopyMade):
        oracle.eigensolve(ManyBodyOperator(ModeCutoffs((6191,)), sp.identity(6192, format="csr")))
    with pytest.raises(DenseBudgetError, match="6193-state dense eigensolve"):
        oracle.eigensolve(ManyBodyOperator(ModeCutoffs((6192,)), sp.identity(6193, format="csr")))


def test_thermal_oracle_peak_stays_within_its_checked_bytes(monkeypatch):
    # 3000 K on so2 (30,30): all 961 initial states are weighted, so the sticks
    # are 961 x 961 beside the eigenvectors, which the eigensolve's own check
    # does not cover; the O(D) occupations, weights and energies ride along
    checked = {}
    check, solve = oracle.check_dense_bytes, oracle.eigensolve
    monkeypatch.setattr(oracle, "check_dense_bytes",
                        lambda n_bytes, what: checked.update({what: n_bytes}) or check(n_bytes, what))

    def solve_then_reset_peak(h):
        pair = solve(h)
        tracemalloc.reset_peak()
        return pair

    monkeypatch.setattr(oracle, "eigensolve", solve_then_reset_peak)
    cutoffs = ModeCutoffs((30, 30))
    thermal = ThermalConfig.from_temperature_kelvin(3000.0)
    tracemalloc.start()
    try:
        sticks = thermal_fcp_oracle(bundled_problem("so2"), cutoffs, thermal)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(sticks.energies) == cutoffs.dimension**2
    assert peak <= checked["961 x 961 thermal sticks"] + 128 * cutoffs.dimension


def test_thermal_sticks_hold_33_bytes_each_beside_the_eigenvectors(monkeypatch):
    # so2 (20,20) at 3000 K: 441 x 441 sticks.  Sorted through one order array
    # they traced 32.3 bytes each past the 8 D^2 of eigenvectors; keeping the
    # unsorted energies and intensities beside their sorted copies traced 40.3
    solve = oracle.eigensolve

    def solve_then_reset_peak(h):
        pair = solve(h)
        tracemalloc.reset_peak()
        return pair

    monkeypatch.setattr(oracle, "eigensolve", solve_then_reset_peak)
    cutoffs = ModeCutoffs((20, 20))
    d = cutoffs.dimension
    tracemalloc.start()
    try:
        thermal = ThermalConfig.from_temperature_kelvin(3000.0)
        thermal_fcp_oracle(bundled_problem("so2"), cutoffs, thermal)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (8 + 33) * d * d


@pytest.mark.parametrize("kelvin", [0.0, 300.0, 3000.0])
def test_thermal_sticks_equal_the_sorted_outer_products(kelvin):
    # the sticks are the products weights[n] |<n|psi_j>|^2 at eps_j - E_A(n),
    # formed whole and then sorted, bit for bit
    problem, cutoffs = bundled_problem("so2"), ModeCutoffs((8, 6))
    thermal = ThermalConfig.from_temperature_kelvin(kelvin)
    sticks = thermal_fcp_oracle(problem, cutoffs, thermal)
    evals, evecs = oracle.eigensolve(build_hamiltonian(problem, cutoffs).hamiltonian)
    occupations = cutoffs.all_multi_indices()
    if thermal.is_zero_temperature:
        weights = np.eye(1, cutoffs.dimension)[0]
    else:
        log_w = -thermal.beta * (occupations @ problem.omega_A)
        weights = np.exp(log_w - log_w.max())
        weights /= weights.sum()
    keep = np.nonzero(weights > 1e-16)[0]
    energies = (evals[None, :] - fock_state_energy(problem, occupations)[keep, None]).ravel()
    intensities = (weights[keep, None] * np.abs(evecs[keep, :]) ** 2).ravel()
    order = np.argsort(energies)
    assert (len(keep) > 1) == (kelvin > 0)
    assert sticks.energies.tobytes() == energies[order].tobytes()
    assert sticks.intensities.tobytes() == intensities[order].tobytes()


def test_bin_single_stick():
    sticks = oracle.StickSpectrum(np.array([500.4]), np.array([1.0]))
    binned = bin_spectrum(sticks, width=1.0)
    assert binned.first_bin == 500
    assert binned.values[0] == 1.0


def test_bin_sums_sticks_and_conserves():
    sticks = oracle.StickSpectrum(np.array([10.2, 10.7, 44.0]), np.array([0.3, 0.4, 0.1]))
    binned = bin_spectrum(sticks)
    assert binned.values[0] == pytest.approx(0.7)
    assert binned.total_intensity == pytest.approx(sticks.total_intensity, abs=1e-12)


def test_bin_conservation_so2():
    sticks, binned, _ = spectrum_pipeline(bundled_problem("so2"), ModeCutoffs((10, 10)))
    assert binned.total_intensity == pytest.approx(sticks.total_intensity, abs=1e-12)


def test_bin_negative_energies():
    sticks = oracle.StickSpectrum(np.array([-3.5, 2.5]), np.array([0.5, 0.5]))
    binned = bin_spectrum(sticks)
    assert binned.first_bin == -4
    assert binned.total_intensity == pytest.approx(1.0)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data(), energies=st.lists(st.floats(-5e3, 5e3), min_size=1, max_size=60),
       width=st.floats(0.1, 50.0))
def test_bin_spectrum_occupied_bins_equal_the_dense_row(data, energies, width):
    # repeated energies share a bin in stick order; zero intensities leave it empty
    energies = energies + data.draw(st.lists(st.sampled_from(energies), max_size=20))
    intensities = data.draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-300, 1.0)),
                                     min_size=len(energies), max_size=len(energies)))
    sticks = oracle.StickSpectrum(np.array(energies), np.array(intensities))
    binned = bin_spectrum(sticks, width)
    first, values = bin_spectrum_dense(sticks, width)
    assert (binned.first_bin, binned.n_bins) == (first, len(values))
    assert binned.offsets.tolist() == np.flatnonzero(values).tolist()
    assert binned.weights.tobytes() == values[values != 0.0].tobytes()
    assert binned.values.tobytes() == values.tobytes()


def test_bin_spectrum_forms_no_dense_row():
    # two sticks 1e6 bins apart: a dense row of their bins would hold 8 MB
    sticks = oracle.StickSpectrum(np.array([0.5, 1e6 + 0.5]), np.array([0.25, 0.75]))
    tracemalloc.start()
    try:
        binned = bin_spectrum(sticks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    assert binned.n_bins == 1_000_001 and binned.offsets.tolist() == [0, 1_000_000]


def test_broaden_single_stick_gaussian():
    sticks = oracle.StickSpectrum(np.array([1000.0]), np.array([1.0]))
    broad = broaden(bin_spectrum(sticks), sigma=100.0)
    assert broad.values.sum() * broad.grid_step == pytest.approx(1.0, abs=1e-6)
    assert broad.values.max() == pytest.approx(1.0 / (100.0 * math.sqrt(2 * math.pi)), rel=1e-4)


def test_broaden_commutes_with_scaling():
    sticks1 = oracle.StickSpectrum(np.array([100.0, 300.0]), np.array([0.2, 0.5]))
    sticks2 = oracle.StickSpectrum(np.array([100.0, 300.0]), np.array([0.6, 1.5]))
    b1 = broaden(bin_spectrum(sticks1), sigma=50.0)
    b2 = broaden(bin_spectrum(sticks2), sigma=50.0)
    assert np.abs(3.0 * b1.values - b2.values).max() < 1e-12


def test_broaden_fwhm_convention():
    sticks = oracle.StickSpectrum(np.array([500.0]), np.array([1.0]))
    sig = oracle.sigma_from_convention(100.0, "fwhm")
    b = broaden(bin_spectrum(sticks), sigma=sig)
    assert sig == pytest.approx(100.0 / (2 * math.sqrt(2 * math.log(2))), rel=1e-15)
    assert b.values.max() == pytest.approx(1.0 / (sig * math.sqrt(2 * math.pi)), rel=1e-3)


@pytest.mark.parametrize("sigma", [0.0, -1.0, math.nan, math.inf, 1e-300])
def test_broaden_sigma_must_be_finite_and_positive(sigma):
    binned = bin_spectrum(oracle.StickSpectrum(np.array([10.2]), np.array([1.0])))
    with pytest.raises(ValueError, match="sigma must be finite and positive"):
        broaden(binned, sigma=sigma)


def test_broaden_smallest_accepted_sigma_stays_finite():
    binned = bin_spectrum(oracle.StickSpectrum(np.array([10.2]), np.array([1.0])))
    with np.errstate(over="raise", divide="raise", invalid="raise"):  # no clamp, no inf or nan
        spike = broaden(binned, sigma=1.5e-154)
    assert np.isfinite(spike.values).all() and spike.values.max() > 1e153


@pytest.mark.parametrize("sigma, values", [
    (1e5, [1.0]),
    (30.0, [0.5] + [0.0] * 100_000 + [0.5]),
    (3e3, [2e-3] * 500),
    (0.1, [1e-5] * 100_000),
], ids=["one-bin", "wide-histogram", "wide-kernel", "many-bins"])
def test_broaden_peak_stays_within_its_checked_bytes(sigma, values, monkeypatch):
    # at most four float arrays no longer than the grid live at once, while
    # the kernel is built and added and while the writers form the grid; the
    # occupied bins' offsets and weights are looped over as Python lists
    checked = []
    monkeypatch.setattr(oracle, "check_dense_bytes", lambda n_bytes, what: checked.append(n_bytes))
    binned = binned_from_dense(1.0, 500, values)
    tracemalloc.start()
    try:
        broad = broaden(binned, sigma=sigma)
        broad.grid
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= sum(checked) + 4096  # a few Python objects ride on the arrays


def test_largest_accepted_sigma_at_32_bytes_a_grid_point():
    stdev = oracle.sigma_from_convention(6.58e6, "fwhm")
    oracle.kernel_half_width(stdev, 1.0, 1)
    with pytest.raises(DenseBudgetError, match="broadened grid"):
        oracle.kernel_half_width(stdev * 1.001, 1.0, 1)


def test_bin_index_past_int64_range():
    # floor(1000 / 1e-17) is about 1e20, past int64; the bin and its centre still work
    sticks = oracle.StickSpectrum(np.array([1000.0]), np.array([1.0]))
    binned = bin_spectrum(sticks, width=1e-17)
    assert binned.first_bin > 2**63 and binned.values.tolist() == [1.0]
    assert binned.bin_centers[0] == pytest.approx(1000.0, rel=1e-15)


@pytest.mark.parametrize("name,levels", [("so2", (8, 24)), ("h2o", (10, 68)), ("no2", (36, 88))])
def test_broaden_matches_dense_convolution(name, levels):
    # occupied-bin sums run in bin order, np.convolve in BLAS order: same terms
    _, binned, broad = spectrum_pipeline(bundled_problem(name), ModeCutoffs(levels),
                                         route="ladder")
    ref = broaden_dense(binned, oracle.DEFAULT_SIGMA)
    assert (broad.grid_start, broad.grid_step) == (ref.grid_start, ref.grid_step)
    np.testing.assert_allclose(broad.values, ref.values, rtol=1e-14, atol=0.0)


@st.composite
def sparse_histograms(draw, width):
    n = draw(st.integers(1, 600))
    occupied = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=40, unique=True))
    values = np.zeros(n)
    values[occupied] = draw(st.lists(st.floats(1e-12, 1.0), min_size=len(occupied),
                                     max_size=len(occupied)))
    return binned_from_dense(width, draw(st.integers(-3000, 3000)), values)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), width=st.sampled_from([0.25, 0.5, 1.0, 2.0]),
       sigma=st.floats(0.01, 300.0), convention=st.sampled_from(["stdev", "fwhm"]))
def test_sparse_broaden_and_offset_l1_match_dense(data, width, sigma, convention):
    a, b = (data.draw(sparse_histograms(width)) for _ in range(2))
    sigma = oracle.sigma_from_convention(sigma, convention)
    ba, bb = (broaden(h, sigma) for h in (a, b))
    for binned, broad in ((a, ba), (b, bb)):
        ref = broaden_dense(binned, sigma)
        assert broad.grid_start == ref.grid_start
        np.testing.assert_allclose(broad.values, ref.values, rtol=1e-14, atol=0.0)
    # starts a whole number of steps apart: the union grid needs no resampling
    assert ((bb.grid_start - ba.grid_start) / width).is_integer()
    assert l1_distance(ba, bb) == l1_distance_interp(ba, bb)
    assert l1_distance(bb, ba) == l1_distance_interp(bb, ba)


def test_so2_broadened_area_and_smoothness():
    sticks, _, broad = spectrum_pipeline(bundled_problem("so2"), ModeCutoffs((12, 10)))
    assert broad.values.sum() * broad.grid_step == pytest.approx(sticks.total_intensity, abs=1e-6)


def test_l1_identical_zero():
    _, _, broad = spectrum_pipeline(toy_problem(), ModeCutoffs((4,)))
    assert l1_distance(broad, broad) == 0.0


def test_l1_disjoint_unit_norm_is_two():
    a = oracle.StickSpectrum(np.array([1000.0]), np.array([1.0]))
    b = oracle.StickSpectrum(np.array([50000.0]), np.array([1.0]))
    ba = broaden(bin_spectrum(a), sigma=100.0)
    bb = broaden(bin_spectrum(b), sigma=100.0)
    assert l1_distance(ba, bb) == pytest.approx(2.0, abs=1e-6)


def test_l1_metric_properties():
    rng = np.random.default_rng(7)
    grid_step = 1.0
    for _ in range(20):
        vals = rng.uniform(size=(3, 200))
        specs = [
            BroadenedSpectrum(grid_start=0.0, grid_step=grid_step, values=v)
            for v in vals
        ]
        a, b, c = specs
        assert l1_distance(a, b) == pytest.approx(l1_distance(b, a), abs=1e-12)
        assert l1_distance(a, c) <= l1_distance(a, b) + l1_distance(b, c) + 1e-12
        assert l1_distance(a, a) == 0.0


def test_l1_resamples_mismatched_grids():
    # same constant function sampled at two different steps over one span
    a = BroadenedSpectrum(grid_start=0.0, grid_step=1.0, values=np.ones(99))
    b = BroadenedSpectrum(grid_start=0.0, grid_step=2.0, values=np.ones(50))
    assert l1_distance(a, b) == pytest.approx(0.0, abs=1e-9)


def test_converge_sweep_identity_trivial():
    result = converge_sweep(toy_problem(), 0, {}, threshold=1e-4, l_cap=6)
    assert result.converged_l_max == 1
    assert result.trace[0][1] == pytest.approx(0.0, abs=1e-15)
    assert result.monotone


def test_converge_sweep_displaced_progresses():
    result = converge_sweep(toy_problem(delta=1.0), 0, {}, threshold=1e-4, l_cap=20)
    assert result.converged_l_max is not None
    assert 4 <= result.converged_l_max <= 14
    distances = [d for _, d in result.trace]
    assert distances[0] > distances[-1]
    assert result.vs_exact  # decay curve emitted


def test_converge_sweep_rejects_cap_below_start():
    with pytest.raises(ValueError, match="l_cap 2 is below l_start 5"):
        converge_sweep(toy_problem(), 0, {}, l_start=5, l_cap=2)


def test_converge_sweep_not_converged_within_cap():
    result = converge_sweep(toy_problem(delta=2.5), 0, {}, threshold=1e-12, l_cap=6)
    assert result.converged_l_max is None


@pytest.mark.parametrize("l_start,l_cap,sigma", [
    (1, 24, oracle.DEFAULT_SIGMA),
    (1, 6, oracle.DEFAULT_SIGMA),
    (5, 5, oracle.DEFAULT_SIGMA),
    (1, 24, oracle.sigma_from_convention(80.0, "fwhm")),
], ids=["converged", "stops-at-cap", "single-cutoff", "fwhm"])
def test_converge_sweep_matches_the_sweep_that_holds_every_grid(l_start, l_cap, sigma):
    # so2, mode 1 varied, mode 2 fixed at 8: the window converges at 19, so a
    # cap of 6 stops it before it converges
    args = (bundled_problem("so2"), 0, {1: 8}, 1e-4, l_start, l_cap, "ladder", sigma)
    assert converge_sweep(*args) == converge_sweep_held(*args)


def test_converge_sweep_peak_stays_within_its_checked_bytes(monkeypatch):
    # sigma = 1e5: each broadened grid holds 1.2e6 points.  The sweep holds the
    # last grid and each cutoff's occupied bins, and re-broadens the bins for
    # the L1-vs-largest curve, so its peak does not grow with the cap
    peaks = []
    check = oracle.check_dense_bytes
    for l_cap in (8, 16):
        checked = []
        monkeypatch.setattr(oracle, "check_dense_bytes", lambda n_bytes, what:
                            checked.append((n_bytes, what)) or check(n_bytes, what))
        tracemalloc.start()
        try:
            converge_sweep(bundled_problem("so2"), 0, {1: 1}, threshold=1e-300, l_cap=l_cap,
                           sigma=1e5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = [(n, what) for n, what in checked if "cutoff sweep" in what]
        step = max(n for n, what in checked if "cutoff sweep" not in what)
        assert held[-1][1] == f"a cutoff sweep holding {l_cap} binned spectra and a grid"
        assert max(n for n, _ in held) < 8 * 1.3e6  # one grid and the bins
        assert peak <= max(n for n, _ in held) + step + 4096
        peaks.append(peak)
    assert peaks[1] < 1.05 * peaks[0]


def test_thermal_oracle_zero_temperature_matches_shifted():
    p = toy_problem(delta=1.0, omega=500.0)
    cuts = ModeCutoffs((12,))
    cold = thermal_fcp_oracle(p, cuts, ThermalConfig(beta=math.inf))
    plain = diagonalize_fcp(build_hamiltonian(p, cuts).hamiltonian)
    # identical sticks shifted by -E_A(0) = -250
    assert np.allclose(cold.energies, plain.energies - 250.0, atol=1e-9)
    assert np.allclose(cold.intensities, plain.intensities, atol=1e-12)


def test_thermal_oracle_boltzmann_weight():
    # p_0 = 1 - exp(-beta w) for a single mode at 300 K, w = 500
    p = toy_problem(delta=1.0, omega=500.0)
    thermal = ThermalConfig.from_temperature_kelvin(300.0)
    bw = math.exp(-thermal.beta * 500.0)
    sticks = thermal_fcp_oracle(p, ModeCutoffs((14,)), thermal)
    assert sticks.total_intensity == pytest.approx(1.0, abs=1e-6)
    # hot bands: mass strictly below the 0-0 line (energy 0 up to float noise)
    hot = sticks.intensities[sticks.energies < -1.0].sum()
    assert 0.0 < hot < 3 * bw
    assert (1 - bw) == pytest.approx(0.9091, abs=1e-4)


def test_thermal_oracle_completeness_and_rejects_bad_beta():
    p = toy_problem(delta=0.8, omega=700.0)
    sticks = thermal_fcp_oracle(p, ModeCutoffs((12,)), ThermalConfig(beta=1e-3))
    assert sticks.total_intensity == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(Exception):
        thermal_fcp_oracle(p, ModeCutoffs((8,)), ThermalConfig(beta=-2.0))


def test_cumulative_fcf_so2_level8():
    # converged value, cross-checked against direct wavefunction quadrature
    cum = cumulative_fcf_by_level(bundled_problem("so2"), ModeCutoffs((22, 12)), mode=0)
    assert cum[8] == pytest.approx(1.74e-3, rel=0.05)
    assert cum[2] > cum[8] > cum[12]


@pytest.mark.parametrize("name, cuts, mode", [
    ("so2", (22, 12), 0), ("so2_anharmonic", (4, 3, 3), 1),
], ids=["so2-22-12", "so2_anharmonic-4-3-3"])
def test_cumulative_fcf_equals_the_dense_contraction_bit_for_bit(name, cuts, mode, monkeypatch):
    # b^dag b is applied as its CSR: the eigensolve's H is the one dense copy
    problem, cutoffs = bundled_problem(name), ModeCutoffs(cuts)
    expected = cumulative_fcf_by_level_dense(problem, cutoffs, mode)
    copies, to_dense = [], ManyBodyOperator.to_dense
    monkeypatch.setattr(ManyBodyOperator, "to_dense",
                        lambda self: copies.append(self) or to_dense(self))
    assert cumulative_fcf_by_level(problem, cutoffs, mode).tobytes() == expected.tobytes()
    assert len(copies) == 1


def test_tv_distance():
    assert tv_distance(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0
    assert tv_distance(np.array([0.5, 0.5]), np.array([1.0, 1.0])) == 0.0


@pytest.mark.parametrize("width", [0.0, -5.0, math.nan])
@pytest.mark.parametrize("binner", ["bin_spectrum", "rebin", "histogram"])
def test_bin_width_must_be_finite_and_positive(binner, width):
    sticks = oracle.StickSpectrum(np.array([10.2, 20.7]), np.array([0.5, 0.5]))
    sampled = SampledSpectrum(np.array([0, 1]), sticks.energies, PhaseMap(1.0, 0.0, 4),
                              shots=2, seed=0)
    calls = {
        "bin_spectrum": lambda: bin_spectrum(sticks, width=width),
        "rebin": lambda: rebin(bin_spectrum(sticks), width),
        "histogram": lambda: sampled.histogram(width=width),
    }
    with pytest.raises(ValueError, match="bin width"):
        calls[binner]()


def test_rebin_conserves():
    sticks = oracle.StickSpectrum(np.array([10.0, 12.0, 900.0]), np.array([0.1, 0.2, 0.7]))
    fine = bin_spectrum(sticks)
    coarse = rebin(fine, 50.0)
    assert coarse.total_intensity == pytest.approx(fine.total_intensity, abs=1e-12)
    assert coarse.width == 50.0


def test_csv_roundtrip(tmp_path):
    sticks, binned, broad = spectrum_pipeline(toy_problem(delta=0.6), ModeCutoffs((8,)))
    oracle.write_csv(tmp_path / "sticks.csv", "energy_cm1,intensity\r\n", sticks.energies,
                     sticks.intensities)
    e, i = oracle.read_spectrum_csv((tmp_path / "sticks.csv").read_text())
    assert np.allclose(e, sticks.energies)
    assert np.allclose(i, sticks.intensities)
    oracle.write_csv(tmp_path / "broad.csv", "energy_cm1,density\r\n", broad.grid, broad.values)
    g, v = oracle.read_spectrum_csv((tmp_path / "broad.csv").read_text())
    assert np.allclose(g, broad.grid)
    assert np.allclose(v, broad.values)


@pytest.mark.parametrize("tail", ["\r\n", ",100000\n", ",5%d%%s\n"], ids=["crlf", "shots", "percent"])
def test_write_csv_rows_match_the_f_string_form(tail, tmp_path):
    # one % per block formats as {:.10g}, on special values, subnormals, huge
    # magnitudes and 10-digit rounding, and past the first 4,096-row block
    rng = np.random.default_rng(11)
    edge = [math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324, -2.2e-308, 1e300, -1e-300,
            123456789012.5, 0.1, 1 / 3, 2.0**53, -7.0]
    xs = np.concatenate([edge, rng.normal(size=4100) * 10.0 ** rng.integers(-320, 300, 4100)])
    ys = np.concatenate([edge[::-1], rng.normal(size=4100)])
    oracle.write_csv(tmp_path / "rows.csv", "x,y\n", xs, ys, tail=tail)
    expected = "x,y\n" + "".join(f"{x:.10g},{y:.10g}{tail}" for x, y in zip(xs.tolist(), ys.tolist()))
    with open(tmp_path / "rows.csv", newline="") as fh:
        assert fh.read() == expected


@pytest.mark.parametrize("shots", [1, 7, 20_000, 100_000, 1_000_000])
def test_sampled_histogram_equals_adding_each_shot_bit_for_bit(shots):
    # count/shots differs in the last bit at 2e4 and 1e5 shots; the running sum does not
    energies = np.random.default_rng(shots).normal(300.0, 800.0, shots)
    sampled = SampledSpectrum(np.zeros(shots, dtype=np.int64), energies, PhaseMap(1.0, 0.0, 4),
                              shots=shots, seed=0)
    hist = sampled.histogram(width=2.0)
    sticks = oracle.StickSpectrum(np.append(energies, 0.0),
                                  np.append(np.full(shots, 1.0 / shots), 0.0))
    reference = bin_spectrum(sticks, 2.0)
    assert hist.first_bin == reference.first_bin <= 0
    assert hist.values.tobytes() == reference.values.tobytes()


def test_read_spectrum_csv_rejects_garbage():
    with pytest.raises(ValueError):
        oracle.read_spectrum_csv("")
    with pytest.raises(ValueError):
        oracle.read_spectrum_csv("energy_cm1,intensity\n")
