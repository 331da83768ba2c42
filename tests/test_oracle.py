import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from dense_reference import broaden_dense, l1_distance_interp
from hypothesis import given, settings
from hypothesis import strategies as st

from vibronic import oracle
from vibronic.fock import ManyBodyOperator
from vibronic.hamiltonian import build_hamiltonian
from vibronic.mapping import DenseBudgetError
from vibronic.oracle import (
    BinnedSpectrum,
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
from vibronic.problem import ModeCutoffs, ThermalConfig, VibronicProblem, bundled_problem
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


def test_complex_hermitian_sticks_match_eigh():
    # the stick path reduces with dsytrd, which would drop the imaginary part,
    # so a complex Hermitian H is refused there and solved only by eigensolve
    rng = np.random.default_rng(3)
    m = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    h = ManyBodyOperator(ModeCutoffs((11,)), m + m.conj().T)
    with pytest.raises(ValueError, match="real Hamiltonian"):
        diagonalize_fcp(h)
    evals, evecs = oracle.eigensolve(h)
    assert np.iscomplexobj(evecs)
    assert np.array_equal(evals, np.linalg.eigh(m + m.conj().T)[0])


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


def test_broaden_single_stick_gaussian():
    sticks = oracle.StickSpectrum(np.array([1000.0]), np.array([1.0]))
    broad = broaden(bin_spectrum(sticks), sigma=100.0)
    assert broad.area == pytest.approx(1.0, abs=1e-6)
    assert broad.values.max() == pytest.approx(1.0 / (100.0 * math.sqrt(2 * math.pi)), rel=1e-4)


def test_broaden_commutes_with_scaling():
    sticks1 = oracle.StickSpectrum(np.array([100.0, 300.0]), np.array([0.2, 0.5]))
    sticks2 = oracle.StickSpectrum(np.array([100.0, 300.0]), np.array([0.6, 1.5]))
    b1 = broaden(bin_spectrum(sticks1), sigma=50.0)
    b2 = broaden(bin_spectrum(sticks2), sigma=50.0)
    assert np.abs(3.0 * b1.values - b2.values).max() < 1e-12


def test_broaden_fwhm_convention():
    sticks = oracle.StickSpectrum(np.array([500.0]), np.array([1.0]))
    b = broaden(bin_spectrum(sticks), sigma=100.0, convention="fwhm")
    sig = 100.0 / (2 * math.sqrt(2 * math.log(2)))
    assert b.values.max() == pytest.approx(1.0 / (sig * math.sqrt(2 * math.pi)), rel=1e-3)
    assert b.metadata["sigma_convention"] == "fwhm"


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
    assert broad.metadata == ref.metadata
    np.testing.assert_allclose(broad.values, ref.values, rtol=1e-14, atol=0.0)


@st.composite
def sparse_histograms(draw, width):
    n = draw(st.integers(1, 600))
    occupied = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=40, unique=True))
    values = np.zeros(n)
    values[occupied] = draw(st.lists(st.floats(1e-12, 1.0), min_size=len(occupied),
                                     max_size=len(occupied)))
    return BinnedSpectrum(width=width, first_bin=draw(st.integers(-3000, 3000)),
                          values=values)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), width=st.sampled_from([0.25, 0.5, 1.0, 2.0]),
       sigma=st.floats(0.01, 300.0), convention=st.sampled_from(["stdev", "fwhm"]))
def test_sparse_broaden_and_offset_l1_match_dense(data, width, sigma, convention):
    a, b = (data.draw(sparse_histograms(width)) for _ in range(2))
    ba, bb = (broaden(h, sigma, convention) for h in (a, b))
    for binned, broad in ((a, ba), (b, bb)):
        ref = broaden_dense(binned, sigma, convention)
        assert broad.grid_start == ref.grid_start
        np.testing.assert_allclose(broad.values, ref.values, rtol=1e-14, atol=0.0)
    # starts a whole number of steps apart: the union grid needs no resampling
    assert ((bb.grid_start - ba.grid_start) / width).is_integer()
    assert l1_distance(ba, bb) == l1_distance_interp(ba, bb)
    assert l1_distance(bb, ba) == l1_distance_interp(bb, ba)


def test_so2_broadened_area_and_smoothness():
    sticks, _, broad = spectrum_pipeline(bundled_problem("so2"), ModeCutoffs((12, 10)))
    assert broad.area == pytest.approx(sticks.total_intensity, abs=1e-6)


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


def test_csv_roundtrip():
    sticks, binned, broad = spectrum_pipeline(toy_problem(delta=0.6), ModeCutoffs((8,)))
    e, i = oracle.read_spectrum_csv(oracle.sticks_to_csv(sticks))
    assert np.allclose(e, sticks.energies)
    assert np.allclose(i, sticks.intensities)
    g, v = oracle.read_spectrum_csv(oracle.broadened_to_csv(broad))
    assert np.allclose(g, broad.grid)
    assert np.allclose(v, broad.values)


def test_read_spectrum_csv_rejects_garbage():
    with pytest.raises(ValueError):
        oracle.read_spectrum_csv("")
    with pytest.raises(ValueError):
        oracle.read_spectrum_csv("energy_cm1,intensity\n")
