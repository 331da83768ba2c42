import math
import warnings
from dataclasses import replace
from functools import reduce

import numpy as np
import pytest
import scipy.sparse as sp

from dense_reference import embed, momentum, position
from vibronic import fock
from vibronic.hamiltonian import (
    CREATE,
    DESTROY,
    MAX_COEFF,
    assemble_terms,
    build_b_dagger,
    build_hamiltonian,
    hamiltonian_terms,
    ladder_terms,
)
from vibronic.problem import (
    AnharmonicTerm,
    ModeCutoffs,
    ProblemValidationError,
    VibronicProblem,
    bundled_problem,
    duschinsky_J,
    duschinsky_J_inv_T,
)


def toy_problem(delta=0.0, omega=1000.0):
    return VibronicProblem("toy", [omega], [omega], [[1.0]], [delta])


def build_qBpB(problem, space):
    """Dense q_B = (b^dag + b)/sqrt(2) and p_B = i (b^dag - b)/sqrt(2) from the expansion."""
    pairs = [(bd.to_dense(), bd.dagger().to_dense()) for bd in build_b_dagger(problem, space)]
    q_b = [(bd + b) / math.sqrt(2) for bd, b in pairs]
    p_b = [1j * (bd - b) / math.sqrt(2) for bd, b in pairs]
    return q_b, p_b


def dense_reference(problem, cutoffs, route):
    """Today's definitions of both routes, from embedded single-mode matrices.

    qp: 1/2 sum_k w_k (q_Bk^2 + p_Bk^2) with q_B = J q + delta, p_B = J^-T p;
    ladder: sum_k w_k (b_k^dag b_k + 1/2); both plus the symmetrized
    anharmonic monomials in q_B.
    """
    m = problem.n_modes
    j, j_inv_t = duschinsky_J(problem), duschinsky_J_inv_T(problem)
    eye = np.eye(cutoffs.dimension)

    def embedded(single):
        return [embed(single(cutoffs.levels[i]), i, cutoffs) for i in range(m)]

    q, p = embedded(position), embedded(momentum)
    q_b = [sum(j[k, i] * q[i] for i in range(m)) + problem.delta[k] * eye for k in range(m)]
    h = np.zeros_like(eye, dtype=complex)
    if route == "qp":
        p_b = [sum(j_inv_t[k, i] * p[i] for i in range(m)) for k in range(m)]
        for k, w in enumerate(problem.omega_B):
            h += 0.5 * w * (q_b[k] @ q_b[k] + p_b[k] @ p_b[k])
    else:
        a, ad = embedded(fock.annihilation), embedded(fock.creation)
        c_minus, c_plus = 0.5 * (j - j_inv_t), 0.5 * (j + j_inv_t)
        for k, w in enumerate(problem.omega_B):
            bd = sum(c_minus[k, i] * a[i] + c_plus[k, i] * ad[i] for i in range(m))
            bd = bd + problem.delta[k] / math.sqrt(2) * eye
            h += w * (bd @ bd.conj().T + 0.5 * eye)
    for term in problem.anharmonic:
        prod = reduce(np.matmul, [q_b[i] for i in term.indices])
        h += term.coefficient * 0.5 * (prod + prod.conj().T)
    return h


@pytest.fixture(scope="module")
def so2():
    return bundled_problem("so2")


def test_qbpb_identity_transform():
    p = VibronicProblem("id", [700.0, 900.0], [700.0, 900.0], np.eye(2), [0.0, 0.0])
    space = ModeCutoffs((3, 3))
    q_b, p_b = build_qBpB(p, space)
    for k in range(2):
        ref_q = embed(position(3), k, space)
        ref_p = embed(momentum(3), k, space)
        assert np.abs(q_b[k] - ref_q).max() < 1e-14
        assert np.abs(p_b[k] - ref_p).max() < 1e-14


def test_qbpb_displacement_shifts_diagonal():
    space = ModeCutoffs((5,))
    q_b, _ = build_qBpB(toy_problem(delta=2.0), space)
    assert q_b[0][0, 0] == pytest.approx(2.0)


def test_qbpb_so2_vacuum_diagonal_is_delta(so2):
    space = ModeCutoffs((10, 10))
    q_b, _ = build_qBpB(so2, space)
    # the vacuum sits at flat index 0
    assert q_b[0][0, 0] == pytest.approx(-1.8830)
    assert q_b[1][0, 0] == pytest.approx(0.4551)


def test_harmonic_qp_identity_eigenvalues():
    rep = build_hamiltonian(toy_problem(), ModeCutoffs((6,)), route="qp")
    evals = np.linalg.eigvalsh(rep.hamiltonian.to_dense().real)
    # interior levels w(n + 1/2) are all present exactly; the one boundary
    # level is deficient (it lands at 3000 rather than 6500)
    for expected in 1000.0 * (np.arange(6) + 0.5):
        assert np.abs(evals - expected).min() < 1e-9
    assert len(evals) == 7
    assert np.abs(evals - 6500.0).min() > 100.0


def test_displacement_does_not_change_spectrum():
    rep = build_hamiltonian(toy_problem(delta=1.0), ModeCutoffs((20,)), route="qp")
    evals = np.linalg.eigvalsh(rep.hamiltonian.to_dense().real)
    assert evals[0] == pytest.approx(500.0, abs=1e-6)
    assert np.allclose(evals[:8], 1000.0 * (np.arange(8) + 0.5), atol=1e-5)


def test_so2_zero_point_energy(so2):
    rep = build_hamiltonian(so2, ModeCutoffs((13, 20)), route="qp")
    evals = np.linalg.eigvalsh(rep.hamiltonian.to_dense().real)
    assert evals[0] == pytest.approx(0.5 * (1178.1 + 518.8), abs=0.01)


@pytest.mark.parametrize("cutoffs", [(10, 10), (63, 64)])
def test_hamiltonian_is_csr_at_every_size(cutoffs, so2):
    # D = 121 and D = 4160: small and large spaces are stored alike
    h = build_hamiltonian(so2, ModeCutoffs(cutoffs)).hamiltonian
    assert isinstance(h.matrix, sp.csr_array)
    assert h.matrix.shape == (h.space.dimension,) * 2


@pytest.mark.parametrize("route", ["qp", "ladder"])
def test_hermiticity(route, so2):
    rep = build_hamiltonian(so2, ModeCutoffs((10, 10)), route=route)
    assert rep.hermiticity_deviation <= 1e-10
    assert rep.term_count >= so2.n_modes


def test_harmonic_psd(so2):
    rep = build_hamiltonian(so2, ModeCutoffs((11, 11)), route="qp")
    evals = np.linalg.eigvalsh(rep.hamiltonian.to_dense().real)
    assert evals.min() >= -1e-9


def test_ladder_identity_transform():
    p = VibronicProblem("id", [700.0], [700.0], [[1.0]], [0.0])
    space = ModeCutoffs((4,))
    bd = build_b_dagger(p, space)
    ref = embed(fock.creation(4), 0, space)
    assert np.abs(bd[0].to_dense() - ref).max() < 1e-14
    rep = build_hamiltonian(p, ModeCutoffs((4,)), route="ladder")
    h = rep.hamiltonian.to_dense()
    assert np.abs(h - np.diag(np.diag(h))).max() < 1e-12


@pytest.mark.parametrize("name", ["so2", "h2o", "no2"])
def test_qp_vs_ladder_interior_agreement(name):
    problem = bundled_problem(name)
    dims = (8, 8)
    h_qp = build_hamiltonian(problem, ModeCutoffs((7, 7)), route="qp").hamiltonian.to_dense()
    h_ld = build_hamiltonian(problem, ModeCutoffs((7, 7)), route="ladder").hamiltonian.to_dense()
    interior = [np.ravel_multi_index((i, j), dims) for i in range(6) for j in range(6)]
    diff = np.abs(h_qp[np.ix_(interior, interior)] - h_ld[np.ix_(interior, interior)])
    assert diff.max() < 1e-9


def test_ladder_term_count_so2(so2):
    # 4 M^2 quadratic + 2 M linear + 1 constant ordered monomials for dense J
    terms = ladder_terms(so2)
    assert len(terms) == 4 * 4 + 2 * 2 + 1


def test_ladder_terms_assemble_matches_builder(so2):
    space = ModeCutoffs((5, 5))
    h1 = assemble_terms(ladder_terms(so2), space).to_dense()
    h2 = build_hamiltonian(so2, ModeCutoffs((5, 5)), route="ladder").hamiltonian.to_dense()
    assert np.abs(h1 - h2).max() < 1e-9


def test_ladder_terms_structure(so2):
    kinds = {len(t.factors) for t in ladder_terms(so2)}
    assert kinds == {0, 1, 2}
    for t in ladder_terms(so2):
        for kind, mode in t.factors:
            assert kind in (CREATE, DESTROY)
            assert 0 <= mode < 2


def test_add_anharmonic_empty_is_identity_operation():
    p = toy_problem()
    assert hamiltonian_terms(p) == hamiltonian_terms(p, include_anharmonic=False)


def test_anharmonic_quartic_perturbation():
    # first-order shift of the ground state by k q^4 is 3k/4 (<0|q^4|0> = 3/4);
    # k is kept small so second-order corrections (~k^2/w) stay negligible
    k = 0.01
    p = VibronicProblem("qt", [1000.0], [1000.0], [[1.0]], [0.0],
                        anharmonic=(AnharmonicTerm((0, 0, 0, 0), k),))
    rep0 = build_hamiltonian(replace(p, anharmonic=()), ModeCutoffs((16,)))
    rep1 = build_hamiltonian(p, ModeCutoffs((16,)))
    e0 = np.linalg.eigvalsh(rep0.hamiltonian.to_dense().real)[0]
    e1 = np.linalg.eigvalsh(rep1.hamiltonian.to_dense().real)[0]
    assert e1 - e0 == pytest.approx(0.75 * k, rel=1e-4)


def test_anharmonic_so2_terms_present():
    p = bundled_problem("so2_anharmonic")
    assert p.n_modes == 3
    assert p.duschinsky_S[2][2] == 1.0
    coeffs = {t.indices: t.coefficient for t in p.anharmonic}
    assert coeffs[(0, 0, 0)] == 44.0
    assert coeffs[(2, 2, 2, 2)] == 3.0
    rep = build_hamiltonian(p, ModeCutoffs((6, 5, 4)))
    assert rep.hermiticity_deviation <= 1e-10
    # anharmonic terms change the Hamiltonian
    rep0 = build_hamiltonian(replace(p, anharmonic=()), ModeCutoffs((6, 5, 4)))
    assert np.abs(rep.hamiltonian.to_dense() - rep0.hamiltonian.to_dense()).max() > 1.0


def test_anharmonic_zero_coefficients_equals_harmonic():
    p = VibronicProblem("z", [800.0], [800.0], [[1.0]], [0.5],
                        anharmonic=(AnharmonicTerm((0, 0, 0), 0.0),))
    h0 = build_hamiltonian(replace(p, anharmonic=()), ModeCutoffs((8,)))
    h1 = build_hamiltonian(p, ModeCutoffs((8,)))
    assert np.abs(h1.hamiltonian.to_dense() - h0.hamiltonian.to_dense()).max() == 0.0


def test_anharmonic_index_out_of_range():
    bad = VibronicProblem("bad-idx", [1000.0], [1000.0], [[1.0]], [0.0],
                          anharmonic=(AnharmonicTerm((0, 0, 1), 5.0),))
    with pytest.raises(IndexError):
        build_hamiltonian(bad, ModeCutoffs((3,)))


def test_unknown_route():
    with pytest.raises(ValueError):
        build_hamiltonian(toy_problem(), ModeCutoffs((4,)), route="magic")


@pytest.mark.parametrize("route", ["qp", "ladder"])
@pytest.mark.parametrize("name,levels", [
    ("so2", (8, 8)), ("h2o", (8, 8)), ("no2", (8, 8)), ("so2_anharmonic", (4, 3, 3)),
])
def test_routes_match_dense_reference(name, levels, route):
    problem = bundled_problem(name)
    cutoffs = ModeCutoffs(levels)
    h = build_hamiltonian(problem, cutoffs, route=route).hamiltonian.to_dense()
    assert np.abs(h - dense_reference(problem, cutoffs, route)).max() < 1e-9


@pytest.mark.parametrize("omega_a, omega_b, delta, match", [
    (1000.0, 1000.0, 1e200, "omega or delta is too large"),
    (1.7976931348623157e308, 1178.1, 0.0, "omega or delta is too large"),
    (1e-300, 1e-300, 1.0, "omega_B is too small"),
])
def test_extreme_problem_data_refused_without_warning(omega_a, omega_b, delta, match):
    problem = VibronicProblem("x", [omega_a], [omega_b], [[1.0]], [delta])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for route in ("qp", "ladder"):
            with pytest.raises(ProblemValidationError, match=match):
                hamiltonian_terms(problem, route)


def test_largest_accepted_coefficient():
    # delta = sqrt(2) s gives the constant w s^2 on the qp route
    s = math.sqrt(MAX_COEFF / 1000.0)
    terms = hamiltonian_terms(toy_problem(delta=s * math.sqrt(2) * 0.999))
    assert max(abs(t.coefficient) for t in terms) <= MAX_COEFF
    with pytest.raises(ProblemValidationError, match=r"past 1e\+154"):
        hamiltonian_terms(toy_problem(delta=s * math.sqrt(2) * 1.001))
