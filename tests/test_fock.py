import numpy as np
import pytest
import scipy.sparse as sp

from dense_reference import embed, momentum, position
from vibronic import fock
from vibronic.fock import ManyBodyOperator
from vibronic.problem import ModeCutoffs, ProblemValidationError


def test_creation_l1():
    assert np.array_equal(fock.creation(1), np.array([[0, 0], [1, 0]], dtype=complex))


def test_creation_l2_entries():
    c = fock.creation(2)
    assert c[1, 0] == 1.0
    assert c[2, 1] == pytest.approx(np.sqrt(2))
    assert np.count_nonzero(c) == 2


def test_creation_is_annihilation_transpose():
    for l_max in (1, 3, 7):
        assert np.array_equal(fock.creation(l_max).T, fock.annihilation(l_max))


def test_invalid_cutoff():
    # the rule and its message live in ModeCutoffs
    with pytest.raises(ProblemValidationError, match="L_max >= 1"):
        fock.creation(0)
    with pytest.raises(ProblemValidationError, match="L_max >= 1"):
        fock.annihilation(-2)


def test_position_l1():
    q = position(1)
    assert np.allclose(q, np.array([[0, 1], [1, 0]]) / np.sqrt(2))


def test_position_entry_formula():
    q = position(3)
    assert q[2, 1] == pytest.approx(1.0)  # sqrt(2)/sqrt(2)
    assert np.allclose(q, q.conj().T)


@pytest.mark.parametrize("l_max", range(1, 11))
def test_momentum_hermitian_traceless_imaginary(l_max):
    p = momentum(l_max)
    assert np.allclose(p, p.conj().T)
    assert abs(np.trace(p)) < 1e-14
    assert np.abs(p.real).max() < 1e-14


def test_number_operator_identity_on_all_levels():
    l_max = 6
    n = fock.creation(l_max) @ fock.annihilation(l_max)
    assert np.allclose(n, np.diag(np.arange(l_max + 1)))


def test_boundary_commutator_failure_location():
    # canonical [a, a^dag] = 1 fails exactly (and only) at l = L_max, where
    # the truncated product a a^dag is missing the value L_max + 1
    l_max = 5
    a = fock.annihilation(l_max)
    ad = fock.creation(l_max)
    comm = a @ ad - ad @ a
    expected = np.eye(l_max + 1)
    expected[l_max, l_max] = -l_max
    assert np.allclose(comm, expected, atol=1e-14)


@pytest.mark.parametrize("l_max", (2, 5, 9))
def test_q2_plus_p2_identity(l_max):
    q = position(l_max)
    p = momentum(l_max)
    a = fock.annihilation(l_max)
    ad = fock.creation(l_max)
    assert np.abs((q @ q + p @ p) - (a @ ad + ad @ a)).max() < 1e-12


def test_fockspace_indexing():
    space = ModeCutoffs((2, 1, 3))
    assert space.dimension == 24
    levels = space.all_multi_indices()
    assert levels.shape == (24, 3)
    # mode 0 is the slowest index
    assert levels[0].tolist() == [0, 0, 0]
    assert levels[8].tolist() == [1, 0, 0]
    assert levels[4].tolist() == [0, 1, 0]
    assert levels[1].tolist() == [0, 0, 1]
    for flat, row in enumerate(levels):
        assert np.ravel_multi_index(tuple(row), space.local_dims) == flat


def test_cross_mode_operators_commute_exactly():
    space = ModeCutoffs((3, 3))
    q0 = embed(position(3), 0, space)
    p1 = embed(momentum(3), 1, space)
    assert np.abs(q0 @ p1 - p1 @ q0).max() == 0.0


def test_same_mode_commutator_on_interior():
    space = ModeCutoffs((4, 2))
    q = embed(position(4), 0, space)
    p = embed(momentum(4), 0, space)
    comm = q @ p - p @ q
    interior = [np.ravel_multi_index((n0, n1), space.local_dims)
                for n0 in range(4) for n1 in range(3)]
    sub = comm[np.ix_(interior, interior)]
    assert np.abs(sub - 1j * np.eye(len(interior))).max() < 1e-12


def test_q_squared_vacuum_element():
    space = ModeCutoffs((2,))
    q = ManyBodyOperator(space, embed(position(2), 0, space))
    q2 = q @ q
    assert q2.to_dense()[0, 0] == pytest.approx(0.5)


def test_multiply_associative():
    rng = np.random.default_rng(11)
    space = ModeCutoffs((1, 2, 1))
    ops = []
    for _ in range(3):
        m = rng.normal(size=(space.dimension, space.dimension)) \
            + 1j * rng.normal(size=(space.dimension, space.dimension))
        ops.append(ManyBodyOperator(space, m))
    a, b, c = ops
    left = ((a @ b) @ c).to_dense()
    right = (a @ (b @ c)).to_dense()
    assert np.abs(left - right).max() < 1e-12 * np.abs(left).max()


def test_hermiticity_flag_and_check():
    space = ModeCutoffs((2,))
    q = ManyBodyOperator(space, embed(position(2), 0, space))
    assert q.verify_hermitian()
    prod = q @ q
    assert prod.verify_hermitian()  # numerically Hermitian
    skew = ManyBodyOperator(space, np.diag([1j, 0, 0]))
    assert not skew.verify_hermitian()


def test_representation_independence():
    # dense and sparse inputs are both stored as CSR; products and adjoints stay CSR
    space = ModeCutoffs((3, 2))
    q = embed(position(3), 0, space)
    q_dense = ManyBodyOperator(space, q)
    q_sparse = ManyBodyOperator(space, sp.csr_array(q))
    for op in (q_dense, q_sparse, q_sparse @ q_dense, q_dense.dagger()):
        assert isinstance(op.matrix, sp.csr_array)
    assert np.array_equal(q_dense.to_dense(), q)
    assert np.array_equal(q_sparse.to_dense(), q)
    assert np.abs((q_sparse @ q_dense).to_dense() - q @ q).max() < 1e-12


def test_space_mismatch_raises():
    a = ManyBodyOperator(ModeCutoffs((2,)), np.eye(3, dtype=complex))
    b = ManyBodyOperator(ModeCutoffs((3,)), np.eye(4, dtype=complex))
    with pytest.raises(ValueError):
        _ = a @ b
