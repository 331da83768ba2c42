"""Truncated harmonic-oscillator operators and their multi-mode embeddings.

Single-mode operators are plain square matrices over levels 0..L_max.  The
multi-mode product space is indexed row-major with mode 0 as the slowest
index, so the vacuum |0,...,0> always sits at flat index 0.  Many-body
operators carry either a dense ndarray or a scipy CSR matrix; all arithmetic
is representation-agnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np
import scipy.sparse as sp

from .problem import ModeCutoffs

#: Spaces smaller than this default to dense storage; larger ones to CSR.
DENSE_DIM_THRESHOLD = 4096

#: Hermiticity tolerance relative to max|H|.  Assembly round-off leaves an
#: asymmetry below one ulp of max|H| (about 1e-17 of it on the bundled
#: problems); a genuinely non-Hermitian matrix deviates at the size of its
#: entries.
HERMITICITY_RTOL = 1e-12

Matrix = Union[np.ndarray, sp.spmatrix, sp.csr_array]


class CutoffError(ValueError):
    """Raised for invalid truncation levels (L_max < 1)."""


@dataclass(frozen=True)
class FockSpace:
    """Truncated multi-mode Fock product space with a fixed flat-index map."""

    local_dims: tuple[int, ...]

    @classmethod
    def from_cutoffs(cls, cutoffs: ModeCutoffs) -> "FockSpace":
        return cls(cutoffs.local_dims)

    @property
    def n_modes(self) -> int:
        return len(self.local_dims)

    @property
    def dimension(self) -> int:
        return int(np.prod(self.local_dims))

    @property
    def cutoffs(self) -> tuple[int, ...]:
        return tuple(d - 1 for d in self.local_dims)

    def flat_index(self, levels: Sequence[int]) -> int:
        """Row-major flat index of the multi-index (mode 0 slowest)."""
        return int(np.ravel_multi_index(tuple(levels), self.local_dims))

    def multi_index(self, flat: int) -> tuple[int, ...]:
        return tuple(int(i) for i in np.unravel_index(flat, self.local_dims))

    def all_multi_indices(self) -> np.ndarray:
        """(D, M) array of occupation numbers in flat-index order."""
        grids = np.indices(self.local_dims).reshape(self.n_modes, -1)
        return grids.T

    def basis_state(self, levels: Sequence[int]) -> np.ndarray:
        vec = np.zeros(self.dimension, dtype=complex)
        vec[self.flat_index(levels)] = 1.0
        return vec

    def vacuum_state(self) -> np.ndarray:
        return self.basis_state((0,) * self.n_modes)


def _check_cutoff(l_max: int) -> None:
    if l_max < 1:
        raise CutoffError(f"L_max must be >= 1, got {l_max}")


def creation(l_max: int) -> np.ndarray:
    """Truncated creation operator: <l| a^dag |l-1> = sqrt(l) for l <= L_max."""
    _check_cutoff(l_max)
    return np.diag(np.sqrt(np.arange(1, l_max + 1)), k=-1).astype(complex)


def annihilation(l_max: int) -> np.ndarray:
    return creation(l_max).T.copy()


def number(l_max: int) -> np.ndarray:
    _check_cutoff(l_max)
    return np.diag(np.arange(l_max + 1)).astype(complex)


def position(l_max: int) -> np.ndarray:
    """Dimensionless position q = (a + a^dag)/sqrt(2)."""
    a = annihilation(l_max)
    return (a + a.conj().T) / math.sqrt(2)


def momentum(l_max: int) -> np.ndarray:
    """Dimensionless momentum p = (a - a^dag)/(i sqrt(2)); purely imaginary entries."""
    a = annihilation(l_max)
    return (a - a.conj().T) / (1j * math.sqrt(2))


class ManyBodyOperator:
    """Operator over a FockSpace, stored dense or sparse (CSR).

    The ``hermitian`` flag is bookkeeping propagated conservatively by the
    arithmetic; ``verify_hermitian`` measures the actual deviation.
    """

    def __init__(self, space: FockSpace, matrix: Matrix, hermitian: bool = False):
        if matrix.shape != (space.dimension, space.dimension):
            raise ValueError(
                f"matrix shape {matrix.shape} does not match space dimension {space.dimension}"
            )
        self.space = space
        self.matrix = matrix
        self.hermitian = hermitian

    # -- representation ------------------------------------------------

    @property
    def is_sparse(self) -> bool:
        return sp.issparse(self.matrix)

    def to_dense(self) -> np.ndarray:
        if self.is_sparse:
            return np.asarray(self.matrix.todense())
        return np.asarray(self.matrix)

    # -- algebra ---------------------------------------------------------

    def _check_space(self, other: "ManyBodyOperator") -> None:
        if self.space != other.space:
            raise ValueError("operators live on different Fock spaces")

    def __add__(self, other: "ManyBodyOperator") -> "ManyBodyOperator":
        self._check_space(other)
        return ManyBodyOperator(
            self.space, self.matrix + other.matrix, self.hermitian and other.hermitian
        )

    def __sub__(self, other: "ManyBodyOperator") -> "ManyBodyOperator":
        self._check_space(other)
        return ManyBodyOperator(
            self.space, self.matrix - other.matrix, self.hermitian and other.hermitian
        )

    def scale(self, factor: complex) -> "ManyBodyOperator":
        hermitian = self.hermitian and float(np.imag(factor)) == 0.0
        return ManyBodyOperator(self.space, self.matrix * factor, hermitian)

    def __mul__(self, factor: complex) -> "ManyBodyOperator":
        return self.scale(factor)

    __rmul__ = __mul__

    def __matmul__(self, other: "ManyBodyOperator") -> "ManyBodyOperator":
        self._check_space(other)
        return ManyBodyOperator(self.space, self.matrix @ other.matrix, hermitian=False)

    def dagger(self) -> "ManyBodyOperator":
        mat = self.matrix.conj().T
        if sp.issparse(mat):
            mat = mat.tocsr()
        return ManyBodyOperator(self.space, mat, self.hermitian)

    def element(self, bra_levels: Sequence[int], ket_levels: Sequence[int]) -> complex:
        i = self.space.flat_index(bra_levels)
        j = self.space.flat_index(ket_levels)
        return complex(self.matrix[i, j])

    def hermiticity_deviation(self) -> float:
        return _max_abs(self.matrix - self.matrix.conj().T)

    def verify_hermitian(self, rtol: float = HERMITICITY_RTOL) -> bool:
        """Whether max|H - H^dag| <= rtol * max|H|."""
        return self.hermiticity_deviation() <= rtol * _max_abs(self.matrix)


def _max_abs(matrix: Matrix) -> float:
    values = matrix.data if sp.issparse(matrix) else matrix
    return float(np.abs(values).max(initial=0.0))


def embed(
    op: np.ndarray,
    mode: int,
    space: FockSpace,
    hermitian: bool = False,
    representation: str = "auto",
) -> ManyBodyOperator:
    """Embed a single-mode operator as identity on every other mode.

    ``representation`` selects the storage of the result ('auto' follows the
    dense/sparse dimension threshold); matrix elements are identical either
    way.
    """
    if not 0 <= mode < space.n_modes:
        raise ValueError(f"mode {mode} out of range for {space.n_modes}-mode space")
    d = space.local_dims[mode]
    if op.shape != (d, d):
        raise ValueError(
            f"operator shape {op.shape} does not match local dimension {d} of mode {mode}"
        )
    if representation == "auto":
        representation = "dense" if space.dimension < DENSE_DIM_THRESHOLD else "sparse"

    left = int(np.prod(space.local_dims[:mode], initial=1))
    right = int(np.prod(space.local_dims[mode + 1 :], initial=1))
    if representation == "dense":
        mat = np.kron(np.kron(np.eye(left), op), np.eye(right)).astype(complex)
    else:
        mat = sp.kron(
            sp.kron(sp.identity(left, format="csr"), sp.csr_array(op)),
            sp.identity(right, format="csr"),
            format="csr",
        )
    return ManyBodyOperator(space, mat, hermitian=hermitian)


def identity_operator(space: FockSpace, representation: str = "auto") -> ManyBodyOperator:
    if representation == "auto":
        representation = "dense" if space.dimension < DENSE_DIM_THRESHOLD else "sparse"
    if representation == "dense":
        mat: Matrix = np.eye(space.dimension, dtype=complex)
    else:
        mat = sp.identity(space.dimension, dtype=complex, format="csr")
    return ManyBodyOperator(space, mat, hermitian=True)


def commutator(a: ManyBodyOperator, b: ManyBodyOperator) -> ManyBodyOperator:
    return (a @ b) - (b @ a)
