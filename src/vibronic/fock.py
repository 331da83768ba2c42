"""Truncated harmonic-oscillator ladder operators and many-body operators.

Single-mode operators are plain square matrices over levels 0..L_max.  The
multi-mode product space is indexed row-major with mode 0 as the slowest
index, so the vacuum |0,...,0> always sits at flat index 0.  Many-body
operators carry either a dense ndarray or a scipy CSR matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np
import scipy.sparse as sp

from .problem import ModeCutoffs

#: Hamiltonians on spaces smaller than this are stored dense; larger ones as CSR.
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

    def all_multi_indices(self) -> np.ndarray:
        """(D, M) array of occupation numbers in flat-index order."""
        grids = np.indices(self.local_dims).reshape(self.n_modes, -1)
        return grids.T


def creation(l_max: int) -> np.ndarray:
    """Truncated creation operator: <l| a^dag |l-1> = sqrt(l) for l <= L_max."""
    if l_max < 1:
        raise CutoffError(f"L_max must be >= 1, got {l_max}")
    return np.diag(np.sqrt(np.arange(1, l_max + 1)), k=-1).astype(complex)


def annihilation(l_max: int) -> np.ndarray:
    return creation(l_max).T.copy()


class ManyBodyOperator:
    """Operator over a FockSpace, stored dense or sparse (CSR)."""

    def __init__(self, space: FockSpace, matrix: Matrix):
        if matrix.shape != (space.dimension, space.dimension):
            raise ValueError(
                f"matrix shape {matrix.shape} does not match space dimension {space.dimension}"
            )
        self.space = space
        self.matrix = matrix

    def to_dense(self) -> np.ndarray:
        if sp.issparse(self.matrix):
            return np.asarray(self.matrix.todense())
        return np.asarray(self.matrix)

    def __matmul__(self, other: "ManyBodyOperator") -> "ManyBodyOperator":
        if self.space != other.space:
            raise ValueError("operators live on different Fock spaces")
        return ManyBodyOperator(self.space, self.matrix @ other.matrix)

    def dagger(self) -> "ManyBodyOperator":
        mat = self.matrix.conj().T
        if sp.issparse(mat):
            mat = mat.tocsr()
        return ManyBodyOperator(self.space, mat)

    def hermiticity_deviation(self) -> float:
        return _max_abs(self.matrix - self.matrix.conj().T)

    def verify_hermitian(self) -> bool:
        """Whether max|H - H^dag| <= HERMITICITY_RTOL * max|H|."""
        return self.hermiticity_deviation() <= HERMITICITY_RTOL * _max_abs(self.matrix)


def _max_abs(matrix: Matrix) -> float:
    values = matrix.data if sp.issparse(matrix) else matrix
    return float(np.abs(values).max(initial=0.0))
