"""Truncated harmonic-oscillator ladder operators and many-body operators.

Single-mode operators are plain square matrices over levels 0..L_max.  A
many-body operator is a scipy CSR matrix over the states of a
``ModeCutoffs`` space, in that space's flat-index order.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .problem import ModeCutoffs

#: Hermiticity tolerance relative to max|H|.  Assembly round-off leaves an
#: asymmetry below one ulp of max|H| (about 1e-17 of it on the bundled
#: problems); a genuinely non-Hermitian matrix deviates at the size of its
#: entries.
HERMITICITY_RTOL = 1e-12


def creation(l_max: int) -> np.ndarray:
    """Truncated creation operator: <l| a^dag |l-1> = sqrt(l) for l <= L_max."""
    ModeCutoffs((l_max,))  # refuses L_max < 1
    return np.diag(np.sqrt(np.arange(1, l_max + 1)), k=-1).astype(complex)


def annihilation(l_max: int) -> np.ndarray:
    return creation(l_max).T.copy()


class ManyBodyOperator:
    """Operator over a truncated Fock space; any input matrix is stored as CSR."""

    def __init__(self, space: ModeCutoffs, matrix):
        if matrix.shape != (space.dimension, space.dimension):
            raise ValueError(
                f"matrix shape {matrix.shape} does not match space dimension {space.dimension}"
            )
        self.space = space
        self.matrix = sp.csr_array(matrix)

    def to_dense(self) -> np.ndarray:
        return self.matrix.toarray()

    def __matmul__(self, other: "ManyBodyOperator") -> "ManyBodyOperator":
        if self.space != other.space:
            raise ValueError("operators live on different Fock spaces")
        return ManyBodyOperator(self.space, self.matrix @ other.matrix)

    def dagger(self) -> "ManyBodyOperator":
        return ManyBodyOperator(self.space, self.matrix.conj().T)

    def hermiticity_deviation(self) -> float:
        return _max_abs(self.matrix - self.matrix.conj().T)

    def verify_hermitian(self) -> bool:
        """Whether max|H - H^dag| <= HERMITICITY_RTOL * max|H|."""
        return self.hermiticity_deviation() <= HERMITICITY_RTOL * _max_abs(self.matrix)


def _max_abs(matrix: sp.csr_array) -> float:
    return float(np.abs(matrix.data).max(initial=0.0))
