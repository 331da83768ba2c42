"""Final-surface vibrational Hamiltonians in the truncated initial-surface basis.

Everything is expanded from the transformed creation operators

    b_k^dag = 1/2 (J - J^-T) a + 1/2 (J + J^-T) a^dag + delta/sqrt(2),

written as ordered products of initial-surface ladder operators.  The two
routes are two operator orderings of the same harmonic Hamiltonian:

* ``qp``     - symmetric ordering H = sum_k w_Bk (b_k b_k^dag + b_k^dag b_k) / 2,
               which as a matrix identity equals 1/2 sum_k w_Bk (q_Bk^2 + p_Bk^2)
               with q_B = (b^dag + b)/sqrt(2) and p_B = i (b^dag - b)/sqrt(2);
* ``ladder`` - normal ordering H = sum_k w_Bk (b_k^dag b_k + 1/2).

They differ by sum_k w_Bk ([b_k, b_k^dag] - 1) / 2, which vanishes in the
untruncated algebra; truncation makes it nonzero near the cutoff boundary,
which is precisely the error this package studies.  Anharmonic monomials
take q_B from the same expansion.  The qp route is the default downstream;
the harmonic ladder term list is also what the qubit mapper compiles.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .fock import ManyBodyOperator
from .problem import (ModeCutoffs, ProblemValidationError, VibronicProblem, duschinsky_J,
                      duschinsky_J_inv_T)

#: Ladder-operator factor kinds in second-quantized terms.
CREATE = "create"
DESTROY = "destroy"

#: Terms with |coefficient| at or below this are dropped when pruning.
COEFF_PRUNE = 1e-14

#: Largest |coefficient| accepted, about the square root of the largest float:
#: the cutoff factors, the eigensolver and the phase map need the rest as headroom.
MAX_COEFF = 1e154


@dataclass(frozen=True)
class SecondQuantizedTerm:
    """coefficient * product of ladder factors, applied left to right.

    ``factors`` is a tuple of (kind, mode) pairs; the empty tuple is the
    identity term.  Factor order is preserved exactly as produced by the
    expansion (no commutation-based merging), so same-mode orderings like
    a a^dag and a^dag a stay distinct.
    """

    factors: tuple[tuple[str, int], ...]
    coefficient: float


@dataclass
class HamiltonianBuildReport:
    """Result of one Hamiltonian assembly."""

    space: ModeCutoffs
    hamiltonian: ManyBodyOperator
    term_count: int
    hermiticity_deviation: float


Terms = list[SecondQuantizedTerm]


def b_dagger_terms(problem: VibronicProblem) -> list[Terms]:
    """b_k^dag per final-surface mode k as a term list.

    The linear terms come first, mode by mode (a_i then a_i^dag); the
    constant delta_k/sqrt(2) is always the last entry.
    """
    j_mat = duschinsky_J(problem)
    j_inv_t = duschinsky_J_inv_T(problem)
    c_minus = 0.5 * (j_mat - j_inv_t)
    c_plus = 0.5 * (j_mat + j_inv_t)
    m = problem.n_modes
    out = []
    for k in range(m):
        terms = []
        for i in range(m):
            terms.append(SecondQuantizedTerm(((DESTROY, i),), c_minus[k, i]))
            terms.append(SecondQuantizedTerm(((CREATE, i),), c_plus[k, i]))
        terms.append(SecondQuantizedTerm((), problem.delta[k] / math.sqrt(2)))
        out.append(terms)
    return out


def _adjoint(terms: Terms) -> Terms:
    """Hermitian conjugate of a real-coefficient term list."""
    swap = {CREATE: DESTROY, DESTROY: CREATE}
    return [
        SecondQuantizedTerm(tuple((swap[kind], mode) for kind, mode in reversed(t.factors)),
                            t.coefficient)
        for t in terms
    ]


def _scaled(terms: Terms, factor: float) -> Terms:
    return [SecondQuantizedTerm(t.factors, factor * t.coefficient) for t in terms]


def _times(left: Terms, right: Terms, scale: float = 1.0) -> Terms:
    """Ordered product scale * left * right, expanded term by term."""
    return [
        SecondQuantizedTerm(x.factors + y.factors, scale * x.coefficient * y.coefficient)
        for x in left
        for y in right
    ]


def _grouped(terms: Terms) -> Terms:
    """Sum coefficients of identical ordered factor tuples; prune near-zero sums, not NaN."""
    sums: dict[tuple[tuple[str, int], ...], float] = {}
    for t in terms:
        sums[t.factors] = sums.get(t.factors, 0.0) + t.coefficient
    return [SecondQuantizedTerm(f, c) for f, c in sums.items() if not abs(c) <= COEFF_PRUNE]


@np.errstate(over="ignore", invalid="ignore")  # a non-finite sum is refused below
def hamiltonian_terms(
    problem: VibronicProblem, route: str = "qp", include_anharmonic: bool = True
) -> Terms:
    """Grouped second-quantized expansion of H in the route's operator ordering.

    With b_k^dag = L_k + s_k (L_k linear, s_k = delta_k/sqrt(2)) the two
    orderings share the linear and constant parts:
    b^dag b + 1/2 = L L^dag + s (L + L^dag) + s^2 + 1/2 and
    (b b^dag + b^dag b)/2 = (L^dag L + L L^dag)/2 + s (L + L^dag) + s^2.

    Each anharmonic monomial is the ordered product of q_B = (b^dag + b)/sqrt(2)
    symmetrized as (P + P^dag)/2: the coordinates commute exactly only in the
    untruncated algebra, and symmetrizing keeps H Hermitian at any cutoff.

    Problem data that push a coefficient past MAX_COEFF, or prune every one,
    raise ProblemValidationError instead of a numpy warning.
    """
    if route not in ("qp", "ladder"):
        raise ValueError(f"unknown route {route!r}, expected 'qp' or 'ladder'")
    b_dag = b_dagger_terms(problem)
    terms: Terms = []
    # Term order and each coefficient's arithmetic stay fixed: with integer
    # frequencies many sticks sit exactly on 1 cm^-1 bin edges, so the last
    # bit of H decides their bin and with it the seed-recorded spectra.
    for w, (*lin, shift) in zip(problem.omega_B, b_dag):
        s = shift.coefficient
        lin_dag = _adjoint(lin)
        if route == "ladder":
            terms += _times(lin, lin_dag, w)
            constant = s * s + 0.5
        else:
            terms += _times(lin_dag, lin, 0.5 * w) + _times(lin, lin_dag, 0.5 * w)
            constant = s * s
        terms += _scaled(_grouped(lin + lin_dag), w * s)
        terms.append(SecondQuantizedTerm((), w * constant))
    if include_anharmonic and problem.anharmonic:
        q_b = [_grouped(_scaled(bd + _adjoint(bd), 1.0 / math.sqrt(2))) for bd in b_dag]
        for monomial in problem.anharmonic:
            if any(i < 0 or i >= len(q_b) for i in monomial.indices):
                raise IndexError(f"anharmonic term indices {monomial.indices} out of range")
            prod = [SecondQuantizedTerm((), monomial.coefficient)]
            for i in monomial.indices:
                prod = _grouped(_times(prod, q_b[i]))
            terms += _scaled(prod + _adjoint(prod), 0.5)
    terms = _grouped(terms)
    bad = [t.coefficient for t in terms if not abs(t.coefficient) <= MAX_COEFF]  # NaN too
    if bad:
        raise ProblemValidationError(f"{problem.label}: omega or delta is too large: a "
                                     f"Hamiltonian coefficient is {bad[0]:.4g}, past {MAX_COEFF:g}")
    if not terms:
        raise ProblemValidationError(f"{problem.label}: omega_B is too small: every "
                                     f"Hamiltonian coefficient is at most {COEFF_PRUNE:g}")
    return terms


def ladder_terms(problem: VibronicProblem) -> Terms:
    """Grouped expansion of the harmonic sum_k w_Bk (b_k^dag b_k + 1/2).

    For a dense J this is 4 M^2 quadratic, 2 M linear and 1 constant
    ordered monomials; the length of this list is the term-count observable
    for the quadratic scaling check, and the list is what the mapper compiles.
    """
    return hamiltonian_terms(problem, route="ladder", include_anharmonic=False)


def assemble_terms(terms: Terms, space: ModeCutoffs) -> ManyBodyOperator:
    """Turn a second-quantized term list into a sparse (CSR) matrix operator.

    A ladder factor moves its mode's level by one, so a term moves every
    column multi-index by a fixed per-mode shift and scales it by the product
    of its factors' matrix elements.  That product is a Kronecker product of
    single-mode diagonals, taken factor by factor in the term's order, each
    factor read at the level its right-hand neighbours on the same mode
    leave.  Terms with equal shifts share one value grid over the D column
    multi-indices, so no D x D product is ever formed.
    """
    if not terms:
        raise ValueError("empty term list")
    dims = space.local_dims

    @functools.cache
    def factor(kind: str, mode: int, offset: int) -> np.ndarray:
        """<l'|factor|l> per column level, read at l + offset, shaped for broadcasting."""
        level = np.arange(dims[mode]) + offset
        target = level + (1 if kind == CREATE else -1)
        inside = (level >= 0) & (level < dims[mode]) & (target >= 0) & (target < dims[mode])
        shape = [1] * len(dims)
        shape[mode] = dims[mode]
        return np.sqrt(np.where(inside, np.maximum(level, target), 0)).reshape(shape)

    grids: dict[tuple[int, ...], np.ndarray] = {}
    for term in terms:
        shifts = [0] * len(dims)
        offsets = []
        for kind, mode in reversed(term.factors):
            offsets.append(shifts[mode])
            shifts[mode] += 1 if kind == CREATE else -1
        grid = np.array(term.coefficient, dtype=float)
        for (kind, mode), offset in zip(term.factors, reversed(offsets)):
            grid = grid * factor(kind, mode, offset)
        key = tuple(shifts)
        grids[key] = grid + grids[key] if key in grids else grid

    strides = np.array([math.prod(dims[m + 1:]) for m in range(len(dims))])
    rows, cols, data = [], [], []
    for shifts, grid in grids.items():
        grid = np.broadcast_to(grid, dims)
        flat = np.flatnonzero(grid)
        cols.append(flat)
        rows.append(flat + int(np.dot(shifts, strides)))
        data.append(grid.ravel()[flat])
    d = space.dimension
    mat = sp.csr_array(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))), shape=(d, d)
    )
    return ManyBodyOperator(space, mat)


def build_b_dagger(problem: VibronicProblem, space: ModeCutoffs) -> list[ManyBodyOperator]:
    """Transformed creation operators b_k^dag as many-body matrices."""
    return [assemble_terms(terms, space) for terms in b_dagger_terms(problem)]


def build_hamiltonian(
    problem: VibronicProblem, cutoffs: ModeCutoffs, route: str = "qp"
) -> HamiltonianBuildReport:
    """Assemble H, anharmonic terms included, in the route's ordering.

    ``term_count`` is the number of grouped second-quantized terms.
    """
    if len(cutoffs) != problem.n_modes:
        raise ValueError(f"{len(cutoffs)} cutoffs for a {problem.n_modes}-mode problem")
    terms = hamiltonian_terms(problem, route)
    h = assemble_terms(terms, cutoffs)
    return HamiltonianBuildReport(
        space=cutoffs,
        hamiltonian=h,
        term_count=len(terms),
        hermiticity_deviation=h.hermiticity_deviation(),
    )
