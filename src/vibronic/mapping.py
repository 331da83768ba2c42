"""Compilation of truncated bosonic operators to qubit Pauli sums.

Two level encodings are supported: ``binary`` packs level l into
ceil(log2(L_max+1)) qubits as the little-endian bits of l; ``unary`` uses
one-hot strings over L_max+1 qubits with a dedicated vacuum qubit.  A matrix
element |l><l'| is one closed-form sum of Pauli products (``_transition``) on
the mode's qubits in binary, and on the one or two qubits where the unary
codewords are set, which keeps the one-hot code sector invariant.

Pauli products are built as symplectic (x, z) integer masks: a qubit with
x=1 is flipped (X or Y) and one with z=1 gets a sign (Z or Y).  Products on
disjoint supports are the OR of the masks.  Each finished term is rendered
once to the string key of ``PauliSum``.

Conventions fixed here and relied on elsewhere: global basis index x has
qubit p as bit (x >> p) & 1 (qubit 0 least significant); Pauli strings are
rendered with qubit 0 leftmost.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate

import numpy as np

from . import fock
from .hamiltonian import COEFF_PRUNE, CREATE
from .problem import ModeCutoffs

PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

#: The one size limit: the most bytes any dense step may hold (1 GiB).
MAX_DENSE_BYTES = 1 << 30

# i^k for k = 0..3
_PHASES = (1 + 0j, 1j, -1 + 0j, -1j)
_X_BITS = str.maketrans("IXYZ", "0110")
_Z_BITS = str.maketrans("IXYZ", "0011")


class EncodingError(ValueError):
    """Raised for an unknown encoding variant or mismatched shapes and layouts."""


class DenseBudgetError(ValueError):
    """Raised when a step would hold more than MAX_DENSE_BYTES."""


def check_dense_bytes(n_bytes: int, what: str) -> None:
    """Raise DenseBudgetError, before allocating, if ``what`` needs over MAX_DENSE_BYTES."""
    if n_bytes > MAX_DENSE_BYTES:
        raise DenseBudgetError(
            f"{what} would take {n_bytes / 2**30:.4g} GiB > the 1 GiB dense-array budget"
        )


@dataclass(frozen=True)
class Encoding:
    """Level-to-qubit code choice plus the per-mode cutoffs."""

    variant: str
    cutoffs: ModeCutoffs

    def __post_init__(self) -> None:
        if self.variant not in ("binary", "unary"):
            raise EncodingError(f"unknown encoding variant {self.variant!r}")

    def qubits_for_mode(self, mode: int) -> int:
        l_max = self.cutoffs.levels[mode]
        if self.variant == "binary":
            return max(1, math.ceil(math.log2(l_max + 1)))
        return l_max + 1


@dataclass(frozen=True)
class QubitLayout:
    """Contiguous qubit ranges assigned to modes, mode 0 first."""

    mode_starts: tuple[int, ...]
    mode_widths: tuple[int, ...]

    @classmethod
    def for_encoding(cls, encoding: Encoding) -> "QubitLayout":
        widths = tuple(encoding.qubits_for_mode(mode) for mode in range(len(encoding.cutoffs)))
        return cls(tuple(accumulate(widths[:-1], initial=0)), widths)

    @property
    def total_qubits(self) -> int:
        return self.mode_starts[-1] + self.mode_widths[-1]

    def mode_range(self, mode: int) -> range:
        return range(self.mode_starts[mode], self.mode_starts[mode] + self.mode_widths[mode])


class PauliSum:
    """Weighted sum of Pauli strings over a fixed qubit count, deduplicated."""

    def __init__(self, n_qubits: int, terms: dict[str, complex] | None = None):
        self.n_qubits = n_qubits
        self.terms: dict[str, complex] = {}
        if terms:
            for string, coeff in terms.items():
                self.add_term(string, coeff)

    def add_term(self, string: str, coeff: complex) -> None:
        if len(string) != self.n_qubits:
            raise EncodingError(
                f"Pauli string length {len(string)} != qubit count {self.n_qubits}"
            )
        self.terms[string] = self.terms.get(string, 0.0) + coeff

    def sorted_terms(self) -> list[tuple[str, complex]]:
        """Terms in stable string order (the text-output and Trotter order)."""
        return sorted(self.terms.items(), key=lambda item: item[0])

    def __len__(self) -> int:
        return len(self.terms)

    def max_imag_coeff(self) -> float:
        return max((abs(c.imag) for c in self.terms.values()), default=0.0)


def _level_word(l: int, mode: int, encoding: Encoding, layout: QubitLayout) -> int:
    """Basis-index bits of level l on its mode's qubits."""
    start = layout.mode_starts[mode]
    return l << start if encoding.variant == "binary" else 1 << (start + l)


def codespace_indices(encoding: Encoding, layout: QubitLayout) -> np.ndarray:
    """Basis indices of all encoded Fock states, in flat Fock-index order."""
    index = np.zeros(1, dtype=np.int64)
    for mode, d in enumerate(encoding.cutoffs.local_dims):
        words = np.array([_level_word(l, mode, encoding, layout) for l in range(d)], dtype=np.int64)
        index = (index[:, None] | words[None, :]).ravel()  # mode 0 slowest
    return index


def pauli_masks(string: str) -> tuple[int, int]:
    """(x, z) masks of a Pauli string: X and Y set x, Z and Y set z (bit q = qubit q)."""
    reverse = string[::-1]
    return int(reverse.translate(_X_BITS), 2), int(reverse.translate(_Z_BITS), 2)


def _render(x: int, z: int, n: int) -> str:
    """Pauli string of masks (x, z) on n qubits, qubit 0 leftmost."""
    return "".join("IXZY"[(x >> q & 1) | (z >> q & 1) << 1] for q in range(n))


def _transition(bra: int, ket: int, qubits: tuple[int, ...]) -> dict[tuple[int, int], complex]:
    """|bra><ket| on the one-bit masks ``qubits`` as {(x, z): coefficient}.

    Per qubit |b><b| = (I + (-1)^b Z)/2 and |b><1-b| = (X + i (-1)^b Y)/2, so
    with x = bra ^ ket and w qubits the product is
    2^-w sum_{z in support} (-1)^|z & bra| i^|z & x| P(x, z).
    The z run in product order, the first qubit slowest; it fixes the
    insertion order of the mapped sums, hence the rounding of dense
    matrices summed from them.
    """
    x = bra ^ ket
    scale = 0.5 ** len(qubits)
    zs = [0]
    for q in qubits:
        zs = [z | b for z in zs for b in (0, q)]
    return {(x, z): _PHASES[(2 * (z & bra).bit_count() + (z & x).bit_count()) % 4] * scale
            for z in zs}


def _mode_terms(
    matrix: np.ndarray, mode: int, encoding: Encoding, layout: QubitLayout
) -> dict[tuple[int, int], complex]:
    """Masks and coefficients of a single-mode matrix, summed over (l, l') row-major."""
    d = encoding.cutoffs.local_dims[mode]
    if matrix.shape != (d, d):
        raise EncodingError(
            f"matrix shape {matrix.shape} does not match mode {mode} dimension {d}"
        )
    words = [_level_word(l, mode, encoding, layout) for l in range(d)]
    mode_qubits = tuple(1 << q for q in layout.mode_range(mode))
    out: dict[tuple[int, int], complex] = {}
    for l in range(d):
        for lp in range(d):
            coeff = complex(matrix[l, lp])
            if abs(coeff) <= COEFF_PRUNE:
                continue
            if encoding.variant == "binary":
                qubits = mode_qubits
            else:  # the codewords' set qubits, bra first
                qubits = (words[l],) if l == lp else (words[l], words[lp])
            for key, c in _transition(words[l], words[lp], qubits).items():
                out[key] = out.get(key, 0.0) + coeff * c
    return {key: c for key, c in out.items() if abs(c) > COEFF_PRUNE}


def map_single_mode(
    matrix: np.ndarray, mode: int, encoding: Encoding, layout: QubitLayout
) -> PauliSum:
    """Pauli sum of a single-mode matrix, identity on the other modes."""
    out = PauliSum(layout.total_qubits)
    terms = _mode_terms(matrix, mode, encoding, layout)
    out.terms = {_render(x, z, out.n_qubits): c for (x, z), c in terms.items()}
    return out


def _products(coefficient, factors) -> tuple[np.ndarray, np.ndarray]:
    """(re, im) of a term's products, first mode slowest, rounded as Python's complex product."""
    re, im = np.ones(1), np.zeros(1)
    for *_, b in factors:
        re, im = ((np.multiply.outer(re, b.real) - np.multiply.outer(im, b.imag)).ravel(),
                  (np.multiply.outer(re, b.imag) + np.multiply.outer(im, b.real)).ravel())
    a = complex(coefficient)
    return a.real * re - a.imag * im, a.real * im + a.imag * re


def map_second_quantized(
    terms,
    encoding: Encoding,
    layout: QubitLayout,
) -> PauliSum:
    """Map a list of SecondQuantizedTerm to one deduplicated Pauli sum.

    Same-mode factors are multiplied as matrices first, and each distinct
    (mode, factor kinds) pair is mapped once per call.  A mode's distinct
    (x, z) masks get local ids, 0 the identity; modes have disjoint supports,
    so a term's products are the outer product of its modes' entries, keyed
    by a mixed-radix id over all modes.  Products above COEFF_PRUNE are summed
    per id by ``np.add.at`` in term order and keep the order of first
    occurrence: the keys, order and bits of adding them into a dict one by one.
    """
    cutoffs = encoding.cutoffs.levels
    for l_max in cutoffs:  # each mode's ladder products are dense matrices
        check_dense_bytes(16 * (l_max + 1) ** 2, f"a {l_max + 1}-level single-mode matrix")
    tables: list[dict[tuple[int, int], int]] = [{(0, 0): 0} for _ in cutoffs]
    mapped: dict[tuple[int, tuple[str, ...]], tuple] = {}
    plan, keep, size = [], [], 0  # plan: (coefficient, factors, span, shape) per term
    for term in terms:
        by_mode: dict[int, tuple[str, ...]] = {}
        for kind, mode in term.factors:
            by_mode[mode] = by_mode.get(mode, ()) + (kind,)
        factors = []
        for mode_kinds in sorted(by_mode.items()):
            if mode_kinds not in mapped:
                mode, kinds = mode_kinds
                ladder = [fock.creation(cutoffs[mode]) if kind == CREATE
                          else fock.annihilation(cutoffs[mode]) for kind in kinds]
                single = _mode_terms(reduce(np.matmul, ladder), mode, encoding, layout)
                ids = [tables[mode].setdefault(key, len(tables[mode])) for key in single]
                mapped[mode_kinds] = (mode, np.array(ids, dtype=np.int64),
                                      np.array(list(single.values()), dtype=complex))
            factors.append(mapped[mode_kinds])
        factors = factors or [(0, np.zeros(1, dtype=np.int64), np.ones(1, dtype=complex))]
        shape = tuple(len(ids) for _, ids, _ in factors)
        plan.append((term.coefficient, factors, slice(size, size + math.prod(shape)), shape))
        keep.append(np.hypot(*_products(term.coefficient, factors)) > COEFF_PRUNE)
        size += math.prod(shape)

    ids = np.zeros(size, dtype=np.int64)
    for mode, table in enumerate(tables):
        if (int(ids.max(initial=0)) + 1) * len(table) > 1 << 62:  # renumber before int64 overflows
            ids = np.unique(ids, return_inverse=True)[1]
        ids *= len(table)
        for _, factors, span, shape in plan:
            for axis, (factor_mode, local, _) in enumerate(factors):
                if factor_mode == mode:
                    trailing = [1] * (len(shape) - 1 - axis)
                    ids[span] += np.broadcast_to(local.reshape(-1, *trailing), shape).ravel()
    ids[~np.concatenate([np.ones(0, dtype=bool), *keep])] = -1  # pruned: one id, dropped below
    unique, first, group = np.unique(ids, return_index=True, return_inverse=True)
    del ids
    sums = np.zeros(len(unique), dtype=complex)
    for coefficient, factors, span, _ in plan:
        re, im = _products(coefficient, factors)
        np.add.at(sums.real, group[span], re)
        np.add.at(sums.imag, group[span], im)
    order = np.argsort(first)
    order = order[(unique[order] >= 0) & (np.abs(sums[order]) > COEFF_PRUNE)]

    # Modes own contiguous qubit ranges, mode 0 leftmost: a key joins its
    # modes' substrings, read off the first product with its id.
    first = first[order]
    local = np.zeros((len(cutoffs), len(order)), dtype=np.int64)
    for _, factors, span, shape in plan:
        lo, hi = np.searchsorted(first, (span.start, span.stop))
        digits = np.unravel_index(first[lo:hi] - span.start, shape)
        for (mode, ids, _), digit in zip(factors, digits):
            local[mode, lo:hi] = ids[digit]
    words = [np.array([_render(x >> s, z >> s, w) for x, z in table], dtype=object)[column]
             for table, s, w, column in zip(tables, layout.mode_starts, layout.mode_widths, local)]
    out = PauliSum(layout.total_qubits)
    out.terms = dict(zip(map("".join, zip(*words)), sums[order].tolist()))
    return out


def pauli_to_matrix(ps: PauliSum) -> np.ndarray:
    """Dense 2^N matrix of the sum (verification back-end, N capped)."""
    n = ps.n_qubits
    check_dense_bytes(16 << (2 * n), f"a dense 2^{n} x 2^{n} Pauli matrix")
    dim = 1 << n
    out = np.zeros((dim, dim), dtype=complex)
    for string, coeff in ps.terms.items():
        # qubit 0 is the least significant bit, so it is the last kron factor
        mats = [PAULI_MATRICES[string[q]] for q in reversed(range(n))]
        out += coeff * reduce(np.kron, mats)
    return out


def apply_pauli_string(string: str, arr: np.ndarray) -> np.ndarray:
    """Apply one Pauli string along axis 0 without building its matrix.

    ``arr`` is a statevector or a matrix whose rows are basis states (qubit 0
    the least significant bit).  The string sends |r ^ x> to phase(r) |r>:
    X and Y flip their qubit (mask x), Z and Y give (-1)^bit, and each Y a
    further -i.  Costs one gather and one multiply over ``arr``.
    """
    x, z = pauli_masks(string)
    rows = np.arange(1 << len(string))
    parity = np.bitwise_count(rows & z) & 1
    phase = (-1j) ** (x & z).bit_count() * (1.0 - 2.0 * parity)
    return phase.reshape((-1,) + (1,) * (arr.ndim - 1)) * arr[rows ^ x]


@dataclass
class ResourceReport:
    """Size observables of a compiled Pauli sum."""

    term_count: int
    weight_histogram: dict[int, int]
    greedy_depth: int


def resource_count(ps: PauliSum) -> ResourceReport:
    """Exact term/weight counts plus a greedy disjoint-support depth estimate.

    The depth is one concrete schedule (first-fit layering of terms whose
    qubit supports do not overlap), an upper-bound realization rather than
    an optimized circuit schedule.  Supports and layers are qubit bitmasks;
    a support resumes its scan at the layer its last copy joined, which is
    exact because layers only gain qubits.
    """
    weights: dict[int, int] = {}
    layers: list[int] = []
    resume: dict[int, int] = {}
    for string, _ in ps.sorted_terms():
        x, z = pauli_masks(string)
        support = x | z
        weight = support.bit_count()
        weights[weight] = weights.get(weight, 0) + 1
        i = resume.get(support, 0)
        while i < len(layers) and layers[i] & support:
            i += 1
        if i == len(layers):
            layers.append(support)
        else:
            layers[i] |= support
        resume[support] = i
    return ResourceReport(
        term_count=len(ps),
        weight_histogram=dict(sorted(weights.items())),
        greedy_depth=len(layers),
    )


# -- text output -------------------------------------------------------


def pauli_sum_to_text(ps: PauliSum, header: dict | None = None) -> str:
    """Stable `re,im,string` listing with `#` header lines."""
    buf = io.StringIO()
    for key, value in (header or {}).items():
        buf.write(f"# {key}={value}\n")
    buf.write("re,im,string\n")
    for string, coeff in ps.sorted_terms():
        buf.write(f"{coeff.real:.16g},{coeff.imag:.16g},{string}\n")
    return buf.getvalue()
