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
from .fock import check_dense_bytes
from .hamiltonian import COEFF_PRUNE, CREATE
from .problem import ModeCutoffs

PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

# i^k for k = 0..3
_PHASES = (1 + 0j, 1j, -1 + 0j, -1j)
_LETTERS = np.frombuffer(b"IXZY", dtype=np.uint8)
_X_BITS = str.maketrans("IXYZ", "0110")
_Z_BITS = str.maketrans("IXYZ", "0011")

#: Bytes the mapper holds per product of its terms' mode entries: the ids, the
#: keep masks, np.unique's sort and outputs, and one term's products.  Traced
#: 51.2-52.0 bytes per product on so2 binary (63,63)-(127,127) and unary
#: (31,31)-(95,95), and 57.7-59.3 on the hopping list a_0^dag a_1 + a_0 a_1^dag
#: in unary (31,31)-(95,95) and binary (63,63), whose products are nearly all
#: distinct keys.
MAP_BYTES_PER_PRODUCT = 60

#: Bytes each rendered term holds beyond two bytes per qubit (its letters in
#: the decoded text and in its string): the string's header and list slot, the
#: coefficient and the dict entry.  Traced at most 2 n_qubits + 124 bytes per
#: term past the keys' arrays on the same maps and so2 unary (1,511)-(1,1023).
MAP_BYTES_PER_TERM = 136

#: Bytes the mapper holds per bounded (x, z) key of its modes beside the key's
#: two mask integers (up to n_qubits / 3.75 bytes, counted as n_qubits // 3):
#: the key tuple, the table entry, the id and the coefficient.  Traced at most
#: 117 bytes past the integers per key on one-mode binary and unary
#: (63)-(511) and so2 (1,255) maps.
MAP_BYTES_PER_KEY = 120


class EncodingError(ValueError):
    """Raised for an unknown encoding variant or mismatched shapes and layouts."""


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


def _check_layout(encoding: Encoding, layout: QubitLayout) -> None:
    if layout != (own := QubitLayout.for_encoding(encoding)):
        raise EncodingError(f"layout {layout} is not the {encoding.variant} encoding's {own}")


def _level_word(l: int, mode: int, encoding: Encoding, layout: QubitLayout) -> int:
    """Basis-index bits of level l on its mode's qubits."""
    start = layout.mode_starts[mode]
    return l << start if encoding.variant == "binary" else 1 << (start + l)


def codespace_indices(encoding: Encoding, layout: QubitLayout) -> np.ndarray:
    """Basis indices of all encoded Fock states, in flat Fock-index order."""
    _check_layout(encoding, layout)
    index = np.zeros(1, dtype=np.int64)
    for mode, d in enumerate(encoding.cutoffs.local_dims):
        words = np.array([_level_word(l, mode, encoding, layout) for l in range(d)], dtype=np.int64)
        index = (index[:, None] | words[None, :]).ravel()  # mode 0 slowest
    return index


def pauli_masks(string: str) -> tuple[int, int]:
    """(x, z) masks of a Pauli string: X and Y set x, Z and Y set z (bit q = qubit q)."""
    reverse = string[::-1]
    return int(reverse.translate(_X_BITS), 2), int(reverse.translate(_Z_BITS), 2)


def _letters(keys, start: int, width: int) -> np.ndarray:
    """Pauli letters "IXZY"[x | z << 1] of (x, z) masks on qubits start .. start + width - 1.

    One row per key, qubit ``start`` first: each shifted mask's little-endian
    bytes unpack to one bit per qubit, so masks of any width take one numpy pass.
    """
    n_bytes = (width + 7) // 8

    def bits(masks) -> np.ndarray:
        raw = b"".join((m >> start).to_bytes(n_bytes, "little") for m in masks)
        rows = np.frombuffer(raw, dtype=np.uint8).reshape(-1, n_bytes)
        return np.unpackbits(rows, axis=1, count=width, bitorder="little")

    letters = bits(z for _, z in keys) << 1
    letters |= bits(x for x, _ in keys)
    return _LETTERS[letters]


def _pauli_strings(n_terms: int, n_qubits: int, modes) -> list[str]:
    """Strings of n_terms terms, qubit 0 leftmost, from each mode's letter rows.

    ``modes`` gives each mode's (keys, first qubit, width, key row of each
    term).  The rows fill one n_terms x n_qubits letter matrix, which is
    decoded as one text and freed before the strings are sliced out of it.
    """
    text = np.empty((n_terms, n_qubits), dtype=np.uint8)
    for keys, start, width, column in modes:
        text[:, start : start + width] = _letters(keys, start, width)[column]
    blob = str(text, "ascii")
    del text
    return [blob[i : i + n_qubits] for i in range(0, len(blob), n_qubits)]


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
    rows, cols = np.nonzero(np.abs(matrix) > COEFF_PRUNE)
    for l, lp in zip(rows.tolist(), cols.tolist()):
        coeff = complex(matrix[l, lp])
        if encoding.variant == "binary":
            qubits = mode_qubits
        else:  # the codewords' set qubits, bra first
            qubits = (words[l],) if l == lp else (words[l], words[lp])
        for key, c in _transition(words[l], words[lp], qubits).items():
            out[key] = out.get(key, 0.0) + coeff * c
    return {key: c for key, c in out.items() if abs(c) > COEFF_PRUNE}


def _key_bound(kinds: tuple[str, ...], d: int, encoding: Encoding, width: int) -> int:
    """Most (x, z) keys ``_mode_terms`` can give a product of d-level ladder ``kinds``.

    Its entries lie at (l, l - s), s the creations less the annihilations.  In
    binary each x = l ^ (l - s) takes all 2^width z; in unary an entry gives at
    most four keys.
    """
    s = sum(1 if kind == CREATE else -1 for kind in kinds)
    rows = range(max(s, 0), d + min(s, 0))
    if encoding.variant == "binary":
        return len({l ^ (l - s) for l in rows}) << width
    return 4 * len(rows)


def map_single_mode(
    matrix: np.ndarray, mode: int, encoding: Encoding, layout: QubitLayout
) -> PauliSum:
    """Pauli sum of a single-mode matrix, identity on the other modes."""
    _check_layout(encoding, layout)
    out = PauliSum(layout.total_qubits)
    terms = _mode_terms(matrix, mode, encoding, layout)
    strings = _pauli_strings(len(terms), out.n_qubits, [(terms, 0, out.n_qubits, slice(None))])
    out.terms = dict(zip(strings, terms.values()))
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
    Bytes are checked before each stage: the single-mode matrices with their
    keys, term by term before each term's products are formed, and the rendered
    sum beside the keys' arrays.  The modes' key tables are held throughout.
    """
    _check_layout(encoding, layout)
    cutoffs = encoding.cutoffs.levels
    n_qubits = layout.total_qubits
    tables: list[dict[tuple[int, int], int]] = [{(0, 0): 0} for _ in cutoffs]
    mapped: dict[tuple[int, tuple[str, ...]], tuple] = {}
    key_bytes = 0  # the keys' tables, ids and coefficients, bounded
    plan, keep, size = [], [], 0  # plan: (coefficient, factors, span, shape) per term
    for term in terms:
        by_mode: dict[int, tuple[str, ...]] = {}
        for kind, mode in term.factors:
            by_mode[mode] = by_mode.get(mode, ()) + (kind,)
        factors = []
        for mode_kinds in sorted(by_mode.items()):
            if mode_kinds not in mapped:
                mode, kinds = mode_kinds
                d = cutoffs[mode] + 1
                n_keys = _key_bound(kinds, d, encoding, layout.mode_widths[mode])
                key_bytes += (MAP_BYTES_PER_KEY + n_qubits // 3) * n_keys
                # the ladder product holds three dense matrices at a time
                check_dense_bytes(48 * d * d + key_bytes + MAP_BYTES_PER_PRODUCT * size,
                                  f"a {d}-level single-mode matrix product and {n_keys} keys")
                ladder = (fock.creation(cutoffs[mode]) if kind == CREATE
                          else fock.annihilation(cutoffs[mode]) for kind in kinds)
                matrix = reduce(np.matmul, ladder)
                single = _mode_terms(matrix, mode, encoding, layout)
                ids = [tables[mode].setdefault(key, len(tables[mode])) for key in single]
                mapped[mode_kinds] = (mode, np.array(ids, dtype=np.int64),
                                      np.array(list(single.values()), dtype=complex))
                del matrix, single, ids
            factors.append(mapped[mode_kinds])
        factors = factors or [(0, np.zeros(1, dtype=np.int64), np.ones(1, dtype=complex))]
        shape = tuple(len(ids) for _, ids, _ in factors)
        count = size + math.prod(shape)
        check_dense_bytes(key_bytes + MAP_BYTES_PER_PRODUCT * count, f"a {count}-product Pauli map")
        plan.append((term.coefficient, factors, slice(size, count), shape))
        keep.append(np.hypot(*_products(term.coefficient, factors)) > COEFF_PRUNE)
        size = count

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
    del keep
    unique, first, group = np.unique(ids, return_index=True, return_inverse=True)
    del ids
    sums = np.zeros(len(unique), dtype=complex)
    for coefficient, factors, span, _ in plan:
        re, im = _products(coefficient, factors)
        np.add.at(sums.real, group[span], re)
        np.add.at(sums.imag, group[span], im)
        del re, im  # no product array outlives the sums
    del group
    order = np.argsort(first)
    order = order[(unique[order] >= 0) & (np.abs(sums[order]) > COEFF_PRUNE)]
    # unique, first, sums and order: at most 40 bytes a key
    rendered = (2 * n_qubits + MAP_BYTES_PER_TERM) * len(order)
    check_dense_bytes(key_bytes + 40 * len(unique) + rendered,
                      f"a {len(order)}-term Pauli sum on {n_qubits} qubits")

    # Modes own contiguous qubit ranges, mode 0 leftmost: a key's letters are
    # its modes' letter rows, read off the first product with its id.
    first = first[order]
    local = np.zeros((len(cutoffs), len(order)), dtype=np.int64)
    for _, factors, span, shape in plan:
        lo, hi = np.searchsorted(first, (span.start, span.stop))
        digits = np.unravel_index(first[lo:hi] - span.start, shape)
        for (mode, ids, _), digit in zip(factors, digits):
            local[mode, lo:hi] = ids[digit]
    modes = zip(tables, layout.mode_starts, layout.mode_widths, local)
    out = PauliSum(n_qubits)
    out.terms = dict(zip(_pauli_strings(len(order), n_qubits, modes), sums[order].tolist()))
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


def apply_pauli_string(
    string: str, arr: np.ndarray, out: np.ndarray | None = None, basis: np.ndarray | None = None
) -> np.ndarray:
    """Apply one Pauli string along axis 0 without building its matrix.

    ``arr`` is a statevector or a matrix whose rows are the sorted basis
    indices ``basis`` (default: the whole register; qubit 0 the least
    significant bit), which the string's x mask must map onto themselves.
    The string sends |r ^ x> to phase(r) |r>: X and Y flip their qubit (mask
    x), Z and Y give (-1)^bit, and each Y a further -i.  Costs one gather and
    one multiply over ``arr``, both into ``out`` when it is given (a complex
    array of ``arr``'s shape, not ``arr``).
    """
    x, z = pauli_masks(string)
    rows = np.arange(1 << len(string)) if basis is None else basis
    parity = np.bitwise_count(rows & z) & 1
    phase = (-1j) ** (x & z).bit_count() * (1.0 - 2.0 * parity)
    # the indices are in range; "clip" writes straight into out, where "raise" buffers
    gathered = np.take(arr, np.searchsorted(rows, rows ^ x), axis=0, out=out, mode="clip")
    return np.multiply(phase.reshape((-1,) + (1,) * (arr.ndim - 1)), gathered, out=gathered)


def invariant_sector(ps: PauliSum, starts: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """(coset representatives, GF(2) generators) of the states the sum's terms reach from ``starts``.

    A term sends |r> to |r ^ x>, so every coset b ^ span{x masks} is invariant
    under exp(-i theta P): the Z2 symmetries that qubit tapering removes
    (Bravyi, Gambetta, Mezzacapo & Temme, arXiv:1701.08213).  Gaussian
    elimination keeps generators with distinct leading bits, in descending
    order; reducing by them, r -> min(r, r ^ g) in turn, maps a state to the
    least state of its coset.  The sector holds len(reps) << len(generators)
    states, so its size is known before ``sector_states`` enumerates it.
    """
    generators: list[int] = []
    for string in ps.terms:
        x = reduce(lambda r, g: min(r, r ^ g), generators, pauli_masks(string)[0])
        if x:
            generators = sorted([*generators, x], reverse=True)
    reps = np.array(starts, dtype=np.int64)
    for g in generators:
        np.minimum(reps, reps ^ g, out=reps)
    return np.unique(reps), generators


def sector_states(reps: np.ndarray, generators: list[int]) -> np.ndarray:
    """Sorted basis indices of the cosets reps ^ span(generators)."""
    span = np.zeros(1, dtype=np.int64)
    for g in generators:
        span = np.concatenate([span, span ^ g])
    return np.sort(np.bitwise_xor.outer(reps, span).ravel())


@dataclass
class ResourceReport:
    """Size observables of a compiled Pauli sum; its term count is ``len`` of the sum."""

    weight_histogram: dict[int, int]
    greedy_depth: int


def resource_count(ps: PauliSum) -> ResourceReport:
    """Exact term/weight counts plus a greedy disjoint-support depth estimate.

    The depth is one concrete schedule (first-fit layering, in sorted string
    order, of terms whose qubit supports do not overlap), an upper-bound
    realization rather than an optimized circuit schedule.  Each qubit keeps
    a bitmask of the layers holding it: a term joins the lowest layer clear
    in the OR of its qubits' masks, at O(weight x depth / 64) word operations.
    Supports are read off the strings in blocks of 4,096.
    """
    n = ps.n_qubits
    strings = sorted(ps.terms)
    check_dense_bytes(n * len(strings) // 8, f"first-fit layer masks of {len(strings)} terms")
    weights = np.zeros(n + 1, dtype=np.int64)
    masks = [0] * n
    used = 0
    for lo in range(0, len(strings), 4096):
        text = "".join(strings[lo : lo + 4096]).encode("ascii")
        support = np.frombuffer(text, dtype=np.uint8).reshape(-1, n) != ord("I")
        sizes = support.sum(axis=1)
        weights += np.bincount(sizes, minlength=n + 1)
        qubits = np.nonzero(support)[1].tolist()
        ends = np.cumsum(sizes).tolist()
        for start, end in zip([0, *ends], ends):
            blocked = 0
            for q in qubits[start:end]:
                blocked |= masks[q]
            layer = ~blocked & (blocked + 1)
            for q in qubits[start:end]:
                masks[q] |= layer
            used |= layer
    return ResourceReport({w: c for w, c in enumerate(weights.tolist()) if c}, used.bit_length())


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
