"""Compilation of truncated bosonic operators to qubit Pauli sums.

Two level encodings are supported: ``binary`` packs level l into
ceil(log2(L_max+1)) qubits as the little-endian bits of l; ``unary`` uses
one-hot strings over L_max+1 qubits with a dedicated vacuum qubit.  A matrix
element |l><l'| is one closed-form sum of Pauli products (``_mode_terms``) on
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

import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate

import numpy as np

from . import fock
from .fock import check_dense_bytes
from .hamiltonian import COEFF_PRUNE, CREATE
from .oracle import BLOCK_ROWS, text_blocks
from .problem import ModeCutoffs

PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

_LETTERS = np.frombuffer(b"IXZY", dtype=np.uint8)
_X_BITS = str.maketrans("IXYZ", "0110")
_Z_BITS = str.maketrans("IXYZ", "0011")

#: Most products the mapper forms at a time: a term's products go in chunks
#: of at most this many, in product order.
MAP_CHUNK = 1 << 16

#: Bytes each product of a chunk holds: its coefficients and their
#: temporaries, the prune mask, the ids and the table lookups.  Traced at most
#: 81 bytes on hopping terms in binary and unary (127,127).
MAP_BYTES_PER_CHUNK_PRODUCT = 128

#: Bytes the mapper holds per entry of its id tables: the sorted id, its slot
#: and its key's sum, and the copies made while a term's new keys are merged
#: in.  Traced at most 89 bytes a key, chunk included, where one term brings
#: every key (hopping terms in binary (127,127)).
MAP_BYTES_PER_ID = 96

#: Bytes each rendered term holds beyond two bytes per qubit (its letters in
#: the decoded text and in its string) and eight per mode (its key's digits):
#: the string's header and list slot, the coefficient and the dict entry.
#: Traced at most 2 n_qubits + 124 bytes per term past the keys' arrays on so2
#: binary (63,63)-(127,127), unary (31,31)-(95,95) and (1,511)-(1,1023).
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
    """Weighted sum of distinct Pauli strings over a fixed qubit count, in string order.

    The terms are sorted by string once, here, and never reassigned: string
    order is the order of the text output, the first-fit layering and the
    Trotter product.
    """

    def __init__(self, n_qubits: int, terms: dict[str, complex] | None = None):
        self.n_qubits = n_qubits
        terms = terms or {}
        for string in terms:
            if len(string) != n_qubits:
                raise EncodingError(f"Pauli string length {len(string)} != qubit count {n_qubits}")
        self.terms: dict[str, complex] = {string: terms[string] for string in sorted(terms)}

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


def _rotations(coeffs: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """coeff * i^k * scale for k = 0..3, a row per coefficient, rounded as Python's product."""
    a, b = coeffs.real[:, None], coeffs.imag[:, None]
    cr, ci = scale[:, None] * [1.0, 0.0, -1.0, 0.0], scale[:, None] * [0.0, 1.0, 0.0, -1.0]
    out = np.empty((len(coeffs), 4), dtype=complex)
    out.real, out.imag = a * cr - b * ci, a * ci + b * cr
    return out


def _by_first(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct values in the order they first occur, and the index of each value among them."""
    distinct, first = np.unique(values, return_index=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return distinct[order], rank[np.searchsorted(distinct, values)]


def _mode_terms(
    matrix: np.ndarray, mode: int, encoding: Encoding, layout: QubitLayout
) -> dict[tuple[int, int], complex]:
    """Masks and coefficients of a single-mode matrix, summed over (l, l') row-major.

    Per qubit |b><b| = (I + (-1)^b Z)/2 and |b><1-b| = (X + i (-1)^b Y)/2, so
    |bra><ket| on w qubits, with x = bra ^ ket, is
    2^-w sum_z (-1)^|z & bra| i^|z & x| P(x, z).  In binary z runs over the
    mode's qubits, the first slowest; in unary over the codewords' set
    qubits, bra first, and a key is held by its levels, never by a word that
    could pass 64 bits.  The products are added into their keys by
    ``np.add.at`` with the entries in row-major order, so each key adds in
    the order, and with the bits, of adding the products into a dict one by
    one, and the keys come out in the order of their first product.
    """
    d = encoding.cutoffs.local_dims[mode]
    if matrix.shape != (d, d):
        raise EncodingError(
            f"matrix shape {matrix.shape} does not match mode {mode} dimension {d}"
        )
    start = layout.mode_starts[mode]
    rows, cols = np.nonzero(np.abs(matrix) > COEFF_PRUNE)
    coeffs = matrix[rows, cols].astype(complex)
    if encoding.variant == "binary":
        # an entry's products are the 2^w keys of its x, so the sums are a row per distinct x
        w = layout.mode_widths[mode]
        j = np.arange(1 << w)
        zs = sum(((j >> (w - 1 - q)) & 1) << q for q in range(w))  # the first qubit slowest
        x = rows ^ cols
        xs, row_of = _by_first(x)
        rotations = _rotations(coeffs, np.full(len(coeffs), 0.5**w))
        sums = np.zeros((len(xs), 1 << w), dtype=complex)
        step = max(MAP_CHUNK >> w, 1)  # entries per pass
        for lo in range(0, len(rows), step):
            e = slice(lo, lo + step)
            phase = 2 * np.bitwise_count(zs & rows[e, None]) + np.bitwise_count(zs & x[e, None])
            np.add.at(sums, row_of[e], np.take_along_axis(rotations[e], phase & 3, axis=1))
        x_at, z_at = np.nonzero(np.abs(sums) > COEFF_PRUNE)
        keys = [(a << start, b << start) for a, b in zip(xs[x_at].tolist(), zs[z_at].tolist())]
        return dict(zip(keys, sums[x_at, z_at].tolist()))
    # unary, a column per product: z = 0, l', l, both with x = l ^ l', or z = 0, l on the
    # diagonal (x = 0); the key is ((lo * d + hi) * 4 + z's (lo, hi) bits) * 2 + (x != 0)
    diagonal = rows == cols
    low, high = np.minimum(rows, cols), np.maximum(rows, cols)
    codes = ((low * d + high)[:, None] * 4 + np.where((rows < cols)[:, None], [0, 2, 1, 3],
                                                       [0, 1, 2, 3])) * 2 + 1
    codes[diagonal, 0] = 0  # the identity
    codes[diagonal, 1] -= 1
    phase = np.where(diagonal[:, None], [0, 2, 0, 0], [0, 1, 3, 0])
    rotations = _rotations(coeffs, np.where(diagonal, 0.5, 0.25))
    held = np.ones(codes.shape, dtype=bool)
    held[diagonal, 2:] = False
    codes, key_of = _by_first(codes[held])
    sums = np.zeros(len(codes), dtype=complex)
    np.add.at(sums, key_of, np.take_along_axis(rotations, phase, axis=1)[held])
    kept = np.flatnonzero(np.abs(sums) > COEFF_PRUNE)
    keys = []
    for code in codes[kept].tolist():
        lo, hi = divmod(code >> 3, d)
        x = (1 << start + lo | 1 << start + hi) if code & 1 else 0
        z = (code >> 1 & 1) << start + lo | (code >> 2 & 1) << start + hi
        keys.append((x, z))
    return dict(zip(keys, sums[kept].tolist()))


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
    n_qubits = layout.total_qubits
    terms = _mode_terms(matrix, mode, encoding, layout)
    strings = _pauli_strings(len(terms), n_qubits, [(terms, 0, n_qubits, slice(None))])
    return PauliSum(n_qubits, dict(zip(strings, terms.values())))


def _products(coefficient, factors, heads: int) -> tuple[np.ndarray, np.ndarray]:
    """(re, im) of products, rounded as Python's complex product.

    The first ``heads`` factors hold one gathered entry per head, multiplied
    elementwise; the rest multiply as outer products, the later factors
    fastest, so the products run in the term's product order.
    """
    re, im = np.ones(1), np.zeros(1)
    for i, (*_, b) in enumerate(factors):
        mul = np.multiply if i < heads else np.multiply.outer
        re, im = ((mul(re, b.real) - mul(im, b.imag)).ravel(),
                  (mul(re, b.imag) + mul(im, b.real)).ravel())
    a = complex(coefficient)
    return a.real * re - a.imag * im, a.real * im + a.imag * re


def _chunks(factors):
    """(heads, factors) of each chunk of at most MAP_CHUNK of a term's products, in product order.

    The longest tail of factors whose outer product fits in a chunk stays
    whole; the flat index over the head factors is cut into slices, and each
    head factor gathers its entries along its chunk's slice.
    """
    shape = [len(ids) for _, ids, _ in factors]
    heads = next(k for k in range(1, len(shape) + 1) if math.prod(shape[k:]) <= MAP_CHUNK)
    count, step = math.prod(shape[:heads]), MAP_CHUNK // max(math.prod(shape[heads:]), 1)
    for lo in range(0, count, step):
        digits = np.unravel_index(np.arange(lo, min(lo + step, count)), shape[:heads])
        yield heads, [(mode, ids[d], values[d])
                      for (mode, ids, values), d in zip(factors, digits)] + factors[heads:]


class _IdTable:
    """Sorted int64 ids seen so far, each with its slot: ids are numbered as added."""

    def __init__(self) -> None:
        self.ids = np.zeros(0, dtype=np.int64)
        self.slots = np.zeros(0, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.ids)

    def find(self, ids: np.ndarray) -> np.ndarray:
        """Slot of each id, -1 where it is not in the table."""
        at = np.searchsorted(self.ids, ids)
        hit = at < len(self.ids)
        hit[hit] = self.ids[at[hit]] == ids[hit]
        out = np.full(len(ids), -1, dtype=np.int64)
        out[hit] = self.slots[at[hit]]
        return out

    def add(self, new: np.ndarray) -> None:
        """Give distinct ids not in the table the next slots, in the given order."""
        order = np.argsort(new)
        new = new[order]
        at = np.searchsorted(self.ids, new)
        self.slots = np.insert(self.slots, at, len(self.ids) + order)
        self.ids = np.insert(self.ids, at, new)

    def renumber(self, ids: np.ndarray, grow) -> np.ndarray:
        """Dense slots of ``ids``, adding the new ones; ``grow(n)`` runs before n are added."""
        new = np.unique(ids[self.find(ids) < 0])
        if len(new):
            grow(len(new))
            self.add(new)
        return self.find(ids)

    def by_slot(self) -> np.ndarray:
        out = np.empty_like(self.ids)
        out[self.slots] = self.ids
        return out


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
    by a mixed-radix id over all modes.  Each term's products are formed in
    product order, MAP_CHUNK at a time, and those above COEFF_PRUNE are looked
    up in a running table of the ids of earlier terms: a seen id's product is
    added into its key's sum, and the term's new ids take the next slots
    when the term is done.  A term's ids are distinct, so each sum adds its
    products in term order: the keys and bits of adding them into a dict one
    by one.  Where the partial ids would pass 2^62 at the next mode, they are
    renumbered through a running table of their own.  The id tables are
    freed before ``PauliSum`` sorts the rendered strings.  Bytes are checked
    before each stage: the single-mode matrices with their keys, the id
    tables beside a chunk before they grow (first with the largest term's
    kept products, which are distinct keys), and the rendered sum beside the
    keys' arrays.  The modes' key tables are held throughout.
    """
    _check_layout(encoding, layout)
    cutoffs = encoding.cutoffs.levels
    n_qubits = layout.total_qubits
    tables: list[dict[tuple[int, int], int]] = [{(0, 0): 0} for _ in cutoffs]
    mapped: dict[tuple[int, tuple[str, ...]], tuple] = {}
    key_bytes = 0  # the keys' tables, ids and coefficients, bounded
    plan = []  # (coefficient, factors, product count) per term
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
                check_dense_bytes(48 * d * d + key_bytes,
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
        plan.append((term.coefficient, factors, math.prod(len(ids) for _, ids, _ in factors)))

    radices = [len(table) for table in tables]
    prefixes, bound = {}, 1  # partial ids < bound; renumbered ones are below the product count
    for mode, radix in enumerate(radices):
        if bound * radix > 1 << 62:
            prefixes[mode], bound = _IdTable(), sum(count for *_, count in plan)
        bound *= radix
    keys = _IdTable()
    sums = np.zeros(0, dtype=complex)
    new = []  # (ids, re, im) of the current term's unseen products
    coefficient, factors, count = max(plan, key=lambda entry: entry[2], default=(0, [], 0))
    chunk_bytes = MAP_BYTES_PER_CHUNK_PRODUCT * min(count, MAP_CHUNK)  # no chunk is larger

    def grow(n: int) -> None:
        held = len(keys) + sum(len(table) for table in prefixes.values())
        held += sum(len(ids) for ids, _, _ in new) + n
        check_dense_bytes(key_bytes + MAP_BYTES_PER_ID * held + chunk_bytes,
                          f"a {held}-key Pauli map")

    # the largest term's kept products are distinct keys, which the sum ends up holding
    grow(sum(np.count_nonzero(np.hypot(*_products(coefficient, chunk, heads)) > COEFF_PRUNE)
             for heads, chunk in _chunks(factors)) if factors else 0)
    for coefficient, factors, _ in plan:
        for heads, chunk in _chunks(factors):
            re, im = _products(coefficient, chunk, heads)
            kept = np.hypot(re, im) > COEFF_PRUNE
            # the chunk's ids: axis 0 runs over its heads, then one axis per tail factor
            ids = np.zeros((len(chunk[0][1]), *(len(local) for _, local, _ in chunk[heads:])),
                           dtype=np.int64)
            position = {mode: i for i, (mode, _, _) in enumerate(chunk)}
            for mode, radix in enumerate(radices):
                if mode in prefixes:
                    ids = prefixes[mode].renumber(ids.ravel(), grow).reshape(ids.shape)
                ids *= radix
                if mode in position:
                    i = position[mode]
                    trailing = ids.ndim - 1 - max(i - heads + 1, 0)
                    ids += chunk[i][1].reshape(-1, *[1] * trailing)
            ids, re, im = ids.ravel()[kept], re[kept], im[kept]
            slots = keys.find(ids)
            seen = slots >= 0
            sums.real[slots[seen]] += re[seen]
            sums.imag[slots[seen]] += im[seen]
            if not seen.all():
                grow(len(seen) - np.count_nonzero(seen))
                new.append((ids[~seen], re[~seen], im[~seen]))
        if new:
            ids, re, im = map(np.concatenate, zip(*new))
            new.clear()
            keys.add(ids)
            sums = np.concatenate([sums, np.zeros(len(ids), dtype=complex)])
            sums.real[-len(ids):] += re
            sums.imag[-len(ids):] += im
            del ids, re, im

    kept = np.flatnonzero(np.abs(sums) > COEFF_PRUNE)
    rendered = (2 * n_qubits + 8 * len(cutoffs) + MAP_BYTES_PER_TERM) * len(kept)
    check_dense_bytes(key_bytes + MAP_BYTES_PER_ID * len(keys) + rendered,
                      f"a {len(kept)}-term Pauli sum on {n_qubits} qubits")
    # Modes own contiguous qubit ranges, mode 0 leftmost: a key's letters are
    # its modes' letter rows, read off its id's mixed-radix digits.
    ids = keys.by_slot()[kept]
    local = np.zeros((len(cutoffs), len(kept)), dtype=np.int64)
    for mode in reversed(range(len(cutoffs))):
        ids, local[mode] = np.divmod(ids, radices[mode])
        if mode in prefixes:
            ids = prefixes[mode].by_slot()[ids]
    modes = zip(tables, layout.mode_starts, layout.mode_widths, local)
    terms = dict(zip(_pauli_strings(len(kept), n_qubits, modes), sums[kept].tolist()))
    del keys, prefixes, sums, kept, ids, local  # before the sum's sort adds its list and dict
    return PauliSum(n_qubits, terms)


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

    The depth is one concrete schedule (first-fit layering, in the sum's string
    order, of terms whose qubit supports do not overlap), an upper-bound
    realization rather than an optimized circuit schedule.  Each qubit keeps
    a bitmask of the layers holding it: a term joins the lowest layer clear
    in the OR of its qubits' masks, at O(weight x depth / 64) word operations.
    Supports are read off the strings BLOCK_ROWS at a time.
    """
    n = ps.n_qubits
    strings = list(ps.terms)
    check_dense_bytes(n * len(strings) // 8, f"first-fit layer masks of {len(strings)} terms")
    weights = np.zeros(n + 1, dtype=np.int64)
    masks = [0] * n
    used = 0
    for lo in range(0, len(strings), BLOCK_ROWS):
        text = "".join(strings[lo : lo + BLOCK_ROWS]).encode("ascii")
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


#: Escapes of the characters ``str.splitlines`` breaks a line at, so that a
#: header value (a problem label) stays on its one ``#`` line.
_LINE_BREAKS = str.maketrans({c: ascii(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"})


def pauli_rows(ps: PauliSum, row: str) -> Iterator[str]:
    """``row`` % (re, im, string) of each term, in blocks, from the sum's strings and values."""
    values = np.fromiter(ps.terms.values(), dtype=complex, count=len(ps))
    return text_blocks(row, values.real, values.imag, list(ps.terms))


def pauli_listing(ps: PauliSum, header: dict | None = None) -> Iterator[str]:
    """The `re,im,string` listing with `#` header lines, in blocks to be written as they come."""
    yield "".join(f"# {key}={str(value).translate(_LINE_BREAKS)}\n"
                  for key, value in (header or {}).items()) + "re,im,string\n"
    yield from pauli_rows(ps, "%.16g,%.16g,%s\n")


def pauli_sum_to_text(ps: PauliSum, header: dict | None = None) -> str:
    """Stable `re,im,string` listing with `#` header lines: ``pauli_listing``'s blocks joined."""
    return "".join(pauli_listing(ps, header))
