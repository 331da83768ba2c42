"""Compilation of truncated bosonic operators to qubit Pauli sums.

Two level encodings are supported: ``binary`` packs level l into
ceil(log2(L_max+1)) qubits as the little-endian bits of l; ``unary`` uses
one-hot strings over L_max+1 qubits with a dedicated vacuum qubit.  Matrix
elements |l><l'| become Pauli products via the standard single-qubit
identities; unary additionally uses the sparse one-qubit (diagonal) and
two-qubit (level-pair) forms, which keep the one-hot code sector invariant.

Conventions fixed here and relied on elsewhere: global basis index x has
qubit p as bit (x >> p) & 1 (qubit 0 least significant); Pauli strings are
rendered with qubit 0 leftmost; level bitstrings are rendered with qubit 0
rightmost (so binary level 3 on 3 qubits reads "011").
"""

from __future__ import annotations

import io
import itertools
import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .problem import ModeCutoffs

PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

#: Terms with |coefficient| below this are dropped when pruning.
COEFF_PRUNE = 1e-14

#: Total qubits (system + energy + initial-state registers) the emulator accepts.
DEFAULT_QUBIT_BUDGET = 26

#: Largest dense complex array any step may allocate: one statevector that
#: fills the default qubit budget, 16 * 2^26 B = 1 GiB.
MAX_DENSE_BYTES = 16 * 2**DEFAULT_QUBIT_BUDGET

# |b><b'| decompositions on one qubit: (letter, coefficient) pairs.
_LEVEL_PAIR_FACTORS = {
    (0, 0): (("I", 0.5), ("Z", 0.5)),
    (1, 1): (("I", 0.5), ("Z", -0.5)),
    (0, 1): (("X", 0.5), ("Y", 0.5j)),
    (1, 0): (("X", 0.5), ("Y", -0.5j)),
}


class EncodingError(ValueError):
    """Raised for out-of-range levels or mismatched layouts."""


class QubitBudgetError(EncodingError):
    """Raised when a run would exceed the qubit budget or the dense-array byte cap."""


def check_dense_bytes(n_bytes: int, what: str) -> None:
    """Raise QubitBudgetError, before allocating, if ``what`` needs over MAX_DENSE_BYTES."""
    if n_bytes > MAX_DENSE_BYTES:
        raise QubitBudgetError(
            f"{what} would take {n_bytes / 2**30:.4g} GiB > {MAX_DENSE_BYTES / 2**30:g} GiB cap"
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
        starts = []
        widths = []
        cursor = 0
        for mode in range(len(encoding.cutoffs)):
            width = encoding.qubits_for_mode(mode)
            starts.append(cursor)
            widths.append(width)
            cursor += width
        return cls(tuple(starts), tuple(widths))

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

    def merge(self, other: "PauliSum", factor: complex = 1.0) -> None:
        if other.n_qubits != self.n_qubits:
            raise EncodingError("cannot merge Pauli sums over different qubit counts")
        for string, coeff in other.terms.items():
            self.add_term(string, factor * coeff)

    def pruned(self, tol: float = COEFF_PRUNE) -> "PauliSum":
        out = PauliSum(self.n_qubits)
        out.terms = {s: c for s, c in self.terms.items() if abs(c) > tol}
        return out

    def scaled(self, factor: complex) -> "PauliSum":
        out = PauliSum(self.n_qubits)
        out.terms = {s: factor * c for s, c in self.terms.items()}
        return out

    def sorted_terms(self) -> list[tuple[str, complex]]:
        """Terms in stable string order (the interchange and Trotter order)."""
        return sorted(self.terms.items(), key=lambda item: item[0])

    def __len__(self) -> int:
        return len(self.terms)

    def max_imag_coeff(self) -> float:
        return max((abs(c.imag) for c in self.terms.values()), default=0.0)


def _identity_string(n: int) -> str:
    return "I" * n


def _with_letters(base: str, placements: dict[int, str]) -> str:
    chars = list(base)
    for pos, letter in placements.items():
        chars[pos] = letter
    return "".join(chars)


def encode_level(l: int, mode: int, encoding: Encoding) -> np.ndarray:
    """Bit pattern of level l on the mode's qubits, index p = qubit p."""
    l_max = encoding.cutoffs.levels[mode]
    if not 0 <= l <= l_max:
        raise EncodingError(f"level {l} out of range [0, {l_max}] for mode {mode}")
    width = encoding.qubits_for_mode(mode)
    bits = np.zeros(width, dtype=int)
    if encoding.variant == "binary":
        for p in range(width):
            bits[p] = (l >> p) & 1
    else:
        bits[l] = 1
    return bits


def bits_to_string(bits: np.ndarray) -> str:
    """Render bits as text with qubit 0 rightmost (so binary 3 reads '011')."""
    return "".join(str(int(b)) for b in bits[::-1])


def _level_word(l: int, mode: int, encoding: Encoding, layout: QubitLayout) -> int:
    """Basis-index bits of level l on its mode's qubits."""
    bits = encode_level(l, mode, encoding)
    return sum(1 << (layout.mode_starts[mode] + p) for p, b in enumerate(bits) if b)


def codeword_index(levels: tuple[int, ...], encoding: Encoding, layout: QubitLayout) -> int:
    """Global basis-state index of an encoded multi-mode level tuple."""
    return sum(_level_word(l, mode, encoding, layout) for mode, l in enumerate(levels))


def codespace_indices(encoding: Encoding, layout: QubitLayout) -> np.ndarray:
    """Basis indices of all encoded Fock states, in flat Fock-index order."""
    index = np.zeros(1, dtype=np.int64)
    for mode, d in enumerate(encoding.cutoffs.local_dims):
        words = np.array([_level_word(l, mode, encoding, layout) for l in range(d)], dtype=np.int64)
        index = (index[:, None] | words[None, :]).ravel()  # mode 0 slowest
    return index


def levelpair_to_pauli(
    l: int, l_prime: int, mode: int, encoding: Encoding, layout: QubitLayout
) -> PauliSum:
    """Pauli expansion of |l><l'| on one mode, identity elsewhere."""
    n = layout.total_qubits
    start = layout.mode_starts[mode]
    base = _identity_string(n)
    out = PauliSum(n)

    if encoding.variant == "binary":
        bits = encode_level(l, mode, encoding)
        bits_p = encode_level(l_prime, mode, encoding)
        factor_lists = [
            _LEVEL_PAIR_FACTORS[(int(b), int(bp))] for b, bp in zip(bits, bits_p)
        ]
        for combo in itertools.product(*factor_lists):
            coeff = 1.0 + 0.0j
            placements = {}
            for p, (letter, c) in enumerate(combo):
                coeff *= c
                if letter != "I":
                    placements[start + p] = letter
            out.add_term(_with_letters(base, placements), coeff)
        return out

    # Unary: one-qubit diagonal and two-qubit transfer forms.  Both leave the
    # one-hot code sector invariant (they conserve the number of set bits),
    # which is what the emulator relies on.
    encode_level(l, mode, encoding)
    encode_level(l_prime, mode, encoding)
    if l == l_prime:
        out.add_term(base, 0.5)
        out.add_term(_with_letters(base, {start + l: "Z"}), -0.5)
        return out
    raise_q = start + l
    lower_q = start + l_prime
    for letter_r, coeff_r in (("X", 0.5), ("Y", -0.5j)):
        for letter_l, coeff_l in (("X", 0.5), ("Y", 0.5j)):
            out.add_term(
                _with_letters(base, {raise_q: letter_r, lower_q: letter_l}),
                coeff_r * coeff_l,
            )
    return out


def map_single_mode(
    matrix: np.ndarray, mode: int, encoding: Encoding, layout: QubitLayout
) -> PauliSum:
    """Linear extension of levelpair_to_pauli over all matrix elements."""
    d = encoding.cutoffs.local_dims[mode]
    if matrix.shape != (d, d):
        raise EncodingError(
            f"matrix shape {matrix.shape} does not match mode {mode} dimension {d}"
        )
    out = PauliSum(layout.total_qubits)
    for l in range(d):
        for lp in range(d):
            coeff = complex(matrix[l, lp])
            if abs(coeff) <= COEFF_PRUNE:
                continue
            out.merge(levelpair_to_pauli(l, lp, mode, encoding, layout), coeff)
    return out.pruned()


def _tensor_terms(a: PauliSum, b: PauliSum) -> PauliSum:
    """Product of two sums with disjoint supports (letterwise merge)."""
    out = PauliSum(a.n_qubits)
    for sa, ca in a.terms.items():
        for sb, cb in b.terms.items():
            merged = []
            for la, lb in zip(sa, sb):
                if la != "I" and lb != "I":
                    raise EncodingError("tensor composition requires disjoint supports")
                merged.append(la if la != "I" else lb)
            out.add_term("".join(merged), ca * cb)
    return out


def map_term_factors(
    factors: list[tuple[np.ndarray, int]],
    coefficient: complex,
    encoding: Encoding,
    layout: QubitLayout,
) -> PauliSum:
    """Map a product of single-mode matrices (matrix, mode) to qubit space.

    Same-mode factors are multiplied as matrices first; distinct modes are
    tensor-composed, which is exact because their supports are disjoint.
    """
    by_mode: dict[int, np.ndarray] = {}
    for matrix, mode in factors:
        by_mode[mode] = matrix if mode not in by_mode else by_mode[mode] @ matrix
    result = PauliSum(layout.total_qubits, {_identity_string(layout.total_qubits): 1.0})
    for mode in sorted(by_mode):
        result = _tensor_terms(result, map_single_mode(by_mode[mode], mode, encoding, layout))
    return result.scaled(coefficient).pruned()


def map_second_quantized(
    terms,
    encoding: Encoding,
    layout: QubitLayout,
) -> PauliSum:
    """Map a list of SecondQuantizedTerm to one deduplicated Pauli sum."""
    from . import fock
    from .hamiltonian import CREATE

    out = PauliSum(layout.total_qubits)
    cutoffs = encoding.cutoffs.levels
    for term in terms:
        factors = [
            (
                fock.creation(cutoffs[mode]) if kind == CREATE else fock.annihilation(cutoffs[mode]),
                mode,
            )
            for kind, mode in term.factors
        ]
        out.merge(map_term_factors(factors, term.coefficient, encoding, layout))
    return out.pruned()


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
    rows = np.arange(1 << len(string))
    x_mask = 0
    parity = np.zeros_like(rows)
    for q, letter in enumerate(string):
        if letter in "XY":
            x_mask |= 1 << q
        if letter in "YZ":
            parity ^= (rows >> q) & 1
    phase = (-1j) ** string.count("Y") * (1.0 - 2.0 * parity)
    return phase.reshape((-1,) + (1,) * (arr.ndim - 1)) * arr[rows ^ x_mask]


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
    to_bits = str.maketrans("IXYZ", "0111")
    for string, _ in ps.sorted_terms():
        support = int(string[::-1].translate(to_bits), 2)
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


# -- text interchange format ------------------------------------------


def pauli_sum_to_text(ps: PauliSum, header: dict | None = None) -> str:
    """Stable `re,im,string` listing with `#` header lines."""
    buf = io.StringIO()
    for key, value in (header or {}).items():
        buf.write(f"# {key}={value}\n")
    buf.write("re,im,string\n")
    for string, coeff in ps.sorted_terms():
        buf.write(f"{coeff.real:.16g},{coeff.imag:.16g},{string}\n")
    return buf.getvalue()


def pauli_sum_from_text(text: str) -> PauliSum:
    terms: dict[str, complex] = {}
    n_qubits = None
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#") or line.startswith("re,"):
            continue
        re_part, im_part, string = line.split(",")
        if n_qubits is None:
            n_qubits = len(string)
        terms[string] = complex(float(re_part), float(im_part))
    if n_qubits is None:
        raise EncodingError("no Pauli terms found in text")
    return PauliSum(n_qubits, terms)
