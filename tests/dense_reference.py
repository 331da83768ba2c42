"""Dense references that tests compare the package against.

The package builds operators only through its ladder-term assembler and
never needs these: the single-mode q and p, a single-mode operator embedded
as identity on the other modes, the analytic QPE outcome distribution, and
the QPE state with every controlled power U^x taken by ``matrix_power``.
It also keeps the dense spectrum post-processing that ``oracle`` replaced:
Gaussian broadening by ``np.convolve`` over every bin, and the L1 distance
that resamples both spectra onto their union grid with ``np.interp``; and
the term mapper that adds every Pauli product into a dict one at a time,
which ``mapping.map_second_quantized`` must reproduce bit for bit.
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np

from vibronic import fock
from vibronic.fock import ManyBodyOperator
from vibronic.hamiltonian import CREATE
from vibronic.mapping import COEFF_PRUNE, Encoding, PauliSum, QubitLayout, _mode_terms, _render
from vibronic.oracle import (
    BinnedSpectrum,
    BroadenedSpectrum,
    eigensolve,
    sigma_from_convention,
)
from vibronic.problem import ModeCutoffs
from vibronic.qpe import PhaseMap


def position(l_max: int) -> np.ndarray:
    """Dimensionless position q = (a + a^dag)/sqrt(2)."""
    a = fock.annihilation(l_max)
    return (a + a.conj().T) / math.sqrt(2)


def momentum(l_max: int) -> np.ndarray:
    """Dimensionless momentum p = (a - a^dag)/(i sqrt(2)); purely imaginary entries."""
    a = fock.annihilation(l_max)
    return (a - a.conj().T) / (1j * math.sqrt(2))


def embed(op: np.ndarray, mode: int, space: ModeCutoffs) -> np.ndarray:
    """Dense matrix of a single-mode operator, identity on every other mode."""
    left = int(np.prod(space.local_dims[:mode], initial=1))
    right = int(np.prod(space.local_dims[mode + 1 :], initial=1))
    return np.kron(np.kron(np.eye(left), op), np.eye(right)).astype(complex)


def qpe_kernel_sq(delta: np.ndarray, t: int) -> np.ndarray:
    """Squared magnitude of the t-bit QPE kernel at phase offset delta.

    |K_t(d)|^2 = sin^2(pi 2^t d) / (4^t sin^2(pi d)), with the removable
    singularity at integer d equal to 1.
    """
    n = 2**t
    delta = np.asarray(delta, dtype=float)
    num = np.sin(np.pi * n * delta)
    den = np.sin(np.pi * delta)
    out = np.empty_like(delta)
    tiny = np.abs(den) < 1e-12
    out[~tiny] = (num[~tiny] / den[~tiny]) ** 2 / n**2
    out[tiny] = 1.0
    return out


def outcome_distribution(
    h: ManyBodyOperator,
    phase_map: PhaseMap,
    initial_state: np.ndarray | None = None,
) -> np.ndarray:
    """Analytic QPE outcome probabilities P(j) for sample-free testing."""
    evals, evecs = eigensolve(h)
    if initial_state is None:
        weights = np.abs(evecs[0, :]) ** 2
    else:
        weights = np.abs(evecs.conj().T @ initial_state) ** 2
    n = 2**phase_map.t
    phases = phase_map.phase(evals)
    j = np.arange(n)
    probs = np.zeros(n)
    chunk = max(1, int(2e7) // n)
    for base in range(0, len(phases), chunk):
        sub = phases[base : base + chunk]
        delta = sub[:, None] - j[None, :] / n
        probs += weights[base : base + chunk] @ qpe_kernel_sq(delta, phase_map.t)
    return probs


def controlled_power_state(
    u: np.ndarray, columns: np.ndarray, rows: np.ndarray, t: int
) -> tuple[np.ndarray, np.ndarray]:
    """(amplitudes, joint probabilities) of the QPE sampler, one matrix power per x.

    E-register value x holds U^x psi_r / sqrt(2^t) for every initial row
    psi_r (Fock state k in column ``columns[k]`` of U); the same inverse FFT
    over x and sum over the system axis as ``qpe._controlled_power_sweep``
    then give the (j, row, system) amplitudes and the j-major (j, row) law.
    """
    e_dim = 2**t
    psi = np.zeros((len(rows), len(u)), dtype=complex)
    psi[:, columns] = rows
    state = np.stack([psi @ np.linalg.matrix_power(u, x).T for x in range(e_dim)])
    amps = np.fft.ifft(state / math.sqrt(e_dim), axis=0) * math.sqrt(e_dim)
    return amps, (np.abs(amps) ** 2).sum(axis=2).reshape(-1)


def broaden_dense(
    binned: BinnedSpectrum,
    sigma: float,
    convention: str = "stdev",
) -> BroadenedSpectrum:
    """Convolve the histogram with a unit-area Gaussian sampled on the grid."""
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    sig = sigma_from_convention(sigma, convention)
    width = binned.width
    half = int(math.ceil(6.0 * sig / width))
    x = np.arange(-half, half + 1) * width
    kernel = np.exp(-(x**2) / (2.0 * sig**2)) / (sig * math.sqrt(2.0 * math.pi))
    values = np.convolve(binned.values, kernel, mode="full")
    start_bin = binned.first_bin - half
    meta = dict(binned.metadata)
    meta.update({"sigma": sigma, "sigma_convention": convention})
    return BroadenedSpectrum(
        grid_start=(start_bin + 0.5) * width,
        grid_step=width,
        values=values,
        metadata=meta,
    )


def _resample(spec: BroadenedSpectrum, grid: np.ndarray) -> np.ndarray:
    return np.interp(grid, spec.grid, spec.values, left=0.0, right=0.0)


def l1_distance_interp(a: BroadenedSpectrum, b: BroadenedSpectrum) -> float:
    """Integral of |a - b| with both resampled onto the union grid at the finer step."""
    step = min(a.grid_step, b.grid_step)
    lo = min(a.grid_start, b.grid_start)
    hi = max(a.grid[-1], b.grid[-1])
    n = int(round((hi - lo) / step)) + 1
    grid = lo + step * np.arange(n)
    return float(np.abs(_resample(a, grid) - _resample(b, grid)).sum() * step)


def map_second_quantized_dicts(terms, encoding: Encoding, layout: QubitLayout) -> PauliSum:
    """Map a list of SecondQuantizedTerm to one deduplicated Pauli sum.

    Same-mode factors are multiplied as matrices first, and each distinct
    (mode, factor kinds) pair is mapped once per call.  Distinct modes have
    disjoint supports, so their product terms OR the masks and multiply the
    coefficients.
    """
    cutoffs = encoding.cutoffs.levels
    mapped: dict[tuple[int, tuple[str, ...]], dict[tuple[int, int], complex]] = {}
    total: dict[tuple[int, int], complex] = {}
    for term in terms:
        by_mode: dict[int, tuple[str, ...]] = {}
        for kind, mode in term.factors:
            by_mode[mode] = by_mode.get(mode, ()) + (kind,)
        product = {(0, 0): 1.0}
        for mode_kinds in sorted(by_mode.items()):
            if mode_kinds not in mapped:
                mode, kinds = mode_kinds
                ladder = [fock.creation(cutoffs[mode]) if kind == CREATE
                          else fock.annihilation(cutoffs[mode]) for kind in kinds]
                mapped[mode_kinds] = _mode_terms(reduce(np.matmul, ladder), mode, encoding, layout)
            single = mapped[mode_kinds]
            product = {
                (xa | xb, za | zb): ca * cb
                for (xa, za), ca in product.items()
                for (xb, zb), cb in single.items()
            }
        for key, c in product.items():
            c = term.coefficient * c
            if abs(c) > COEFF_PRUNE:
                total[key] = total.get(key, 0.0) + c
    out = PauliSum(layout.total_qubits)
    out.terms = {_render(x, z, out.n_qubits): c for (x, z), c in total.items() if abs(c) > COEFF_PRUNE}
    return out
