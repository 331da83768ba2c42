"""Dense references that tests compare the package against.

The package builds operators only through its ladder-term assembler and
never needs these: the single-mode q and p, a single-mode operator embedded
as identity on the other modes, the analytic QPE outcome distribution, and
the QPE state with every controlled power U^x taken by ``matrix_power``,
and the Trotter step on the whole 2^n register, where ``qpe`` builds it on
the initial states' invariant sector only.
It also keeps the dense spectrum post-processing that ``oracle`` replaced:
the histogram as a row of every bin, filled by ``np.add.at`` one stick at a
time; Gaussian broadening by ``np.convolve`` over every bin; the cumulative
FCF by level with b^dag b densified and contracted by ``np.einsum``; and the
L1 distance
that resamples both spectra onto their union grid with ``np.interp``; and
the term mapper that adds every Pauli product into a dict one at a time and
renders each key one qubit at a time, which ``mapping.map_second_quantized``
must reproduce bit for bit, with its single-mode stage as one ``transition``
per matrix entry, whose keys, key order and bits ``mapping._mode_terms``
must reproduce; the cutoff sweep that holds every cutoff's
broadened grid until its L1-vs-largest curve, which ``oracle.converge_sweep``
must reproduce exactly from each cutoff's occupied bins; and the
thermofield double built as a D x D (initial, system) matrix from each mode's
d^2 x d^2 two-mode generator, which ``qpe.prepare_thermal`` reduces to its
diagonal.
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np
import scipy.linalg

from vibronic import fock
from vibronic.fock import ManyBodyOperator
from vibronic.hamiltonian import CREATE, build_b_dagger, build_hamiltonian
from vibronic.mapping import (
    COEFF_PRUNE,
    Encoding,
    PauliSum,
    QubitLayout,
    pauli_masks,
)
from vibronic.oracle import (
    BinnedSpectrum,
    BroadenedSpectrum,
    StickSpectrum,
    SweepResult,
    bin_offsets,
    eigensolve,
    l1_distance,
    spectrum_pipeline,
)
from vibronic.problem import ModeCutoffs, ThermalConfig, VibronicProblem
from vibronic.qpe import EvolutionBackend, PhaseMap, thermal_angles


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


def trotter_register_step(ps: PauliSum, dt: float, order: int) -> np.ndarray:
    """One Trotter substep on the whole 2^n register, in the mapper's stable term order.

    Each rotation cos(theta) - i sin(theta) P updates every row r from row
    r ^ x, with P's phase (-i)^|x & z| (-1)^|r & z|.
    """
    rows = np.arange(1 << ps.n_qubits)
    terms = list(ps.terms.items())
    if order == 2:
        sequence = [(s, c, dt / 2) for s, c in terms + terms[::-1]]
    else:
        sequence = [(s, c, dt) for s, c in terms]
    u = np.eye(len(rows), dtype=complex)
    for string, coeff, step in sequence:
        x, z = pauli_masks(string)
        phase = (-1j) ** (x & z).bit_count() * (1.0 - 2.0 * (np.bitwise_count(rows & z) & 1))
        theta = coeff.real * step
        u = math.cos(theta) * u - 1j * math.sin(theta) * phase[:, None] * u[rows ^ x]
    return u


def trotter_register_unitary(
    ps: PauliSum, phase_map: PhaseMap, backend: EvolutionBackend
) -> np.ndarray:
    """The Trotter QPE step U = exp(-i tau (H + shift)) on the whole 2^n register."""
    step = trotter_register_step(ps, phase_map.tau / backend.steps, backend.order)
    u = np.linalg.matrix_power(step, backend.steps)
    return u * np.exp(-1j * phase_map.tau * phase_map.energy_shift)


def thermofield_matrix(
    problem: VibronicProblem, cutoffs: ModeCutoffs, thermal: ThermalConfig
) -> np.ndarray:
    """Thermofield-double amplitudes kappa[n_I, n_S] over (initial, system) Fock indices.

    Applies exp(theta_i (a_I^dag a_S^dag - a_I a_S) / 2) per mode as the
    expm of the truncated two-mode generator on the d^2 pair-product states,
    combines the modes with mode 0 slowest, then renormalizes.
    """
    kappa = np.ones((1, 1))
    for d, theta in zip(cutoffs.local_dims, thermal_angles(problem, thermal.beta)):
        a = fock.annihilation(d - 1)
        ad = fock.creation(d - 1)
        gen = (theta / 2.0) * (np.kron(ad, ad) - np.kron(a, a))
        block = scipy.linalg.expm(gen)[:, 0].reshape(d, d).real
        kappa = np.einsum("ab,cd->acbd", kappa, block).reshape(
            kappa.shape[0] * d, kappa.shape[1] * d
        )
    return kappa / np.linalg.norm(kappa)


def bin_spectrum_dense(sticks: StickSpectrum, width: float) -> tuple[int, np.ndarray]:
    """(first bin, every bin's value): each stick added into a dense row, in stick order."""
    offsets, first, n_bins = bin_offsets(sticks.energies, width)
    values = np.zeros(n_bins)
    np.add.at(values, offsets, sticks.intensities)
    return first, values


def binned_from_dense(width: float, first_bin: int, values) -> BinnedSpectrum:
    """The histogram whose bins, from ``first_bin`` on, hold ``values``."""
    values = np.asarray(values, dtype=float)
    occupied = np.flatnonzero(values)
    return BinnedSpectrum(width, first_bin, len(values), occupied, values[occupied])


def cumulative_fcf_by_level_dense(
    problem: VibronicProblem, cutoffs: ModeCutoffs, mode: int
) -> np.ndarray:
    """Cumulative FCF by level from the dense b^dag b, contracted with the eigenvectors."""
    _, evecs = eigensolve(build_hamiltonian(problem, cutoffs).hamiltonian)
    fcf = np.abs(evecs[0, :]) ** 2
    bd = build_b_dagger(problem, cutoffs)[mode]
    occ = np.einsum("ji,jk,ki->i", evecs, (bd @ bd.dagger()).matrix.toarray(), evecs)
    levels = np.rint(occ).astype(int)
    inside = (levels >= 0) & (levels <= cutoffs.levels[mode])
    return np.bincount(levels[inside], weights=fcf[inside], minlength=cutoffs.levels[mode] + 1)


def broaden_dense(binned: BinnedSpectrum, sig: float) -> BroadenedSpectrum:
    """Convolve the histogram with a unit-area Gaussian of standard deviation ``sig``."""
    if sig <= 0:
        raise ValueError(f"sigma must be positive, got {sig}")
    width = binned.width
    half = int(math.ceil(6.0 * sig / width))
    x = np.arange(-half, half + 1) * width
    kernel = np.exp(-(x**2) / (2.0 * sig**2)) / (sig * math.sqrt(2.0 * math.pi))
    values = np.convolve(binned.values, kernel, mode="full")
    start_bin = binned.first_bin - half
    return BroadenedSpectrum(
        grid_start=(start_bin + 0.5) * width,
        grid_step=width,
        values=values,
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


def render(x: int, z: int, n: int) -> str:
    """Pauli string of masks (x, z) on n qubits, qubit 0 leftmost, one qubit at a time."""
    return "".join("IXZY"[(x >> q & 1) | (z >> q & 1) << 1] for q in range(n))


def transition(bra: int, ket: int, qubits: tuple[int, ...]) -> dict[tuple[int, int], complex]:
    """|bra><ket| on the one-bit masks ``qubits`` as {(x, z): coefficient}.

    Per qubit |b><b| = (I + (-1)^b Z)/2 and |b><1-b| = (X + i (-1)^b Y)/2, so
    with x = bra ^ ket and w qubits the product is
    2^-w sum_{z in support} (-1)^|z & bra| i^|z & x| P(x, z),
    with the z in product order, the first qubit slowest.
    """
    x = bra ^ ket
    scale = 0.5 ** len(qubits)
    zs = [0]
    for q in qubits:
        zs = [z | b for z in zs for b in (0, q)]
    phases = (1 + 0j, 1j, -1 + 0j, -1j)
    return {(x, z): phases[(2 * (z & bra).bit_count() + (z & x).bit_count()) % 4] * scale
            for z in zs}


def mode_terms_loop(
    matrix: np.ndarray, mode: int, encoding: Encoding, layout: QubitLayout
) -> dict[tuple[int, int], complex]:
    """Masks and coefficients of a single-mode matrix, one ``transition`` per entry.

    The entries run row-major and each adds its products into a dict one at
    a time, so a key's first product fixes its place and the adds fix its
    bits.  A unary entry acts on the codewords' set qubits, bra first.
    """
    start, width = layout.mode_starts[mode], layout.mode_widths[mode]
    d = encoding.cutoffs.local_dims[mode]
    words = [l << start if encoding.variant == "binary" else 1 << (start + l) for l in range(d)]
    mode_qubits = tuple(1 << q for q in range(start, start + width))
    out: dict[tuple[int, int], complex] = {}
    rows, cols = np.nonzero(np.abs(matrix) > COEFF_PRUNE)
    for l, lp in zip(rows.tolist(), cols.tolist()):
        coeff = complex(matrix[l, lp])
        if encoding.variant == "binary":
            qubits = mode_qubits
        else:
            qubits = (words[l],) if l == lp else (words[l], words[lp])
        for key, c in transition(words[l], words[lp], qubits).items():
            out[key] = out.get(key, 0.0) + coeff * c
    return {key: c for key, c in out.items() if abs(c) > COEFF_PRUNE}


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
                mapped[mode_kinds] = mode_terms_loop(reduce(np.matmul, ladder), mode, encoding,
                                                     layout)
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
    n = layout.total_qubits
    return PauliSum(n, {render(x, z, n): c for (x, z), c in total.items() if abs(c) > COEFF_PRUNE})


def converge_sweep_held(
    problem: VibronicProblem,
    varied_mode: int,
    fixed_cutoffs: dict[int, int],
    threshold: float,
    l_start: int,
    l_cap: int,
    route: str,
    sigma: float,
) -> SweepResult:
    """The cutoff sweep with every cutoff's broadened spectrum held to the end."""
    spectra: dict[int, BroadenedSpectrum] = {}
    trace: list[tuple[int, float]] = []
    converged = None
    for l in range(l_start, l_cap + 1):
        cutoffs = ModeCutoffs.one_varied(fixed_cutoffs, varied_mode, l)
        _, _, spectra[l] = spectrum_pipeline(problem, cutoffs, route=route, sigma=sigma)
        if l - 1 in spectra:
            d = l1_distance(spectra[l], spectra[l - 1])
            trace.append((l, d))
            if d < threshold:
                converged = l - 1
                break
    top = max(spectra)
    vs_exact = [(l, l1_distance(spectra[l], spectra[top])) for l in sorted(spectra) if l < top]
    dists = [d for _, d in trace]
    monotone = all(b <= a * 1.5 for a, b in zip(dists, dists[1:]))
    return SweepResult(converged_l_max=converged, trace=trace, vs_exact=vs_exact, monotone=monotone)
