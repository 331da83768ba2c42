"""Classical ground truth: diagonalize H_B and extract Franck-Condon profiles.

The oracle pipeline is diagonalize -> stick spectrum -> 1 cm^-1 histogram ->
Gaussian broadening -> L1 comparisons, plus the cutoff-convergence sweep and
the finite-temperature (Boltzmann-weighted) profile.  Everything here is
deterministic dense linear algebra; it is the reference the sampling
emulator is tested against.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from collections.abc import Iterator
from dataclasses import dataclass
from decimal import Decimal

import numpy as np
from scipy.linalg import lapack

from .fock import ManyBodyOperator, check_dense_bytes
from .hamiltonian import build_b_dagger, build_hamiltonian
from .problem import ModeCutoffs, ThermalConfig, VibronicProblem, fock_state_energy

#: Default histogram bin width and Gaussian broadening, both cm^-1.
DEFAULT_BIN_WIDTH = 1.0
DEFAULT_SIGMA = 100.0

_FWHM_TO_SIGMA = 1.0 / (2.0 * math.sqrt(2.0 * math.log(2.0)))

#: Bytes a full eigensolve holds per entry of the D x D H: the dense copy that
#: dsyevd overwrites and its 1 + 6D + 2D^2-double workspace, 24 in all.  Peak RSS
#: grew 25.1 per entry at D = 2,601 and 24.7 at D = 3,721 (2 vCPUs, OpenBLAS).
EIGH_BYTES_PER_ENTRY = 28

#: Bytes a thermal stick spectrum holds per stick beside the eigenvectors: the
#: sorted energies and intensities and each stick's two indices.  Traced
#: 32.1-32.8 on so2 (20,20)-(30,30) at 300 and 3000 K.
THERMAL_STICK_BYTES = 33


@dataclass
class StickSpectrum:
    """Raw eigenvalue/intensity pairs, sorted by energy."""

    energies: np.ndarray
    intensities: np.ndarray

    @property
    def total_intensity(self) -> float:
        return float(self.intensities.sum())

    @property
    def leakage(self) -> float:
        """Intensity deficit 1 - sum; zero for a complete eigenbasis."""
        return 1.0 - self.total_intensity


@dataclass
class BinnedSpectrum:
    """Histogram of stick intensity on n_bins uniform bins, held as its occupied bins.

    Bin i spans [i, i + 1) * width; ``first_bin`` is the index of the lowest
    bin (negative-energy sticks from hot bands land in negative bins).  Bin
    first_bin + offsets[k] holds weights[k] > 0, the offsets ascending.
    """

    width: float
    first_bin: int
    n_bins: int
    offsets: np.ndarray
    weights: np.ndarray

    @property
    def values(self) -> np.ndarray:  # every bin, for the callers that read them all
        values = np.zeros(self.n_bins)
        values[self.offsets] = self.weights
        return values

    @property
    def bin_centers(self) -> np.ndarray:
        # in float: energies past 2^63 widths have bin indices that int64 cannot hold
        return (np.arange(self.n_bins) + (self.first_bin + 0.5)) * self.width

    @property
    def total_intensity(self) -> float:
        return float(self.weights.sum())


@dataclass
class BroadenedSpectrum:
    """Intensity density (per cm^-1) on a uniform energy grid."""

    grid_start: float
    grid_step: float
    values: np.ndarray

    @property
    def grid(self) -> np.ndarray:
        return self.grid_start + self.grid_step * np.arange(len(self.values))


def dense_matrix(h: ManyBodyOperator) -> np.ndarray:
    """H as a dense float64 array in Fortran order, which LAPACK reduces in place.

    Only the two solves call it, and both read H's lower triangle alone: the
    copy is checked at ``stick_solve_bytes``, then H must be Hermitian.
    """
    check_dense_bytes(stick_solve_bytes(h), f"a {h.space.dimension}-state dense eigensolve")
    if not h.verify_hermitian():
        raise ValueError(f"Hamiltonian is not Hermitian (deviation {h.hermiticity_deviation():.2e})")
    return h.to_dense()


def stick_solve_bytes(h: ManyBodyOperator) -> int:
    """Bytes that ``diagonalize_fcp`` holds for H: 16 per entry, dstevd's Z and workspace."""
    return 16 * h.space.dimension**2


def eigensolve_bytes(h: ManyBodyOperator) -> int:
    """Bytes that ``eigensolve`` holds for H: EIGH_BYTES_PER_ENTRY per entry."""
    return EIGH_BYTES_PER_ENTRY * h.space.dimension**2


def eigensolve(h: ManyBodyOperator) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and eigenvector columns of H: dsyevd overwrites the checked copy."""
    check_dense_bytes(eigensolve_bytes(h), f"a {h.space.dimension}-state dense eigensolve")
    mat = dense_matrix(h)
    lwork, liwork = _lapack("dsyevd_lwork", mat.shape[0], lower=1)
    return _lapack("dsyevd", mat, lower=1, lwork=int(lwork), liwork=liwork, overwrite_a=1)


def _lapack(routine: str, *args, **kwargs) -> tuple:
    """scipy's LAPACK ``routine``: its outputs but the last, ``info``, which must be 0."""
    *out, info = getattr(lapack, routine)(*args, **kwargs)
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK {routine} failed with info={info}")
    return tuple(out)


def diagonalize_fcp(h: ManyBodyOperator) -> StickSpectrum:
    """Stick spectrum of H: eigenvalues vs |<0|psi_i>|^2, without eigenvectors.

    The initial state is the vacuum (flat index 0), giving the
    zero-temperature Franck-Condon profile.  Degenerate eigenvalues stay as
    separate sticks.

    ``eigensolve`` is LAPACK dsyevd: the lower-storage tridiagonal reduction
    T = Q^T H Q (dsytrd), dstedc('I') for T = Z diag(w) Z^T, then the
    back-transform Q Z (dormtr).  None of the lower reduction's Householder
    reflectors touches row 0, so row 0 of Q Z is row 0 of Z bit for bit.
    This runs the first two steps (dstevd calls the same dstedc('I') on T)
    from the same LAPACK and skips the back-transform, so the sticks are
    ``eigensolve``'s eigenvalues and squared row 0 bit for bit.

    One D x D array of H is held at a time: dsytrd reduces the Fortran-order
    copy in place, only T's diagonal and off-diagonal are kept, and the copy
    is released before dstevd allocates Z and its D^2 workspace.  The peak is
    ``stick_solve_bytes``, plus O(D).
    """
    mat = dense_matrix(h)
    (lwork,) = _lapack("dsytrd_lwork", mat.shape[0], lower=1)
    reduced, d, e, _ = _lapack("dsytrd", mat, lower=1, lwork=int(lwork), overwrite_a=1)
    del mat, reduced
    vals, z = _lapack("dstevd", d, e)
    return StickSpectrum(energies=vals, intensities=z[0] ** 2)


def bin_offsets(
    energies: np.ndarray, width: float, with_zero: bool = False
) -> tuple[np.ndarray, int, int]:
    """(offset of each energy's bin, first bin, bin count): E goes to bin floor(E / width).

    With ``with_zero`` the range also covers bin 0 (energy 0).  The bins are
    counted in float before any integer cast, and their bytes are checked.
    """
    if len(energies) == 0 and not with_zero:
        raise ValueError("cannot bin an empty stick spectrum")
    if not (math.isfinite(width) and width > 0):
        raise ValueError(f"bin width must be finite and positive, got {width}")
    with np.errstate(over="ignore"):  # a tiny width sends E / width to inf
        idx = np.divide(energies, width)
    np.floor(idx, out=idx)
    bounds = {"initial": 0.0} if with_zero else {}
    lo = idx.min(**bounds)
    n_bins = idx.max(**bounds) - lo + 1  # in float, where no int64 cast can wrap it
    if not math.isfinite(n_bins):
        spread = float(energies.max(**bounds)) - float(energies.min(**bounds))
        n_bins = Decimal(spread) / Decimal(width) + 1
    # the values and the bin centres that every writer forms
    check_dense_bytes(16 * n_bins, f"a {n_bins:.4g}-bin histogram")
    idx -= lo
    return idx.astype(np.int64), int(lo), int(n_bins)


def bin_spectrum(sticks: StickSpectrum, width: float = DEFAULT_BIN_WIDTH) -> BinnedSpectrum:
    """Histogram stick intensity into bins of the given width: E goes to floor(E / width).

    Each occupied bin sums its sticks in stick order, as a dense row would.
    """
    offsets, first, n_bins = bin_offsets(sticks.energies, width)
    occupied, slot = np.unique(offsets, return_inverse=True)
    weights = np.zeros(len(occupied))
    np.add.at(weights, slot, sticks.intensities)
    kept = weights != 0.0
    return BinnedSpectrum(width, first, n_bins, occupied[kept], weights[kept])


def sigma_from_convention(width: float, convention: str) -> float:
    """Gaussian standard deviation of a broadening width read as a stdev or a FWHM."""
    if convention not in ("stdev", "fwhm"):
        raise ValueError(f"unknown broadening convention {convention!r}")
    return width if convention == "stdev" else width * _FWHM_TO_SIGMA


def kernel_half_width(sig: float, width: float, n_bins: int, n_occupied: int = 0) -> int:
    """Kernel bins ceil(6 sig / width) per side; the grid's bytes are checked in float first.

    The standard deviation sig must be finite and positive, its variance a
    normal float.  A huge sig would overflow the cast to int, so the count is
    never cast before the check.
    """
    if not (math.isfinite(sig) and sig > 0 and sig * sig >= sys.float_info.min):
        raise ValueError(f"sigma must be finite and positive, its variance a normal float: {sig}")
    half = np.ceil(6.0 * sig / width)
    n_grid = n_bins + 2 * half
    if not math.isfinite(n_grid):
        n_grid = 12 * Decimal(sig) / Decimal(width) + n_bins
    # 32 bytes a point: at most four float arrays no longer than the grid live
    # at once, while the kernel is built and added and while the writers form
    # the grid beside the values; 72 an occupied bin for broaden's two lists
    check_dense_bytes(32 * n_grid + 72 * n_occupied, f"a {n_grid:.4g}-point broadened grid")
    return int(half)


def broaden(binned: BinnedSpectrum, sigma: float = DEFAULT_SIGMA) -> BroadenedSpectrum:
    """Convolve the histogram with a unit-area Gaussian of standard deviation ``sigma``.

    The result is the "full" convolution of ``np.convolve``, but the kernel is
    added only at occupied bins, in ascending bin order: nnz*K work instead of
    N*K on a histogram that is mostly empty.  Each kernel is scaled into one
    scratch array and added into its window in place, with no temporary per bin.
    """
    width = binned.width
    half = kernel_half_width(sigma, width, binned.n_bins, len(binned.offsets))
    x = np.arange(-half, half + 1) * width
    kernel = np.exp(-(x**2) / (2.0 * sigma**2)) / (sigma * math.sqrt(2.0 * math.pi))
    del x  # before the grid and the scratch exist: the peak holds three such arrays, not four
    values = np.zeros(binned.n_bins + 2 * half)
    scaled = np.empty_like(kernel)
    for j, w in zip(binned.offsets.tolist(), binned.weights.tolist()):  # not numpy scalars
        np.multiply(w, kernel, out=scaled)
        window = values[j : j + len(kernel)]
        np.add(window, scaled, out=window)
    start_bin = binned.first_bin - half
    return BroadenedSpectrum(grid_start=(start_bin + 0.5) * width, grid_step=width, values=values)


def _resample(spec: BroadenedSpectrum, grid: np.ndarray) -> np.ndarray:
    return np.interp(grid, spec.grid, spec.values, left=0.0, right=0.0)


def l1_distance(a: BroadenedSpectrum, b: BroadenedSpectrum) -> float:
    """Integral of |a - b| over energy; 2 for disjoint unit-norm spectra.

    Grids of one step whose starts lie a whole number of steps apart are
    compared node for node on their union grid; otherwise both are resampled
    onto the union grid at the finer step.  The union grid's bytes are
    checked, in float, before it is formed.
    """
    shift = (b.grid_start - a.grid_start) / a.grid_step
    if a.grid_step == b.grid_step and shift.is_integer():
        ia, ib = max(0, -int(shift)), max(0, int(shift))
        n = max(ia + len(a.values), ib + len(b.values))
        # the difference and its absolute value
        check_dense_bytes(16.0 * n, f"a {n:.4g}-point L1 union grid")
        diff = np.zeros(n)
        diff[ia : ia + len(a.values)] = a.values
        diff[ib : ib + len(b.values)] -= b.values
        return float(np.abs(diff).sum() * a.grid_step)
    step = min(a.grid_step, b.grid_step)
    lo = min(a.grid_start, b.grid_start)
    hi = max(a.grid[-1], b.grid[-1])
    span = (hi - lo) / step
    # the grid, both resampled spectra, their difference and its absolute value
    check_dense_bytes(40 * (span + 1), f"a {span + 1:.4g}-point L1 union grid")
    n = int(round(span)) + 1
    grid = lo + step * np.arange(n)
    return float(np.abs(_resample(a, grid) - _resample(b, grid)).sum() * step)


def spectrum_pipeline(
    problem: VibronicProblem,
    cutoffs: ModeCutoffs,
    route: str = "qp",
    sigma: float = DEFAULT_SIGMA,
) -> tuple[StickSpectrum, BinnedSpectrum, BroadenedSpectrum]:
    """Build H, diagonalize, bin and broaden (``sigma`` a standard deviation) in one call."""
    report = build_hamiltonian(problem, cutoffs, route=route)
    sticks = diagonalize_fcp(report.hamiltonian)
    binned = bin_spectrum(sticks)
    broad = broaden(binned, sigma=sigma)
    return sticks, binned, broad


@dataclass
class SweepResult:
    """Outcome of a varied-mode cutoff convergence sweep."""

    converged_l_max: int | None
    trace: list[tuple[int, float]]
    vs_exact: list[tuple[int, float]]
    monotone: bool


def converge_sweep(
    problem: VibronicProblem,
    varied_mode: int,
    fixed_cutoffs: dict[int, int],
    threshold: float = 1e-4,
    l_start: int = 1,
    l_cap: int = 100,
    route: str = "qp",
    sigma: float = DEFAULT_SIGMA,
) -> SweepResult:
    """Increase the varied mode's L_max until successive broadened spectra agree.

    Convergence is declared once the L1 distance between the spectra at L
    and L-1 drops below ``threshold``; the reported converged cutoff is L-1,
    the smallest cutoff whose spectrum the next one no longer improves (so a
    single-stick identity problem converges at 1).  The trace of successive
    distances is returned along with an L1-vs-final curve for error-decay
    plots.  A non-monotone trace is flagged, not rejected.

    Only the last broadened grid is held through the loop, for the next
    successive L1.  Each cutoff keeps its histogram, 16 bytes an occupied
    bin, and the curve re-broadens them one cutoff at a time; ``broaden`` is
    deterministic, so every distance is the one the held grids would give.
    The held bytes are checked before each cutoff and before the curve.
    """
    if varied_mode in fixed_cutoffs:
        raise ValueError("varied mode cannot also have a fixed cutoff")
    if set(fixed_cutoffs) | {varied_mode} != set(range(problem.n_modes)):
        raise ValueError("fixed_cutoffs must cover every non-varied mode")
    if l_cap < l_start:
        raise ValueError(f"l_cap {l_cap} is below l_start {l_start}; no cutoff would run")

    bins: dict[int, BinnedSpectrum] = {}

    def check_held(grid: BroadenedSpectrum | None) -> None:
        held = 16 * sum(len(binned.offsets) for binned in bins.values())
        held += 0 if grid is None else grid.values.nbytes
        check_dense_bytes(held, f"a cutoff sweep holding {len(bins)} binned spectra and a grid")

    trace: list[tuple[int, float]] = []
    converged = prev = broad = None
    for top in range(l_start, l_cap + 1):
        check_held(broad)
        prev = broad  # the only grid held while the next cutoff is solved
        cutoffs = ModeCutoffs.one_varied(fixed_cutoffs, varied_mode, top)
        _, bins[top], broad = spectrum_pipeline(problem, cutoffs, route=route, sigma=sigma)
        if prev is not None:
            d = l1_distance(broad, prev)
            trace.append((top, d))
            if d < threshold:
                converged = top - 1
                break

    del prev
    check_held(broad)
    vs_exact = [(l, l1_distance(broaden(binned, sigma), broad))
                for l, binned in bins.items() if l < top]
    dists = [d for _, d in trace]
    monotone = all(b <= a * 1.5 for a, b in zip(dists, dists[1:]))
    return SweepResult(
        converged_l_max=converged, trace=trace, vs_exact=vs_exact, monotone=monotone
    )


def thermal_fcp_oracle(
    problem: VibronicProblem,
    cutoffs: ModeCutoffs,
    thermal: ThermalConfig,
) -> StickSpectrum:
    """Finite-temperature profile: sticks at eps_i - E_A(n), Boltzmann weighted.

    Initial states |n> are weighted by p_n(beta) = prod_k (1-e^{-b w_k})
    e^{-b w_k n_k}, renormalized over the truncated space; each contributes
    its own transition energies relative to E_A(n).
    """
    evals, evecs = eigensolve(build_hamiltonian(problem, cutoffs).hamiltonian)

    occupations = cutoffs.all_multi_indices()
    e_a = fock_state_energy(problem, occupations)
    if thermal.is_zero_temperature:
        weights = np.zeros(cutoffs.dimension)
        weights[0] = 1.0
    else:
        log_w = -thermal.beta * (occupations @ problem.omega_A)
        weights = np.exp(log_w - log_w.max())
        weights /= weights.sum()

    keep = np.nonzero(weights > 1e-16)[0]
    check_dense_bytes(evecs.nbytes + THERMAL_STICK_BYTES * len(keep) * len(evals),
                      f"{len(keep)} x {len(evals)} thermal sticks")
    # stick (i, j) is final state j from initial state keep[i]: sort the
    # energies once, then form both arrays in sorted order
    order = np.argsort((evals[None, :] - e_a[keep, None]).ravel())
    rows, cols = keep[order // len(evals)], order % len(evals)
    del order
    energies = evals[cols]
    energies -= e_a[rows]
    intensities = evecs[rows, cols]
    del cols
    np.abs(intensities, out=intensities)
    intensities **= 2
    intensities *= weights[rows]
    return StickSpectrum(energies=energies, intensities=intensities)


def cumulative_fcf_by_level(
    problem: VibronicProblem,
    cutoffs: ModeCutoffs,
    mode: int,
) -> np.ndarray:
    """Total FCF carried by each final-surface level of one mode.

    Entry l is sum over all other modes' quantum numbers of |<0|n'>|^2 with
    n'_mode = l, the quantity that controls how far the mode's progression
    reaches.  Each eigenstate gets the level nearest its expectation of the
    transformed number operator b_k^dag b_k, applied as its CSR.
    """
    report = build_hamiltonian(problem, cutoffs)
    _, evecs = eigensolve(report.hamiltonian)
    fcf = np.abs(evecs[0, :]) ** 2
    bd = build_b_dagger(problem, cutoffs)[mode]
    occ = np.einsum("ji,ji->i", evecs, (bd @ bd.dagger()).matrix @ evecs)
    levels = np.rint(occ).astype(int)
    inside = (levels >= 0) & (levels <= cutoffs.levels[mode])
    return np.bincount(levels[inside], weights=fcf[inside], minlength=cutoffs.levels[mode] + 1)


def tv_distance(p: np.ndarray, q: np.ndarray) -> float:
    """Total variation distance between two histograms (normalized first)."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.sum() <= 0 or q.sum() <= 0:
        raise ValueError("histograms must have positive total mass")
    return 0.5 * float(np.abs(p / p.sum() - q / q.sum()).sum())


def rebin(binned: BinnedSpectrum, new_width: float) -> BinnedSpectrum:
    """Aggregate a histogram into coarser bins (new width need not divide evenly).

    Each occupied bin moves whole into the new bin holding its centre.
    """
    centers = (binned.offsets + (binned.first_bin + 0.5)) * binned.width
    return bin_spectrum(StickSpectrum(centers, binned.weights), new_width)


# -- file output -------------------------------------------------------


#: Rows per block of every text output, each block formatted by one ``%``
#: (and strings per support block of ``mapping.resource_count``).  A block
#: being written holds about three times its text (its Python floats and
#: argument tuple, the formatter's buffer, then the encoded copy): at 1,024
#: rows, writing and echoing the 0.86 MB so2 unary (31,31) Pauli listing
#: peaks at 0.53 MB traced, where 4,096 rows took 1.40 MB, at the same speed.
BLOCK_ROWS = 1024


def text_blocks(row: str, *columns) -> Iterator[str]:
    """``row`` % (the row's value of each column) for every row, BLOCK_ROWS rows per ``%``.

    The columns are numpy arrays or lists of one length.  A block's slices go
    into one interleaved list as Python values (``%.10g`` formats a Python
    float as ``{:.10g}`` does), so no row makes a tuple, and the caller
    writes each block before the next is formatted: formatting numpy
    scalars one by one is slow, and whole-output lists would hold every row.
    """
    for lo in range(0, len(columns[0]), BLOCK_ROWS):
        yield _format_block(row, [column[lo : lo + BLOCK_ROWS] for column in columns])


def _format_block(row: str, parts: list) -> str:
    """One block's text; its Python values are freed on return, before the caller writes it."""
    values = [None] * (len(parts) * len(parts[0]))
    for i, part in enumerate(parts):
        values[i :: len(parts)] = part.tolist() if isinstance(part, np.ndarray) else part
    return row * len(parts[0]) % tuple(values)


def write_csv(path, header: str, xs: np.ndarray, ys: np.ndarray, tail: str = "\r\n") -> None:
    """Write ``header``, then one row f"{x:.10g},{y:.10g}{tail}" per (x, y), block by block.

    The default tail is the csv module's line terminator.
    """
    with open(path, "w", newline="") as fh:
        fh.write(header)
        fh.writelines(text_blocks("%.10g,%.10g" + tail.replace("%", "%%"), xs, ys))


def read_spectrum_csv(text: str) -> tuple[np.ndarray, np.ndarray]:
    """Read a two-column spectrum CSV (either sticks or broadened) of finite numbers."""
    try:
        rows = list(csv.reader(io.StringIO(text)))
    except csv.Error as exc:
        raise ValueError(f"spectrum CSV is malformed: {exc}") from exc
    if not rows or len(rows[0]) < 2:
        raise ValueError("spectrum CSV must have a two-column header")
    try:
        data = np.array([[float(r[0]), float(r[1])] for r in rows[1:]])
    except (IndexError, ValueError) as exc:
        raise ValueError(f"spectrum CSV has a malformed data row: {exc}") from exc
    if data.size == 0:
        raise ValueError("spectrum CSV has no data rows")
    if not np.isfinite(data).all():
        raise ValueError("spectrum CSV has a non-finite value")
    return data[:, 0], data[:, 1]


def metadata_json(meta: dict) -> str:
    """Strict JSON: a non-finite float value (beta = inf at 0 K) is written as the string "inf"."""
    meta = {k: str(v) if isinstance(v, float) and not math.isfinite(v) else v
            for k, v in meta.items()}
    return json.dumps(meta, indent=2, sort_keys=True, default=float)
