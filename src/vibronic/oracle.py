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
from dataclasses import dataclass, field
from decimal import Decimal

import numpy as np
from scipy.linalg import lapack

from .fock import ManyBodyOperator
from .hamiltonian import build_b_dagger, build_hamiltonian
from .mapping import check_dense_bytes
from .problem import ModeCutoffs, ThermalConfig, VibronicProblem, fock_state_energy

#: Default histogram bin width and Gaussian broadening, both cm^-1.
DEFAULT_BIN_WIDTH = 1.0
DEFAULT_SIGMA = 100.0

_FWHM_TO_SIGMA = 1.0 / (2.0 * math.sqrt(2.0 * math.log(2.0)))


@dataclass
class StickSpectrum:
    """Raw eigenvalue/intensity pairs, sorted by energy."""

    energies: np.ndarray
    intensities: np.ndarray
    metadata: dict = field(default_factory=dict)

    @property
    def total_intensity(self) -> float:
        return float(self.intensities.sum())

    @property
    def leakage(self) -> float:
        """Intensity deficit 1 - sum; zero for a complete eigenbasis."""
        return 1.0 - self.total_intensity


@dataclass
class BinnedSpectrum:
    """Histogram of stick intensity on a uniform grid of bins.

    Bin i spans [i, i + 1) * width; ``first_bin`` is the index of the lowest
    stored bin (negative-energy sticks from hot bands land in negative bins).
    """

    width: float
    first_bin: int
    values: np.ndarray
    metadata: dict = field(default_factory=dict)

    @property
    def bin_centers(self) -> np.ndarray:
        # in float: energies past 2^63 widths have bin indices that int64 cannot hold
        return (np.arange(len(self.values)) + (self.first_bin + 0.5)) * self.width

    @property
    def total_intensity(self) -> float:
        return float(self.values.sum())


@dataclass
class BroadenedSpectrum:
    """Intensity density (per cm^-1) on a uniform energy grid."""

    grid_start: float
    grid_step: float
    values: np.ndarray
    metadata: dict = field(default_factory=dict)

    @property
    def grid(self) -> np.ndarray:
        return self.grid_start + self.grid_step * np.arange(len(self.values))

    @property
    def area(self) -> float:
        return float(self.values.sum() * self.grid_step)


def dense_matrix(h: ManyBodyOperator) -> np.ndarray:
    """H as a dense array, real when it has no imaginary part above 1e-12.

    Every dense copy of an operator is made here, behind the byte budget: a
    complex D x D array, so up to D = 8192 states.
    """
    d = h.space.dimension
    check_dense_bytes(16 * d * d, f"a {d}-state dense eigensolve")
    mat = h.to_dense()
    if np.iscomplexobj(mat) and np.abs(mat.imag).max(initial=0.0) < 1e-12:
        return mat.real
    return mat


def eigensolve(h: ManyBodyOperator) -> tuple[np.ndarray, np.ndarray]:
    """Full Hermitian eigendecomposition, real-symmetric fast path."""
    return np.linalg.eigh(dense_matrix(h))


def _check_info(routine: str, info: int) -> None:
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK {routine} failed with info={info}")


def _vacuum_sticks(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of a real symmetric matrix and |<0|psi_i>|^2, without eigenvectors.

    ``np.linalg.eigh`` is LAPACK dsyevd: the lower-storage tridiagonal
    reduction T = Q^T mat Q (dsytrd), dstedc('I') for T = Z diag(w) Z^T, then
    the back-transform Q Z (dormtr).  None of the lower reduction's
    Householder reflectors touches row 0, so row 0 of Q Z is row 0 of Z bit
    for bit.  This runs the first two steps (dstevd calls the same
    dstedc('I') on T) and skips the back-transform, so the sticks equal
    dsyevd's bit for bit when both come from the same LAPACK, as with
    ``scipy.linalg.eigh(driver="evd")``.
    """
    lwork, info = lapack.dsytrd_lwork(mat.shape[0], lower=1)
    _check_info("dsytrd_lwork", info)
    _, d, e, _, info = lapack.dsytrd(mat, lower=1, lwork=int(lwork))
    _check_info("dsytrd", info)
    vals, z, info = lapack.dstevd(d, e)
    _check_info("dstevd", info)
    return vals, z[0] ** 2


def diagonalize_fcp(h: ManyBodyOperator, metadata: dict | None = None) -> StickSpectrum:
    """Stick spectrum of H: eigenvalues vs |<0|psi_i>|^2.

    The initial state is the vacuum (flat index 0), giving the
    zero-temperature Franck-Condon profile.  Degenerate eigenvalues stay as
    separate sticks.  No eigenvector matrix of H is formed (``_vacuum_sticks``),
    which takes real H only: dsytrd would drop an imaginary part.
    """
    if not h.verify_hermitian():
        raise ValueError(
            f"Hamiltonian is not Hermitian (deviation {h.hermiticity_deviation():.2e})"
        )
    mat = dense_matrix(h)
    if np.iscomplexobj(mat):
        raise ValueError("the stick spectrum needs a real Hamiltonian; use eigensolve for complex H")
    evals, fcf = _vacuum_sticks(mat)
    meta = {"cutoffs": list(h.space.levels)}
    meta.update(metadata or {})
    return StickSpectrum(energies=evals, intensities=fcf, metadata=meta)


def bin_spectrum(sticks: StickSpectrum, width: float = DEFAULT_BIN_WIDTH) -> BinnedSpectrum:
    """Histogram stick intensity into bins of the given width: E goes to floor(E / width)."""
    if len(sticks.energies) == 0:
        raise ValueError("cannot bin an empty stick spectrum")
    if not (math.isfinite(width) and width > 0):
        raise ValueError(f"bin width must be finite and positive, got {width}")
    with np.errstate(over="ignore"):  # a tiny width sends E / width to inf
        idx = np.floor(sticks.energies / width)
    n_bins = idx.max() - idx.min() + 1  # in float, where no int64 cast can wrap it
    if not math.isfinite(n_bins):
        n_bins = Decimal(float(np.ptp(sticks.energies))) / Decimal(width) + 1
    check_dense_bytes(8 * n_bins, f"a {n_bins:.4g}-bin histogram")
    values = np.zeros(int(n_bins))
    np.add.at(values, (idx - idx.min()).astype(int), sticks.intensities)
    return BinnedSpectrum(
        width=width,
        first_bin=int(idx.min()),
        values=values,
        metadata=dict(sticks.metadata),
    )


def sigma_from_convention(width: float, convention: str) -> float:
    """Gaussian standard deviation of a broadening width; its variance must be a normal float."""
    if convention not in ("stdev", "fwhm"):
        raise ValueError(f"unknown broadening convention {convention!r}")
    sig = width if convention == "stdev" else width * _FWHM_TO_SIGMA
    if not (math.isfinite(sig) and sig > 0 and sig * sig >= sys.float_info.min):
        raise ValueError(f"sigma must be finite and positive, its variance a normal float: {width}")
    return sig


def kernel_half_width(sig: float, width: float, n_bins: int) -> int:
    """Kernel bins ceil(6 sig / width) per side; the grid's bytes are checked in float first.

    A huge sigma would overflow the cast to int, so the count is never cast before the check.
    """
    half = np.ceil(6.0 * sig / width)
    n_grid = n_bins + 2 * half
    if not math.isfinite(n_grid):
        n_grid = 12 * Decimal(sig) / Decimal(width) + n_bins
    check_dense_bytes(8 * n_grid, f"a {n_grid:.4g}-point broadened grid")
    return int(half)


def broaden(
    binned: BinnedSpectrum,
    sigma: float = DEFAULT_SIGMA,
    convention: str = "stdev",
) -> BroadenedSpectrum:
    """Convolve the histogram with a unit-area Gaussian sampled on the grid.

    The result is the "full" convolution of ``np.convolve``, but the kernel is
    added only at occupied bins, in ascending bin order: nnz*K work instead of
    N*K on a histogram that is mostly empty.
    """
    sig = sigma_from_convention(sigma, convention)
    width = binned.width
    half = kernel_half_width(sig, width, len(binned.values))
    n_grid = len(binned.values) + 2 * half
    x = np.arange(-half, half + 1) * width
    kernel = np.exp(-(x**2) / (2.0 * sig**2)) / (sig * math.sqrt(2.0 * math.pi))
    values = np.zeros(n_grid)
    for j in np.flatnonzero(binned.values):
        values[j : j + 2 * half + 1] += binned.values[j] * kernel
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


def l1_distance(a: BroadenedSpectrum, b: BroadenedSpectrum) -> float:
    """Integral of |a - b| over energy; 2 for disjoint unit-norm spectra.

    Grids of one step whose starts lie a whole number of steps apart are
    compared node for node on their union grid; otherwise both are resampled
    onto the union grid at the finer step.
    """
    shift = (b.grid_start - a.grid_start) / a.grid_step
    if a.grid_step == b.grid_step and shift.is_integer():
        ia, ib = max(0, -int(shift)), max(0, int(shift))
        diff = np.zeros(max(ia + len(a.values), ib + len(b.values)))
        diff[ia : ia + len(a.values)] = a.values
        diff[ib : ib + len(b.values)] -= b.values
        return float(np.abs(diff).sum() * a.grid_step)
    step = min(a.grid_step, b.grid_step)
    lo = min(a.grid_start, b.grid_start)
    hi = max(a.grid[-1], b.grid[-1])
    n = int(round((hi - lo) / step)) + 1
    grid = lo + step * np.arange(n)
    return float(np.abs(_resample(a, grid) - _resample(b, grid)).sum() * step)


def spectrum_pipeline(
    problem: VibronicProblem,
    cutoffs: ModeCutoffs,
    route: str = "qp",
    sigma: float = DEFAULT_SIGMA,
    convention: str = "stdev",
) -> tuple[StickSpectrum, BinnedSpectrum, BroadenedSpectrum]:
    """Build H, diagonalize, bin and broaden in one call."""
    report = build_hamiltonian(problem, cutoffs, route=route)
    sticks = diagonalize_fcp(
        report.hamiltonian, metadata={"problem": problem.label, "route": route}
    )
    binned = bin_spectrum(sticks)
    broad = broaden(binned, sigma=sigma, convention=convention)
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
    convention: str = "stdev",
) -> SweepResult:
    """Increase the varied mode's L_max until successive broadened spectra agree.

    Convergence is declared once the L1 distance between the spectra at L
    and L-1 drops below ``threshold``; the reported converged cutoff is L-1,
    the smallest cutoff whose spectrum the next one no longer improves (so a
    single-stick identity problem converges at 1).  The trace of successive
    distances is returned along with an L1-vs-final curve for error-decay
    plots.  A non-monotone trace is flagged, not rejected.
    """
    if varied_mode in fixed_cutoffs:
        raise ValueError("varied mode cannot also have a fixed cutoff")
    if set(fixed_cutoffs) | {varied_mode} != set(range(problem.n_modes)):
        raise ValueError("fixed_cutoffs must cover every non-varied mode")
    if l_cap < l_start:
        raise ValueError(f"l_cap {l_cap} is below l_start {l_start}; no cutoff would run")

    spectra: dict[int, BroadenedSpectrum] = {}
    trace: list[tuple[int, float]] = []
    converged = None
    for l in range(l_start, l_cap + 1):
        _, _, spectra[l] = spectrum_pipeline(
            problem, ModeCutoffs.one_varied(fixed_cutoffs, varied_mode, l),
            route=route, sigma=sigma, convention=convention,
        )
        if l - 1 in spectra:
            d = l1_distance(spectra[l], spectra[l - 1])
            trace.append((l, d))
            if d < threshold:
                converged = l - 1
                break

    top = max(spectra)
    vs_exact = [
        (l, l1_distance(spectra[l], spectra[top])) for l in sorted(spectra) if l < top
    ]
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
    beta = thermal.beta
    evals, evecs = eigensolve(build_hamiltonian(problem, cutoffs).hamiltonian)

    occupations = cutoffs.all_multi_indices()
    e_a = fock_state_energy(problem, occupations)
    if thermal.is_zero_temperature:
        weights = np.zeros(cutoffs.dimension)
        weights[0] = 1.0
    else:
        log_w = -beta * (occupations @ problem.omega_A)
        weights = np.exp(log_w - log_w.max())
        weights /= weights.sum()

    keep = np.nonzero(weights > 1e-16)[0]
    energies = (evals[None, :] - e_a[keep, None]).ravel()
    intensities = (weights[keep, None] * np.abs(evecs[keep, :]) ** 2).ravel()
    order = np.argsort(energies)
    return StickSpectrum(
        energies=energies[order],
        intensities=intensities[order],
        metadata={
            "problem": problem.label,
            "cutoffs": list(cutoffs.levels),
            "beta_invcm": beta,
        },
    )


def cumulative_fcf_by_level(
    problem: VibronicProblem,
    cutoffs: ModeCutoffs,
    mode: int,
) -> np.ndarray:
    """Total FCF carried by each final-surface level of one mode.

    Entry l is sum over all other modes' quantum numbers of |<0|n'>|^2 with
    n'_mode = l, the quantity that controls how far the mode's progression
    reaches.  Each eigenstate gets the level nearest its expectation of the
    transformed number operator b_k^dag b_k.
    """
    report = build_hamiltonian(problem, cutoffs)
    _, evecs = eigensolve(report.hamiltonian)
    fcf = np.abs(evecs[0, :]) ** 2
    bd = build_b_dagger(problem, cutoffs)[mode]
    nmat = dense_matrix(bd @ bd.dagger())
    occ = np.einsum("ji,jk,ki->i", evecs.conj(), nmat, evecs).real
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

    Each old bin moves whole into the new bin holding its centre.
    """
    centers = StickSpectrum(binned.bin_centers, binned.values, binned.metadata)
    return bin_spectrum(centers, new_width)


# -- file output -------------------------------------------------------


def _two_column_csv(header: str, xs: np.ndarray, ys: np.ndarray) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["energy_cm1", header])
    for x, y in zip(xs, ys):
        writer.writerow([f"{x:.10g}", f"{y:.10g}"])
    return buf.getvalue()


def sticks_to_csv(sticks: StickSpectrum) -> str:
    return _two_column_csv("intensity", sticks.energies, sticks.intensities)


def binned_to_csv(binned: BinnedSpectrum) -> str:
    return _two_column_csv("intensity", binned.bin_centers, binned.values)


def broadened_to_csv(broad: BroadenedSpectrum) -> str:
    return _two_column_csv("density", broad.grid, broad.values)


def read_spectrum_csv(text: str) -> tuple[np.ndarray, np.ndarray]:
    """Read a two-column spectrum CSV (either sticks or broadened)."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or len(rows[0]) < 2:
        raise ValueError("spectrum CSV must have a two-column header")
    try:
        data = np.array([[float(r[0]), float(r[1])] for r in rows[1:]])
    except (IndexError, ValueError) as exc:
        raise ValueError(f"spectrum CSV has a malformed data row: {exc}") from exc
    if data.size == 0:
        raise ValueError("spectrum CSV has no data rows")
    return data[:, 0], data[:, 1]


def metadata_json(meta: dict) -> str:
    """Strict JSON: a non-finite float value (beta = inf at 0 K) is written as the string "inf"."""
    meta = {k: str(v) if isinstance(v, float) and not math.isfinite(v) else v
            for k, v in meta.items()}
    return json.dumps(meta, indent=2, sort_keys=True, default=float)
