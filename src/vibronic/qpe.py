"""Statevector emulation of the QPE sampling algorithm.

The emulator prepares the encoded vacuum (or a thermofield-double pair at
finite temperature), runs Hadamards + controlled powers of U = exp(-i tau
(H + shift)) + inverse QFT on the energy register, and samples measurement
outcomes with a counter-based deterministic generator.  On the exact backend
the outcome law has a closed form in H's eigenpairs, a Fejer-kernel mixture,
and is sampled from it; only the Trotter backend runs the controlled-power
ladder.  Energies are decoded through an explicit affine PhaseMap so every
sampled value is exactly reconstructible from the raw register integer.

The QFT convention is chosen so that phases map positively: the energy
register transform has kernel exp(+2 pi i x j / 2^t), concentrating outcome
j near 2^t * tau * (E + shift) / 2 pi.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .fock import ManyBodyOperator, check_dense_bytes
from .hamiltonian import build_hamiltonian, hamiltonian_terms
from .mapping import (
    Encoding,
    PauliSum,
    QubitLayout,
    apply_pauli_string,
    codespace_indices,
    invariant_sector,
    map_second_quantized,
    sector_states,
)
from .oracle import (DEFAULT_BIN_WIDTH, BinnedSpectrum, bin_offsets, diagonalize_fcp,
                     eigensolve, eigensolve_bytes, stick_solve_bytes)
from .problem import ModeCutoffs, ThermalConfig, VibronicProblem, fock_state_energy

#: Share of the 2 pi phase window left empty above the highest eigenphase.
PHASE_SAFETY_MARGIN = 0.05

#: Largest energy-register width: the 2^t outcome integers index as int64.
MAX_T = 62

#: Bytes a Trotter QPE step holds per entry of its S x S unitary, checked before
#: it is built: up to four complex S x S arrays live at once (U with the Trotter
#: rotation's copies, or with two powers in the squaring ladder), plus BLAS
#: workspace.  Peak RSS over the interpreter's (2 vCPUs, OpenBLAS): 64 bytes per
#: entry (S = 1,024-2,048).
STEP_BYTES_PER_ENTRY = 72

#: Entries of the (j, eigenphase) kernel block that the exact law forms at a time.
KERNEL_BLOCK = 1 << 15


def _check_bits(t: int) -> None:
    # checked before anything forms 2^t, which for a huge t never finishes
    if not 1 <= t <= MAX_T:
        raise ValueError(f"energy-register bits t must be in [1, {MAX_T}], got {t}")


@dataclass(frozen=True)
class PhaseMap:
    """Affine energy-to-phase calibration phi = tau (E + shift) / 2 pi."""

    tau: float
    energy_shift: float
    t: int

    def __post_init__(self) -> None:
        _check_bits(self.t)

    @property
    def resolution(self) -> float:
        """Energy per E-register step, Delta-omega = 2 pi / (tau 2^t)."""
        return 2.0 * math.pi / (self.tau * 2**self.t)

    def phase(self, energy: float) -> float:
        return self.tau * (energy + self.energy_shift) / (2.0 * math.pi)

    def energy(self, j) -> np.ndarray:
        """Bin-center energy of outcome integer(s) j."""
        return 2.0 * math.pi * np.asarray(j) / (self.tau * 2**self.t) - self.energy_shift

    def as_dict(self) -> dict:
        return {
            "tau": self.tau,
            "energy_shift": self.energy_shift,
            "t": self.t,
            "resolution_cm1": self.resolution,
        }


def gershgorin_bounds(h: ManyBodyOperator) -> tuple[float, float]:
    """Cheap spectral interval from Gershgorin row sums.

    The rows of |H| are summed dense, KERNEL_BLOCK // D (at most D) at a time,
    each as in a full copy: CSR row sums add in another order, which moves
    tau, and with it every decoded energy, in the last bits.
    """
    dim = h.space.dimension
    block = min(dim, max(1, KERNEL_BLOCK // dim))
    check_dense_bytes(8 * block * dim, f"a {block}-row block of Gershgorin sums")
    diag = h.matrix.diagonal()
    radii = -np.abs(diag)
    for lo in range(0, dim, block):
        rows = h.matrix[lo : lo + block].toarray()
        radii[lo : lo + block] += np.abs(rows, out=rows).sum(axis=1)
    return float((diag - radii).min()), float((diag + radii).max())


def choose_phase_map(
    h: ManyBodyOperator,
    t: int,
    lower_bound: float | None = None,
) -> PhaseMap:
    """Calibrate tau and shift so every eigenphase lands inside [0, 1).

    ``lower_bound`` supplies cheap external knowledge (harmonic Hamiltonians
    are positive semidefinite, so 0 is tight); otherwise the Gershgorin lower
    bound is used, which over-shifts but never under-shifts.
    """
    gersh_lower, upper = gershgorin_bounds(h)
    lower = gersh_lower if lower_bound is None else lower_bound
    shift = max(0.0, -lower)
    span = upper + shift
    if span <= 0.0:
        return PhaseMap(tau=1.0, energy_shift=shift, t=t)
    tau = 2.0 * math.pi * (1.0 - PHASE_SAFETY_MARGIN) / span
    return PhaseMap(tau=tau, energy_shift=shift, t=t)


@dataclass(frozen=True)
class EvolutionBackend:
    """Exact unitary or Trotterized propagation for one QPE time step tau."""

    kind: str
    order: int = 1
    steps: int = 1

    def __post_init__(self) -> None:
        if self.kind not in ("exact", "trotter"):
            raise ValueError(f"unknown backend kind {self.kind!r}")
        if self.kind == "trotter":
            if self.order not in (1, 2):
                raise ValueError("Trotter order must be 1 or 2")
            if self.steps < 1:
                raise ValueError("Trotter steps must be >= 1")

    @classmethod
    def exact(cls) -> "EvolutionBackend":
        return cls(kind="exact")

    @classmethod
    def trotter(cls, order: int, steps: int) -> "EvolutionBackend":
        return cls(kind="trotter", order=order, steps=steps)

    def as_dict(self) -> dict:
        """Run metadata; the Trotter order and steps are None on the exact backend."""
        trotter = self.kind == "trotter"
        return {"backend": self.kind, "trotter_order": self.order if trotter else None,
                "trotter_steps": self.steps if trotter else None}


@dataclass
class SampledSpectrum:
    """Measurement record of a QPE run plus everything needed to decode it."""

    j_outcomes: np.ndarray
    energies: np.ndarray
    phase_map: PhaseMap
    shots: int
    seed: int
    initial_levels: np.ndarray | None = None
    metadata: dict = field(default_factory=dict)

    def histogram(self, width: float = DEFAULT_BIN_WIDTH) -> BinnedSpectrum:
        """Probability histogram of decoded energies (intensity = count/shots).

        Bin 0 (energy 0) is always inside the binned range.  A bin of c shots
        holds the sum of c terms 1/shots added in order, bit for bit what
        adding each shot's weight into its bin gives; count/shots is not.
        """
        offsets, first, n_bins = bin_offsets(self.energies, width, with_zero=True)
        counts = np.bincount(offsets)
        occupied = np.flatnonzero(counts)
        sums = np.full(counts.max(initial=0) + 1, 1.0 / max(len(self.energies), 1))
        sums[0] = 0.0
        np.cumsum(sums, out=sums)
        return BinnedSpectrum(width, first, n_bins, occupied, sums[counts[occupied]])


def shot_uniforms(seed: int, shots: int) -> np.ndarray:
    """Canonical per-shot uniforms from a counter-based Philox stream.

    Shot i always receives position i of the (seed-keyed) stream, so the
    record is bit-identical however the shots are later distributed.
    """
    gen = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    return gen.random(shots)


# -- Trotterized propagation ------------------------------------------


def trotter_step_unitary(
    ps: PauliSum, dt: float, order: int, basis: np.ndarray | None = None
) -> np.ndarray:
    """Dense unitary of one Trotter substep in the mapper's stable term order.

    It acts on the sorted basis indices ``basis``, an invariant sector of the
    sum (default: the whole register).  Each term's rotation exp(-i theta P)
    = cos(theta) - i sin(theta) P is applied to the rows of the running
    product, never built as a matrix, and in place: a fresh S x S temporary
    per term costs a page-faulted allocation once the arrays outgrow the
    allocator's mmap threshold.
    """
    if ps.max_imag_coeff() > 1e-10:
        raise ValueError("Trotter evolution requires a Hermitian Pauli sum (real coefficients)")
    terms = ps.sorted_terms()
    if order == 2:
        sequence = [(s, c, dt / 2) for s, c in terms + terms[::-1]]
    else:
        sequence = [(s, c, dt) for s, c in terms]
    u = np.eye(1 << ps.n_qubits if basis is None else len(basis), dtype=complex)
    rotated = np.empty_like(u)
    for string, coeff, step in sequence:
        theta = float(coeff.real) * step
        apply_pauli_string(string, u, out=rotated, basis=basis)
        np.multiply(1j * math.sin(theta), rotated, out=rotated)
        np.multiply(math.cos(theta), u, out=u)
        np.subtract(u, rotated, out=u)
    return u


def trotter_unitary(
    ps: PauliSum, time: float, order: int, steps: int, basis: np.ndarray | None = None
) -> np.ndarray:
    """Trotterized exp(-i * time * H) using `steps` substeps, on ``basis`` as above."""
    step = trotter_step_unitary(ps, time / steps, order, basis)
    return np.linalg.matrix_power(step, steps)


# -- core QPE engine ---------------------------------------------------


def _step_unitary(
    phase_map: PhaseMap, backend: EvolutionBackend, pauli: PauliSum | None, code: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(U, sector): the Trotter step U = exp(-i tau (H + shift)) on the code states' sector.

    It evolves under the mapped Pauli sum, so it may leak out of the code
    space, but never out of the sector that the sum's terms reach from it
    (``mapping.invariant_sector``): U's entries between the sector and the
    rest of the 2^n_s register are exactly 0.  The step's byte estimate is
    checked before the sector is enumerated.
    """
    if pauli is None:
        raise ValueError("trotter backend needs the mapped Pauli-sum Hamiltonian")
    reps, generators = invariant_sector(pauli, code)
    side = len(reps) << len(generators)
    check_dense_bytes(STEP_BYTES_PER_ENTRY * side * side, f"a {side}-state trotter QPE step")
    sector = sector_states(reps, generators)
    u = trotter_unitary(pauli, phase_map.tau, backend.order, backend.steps, sector)
    u *= np.exp(-1j * phase_map.tau * phase_map.energy_shift)
    return u, sector


def _check_law(h: ManyBodyOperator, t: int, n_rows: int, shots: int, solve_bytes: int) -> None:
    """Check an exact run's bytes in one sum before its solve, which holds ``solve_bytes``.

    The sum adds the R x D weights, the (2^t, R) law with its cdf, one kernel
    block and the shots, which are sampled while the law is alive.  U itself
    is never formed.
    """
    _check_bits(t)
    dim, e_dim = h.space.dimension, 2**t
    block = max(1, KERNEL_BLOCK // dim)
    check_dense_bytes(
        solve_bytes + 8 * n_rows * dim + 16 * e_dim * n_rows
        + 8 * block * (2 * dim + n_rows) + _shot_bytes(shots, n_rows),
        f"a {t}-qubit x {n_rows}-row x {dim}-state exact QPE law"
        f" and {shots} sampled shots")


def _fejer(phases: np.ndarray, j, e_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """(ratio, angle) with A(j, phi) = 2^-t sum_x exp(2 pi i x (j/N - phi)) = ratio exp(i angle).

    With d = phi - j/N reduced to [-1/2, 1/2] and N = 2^t, A is
    exp(-i pi (N - 1) d) sin(pi N d) / (N sin(pi d)), and 1 at d = 0.  N d is
    reduced mod 2 exactly (N is a power of two), so A keeps its accuracy as
    phi nears j/N, where the kernel K = ratio^2 nears 1.
    """
    d = phases - np.asarray(j) / e_dim
    d -= np.rint(d)
    nd = e_dim * d
    nd -= 2.0 * np.rint(nd / 2.0)
    ratio = np.ones_like(d)
    off = d != 0.0
    ratio[off] = np.sin(np.pi * nd[off]) / (e_dim * np.sin(np.pi * d[off]))
    return ratio, np.pi * (d - nd)


def _eigenphase_law(phases: np.ndarray, weights: np.ndarray, t: int) -> np.ndarray:
    """The j-major (j, row) QPE law p(j, r) = sum_i W[r, i] K(j, phi_i).

    W[r, i] = |<v_i|psi_r>|^2 and K(j, phi) = sin^2(pi N phi) / (N^2 sin^2(pi
    (phi - j/N))), N = 2^t (Cleve, Ekert, Macchiavello & Mosca, Proc. R. Soc.
    A 454, 339 (1998)).  K is formed a block of j at a time, its denominator
    as the outer form sin(pi phi) cos(pi j/N) - cos(pi phi) sin(pi j/N).  That
    form cancels as phi nears j/N (K at the nearest j read 0.743 for phi =
    1/16 + 1e-17 at t = 4), so the two j nearest each phase take K from
    ``_fejer`` instead.
    """
    e_dim, dim = 2**t, len(phases)
    frac = phases - np.floor(phases)
    scaled = e_dim * frac  # exact, so the numerator is reduced exactly too
    num = np.sin(np.pi * (scaled - np.rint(scaled))) / e_dim
    sin_p, cos_p = np.sin(np.pi * frac), np.cos(np.pi * frac)
    nearest = (np.floor(scaled).astype(np.int64) + np.array([[0], [1]])) % e_dim
    near_k = np.stack([_fejer(frac, j, e_dim)[0] ** 2 for j in nearest])
    law = np.empty((e_dim, len(weights)))
    block = max(1, KERNEL_BLOCK // dim)
    for lo in range(0, e_dim, block):
        angle = (np.pi / e_dim) * np.arange(lo, min(lo + block, e_dim))
        kernel = np.multiply.outer(np.cos(angle), sin_p)
        kernel -= np.multiply.outer(np.sin(angle), cos_p)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            np.divide(num, kernel, out=kernel)  # inf or nan only at a nearest j
            np.square(kernel, out=kernel)
        hit = (nearest >= lo) & (nearest < lo + len(angle))
        kernel[nearest[hit] - lo, np.nonzero(hit)[1]] = near_k[hit]
        np.matmul(kernel, weights.T, out=law[lo : lo + len(angle)])
    return law.reshape(-1)


def _shot_bytes(shots: int, n_rows: int) -> int:
    # words a shot holds at the peak: j, the energy and two temporaries (the
    # sampler's outcome and row, the decode's, the histogram's bin index), and
    # in a thermal run the row and the decoded levels with their float copy,
    # fewer than R.bit_length() words each (every mode has two levels or more)
    return 16 * shots * (1 + n_rows.bit_length())


def _run_record(
    encoding: Encoding, backend: EvolutionBackend, t: int, leaked: float | None, **facts
) -> dict:
    """The facts every sampled run records; only a Trotter run leaves the code space and leaks."""
    record = {"encoding": encoding.variant, **backend.as_dict(), "t": t, **facts,
              "system_qubits": QubitLayout.for_encoding(encoding).total_qubits}
    if backend.kind == "trotter":
        record["leaked_weight"] = leaked
    return record


def _sample_joint(
    joint: np.ndarray, n_rows: int, seed: int, shots: int
) -> tuple[np.ndarray, np.ndarray]:
    """(j, row) of each shot, sampled from the j-major (j, row) law."""
    cdf = np.cumsum(joint)
    cdf /= cdf[-1]
    outcomes = np.searchsorted(cdf, shot_uniforms(seed, shots), side="right")
    return outcomes // n_rows, outcomes % n_rows


def _problem_hamiltonian(
    problem: VibronicProblem,
    cutoffs: ModeCutoffs,
    t: int,
    encoding: Encoding,
    backend: EvolutionBackend,
    route: str,
    check_solve: Callable[[ManyBodyOperator], None],
    phase_map: PhaseMap | None = None,
) -> tuple[str, ManyBodyOperator, PauliSum | None, PhaseMap]:
    """(route, H, mapped Pauli sum or None, phase map) for a problem-level run.

    The Trotter backend evolves under the mapped ladder-route expansion, the
    term list the exact solve assembles, anharmonic terms included; the
    reference H (hence the phase map) is the ladder route too, since the
    routes differ near the cutoff.
    """
    pauli = None
    if backend.kind == "trotter":
        route = "ladder"
        pauli = map_second_quantized(
            hamiltonian_terms(problem, route), encoding, QubitLayout.for_encoding(encoding)
        )
    h = build_hamiltonian(problem, cutoffs, route=route).hamiltonian
    if backend.kind == "exact":  # the run's bytes, before the phase map's O(D^2) pass
        check_solve(h)
    if phase_map is None:
        # harmonic H is a sum of squares, so 0 is a tight lower bound
        lower = 0.0 if not problem.anharmonic else None
        phase_map = choose_phase_map(h, t, lower_bound=lower)
    _check_register(phase_map, t)
    return route, h, pauli, phase_map


def _check_register(phase_map: PhaseMap, t: int) -> None:
    """Outcomes are sampled on t bits and decoded on the map's; they must agree."""
    if phase_map.t != t:
        raise ValueError(f"the phase map decodes t={phase_map.t} bits but the run samples t={t}")


def _controlled_power_sweep(
    u: np.ndarray, columns: np.ndarray, rows: np.ndarray, t: int, seed: int, shots: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float]:
    """Sample QPE outcomes for an R x D block of initial Fock amplitudes.

    This is the Trotter backend's sampler, and the tests' reference for the
    exact backend's closed-form law.  Register row r starts the system in
    ``rows[r]``, whose Fock state k sits in column ``columns[k]`` of U.
    E-register value x of the (2^t, R, len(U)) state holds U^x rows /
    sqrt(2^t), built by doubling: level k sets values [2^k, 2^(k+1)) to
    values [0, 2^k) times U^(2^k) in one GEMM, (2^t - 1) R len(U)^2
    multiply-adds in all.  After the inverse QFT the system axis is summed
    and the shots sample the joint (j, row) categories j-major.  Returns (j,
    row, amplitudes, joint probabilities, the state's weight outside the
    columns)."""
    e_dim = 2**t
    n_rows, dim = len(rows), len(u)
    block = max(1, 8192 // dim)  # (j, row) categories squared at a time
    # the state, U with the ladder's two newest powers of it, the joint law
    # with its cdf, one block of |amplitude|^2 with its square, and the shots
    check_dense_bytes(
        16 * (e_dim * n_rows * (dim + 1) + 3 * dim * dim + block * dim)
        + _shot_bytes(shots, n_rows),
        f"a {t}-qubit x {n_rows}-row x {dim}-state QPE state and {shots} sampled shots")
    amps = np.zeros((e_dim, n_rows, dim), dtype=complex)
    amps[0][:, columns] = rows / math.sqrt(e_dim)
    flat = amps.reshape(e_dim * n_rows, dim)
    u_power = u
    for k in range(t):
        done = n_rows << k
        np.matmul(flat[:done], u_power.T, out=flat[done : 2 * done])
        if k + 1 < t:
            u_power = u_power @ u_power
    np.fft.ifft(amps, axis=0, out=amps)
    amps *= math.sqrt(e_dim)
    joint = np.empty(len(flat))
    outside = np.ones(dim, dtype=bool)
    outside[columns] = False
    leaked = 0.0
    for lo in range(0, len(flat), block):
        square = np.abs(flat[lo : lo + block]) ** 2
        joint[lo : lo + block] = square.sum(axis=1)
        leaked += float(square[:, outside].sum())
    return *_sample_joint(joint, n_rows, seed, shots), amps, joint, leaked


def run_qpe(
    h: ManyBodyOperator,
    encoding: Encoding,
    t: int,
    shots: int,
    backend: EvolutionBackend = EvolutionBackend.exact(),
    seed: int = 0,
    initial_state: np.ndarray | None = None,
    phase_map: PhaseMap | None = None,
    pauli_hamiltonian: PauliSum | None = None,
    return_state: bool = False,
    return_distribution: bool = False,
):
    """Zero-temperature QPE sampling of the Hamiltonian's spectrum.

    The system register starts in the encoded vacuum (or ``initial_state``,
    a Fock-space vector); outcome integers j are decoded to energies through
    the phase map.  With the exact backend the evolution never leaves the
    code space, so every outcome decodes cleanly.

    Returns the SampledSpectrum; with ``return_state`` also the normalized
    post-measurement system-register amplitudes of the last shot, and with
    ``return_distribution`` the emulator's exact pre-measurement outcome
    probabilities (for kernel cross-checks).
    """
    layout = QubitLayout.for_encoding(encoding)
    n_s = layout.total_qubits
    if return_state:
        check_dense_bytes(16 << n_s, f"a {n_s}-qubit post-measurement state")
    dim = h.space.dimension
    if initial_state is None:
        psi = np.eye(1, dim)[0]
    else:
        psi = np.asarray(initial_state, dtype=complex)
        norm = np.linalg.norm(psi) if psi.shape == (dim,) else math.nan
        if not 0.0 < norm < math.inf:
            raise ValueError(f"initial_state must be {dim} finite amplitudes of nonzero norm, "
                             f"got shape {psi.shape} and norm {norm}")
        psi = psi / norm
    if phase_map is not None:
        _check_register(phase_map, t)
    vacuum = initial_state is None and not return_state  # W[0, i] = |<v_i|0>|^2: the sticks
    if backend.kind == "exact":  # the law's bytes, before the phase map's O(D^2) pass
        _check_law(h, t, 1, shots, stick_solve_bytes(h) if vacuum else eigensolve_bytes(h))
    if phase_map is None:
        phase_map = choose_phase_map(h, t)
    code = codespace_indices(encoding, layout)
    leaked = None
    if backend.kind == "exact":
        if vacuum:
            sticks = diagonalize_fcp(h)
            evals, weights = sticks.energies, sticks.intensities
        else:
            evals, evecs = eigensolve(h)
            coeffs = evecs.T @ psi  # <v_i|psi>
            weights = np.abs(coeffs) ** 2
        phases = phase_map.phase(evals)
        probs = _eigenphase_law(phases, weights[None, :], t)
        outcomes = _sample_joint(probs, 1, seed, shots)[0]
    else:
        u, sector = _step_unitary(phase_map, backend, pauli_hamiltonian, code)
        outcomes, _, amps, probs, leaked = _controlled_power_sweep(
            u, np.searchsorted(sector, code), psi[None, :], t, seed, shots)
    spectrum = SampledSpectrum(j_outcomes=outcomes, energies=phase_map.energy(outcomes),
                               phase_map=phase_map, shots=shots, seed=seed,
                               metadata=_run_record(encoding, backend, t, leaked))
    extras: list = [spectrum]
    if return_state:
        j = int(outcomes[-1])
        if backend.kind == "exact":
            # sum_i <v_i|psi> A_i(j) v_i, scattered from the code space
            ratio, angle = _fejer(phases, j, 2**t)
            post, basis = evecs @ (coeffs * ratio * np.exp(1j * angle)), code
        else:
            post, basis = amps[j, 0, :], sector
        state = np.zeros(1 << n_s, dtype=complex)
        state[basis] = post / np.linalg.norm(post)
        extras.append(state)
    if return_distribution:
        extras.append(probs)
    return tuple(extras) if len(extras) > 1 else spectrum


# -- finite temperature -------------------------------------------------


def thermal_angles(problem: VibronicProblem, beta: float) -> np.ndarray:
    """Two-mode squeezing angles: tanh(theta/2) = exp(-beta w / 2), finite below 1."""
    with np.errstate(over="ignore"):  # a huge beta sends -beta w to -inf, and the ratio to 0
        ratio = np.exp(-beta * problem.omega_A / 2.0)
    if not ratio.max() < 1.0:
        raise ValueError(f"beta {beta:g} rounds exp(-beta w / 2) to 1: infinite squeezing angle")
    return 2.0 * np.arctanh(ratio)


def prepare_thermal(
    problem: VibronicProblem, cutoffs: ModeCutoffs, thermal: ThermalConfig
) -> np.ndarray:
    """Thermofield-double amplitudes kappa_n of the pairs |n>_I |n>_S, in Fock order.

    Mode i's squeezer exp(theta_i (a_I^dag a_S^dag - a_I a_S) / 2) keeps its pair
    states |l>|l> invariant, where its generator is the d x d tridiagonal with
    (theta_i / 2)(l + 1) below the diagonal and its negative above: the mode's
    amplitudes are column 0 of its expm.  Modes multiply out with mode 0 slowest,
    and kappa is renormalized; at beta = inf it is exactly e_0.
    """
    kappa = np.ones(1)
    for d, theta in zip(cutoffs.local_dims, thermal_angles(problem, thermal.beta)):
        # gen, gen - gen.T and expm's workspace: traced 80 bytes per entry, RSS 74 at d = 3,000
        check_dense_bytes(80 * d * d, f"a {d}-level two-mode squeezer")
        gen = np.diag((theta / 2.0) * np.arange(1, d), -1)
        kappa = np.multiply.outer(kappa, scipy.linalg.expm(gen - gen.T)[:, 0]).ravel()
    return kappa / np.linalg.norm(kappa)


def run_qpe_thermal(
    problem: VibronicProblem,
    cutoffs: ModeCutoffs,
    t: int,
    shots: int,
    thermal: ThermalConfig,
    encoding_variant: str = "binary",
    backend: EvolutionBackend = EvolutionBackend.exact(),
    seed: int = 0,
    route: str = "qp",
    phase_map: PhaseMap | None = None,
) -> SampledSpectrum:
    """Finite-temperature QPE sampling with the initial-state register.

    Each shot measures both the energy register and the initial-state
    register; the histogram entry is eps_j - E_A(n_I).  The initial register
    is never evolved, so it holds the D code states only, kept in
    basis-index order.  Trotter leakage lives in the system register, which
    is summed over.
    """
    encoding = Encoding(encoding_variant, cutoffs)
    route, h, pauli, phase_map = _problem_hamiltonian(  # the R = D rows' law, checked whole
        problem, cutoffs, t, encoding, backend, route,
        lambda h: _check_law(h, t, h.space.dimension, shots, eigensolve_bytes(h)), phase_map
    )
    code = codespace_indices(encoding, QubitLayout.for_encoding(encoding))
    # register row r holds Fock state register[r]: increasing basis index, so
    # the (j, register) categories keep the order of the full register
    register = np.argsort(code)
    kappa = prepare_thermal(problem, cutoffs, thermal)
    leaked = None
    if backend.kind == "exact":
        evals, evecs = eigensolve(h)
        # row r starts in kappa_k |k>, k = register[r]: W[r, i] = kappa_k^2 |V[k, i]|^2
        weights = np.abs(evecs[register]) ** 2 * kappa[register, None] ** 2
        del evecs
        law = _eigenphase_law(phase_map.phase(evals), weights, t)
        j_out, row = _sample_joint(law, len(code), seed, shots)
    else:
        u, sector = _step_unitary(phase_map, backend, pauli, code)
        rows = np.diag(kappa)[register]
        j_out, row, _, _, leaked = _controlled_power_sweep(
            u, np.searchsorted(sector, code), rows, t, seed, shots)
    levels = cutoffs.all_multi_indices()[register[row]]
    energies = phase_map.energy(j_out) - fock_state_energy(problem, levels)
    return SampledSpectrum(
        j_outcomes=j_out, energies=energies, phase_map=phase_map, shots=shots, seed=seed,
        initial_levels=levels,
        metadata=_run_record(encoding, backend, t, leaked, beta_invcm=thermal.beta, route=route),
    )


def run_qpe_problem(
    problem: VibronicProblem,
    cutoffs: ModeCutoffs,
    t: int,
    shots: int,
    encoding_variant: str = "binary",
    backend: EvolutionBackend = EvolutionBackend.exact(),
    seed: int = 0,
    route: str = "qp",
) -> SampledSpectrum:
    """Problem-level convenience wrapper: build H, map if needed, run QPE."""
    encoding = Encoding(encoding_variant, cutoffs)
    route, h, pauli, phase_map = _problem_hamiltonian(  # run_qpe checks the whole law
        problem, cutoffs, t, encoding, backend, route, lambda h: check_dense_bytes(
            stick_solve_bytes(h), f"the solve of a {h.space.dimension}-state exact QPE law"))
    spectrum = run_qpe(h, encoding, t, shots, backend=backend, seed=seed,
                       pauli_hamiltonian=pauli, phase_map=phase_map)
    spectrum.metadata["route"] = route
    return spectrum
