"""Statevector emulation of the QPE sampling algorithm.

The emulator prepares the encoded vacuum (or a thermofield-double pair at
finite temperature), runs Hadamards + controlled powers of U = exp(-i tau
(H + shift)) + inverse QFT on the energy register, and samples measurement
outcomes with a counter-based deterministic generator.  Energies are decoded
through an explicit affine PhaseMap so every sampled value is exactly
reconstructible from the raw register integer.

The QFT convention is chosen so that phases map positively: the energy
register transform has kernel exp(+2 pi i x j / 2^t), concentrating outcome
j near 2^t * tau * (E + shift) / 2 pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from . import fock
from .fock import ManyBodyOperator
from .hamiltonian import build_hamiltonian, ladder_terms
from .mapping import (
    Encoding,
    PauliSum,
    QubitLayout,
    apply_pauli_string,
    check_dense_bytes,
    codespace_indices,
    map_second_quantized,
)
from .oracle import (DEFAULT_BIN_WIDTH, BinnedSpectrum, StickSpectrum, bin_spectrum,
                     dense_matrix, eigensolve)
from .problem import ModeCutoffs, ThermalConfig, VibronicProblem, fock_state_energy

#: Share of the 2 pi phase window left empty above the highest eigenphase.
PHASE_SAFETY_MARGIN = 0.05

#: Largest energy-register width: the 2^t outcome integers index as int64.
MAX_T = 62

#: Bytes a QPE step holds per entry of its S x S unitary, checked before it is
#: built: up to four complex S x S arrays live at once (U with the eigenvectors
#: and their phased copy, with the Trotter rotation's copies, or with two powers
#: in the squaring ladder), plus BLAS workspace.  Peak RSS over the interpreter's
#: (2 vCPUs, OpenBLAS): 57-65 bytes per entry exact (D = 1,891-3,111), 64 Trotter
#: (S = 1,024-2,048).
STEP_BYTES_PER_ENTRY = 72


class UnsupportedBackendError(ValueError):
    """Raised when the evolution backend cannot represent the problem's Hamiltonian."""


@dataclass(frozen=True)
class PhaseMap:
    """Affine energy-to-phase calibration phi = tau (E + shift) / 2 pi."""

    tau: float
    energy_shift: float
    t: int

    def __post_init__(self) -> None:
        # checked before anything forms 2^t, which for a huge t never finishes
        if not 1 <= self.t <= MAX_T:
            raise ValueError(f"energy-register bits t must be in [1, {MAX_T}], got {self.t}")

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

    The rows are summed dense: CSR row sums add in another order, which moves
    tau, and with it every decoded energy, in the last bits.
    """
    mat = dense_matrix(h)
    diag = mat.diagonal().real
    radii = np.abs(mat).sum(axis=1) - np.abs(diag)
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

        A zero-weight stick at E = 0 keeps bin 0 inside the binned range.
        """
        n = len(self.energies)
        sticks = StickSpectrum(
            energies=np.append(self.energies, 0.0),
            intensities=np.append(np.full(n, 1.0 / max(n, 1)), 0.0),
            metadata={"shots": self.shots, **self.metadata},
        )
        return bin_spectrum(sticks, width)


def shot_uniforms(seed: int, shots: int) -> np.ndarray:
    """Canonical per-shot uniforms from a counter-based Philox stream.

    Shot i always receives position i of the (seed-keyed) stream, so the
    record is bit-identical however the shots are later distributed.
    """
    gen = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    return gen.random(shots)


def _sample_from_probabilities(probs: np.ndarray, seed: int, shots: int) -> np.ndarray:
    cdf = np.cumsum(probs)
    cdf /= cdf[-1]
    return np.searchsorted(cdf, shot_uniforms(seed, shots), side="right")


# -- Trotterized propagation ------------------------------------------


def trotter_step_unitary(ps: PauliSum, dt: float, order: int) -> np.ndarray:
    """Dense unitary of one Trotter substep in the mapper's stable term order.

    Each term's rotation exp(-i theta P) = cos(theta) - i sin(theta) P is
    applied to the rows of the running product, never built as a matrix.
    """
    if ps.max_imag_coeff() > 1e-10:
        raise ValueError("Trotter evolution requires a Hermitian Pauli sum (real coefficients)")
    terms = ps.sorted_terms()
    if order == 2:
        sequence = [(s, c, dt / 2) for s, c in terms + terms[::-1]]
    else:
        sequence = [(s, c, dt) for s, c in terms]
    u = np.eye(1 << ps.n_qubits, dtype=complex)
    for string, coeff, step in sequence:
        theta = float(coeff.real) * step
        u = math.cos(theta) * u - 1j * math.sin(theta) * apply_pauli_string(string, u)
    return u


def trotter_unitary(ps: PauliSum, time: float, order: int, steps: int) -> np.ndarray:
    """Trotterized exp(-i * time * H) using `steps` substeps."""
    step = trotter_step_unitary(ps, time / steps, order)
    return np.linalg.matrix_power(step, steps)


# -- core QPE engine ---------------------------------------------------


def _step_unitary(
    h: ManyBodyOperator,
    phase_map: PhaseMap,
    backend: EvolutionBackend,
    pauli: PauliSum | None,
    code: np.ndarray,
    n_s: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(U, basis, columns) for U = exp(-i tau (H + shift)).

    U acts on the system-register states ``basis`` and Fock state k sits in
    column ``columns[k]``.  The exact propagator never leaves the code space,
    so it is the D x D Fock-space matrix with basis ``code``; the Trotter
    backend evolves the whole 2^n_s register under the mapped Pauli sum,
    where it may leak out of the code space.  The step's byte estimate is
    checked before either is built.
    """
    side = len(code) if backend.kind == "exact" else 1 << n_s
    check_dense_bytes(STEP_BYTES_PER_ENTRY * side * side,
                      f"a {side}-state {backend.kind} QPE step")
    if backend.kind == "exact":
        evals, evecs = eigensolve(h)
        phases = np.exp(-1j * phase_map.tau * (evals + phase_map.energy_shift))
        return (evecs * phases) @ evecs.conj().T, code, np.arange(len(code))
    if pauli is None:
        raise ValueError("trotter backend needs the mapped Pauli-sum Hamiltonian")
    u = trotter_unitary(pauli, phase_map.tau, backend.order, backend.steps)
    u *= np.exp(-1j * phase_map.tau * phase_map.energy_shift)
    return u, np.arange(1 << n_s), code


def _problem_hamiltonian(
    problem: VibronicProblem,
    cutoffs: ModeCutoffs,
    t: int,
    encoding: Encoding,
    backend: EvolutionBackend,
    route: str,
    phase_map: PhaseMap | None = None,
) -> tuple[str, ManyBodyOperator, PauliSum | None, PhaseMap]:
    """(route, H, mapped Pauli sum or None, phase map) for a problem-level run.

    The Trotter backend evolves under the mapped harmonic ladder expansion,
    so anharmonic problems are rejected and the reference H (hence the phase
    map) is the ladder route too: the routes differ near the cutoff.
    """
    pauli = None
    if backend.kind == "trotter":
        if problem.anharmonic:
            raise UnsupportedBackendError(
                "the Trotter backend compiles the harmonic ladder Hamiltonian only; "
                "use the exact backend for anharmonic problems"
            )
        route = "ladder"
        pauli = map_second_quantized(
            ladder_terms(problem), encoding, QubitLayout.for_encoding(encoding)
        )
    h = build_hamiltonian(problem, cutoffs, route=route).hamiltonian
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
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Sample QPE outcomes for an R x D block of initial Fock amplitudes.

    Register row r starts the system in ``rows[r]``, whose Fock state k sits
    in column ``columns[k]`` of U.  E-register value x of the (2^t, R, len(U))
    state holds U^x rows / sqrt(2^t), built by doubling: level k sets values
    [2^k, 2^(k+1)) to values [0, 2^k) times U^(2^k) in one GEMM, (2^t - 1) R
    len(U)^2 multiply-adds in all.  After the inverse QFT the system axis is
    summed and the shots sample the joint (j, row) categories j-major.
    Returns (j, row, amplitudes, joint probabilities)."""
    e_dim = 2**t
    n_rows, dim = len(rows), len(u)
    # every mode has at least two levels, so a register of R Fock states
    # decodes each shot to fewer than R.bit_length() levels
    check_dense_bytes(8 * shots * n_rows.bit_length(), f"{shots} sampled shots")
    check_dense_bytes(16 * e_dim * n_rows * dim,
                      f"a {t}-qubit x {n_rows}-row x {dim}-state QPE state")
    amps = np.zeros((e_dim, n_rows, dim), dtype=complex)
    amps[0][:, columns] = rows / math.sqrt(e_dim)
    flat = amps.reshape(e_dim * n_rows, dim)
    u_power = u
    for k in range(t):
        done = n_rows << k
        np.matmul(flat[:done], u_power.T, out=flat[done : 2 * done])
        if k + 1 < t:
            u_power = u_power @ u_power
    del flat  # a live view would keep the pre-FFT state through abs()**2
    amps = np.fft.ifft(amps, axis=0) * math.sqrt(e_dim)
    joint = (np.abs(amps) ** 2).sum(axis=2).reshape(-1)
    outcomes = _sample_from_probabilities(joint, seed, shots)
    return outcomes // n_rows, outcomes % n_rows, amps, joint


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
    if phase_map is None:
        phase_map = choose_phase_map(h, t)
    _check_register(phase_map, t)
    code = codespace_indices(encoding, layout)
    u, basis, columns = _step_unitary(h, phase_map, backend, pauli_hamiltonian, code, n_s)

    if initial_state is None:
        rows = np.eye(1, len(code))
    else:
        vec = np.asarray(initial_state, dtype=complex)
        rows = (vec / np.linalg.norm(vec))[None, :]
    outcomes, _, amps, probs = _controlled_power_sweep(u, columns, rows, t, seed, shots)
    energies = phase_map.energy(outcomes)
    spectrum = SampledSpectrum(
        j_outcomes=outcomes,
        energies=energies,
        phase_map=phase_map,
        shots=shots,
        seed=seed,
        metadata={
            "encoding": encoding.variant,
            **backend.as_dict(),
            "system_qubits": n_s,
            "t": t,
        },
    )
    if not return_state and not return_distribution:
        return spectrum
    extras: list = [spectrum]
    if return_state:
        post = amps[int(outcomes[-1]), 0, :]
        state = np.zeros(1 << n_s, dtype=complex)
        state[basis] = post / np.linalg.norm(post)
        extras.append(state)
    if return_distribution:
        extras.append(probs)
    return tuple(extras)


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
    """Thermofield-double amplitudes kappa over (initial, system) Fock indices.

    Applies exp(theta_i (a_I^dag a_S^dag - a_I a_S) / 2) per mode via the
    matrix exponential of the truncated two-mode generator, then
    renormalizes.  Amplitudes are diagonal in the pair basis |n>_I |n>_S.
    At beta = inf every angle is 0, so kappa is exactly |0>_I |0>_S.
    """
    thetas = thermal_angles(problem, thermal.beta)
    per_mode = []
    for d, theta in zip(cutoffs.local_dims, thetas):
        a = fock.annihilation(d - 1)
        ad = fock.creation(d - 1)
        gen = (theta / 2.0) * (np.kron(ad, ad) - np.kron(a, a))
        col = scipy.linalg.expm(gen)[:, 0]
        per_mode.append(col.reshape(d, d).real)

    # kappa[n_I, n_S] = prod_i per_mode[i][n_Ii, n_Si], mode 0 slowest
    kappa = per_mode[0]
    for block in per_mode[1:]:
        kappa = np.einsum("ab,cd->acbd", kappa, block).reshape(
            kappa.shape[0] * block.shape[0], kappa.shape[1] * block.shape[1]
        )
    kappa /= np.linalg.norm(kappa)
    return kappa


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
    layout = QubitLayout.for_encoding(encoding)
    n_s = layout.total_qubits

    route, h, pauli, phase_map = _problem_hamiltonian(
        problem, cutoffs, t, encoding, backend, route, phase_map
    )
    code = codespace_indices(encoding, layout)
    u, basis, columns = _step_unitary(h, phase_map, backend, pauli, code, n_s)

    # register row r holds Fock state register[r]: increasing basis index, so
    # the (j, register) categories keep the order of the full register
    register = np.argsort(code)
    rows = prepare_thermal(problem, cutoffs, thermal)[register]
    j_out, row, _, _ = _controlled_power_sweep(u, columns, rows, t, seed, shots)
    levels = cutoffs.all_multi_indices()[register[row]]
    energies = phase_map.energy(j_out) - fock_state_energy(problem, levels)

    return SampledSpectrum(
        j_outcomes=j_out,
        energies=energies,
        phase_map=phase_map,
        shots=shots,
        seed=seed,
        initial_levels=levels,
        metadata={
            "encoding": encoding_variant,
            **backend.as_dict(),
            "beta_invcm": thermal.beta,
            "system_qubits": n_s,
            "t": t,
            "route": route,
        },
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
    route, h, pauli, phase_map = _problem_hamiltonian(
        problem, cutoffs, t, encoding, backend, route
    )
    spectrum = run_qpe(
        h,
        encoding,
        t,
        shots,
        backend=backend,
        seed=seed,
        pauli_hamiltonian=pauli,
        phase_map=phase_map,
    )
    spectrum.metadata["problem"] = problem.label
    spectrum.metadata["route"] = route
    return spectrum
