"""Vibronic problem data model, file ingestion and the dimensionless mode transformation.

A problem bundles everything that defines one electronic transition between
two harmonic (optionally anharmonic) potential energy surfaces: the two
frequency vectors, the Duschinsky rotation, the dimensionless displacement
and an optional list of higher-order force-constant terms.  All energies are
wavenumbers (cm^-1) and hbar = 1 throughout; nothing in the math core ever
converts units.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

#: Boltzmann constant in cm^-1 per Kelvin, used for temperature -> beta conversion.
KB_WAVENUMBER_PER_KELVIN = 0.695034800

#: Orthogonality acceptance/warning thresholds for the Duschinsky matrix.
#: Literature matrices are quoted to 4 decimals, so deviations of ~1e-3 are
#: expected and accepted; anything above 1e-6 is still worth a warning.
ORTHOGONALITY_ACCEPT_TOL = 1e-3
ORTHOGONALITY_WARN_TOL = 1e-6


class ProblemFormatError(ValueError):
    """Raised when a problem file cannot be parsed (syntax or missing fields)."""


class ProblemValidationError(ValueError):
    """Raised when parsed data violates a problem invariant (e.g. dimensions)."""


@dataclass(frozen=True)
class AnharmonicTerm:
    """One monomial k * q_i q_j ... of the anharmonic potential expansion.

    ``indices`` are 0-based mode indices, length 3 (cubic) or 4 (quartic);
    ``coefficient`` is in cm^-1 and multiplies the dimensionless coordinate
    product exactly as listed (no extra multinomial symmetry factors).
    """

    indices: tuple[int, ...]
    coefficient: float

    def __post_init__(self) -> None:
        if len(self.indices) not in (3, 4):
            raise ProblemValidationError(
                f"anharmonic term must have 3 or 4 indices, got {len(self.indices)}"
            )


@dataclass(frozen=True)
class ModeCutoffs:
    """Per-mode maximum occupation levels: the truncated multi-mode Fock space.

    Its states are indexed row-major with mode 0 as the slowest index, so
    the vacuum |0,...,0> always sits at flat index 0.
    """

    levels: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.levels or any(l < 1 for l in self.levels):
            raise ProblemValidationError(f"need one L_max >= 1 per mode, got {self.levels}")

    @classmethod
    def uniform(cls, l_max: int, n_modes: int) -> "ModeCutoffs":
        return cls((l_max,) * n_modes)

    @classmethod
    def one_varied(cls, fixed: dict[int, int], mode: int, l_max: int) -> "ModeCutoffs":
        """``l_max`` on ``mode`` and ``fixed[m]`` on every other mode m."""
        levels = {**fixed, mode: l_max}
        return cls(tuple(levels[m] for m in range(len(levels))))

    @property
    def local_dims(self) -> tuple[int, ...]:
        """Local Hilbert-space dimension per mode, L_max + 1."""
        return tuple(l + 1 for l in self.levels)

    @property
    def dimension(self) -> int:
        """Number of Fock states D, the product of the local dimensions."""
        return math.prod(self.local_dims)

    def all_multi_indices(self) -> np.ndarray:
        """(D, M) array of occupation numbers in flat-index order."""
        return np.indices(self.local_dims).reshape(len(self.levels), -1).T

    def __len__(self) -> int:
        return len(self.levels)


@dataclass(frozen=True)
class ThermalConfig:
    """Inverse temperature in (cm^-1)^-1.  ``beta = inf`` is the T = 0 sentinel."""

    beta: float

    def __post_init__(self) -> None:
        if not (self.beta > 0):
            raise ProblemValidationError(f"beta must be positive (or inf), got {self.beta}")

    @classmethod
    def from_temperature_kelvin(cls, temperature: float) -> "ThermalConfig":
        if temperature < 0:
            raise ProblemValidationError(f"temperature must be >= 0 K, got {temperature}")
        if temperature == 0:
            return cls(beta=math.inf)
        return cls(beta=1.0 / (KB_WAVENUMBER_PER_KELVIN * temperature))

    @property
    def is_zero_temperature(self) -> bool:
        return math.isinf(self.beta)


@dataclass(frozen=True)
class VibronicProblem:
    """One vibronic transition: surfaces A (initial) and B (final).

    ``delta`` is the dimensionless displacement of the final-surface normal
    coordinates (the data-table quantity); the raw Cartesian-like displacement
    d is never materialized.
    """

    label: str
    omega_A: np.ndarray
    omega_B: np.ndarray
    duschinsky_S: np.ndarray
    delta: np.ndarray
    anharmonic: tuple[AnharmonicTerm, ...] = ()

    def __post_init__(self) -> None:
        for name in ("omega_A", "omega_B", "duschinsky_S", "delta"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "anharmonic", tuple(self.anharmonic))

    @property
    def n_modes(self) -> int:
        return len(self.omega_A)


def fock_state_energy(problem: VibronicProblem, levels: np.ndarray) -> np.ndarray:
    """Initial-surface Fock energy E_A(n) = sum_k w_Ak (n_k + 1/2)."""
    return (np.asarray(levels) + 0.5) @ problem.omega_A


@dataclass
class ValidationReport:
    """Outcome of checking all VibronicProblem invariants."""

    passed: bool
    violations: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    orthogonality_deviation: float = 0.0

    def __str__(self) -> str:
        status = "pass" if self.passed else "FAIL"
        lines = [f"validation: {status} (max |S^T S - I| = {self.orthogonality_deviation:.3e})"]
        lines += [f"  violation: {v}" for v in self.violations]
        lines += [f"  warning: {w}" for w in self.warnings]
        return "\n".join(lines)


def validate(problem: VibronicProblem) -> ValidationReport:
    """Check all problem invariants and return a report (never raises)."""
    violations: list[str] = []
    warnings: list[str] = []
    m = problem.omega_A.size

    for name, values, shape in (
        ("omega_A", problem.omega_A, (m,)),
        ("omega_B", problem.omega_B, (m,)),
        ("S", problem.duschinsky_S, (m, m)),
        ("delta", problem.delta, (m,)),
    ):
        if values.shape != shape:
            violations.append(f"{name} has shape {values.shape}, expected {shape}")
        elif not np.all(np.isfinite(values)):
            violations.append(f"{name} must be finite")
    if not all(math.isfinite(t.coefficient) for t in problem.anharmonic):
        violations.append("anharmonic coefficients must be finite")

    if np.any(problem.omega_A <= 0) or (
        problem.omega_B.shape == (m,) and np.any(problem.omega_B <= 0)
    ):
        violations.append("all frequencies must be strictly positive")

    deviation = 0.0
    if problem.duschinsky_S.shape == (m, m):
        gram = problem.duschinsky_S.T @ problem.duschinsky_S
        deviation = float(np.max(np.abs(gram - np.eye(m))))
        if deviation > ORTHOGONALITY_ACCEPT_TOL:
            violations.append(
                f"Duschinsky matrix not orthogonal: max |S^T S - I| = {deviation:.3e} "
                f"> {ORTHOGONALITY_ACCEPT_TOL:.0e}"
            )
        elif deviation > ORTHOGONALITY_WARN_TOL:
            warnings.append(
                f"Duschinsky matrix orthogonal only to {deviation:.3e} "
                "(typical for 4-decimal literature data)"
            )

    for term in problem.anharmonic:
        if any(i < 0 or i >= m for i in term.indices):
            violations.append(
                f"anharmonic term indices {term.indices} out of range [0, {m})"
            )

    return ValidationReport(
        passed=not violations,
        violations=violations,
        warnings=warnings,
        orthogonality_deviation=deviation,
    )


def orthogonalized_S(problem: VibronicProblem) -> np.ndarray:
    """Nearest orthogonal matrix to the stored Duschinsky matrix.

    Literature tables quote S to 4 decimals, so the stored matrix is a
    rounded sample of an exactly orthogonal rotation.  Rebuilding the
    rotation by polar projection (SVD with singular values forced to 1)
    restores the canonical commutation structure that both Hamiltonian
    routes rely on; without it the position and ladder constructions
    disagree by a constant ~ sum_k w_Bk (S S^T - I)_kk / 2.
    """
    u, _, vt = np.linalg.svd(problem.duschinsky_S)
    return u @ vt


def duschinsky_J(problem: VibronicProblem) -> np.ndarray:
    """Dimensionless transformation matrix J = diag(sqrt(w_B)) S diag(1/sqrt(w_A)).

    Uses the orthogonality-repaired S (see ``orthogonalized_S``).
    """
    return (
        np.sqrt(problem.omega_B)[:, None]
        * orthogonalized_S(problem)
        / np.sqrt(problem.omega_A)[None, :]
    )


def duschinsky_J_inv_T(problem: VibronicProblem) -> np.ndarray:
    """Momentum-sector transform diag(1/sqrt(w_B)) S diag(sqrt(w_A)) = (J^T)^-1.

    Built from the same closed form as J (with the repaired S the identity
    (J^T)^-1 = diag(1/sqrt(w_B)) S diag(sqrt(w_A)) is exact, and no
    numerical inversion noise enters).
    """
    return (
        orthogonalized_S(problem)
        * np.sqrt(problem.omega_A)[None, :]
        / np.sqrt(problem.omega_B)[:, None]
    )


def _require(obj: dict, key: str, context: str) -> object:
    if key not in obj:
        raise ProblemFormatError(f"{context}: missing required field '{key}'")
    return obj[key]


def parse_problem(text: str) -> VibronicProblem:
    """Parse a JSON problem file into a validated VibronicProblem.

    Anharmonic term indices are 1-based in the file (matching the usual
    q1 q1 q2 notation) and converted to 0-based here.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(
            f"problem file is not valid JSON (line {exc.lineno}, col {exc.colno}): {exc.msg}"
        ) from exc
    if not isinstance(raw, dict):
        raise ProblemFormatError("problem file must contain a JSON object")

    label = str(_require(raw, "label", "problem"))

    def numeric(key: str) -> np.ndarray:
        value = _require(raw, key, label)
        try:
            return np.asarray(value, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ProblemFormatError(f"{label}: '{key}' is not a numeric array: {exc}") from exc

    omega_a = numeric("omega_A")
    omega_b = numeric("omega_B")
    s_matrix = numeric("S")
    delta = numeric("delta")

    terms = []
    for i, entry in enumerate(raw.get("anharmonic", [])):
        context = f"{label}: anharmonic[{i}]"
        indices = _require(entry, "indices", context)
        coeff = _require(entry, "coeff", context)
        if not all(isinstance(j, int) and j >= 1 for j in indices):
            raise ProblemFormatError(f"{context}: indices must be 1-based positive integers")
        terms.append(AnharmonicTerm(tuple(j - 1 for j in indices), float(coeff)))

    problem = VibronicProblem(
        label=label,
        omega_A=omega_a,
        omega_B=omega_b,
        duschinsky_S=s_matrix,
        delta=delta,
        anharmonic=tuple(terms),
    )
    report = validate(problem)
    if not report.passed:
        raise ProblemValidationError(
            f"{label}: invalid problem: " + "; ".join(report.violations)
        )
    return problem


def serialize_problem(problem: VibronicProblem) -> str:
    """Render a problem back to the JSON file format (inverse of parse_problem)."""
    doc: dict = {
        "label": problem.label,
        "omega_A": problem.omega_A.tolist(),
        "omega_B": problem.omega_B.tolist(),
        "S": problem.duschinsky_S.tolist(),
        "delta": problem.delta.tolist(),
    }
    if problem.anharmonic:
        doc["anharmonic"] = [
            {"indices": [i + 1 for i in term.indices], "coeff": term.coefficient}
            for term in problem.anharmonic
        ]
    return json.dumps(doc, indent=2)


def load_problem(path: str) -> VibronicProblem:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_problem(handle.read())


#: Problems shipped with the package (SI parameter tables).
BUNDLED_PROBLEMS = ("so2", "h2o", "d2o", "no2", "so2_anharmonic")


def bundled_problem(name: str) -> VibronicProblem:
    """Load one of the shipped literature problems by short name."""
    if name not in BUNDLED_PROBLEMS:
        raise KeyError(f"unknown bundled problem {name!r}; choose from {BUNDLED_PROBLEMS}")
    text = resources.files("vibronic.data").joinpath(f"{name}.json").read_text()
    return parse_problem(text)
