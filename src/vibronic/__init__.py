"""Vibronic spectra from truncated Fock-space Hamiltonians.

Classical engine for the QPE-sampling approach to molecular vibronic
spectra: build the final-surface vibrational Hamiltonian in the truncated
initial-surface Fock basis, diagonalize for exact Franck-Condon profiles,
compile to qubit Pauli sums, and emulate the phase-estimation sampling
loop at zero or finite temperature.
"""

from .problem import (
    AnharmonicTerm,
    ModeCutoffs,
    ThermalConfig,
    VibronicProblem,
    bundled_problem,
    duschinsky_J,
    load_problem,
    parse_problem,
    serialize_problem,
    validate,
)
from .fock import ManyBodyOperator, creation, annihilation
from .hamiltonian import HamiltonianBuildReport, build_hamiltonian, ladder_terms
from .oracle import (
    BinnedSpectrum,
    BroadenedSpectrum,
    StickSpectrum,
    bin_spectrum,
    broaden,
    converge_sweep,
    cumulative_fcf_by_level,
    diagonalize_fcp,
    l1_distance,
    rebin,
    spectrum_pipeline,
    thermal_fcp_oracle,
    tv_distance,
)
from .mapping import Encoding, PauliSum, QubitLayout, map_second_quantized, pauli_to_matrix, resource_count
from .qpe import (
    EvolutionBackend,
    PhaseMap,
    SampledSpectrum,
    choose_phase_map,
    prepare_thermal,
    run_qpe,
    run_qpe_problem,
    run_qpe_thermal,
    trotter_unitary,
)

__version__ = "0.1.0"
