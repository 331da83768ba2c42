"""Finite-temperature spectra via thermofield-double purification.

A two-mode-squeezing unitary entangles an initial-state register with the
system register so that tracing one out leaves the Gibbs state.  Measuring
both the energy and initial-state registers gives hot-band contributions at
eps_j - E_A(n_I), producing intensity below the 0-0 line.
"""

import math

import numpy as np

from vibronic import ModeCutoffs, ThermalConfig, VibronicProblem, thermal_fcp_oracle
from vibronic.qpe import prepare_thermal, run_qpe_thermal

mode = VibronicProblem("single-mode", [500.0], [500.0], [[1.0]], [1.0])
thermal = ThermalConfig.from_temperature_kelvin(300.0)
print(f"beta = {thermal.beta:.5f} (cm^-1)^-1 at 300 K")

# thermofield pair amplitudes: kappa_n^2 follows the Boltzmann distribution
weights = prepare_thermal(mode, ModeCutoffs((9,)), thermal) ** 2
boltzmann = math.exp(-thermal.beta * 500.0)
print("kappa_n^2 vs (1 - q) q^n with q = exp(-beta w):")
for n in range(4):
    print(f"  n={n}: {weights[n]:.6f} vs {(1 - boltzmann) * boltzmann**n:.6f}")

# sampled finite-temperature spectrum vs the classical thermal oracle
spec = run_qpe_thermal(mode, ModeCutoffs((7,)), t=12, shots=50000,
                       thermal=thermal, seed=5)
print(f"\n{spec.shots} shots; initial-register marginals:")
counts = np.bincount(spec.initial_levels[:, 0], minlength=4)[:4]
for n, c in enumerate(counts):
    print(f"  n_I={n}: {c / spec.shots:.4f}")

# count mass well below the 0-0 line (beyond the QPE kernel tails of the
# bright 0-0 stick); the first hot band sits at -500 cm^-1
oracle_sticks = thermal_fcp_oracle(mode, ModeCutoffs((7,)), thermal)
hot_oracle = oracle_sticks.intensities[oracle_sticks.energies < -100].sum()
hot_sampled = (spec.energies < -100).mean()
print(f"\nhot-band mass below -100 cm^-1: oracle {hot_oracle:.4f}, "
      f"sampled {hot_sampled:.4f}")
