"""Exact Franck-Condon profile of SO2 by direct diagonalization.

Builds the final-surface Hamiltonian in the truncated initial-surface Fock
basis, diagonalizes it, and reads the profile off the vacuum components of
the eigenvectors.  A single displaced mode is checked against the analytic
Poisson progression first.
"""

import math

import numpy as np

from vibronic import (
    ModeCutoffs,
    VibronicProblem,
    bin_spectrum,
    broaden,
    build_hamiltonian,
    bundled_problem,
    diagonalize_fcp,
)
from vibronic.oracle import write_csv

# -- sanity: displaced oscillator gives the Poisson progression ---------

delta = -1.8830
lam = delta**2 / 2
toy = VibronicProblem("displaced", [1000.0], [1000.0], [[1.0]], [delta])
rep = build_hamiltonian(toy, ModeCutoffs((30,)))
sticks = diagonalize_fcp(rep.hamiltonian)
print("displaced-oscillator FCFs vs exp(-lam) lam^n / n!:")
for n in range(5):
    analytic = math.exp(-lam) * lam**n / math.factorial(n)
    print(f"  n={n}:  {sticks.intensities[n]:.6f}  vs  {analytic:.6f}")

# -- the real molecule ---------------------------------------------------

so2 = bundled_problem("so2")
cutoffs = ModeCutoffs((16, 10))
rep = build_hamiltonian(so2, cutoffs)
sticks = diagonalize_fcp(rep.hamiltonian)
print(f"\nSO2 at cutoffs {cutoffs.levels}: {len(sticks.energies)} sticks, "
      f"total intensity {sticks.total_intensity:.9f}")

binned = bin_spectrum(sticks, width=1.0)
broadened = broaden(binned, sigma=100.0)
area = broadened.values.sum() * broadened.grid_step
print(f"broadened area {area:.6f}, grid {broadened.grid[0]:.0f}.."
      f"{broadened.grid[-1]:.0f} cm^-1")

top = np.argsort(sticks.intensities)[::-1][:5]
print("strongest sticks (energy, FCF):")
for i in sorted(top):
    print(f"  {sticks.energies[i]:9.2f}  {sticks.intensities[i]:.4f}")

write_csv("so2_sticks.csv", "energy_cm1,intensity\r\n", sticks.energies, sticks.intensities)
write_csv("so2_broadened.csv", "energy_cm1,density\r\n", broadened.grid, broadened.values)
print("wrote so2_sticks.csv, so2_broadened.csv")
