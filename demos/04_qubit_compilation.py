"""Compile truncated oscillator operators to qubit Pauli sums.

Shows both level encodings, verifies a mapped operator against its matrix
on the encoded subspace, and counts terms for the quadratic-scaling check.
"""

import numpy as np

from vibronic import fock
from vibronic.hamiltonian import ladder_terms
from vibronic.mapping import (
    Encoding,
    QubitLayout,
    codespace_indices,
    map_second_quantized,
    map_single_mode,
    pauli_to_matrix,
    resource_count,
)
from vibronic.problem import ModeCutoffs, VibronicProblem, bundled_problem

# -- a single creation operator under both encodings --------------------

cutoffs = ModeCutoffs((3,))
for variant in ("binary", "unary"):
    enc = Encoding(variant, cutoffs)
    layout = QubitLayout.for_encoding(enc)
    ps = map_single_mode(fock.creation(3), 0, enc, layout)
    print(f"{variant}: creation(3) on {layout.total_qubits} qubits, {len(ps)} Pauli terms")
    for string, coeff in ps.sorted_terms()[:4]:
        print(f"   ({coeff.real:+.4f}{coeff.imag:+.4f}j) * {string}")

    # round trip: restrict the 2^N matrix to the code space
    m = pauli_to_matrix(ps)
    code = codespace_indices(enc, layout)
    err = np.abs(m[np.ix_(code, code)] - fock.creation(3)).max()
    print(f"   round-trip error on code space: {err:.2e}")

# -- whole Hamiltonian and its size --------------------------------------

so2 = bundled_problem("so2")
terms = ladder_terms(so2)
print(f"\nSO2 ladder expansion: {len(terms)} second-quantized terms "
      f"(4M^2 + 2M + 1 = {4*4 + 2*2 + 1} for M=2)")

enc = Encoding("unary", ModeCutoffs((4, 4)))
layout = QubitLayout.for_encoding(enc)
pauli = map_second_quantized(terms, enc, layout)
report = resource_count(pauli)
print(f"unary, L_max=4: {len(pauli)} Pauli terms on {layout.total_qubits} qubits, "
      f"greedy depth {report.greedy_depth}")
print(f"weight histogram: {report.weight_histogram}")

# term count grows as M^2 with mode count
rng = np.random.default_rng(1)
print("\nsecond-quantized term count vs mode count:")
for m in range(2, 7):
    q, r = np.linalg.qr(rng.normal(size=(m, m)))
    s = q * np.sign(np.diag(r))
    prob = VibronicProblem(f"random-{m}", rng.uniform(400, 1500, m),
                           rng.uniform(400, 1500, m), s, rng.uniform(-2, 2, m))
    print(f"  M={m}: {len(ladder_terms(prob))} terms (4M^2+2M+1 = {4*m*m+2*m+1})")
