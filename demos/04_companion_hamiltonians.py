"""Companion Hamiltonians from intertwining operators: the four examples.

Given h and an operator x with [x x+, h] = 0 and invertible N1 = x+ x, the
companion N1^-1 (x+ h x) is Hermitian, weakly intertwined, and isospectral on
the surviving eigenvector images.  Here h is diagonal and x a weighted shift,
so x x+ is diagonal and the commutant hypothesis holds by construction.  Built
here from the two-sector ladder for four choices of (h, x), all
phase-independent by construction.  construct_companion builds the operator,
and certify measures the three conditions on it.
"""

import numpy as np

from vcslab import spectra, hilbert, intertwine

dim = 40
seqs = [spectra.shift(spectra.linear_sequence(dim, w)) for w in (1.0, np.sqrt(2.0))]

labels = {
    1: "h = B+B,       x = B+     (plain partner pair)",
    2: "h = B+B,       x = (B+)^2 (inverse does not cancel)",
    3: "h = B+B,       x = (B+)^3",
    4: "h = (B+)^2B^2, x = B+     (product Hamiltonian)",
}
for which in (1, 2, 3, 4):
    problem = intertwine.example_problem(which, seqs, gamma=0.7)
    cert = intertwine.certify(problem, intertwine.construct_companion(problem))
    print(f"example {which}: {labels[which]}")
    print(
        f"  certificate: hermiticity {cert.alpha_residual:.1e}, "
        f"intertwining {cert.beta_residual:.1e}, eigenvalue transport {cert.gamma_residual:.1e}"
    )
    print(f"  vanishing images at levels {sorted(set(cert.skipped_levels))[:4]}\n")

# example 1 in closed form: the companion is B B+
problem = intertwine.example_problem(1, seqs, gamma=0.7)
companion = intertwine.construct_companion(problem)
b = hilbert.lowering_operator(seqs, 0.7)
gap = (companion - b @ b.adjoint()).max_abs(problem.keep)
print(f"example 1 companion equals B B+ on the window to {gap:.1e}")

# the phase parameter drops out of h and the companion entirely
companion0 = intertwine.construct_companion(intertwine.example_problem(1, seqs, 0.0))
companion3 = intertwine.construct_companion(intertwine.example_problem(1, seqs, 3.1))
drift = (companion0 - companion3).max_abs()
print(f"companion drift between gamma=0 and gamma=3.1: {drift:.1e}")

# the shifted Hamiltonian factorizes through the lowering operator exactly
unshifted = [
    spectra.linear_sequence(16, 1.0, offset=0.3),
    spectra.linear_sequence(16, np.sqrt(2.0), offset=0.55),
]
print(f"ground-shift factorization residual: {intertwine.h_tau_residual(unshifted, 0.7):.1e}")
