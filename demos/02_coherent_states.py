"""Coherent states on the two-sector space: both families, all properties.

The shift family needs positive, pairwise disjoint spectra and evolves under
the physical propagator; the regulated (delta) family lives over zero-ground
spectra, needs its ad-hoc split-sign evolution, and both are exact
eigenstates of their own lowering operator.
"""

import numpy as np

from vcslab import spectra, hilbert, vcs

dim = 60
eds_seqs = [
    spectra.linear_sequence(dim, 1.0, offset=0.3),
    spectra.linear_sequence(dim, np.sqrt(2.0), offset=0.55),
]

family = vcs.coherent_family("eds", eds_seqs)
intensities, gamma = (1.5, 2.5), 0.8
state = family.states([intensities], [gamma])  # one row: one state
c = state.coefficients[0].ravel()
print(f"shift-family state: norm = {np.linalg.norm(c):.15f}")
print(f"truncation tail bound = {state.tail_bound[0]:.2e}")

# action identity: <psi, H_tau psi> equals a ratio of the coefficient series
h_tau = hilbert.shifted_hamiltonian(eds_seqs)
energy = np.vdot(c, h_tau.matrix @ c).real
closed = np.dot(intensities, state.series_values[0]) / state.norm_const[0]
print(f"\naction identity: <H_tau> = {energy:.12f} vs closed form {closed:.12f}")
print(f"residual = {vcs.action_identity_residuals(state, h_tau)[0]:.2e}")

# temporal stability: evolving in time shifts the phase label
for t in (0.1, 1.0, 10.0):
    resid = vcs.temporal_stability_residuals(state, t)[0]
    print(f"temporal stability, t={t:>4}: residual {resid:.2e}")

# eigenstate of the lowering operator at the same gamma, not at another
matched = vcs.eigenstate_residuals(state, family.lowering_weights([gamma]))[0]
print(f"\neigenstate residual (matched phase):    {matched:.2e}")

witness_seqs = [
    spectra.quon_sequence(50, 0.5, offset=0.3),
    spectra.quon_sequence(50, 0.7, offset=0.55),
]
w_family = vcs.coherent_family("eds", witness_seqs)
w_state = w_family.states([(1.0, 1.0)], [0.4])
mismatched = vcs.eigenstate_residuals(w_state, w_family.lowering_weights([1.4]))[0]
print(f"eigenstate residual (mismatched phase, nonlinear spectra): {mismatched:.2e}")

# --- the regulated family ----------------------------------------------------
zero_ground = [spectra.linear_sequence(dim), spectra.linear_sequence(dim, np.sqrt(2.0))]
d_family = vcs.coherent_family("delta", zero_ground, delta=0.5)
d_state = d_family.states([(1.0, 2.0)], [0.7])
print(f"\nregulated-family state: norm = {np.linalg.norm(d_state.coefficients[0]):.15f}")
# its lowering operator twists the two sectors with opposite phase signs
d_matched = vcs.eigenstate_residuals(d_state, d_family.lowering_weights([0.7]))[0]
print(f"eigenstate residual of its own split-sign lowering operator: {d_matched:.2e}")

own = vcs.temporal_stability_residuals(d_state, 1.0)[0]
physical = vcs.temporal_stability_residuals(d_state, 1.0, evolution="physical")[0]
print(f"stability under its own split-sign evolution: {own:.2e}")
print(f"stability under the physical propagator:      {physical:.2e}  <- not preserved")
