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
shifted = [spectra.shift(s) for s in eds_seqs]

params = vcs.VcsParams(intensities=(1.5, 2.5), gamma=0.8)
state = vcs.eds_family_state(eds_seqs, params)
print(f"shift-family state: norm = {state.vector.norm():.15f}")
print(f"truncation tail bound = {state.tail_bound:.2e}")

# action identity: <psi, H_tau psi> equals a ratio of the coefficient series
h_tau = hilbert.shifted_hamiltonian(eds_seqs)
energy = state.vector.inner(h_tau.apply(state.vector)).real
closed = sum(j * m for j, m in zip(params.intensities, state.series_values)) / state.norm_const
print(f"\naction identity: <H_tau> = {energy:.12f} vs closed form {closed:.12f}")
print(f"residual = {vcs.action_identity_residual(state, h_tau):.2e}")

# temporal stability: evolving in time shifts the phase label
for t in (0.1, 1.0, 10.0):
    resid = vcs.temporal_stability_residual(state, t)
    print(f"temporal stability, t={t:>4}: residual {resid:.2e}")

# eigenstate of the lowering operator at the same gamma, not at another
matched = vcs.eigenstate_residual(state, hilbert.lowering_operator(shifted, params.gamma))
print(f"\neigenstate residual (matched phase):    {matched:.2e}")

witness_seqs = [
    spectra.quon_sequence(50, 0.5, offset=0.3),
    spectra.quon_sequence(50, 0.7, offset=0.55),
]
w_state = vcs.eds_family_state(witness_seqs, vcs.VcsParams((1.0, 1.0), 0.4))
w_shifted = [spectra.shift(s) for s in witness_seqs]
mismatched = vcs.eigenstate_residual(
    w_state, hilbert.lowering_operator(w_shifted, 1.4)
)
print(f"eigenstate residual (mismatched phase, nonlinear spectra): {mismatched:.2e}")

# --- the regulated family ----------------------------------------------------
zero_ground = [spectra.linear_sequence(dim), spectra.linear_sequence(dim, np.sqrt(2.0))]
d_params = vcs.VcsParams((1.0, 2.0), 0.7, delta=0.5)
d_state = vcs.delta_family_state(zero_ground, d_params)
print(f"\nregulated-family state: norm = {d_state.vector.norm():.15f}")

own = vcs.temporal_stability_residual(d_state, 1.0)
physical = vcs.temporal_stability_residual(d_state, 1.0, evolution="physical")
print(f"stability under its own split-sign evolution: {own:.2e}")
print(f"stability under the physical propagator:      {physical:.2e}  <- not preserved")
