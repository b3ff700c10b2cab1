"""Resolution of the identity from closed-form moments, and why the regulator matters.

The coherent-state projector, integrated against verified moment weights and
a long-horizon phase average, reassembles the identity.  The gamma weights'
moments are closed forms, so the diagonal deviations are rounding alone;
off-diagonal deviations decay like one over the horizon.  At zero regulator
the two-sector family provably fails: the ground-ground cross entry survives
the phase average at full strength.
"""

import numpy as np

from vcslab import spectra, moments, vcs

dim = 24
seqs = [
    spectra.linear_sequence(dim, 1.0, offset=0.3),
    spectra.linear_sequence(dim, np.sqrt(2.0), offset=np.sqrt(2.0) / 2),
]
weights = [
    moments.MomentWeight.gamma_family(1.0),
    moments.MomentWeight.gamma_family(np.sqrt(2.0)),
]

# the weights must reproduce the factorial products as moments
errs = moments.verify_moments(weights[0], seqs[0], k_max=12)
print("moment verification, sector 0, max relative error:", f"{errs.max():.2e}")

# the horizon-independent work (moments, half-moments, factorials) is done once
assembly = moments.resolution_assembly(vcs.coherent_family("eds", seqs), weights)
# the phase average is 1 on the diagonal, so the diagonal error is the same
# at every horizon: the moment errors, rounding alone
print(f"\ndiagonal error (every horizon): {assembly.diag_error:.3e}")
print("horizon      off-diagonal err")
for horizon in (1e2, 1e3, 1e4):
    print(f"{horizon:>8.0e}   {assembly.report(horizon).offdiag_error:.3e}")
print("(off-diagonal ~ 1/horizon)")

# single-mode phase-average oracle: the trapezoid mean matches sinc
theta, horizon = 0.8, 1e3
value = moments.cesaro_phase_average(np.array([theta]), horizon, 1e-3)[0]
print(f"\nphase-average oracle: {value:.6e} vs sinc {np.sin(theta*horizon)/(theta*horizon):.6e}")

# --- the zero-regulator failure ----------------------------------------------
# the ground-ground cross entry is the product of the two zeroth weight
# moments (1 for every verified weight) times the phase average at its
# frequency difference, -2 delta for the delta family's equal grounds: at
# zero regulator it is 1 at every horizon, and no entry is larger
zero_ground = [spectra.linear_sequence(16), spectra.linear_sequence(16)]
unit_weights = [moments.MomentWeight.gamma_family(1.0)] * 2
print("\nregulator   horizon   off-diagonal err")
for delta in (None, 0.5):
    family = vcs.coherent_family("delta", zero_ground, delta)
    delta_assembly = moments.resolution_assembly(family, unit_weights)
    for horizon in (1e2, 1e4):
        print(f"{delta or 0.0:>6.1f}   {horizon:>8.0e}   {delta_assembly.report(horizon).offdiag_error:.6e}")
print("(at zero regulator the error is frozen at 1: a decay exponent of 0; any positive value decays)")
