"""Resolution of the identity by quadrature, and why the regulator matters.

The coherent-state projector, integrated against verified moment weights and
a long-horizon phase average, reassembles the identity.  Diagonal deviations
are quadrature-limited; off-diagonal deviations decay like one over the
horizon.  At zero regulator the two-sector family provably fails: the
ground-ground cross entry survives the phase average at full strength.
"""

import numpy as np
from numpy.polynomial.laguerre import laggauss

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
errs = moments.verify_moments(weights[0].quadrature(laggauss(40)), seqs[0], k_max=12)
print("moment verification, sector 0, max relative error:", f"{errs.max():.2e}")

# the horizon-independent work (rule, moments, half-moments) is done once
assembly = moments.resolution_assembly(vcs.coherent_family("eds", seqs), weights, n_nodes=40)
# the phase average is 1 on the diagonal, so the diagonal error is the same
# at every horizon: the quadrature floor
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
# frequency difference, -2 delta for the delta family's equal grounds
zero_ground = vcs.coherent_family("delta", [spectra.linear_sequence(16), spectra.linear_sequence(16)])
print("\nregulator   horizon   cross-entry phase average")
for delta in (0.0, 0.5):
    for horizon in (1e2, 1e4):
        average = moments.cross_phase_average(zero_ground, horizon, delta)
        print(f"{delta:>6.1f}   {horizon:>8.0e}   {average:.6e}")
print("(at zero regulator the entry is frozen at 1; any positive value decays)")
