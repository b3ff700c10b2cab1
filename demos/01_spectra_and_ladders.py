"""Spectra and ladder realizations.

Builds eigenvalue sequences (equally spaced, deformed, explicit), shifts them
to zero ground level, inspects factorial products and the intensities whose
coefficient series a truncation controls, and realizes the phase-twisted
lowering operators on the two-sector space.
"""

import numpy as np

from vcslab import errors, spectra, hilbert, vcs

# --- eigenvalue sequences ----------------------------------------------------
linear = spectra.linear_sequence(12, omega=1.0, offset=0.3)
deformed = spectra.quon_sequence(12, q=0.5)
explicit = spectra.make_sequence([0.1, 0.9, 2.2, 4.0, 6.3])

print("linear spectrum:  ", np.round(linear.values[:6], 3), "...")
print("deformed spectrum:", np.round(deformed.values[:6], 4), "...")
print("explicit spectrum:", explicit.values)

# shifting subtracts the ground level; factorial products live on the shifts
shifted = spectra.shift(linear)
cache = spectra.factorials(shifted)
print("\nshifted values:   ", np.round(shifted.values[:6], 3), "...")
print("running products: ", np.round(np.exp(cache.log_products[:6]), 3), "...")
print("their logs:       ", np.round(cache.log_products[:6], 3), "...")

# the series sum J^k / e~[k]! is bounded for J below the top shifted level
# e~[D-1], never above the radius lim e~[n]; from there on no bound exists
bounded = spectra.shift(spectra.quon_sequence(50, 0.5))  # radius 2
for j in (1.9, 2.5):
    try:
        value, tail = vcs.series_norm(bounded, j)
        print(f"deformed q=0.5 series at J={j}: {value:.6f}, tail bound {tail:.2e}")
    except errors.TailTooLargeError as exc:
        print(f"deformed q=0.5 series at J={j}: {exc}")

# disjointness scan between two spectra
other = spectra.linear_sequence(12, omega=np.sqrt(2.0), offset=0.55)
report = spectra.eds_check(linear, other)
print(f"\ndisjoint spectra: {report.disjoint} (min gap {report.min_gap:.3f} at pair {report.pair})")

# --- ladder realizations -----------------------------------------------------
# two-sector lowering operator with phase twist gamma
gamma = 0.7
seqs = [spectra.shift(linear), spectra.shift(other)]
b = hilbert.lowering_operator(seqs, gamma)
# every block is a weighted shift: B lowers by one level (offset -1) and
# stores one weight per level it moves
print(f"\nlowering operator at offset {b.offset}, sector 0 weights:")
print(np.round(b.blocks[0][:4], 3), "...")
print("sector 0 block, first 4x4 of the dense export:")
print(np.round(b.matrix[:4, :4], 3))

# B+ B is diagonal (offset 0) with the shifted eigenvalues on every sector
diag = (b.adjoint() @ b).blocks[0].real
print("B+B diagonal head:", np.round(diag[:6], 3))

# plain and deformed single-sector ladders: their commutation relations
# hold exactly below the top level
boson = hilbert.quon_ladder(8, 1.0)
quon = hilbert.quon_ladder(8, 0.5)
commutator = (boson @ boson.adjoint() - boson.adjoint() @ boson).blocks[0] - 1.0
qmutator = (quon @ quon.adjoint()).blocks[0] - 0.5 * (quon.adjoint() @ quon).blocks[0] - 1.0
print("\nplain ladder commutator defect (interior, top):",
      hilbert.max_abs(commutator[:-1]), commutator[-1])
print("deformed ladder relation defect (interior):", hilbert.max_abs(qmutator[:-1]))

# first-order differential ladder on a grid; [a, a+] tracks 2c W'(x)
grid = hilbert.GridSpec(-10.0, 10.0, 512)
ladder = hilbert.grid_ladder(lambda x: x, grid)
print("grid ladder commutator probe residual:",
      f"{ladder.commutator_residual:.2e} (second order in dx)")
