"""Grid-realized ladder: a = c d/dx + W(x), and its companion's closed form.

The ladder is staggered: it maps the grid's nodes to its bond midpoints, so
h = a+ a and N1 = a a+ are an exact SUSY pair, the nonzero eigenvalues of h
being those of N1, and N1 is invertible.  The companion N1^-1 a f(h) a+ of
f(h) is then f(N1), and for a strictly increasing superpotential N1 equals
T = b+ b + 2 c W'(x) on the bonds (b the same ladder one level down) up to
discretization error.  Both the commutator diagnostic, a a+ - T on smooth
probes, and the companion comparison, f(N1) - f(T) on the lowest modes of
N1, shrink at second order in the grid step; the fitted exponents confirm it.
"""

from vcslab import hilbert, intertwine

print("linear superpotential W(x) = x on [-12, 12]:")
reports = []
for n in (256, 512, 1024):
    grid = hilbert.GridSpec(-12.0, 12.0, n)
    report = intertwine.grid_partner_comparison(lambda x: x, grid, n_modes=32)
    reports.append(report)
    print(f"  {n:>5} points: dx={report.dx:.4f}  commutator {report.commutator_residual:.2e}"
          f"  comparison {report.comparison_residual:.2e}")

dxs = [r.dx for r in reports]
print("fitted scaling exponents:",
      f"commutator {intertwine.fit_power_law(dxs, [r.commutator_residual for r in reports]):.3f},",
      f"comparison {intertwine.fit_power_law(dxs, [r.comparison_residual for r in reports]):.3f}")

print("\nconfining anharmonic superpotential W(x) = x + 0.1 x^3 on [-9, 9]:")
reports = []
for n in (256, 512, 1024):
    grid = hilbert.GridSpec(-9.0, 9.0, n)
    report = intertwine.grid_partner_comparison(lambda x: x + 0.1 * x**3, grid, n_modes=24)
    reports.append(report)
    print(f"  {n:>5} points: comparison residual {report.comparison_residual:.2e}")
dxs = [r.dx for r in reports]
print("fitted comparison exponent:",
      f"{intertwine.fit_power_law(dxs, [r.comparison_residual for r in reports]):.3f}")

print("\nquadratic spectral map on the linear case:")
for n in (256, 512):
    grid = hilbert.GridSpec(-12.0, 12.0, n)
    report = intertwine.grid_partner_comparison(lambda x: x, grid, coeffs=(0, 0, 1), n_modes=24)
    print(f"  {n:>5} points: comparison residual {report.comparison_residual:.2e}")
