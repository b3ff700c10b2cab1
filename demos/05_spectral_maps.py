"""Spectrum-mapped companions and the map-equality question.

Replacing h by f(h) inside the companion construction produces an operator
with spectrum f(e_n).  Does f(companion of h) equal companion of f(h)?  A
sufficient condition is the projection identity (x N1^-1 x+) h^l x = h^l x.
With a diagonal h and a one-diagonal x it holds level by level, so the
probes below compare the two companions directly on the ladder cases, where
the equality holds even though the range of x misses the two lowest levels.
A map is any real callable on arrays; the polynomial ones here are numpy's
Polynomial, with coefficients lowest order first.
"""

import numpy as np
from numpy.polynomial import Polynomial

from vcslab import hilbert, intertwine
from vcslab.hilbert import BlockOperator
from vcslab.intertwine import IntertwiningProblem

dim = 60

# --- plain ladder: closed forms under maps ------------------------------------
# every operator is a weighted shift; a lowers by one level, so h and N1 are
# diagonal and their blocks are the diagonals.  The problem holds h = a+ a,
# x = (a+)^2, N1 = x+ x and its window inverse, shared by every map below
problem = intertwine.ladder_problem(dim)
n_op = problem.h.blocks[0]
window = np.s_[: problem.keep]

iso = intertwine.construct_companion(problem)
print("plain ladder, x = (a+)^2:")
print("  N1 equals N^2+3N+2 to",
      f"{hilbert.max_abs((problem.n1.blocks[0] - (n_op*n_op + 3*n_op + 2))[window]):.1e}")
print("  companion equals N+2 to",
      f"{hilbert.max_abs((iso.blocks[0] - (n_op + 2))[window]):.1e}")

squared = intertwine.construct_companion(problem, Polynomial([0, 0, 1]))
ref = (n_op + 2) * (n_op + 2)
print("  f(t)=t^2 companion equals (N+2)^2 to",
      f"{hilbert.max_abs((squared.blocks[0] - ref)[window]):.1e}")

probe = intertwine.power_series_equality_probe(problem, Polynomial([0, 0, 1]))
print(f"  map-equality probe residual: {probe:.1e} (max-norm over the window)")

projector = (problem.x @ problem.n1_inverse @ problem.x.adjoint()).blocks[0][window]
print(f"  x N1^-1 x+ on the window: {projector[:4]} ... "
      "(the two lowest levels are orthogonal to Ran(x))")

# --- deformed ladder ----------------------------------------------------------
q = 0.5
problem_q = intertwine.ladder_problem(dim, q)
n1_dev, companion_dev = intertwine.ladder_closed_forms(
    problem_q, intertwine.construct_companion(problem_q), q
)
print(f"\ndeformed ladder q={q}: closed-form deviations "
      f"N1 {n1_dev:.1e}, companion {companion_dev:.1e}")

f = Polynomial([0.5, 1.0, 0.25])
probe_q = intertwine.power_series_equality_probe(problem_q, f)
print(f"deformed map-equality probe residual: {probe_q:.1e}")

# --- invertible intertwiner: the sufficient condition holds trivially ----------
problem_i = IntertwiningProblem(h=problem.h, x=BlockOperator([1.0 + n_op]))
probe_i = intertwine.power_series_equality_probe(problem_i, Polynomial([0, 0, 1]))
print(f"\ninvertible x = 1 + N: map-equality probe residual {probe_i:.1e}")
