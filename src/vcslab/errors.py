"""Exception types shared across the library.

Every precondition failure raises a dedicated class so callers (and the
experiment runner) can distinguish bad input from a failed numerical check.
"""


class VcsLabError(ValueError):
    """Base class for all vcslab argument / precondition errors."""


class NonMonotoneError(VcsLabError):
    """Eigenvalue sequence is not strictly increasing."""


class NegativeGroundError(VcsLabError):
    """Lowest eigenvalue of a sequence is negative."""


class LengthMismatchError(VcsLabError):
    """Per-sector inputs do not share a common truncation size."""


class RegimeError(VcsLabError):
    """Input sequence belongs to the wrong ground-level regime (zero vs positive)."""


class BadDeformationError(VcsLabError):
    """Deformation parameter q outside the admissible interval (0, 1]."""


class NonPositiveDerivativeError(VcsLabError):
    """Superpotential derivative is not strictly positive on the grid."""


class GridOverflowError(VcsLabError):
    """The grid ladder's entries, or a map of ``a a+``, would leave the normal float range."""


class ProbeCountError(VcsLabError):
    """A grid comparison asks for more probes than ``N1`` has modes on the bonds, or for none."""


class OutOfDiscError(VcsLabError):
    """A negative intensity J, outside the convergence disc of the coefficient series."""


class TailTooLargeError(VcsLabError):
    """No geometric bound on the truncated series tail exists at this truncation."""


class SpectraNotDisjointError(VcsLabError):
    """Two spectra collide within tolerance where disjointness is required."""


class DimensionMismatchError(VcsLabError):
    """Operands live on different truncated spaces."""


class NonPositiveDeltaError(RegimeError):
    """The delta family called with a regulator delta <= 0."""


class HypothesisViolatedError(VcsLabError):
    """A hypothesis of the companion construction fails: ``h`` is not diagonal
    or ``N1`` is not invertible on the window."""


class ConfigError(VcsLabError):
    """Experiment configuration failed to parse or validate."""
