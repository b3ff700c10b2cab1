"""Numerical laboratory for vector coherent states and companion Hamiltonians.

The library builds coherent-state families on truncated sector-decomposed
spaces from arbitrary discrete spectra, verifies their defining properties
(normalization, action identity, temporal stability, annihilation-eigenstate
relation, resolution of the identity), and constructs isospectral and
spectrum-mapped companion Hamiltonians via intertwining operators, with
numerical certificates for every claim.

Every name lives in its module, and is read from there: ``from vcslab
import hilbert``, then ``hilbert.lowering_operator``.  ``import vcslab``
loads the six library modules below.
"""

from . import errors, hilbert, intertwine, moments, spectra, vcs

__version__ = "0.1.0"
