"""Numerical failures, the one exception family the package defines.

The command line driver splits errors two ways.  Bad input, such as a
malformed file, an index outside its window or a parameter outside its
range, raises a plain ValueError and exits 1.  Valid input that meets a
computation which does not hold at the working tolerance raises a
NumericalFailure subclass and exits 2, as does numpy's LinAlgError when
a LAPACK routine fails (an SVD that does not converge, a singular
solve).
"""

__all__ = [
    "NumericalFailure",
    "SingularNode",
    "TailNotExact",
    "NotReproducingPair",
    "NoDependence",
]


class NumericalFailure(Exception):
    """Base class for numerical assertion failures on valid input."""


class SingularNode(NumericalFailure):
    """The denominator vanishes at a quadrature node."""


class TailNotExact(NumericalFailure):
    """The tail family does not span the ambient space with usable margin."""


class NotReproducingPair(NumericalFailure):
    """The mixed operator of the two families is numerically singular."""


class NoDependence(NumericalFailure):
    """Reduction was requested but both heads are linearly independent."""
