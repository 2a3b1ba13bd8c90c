"""Exception types shared across the package.

Every precondition failure raises a named subclass of ZakbenchError so
callers (and the command line driver) can distinguish configuration
mistakes from genuine numerical assertion failures.
"""

__all__ = [
    "ZakbenchError",
    "DimMismatch",
    "EmptyFamily",
    "SpectrumFail",
    "IndexOutOfWindow",
    "RemovedIndex",
    "WeightVanishesOnGrid",
    "ThetaDomain",
    "ExcludedIndex",
    "SingularNode",
    "ZeroEstimate",
    "BoundViolated",
    "FamilyMismatch",
    "NotMinimal",
    "TailNotExact",
    "NotReproducingPair",
    "NoDependence",
    "HeadDependent",
]


class ZakbenchError(Exception):
    """Base class for all package-specific errors."""


class DimMismatch(ZakbenchError):
    """Vector or matrix dimensions are incompatible."""


class EmptyFamily(ZakbenchError):
    """An operation that needs at least one vector received none."""


class SpectrumFail(ZakbenchError):
    """The eigensolver or SVD did not converge."""


class IndexOutOfWindow(ZakbenchError):
    """A frequency index lies outside the configured window."""


class RemovedIndex(ZakbenchError):
    """The requested index is the removed element of the system."""


class WeightVanishesOnGrid(ZakbenchError):
    """The weight function vanishes at a sample node, so division fails."""


class ThetaDomain(ZakbenchError):
    """Argument outside the validated strip of the theta evaluator."""


class ExcludedIndex(ZakbenchError):
    """The index pair is excluded from this bound check."""


class SingularNode(ZakbenchError):
    """The denominator vanishes at a quadrature node."""


class ZeroEstimate(ZakbenchError):
    """A ladder estimate is zero, so its relative growth is undefined."""


class BoundViolated(ZakbenchError):
    """An empirical lower bound came out non-positive."""


class FamilyMismatch(ZakbenchError):
    """Two families that must align in length or ambient dimension do not."""


class NotMinimal(ZakbenchError):
    """The family is numerically dependent, so no biorthogonal dual exists."""


class TailNotExact(ZakbenchError):
    """The tail family does not span the ambient space with usable margin."""


class NotReproducingPair(ZakbenchError):
    """The two families fail the reproducing identity at the working tolerance."""


class NoDependence(ZakbenchError):
    """Reduction was requested but both heads are linearly independent."""


class HeadDependent(ZakbenchError):
    """The head family must be linearly independent and is not."""
