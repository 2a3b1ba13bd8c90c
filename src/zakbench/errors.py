"""Exception types shared across the package.

Every precondition failure raises a named subclass of ZakbenchError so
callers (and the command line driver) can distinguish configuration
mistakes from genuine numerical assertion failures.  The numerical
failures share the base class NumericalFailure: they are raised when
valid input meets a computation that does not hold at the working
tolerance, such as a singular operator or an unconverged SVD.
"""

__all__ = [
    "ZakbenchError",
    "NumericalFailure",
    "DimMismatch",
    "EmptyFamily",
    "SpectrumFail",
    "IndexOutOfWindow",
    "RemovedIndex",
    "WeightVanishesOnGrid",
    "ThetaDomain",
    "ExcludedIndex",
    "SingularNode",
    "FamilyMismatch",
    "TailNotExact",
    "NotReproducingPair",
    "NoDependence",
    "HeadDependent",
]


class ZakbenchError(Exception):
    """Base class for all package-specific errors."""


class NumericalFailure(ZakbenchError):
    """Base class for numerical assertion failures on valid input."""


class DimMismatch(ZakbenchError):
    """Vector or matrix dimensions are incompatible."""


class EmptyFamily(ZakbenchError):
    """An operation that needs at least one vector received none."""


class SpectrumFail(NumericalFailure):
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


class SingularNode(NumericalFailure):
    """The denominator vanishes at a quadrature node."""


class FamilyMismatch(ZakbenchError):
    """Two families that must align in length or ambient dimension do not."""


class TailNotExact(NumericalFailure):
    """The tail family does not span the ambient space with usable margin."""


class NotReproducingPair(NumericalFailure):
    """The two families fail the reproducing identity at the working tolerance."""


class NoDependence(NumericalFailure):
    """Reduction was requested but both heads are linearly independent."""


class HeadDependent(ZakbenchError):
    """The head family must be linearly independent and is not."""
