"""Exception types raised by the library.

Every failure mode that callers are expected to handle gets its own class;
all of them derive from SecondKindError so a bare ``except SecondKindError``
catches any library-level problem without swallowing genuine bugs.
"""

from __future__ import annotations


class SecondKindError(Exception):
    """Base class for all library errors."""


# curve construction

class DegenerateCurve(SecondKindError):
    """Two branch points coincide (or nearly coincide) at the working tolerance."""


class RootFindingFailure(SecondKindError):
    """Polynomial root polishing did not reach the required residual."""


# periods and path integration

class HomologyConstructionFailure(SecondKindError):
    """No chain orientation produced a certified canonical homology basis."""


class QuadratureNonConvergence(SecondKindError):
    """A quadrature could not certify its tolerance: a panel or a leg's piece
    hit the depth or panel cap, or the rounding of x moves a leg's integral
    by more than quad_tol."""


class PathThroughBranchPoint(SecondKindError):
    """Requested integration path cannot be routed around the branch points."""


# theta

class NotSiegelPoint(SecondKindError):
    """Imaginary part of the period matrix is not positive definite, or so
    near singular that a theta sum would need a box beyond ``theta.MAX_RADIUS``."""


# branch point / characteristic correspondence

class AmbiguousMatching(SecondKindError):
    """Theta-ratio matching of odd characteristics to branch points failed."""


class NoGamma(SecondKindError):
    """No odd characteristic annihilates the second winding derivative."""


class GammaCharacteristic(SecondKindError):
    """The distinguished characteristic of the point at infinity is not admissible here."""


# expansion at infinity

class OrderUnderflow(SecondKindError):
    """Truncation bookkeeping left an empty window of known coefficients."""


class IncompatibleSystem(SecondKindError):
    """Least-squares recovery residual exceeded its tolerance."""


# identity checks

class StencilDegenerate(SecondKindError):
    """Bi-differential check point too close to a branch point or to the other point."""
