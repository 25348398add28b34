"""Exception types shared across the package."""


class HalfGridError(Exception):
    """Base class for domain errors."""


class DepthExceeded(HalfGridError):
    """A dyadic exponent or tree depth went past DEPTH_CAP."""


class NotInE(HalfGridError):
    """Point is 0 or 1, which have no standard dyadic preimage interval."""


class NoConjugate(HalfGridError):
    """[0,1] has no conjugate."""


class SizeMismatch(HalfGridError):
    """Half grids of different sizes cannot be compared or stacked."""


class Incompatible(HalfGridError):
    """Half grid pair fails the column-by-column mark condition."""


class NotAPermutation(HalfGridError):
    """Sequence is not a bijection on 1..k."""


class DegreeMismatch(HalfGridError):
    """Permutation pair has different degrees."""


class UnorientedDiagram(HalfGridError):
    """Operation needs X/O orientation data but the grid is unoriented."""


class TooManyCrossings(HalfGridError):
    """Crossing count exceeds the bracket state-sum cap."""


class ParseError(HalfGridError):
    """Malformed text input; carries a human-readable position."""
