"""Exception types shared across the package, and the two input rules they
enforce: DEPTH_CAP, past which DepthExceeded is raised, and the INT token of
integer text, which ParseError refuses otherwise."""

# A stated input bound of the dyadic layer: a dyadic, an interval or a
# partition that needs an exponent above it raises DepthExceeded, and so do
# trees too deep to be turned into breakpoints, half grids or map values.
DEPTH_CAP = 62

# An integer in input text is an optional "-" and ASCII digits, whitespace
# around its token.  One C-level match checks a text before int(), which also
# takes "_", "+" and non-ASCII digits; a token int() refuses as too long is
# malformed too.
INT = r"-?[0-9]+"


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
