"""Exception types shared across the package, the two input rules they
enforce: DEPTH_CAP, past which DepthExceeded is raised, and the INT token of
integer text, which ParseError refuses otherwise; and Frozen, the base of the
package's immutable values."""

from operator import attrgetter

# A stated input bound of the dyadic layer: a dyadic, an interval or a
# partition that needs an exponent above it raises DepthExceeded, and so do
# trees too deep to be turned into breakpoints, half grids or map values.
DEPTH_CAP = 62

# An integer in input text is an optional "-" and ASCII digits, whitespace
# around its token.  One C-level match checks a text before int(), which also
# takes "_", "+" and non-ASCII digits; a token int() refuses as too long is
# malformed too.
INT = r"-?[0-9]+"


class Frozen:
    """Base of the package's values, immutable once built.

    A subclass's fields are the names annotated in its body, in order.  Its
    __init__ checks and normalises its arguments, then stores every field
    (columns, images, breakpoints, relators, results and notes as tuples)
    with one update of the instance __dict__.  A table derived from the
    fields, such as a half grid's mark rows or a grid's column spans, is a
    cached_property of its class: computed on first read and kept in that
    __dict__.  Only Tree is slotted; it writes its one slot past
    Frozen.__setattr__.  Two values are equal when they are of the same
    class and their fields are equal, hash by their fields, and repr as
    Class(field=value, ...).  Setting or deleting an attribute raises
    FrozenInstanceError, imported only on that path.  Nothing is compiled
    when a subclass is made: it gets its field names, and an equality and a
    hash that close over one attrgetter of them."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)
        key = attrgetter(*cls._fields)

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return key(self) == key(other)
            return NotImplemented

        def __hash__(self):
            return hash(key(self))

        cls.__eq__, cls.__hash__ = __eq__, __hash__

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")


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
