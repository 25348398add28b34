"""Half grid diagrams, their assembly into grids, and the Sym(2n) codec.

Rows are indexed bottom to top, columns left to right, both 1-based, so the
lower-left cell is (1,1).  A half grid stores the X and O column of each
row; a grid diagram does the same but keeps an `oriented` flag: unoriented
grids reuse the coordinates with every mark read as the same symbol.
"""

from __future__ import annotations

import re
from functools import cached_property

from .errors import (
    DEPTH_CAP, INT, DepthExceeded, Frozen, Incompatible, NotAPermutation, ParseError,
    SizeMismatch,
)
from .thompson import Tree

TYPE_CHECKING = False  # type checkers read True; `typing` stays unloaded
if TYPE_CHECKING:
    from .dyadic import SdPartition

_PERMUTATION = re.compile(rf"\s*(?:{INT}\s+)*(?:{INT})?")
_COLUMNS = re.compile(rf"\s*{INT}\s*(?:,\s*{INT}\s*)*")
_SIZE = re.compile(INT)  # the n field, already stripped


def _unchecked(cls, **attrs):
    """A cls value built valid by construction from its fields; skips the
    checks parsed and user-built values get."""
    value = object.__new__(cls)
    value.__dict__.update(attrs)
    return value


class HalfGrid(Frozen):
    """n rows by 2n columns; one X and one O per row, one mark per column."""

    n: int
    x_cols: tuple[int, ...]
    o_cols: tuple[int, ...]

    def __init__(self, n: int, x_cols: tuple[int, ...], o_cols: tuple[int, ...]):
        if len(x_cols) != n or len(o_cols) != n:
            raise ValueError("need one X and one O column per row")
        if not n:
            raise ValueError("a half grid needs at least one row")
        x_cols, o_cols = tuple(x_cols), tuple(o_cols)
        if sorted(x_cols + o_cols) != list(range(1, 2 * n + 1)):
            raise ValueError("columns must be a permutation of 1..2n")
        self.__dict__.update(n=n, x_cols=x_cols, o_cols=o_cols)

    def column_marks(self) -> tuple[str, ...]:
        """Mark type per column, 'X' or 'O'."""
        marks = [""] * (2 * self.n)
        for c in self.x_cols:
            marks[c - 1] = "X"
        for c in self.o_cols:
            marks[c - 1] = "O"
        return tuple(marks)

    def column_row(self, c: int) -> int:
        """Row of the single mark in column c."""
        if not 1 <= c <= 2 * self.n:
            raise ValueError(f"column {c} out of range")
        return self._mark_rows[c - 1]

    @cached_property
    def _mark_rows(self) -> tuple[int, ...]:
        """The row of each column's mark, found on first read and kept."""
        rows = [0] * (2 * self.n)
        for r, (x, o) in enumerate(zip(self.x_cols, self.o_cols), start=1):
            rows[x - 1] = rows[o - 1] = r
        return tuple(rows)

    def __str__(self) -> str:
        return format_half_grid(self)


class GridDiagram(Frozen):
    """size x size grid; one X and one O per row; oriented flag."""

    size: int
    x_cols: tuple[int, ...]
    o_cols: tuple[int, ...]
    oriented: bool

    def __init__(self, size: int, x_cols: tuple[int, ...], o_cols: tuple[int, ...],
                 oriented: bool = True):
        if len(x_cols) != size or len(o_cols) != size:
            raise ValueError("need one X and one O column per row")
        if not size:
            raise ValueError("a grid needs at least one row")
        x_cols, o_cols = tuple(x_cols), tuple(o_cols)
        for x, o in zip(x_cols, o_cols):
            if x == o or not (1 <= x <= size and 1 <= o <= size):
                raise ValueError("row marks must be distinct columns in range")
        cols = list(range(1, size + 1))
        if oriented:
            if sorted(x_cols) != cols or sorted(o_cols) != cols:
                raise ValueError("each column needs exactly one X and one O")
        elif sorted(x_cols + o_cols) != sorted(cols * 2):
            raise ValueError("each column needs exactly two marks")
        self.__dict__.update(size=size, x_cols=x_cols, o_cols=o_cols, oriented=oriented)

    def column_rows(self, c: int) -> tuple[int, int]:
        """The two rows holding marks in column c, ascending."""
        if not 1 <= c <= self.size:
            raise ValueError(f"column {c} out of range")
        return self._spans[c - 1]

    @cached_property
    def _spans(self) -> tuple[tuple[int, int], ...]:
        """The two rows of each column's marks, ascending, found on first
        read and kept: a column's top row is the last one to write it going
        up, its bottom row the last one going down."""
        lo = [0] * (self.size + 1)  # indexed by column; index 0 is unused
        hi = [0] * (self.size + 1)
        rows = range(1, self.size + 1)
        for r, x, o in zip(rows, self.x_cols, self.o_cols):
            hi[x] = hi[o] = r
        for r, x, o in zip(reversed(rows), reversed(self.x_cols), reversed(self.o_cols)):
            lo[x] = lo[o] = r
        return tuple(zip(lo[1:], hi[1:]))

    def unoriented(self) -> "GridDiagram":
        """The same marks read as one symbol.  A valid grid, oriented or
        not, has two marks in every column, so the result needs no re-check."""
        return _unchecked(GridDiagram, size=self.size, x_cols=self.x_cols,
                          o_cols=self.o_cols, oriented=False)

    def __str__(self) -> str:
        return format_grid(self)


class Permutation(Frozen):
    """One-line notation on 1..k."""

    images: tuple[int, ...]

    def __init__(self, images: tuple[int, ...]):
        if sorted(images) != list(range(1, len(images) + 1)):
            raise NotAPermutation(f"{images} is not a bijection on 1..{len(images)}")
        self.__dict__.update(images=tuple(images))

    @property
    def degree(self) -> int:
        return len(self.images)

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for i, v in enumerate(self.images, start=1):
            inv[v - 1] = i
        return Permutation(tuple(inv))

    def __str__(self) -> str:
        return " ".join(str(v) for v in self.images)


def parse_permutation(text: str) -> Permutation:
    return Permutation(_parse_ints(text, _PERMUTATION, "permutation"))


def half_grid_from_tree(t: Tree) -> HalfGrid:
    """The canonical half grid of a tree's partition, from one integer scan.

    An interval [k/2^m, (k+1)/2^m] is its heap id (1 << m) | k, the form
    in which the tree holds its leaves: the parent is id >> 1, the sibling
    id ^ 1, and the sign is '+' when the id has an odd number of 1-bits.
    The spanning intervals in midpoint order are the in-order walk: each
    leaf, then the caret whose midpoint is the leaf's right end, found by
    dropping the trailing 1-bits of the leaf's id and one more bit.  They
    fill columns 2 to 2n, and column 1 takes id 0, a stand-in sibling for
    the root (id 1) that places the default O.  One stable sort of the
    columns by depth (an id's bit length; the stand-in takes the root's,
    1), deepest first, gives the rows: within a depth, midpoint order is
    ascending id, so consecutive columns are the sibling pairs 2j, 2j + 1,
    a positive interval (the row's X) and its negative sibling (the O).
    The marks are valid by construction and are not re-checked.  Trees
    deeper than DEPTH_CAP are refused, as their partitions are.
    """
    leaves = t.ids
    if max(leaves).bit_length() - 1 > DEPTH_CAP:
        raise DepthExceeded("tree too deep for dyadic breakpoints")
    n = len(leaves)
    ids = [0] * (2 * n + 1)  # per column; ids[0] is unused
    ids[2::2] = leaves
    # the last leaf's id is all 1-bits: no caret follows it
    ids[3::2] = [h >> (h ^ (h + 1)).bit_length() for h in leaves[:-1]]
    depth = list(map(int.bit_length, ids))
    depth[1] = 1
    rows = sorted(range(1, 2 * n + 1), key=depth.__getitem__, reverse=True)
    x_cols, o_cols = [], []
    for a, b in zip(rows[0::2], rows[1::2]):  # ids 2j, 2j + 1
        if ids[a].bit_count() & 1:
            x_cols.append(a)
            o_cols.append(b)
        else:
            x_cols.append(b)
            o_cols.append(a)
    return _unchecked(HalfGrid, n=n, x_cols=tuple(x_cols), o_cols=tuple(o_cols))


def half_grid_from_partition(p: SdPartition) -> HalfGrid:
    """The canonical half grid of a standard dyadic partition.

    Oracle for `half_grid_from_tree`: it walks `SdInterval` objects and
    sorts them, where the scan reads plain integers.

    Column of an interval: its rank in the midpoint order, shifted by one.
    Row: rank in the length order over the positive intervals, shared with
    the conjugate for negative ones.  X marks positive intervals, O marks
    negative; a default O sits at column 1, top row.
    """
    from .dyadic import conjugate, sign, spanning_intervals

    n = p.n
    spanning = spanning_intervals(p)  # midpoint order
    col = {iv: i + 2 for i, iv in enumerate(spanning)}
    # length order: shorter first (larger m), then by midpoint (k)
    positives = sorted((iv for iv in spanning if sign(iv) == "+"), key=lambda iv: (-iv.m, iv.k))
    # distinct intervals never tie under the length order
    assert len(set(positives)) == len(positives)
    row = {iv: i + 1 for i, iv in enumerate(positives)}

    x_cols = [0] * n
    o_cols = [0] * n
    o_cols[n - 1] = 1  # default O at (1, n)
    for iv in spanning:
        if sign(iv) == "+":
            x_cols[row[iv] - 1] = col[iv]
        else:
            o_cols[row[conjugate(iv)] - 1] = col[iv]
    return HalfGrid(n, tuple(x_cols), tuple(o_cols))


def is_compatible(a: HalfGrid, b: HalfGrid) -> bool:
    """Same mark type in every column: the same O columns, as the X columns
    are the rest."""
    if a.n != b.n:
        raise SizeMismatch(f"half grid sizes differ: {a.n} vs {b.n}")
    return set(a.o_cols) == set(b.o_cols)


def _stack(top: HalfGrid, bottom: HalfGrid, oriented: bool) -> GridDiagram:
    """The 2n x 2n stack: flipped bottom (marks swapped), then top."""
    return _unchecked(GridDiagram, size=2 * top.n, x_cols=bottom.o_cols[::-1] + top.x_cols,
                      o_cols=bottom.x_cols[::-1] + top.o_cols, oriented=oriented)


def assemble(top: HalfGrid, bottom: HalfGrid) -> GridDiagram:
    """Stack two compatible half grids into an oriented grid diagram."""
    if not is_compatible(top, bottom):
        raise Incompatible("half grids disagree in some column")
    return _stack(top, bottom, oriented=True)


def assemble_unoriented(top: HalfGrid, bottom: HalfGrid) -> GridDiagram:
    """Stack any two equal-size half grids, marks read unoriented."""
    if top.n != bottom.n:
        raise SizeMismatch(f"half grid sizes differ: {top.n} vs {bottom.n}")
    return _stack(top, bottom, oriented=False)


def perm_encode(h: HalfGrid) -> Permutation:
    """sigma = (X(1), O(1), X(2), O(2), ..., X(n), O(n)), bottom row first.
    A half grid's columns are a bijection on 1..2n, checked when it was
    built or valid by construction, so sigma needs no re-check."""
    images = [0] * (2 * h.n)
    images[0::2] = h.x_cols
    images[1::2] = h.o_cols
    return _unchecked(Permutation, images=tuple(images))


def perm_decode(sigma: Permutation) -> HalfGrid:
    """The half grid with X(r) = sigma(2r - 1) and O(r) = sigma(2r).  A
    Permutation is already a bijection on 1..2n, so every column holds one
    mark and the half grid needs no re-check."""
    if sigma.degree % 2:
        raise NotAPermutation("half grid permutation needs even degree")
    if not sigma.degree:
        raise NotAPermutation("half grid permutation needs at least one row")
    return _unchecked(HalfGrid, n=sigma.degree // 2, x_cols=sigma.images[0::2],
                      o_cols=sigma.images[1::2])


def format_half_grid(h: HalfGrid) -> str:
    xs = ",".join(str(c) for c in h.x_cols)
    os_ = ",".join(str(c) for c in h.o_cols)
    return f"n={h.n}; X={xs}; O={os_}"


def format_grid(g: GridDiagram) -> str:
    xs = ",".join(str(c) for c in g.x_cols)
    os_ = ",".join(str(c) for c in g.o_cols)
    flag = "true" if g.oriented else "false"
    return f"n={g.size}; X={xs}; O={os_}; oriented={flag}"


def _parse_fields(text: str, names: list[str]) -> dict[str, str]:
    fields = {}
    for part in text.split(";"):
        key, sep, value = part.strip().partition("=")
        if not sep:
            raise ParseError(f"malformed field {part.strip()!r}")
        key = key.strip()
        if key not in names:
            raise ParseError(f"unknown field {key!r}")
        if key in fields:
            raise ParseError(f"duplicate field {key!r}")
        fields[key] = value.strip()
    missing = [k for k in names if k not in fields]
    if missing:
        raise ParseError(f"missing fields: {', '.join(missing)}")
    return fields


def _parse_ints(value: str, rule: re.Pattern[str], what: str) -> tuple[int, ...]:
    try:
        if not rule.fullmatch(value):
            raise ValueError(value)
        return tuple(map(int, value.replace(",", " ").split()))
    except ValueError:  # refused by the token rule, or more digits than int() reads
        raise ParseError(f"malformed {what} {value!r}") from None


def _parse_marks(fields: dict[str, str]) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """The n, X and O fields, each integer read by the token rule."""
    (n,) = _parse_ints(fields["n"], _SIZE, "n field")
    return (n, _parse_ints(fields["X"], _COLUMNS, "column list"),
            _parse_ints(fields["O"], _COLUMNS, "column list"))


def parse_half_grid(text: str) -> HalfGrid:
    fields = _parse_fields(text, ["n", "X", "O"])
    try:
        return HalfGrid(*_parse_marks(fields))
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def parse_grid(text: str) -> GridDiagram:
    fields = _parse_fields(text, ["n", "X", "O", "oriented"])
    if fields["oriented"] not in ("true", "false"):
        raise ParseError("oriented must be 'true' or 'false'")
    try:
        return GridDiagram(*_parse_marks(fields), oriented=fields["oriented"] == "true")
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def rotate90(g: GridDiagram) -> GridDiagram:
    """Rotate 90 degrees counterclockwise, (c, r) -> (r, m + 1 - c), mapping
    to the usual convention (rows O->X, columns X->O, vertical over).  Row r
    takes the two marks of column m + 1 - r: X first when oriented, else the
    lower one first, as mark labels of an unoriented grid carry no meaning."""
    m = g.size
    x_cols, o_cols = [], []
    for c in range(m, 0, -1):
        lo, hi = g._spans[c - 1]
        if g.oriented and g.x_cols[lo - 1] != c:
            lo, hi = hi, lo
        x_cols.append(lo)
        o_cols.append(hi)
    return GridDiagram(m, tuple(x_cols), tuple(o_cols), oriented=g.oriented)
