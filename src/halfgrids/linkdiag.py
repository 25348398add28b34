"""Link-diagram analysis of grid and half grid diagrams.

Conventions (fixed once, used everywhere): rows connect X to O, columns
connect O to X, horizontal strands cross over vertical ones.  A crossing is
positive exactly when the over direction is the under direction rotated a
quarter turn clockwise; this is the convention under which every crossing
of a constructed half-grid tangle comes out positive, which the test suite
checks explicitly.  A quarter turn clockwise takes north to east and south
to west, so a crossing is positive exactly when "the row runs east" (its X
left of its O) equals "the column runs north" (its X on top).
"""

from __future__ import annotations

from functools import cached_property
from itertools import compress, repeat

from .errors import Frozen, TooManyCrossings, UnorientedDiagram
from .halfgrid import GridDiagram, HalfGrid

BRACKET_CAP = 24


class Crossing(Frozen):
    row: int  # row of the horizontal (over) strand
    col: int  # column of the vertical (under) strand
    sign: int

    def __init__(self, row: int, col: int, sign: int):
        self.__dict__.update(row=row, col=col, sign=sign)


# the four ends of a crossing, in the order PlanarDiagram.arcs lists their arcs
_END = {"W": 0, "E": 1, "S": 2, "N": 3}


class PlanarDiagram:
    """The planar diagram of a grid or half grid, which every invariant and
    the SVG renderer read; `render_ascii` reads only the marks.

    Row r runs between the two marks ``rows[r - 1]``; column c runs between
    the rows ``spans[c - 1]``, where row 0 is the bottom edge that the
    columns of a half grid drop to.  Building the record reads only these,
    in O(m) steps for m columns.  Everything else is computed on first use
    and kept: the crossings by one sweep of O(m + c) interpreted steps for c
    crossings plus C-level byte scans over each row's width (O(m * depth)
    bytes on a tree stack, O(m^2) at worst), when an invariant or the SVG
    renderer first reads them.
    Crossings are numbered row by row, left to right, in ``positions``;
    ``row_crossings`` and ``col_crossings`` list their numbers per row (left
    to right) and per column (bottom to top).  An oriented diagram keeps
    each crossing's sign in ``signs``.  A closed diagram's components are
    one walk along its rows and columns, `cycles`; its crossings cut them
    into arcs, which `arcs` labels in a second O(c + m) pass over that walk.
    Only the bracket, its sweep order and the SVG renderer read those labels
    or ``col_crossings``.
    """

    def __init__(self, obj: GridDiagram | HalfGrid):
        if isinstance(obj, HalfGrid):  # an open tangle
            self.closed, self.oriented = False, True
            self.width, self.height = 2 * obj.n, obj.n
            spans = [(0, obj.column_row(c)) for c in range(1, self.width + 1)]
        else:
            self.closed, self.oriented = True, obj.oriented
            self.width = self.height = obj.size
            spans = [obj.column_rows(c) for c in range(1, obj.size + 1)]
        self.spans = tuple(spans)
        self.rows = tuple(zip(obj.x_cols, obj.o_cols))

    @cached_property
    def _record(self) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...]]:
        return _sweep(self.rows, self.spans)

    @cached_property
    def positions(self) -> tuple[tuple[int, int], ...]:
        """(col, row) of every crossing, in record order."""
        return self._record[0]

    @cached_property
    def row_crossings(self) -> tuple[range, ...]:
        """Each row's crossing numbers: consecutive, as the record numbers
        the crossings row by row."""
        starts = self._record[1]
        return tuple(map(range, starts, starts[1:]))

    @cached_property
    def col_crossings(self) -> tuple[tuple[int, ...], ...]:
        cols: list[list[int]] = [[] for _ in self.spans]
        for k, (c, _) in enumerate(self.positions):
            cols[c - 1].append(k)
        return tuple(map(tuple, cols))

    @cached_property
    def signs(self) -> tuple[int, ...]:
        """Crossing signs of an oriented diagram; empty for an unoriented one."""
        if not self.oriented:
            return ()
        # rows run X to O, so east when the X is on the left; columns run O
        # to X, so north when the X is on top; positive when both or neither
        rows = self.rows
        east = [False] + [x < o for x, o in rows]
        north = [False] + [rows[hi - 1][0] == c for c, (_, hi) in enumerate(self.spans, start=1)]
        return tuple([1 if east[r] == north[c] else -1 for c, r in self.positions])

    @cached_property
    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Each component's columns in travel order, from the lower mark of
        its smallest column along that mark's row, sorted by that column:
        one O(m) walk, which `components` and `arcs` both read.  An open
        diagram has no cycles."""
        if not self.closed:
            return ()
        seen = [False] * (self.width + 1)
        cycles = []
        for start in range(1, self.width + 1):
            if seen[start]:
                continue
            cols = []
            c, r = start, self.spans[start - 1][0]
            while True:
                cols.append(c)
                seen[c] = True
                x, o = self.rows[r - 1]  # step along the row
                c = o if c == x else x
                lo, hi = self.spans[c - 1]  # then along the column
                r = hi if r == lo else lo
                if c == start and r == self.spans[start - 1][0]:
                    break
            cycles.append(tuple(cols))
        return tuple(cycles)

    @cached_property
    def arcs(self) -> tuple[tuple[tuple[int, int, int, int], ...], int, int]:
        """(pd, arc count, free loops) of a closed diagram: pd[k] labels the
        arcs at the W, E, S and N ends of crossing k, as a PD code does, and
        the free loops are the components without a crossing.

        A second pass over `cycles`, O(c + m) steps: each step from a column
        to the next passes the crossings of its row, then those of the next
        column, in travel order.  A passage ends the current arc at its
        entry end and starts a new one at its exit end; the last arc of a
        cycle runs on into its first.  So the labels run 0..2c-1 in travel
        order, each component's arcs one consecutive block, in `cycles`
        order; a PD code is defined only up to such renaming.
        """
        if not self.closed:
            raise ValueError("arcs need a closed diagram")
        spans, row_ks, col_ks = self.spans, self.row_crossings, self.col_crossings
        label = [0] * (4 * len(self.positions))
        arcs = loops = 0
        for cols in self.cycles:
            first, out, r = arcs, -1, spans[cols[0] - 1][0]
            for c, n in zip(cols, cols[1:] + cols[:1]):
                lo, hi = spans[n - 1]
                # entry and exit ends (W, E, S, N = 0..3) and crossings in
                # travel order: along row r, then up or down column n
                for a, b, ks in ((0, 1, row_ks[r - 1]) if c < n else (1, 0, row_ks[r - 1][::-1]),
                                 (2, 3, col_ks[n - 1]) if r == lo else (3, 2, col_ks[n - 1][::-1])):
                    for k in ks:
                        label[4 * k + a] = arcs
                        arcs += 1
                        out = 4 * k + b
                        label[out] = arcs
                r = hi if r == lo else lo
            if out < 0:
                loops += 1
            else:
                label[out] = first
        return tuple(zip(label[0::4], label[1::4], label[2::4], label[3::4])), arcs, loops


def _sweep(rows, spans) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...]]:
    """(col, row) of every crossing, row by row, left to right, and each
    row's first crossing number followed by the crossing count.

    One pass up the rows keeps one byte per column, set while the column's
    span strictly contains the current row; a row's crossings are the set
    bytes strictly between its two marks.  Each mark is one end of its
    column's span, so the row flips its two marks' bytes after reading its
    crossings: on at a bottom end, off at a top end.  The bytes between the
    marks are counted in C; one crossing, the usual case on tree stacks, is
    found by one more scan, more by one `compress` over the slice.  That is
    O(m + c) interpreted steps for m columns and c crossings, plus byte
    scans over each row's width: O(m * depth) bytes on a tree stack, O(m^2)
    at worst.
    """
    # indexed by column, byte 0 unused; a half grid's columns start at the
    # bottom edge, row 0
    live = bytearray([0, *(lo == 0 for lo, _ in spans)])
    count, find = live.count, live.find
    out: list[tuple[int, int]] = []
    starts = [0]
    for r, (x, o) in enumerate(rows, start=1):
        lo, hi = (x + 1, o) if x < o else (o + 1, x)
        k = count(1, lo, hi)
        if k == 1:
            out.append((find(1, lo, hi), r))
        elif k:
            out += zip(compress(range(lo, hi), live[lo:hi]), repeat(r))
        starts.append(len(out))
        live[x] ^= 1
        live[o] ^= 1
    return tuple(out), tuple(starts)


def diagram(obj: GridDiagram | HalfGrid) -> PlanarDiagram:
    """The planar diagram of obj, built on first use and kept on obj."""
    d = obj.__dict__.get("_diagram")
    if d is None:
        d = PlanarDiagram(obj)
        obj.__dict__["_diagram"] = d
    return d


def _crossing_positions(g: GridDiagram) -> list[tuple[int, int]]:
    """(col, row) pairs where a vertical passes strictly under a horizontal,
    row by row, left to right."""
    return list(diagram(g).positions)


def crossings(g: GridDiagram | HalfGrid) -> list[Crossing]:
    """Signed crossings of an oriented grid, or of the tangle a half grid
    generates: its rows run X to O and every mark drops a vertical arc to
    the bottom edge (up at an X, down at an O)."""
    d = diagram(g)
    if not d.oriented:
        raise UnorientedDiagram("crossing signs need X/O marks")
    return [Crossing(r, c, s) for (c, r), s in zip(d.positions, d.signs)]


half_grid_crossings = crossings


def writhe(g: GridDiagram | HalfGrid) -> int:
    d = diagram(g)
    if not d.oriented:
        raise UnorientedDiagram("crossing signs need X/O marks")
    return sum(d.signs)


def components(g: GridDiagram) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Component count plus the partition of columns into traced cycles,
    `PlanarDiagram.cycles`: each lists its smallest column first, and they
    are sorted by it.  A half grid is open, so it has none and is refused."""
    d = diagram(g)
    if not d.closed:
        raise ValueError("components need a closed diagram")
    return len(d.cycles), d.cycles


class FrontStats(Frozen):
    writhe: int
    cusps: int
    up_cusps: int
    down_cusps: int
    tb: int
    rot: int

    def __init__(self, writhe: int, cusps: int, up_cusps: int, down_cusps: int, tb: int,
                 rot: int):
        self.__dict__.update(writhe=writhe, cusps=cusps, up_cusps=up_cusps,
                             down_cusps=down_cusps, tb=tb, rot=rot)


def front_stats(g: GridDiagram) -> FrontStats:
    """Legendrian front data after the quarter-turn correspondence: cusps are
    the NE and SW corners; an NE corner is an up cusp at an X and a down cusp
    at an O, and the other way around for SW corners.  A mark's corner is
    named by the two strand stubs leaving it: a row's left mark is an SW
    corner when its column's span starts at the row, its right mark an NE
    corner when its column's span ends there.  The left mark is the X
    exactly when the row runs east, so both corners of a row are down cusps
    when it runs east and up cusps when it runs west."""
    d = diagram(g)
    if not d.closed:
        raise ValueError("front statistics need a closed diagram")
    if not d.oriented:
        raise UnorientedDiagram("front statistics need X/O marks")
    spans = d.spans
    up = down = 0
    for r, (x, o) in enumerate(d.rows, start=1):
        if x < o:
            down += (spans[x - 1][0] == r) + (spans[o - 1][1] == r)
        else:
            up += (spans[o - 1][0] == r) + (spans[x - 1][1] == r)
    cusps = up + down
    w = writhe(g)
    assert cusps % 2 == 0 and (down - up) % 2 == 0, "open front: odd cusp parity"
    return FrontStats(
        writhe=w,
        cusps=cusps,
        up_cusps=up,
        down_cusps=down,
        tb=w - cusps // 2,
        rot=(down - up) // 2,
    )


def seifert_stats(g: GridDiagram) -> tuple[int, int]:
    """(circles, euler) after orientation-respecting smoothing of all
    crossings; euler = circles - crossings.

    The oriented smoothing turns a strand arriving at a crossing onto the
    other strand's outgoing piece, so a Seifert circle alternates runs along
    rows (X to O) and along columns (O to X).  Its states are the starts of
    the column runs: crossing k is state k, and row r's O mark is state
    c + r - 1.  A row run from crossing k ends at the next crossing of its
    row (k + 1 going east, k - 1 going west, as the record numbers a row
    left to right) or at the row's O mark: `hand[k]`.  One pass over the
    crossings in record order, so bottom to top in every column, links each
    state to the next one; a column keeps the state below it (running
    north) or the row-run end its event below hands over to (running south).
    A last pass over the columns links their top ends.  The circles are the
    cycles of that permutation of c + m states: O(c + m) steps, without the
    PD labels or the signs."""
    d = diagram(g)
    if not d.closed:
        raise ValueError("Seifert smoothing needs a closed diagram")
    if not d.oriented:
        raise UnorientedDiagram("Seifert smoothing needs orientations")
    positions, spans, rows = d.positions, d.spans, d.rows
    c = len(positions)
    hand = list(range(1, c + 1))
    after_x = []  # per row: where a row run from its X mark ends
    for o_state, (x, o), ks in zip(range(c, c + d.height), rows, d.row_crossings):
        if not ks:
            after_x.append(o_state)
        elif x < o:  # east: hand[k] = k + 1 already, but for the last
            hand[ks.stop - 1] = o_state
            after_x.append(ks.start)
        else:
            hand[ks.start:ks.stop] = range(ks.start - 1, ks.stop - 1)
            hand[ks.start] = o_state
            after_x.append(ks.stop - 1)
    # per column: the state below (north), or ~ the row-run end below (south)
    below = [0] * (d.width + 1)
    for col, (lo, _) in enumerate(spans, start=1):  # O at the bottom: north
        below[col] = c + lo - 1 if rows[lo - 1][1] == col else ~after_x[lo - 1]
    succ = [0] * (c + d.height)
    for k, (col, _), h in zip(range(c), positions, hand):
        v = below[col]
        if v >= 0:
            succ[v] = h
            below[col] = k
        else:
            succ[k] = ~v
            below[col] = ~h
    for col, (_, hi) in enumerate(spans, start=1):
        v = below[col]
        if v >= 0:  # up to the X on top
            succ[v] = after_x[hi - 1]
        else:  # down from the O on top
            succ[c + hi - 1] = ~v
    seen = bytearray(len(succ))
    circles = 0
    for s in range(len(succ)):
        if not seen[s]:
            circles += 1
            while not seen[s]:
                seen[s] = 1
                s = succ[s]
    return circles, circles - c


class LaurentPoly:
    """Integer Laurent polynomial in one variable A."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[int, int] | None = None):
        self.coeffs = {e: c for e, c in (coeffs or {}).items() if c}

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly(out)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        out: dict[int, int] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
        return LaurentPoly(out)

    def mirror(self) -> "LaurentPoly":
        """Substitute A -> A^-1."""
        return LaurentPoly({-e: c for e, c in self.coeffs.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        terms = []
        for e in sorted(self.coeffs):
            exp = str(e) if e >= 0 else f"({e})"
            terms.append(f"{self.coeffs[e]}*A^{exp}")
        return " + ".join(terms)

    def __repr__(self) -> str:
        return f"LaurentPoly({self.coeffs!r})"


LOOP = LaurentPoly({2: -1, -2: -1})  # -A^2 - A^-2

# At a crossing the over strand is horizontal.  The A-regions are the ones
# swept by rotating the over strand counterclockwise (NE and SW); the
# A-smoothing merges them, which pairs the N end with W and the S end with E.
# Pinned empirically: the right-trefoil fixture must give the right-handed
# bracket, and swapping these constants mirrors every bracket.
_A_PAIRS = (("N", "W"), ("S", "E"))
_B_PAIRS = (("N", "E"), ("S", "W"))


_A_ENDS = tuple((_END[p], _END[q]) for p, q in _A_PAIRS)
_B_ENDS = tuple((_END[p], _END[q]) for p, q in _B_PAIRS)

def _splice(mate, arcs, ends) -> int:
    """Smooth one crossing with PD arcs `arcs` by joining the ends paired in
    `ends`; returns the loops that close.

    The smoothings made so far join the arcs into paths, each open at two
    unsmoothed crossing ends.  mate[x] is the arc at the far open end of the
    path that arc x's next unsmoothed end starts, so an arc with neither end
    smoothed is its own path and mate[x] == x.  Joining the ends on arcs x
    and y closes a loop when mate[x] == y and splices two paths otherwise;
    that covers an arc with both ends at this crossing too.  Entries of arcs
    with both ends smoothed are left stale."""
    loops = 0
    for p, q in ends:
        x, y = arcs[p], arcs[q]
        if mate[x] == y:
            loops += 1
        else:
            far_x, far_y = mate[x], mate[y]
            mate[far_x], mate[far_y] = far_y, far_x
    return loops


def _sweep_order(d: PlanarDiagram) -> tuple[range | list[int], int, list[list[int]]]:
    """(order, width, finished): the crossing order with the narrower peak
    frontier, row order (the record's) or column order (`col_crossings`,
    columns left to right, each bottom to top), that peak, and finished[k],
    the arcs whose second PD end the order meets at crossing k.

    The frontier after a prefix of the order is the set of arcs with
    exactly one end at a crossing in the prefix; its peak size bounds the
    pairings the bracket keeps.  A horizontal cut of a stacked tree grid
    meets every column, a vertical one few arcs.  One O(c) PD walk per order
    counts it and notes each arc's last crossing; a tie keeps row order."""
    pd, arc_count, _ = d.arcs
    walks = []
    for order in (range(len(pd)), [k for ks in d.col_crossings for k in ks]):
        last = [-1] * arc_count
        frontier = peak = 0
        for k in order:
            for x in pd[k]:
                frontier += 1 if last[x] < 0 else -1
                last[x] = k
            if frontier > peak:
                peak = frontier
        walks.append((order, peak, last))
    order, width, last = min(walks, key=lambda w: w[1])  # first on a tie
    finished = [[] for _ in pd]
    for x, k in enumerate(last):
        finished[k].append(x)
    return order, width, finished


def kauffman_bracket(g: GridDiagram) -> LaurentPoly:
    """Bracket of the unoriented reading, loop weight d = -A^2 - A^-2,
    normalized so a crossingless unknot diagram gives 1.

    Kauffman's state sum, contracted one crossing at a time in the order
    `_sweep_order` picks: row by row or column by column, whichever cut
    meets fewer arcs at its widest.  A state is a `_splice` mate table (one
    byte per arc, as 2c <= 48): the pairing of open path ends that the
    smoothings so far leave, mapped to its Laurent polynomial.  A smoothing
    multiplies it by A or A^-1 and by d per loop it closes; the arcs the
    crossing finishes, `_sweep_order`'s finished[k], are reset to
    mate[x] = x, so equal pairings merge.  Every state closes a loop at
    the last crossing, so counting one loop fewer there divides by d and
    normalizes the sum; each free loop multiplies it by d, all but one when
    there is no crossing.  The cost is exponential in the frontier width,
    not in c.

    A state's polynomial is one int of signed B-bit digits, B = 3c + 3:
    after k crossings digit e is the coefficient of A^(e - 5k).  A smoothing
    of shift s = +-1 that closes L <= 2 loops multiplies by
    (-1)^L A^(s + 5 - 2L) (1 + A^4)^L, with the uniform A^5 keeping every
    digit index >= 0, so it is one to three shifts and adds, never a
    general product.  Each state feeds two smoothings whose factors have
    absolute coefficient sum at most 4, so the coefficients' absolute sum
    over all states grows at most 8-fold per crossing: every coefficient
    is at most 2^(3c) < 2^(B - 1), and equal pairings merge by adding ints.
    The last state is decoded once into a `LaurentPoly`."""
    c = len(_crossing_positions(g))
    if c > BRACKET_CAP:
        raise TooManyCrossings(f"{c} crossings exceeds cap {BRACKET_CAP}")
    d = diagram(g)
    pd, arc_count, free_loops = d.arcs
    order, _, finished = _sweep_order(d)
    width = 3 * c + 3
    quad = 4 * width  # the shift that multiplies by A^4
    # bit shifts of A^(s + 5 - 2L), by the loops L closed, for s = 1 and -1
    smoothings = ((_A_ENDS, tuple((6 - 2 * loops) * width for loops in range(3))),
                  (_B_ENDS, tuple((4 - 2 * loops) * width for loops in range(3))))
    states: dict[bytes, int] = {bytes(range(arc_count)): 1}
    for step, k in enumerate(order, 1):
        arcs, done, last = pd[k], finished[k], int(step == c)
        merged: dict[bytes, int] = {}
        for mate, poly in states.items():
            for ends, shifts in smoothings:
                m = bytearray(mate)
                loops = _splice(m, arcs, ends) - last
                for x in done:
                    m[x] = x
                if loops == 0:
                    term = poly << shifts[0]
                elif loops == 1:
                    term = -((poly + (poly << quad)) << shifts[1])
                else:
                    term = poly + (poly << quad)
                    term = (term + (term << quad)) << shifts[2]
                key = bytes(m)
                merged[key] = merged.get(key, 0) + term
        states = merged
    (packed,) = states.values()  # one state is left: every arc is finished
    total = LaurentPoly(_unpack(packed, width, -5 * c))
    for _ in range(free_loops - (c == 0)):
        total = total * LOOP
    return total


def _unpack(packed: int, width: int, low: int) -> dict[int, int]:
    """{low + i: digit i} for the nonzero signed width-bit digits of packed,
    each of absolute value below 2^(width - 1).  The zero digits below the
    next nonzero one are skipped by its lowest set bit."""
    coeffs = {}
    mask, half = (1 << width) - 1, 1 << (width - 1)
    e = low
    while packed:
        zeros = ((packed & -packed).bit_length() - 1) // width
        packed >>= zeros * width
        digit = packed & mask
        if digit >= half:
            digit -= 1 << width
        coeffs[e + zeros] = digit
        packed = (packed - digit) >> width
        e += zeros + 1
    return coeffs


# --- rendering ---------------------------------------------------------------

def render_ascii(obj: GridDiagram | HalfGrid, ascii_only: bool = False) -> str:
    """Character rendering, one cell per grid square, top row first.
    Vertical strands break under horizontal ones at crossings.

    It reads only the marks.  One line of the open columns goes down the
    rows, each row a copy of it with its run and marks written over; then
    the row flips its marks' cells between " " and "|", as the first mark
    met going down opens a column and a grid column's second closes it:
    O(m) interpreted steps for m columns, the O(m^2) cells copied in bulk."""
    half = isinstance(obj, HalfGrid)
    width = 2 * obj.n if half else obj.size
    marks = b"XO" if half or obj.oriented else b"**"
    run = b"-" * width
    line = bytearray(b" " * width)
    lines = []
    for x, o in zip(reversed(obj.x_cols), reversed(obj.o_cols)):
        lo, hi = (x, o) if x < o else (o, x)
        row = line[:]
        row[lo - 1:hi] = run[lo - 1:hi]  # over: unbroken
        row[x - 1], row[o - 1] = marks
        lines.append(row)
        line[x - 1] ^= 92  # ord(" ") ^ ord("|")
        line[o - 1] ^= 92
    text = b"\n".join(lines).decode()
    if ascii_only:
        return text
    return text.replace("-", "─").replace("|", "│").replace("*", "⊗")


def render_svg(obj: GridDiagram | HalfGrid) -> str:
    """SVG 1.1 document; vertical under-strands get gaps at crossings."""
    cell = 20
    gap = 5
    d = diagram(obj)

    def px(c: int) -> int:
        return c * cell

    def py(r: int) -> int:
        return (d.height + 1 - r) * cell  # flip: row 1 at the bottom, row 0 the edge

    lines = []
    for c, ((lo, hi), ks) in enumerate(zip(d.spans, d.col_crossings), start=1):
        y_stops = [py(lo)]
        for k in ks:  # bottom to top, as the column runs from its lower mark
            r = d.positions[k][1]
            y_stops.extend([py(r) + gap, py(r) - gap])
        y_stops.append(py(hi))
        for y1, y2 in zip(y_stops[0::2], y_stops[1::2]):
            lines.append(f'<line x1="{px(c)}" y1="{y1}" x2="{px(c)}" y2="{y2}" stroke="black"/>')
    for r, (x, o) in enumerate(d.rows, start=1):
        lines.append(
            f'<line x1="{px(min(x, o))}" y1="{py(r)}" x2="{px(max(x, o))}" y2="{py(r)}" stroke="black"/>'
        )
    marks = []
    for r, (x, o) in enumerate(d.rows, start=1):
        if d.oriented:
            marks.append(f'<text x="{px(x)}" y="{py(r)}" text-anchor="middle" dy="4">X</text>')
            marks.append(f'<text x="{px(o)}" y="{py(r)}" text-anchor="middle" dy="4">O</text>')
        else:
            for c in (x, o):
                marks.append(f'<circle cx="{px(c)}" cy="{py(r)}" r="5" fill="white" stroke="black"/>')
                marks.append(
                    f'<line x1="{px(c) - 4}" y1="{py(r) - 4}" x2="{px(c) + 4}" y2="{py(r) + 4}" stroke="black"/>'
                )
    w, h = (d.width + 1) * cell, (d.height + 2) * cell
    body = "\n".join(lines + marks)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{w}" height="{h}">\n'
        f"{body}\n</svg>\n"
    )
