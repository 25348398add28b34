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
    """The planar diagram of a grid or half grid.

    Row r runs between the two marks ``rows[r - 1]``; column c runs between
    the rows ``spans[c - 1]``, where row 0 is the bottom edge that the
    columns of a half grid drop to.  Building the record reads only these,
    in O(m) steps for m columns.  Everything else is computed on first use
    and kept: the crossings by one sweep of O(m + c) interpreted steps for c
    crossings plus C-level byte scans over each row's width (O(m * depth)
    bytes on a tree stack, O(m^2) at worst), so a command that only renders
    text never looks for them (`render_ascii` takes O(m) interpreted steps
    and copies its O(m^2) characters in bulk).
    Crossings are numbered row by row, left to right, in ``positions``;
    ``row_crossings`` and ``col_crossings`` list their numbers per row (left
    to right) and per column (bottom to top).  An oriented diagram keeps
    each crossing's sign in ``signs``.  Cutting a closed diagram at its
    crossings leaves arcs, labelled by `arcs`; only the bracket, its sweep
    order and the SVG renderer read those labels or ``col_crossings``.
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
    def arcs(self) -> tuple[tuple[tuple[int, int, int, int], ...], int, int]:
        """(pd, arc count, free loops) of a closed diagram: pd[k] labels the
        arcs at the W, E, S and N ends of crossing k, as a PD code does, and
        the free loops are the components without a crossing.

        A crossing has four end stubs and a mark two, one towards its row
        and one towards its column.  A strand piece links two stubs (`link`)
        and a mark turns the corner between its own two (stub ^ 1).  A walk
        from a crossing end through the marks ends at another crossing end:
        that is one arc.  Marks no walk reaches lie on components without
        crossings.
        """
        if not self.closed:
            raise ValueError("arcs need a closed diagram")
        W, E, S, N = (_END[e] for e in "WESN")
        ends = 4 * len(self.positions)
        # Within a row, crossing k's E end meets crossing k + 1's W end; the
        # ends of each row are set below.  Row r's marks own the stubs
        # ends + 4(r - 1) + 0..3: row then column stub of the left mark, then
        # of the right.
        link = [0] * ends
        link[E:ends - 4:4] = range(W + 4, ends, 4)
        link[W + 4::4] = range(E, ends - 4, 4)
        link += [0] * (4 * self.height)
        right = [x if x > o else o for x, o in self.rows]
        for left, ks in zip(range(ends, len(link), 4), self.row_crossings):
            a, b = (4 * ks.start + W, 4 * ks[-1] + E) if ks else (left + 2, left)
            link[left], link[a] = a, left
            link[left + 2], link[b] = b, left + 2
        for c, ((lo, hi), ks) in enumerate(zip(self.spans, self.col_crossings), start=1):
            s = ends + 4 * lo - 3 + 2 * (c == right[lo - 1])  # column stub of the low mark
            for k in ks:
                link[s], link[4 * k + S] = 4 * k + S, s
                s = 4 * k + N
            top = ends + 4 * hi - 3 + 2 * (c == right[hi - 1])
            link[s], link[top] = top, s

        seen = bytearray(len(link))
        label = [-1] * ends
        arcs = 0
        for e in range(ends):
            if label[e] < 0:
                s = link[e]
                while s >= ends:
                    seen[s] = seen[s ^ 1] = 1
                    s = link[s ^ 1]
                label[e] = label[s] = arcs
                arcs += 1
        loops = 0
        for start in range(ends, len(link), 2):
            s = start
            loops += not seen[s]
            while not seen[s]:
                seen[s] = seen[s ^ 1] = 1
                s = link[s ^ 1]
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


def _crossing_list(d: PlanarDiagram) -> list[Crossing]:
    return [Crossing(r, c, s) for (c, r), s in zip(d.positions, d.signs)]


def crossings(g: GridDiagram) -> list[Crossing]:
    if not g.oriented:
        raise UnorientedDiagram("crossing signs need X/O marks")
    return _crossing_list(diagram(g))


def writhe(g: GridDiagram) -> int:
    if not g.oriented:
        raise UnorientedDiagram("crossing signs need X/O marks")
    return sum(diagram(g).signs)


def half_grid_crossings(h: HalfGrid) -> list[Crossing]:
    """Crossings of the tangle generated by a half grid: rows run X to O and
    every mark drops a vertical arc to the bottom edge (up at an X, down at
    an O)."""
    return _crossing_list(diagram(h))


def components(g: GridDiagram) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Component count plus the partition of columns into traced cycles.

    Cycles are listed with their smallest column first, sorted by it.
    """
    d = diagram(g)
    seen = [False] * (d.width + 1)
    cycles = []
    for start in range(1, d.width + 1):
        if seen[start]:
            continue
        cols = []
        c, r = start, d.spans[start - 1][0]
        while True:
            cols.append(c)
            seen[c] = True
            x, o = d.rows[r - 1]  # step along the row
            c = o if c == x else x
            lo, hi = d.spans[c - 1]  # then along the column
            r = hi if r == lo else lo
            if c == start and r == d.spans[start - 1][0]:
                break
        cycles.append(tuple(cols))
    return len(cycles), tuple(cycles)


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
    if not g.oriented:
        raise UnorientedDiagram("front statistics need X/O marks")
    d = diagram(g)
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
    if not g.oriented:
        raise UnorientedDiagram("Seifert smoothing needs orientations")
    d = diagram(g)
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

_LOOP_POWERS = tuple(tuple(p.coeffs.items()) for p in (LaurentPoly({0: 1}), LOOP, LOOP * LOOP))


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


def _sweep_order(d: PlanarDiagram) -> tuple[range | list[int], int]:
    """(order, width): the crossing order with the narrower peak frontier,
    row order (the record's) or column order (`col_crossings`, columns left
    to right, each bottom to top), and that peak.

    The frontier after a prefix of the order is the set of arcs with
    exactly one end at a crossing in the prefix; its peak size bounds the
    pairings the bracket keeps.  A horizontal cut of a stacked tree grid
    meets every column, a vertical one few arcs.  One O(c) pass over the PD
    code per order; a tie keeps row order."""
    pd, arc_count, _ = d.arcs

    def width(order) -> int:
        met = bytearray(arc_count)
        frontier = peak = 0
        for k in order:
            for x in pd[k]:
                met[x] += 1
                frontier += 1 if met[x] == 1 else -1
            if frontier > peak:
                peak = frontier
        return peak

    orders = (range(len(pd)), [k for ks in d.col_crossings for k in ks])
    return min(((order, width(order)) for order in orders), key=lambda ow: ow[1])  # first on a tie


def kauffman_bracket(g: GridDiagram) -> LaurentPoly:
    """Bracket of the unoriented reading, loop weight d = -A^2 - A^-2,
    normalized so a crossingless unknot diagram gives 1.

    Kauffman's state sum, contracted one crossing at a time in the order
    `_sweep_order` picks: row by row or column by column, whichever cut
    meets fewer arcs at its widest.  A state is a `_splice` mate table (one
    byte per arc, as 2c <= 48): the pairing of open path ends that the
    smoothings so far leave, mapped to its Laurent polynomial.  A smoothing
    multiplies it by A or A^-1 and by d per loop it closes; the arcs the
    crossing finished are reset to mate[x] = x, so equal pairings merge.
    Each free loop multiplies the sum by d, and one exact division by d
    normalizes it.  The cost is exponential in the frontier width, not in c."""
    c = len(_crossing_positions(g))
    if c > BRACKET_CAP:
        raise TooManyCrossings(f"{c} crossings exceeds cap {BRACKET_CAP}")
    d = diagram(g)
    pd, arc_count, free_loops = d.arcs
    met = [0] * arc_count  # ends of each arc at smoothed crossings
    states: dict[bytes, dict[int, int]] = {bytes(range(arc_count)): {0: 1}}
    for k in _sweep_order(d)[0]:
        arcs = pd[k]
        for x in arcs:
            met[x] += 1
        done = {x for x in arcs if met[x] == 2}
        merged: dict[bytes, dict[int, int]] = {}
        for mate, poly in states.items():
            for shift, ends in ((1, _A_ENDS), (-1, _B_ENDS)):
                m = bytearray(mate)
                terms = _LOOP_POWERS[_splice(m, arcs, ends)]
                for x in done:
                    m[x] = x
                out = merged.setdefault(bytes(m), {})
                for de, dc in terms:
                    for e, coef in poly.items():
                        out[e + de + shift] = out.get(e + de + shift, 0) + coef * dc
        states = merged
    total = LaurentPoly(*states.values())  # one state is left: every arc is finished
    for _ in range(free_loops):
        total = total * LOOP
    p, q = total.coeffs, {}  # total = d * q: p[e] = -q[e - 2] - q[e + 2], top down
    for e in range(max(p), min(p) + 2, -2):
        q[e - 2] = -p.get(e, 0) - q.get(e + 2, 0)
    return LaurentPoly(q)


# --- rendering ---------------------------------------------------------------

def render_ascii(obj: GridDiagram | HalfGrid, ascii_only: bool = False) -> str:
    """Character rendering, one cell per grid square, top row first.
    Vertical strands break under horizontal ones at crossings.

    One line of the open columns goes down the rows: a column opens below
    its top mark and closes at its bottom mark.  Each row is a copy of that
    line with its horizontal run and two marks written over it, so the
    interpreted work is O(m) for m columns and the O(m^2) cells are copied
    in bulk."""
    d = diagram(obj)
    spans = d.spans
    marks = b"XO" if d.oriented else b"**"
    run = b"-" * d.width
    line = bytearray(b" " * d.width)
    lines = []
    for r in range(d.height, 0, -1):
        x, o = d.rows[r - 1]
        lo, hi = (x, o) if x < o else (o, x)
        row = line[:]
        row[lo - 1:hi] = run[:hi - lo + 1]  # over: unbroken
        row[x - 1], row[o - 1] = marks
        lines.append(row)
        line[x - 1] = 32 if spans[x - 1][0] == r else 124  # " " or "|"
        line[o - 1] = 32 if spans[o - 1][0] == r else 124
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
