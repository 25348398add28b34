"""The planar-diagram record checked against the direct scans it replaced.

The oracles below are the first implementations of each invariant.  Every
column lookup in them scans all rows, so crossing detection is cubic and
component tracing quadratic in the grid size.  They stay here, slow and
independent of the record, and are compared with it on random oriented and
unoriented grids, random half grids and tree stacks.
"""

import contextlib
import io
import itertools
import random
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from halfgrids import cli, linkdiag
from halfgrids.dyadic import DEPTH_CAP
from halfgrids.halfgrid import (
    GridDiagram,
    HalfGrid,
    assemble,
    assemble_unoriented,
    half_grid_from_tree,
    is_compatible,
    perm_decode,
    Permutation,
    rotate90,
)
from halfgrids.linkdiag import (
    _A_PAIRS,
    _A_ENDS,
    _B_ENDS,
    _B_PAIRS,
    LOOP,
    LaurentPoly,
    _crossing_positions,
    _splice,
    _sweep_order,
    components,
    crossings,
    diagram,
    front_stats,
    half_grid_crossings,
    kauffman_bracket,
    seifert_stats,
    writhe,
)
from halfgrids.thompson import LEAF, enumerate_trees, leaf_signs, node, parse_pair

from _brackets import pd_loops, power
from _trees import random_tree

EAST, WEST, NORTH, SOUTH = (1, 0), (-1, 0), (0, 1), (0, -1)
RIGHT_TREFOIL_BRACKET = LaurentPoly({-7: 1, -3: -1, 5: -1})


# --- oracles -----------------------------------------------------------------

def scan_column_rows(g, c):
    rows = [r for r, (x, o) in enumerate(zip(g.x_cols, g.o_cols), start=1) if c in (x, o)]
    return rows[0], rows[1]


def scan_column_row(h, c):
    return next(r for r, (x, o) in enumerate(zip(h.x_cols, h.o_cols), start=1) if c in (x, o))


def oracle_crossing_positions(g):
    out = []
    for r in range(1, g.size + 1):
        c1, c2 = g.x_cols[r - 1], g.o_cols[r - 1]
        for c in range(min(c1, c2) + 1, max(c1, c2)):
            r1, r2 = scan_column_rows(g, c)
            if r1 < r < r2:
                out.append((c, r))
    return out


def _sign(over, under):
    return 1 if over == (under[1], -under[0]) else -1


def oracle_signed_crossings(g):
    """(col, row, sign); rows run X to O, columns O to X."""
    x_row = {c: r for r, c in enumerate(g.x_cols, start=1)}
    o_row = {c: r for r, c in enumerate(g.o_cols, start=1)}
    out = []
    for c, r in oracle_crossing_positions(g):
        over = EAST if g.o_cols[r - 1] > g.x_cols[r - 1] else WEST
        under = NORTH if x_row[c] > o_row[c] else SOUTH
        out.append((c, r, _sign(over, under)))
    return out


def oracle_half_grid_crossings(h):
    marks = h.column_marks()
    out = []
    for r in range(1, h.n + 1):
        x, o = h.x_cols[r - 1], h.o_cols[r - 1]
        over = EAST if o > x else WEST
        for c in range(min(x, o) + 1, max(x, o)):
            if r < scan_column_row(h, c):
                out.append((c, r, _sign(over, NORTH if marks[c - 1] == "X" else SOUTH)))
    return out


def oracle_components(g):
    row_marks = {r: (g.x_cols[r - 1], g.o_cols[r - 1]) for r in range(1, g.size + 1)}
    seen = set()
    cycles = []
    for start in range(1, g.size + 1):
        if start in seen:
            continue
        cols = []
        c, r = start, scan_column_rows(g, start)[0]
        while True:
            cols.append(c)
            seen.add(c)
            a, b = row_marks[r]
            c = b if c == a else a
            r1, r2 = scan_column_rows(g, c)
            r = r2 if r == r1 else r1
            if c == start and r == scan_column_rows(g, start)[0]:
                break
        cycles.append(tuple(cols))
    return len(cycles), tuple(cycles)


def oracle_front_stats(g):
    """(writhe, cusps, up, down, tb, rot) from the corner type of every mark."""
    up = down = 0
    for r in range(1, g.size + 1):
        for mark, c in (("X", g.x_cols[r - 1]), ("O", g.o_cols[r - 1])):
            partner_col = g.o_cols[r - 1] if mark == "X" else g.x_cols[r - 1]
            r1, r2 = scan_column_rows(g, c)
            partner_row = r2 if r == r1 else r1
            horiz = "E" if partner_col > c else "W"
            vert = "N" if partner_row > r else "S"
            corner = {("W", "S"): "NE", ("E", "N"): "SW",
                      ("W", "N"): "SE", ("E", "S"): "NW"}[(horiz, vert)]
            if corner == "NE":
                up += mark == "X"
                down += mark == "O"
            elif corner == "SW":
                up += mark == "O"
                down += mark == "X"
    w = sum(s for _, _, s in oracle_signed_crossings(g))
    cusps = up + down
    return w, cusps, up, down, w - cusps // 2, (down - up) // 2


def oracle_seifert_stats(g):
    """Trace the arc pieces after the oriented smoothing of every crossing."""
    xs = oracle_crossing_positions(g)
    by_row, by_col = {}, {}
    for c, r in xs:
        by_row.setdefault(r, []).append(c)
        by_col.setdefault(c, []).append(r)
    x_row = {c: r for r, c in enumerate(g.x_cols, start=1)}
    o_row = {c: r for r, c in enumerate(g.o_cols, start=1)}
    succ, h_first, h_last, v_first, v_last, h_at, v_at = {}, {}, {}, {}, {}, {}, {}
    for r in range(1, g.size + 1):
        cols = sorted(by_row.get(r, []), reverse=g.o_cols[r - 1] < g.x_cols[r - 1])
        pieces = [("h", r, i) for i in range(len(cols) + 1)]
        h_first[r], h_last[r] = pieces[0], pieces[-1]
        for i, c in enumerate(cols):
            h_at[(c, r)] = (pieces[i], pieces[i + 1])
    for c in range(1, g.size + 1):
        rows = sorted(by_col.get(c, []), reverse=x_row[c] < o_row[c])
        pieces = [("v", c, i) for i in range(len(rows) + 1)]
        v_first[c], v_last[c] = pieces[0], pieces[-1]
        for i, r in enumerate(rows):
            v_at[(c, r)] = (pieces[i], pieces[i + 1])
    for r in range(1, g.size + 1):
        succ[h_last[r]] = v_first[g.o_cols[r - 1]]
    for c in range(1, g.size + 1):
        succ[v_last[c]] = h_first[x_row[c]]
    for c, r in xs:
        h_in, h_out = h_at[(c, r)]
        v_in, v_out = v_at[(c, r)]
        succ[h_in] = v_out
        succ[v_in] = h_out
    circles = 0
    seen = set()
    for start in succ:
        if start not in seen:
            circles += 1
            cur = start
            while cur not in seen:
                seen.add(cur)
                cur = succ[cur]
    return circles, circles - len(xs)


def oracle_bracket(g):
    """State sum over a token graph: one token per mark and per crossing end."""
    positions = oracle_crossing_positions(g)
    c = len(positions)
    tokens = {}

    def tok(key):
        return tokens.setdefault(key, len(tokens))

    joins = []
    for r in range(1, g.size + 1):
        c1, c2 = sorted((g.x_cols[r - 1], g.o_cols[r - 1]))
        stops = [tok(("m", c1, r))]
        for col in sorted(col for col, row in positions if row == r):
            stops += [tok(("c", col, r, "W")), tok(("c", col, r, "E"))]
        stops.append(tok(("m", c2, r)))
        joins += zip(stops[0::2], stops[1::2])
    for col in range(1, g.size + 1):
        r1, r2 = scan_column_rows(g, col)
        stops = [tok(("m", col, r1))]
        for row in sorted(row for cc, row in positions if cc == col):
            stops += [tok(("c", col, row, "S")), tok(("c", col, row, "N"))]
        stops.append(tok(("m", col, r2)))
        joins += zip(stops[0::2], stops[1::2])
    smoothings = [
        [[(tok(("c", col, row, p)), tok(("c", col, row, q))) for p, q in pairs]
         for pairs in (_B_PAIRS, _A_PAIRS)]
        for col, row in positions
    ]
    total = LaurentPoly()
    for state in range(1 << c):
        parent = list(range(len(tokens)))

        def find(a):
            while parent[a] != a:
                a = parent[a]
            return a

        picked = [pair for i, sm in enumerate(smoothings) for pair in sm[state >> i & 1]]
        loops = len(tokens)
        for a, b in joins + picked:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
                loops -= 1
        a_count = bin(state).count("1")
        total = total + LaurentPoly({2 * a_count - c: 1}) * power(LOOP, loops - 1)
    return total


def oracle_loops(d, a_smoothed):
    """Circles left after smoothing crossing k A-wise where a_smoothed[k]
    is true and B-wise where it is false, by union-find over the PD arcs:
    each pair of ends that a smoothing joins merges the classes of its arcs."""
    pd, arc_count, free_loops = d.arcs
    parent = list(range(arc_count))  # union-find with path halving
    merges = 0
    for arcs, a in zip(pd, a_smoothed):
        for p, q in _A_ENDS if a else _B_ENDS:
            x, y = arcs[p], arcs[q]
            while parent[x] != x:
                parent[x] = x = parent[parent[x]]
            while parent[y] != y:
                parent[y] = y = parent[parent[y]]
            if x != y:
                parent[x] = y
                merges += 1
    return arc_count - merges + free_loops


def oracle_state_sum_bracket(g):
    """Histogram state sum over the record's PD arcs: all 2^c smoothings,
    each counted under its (A-smoothings, loops) pair."""
    c = len(_crossing_positions(g))
    d = diagram(g)
    states = Counter()
    for state in range(1 << c):
        smoothing = [state >> i & 1 for i in range(c)]
        states[sum(smoothing), oracle_loops(d, smoothing)] += 1
    total = LaurentPoly()
    for (a_count, loops), count in states.items():
        total = total + LaurentPoly({2 * a_count - c: count}) * power(LOOP, loops - 1)
    return total


def oracle_row_sweep_bracket(g):
    """The bracket contracted in row order, the record's crossing order,
    whatever its frontier width: the production contraction before it
    chose between row and column order."""
    c = len(_crossing_positions(g))
    pd, arc_count, free_loops = diagram(g).arcs
    stride = arc_count + 1  # histogram key: A-smoothings * stride + closed loops
    met = [0] * arc_count
    states = {bytes(range(arc_count)): {0: 1}}
    for arcs in pd:
        for x in arcs:
            met[x] += 1
        done = {x for x in arcs if met[x] == 2}
        merged = {}
        for mate, counts in states.items():
            for a, ends in ((1, _A_ENDS), (0, _B_ENDS)):
                m = bytearray(mate)
                shift = a * stride + _splice(m, arcs, ends)
                for x in done:
                    m[x] = x
                out = merged.setdefault(bytes(m), {})
                for key, count in counts.items():
                    out[key + shift] = out.get(key + shift, 0) + count
        states = merged
    (counts,) = states.values()
    total = LaurentPoly()
    for key, count in counts.items():
        a_count, loops = divmod(key, stride)
        total = total + LaurentPoly({2 * a_count - c: count}) * power(LOOP, loops + free_loops - 1)
    return total


def oracle_frontier_width(d, order):
    """Peak count, over the prefixes of order, of the arcs that have exactly
    one of their two PD ends at a crossing in the prefix."""
    pd, _, _ = d.arcs
    ends = Counter()
    width = 0
    for k in order:
        ends.update(pd[k])
        width = max(width, sum(1 for n in ends.values() if n == 1))
    return width


def sweep_orders(d):
    """(row order, column order) of d's crossings."""
    return list(range(len(d.positions))), [k for ks in d.col_crossings for k in ks]


_CHARS = {
    True: {"h": "─", "v": "│", "X": "X", "O": "O", "B": "⊗"},
    False: {"h": "-", "v": "|", "X": "X", "O": "O", "B": "*"},
}


def oracle_render_ascii(obj, ascii_only=False):
    """Cell by cell: fill each column's span, then draw each row over it."""
    chars = _CHARS[not ascii_only]
    d = diagram(obj)
    columns = []  # bottom to top
    for lo, hi in d.spans:
        lo = max(lo, 1)
        columns.append([" "] * (lo - 1) + [chars["v"]] * (hi - lo + 1) + [" "] * (d.height - hi))
    grid = [list(line) for line in zip(*columns)]
    marks = (chars["X"], chars["O"]) if d.oriented else (chars["B"], chars["B"])
    for line, (x, o) in zip(grid, d.rows):
        line[min(x, o) - 1:max(x, o)] = [chars["h"]] * (abs(o - x) + 1)  # over: unbroken
        line[x - 1], line[o - 1] = marks
    return "\n".join("".join(line) for line in reversed(grid))


def oracle_arcs(d):
    """PD arcs by walking stub lists built per row and per column."""
    ends = 4 * len(d.positions)
    link = [0] * (ends + 4 * d.height)

    def mark_stub(c, r, column):  # left mark of a row first
        x, o = d.rows[r - 1]
        return ends + 4 * (r - 1) + 2 * (c == max(x, o)) + column

    def join(stops):
        for a, b in zip(stops[0::2], stops[1::2]):
            link[a], link[b] = b, a

    for r, ks in enumerate(d.row_crossings, start=1):
        lo, hi = sorted(d.rows[r - 1])
        join([mark_stub(lo, r, False), *(4 * k + e for k in ks for e in (0, 1)),
              mark_stub(hi, r, False)])
    for c, ks in enumerate(d.col_crossings, start=1):
        lo, hi = d.spans[c - 1]
        join([mark_stub(c, lo, True), *(4 * k + e for k in ks for e in (2, 3)),
              mark_stub(c, hi, True)])

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


# --- inputs ------------------------------------------------------------------

@st.composite
def oriented_grids(draw, max_size=40, min_size=2):
    m = draw(st.integers(min_size, max_size))
    x = draw(st.permutations(range(1, m + 1)))
    o = list(draw(st.permutations(range(1, m + 1))))
    for i in range(m):  # move each clash to the next row; that makes no new one
        if o[i] == x[i]:
            j = (i + 1) % m
            o[i], o[j] = o[j], o[i]
    return GridDiagram(m, tuple(x), tuple(o))


@st.composite
def unoriented_grids(draw, max_size=40, min_size=2):
    """Every unoriented grid is an oriented one with some rows' marks swapped."""
    g = draw(oriented_grids(max_size, min_size))
    flips = draw(st.lists(st.booleans(), min_size=g.size, max_size=g.size))
    rows = [(o, x) if f else (x, o) for x, o, f in zip(g.x_cols, g.o_cols, flips)]
    return GridDiagram(g.size, tuple(r[0] for r in rows), tuple(r[1] for r in rows), oriented=False)


@st.composite
def trees(draw, leaves):
    """A random tree no deeper than DEPTH_CAP, which half grids accept."""
    def build(k, room):  # room: the leaves the levels below could hold
        if k == 1:
            return LEAF
        half = room // 2
        left = draw(st.integers(max(1, k - half), min(k - 1, half)))
        return node(build(left, half), build(k - left, half))

    return build(leaves, 2 ** DEPTH_CAP)


@st.composite
def tree_stacks(draw, max_leaves=20, min_leaves=1):
    """The stack of two random trees with n leaves: oriented when the half
    grids are compatible (always when both trees are equal).  It has
    2(n - 1) crossings."""
    n = draw(st.integers(min_leaves, max_leaves))
    top = draw(trees(n))
    bottom = top if draw(st.booleans()) else draw(trees(n))
    a, b = (half_grid_from_tree(t) for t in (top, bottom))
    return assemble(a, b) if is_compatible(a, b) else assemble_unoriented(a, b)


def busy_grids(max_size=40, min_size=4, max_leaves=20):
    """Random grids and tree stacks with at least 8 crossings: about half
    of the plain random grids have none, as Hypothesis favours the identity
    permutation, and the bracket has nothing to do on those."""
    def busy(g):
        return len(_crossing_positions(g)) >= 8

    return st.one_of(
        oriented_grids(max_size, min_size).filter(busy),
        unoriented_grids(max_size, min_size).filter(busy),
        tree_stacks(max_leaves, min_leaves=5),
    )


any_grid = st.one_of(busy_grids(), oriented_grids(8))  # small and crossingless ones too
half_grids = st.integers(1, 20).flatmap(lambda n: st.permutations(range(1, 2 * n + 1))).map(
    lambda images: perm_decode(Permutation(tuple(images)))
)


@st.composite
def dense_perm_stacks(draw, min_n=25, max_n=50):
    """A compatible stack of two permutation half grids, drawn the way the
    benchmark draws them: one shared X/O column pattern, the rows of each
    half in their own order, so rows and columns run both ways."""
    n = draw(st.integers(min_n, max_n))
    cols = draw(st.permutations(range(1, 2 * n + 1)))
    halves = [HalfGrid(n, tuple(draw(st.permutations(cols[:n]))),
                       tuple(draw(st.permutations(cols[n:]))))
              for _ in range(2)]
    return assemble(*halves)


UNKNOT = GridDiagram(2, (1, 2), (2, 1))


@st.composite
def beside_free_loops(draw):
    """An oriented grid with crossingless unknots placed corner to corner
    along the diagonal, before and after it."""
    g = draw(oriented_grids(12))
    before, after = draw(st.integers(0, 3)), draw(st.integers(1, 3))
    x, o = [], []
    for block in [UNKNOT] * before + [g] + [UNKNOT] * after:
        x += [len(o) + c for c in block.x_cols]
        o += [len(o) + c for c in block.o_cols]
    return GridDiagram(len(x), tuple(x), tuple(o))


def check_record(g):
    assert _crossing_positions(g) == oracle_crossing_positions(g)
    assert components(g) == oracle_components(g)
    if g.oriented:
        signed = oracle_signed_crossings(g)
        assert [(x.col, x.row, x.sign) for x in crossings(g)] == signed
        assert writhe(g) == sum(s for _, _, s in signed)
        s = front_stats(g)
        assert (s.writhe, s.cusps, s.up_cusps, s.down_cusps, s.tb, s.rot) == oracle_front_stats(g)
        assert seifert_stats(g) == oracle_seifert_stats(g)


# --- tests -------------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(any_grid)
def test_record_matches_oracles(g):
    check_record(g)


@settings(max_examples=10, deadline=None)
@given(st.one_of(tree_stacks(200, min_leaves=66).filter(lambda g: g.oriented),
                 dense_perm_stacks()))
def test_record_matches_oracles_at_benchmark_sizes(g):
    """Compatible tree stacks with 66 to 200 leaves, whose rows mostly have
    one crossing (the sweep's single `find`), and dense permutation stacks
    with 25 to 50 rows per half, whose rows have many (its `compress`)."""
    check_record(g)


def zigzag(depth):
    """The tree whose inner nodes hang off alternate sides, down to depth."""
    t = LEAF
    for i in range(depth):
        t = node(t, LEAF) if i % 2 else node(LEAF, t)
    return t


class CountedBytes(bytearray):
    """A bytearray that adds up the bytes its `count` calls are given."""

    counted = 0

    def count(self, sub, start, end):
        CountedBytes.counted += end - start
        return super().count(sub, start, end)


def test_sweep_scans_each_row_width_once(monkeypatch):
    """The sweep's cost, counted: per row it counts the column bytes strictly
    between the row's marks, |x - o| - 1 of them, and on a stack of tree
    half grids these add up to at most DEPTH_CAP + 1 bytes per column, for
    a depth-61 zigzag tree as for random trees with 2000 leaves."""
    monkeypatch.setattr(linkdiag, "bytearray", CountedBytes, raising=False)
    rng = random.Random(2000)
    pairs = [(zigzag(61),) * 2]
    while len(pairs) < 4:
        top, bottom = random_tree(2000, rng), random_tree(2000, rng)
        if max(top.depths + bottom.depths) <= DEPTH_CAP:
            pairs.append((top, bottom))
    for top, bottom in pairs:
        a, b = half_grid_from_tree(top), half_grid_from_tree(bottom)
        g = assemble(a, b) if is_compatible(a, b) else assemble_unoriented(a, b)
        d = diagram(g)
        CountedBytes.counted = 0
        assert len(d.positions) == 2 * (a.n - 1)
        widths = sum(abs(x - o) - 1 for x, o in d.rows)
        assert CountedBytes.counted == widths <= (DEPTH_CAP + 1) * d.width


@settings(max_examples=100, deadline=None)
@given(half_grids)
def test_half_grid_crossings_match_oracle(h):
    assert [(x.col, x.row, x.sign) for x in half_grid_crossings(h)] == oracle_half_grid_crossings(h)


@settings(max_examples=150, deadline=None)
@given(st.one_of(any_grid, unoriented_grids(8), half_grids), st.booleans())
def test_render_ascii_matches_oracle(obj, ascii_only):
    assert linkdiag.render_ascii(obj, ascii_only) == oracle_render_ascii(obj, ascii_only)


def renamed_arcs(arcs):
    """(pd, arc count, free loops) with the PD labels renamed in order of
    first appearance, as `oracle_arcs` numbers them: a PD code is defined
    only up to renaming its labels."""
    pd, arc_count, loops = arcs
    rank = {}
    return tuple(tuple(rank.setdefault(x, len(rank)) for x in ends) for ends in pd), arc_count, loops


@settings(max_examples=150, deadline=None)
@given(any_grid)
def test_arcs_match_oracle(g):
    assert renamed_arcs(diagram(g).arcs) == oracle_arcs(diagram(g))


@settings(max_examples=150, deadline=None)
@given(any_grid)
def test_arcs_run_in_travel_order(g):
    """The labels are 0..2c-1, each at two ends, one consecutive block per
    component in `cycles` order.  A crossing's W/E ends hold two
    consecutive labels of its row's component, or the last and first of
    that block, and its S/N ends likewise for its column's component."""
    d = diagram(g)
    pd, arc_count, _ = d.arcs
    assert arc_count == 2 * len(pd)
    assert Counter(x for ends in pd for x in ends) == dict.fromkeys(range(arc_count), 2)
    component = {}
    for i, cols in enumerate(d.cycles):
        component.update(dict.fromkeys(cols, i))
    strands = []  # (component, its labels) of each crossing's row and column
    for (col, row), (w, e, s, n) in zip(d.positions, pd):
        strands += [(component[d.rows[row - 1][0]], {w, e}), (component[col], {s, n})]
    passages = Counter(i for i, _ in strands)
    starts = list(itertools.accumulate((passages[i] for i in range(len(d.cycles))), initial=0))
    for i, labels in strands:
        first, last, j = starts[i], starts[i + 1] - 1, min(labels)
        assert first <= j and max(labels) <= last
        assert labels in ({j, j + 1}, {first, last})


@settings(max_examples=100, deadline=None)
@given(st.one_of(any_grid, tree_stacks(200, min_leaves=66).filter(lambda g: g.oriented)), st.data())
def test_loops_match_oracle(g, data):
    """Any smoothing, also on compatible tree stacks with 260 to 796 arcs."""
    d = diagram(g)
    c = len(d.positions)
    smoothing = data.draw(st.lists(st.booleans(), min_size=c, max_size=c))
    assert pd_loops(d, smoothing) == oracle_loops(d, smoothing)


@settings(max_examples=40, deadline=None)
@given(st.one_of(tree_stacks(200, min_leaves=66).filter(lambda g: g.oriented),
                 dense_perm_stacks(), beside_free_loops()))
def test_seifert_stats_at_benchmark_sizes(g):
    """The walk over the record against the piece-tracing oracle and the PD
    route (a splice per crossing, A-wise at the positive ones), on tree
    stacks with 66 to 200 leaves, dense permutation stacks with 25 to 50
    rows per half, and grids beside crossingless unknots."""
    d = diagram(g)
    circles, euler = seifert_stats(g)
    assert (circles, euler) == oracle_seifert_stats(g)
    assert circles == pd_loops(d, [s > 0 for s in d.signs])


@settings(max_examples=40, deadline=None)
@given(busy_grids(10, min_size=7, max_leaves=7))
def test_bracket_matches_oracle(g):
    assume(len(oracle_crossing_positions(g)) <= 12)
    assert kauffman_bracket(g) == oracle_bracket(g)


@settings(max_examples=40, deadline=None)
@given(busy_grids(10, min_size=7, max_leaves=8))
def test_bracket_matches_state_sum(g):
    assume(len(_crossing_positions(g)) <= 14)
    assert kauffman_bracket(g) == oracle_state_sum_bracket(g)


@settings(max_examples=40, deadline=None)
@given(busy_grids(12, min_size=6, max_leaves=12))
def test_bracket_matches_row_sweep(g):
    """The chosen sweep order gives the row sweep's bracket, up to c = 22
    (tree stacks with 12 leaves), where the row sweep is still quick."""
    assume(len(_crossing_positions(g)) <= 22)
    assert kauffman_bracket(g) == oracle_row_sweep_bracket(g)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_self_stack_at_the_cap_is_the_unlink(seed):
    """A 13-leaf tree stacked on itself has 24 crossings, the bracket's cap,
    and is the 13-component unlink: its bracket d^12 spans 13 packed digits,
    up to the middle coefficient C(12, 6) = 924."""
    h = half_grid_from_tree(random_tree(13, random.Random(seed)))
    g = assemble(h, h)
    assert len(_crossing_positions(g)) == linkdiag.BRACKET_CAP == 24
    assert components(g)[0] == 13 and writhe(g) == 0
    assert kauffman_bracket(g) == power(LOOP, 12)


def random_perm_stack(crossings, rng):
    """Two random permutation half grids with 6 or 7 rows, stacked
    unoriented, redrawn until the stack has exactly `crossings` crossings."""
    while True:
        n = rng.choice((6, 7))
        halves = [perm_decode(Permutation(tuple(rng.sample(range(1, 2 * n + 1), 2 * n))))
                  for _ in range(2)]
        g = assemble_unoriented(*halves)
        if len(_crossing_positions(g)) == crossings:
            return g


@pytest.mark.parametrize("crossings", [23, 24])
@pytest.mark.parametrize("seed", [1, 2])
def test_bracket_at_the_cap_matches_row_sweep_and_mirrors(crossings, seed):
    """Near the cap, past the reach of the property above, on permutation
    stacks; reversing the columns draws the mirror image."""
    g = random_perm_stack(crossings, random.Random(seed))
    bracket = kauffman_bracket(g)
    assert bracket == oracle_row_sweep_bracket(g)
    m = g.size
    reversed_columns = GridDiagram(m, tuple(m + 1 - x for x in g.x_cols),
                                   tuple(m + 1 - o for o in g.o_cols), oriented=False)
    assert kauffman_bracket(reversed_columns) == bracket.mirror()


def test_bracket_matches_state_sum_on_every_small_tree_stack():
    """All 227 tree pairs with at most 5 leaves (c <= 8), stacked unoriented."""
    pairs = 0
    for n in range(1, 6):
        halves = [half_grid_from_tree(t) for t in enumerate_trees(n)]
        for a, b in itertools.product(halves, repeat=2):
            g = assemble_unoriented(a, b)
            assert kauffman_bracket(g) == oracle_state_sum_bracket(g)
            pairs += 1
    assert pairs == 227


@settings(max_examples=100, deadline=None)
@given(any_grid)
def test_sweep_order_is_the_narrower(g):
    d = diagram(g)
    rows, columns = sweep_orders(d)
    row, column = (oracle_frontier_width(d, order) for order in (rows, columns))
    order, width, _ = _sweep_order(d)
    assert width == min(row, column)
    assert list(order) == (rows if row <= column else columns)  # a tie keeps row order


@settings(max_examples=100, deadline=None)
@given(any_grid)
def test_sweep_order_is_a_permutation_of_the_crossings(g):
    order, _, _ = _sweep_order(diagram(g))
    assert sorted(order) == list(range(len(diagram(g).positions)))


@settings(max_examples=100, deadline=None)
@given(any_grid)
def test_sweep_order_lists_each_arc_where_it_finishes(g):
    """Each arc is in exactly one finished[k], at the crossing where a walk
    over the chosen order, counting ends as `oracle_frontier_width` does,
    meets its second end."""
    assume(len(_crossing_positions(g)) <= linkdiag.BRACKET_CAP)
    d = diagram(g)
    pd, arc_count, _ = d.arcs
    order, _, finished = _sweep_order(d)
    ends = Counter()
    second_end = {}
    for k in order:
        ends.update(pd[k])
        second_end.update((x, k) for x in pd[k] if ends[x] == 2)
    assert len(finished) == len(pd) and len(second_end) == arc_count
    assert sorted((x, k) for k, xs in enumerate(finished) for x in xs) == sorted(second_end.items())


def test_sweep_widths_of_a_golden_tree_stack():
    """trees-n7 of the golden fixtures: a horizontal cut meets every one of
    the 14 columns, a vertical one 6 arcs at most."""
    pair = parse_pair("(.(((..).)(.(..))))|(.((((..).)(..)).))")
    g = assemble(half_grid_from_tree(pair.top), half_grid_from_tree(pair.bottom))
    assert len(_crossing_positions(g)) == 12
    d = diagram(g)
    assert [oracle_frontier_width(d, order) for order in sweep_orders(d)] == [14, 6]
    assert _sweep_order(d)[1] == 6


def test_row_order_is_kept_for_a_rotated_self_stack():
    """trees-n13-self of the golden fixtures turned a quarter: its columns
    become rows, so a vertical cut now meets every one of them and the row
    sweep is the narrow one.  No benchmark stack takes the row side."""
    pair = parse_pair("((.(..))((..)((((..)(..))(.(..))).)))|((.(..))((..)((((..)(..))(.(..))).)))")
    g = rotate90(assemble(half_grid_from_tree(pair.top), half_grid_from_tree(pair.bottom)))
    assert len(_crossing_positions(g)) == 24
    d = diagram(g)
    assert [oracle_frontier_width(d, order) for order in sweep_orders(d)] == [8, 26]
    order, width, _ = _sweep_order(d)
    assert isinstance(order, range) and width == 8
    assert kauffman_bracket(g) == oracle_row_sweep_bracket(g)


def test_bracket_with_an_arc_closing_at_its_own_crossing():
    """A kink: one arc runs from one end of a crossing to the other end of
    the same smoothing pair, so that smoothing closes a loop on the spot."""
    kinked_unknot = GridDiagram(3, (1, 3, 2), (2, 1, 3))  # one crossing, B pairs
    kinked_trefoil = GridDiagram(6, (1, 5, 2, 3, 4, 6), (3, 4, 5, 6, 1, 2))  # S, E of crossing 1
    for g, pairs in ((kinked_unknot, _B_ENDS), (kinked_trefoil, _A_ENDS)):
        d = diagram(g)
        pd, _, _ = d.arcs
        kinks = [(k, arcs[p]) for k, arcs in enumerate(pd) for p, q in pairs if arcs[p] == arcs[q]]
        assert kinks
        finished = _sweep_order(d)[2]
        assert all(finished[k].count(x) == 1 for k, x in kinks)  # listed once
        assert kauffman_bracket(g) == oracle_state_sum_bracket(g) == oracle_bracket(g)
    assert kauffman_bracket(kinked_unknot) == LaurentPoly({-3: -1})
    assert kauffman_bracket(kinked_trefoil) == LaurentPoly({3: -1}) * RIGHT_TREFOIL_BRACKET


def test_compatible_tree_stacks_match_oracles():
    for n in range(1, 6):
        halves = [
            (leaf_signs(t), half_grid_from_tree(t))
            for t in enumerate_trees(n)
        ]
        for (s1, a), (s2, b) in itertools.product(halves, repeat=2):
            if s1 == s2:
                g = assemble(a, b)
                check_record(g)
                assert kauffman_bracket(g.unoriented()) == oracle_bracket(g)


def test_invariants_builds_one_diagram(monkeypatch):
    built = []

    class Counted(linkdiag.PlanarDiagram):
        def __init__(self, obj):
            built.append(obj)
            super().__init__(obj)

    monkeypatch.setattr(linkdiag, "PlanarDiagram", Counted)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["invariants", "--trees", "(((..).).)|(((..).).)"])
    assert code == 0 and "seifert_circles=" in out.getvalue()
    assert len(built) == 1


@pytest.mark.parametrize("argv,sweeps", [
    (["render", "--ascii-only"], 0),  # text needs only the spans and rows
    (["invariants"], 1),
])
def test_crossings_are_found_once_and_only_when_read(monkeypatch, argv, sweeps):
    calls = []

    def counted(rows, spans):
        calls.append(rows)
        return sweep(rows, spans)

    sweep = linkdiag._sweep
    monkeypatch.setattr(linkdiag, "_sweep", counted)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([*argv, "--trees", "(((..).).)|(((..).).)"])
    assert code == 0 and len(calls) == sweeps


def test_components_and_arcs_share_one_walk(monkeypatch):
    """`invariants` prints the cycles and a bracket summed over the PD arcs;
    both read the one cached component walk.  A half grid's arcs are still
    refused."""
    walks = []
    cycles = linkdiag.PlanarDiagram.__dict__["cycles"]
    walk = cycles.func

    def counted(d):
        walks.append(d)
        return walk(d)

    monkeypatch.setattr(cycles, "func", counted)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["invariants", "--trees", "((.(..))(.(.(..))))|(.((.(..))(.(..))))"])
    assert code == 0
    assert "components=3" in out.getvalue() and "crossings=12" in out.getvalue()
    assert "bracket=1*A^(-4) + 2*A^0 + 1*A^4" in out.getvalue()
    assert len(walks) == 1
    with pytest.raises(ValueError, match="^arcs need a closed diagram$"):
        diagram(HalfGrid(2, (2, 3), (4, 1))).arcs


def test_invariants_above_the_bracket_cap_build_no_arc_labels(monkeypatch):
    """The bracket is skipped above its cap, and nothing else `invariants`
    prints reads the PD labels or the per-column grouping."""
    grids = []
    grid = cli._grid

    def kept(args):
        grids.append(grid(args))
        return grids[-1]

    monkeypatch.setattr(cli, "_grid", kept)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["invariants", "--trees",  # oriented, 38 crossings
                         "(((((..)(..))(.((..)((..).)))).)(((.((..)(..)))(..))(..)))"
                         "|(((((..)(.(.(.((..)((..).)))))).)((.((..)((..)(..)))).)).)"])
    (g,) = grids
    assert code == 0 and g.oriented
    assert {"arcs", "col_crossings"}.isdisjoint(vars(diagram(g)))
    assert len(diagram(g).positions) == 38 > linkdiag.BRACKET_CAP
