"""The benchmark's own model of trees, half grids and stacked grids.

It imports nothing from halfgrids, so the generator and the oracles built on
it are a route independent of the program under test.  A tree is ``None``
for a leaf or a ``(left, right)`` tuple for a node.  Grids are ``(x_cols,
o_cols)`` tuples, one entry per row, rows bottom to top, columns 1-based.
"""

from __future__ import annotations

from fractions import Fraction

# halfgrids refuses trees whose midpoints pass DEPTH_CAP = 62; a leaf at
# depth d needs a midpoint at depth d + 1.
MAX_DEPTH = 61

NORTH, SOUTH, EAST, WEST = (0, 1), (0, -1), (1, 0), (-1, 0)


def tree_text(t) -> str:
    return "." if t is None else f"({tree_text(t[0])}{tree_text(t[1])})"


def parse_tree(text: str):
    """Inverse of tree_text."""
    stack: list = []
    for ch in text:
        if ch == "(":
            stack.append([])
            continue
        if ch == ".":
            sub = None
        elif ch == ")":
            sub = tuple(stack.pop())
        else:
            raise ValueError(f"unexpected {ch!r} in tree text")
        if not stack:
            return sub
        stack[-1].append(sub)
    raise ValueError("unterminated tree text")


def leaf_count(t) -> int:
    return 1 if t is None else leaf_count(t[0]) + leaf_count(t[1])


def depth(t) -> int:
    return 0 if t is None else 1 + max(depth(t[0]), depth(t[1]))


def leaf_signs(t, s: int = 1) -> list[int]:
    """Root +, a left child inherits its parent's sign, a right child flips it."""
    if t is None:
        return [s]
    return leaf_signs(t[0], s) + leaf_signs(t[1], -s)


def random_tree(n: int, rng):
    """Split position uniform at every node."""
    if n == 1:
        return None
    i = rng.randint(1, n - 1)
    return (random_tree(i, rng), random_tree(n - i, rng))


def compatible_partner(t, rng, moves: int):
    """A tree with the leaf signs of t, after `moves` attempted rewrites
    ((A(BC))D) <-> (A(B(CD))) at random nodes, redone while deeper than
    MAX_DEPTH.

    Both shapes give A, B, C, D the root signs s, -s, s, -s, so the leaf
    signs, and with them the half grid column marks, are unchanged.
    """
    if t is None:
        return t
    while True:
        root = _mutable(t)
        nodes = list(_internal(root))
        for _ in range(moves):
            x = rng.choice(nodes)
            left, right = x
            shapes = []
            if left is not None and left[1] is not None:
                shapes.append("forward")
            if right is not None and right[1] is not None:
                shapes.append("back")
            if not shapes:
                continue
            # the three nodes are reused in place, so `nodes` stays valid
            if rng.choice(shapes) == "forward":  # ((A(BC))D) -> (A(B(CD)))
                a, mid = left
                b, c = mid
                x[0], x[1] = a, left
                left[0], left[1] = b, mid
                mid[0], mid[1] = c, right
            else:  # (A(B(CD))) -> ((A(BC))D)
                b, mid = right
                c, d = mid
                x[0], x[1] = right, d
                right[0], right[1] = left, mid
                mid[0], mid[1] = b, c
        out = _frozen(root)
        if depth(out) <= MAX_DEPTH:
            return out


def _mutable(t):
    return None if t is None else [_mutable(t[0]), _mutable(t[1])]


def _frozen(t):
    return None if t is None else (_frozen(t[0]), _frozen(t[1]))


def _internal(t):
    if t is not None:
        yield t
        yield from _internal(t[0])
        yield from _internal(t[1])


def _intervals(t, k=0, m=0, out=None):
    """Every node of t as the standard dyadic interval (k, m) it spans."""
    if out is None:
        out = []
    out.append((k, m))
    if t is not None:
        _intervals(t[0], 2 * k, m + 1, out)
        _intervals(t[1], 2 * k + 1, m + 1, out)
    return out


def _leaves(t, k=0, m=0):
    if t is None:
        yield k, m
    else:
        yield from _leaves(t[0], 2 * k, m + 1)
        yield from _leaves(t[1], 2 * k + 1, m + 1)


def partition_text(t) -> str:
    """Breakpoints of the leaves as 'k/2^m' text with decimal denominators."""
    points = ["0"]
    for k, m in _leaves(t):
        num = k + 1
        while m and num % 2 == 0:
            num, m = num // 2, m - 1
        points.append(str(num) if m == 0 else f"{num}/{1 << m}")
    return ",".join(points)


def half_grid(t) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The half grid of the tree's partition, as the paper builds it.

    Columns: every spanned interval in midpoint order, from column 2.
    Rows: the positive intervals, shortest first, ties by midpoint.  An X
    marks each positive interval, an O each negative one, in the row of its
    (positive) sibling; the root's row gets the default O in column 1.
    """
    ivs = _intervals(t)
    top = max(m for _, m in ivs) + 1

    def mid(iv):
        k, m = iv
        return (2 * k + 1) << (top - m - 1)

    def positive(iv):
        return bin(iv[0]).count("1") % 2 == 0

    col = {iv: i + 2 for i, iv in enumerate(sorted(ivs, key=mid))}
    row = {
        iv: i + 1
        for i, iv in enumerate(sorted((iv for iv in ivs if positive(iv)), key=lambda iv: (-iv[1], mid(iv))))
    }
    n = len(row)
    x_cols, o_cols = [0] * n, [0] * n
    o_cols[n - 1] = 1
    for iv in ivs:
        if positive(iv):
            x_cols[row[iv] - 1] = col[iv]
        else:
            o_cols[row[(iv[0] ^ 1, iv[1])] - 1] = col[iv]
    return tuple(x_cols), tuple(o_cols)


def perm_half_grid(images) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Decode sigma = (X(1), O(1), ..., X(n), O(n))."""
    return tuple(images[0::2]), tuple(images[1::2])


def perm_text(x_cols, o_cols) -> str:
    return " ".join(str(c) for pair in zip(x_cols, o_cols) for c in pair)


def stack(top, bottom) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The 2n x 2n grid: the bottom half flipped with X and O swapped, then the top."""
    (tx, to), (bx, bo) = top, bottom
    return tuple(reversed(bo)) + tx, tuple(reversed(bx)) + to


def column_spans(grid) -> dict[int, tuple[int, int]]:
    rows: dict[int, list[int]] = {}
    for r, pair in enumerate(zip(*grid), start=1):
        for c in pair:
            rows.setdefault(c, []).append(r)
    return {c: (min(rs), max(rs)) for c, rs in rows.items()}


def components(grid) -> list[frozenset[int]]:
    """Link components as sets of columns, by union-find over the rows that
    join two columns."""
    x_cols, o_cols = grid
    parent = list(range(len(x_cols) + 1))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for x, o in zip(x_cols, o_cols):
        parent[find(x)] = find(o)
    classes: dict[int, set[int]] = {}
    for c in range(1, len(x_cols) + 1):
        classes.setdefault(find(c), set()).add(c)
    return sorted((frozenset(s) for s in classes.values()), key=min)


def crossings(grid) -> list[tuple[int, int]]:
    """(col, row) wherever a column passes strictly under a row."""
    x_cols, o_cols = grid
    spans = column_spans(grid)
    out = []
    for r, (x, o) in enumerate(zip(x_cols, o_cols), start=1):
        for c in range(min(x, o) + 1, max(x, o)):
            lo, hi = spans[c]
            if lo < r < hi:
                out.append((c, r))
    return out


def writhe(grid) -> int:
    """Sum of crossing signs of an oriented grid.

    Rows run X to O, columns O to X, horizontals are over; the sign is +1
    when the over direction is the under direction turned clockwise.
    """
    x_cols, o_cols = grid
    x_row = {c: r for r, c in enumerate(x_cols, start=1)}
    o_row = {c: r for r, c in enumerate(o_cols, start=1)}
    total = 0
    for c, r in crossings(grid):
        x, o = x_cols[r - 1], o_cols[r - 1]
        over = EAST if o > x else WEST
        under = NORTH if x_row[c] > o_row[c] else SOUTH
        total += 1 if over == (under[1], -under[0]) else -1
    return total


def pl_map(top, bottom, x: Fraction) -> Fraction:
    """Image of x under the PL map sending top's leaf intervals to bottom's."""
    for (kt, mt), (kb, mb) in zip(_leaves(top), _leaves(bottom)):
        lo = Fraction(kt, 1 << mt)
        if lo <= x <= Fraction(kt + 1, 1 << mt):
            return Fraction(kb, 1 << mb) + (x - lo) * Fraction(2) ** (mt - mb)
    raise ValueError(f"{x} is outside [0, 1]")


def has_common_caret(top, bottom) -> bool:
    """Whether some leaves i, i+1 form a caret in both trees."""
    return bool(_caret_starts(top) & _caret_starts(bottom))


def _caret_starts(t) -> set[int]:
    out: set[int] = set()

    def walk(sub, offset: int) -> int:
        if sub is None:
            return 1
        if sub[0] is None and sub[1] is None:
            out.add(offset)
            return 2
        left = walk(sub[0], offset)
        return left + walk(sub[1], offset + left)

    walk(t, 0)
    return out
