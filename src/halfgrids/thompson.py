"""Binary trees, tree pairs, and the piecewise-linear group they represent.

A tree pair (top, bottom) with equal leaf counts stands for the PL
homeomorphism of [0,1] sending the top partition's breakpoints to the
bottom's, linearly in between.  Pairs coming out of the group operations
are always reduced.

A tree is the tuple of its leaf depths, left to right: a leaf of depth d
and index k is the standard dyadic interval [k/2^d, (k+1)/2^d].  Every
operation is one linear scan over these tuples without recursion, so trees
of any depth work; only breakpoints, half grids and map values meet
DEPTH_CAP.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .dyadic import (
    DEPTH_CAP, Dyadic, SdPartition, ZERO, ONE, midpoint, midpoint_inverse, sign, spanning_intervals,
)
from .errors import DepthExceeded, NotARefinement, ParseError


def _indices(depths) -> list[int]:
    """Index k of each leaf at its own depth d, as an exact int: the leaf is
    [k/2^d, (k+1)/2^d].  Raises ValueError unless these intervals tile
    [0,1] left to right, that is, unless the depths are a binary tree's."""
    if not depths or min(depths) < 0:
        raise ValueError("not the leaf depths of a binary tree")
    out = []
    k = prev = 0  # k/2^prev is the left end of the next leaf
    for d in depths:
        if d >= prev:
            k <<= d - prev
        elif k & ((1 << (prev - d)) - 1):
            raise ValueError("not the leaf depths of a binary tree")
        else:
            k >>= prev - d
        out.append(k)
        k += 1
        prev = d
    if k != 1 << prev:
        raise ValueError("not the leaf depths of a binary tree")
    return out


def _closes(depths) -> list[int]:
    """Per leaf, how many subtrees end at it: its run of right-child steps
    upward, the number of trailing 1-bits of its index."""
    return [(k ^ (k + 1)).bit_length() - 1 for k in _indices(depths)]


@dataclass(frozen=True)
class Tree:
    """A full binary tree, given by the depths of its leaves left to right."""

    depths: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "depths", tuple(self.depths))
        _indices(self.depths)

    def __str__(self) -> str:
        return format_tree(self)


def _trusted(depths: tuple[int, ...]) -> Tree:
    """A Tree from depths the tree algebra built out of valid trees; skips
    the `_indices` re-check that parsed and user-built trees go through."""
    t = object.__new__(Tree)
    object.__setattr__(t, "depths", depths)
    return t


LEAF = Tree((0,))


def node(left: Tree, right: Tree) -> Tree:
    return Tree(tuple(d + 1 for d in left.depths + right.depths))


def format_tree(t: Tree) -> str:
    parts = []
    open_ = 0
    for d, c in zip(t.depths, _closes(t.depths)):
        parts.append("(" * (d - open_) + "." + ")" * c)
        open_ = d - c
    return "".join(parts)


def parse_tree(text: str) -> Tree:
    depths: list[int] = []
    filled: list[bool] = []  # per open '(': has its left child been read?
    pos, end = 0, len(text)
    while True:  # read one subtree starting at pos
        if pos == end:
            raise ParseError("unexpected end of tree text")
        ch = text[pos]
        pos += 1
        if ch == "(":
            filled.append(False)
            continue
        if ch != ".":
            raise ParseError(f"unexpected character {ch!r} in tree")
        depths.append(len(filled))
        while filled and filled[-1]:  # a right child ends its parent
            if pos == end or text[pos] != ")":
                raise ParseError("missing ')' in tree")
            pos += 1
            filled.pop()
        if not filled:
            break
        filled[-1] = True
    if pos < end:
        raise ParseError(f"trailing characters {text[pos:]!r} after tree")
    return Tree(tuple(depths))


def tree_from_partition(p: SdPartition) -> Tree:
    """Each subinterval of p is a leaf; its length 1/2^d gives the depth."""
    bps = p.breakpoints
    depths = []
    for a, b in zip(bps, bps[1:]):
        e = max(a.exp, b.exp)
        gap = (b.num << (e - b.exp)) - (a.num << (e - a.exp))  # 2^(e - d)
        depths.append(e + 1 - gap.bit_length())
    return Tree(tuple(depths))


def partition_from_tree(t: Tree) -> SdPartition:
    if max(t.depths) > DEPTH_CAP:
        raise DepthExceeded("tree too deep for dyadic breakpoints")
    lows = (Dyadic(k, d) for k, d in zip(_indices(t.depths), t.depths))
    return SdPartition((*lows, ONE))


def leaf_signs(t: Tree) -> tuple[str, ...]:
    """Sign per leaf, left to right: root +, left child inherits, right flips.

    That is '-' when the leaf's index has an odd number of 1-bits; adding 1
    to an index with c trailing 1-bits changes that count by 1 - c."""
    signs = []
    odd = 0
    for c in _closes(t.depths):
        signs.append("-" if odd else "+")
        odd ^= (1 - c) & 1
    return tuple(signs)


def _align(a: tuple[int, ...], b: tuple[int, ...]) -> list[tuple[int, int, int]]:
    """Leaves of the least common refinement of two trees, as (depth, index
    of the leaf of a that holds it, index of the leaf of b that holds it).

    Walks both leaf sequences together; where one leaf is coarser it is
    split on a stack of pending pieces, smallest (leftmost) on top."""
    out = []
    i = j = 0
    pend_a: list[int] = []
    pend_b: list[int] = []
    x, y = a[0], b[0]
    while True:
        if x < y:
            pend_a.extend(range(x + 1, y + 1))
        elif y < x:
            pend_b.extend(range(y + 1, x + 1))
        out.append((max(x, y), i, j))
        if pend_a:
            x = pend_a.pop()
        else:
            i += 1
            if i == len(a):
                return out
            x = a[i]
        if pend_b:
            y = pend_b.pop()
        else:
            j += 1
            y = b[j]


def graft(t: Tree, grafts: list[Tree]) -> Tree:
    """Replace leaf i with grafts[i], for all leaves left to right."""
    if len(grafts) != len(t.depths):
        raise ValueError("need one graft per leaf")
    return _trusted(tuple(d + e for d, g in zip(t.depths, grafts) for e in g.depths))


def tree_union(a: Tree, b: Tree) -> Tree:
    """Least common refinement of two trees."""
    return Tree(tuple(d for d, _, _ in _align(a.depths, b.depths)))


def grafts_between(base: Tree, refined: Tree) -> list[Tree]:
    """Subtrees hanging below each leaf of base inside refined."""
    pieces: list[list[int]] = [[] for _ in base.depths]
    for d, i, j in _align(base.depths, refined.depths):
        if d != refined.depths[j]:
            raise NotARefinement("target does not refine the base tree")
        pieces[i].append(d - base.depths[i])
    return [Tree(tuple(p)) for p in pieces]


@dataclass(frozen=True)
class TreePair:
    """Group element as a (top, bottom) tree pair with equal leaf counts."""

    top: Tree
    bottom: Tree
    reduced: bool = field(default=False, compare=False)  # known reduced; not part of equality

    def __post_init__(self):
        if len(self.top.depths) != len(self.bottom.depths):
            raise ValueError("tree pair needs equal leaf counts")

    @property
    def n(self) -> int:
        return len(self.top.depths)

    def __str__(self) -> str:
        return f"{format_tree(self.top)}|{format_tree(self.bottom)}"


IDENTITY = TreePair(LEAF, LEAF, reduced=True)


def parse_pair(text: str) -> TreePair:
    top_text, sep, bottom_text = text.partition("|")
    if not sep:
        raise ParseError("tree pair needs the form '<top>|<bottom>'")
    return TreePair(parse_tree(top_text), parse_tree(bottom_text))


def reduce_pair(g: TreePair) -> TreePair:
    """Remove common carets in one stack scan; the result is unique.

    Leaves i, i+1 form a caret when their depths are equal and the left
    index is even.  Each stack entry is a subtree in both trees; the top two
    merge while they form a caret in both."""
    if g.reduced:
        return g
    top, bottom = g.top.depths, g.bottom.depths
    stack: list[tuple[int, int, int, int]] = []
    for dt, kt, db, kb in zip(top, _indices(top), bottom, _indices(bottom)):
        while stack:
            pt, pkt, pb, pkb = stack[-1]
            if pt != dt or pb != db or (pkt | pkb) & 1:
                break
            stack.pop()
            dt, kt, db, kb = dt - 1, pkt >> 1, db - 1, pkb >> 1
        stack.append((dt, kt, db, kb))
    tops, _, bottoms, _ = zip(*stack)
    return TreePair(_trusted(tops), _trusted(bottoms), reduced=True)


def refine_to(g: TreePair, target_bottom: Tree) -> TreePair:
    """Re-express g over a refined bottom tree; same group element."""
    pieces = grafts_between(g.bottom, target_bottom)
    return TreePair(graft(g.top, pieces), target_bottom)


def inverse(g: TreePair) -> TreePair:
    return TreePair(g.bottom, g.top, reduced=g.reduced)


def multiply(g: TreePair, h: TreePair) -> TreePair:
    """Composition: apply g first, then h.  Result is reduced.

    Over the union of g's bottom and h's top, a leaf d levels below leaf i
    of g's bottom sits d levels below leaf i of g's top too (likewise for h)."""
    gt, gb, ht, hb = g.top.depths, g.bottom.depths, h.top.depths, h.bottom.depths
    top, bottom = [], []
    for d, i, j in _align(gb, ht):
        top.append(gt[i] + d - gb[i])
        bottom.append(hb[j] + d - ht[j])
    return reduce_pair(TreePair(_trusted(tuple(top)), _trusted(tuple(bottom))))


def apply_map(g: TreePair, x: Dyadic) -> Dyadic:
    """Exact image of x under the PL map of g."""
    if not ZERO <= x <= ONE:
        raise ValueError("argument outside [0,1]")
    top, bottom = g.top.depths, g.bottom.depths
    if max(top) > DEPTH_CAP or max(bottom) > DEPTH_CAP:
        raise DepthExceeded("tree too deep for dyadic breakpoints")
    num, e = x.num, x.exp
    for ka, da, kb, db in zip(_indices(top), top, _indices(bottom), bottom):
        if num << da <= (ka + 1) << e:  # first top leaf whose right end is >= x
            # kb/2^db + (x - ka/2^da) * 2^(da - db)
            return Dyadic(((kb - ka) << e) + (num << da), db + e)
    raise AssertionError("unreachable: the leaves cover [0,1]")


def is_oriented(g: TreePair) -> bool:
    """Top and bottom of the reduced form induce the same leaf signs."""
    r = reduce_pair(g)
    return leaf_signs(r.top) == leaf_signs(r.bottom)


def is_oriented_via_points(g: TreePair) -> bool:
    """Independent test: the map preserves point signs on all of E(top),
    the midpoints of the spanning intervals; a point's sign is the sign of
    the interval it is the midpoint of."""
    return all(
        sign(midpoint_inverse(apply_map(g, midpoint(iv)))) == sign(iv)
        for iv in spanning_intervals(partition_from_tree(g.top))
    )


@lru_cache(maxsize=None)
def enumerate_trees(n: int) -> tuple[Tree, ...]:
    """All binary trees with n leaves, in split order (Catalan): by the
    left subtree's size, then left subtree, then right subtree."""
    if n < 1:
        raise ValueError("need at least one leaf")
    by_size: list[list[tuple[int, ...]]] = [[], [(0,)]]
    for size in range(2, n + 1):
        by_size.append([
            tuple(d + 1 for d in left + right)
            for i in range(1, size)
            for left in by_size[i]
            for right in by_size[size - i]
        ])
    return tuple(Tree(d) for d in by_size[n])


def random_tree(n: int, rng) -> Tree:
    """Uniform over split positions (not uniform Catalan; fine for fuzzing).

    Splits in preorder, left subtree first, with its own stack."""
    depths = []
    todo = [(n, 0)]  # (leaf count, depth) of subtrees still to split
    while todo:
        size, d = todo.pop()
        if size == 1:
            depths.append(d)
            continue
        i = rng.randint(1, size - 1)
        todo.append((size - i, d + 1))
        todo.append((i, d + 1))
    return Tree(tuple(depths))
