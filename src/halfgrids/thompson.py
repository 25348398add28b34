"""Binary trees, tree pairs, and the piecewise-linear group they represent.

A tree pair (top, bottom) with equal leaf counts stands for the PL
homeomorphism of [0,1] sending the top partition's breakpoints to the
bottom's, linearly in between.  Pairs coming out of the group operations
are always reduced.

A tree is the tuple of its leaf depths, left to right: a leaf of depth d
and index k is the standard dyadic interval [k/2^d, (k+1)/2^d].  A tree
keeps the leaf indices found by the scan that validated or built it, so no
later operation scans its depths for them again.  Every operation is one
linear scan over these tuples without recursion, so trees of any depth
work; only breakpoints, half grids and map values meet DEPTH_CAP.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .dyadic import (
    DEPTH_CAP, Dyadic, SdPartition, ZERO, ONE, midpoint, midpoint_inverse, sign, spanning_intervals,
)
from .errors import DepthExceeded, ParseError


def _indices(depths) -> tuple[int, ...]:
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
    return tuple(out)


@dataclass(frozen=True)
class Tree:
    """A full binary tree, given by the depths of its leaves left to right.

    Equality, hashing and repr use the depths alone; `indices`, the leaf
    indices `_indices` finds for them, is set when the tree is built."""

    depths: tuple[int, ...]

    def __post_init__(self):
        depths = tuple(self.depths)
        object.__setattr__(self, "depths", depths)
        object.__setattr__(self, "indices", _indices(depths))

    def __str__(self) -> str:
        return format_tree(self)


def _trusted(depths: tuple[int, ...], indices: tuple[int, ...]) -> Tree:
    """A Tree from depths and indices the tree algebra built out of valid
    trees, read by `parse_tree` from a text its grammar accepted, or read
    by `dyadic.partition_leaves` from a checked partition; skips the
    `_indices` re-check that user-built trees go through."""
    t = object.__new__(Tree)
    object.__setattr__(t, "depths", depths)
    object.__setattr__(t, "indices", indices)
    return t


LEAF = Tree((0,))


def node(left: Tree, right: Tree) -> Tree:
    return Tree(tuple(d + 1 for d in left.depths + right.depths))


def format_tree(t: Tree) -> str:
    parts = []
    open_ = 0
    # c: how many subtrees end at the leaf, its run of right-child steps
    # upward, the number of trailing 1-bits of its index
    for d, k in zip(t.depths, t.indices):
        c = (k ^ (k + 1)).bit_length() - 1
        parts.append("(" * (d - open_) + "." + ")" * c)
        open_ = d - c
    return "".join(parts)


def parse_tree(text: str) -> Tree:
    """The tree a text of '(', '.' and ')' spells.  The scan tracks the
    index k of the current node at its depth, so it finds the leaf indices
    too: a '(' steps to the left child (k <<= 1), a right child is its left
    sibling's k + 1, and a ')' steps back to the parent (k >>= 1).  The
    grammar admits only full binary trees, so the tree is not re-checked."""
    depths: list[int] = []
    indices: list[int] = []
    filled: list[bool] = []  # per open '(': has its left child been read?
    k = 0
    pos, end = 0, len(text)
    while True:  # read one subtree starting at pos
        if pos == end:
            raise ParseError("unexpected end of tree text")
        ch = text[pos]
        pos += 1
        if ch == "(":
            filled.append(False)
            k <<= 1
            continue
        if ch != ".":
            raise ParseError(f"unexpected character {ch!r} in tree")
        depths.append(len(filled))
        indices.append(k)
        while filled and filled[-1]:  # a right child ends its parent
            if pos == end or text[pos] != ")":
                raise ParseError("missing ')' in tree")
            pos += 1
            filled.pop()
            k >>= 1
        if not filled:
            break
        filled[-1] = True
        k += 1
    if pos < end:
        raise ParseError(f"trailing characters {text[pos:]!r} after tree")
    return _trusted(tuple(depths), tuple(indices))


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
    lows = (Dyadic(k, d) for k, d in zip(t.indices, t.depths))
    return SdPartition((*lows, ONE))


def leaf_signs(t: Tree) -> tuple[str, ...]:
    """Sign per leaf, left to right: root +, left child inherits, right flips.

    That is '-' when the leaf's index has an odd number of 1-bits: each
    1-bit of the index is a right-child step on the leaf's path."""
    return tuple("-" if k.bit_count() & 1 else "+" for k in t.indices)


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
    top, bottom = g.top, g.bottom
    stack: list[tuple[int, int, int, int]] = []
    for dt, kt, db, kb in zip(top.depths, top.indices, bottom.depths, bottom.indices):
        while stack:
            pt, pkt, pb, pkb = stack[-1]
            if pt != dt or pb != db or (pkt | pkb) & 1:
                break
            stack.pop()
            dt, kt, db, kb = dt - 1, pkt >> 1, db - 1, pkb >> 1
        stack.append((dt, kt, db, kb))
    tops, kts, bottoms, kbs = zip(*stack)
    return TreePair(_trusted(tops, kts), _trusted(bottoms, kbs), reduced=True)


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
    return reduce_pair(TreePair(Tree(top), Tree(bottom)))


def apply_map(g: TreePair, x: Dyadic) -> Dyadic:
    """Exact image of x under the PL map of g."""
    if not ZERO <= x <= ONE:
        raise ValueError("argument outside [0,1]")
    top, bottom = g.top.depths, g.bottom.depths
    if max(top) > DEPTH_CAP or max(bottom) > DEPTH_CAP:
        raise DepthExceeded("tree too deep for dyadic breakpoints")
    num, e = x.num, x.exp
    for ka, da, kb, db in zip(g.top.indices, top, g.bottom.indices, bottom):
        if num << da <= (ka + 1) << e:  # first top leaf whose right end is >= x
            # kb/2^db + (x - ka/2^da) * 2^(da - db)
            return Dyadic(((kb - ka) << e) + (num << da), db + e)
    raise AssertionError("unreachable: the leaves cover [0,1]")


def is_oriented(g: TreePair) -> bool:
    """Top and bottom induce the same leaf signs.

    Any pair for g may be tested, reduced or not.  Adding a common caret at
    leaf i splits a top leaf of sign s into leaves of signs s, -s and the
    bottom leaf of sign s' into s', -s', and leaves every other sign as it
    was; so the two sign sequences agree after the expansion exactly when
    they agreed before, and every pair for g agrees as its reduced form
    does."""
    return leaf_signs(g.top) == leaf_signs(g.bottom)


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
