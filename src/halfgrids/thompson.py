"""Binary trees, tree pairs, and the piecewise-linear group they represent.

A tree pair (top, bottom) with equal leaf counts stands for the PL
homeomorphism of [0,1] sending the top partition's breakpoints to the
bottom's, linearly in between.  Pairs coming out of the group operations
are always reduced.

A tree is the tuple of its leaves' heap ids, left to right: the leaf of
depth d and index k, the standard dyadic interval [k/2^d, (k+1)/2^d], has
id (1 << d) | k.  The root [0,1] is 1, the children of h are 2h and 2h + 1,
its parent is h >> 1 and its sibling h ^ 1.  One int per leaf is all the
tree algebra reads and writes: parsing, formatting, leaf signs, inverses
and reduction are each one linear scan over the ids; a product collects its
leaves on two int lists, then runs the one reduction scan; the map finds a
point's leaf by bisection over the top ids, O(log n) per point.  None of
them recurses, so trees of any depth work; only breakpoints, half grids
and map values meet DEPTH_CAP.  Depths and indices are read off the ids
when a caller asks for them.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property, lru_cache
from operator import xor

from .errors import DEPTH_CAP, DepthExceeded, Frozen, ParseError

TYPE_CHECKING = False  # type checkers read True; `typing` stays unloaded
if TYPE_CHECKING:
    from collections.abc import Sequence

    from .dyadic import Dyadic, SdPartition


def _ids(depths: tuple[int, ...]) -> tuple[int, ...]:
    """Heap id of each leaf, from its depth: a leaf starts where the last
    one ended, at id + 1 of the last leaf, moved down or up to its own
    depth.  Raises ValueError unless these intervals tile [0,1] left to
    right, that is, unless the depths are a binary tree's."""
    if not depths or min(depths) < 0:
        raise ValueError("not the leaf depths of a binary tree")
    out = []
    start = 1  # id of the interval where the next leaf starts, at the last leaf's depth
    for d in depths:
        e = start.bit_length() - 1
        if d >= e:
            h = start << (d - e)
        elif start & ((1 << (e - d)) - 1):
            raise ValueError("not the leaf depths of a binary tree")
        else:
            h = start >> (e - d)
        out.append(h)
        start = h + 1
        if not start & h:  # h is all 1-bits: its right end is 1
            break
    if start & h or len(out) < len(depths):
        raise ValueError("not the leaf depths of a binary tree")
    return tuple(out)


class Tree(Frozen):
    """A full binary tree, built from the depths of its leaves left to right.

    It holds one int per leaf, its heap id; `depths` and `indices` are read
    off the ids when asked for.  Ids and depths determine each other, so
    equality and hashing use the ids, and repr shows the depths."""

    __slots__ = ("ids",)
    ids: tuple[int, ...]

    def __init__(self, depths):
        object.__setattr__(self, "ids", _ids(tuple(depths)))

    @property
    def depths(self) -> tuple[int, ...]:
        return tuple(h.bit_length() - 1 for h in self.ids)

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(h ^ (1 << (h.bit_length() - 1)) for h in self.ids)

    def __repr__(self) -> str:
        return f"Tree(depths={self.depths!r})"

    def __str__(self) -> str:
        return format_tree(self)


def _trusted(ids: tuple[int, ...]) -> Tree:
    """A Tree from leaf ids the tree algebra built out of valid trees, read
    by `parse_tree` from a text its grammar accepted, or read by
    `dyadic.partition_leaves` from a checked partition; skips the check
    that trees built from depths go through."""
    t = object.__new__(Tree)
    object.__setattr__(t, "ids", ids)
    return t


LEAF = _trusted((1,))


def _join(left: tuple[int, ...], right: tuple[int, ...]) -> tuple[int, ...]:
    """Leaf ids of the tree with subtrees left and right: below the leading
    1-bit of each id goes a 0 (left) or a 1 (right), the step from the root."""
    return (
        tuple(h ^ (3 << (h.bit_length() - 1)) for h in left)
        + tuple(h | (2 << (h.bit_length() - 1)) for h in right)
    )


def node(left: Tree, right: Tree) -> Tree:
    return _trusted(_join(left.ids, right.ids))


def format_tree(t: Tree) -> str:
    parts = []
    open_ = 0
    for h in t.ids:
        d = h.bit_length() - 1
        # c: how many subtrees end at the leaf, its run of right-child steps
        # upward, the trailing 1-bits of its id below the leading one
        c = min((h ^ (h + 1)).bit_length() - 1, d)
        parts.append("(" * (d - open_) + "." + ")" * c)
        open_ = d - c
    return "".join(parts)


def parse_tree(text: str) -> Tree:
    """The tree a text of '(', '.' and ')' spells, read as a walk of heap
    ids from the root, 1.  A '(' steps to the left child (h <<= 1) and a
    '.' is the leaf h.  A leaf that is a right child (h odd) ends its
    parent, which a ')' closes (h >>= 1), until h is a left child, whose
    right sibling h + 1 comes next.  The leaf whose id is all 1-bits is the
    last: it closes every open node, one ')' per level of its depth d, and
    a full tree of n leaves is 3n - 2 characters, so the final run of ')'
    starts at 3n - 2 - d.  The grammar admits only full binary trees, so
    the tree is not re-checked."""
    ids = []
    h = 1
    close = 0  # how many ')' must come before the next node
    for ch in text:
        if close:
            if ch != ")":
                raise ParseError("missing ')' in tree")
            close -= 1
        elif ch == "(":
            h <<= 1
        elif ch == ".":
            ids.append(h)
            q = h + 1
            if not q & h:  # the last leaf
                break
            close = (h ^ q).bit_length() - 1  # the trailing 1-bits of h
            h = q >> close
        else:
            raise ParseError(f"unexpected character {ch!r} in tree")
    else:
        raise ParseError("missing ')' in tree" if close else "unexpected end of tree text")
    d = h.bit_length() - 1
    pos = 3 * len(ids) - 2 - d
    if text.count(")", pos, pos + d) < d:
        raise ParseError("missing ')' in tree")
    if pos + d < len(text):
        raise ParseError(f"trailing characters {text[pos + d:]!r} after tree")
    return _trusted(tuple(ids))


def tree_from_partition(p: SdPartition) -> Tree:
    """Each subinterval [k/2^m, (k+1)/2^m] of p is the leaf (1 << m) | k.
    p is checked, so the ids are a tree's."""
    return _trusted(tuple((1 << iv.m) | iv.k for iv in p.subintervals()))


def partition_from_tree(t: Tree) -> SdPartition:
    if max(t.ids).bit_length() - 1 > DEPTH_CAP:
        raise DepthExceeded("tree too deep for dyadic breakpoints")
    from .dyadic import partition_from_leaves

    return partition_from_leaves(t.ids)


def leaf_signs(t: Tree) -> tuple[str, ...]:
    """Sign per leaf, left to right: root +, left child inherits, right flips.

    That is '-' when the leaf's id has an even number of 1-bits: each
    1-bit below the leading one is a right-child step on the leaf's path."""
    return tuple("+" if h.bit_count() & 1 else "-" for h in t.ids)


class TreePair(Frozen):
    """Group element as a (top, bottom) tree pair with equal leaf counts:
    leaf i of top maps affinely onto leaf i of bottom."""

    top: Tree
    bottom: Tree

    def __init__(self, top: Tree, bottom: Tree):
        if len(top.ids) != len(bottom.ids):
            raise ValueError("tree pair needs equal leaf counts")
        self.__dict__.update(top=top, bottom=bottom)

    @property
    def n(self) -> int:
        return len(self.top.ids)

    @cached_property
    def depth(self) -> int:
        """Depth of the deepest leaf of either tree, found on first use and
        kept: `apply_map` reads it on every call to refuse pairs deeper than
        DEPTH_CAP."""
        return max(max(self.top.ids), max(self.bottom.ids)).bit_length() - 1

    def __str__(self) -> str:
        return f"{format_tree(self.top)}|{format_tree(self.bottom)}"


IDENTITY = TreePair(LEAF, LEAF)


def parse_pair(text: str) -> TreePair:
    top_text, sep, bottom_text = text.partition("|")
    if not sep:
        raise ParseError("tree pair needs the form '<top>|<bottom>'")
    return TreePair(parse_tree(top_text), parse_tree(bottom_text))


def _reduce(tops: Sequence[int], bottoms: Sequence[int]) -> TreePair:
    """The reduced pair of the leaves whose top and bottom ids are tops[i]
    and bottoms[i], left to right, in one scan on two int stacks, each with
    a -1 sentinel: entry j of both stacks is a subtree in both trees.  A new
    leaf (t, u) and the top entries merge into their parents while they are
    right and left siblings in both trees; the result is the unique reduced
    pair."""
    top_stack, bottom_stack = [-1], [-1]  # sentinel: no id is a sibling of -1
    for t, u in zip(tops, bottoms):
        while t & u & 1 and top_stack[-1] == t ^ 1 and bottom_stack[-1] == u ^ 1:
            del top_stack[-1], bottom_stack[-1]
            t >>= 1
            u >>= 1
        top_stack.append(t)
        bottom_stack.append(u)
    return TreePair(_trusted(tuple(top_stack[1:])), _trusted(tuple(bottom_stack[1:])))


def reduce_pair(g: TreePair) -> TreePair:
    """Remove common carets in one stack scan; the result is unique."""
    return _reduce(g.top.ids, g.bottom.ids)


def inverse(g: TreePair) -> TreePair:
    return TreePair(g.bottom, g.top)


def multiply(g: TreePair, h: TreePair) -> TreePair:
    """Composition: apply g first, then h.  Result is reduced: one walk over
    the pieces of the least common refinement of g's bottom and h's top
    lists the product's leaves, which the scan of `reduce_pair` reduces.
    Each side keeps a stack of the pieces it has still to match, leftmost
    on top, each with its image: (g's bottom id, g's top id) and (h's top
    id, h's bottom id).  The two top pieces start at the same point, so the
    smaller id is the longer interval.  Equal ids are a piece of the
    product; otherwise the longer piece (x, a) splits, as an affine piece
    maps its halves to its image's halves: the left half (2x, 2a) stays on
    top, the right half (2x + 1, 2a + 1) goes below it."""
    g_stack = list(zip(g.bottom.ids, g.top.ids))[::-1]
    h_stack = list(zip(h.top.ids, h.bottom.ids))[::-1]
    tops, bottoms = [], []
    while g_stack:
        x, a = g_stack.pop()
        y, b = h_stack.pop()
        while x != y:
            if x < y:
                x, a = x << 1, a << 1
                g_stack.append((x | 1, a | 1))
            else:
                y, b = y << 1, b << 1
                h_stack.append((y | 1, b | 1))
        tops.append(a)
        bottoms.append(b)
    return _reduce(tops, bottoms)


def _right_end(h: int) -> int:
    """1 + the right end of the leaf h, over 2^DEPTH_CAP: it grows along a
    tree's leaves, and it is exact for leaves no deeper than DEPTH_CAP."""
    return (h + 1) << (DEPTH_CAP + 1 - h.bit_length())


def apply_map(g: TreePair, x: Dyadic) -> Dyadic:
    """Exact image of x under the PL map of g, made by x's class, Dyadic, so
    that no call imports the dyadic layer.  The top leaf that holds x, the
    first whose right end is >= x, is found by bisection over the top ids:
    O(log n) per point, after the depth check."""
    e = x.exp
    if not 0 <= x.num <= 1 << e:
        raise ValueError("argument outside [0,1]")
    if g.depth > DEPTH_CAP:
        raise DepthExceeded("tree too deep for dyadic breakpoints")
    hx = x.num + (1 << e)  # x + 1 is hx/2^e, as a leaf's left end + 1 is h/2^d
    i = bisect_left(g.top.ids, hx << (DEPTH_CAP - e), key=_right_end)
    a, b = g.top.ids[i], g.bottom.ids[i]
    # b/2^db + (x + 1 - a/2^da) * 2^(da - db) - 1
    da, db = a.bit_length() - 1, b.bit_length() - 1
    return type(x)(((b - a) << e) + (hx << da) - (1 << (db + e)), db + e)


def is_oriented(g: TreePair) -> bool:
    """Top and bottom induce the same leaf signs: each top leaf's id and
    the bottom one's have 1-bit counts of the same parity, an even count
    in their XOR.

    Any pair for g may be tested, reduced or not.  Adding a common caret at
    leaf i splits a top leaf of sign s into leaves of signs s, -s and the
    bottom leaf of sign s' into s', -s', and leaves every other sign as it
    was; so the two sign sequences agree after the expansion exactly when
    they agreed before, and every pair for g agrees as its reduced form
    does."""
    return not any(c & 1 for c in map(int.bit_count, map(xor, g.top.ids, g.bottom.ids)))


def is_oriented_via_points(g: TreePair) -> bool:
    """Independent test: the map preserves point signs on all of E(top),
    the midpoints of the spanning intervals; a point's sign is the sign of
    the interval it is the midpoint of."""
    from .dyadic import midpoint, midpoint_inverse, sign, spanning_intervals

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
    by_size: list[list[tuple[int, ...]]] = [[], [(1,)]]
    for size in range(2, n + 1):
        by_size.append([
            _join(left, right)
            for i in range(1, size)
            for left in by_size[i]
            for right in by_size[size - i]
        ])
    return tuple(map(_trusted, by_size[n]))
