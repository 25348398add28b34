"""Tree tools the tests use and no command needs: random trees for fuzzing,
refinement by grafting, and the routes the heap-id scans replaced, kept as
oracles.  These work on leaf depths and indices: `oracle_indices` finds
the indices from the depths, `oracle_parse_tree` reads a text one
character at a time with a stack of open nodes, and `oracle_multiply`
lists the common refinement of the two middle trees as depths before one
stack scan reduces the product (`oracle_reduce`)."""

from __future__ import annotations

from halfgrids.errors import ParseError
from halfgrids.thompson import Tree, TreePair


class NotARefinement(ValueError):
    """Target tree does not contain the source tree as a rooted prefix."""


def oracle_indices(depths) -> tuple[int, ...]:
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


def oracle_ids(depths) -> tuple[int, ...]:
    """Heap ids (1 << d) | k of the leaves, from `oracle_indices`."""
    return tuple((1 << d) | k for d, k in zip(depths, oracle_indices(depths)))


def oracle_parse_tree(text: str) -> Tree:
    """Reads one character at a time; per open '(' a flag records whether
    its left child has been read."""
    depths: list[int] = []
    filled: list[bool] = []
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


def oracle_reduce(g: TreePair) -> TreePair:
    """Leaves i, i+1 form a caret when their depths are equal and the left
    index is even; the top two stack entries merge while they form a caret
    in both trees."""
    top, bottom = g.top.depths, g.bottom.depths
    stack: list[tuple[int, int, int, int]] = []
    for dt, kt, db, kb in zip(top, oracle_indices(top), bottom, oracle_indices(bottom)):
        while stack:
            pt, pkt, pb, pkb = stack[-1]
            if pt != dt or pb != db or (pkt | pkb) & 1:
                break
            stack.pop()
            dt, kt, db, kb = dt - 1, pkt >> 1, db - 1, pkb >> 1
        stack.append((dt, kt, db, kb))
    tops, _, bottoms, _ = zip(*stack)
    return TreePair(Tree(tops), Tree(bottoms))


def oracle_multiply(g: TreePair, h: TreePair) -> TreePair:
    """Over the union of g's bottom and h's top, a leaf d levels below leaf
    i of g's bottom sits d levels below leaf i of g's top too (likewise for
    h); the product is reduced in a second pass."""
    gt, gb, ht, hb = g.top.depths, g.bottom.depths, h.top.depths, h.bottom.depths
    top, bottom = [], []
    for d, i, j in _align(gb, ht):
        top.append(gt[i] + d - gb[i])
        bottom.append(hb[j] + d - ht[j])
    return oracle_reduce(TreePair(Tree(top), Tree(bottom)))


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


def graft(t: Tree, grafts: list[Tree]) -> Tree:
    """Replace leaf i with grafts[i], for all leaves left to right."""
    if len(grafts) != len(t.depths):
        raise ValueError("need one graft per leaf")
    return Tree(tuple(d + e for d, g in zip(t.depths, grafts) for e in g.depths))


def tree_union(a: Tree, b: Tree) -> Tree:
    """Least common refinement of two trees."""
    return Tree(tuple(d for d, _, _ in _align(a.depths, b.depths)))


def grafts_between(base: Tree, refined: Tree) -> list[Tree]:
    """Subtrees hanging below each leaf of base inside refined."""
    base_depths, refined_depths = base.depths, refined.depths
    pieces: list[list[int]] = [[] for _ in base_depths]
    for d, i, j in _align(base_depths, refined_depths):
        if d != refined_depths[j]:
            raise NotARefinement("target does not refine the base tree")
        pieces[i].append(d - base_depths[i])
    return [Tree(tuple(p)) for p in pieces]


def refine_to(g: TreePair, target_bottom: Tree) -> TreePair:
    """Re-express g over a refined bottom tree; same group element."""
    pieces = grafts_between(g.bottom, target_bottom)
    return TreePair(graft(g.top, pieces), target_bottom)
