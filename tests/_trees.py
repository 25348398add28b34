"""Tree tools the tests use and no command needs: random trees for fuzzing,
and refinement by grafting, the textbook route to a common tree pair that
`multiply` replaces with one scan."""

from __future__ import annotations

from halfgrids.thompson import Tree, TreePair, _align


class NotARefinement(ValueError):
    """Target tree does not contain the source tree as a rooted prefix."""


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
    pieces: list[list[int]] = [[] for _ in base.depths]
    for d, i, j in _align(base.depths, refined.depths):
        if d != refined.depths[j]:
            raise NotARefinement("target does not refine the base tree")
        pieces[i].append(d - base.depths[i])
    return [Tree(tuple(p)) for p in pieces]


def refine_to(g: TreePair, target_bottom: Tree) -> TreePair:
    """Re-express g over a refined bottom tree; same group element."""
    pieces = grafts_between(g.bottom, target_bottom)
    return TreePair(graft(g.top, pieces), target_bottom)
