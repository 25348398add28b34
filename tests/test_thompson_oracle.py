"""The first tree algebra, on nested nodes, kept as a test oracle.

A tree here is None (a leaf) or a (left, right) tuple, and every algorithm
recurses over that structure: reduction finds the carets of both trees and
removes the leftmost common one until none is left, multiplication refines
both pairs over the union tree by grafting, and a partition comes from a
walk that halves intervals.  Production `halfgrids.thompson` works on leaf
heap ids in linear scans and a bisection; Hypothesis compares the two
through the tree text, on random pairs of up to 40 leaves, on pairs that
reduce heavily and on pairs whose trees have the same leaf signs.  The map
is also compared at every breakpoint and leaf midpoint of seeded pairs of
up to 400 leaves and of combs as deep as DEPTH_CAP.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from halfgrids.dyadic import DEPTH_CAP, Dyadic, ONE, SdPartition, ZERO
from halfgrids.errors import DepthExceeded
from halfgrids.thompson import (
    IDENTITY,
    Tree,
    apply_map,
    inverse,
    is_oriented,
    is_oriented_via_points,
    leaf_signs,
    multiply,
    parse_pair,
    parse_tree,
    partition_from_tree,
    reduce_pair,
)

from _trees import NotARefinement, graft, grafts_between, oracle_indices, refine_to, tree_union

# --- nested trees and their text -------------------------------------------


def fmt(t) -> str:
    return "." if t is None else f"({fmt(t[0])}{fmt(t[1])})"


def leaf_count(t) -> int:
    return 1 if t is None else leaf_count(t[0]) + leaf_count(t[1])


def depth(t) -> int:
    return 0 if t is None else 1 + max(depth(t[0]), depth(t[1]))


def random_tree(n: int, rng):
    if n == 1:
        return None
    i = rng.randint(1, n - 1)
    return (random_tree(i, rng), random_tree(n - i, rng))


# --- reduction by caret scans ----------------------------------------------


def caret_leaf_indices(t) -> set[int]:
    """Leaf indices i such that leaves i and i+1 form a caret (0-based)."""
    carets: set[int] = set()

    def walk(sub, offset):
        if sub is None:
            return 1
        if sub == (None, None):
            carets.add(offset)
            return 2
        nl = walk(sub[0], offset)
        return nl + walk(sub[1], offset + nl)

    walk(t, 0)
    return carets


def remove_caret(t, i: int):
    """Collapse the caret occupying leaves i, i+1 into a single leaf."""

    def walk(sub, offset):
        if sub is None:
            return sub
        if offset == i and sub == (None, None):
            return None
        nl = leaf_count(sub[0])
        if i < offset + nl:
            return (walk(sub[0], offset), sub[1])
        return (sub[0], walk(sub[1], offset + nl))

    return walk(t, 0)


def reduce_nested(top, bottom):
    while True:
        common = caret_leaf_indices(top) & caret_leaf_indices(bottom)
        if not common:
            return top, bottom
        i = min(common)
        top, bottom = remove_caret(top, i), remove_caret(bottom, i)


# --- multiplication by union and grafting ----------------------------------


def union_nested(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return (union_nested(a[0], b[0]), union_nested(a[1], b[1]))


def grafts_nested(base, refined) -> list:
    out = []

    def walk(b, r):
        if b is None:
            out.append(r)
            return
        if r is None:
            raise NotARefinement("target does not refine the base tree")
        walk(b[0], r[0])
        walk(b[1], r[1])

    walk(base, refined)
    return out


def graft_nested(t, grafts: list):
    it = iter(grafts)

    def walk(sub):
        if sub is None:
            return next(it)
        return (walk(sub[0]), walk(sub[1]))

    out = walk(t)
    assert next(it, None) is None
    return out


def refine_nested(top, bottom, target):
    return graft_nested(top, grafts_nested(bottom, target)), target


def multiply_nested(g, h):
    common = union_nested(g[1], h[0])
    top, _ = refine_nested(g[0], g[1], common)
    bottom, _ = refine_nested(h[1], h[0], common)
    return reduce_nested(top, bottom)


# --- signs, partitions and the map -----------------------------------------


def signs_nested(t) -> tuple[str, ...]:
    signs: list[str] = []

    def walk(sub, s):
        if sub is None:
            signs.append(s)
            return
        walk(sub[0], s)
        walk(sub[1], "-" if s == "+" else "+")

    walk(t, "+")
    return tuple(signs)


def partition_nested(t) -> SdPartition:
    if depth(t) > DEPTH_CAP:
        raise DepthExceeded("tree too deep for dyadic breakpoints")
    points = [ZERO]

    def walk(sub, lo, hi):
        if sub is None:
            points.append(hi)
            return
        mid = (lo + hi).mul_pow2(-1)
        walk(sub[0], lo, mid)
        walk(sub[1], mid, hi)

    walk(t, ZERO, ONE)
    return SdPartition(tuple(points))


def map_nested(top, bottom):
    """The PL map of (top, bottom), its partitions read once: the image of x
    comes from the first top subinterval that holds x."""
    src = partition_nested(top).subintervals()
    pieces = list(zip(src, partition_nested(bottom).subintervals()))

    def image(x: Dyadic) -> Dyadic:
        for a, b in pieces:
            if a.lo <= x <= a.hi:
                return b.lo + (x - a.lo).mul_pow2(a.m - b.m)
        raise AssertionError("unreachable: partitions cover [0,1]")

    return image


def apply_nested(top, bottom, x: Dyadic) -> Dyadic:
    return map_nested(top, bottom)(x)


def outcome(f):
    """A call's result as text, or the type of the domain error it raised."""
    try:
        return str(f())
    except (DepthExceeded, NotARefinement) as exc:
        return type(exc).__name__


# --- strategies ------------------------------------------------------------


def rewrite(t, rng, tries=8):
    """Apply ((A(BC))D) -> (A(B(CD))) at random nodes; leaf signs stay."""
    for _ in range(tries):
        nodes = []

        def collect(sub, path):
            if sub is None:
                return
            left = sub[0]
            if left is not None and left[1] is not None:
                nodes.append(path)
            collect(sub[0], path + (0,))
            collect(sub[1], path + (1,))

        collect(t, ())
        if not nodes:
            return t
        t = _replace(t, rng.choice(nodes))
    return t


def _replace(t, path):
    if path:
        child = _replace(t[path[0]], path[1:])
        return (child, t[1]) if path[0] == 0 else (t[0], child)
    (a, (b, c)), d = t
    return (a, (b, (c, d)))


@st.composite
def random_pairs(draw, max_leaves=40):
    n = draw(st.integers(min_value=1, max_value=max_leaves))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    return random_tree(n, rng), random_tree(n, rng)


@st.composite
def reducible_pairs(draw, max_leaves=40):
    """A small pair with the same random subtrees grafted below matching
    leaves of top and bottom: the reduction removes all of them."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    k = draw(st.integers(min_value=1, max_value=6))
    top, bottom = random_tree(k, rng), random_tree(k, rng)
    budget = max_leaves - k
    pieces = []
    for _ in range(k):
        size = rng.randint(1, 1 + budget // k)
        pieces.append(random_tree(size, rng))
    return graft_nested(top, pieces), graft_nested(bottom, pieces)


@st.composite
def compatible_pairs(draw, max_leaves=40):
    """t and a leaf-sign-preserving rewrite of t: an oriented element."""
    n = draw(st.integers(min_value=1, max_value=max_leaves))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    t = random_tree(n, rng)
    return t, rewrite(t, rng)


any_pair = st.one_of(random_pairs(), reducible_pairs(), compatible_pairs())


def text(pair) -> str:
    return f"{fmt(pair[0])}|{fmt(pair[1])}"


# --- tests -----------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(any_pair)
def test_reduce_pair_matches_oracle(pair):
    g = parse_pair(text(pair))
    assert str(reduce_pair(g)) == text(reduce_nested(*pair))


@settings(max_examples=150, deadline=None)
@given(any_pair, any_pair)
def test_multiply_matches_oracle(g, h):
    assert str(multiply(parse_pair(text(g)), parse_pair(text(h)))) == text(
        multiply_nested(g, h)
    )


@settings(max_examples=150, deadline=None)
@given(any_pair, any_pair)
def test_trees_the_algebra_builds_are_valid(g, h):
    """multiply, reduce_pair and inverse skip Tree's re-check of the depths
    they build; every tree they return passes it all the same, with the
    indices that check finds."""
    g, h = parse_pair(text(g)), parse_pair(text(h))
    pairs = [multiply(g, h), multiply(h, g), reduce_pair(g), inverse(g), inverse(reduce_pair(h))]
    for t in (t for p in pairs for t in (p.top, p.bottom)):
        assert type(t.depths) is tuple
        assert t.indices == oracle_indices(t.depths)
        assert Tree(t.depths) == t


@settings(max_examples=100, deadline=None)
@given(any_pair)
def test_inverse_matches_oracle(pair):
    g = parse_pair(text(pair))
    swapped = (pair[1], pair[0])
    assert str(inverse(g)) == text(swapped)
    assert str(multiply(g, inverse(g))) == text(multiply_nested(pair, swapped)) == ".|."
    assert multiply(inverse(g), g) == IDENTITY


@settings(max_examples=200, deadline=None)
@given(any_pair)
def test_is_oriented_matches_oracle(pair):
    top, bottom = reduce_nested(*pair)
    g = parse_pair(text(pair))
    assert is_oriented(g) == (signs_nested(top) == signs_nested(bottom))
    assert leaf_signs(g.top) == signs_nested(pair[0])


def test_compatible_pairs_are_oriented():
    rng = random.Random(4)
    for _ in range(50):
        t = random_tree(rng.randint(1, 40), rng)
        assert is_oriented(parse_pair(text((t, rewrite(t, rng)))))


@st.composite
def points(draw):
    e = draw(st.sampled_from((0, 1, 5, 20, DEPTH_CAP)))
    return Dyadic(draw(st.integers(min_value=0, max_value=1 << e)), e)


@settings(max_examples=200, deadline=None)
@given(any_pair, points())
def test_apply_map_matches_oracle(pair, x):
    g = parse_pair(text(pair))
    assert outcome(lambda: apply_map(g, x)) == outcome(lambda: apply_nested(*pair, x))


@settings(max_examples=150, deadline=None)
@given(random_pairs())
def test_partition_from_tree_matches_oracle(pair):
    for t in pair:
        assert partition_from_tree(parse_tree(fmt(t))) == partition_nested(t)


@settings(max_examples=150, deadline=None)
@given(random_pairs(max_leaves=20), random_pairs(max_leaves=20))
def test_union_grafts_and_refine_match_oracle(g, h):
    a, b = parse_tree(fmt(g[0])), parse_tree(fmt(h[0]))
    union = union_nested(g[0], h[0])
    assert str(tree_union(a, b)) == fmt(union)
    assert [str(p) for p in grafts_between(a, tree_union(a, b))] == [
        fmt(p) for p in grafts_nested(g[0], union)
    ]
    assert outcome(lambda: [str(p) for p in grafts_between(a, b)]) == outcome(
        lambda: [fmt(p) for p in grafts_nested(g[0], h[0])]
    )
    pieces = [parse_tree(fmt(p)) for p in grafts_nested(g[0], union)]
    assert str(graft(parse_tree(fmt(g[1])), pieces)) == fmt(
        graft_nested(g[1], grafts_nested(g[0], union))
    )
    refined = refine_to(parse_pair(text((g[1], g[0]))), tree_union(a, b))
    assert str(refined) == text(refine_nested(g[1], g[0], union))


def balanced(n: int):
    return None if n == 1 else (balanced(n // 2), balanced(n - n // 2))


def comb_pairs(d: int) -> list:
    """A comb of depth d paired with a comb the other way or a shallow tree,
    the comb on top first."""
    comb = other = None
    for _ in range(d):
        comb, other = (None, comb), (other, None)
    shallow = balanced(d + 1)
    return [(comb, other), (comb, shallow), (shallow, comb)]


@pytest.mark.parametrize("d", [DEPTH_CAP - 1, DEPTH_CAP, DEPTH_CAP + 1, DEPTH_CAP + 2])
def test_depth_cap_edges_match_oracle(d):
    pairs = comb_pairs(d)
    comb = pairs[0][0]
    assert outcome(lambda: partition_from_tree(parse_tree(fmt(comb)))) == outcome(
        lambda: partition_nested(comb)
    )
    for pair in pairs:
        g = parse_pair(text(pair))
        for x in (Dyadic(1, 1), Dyadic(3, 4), Dyadic(1, DEPTH_CAP), Dyadic(7, DEPTH_CAP), ONE):
            assert outcome(lambda: apply_map(g, x)) == outcome(lambda: apply_nested(*pair, x))


def boundary_points(top) -> list[Dyadic]:
    """Where a leaf search can go off by one: 0, 1 and every breakpoint of
    top, each also moved by 2^-DEPTH_CAP either way, and the midpoint of
    every leaf of top no deeper than DEPTH_CAP - 1."""
    tiny = Dyadic(1, DEPTH_CAP)
    p = partition_nested(top)
    out = list(p.breakpoints)
    out += [b + tiny for b in p.breakpoints if b < ONE]
    out += [b - tiny for b in p.breakpoints if b > ZERO]
    out += [Dyadic(2 * iv.k + 1, iv.m + 1) for iv in p.subintervals() if iv.m < DEPTH_CAP]
    return out


def seeded_pairs():
    """Random and leaf-sign-preserving pairs of up to 400 leaves."""
    rng = random.Random(26)
    for n in (1, 2, 3, 5, 17, 60, 200, 400):
        yield random_tree(n, rng), random_tree(n, rng)
        t = random_tree(n, rng)
        yield t, rewrite(t, rng)


@pytest.mark.parametrize(
    "pair", [*seeded_pairs(), *comb_pairs(DEPTH_CAP - 1), *comb_pairs(DEPTH_CAP)],
    ids=lambda pair: f"{leaf_count(pair[0])}-leaves-depth-{depth(pair[0])}",
)
def test_apply_map_at_breakpoints_and_midpoints(pair):
    g = parse_pair(text(pair))
    image = map_nested(*pair)
    for x in boundary_points(pair[0]):
        assert outcome(lambda: apply_map(g, x)) == outcome(lambda: image(x))
    fresh = parse_pair(text(pair))
    assert g == fresh and hash(g) == hash(fresh) and repr(g) == repr(fresh)


def test_apply_map_refuses_depth_cap_plus_one():
    """The range check comes first, then the depth check, with the same
    messages, whichever tree is too deep."""
    for pair in comb_pairs(DEPTH_CAP + 1):
        g = parse_pair(text(pair))
        assert g.depth == DEPTH_CAP + 1
        for x in (ZERO, Dyadic(1, 1), Dyadic(1, DEPTH_CAP), ONE):
            with pytest.raises(DepthExceeded, match="^tree too deep for dyadic breakpoints$"):
                apply_map(g, x)
        with pytest.raises(ValueError, match=r"^argument outside \[0,1\]$"):
            apply_map(g, Dyadic(3, 1))


@pytest.mark.parametrize("n", [200, 400])
def test_oriented_via_points_at_bench_sizes(n):
    """The point oracle maps every midpoint of the top tree's spanning
    intervals, 2n - 1 of them."""
    rng = random.Random(n)
    seen = set()
    for _ in range(3):
        t = random_tree(n, rng)
        for pair in ((t, random_tree(n, rng)), (t, rewrite(t, rng, tries=40))):
            g = parse_pair(text(pair))
            seen.add(is_oriented(g))
            assert is_oriented_via_points(g) == is_oriented(g)
    assert seen == {True, False}
