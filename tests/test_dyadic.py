import random

import pytest
from hypothesis import example, given, settings, strategies as st

from halfgrids.dyadic import (
    DEPTH_CAP,
    Dyadic,
    HALF,
    ONE,
    SdInterval,
    SdPartition,
    UNIT,
    ZERO,
    conjugate,
    midpoint,
    midpoint_inverse,
    parse_dyadic,
    parse_partition,
    partition_leaves,
    sign,
    spanning_intervals,
    spanning_intervals_by_pairs,
)
from halfgrids.errors import DepthExceeded, NoConjugate, NotInE, ParseError
from halfgrids.thompson import Tree, tree_from_partition

from _trees import random_tree

dyadics = st.builds(
    Dyadic,
    st.integers(min_value=0, max_value=1 << 20),
    st.integers(min_value=0, max_value=20),
)


class TestDyadic:
    def test_normalization(self):
        assert Dyadic(4, 2) == Dyadic(1, 0)
        assert Dyadic(6, 3) == Dyadic(3, 2)
        assert Dyadic(0, 7) == ZERO

    def test_ordering(self):
        assert Dyadic(1, 2) < HALF < Dyadic(3, 2) < ONE
        assert not ONE < ONE
        assert ZERO <= ZERO

    def test_arithmetic(self):
        assert Dyadic(1, 2) + Dyadic(1, 2) == HALF
        assert ONE - Dyadic(3, 2) == Dyadic(1, 2)
        assert Dyadic(3, 3).mul_pow2(3) == Dyadic(3)
        assert Dyadic(3, 1).mul_pow2(-2) == Dyadic(3, 3)

    def test_depth_cap(self):
        Dyadic(1, DEPTH_CAP)
        with pytest.raises(DepthExceeded):
            Dyadic(1, DEPTH_CAP + 1)

    @given(dyadics, dyadics)
    def test_add_sub_roundtrip(self, a, b):
        assert (a + b) - b == a

    @given(dyadics, dyadics)
    def test_comparison_trichotomy(self, a, b):
        assert (a < b) + (a == b) + (b < a) == 1

    def test_parse(self):
        assert parse_dyadic("3/8") == Dyadic(3, 3)
        assert parse_dyadic("1") == ONE
        assert parse_dyadic(" 0 ") == ZERO
        with pytest.raises(ParseError):
            parse_dyadic("1/3")
        with pytest.raises(ParseError):
            parse_dyadic("x/4")
        with pytest.raises(ParseError, match="malformed"):
            parse_dyadic("1" * 5000)  # more digits than int() reads
        with pytest.raises(ParseError, match="malformed dyadic '1/1111"):
            partition_leaves("0,1/" + "1" * 5000 + ",1")
        with pytest.raises(ParseError, match="position 2"):
            parse_dyadic("1/3", pos="position 2")

    def test_str(self):
        assert str(Dyadic(3, 3)) == "3/8"
        assert str(ONE) == "1"


class TestSdInterval:
    def test_from_endpoints(self):
        assert SdInterval.from_endpoints(ZERO, HALF) == SdInterval(0, 1)
        assert SdInterval.from_endpoints(Dyadic(3, 2), ONE) == SdInterval(3, 2)
        with pytest.raises(ValueError):
            SdInterval.from_endpoints(Dyadic(1, 2), Dyadic(3, 2))  # length 1/2, lo off-grid
        with pytest.raises(ValueError):
            SdInterval.from_endpoints(ZERO, Dyadic(3, 2))  # length 3/4

    def test_validation(self):
        with pytest.raises(ValueError):
            SdInterval(2, 1)
        with pytest.raises(ValueError):
            SdInterval(-1, 1)

    def test_midpoint_inverse_roundtrip(self):
        for m in range(0, 6):
            for k in range(1 << m):
                iv = SdInterval(k, m)
                assert midpoint_inverse(midpoint(iv)) == iv

    def test_midpoint_inverse_rejects_endpoints(self):
        with pytest.raises(NotInE):
            midpoint_inverse(ZERO)
        with pytest.raises(NotInE):
            midpoint_inverse(ONE)

    def test_side_and_conjugate(self):
        assert conjugate(SdInterval(0, 1)) == SdInterval(1, 1)
        assert conjugate(SdInterval(1, 1)) == SdInterval(0, 1)
        with pytest.raises(NoConjugate):
            conjugate(UNIT)

    def test_conjugate_involution(self):
        for m in range(1, 6):
            for k in range(1 << m):
                iv = SdInterval(k, m)
                assert conjugate(conjugate(iv)) == iv
                assert conjugate(iv).k % 2 != iv.k % 2  # one sibling is a left child, one a right

    def test_sign_recursion(self):
        # root +, left child inherits, right child flips
        assert sign(UNIT) == "+"
        for m in range(0, 6):
            for k in range(1 << m):
                iv = SdInterval(k, m)
                assert sign(SdInterval(2 * k, m + 1)) == sign(iv)
                assert sign(SdInterval(2 * k + 1, m + 1)) == ("-" if sign(iv) == "+" else "+")

    def test_sign_examples(self):
        assert sign(SdInterval(0, 1)) == "+"  # [0,1/2]
        assert sign(SdInterval(1, 1)) == "-"  # [1/2,1]
        assert sign(SdInterval(3, 2)) == "+"  # [3/4,1]: two flips


class TestSdPartition:
    def test_trivial(self):
        p = SdPartition((ZERO, ONE))
        assert p.n == 1
        assert p.subintervals() == (UNIT,)

    def test_rejects_non_sd(self):
        with pytest.raises(ValueError):
            SdPartition((ZERO, Dyadic(3, 2), ONE))

    def test_parse(self):
        p = parse_partition("0,1/2,3/4,1")
        assert p.n == 3
        with pytest.raises(ParseError):
            parse_partition("0,1/3,1")
        with pytest.raises(ParseError):
            parse_partition("0,1/2,1/4,1")
        with pytest.raises(ParseError):
            parse_partition("1/2,1")

    def test_spanning_basic(self):
        p = parse_partition("0,1/2,1")
        spans = spanning_intervals(p)
        assert spans == (SdInterval(0, 1), UNIT, SdInterval(1, 1))

    def test_spanning_routes_agree(self):
        from halfgrids.thompson import enumerate_trees, partition_from_tree

        for n in range(1, 7):
            for t in enumerate_trees(n):
                p = partition_from_tree(t)
                assert spanning_intervals(p) == spanning_intervals_by_pairs(p)

    @given(st.lists(st.integers(min_value=0, max_value=1 << 20), max_size=80))
    def test_spanning_routes_agree_on_random_partitions(self, picks):
        # split a pick-chosen subinterval in half, once per pick, to depth 40
        leaves = [UNIT]
        for pick in picks:
            i = pick % len(leaves)
            iv = leaves[i]
            if iv.m < 40:
                leaves[i:i + 1] = [SdInterval(2 * iv.k, iv.m + 1), SdInterval(2 * iv.k + 1, iv.m + 1)]
        p = SdPartition(tuple(iv.lo for iv in leaves) + (ONE,))
        assert spanning_intervals(p) == spanning_intervals_by_pairs(p)

    def test_spanning_cardinalities(self):
        from halfgrids.thompson import enumerate_trees, partition_from_tree

        for n in range(1, 7):
            for t in enumerate_trees(n):
                spans = spanning_intervals(partition_from_tree(t))
                assert len(spans) == 2 * n - 1
                assert sum(1 for iv in spans if sign(iv) == "+") == n
                assert sum(1 for iv in spans if sign(iv) == "-") == n - 1

    def test_e_points_order_and_signs(self):
        p = parse_partition("0,1/2,1")
        spans = spanning_intervals(p)
        assert [str(midpoint(iv)) for iv in spans] == ["1/4", "1/2", "3/4"]
        assert [sign(iv) for iv in spans] == ["+", "+", "-"]

    def test_point_sign_recursion_at_breakpoints(self):
        # a breakpoint splits the interval it is the midpoint of; its sign
        # matches the left half's midpoint and is opposite the right half's
        from halfgrids.thompson import enumerate_trees, partition_from_tree

        for t in enumerate_trees(4):
            p = partition_from_tree(t)
            for b in p.breakpoints[1:-1]:
                iv = midpoint_inverse(b)
                left = SdInterval(2 * iv.k, iv.m + 1)
                right = SdInterval(2 * iv.k + 1, iv.m + 1)
                assert sign(midpoint_inverse(b)) == sign(midpoint_inverse(midpoint(left)))
                assert sign(midpoint_inverse(b)) != sign(midpoint_inverse(midpoint(right)))


def _object_route(text):
    """Partition text read through Dyadic and SdPartition objects, as it
    was before the integer scan: the scan's oracle."""
    points = [parse_dyadic(tok, pos=f"position {i}") for i, tok in enumerate(text.split(","))]
    for i, (a, b) in enumerate(zip(points, points[1:])):
        if not a < b:
            raise ParseError(f"breakpoints not increasing at position {i + 1}")
    try:
        t = tree_from_partition(SdPartition(tuple(points)))
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    return t.ids


def _outcome(read, text):
    try:
        return read(text)
    except Exception as exc:
        return type(exc), str(exc)


def _point_text(k: int, m: int, j: int = 0) -> str:
    """k/2^m in lowest terms, then numerator and denominator times 2^j."""
    while m and not k & 1:
        k, m = k >> 1, m - 1
    return f"{k << j}/{1 << (m + j)}" if m + j else str(k)


@st.composite
def breakpoint_texts(draw):
    """The breakpoints of a random tree, some perturbed: unnormalised,
    swapped, one dropped, one token replaced, padded; some trees reach
    exponents DEPTH_CAP - 1 to DEPTH_CAP + 2."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    depths = list(random_tree(draw(st.integers(1, 12)), rng).depths)
    if draw(st.booleans()):  # a left comb from one leaf down to a depth near the cap
        i, deepest = rng.randrange(len(depths)), draw(st.integers(DEPTH_CAP - 1, DEPTH_CAP + 2))
        depths[i:i + 1] = [deepest, *range(deepest, depths[i], -1)]
    t = Tree(tuple(depths))
    points = [*zip(t.indices, t.depths), (1, 0)]
    scale = draw(st.booleans())
    tokens = [_point_text(k, m, rng.choice((0, 0, 1, 2, 3)) if scale else 0) for k, m in points]
    if draw(st.booleans()):
        i = rng.randrange(len(tokens) - 1)
        tokens[i], tokens[i + 1] = tokens[i + 1], tokens[i]
    if draw(st.booleans()):  # an end, or a breakpoint anywhere: two leaves merge
        tokens.pop(rng.choice((0, -1, rng.randrange(len(tokens)))))
    if draw(st.booleans()):
        odd = ["", "x", "1/3", "1/0", "1/-4", "-1/2", "3/2", "1/2/2", "+1/2", "1/ 2", f"1/{1 << 63}"]
        tokens[rng.randrange(len(tokens))] = rng.choice(odd)
    if draw(st.booleans()):
        tokens = [" " * rng.randint(0, 2) + tok + " " * rng.randint(0, 2) for tok in tokens]
    return ",".join(tokens)


class TestPartitionLeaves:
    """The integer scan against the object route it replaced: the same
    leaves, or the same exception class with the same message."""

    @settings(max_examples=600, deadline=None)
    @given(breakpoint_texts())
    def test_agrees_with_object_route(self, text):
        got = _outcome(partition_leaves, text)
        assert got == _outcome(_object_route, text)
        if not isinstance(got[0], type):  # parse_partition's breakpoints are the parsed ones
            assert parse_partition(text) == SdPartition(tuple(map(parse_dyadic, text.split(","))))

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet="0123456789/,- x_+\u0661", max_size=24))
    @example("1/2,0,1")  # SdPartition alone: "partition must run from 0 to 1"
    @example("0,1/2,1/4,1")  # SdPartition alone: "breakpoints not increasing at 1/2"
    def test_agrees_with_object_route_on_any_text(self, text):
        assert _outcome(partition_leaves, text) == _outcome(_object_route, text)

    def test_leaves(self):
        assert partition_leaves("0,1/4,1/2,1") == (0b100, 0b101, 0b11)
        assert partition_leaves(" 0/8 , 2/8,2/4 , 2/2") == (0b100, 0b101, 0b11)
        assert partition_leaves("0,1") == (1,)
