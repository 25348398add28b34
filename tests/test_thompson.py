import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from halfgrids.dyadic import Dyadic, HALF, ONE, ZERO, parse_partition
from halfgrids.errors import ParseError
from halfgrids.thompson import (
    IDENTITY,
    LEAF,
    Tree,
    TreePair,
    _trusted,
    apply_map,
    enumerate_trees,
    format_tree,
    inverse,
    is_oriented,
    is_oriented_via_points,
    leaf_signs,
    multiply,
    node,
    parse_pair,
    parse_tree,
    partition_from_tree,
    reduce_pair,
    tree_from_partition,
)

from _trees import (
    NotARefinement,
    graft,
    grafts_between,
    oracle_ids,
    oracle_indices,
    oracle_multiply,
    oracle_parse_tree,
    oracle_reduce,
    random_tree,
    refine_to,
    tree_union,
)

CARET = node(LEAF, LEAF)


def all_pairs(max_leaves):
    for n in range(1, max_leaves + 1):
        for top in enumerate_trees(n):
            for bottom in enumerate_trees(n):
                yield TreePair(top, bottom)


@st.composite
def tree_pairs(draw, max_leaves=5):
    n = draw(st.integers(min_value=1, max_value=max_leaves))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    return TreePair(random_tree(n, rng), random_tree(n, rng))


class TestTree:
    def test_parse_format_roundtrip(self):
        for n in range(1, 6):
            for t in enumerate_trees(n):
                parsed = parse_tree(format_tree(t))
                assert parsed == t and parsed.indices == t.indices

    def test_parse_errors(self):
        for bad, message in [
            ("", "unexpected end of tree text"),
            ("(", "unexpected end of tree text"),
            ("(.", "unexpected end of tree text"),
            ("(.)", "unexpected character ')' in tree"),
            ("x", "unexpected character 'x' in tree"),
            ("(..", "missing ')' in tree"),
            ("((..).x", "missing ')' in tree"),
            ("(..))", "trailing characters ')' after tree"),
            ("(..).", "trailing characters '.' after tree"),
        ]:
            with pytest.raises(ParseError) as exc:
                parse_tree(bad)
            assert str(exc.value) == message

    def test_enumerate_catalan(self):
        # Catalan numbers 1, 1, 2, 5, 14, 42
        assert [len(enumerate_trees(n)) for n in range(1, 7)] == [1, 1, 2, 5, 14, 42]

    def test_partition_bijection(self):
        for n in range(1, 7):
            for t in enumerate_trees(n):
                p = partition_from_tree(t)
                assert p.n == n
                assert tree_from_partition(p) == t

    def test_partition_examples(self):
        assert partition_from_tree(CARET) == parse_partition("0,1/2,1")
        assert partition_from_tree(node(CARET, LEAF)) == parse_partition("0,1/4,1/2,1")

    def test_leaf_signs(self):
        assert leaf_signs(LEAF) == ("+",)
        assert leaf_signs(CARET) == ("+", "-")
        assert leaf_signs(node(CARET, CARET)) == ("+", "-", "-", "+")

    def test_union_refines_both(self):
        for a in enumerate_trees(4):
            for b in enumerate_trees(3):
                u = tree_union(a, b)
                grafts_between(a, u)
                grafts_between(b, u)

    def test_grafts_between_rejects_non_refinement(self):
        with pytest.raises(NotARefinement):
            grafts_between(node(CARET, LEAF), node(LEAF, CARET))


class TestTreePair:
    def test_parse(self):
        g = parse_pair("(..)|(..)")
        assert g.top == CARET and g.bottom == CARET
        with pytest.raises(ParseError):
            parse_pair("(..)")
        with pytest.raises(ValueError):
            parse_pair("(..)|((..).)")  # leaf counts differ

    def test_reduce_examples(self):
        assert reduce_pair(TreePair(CARET, CARET)) == TreePair(LEAF, LEAF)
        g = TreePair(node(CARET, LEAF), node(LEAF, CARET))
        assert reduce_pair(g) == TreePair(g.top, g.bottom)

    def test_reduce_idempotent(self):
        for g in all_pairs(5):
            r = reduce_pair(g)
            assert reduce_pair(r) == r

    def test_refine_roundtrip(self):
        for g in all_pairs(4):
            refined = refine_to(g, tree_union(g.bottom, node(CARET, CARET)))
            assert reduce_pair(refined) == reduce_pair(g)

    def test_identity_laws(self):
        for g in all_pairs(4):
            assert multiply(g, IDENTITY) == reduce_pair(g)
            assert multiply(IDENTITY, g) == reduce_pair(g)
            assert multiply(g, inverse(g)) == IDENTITY
            assert multiply(inverse(g), g) == IDENTITY

    @settings(max_examples=150, deadline=None)
    @given(tree_pairs(), tree_pairs(), tree_pairs())
    def test_associativity(self, g, h, k):
        assert multiply(multiply(g, h), k) == multiply(g, multiply(h, k))

    def test_random_triples_group_laws(self):
        rng = random.Random(20260823)
        for _ in range(1000):
            n = rng.randint(1, 5)
            g = TreePair(random_tree(n, rng), random_tree(n, rng))
            h = TreePair(random_tree(n, rng), random_tree(n, rng))
            assert multiply(g, inverse(g)) == IDENTITY
            gh = multiply(g, h)
            assert multiply(gh, inverse(h)) == reduce_pair(g)


class TestApplyMap:
    def test_identity(self):
        for x in (ZERO, Dyadic(3, 3), ONE):
            assert apply_map(IDENTITY, x) == x

    def test_basic_generator(self):
        # top 0,1/2,3/4,1 -> bottom 0,1/4,1/2,1
        g = parse_pair("(.(..))|((..).)")
        assert apply_map(g, HALF) == Dyadic(1, 2)
        assert apply_map(g, Dyadic(3, 2)) == HALF
        assert apply_map(g, Dyadic(5, 3)) == Dyadic(3, 3)
        assert apply_map(g, ONE) == ONE

    def test_out_of_range(self):
        for x in (Dyadic(2), Dyadic(-1), Dyadic(-1, 62), Dyadic(9, 3), Dyadic((1 << 62) + 1, 62)):
            with pytest.raises(ValueError, match=r"outside \[0,1\]"):
                apply_map(IDENTITY, x)

    def test_multiply_is_composition(self):
        rng = random.Random(7)
        samples = [Dyadic(k, 5) for k in range(0, 33)]
        for _ in range(100):
            n = rng.randint(1, 5)
            g = TreePair(random_tree(n, rng), random_tree(n, rng))
            h = TreePair(random_tree(n, rng), random_tree(n, rng))
            gh = multiply(g, h)
            for x in samples:
                assert apply_map(gh, x) == apply_map(h, apply_map(g, x))

    def test_inverse_inverts(self):
        rng = random.Random(8)
        for _ in range(50):
            n = rng.randint(1, 5)
            g = TreePair(random_tree(n, rng), random_tree(n, rng))
            for k in range(0, 17):
                x = Dyadic(k, 4)
                assert apply_map(inverse(g), apply_map(g, x)) == x

    def test_maps_top_breakpoints_to_bottom(self):
        for g in all_pairs(5):
            src = partition_from_tree(g.top).breakpoints
            dst = partition_from_tree(g.bottom).breakpoints
            assert tuple(apply_map(g, x) for x in src) == dst


class TestOriented:
    def test_examples(self):
        assert is_oriented(IDENTITY)
        assert is_oriented(TreePair(CARET, CARET))
        # x_0 swaps signs of middle leaves: not oriented
        assert not is_oriented(parse_pair("(.(..))|((..).)"))
        assert is_oriented(parse_pair("((..)(..))|((..)(..))"))

    def test_two_membership_tests_agree(self):
        """is_oriented reads the pair as given, reduced or not."""
        for g in all_pairs(6):
            assert is_oriented(g) == is_oriented(reduce_pair(g)) == is_oriented_via_points(g)

    def test_a_common_caret_keeps_membership(self):
        """Splitting leaf i of both trees, the step reduction undoes, keeps
        an oriented pair oriented and a non-oriented one non-oriented."""
        seen = set()
        for g in all_pairs(6):
            oriented = is_oriented(g)
            seen.add(oriented)
            for i in range(g.n):
                top, bottom = (
                    Tree(t.depths[:i] + (t.depths[i] + 1,) * 2 + t.depths[i + 1:])
                    for t in (g.top, g.bottom)
                )
                assert is_oriented(TreePair(top, bottom)) == oriented
        assert seen == {True, False}

    def test_closure_under_product_and_inverse(self):
        oriented = [g for g in all_pairs(4) if is_oriented(g)]
        for g in oriented:
            assert is_oriented(inverse(g))
        for g in oriented:
            for h in oriented:
                assert is_oriented(multiply(g, h))


def comb(depth):
    """The right comb with depth + 1 leaves, built without recursion."""
    return Tree(tuple(range(1, depth + 1)) + (depth,))


class TestIndices:
    """A tree's leaf indices, read off the heap ids that the parser, the
    validating constructor or the algebra built, are those the depth scan
    of `oracle_indices` finds."""

    def test_every_builder_keeps_the_scans_indices(self):
        rng = random.Random(11)
        t = comb(5000)
        pairs = [TreePair(t, t), TreePair(t, Tree(tuple(reversed(t.depths))))]
        pairs.append(parse_pair(str(pairs[1])))  # the parser's own index scan
        for n in (1, 2, 5, 40, 400, 2000):
            for _ in range(4):
                pairs.append(parse_pair(str(TreePair(random_tree(n, rng), random_tree(n, rng)))))
        built = []
        for g in pairs:
            h = rng.choice(pairs)
            built += [g, reduce_pair(g), multiply(g, h), multiply(g, inverse(g)), inverse(g)]
        for p in built:
            for tree in (p.top, p.bottom):
                assert type(tree.indices) is tuple
                assert tree.indices == oracle_indices(tree.depths)

    def test_equality_hash_and_repr_use_depths_alone(self):
        for d in [(0,), (1, 1), (2, 2, 1), (1, 2, 2), (2, 2, 2, 2)]:
            validated, trusted = Tree(d), _trusted(oracle_ids(d))
            assert validated == trusted and hash(validated) == hash(trusted)
            assert trusted.indices == validated.indices
            assert validated == trusted and hash(validated) == hash(trusted)
            assert repr(validated) == repr(trusted) == f"Tree(depths={d!r})"

    def test_indices_cannot_be_changed(self):
        t = parse_tree("((..).)")
        with pytest.raises(TypeError):
            t.indices[0] = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            t.indices = (0, 1, 1)
        assert t.indices == (0, 1, 1)


class TestDepth:
    """Depth bounds the dyadic layer only, never the tree algebra."""

    def test_tree_holds_only_depths(self):
        assert node(CARET, LEAF) == Tree((2, 2, 1))
        assert format_tree(Tree((1, 2, 2))) == "(.(..))"
        for bad in [(), (1,), (0, 0), (2, 1, 2), (1, 1, 1, 1), (-1,)]:
            with pytest.raises(ValueError):
                Tree(bad)

    def test_deep_comb_without_recursion(self):
        t = comb(5000)
        g = TreePair(t, t)
        assert reduce_pair(g) == IDENTITY
        assert multiply(g, inverse(g)) == IDENTITY
        text = str(g)
        assert text == "(." * 5000 + "." + ")" * 5000 + "|" + text.partition("|")[0]
        assert parse_pair(text) == g
        assert leaf_signs(t)[-1] == ("-" if 5000 % 2 else "+")

    def test_algebra_works_past_depth_cap(self):
        t = comb(200)
        flipped = Tree(tuple(reversed(t.depths)))
        g = TreePair(t, flipped)
        assert reduce_pair(g) == TreePair(t, flipped)
        assert multiply(g, inverse(g)) == IDENTITY
        assert multiply(inverse(g), g) == IDENTITY
        assert multiply(multiply(g, g), inverse(g)) == reduce_pair(g)

    def test_dyadic_layer_rejects_depth_cap_plus_one(self):
        from halfgrids.dyadic import DEPTH_CAP
        from halfgrids.errors import DepthExceeded

        at_cap, past_cap = comb(DEPTH_CAP), comb(DEPTH_CAP + 1)
        assert partition_from_tree(at_cap).n == DEPTH_CAP + 1
        assert apply_map(TreePair(at_cap, at_cap), HALF) == HALF
        with pytest.raises(DepthExceeded, match="tree too deep"):
            partition_from_tree(past_cap)
        balanced = Tree((6,) * 64)  # as many leaves as past_cap, depth 6
        assert len(past_cap.depths) == 64
        for g in (TreePair(past_cap, balanced), TreePair(balanced, past_cap)):
            with pytest.raises(DepthExceeded, match="tree too deep"):
                apply_map(g, HALF)
        # a shallow pair whose image of a point needs exponent DEPTH_CAP + 1
        x0 = parse_pair("(.(..))|((..).)")
        assert apply_map(x0, Dyadic(1, DEPTH_CAP - 1)) == Dyadic(1, DEPTH_CAP)
        with pytest.raises(DepthExceeded):
            apply_map(x0, Dyadic(1, DEPTH_CAP))


def _same_pair(got: TreePair, want: TreePair) -> None:
    """Equal trees with the ids the depth scan finds."""
    assert got == want and str(got) == str(want)
    for tree in (got.top, got.bottom):
        assert tree.ids == oracle_ids(tree.depths)


class TestHeapIdOracles:
    """The heap-id scans against the depth routes they replaced, kept as
    oracles in `_trees`: the same pairs, trees and messages."""

    def test_multiply_and_reduce_on_random_pairs(self):
        rng = random.Random(17)
        for n in (1, 2, 3, 5, 8, 20, 50, 120, 250, 400):
            for _ in range(6):
                g = TreePair(random_tree(n, rng), random_tree(n, rng))
                h = TreePair(random_tree(n, rng), random_tree(n, rng))
                _same_pair(multiply(g, h), oracle_multiply(g, h))
                _same_pair(multiply(h, g), oracle_multiply(h, g))
                _same_pair(reduce_pair(g), oracle_reduce(g))

    def test_multiply_by_refined_and_shared_middles(self):
        """Products whose middle trees share some leaves and refine others."""
        rng = random.Random(18)
        for n in (2, 5, 30, 200):
            for _ in range(6):
                g = TreePair(random_tree(n, rng), random_tree(n, rng))
                k = random_tree(rng.randint(1, 4), rng)
                middle = tree_union(g.bottom, graft(k, [random_tree(rng.randint(1, n), rng)
                                                       for _ in k.depths]))
                h = TreePair(middle, random_tree(len(middle.depths), rng))
                _same_pair(multiply(g, h), oracle_multiply(g, h))
                _same_pair(multiply(inverse(h), inverse(g)), oracle_multiply(inverse(h), inverse(g)))

    def test_product_with_inverse(self):
        rng = random.Random(19)
        for n in (1, 2, 7, 60, 400):
            for _ in range(4):
                g = TreePair(random_tree(n, rng), random_tree(n, rng))
                for a, b in ((g, inverse(g)), (inverse(g), g)):
                    got = multiply(a, b)
                    _same_pair(got, oracle_multiply(a, b))
                    assert got == IDENTITY

    @pytest.mark.parametrize("n", [200, 400])
    def test_bench_sizes(self, n):
        """Products and reductions at the sizes the benchmark runs: the
        oracles' pairs, the group laws, and trees that hold tuples, so each
        result equals and hashes as a fresh parse of its text.  Each g is
        also re-expressed over a refined bottom tree, a pair that reduces
        by up to n carets."""
        rng = random.Random(n + 26)
        for _ in range(3):
            g, h, k = (TreePair(random_tree(n, rng), random_tree(n, rng)) for _ in range(3))
            middle = tree_union(g.bottom, random_tree(n, rng))
            refined = refine_to(g, middle)
            results = [multiply(g, h), multiply(h, g), reduce_pair(g), reduce_pair(refined),
                       multiply(refined, h), multiply(g, inverse(g)), multiply(inverse(g), g)]
            _same_pair(results[0], oracle_multiply(g, h))
            _same_pair(results[1], oracle_multiply(h, g))
            _same_pair(results[2], oracle_reduce(g))
            _same_pair(results[3], oracle_reduce(refined))
            assert results[3] == results[2]
            assert results[4] == results[0]
            assert results[5] == results[6] == IDENTITY
            assert multiply(multiply(g, h), k) == multiply(g, multiply(h, k))
            for r in results:
                fresh = parse_pair(str(r))
                assert type(r.top.ids) is type(r.bottom.ids) is tuple
                assert r == fresh and hash(r) == hash(fresh)

    def test_comb_past_depth_cap(self):
        t = comb(5000)
        flipped = Tree(tuple(reversed(t.depths)))
        g = TreePair(t, flipped)
        for a, b in ((g, g), (g, inverse(g)), (inverse(g), g), (TreePair(t, t), g)):
            _same_pair(multiply(a, b), oracle_multiply(a, b))
        _same_pair(reduce_pair(g), oracle_reduce(g))
        assert parse_tree(str(flipped)) == oracle_parse_tree(str(flipped)) == flipped

    def test_validating_constructor(self):
        """Tree(depths) accepts exactly the depth tuples the depth scan
        accepts, with the ids it finds, over every tuple of up to 7 depths
        from -1 to 4."""
        accepted = 0
        for length in range(8):
            for depths in itertools.product(range(-1, 5), repeat=length):
                try:
                    want = oracle_ids(depths)
                except ValueError:
                    with pytest.raises(ValueError, match="not the leaf depths of a binary tree"):
                        Tree(depths)
                    continue
                assert Tree(depths).ids == want
                accepted += 1
        assert accepted == 1 + 1 + 2 + 5 + 14 + 26 + 44  # the trees of 1 to 7 leaves at most 4 deep

    def test_every_short_text_parses_as_the_oracle(self):
        """Every string over '(', '.', ')' and 'x' up to length 10: the same
        tree with the same ids, or a ParseError with the same message."""

        def outcome(parse, text):
            try:
                return parse(text).ids
            except ParseError as exc:
                return str(exc)

        trees = 0
        for length in range(11):
            for chars in itertools.product("(.)x", repeat=length):
                text = "".join(chars)
                got = outcome(parse_tree, text)
                assert got == outcome(oracle_parse_tree, text), text
                trees += type(got) is tuple
        assert trees == 1 + 1 + 2 + 5  # Catalan: 1, 2, 3 and 4 leaves fit in 10 characters
