import itertools
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from halfgrids.dyadic import (
    DEPTH_CAP,
    parse_partition,
    sign,
    spanning_intervals,
    spanning_intervals_by_pairs,
)
from halfgrids.errors import (
    DepthExceeded,
    Incompatible,
    NotAPermutation,
    ParseError,
    SizeMismatch,
)
from halfgrids.halfgrid import (
    GridDiagram,
    HalfGrid,
    Permutation,
    assemble,
    assemble_unoriented,
    format_grid,
    format_half_grid,
    half_grid_from_partition,
    half_grid_from_tree,
    is_compatible,
    parse_grid,
    parse_half_grid,
    parse_permutation,
    perm_decode,
    perm_encode,
    rotate90,
)
from halfgrids.thompson import Tree, enumerate_trees, leaf_signs, partition_from_tree


def half_grids_from_trees(n):
    return [(t, half_grid_from_tree(t)) for t in enumerate_trees(n)]


@st.composite
def split_trees(draw, max_leaves=400, max_depth=DEPTH_CAP):
    """Grow a tree from one leaf by up to n - 1 splits, none below
    max_depth, for n >= 10 (every smaller tree is checked exhaustively).
    With the drawn probability a split takes a child of the leaf split
    last, which grows long combs; otherwise any leaf."""
    n = draw(st.integers(10, max_leaves))
    stay = draw(st.sampled_from([0.0, 0.5, 0.9, 1.0]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    depths, last = [0], 0
    for _ in range(n - 1):
        if rng.random() < stay:
            i = min(last + rng.randint(0, 1), len(depths) - 1)
        else:
            i = rng.randrange(len(depths))
        if depths[i] == max_depth:
            i = rng.randrange(len(depths))
        if depths[i] < max_depth:
            depths[i:i + 1] = [depths[i] + 1] * 2
            last = i
    return Tree(tuple(depths))


def assert_matches_checked(h):
    """A half grid built without the checks equals the one that passes them,
    mark-row table included."""
    checked = HalfGrid(h.n, h.x_cols, h.o_cols)
    assert h == checked
    columns = range(1, 2 * h.n + 1)
    assert [h.column_row(c) for c in columns] == [checked.column_row(c) for c in columns]


class TestScan:
    """half_grid_from_tree against the partition route it replaced, and
    against the checks it skips."""

    def test_every_tree_up_to_nine_leaves(self):
        for n in range(1, 10):
            for t in enumerate_trees(n):
                h = half_grid_from_tree(t)
                assert h == half_grid_from_partition(partition_from_tree(t))
                assert_matches_checked(h)

    @settings(max_examples=100, deadline=None)
    @given(split_trees())
    def test_random_trees(self, t):
        h = half_grid_from_tree(t)
        assert h == half_grid_from_partition(partition_from_tree(t))
        assert_matches_checked(h)

    def test_depth_bound(self):
        def left_comb(depth):
            return Tree((depth,) + tuple(range(depth, 0, -1)))

        def right_comb(depth):
            return Tree(tuple(range(1, depth + 1)) + (depth,))

        at_cap = left_comb(DEPTH_CAP)
        assert half_grid_from_tree(at_cap).n == DEPTH_CAP + 1
        assert half_grid_from_partition(partition_from_tree(at_cap)) == half_grid_from_tree(at_cap)
        for comb in (at_cap, right_comb(DEPTH_CAP)):
            p = partition_from_tree(comb)
            assert spanning_intervals(p) == spanning_intervals_by_pairs(p)
            assert len(spanning_intervals(p)) == 2 * DEPTH_CAP + 1
        with pytest.raises(DepthExceeded, match="tree too deep"):
            half_grid_from_tree(left_comb(DEPTH_CAP + 1))


class TestHalfGrid:
    def test_validation(self):
        HalfGrid(2, (2, 3), (4, 1))
        with pytest.raises(ValueError):
            HalfGrid(2, (2, 3), (4, 4))
        with pytest.raises(ValueError):
            HalfGrid(2, (2,), (4, 1))
        with pytest.raises(ValueError, match="^a half grid needs at least one row$"):
            HalfGrid(0, (), ())
        with pytest.raises(ValueError, match="^need one X and one O column per row$"):
            HalfGrid(-1, (), ())

    def test_trivial_partition(self):
        h = half_grid_from_partition(parse_partition("0,1"))
        assert h == HalfGrid(1, (2,), (1,))

    def test_basic_example(self):
        h = half_grid_from_partition(parse_partition("0,1/2,1"))
        assert h == HalfGrid(2, (2, 3), (4, 1))

    def test_three_interval_example(self):
        # 0,1/4,1/2,1: spanning intervals in midpoint order are
        # [0,1/4]+, [0,1/2]+, [1/4,1/2]-, [0,1]+, [1/2,1]-
        h = half_grid_from_partition(parse_partition("0,1/4,1/2,1"))
        assert h.column_marks() == ("O", "X", "X", "O", "X", "O")
        # lengths: [0,1/4] shortest of positives -> row 1; [0,1/2] row 2; [0,1] row 3
        assert h.x_cols == (2, 3, 5)
        # [1/4,1/2] conjugate of [0,1/4] -> row 1; [1/2,1] conjugate of [0,1/2] -> row 2
        assert h.o_cols == (4, 6, 1)

    def test_column_marks_match_interval_signs(self):
        from halfgrids.dyadic import spanning_intervals

        for n in range(1, 7):
            for t, h in half_grids_from_trees(n):
                spans = spanning_intervals(partition_from_tree(t))
                want = tuple("X" if sign(iv) == "+" else "O" for iv in spans)
                assert h.column_marks() == ("O",) + want

    def test_default_o_position(self):
        for n in range(1, 6):
            for _, h in half_grids_from_trees(n):
                assert h.o_cols[h.n - 1] == 1

    def test_compatibility_iff_same_leaf_signs(self):
        for n in range(1, 6):
            items = half_grids_from_trees(n)
            for (t1, h1), (t2, h2) in itertools.product(items, repeat=2):
                assert is_compatible(h1, h2) == (leaf_signs(t1) == leaf_signs(t2))

    def test_compatibility_size_mismatch(self):
        a = half_grid_from_partition(parse_partition("0,1"))
        b = half_grid_from_partition(parse_partition("0,1/2,1"))
        with pytest.raises(SizeMismatch):
            is_compatible(a, b)


@st.composite
def half_grid_pairs(draw, max_n=20):
    """Two random half grids with n rows; compatible when the second one
    takes the first one's X columns and O columns, each reshuffled."""
    n = draw(st.integers(1, max_n))
    top = perm_decode(Permutation(tuple(draw(st.permutations(range(1, 2 * n + 1))))))
    if draw(st.booleans()):
        x_cols, o_cols = (tuple(draw(st.permutations(cols))) for cols in (top.x_cols, top.o_cols))
        return top, HalfGrid(n, x_cols, o_cols)
    return top, perm_decode(Permutation(tuple(draw(st.permutations(range(1, 2 * n + 1))))))


@st.composite
def tree_half_grid_pairs(draw):
    """The half grids of a random tree and of it or its mirror image."""
    t = draw(split_trees())
    bottom = Tree(tuple(reversed(t.depths))) if draw(st.booleans()) else t
    return half_grid_from_tree(t), half_grid_from_tree(bottom)


class TestAssemble:
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(half_grid_pairs(), tree_half_grid_pairs()))
    def test_stacks_equal_validated_grids(self, pair):
        """Stacks and their unoriented() copies skip the grid checks; each
        equals the grid that passes them, span table included."""
        top, bottom = pair
        stacks = [assemble_unoriented(top, bottom)]
        if is_compatible(top, bottom):
            stacks.append(assemble(top, bottom))
        for g in stacks:
            fresh = GridDiagram(g.size, g.x_cols, g.o_cols, g.oriented)
            assert g == fresh and g._spans == fresh._spans
            fresh_unoriented = GridDiagram(g.size, g.x_cols, g.o_cols, oriented=False)
            for u in (g.unoriented(), fresh.unoriented()):
                assert u == fresh_unoriented and u._spans == fresh_unoriented._spans

    def test_unknot(self):
        h = HalfGrid(1, (2,), (1,))
        g = assemble(h, h)
        # row 1 is the flipped bottom half with marks swapped
        assert g == GridDiagram(2, (1, 2), (2, 1))

    def test_example(self):
        h = HalfGrid(2, (2, 3), (4, 1))
        g = assemble(h, h)
        assert g.x_cols == (1, 4, 2, 3)
        assert g.o_cols == (3, 2, 4, 1)
        assert g.oriented

    def test_incompatible_raises(self):
        a = HalfGrid(2, (2, 3), (4, 1))
        b = HalfGrid(2, (4, 1), (2, 3))
        with pytest.raises(Incompatible):
            assemble(a, b)
        g = assemble_unoriented(a, b)
        assert not g.oriented

    def test_unoriented_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            assemble_unoriented(HalfGrid(1, (2,), (1,)), HalfGrid(2, (2, 3), (4, 1)))

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            GridDiagram(2, (1, 1), (2, 2))  # column 1 has two X's
        GridDiagram(2, (1, 1), (2, 2), oriented=False)  # fine unoriented
        with pytest.raises(ValueError):
            GridDiagram(2, (1, 2), (1, 2), oriented=False)  # row marks collide

    @pytest.mark.parametrize("args, message", [
        ((2, (1,), (2, 1)), "need one X and one O column per row"),
        ((2, (1, 2), (2,), False), "need one X and one O column per row"),
        ((2, (1, 2), (1, 1)), "row marks must be distinct columns in range"),
        ((2, (1, 3), (2, 1), False), "row marks must be distinct columns in range"),
        ((2, (0, 2), (1, 1)), "row marks must be distinct columns in range"),
        ((2, (1, 1), (2, 2)), "each column needs exactly one X and one O"),
        ((3, (1, 2, 3), (2, 1, 1)), "each column needs exactly one X and one O"),
        ((3, (1, 1, 2), (2, 3, 1), False), "each column needs exactly two marks"),
        ((0, (), ()), "a grid needs at least one row"),
        ((0, (), (), False), "a grid needs at least one row"),
        ((-1, (), ()), "need one X and one O column per row"),
    ])
    def test_grid_refusal_messages(self, args, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            GridDiagram(*args)


def _rows_by_scan(v):
    """The rows of each column's marks, ascending, by a scan of the marks."""
    rows = {}
    for r, (x, o) in enumerate(zip(v.x_cols, v.o_cols), start=1):
        rows.setdefault(x, []).append(r)
        rows.setdefault(o, []).append(r)
    return [tuple(rows[c]) for c in sorted(rows)]


_TREE_TOP = half_grid_from_tree(Tree((2, 3, 3, 2, 3, 4, 4)))
_TREE_BOTTOM = half_grid_from_tree(Tree((1, 3, 4, 4, 3, 4, 4)))
_PERM_TOP = perm_decode(Permutation((4, 6, 5, 1, 8, 2, 7, 3, 14, 9, 10, 13, 12, 11)))
BUILDERS = {
    "HalfGrid": lambda: HalfGrid(4, (4, 5, 8, 7), (6, 1, 2, 3)),
    "half_grid_from_tree": lambda: half_grid_from_tree(Tree((2, 3, 3, 2, 3, 4, 4))),
    "perm_decode": lambda: perm_decode(Permutation((2, 3, 4, 1))),
    "parse_half_grid": lambda: parse_half_grid("n=2; X=2,3; O=4,1"),
    "GridDiagram": lambda: GridDiagram(4, (2, 1, 4, 3), (3, 4, 1, 2)),
    "GridDiagram-unoriented": lambda: GridDiagram(3, (1, 3, 2), (2, 1, 3), oriented=False),
    "parse_grid": lambda: parse_grid("n=2; X=1,2; O=2,1; oriented=true"),
    "assemble": lambda: assemble(_TREE_TOP, _TREE_BOTTOM),
    "assemble_unoriented": lambda: assemble_unoriented(_PERM_TOP, _TREE_TOP),
    "unoriented": lambda: assemble(_TREE_TOP, _TREE_BOTTOM).unoriented(),
    "rotate90": lambda: rotate90(assemble(_TREE_TOP, _TREE_BOTTOM)),
}


class TestDerivedTables:
    @pytest.mark.parametrize("build", BUILDERS.values(), ids=BUILDERS.keys())
    def test_builders_store_only_the_fields(self, build):
        """A value holds its marks alone until a column is read; the first
        read computes the table from the marks and keeps it."""
        v = build()
        fields = set(type(v)._fields)
        assert vars(v).keys() == fields
        scan = _rows_by_scan(v)
        if isinstance(v, HalfGrid):
            assert v.column_row(1) == scan[0][0]
            table, expected = "_mark_rows", tuple(r for (r,) in scan)
        else:
            assert v.column_rows(1) == scan[0]
            table, expected = "_spans", tuple(scan)
        assert vars(v).keys() == fields | {table}
        assert vars(v)[table] == expected


class TestCodec:
    def test_interleaving(self):
        h = HalfGrid(4, (4, 5, 8, 7), (6, 1, 2, 3))
        assert perm_encode(h).images == (4, 6, 5, 1, 8, 2, 7, 3)

    def test_sigma_pair_example(self):
        sp = parse_permutation("4 2 5 3 1 6")
        sm = parse_permutation("3 1 5 2 6 4")
        hp, hm = perm_decode(sp), perm_decode(sm)
        assert (hp.x_cols, hp.o_cols) == ((4, 5, 1), (2, 3, 6))
        assert (hm.x_cols, hm.o_cols) == ((3, 5, 6), (1, 2, 4))
        assert not is_compatible(hp, hm)

    def test_roundtrip_exhaustive_small(self):
        for n in (1, 2, 3):
            for images in itertools.permutations(range(1, 2 * n + 1)):
                sigma = Permutation(images)
                assert perm_encode(perm_decode(sigma)) == sigma

    def test_roundtrip_constructed(self):
        for n in range(1, 7):
            for _, h in half_grids_from_trees(n):
                assert perm_decode(perm_encode(h)) == h

    def test_roundtrip_random_large(self):
        rng = random.Random(20260823)
        for _ in range(10_000):
            images = list(range(1, 21))
            rng.shuffle(images)
            sigma = Permutation(tuple(images))
            assert perm_encode(perm_decode(sigma)) == sigma

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 30).flatmap(lambda n: st.permutations(range(1, 2 * n + 1))))
    def test_decoded_half_grids_match_checked(self, images):
        assert_matches_checked(perm_decode(Permutation(tuple(images))))

    def test_rejections(self):
        with pytest.raises(NotAPermutation):
            Permutation((1, 1, 2))
        with pytest.raises(NotAPermutation, match="^half grid permutation needs even degree$"):
            perm_decode(Permutation((2, 3, 1)))
        with pytest.raises(NotAPermutation,
                           match="^half grid permutation needs at least one row$"):
            perm_decode(Permutation(()))
        for bad in ["1 two 3", "1_0 2", "+1 2", "\u0661 2", "1 2-", "1 " + "2" * 5000]:
            with pytest.raises(ParseError):
                parse_permutation(bad)

    def test_inverse(self):
        sigma = Permutation((3, 1, 4, 2))
        assert sigma.inverse().images == (2, 4, 1, 3)


class TestTextFormats:
    def test_half_grid_roundtrip(self):
        h = HalfGrid(2, (2, 3), (4, 1))
        assert format_half_grid(h) == "n=2; X=2,3; O=4,1"
        assert parse_half_grid(format_half_grid(h)) == h

    def test_grid_roundtrip(self):
        g = GridDiagram(2, (2, 1), (1, 2))
        assert format_grid(g) == "n=2; X=2,1; O=1,2; oriented=true"
        assert parse_grid(format_grid(g)) == g
        u = g.unoriented()
        assert parse_grid(format_grid(u)) == u

    def test_parse_errors(self):
        for bad in [
            "n=2; X=2,1",
            "n=2; X=2,1; O=1,2; oriented=maybe",
            "n=x; X=2,1; O=1,2; oriented=true",
            "n=2; X=2,a; O=1,2; oriented=true",
            "n=2; X=2,1_0; O=1,2; oriented=true",
            "n=2; X=+2,1; O=1,2; oriented=true",
            "n=2; X=2,1; O=\u0661,2; oriented=true",
            "n=2; X=2,1; O=1," + "2" * 5000 + "; oriented=true",
            "garbage",
        ]:
            with pytest.raises(ParseError):
                parse_grid(bad)

    def test_grid_refuses_a_repeated_field(self):
        with pytest.raises(ParseError, match="^duplicate field 'oriented'$"):
            parse_grid("n=2; X=1,2; O=2,1; oriented=false; oriented=true")
        with pytest.raises(ParseError, match="^duplicate field 'X'$"):
            parse_grid("n=2; X=1,2; O=2,1; X = 2,1; oriented=true")

    def test_half_grid_refuses_a_repeated_field(self):
        with pytest.raises(ParseError, match="^duplicate field 'n'$"):
            parse_half_grid("n=2; X=2,3; O=4,1; n=2")

    def test_grid_refuses_an_unknown_field(self):
        with pytest.raises(ParseError, match="^unknown field 'orient'$"):
            parse_grid("n=2; X=1,2; O=2,1; oriented=true; orient=false")
        with pytest.raises(ParseError, match="^unknown field 'colour'$"):
            parse_grid("colour=red; n=2; X=1,2; O=2,1; oriented=true")

    def test_half_grid_refuses_an_unknown_field(self):
        with pytest.raises(ParseError, match="^unknown field 'oriented'$"):
            parse_half_grid("n=2; X=2,3; O=4,1; oriented=true")


@st.composite
def grids(draw, max_size=12):
    """A random grid: X columns a permutation, O columns another one that
    differs from it in every row; unoriented, each row's marks may swap,
    which reaches every two-marks-per-column grid."""
    m = draw(st.integers(2, max_size))
    x_cols = draw(st.permutations(range(1, m + 1)))
    o_cols = draw(st.permutations(range(1, m + 1)))
    for r in range(m):  # one pass moves every O off its row's X
        if o_cols[r] == x_cols[r]:
            o_cols[r], o_cols[(r + 1) % m] = o_cols[(r + 1) % m], o_cols[r]
    if draw(st.booleans()):
        return GridDiagram(m, tuple(x_cols), tuple(o_cols))
    swaps = draw(st.lists(st.booleans(), min_size=m, max_size=m))
    rows = [(o, x) if s else (x, o) for s, x, o in zip(swaps, x_cols, o_cols)]
    return GridDiagram(m, *map(tuple, zip(*rows)), oriented=False)


def cells(cols):
    return {(c, r) for r, c in enumerate(cols, start=1)}


class TestRotate90:
    @settings(max_examples=300, deadline=None)
    @given(grids())
    def test_rotation_is_the_coordinate_map(self, g):
        """(c, r) -> (r, m + 1 - c); oriented grids keep each mark's type,
        unoriented ones list each row's lower mark first."""
        m = g.size

        def turn(cs):
            return {(r, m + 1 - c) for c, r in cs}

        r = rotate90(g)
        assert (r.size, r.oriented) == (m, g.oriented)
        if g.oriented:
            assert cells(r.x_cols) == turn(cells(g.x_cols))
            assert cells(r.o_cols) == turn(cells(g.o_cols))
        else:
            assert cells(r.x_cols) | cells(r.o_cols) == turn(cells(g.x_cols) | cells(g.o_cols))
            assert all(x < o for x, o in zip(r.x_cols, r.o_cols))

    def test_involution_like(self):
        g = GridDiagram(4, (1, 4, 2, 3), (3, 2, 4, 1))
        r = rotate90(g)
        assert r.size == 4
        # four rotations return to the start
        assert rotate90(rotate90(rotate90(r))) == g

    def test_rotation_swaps_role_of_rows_and_columns(self):
        g = GridDiagram(2, (2, 1), (1, 2))
        r = rotate90(g)
        # (c, r) -> (r, size + 1 - c): X(2,1)->(1,1), X(1,2)->(2,2)
        assert r.x_cols == (1, 2)
        assert r.o_cols == (2, 1)

    def test_unoriented_rotation_preserves_mark_multiset(self):
        g = GridDiagram(2, (1, 1), (2, 2), oriented=False)
        r = rotate90(g)
        marks = set()
        for row, (x, o) in enumerate(zip(r.x_cols, r.o_cols), start=1):
            marks.update({(x, row), (o, row)})
        want = {(row, 2 + 1 - c) for row, (x, o) in
                enumerate(zip(g.x_cols, g.o_cols), start=1) for c in (x, o)}
        assert marks == {(c, r_) for (c, r_) in want}
