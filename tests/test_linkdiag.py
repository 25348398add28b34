import itertools
import re
from collections import defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from halfgrids import linkdiag
from halfgrids.cli import main
from halfgrids.errors import TooManyCrossings, UnorientedDiagram
from halfgrids.halfgrid import (
    GridDiagram,
    HalfGrid,
    assemble,
    assemble_unoriented,
    half_grid_from_partition,
    is_compatible,
    parse_permutation,
    perm_decode,
)
from halfgrids.linkdiag import (
    BRACKET_CAP,
    Crossing,
    LOOP,
    LaurentPoly,
    components,
    crossings,
    diagram,
    front_stats,
    half_grid_crossings,
    kauffman_bracket,
    render_ascii,
    render_svg,
    seifert_stats,
    writhe,
)
from halfgrids.thompson import (
    LEAF,
    enumerate_trees,
    leaf_signs,
    node,
    parse_pair,
    partition_from_tree,
)

from _brackets import framing_shift, power

UNKNOT = GridDiagram(2, (1, 2), (2, 1))
EXAMPLE_4X4 = GridDiagram(4, (1, 4, 2, 3), (3, 2, 4, 1))
# single-component 5x5 trefoil fixture: column spans are forced by the
# relator words x1x4 / x1x2x4x5 / x2x3x4x5 / x3x5 of its group presentation
TREFOIL_5X5 = GridDiagram(5, (1, 2, 1, 2, 3), (4, 5, 3, 4, 5), oriented=False)
TREFOIL_5X5_ORIENTED = GridDiagram(5, (1, 2, 3, 4, 5), (4, 5, 1, 2, 3))
# right-handed trefoil bracket, from its 3-crossing writhe-3 diagram
RIGHT_TREFOIL_BRACKET = LaurentPoly({-7: 1, -3: -1, 5: -1})


def block_sum(*grids):
    """The grids placed corner to corner along the diagonal: their split
    union, unoriented."""
    x, o = [], []
    for g in grids:
        size = len(x)
        x += [size + c for c in g.x_cols]
        o += [size + c for c in g.o_cols]
    return GridDiagram(len(x), tuple(x), tuple(o), oriented=False)


def compatible_pairs(max_leaves):
    for n in range(1, max_leaves + 1):
        halves = [
            (leaf_signs(t), half_grid_from_partition(partition_from_tree(t)), t)
            for t in enumerate_trees(n)
        ]
        for (s1, h1, t1), (s2, h2, t2) in itertools.product(halves, repeat=2):
            if s1 == s2:
                yield n, h1, h2, t1, t2


class TestComponents:
    def test_unknot(self):
        assert components(UNKNOT) == (1, ((1, 2),))

    def test_two_component_example(self):
        assert components(EXAMPLE_4X4) == (2, ((1, 3), (2, 4)))

    def test_trefoil_is_a_knot(self):
        assert components(TREFOIL_5X5)[0] == 1

    def test_half_grids_are_refused(self):
        """A half grid is open: its columns drop to the bottom edge, so no
        walk along rows and columns comes back to its start."""
        for h in (HalfGrid(2, (2, 3), (4, 1)), HalfGrid(1, (2,), (1,))):
            with pytest.raises(ValueError, match="^components need a closed diagram$"):
                components(h)

    def test_orientation_does_not_matter(self):
        for _, h1, h2, _, _ in compatible_pairs(4):
            g = assemble(h1, h2)
            assert components(g) == components(g.unoriented())

    def test_cycles_partition_columns(self):
        for _, h1, h2, _, _ in compatible_pairs(4):
            g = assemble(h1, h2)
            count, cycles = components(g)
            assert count == len(cycles)
            assert sorted(c for cyc in cycles for c in cyc) == list(range(1, g.size + 1))
            assert all(cyc[0] == min(cyc) for cyc in cycles)
            assert [cyc[0] for cyc in cycles] == sorted(cyc[0] for cyc in cycles)


class TestCrossings:
    def test_unknot_has_none(self):
        assert crossings(UNKNOT) == []

    def test_example_signs(self):
        xs = crossings(EXAMPLE_4X4)
        assert [(x.col, x.row, x.sign) for x in xs] == [(3, 2, -1), (3, 3, 1)]
        assert writhe(EXAMPLE_4X4) == 0

    def test_right_trefoil_writhe(self):
        assert writhe(TREFOIL_5X5_ORIENTED) == 3

    def test_assembled_writhe_zero(self):
        for _, h1, h2, _, _ in compatible_pairs(5):
            g = assemble(h1, h2)
            assert writhe(g) == 0
            assert len(crossings(g)) == 2 * (g.size // 2 - 1)

    def test_top_half_crossings_all_positive(self):
        for n in range(1, 7):
            for t in enumerate_trees(n):
                h = half_grid_from_partition(partition_from_tree(t))
                xs = half_grid_crossings(h)
                assert len(xs) == n - 1
                assert all(x.sign == 1 for x in xs)

    def test_half_grids(self):
        """A half grid's tangle is oriented, so its crossings carry signs;
        it is open, so front and Seifert data are refused as components
        are."""
        h = HalfGrid(2, (2, 3), (4, 1))
        assert crossings(h) == half_grid_crossings(h) == [Crossing(row=1, col=3, sign=1)]
        assert writhe(h) == 1
        with pytest.raises(ValueError, match="^front statistics need a closed diagram$"):
            front_stats(h)
        with pytest.raises(ValueError, match="^Seifert smoothing needs a closed diagram$"):
            seifert_stats(h)

    def test_unoriented_rejected(self):
        with pytest.raises(UnorientedDiagram):
            crossings(TREFOIL_5X5)
        with pytest.raises(UnorientedDiagram):
            front_stats(TREFOIL_5X5)
        with pytest.raises(UnorientedDiagram):
            seifert_stats(TREFOIL_5X5)


class TestFrontStats:
    def test_unknot(self):
        stats = front_stats(UNKNOT)
        assert (stats.tb, stats.rot, stats.cusps) == (-1, 0, 2)

    def test_example(self):
        stats = front_stats(EXAMPLE_4X4)
        assert (stats.tb, stats.rot) == (-2, 0)

    def test_right_trefoil_maximal_tb(self):
        stats = front_stats(TREFOIL_5X5_ORIENTED)
        assert stats.tb == 1  # the classical maximum for the right trefoil
        assert stats.rot == 0

    def test_assembled_tb_rot(self):
        for n, h1, h2, _, _ in compatible_pairs(5):
            stats = front_stats(assemble(h1, h2))
            assert stats.tb == -n
            assert stats.rot == 0

    def test_parity(self):
        for n, h1, h2, _, _ in compatible_pairs(5):
            g = assemble(h1, h2)
            comps, _ = components(g)
            stats = front_stats(g)
            assert comps % 2 == n % 2
            assert (stats.tb - stats.rot) % 2 == comps % 2


class TestSeifert:
    def test_unknot(self):
        assert seifert_stats(UNKNOT) == (1, 1)

    def test_trefoil_genus_bound(self):
        circles, euler = seifert_stats(TREFOIL_5X5_ORIENTED)
        assert euler <= -1  # genus at least one

    def test_assembled_euler(self):
        for n, h1, h2, _, _ in compatible_pairs(5):
            circles, euler = seifert_stats(assemble(h1, h2))
            assert euler == -n + 2


class TestLaurentPoly:
    def test_algebra(self):
        a = LaurentPoly({1: 2, -1: 1})
        b = LaurentPoly({0: 1, 1: -2})
        assert a + b == LaurentPoly({1: 0, -1: 1, 0: 1}) + LaurentPoly({1: 0})
        assert (a + b).coeffs == {-1: 1, 0: 1}
        assert a * LaurentPoly({0: 1}) == a
        assert LaurentPoly({2: 1}) * LaurentPoly({-2: 3}) == LaurentPoly({0: 3})
        assert a.mirror().mirror() == a
        assert str(LaurentPoly()) == "0"

    def test_pow(self):
        """The tests' power helper."""
        assert power(LOOP, 0) == LaurentPoly({0: 1})
        assert power(LOOP, 2) == LaurentPoly({4: 1, 0: 2, -4: 1})
        with pytest.raises(ValueError):
            power(LOOP, -1)

    def test_framing_shift(self):
        p = RIGHT_TREFOIL_BRACKET
        minus_a_cubed = LaurentPoly({3: -1})
        assert framing_shift(p, p) == 0
        assert framing_shift(minus_a_cubed * p, p) == 1
        assert framing_shift(p, minus_a_cubed * p) == -1
        assert framing_shift(p, p.mirror()) is None
        assert framing_shift(LaurentPoly(), LaurentPoly()) == 0


class TestKauffmanBracket:
    def test_unknot(self):
        assert kauffman_bracket(UNKNOT) == LaurentPoly({0: 1})

    def test_two_component_unlink(self):
        assert kauffman_bracket(EXAMPLE_4X4) == LOOP

    def test_right_trefoil_fixture(self):
        assert kauffman_bracket(TREFOIL_5X5) == RIGHT_TREFOIL_BRACKET

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_crossingless_unlink(self, k):
        """k free loops and no crossing: d^(k-1)."""
        assert kauffman_bracket(block_sum(*[UNKNOT] * k)) == power(LOOP, k - 1)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_trefoil_beside_free_loops(self, k):
        """The trefoil and k crossingless unknots: d^k times its bracket."""
        g = block_sum(TREFOIL_5X5, *[UNKNOT] * k)
        assert kauffman_bracket(g) == power(LOOP, k) * RIGHT_TREFOIL_BRACKET

    def test_sigma_pair_right_trefoil(self):
        hp = perm_decode(parse_permutation("4 2 5 3 1 6"))
        hm = perm_decode(parse_permutation("3 1 5 2 6 4"))
        g = assemble_unoriented(hp, hm)
        assert kauffman_bracket(g) == RIGHT_TREFOIL_BRACKET
        assert framing_shift(kauffman_bracket(g), RIGHT_TREFOIL_BRACKET) == 0
        # the mirror value would not match, even after framing changes
        assert framing_shift(kauffman_bracket(g), RIGHT_TREFOIL_BRACKET.mirror()) is None

    def test_ignores_orientation(self):
        for _, h1, h2, _, _ in compatible_pairs(4):
            g = assemble(h1, h2)
            assert kauffman_bracket(g) == kauffman_bracket(g.unoriented())

    def test_stabilization_adds_loop_factor(self):
        for _, h1, h2, t1, t2 in compatible_pairs(4):
            g = assemble(h1, h2)
            refined = assemble(
                half_grid_from_partition(partition_from_tree(node(t1, LEAF))),
                half_grid_from_partition(partition_from_tree(node(t2, LEAF))),
            )
            assert kauffman_bracket(refined) == LOOP * kauffman_bracket(g)

    def test_mirror_swaps_stacking_order(self):
        for n in range(1, 4):
            halves = [
                half_grid_from_partition(partition_from_tree(t))
                for t in enumerate_trees(n)
            ]
            for h1, h2 in itertools.product(halves, repeat=2):
                fwd = kauffman_bracket(assemble_unoriented(h1, h2))
                bwd = kauffman_bracket(assemble_unoriented(h2, h1))
                assert bwd == fwd.mirror()

    def test_tree_stack_at_the_crossing_cap(self):
        pair = parse_pair("((((.((..).))(..))(..))((.(..))(..)))|"
                          "(((.((((..)(..))(..))(.(..))))(..)).)")
        a, b = (half_grid_from_partition(partition_from_tree(t)) for t in (pair.top, pair.bottom))
        g = assemble(a, b)  # compatible: both trees have the same leaf signs
        assert len(crossings(g)) == 2 * (pair.n - 1) == BRACKET_CAP
        bracket = kauffman_bracket(g)
        mu, _ = components(g)
        assert abs(sum(bracket.coeffs.values())) == 2 ** (mu - 1)  # |<D>(A=1)|
        assert kauffman_bracket(assemble_unoriented(b, a)) == bracket.mirror() != bracket

    def test_crossing_cap(self):
        m = 12
        big = GridDiagram(
            m,
            tuple(range(1, m + 1)),
            tuple(((i + m // 2) % m) + 1 for i in range(m)),
        )
        with pytest.raises(TooManyCrossings):
            kauffman_bracket(big)
        assert BRACKET_CAP == 24


class TestRendering:
    def test_ascii_grid(self):
        assert render_ascii(EXAMPLE_4X4) == "O─X \n│X─O\n│O─X\nX─O "

    def test_ascii_only_is_seven_bit(self):
        text = render_ascii(EXAMPLE_4X4, ascii_only=True)
        assert text == "O-X \n|X-O\n|O-X\nX-O "
        assert all(ord(ch) < 128 for ch in text)

    def test_ascii_unoriented_marks(self):
        text = render_ascii(EXAMPLE_4X4.unoriented())
        assert "⊗" in text and "X" not in text and "O" not in text
        plain = render_ascii(EXAMPLE_4X4.unoriented(), ascii_only=True)
        assert all(ord(ch) < 128 for ch in plain)

    def test_ascii_half_grid(self):
        h = HalfGrid(2, (2, 3), (4, 1))
        assert render_ascii(h) == "O─X \n│X─O"

    def test_horizontal_unbroken_at_crossings(self):
        # crossings of the 4x4 example sit at column 3, rows 2 and 3
        lines = render_ascii(EXAMPLE_4X4).split("\n")
        assert lines[4 - 2][3 - 1] == "─"
        assert lines[4 - 3][3 - 1] == "─"

    def test_svg_deterministic_and_gapped(self):
        one = render_svg(EXAMPLE_4X4)
        two = render_svg(EXAMPLE_4X4)
        assert one == two
        assert one.startswith("<svg ") or one.startswith("<svg\n") or "<svg" in one
        # the under-strand in column 3 is split into several line elements
        assert one.count('x1="60" y1=') >= 2
        render_svg(TREFOIL_5X5)  # unoriented path also renders
        render_svg(HalfGrid(2, (2, 3), (4, 1)))


class TestAsciiReadsOnlyMarks:
    """`render_ascii` builds no planar-diagram record and reads no column
    span; the SVG renderer still builds the record for its gaps."""

    @pytest.fixture
    def reads(self, monkeypatch):
        """The objects passed to `diagram`, `column_rows` or `column_row`."""
        seen = []

        def counted(real):
            def wrapper(obj, *args):
                seen.append(obj)
                return real(obj, *args)
            return wrapper

        monkeypatch.setattr(linkdiag, "diagram", counted(linkdiag.diagram))
        monkeypatch.setattr(GridDiagram, "column_rows", counted(GridDiagram.column_rows))
        monkeypatch.setattr(HalfGrid, "column_row", counted(HalfGrid.column_row))
        return seen

    def test_render_command(self, reads, capsys):
        assert main(["render", "--ascii-only", "--trees", "((..).)|((..).)"]) == 0
        assert main(["render", "--unoriented", "--trees", "((..).)|(.(..))"]) == 0
        assert capsys.readouterr().out and reads == []

    @pytest.mark.parametrize("obj", [EXAMPLE_4X4.unoriented(), HalfGrid(2, (2, 3), (4, 1))],
                             ids=["unoriented-grid", "half-grid"])
    def test_render_ascii(self, reads, obj):
        render_ascii(obj, ascii_only=True)
        render_ascii(obj)
        assert reads == []
        assert not {"_diagram", "_spans", "_mark_rows"} & set(obj.__dict__)

    def test_svg_builds_the_record(self, reads, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["render", "--out", "x.svg", "--trees", "((..).)|((..).)"]) == 0
        assert reads and (tmp_path / "x.svg").exists()


_SVG_LINE = re.compile(r'<line x1="(-?\d+)" y1="(-?\d+)" x2="(-?\d+)" y2="(-?\d+)"')


def _svg_column_segments(svg: str) -> dict[int, list[tuple[int, int]]]:
    """The vertical line elements of an SVG drawing, as (top, bottom) y
    pairs sorted from the top, keyed by x."""
    cols = defaultdict(list)
    for x1, y1, x2, y2 in (map(int, m) for m in _SVG_LINE.findall(svg)):
        if x1 == x2 and y1 != y2:
            cols[x1].append((min(y1, y2), max(y1, y2)))
    return {x: sorted(segs) for x, segs in cols.items()}


def _check_svg_columns(obj) -> None:
    """Each column is its span cut by one gap of 10 at each crossing: the
    pieces never overlap and add up to the span minus the gaps."""
    d = diagram(obj)
    segments = _svg_column_segments(render_svg(obj))
    for c, ((lo, hi), ks) in enumerate(zip(d.spans, d.col_crossings), start=1):
        segs = segments[20 * c]
        assert len(segs) == len(ks) + 1
        for (_, bottom), (top, _) in zip(segs, segs[1:]):
            assert bottom < top, (c, segs)
        assert sum(b - t for t, b in segs) == 20 * (hi - lo) - 10 * len(ks)


class TestSvgColumns:
    def test_example_column_three(self):
        # two crossings, at rows 2 and 3, between the marks at rows 1 and 4
        assert _svg_column_segments(render_svg(EXAMPLE_4X4))[60] == [(20, 35), (45, 55), (65, 80)]

    def test_fixed_diagrams(self):
        for obj in (EXAMPLE_4X4, TREFOIL_5X5, HalfGrid(2, (2, 3), (4, 1))):
            _check_svg_columns(obj)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 12).flatmap(lambda n: st.permutations(range(1, 2 * n + 1))))
    def test_half_grids(self, images):
        _check_svg_columns(perm_decode(parse_permutation(" ".join(map(str, images)))))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 12).flatmap(
        lambda n: st.tuples(st.permutations(range(1, 2 * n + 1)), st.permutations(range(1, 2 * n + 1)))
    ))
    def test_stacked_grids(self, pair):
        a, b = (perm_decode(parse_permutation(" ".join(map(str, p)))) for p in pair)
        _check_svg_columns(assemble_unoriented(a, b))
