import contextlib
import io
import itertools
import random
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from halfgrids.cli import main
from halfgrids.errors import DegreeMismatch
from halfgrids.halfgrid import (
    GridDiagram,
    Permutation,
    assemble_unoriented,
    format_grid,
    half_grid_from_partition,
    parse_permutation,
    perm_encode,
)
from halfgrids.linkdiag import components
from halfgrids.linkgroup import (
    GroupPresentation,
    abelianization,
    grid_presentation,
    grid_relation_edges,
    grid_relator_lines,
    half_grid_presentation,
    half_grid_relation_edges,
    half_grid_relator_lines,
    relation_matrix,
    signed_graph_abelianization,
    smith_normal_form,
)
from halfgrids.thompson import enumerate_trees, partition_from_tree
from _presentations import oracle_format_presentation, oracle_format_presentation_gap
from test_diagram_oracle import oriented_grids, unoriented_grids

UNKNOT = GridDiagram(2, (1, 2), (2, 1))
# 5x5 trefoil grid reconstructed from its relator words
TREFOIL_5X5 = GridDiagram(5, (1, 2, 1, 2, 3), (4, 5, 3, 4, 5), oriented=False)
SIGMA_PLUS = parse_permutation("4 2 5 3 1 6")
SIGMA_MINUS = parse_permutation("3 1 5 2 6 4")
# three 2x2 unknots along the diagonal: a three-component unlink
UNLINK_3 = GridDiagram(6, (1, 2, 3, 4, 5, 6), (2, 1, 4, 3, 6, 5))


def _seeded_grid(m, seed):
    """A random oriented m x m grid, for sizes past what Hypothesis draws."""
    rng = random.Random(seed)
    x, o = list(range(1, m + 1)), list(range(1, m + 1))
    rng.shuffle(x)
    rng.shuffle(o)
    for i in range(m):  # move each clash to the next row; that makes no new one
        if o[i] == x[i]:
            j = (i + 1) % m
            o[i], o[j] = o[j], o[i]
    return GridDiagram(m, tuple(x), tuple(o))


class TestGridPresentation:
    def test_unknot(self):
        pres = grid_presentation(UNKNOT)
        assert pres.generator_count == 2
        assert pres.relators == ((1, 2),)

    def test_five_by_five_trefoil(self):
        pres = grid_presentation(TREFOIL_5X5)
        assert pres.relators == (
            (1, 4),
            (1, 2, 4, 5),
            (2, 3, 4, 5),
            (3, 5),
        )

    def test_relator_count(self):
        for n in range(1, 5):
            for t in enumerate_trees(n):
                h = half_grid_from_partition(partition_from_tree(t))
                g = assemble_unoriented(h, h)
                pres = grid_presentation(g)
                assert len(pres.relators) == g.size - 1


def _perm_pairs(max_n):
    return st.integers(1, max_n).flatmap(
        lambda n: st.tuples(*[st.permutations(range(1, 2 * n + 1))] * 2)
    )


class TestHalfGridPresentation:
    def test_trefoil_example_verbatim(self):
        pres = half_grid_presentation(SIGMA_PLUS, SIGMA_MINUS)
        assert pres.generator_count == 6
        assert pres.relators == (
            (1, 2, 3, 4, 5, 6),
            (1, 3, 5, 6),
            (1, 6),
            (2, 4, 5, 6),
            (4, 6),
        )

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatch):
            half_grid_presentation(parse_permutation("2 1"), parse_permutation("2 1 3 4"))
        with pytest.raises(DegreeMismatch):
            half_grid_presentation(parse_permutation("2 1 3"), parse_permutation("1 2 3"))

    def test_matches_grid_presentation(self):
        for n in range(1, 5):
            halves = [
                half_grid_from_partition(partition_from_tree(t))
                for t in enumerate_trees(n)
            ]
            for a, b in itertools.product(halves, repeat=2):
                from_perms = half_grid_presentation(perm_encode(a), perm_encode(b))
                from_grid = grid_presentation(assemble_unoriented(a, b))
                assert from_perms.sorted_relators() == from_grid.sorted_relators()

    def test_relator_shape(self):
        for n in range(1, 5):
            for t in enumerate_trees(n):
                h = half_grid_from_partition(partition_from_tree(t))
                pres = half_grid_presentation(perm_encode(h), perm_encode(h))
                assert len(pres.relators) == 2 * n - 1
                lengths = sorted(len(w) for w in pres.relators)
                want = sorted([2 * n] + [2 * n - 2 * i for i in range(1, n)] * 2)
                assert lengths == want

    def test_letter_range_validated(self):
        with pytest.raises(ValueError, match="^letter 3 out of range$"):
            GroupPresentation(2, ((1, 3),))
        # the first bad letter of the first bad word is named
        with pytest.raises(ValueError, match="^letter -5 out of range$"):
            GroupPresentation(4, ((1, 2), (1, -5, 7)))
        with pytest.raises(ValueError, match="^letter 0 out of range$"):
            GroupPresentation(4, ((), (2, 0)))
        GroupPresentation(4, ((), (-4, 4, -1, 1)))


class TestSmithNormalForm:
    def test_examples(self):
        assert smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]) == [2, 2, 156]
        assert smith_normal_form([[1, 0], [0, 1]]) == [1, 1]
        assert smith_normal_form([[0, 0], [0, 0]]) == []
        assert smith_normal_form([[6]]) == [6]
        assert smith_normal_form([[2, 0], [0, 3]]) == [1, 6]

    def test_divisibility_chain(self):
        factors = smith_normal_form([[4, 0, 0], [0, 6, 0], [0, 0, 10]])
        for a, b in zip(factors, factors[1:]):
            assert b % a == 0

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), min_size=3, max_size=3),
            min_size=2,
            max_size=4,
        )
    )
    def test_rank_and_determinant_divisors(self, rows):
        factors = smith_normal_form(rows)
        # rank over the rationals equals the number of invariant factors
        assert len(factors) == _rank(rows)
        for a, b in zip(factors, factors[1:]):
            assert b % a == 0


def _rank(rows):
    from fractions import Fraction

    m = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    col = 0
    n_rows, n_cols = len(m), len(m[0])
    for col in range(n_cols):
        pivot = next((i for i in range(rank, n_rows) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(n_rows):
            if i != rank and m[i][col]:
                f = m[i][col] / m[rank][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


class TestAbelianization:
    def test_unknot(self):
        assert abelianization(grid_presentation(UNKNOT)) == (1, [])

    def test_trefoil(self):
        pres = half_grid_presentation(SIGMA_PLUS, SIGMA_MINUS)
        assert abelianization(pres) == (1, [])

    def test_free_group(self):
        assert abelianization(GroupPresentation(3, ())) == (3, [])

    def test_torsion(self):
        # <x | x^5> abelianizes to Z/5
        assert abelianization(GroupPresentation(1, ((1, 1, 1, 1, 1),))) == (0, [5])

    def test_free_rank_counts_components(self):
        for n in range(1, 5):
            halves = [
                half_grid_from_partition(partition_from_tree(t))
                for t in enumerate_trees(n)
            ]
            for a, b in itertools.product(halves, repeat=2):
                g = assemble_unoriented(a, b)
                pres = half_grid_presentation(perm_encode(a), perm_encode(b))
                free_rank, torsion = abelianization(pres)
                assert free_rank == components(g)[0]
                assert torsion == []


@st.composite
def signed_graphs(draw, max_vertices=10, max_edges=16):
    """(vertex count, edges (a, b, s) with s = +1 or -1); a == b draws a
    self-loop, x_a + s*x_a."""
    count = draw(st.integers(2, max_vertices))
    vertex = st.integers(1, count)
    edge = st.tuples(vertex, vertex, st.sampled_from((1, -1)))
    return count, draw(st.lists(edge, max_size=max_edges))


def _presentation(count, edges):
    """The signed graph as relators x_a x_b^s."""
    return GroupPresentation(count, tuple((a, s * b) for a, b, s in edges))


def _sympy_abelianization(count, rows):
    """(free rank, torsion) from sympy's Smith normal form."""
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    d = sympy_snf(sympy.Matrix(rows), domain=sympy.ZZ)
    nonzero = [abs(int(d[i, i])) for i in range(min(d.shape)) if d[i, i]]
    return count - len(nonzero), sorted(x for x in nonzero if x > 1)


class TestStructuralAbelianization:
    """The signed-graph route against the Smith normal form oracle."""

    @settings(max_examples=200, deadline=None)
    @given(_perm_pairs(8))
    def test_half_grid_matches_snf(self, pair):
        sp, sm = (Permutation(tuple(p)) for p in pair)
        structural = signed_graph_abelianization(sp.degree, half_grid_relation_edges(sp, sm))
        assert structural == abelianization(half_grid_presentation(sp, sm))

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(oriented_grids(12), unoriented_grids(12)))
    def test_grid_matches_snf(self, g):
        structural = signed_graph_abelianization(g.size, grid_relation_edges(g))
        assert structural == abelianization(grid_presentation(g))

    @settings(max_examples=300, deadline=None)
    @given(signed_graphs())
    @example((3, [(1, 2, 1), (2, 3, 1), (1, 3, 1)]))  # odd triangle: Z/2
    @example((4, [(1, 2, 1), (2, 3, -1), (3, 4, 1), (4, 1, -1)]))  # balanced square
    # an odd triangle hung below a larger balanced path keeps its Z/2
    @example((7, [(1, 2, 1), (2, 3, 1), (3, 1, 1), (4, 5, 1), (5, 6, 1), (6, 7, 1), (3, 4, 1)]))
    @example((2, [(1, 2, 1), (1, 2, -1)]))  # opposite-sign parallel edges: Z/2
    # the only clashing edge, (2, 4), is the last edge in the list and the
    # last the walk reads: from 1 it signs 2 and 3, pops 3 and signs 4, then
    # reads (2, 4) at 4 and, last of all, at 2
    @example((4, [(1, 2, 1), (1, 3, 1), (3, 4, 1), (2, 4, -1)]))
    def test_signed_graph_matches_snf(self, graph):
        count, edges = graph
        assert signed_graph_abelianization(count, edges) == abelianization(
            _presentation(count, edges)
        )

    def test_components(self):
        edges = [
            (1, 2, 1), (2, 3, 1), (3, 1, 1),  # odd cycle: Z/2
            (4, 5, -1), (5, 6, 1), (6, 4, 1),  # balanced: Z
            (8, 9, 1), (9, 8, 1),  # a doubled edge is balanced: Z
        ]  # and 7 is isolated: Z
        assert signed_graph_abelianization(9, edges) == (3, [2])
        assert signed_graph_abelianization(9, edges + [(4, 4, 1)]) == (2, [2, 2])
        assert signed_graph_abelianization(2, [(1, 1, -1)]) == (2, [])
        path = [(4, 5, 1), (5, 6, 1), (6, 7, 1)]
        assert signed_graph_abelianization(7, edges[:3] + path + [(3, 4, -1)]) == (0, [2])
        assert signed_graph_abelianization(0, []) == (0, [])

    def test_long_path_in_worst_union_order(self):
        """A 200 000-vertex path, its edges (i, i + 1) taken by the trailing
        zeros of i, so the adjacency lists fill far out of path order, and
        a depth-first walk from vertex 1 goes 200 000 vertices deep.  The
        edges come as a generator, and the call runs under a recursion
        limit a few frames above the caller's depth, which a recursive walk
        would exceed."""
        count = 200_000
        order = sorted(range(1, count), key=lambda i: (i & -i, i))
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 10)
        try:
            result = signed_graph_abelianization(
                count, ((i, i + 1, 1 if i % 3 else -1) for i in order)
            )
        finally:
            sys.setrecursionlimit(limit)
        assert result == (1, [])

    def test_bad_edges(self):
        for edge in ((0, 1, 1), (1, 3, 1), (1, 2, 0), (-1, 2, 1)):
            with pytest.raises(ValueError):
                signed_graph_abelianization(2, [edge])
        with pytest.raises(ValueError):
            signed_graph_abelianization(-1, [])

    def test_edges_of_the_trefoil(self):
        assert half_grid_relation_edges(SIGMA_PLUS, SIGMA_MINUS) == [
            (4, 2, 1), (5, 3, 1), (1, 6, 1), (3, 1, 1), (5, 2, 1), (6, 4, 1),
        ]
        # rows 1..4 of the 5x5 grid; each mark starts or ends its column
        assert grid_relation_edges(TREFOIL_5X5) == [
            (1, 4, 1), (2, 5, 1), (1, 3, -1), (2, 4, 1),
        ]
        with pytest.raises(DegreeMismatch):
            half_grid_relation_edges(parse_permutation("2 1"), parse_permutation("2 1 3 4"))

    def test_sympy_third_opinion(self):
        graphs = [
            (3, [(1, 2, 1), (2, 3, 1), (1, 3, 1)]),
            (9, [(1, 2, 1), (2, 3, 1), (3, 1, 1), (4, 5, 1), (5, 6, 1), (6, 4, 1),
                 (7, 8, -1), (8, 9, 1)]),
        ]
        cases = [(count, edges, _presentation(count, edges)) for count, edges in graphs] + [
            (6, half_grid_relation_edges(SIGMA_PLUS, SIGMA_MINUS),
             half_grid_presentation(SIGMA_PLUS, SIGMA_MINUS)),
            (5, grid_relation_edges(TREFOIL_5X5), grid_presentation(TREFOIL_5X5)),
            (6, grid_relation_edges(UNLINK_3), grid_presentation(UNLINK_3)),
        ]
        for count, edges, pres in cases:
            want = _sympy_abelianization(count, relation_matrix(pres))
            assert abelianization(pres) == want
            assert signed_graph_abelianization(count, edges) == want


class TestFormatting:
    def test_plain(self):
        pres = half_grid_presentation(SIGMA_PLUS, SIGMA_MINUS)
        text = oracle_format_presentation(pres)
        lines = text.split("\n")
        assert lines[0] == "gens=6"
        assert lines[1] == "rel: x1 x2 x3 x4 x5 x6"
        assert lines[2] == "rel: x1 x3 x5 x6"
        assert len(lines) == 6

    def test_gap_form(self):
        pres = grid_presentation(UNKNOT)
        text = oracle_format_presentation_gap(pres)
        assert "FreeGroup(2)" in text
        assert "F.1*F.2" in text

    def test_inverse_letters_and_empty_words(self):
        pres = GroupPresentation(3, ((1, -2, 3), (), (-3,)))
        assert oracle_format_presentation(pres) == "gens=3\nrel: x1 x2^-1 x3\nrel: \nrel: x3^-1"
        assert oracle_format_presentation_gap(pres) == (
            "F := FreeGroup(3);;\nG := F / [ F.1*F.2^-1*F.3, One(F), F.3^-1 ];\n"
        )

    def test_relation_matrix(self):
        pres = GroupPresentation(3, ((1, 2, -3), (2, 2)))
        assert relation_matrix(pres) == [[1, 1, -1], [0, 2, 0]]


@st.composite
def block_sums(draw, max_block=10):
    """Two or three random grids along the diagonal.  No column spans the
    line between two blocks, so the relator there is empty."""
    blocks = draw(st.lists(
        st.one_of(oriented_grids(max_block), unoriented_grids(max_block)), min_size=2, max_size=3
    ))
    x_cols, o_cols, shift = [], [], 0
    for g in blocks:
        x_cols += [c + shift for c in g.x_cols]
        o_cols += [c + shift for c in g.o_cols]
        shift += g.size
    oriented = all(g.oriented for g in blocks)
    return GridDiagram(shift, tuple(x_cols), tuple(o_cols), oriented=oriented)


def _plain_text(count, lines):
    return "\n".join([f"gens={count}", *(f"rel: {line}" for line in lines)])


def _gap_text(count, lines):
    rels = ", ".join(line or "One(F)" for line in lines)
    return f"F := FreeGroup({count});;\nG := F / [ {rels} ];\n"


def _group_output(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["group", *argv]) == 0
    return out.getvalue()


def _abelianization_line(count, edges):
    free_rank, torsion = signed_graph_abelianization(count, edges)
    return f"abelianization: free rank {free_rank}, torsion {','.join(map(str, torsion)) or 'none'}\n"


class TestRelatorLines:
    """The edit sweeps that `group` prints against the relator tuples and
    their spelling, the oracle they replace on the command line."""

    @settings(max_examples=100, deadline=None)
    @given(_perm_pairs(50))
    def test_half_grid_lines_match_the_tuples(self, pair):
        sp, sm = (Permutation(tuple(p)) for p in pair)
        pres = half_grid_presentation(sp, sm)
        plain = list(half_grid_relator_lines(sp, sm))
        gap = list(half_grid_relator_lines(sp, sm, "F.", "*"))
        assert _plain_text(sp.degree, plain) == oracle_format_presentation(pres)
        assert _gap_text(sp.degree, gap) == oracle_format_presentation_gap(pres)

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(oriented_grids(30), unoriented_grids(30), block_sums()))
    @example(_seeded_grid(400, 20261020))  # past the m <= 30 that Hypothesis draws
    def test_grid_lines_match_the_tuples(self, g):
        pres = grid_presentation(g)
        plain = list(grid_relator_lines(g))
        gap = list(grid_relator_lines(g, "F.", "*"))
        assert _plain_text(g.size, plain) == oracle_format_presentation(pres)
        assert _gap_text(g.size, gap) == oracle_format_presentation_gap(pres)

    def test_empty_relators_between_blocks(self):
        assert list(grid_relator_lines(UNLINK_3)) == ["x1 x2", "", "x3 x4", "", "x5 x6"]
        assert _gap_text(6, grid_relator_lines(UNLINK_3, "F.", "*")) == (
            "F := FreeGroup(6);;\nG := F / [ F.1*F.2, One(F), F.3*F.4, One(F), F.5*F.6 ];\n"
        )

    def test_degrees_checked_at_the_call(self):
        """A mismatch is raised before a line is read, so `group` has
        written nothing when it exits."""
        with pytest.raises(DegreeMismatch):
            half_grid_relator_lines(parse_permutation("2 1"), parse_permutation("2 1 3 4"))
        with pytest.raises(DegreeMismatch):
            half_grid_relator_lines(parse_permutation("2 1 3"), parse_permutation("1 2 3"))

    @settings(max_examples=50, deadline=None)
    @given(_perm_pairs(50))
    def test_cli_perms_match_the_oracle(self, pair):
        sp, sm = (Permutation(tuple(p)) for p in pair)
        pres = half_grid_presentation(sp, sm)
        perms = [" ".join(map(str, p)) for p in pair]
        edges = half_grid_relation_edges(sp, sm)
        assert _group_output(["--perms", *perms]) == (
            oracle_format_presentation(pres) + "\n" + _abelianization_line(sp.degree, edges)
        )
        assert _group_output(["--gap", "--perms", *perms]) == oracle_format_presentation_gap(pres)

    @settings(max_examples=50, deadline=None)
    @given(st.one_of(oriented_grids(30), unoriented_grids(30), block_sums()))
    def test_cli_grid_matches_the_oracle(self, g):
        pres = grid_presentation(g)
        with tempfile.TemporaryDirectory() as work:
            path = Path(work) / "g.grid"
            path.write_text(format_grid(g), encoding="utf-8")
            plain = _group_output(["--grid", str(path)])
            gap = _group_output(["--gap", "--grid", str(path)])
        edges = grid_relation_edges(g)
        assert plain == (
            oracle_format_presentation(pres) + "\n" + _abelianization_line(g.size, edges)
        )
        assert gap == oracle_format_presentation_gap(pres)
