"""Acceptance suite: ten criteria, one test (and one printed verdict line)
per criterion.  Timing bounds are asserted where a criterion carries one.
"""

import itertools
import random
import time

from halfgrids.dyadic import sign, spanning_intervals
from halfgrids.halfgrid import (
    HalfGrid,
    Permutation,
    assemble,
    assemble_unoriented,
    half_grid_from_partition,
    is_compatible,
    parse_permutation,
    perm_decode,
    perm_encode,
)
from halfgrids.linkdiag import (
    BRACKET_CAP,
    LaurentPoly,
    components,
    front_stats,
    half_grid_crossings,
    kauffman_bracket,
    seifert_stats,
    writhe,
    crossings,
    diagram,
)
from halfgrids.linkgroup import (
    abelianization,
    grid_presentation,
    half_grid_presentation,
)
from halfgrids.thompson import (
    IDENTITY,
    TreePair,
    enumerate_trees,
    inverse,
    is_oriented,
    is_oriented_via_points,
    leaf_signs,
    multiply,
    partition_from_tree,
    reduce_pair,
    node,
    LEAF,
)

from _brackets import framing_shift
from _trees import random_tree, refine_to, tree_union

RIGHT_TREFOIL_BRACKET = LaurentPoly({-7: 1, -3: -1, 5: -1})


import pytest


@pytest.fixture
def report(capsys):
    """One verdict line per criterion, emitted past pytest's capture."""

    def _report(number, text):
        with capsys.disabled():
            print(f"criterion {number:>2}: PASS - {text}", flush=True)

    return _report


def constructed_half_grids(max_leaves):
    for n in range(1, max_leaves + 1):
        for t in enumerate_trees(n):
            yield n, t, half_grid_from_partition(partition_from_tree(t))


def compatible_pairs(max_leaves):
    for n in range(1, max_leaves + 1):
        items = [
            (leaf_signs(t), half_grid_from_partition(partition_from_tree(t)))
            for t in enumerate_trees(n)
        ]
        for (s1, h1), (s2, h2) in itertools.product(items, repeat=2):
            if s1 == s2:
                yield n, h1, h2


def test_criterion_01_cardinality_suite(report):
    start = time.monotonic()
    count = 0
    for n, t, _ in constructed_half_grids(6):
        spans = spanning_intervals(partition_from_tree(t))
        assert len(spans) == 2 * n - 1
        assert sum(1 for iv in spans if sign(iv) == "+") == n
        assert sum(1 for iv in spans if sign(iv) == "-") == n - 1
        count += 1
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(1, f"spanning cardinalities on {count} trees (n<=6) in {elapsed:.2f}s")


def test_criterion_02_construction_validity(report):
    start = time.monotonic()
    count = 0
    for n, t, h in constructed_half_grids(6):
        # one X and one O per row, every column used exactly once
        HalfGrid(h.n, h.x_cols, h.o_cols)  # re-validates all invariants
        assert h.n == n
        assert sorted(h.x_cols + h.o_cols) == list(range(1, 2 * n + 1))
        count += 1
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(2, f"half grid construction valid on {count} trees (n<=6) in {elapsed:.2f}s")


def test_criterion_03_compatibility(report):
    start = time.monotonic()
    count = 0
    for n in range(1, 6):
        items = [
            (leaf_signs(t), half_grid_from_partition(partition_from_tree(t)))
            for t in enumerate_trees(n)
        ]
        for (s1, h1), (s2, h2) in itertools.product(items, repeat=2):
            if s1 != s2:
                continue
            assert is_compatible(h1, h2)
            g = assemble(h1, h2)
            assert g.size == 2 * n and g.oriented
            count += 1
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report(3, f"equal-sign pairs compatible and assemble on {count} pairs (n<=5) in {elapsed:.2f}s")


def test_criterion_04_invariant_battery(report):
    start = time.monotonic()
    count = 0
    for n, h1, h2 in compatible_pairs(5):
        g = assemble(h1, h2)
        xs = crossings(g)
        assert sum(x.sign for x in xs) == 0  # writhe
        assert len(xs) == 2 * (n - 1)
        tops = half_grid_crossings(h1)
        assert len(tops) == n - 1 and all(x.sign == 1 for x in tops)
        stats = front_stats(g)
        assert stats.tb == -n and stats.rot == 0
        comps, _ = components(g)
        assert comps % 2 == n % 2
        assert (stats.tb - stats.rot) % 2 == comps % 2
        _, euler = seifert_stats(g)
        assert euler == -n + 2
        count += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(4, f"writhe/tb/rot/parity/euler battery on {count} compatible pairs (n<=5) in {elapsed:.2f}s")


def test_criterion_05_trefoil_golden(report):
    start = time.monotonic()
    sigma_plus = parse_permutation("4 2 5 3 1 6")
    sigma_minus = parse_permutation("3 1 5 2 6 4")
    hp, hm = perm_decode(sigma_plus), perm_decode(sigma_minus)
    g = assemble_unoriented(hp, hm)
    assert g.size == 6 and not g.oriented
    assert components(g)[0] == 1
    bracket = kauffman_bracket(g)
    assert framing_shift(bracket, RIGHT_TREFOIL_BRACKET) is not None
    assert framing_shift(bracket, RIGHT_TREFOIL_BRACKET.mirror()) is None
    pres = half_grid_presentation(sigma_plus, sigma_minus)
    assert pres.relators == (
        (1, 2, 3, 4, 5, 6),
        (1, 3, 5, 6),
        (1, 6),
        (2, 4, 5, 6),
        (4, 6),
    )
    assert abelianization(pres) == (1, [])
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(5, f"right-trefoil bracket, presentation and H1=Z in {elapsed:.2f}s")


def test_criterion_06_codec_roundtrip(report):
    count = 0
    for n in range(1, 5):
        for images in itertools.permutations(range(1, 2 * n + 1)):
            sigma = Permutation(images)
            assert perm_encode(perm_decode(sigma)) == sigma
            count += 1
    rng = random.Random(20260823)
    for _ in range(10_000):
        images = list(range(1, 21))
        rng.shuffle(images)
        sigma = Permutation(tuple(images))
        h = perm_decode(sigma)
        assert perm_encode(h) == sigma
        assert perm_decode(perm_encode(h)) == h
    report(6, f"codec round-trip on {count} exhaustive (n<=4) + 10000 random n=10 permutations")


def test_criterion_07_dual_membership(report):
    count = 0
    for n in range(1, 6):
        for top in enumerate_trees(n):
            for bottom in enumerate_trees(n):
                g = TreePair(top, bottom)
                assert is_oriented(g) == is_oriented_via_points(g)
                count += 1
    report(7, f"sign-sequence and point-sign membership tests agree on {count} pairs (n<=5)")


def test_criterion_08_presentation_equality(report):
    # A pair's grid presentation splits by horizontal line: lines above the
    # middle depend only on the top half, lines below only on the bottom,
    # and the middle line is the full word.  Checking every half grid
    # against itself therefore covers every pair; off-diagonal pairs are
    # sampled as a guard on that argument.
    start = time.monotonic()
    diag = 0
    for n in range(1, 5):
        for images in itertools.permutations(range(1, 2 * n + 1)):
            sigma = Permutation(images)
            h = perm_decode(sigma)
            from_grid = grid_presentation(assemble_unoriented(h, h))
            from_perms = half_grid_presentation(sigma, sigma)
            assert from_grid.sorted_relators() == from_perms.sorted_relators()
            diag += 1

    exhaustive_pairs = 0
    for n in (1, 2):
        sigmas = [Permutation(p) for p in itertools.permutations(range(1, 2 * n + 1))]
        for sa, sb in itertools.product(sigmas, repeat=2):
            a, b = perm_decode(sa), perm_decode(sb)
            g = assemble_unoriented(a, b)
            from_grid = grid_presentation(g)
            from_perms = half_grid_presentation(sa, sb)
            assert from_grid.sorted_relators() == from_perms.sorted_relators()
            free_rank, torsion = abelianization(from_perms)
            assert free_rank == components(g)[0] and torsion == []
            exhaustive_pairs += 1

    rng = random.Random(20260823)
    sampled = 0
    for _ in range(300):
        n = rng.choice((3, 4))
        pa = list(range(1, 2 * n + 1))
        pb = list(range(1, 2 * n + 1))
        rng.shuffle(pa)
        rng.shuffle(pb)
        sa, sb = Permutation(tuple(pa)), Permutation(tuple(pb))
        a, b = perm_decode(sa), perm_decode(sb)
        g = assemble_unoriented(a, b)
        from_perms = half_grid_presentation(sa, sb)
        assert grid_presentation(g).sorted_relators() == from_perms.sorted_relators()
        free_rank, torsion = abelianization(from_perms)
        assert free_rank == components(g)[0] and torsion == []
        sampled += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(
        8,
        f"presentation equality: {diag} exhaustive diagonal half grids (n<=4), "
        f"{exhaustive_pairs} exhaustive pairs (n<=2), {sampled} random pairs "
        f"with H1 rank = components, in {elapsed:.1f}s",
    )


def test_criterion_09_group_algebra(report):
    rng = random.Random(20260823)
    for _ in range(1000):
        n = rng.randint(1, 5)
        g = TreePair(random_tree(n, rng), random_tree(n, rng))
        h = TreePair(random_tree(n, rng), random_tree(n, rng))
        k = TreePair(random_tree(n, rng), random_tree(n, rng))
        assert multiply(g, inverse(g)) == IDENTITY
        assert multiply(multiply(g, h), k) == multiply(g, multiply(h, k))
        r = reduce_pair(g)
        assert reduce_pair(r) == r
        refined = refine_to(g, tree_union(g.bottom, node(LEAF, node(LEAF, LEAF))))
        assert reduce_pair(refined) == reduce_pair(g)
    report(9, "inverse/associativity/reduction/refinement laws on 1000 random triples (n<=5)")


def test_criterion_10_mirror_bracket(report):
    rng = random.Random(20260823)
    checked = 0
    attempts = 0
    while checked < 100:
        attempts += 1
        n = rng.randint(1, 4)
        pa = list(range(1, 2 * n + 1))
        pb = list(range(1, 2 * n + 1))
        rng.shuffle(pa)
        rng.shuffle(pb)
        a = perm_decode(Permutation(tuple(pa)))
        b = perm_decode(Permutation(tuple(pb)))
        g = assemble_unoriented(a, b)
        if len(diagram(g).positions) > BRACKET_CAP:
            continue
        fwd = kauffman_bracket(g)
        bwd = kauffman_bracket(assemble_unoriented(b, a))
        assert bwd == fwd.mirror()
        checked += 1
    report(10, f"bracket mirrors under swapped stacking on {checked} random pairs "
               f"({attempts - checked} skipped over the crossing budget)")
