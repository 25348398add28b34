"""Enumeration harness: machine-check the library's structural properties
over all binary trees up to a leaf bound.

Each check returns a (name, instance count, pass/fail, counterexample)
record; the suite never raises on a failed property, it reports it.  The
suite walks the trees once and the same-size tree pairs once, by leaf count
and then in `enumerate_trees` order; a per-tree check belongs in
`_check_tree`, a per-pair check in the pair loop of `verify_suite`, so each
check sees its instances in that order and reports the first that fails.
"""

from __future__ import annotations

import itertools

from . import linkdiag
from .dyadic import sign, spanning_intervals, spanning_intervals_by_pairs
from .errors import Frozen
from .halfgrid import (
    HalfGrid,
    assemble,
    assemble_unoriented,
    half_grid_from_partition,
    half_grid_from_tree,
    is_compatible,
    perm_decode,
    perm_encode,
)
from .linkdiag import LOOP, front_stats, half_grid_crossings, seifert_stats, writhe
from .linkgroup import (
    abelianization,
    grid_presentation,
    grid_relation_edges,
    half_grid_presentation,
    half_grid_relation_edges,
    signed_graph_abelianization,
)
from .thompson import (
    TreePair,
    Tree,
    enumerate_trees,
    inverse,
    is_oriented,
    is_oriented_via_points,
    multiply,
    node,
    LEAF,
    partition_from_tree,
    reduce_pair,
)

BRACKET_MIRROR_BUDGET = 300  # instance cap; enumeration order is fixed
BRACKET_STAB_BUDGET = 200
CHECKS = (
    "spanning-cardinalities",
    "spanning-two-routes-agree",
    "half-grid-validity",
    "half-grid-scan-vs-partition",
    "column-marks-are-interval-signs",
    "compatibility-from-signs",
    "writhe-zero",
    "top-half-crossings-positive",
    "tb-and-rot",
    "parity",
    "seifert-euler",
    "dual-membership-agreement",
    "oriented-subgroup-closure",
    "presentation-equality",
    "abelianization-free-rank",
    "abelianization-two-routes-agree",
    "relator-shape",
    "codec-roundtrip",
    "bracket-stabilization",
    "bracket-mirror",
)


class CheckResult(Frozen):
    name: str
    instances: int
    passed: bool
    counterexample: str | None

    def __init__(self, name: str, instances: int, passed: bool,
                 counterexample: str | None = None):
        self.__dict__.update(name=name, instances=instances, passed=passed,
                             counterexample=counterexample)


class Report(Frozen):
    max_leaves: int
    results: tuple[CheckResult, ...]
    notes: tuple[str, ...]

    def __init__(self, max_leaves: int, results: tuple[CheckResult, ...],
                 notes: tuple[str, ...] = ()):
        self.__dict__.update(max_leaves=max_leaves, results=tuple(results),
                             notes=tuple(notes))

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.results)

    def format(self) -> str:
        lines = [f"verification over all trees with up to {self.max_leaves} leaves"]
        width = max(len(r.name) for r in self.results)
        for r in sorted(self.results, key=lambda r: r.name):
            status = "PASS" if r.passed else "FAIL"
            lines.append(f"{r.name:<{width}}  {r.instances:>8}  {status}")
            if not r.passed:
                lines.append(f"  counterexample: {r.counterexample}")
        lines.extend(f"note: {n}" for n in self.notes)
        lines.append("all checks passed" if self.ok else "SOME CHECKS FAILED")
        return "\n".join(lines)


class _Check:
    """Accumulates instances; records the first counterexample, calling
    `describe` before `record` returns, so it may read loop variables."""

    def __init__(self, name: str):
        self.name = name
        self.instances = 0
        self.counterexample: str | None = None

    def record(self, ok: bool, describe) -> None:
        self.instances += 1
        if not ok and self.counterexample is None:
            self.counterexample = describe()

    def result(self) -> CheckResult:
        return CheckResult(
            self.name, self.instances, self.counterexample is None, self.counterexample
        )


def verify_suite(max_leaves: int = 5) -> Report:
    if not 1 <= max_leaves <= 8:
        raise ValueError("max_leaves must be between 1 and 8")
    checks = {name: _Check(name) for name in CHECKS}
    converse_hits = 0
    oriented = []  # reduced oriented pairs with n <= 4, for the closure check

    for n in range(1, max_leaves + 1):
        halves = {t: _check_tree(checks, t) for t in enumerate_trees(n)}
        for t1, t2 in itertools.product(halves, repeat=2):
            a, b = halves[t1], halves[t2]
            g = TreePair(t1, t2)
            same_signs = is_oriented(g)
            checks["dual-membership-agreement"].record(
                same_signs == is_oriented_via_points(g), lambda: f"pair {g}"
            )
            if same_signs:
                compatible = is_compatible(a, b)
                checks["compatibility-from-signs"].record(
                    compatible, lambda: f"trees {t1}, {t2}"
                )
                if compatible:
                    _check_compatible_pair(checks, n, t1, t2, a, b)
                if n <= 4:  # reducing keeps the answer of is_oriented
                    oriented.append(reduce_pair(g))
            elif is_compatible(a, b):
                converse_hits += 1

            # presentation checks hold for any pair of equal size
            _check_presentation(checks, n, t1, t2, a, b)

    closure = checks["oriented-subgroup-closure"]
    for g in oriented[:200]:
        closure.record(is_oriented(inverse(g)), lambda: f"pair {g}")
    for g, h in itertools.islice(itertools.product(oriented, repeat=2), 400):
        closure.record(is_oriented(multiply(g, h)), lambda: f"pairs {g}, {h}")

    notes = (
        "incompatible partition pairs yielding compatible half grids: "
        f"{converse_hits} (informational; the converse of the compatibility "
        "statement is not claimed)",
    )
    return Report(max_leaves, [c.result() for c in checks.values()], notes)


def _check_tree(checks, t: Tree) -> HalfGrid:
    """Records the per-tree checks of t; returns its half grid."""
    n = len(t.ids)
    where = lambda: f"tree {t}"  # noqa: E731
    p = partition_from_tree(t)
    spanning = spanning_intervals(p)
    pos = sum(1 for iv in spanning if sign(iv) == "+")
    checks["spanning-cardinalities"].record(
        len(spanning) == 2 * n - 1 and pos == n and len(spanning) - pos == n - 1, where
    )
    checks["spanning-two-routes-agree"].record(
        spanning == spanning_intervals_by_pairs(p), where
    )

    h = half_grid_from_tree(t)
    checks["half-grid-scan-vs-partition"].record(h == half_grid_from_partition(p), where)
    ok = True
    try:
        HalfGrid(h.n, h.x_cols, h.o_cols)
    except ValueError:
        ok = False
    checks["half-grid-validity"].record(ok and h.n == n, where)

    marks = h.column_marks()
    want = tuple("X" if sign(iv) == "+" else "O" for iv in spanning)
    checks["column-marks-are-interval-signs"].record(
        marks[0] == "O" and marks[1:] == want, where
    )

    checks["codec-roundtrip"].record(perm_decode(perm_encode(h)) == h, where)

    # t is compatible with itself, so h is the top half of a compatible pair
    tops = half_grid_crossings(h)
    checks["top-half-crossings-positive"].record(
        len(tops) == n - 1 and all(x.sign == 1 for x in tops), where
    )
    return h


def _check_compatible_pair(checks, n, t1, t2, a, b) -> None:
    g = assemble(a, b)
    where = lambda: f"trees {t1}, {t2}"  # noqa: E731
    checks["writhe-zero"].record(writhe(g) == 0, where)

    stats = front_stats(g)
    checks["tb-and-rot"].record(stats.tb == -n and stats.rot == 0, where)

    comps, _ = linkdiag.components(g)
    checks["parity"].record(
        comps % 2 == n % 2 and (stats.tb - stats.rot) % 2 == comps % 2, where
    )

    circles, euler = seifert_stats(g)
    crossings = len(linkdiag.diagram(g).positions)
    checks["seifert-euler"].record(euler == -n + 2 and crossings == 2 * (n - 1), where)

    stab = checks["bracket-stabilization"]
    if crossings + 2 <= linkdiag.BRACKET_CAP and stab.instances < BRACKET_STAB_BUDGET:
        refined = assemble_unoriented(
            half_grid_from_tree(node(t1, LEAF)), half_grid_from_tree(node(t2, LEAF))
        )
        base = linkdiag.kauffman_bracket(g.unoriented())
        checks["bracket-stabilization"].record(
            linkdiag.kauffman_bracket(refined) == LOOP * base, where
        )


def _check_presentation(checks, n, t1, t2, a, b) -> None:
    where = lambda: f"trees {t1}, {t2}"  # noqa: E731
    g = assemble_unoriented(a, b)
    sigmas = perm_encode(a), perm_encode(b)
    from_grid = grid_presentation(g)
    from_perms = half_grid_presentation(*sigmas)
    checks["presentation-equality"].record(
        from_grid.sorted_relators() == from_perms.sorted_relators(), where
    )

    # the production route, against the independently traced components
    structural = signed_graph_abelianization(2 * n, half_grid_relation_edges(*sigmas))
    free_rank, torsion = structural
    comps, _ = linkdiag.components(g)
    checks["abelianization-free-rank"].record(
        free_rank == comps and not torsion, where
    )
    # both structural routes, against the Smith normal form oracle
    checks["abelianization-two-routes-agree"].record(
        structural
        == signed_graph_abelianization(2 * n, grid_relation_edges(g))
        == abelianization(from_perms),
        where,
    )

    lengths = sorted(len(w) for w in from_perms.relators)
    want = sorted([2 * n] + [2 * n - 2 * i for i in range(1, n) for _ in range(2)])
    checks["relator-shape"].record(
        len(from_perms.relators) == 2 * n - 1 and lengths == want, where
    )

    # the first BRACKET_MIRROR_BUDGET pairs whose bracket is in reach
    mirror = checks["bracket-mirror"]
    if (
        mirror.instances < BRACKET_MIRROR_BUDGET
        and len(linkdiag.diagram(g).positions) <= linkdiag.BRACKET_CAP
    ):
        backward = linkdiag.kauffman_bracket(assemble_unoriented(b, a))
        mirror.record(backward == linkdiag.kauffman_bracket(g).mirror(), where)

