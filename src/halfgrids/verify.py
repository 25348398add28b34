"""Enumeration harness: machine-check the library's structural properties
over all binary trees up to a leaf bound.

Each check returns a (name, instance count, pass/fail, counterexample)
record; the suite never raises on a failed property, it reports it.  The
suite walks the trees once and the same-size tree pairs once, by leaf count
and then in `enumerate_trees` order; a per-tree check belongs in
`_check_tree`, a per-pair check in the pair loop of `verify_suite`, so each
check sees its instances in that order and reports the first that fails.
The pair loop stacks each pair once, oriented when the pair is compatible,
and every per-pair check reads that one stack.  The stack of (t2, t1) is
the reversed stack that `bracket-mirror` reads at (t1, t2), so each
distinct stack is bracketed at most once: the first of the two pairs to
need it brackets both and keeps them by pair, where the other pair reads
them.  Every check is one `record(name, ok, describe)` call, which counts
the instance and calls `describe()` for the check's first failure only; a
name not in `CHECKS` raises `KeyError`.
"""

from __future__ import annotations

import itertools

from . import halfgrid, linkdiag
from .dyadic import sign, spanning_intervals, spanning_intervals_by_pairs
from .errors import Frozen
from .halfgrid import (
    HalfGrid,
    assemble_unoriented,
    half_grid_from_partition,
    half_grid_from_tree,
    is_compatible,
    perm_decode,
    perm_encode,
    Permutation,
)
from .linkdiag import LOOP, front_stats, seifert_stats
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
        width = max((len(r.name) for r in self.results), default=0)
        for r in sorted(self.results, key=lambda r: r.name):
            status = "PASS" if r.passed else "FAIL"
            lines.append(f"{r.name:<{width}}  {r.instances:>8}  {status}")
            if not r.passed:
                lines.append(f"  counterexample: {r.counterexample}")
        lines.extend(f"note: {n}" for n in self.notes)
        lines.append("all checks passed" if self.ok else "SOME CHECKS FAILED")
        return "\n".join(lines)


def verify_suite(max_leaves: int = 5) -> Report:
    if not 1 <= max_leaves <= 8:
        raise ValueError("max_leaves must be between 1 and 8")
    instances = dict.fromkeys(CHECKS, 0)
    failures = {}  # the first counterexample of each failed check

    def record(name: str, ok: bool, describe) -> None:
        instances[name] += 1
        if not ok and name not in failures:
            failures[name] = describe()

    converse_hits = 0
    oriented = []  # reduced oriented pairs with n <= 4, for the closure check
    for n in range(1, max_leaves + 1):
        halves = {t: _check_tree(record, t) for t in enumerate_trees(n)}
        brackets = {}  # by pair, for the reversed pair to read
        for (t1, (a, sa)), (t2, (b, sb)) in itertools.product(halves.items(), repeat=2):
            g = TreePair(t1, t2)
            where = lambda: f"trees {t1}, {t2}"  # noqa: E731
            same_signs = is_oriented(g)
            record("dual-membership-agreement", same_signs == is_oriented_via_points(g),
                   lambda: f"pair {g}")
            compatible = is_compatible(a, b)
            if same_signs:
                record("compatibility-from-signs", compatible, where)
                if n <= 4:  # reducing keeps the answer of is_oriented
                    oriented.append(reduce_pair(g))
            elif compatible:
                converse_hits += 1

            # components, presentations and the bracket read only the marks,
            # so the oriented stack of a compatible pair serves them too
            stack = halfgrid._stack(a, b, oriented=compatible)  # a.n == b.n
            comps, _ = linkdiag.components(stack)
            crossing_count = len(linkdiag.diagram(stack).positions)
            signed = same_signs and compatible
            # each bracket check takes the first pairs of its walk in reach
            stabilize = (signed and crossing_count + 2 <= linkdiag.BRACKET_CAP
                         and instances["bracket-stabilization"] < BRACKET_STAB_BUDGET)
            reverse = (instances["bracket-mirror"] < BRACKET_MIRROR_BUDGET
                       and crossing_count <= linkdiag.BRACKET_CAP)
            if stabilize or reverse:
                bracket = brackets.get((t1, t2))
                if bracket is None:
                    bracket = brackets[t1, t2] = linkdiag.kauffman_bracket(stack)

            if signed:
                stats = front_stats(stack)
                record("writhe-zero", stats.writhe == 0, where)
                record("tb-and-rot", stats.tb == -n and stats.rot == 0, where)
                record("parity",
                       comps % 2 == n % 2 and (stats.tb - stats.rot) % 2 == comps % 2, where)
                _, euler = seifert_stats(stack)
                record("seifert-euler", euler == -n + 2 and crossing_count == 2 * (n - 1), where)
            if stabilize:
                refined = assemble_unoriented(
                    half_grid_from_tree(node(t1, LEAF)), half_grid_from_tree(node(t2, LEAF))
                )
                record("bracket-stabilization",
                       linkdiag.kauffman_bracket(refined) == LOOP * bracket, where)

            # the presentation checks hold for any pair of equal size
            from_grid = grid_presentation(stack)
            from_perms = half_grid_presentation(sa, sb)
            record("presentation-equality",
                   from_grid.sorted_relators() == from_perms.sorted_relators(), where)
            # the production route, against the independently traced components
            structural = signed_graph_abelianization(2 * n, half_grid_relation_edges(sa, sb))
            free_rank, torsion = structural
            record("abelianization-free-rank", free_rank == comps and not torsion, where)
            # both structural routes, against the Smith normal form oracle
            record("abelianization-two-routes-agree",
                   structural
                   == signed_graph_abelianization(2 * n, grid_relation_edges(stack))
                   == abelianization(from_perms),
                   where)
            lengths = sorted(len(w) for w in from_perms.relators)
            want = sorted([2 * n] + [2 * n - 2 * i for i in range(1, n) for _ in range(2)])
            record("relator-shape", len(from_perms.relators) == 2 * n - 1 and lengths == want,
                   where)
            if reverse:
                backward = brackets.get((t2, t1))
                if backward is None:  # (t2, t1) comes later and reads both
                    backward = brackets[t2, t1] = linkdiag.kauffman_bracket(
                        assemble_unoriented(b, a))
                record("bracket-mirror", backward == bracket.mirror(), where)

    for g in oriented[:200]:
        record("oriented-subgroup-closure", is_oriented(inverse(g)), lambda: f"pair {g}")
    for g, h in itertools.islice(itertools.product(oriented, repeat=2), 400):
        record("oriented-subgroup-closure", is_oriented(multiply(g, h)),
               lambda: f"pairs {g}, {h}")

    notes = (
        "incompatible partition pairs yielding compatible half grids: "
        f"{converse_hits} (informational; the converse of the compatibility "
        "statement is not claimed)",
    )
    results = [CheckResult(name, count, name not in failures, failures.get(name))
               for name, count in instances.items()]
    return Report(max_leaves, results, notes)


def _check_tree(record, t: Tree) -> tuple[HalfGrid, Permutation]:
    """Records the per-tree checks of t; returns its half grid and the
    permutation `perm_encode` makes of it."""
    n = len(t.ids)
    where = lambda: f"tree {t}"  # noqa: E731
    p = partition_from_tree(t)
    spanning = spanning_intervals(p)
    want = tuple("X" if sign(iv) == "+" else "O" for iv in spanning)
    pos = want.count("X")
    record("spanning-cardinalities",
           len(spanning) == 2 * n - 1 and pos == n and len(spanning) - pos == n - 1, where)
    record("spanning-two-routes-agree", spanning == spanning_intervals_by_pairs(p), where)

    h = half_grid_from_tree(t)
    record("half-grid-scan-vs-partition", h == half_grid_from_partition(p), where)
    ok = True
    try:
        HalfGrid(h.n, h.x_cols, h.o_cols)
    except ValueError:
        ok = False
    record("half-grid-validity", ok and h.n == n, where)

    marks = h.column_marks()
    record("column-marks-are-interval-signs", marks[0] == "O" and marks[1:] == want, where)

    sigma = perm_encode(h)
    record("codec-roundtrip", perm_decode(sigma) == h, where)

    # t is compatible with itself, so h is the top half of a compatible pair
    record("top-half-crossings-positive", linkdiag.diagram(h).signs == (1,) * (n - 1), where)
    return h, sigma
