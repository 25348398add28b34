"""The benchmark's checks on the program's answers.

Each check takes an item and the program's output and returns a list of
problems, empty when the answer is right.  They compare the output with the
benchmark's own model (see model.py) and with closed forms from the paper,
not with the program's own code path; the one exception is the program's
independent membership test, is_oriented_via_points.  They run outside the
timed region.
"""

from __future__ import annotations

from fractions import Fraction

import model

BRACKET_CAP = 24  # halfgrids skips the bracket above this many crossings


def _fields(out: str) -> dict[str, str]:
    fields = {}
    for line in out.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            fields[key] = value
    return fields


def _expect(problems: list[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, want {want!r}")


def _cycles(text: str) -> list[frozenset[int]]:
    return [frozenset(int(c) for c in part.strip("()").split(",")) for part in text.split()]


def bracket_at_one(text: str) -> int:
    """The bracket polynomial, as halfgrids prints it, evaluated at A = 1."""
    return sum(int(term.split("*")[0]) for term in text.split(" + "))


def check_invariants(item, out: str) -> list[str]:
    """Components by union-find, the crossing count and writhe by the
    benchmark's own scan, the paper's closed forms on compatible tree stacks,
    and |<D>(A=1)| = 2^(mu-1) for a diagram with mu components."""
    problems: list[str] = []
    f = _fields(out)
    grid = item.grid
    comps = model.components(grid)
    c = len(model.crossings(grid))
    try:
        _expect(problems, "size", int(f["size"]), len(grid[0]))
        _expect(problems, "components", int(f["components"]), len(comps))
        _expect(problems, "cycles", sorted(_cycles(f["cycles"]), key=min), comps)
        _expect(problems, "crossings", int(f["crossings"]), c)
        oriented = "--unoriented" not in item.args
        _expect(problems, "oriented fields", "writhe" in f, oriented)
        if oriented:
            circles, euler = int(f["seifert_circles"]), int(f["seifert_euler"])
            _expect(problems, "writhe", int(f["writhe"]), model.writhe(grid))
            _expect(problems, "seifert_euler", euler, circles - c)
        if item.tree_stack:
            n = item.n
            _expect(problems, "tree stack writhe", int(f["writhe"]), 0)
            _expect(problems, "tree stack tb", int(f["tb"]), -n)
            _expect(problems, "tree stack rot", int(f["rot"]), 0)
            _expect(problems, "tree stack crossings", c, 2 * (n - 1))
            _expect(problems, "tree stack seifert_euler", int(f["seifert_euler"]), 2 - n)
        if c <= BRACKET_CAP:
            _expect(problems, "|bracket(A=1)|", abs(bracket_at_one(f["bracket"])), 2 ** (len(comps) - 1))
        else:
            _expect(problems, "bracket", f["bracket"].startswith("skipped"), True)
    except (KeyError, ValueError) as exc:
        problems.append(f"unreadable invariants output: {exc!r}")
    return problems


def check_render(item, out: str) -> list[str]:
    """One text line per grid row, top row first, with the X and O of each
    row in place and an unbroken horizontal strand between them."""
    problems: list[str] = []
    x_cols, o_cols = item.grid
    m = len(x_cols)
    lines = out.rstrip("\n").split("\n")
    _expect(problems, "render shape", [len(line) for line in lines], [m] * m)
    if problems:
        return problems
    for r, (x, o) in enumerate(zip(x_cols, o_cols), start=1):
        line = lines[m - r]
        lo, hi = min(x, o), max(x, o)
        want = "X" if x == lo else "O"
        want += "-" * (hi - lo - 1) + ("O" if want == "X" else "X")
        _expect(problems, f"render row {r}", line[lo - 1:hi], want)
    return problems


def check_group(item, out: str) -> list[str]:
    """2n generators, the relator lengths of a half grid presentation, and an
    abelianization of free rank equal to the component count, no torsion."""
    problems: list[str] = []
    n = item.n
    lines = out.splitlines()
    try:
        _expect(problems, "gens", lines[0], f"gens={2 * n}")
        lengths = sorted(len(line.split()) - 1 for line in lines if line.startswith("rel:"))
        want = sorted([2 * n] + [2 * n - 2 * i for i in range(1, n) for _ in range(2)])
        _expect(problems, "relator lengths", lengths, want)
        free_rank = len(model.components(item.grid))
        _expect(problems, "abelianization", lines[-1],
                f"abelianization: free rank {free_rank}, torsion none")
    except IndexError:
        problems.append("unreadable group output")
    return problems


def check(workload: str, item, result, via_points=None) -> list[str]:
    """All checks of one item.  A CLI result is the (exit code, stdout) of
    each command; a tree-algebra result is the dict `run_item` returns.
    `via_points`, if given, is the program's independent membership test,
    which must agree with its is_oriented on g."""
    if workload == "tree-algebra":
        problems = check_algebra(item, result)
        if via_points is not None and via_points(result["g"]) != result["oriented_g"]:
            problems.append(f"is_oriented_via_points disagrees with is_oriented {result['oriented_g']}")
        return problems
    problems = [f"exit code {code}" for code, _ in result if code != 0]
    if problems:
        return problems
    texts = [text for _, text in result]
    if workload == "stack-group":
        return check_group(item, texts[0])
    problems = check_invariants(item, texts[0])
    if workload == "stack-invariants":
        problems += check_render(item, texts[1])
    return problems


def check_algebra(item, result: dict) -> list[str]:
    """g g^-1 = 1, inverse swaps the trees, reduce_pair keeps the map and
    leaves no common caret, is_oriented matches the leaf signs, apply_map
    matches the benchmark's own evaluation, and apply_map composes:
    (gh)(x) = h(g(x)), with no common caret left in gh."""
    problems: list[str] = []
    (g_top, g_bottom), (h_top, h_bottom) = item.pairs
    points = [Fraction(p) for p in item.args[2:]]
    _expect(problems, "g g^-1", result["identity"], ".|.")
    _expect(problems, "inverse", result["inverse"], f"{model.tree_text(g_bottom)}|{model.tree_text(g_top)}")
    for what, top, bottom in (("g", g_top, g_bottom), ("h", h_top, h_bottom)):
        _expect(problems, f"is_oriented({what})", result[f"oriented_{what}"],
                model.leaf_signs(top) == model.leaf_signs(bottom))
    reduced = [model.parse_tree(t) for t in result["reduced"].split("|")]
    product = [model.parse_tree(t) for t in result["product"].split("|")]
    for what, pair in (("reduce_pair", reduced), ("multiply", product)):
        if model.has_common_caret(*pair):
            problems.append(f"{what} left a common caret")
    for x, image in zip(points, result["images"]):
        gx = model.pl_map(g_top, g_bottom, x)
        _expect(problems, f"apply_map(g, {x})", Fraction(image), gx)
        _expect(problems, f"reduce_pair(g)({x})", model.pl_map(*reduced, x), gx)
        _expect(problems, f"(gh)({x})", model.pl_map(*product, x), model.pl_map(h_top, h_bottom, gx))
    return problems
