"""Tests of the benchmark itself: generator, oracles and tracing.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from itertools import permutations, product
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

import gen  # noqa: E402
import model  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from halfgrids.cli import main as cli_main  # noqa: E402

POINTS = ("1/4", "1/2", "13/16")


def all_trees(n):
    if n == 1:
        return [None]
    return [(a, b) for i in range(1, n) for a in all_trees(i) for b in all_trees(n - i)]


TREE_PAIRS = [(t, u) for n in range(1, 5) for t in all_trees(n) for u in all_trees(n)]
HALF_GRIDS_N2 = [model.perm_half_grid(p) for p in permutations(range(1, 5))]


def cli(*argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(list(argv))
    return code, buf.getvalue()


def compatible(t, u) -> bool:
    return model.leaf_signs(t) == model.leaf_signs(u)


def tree_item(t, u, unoriented=False, form="trees"):
    grid = model.stack(model.half_grid(t), model.half_grid(u))
    if form == "trees":
        source = ("--trees", f"{model.tree_text(t)}|{model.tree_text(u)}")
    else:
        source = ("--partitions", model.partition_text(t), model.partition_text(u))
    flag = ("--unoriented",) if unoriented else ()
    return gen.Item("test", flag + source, model.leaf_count(t), grid,
                    tree_stack=compatible(t, u) and not unoriented)


# --- generator ---------------------------------------------------------------

@pytest.mark.parametrize("workload", list(gen.CYCLES))
def test_same_seed_gives_identical_inputs(workload):
    first = gen.inputs_text(gen.cycle(workload, random.Random(7)))
    again = gen.inputs_text(gen.cycle(workload, random.Random(7)))
    other = gen.inputs_text(gen.cycle(workload, random.Random(8)))
    assert first.encode() == again.encode()
    assert first != other


def test_compatible_partner_keeps_leaf_signs_and_depth():
    rng = random.Random(3)
    for n in (1, 2, 5, 40, 300):
        t = model.random_tree(n, rng)
        u = model.compatible_partner(t, rng, n)
        assert model.leaf_count(u) == n
        assert model.leaf_signs(u) == model.leaf_signs(t)
        assert model.depth(u) <= model.MAX_DEPTH


def test_model_half_grids_match_the_program():
    for t, u in TREE_PAIRS:
        code, out = cli("build", "--unoriented", "--trees", f"{model.tree_text(t)}|{model.tree_text(u)}")
        assert code == 0
        plus = out.splitlines()[0].split(";")
        x_cols, o_cols = model.half_grid(t)
        assert plus[1].strip() == "X=" + ",".join(map(str, x_cols))
        assert plus[2].strip() == "O=" + ",".join(map(str, o_cols))


# --- oracles agree with the program on every case up to n = 4 -----------------

def test_invariants_and_render_oracles_agree():
    for t, u in TREE_PAIRS:
        unoriented = tree_item(t, u, unoriented=True)
        assert oracles.check_invariants(unoriented, cli("invariants", *unoriented.args)[1]) == []
        if compatible(t, u):
            item = tree_item(t, u)
            assert oracles.check("stack-invariants", item, [
                cli("invariants", *item.args), cli("render", "--ascii-only", *item.args)]) == []
    for top, bottom in product(HALF_GRIDS_N2, repeat=2):
        args = ("--perms", model.perm_text(*top), model.perm_text(*bottom))
        if set(top[0]) != set(bottom[0]):  # the X columns differ: incompatible
            args = ("--unoriented",) + args
        item = gen.Item("test", args, 2, model.stack(top, bottom))
        assert oracles.check_invariants(item, cli("invariants", *args)[1]) == []


def test_group_oracle_agrees():
    for (t, u), form in product(TREE_PAIRS, ("trees", "partitions")):
        item = tree_item(t, u, form=form)
        assert oracles.check("stack-group", item, [cli("group", *item.args)]) == []


def test_algebra_oracle_agrees():
    hg = run.import_program()
    pairs = [(t, u) for t, u in TREE_PAIRS if model.leaf_count(t) >= 2]
    for g, h in product(pairs, repeat=2):
        texts = [f"{model.tree_text(a)}|{model.tree_text(b)}" for a, b in (g, h)]
        item = gen.Item("test", (*texts, *POINTS), model.leaf_count(g[0]), pairs=(g, h))
        _, result = run.run_item(hg, "tree-algebra", item)
        assert oracles.check("tree-algebra", item, result, hg.thompson.is_oriented_via_points) == []


# --- oracles reject corrupted answers ------------------------------------------

def _corrupt(text, old, new):
    assert old in text
    return text.replace(old, new, 1)


def test_invariants_oracle_rejects_corruption():
    t = ((None, None), (None, None))
    item = tree_item(t, t)
    _, out = cli("invariants", *item.args)
    f = oracles._fields(out)
    for key in ("components", "crossings", "writhe", "tb", "rot", "seifert_euler"):
        line = f"{key}={f[key]}"
        bad = _corrupt(out, line + "\n", f"{key}={int(f[key]) + 2}\n")
        assert oracles.check_invariants(item, bad), key
    bad = _corrupt(out, "bracket=", "bracket=3*A^(-4) + ")
    assert oracles.check_invariants(item, bad)
    bad = _corrupt(out, "cycles=(", "cycles=(9,")
    assert oracles.check_invariants(item, bad)


def test_render_oracle_rejects_corruption():
    t = ((None, None), None)
    item = tree_item(t, t)
    _, out = cli("render", "--ascii-only", *item.args)
    swapped = out.translate(str.maketrans("XO", "OX"))
    assert oracles.check_render(item, swapped)
    assert oracles.check_render(item, out[: out.index("\n")] + "\n")


def test_group_oracle_rejects_corruption():
    t = (None, (None, None))
    item = tree_item(t, t)
    _, out = cli("group", *item.args)
    assert oracles.check_group(item, _corrupt(out, "torsion none", "torsion 2"))
    assert oracles.check_group(item, _corrupt(out, "free rank", "free rank 1"))
    assert oracles.check_group(item, out.replace("rel: x1 x2 x3 x4 x5 x6\n", ""))
    assert oracles.check("stack-group", item, [(1, out)])


def test_bracket_oracle_rejects_corruption():
    t = (None, None)
    item = tree_item(t, t, unoriented=True)
    _, out = cli("invariants", *item.args)
    assert oracles.check_invariants(item, _corrupt(out, "bracket=", "bracket=1*A^7 + "))


def test_algebra_oracle_rejects_corruption():
    hg = run.import_program()
    g = (((None, None), None), (None, (None, None)))
    h = ((None, (None, None)), (None, (None, None)))
    texts = [f"{model.tree_text(a)}|{model.tree_text(b)}" for a, b in (g, h)]
    item = gen.Item("test", (*texts, *POINTS), 3, pairs=(g, h))
    _, result = run.run_item(hg, "tree-algebra", item)
    assert oracles.check_algebra(item, result) == []
    corruptions = {
        "identity": "(..).|..",
        "inverse": texts[0],
        "oriented_g": not result["oriented_g"],
        "oriented_h": not result["oriented_h"],
        "images": ["1/2", "1/2", "1/2"],
        "product": texts[1],
        "reduced": "((..)(..))|((..)(..))",
    }
    for key, bad in corruptions.items():
        assert oracles.check_algebra(item, {**result, key: bad}), key


# --- tracing -----------------------------------------------------------------

def test_self_times_on_a_synthetic_span_tree():
    spans = [
        ["cli.main", -1, 0.0, 10.0],
        ["a", 0, 1.0, 4.0],
        ["b", 0, 5.0, 9.0],
        ["a", 2, 6.0, 7.0],
        ["cli.main", -1, 20.0, 21.5],
    ]
    assert tracing.self_times(spans) == {"cli.main": 4.5, "a": 4.0, "b": 3.0}


def test_tracer_records_spans_and_restores_the_program():
    import halfgrids.cli
    import halfgrids.linkdiag

    originals = (halfgrids.cli.main, halfgrids.cli.parse_pair, halfgrids.linkdiag._crossing_positions)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = halfgrids.cli.main(["invariants", "--unoriented", "--trees", "((..).)|(.(..))"])
    finally:
        tracer.remove()
    assert code == 0
    assert (halfgrids.cli.main, halfgrids.cli.parse_pair,
            halfgrids.linkdiag._crossing_positions) == originals
    names = [span[0] for span in tracer.spans]
    assert "thompson.parse_pair" in names and "linkdiag.kauffman_bracket" in names
    bracket = names.index("linkdiag.kauffman_bracket")
    assert any(span[1] == bracket for span in tracer.spans)  # its crossing scan
    metrics = tracer.metrics(items=1)
    assert metrics["linkdiag.kauffman_bracket.states"] == 2 ** 4
    assert metrics["cli.main.calls"] == 1
    assert metrics["halfgrid.GridDiagram.column_rows.calls"] > 0


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    traced = set(tracing.Tracer().metrics(items=1)) | {"trace.overhead_share"}
    assert {m["name"] for m in spec["per_layer"]} == traced
    assert [w["name"] for w in spec["workloads"]] == list(gen.CYCLES)
