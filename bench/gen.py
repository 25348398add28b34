"""Seeded inputs for the halfgrids benchmark.

Each workload repeats a fixed cycle of size classes; the seed picks only the
trees, permutations and points inside each class, so every seed puts the
same kind of load on the program and no input repeats.  The program sees
only the text in ``Item.args``.  Nothing here imports halfgrids.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import model


@dataclass(frozen=True)
class Item:
    label: str  # size class
    args: tuple[str, ...]  # the text the program receives
    n: int  # leaves, or half grid rows
    grid: tuple | None = None  # the benchmark's own stacked grid
    tree_stack: bool = False  # compatible tree pair: the paper's closed forms hold
    pairs: tuple = ()  # tree-algebra: (top, bottom) of g and of h


def _tree(n, rng):
    while True:
        t = model.random_tree(n, rng)
        if model.depth(t) <= model.MAX_DEPTH:
            return t


def compatible_trees(rng, n):
    t = _tree(n, rng)
    u = model.compatible_partner(t, rng, n)
    grid = model.stack(model.half_grid(t), model.half_grid(u))
    return Item(f"compatible trees n={n}", ("--trees", f"{model.tree_text(t)}|{model.tree_text(u)}"),
                n, grid, tree_stack=True)


def random_trees(rng, n, form="trees", unoriented=False):
    t, u = _tree(n, rng), _tree(n, rng)
    grid = model.stack(model.half_grid(t), model.half_grid(u))
    if form == "trees":
        source = ("--trees", f"{model.tree_text(t)}|{model.tree_text(u)}")
    else:
        source = ("--partitions", model.partition_text(t), model.partition_text(u))
    flag = ("--unoriented",) if unoriented else ()
    return Item(f"random trees n={n}", flag + source, n, grid)


def dense_perms(rng, n):
    """Compatible halves: one shared X/O column pattern, rows shuffled
    independently in each half."""
    cols = list(range(1, 2 * n + 1))
    rng.shuffle(cols)
    halves = []
    for _ in range(2):
        x_cols, o_cols = cols[:n], cols[n:]
        rng.shuffle(x_cols)
        rng.shuffle(o_cols)
        halves.append((tuple(x_cols), tuple(o_cols)))
    return Item(f"dense perms n={n}", ("--perms", *(model.perm_text(*h) for h in halves)),
                n, model.stack(*halves))


def random_perms(rng, crossings):
    """Two random half grids, stacked unoriented, redrawn until the stack has
    exactly `crossings` crossings."""
    n = 4 if crossings <= 10 else 5
    while True:
        halves = []
        for _ in range(2):
            images = list(range(1, 2 * n + 1))
            rng.shuffle(images)
            halves.append(model.perm_half_grid(images))
        grid = model.stack(*halves)
        if len(model.crossings(grid)) == crossings:
            return Item(f"random perms c={crossings}",
                        ("--unoriented", "--perms", *(model.perm_text(*h) for h in halves)), n, grid)


POINT_EXP = 20


def tree_algebra(rng, n, oriented=True):
    """g = (top, bottom) and h, each a tree pair with n leaves, plus three
    dyadic points.  h is random; g is a compatible (oriented) pair, whose
    reduction removes many carets, or a random one."""
    t = _tree(n, rng)
    g = (t, model.compatible_partner(t, rng, n) if oriented else _tree(n, rng))
    h = (_tree(n, rng), _tree(n, rng))
    points = [f"{rng.randrange(1, 1 << POINT_EXP, 2)}/{1 << POINT_EXP}" for _ in range(3)]
    texts = [f"{model.tree_text(a)}|{model.tree_text(b)}" for a, b in (g, h)]
    return Item(f"tree algebra n={n}", (*texts, *points), n, pairs=(g, h))


def _classes(*classes):
    """A cycle: each (count, make) class in turn, fastest class first."""
    return [make for count, make in classes for _ in range(count)]


# The counts put the median and the 90th percentile in the middle of a size
# class, never on the gap between two classes, so that they do not jump
# between classes from seed to seed.
CYCLES = {
    # crossing scans: sparse tree stacks (c = 2(n-1)) and dense permutation stacks;
    # p50 falls among the n=50 permutation stacks, p90 among the n=200 tree stacks
    "stack-invariants": _classes(
        (2, lambda rng: dense_perms(rng, 25)),
        (2, lambda rng: compatible_trees(rng, 50)),
        (2, lambda rng: dense_perms(rng, 50)),
        (2, lambda rng: compatible_trees(rng, 100)),
        (2, lambda rng: compatible_trees(rng, 200)),
    ),
    # Smith normal form; p50 at n=50, p90 at n=100; trees or partitions text
    "stack-group": _classes(
        (1, lambda rng: random_trees(rng, 25, "trees")),
        (1, lambda rng: random_trees(rng, 25, "partitions")),
        (3, lambda rng: random_trees(rng, 50, "trees")),
        (3, lambda rng: random_trees(rng, 50, "partitions")),
        (1, lambda rng: random_trees(rng, 100, "trees")),
        (1, lambda rng: random_trees(rng, 100, "partitions")),
    ),
    # 2^c bracket state sums; p50 at c=10, p90 at c=12, one c=14 per cycle
    "small-bracket": _classes(
        (2, lambda rng: compatible_trees(rng, 5)),
        (2, lambda rng: random_trees(rng, 5, unoriented=True)),
        (1, lambda rng: random_perms(rng, 8)),
        (4, lambda rng: compatible_trees(rng, 6)),
        (3, lambda rng: random_trees(rng, 6, unoriented=True)),
        (3, lambda rng: random_perms(rng, 10)),
        (2, lambda rng: compatible_trees(rng, 7)),
        (1, lambda rng: random_trees(rng, 7, unoriented=True)),
        (1, lambda rng: random_perms(rng, 12)),
        (1, lambda rng: compatible_trees(rng, 8)),
    ),
    # group operations on tree pairs through the API; p50 at n=200, p90 at
    # n=400.  g is oriented only at n=50: reducing a large oriented pair
    # costs so differently from pair to pair that the percentiles would not
    # settle in a run; the products of random pairs still need reducing.
    "tree-algebra": _classes(
        (2, lambda rng: tree_algebra(rng, 50)),
        (5, lambda rng: tree_algebra(rng, 200, oriented=False)),
        (3, lambda rng: tree_algebra(rng, 400, oriented=False)),
    ),
}

WARMUP_SEED = 0


def cycle(workload: str, rng: random.Random) -> list[Item]:
    """One cycle of items, in the order they run."""
    return [make(rng) for make in CYCLES[workload]]


def warmup_item(workload: str) -> Item:
    """The same small item for every seed: the first of the cycle at WARMUP_SEED."""
    return CYCLES[workload][0](random.Random(WARMUP_SEED))


def inputs_text(items: list[Item]) -> str:
    """The program's view of a list of items, one line each."""
    return "\n".join("\t".join(item.args) for item in items) + "\n"
