"""Run one workload of the halfgrids benchmark and print its metrics.

    python3 bench/run.py --workload stack-invariants --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

One client, single-threaded, closed loop: each item starts when the previous
one has finished.  CLI items go through ``halfgrids.cli.main(argv)`` in this
process with stdout captured; tree-algebra items call the public API.  Only
the program's calls are timed; input generation and the oracles run between
items.  The loop runs whole cycles of the workload until ``--seconds`` have
passed and at least MIN_ITEMS items have run.  Times are wall times scaled
to a fixed reference speed (see Loop), because this machine's speed drifts.

With ``--trace 0`` the result carries the end-to-end metrics; with
``--trace 1`` every item runs once untraced and once traced, and the result
carries the per-layer metrics of the traced runs, per item, plus the tracing
overhead; the spans go to ``.bench_out/``.  The last line of stdout is the
JSON result; ``failed_frac`` is its ``failed`` over ``attempted``.  The
program is always the one in ``src/`` next to this directory; without it
the run fails.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, HERE)

import gen  # noqa: E402
import oracles  # noqa: E402
import tracing  # noqa: E402

MIN_ITEMS = 100  # enough for ten samples above the 90th percentile
SETUP_RUNS = 11
PROBE_TIMEOUT_S = 60
# Seconds the reference job takes on the 2-core machine the baseline was
# measured on, when it is not slowed; fixed, so runs stay comparable.
REFERENCE_S = 0.008
COMMANDS = {
    "stack-invariants": (("invariants",), ("render", "--ascii-only")),
    "stack-group": (("group",),),
    "small-bracket": (("invariants",),),
}


def import_program():
    """halfgrids from this checkout's src/, never an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "halfgrids", "__init__.py")):
        raise SystemExit(f"error: no halfgrids package under {SRC}")
    sys.path.insert(0, SRC)
    import halfgrids
    import halfgrids.cli

    if os.path.dirname(os.path.dirname(os.path.abspath(halfgrids.__file__))) != SRC:
        raise SystemExit(f"error: imported halfgrids from {halfgrids.__file__}, not {SRC}")
    return halfgrids


def run_item(hg, workload: str, item):
    """Run one item; return (seconds spent in the program, raw result)."""
    if workload == "tree-algebra":
        return _algebra(hg, item)
    outputs = []
    elapsed = 0.0
    for command in COMMANDS[workload]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            start = time.perf_counter()
            code = hg.cli.main([*command, *item.args])
            elapsed += time.perf_counter() - start
        outputs.append((code, buf.getvalue()))
    return elapsed, outputs


def _algebra(hg, item):
    g_text, h_text, *points = item.args
    start = time.perf_counter()
    g = hg.parse_pair(g_text)
    h = hg.parse_pair(h_text)
    product = hg.multiply(g, h)
    g_inv = hg.inverse(g)
    identity = hg.multiply(g, g_inv)
    reduced = hg.reduce_pair(g)
    oriented = hg.is_oriented(g), hg.is_oriented(h)
    images = [hg.apply_map(g, hg.parse_dyadic(p)) for p in points]
    elapsed = time.perf_counter() - start
    return elapsed, {
        "g": g, "product": str(product), "inverse": str(g_inv), "identity": str(identity),
        "reduced": str(reduced), "oriented_g": oriented[0], "oriented_h": oriented[1],
        "images": [str(y) for y in images],
    }


_IDENTITY = list(range(257))


def reference_job() -> int:
    """A fixed pure-Python job, union-find over small ints with an int-keyed
    dict: the kind of interpreter work the program does.  It creates no
    object the garbage collector tracks, so its time does not depend on how
    much the program has left on the heap."""
    parent = _IDENTITY[:]
    seen: dict[int, int] = {}
    for i in range(24000):
        a, b = (i * 7919) % 257, (i * 104729 + 13) % 257
        while parent[a] != a:
            a = parent[a]
        while parent[b] != b:
            b = parent[b]
        if a != b:
            parent[a] = b
        if i % 64 == 0:
            parent[:] = _IDENTITY
        key = a * 257 + b
        seen[key] = seen.get(key, 0) + 1
    return len(seen)


def reference_s() -> float:
    start = time.perf_counter()
    reference_job()
    return time.perf_counter() - start


class Loop:
    """Runs whole cycles of a workload and tallies the outcome.

    On the 2-core machine the baseline was taken on, the speed of plain
    Python code drifts by tens of percent over seconds, and the program
    slows with it.  So the reference job runs between items, and
    each item's time is scaled by REFERENCE_S over the mean of the reference
    times just before and just after it: `times` holds seconds at the speed
    at which the reference job takes REFERENCE_S.
    """

    def __init__(self, hg, workload: str, seed: int):
        self.hg, self.workload = hg, workload
        self.rng = random.Random(seed)
        self.attempted = self.failed = 0
        self.first_problem: str | None = None
        self.times: list[float] = []

    def run(self, seconds: float, each) -> None:
        """Call each(item) -> (seconds, result) on every item until `seconds`
        have passed at a cycle's end and MIN_ITEMS items have run."""
        start = time.perf_counter()
        before = reference_s()
        while time.perf_counter() - start < seconds or self.attempted < MIN_ITEMS:
            for i, item in enumerate(gen.cycle(self.workload, self.rng)):
                self.attempted += 1
                try:
                    elapsed, result = each(item)
                    after = reference_s()
                    self.times.append(elapsed * 2 * REFERENCE_S / (before + after))
                    before = after
                    # is_oriented_via_points is quadratic: one n=50 pair per cycle
                    via_points = self.hg.thompson.is_oriented_via_points if i == 0 else None
                    problems = oracles.check(self.workload, item, result, via_points)
                except Exception as exc:  # the program raised: count it and go on
                    problems = [f"raised {exc!r}"]
                if problems:
                    self.failed += 1
                    if self.first_problem is None:
                        self.first_problem = f"{item.label} {list(item.args)}: {problems[0]}"


def measure_setup(workload: str) -> float:
    """Median over fresh interpreters of import + one warm-up item, each
    scaled by the reference job timed right after it in the same process."""
    probe = os.path.join(HERE, "probe.py")
    times = []
    for _ in range(SETUP_RUNS):
        done = subprocess.run([sys.executable, probe, workload], capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, cwd=ROOT)
        if done.returncode != 0:
            raise SystemExit(f"error: setup probe failed: {done.stderr.strip()}")
        setup_s, reference = (float(x) for x in done.stdout.split()[-2:])
        times.append(setup_s * REFERENCE_S / reference)
    return statistics.median(times)


def end_to_end(hg, workload: str, seed: int, seconds: float) -> tuple[Loop, dict]:
    setup_s = measure_setup(workload)
    run_item(hg, workload, gen.warmup_item(workload))
    loop = Loop(hg, workload, seed)
    loop.run(seconds, lambda item: run_item(hg, workload, item))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    times = loop.times
    if not times:
        return loop, {}
    return loop, {
        "items_per_s": (len(times) / sum(times), "1/s"),
        "latency_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "latency_p90_ms": (statistics.quantiles(times, n=10)[8] * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(hg, workload: str, seed: int, seconds: float) -> tuple[Loop, dict]:
    tracer = tracing.Tracer()
    run_item(hg, workload, gen.warmup_item(workload))
    loop = Loop(hg, workload, seed)
    plain = traced = 0.0

    def traced_run(item):
        tracer.install()
        try:
            return run_item(hg, workload, item)
        finally:
            tracer.remove()

    def each(item):
        # alternate which run goes first, so neither always finds warm caches
        nonlocal plain, traced
        if loop.attempted % 2:
            plain += run_item(hg, workload, item)[0]
            elapsed, result = traced_run(item)
        else:
            elapsed, result = traced_run(item)
            plain += run_item(hg, workload, item)[0]
        traced += elapsed
        return elapsed, result

    loop.run(seconds, each)
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write(os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.jsonl"))
    units = {"self_s": "s/item", "calls": "calls/item", "self_share": "fraction"}
    metrics = {
        name: (value, units.get(name.rsplit(".", 1)[1], "count/item"))
        for name, value in tracer.metrics(loop.attempted).items()
    }
    metrics["trace.overhead_share"] = ((traced - plain) / plain if plain else 0.0, "fraction")
    return loop, metrics


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    status = 0
    for workload in gen.CYCLES:
        print(f"== {workload}", flush=True)
        done = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", workload,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], cwd=ROOT)
        status = status or done.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*gen.CYCLES, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    hg = import_program()
    measure = per_layer if args.trace else end_to_end
    loop, metrics = measure(hg, args.workload, args.seed, args.seconds)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"items {loop.attempted}  failed {loop.failed}  failed_frac {loop.failed / loop.attempted:.4f}")
    if loop.first_problem:
        print(f"first failure: {loop.first_problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
