"""Spans and counters around halfgrids functions, patched in from outside.

Each listed function is replaced, in every halfgrids module that holds a
reference to it, by a wrapper that records a span: its name, the span that
was open when it started, start and end.  Spans stay in memory until the run
ends.  The hot grid lookups get call counters only, because a span per call
would cost more than the lookup.  Names missing from the program are
skipped and read as zero.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

import model

FUNCTIONS = {
    "thompson": ("parse_pair", "partition_from_tree", "multiply", "inverse", "reduce_pair",
                 "is_oriented", "apply_map"),
    "dyadic": ("parse_partition", "spanning_intervals"),
    "halfgrid": ("half_grid_from_partition", "perm_encode", "perm_decode", "is_compatible",
                 "assemble", "assemble_unoriented"),
    "linkdiag": ("components", "_crossing_positions", "crossings", "front_stats",
                 "seifert_stats", "kauffman_bracket", "render_ascii"),
    "linkgroup": ("half_grid_presentation", "relation_matrix", "smith_normal_form",
                  "abelianization"),
    "cli": ("main",),
}
METHODS = (("halfgrid", "GridDiagram", "column_rows"), ("halfgrid", "HalfGrid", "column_row"))
COUNTERS = ("linkdiag.crossings_found", "linkdiag.kauffman_bracket.states",
            "linkgroup.smith_normal_form.matrix_cells")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._bracket_grids: list[tuple] = []  # counted when the report is made, not inside a span
        self._patches: list[tuple[object, str, object]] = []

    def _span(self, name, fn, after=None):
        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, open_[-1] if open_ else -1, clock(), 0.0]
            spans.append(span)
            open_.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                open_.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _counted(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _after(self, name):
        """The counter update, if any, made from a call's arguments and result."""
        return {
            "linkdiag._crossing_positions": self._count_crossings,
            "linkdiag.kauffman_bracket": self._keep_bracket_grid,
            "linkgroup.smith_normal_form": self._count_cells,
        }.get(name)

    def _count_crossings(self, args, result) -> None:
        self.counts["linkdiag.crossings_found"] += len(result)

    def _keep_bracket_grid(self, args, result) -> None:
        self._bracket_grids.append((args[0].x_cols, args[0].o_cols))

    def _count_cells(self, args, result) -> None:
        matrix = args[0]
        self.counts["linkgroup.smith_normal_form.matrix_cells"] += len(matrix) * len(matrix[0] if matrix else ())

    def install(self) -> None:
        """Patch every listed name wherever a halfgrids module looks it up."""
        modules = [m for name, m in sys.modules.items() if name == "halfgrids" or name.startswith("halfgrids.")]
        for short, names in FUNCTIONS.items():
            home = sys.modules.get(f"halfgrids.{short}")
            for fname in names:
                original = getattr(home, fname, None)
                if original is None:
                    continue
                key = f"{short}.{fname}"
                wrapper = self._span(key, original, self._after(key))
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapper)
        for short, cls_name, meth in METHODS:
            cls = getattr(sys.modules.get(f"halfgrids.{short}"), cls_name, None)
            original = getattr(cls, meth, None)
            if original is not None:
                self._patch(cls, meth, self._counted(f"{short}.{cls_name}.{meth}.calls", original))

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: str) -> None:
        """The spans, one JSON list [name, parent, start, end] per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def metrics(self, items: int) -> dict[str, float]:
        """Per-item self seconds and calls of each listed function, call and
        work counters per item, and each module's share of the self time."""
        counts = Counter(self.counts)
        for x_cols, o_cols in self._bracket_grids:
            counts["linkdiag.kauffman_bracket.states"] += 2 ** len(model.crossings((x_cols, o_cols)))
        self_s = self_times(self.spans)
        calls = Counter(span[0] for span in self.spans)
        total = sum(self_s.values()) or 1.0
        out: dict[str, float] = {}
        module_self: dict[str, float] = defaultdict(float)
        for short, names in FUNCTIONS.items():
            for fname in names:
                key = f"{short}.{fname}"
                out[f"{key}.self_s"] = self_s.get(key, 0.0) / items
                out[f"{key}.calls"] = calls.get(key, 0) / items
                module_self[short] += self_s.get(key, 0.0)
        for short, cls_name, meth in METHODS:
            key = f"{short}.{cls_name}.{meth}.calls"
            out[key] = counts[key] / items
        for key in COUNTERS:
            out[key] = counts[key] / items
        for short in FUNCTIONS:
            out[f"{short}.self_share"] = module_self[short] / total
        return out


def self_times(spans) -> dict[str, float]:
    """Total self time per span name: each span's duration minus the part
    covered by its direct children."""
    child = [0.0] * len(spans)
    for _, parent, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for (name, _, start, end), covered in zip(spans, child):
        out[name] += end - start - covered
    return dict(out)

