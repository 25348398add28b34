"""Command-line interface.

Exit codes: 0 success, 1 domain error (incompatible pair, bad permutation,
..., or a stdout closed before the output was written), 2 malformed input,
3 verification failure.
"""

from __future__ import annotations

import os
import sys
from functools import lru_cache
from types import SimpleNamespace

from . import halfgrid
from .errors import HalfGridError, Incompatible, ParseError, SizeMismatch
from .halfgrid import (
    GridDiagram, HalfGrid, assemble, assemble_unoriented, format_grid, format_half_grid,
    half_grid_from_tree, is_compatible, parse_grid, parse_permutation, perm_decode, perm_encode,
    rotate90,
)
from .thompson import _trusted, parse_pair


def _half_grids(args) -> tuple[HalfGrid, HalfGrid]:
    """The input's two half grids, refused unless they have one size."""
    if args.trees is not None:
        pair = parse_pair(args.trees)
        plus, minus = half_grid_from_tree(pair.top), half_grid_from_tree(pair.bottom)
    elif args.partitions is not None:
        from .dyadic import partition_leaves

        plus, minus = (half_grid_from_tree(_trusted(partition_leaves(text)))
                       for text in args.partitions)
    else:
        sp, sm = (parse_permutation(text) for text in args.perms)
        plus, minus = perm_decode(sp), perm_decode(sm)
    if plus.n != minus.n:
        raise SizeMismatch(f"half grid sizes differ: {plus.n} vs {minus.n}")
    return plus, minus


def _grid(args) -> GridDiagram:
    """The input's grid; `--unoriented` applies to a grid file's marks too."""
    unoriented = getattr(args, "unoriented", False)
    if args.grid is not None:
        try:
            with open(args.grid, encoding="utf-8") as fh:
                text = fh.read().strip()
        except (OSError, UnicodeDecodeError) as exc:
            raise ParseError(f"cannot read {args.grid}: {exc}") from None
        g = parse_grid(text)
        return g.unoriented() if unoriented else g
    plus, minus = _half_grids(args)
    return assemble_unoriented(plus, minus) if unoriented else assemble(plus, minus)


def cmd_build(args) -> int:
    if args.grid is not None:
        print(format_grid(_grid(args)))
        return 0
    plus, minus = _half_grids(args)
    compatible = is_compatible(plus, minus)
    if not (compatible or args.unoriented):
        raise Incompatible(
            "half grids are not compatible; pass --unoriented to stack anyway"
        )
    g = halfgrid._stack(plus, minus, oriented=compatible)
    print(f"plus:  {format_half_grid(plus)}")
    print(f"minus: {format_half_grid(minus)}")
    print(f"grid:  {format_grid(g)}")
    return 0


def cmd_render(args) -> int:
    from . import linkdiag

    g = _grid(args)
    if args.out:
        svg = linkdiag.render_svg(g)
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(svg)
        except OSError as exc:
            raise ParseError(f"cannot write {args.out}: {exc}") from None
        print(f"wrote {args.out}")
    else:
        print(linkdiag.render_ascii(g, ascii_only=args.ascii_only))
    return 0


def cmd_invariants(args) -> int:
    """The report is written in one step once every line is made, so an
    error leaves stdout empty."""
    from . import linkdiag

    g = _grid(args)
    crossings = len(linkdiag.diagram(g).positions)  # builds the diagram the rest reads
    comps, cycles = linkdiag.components(g)
    lines = [
        f"size={g.size}",
        f"components={comps}",
        "cycles=" + " ".join("(" + ",".join(map(str, c)) + ")" for c in cycles),
        f"crossings={crossings}",
    ]
    if g.oriented:
        stats = linkdiag.front_stats(g)
        circles, euler = linkdiag.seifert_stats(g)
        lines += [
            f"writhe={stats.writhe}",
            f"cusps={stats.cusps} (up={stats.up_cusps}, down={stats.down_cusps})",
            f"tb={stats.tb}",
            f"rot={stats.rot}",
            f"seifert_circles={circles}",
            f"seifert_euler={euler}",
        ]
    if crossings <= linkdiag.BRACKET_CAP:
        # the bracket reads any grid unoriented, so it shares the diagram of g
        lines.append(f"bracket={linkdiag.kauffman_bracket(g)}")
    else:
        lines.append(f"bracket=skipped ({crossings} crossings exceed cap {linkdiag.BRACKET_CAP})")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def cmd_group(args) -> int:
    """Every check runs before the first line is written, so an error
    leaves stdout empty; then each relator line is written as it is made."""
    from . import linkgroup

    prefix, sep = ("F.", "*") if args.gap else ("x", " ")
    if args.grid is not None:
        g = _grid(args)
        count, edges = g.size, linkgroup.grid_relation_edges(g)
        lines = linkgroup.grid_relator_lines(g, prefix, sep)
    else:
        sigmas = [perm_encode(h) for h in _half_grids(args)]
        count, edges = sigmas[0].degree, linkgroup.half_grid_relation_edges(*sigmas)
        lines = linkgroup.half_grid_relator_lines(*sigmas, prefix, sep)
    write = sys.stdout.write
    if args.gap:
        write(f"F := FreeGroup({count});;\nG := F / [ ")
        lead = ""
        for line in lines:
            write(lead + (line or "One(F)"))
            lead = ", "
        write(" ];\n")
        return 0
    write(f"gens={count}\n")
    for line in lines:
        write(f"rel: {line}\n")
    # the relators' differences form a signed graph; no matrix is built
    free_rank, torsion = linkgroup.signed_graph_abelianization(count, edges)
    torsion_text = ",".join(map(str, torsion)) or "none"
    write(f"abelianization: free rank {free_rank}, torsion {torsion_text}\n")
    return 0


def cmd_encode(args) -> int:
    plus, minus = _half_grids(args)
    print(f"sigma_plus:  {perm_encode(plus)}")
    print(f"sigma_minus: {perm_encode(minus)}")
    return 0


def cmd_verify(args) -> int:
    from . import verify

    report = verify.verify_suite(args.max_leaves)
    print(report.format())
    return 0 if report.ok else 3


def cmd_export(args) -> int:
    g = _grid(args)
    if args.rotate90:
        g = rotate90(g)
    print(format_grid(g))
    return 0


def _flag(help_line: str | None = None) -> dict:
    return {"action": "store_true", "help": help_line}


# name -> (help line, input sources, handler, further options), in the order
# --help lists them; the sources are "grid" (all four), "halves" (no grid
# file) or None, and each option maps its flag to its add_argument keywords
COMMANDS = {
    "build": ("construct half grids and the stacked grid", "grid", cmd_build,
              {"--unoriented": _flag("stack incompatible halves as an unoriented grid")}),
    "render": ("draw the diagram (ASCII or SVG)", "grid", cmd_render, {
        "--unoriented": _flag(), "--ascii-only": _flag("7-bit characters only"),
        "--out": {"metavar": "FILE", "help": "write SVG here instead"}}),
    "invariants": ("components, writhe, tb/rot, bracket, ...", "grid", cmd_invariants,
                   {"--unoriented": _flag()}),
    "group": ("link group presentation", "grid", cmd_group,
              {"--gap": _flag("emit a finitely-presented-group text form")}),
    "encode": ("half grids as one-line permutations", "halves", cmd_encode, {}),
    "verify": ("run the enumeration checks", None, cmd_verify, {"--max-leaves": {
        "type": int, "default": 5, "metavar": "N", "help": "tree size bound, 1..8 (default 5)"},
    }),
    "export": ("print the grid in parseable text form", "grid", cmd_export, {
        "--unoriented": _flag(),
        "--rotate90": _flag("rotate to the rows-O-to-X convention first")}),
}


# the input sources and their add_argument keywords, in the order --help
# lists them; "--grid" only where a command reads grid files
SOURCES = {
    "--trees": {"metavar": "TOP|BOTTOM", "help": "tree pair, e.g. '(..)|(..)'"},
    "--partitions": {"nargs": 2, "metavar": ("PLUS", "MINUS"),
                     "help": "two comma-separated dyadic breakpoint lists"},
    "--perms": {"nargs": 2, "metavar": ("SIGMA_PLUS", "SIGMA_MINUS"),
                "help": "two one-line permutations of 1..2n"},
    "--grid": {"metavar": "FILE", "help": "file holding a grid diagram line"},
}


def _dest(flag: str) -> str:
    """The attribute argparse stores a long option's value in."""
    return flag[2:].replace("-", "_")


def _sources(kind: str | None) -> dict:
    """The input sources of commands whose sources are `kind`."""
    if kind is None:
        return {}
    return {flag: keywords for flag, keywords in SOURCES.items()
            if flag != "--grid" or kind == "grid"}


@lru_cache(maxsize=None)
def _table(name: str) -> tuple[dict, dict]:
    """Each option string of command `name` mapped to its dest, the number
    of values it reads (0 for a flag), its nargs and its type; and the
    namespace of its defaults."""
    _, sources, _, options = COMMANDS[name]
    known = {}
    for flag, keywords in {**_sources(sources), **options}.items():
        nargs = keywords.get("nargs")
        count = 0 if keywords.get("action") == "store_true" else nargs or 1
        known[flag] = (_dest(flag), count, nargs, keywords.get("type"))
    defaults = {"command": name, **dict.fromkeys(map(_dest, SOURCES) if sources else ())}
    for flag, keywords in options.items():
        dest, count, *_ = known[flag]
        defaults[dest] = keywords.get("default", None if count else False)
    return known, defaults


def _read(argv: list[str]) -> SimpleNamespace | None:
    """The namespace `build_parser` gives a well-formed argv, read off the
    tables: a command name, then that command's exact option strings, each
    at most once, with exactly one input source and no value that is empty
    or starts with `-`.  None for any other argv."""
    if not argv or argv[0] not in COMMANDS:
        return None
    known, defaults = _table(argv[0])
    values = dict(defaults)
    given, i = set(), 1
    while i < len(argv):
        flag = argv[i]
        if flag not in known or flag in given:
            return None
        given.add(flag)
        dest, count, nargs, convert = known[flag]
        i += 1 + count
        if count == 0:
            values[dest] = True
            continue
        value = argv[i - count:i]
        if len(value) < count or not all(v and v[0] != "-" for v in value):
            return None
        if nargs is None:
            value = value[0]
        if convert is not None:
            try:
                value = convert(value)
            except (TypeError, ValueError):
                return None
        values[dest] = value
    if COMMANDS[argv[0]][1] is not None and len(given & SOURCES.keys()) != 1:
        return None
    return SimpleNamespace(**values)


@lru_cache(maxsize=None)
def build_parser():
    """The argparse parser of every command, built once per process for the
    argv `_read` declines: it prints the help and words the usage errors.
    parse_args keeps no state in it."""
    import argparse

    class NoGridFile(argparse.Action):
        """`--grid` given to a command that needs half grids: refused as
        malformed input (exit 2) while the arguments are parsed."""

        def __call__(self, parser, namespace, values, option_string=None):
            raise ParseError(
                "a grid file holds no half grids; give --trees, --partitions or --perms")

    parser = argparse.ArgumentParser(
        prog="halfgrids", description="half grid diagrams, grid diagrams and their link invariants")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, sources, _, options) in COMMANDS.items():
        sub = subs.add_parser(name, help=help_line)
        if sources is not None:
            src = sub.add_argument_group("input source (exactly one)")
            src = src.add_mutually_exclusive_group(required=True)
            for flag, keywords in _sources(sources).items():
                src.add_argument(flag, **keywords)
            if sources != "grid":
                sub.add_argument("--grid", action=NoGridFile, help=argparse.SUPPRESS)
        for flag, keywords in options.items():
            sub.add_argument(flag, **keywords)
    return parser


def parse_argv(argv: list[str]) -> tuple[str, object]:
    """The command argv names and its arguments: read off the tables when
    argv is well formed, else parsed by the full parser, which prints the
    help or words the usage error."""
    args = _read(argv) or build_parser().parse_args(argv)
    return args.command, args


def main(argv: list[str] | None = None) -> int:
    try:
        name, args = parse_argv(sys.argv[1:] if argv is None else argv)
        code = COMMANDS[name][2](args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (HalfGridError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # what is left in the buffer goes to devnull, so the flush at exit
        # cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: stdout was closed before the output was written", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
