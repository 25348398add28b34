"""Command-line interface.

Exit codes: 0 success, 1 domain error (incompatible pair, bad permutation,
..., or a stdout closed before the output was written), 2 malformed input,
3 verification failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import lru_cache

from .errors import HalfGridError, Incompatible, ParseError, SizeMismatch
from .halfgrid import (
    GridDiagram, HalfGrid, assemble, assemble_unoriented, format_grid, format_half_grid,
    half_grid_from_tree, is_compatible, parse_grid, parse_permutation, perm_decode, perm_encode,
    rotate90,
)
from .thompson import _trusted, parse_pair


class _NoGridFile(argparse.Action):
    """`--grid` given to a command that needs half grids: refused as
    malformed input (exit 2) while the arguments are parsed."""

    def __call__(self, parser, namespace, values, option_string=None):
        raise ParseError("a grid file holds no half grids; give --trees, --partitions or --perms")


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
    if is_compatible(plus, minus):
        g = assemble(plus, minus)
    elif args.unoriented:
        g = assemble_unoriented(plus, minus)
    else:
        raise Incompatible(
            "half grids are not compatible; pass --unoriented to stack anyway"
        )
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
    from . import linkdiag

    g = _grid(args)
    crossings = len(linkdiag.diagram(g).positions)  # builds the diagram the rest reads
    comps, cycles = linkdiag.components(g)
    print(f"size={g.size}")
    print(f"components={comps}")
    print("cycles=" + " ".join("(" + ",".join(map(str, c)) + ")" for c in cycles))
    print(f"crossings={crossings}")
    if g.oriented:
        stats = linkdiag.front_stats(g)
        circles, euler = linkdiag.seifert_stats(g)
        print(f"writhe={stats.writhe}")
        print(f"cusps={stats.cusps} (up={stats.up_cusps}, down={stats.down_cusps})")
        print(f"tb={stats.tb}")
        print(f"rot={stats.rot}")
        print(f"seifert_circles={circles}")
        print(f"seifert_euler={euler}")
    if crossings <= linkdiag.BRACKET_CAP:
        # the bracket reads any grid unoriented, so it shares the diagram of g
        print(f"bracket={linkdiag.kauffman_bracket(g)}")
    else:
        print(f"bracket=skipped ({crossings} crossings exceed cap {linkdiag.BRACKET_CAP})")
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


def _add_args(parser: argparse.ArgumentParser, name: str) -> None:
    """The arguments of command `name`, on its own parser or a subparser;
    where no grid file is read, `--grid` is left out of the help and refused."""
    _, sources, _, options = COMMANDS[name]
    if sources is not None:
        src = parser.add_argument_group("input source (exactly one)")
        src = src.add_mutually_exclusive_group(required=True)
        src.add_argument("--trees", metavar="TOP|BOTTOM", help="tree pair, e.g. '(..)|(..)'")
        src.add_argument("--partitions", nargs=2, metavar=("PLUS", "MINUS"),
                         help="two comma-separated dyadic breakpoint lists")
        src.add_argument("--perms", nargs=2, metavar=("SIGMA_PLUS", "SIGMA_MINUS"),
                         help="two one-line permutations of 1..2n")
        if sources == "grid":
            src.add_argument("--grid", metavar="FILE", help="file holding a grid diagram line")
        else:
            parser.add_argument("--grid", action=_NoGridFile, help=argparse.SUPPRESS)
    for flag, keywords in options.items():
        parser.add_argument(flag, **keywords)


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process; parse_args
    keeps no state in it."""
    parser = argparse.ArgumentParser(
        prog="halfgrids", description="half grid diagrams, grid diagrams and their link invariants")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, *_) in COMMANDS.items():
        _add_args(subs.add_parser(name, help=help_line), name)
    return parser


@lru_cache(maxsize=None)
def command_parser(name: str) -> argparse.ArgumentParser:
    """The subparser `build_parser` makes for `name`, built alone, once."""
    parser = argparse.ArgumentParser(prog=f"halfgrids {name}")
    _add_args(parser, name)
    return parser


def parse_argv(argv: list[str]) -> tuple[str, argparse.Namespace]:
    """The command argv names and its arguments, from that command's parser
    alone; any other argv, or arguments left over, go to the full parser,
    which prints the help or words the usage error."""
    if argv and argv[0] in COMMANDS:
        args, rest = command_parser(argv[0]).parse_known_args(argv[1:])
        if not rest:
            return argv[0], args
    args = build_parser().parse_args(argv)
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
