import contextlib
import io
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from halfgrids import cli
from halfgrids.cli import COMMANDS, build_parser, main, parse_argv
from halfgrids.dyadic import DEPTH_CAP, Dyadic, SdInterval, parse_partition
from halfgrids.errors import ParseError, TooManyCrossings
from halfgrids.thompson import Tree, format_tree, partition_from_tree

from _trees import random_tree


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBuild:
    def test_tree_pair(self, capsys):
        code, out, _ = run(capsys, "build", "--trees", "(..)|(..)")
        assert code == 0
        assert out == (
            "plus:  n=2; X=2,3; O=4,1\n"
            "minus: n=2; X=2,3; O=4,1\n"
            "grid:  n=4; X=1,4,2,3; O=3,2,4,1; oriented=true\n"
        )

    def test_partitions(self, capsys):
        code, out, _ = run(capsys, "build", "--partitions", "0,1/2,1", "0,1/2,1")
        assert code == 0
        assert "grid:  n=4" in out

    def test_incompatible_is_domain_error(self, capsys):
        code, out, err = run(capsys, "build", "--perms", "4 2 5 3 1 6", "3 1 5 2 6 4")
        assert code == 1
        assert "not compatible" in err
        assert out == ""  # no half output before the error

    def test_incompatible_with_unoriented_flag(self, capsys):
        code, out, _ = run(
            capsys, "build", "--unoriented", "--perms", "4 2 5 3 1 6", "3 1 5 2 6 4"
        )
        assert code == 0
        assert "oriented=false" in out

    def test_parse_error(self, capsys):
        code, _, err = run(capsys, "build", "--trees", "(..")
        assert code == 2
        assert "error:" in err

    def test_bad_permutation_is_domain_error(self, capsys):
        code, _, _ = run(capsys, "build", "--perms", "1 1", "2 1")
        assert code == 1

    def test_requires_exactly_one_source(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["build"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit):
            main(["build", "--trees", "(..)|(..)", "--perms", "2 1", "2 1"])

    def test_grid_file(self, capsys, tmp_path):
        path = tmp_path / "grid.txt"
        path.write_text("n=2; X=1,2; O=2,1; oriented=true\n")
        code, out, _ = run(capsys, "build", "--grid", str(path))
        assert code == 0
        assert out == "n=2; X=1,2; O=2,1; oriented=true\n"

    def test_grid_file_with_a_repeated_field(self, capsys, tmp_path):
        path = tmp_path / "grid.txt"
        path.write_text("n=2; X=1,2; O=2,1; oriented=false; oriented=true\n")
        assert run(capsys, "build", "--grid", str(path)) == (
            2, "", "error: duplicate field 'oriented'\n")

    def test_grid_file_with_an_unknown_field(self, capsys, tmp_path):
        path = tmp_path / "grid.txt"
        path.write_text("n=2; X=1,2; O=2,1; oriented=true; orient=false\n")
        assert run(capsys, "build", "--grid", str(path)) == (
            2, "", "error: unknown field 'orient'\n")

    @pytest.mark.parametrize("command", [
        ("build",), ("invariants",), ("render", "--ascii-only"), ("export",),
    ])
    def test_unoriented_flag_reads_a_grid_file_unoriented(self, capsys, tmp_path, command):
        """`--unoriented` on an oriented grid file prints what the same
        marks give in a file marked `oriented=false`."""
        marks = "n=4; X=1,4,2,3; O=3,2,4,1"
        oriented, unoriented = tmp_path / "oriented.txt", tmp_path / "unoriented.txt"
        oriented.write_text(f"{marks}; oriented=true\n")
        unoriented.write_text(f"{marks}; oriented=false\n")
        got = run(capsys, *command, "--unoriented", "--grid", str(oriented))
        assert got == run(capsys, *command, "--grid", str(unoriented))
        assert got[0] == 0
        if command[0] in ("build", "export"):
            assert got[1] == f"{marks}; oriented=false\n"
        if command[0] == "invariants":
            assert "writhe=" not in got[1]
            assert "writhe=" in run(capsys, *command, "--grid", str(oriented))[1]

    def test_missing_grid_file(self, capsys):
        code, _, err = run(capsys, "build", "--grid", "/nonexistent/grid.txt")
        assert code == 2


class TestInvariants:
    def test_grid_file_not_utf8_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "grid.txt"
        path.write_bytes(b"\xffn=2; X=1,2; O=2,1; oriented=true\n")
        code, out, err = run(capsys, "invariants", "--grid", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read {path}: ") and err.count("\n") == 1

    def test_oriented(self, capsys):
        code, out, _ = run(capsys, "invariants", "--trees", "(..)|(..)")
        assert code == 0
        assert "components=2" in out
        assert "writhe=0" in out
        assert "tb=-2" in out
        assert "rot=0" in out
        assert "seifert_euler=0" in out

    def test_unoriented_subset(self, capsys):
        code, out, _ = run(
            capsys, "invariants", "--unoriented", "--perms", "4 2 5 3 1 6", "3 1 5 2 6 4"
        )
        assert code == 0
        assert "components=1" in out
        assert "writhe" not in out
        assert "bracket=1*A^(-7) + -1*A^(-3) + -1*A^5" in out

    def test_a_late_error_leaves_stdout_empty(self, capsys, monkeypatch):
        from halfgrids import linkdiag

        def refuse(g):
            raise TooManyCrossings("refused")

        monkeypatch.setattr(linkdiag, "kauffman_bracket", refuse)
        code, out, err = run(capsys, "invariants", "--trees", "(..)|(..)")
        assert (code, out, err) == (1, "", "error: refused\n")


class TestGroup:
    def test_trefoil(self, capsys):
        code, out, _ = run(capsys, "group", "--perms", "4 2 5 3 1 6", "3 1 5 2 6 4")
        assert code == 0
        assert out == (
            "gens=6\n"
            "rel: x1 x2 x3 x4 x5 x6\n"
            "rel: x1 x3 x5 x6\n"
            "rel: x1 x6\n"
            "rel: x2 x4 x5 x6\n"
            "rel: x4 x6\n"
            "abelianization: free rank 1, torsion none\n"
        )

    def test_gap_form(self, capsys):
        code, out, _ = run(
            capsys, "group", "--gap", "--perms", "4 2 5 3 1 6", "3 1 5 2 6 4"
        )
        assert code == 0
        assert out.startswith("F := FreeGroup(6);;\n")

    def test_from_grid_file(self, capsys, tmp_path):
        path = tmp_path / "grid.txt"
        path.write_text("n=2; X=1,2; O=2,1; oriented=true\n")
        code, out, _ = run(capsys, "group", "--grid", str(path))
        assert code == 0
        assert "gens=2" in out and "rel: x1 x2" in out

    def test_block_diagonal_grid_has_an_empty_relator(self, capsys, tmp_path):
        path = tmp_path / "grid.txt"
        path.write_text("n=4; X=1,2,3,4; O=2,1,4,3; oriented=true\n")
        code, out, _ = run(capsys, "group", "--grid", str(path))
        assert (code, out) == (0, (
            "gens=4\nrel: x1 x2\nrel: \nrel: x3 x4\nabelianization: free rank 2, torsion none\n"
        ))
        code, out, _ = run(capsys, "group", "--gap", "--grid", str(path))
        assert (code, out) == (0, "F := FreeGroup(4);;\nG := F / [ F.1*F.2, One(F), F.3*F.4 ];\n")


class TestEncode:
    def test_roundtrip_display(self, capsys):
        code, out, _ = run(capsys, "encode", "--trees", "(..)|(..)")
        assert code == 0
        assert out == "sigma_plus:  2 4 3 1\nsigma_minus: 2 4 3 1\n"

    @pytest.mark.parametrize("command,lists_grid", [("encode", False), ("build", True)])
    def test_help_lists_grid_only_where_accepted(self, capsys, command, lists_grid):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        out = capsys.readouterr().out
        assert exc.value.code == 0 and "--perms" in out
        assert ("--grid" in out) == lists_grid


@pytest.mark.parametrize("source", [["--perms", "1 2", "1 2 3 4"],
                                    ["--partitions", "0,1", "0,1/2,1"]])
@pytest.mark.parametrize("command", ["encode", "build", "group"])
def test_half_grids_of_different_sizes_are_refused(capsys, command, source):
    """Every command that reads two half grids refuses them, with one
    message, before it writes a line, whatever the source."""
    assert run(capsys, command, *source) == (1, "", "error: half grid sizes differ: 1 vs 2\n")


class TestRender:
    def test_ascii(self, capsys):
        code, out, _ = run(capsys, "render", "--trees", "(..)|(..)")
        assert code == 0
        assert out == "O─X \n│X─O\n│O─X\nX─O \n"

    def test_ascii_only(self, capsys):
        code, out, _ = run(capsys, "render", "--ascii-only", "--trees", "(..)|(..)")
        assert code == 0
        assert all(ord(ch) < 128 for ch in out)

    def test_svg_out(self, capsys, tmp_path):
        path = tmp_path / "diagram.svg"
        code, out, _ = run(capsys, "render", "--trees", "(..)|(..)", "--out", str(path))
        assert code == 0
        text = path.read_text()
        assert text.startswith("<svg ")
        assert text.rstrip().endswith("</svg>")

    def test_deterministic(self, capsys):
        _, one, _ = run(capsys, "render", "--trees", "(..)|(..)")
        _, two, _ = run(capsys, "render", "--trees", "(..)|(..)")
        assert one == two

    def test_unwritable_out_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x.svg"
        code, out, err = run(capsys, "render", "--trees", "(..)|(..)", "--out", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1


class TestExport:
    def test_plain(self, capsys):
        code, out, _ = run(capsys, "export", "--trees", "(..)|(..)")
        assert code == 0
        assert out == "n=4; X=1,4,2,3; O=3,2,4,1; oriented=true\n"

    def test_rotate90(self, capsys):
        code, out, _ = run(capsys, "export", "--rotate90", "--trees", "(..)|(..)")
        assert code == 0
        assert out != "n=4; X=1,4,2,3; O=3,2,4,1; oriented=true\n"
        assert out.startswith("n=4;")


class TestVerifyCommand:
    def test_success(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-leaves", "3")
        assert code == 0
        assert "all checks passed" in out

    def test_failure_exit_code(self, capsys, monkeypatch):
        from halfgrids import linkdiag

        signs = linkdiag.PlanarDiagram.signs.func  # flip every crossing sign
        monkeypatch.setattr(linkdiag.PlanarDiagram, "signs",
                            property(lambda d: tuple(-s for s in signs(d))))
        code, out, _ = run(capsys, "verify", "--max-leaves", "3")
        assert code == 3
        assert "FAIL" in out
        assert "counterexample" in out

    def test_bad_bound_is_domain_error(self, capsys):
        code, _, err = run(capsys, "verify", "--max-leaves", "12")
        assert code == 1


class TestDeepTrees:
    def test_deep_comb_is_domain_error(self, capsys):
        comb = "(." * 1200 + "." + ")" * 1200
        code, out, err = run(capsys, "group", "--trees", f"{comb}|{comb}")
        assert code == 1
        assert out == ""
        assert err == "error: tree too deep for dyadic breakpoints\n"

    @staticmethod
    def left_comb_sources(depth):
        """A left comb whose deepest leaves sit at depth, as --trees and as
        the same partition, 0, 1/2^depth, 1/2^(depth-1), ..., 1/2, 1."""
        tree = format_tree(Tree((depth,) + tuple(range(depth, 0, -1))))
        points = ",".join(["0"] + [f"1/{1 << d}" for d in range(depth, 0, -1)] + ["1"])
        return [["--trees", f"{tree}|{tree}"], ["--partitions", points, points]]

    @pytest.mark.parametrize("command", ["encode", "build", "group"])
    def test_depth_cap_is_accepted(self, capsys, command):
        for source in self.left_comb_sources(DEPTH_CAP):
            code, out, err = run(capsys, command, *source)
            assert (code, err) == (0, "")
            assert out

    @pytest.mark.parametrize("command", ["encode", "build", "group"])
    def test_past_depth_cap_is_domain_error(self, capsys, command):
        for source in self.left_comb_sources(DEPTH_CAP + 1):
            code, out, err = run(capsys, command, *source)
            assert (code, out) == (1, "")
            assert err.startswith("error: ") and err.count("\n") == 1


class TestHalfGridRoute:
    def test_no_dyadic_objects_beyond_parsing(self, capsys, monkeypatch):
        """Neither --trees nor --partitions makes a Dyadic or an SdInterval
        on valid input; unnormalised and deep breakpoints included."""
        made = Counter()
        for cls in (Dyadic, SdInterval):
            def counted(self, *args, init=cls.__init__, name=cls.__name__):
                made[name] += 1
                init(self, *args)
            monkeypatch.setattr(cls, "__init__", counted)
        code, _, _ = run(capsys, "encode", "--trees", "((..)(.(..)))|(.((..)(..)))")
        assert code == 0 and not made
        # a left comb down to 1/2^DEPTH_CAP, written 2/2^(DEPTH_CAP+1)
        comb = ",".join(f"1/{1 << d}" for d in range(DEPTH_CAP - 1, 0, -1))
        deep = f"0/8,2/{1 << (DEPTH_CAP + 1)},{comb},5/8,3/4,7/8,2/2"
        points = ["0,1/4,2/4,5/8,3/4,1", deep]
        for text in points:  # two half grids of one size each time
            code, _, _ = run(capsys, "encode", "--partitions", text, text)
            assert code == 0 and not made
        parse_partition(points[0])  # the object route, kept as an oracle, is counted
        assert made


LONG = "1" * 5000  # more digits than int() reads from text by default

PARTITION_REFUSALS = [
    ("0,1/2,1,", 2, "malformed dyadic '' at position 3"),
    ("0,1/-2,1", 2, "denominator -2 is not a power of two at position 1"),
    ("0,1/1,1", 2, "breakpoints not increasing at position 2"),
    ("1/2,1", 2, "partition must run from 0 to 1"),
    ("0,3/4,1", 2, "[0, 3/4] is not a standard dyadic interval"),
    ("0,1/4,3/4,1", 2, "[1/4, 3/4] is not a standard dyadic interval"),
    ("0,1/9223372036854775808,1/2,1", 1, f"exponent 63 exceeds DEPTH_CAP={DEPTH_CAP}"),
    # token errors come before order errors, order errors before the 0-to-1 check
    ("0,1/2,1/4,x,1", 2, "malformed dyadic 'x' at position 3"),
    ("0,1/2,1/4,1/2", 2, "breakpoints not increasing at position 2"),
    # an integer is an optional "-" and ASCII digits; whitespace only around a token
    ("0,1_0/2,1", 2, "malformed dyadic '1_0/2' at position 1"),
    ("0,+1/2,1", 2, "malformed dyadic '+1/2' at position 1"),
    ("0,1/ 2,1", 2, "malformed dyadic '1/ 2' at position 1"),
    ("0,1 /2,1", 2, "malformed dyadic '1 /2' at position 1"),
    ("0,\u0661/2,1", 2, "malformed dyadic '\u0661/2' at position 1"),
    pytest.param(f"0,1/{LONG},1", 2, f"malformed dyadic '1/{LONG}' at position 1", id="long"),
]


class TestPartitionText:
    @pytest.mark.parametrize("text,code,message", PARTITION_REFUSALS)
    @pytest.mark.parametrize("side", [0, 1])
    def test_refusal_keeps_its_exit_code_and_error_line(self, capsys, text, code, message, side):
        pair = [text, "0,1/2,1"] if side == 0 else ["0,1/2,1", text]
        assert run(capsys, "encode", "--partitions", *pair) == (code, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "text,normal",
        [("0/8,1/2,1", "0,1/2,1"), ("0,2/4,1", "0,1/2,1"), ("0,1/2,2/2", "0,1/2,1"),
         ("0, 1/2 ,1", "0,1/2,1"), ("0/8,2/8,2/4,6/8,2/2", "0,1/4,1/2,3/4,1")],
    )
    def test_unnormalised_and_padded_breakpoints_are_accepted(self, capsys, text, normal):
        code, out, err = run(capsys, "encode", "--partitions", text, normal)
        assert (code, err) == (0, "")
        assert (code, out, err) == run(capsys, "encode", "--partitions", normal, normal)


TEN = "1 2 3 4 5 6 7 8 9 10"


class TestIntegerTokens:
    """Permutations and grid files take the integers that partitions take."""

    @pytest.mark.parametrize("text", ["1_0 2 3 4 5 6 7 8 9 10", "+1 2 3 4 5 6 7 8 9 10",
                                      "\u0661 2 3 4 5 6 7 8 9 10", "1 2 3 4 5 6 7 8 9 1-0",
                                      pytest.param(f"1 {LONG}", id="long")])
    @pytest.mark.parametrize("side", [0, 1])
    def test_permutation_refusal(self, capsys, text, side):
        pair = [text, TEN] if side == 0 else [TEN, text]
        assert run(capsys, "encode", "--perms", *pair) == (2, "", f"error: malformed permutation {text!r}\n")

    @pytest.mark.parametrize("cols", ["2,1_0", "+2,1", "\u0662,1", "2 ,,1", "2 1",
                                      pytest.param(f"2,{LONG}", id="long")])
    def test_grid_column_refusal(self, capsys, tmp_path, cols):
        path = tmp_path / "g.grid"
        path.write_text(f"n=2; X={cols}; O=1,2; oriented=true\n", encoding="utf-8")
        assert run(capsys, "build", "--grid", str(path)) == (
            2, "", f"error: malformed column list {cols!r}\n")

    @pytest.mark.parametrize("n", ["\u0664", "+4", "1_0", "x", "", pytest.param(LONG, id="long")])
    def test_grid_size_refusal(self, capsys, tmp_path, n):
        path = tmp_path / "g.grid"
        path.write_text(f"n={n}; X=1,4,2,3; O=3,2,4,1; oriented=true\n", encoding="utf-8")
        assert run(capsys, "build", "--grid", str(path)) == (
            2, "", f"error: malformed n field {n!r}\n")

    def test_whitespace_around_integers_is_accepted(self, capsys, tmp_path):
        assert run(capsys, "encode", "--perms", " 2\t1 ", "2 1 ") == run(
            capsys, "encode", "--perms", "2 1", "2 1")
        path = tmp_path / "g.grid"
        path.write_text("n=4; X= 1, 4 ,2,3 ; O=3,2,4,1; oriented=true\n", encoding="utf-8")
        code, out, err = run(capsys, "build", "--grid", str(path))
        assert (code, out, err) == (0, "n=4; X=1,4,2,3; O=3,2,4,1; oriented=true\n", "")


SOURCES = {
    ("trees", True): ["--trees", "(..)|(..)"],
    ("trees", False): ["--trees", "(..|(..)"],
    ("partitions", True): ["--partitions", "0,1/2,1", "0,1/2,1"],
    ("partitions", False): ["--partitions", "0,1/3,1", "0,1/2,1"],
    ("perms", True): ["--perms", "2 4 3 1", "2 4 3 1"],
    ("perms", False): ["--perms", "2 4 x 1", "2 4 3 1"],
    ("grid", True): "n=4; X=1,4,2,3; O=3,2,4,1; oriented=true\n",
    ("grid", False): "n=2; X=1,2; O=1,2; oriented=true\n",
    ("empty-perms", False): ["--perms", "", ""],  # degree 0: a half grid has at least one row
}


@pytest.mark.parametrize(
    "kind,valid", list(SOURCES), ids=[f"{k}-{'valid' if v else 'malformed'}" for k, v in SOURCES]
)
@pytest.mark.parametrize("command", ["build", "render", "invariants", "group", "encode", "export"])
def test_command_source_matrix(command, kind, valid, tmp_path):
    """Every command takes every source kind without a traceback: exit 0
    on valid input, an `error:` line and no output on every other exit."""
    source = SOURCES[kind, valid]
    if kind == "grid":
        path = tmp_path / "g.grid"
        path.write_text(source)
        source = ["--grid", str(path)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, *source])
    assert code in (0, 1, 2, 3)
    if code:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        assert out.getvalue() == ""
    if (command, kind) == ("encode", "grid"):  # a grid file holds no half grids
        assert (code, out.getvalue()) == (2, "")
        assert "--trees, --partitions or --perms" in err.getvalue()
    else:
        assert (code == 0) == valid


class TestParserReuse:
    def test_parser_built_once(self):
        assert build_parser() is build_parser()

    def test_second_call_sees_none_of_the_first_calls_options(self, capsys):
        trefoil = ("--perms", "4 2 5 3 1 6", "3 1 5 2 6 4")
        code, out, _ = run(capsys, "render", "--ascii-only", "--unoriented", *trefoil)
        assert code == 0 and all(ord(ch) < 128 for ch in out)
        # neither --unoriented nor --perms carries over
        code, _, err = run(capsys, "build", *trefoil)
        assert code == 1 and "not compatible" in err
        code, out, _ = run(capsys, "render", "--trees", "(..)|(..)")
        assert code == 0 and out == "O─X \n│X─O\n│O─X\nX─O \n"
        code, out, _ = run(capsys, "group", "--gap", *trefoil)
        assert code == 0 and out.startswith("F := FreeGroup(6);;")
        code, out, _ = run(capsys, "group", *trefoil)
        assert code == 0 and out.startswith("gens=6\n")


def _parsed(capsys, parse, argv):
    """What parsing argv gives: the command and its arguments, the exit
    code argparse stops with, or a refused input; then stdout and stderr."""
    try:
        result = parse(argv)
    except SystemExit as exc:
        result = ("exit", exc.code)
    except ParseError as exc:
        result = ("error", str(exc))
    out, err = capsys.readouterr()
    return result, out, err


def _by_own_parser(argv):
    name, args = parse_argv(argv)
    return name, vars(args)


def _by_full_parser(argv):
    args = build_parser().parse_args(argv)
    return args.command, vars(args)


# every option string and near misses of them; values well formed or not
_OPTIONS = [
    *cli.SOURCES, *dict.fromkeys(flag for *_, options in COMMANDS.values() for flag in options),
    "--tree", "--rot", "--trees=(..)|(..)", "-h", "--",
]
_VALUES = ["(..)|(..)", "1 2", "2 1", "-1", "", "x", "3", "0x3"]


@st.composite
def argvs(draw):
    """A command name, then either option-like tokens, each followed by up
    to two values, or some of the command's own options and its one input
    source, each followed by as many values as it reads, with perhaps one
    stray token put in."""
    command = draw(st.sampled_from(list(COMMANDS)))
    values = st.sampled_from(_VALUES)
    argv = [command]
    if draw(st.booleans()):
        for _ in range(draw(st.integers(0, 4))):
            argv += [draw(st.sampled_from(_OPTIONS)), *draw(st.lists(values, max_size=2))]
        return argv
    _, sources, _, options = COMMANDS[command]
    own = {flag: keywords for flag, keywords in options.items() if draw(st.booleans())}
    if sources:
        source = draw(st.sampled_from(list(cli.SOURCES)))
        own[source] = cli.SOURCES[source]
    for option in draw(st.permutations(list(own))):
        reads = 0 if own[option].get("action") else own[option].get("nargs", 1)
        argv += [option, *draw(st.lists(values, min_size=reads, max_size=reads))]
    if draw(st.integers(0, 3)) == 0:
        argv.insert(draw(st.integers(1, len(argv))), draw(st.sampled_from(_OPTIONS + _VALUES)))
    return argv


class TestParserParity:
    """`parse_argv` gives the namespace the full parser gives, and leaves
    every other outcome (help, usage errors, refused input) to it."""

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_help_is_the_full_parsers_subcommand_help(self, capsys, command):
        own = _parsed(capsys, main, [command, "--help"])
        assert own[0] == ("exit", 0) and own[1].startswith(f"usage: halfgrids {command} ")
        assert own == _parsed(capsys, _by_full_parser, [command, "--help"])

    @pytest.mark.parametrize("argv", [
        [],
        ["--help"],
        ["frobnicate"],
        ["build"],
        ["build", "--trees", "(..)|(..)", "--perms", "1 2", "2 1"],
        ["build", "--trees", "(..)|(..)", "--bogus"],
        ["render", "--trees", "(..)|(..)", "extra"],
        ["build", "--tree", "(..)|(..)"],
        ["verify", "--max-leaves", "x"],
        ["verify", "--max-leaves", "3"],
        ["verify"],
        ["encode", "--grid", "g.grid"],
        ["render", "--ascii-only", "--unoriented", "--partitions", "0,1/2,1", "0,1"],
        ["export", "--rot", "--grid", "g.grid"],
        ["-h", "build"],
        # each form the table reader declines and the full parser accepts
        ["build", "--trees=(..)|(..)"],
        ["build", "--unoriented", "--unoriented", "--trees", "(..)|(..)"],
        ["build", "--trees", "(..)|(.(..))", "--trees", "(..)|(..)"],
        ["encode", "--perms", "-1", "2 1"],
        ["encode", "--trees", ""],
        ["verify", "--max-leaves", "-1"],
        ["render", "--tree", "(..)|(..)", "--ascii"],
        ["export", "--rot", "--trees", "(..)|(..)"],
        # and some it declines that the full parser refuses
        ["verify", "--max-leaves", "0x3"],
        ["verify", "--max-leaves"],
        ["group", "--perms", "1 2"],
        ["group", "--trees", "(..)|(..)", "--", "x"],
        ["invariants", "--trees", "(..)|(..)", "-h"],
        # a value the reader takes and converts as argparse does
        ["verify", "--max-leaves", " 3"],
    ])
    def test_same_outcome_as_the_full_parser(self, capsys, argv):
        assert _parsed(capsys, _by_own_parser, argv) == _parsed(capsys, _by_full_parser, argv)

    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(argvs())
    def test_any_argv_has_the_full_parsers_outcome(self, capsys, argv):
        assert _parsed(capsys, _by_own_parser, argv) == _parsed(capsys, _by_full_parser, argv)


@st.composite
def tree_sources(draw):
    """--trees text: short random text, or a random well-formed pair."""
    if draw(st.booleans()):
        return ["--trees", draw(st.text(alphabet="().|x", max_size=16))]
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    return ["--trees", f"{random_tree(n, rng)}|{random_tree(m, rng)}"]


@st.composite
def partition_sources(draw):
    """--partitions text: short random text, or random well-formed lists."""
    if draw(st.booleans()):
        text = st.text(alphabet="0123456789/,", max_size=16)
        return ["--partitions", draw(text), draw(text)]
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    return ["--partitions", *(str(partition_from_tree(random_tree(k, rng))) for k in (n, m))]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["build", "encode", "group"]), st.one_of(tree_sources(), partition_sources()))
def test_fuzz_exit_codes(command, source):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, *source])
    assert code in (0, 1, 2)
    if code:
        assert err.getvalue().startswith("error: ")
    else:
        assert err.getvalue() == ""


SRC = Path(__file__).resolve().parents[1] / "src"


def _child(*argv):
    """This checkout's `python <argv>` with stdout and stderr piped."""
    paths = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    return subprocess.Popen(
        [sys.executable, *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
    )


def _random_pair(n, seed):
    rng = random.Random(seed)
    return f"{random_tree(n, rng)}|{random_tree(n, rng)}"


@pytest.mark.parametrize("command", [("group",), ("render", "--ascii-only", "--unoriented")])
def test_closed_stdout_exits_1_without_a_traceback(command):
    """Both outputs at n = 300 (about 870 KB and 360 KB) exceed a pipe's
    buffer, so the child is still writing when the reader closes the pipe."""
    child = _child("-m", "halfgrids.cli", *command, "--trees", _random_pair(300, 1))
    assert len(child.stdout.read(100)) == 100
    child.stdout.close()
    err = child.stderr.read().decode()
    child.stderr.close()
    assert child.wait(timeout=120) == 1
    assert err == "error: stdout was closed before the output was written\n"


# The child's own peak RSS in kilobytes, once main has returned.  Where
# /proc/self/status exists it is VmHWM, because on Linux ru_maxrss keeps the
# spawning process's peak across exec; RUSAGE_CHILDREN in the test process
# would report the largest of all its earlier children instead.
_PEAK_RSS_STUB = """\
import os, resource, sys
from halfgrids.cli import main
code = main(sys.argv[1:])
if os.path.exists("/proc/self/status"):
    with open("/proc/self/status") as fh:
        peak = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
else:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    peak //= 1024 if sys.platform == "darwin" else 1
print(peak, file=sys.stderr)
sys.exit(code)
"""


def test_group_writes_a_large_presentation_in_linear_memory():
    """group on an n = 4000 tree pair prints 2n + 1 lines, about 185 MB,
    one at a time: the child peaks far below the ~1 GB the relator tuples
    took when they were all built before printing."""
    pytest.importorskip("resource")
    n = 4000
    child = _child("-c", _PEAK_RSS_STUB, "group", "--trees", _random_pair(n, 4000))
    lines = 0
    while chunk := child.stdout.read(1 << 20):
        lines += chunk.count(b"\n")
    child.stdout.close()
    err = child.stderr.read().decode()
    child.stderr.close()
    assert child.wait(timeout=300) == 0, err
    assert int(err) < 64 * 1024  # kilobytes
    assert lines == 2 * n + 1
