"""Byte-for-byte CLI outputs on a fixed set of inputs.

The expected files in tests/fixtures/golden/ hold the stdout (and, for
`render --out`, the SVG file) of each command on each input of
`inputs.json`, and the reports of `verify --max-leaves 5`, 6, 7 and 8.
The tests here diff the first two: 6 leaves, about 1 s, is the first
bound where the bracket-mirror budget fills, so they check the order in
which the checks meet their instances.  The 7- and 8-leaf reports take
about 10 s and 100 s, so only CI diffs them.  The README's example is
checked against the fixture of the same permutations, each line of its
command-line block must exit 0, and its tree algebra session must print
the values written under each call.
Regenerate them only for an intended output change:

    PYTHONPATH=src python tests/test_golden_cli.py --write
"""

from __future__ import annotations

import contextlib
import doctest
import io
import json
import os
import re
import shlex
import sys
import tempfile
from pathlib import Path

import pytest

from halfgrids.cli import main

GOLDEN = Path(__file__).parent / "fixtures" / "golden"
README = Path(__file__).parent.parent / "README.md"
INPUTS = json.loads((GOLDEN / "inputs.json").read_text(encoding="utf-8"))
COMMANDS = {
    "invariants": ("invariants",),
    "invariants-unoriented": ("invariants", "--unoriented"),
    "render": ("render",),
    "render-ascii": ("render", "--ascii-only"),
    "render-unoriented-ascii": ("render", "--unoriented", "--ascii-only"),
    "render-svg": ("render", "--out", "x.svg"),
    "export": ("export",),
    "export-unoriented": ("export", "--unoriented"),
    "export-rotate90": ("export", "--rotate90"),
    "group-grid": ("group", "--grid", "g.grid"),
    "group": ("group",),
    "group-gap": ("group", "--gap"),
    "build": ("build",),
    "build-unoriented": ("build", "--unoriented"),
    "encode": ("encode",),
}
CASES = [(name, slug) for name in INPUTS for slug in COMMANDS]
VERIFY_LEAVES = (5, 6, 7, 8)  # pinned reports; the tests here diff the first two


def _source(name: str) -> list[str]:
    args = INPUTS[name]
    if args[0] == "--grid":
        return ["--grid", str(GOLDEN / args[1])]
    return list(args)


def _main(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def run_case(name: str, slug: str) -> tuple[int, str, str | None]:
    """(exit code, stdout, SVG text or None), run in the current directory."""
    if slug == "group-grid":
        # the grid file is the stack as exported, unoriented if it has to be
        code, text = _main(["export", *_source(name)])
        if code:
            code, text = _main(["export", "--unoriented", *_source(name)])
        Path("g.grid").write_text(text, encoding="utf-8")
        return (*_main(list(COMMANDS[slug])), None)
    svg = Path("x.svg")
    svg.unlink(missing_ok=True)
    code, out = _main([*COMMANDS[slug], *_source(name)])
    return code, out, svg.read_text(encoding="utf-8") if svg.exists() else None


def _expected(name: str, slug: str) -> tuple[int, str, str | None]:
    codes = json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))
    out = (GOLDEN / f"{name}.{slug}.out").read_text(encoding="utf-8")
    svg_path = GOLDEN / f"{name}.{slug}.svg"
    svg = svg_path.read_text(encoding="utf-8") if svg_path.exists() else None
    return codes[f"{name} {slug}"], out, svg


@pytest.mark.parametrize("name,slug", CASES, ids=[f"{n}-{s}" for n, s in CASES])
def test_cli_output_matches_golden(name, slug, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_case(name, slug) == _expected(name, slug)


def test_verify_report_matches_golden():
    for leaves in VERIFY_LEAVES[:2]:
        expected = (GOLDEN / f"verify-max-leaves-{leaves}.out").read_text(encoding="utf-8")
        assert _main(["verify", "--max-leaves", str(leaves)]) == (0, expected), leaves


def _readme_block(heading: str) -> list[str]:
    """The lines of the first fenced block under a README section heading."""
    text = README.read_text(encoding="utf-8")
    section = text.split(f"\n## {heading}\n", 1)[1]
    match = re.search(r"^```[^\n]*\n(.*?)^```$", section, re.M | re.S)
    return match.group(1).splitlines()


def test_readme_example_matches_golden():
    command, *output = _readme_block("Example")
    assert shlex.split(command) == ["$", "halfgrids", "group", *INPUTS["trefoil-perms"]]
    expected = (GOLDEN / "trefoil-perms.group.out").read_text(encoding="utf-8")
    assert output == expected.splitlines()


def test_readme_tree_algebra_example_prints_its_values():
    """The README's tree algebra session, run as a doctest: every call's
    printed value must match the text under it."""
    block = "\n".join(_readme_block("Tree algebra")) + "\n"
    for name in ("parse_pair", "multiply", "inverse", "reduce_pair", "is_oriented", "apply_map"):
        assert f"{name}(" in block, name
    example = doctest.DocTestParser().get_doctest(block, {}, "README tree algebra", str(README), 0)
    report = io.StringIO()
    result = doctest.DocTestRunner().run(example, out=report.write)
    assert result.attempted == len(example.examples) > 0
    assert result.failed == 0, report.getvalue()


def test_readme_command_lines_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    lines = [shlex.split(line, comments=True) for line in _readme_block("Command line")]
    assert lines and all(argv[0] == "halfgrids" for argv in lines)
    for argv in lines:
        assert _main(argv[1:])[0] == 0, argv


def write_golden() -> None:
    codes = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for name, slug in CASES:
                code, out, svg = run_case(name, slug)
                codes[f"{name} {slug}"] = code
                (GOLDEN / f"{name}.{slug}.out").write_text(out, encoding="utf-8")
                if svg is not None:
                    (GOLDEN / f"{name}.{slug}.svg").write_text(svg, encoding="utf-8")
        finally:
            os.chdir(cwd)
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=1) + "\n", encoding="utf-8")
    for leaves in VERIFY_LEAVES:
        code, out = _main(["verify", "--max-leaves", str(leaves)])
        assert code == 0, "verify failed; not writing its report"
        (GOLDEN / f"verify-max-leaves-{leaves}.out").write_text(out, encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: test_golden_cli.py --write")
    write_golden()
