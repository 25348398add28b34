"""Each command loads only the layers it runs and builds no parser for a
well-formed argv; the dyadic layer loads only where breakpoints are read.
`import halfgrids` loads no layer, and every public name imports its home
module on first access.  No command and no public name loads `dataclasses`
or `inspect`.  The checks run in fresh interpreters, since this one has
loaded every layer."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
TREES = "((..).)|(.(..))"  # an incompatible pair
UNKNOT = "(..)|(..)"
CLI_LAYERS = ["cli", "errors", "halfgrid", "thompson"]
# the public names of the package, by home module
API = {
    "dyadic": [
        "DEPTH_CAP", "Dyadic", "SdInterval", "SdPartition", "conjugate", "midpoint",
        "midpoint_inverse", "parse_dyadic", "parse_partition", "sign", "spanning_intervals",
    ],
    "errors": ["HalfGridError", "Incompatible", "ParseError", "SizeMismatch"],
    "halfgrid": [
        "GridDiagram", "HalfGrid", "Permutation", "assemble", "assemble_unoriented",
        "half_grid_from_partition", "half_grid_from_tree", "is_compatible", "parse_grid",
        "parse_half_grid", "parse_permutation", "perm_decode", "perm_encode", "rotate90",
    ],
    "linkdiag": [
        "LaurentPoly", "components", "crossings", "front_stats", "half_grid_crossings",
        "kauffman_bracket", "render_ascii", "render_svg", "seifert_stats", "writhe",
    ],
    "linkgroup": [
        "GroupPresentation", "abelianization", "grid_presentation", "half_grid_presentation",
        "smith_normal_form",
    ],
    "thompson": [
        "Tree", "TreePair", "apply_map", "enumerate_trees", "inverse", "is_oriented",
        "multiply", "parse_pair", "parse_tree", "partition_from_tree", "reduce_pair",
        "tree_from_partition",
    ],
    "verify": ["verify_suite"],
}

# Prints, as its last line, the halfgrids modules loaded so far and which of
# `dataclasses` and `inspect` are.
_LOADED = """
import json, sys
print(json.dumps([
    sorted(m.partition(".")[2] for m in sys.modules if m.startswith("halfgrids.")),
    [m for m in ("dataclasses", "inspect") if m in sys.modules],
]))
"""


def _fresh(code: str) -> str:
    """stdout of this checkout's `python -c code`, which must exit 0."""
    paths = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def _loaded_after(code: str) -> list[list[str]]:
    """The halfgrids modules, and those of `dataclasses` and `inspect`,
    loaded after code."""
    return json.loads(_fresh(code + _LOADED).splitlines()[-1])


def test_import_loads_no_layer():
    assert _loaded_after("import halfgrids") == [[], []]


def test_cli_import_loads_the_layers_every_command_needs():
    assert _loaded_after("import halfgrids.cli") == [CLI_LAYERS, []]


# a well-formed run of each command, with the layers it loads beyond CLI_LAYERS
RUNS = [
    (["build", "--unoriented", "--trees", TREES], []),
    (["encode", "--trees", TREES], []),
    (["export", "--trees", UNKNOT], []),
    (["group", "--trees", TREES], ["linkgroup"]),
    (["group", "--gap", "--trees", TREES], ["linkgroup"]),
    (["invariants", "--trees", UNKNOT], ["linkdiag"]),
    (["invariants", "--unoriented", "--trees", TREES], ["linkdiag"]),
    (["render", "--trees", UNKNOT], ["linkdiag"]),
    (["verify", "--max-leaves", "2"], ["dyadic", "linkdiag", "linkgroup", "verify"]),
]


@pytest.mark.parametrize("argv, extra", RUNS)
def test_each_command_loads_only_the_layers_it_runs(argv, extra):
    code = f"from halfgrids.cli import main\nassert main({argv!r}) == 0\n"
    assert _loaded_after(code) == [sorted(CLI_LAYERS + extra), []]


def test_well_formed_runs_build_no_parser():
    """Well-formed argv is read off the command table: no parser is built
    and neither `argparse` nor `gettext` loads.  Help and usage errors still
    go to the full parser."""
    code = f"""
import contextlib, io, json, sys
from halfgrids import cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv, _ in {RUNS!r}]
loaded = [m for m in ("argparse", "gettext") if m in sys.modules]
read = [cli.build_parser.cache_info().misses, loaded]
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for argv in (["encode", "--help"], ["build"]):
        try:
            cli.main(argv)
        except SystemExit as exc:
            codes.append(exc.code)
print(json.dumps([codes, read, cli.build_parser.cache_info().misses]))
"""
    codes, read, built = json.loads(_fresh(code).splitlines()[-1])
    assert codes == [0] * len(RUNS) + [0, 2]
    assert read == [0, []]
    assert built == 1


@pytest.mark.parametrize("source, extra", [
    (["--trees", TREES], []),
    (["--perms", "1 2 3 4", "2 1 4 3"], []),
    (["--grid", "GRID"], []),
    (["--partitions", "0,1/2,1", "0,1/2,1"], ["dyadic"]),
])
def test_only_breakpoint_input_loads_the_dyadic_layer(source, extra, tmp_path):
    grid = tmp_path / "unknot.grid"
    grid.write_text("n=4; X=1,4,2,3; O=3,2,4,1; oriented=true\n", encoding="utf-8")
    argv = ["export", "--unoriented", *(str(grid) if a == "GRID" else a for a in source)]
    code = f"from halfgrids.cli import main\nassert main({argv!r}) == 0\n"
    assert _loaded_after(code) == [sorted(CLI_LAYERS + extra), []]


def test_first_api_call_loads_only_its_home_module():
    code = f"import halfgrids\nhalfgrids.parse_pair({TREES!r})\n"
    assert _loaded_after(code) == [["errors", "thompson"], []]


def test_public_names_are_their_home_modules_objects():
    code = f"""
import importlib, json
import halfgrids
api = {API!r}
same = all(
    getattr(halfgrids, name) is getattr(importlib.import_module("halfgrids." + home), name)
    for home, names in api.items() for name in names
)
modules = all(
    getattr(halfgrids, home) is importlib.import_module("halfgrids." + home) for home in api
)
print(json.dumps([halfgrids.__all__, same, modules]))
"""
    *_, public, loaded = _fresh(code + _LOADED).splitlines()
    names, same, modules = json.loads(public)
    assert sorted(names) == sorted([*API, *(n for ns in API.values() for n in ns)])
    assert len(names) == 64
    assert same and modules
    assert json.loads(loaded) == [sorted(API), []]


def test_submodules_resolve_without_an_import():
    code = "import halfgrids\nprint(halfgrids.linkdiag.__name__, halfgrids.verify.__name__)\n"
    assert _fresh(code).split() == ["halfgrids.linkdiag", "halfgrids.verify"]


def test_star_import_binds_every_public_name():
    code = (
        "from halfgrids import *\nimport halfgrids\n"
        "print(all(globals()[n] is getattr(halfgrids, n) for n in halfgrids.__all__))\n"
    )
    assert _fresh(code).split() == ["True"]


def test_dir_lists_the_names_and_unknown_names_raise():
    code = """
import json
import halfgrids
listed = set(halfgrids.__all__) <= set(dir(halfgrids))
try:
    halfgrids.no_such_name
except AttributeError as exc:
    message = str(exc)
print(json.dumps([listed, message]))
"""
    listed, message = json.loads(_fresh(code).splitlines()[-1])
    assert listed
    assert message == "module 'halfgrids' has no attribute 'no_such_name'"
