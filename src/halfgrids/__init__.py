"""Half grid diagrams, grid diagrams, and their link invariants.

The package namespace is lazy (PEP 562): `import halfgrids` loads no
layer, and each public name imports its home module on first access and is
then bound here, so later lookups are plain attribute hits.  A command
that needs only the tree and grid layers never compiles the diagram, group
or verification code.
"""

import importlib

_HOMES = {
    "dyadic": (
        "DEPTH_CAP", "Dyadic", "SdInterval", "SdPartition", "conjugate", "midpoint",
        "midpoint_inverse", "parse_dyadic", "parse_partition", "sign", "spanning_intervals",
    ),
    "errors": ("HalfGridError", "Incompatible", "ParseError", "SizeMismatch"),
    "halfgrid": (
        "GridDiagram", "HalfGrid", "Permutation", "assemble", "assemble_unoriented",
        "half_grid_from_partition", "half_grid_from_tree", "is_compatible", "parse_grid",
        "parse_half_grid", "parse_permutation", "perm_decode", "perm_encode", "rotate90",
    ),
    "linkdiag": (
        "LaurentPoly", "components", "crossings", "front_stats", "half_grid_crossings",
        "kauffman_bracket", "render_ascii", "render_svg", "seifert_stats", "writhe",
    ),
    "linkgroup": (
        "GroupPresentation", "abelianization", "grid_presentation", "half_grid_presentation",
        "smith_normal_form",
    ),
    "thompson": (
        "Tree", "TreePair", "apply_map", "enumerate_trees", "inverse", "is_oriented",
        "multiply", "parse_pair", "parse_tree", "partition_from_tree", "reduce_pair",
        "tree_from_partition",
    ),
    "verify": ("verify_suite",),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted([*_HOMES, *_HOME])
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _HOMES:
        return importlib.import_module(f"{__name__}.{name}")  # binds itself here
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
