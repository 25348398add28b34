"""Half grid diagrams, grid diagrams, and their link invariants."""

from .dyadic import (
    DEPTH_CAP,
    Dyadic,
    SdInterval,
    SdPartition,
    conjugate,
    midpoint,
    midpoint_inverse,
    parse_dyadic,
    parse_partition,
    sign,
    spanning_intervals,
)
from .errors import HalfGridError, Incompatible, ParseError, SizeMismatch
from .halfgrid import (
    GridDiagram,
    HalfGrid,
    Permutation,
    assemble,
    assemble_unoriented,
    half_grid_from_partition,
    half_grid_from_tree,
    is_compatible,
    parse_grid,
    parse_half_grid,
    parse_permutation,
    perm_decode,
    perm_encode,
    rotate90,
)
from .linkdiag import (
    LaurentPoly,
    components,
    crossings,
    front_stats,
    half_grid_crossings,
    kauffman_bracket,
    render_ascii,
    render_svg,
    seifert_stats,
    writhe,
)
from .linkgroup import (
    GroupPresentation,
    abelianization,
    grid_presentation,
    half_grid_presentation,
    smith_normal_form,
)
from .thompson import (
    Tree,
    TreePair,
    apply_map,
    enumerate_trees,
    inverse,
    is_oriented,
    multiply,
    parse_pair,
    parse_tree,
    partition_from_tree,
    reduce_pair,
    tree_from_partition,
)
from .verify import verify_suite

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
