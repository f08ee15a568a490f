"""Exact construction, enumeration and cross-verification of convex
permutominoes: a recursive generator, a succession-rule census, truncated
generating-function expansions, closed-form counts and two independent
brute-force oracles, all agreeing on 1, 4, 18, 84, 394, 1836, 8468, ...
"""

from .census import (
    LabelCensus,
    catalan,
    closed_convex_polyominoes,
    closed_count,
    closed_directed,
    closed_stack,
    count,
)
from .eco import (
    OperationTag,
    children,
    expand,
    iter_permutominoes,
    iter_with_paths,
    parent,
)
from .grid import (
    UNIT,
    BoundaryError,
    BoundaryWord,
    CornerReport,
    DisconnectedPair,
    NotColumnConvex,
    PairError,
    PermPair,
    Permutomino,
    ReentrantPermutation,
    SelfIntersectingPair,
    boundary_word,
    classify,
    corner_report,
    from_permutations,
    is_convex,
    is_permutomino,
    is_valid,
    reentrant_corners,
    reentrant_matrix,
    render,
    vertex_permutations,
)
from .oracle import (
    PairClassification,
    classify_pairs,
    count_pair_permutominoes,
    count_permutominoes,
    iter_convex,
    iter_permutomino_survivors,
)
from .series import TruncatedSeries

__version__ = "0.1.0"

__all__ = [
    "BoundaryError",
    "BoundaryWord",
    "CornerReport",
    "DisconnectedPair",
    "LabelCensus",
    "NotColumnConvex",
    "OperationTag",
    "PairClassification",
    "PairError",
    "PermPair",
    "Permutomino",
    "ReentrantPermutation",
    "SelfIntersectingPair",
    "TruncatedSeries",
    "UNIT",
    "boundary_word",
    "catalan",
    "children",
    "classify",
    "classify_pairs",
    "closed_convex_polyominoes",
    "closed_count",
    "closed_directed",
    "closed_stack",
    "corner_report",
    "count",
    "count_pair_permutominoes",
    "count_permutominoes",
    "expand",
    "from_permutations",
    "is_convex",
    "is_permutomino",
    "is_valid",
    "iter_convex",
    "iter_permutomino_survivors",
    "iter_permutominoes",
    "iter_with_paths",
    "parent",
    "reentrant_corners",
    "reentrant_matrix",
    "render",
    "vertex_permutations",
]
