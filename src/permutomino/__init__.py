"""Exact construction, enumeration and cross-verification of convex
permutominoes: a recursive generator, a succession-rule census, truncated
generating-function expansions, closed-form counts and two independent
brute-force oracles, all agreeing on 1, 4, 18, 84, 394, 1836, 8468, ...

Submodules load on first use: ``import permutomino`` imports none of them,
and reading an exported name imports the module that defines it.
"""

import importlib

__version__ = "0.1.0"

# every exported name, listed once under the module that defines it
_EXPORTS = {
    "census": (
        "LabelCensus", "catalan", "closed_convex_polyominoes", "closed_count", "closed_directed",
        "closed_stack", "count",
    ),
    "eco": (
        "OperationTag", "child_label", "children", "expand", "iter_permutominoes", "iter_with_paths",
        "parent", "walk",
    ),
    "grid": (
        "UNIT", "BoundaryError", "BoundaryWord", "CornerReport", "DisconnectedPair", "NotColumnConvex",
        "PairError", "PermPair", "Permutomino", "ReentrantPermutation", "SelfIntersectingPair",
        "boundary_word", "classify", "corner_report", "from_permutations", "is_convex", "is_permutomino",
        "is_valid", "reentrant_corners", "reentrant_matrix", "render", "vertex_permutations",
    ),
    "oracle": (
        "PairClassification", "classify_pairs", "count_pair_permutominoes", "count_permutominoes",
        "iter_convex", "iter_permutomino_survivors",
    ),
    "series": ("TruncatedSeries",),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name: str) -> object:
    if name in _EXPORTS:
        # importing a submodule binds it here, so this runs once per name
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
