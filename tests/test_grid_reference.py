"""The profile-based boundary geometry of ``permutomino.grid`` against the
edge-walk, row-dict and side-census derivations kept in ``reference_grid``."""

import pytest

import reference_grid as ref
from permutomino.eco import iter_permutominoes, parent
from permutomino.grid import BoundaryError, boundary_word, corner_report, is_convex, is_permutomino, vertex_permutations
from permutomino.oracle import iter_convex

_INTERVALS = [(lo, hi) for lo in range(1, 5) for hi in range(lo, 5)]


def _connected_shapes_in_4x4():
    # every connected column-interval shape of at most 4 columns in rows
    # 1..4, normalized to bottom row 1; convex or not
    def extend(path):
        if path and min(lo for lo, _ in path) == 1:
            yield path
        if len(path) == 4:
            return
        for lo, hi in _INTERVALS:
            if not path or (lo <= path[-1][1] and hi >= path[-1][0]):
                yield from extend(path + ((lo, hi),))

    return extend(())


def _assert_same_geometry(shape):
    assert boundary_word(shape) == ref.boundary_word(shape), shape
    assert is_convex(shape) == ref.is_convex(shape), shape
    assert is_permutomino(shape) == ref.is_permutomino(shape), shape


@pytest.mark.parametrize("rows", range(1, 7))
def test_profile_geometry_matches_the_references_on_convex_shapes(rows):
    for cols in range(1, 7):
        for shape in iter_convex(rows, cols):
            _assert_same_geometry(shape)


def test_profile_geometry_matches_the_references_on_connected_shapes():
    shapes = list(_connected_shapes_in_4x4())
    assert len(shapes) == 3860
    assert sum(not ref.is_convex(s) for s in shapes) > 0
    for shape in shapes:
        _assert_same_geometry(shape)


def test_vertex_permutations_match_the_corner_walk():
    for n in range(1, 9):
        for p in iter_permutominoes(n):
            assert vertex_permutations(p) == ref.vertex_permutations(p), p


def test_parent_kind_is_the_rightmost_reentrant_corner():
    for n in range(2, 9):
        for p in iter_permutominoes(n):
            report = corner_report(boundary_word(p))
            _, kind = max(report.reentrant, key=lambda item: item[0][0])
            assert parent(p)[1].kind == kind, p


@pytest.mark.parametrize("cols", [((1, 1), (2, 2)), ((1, 2), (3, 3)), ((2, 2), (1, 1)), ((1, 3), (1, 1), (3, 4))])
def test_columns_that_do_not_overlap_raise_boundary_error(cols):
    # corner contact and gaps alike; the edge walk rejects them too
    with pytest.raises(BoundaryError):
        ref.boundary_word(cols)
    with pytest.raises(BoundaryError):
        boundary_word(cols)
    with pytest.raises(BoundaryError):
        is_permutomino(cols)
