"""The profile-based boundary geometry of ``permutomino.grid`` against the
edge-walk, row-dict, side-census and word-walk derivations kept in
``reference_grid``."""

import pytest

import reference_grid as ref
from permutomino.eco import iter_permutominoes, parent
from permutomino.grid import (
    BoundaryError,
    Permutomino,
    boundary_word,
    corner_report,
    is_convex,
    is_permutomino,
    reentrant_corners,
    reentrant_matrix,
    vertex_permutations,
)
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


def _convex_shapes_in_5x5():
    return [shape for rows in range(1, 6) for cols in range(1, 6) for shape in iter_convex(rows, cols)]


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


def _assert_same_reentrant_corners(shape):
    corners = reentrant_corners(shape)
    abscissas = [x for (x, _), _ in corners]
    assert abscissas == sorted(abscissas), shape
    assert sorted(corners) == sorted(corner_report(ref.boundary_word(shape)).reentrant), shape


def test_reentrant_corners_match_the_word_walk_on_convex_shapes():
    shapes = _convex_shapes_in_5x5()
    assert len(shapes) == 29816
    for shape in shapes:
        _assert_same_reentrant_corners(shape)


def test_reentrant_corners_match_the_word_walk_on_connected_shapes():
    for shape in _connected_shapes_in_4x4():
        _assert_same_reentrant_corners(shape)


def _matrix_or_error(matrix, p):
    try:
        return matrix(p)
    except ValueError as exc:
        return str(exc)


def test_reentrant_matrix_matches_the_word_walk():
    # convex non-permutominoes must be rejected exactly where the word walk
    # rejects them, and permutominoes must give the same decorated matrix
    shapes = [Permutomino(s) for s in _convex_shapes_in_5x5()]
    shapes += [p for n in range(1, 9) for p in iter_permutominoes(n)]
    rejected = 0
    for p in shapes:
        got = _matrix_or_error(reentrant_matrix, p)
        assert got == _matrix_or_error(ref.reentrant_matrix, p), p
        rejected += isinstance(got, str)
    assert rejected > 0


def test_vertex_permutations_reject_what_the_corner_walk_rejects():
    # convex shapes of every box, permutominoes or not: the early exits of
    # the one-scan side reader must agree with the corner walk
    shapes = _convex_shapes_in_5x5()
    assert len(shapes) == 29816
    rejected = 0
    for p in map(Permutomino, shapes):
        got = _matrix_or_error(vertex_permutations, p)
        want = _matrix_or_error(ref.vertex_permutations, p)
        if isinstance(want, str):
            assert isinstance(got, str), p
            rejected += 1
        else:
            assert got == want, p
    assert 0 < rejected < len(shapes)


@pytest.mark.parametrize(
    "cols",
    [((1, 1), (2, 2)), ((1, 2), (3, 3)), ((2, 2), (1, 1)), ((1, 3), (1, 1), (3, 4)), ((1, 2), (2, 3), (5, 6))],
)
def test_columns_that_do_not_overlap_raise_boundary_error(cols):
    # corner contact and gaps alike; the edge walk rejects them too.  The
    # last shape has two sides at its first junction, where the one-scan
    # side reader stops deciding, and a gap at its second.
    with pytest.raises(BoundaryError):
        ref.boundary_word(cols)
    with pytest.raises(BoundaryError):
        boundary_word(cols)
    with pytest.raises(BoundaryError):
        is_permutomino(cols)
    with pytest.raises(BoundaryError):
        reentrant_corners(cols)
