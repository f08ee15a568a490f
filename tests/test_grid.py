import json
import re
import xml.etree.ElementTree as ET
from itertools import product

import pytest

from permutomino.eco import _child, children, iter_permutominoes
from permutomino.grid import (
    REENTRANT_KINDS,
    SALIENT_KINDS,
    UNIT,
    BoundaryError,
    DisconnectedPair,
    NotColumnConvex,
    PermPair,
    Permutomino,
    SelfIntersectingPair,
    boundary_word,
    classify,
    corner_report,
    from_permutations,
    is_convex,
    is_permutomino,
    is_valid,
    reentrant_matrix,
    render,
    vertex_permutations,
)
from permutomino.oracle import iter_convex

L_SHAPE = Permutomino.from_columns([(1, 2), (1, 1)])


def test_permutomino_construction_rejects_garbage():
    cases = [
        ([], "a polyomino needs at least one column"),
        ([(2, 1)], "bad column interval (2, 1)"),
        ([(0, 1)], "bad column interval (0, 1)"),
        ([(1, 1), (2, 2)], "consecutive columns do not overlap"),
        ([(2, 3), (2, 2)], "shape is not normalized to bottom row 1"),
        # a bad column after a gap is reported, not the gap before it
        ([(1, 1), (3, 3), (2, 1)], "bad column interval (2, 1)"),
    ]
    for cols, message in cases:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Permutomino.from_columns(cols)
    # the constructor is the one home of the integer rule, so a bad bound
    # anywhere outranks an earlier gap, through either entry point
    for cols in (((1, 1), (3, 3), (1.5, 2)), ((True, True),), ((1, 1), (1, False))):
        for build in (Permutomino, Permutomino.from_columns):
            with pytest.raises(ValueError, match="^column bounds must be integers$"):
                build(cols)


def test_boundary_word_unit_cell():
    bw = boundary_word(UNIT)
    assert bw.word == "NESW"
    assert bw.start == (1, 1)


def test_boundary_word_l_shape():
    assert boundary_word(L_SHAPE).word == "NNESESWW"


def test_boundary_word_closure_and_simplicity(levels):
    for n in (3, 5):
        for p in levels[n]:
            bw = boundary_word(p)
            assert len(bw.word) == 4 * n
            vertices = list(bw.vertices())
            assert len(set(vertices)) == len(vertices)  # simple walk
            x, y = bw.start
            for letter in bw.word:
                dx, dy = {"N": (0, 1), "E": (1, 0), "S": (0, -1), "W": (-1, 0)}[letter]
                x, y = x + dx, y + dy
            assert (x, y) == bw.start  # closed


def test_corner_report_unit_square():
    report = corner_report("NESW")
    assert len(report.salient) == 4
    assert report.reentrant == ()
    assert [kind for _, kind in report.salient] == ["WN", "NE", "ES", "SW"]


def test_corner_report_l_shape():
    report = corner_report(boundary_word(L_SHAPE))
    assert len(report.salient) == 5
    assert report.reentrant == (((2, 2), "SE"),)


def test_corner_report_rejects_backtrack():
    with pytest.raises(BoundaryError):
        corner_report("NSEW")


def test_corner_report_rejects_open_word():
    with pytest.raises(BoundaryError):
        corner_report("NNE")


def test_salient_minus_reentrant_is_four_for_any_convex_polyomino():
    # not specific to permutominoes: every lattice boundary closes with
    # exactly four more convex than concave corners
    for rows, cols in [(1, 1), (2, 3), (3, 3), (4, 3), (4, 4)]:
        for shape in iter_convex(rows, cols):
            report = corner_report(boundary_word(shape))
            assert len(report.salient) - len(report.reentrant) == 4


def test_corner_counts_for_generated_permutominoes(levels):
    for n in range(1, 7):
        for p in levels[n]:
            report = corner_report(boundary_word(p))
            assert len(report.salient) == n + 3
            assert len(report.reentrant) == n - 1


def test_corner_counts_at_size_eight():
    from permutomino.eco import iter_permutominoes

    for p in iter_permutominoes(8):
        report = corner_report(boundary_word(p))
        assert len(report.salient) == 11
        assert len(report.reentrant) == 7


def test_is_convex():
    assert is_convex([(1, 1)])
    assert is_convex([(1, 2), (1, 1)])
    assert not is_convex([(1, 3), (1, 1), (1, 3)])


@pytest.mark.parametrize(
    "cols",
    [((1, 1), (2, 2)), ((1, 2), (3, 3)), ((2, 2), (1, 1)), ((1, 3), (1, 1), (3, 4)), ((1, 2), (2, 3), (5, 6))],
)
def test_is_convex_raises_on_columns_that_do_not_overlap(cols):
    # it reads reentrant_corners, which rejects them like the other profile readers
    with pytest.raises(BoundaryError, match="^consecutive columns do not overlap$"):
        is_convex(cols)


def test_is_permutomino():
    assert is_permutomino([(1, 1)])
    assert not is_permutomino([(1, 2), (1, 2)])  # 2x2 square
    assert is_permutomino(L_SHAPE)


def test_size_three_convex_shapes_passing_filter():
    survivors = [cols for cols in iter_convex(3, 3) if is_permutomino(cols)]
    assert len(survivors) == 18


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_permutomino_iff_vertex_sets_are_permutation_matrices(n):
    # the side-census predicate agrees with the boundary-vertex definition
    for cols in iter_convex(n, n):
        p = Permutomino(cols)
        try:
            pair = vertex_permutations(p)
            ok = all(a != b for a, b in zip(pair.pi1, pair.pi2))
        except ValueError:
            ok = False
        assert ok == is_permutomino(cols), cols


def test_vertex_permutations_unit_cell():
    pair = vertex_permutations(UNIT)
    assert pair.pi1 == (1, 2)
    assert pair.pi2 == (2, 1)


def test_vertex_permutations_pointwise_distinct(levels):
    for n in range(1, 6):
        for p in levels[n]:
            pair = vertex_permutations(p)
            assert all(a != b for a, b in zip(pair.pi1, pair.pi2))


def test_from_permutations_unit_cell():
    assert from_permutations(PermPair((1, 2), (2, 1))) == UNIT


def test_pair_round_trip(levels):
    for n in range(1, 7):
        for p in levels[n]:
            assert from_permutations(vertex_permutations(p)) == p


def test_perm_pair_validation():
    with pytest.raises(ValueError):
        PermPair((1, 2), (1, 2))  # not pointwise distinct
    with pytest.raises(ValueError):
        PermPair((1, 1), (2, 2))  # not permutations
    with pytest.raises(ValueError):
        PermPair((1, 2, 3), (2, 1))  # length mismatch


def test_from_permutations_self_intersecting():
    with pytest.raises(SelfIntersectingPair):
        from_permutations(PermPair((1, 3, 2), (2, 1, 3)))


def test_from_permutations_disconnected():
    # two unit loops stacked diagonally: two disconnected sets of cells
    with pytest.raises(DisconnectedPair):
        from_permutations(PermPair((1, 2, 3, 4), (2, 1, 4, 3)))


def test_from_permutations_valid_but_not_row_convex():
    shape = from_permutations(PermPair((1, 3, 2, 4), (3, 2, 4, 1)))
    assert shape.cols == ((1, 2), (1, 1), (1, 3))
    assert is_permutomino(shape)
    assert not is_convex(shape)


def test_from_permutations_not_column_convex():
    # transpose of the shape above: its columns split into two runs
    with pytest.raises(NotColumnConvex):
        from_permutations(PermPair((1, 3, 2, 4), (4, 2, 1, 3)))


def test_reentrant_matrix_l_shape():
    rp = reentrant_matrix(L_SHAPE)
    assert rp.sigma == (1,)
    assert rp.symbols == ("SE",)


def test_reentrant_matrix_unit_cell_empty():
    rp = reentrant_matrix(UNIT)
    assert rp.sigma == ()


def test_reentrant_matrix_is_permutation(levels):
    for n in range(2, 7):
        for p in levels[n]:
            rp = reentrant_matrix(p)
            assert sorted(rp.sigma) == list(range(1, n))


def test_reentrant_matrix_and_parent_do_not_walk_the_boundary(monkeypatch):
    # both read the corner kinds off the column profiles alone
    from permutomino import eco, grid

    def walked(*args):
        raise AssertionError("boundary walked")

    monkeypatch.setattr(grid, "boundary_word", walked)
    monkeypatch.setattr(grid, "corner_report", walked)
    assert reentrant_matrix(L_SHAPE).symbols == ("SE",)
    assert eco.parent(L_SHAPE) == (UNIT, eco.OperationTag("SE", 1))


def test_raw_columns_in_a_tuple_are_read_without_a_copy():
    # eco.parent hands reentrant_corners the tuple p.cols[-2:]; a list is read as given
    from permutomino import grid

    cols = ((1, 2), (1, 1))
    assert grid._cols_of(cols) is cols
    listed = [[1, 2], [1, 1]]
    for reader in (grid.boundary_word, grid.reentrant_corners, grid.is_convex, grid.is_permutomino):
        assert reader(listed) == reader(cols)


def test_corner_identities_fail_when_the_profiles_disagree_with_the_word(monkeypatch):
    from permutomino import verification

    monkeypatch.setattr(verification, "reentrant_corners", lambda p: ())
    result = verification.check_corner_identities(3)
    assert not result.ok
    assert "disagree on the reentrant corners" in result.detail
    assert json.loads(result.witness)["n"] == 2


def test_classify():
    assert classify(UNIT) == (1, "B")
    assert classify(L_SHAPE) == (1, "R")  # bottom-flush
    assert classify(Permutomino.from_columns([(1, 2), (2, 2)])) == (1, "R")  # top-flush
    assert classify(Permutomino.from_columns([(1, 3), (1, 2), (2, 2)])) == (1, "G")


def test_is_valid(levels):
    assert is_valid(UNIT)
    for p in levels[4]:
        assert is_valid(p)
    assert not is_valid(Permutomino.from_columns([(1, 2), (1, 2)]))   # square, no permutomino
    assert not is_valid(Permutomino.from_columns([(1, 2)]))           # box not square


def _column_shapes(max_cols: int, max_rows: int):
    # every connected column-interval shape with bottom row 1, convex or not
    intervals = [(lo, hi) for lo in range(1, max_rows + 1) for hi in range(lo, max_rows + 1)]
    shapes = [(col,) for col in intervals]
    for cols in shapes:
        if len(cols) < max_cols:
            lo_a, hi_a = cols[-1]
            shapes += [cols + ((lo, hi),) for lo, hi in intervals if lo <= hi_a and hi >= lo_a]
    return [Permutomino(cols) for cols in shapes if min(lo for lo, _ in cols) == 1]


def test_vertex_permutations_round_trip_on_every_small_shape():
    # convex or not: the shape is a permutomino iff its vertex permutations
    # exist, and then they rebuild it
    round_trips = nonconvex = 0
    for p in _column_shapes(4, 4):
        if not is_permutomino(p):
            with pytest.raises(ValueError, match="^vertex set is not a permutation matrix$"):
                vertex_permutations(p)
            continue
        assert from_permutations(vertex_permutations(p)) == p, p
        round_trips += 1
        nonconvex += not is_convex(p)
    assert (round_trips, nonconvex) == (179, 72)


def _is_valid_reference(p):
    return p.height == p.n and is_convex(p) and is_permutomino(p)


def test_is_valid_is_square_convex_and_permutomino():
    # the one-scan is_valid against the three predicates it replaces: the
    # normalised convex shapes of every box up to 5 x 5, every column-convex
    # shape up to 4 x 4, and every ECO child up to level 7
    boxes = [Permutomino(cols) for rows, n in product(range(1, 6), repeat=2) for cols in iter_convex(rows, n)]
    kids = [child for n in range(1, 7) for p in iter_permutominoes(n) for _, child in children(p)]
    shapes = boxes + _column_shapes(4, 4) + [UNIT] + kids
    verdicts = [is_valid(p) for p in shapes]
    assert verdicts == [_is_valid_reference(p) for p in shapes]
    assert all(verdicts[-len(kids) :])
    assert 0 < sum(verdicts[: -len(kids)]) < len(shapes) - len(kids)


# the constructor's own garbage cases, then columns that reach below row 1
# or end below their start, and a shape with no column at row 1
UNCHECKED_GARBAGE = [
    (),
    ((2, 1),),
    ((0, 1),),
    ((1, 1), (2, 2)),
    ((2, 3), (2, 2)),
    ((1, 1), (3, 3), (2, 1)),
    ((1, 1), (3, 3), (1.5, 2)),
    ((True, True),),
    ((1, 1), (1, False)),
    ((1, 2), (0, 2)),
    ((-1, 1),),
    ((0, 2), (1, 1)),
    ((2, 2), (0, 2)),
    ((3, 3), (2, 3)),
    ((1, 2), (1, 1), (2, 1)),
]


@pytest.mark.parametrize("cols", UNCHECKED_GARBAGE, ids=repr)
def test_is_valid_refuses_what_the_constructor_refuses(cols):
    with pytest.raises(ValueError):
        Permutomino(cols)
    # built as eco.children builds its children, without the constructor's checks
    assert is_valid(_child(cols)) is False


def _corner_report_reference(word):
    # each cyclically adjacent pair classified directly, in walk order
    if not word:
        raise BoundaryError("empty boundary word")
    if set(word) - set("NESW"):
        raise BoundaryError("letters must be among N, E, S, W")
    if word.count("N") != word.count("S") or word.count("E") != word.count("W"):
        raise BoundaryError("word does not describe a closed path")
    steps = {"N": (0, 1), "E": (1, 0), "S": (0, -1), "W": (-1, 0)}
    salient, reentrant = [], []
    x, y = 1, 1
    for idx, letter in enumerate(word):
        pair = word[idx - 1] + letter
        if pair in ("NS", "SN", "EW", "WE"):
            raise BoundaryError(f"immediate back-track pair {pair}")
        if pair in SALIENT_KINDS:
            salient.append(((x, y), pair))
        elif pair in REENTRANT_KINDS:
            reentrant.append(((x, y), pair))
        x, y = x + steps[letter][0], y + steps[letter][1]
    return tuple(salient), tuple(reentrant)


def _outcome(report, word):
    try:
        return report(word)
    except BoundaryError as exc:
        return str(exc)


def test_corner_report_classifies_every_short_word_directly():
    closed = 0
    for length in range(0, 9):
        for letters in product("NESW", repeat=length):
            word = "".join(letters)
            want = _outcome(_corner_report_reference, word)
            got = _outcome(corner_report, word)
            if not isinstance(got, str):
                got = (got.salient, got.reentrant)
                closed += 1
            assert got == want, word
    assert closed > 100


def test_corner_report_raises_each_error_first_in_its_case():
    cases = [
        ("", "empty boundary word"),
        ("NSNX", "letters must be among N, E, S, W"),  # also open, also back-tracks
        ("NSN", "word does not describe a closed path"),  # also back-tracks
        ("ENSW", "immediate back-track pair WE"),  # the closing pair comes before NS
    ]
    for word, message in cases:
        with pytest.raises(BoundaryError, match=f"^{re.escape(message)}$"):
            corner_report(word)


def test_render_ascii():
    assert render(UNIT) == "#"
    assert render(L_SHAPE, "ascii") == "#\n##"


def test_render_svg_is_wellformed_xml(levels):
    for p in (UNIT, L_SHAPE, levels[4][0]):
        doc = render(p, "svg")
        root = ET.fromstring(doc)
        assert root.tag.endswith("svg")
    with pytest.raises(ValueError):
        render(UNIT, "png")


def test_render_svg_marks_corners():
    doc = render(L_SHAPE, "svg")
    # 5 filled salient markers, 1 white reentrant marker
    assert doc.count('fill="black"') == 5
    assert doc.count('fill="white" stroke="black"') == 1


def test_json_record_round_trip(levels):
    for p in levels[5][:50]:
        record = json.loads(json.dumps(p.to_record()))
        assert Permutomino.from_record(record) == p
        assert record["label"]["class"] in ("B", "R", "G")
    with pytest.raises(ValueError):
        Permutomino.from_record({"n": 3, "cols": [[1, 1]]})
