import pytest

from permutomino.census import census, closed_convex_polyominoes, closed_stack, count
from permutomino.eco import iter_permutominoes
from permutomino.grid import classify, is_convex, is_permutomino
from permutomino.oracle import (
    classify_pairs,
    convex_totals_by_semiperimeter,
    count_pair_permutominoes,
    count_permutominoes,
    iter_convex,
    iter_permutomino_survivors,
)

# per-box convex-polyomino counts, pinned after the semi-perimeter totals
# below certified the enumerator against the closed form
PER_BOX = {
    (1, 1): 1,
    (2, 2): 5,
    (2, 3): 13,
    (3, 3): 68,
    (3, 4): 222,
    (4, 4): 1110,
}


def test_enumerate_convex_per_box_fixtures():
    for (rows, cols), expected in PER_BOX.items():
        assert sum(1 for _ in iter_convex(rows, cols)) == expected
        assert sum(1 for _ in iter_convex(cols, rows)) == expected  # transpose symmetry


def test_enumerate_convex_single_row():
    for cols in range(1, 6):
        assert list(iter_convex(1, cols)) == [((1, 1),) * cols]


def test_enumerate_convex_rejects_bad_box():
    with pytest.raises(ValueError):
        iter_convex(0, 3)


def _iter_convex_recursive(rows, cols, one_side=False):
    # the nested-generator DFS that iter_convex replaced, kept to pin its order
    def rec(path, used, top_falling, bot_rising, seen_bottom, seen_top):
        if len(path) == cols:
            if seen_bottom and seen_top:
                yield path
            return
        if (bot_rising and not seen_bottom) or (top_falling and not seen_top):
            return
        prev_lo, prev_hi = path[-1]
        lo_min = prev_lo if bot_rising else 1
        hi_max = prev_hi if top_falling else rows
        if one_side:
            steps = [(lo, prev_hi) for lo in range(lo_min, prev_hi + 1) if not used >> lo & 1]
            steps += [(prev_lo, hi) for hi in range(prev_lo, hi_max + 1) if not used >> (hi + 1) & 1]
        else:
            steps = [(lo, hi) for lo in range(lo_min, prev_hi + 1) for hi in range(max(lo, prev_lo), hi_max + 1)]
        for lo, hi in steps:
            yield from rec(
                path + ((lo, hi),),
                used | 1 << lo | 1 << (hi + 1),
                top_falling or hi < prev_hi,
                bot_rising or lo > prev_lo,
                seen_bottom or lo == 1,
                seen_top or hi == rows,
            )

    for lo in range(1, rows + 1):
        for hi in range(lo, rows + 1):
            yield from rec(((lo, hi),), 1 << lo | 1 << (hi + 1), False, False, lo == 1, hi == rows)


@pytest.mark.parametrize("one_side", [False, True], ids=["convex", "one-side"])
def test_enumerate_convex_keeps_the_recursive_order(one_side):
    for rows in range(1, 6):
        for cols in range(1, 6):
            want = list(_iter_convex_recursive(rows, cols, one_side))
            assert list(iter_convex(rows, cols, one_side)) == want, (rows, cols)


def test_survivors_reject_bad_size_at_call_time():
    with pytest.raises(ValueError):
        iter_permutomino_survivors(0)


def test_enumerated_shapes_are_convex_and_fill_the_box():
    shapes = list(iter_convex(3, 4))
    assert len(shapes) == len(set(shapes)) == PER_BOX[(3, 4)]
    for cols in shapes:
        assert is_convex(cols)
        assert min(lo for lo, _ in cols) == 1
        assert max(hi for _, hi in cols) == 3


def test_semiperimeter_totals_match_closed_form():
    # semi-perimeters 2..12 certify the enumerator (and its pruning)
    got = convex_totals_by_semiperimeter(10)
    assert got == [closed_convex_polyominoes(m) for m in range(11)]
    assert got[:8] == [1, 2, 7, 28, 120, 528, 2344, 10416]


def test_permutomino_counts_match_census():
    for n in range(1, 7):
        assert count_permutominoes(n) == count(n)


def test_one_side_pruning_matches_filtering_all_convex_shapes():
    for n in range(1, 7):
        unpruned = {cols for cols in iter_convex(n, n) if is_permutomino(cols)}
        assert {p.cols for p in iter_permutomino_survivors(n)} == unpruned


def test_every_one_side_candidate_is_a_permutomino(monkeypatch):
    # the step rule enforces both halves of the definition, so the final
    # filter sees exactly the survivors
    import permutomino.oracle

    calls = 0

    def counted(cols):
        nonlocal calls
        calls += 1
        return is_permutomino(cols)

    monkeypatch.setattr(permutomino.oracle, "is_permutomino", counted)
    for n in range(1, 9):
        calls = 0
        assert count_permutominoes(n) == calls == count(n), n


def test_survivors_match_generator_sets():
    for n in range(1, 8):
        brute = {p.cols for p in iter_permutomino_survivors(n)}
        generated = {p.cols for p in iter_permutominoes(n)}
        assert brute == generated


def test_survivor_class_split_at_three():
    split = {"B": 0, "R": 0, "G": 0}
    for p in iter_permutomino_survivors(3):
        split[classify(p)[1]] += 1
    assert (split["B"], split["R"], split["G"]) == (4, 12, 2) == census(3).by_class()


def test_stack_shaped_survivors():
    for n in range(1, 6):
        stacks = sum(1 for p in iter_permutomino_survivors(n) if classify(p)[1] == "B")
        assert stacks == closed_stack(n)


def test_pair_oracle_counts():
    assert count_pair_permutominoes(1) == 1
    assert count_pair_permutominoes(2) == 4
    assert count_pair_permutominoes(3) == 18
    assert count_pair_permutominoes(4) == 84


# outcome histograms over all pointwise-distinct ordered pairs, pinned from
# the exhaustive classification; every valid convex shape is hit by exactly
# two ordered pairs, so the valid-convex column is twice the count sequence
PAIR_FIXTURES = {
    # n: (total, valid_convex, valid_nonconvex, disconnected, self_intersecting)
    1: (2, 2, 0, 0, 0),
    2: (12, 8, 0, 0, 4),
    3: (216, 36, 16, 44, 120),
    4: (5280, 168, 312, 736, 4064),
}


@pytest.mark.parametrize("n", sorted(PAIR_FIXTURES))
def test_pair_classification_fixtures(n):
    c = classify_pairs(n)
    got = (
        c.total_pairs,
        c.valid_convex_pairs,
        c.valid_nonconvex_pairs,
        c.disconnected_pairs,
        c.self_intersecting_pairs,
    )
    assert got == PAIR_FIXTURES[n]
    assert c.valid_convex_pairs == 2 * c.distinct_convex
    assert c.distinct_convex == count(n)
    for cols in c.convex_forms:
        assert is_convex(cols) and is_permutomino(cols)
