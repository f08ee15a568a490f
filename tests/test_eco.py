import json
import os
import pickle
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permutomino import eco
from permutomino.census import census, count, production
from permutomino.eco import (
    OperationTag,
    child_label,
    children,
    expand,
    iter_permutominoes,
    iter_with_paths,
    parent,
    walk,
)
from permutomino.grid import UNIT, Permutomino, boundary_word, classify, corner_report, is_valid

L_SHAPE = Permutomino.from_columns([(1, 2), (1, 1)])


def test_expand_en_unit_cell():
    child = expand(UNIT, OperationTag("EN"))
    assert child.cols == ((1, 1), (1, 2))
    assert classify(child) == (2, "B")


def test_expand_nw_unit_cell():
    child = expand(UNIT, OperationTag("NW"))
    assert child.cols == ((2, 2), (1, 2))
    assert classify(child) == (2, "B")


def test_expand_se_unit_cell():
    child = expand(UNIT, OperationTag("SE", 1))
    assert child == L_SHAPE
    assert classify(child) == (1, "R")


def test_expand_ws_unit_cell():
    child = expand(UNIT, OperationTag("WS", 1))
    assert child.cols == ((1, 2), (2, 2))
    assert classify(child) == (1, "R")


def test_expand_preconditions():
    with pytest.raises(ValueError):
        expand(L_SHAPE, OperationTag("EN"))  # bottom-flush only
    with pytest.raises(ValueError):
        expand(Permutomino.from_columns([(1, 2), (2, 2)]), OperationTag("NW"))  # top-flush only
    with pytest.raises(ValueError):
        expand(UNIT, OperationTag("SE", 0))
    with pytest.raises(ValueError):
        expand(UNIT, OperationTag("WS", 2))
    # cells of the wrong type: True and 1.0 equal 1 and hash alike
    for tag in (OperationTag("SE", True), OperationTag("WS", 1.0), OperationTag("EN", 0)):
        with pytest.raises(ValueError):
            expand(UNIT, tag)


def test_expand_admits_exactly_the_tags_children_emits(levels):
    # every candidate tag on every shape up to size 6: expand builds exactly
    # children's child for an emitted tag and raises ValueError otherwise
    cases = 0
    for n in range(1, 7):
        for p in levels[n]:
            emitted = dict(children(p))
            k = p.degree
            candidates = [OperationTag("EN"), OperationTag("NW"), OperationTag("EN", 1), OperationTag("NW", 1)]
            candidates += [OperationTag("XY"), OperationTag("SE"), OperationTag("WS")]
            candidates += [OperationTag(kind, i) for kind in ("SE", "WS") for i in range(0, k + 2)]
            for tag in candidates:
                cases += 1
                if tag in emitted:
                    assert expand(p, tag) == emitted[tag], (p, tag)
                else:
                    with pytest.raises(ValueError):
                        expand(p, tag)
            assert set(emitted) <= set(candidates)
    assert cases == 35237


def test_children_are_the_expansions_in_emission_order(levels):
    # children() builds SE:i and WS:i on one shared prefix; the list must
    # still be expand() of each tag in the order EN, SE:1..k, WS:1..k, NW,
    # and parent() (which shares no column formula) must give each tag back
    shapes = [p for n in range(1, 7) for p in levels[n]]
    shapes += [child for p in levels[6] for _, child in children(p)]
    emitted = 0
    for p in shapes:
        cells = range(1, p.degree + 1)
        tags = [OperationTag("EN")] if p.touches_top() else []
        tags += [OperationTag("SE", i) for i in cells] + [OperationTag("WS", i) for i in cells]
        tags += [OperationTag("NW")] if p.touches_bottom() else []
        kids = children(p)
        assert kids == [(tag, expand(p, tag)) for tag in tags], p
        for tag, child in kids:
            assert parent(child) == (p, tag), (p, tag)
        emitted += len(kids)
    assert emitted == sum(count(n) for n in range(2, 9)) == 49436


def test_unit_cell_children_labels():
    labels = Counter(classify(c) for _, c in children(UNIT))
    assert labels == Counter({(1, "R"): 2, (2, "B"): 2})


def test_children_are_all_of_size_two():
    kids = [c for _, c in children(UNIT)]
    assert len(set(kids)) == 4 == count(2)


def test_child_order_is_fixed():
    tags = [str(tag) for tag, _ in children(UNIT)]
    assert tags == ["EN", "SE:1", "WS:1", "NW"]
    bottom_flush = Permutomino.from_columns([(1, 2), (1, 2), (1, 1)])
    assert [str(tag) for tag, _ in children(bottom_flush)] == ["SE:1", "WS:1", "NW"]


def test_child_count_law(levels):
    for n in range(1, 6):
        for p in levels[n]:
            k, group = classify(p)
            expected = {"B": 2 * k + 2, "R": 2 * k + 1, "G": 2 * k}[group]
            assert len(children(p)) == expected


def test_label_transitions_follow_production(levels):
    for n in range(1, 6):
        for p in levels[n]:
            got = sorted(classify(c) for _, c in children(p))
            assert got == sorted(production(*classify(p)))


def test_child_label_examples():
    assert child_label((1, "B"), OperationTag("EN"), True) == (2, "B")
    assert child_label((3, "B"), OperationTag("WS", 1), True) == (3, "R")
    assert child_label((3, "R"), OperationTag("SE", 2), True) == (2, "G")
    assert child_label((3, "R"), OperationTag("SE", 2), False) == (2, "R")
    assert child_label((3, "R"), OperationTag("WS", 3), False) == (1, "G")
    assert child_label((3, "R"), OperationTag("NW"), False) == (4, "R")
    assert child_label((2, "G"), OperationTag("WS", 2), False) == (1, "G")


def test_child_labels_over_the_admissible_tags_are_the_production():
    # (class, top) for every kind of parent; class R on both sides
    sides = [("B", True), ("R", True), ("R", False), ("G", False)]
    mismatches = 0
    for k in range(1, 31):
        for group, top in sides:
            bottom = group == "B" or group == "R" and not top
            tags = [OperationTag("EN")] if top else []
            tags += [OperationTag(kind, i) for kind in ("SE", "WS") for i in range(1, k + 1)]
            tags += [OperationTag("NW")] if bottom else []
            got = Counter(child_label((k, group), tag, top) for tag in tags)
            mismatches += got != Counter(production(k, group))
    assert mismatches == 0


def test_walker_carries_the_classified_key():
    shapes = 0
    for n in range(1, 9):
        for p, key, _ in iter_with_paths(n):
            assert key == classify(p), p
            shapes += 1
    assert shapes == sum(count(n) for n in range(1, 9)) == 49437


def test_children_are_valid_and_tagged_by_rightmost_corner(levels):
    for n in range(1, 6):
        for p in levels[n]:
            for tag, child in children(p):
                assert is_valid(child)
                report = corner_report(boundary_word(child))
                _, kind = max(report.reentrant, key=lambda item: item[0][0])
                assert kind == tag.kind


def test_parent_round_trip(levels):
    for n in range(1, 6):
        for p in levels[n]:
            for tag, child in children(p):
                assert parent(child) == (p, tag)
                assert expand(*parent(child)) == child


def test_parent_examples():
    assert parent(Permutomino.from_columns([(1, 1), (1, 2)])) == (UNIT, OperationTag("EN"))
    assert parent(L_SHAPE) == (UNIT, OperationTag("SE", 1))
    assert parent(Permutomino.from_columns([(2, 2), (1, 2)])) == (UNIT, OperationTag("NW"))


def test_parent_returns_the_tags_children_emit(levels):
    # the same tag objects, not equal copies
    for n in range(1, 6):
        for p in levels[n]:
            for tag, child in children(p):
                assert parent(child)[1] is tag


def test_parent_of_unit_cell_fails():
    with pytest.raises(ValueError):
        parent(UNIT)
    # no expansion ends in two equal columns or moves both ends at once
    for cols in ([(1, 2), (1, 2)], [(1, 2), (2, 3)]):
        with pytest.raises(ValueError):
            parent(Permutomino.from_columns(cols))


def test_walkers_reject_bad_size_at_call_time():
    with pytest.raises(ValueError):
        iter_permutominoes(0)
    with pytest.raises(ValueError):
        iter_with_paths(0)


def _recursive_walk(n):
    # one generator per level: the walker's reference order
    def walk(p, key, top, path):
        if p.n == n:
            yield p, key, path
            return
        for tag, child in children(p):
            child_top = tag.kind == "EN" or top and tag.kind != "SE"
            yield from walk(child, child_label(key, tag, top), child_top, path + (tag,))

    return walk(UNIT, (1, "B"), True, ())


def _recursive_tree_walk(max_n):
    # the whole tree up to max_n, each shape before its children: walk's reference
    def visit(p, key, top, path):
        kids = children(p)
        yield p, key, top, path, kids
        if p.n < max_n:
            for tag, child in kids:
                child_top = tag.kind == "EN" or top and tag.kind != "SE"
                yield from visit(child, child_label(key, tag, top), child_top, path + (tag,))

    return visit(UNIT, (1, "B"), True, ()) if max_n > 0 else iter(())


def test_walk_is_the_recursive_pre_order():
    for max_n in range(1, 7):
        assert list(walk(max_n)) == list(_recursive_tree_walk(max_n)), max_n
    assert len(list(walk(6))) == sum(count(n) for n in range(1, 7))


def test_walk_yields_each_shape_with_its_children_key_top_and_path():
    for p, key, top, path, kids in walk(6):
        assert kids == children(p), p
        assert key == classify(p), p
        assert top == p.touches_top(), p
        q = UNIT
        for tag in path:
            q = expand(q, tag)
        assert q == p


def test_walk_below_size_one_yields_nothing():
    assert list(walk(0)) == []
    assert list(walk(-1)) == []


def test_walk_expands_only_what_its_consumer_asks_for(monkeypatch):
    import permutomino.eco

    expanded = []
    real = permutomino.eco.children
    monkeypatch.setattr(permutomino.eco, "children", lambda p: expanded.append(p) or real(p))
    shapes = walk(5)
    assert next(shapes)[0] == UNIT
    assert expanded == [UNIT]
    first_child = next(shapes)[0]
    assert expanded == [UNIT, first_child] == [UNIT, real(UNIT)[0][1]]


def test_walker_streams_in_the_recursive_order():
    for n in range(1, 8):
        assert list(iter_with_paths(n)) == list(_recursive_walk(n)), n


def test_walker_depth_is_not_bounded_by_the_recursion_limit():
    script = (
        "import sys\n"
        "sys.setrecursionlimit(100)\n"
        "from permutomino.eco import iter_with_paths\n"
        "p, key, path = next(iter_with_paths(150))\n"
        "print(p.n, len(path))\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["150", "149"]


def test_generation_counts_match_census(levels):
    for n in range(1, 7):
        objs = list(iter_permutominoes(n))
        assert len(objs) == len(set(objs)) == count(n)
        assert set(objs) == set(levels[n])


def test_materialized_class_split_matches_census(levels):
    for n in range(1, 7):
        split = Counter(classify(p)[1] for p in levels[n])
        assert (split["B"], split["R"], split["G"]) == census(n).by_class()


def test_generation_is_deterministic():
    first = [p.cols for p in iter_permutominoes(4)]
    second = [p.cols for p in iter_permutominoes(4)]
    assert first == second


def test_paths_replay_to_the_same_object():
    for p, _, path in iter_with_paths(4):
        q = UNIT
        for tag in path:
            q = expand(q, tag)
        assert q == p


def test_eco_partition_fails_when_a_child_is_missing(monkeypatch):
    from permutomino import eco, verification

    real = eco.children
    monkeypatch.setattr(eco, "children", lambda p: real(p)[:-1])
    result = verification.check_eco_partition(3)
    assert not result.ok
    assert result.detail == "label (1, 'B') produced 3 children"
    assert json.loads(result.witness)["cols"] == [[1, 1]]


def test_eco_partition_fails_when_a_child_breaks_the_succession_rule(monkeypatch):
    from permutomino import eco, verification

    real = eco.children

    def swapped(p):
        # the EN child of the single cell has label (2, B); L_SHAPE has (1, R)
        kids = real(p)
        return [(kids[0][0], L_SHAPE)] + kids[1:] if p == UNIT else kids

    monkeypatch.setattr(eco, "children", swapped)
    result = verification.check_eco_partition(3)
    assert not result.ok
    assert result.detail == "children labels of (1, 'B') break the succession rule"
    assert json.loads(result.witness)["cols"] == [[1, 1]]


def test_eco_partition_fails_when_child_label_is_off_by_one(monkeypatch):
    from permutomino import eco, verification

    real = eco.child_label

    def off_by_one(key, tag, top):
        k, group = real(key, tag, top)
        return (k + 1, group)

    monkeypatch.setattr(eco, "child_label", off_by_one)
    result = verification.check_eco_partition(3)
    assert not result.ok
    assert result.detail == "EN child of (1, 'B') is (2, 'B'), child_label says (3, 'B')"
    assert json.loads(result.witness)["cols"] == [[1, 1], [1, 2]]


def test_eco_partition_fails_when_the_census_disagrees_with_a_level(monkeypatch):
    from permutomino import verification

    real = verification.count
    monkeypatch.setattr(verification, "count", lambda n: real(n) + (n == 3))
    result = verification.check_eco_partition(3)
    assert not result.ok
    assert result.detail == "level 3 has 18 shapes, census says 19"
    assert result.witness is None


@pytest.mark.parametrize("keep_tag", [True, False], ids=["sibling-tag", "own-tag"])
def test_eco_partition_fails_when_a_child_comes_twice(monkeypatch, keep_tag):
    from permutomino import eco, verification

    real = eco.children

    def doubled(p):
        # the single cell's WS:1 child is replaced by its SE:1 child, which
        # has the same label (1, R), either under the WS:1 tag or with its own
        kids = real(p)
        if p != UNIT:
            return kids
        se = kids[1]
        return kids[:2] + [(kids[2][0], se[1]) if keep_tag else se] + kids[3:]

    monkeypatch.setattr(eco, "children", doubled)
    result = verification.check_eco_partition(3)
    assert not result.ok
    if keep_tag:
        assert result.detail == "parent round-trip broke for tag WS:1"
        assert json.loads(result.witness)["cols"] == [[1, 2], [1, 1]]
    else:
        assert result.detail == "children of (1, 'B') repeat a tag"
        assert json.loads(result.witness)["cols"] == [[1, 1]]


def test_eco_partition_below_level_one_has_nothing_to_check():
    from permutomino import verification

    assert verification.check_eco_partition(0).ok
    assert verification.check_eco_partition(-1).ok


def test_levels_in_walk_order_are_the_levels_built_level_by_level(levels):
    for n in range(1, 6):
        assert levels[n + 1] == [child for p in levels[n] for _, child in children(p)]


def test_corner_identities_expand_each_shape_below_max_n_once(monkeypatch):
    from permutomino import eco, verification

    expanded = []
    real = eco.children
    monkeypatch.setattr(eco, "children", lambda p: expanded.append(p) or real(p))
    assert verification.check_corner_identities(5).ok
    # one pre-order walk: each shape of sizes 1..4 once, first child first
    assert len(expanded) == len(set(expanded)) == sum(count(n) for n in range(1, 5))
    assert expanded[:3] == [UNIT, children(UNIT)[0][1], children(children(UNIT)[0][1])[0][1]]


def test_corner_identities_check_each_shape_up_to_max_n_once(monkeypatch, levels):
    from permutomino import verification

    seen = []
    real = verification.boundary_word
    monkeypatch.setattr(verification, "boundary_word", lambda p: seen.append(p) or real(p))
    assert verification.check_corner_identities(5).ok
    assert seen[0] == UNIT
    assert Counter(seen) == Counter(p for n in range(1, 6) for p in levels[n])
    assert len(seen) == sum(count(n) for n in range(1, 6))


def test_walker_memory_to_the_first_deep_shape():
    import tracemalloc

    tracemalloc.start()
    try:
        p, _, _ = next(iter_with_paths(100))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert p.n == 100
    # 26.2 MiB with one child iterator per level; a walker that pushes every
    # pending sibling with its own key, top and path peaks at about 32 MiB
    assert peak < 28 * 2**20


def test_verify_keeps_no_level_in_memory():
    import tracemalloc

    from permutomino import verification

    tracemalloc.start()
    try:
        results = list(verification.run_checks(max_n=6, oracle_n=1, order=1, pair_n=1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(result.ok for result in results)
    # levels 1..6 held whole plus a set of level 7 peak at about 4.7 MiB
    assert peak < 2**20


@pytest.mark.parametrize("check, bound", [("check_corner_identities", 6), ("check_pair_oracle", 4)])
def test_a_worker_side_check_keeps_no_level_in_memory(check, bound):
    # run_checks runs these two in a forked worker, which the test above
    # does not trace, so each is traced here in this process
    import tracemalloc

    from permutomino import census, verification

    census.count(bound)
    tracemalloc.start()
    try:
        result = getattr(verification, check)(bound)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.ok, result
    assert peak < 2**20


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=10**6), min_size=0, max_size=6))
def test_random_descent_reverses_by_parent(choices):
    path = []
    p = UNIT
    for pick in choices:
        kids = children(p)
        tag, p = kids[pick % len(kids)]
        path.append(tag)
    for tag in reversed(path):
        p, back_tag = parent(p)
        assert back_tag == tag
    assert p == UNIT


def test_children_pass_the_constructor_checks_they_skip():
    # every child of every shape up to size 7 is the shape the validating
    # constructor builds from its columns, hash included
    kids = 0
    for *_, family in walk(7):
        for _, child in family:
            checked = Permutomino(child.cols)
            assert child == checked and hash(child) == hash(checked), child
            kids += 1
    assert kids == sum(count(n) for n in range(2, 9))


@st.composite
def _constructor_valid_shapes(draw):
    # any shape the constructor accepts: overlapping column intervals with
    # bottom row 1, convex or not, permutomino or not
    lo = draw(st.integers(min_value=1, max_value=4))
    cols = [(lo, draw(st.integers(min_value=lo, max_value=6)))]
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        lo_a, hi_a = cols[-1]
        lo = draw(st.integers(min_value=1, max_value=hi_a))
        cols.append((lo, draw(st.integers(min_value=max(lo, lo_a), max_value=hi_a + 3))))
    shift = min(lo for lo, _ in cols) - 1
    return Permutomino(tuple((lo - shift, hi - shift) for lo, hi in cols))


@settings(max_examples=200, deadline=None)
@given(_constructor_valid_shapes())
def test_children_of_any_constructor_valid_shape_pass_its_checks(p):
    for _, child in children(p):
        checked = Permutomino(child.cols)
        assert child == checked and hash(child) == hash(checked), child


def test_a_child_survives_a_pickle_round_trip(levels):
    for p in levels[4]:
        for _, child in children(p):
            back = pickle.loads(pickle.dumps(child))
            assert type(back) is Permutomino
            assert back == child and hash(back) == hash(child)


def test_the_walk_runs_no_constructor_check_and_parent_and_from_record_one_each(monkeypatch):
    # counted the way the traced benchmark wraps the constructor's checks
    calls = []
    checks = Permutomino.__post_init__

    def counted(self):
        calls.append(self.cols)
        checks(self)

    monkeypatch.setattr(Permutomino, "__post_init__", counted)
    shapes = list(eco.walk(6))
    assert calls == []
    kids = [child for *_, family in shapes for _, child in family]
    assert len(kids) == sum(count(n) for n in range(2, 8))
    for child in kids:
        parent(child)
    assert len(calls) == len(kids)
    calls.clear()
    for child in kids:
        Permutomino.from_record(child.to_record())
    assert calls == [child.cols for child in kids]
