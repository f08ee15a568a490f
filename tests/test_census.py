import random
import sys
import threading
import tracemalloc
from fractions import Fraction
from math import comb

import pytest

import permutomino.census as census_module
from permutomino.census import (
    LabelCensus,
    catalan,
    census,
    closed_convex_polyominoes,
    closed_count,
    closed_directed,
    closed_stack,
    count,
    production,
)

SEQUENCE = [1, 4, 18, 84, 394, 1836, 8468]
CONVEX = [1, 2, 7, 28, 120, 528, 2344, 10416]


def test_root_census():
    level1 = census(1)
    assert level1.counts == {(1, "B"): 1}
    assert level1.total() == 1


def test_single_step():
    level2 = census(1).step()
    assert level2.level == 2
    assert level2.counts == {(1, "R"): 2, (2, "B"): 2}


def test_counts_match_sequence():
    assert [count(n) for n in range(1, 8)] == SEQUENCE


def test_class_split():
    assert census(2).by_class() == (2, 2, 0)
    assert census(3).by_class() == (4, 12, 2)


def test_class_b_mass_lives_at_full_degree():
    for n in range(1, 15):
        b_keys = [k for (k, g) in census(n).counts if g == "B"]
        assert b_keys == [n]
        assert census(n).counts[(n, "B")] == 2 ** (n - 1)


def test_production_sizes():
    assert len(production(3, "B")) == 8
    assert len(production(3, "R")) == 7
    assert len(production(3, "G")) == 6
    with pytest.raises(ValueError):
        production(1, "X")


def test_closed_count_small_values():
    assert closed_count(1) == 1  # 2*4*(1/4) - (1/2)*2
    assert closed_count(2) == 4  # 10 - 6


def test_closed_count_matches_census_to_40():
    for n in range(1, 41):
        assert closed_count(n) == count(n)


def test_closed_count_matches_the_rational_formula():
    # the formula as printed, in exact rationals: 4^(n-2) is fractional at
    # n = 1 and n/2 at odd n, and closed_count must agree in integers
    for n in range(1, 301):
        value = 2 * (n + 3) * Fraction(4) ** (n - 2) - Fraction(n, 2) * comb(2 * n, n)
        assert closed_count(n) == value, n
        assert type(closed_count(n)) is int


def test_label_census_compares_and_prints_by_value():
    first = LabelCensus(2, {(1, "R"): 2, (2, "B"): 2})
    assert first == LabelCensus(level=2, counts={(2, "B"): 2, (1, "R"): 2})
    assert first == census(2)
    assert first != LabelCensus(3, first.counts)
    assert first != LabelCensus(2, {(1, "R"): 2})
    assert first != (2, first.counts)
    assert repr(first) == "LabelCensus(level=2, counts={(1, 'R'): 2, (2, 'B'): 2})"
    with pytest.raises(TypeError):
        hash(first)


def test_closed_count_rejects_zero():
    with pytest.raises(ValueError):
        closed_count(0)


def test_convex_polyomino_sequence():
    assert [closed_convex_polyominoes(m) for m in range(8)] == CONVEX
    assert closed_convex_polyominoes(2) == 11 - 4
    assert closed_convex_polyominoes(4) == 15 * 16 - 4 * 5 * 6


def test_stack_counts():
    assert [closed_stack(n) for n in range(1, 5)] == [1, 2, 4, 8]
    for n in range(1, 21):
        assert closed_stack(n) == census(n).by_class()[0]


def test_directed_counts():
    assert [closed_directed(n) for n in range(1, 5)] == [1, 3, 10, 35]
    for n in range(1, 41):
        b, r, _ = census(n).by_class()
        assert r % 2 == 0
        assert b + r // 2 == closed_directed(n)


def test_catalan():
    assert [catalan(n) for n in range(7)] == [1, 1, 2, 5, 14, 42, 132]


def test_census_rows_are_deterministic():
    rows = census(3).rows()
    assert rows == [(3, 3, "B", 4), (3, 1, "R", 6), (3, 2, "R", 6), (3, 1, "G", 2)]


def test_census_totals_are_reproducible():
    fresh = LabelCensus(1, {(1, "B"): 1})
    for n in range(2, 41):
        fresh = fresh.step()
        assert fresh.total() == count(n)


def test_concurrent_cold_census_fills_the_cache_once(monkeypatch):
    monkeypatch.setattr(census_module, "_LEVELS", [census_module._ROOT])
    errors = []

    def fill():
        try:
            census(60)
        except Exception as exc:  # reported by the main thread below
            errors.append(exc)

    threads = [threading.Thread(target=fill) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(census_module._LEVELS) == 60
    for n in range(1, 61):
        assert count(n) == closed_count(n)


def naive_step(level: LabelCensus) -> LabelCensus:
    """The next level by expanding every label into its production."""
    nxt = {}
    for (k, group), mass in level.counts.items():
        for key in production(k, group):
            nxt[key] = nxt.get(key, 0) + mass
    return LabelCensus(level.level + 1, nxt)


def test_step_matches_the_expanded_productions():
    expected = census(1)
    for n in range(2, 31):
        expected = naive_step(expected)
        assert census(n).counts == expected.counts
        assert census(n).rows() == expected.rows()


def test_step_does_not_expand_productions(monkeypatch):
    def expanded(k, group):
        raise AssertionError("LabelCensus.step expanded a production")

    monkeypatch.setattr(census_module, "production", expanded)
    monkeypatch.setattr(census_module, "_LEVELS", [census_module._ROOT])
    assert census(40).total() == closed_count(40)


def test_census_matches_closed_form_to_1000():
    # a fresh step() chain, so the check does not rest on the shared cache
    level = census(1)
    for n in range(2, 1001):
        level = level.step()
        assert level.total() == closed_count(n)


def test_cache_keeps_totals_and_only_the_last_level(monkeypatch):
    monkeypatch.setattr(census_module, "_LEVELS", [census_module._ROOT])
    tracemalloc.start()
    try:
        for n in range(1, 301):
            assert count(n) == closed_count(n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # every level whole took about 15 MiB here
    assert peak < 2 * 2**20
    levels = census_module._LEVELS
    assert len(levels) == 300
    assert all(type(total) is int for total in levels[:-1])
    assert levels[-1] == census(300)


def test_evicted_levels_are_recomputed_in_any_order(monkeypatch):
    monkeypatch.setattr(census_module, "_LEVELS", [census_module._ROOT])
    count(120)
    fresh = [census_module._ROOT]
    while len(fresh) < 120:
        fresh.append(fresh[-1].step())
    order = list(range(1, 121))
    random.Random(20071).shuffle(order)
    for n in order:
        level = census(n)
        assert level.level == n
        assert level.counts == fresh[n - 1].counts
        assert level.rows() == fresh[n - 1].rows()
    assert len(census_module._LEVELS) == 120


def test_concurrent_reads_of_evicted_levels_agree(monkeypatch):
    monkeypatch.setattr(census_module, "_LEVELS", [census_module._ROOT])
    count(80)
    errors = []

    def read(first):
        try:
            for n in range(first, 80, 7):
                level = census(n)
                assert level.level == n
                assert level.total() == closed_count(n)
        except Exception as exc:  # reported by the main thread below
            errors.append(exc)

    threads = [threading.Thread(target=read, args=(first,)) for first in range(1, 8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(census_module._LEVELS) == 80
