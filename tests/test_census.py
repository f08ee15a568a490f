import sys
import threading

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
    diagnostic_triple_sum,
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


def test_diagnostic_triple_sum_values():
    # quarantined legacy formula: matches nothing past its first two values
    assert diagnostic_triple_sum(2) == 1
    assert diagnostic_triple_sum(3) == 4
    assert diagnostic_triple_sum(4) == 30
    assert diagnostic_triple_sum(4) not in (count(3), count(4), count(5))
    with pytest.raises(ValueError):
        diagnostic_triple_sum(1)


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
    # a fresh chain rather than count(n): caching 1000 levels holds ~300 MiB
    level = census(1)
    for n in range(2, 1001):
        level = level.step()
        assert level.total() == closed_count(n)
