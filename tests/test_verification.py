"""Planted defects: each check that ``verify`` runs can fail.

Every row plants one defect at the name its caller reads, runs the whole
suite at small bounds and asserts the exact set of checks that fail, plus
the shape each witness names wherever one shape is to blame.
"""

import json
import os
import signal
import threading

import pytest

from permutomino import census, eco, oracle, series, verification
from permutomino.grid import BoundaryWord, Permutomino
from permutomino.series import TruncatedSeries

BOUNDS = dict(max_n=5, oracle_n=5, order=4, pair_n=3)


def _drop_first_corner(real):
    return lambda p: real(p)[1:]


def _swap_en_se(real):
    # on the two-column slices eco.parent reads whose left column is (1, 1)
    swap = {"EN": "SE", "SE": "EN"}

    def swapped(cols):
        corners = real(cols)
        if cols[0] != (1, 1):
            return corners
        return tuple((vertex, swap.get(kind, kind)) for vertex, kind in corners)

    return swapped


def _reject_size(n):
    # False for the shapes, or raw columns, of n columns whose first is (1, 1)
    def planted(real):
        def rejecting(shape):
            cols = getattr(shape, "cols", shape)
            return real(shape) and not (len(cols) == n and cols[0] == (1, 1))

        return rejecting

    return planted


def _raise_at_size(n):
    def planted(real):
        def raising(p):
            if p.n == n:
                raise ValueError("planted")
            return real(p)

        return raising

    return planted


def _rotate_some(real):
    # the word of every shape whose last column is (1, 1) starts one letter later
    def rotated(p):
        bw = real(p)
        if p.cols[-1] != (1, 1):
            return bw
        return BoundaryWord(bw.word[1:] + bw.word[0], bw.start)

    return rotated


def _plus_one_at(x):
    def planted(real):
        return lambda n: real(n) + (n == x)

    return planted


def _bump_last_coefficient(real):
    def bumped(order):
        coeffs = real(order).coeffs
        return TruncatedSeries(coeffs[:-1] + (coeffs[-1] + 1,))

    return bumped


def _bump_an_r_entry(real):
    def bumped(order):
        b, r, g = real(order)
        r[-1][1] += 1
        return b, r, g

    return bumped


def _one_r_as_g(real):
    return lambda k, group: [(1, "G") if key == (1, "R") else key for key in real(k, group)]


def _bump_level_5(real):
    def step(self):
        nxt = real(self)
        if nxt.level == 5:
            nxt.counts[(1, "R")] += 1
        return nxt

    return step


# (module, name, planted defect, failing checks, a test the witness shape
# passes, or None where no single shape is to blame)
DEFECTS = {
    "drop-a-reentrant-corner": (verification, "reentrant_corners", _drop_first_corner, {"corner-identities"}, lambda p: p.n >= 2),
    "parent-swaps-en-and-se": (eco, "reentrant_corners", _swap_en_se, {"eco-partition"}, lambda p: p.cols[-2] == (1, 1)),
    "oracle-rejects-size-5": (oracle, "is_permutomino", _reject_size(5), {"oracle-triangulation"}, None),
    "oracle-not-convex-at-size-3": (oracle, "is_convex", _reject_size(3), {"pair-oracle"}, None),
    "invalid-at-size-5": (verification, "is_valid", _reject_size(5), {"eco-partition"}, lambda p: p.n == 5 and p.cols[0] == (1, 1)),
    "reentrant-matrix-raises-at-size-4": (verification, "reentrant_matrix", _raise_at_size(4), {"corner-identities"}, lambda p: p.n == 4),
    "rotated-boundary-word": (verification, "boundary_word", _rotate_some, {"corner-identities"}, lambda p: p.cols[-1] == (1, 1)),
    "closed-count-off-at-30": (verification, "closed_count", _plus_one_at(30), {"closed-form"}, None),
    "g-series-off-at-its-order": (series, "series_n1", _bump_last_coefficient, {"series"}, None),
    "closed-directed-off-at-15": (verification, "closed_directed", _plus_one_at(15), {"corollaries"}, None),
    "closed-convex-off-at-6": (verification, "closed_convex_polyominoes", _plus_one_at(6), {"oracle-calibration"}, None),
    "bivariate-r-entry-off": (series, "census_bivariate", _bump_an_r_entry, {"functional-equations"}, None),
    "kernel-root-off-at-its-order": (series, "kernel_root", _bump_last_coefficient, {"kernel-root"}, None),
    "catalan-off-at-10": (verification, "catalan", _plus_one_at(10), {"kernel-root"}, None),
    "production-gives-g-for-r": (verification, "production", _one_r_as_g, {"eco-partition"}, lambda p: p.n == 1),
    "census-step-off-at-level-5": (
        census.LabelCensus,
        "step",
        _bump_level_5,
        {"sequence", "closed-form", "series", "corollaries", "eco-partition", "oracle-triangulation"},
        None,
    ),
}


def test_every_check_passes_at_the_table_bounds():
    assert all(result.ok for result in verification.run_checks(**BOUNDS))


def test_every_check_fails_in_some_row():
    names = [result.name for result in verification.run_checks(**BOUNDS)]
    assert set().union(*(row[3] for row in DEFECTS.values())) == set(names)


@pytest.mark.parametrize("defect", DEFECTS)
def test_a_planted_defect_fails_exactly_its_checks(monkeypatch, defect):
    module, name, plant, failing, hit = DEFECTS[defect]
    # a cold level cache, so that no planted census level outlives the test
    monkeypatch.setattr(census, "_LEVELS", [census._ROOT])
    monkeypatch.setattr(census, "_REPLAY", census._ROOT)
    monkeypatch.setattr(module, name, plant(getattr(module, name)))
    failed = [result for result in verification.run_checks(**BOUNDS) if not result.ok]
    assert {result.name for result in failed} == failing
    for result in failed:
        if hit is None:
            assert result.witness is None, result
        else:
            assert hit(Permutomino.from_record(json.loads(result.witness))), result


def test_a_check_that_raises_fails_under_its_own_name(monkeypatch):
    # each entry's name is the name its check reports when it does not raise
    own = [result.name for result in verification.run_checks(max_n=2, oracle_n=1, order=1, pair_n=1)]

    def planted(*args):
        raise ValueError("planted")

    for name in dir(verification):
        if name.startswith("check_"):
            monkeypatch.setattr(verification, name, planted)
    results = list(verification.run_checks(max_n=2, oracle_n=1, order=1, pair_n=1))
    assert [result.name for result in results] == own
    assert len(own) == len(set(own)) == 11
    assert all(not result.ok and result.detail == "ValueError: planted" for result in results)


def test_a_count_route_names_what_it_found_and_what_the_census_says(monkeypatch):
    monkeypatch.setattr(verification, "closed_count", _plus_one_at(30)(verification.closed_count))
    f = census.count(30)
    result = verification.check_closed_form()
    assert not result.ok
    assert result.detail == f"closed form found {f + 1} at n=30, census says {f}"


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="the worker needs os.fork")


@needs_fork
def test_closing_the_checks_early_leaves_no_process():
    checks = verification.run_checks(**BOUNDS)
    names = [next(checks).name for _ in range(5)]
    assert names[3:] == ["eco-partition", "corner-identities"]
    checks.close()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@needs_fork
def test_a_worker_that_dies_fails_its_checks_and_the_rest_still_run(monkeypatch):
    clean = list(verification.run_checks(**BOUNDS))
    monkeypatch.setattr(verification, "check_corner_identities", lambda max_n: os._exit(3))
    results = list(verification.run_checks(**BOUNDS))
    assert [result.name for result in results] == [result.name for result in clean]
    for result, before in zip(results, clean):
        if result.name in ("corner-identities", "pair-oracle"):
            assert not result.ok and "status 3" in result.detail, result
        else:
            assert result == before
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@needs_fork
def test_the_worker_waits_on_no_lock_held_when_it_was_forked():
    census.count(40)
    held, done = threading.Event(), threading.Event()

    def hold():
        with census._LEVELS_LOCK:
            held.set()
            done.wait(timeout=120)

    holder = threading.Thread(target=hold, daemon=True)
    holder.start()
    assert held.wait(timeout=10)

    def timeout(signum, frame):
        raise TimeoutError("run_checks hung")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(60)
    try:
        results = list(verification.run_checks(max_n=4, oracle_n=4, order=4, pair_n=3))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        done.set()
        holder.join(timeout=10)
    assert not holder.is_alive()
    assert all(result.ok for result in results)


def test_without_fork_the_checks_give_the_same_results(monkeypatch):
    forked = list(verification.run_checks(**BOUNDS))
    monkeypatch.delattr(os, "fork", raising=False)
    assert list(verification.run_checks(**BOUNDS)) == forked
