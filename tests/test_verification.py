"""Planted defects: each check that ``verify`` runs can fail.

Every row plants one defect at the name its caller reads, runs the whole
suite at small bounds and asserts the exact set of checks that fail, plus
the shape each witness names wherever one shape is to blame.
"""

import contextlib
import dataclasses
import json
import os
import signal
import subprocess
import sys
import threading
import time
from math import factorial
from pathlib import Path

import pytest

from permutomino import census, eco, oracle, series, verification
from permutomino.grid import UNIT, BoundaryWord, DisconnectedPair, Permutomino
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


def _drop_a_unit_pair(real):
    # the unit cell's pair with pi1 = (2, 1) no longer closes into a shape
    def dropping(pair):
        if pair.pi1 == (2, 1):
            raise DisconnectedPair("planted")
        return real(pair)

    return dropping


def _unit_as_domino(real):
    # both pairs of the unit cell rebuild the domino, a convex shape with two cells
    def rebuilt(pair):
        shape = real(pair)
        return Permutomino(((1, 1), (1, 1))) if shape == UNIT else shape

    return rebuilt


def _drop_a_disconnected_pair(real):
    # one disconnected pair leaves the count altogether, total included
    def dropping(n):
        pairs = real(n)
        if not pairs.disconnected_pairs:
            return pairs
        return dataclasses.replace(
            pairs, total_pairs=pairs.total_pairs - 1, disconnected_pairs=pairs.disconnected_pairs - 1
        )

    return dropping


def _one_pair_in_two_buckets(real):
    # one pair is counted as self-intersecting as well as in its own bucket
    def doubled(n):
        pairs = real(n)
        return dataclasses.replace(pairs, self_intersecting_pairs=pairs.self_intersecting_pairs + 1)

    return doubled


def _nw_column_at_row_0(real):
    # every NW child's new column reaches down to row 0, built as children builds
    def planted(p):
        return [
            (tag, eco._child(child.cols[:-1] + ((0, child.cols[-1][1]),)) if tag.kind == "NW" else child)
            for tag, child in real(p)
        ]

    return planted


def _se_child_at_row_0(real):
    # every column at row 1 of an SE child reaches down to row 0, where that
    # keeps the child's label: its last column must stay clear of row 1
    def planted(p):
        return [
            (tag, eco._child(tuple((lo - (lo == 1), hi) for lo, hi in child.cols)))
            if tag.kind == "SE" and child.cols[-1][0] > 1
            else (tag, child)
            for tag, child in real(p)
        ]

    return planted


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
    "directed-series-off-at-its-order": (series, "series_directed", _bump_last_coefficient, {"corollaries"}, None),
    "pair-oracle-drops-a-unit-pair": (oracle, "from_permutations", _drop_a_unit_pair, {"pair-oracle"}, None),
    "pair-oracle-rebuilds-a-domino": (oracle, "from_permutations", _unit_as_domino, {"pair-oracle"}, lambda p: p.cols == ((1, 1), (1, 1))),
    "pair-oracle-drops-a-disconnected-pair": (oracle, "classify_pairs", _drop_a_disconnected_pair, {"pair-oracle"}, None),
    "pair-oracle-counts-a-pair-twice": (oracle, "classify_pairs", _one_pair_in_two_buckets, {"pair-oracle"}, None),
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


def test_the_pair_total_is_the_factorial_times_the_derangements():
    # (n+1)! choices of pi1, each with D(n+1) pointwise-distinct pi2
    totals = [factorial(n + 1) * verification._derangements(n + 1) for n in range(1, 5)]
    assert totals == [2, 12, 216, 5280]
    assert totals == [oracle.classify_pairs(n).total_pairs for n in range(1, 5)]


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


# Malformed children, which no constructor would accept: (planted defect,
# failing checks, eco-partition's detail, a test each witness's columns pass)
MALFORMED_CHILDREN = {
    "nw-child-reaches-row-0": (
        _nw_column_at_row_0,
        {"eco-partition", "corner-identities"},
        "children labels of (1, 'B') break the succession rule",
        lambda cols: cols[-1][0] == 0 or cols == [[1, 1]],
    ),
    # the child keeps its label, so only is_valid stands between it and
    # eco.parent's constructor, which would raise with no witness
    "se-child-keeps-its-label-at-row-0": (
        _se_child_at_row_0,
        {"eco-partition", "corner-identities"},
        "invalid child",
        lambda cols: any(lo == 0 for lo, _ in cols),
    ),
}


@pytest.mark.parametrize("defect", MALFORMED_CHILDREN)
def test_a_malformed_child_fails_exactly_its_checks(monkeypatch, defect):
    plant, failing, detail, hit = MALFORMED_CHILDREN[defect]
    monkeypatch.setattr(census, "_LEVELS", [census._ROOT])
    monkeypatch.setattr(census, "_REPLAY", census._ROOT)
    monkeypatch.setattr(eco, "children", plant(eco.children))
    failed = {result.name: result for result in verification.run_checks(**BOUNDS) if not result.ok}
    assert set(failed) == failing
    assert failed["eco-partition"].detail == detail
    for result in failed.values():
        assert hit(json.loads(result.witness)["cols"]), result


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


def _live_in_session(sid):
    # pids of the session's processes that have not ended; a zombie has
    # ended, whether or not anyone reaps it
    live = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/stat", encoding="ascii", errors="replace") as stat:
                # after the command name: state, ppid, pgrp, session
                state, _, _, session = stat.read().rpartition(")")[2].split()[:4]
        except OSError:
            continue
        if int(session) == sid and state not in ("Z", "X"):
            live.append(int(pid))
    return live


@needs_fork
@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads process states from /proc")
def test_the_worker_ends_when_verify_is_killed():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "permutomino.cli", "verify", "--max-n", "5", "--pair-n", "5"],
        stdout=subprocess.PIPE,
        env=env,
        start_new_session=True,
        text=True,
    )
    try:
        # corner-identities' line comes from the worker, which then has
        # pair-oracle at n = 5 to run, seconds of work
        for line in proc.stdout:
            if "corner-identities" in line:
                break
        assert "corner-identities" in line
        assert len(_live_in_session(proc.pid)) == 2  # verify and its worker
        proc.kill()
        proc.wait()
        deadline = time.monotonic() + 2
        while (live := _live_in_session(proc.pid)) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert live == []
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.stdout.close()
        proc.wait()


def test_without_fork_the_checks_give_the_same_results(monkeypatch):
    forked = list(verification.run_checks(**BOUNDS))
    monkeypatch.delattr(os, "fork", raising=False)
    assert list(verification.run_checks(**BOUNDS)) == forked
