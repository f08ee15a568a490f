"""Planted defects: each check that ``verify`` runs can fail.

Every row plants one defect at the name its caller reads, runs the whole
suite at small bounds and asserts the exact set of checks that fail, plus
the shape each witness names wherever one shape is to blame.
"""

import json

import pytest

from permutomino import eco, oracle, verification
from permutomino.grid import BoundaryWord, Permutomino

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
}


def test_every_check_passes_at_the_table_bounds():
    assert all(result.ok for result in verification.run_checks(**BOUNDS))


@pytest.mark.parametrize("defect", DEFECTS)
def test_a_planted_defect_fails_exactly_its_checks(monkeypatch, defect):
    module, name, plant, failing, hit = DEFECTS[defect]
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
    results = verification.run_checks(max_n=2, oracle_n=1, order=1, pair_n=1)
    assert [result.name for result in results] == own
    assert len(own) == len(set(own)) == 11
    assert all(not result.ok and result.detail == "ValueError: planted" for result in results)
