"""Acceptance gate: every counting route must agree at the stated bounds.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion (the same checks back the ``permutomino verify`` CLI).
"""

import time

from permutomino import verification as v
from permutomino.census import count

_BUDGETS = {
    "C1": 1.0,
    "C2": 1.0,
    "C3": 1.0,
    "C4": 4.0,
    "C5": 3.5,
    "C6": 3.0,
    "C10": 12.0,
}


def _criterion(tag, description, result, elapsed):
    budget = _BUDGETS.get(tag)
    status = "PASS" if result.ok else "FAIL"
    line = f"[{tag}] {description}: {status} ({elapsed:.2f}s)"
    if not result.ok:
        line += f" -- {result.detail}"
        if result.witness:
            line += f" witness={result.witness}"
    print(line, flush=True)
    assert result.ok, result.detail
    if budget is not None:
        assert elapsed < budget, f"{tag} took {elapsed:.2f}s, budget {budget}s"


def test_c1_sequence_reproduction():
    t0 = time.perf_counter()
    result = v.check_sequence()
    _criterion("C1", "sequence 1,4,18,84,394,1836,8468", result, time.perf_counter() - t0)


def test_c2_closed_form_agreement():
    t0 = time.perf_counter()
    result = v.check_closed_form(40)
    _criterion("C2", "closed form == census for n <= 40", result, time.perf_counter() - t0)


def test_c3_series_agreement():
    t0 = time.perf_counter()
    result = v.check_series(25)
    _criterion("C3", "series coefficients == census for n <= 25", result, time.perf_counter() - t0)


def test_c4_eco_partition():
    t0 = time.perf_counter()
    result = v.check_eco_partition(7)
    _criterion("C4", "partition/validity/round-trip for levels 1..7", result, time.perf_counter() - t0)


def test_c5_corner_identities():
    t0 = time.perf_counter()
    result = v.check_corner_identities(7)
    _criterion("C5", "corner identities and reentrant matrices, n <= 7", result, time.perf_counter() - t0)


def test_c6_oracle_triangulation():
    t0 = time.perf_counter()
    calibration = v.check_oracle_calibration(8)
    if calibration.ok:
        result = v.check_oracle_triangulation(7)
    else:
        result = calibration
    _criterion("C6", "calibrated brute force == census for n <= 7", result, time.perf_counter() - t0)


def test_c7_corollary_counts():
    t0 = time.perf_counter()
    result = v.check_corollaries(20)
    _criterion("C7", "stack = 2^(n-1), B + R/2 = C(2n,n)/2 for n <= 20", result, time.perf_counter() - t0)


def test_c8_functional_equations_and_kernel():
    t0 = time.perf_counter()
    equations = v.check_functional_equations(12)
    result = equations if not equations.ok else v.check_kernel(30)
    _criterion("C8", "functional equations to order 12, kernel to order 30", result, time.perf_counter() - t0)


def test_c9_pair_oracle():
    t0 = time.perf_counter()
    result = v.check_pair_oracle(3)
    _criterion("C9", "permutation-pair reconstruction == census for n <= 3", result, time.perf_counter() - t0)


def test_c10_deep_oracle_triangulation():
    t0 = time.perf_counter()
    result = v.check_oracle_triangulation(9)
    _criterion("C10", "brute force == census for n <= 9", result, time.perf_counter() - t0)


def test_criteria_cover_the_sequence_exactly():
    # the advertised sequence is what each of the routes above reproduces
    assert tuple(count(n) for n in range(1, 8)) == v.SEQUENCE == (1, 4, 18, 84, 394, 1836, 8468)
