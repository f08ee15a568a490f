from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permutomino import series, verification
from permutomino.census import LabelCensus, census, closed_count, count
from permutomino.series import (
    TruncatedSeries,
    census_bivariate,
    functional_equation_residuals,
    kernel_residual,
    kernel_root,
    series_b1,
    series_directed,
    series_f1,
    series_n1,
    series_r1,
    sqrt_1m4t,
)


def test_sqrt_1m4t_leading_coefficients():
    assert sqrt_1m4t(5).coeffs == (1, -2, -2, -4, -10, -28)


def test_sqrt_squares_back():
    s = sqrt_1m4t(20)
    assert s * s == TruncatedSeries.from_coeffs([1, -4], 20)


def test_inverse_sqrt_gives_central_binomials():
    inv = sqrt_1m4t(10).inverse()
    assert inv.coeffs == tuple(comb(2 * n, n) for n in range(11))


def test_series_f1_matches_sequence():
    assert series_f1(7).coeffs == (0, 1, 4, 18, 84, 394, 1836, 8468)


def test_series_r1_and_n1_small_coefficients():
    assert series_r1(3)[2] == 2
    assert series_r1(3)[3] == 12
    assert series_n1(3)[3] == 2


def test_all_series_match_census_to_25():
    order = 25
    f1, b1, r1, n1 = series_f1(order), series_b1(order), series_r1(order), series_n1(order)
    for n in range(1, order + 1):
        b, r, g = census(n).by_class()
        assert (b1[n], r1[n], n1[n], f1[n]) == (b, r, g, count(n))


def test_class_series_sum_to_full_series():
    order = 25
    total = series_b1(order) + series_r1(order) + series_n1(order)
    assert total == series_f1(order)


def test_directed_series():
    order = 25
    directed = series_directed(order)
    assert directed[0] == 0
    for n in range(1, order + 1):
        assert directed[n] == comb(2 * n, n) // 2
    assert directed == series_b1(order) + series_r1(order) / 2


def test_kernel_root_is_catalan():
    assert kernel_root(6).coeffs == (1, 1, 2, 5, 14, 42, 132)


def test_kernel_residual_vanishes():
    assert kernel_residual(30).is_zero()


def test_kernel_root_coefficients_positive():
    root = kernel_root(30)
    assert all(root[k] > 0 for k in range(31))


def test_division_requires_nonzero_constant():
    with pytest.raises(ZeroDivisionError):
        TruncatedSeries.from_coeffs([0, 1], 5).inverse()


def test_sqrt_requires_unit_constant():
    with pytest.raises(ValueError):
        TruncatedSeries.from_coeffs([4, 1], 5).sqrt()


def test_divide_by_t_requires_zero_low_coefficients():
    with pytest.raises(ValueError):
        TruncatedSeries.from_coeffs([1, 1], 5).divide_by_t()
    assert TruncatedSeries.from_coeffs([0, 3, 5], 5).divide_by_t().coeffs[:2] == (3, 5)


def test_mismatched_orders_rejected():
    with pytest.raises(ValueError):
        TruncatedSeries.from_coeffs([1], 3) + TruncatedSeries.from_coeffs([1], 4)


small_series = st.lists(st.integers(-9, 9), min_size=1, max_size=9)


@settings(max_examples=60, deadline=None)
@given(small_series, small_series)
def test_division_inverts_multiplication(a_coeffs, b_coeffs):
    order = 10
    a = TruncatedSeries.from_coeffs(a_coeffs, order)
    b = TruncatedSeries.from_coeffs([1] + b_coeffs, order)  # unit constant keeps it invertible
    assert (a * b) / b == a


@settings(max_examples=60, deadline=None)
@given(small_series)
def test_sqrt_round_trip(tail):
    order = 10
    g = TruncatedSeries.from_coeffs([1] + tail, order)
    assert (g * g).sqrt() == g


@st.composite
def integer_series(draw, constant):
    """Orders 0..15, integer coefficients in -30..30."""
    order = draw(st.integers(0, 15))
    tail = draw(st.lists(st.integers(-30, 30), min_size=order, max_size=order))
    return TruncatedSeries.from_coeffs([draw(constant), *tail], order)


@settings(max_examples=80, deadline=None)
@given(integer_series(st.sampled_from((1, -1))))
def test_inverse_is_exact_for_a_unit_constant(a):
    assert a * a.inverse() == TruncatedSeries.constant(1, a.order)


@settings(max_examples=30, deadline=None)
@given(
    integer_series(st.just(0)),
    integer_series(st.integers(-30, 30).filter(lambda c: c not in (-1, 0, 1))),
    integer_series(st.integers(-30, 30).filter(lambda c: c != 1)),
)
def test_inverse_and_sqrt_reject_their_bad_constant_terms(zero_constant, non_unit_constant, other_constant):
    with pytest.raises(ZeroDivisionError):
        zero_constant.inverse()
    with pytest.raises(ArithmeticError):
        non_unit_constant.inverse()
    with pytest.raises(ValueError):
        other_constant.sqrt()


def test_integrality_is_checked():
    # 1 + t has no integer square root: its t coefficient would be 1/2
    with pytest.raises(ArithmeticError):
        TruncatedSeries.from_coeffs([1, 1], 3).sqrt()
    with pytest.raises(ArithmeticError):
        TruncatedSeries.from_coeffs([2, 3], 3) / 2
    assert TruncatedSeries.from_coeffs([2, -4], 3) / 2 == TruncatedSeries.from_coeffs([1, -2], 3)
    with pytest.raises(TypeError):
        TruncatedSeries.from_coeffs([1, 0.5], 3)


def test_series_f1_matches_closed_form_to_600():
    coeffs = series_f1(600).coeffs
    assert all(coeffs[n] == closed_count(n) for n in range(1, 601))


def test_bivariate_full_series_first_levels():
    b, r, g = census_bivariate(3)
    f = [[x + y + z for x, y, z in zip(*rows)] for rows in zip(b, r, g)]
    assert f == [[0], [0, 1], [0, 2, 2], [0, 8, 6, 4]]


def test_bivariate_class_b_matches_rational_form():
    b, _, _ = census_bivariate(10)
    for n in range(1, 11):
        # the t^n row is 2^(n-1) s^n: every other s-coefficient is zero
        assert b[n] == [0] * n + [2 ** (n - 1)]


def test_bivariate_specialization_matches_univariate():
    b, r, g = census_bivariate(12)
    assert [sum(rb) + sum(rr) + sum(rg) for rb, rr, rg in zip(b, r, g)] == list(series_f1(12).coeffs)


def test_functional_equation_residuals_vanish():
    residuals = functional_equation_residuals(12)
    for rows in residuals.values():
        assert [len(row) for row in rows] == [n + 2 for n in range(13)]
        assert not any(any(row) for row in rows)


def _assert_rows_sum_to_zero(residuals):
    # with s = 1 both cleared equations collapse to 0 = 0 whatever B, R and
    # G are, so a sign error in any term leaves some row with a nonzero sum
    for key, rows in residuals.items():
        assert [sum(row) for row in rows] == [0] * len(rows), key


def test_residual_rows_sum_to_zero():
    _assert_rows_sum_to_zero(functional_equation_residuals(20))


def test_one_wrong_multiplicity_breaks_both_equations(monkeypatch):
    real = series._level_census

    def tampered(n):
        level = real(n)
        if n != 3:
            return level
        counts = dict(level.counts)
        counts[(1, "R")] += 1
        return LabelCensus(n, counts)

    monkeypatch.setattr(series, "_level_census", tampered)
    residuals = functional_equation_residuals(8)
    assert any(any(row) for row in residuals["R"])
    assert any(any(row) for row in residuals["G"])
    _assert_rows_sum_to_zero(residuals)
    result = verification.check_functional_equations(8)
    assert not result.ok
    assert "max |coeff| " in result.detail


def test_truncated_series_shift():
    t = TruncatedSeries.from_coeffs([0, 1], 4)
    assert t.shift().shift().coeffs == TruncatedSeries.from_coeffs([0, 0, 0, 1], 4).coeffs
    assert TruncatedSeries.constant(7, 3)[0] == 7
