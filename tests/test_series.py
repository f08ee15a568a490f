from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permutomino import series, verification
from permutomino.census import LabelCensus, census, closed_count, count
from permutomino.series import (
    Poly,
    TruncatedSeries,
    census_bivariate,
    census_full_bivariate,
    functional_equation_residuals,
    kernel_residual,
    kernel_root,
    polynomial,
    series_b1,
    series_directed,
    series_f1,
    series_n1,
    series_r1,
    sqrt_1m4t,
)


def test_sqrt_1m4t_leading_coefficients():
    assert sqrt_1m4t(5).integer_coeffs() == [1, -2, -2, -4, -10, -28]


def test_sqrt_squares_back():
    s = sqrt_1m4t(20)
    assert s * s == polynomial([1, -4], 20)


def test_inverse_sqrt_gives_central_binomials():
    inv = sqrt_1m4t(10).inverse()
    assert inv.integer_coeffs() == [comb(2 * n, n) for n in range(11)]


def test_series_f1_matches_sequence():
    assert series_f1(7).integer_coeffs() == [0, 1, 4, 18, 84, 394, 1836, 8468]


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
        assert directed[n] == Fraction(comb(2 * n, n), 2)
    assert directed == series_b1(order) + series_r1(order) / 2


def test_kernel_root_is_catalan():
    assert kernel_root(6).integer_coeffs() == [1, 1, 2, 5, 14, 42, 132]


def test_kernel_residual_vanishes():
    assert kernel_residual(30).is_zero()


def test_kernel_root_coefficients_positive():
    root = kernel_root(30)
    assert all(root[k] > 0 for k in range(31))


def test_division_requires_nonzero_constant():
    with pytest.raises(ZeroDivisionError):
        polynomial([0, 1], 5).inverse()


def test_sqrt_requires_unit_constant():
    with pytest.raises(ValueError):
        polynomial([4, 1], 5).sqrt()


def test_divide_by_t_requires_zero_low_coefficients():
    with pytest.raises(ValueError):
        polynomial([1, 1], 5).divide_by_t()
    assert polynomial([0, 3, 5], 5).divide_by_t().coeffs[:2] == (3, 5)


def test_mismatched_orders_rejected():
    with pytest.raises(ValueError):
        polynomial([1], 3) + polynomial([1], 4)


small_series = st.lists(st.integers(-9, 9), min_size=1, max_size=9)


@settings(max_examples=60, deadline=None)
@given(small_series, small_series)
def test_division_inverts_multiplication(a_coeffs, b_coeffs):
    order = 10
    a = polynomial(a_coeffs, order)
    b = polynomial([1] + b_coeffs, order)  # unit constant keeps it invertible
    assert (a * b) / b == a


@settings(max_examples=60, deadline=None)
@given(small_series)
def test_sqrt_round_trip(tail):
    order = 10
    f = polynomial([1] + tail, order)
    root = f.sqrt()
    assert root * root == f


rational = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 8))


@st.composite
def rational_series(draw, constant):
    """Orders 0..15, rational coefficients with denominators up to 8."""
    order = draw(st.integers(0, 15))
    tail = draw(st.lists(rational, min_size=order, max_size=order))
    return TruncatedSeries((draw(constant),) + tuple(tail))


@settings(max_examples=80, deadline=None)
@given(rational_series(rational.filter(bool)))
def test_inverse_is_exact_over_the_rationals(a):
    assert a * a.inverse() == TruncatedSeries.constant(1, a.order)


@settings(max_examples=80, deadline=None)
@given(rational_series(st.just(Fraction(1))))
def test_sqrt_is_exact_over_the_rationals(a):
    root = a.sqrt()
    assert root * root == a


@settings(max_examples=30, deadline=None)
@given(rational_series(st.just(Fraction(0))), rational_series(rational.filter(lambda c: c != 1)))
def test_inverse_and_sqrt_reject_their_bad_constant_terms(zero_constant, other_constant):
    with pytest.raises(ZeroDivisionError):
        zero_constant.inverse()
    with pytest.raises(ValueError):
        other_constant.sqrt()


def test_series_f1_matches_closed_form_to_600():
    coeffs = series_f1(600).integer_coeffs()
    assert all(coeffs[n] == closed_count(n) for n in range(1, 601))


def test_bivariate_full_series_first_levels():
    f = census_full_bivariate(3)
    assert [list(map(int, row.coeffs)) for row in f.coeffs] == [[], [0, 1], [0, 2, 2], [0, 8, 6, 4]]


def test_bivariate_class_b_matches_rational_form():
    b, _, _ = census_bivariate(10)
    for n in range(1, 11):
        # the t^n row is 2^(n-1) s^n: every other s-coefficient is zero
        assert b[n] == Poly.of([0] * n + [2 ** (n - 1)])


def test_bivariate_specialization_matches_univariate():
    assert census_full_bivariate(12).at_s1() == series_f1(12)


def test_functional_equation_residuals_vanish():
    residuals = functional_equation_residuals(12)
    assert residuals["R"].is_zero()
    assert residuals["G"].is_zero()
    # with s = 1 the cleared equations collapse to 0 = 0
    assert residuals["R"].at_s1().is_zero()


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
    assert not residuals["R"].is_zero()
    assert not residuals["G"].is_zero()
    result = verification.check_functional_equations(8)
    assert not result.ok
    assert "max |coeff| " in result.detail


def test_bivariate_arithmetic():
    x = TruncatedSeries.from_terms({(1, 1): 1}, 4)   # s t
    y = TruncatedSeries.from_terms({(0, 0): 1}, 4)   # 1
    z = (x + y) * (x + y)
    assert z[0] == Poly.of([1])
    assert z[1] == Poly.of([0, 2])
    assert z[2] == Poly.of([0, 0, 1])
    assert z.shift(1)[3] == Poly.of([0, 0, 1])
    assert z.shift(2).divide_by_t(2).coeffs == z.coeffs[:3]
    assert not z.is_zero()
    assert (z - z).is_zero()
    assert (2 * z)[1] == Poly.of([0, 4])


sparse_terms = st.dictionaries(
    st.tuples(st.integers(0, 5), st.integers(0, 3)), st.integers(-5, 5), max_size=8
)


@settings(max_examples=60, deadline=None)
@given(sparse_terms, sparse_terms)
def test_setting_s_to_one_is_a_ring_homomorphism(x_terms, y_terms):
    order = 4  # terms past the order are dropped by from_terms
    x = TruncatedSeries.from_terms(x_terms, order)
    y = TruncatedSeries.from_terms(y_terms, order)
    assert (x * y).at_s1() == x.at_s1() * y.at_s1()
    assert (x + y).at_s1() == x.at_s1() + y.at_s1()
    assert (x - y).at_s1() == x.at_s1() - y.at_s1()
    assert x.at_s1().constant_in_s().at_s1() == x.at_s1()


def test_truncated_series_shift():
    t = polynomial([0, 1], 4)
    assert (t.shift(2)).coeffs == polynomial([0, 0, 0, 1], 4).coeffs
    assert TruncatedSeries.constant(7, 3)[0] == 7
