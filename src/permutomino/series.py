"""Truncated exact power series in t, and in (s, t), over the rationals.

Everything is carried with arbitrary-precision rational coefficients even
though the series of interest all have integer coefficients; intermediate
divisions then stay total and integrality becomes a checkable fact instead
of an assumption.  There is one series type, :class:`TruncatedSeries`: a
univariate series has rational t-coefficients, and a bivariate series is the
same type whose t-coefficients are exact polynomials in s (:class:`Poly`).
Ring operations truncate in t only; the s-degree of the bivariate series
arising here is bounded by the t-degree, so polynomials in s are kept exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence, Union

from .census import census as _level_census

Scalar = Union[int, Fraction]


def _as_fraction(value: Scalar) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact scalar, got {type(value).__name__}")


@dataclass(frozen=True)
class Poly:
    """Exact polynomial in s, constant term first, without trailing zeros,
    so that the zero polynomial is ``Poly()`` and tests false."""

    coeffs: tuple[Fraction, ...] = ()

    @classmethod
    def of(cls, values: Iterable[Scalar]) -> "Poly":
        coeffs = [_as_fraction(v) for v in values]
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        return cls(tuple(coeffs))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other: "Poly") -> "Poly":
        longer, shorter = sorted((self.coeffs, other.coeffs), key=len, reverse=True)
        out = list(longer)
        for i, c in enumerate(shorter):
            out[i] += c
        return Poly.of(out)

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __mul__(self, other: "Poly | Scalar") -> "Poly":
        if not isinstance(other, Poly):
            f = _as_fraction(other)
            return Poly.of(c * f for c in self.coeffs)
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            for j, d in enumerate(other.coeffs):
                if d:
                    out[i + j] += c * d
        return Poly.of(out)

    __rmul__ = __mul__


Coeff = Union[Fraction, Poly]


@dataclass(frozen=True)
class TruncatedSeries:
    """Power series in t truncated at a fixed order (inclusive).

    ``coeffs[k]`` is the coefficient of ``t**k``: an exact rational, or a
    :class:`Poly` in s for a bivariate series.  Binary operations require
    both operands to share the same order, so no precision is lost silently.
    Zero tests go by truthiness and the zero coefficient is taken from the
    series itself, so the ring operations below serve both kinds; ``inverse``,
    ``sqrt``, division and ``integer_coeffs`` are for rational coefficients.
    """

    coeffs: tuple[Coeff, ...]

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise ValueError("a series needs at least the constant term")

    @classmethod
    def from_coeffs(cls, values: Iterable[Scalar], order: int) -> "TruncatedSeries":
        """Series from leading coefficients, zero-padded up to ``order``."""
        coeffs = [_as_fraction(v) for v in values]
        if len(coeffs) > order + 1:
            coeffs = coeffs[: order + 1]
        coeffs += [Fraction(0)] * (order + 1 - len(coeffs))
        return cls(tuple(coeffs))

    @classmethod
    def constant(cls, value: Scalar, order: int) -> "TruncatedSeries":
        return cls.from_coeffs([value], order)

    @classmethod
    def from_terms(cls, terms: dict[tuple[int, int], Scalar], order: int) -> "TruncatedSeries":
        """Bivariate series from a sparse {(t_power, s_power): value} map."""
        rows: list[list[Fraction]] = [[] for _ in range(order + 1)]
        for (tn, sk), value in terms.items():
            if tn > order:
                continue
            row = rows[tn]
            while len(row) <= sk:
                row.append(Fraction(0))
            row[sk] += _as_fraction(value)
        return cls(tuple(Poly.of(row) for row in rows))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, k: int) -> Coeff:
        return self.coeffs[k]

    def _zero(self) -> Coeff:
        return self.coeffs[0] * 0

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def at_s1(self) -> "TruncatedSeries":
        """Set s = 1 in a bivariate series, summing each polynomial row."""
        return TruncatedSeries(tuple(sum(row.coeffs, Fraction(0)) for row in self.coeffs))

    def constant_in_s(self) -> "TruncatedSeries":
        """A rational series as a bivariate one whose rows are constant in s."""
        return TruncatedSeries(tuple(Poly.of([c]) for c in self.coeffs))

    def _coerce(self, other: "TruncatedSeries | Scalar") -> "TruncatedSeries":
        if isinstance(other, TruncatedSeries):
            if other.order != self.order:
                raise ValueError("series orders differ")
            return other
        return TruncatedSeries.constant(other, self.order)

    def __add__(self, other: "TruncatedSeries | Scalar") -> "TruncatedSeries":
        rhs = self._coerce(other)
        return TruncatedSeries(tuple(a + b for a, b in zip(self.coeffs, rhs.coeffs)))

    __radd__ = __add__

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(tuple(-a for a in self.coeffs))

    def __sub__(self, other: "TruncatedSeries | Scalar") -> "TruncatedSeries":
        return self + (-self._coerce(other))

    def __rsub__(self, other: Scalar) -> "TruncatedSeries":
        return self._coerce(other) - self

    def __mul__(self, other: "TruncatedSeries | Scalar") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            f = _as_fraction(other)
            return TruncatedSeries(tuple(a * f for a in self.coeffs))
        rhs = self._coerce(other)
        n = self.order
        out = [self._zero()] * (n + 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j in range(n + 1 - i):
                b = rhs.coeffs[j]
                if b:
                    out[i + j] += a * b
        return TruncatedSeries(tuple(out))

    __rmul__ = __mul__

    def inverse(self) -> "TruncatedSeries":
        """Multiplicative inverse; requires a nonzero constant term.

        The recurrence runs on integers: with ``self = P/d`` (``P`` integer
        numerators over the common denominator ``d``) and ``p = P[0]``, the
        coefficient of t^k is ``d·u_k / p^(k+1)``, where ``u_0 = 1`` and
        ``u_k = −Σ_{i≥1} P_i·p^(i−1)·u_(k−i)`` over the nonzero ``P_i``.
        """
        if self.coeffs[0] == 0:
            raise ZeroDivisionError("series has no inverse: zero constant term")
        d, nums = self._integer_numerators()
        p = nums[0]
        terms = [(i, c * p ** (i - 1)) for i, c in enumerate(nums) if i and c]
        u = [1]
        for k in range(1, self.order + 1):
            u.append(-sum(c * u[k - i] for i, c in terms if i <= k))
        return TruncatedSeries(tuple(Fraction(d * u_k, p ** (k + 1)) for k, u_k in enumerate(u)))

    def __truediv__(self, other: "TruncatedSeries | Scalar") -> "TruncatedSeries":
        if isinstance(other, TruncatedSeries):
            return self * other.inverse()
        f = _as_fraction(other)
        return TruncatedSeries(tuple(a / f for a in self.coeffs))

    def __rtruediv__(self, other: Scalar) -> "TruncatedSeries":
        return self._coerce(other) * self.inverse()

    def sqrt(self) -> "TruncatedSeries":
        """Square root of a series with constant term 1.

        The recurrence runs on integers: with ``self = C/d`` (``C`` integer
        numerators over the common denominator ``d``), the coefficient of t^k
        for k ≥ 1 is ``v_k / (2^(2k−1)·d^k)``, where
        ``v_k = 4^(k−1)·d^(k−1)·C_k − Σ_{0<i<k} v_i·v_(k−i)``.
        """
        if self.coeffs[0] != 1:
            raise ValueError("square root needs constant term 1")
        d, nums = self._integer_numerators()
        v = [1]
        root = [Fraction(1)]
        for k in range(1, self.order + 1):
            v.append(4 ** (k - 1) * d ** (k - 1) * nums[k] - sum(v[i] * v[k - i] for i in range(1, k)))
            root.append(Fraction(v[k], 2 ** (2 * k - 1) * d**k))
        return TruncatedSeries(tuple(root))

    def _integer_numerators(self) -> tuple[int, list[int]]:
        """The common denominator d of the rational coefficients and the
        integer numerators P with ``self = P/d``."""
        d = lcm(*(c.denominator for c in self.coeffs))
        return d, [c.numerator * (d // c.denominator) for c in self.coeffs]

    def shift(self, k: int = 1) -> "TruncatedSeries":
        """Multiply by t^k (the top k coefficients fall off the truncation)."""
        if k < 0:
            raise ValueError("shift must be >= 0")
        zeros = (self._zero(),) * min(k, self.order + 1)
        return TruncatedSeries((zeros + self.coeffs)[: self.order + 1])

    def divide_by_t(self, k: int = 1) -> "TruncatedSeries":
        """Divide by t^k; the k lowest coefficients must vanish.  The order
        drops by k."""
        if any(self.coeffs[:k]):
            raise ValueError("low-order coefficients are not zero")
        return TruncatedSeries(self.coeffs[k:])

    def integer_coeffs(self) -> list[int]:
        """Coefficients as integers; raises if any is fractional."""
        out = []
        for c in self.coeffs:
            if c.denominator != 1:
                raise ArithmeticError(f"non-integer coefficient {c}")
            out.append(int(c))
        return out


def polynomial(values: Sequence[Scalar], order: int) -> TruncatedSeries:
    return TruncatedSeries.from_coeffs(values, order)


def sqrt_1m4t(order: int) -> TruncatedSeries:
    """The series S with S^2 = 1 - 4t; starts 1, -2, -2, -4, -10, ..."""
    return polynomial([1, -4], order).sqrt()


def series_b1(order: int) -> TruncatedSeries:
    """t / (1 - 2t): class-B totals by size (the stack counts 2^(n-1))."""
    return polynomial([0, 1], order) / polynomial([1, -2], order)


def series_r1(order: int) -> TruncatedSeries:
    """1/sqrt(1-4t) - 1/(1-2t): class-R totals by size."""
    return sqrt_1m4t(order).inverse() - polynomial([1, -2], order).inverse()


def series_n1(order: int) -> TruncatedSeries:
    """Class-G totals by size:
    (1-7t+14t^2-4t^3) / ((1-2t)(1-4t)^2) - (1-3t) / (1-4t)^(3/2)."""
    one_m4t = polynomial([1, -4], order)
    rational = polynomial([1, -7, 14, -4], order) / (polynomial([1, -2], order) * one_m4t * one_m4t)
    algebraic = polynomial([1, -3], order) / (one_m4t * sqrt_1m4t(order))
    return rational - algebraic


def series_f1(order: int) -> TruncatedSeries:
    """Convex permutominoes by size:
    2t(1-3t)/(1-4t)^2 - t/(1-4t)^(3/2); starts t + 4t^2 + 18t^3 + ..."""
    one_m4t = polynomial([1, -4], order)
    rational = polynomial([0, 2, -6], order) / (one_m4t * one_m4t)
    algebraic = polynomial([0, 1], order) / (one_m4t * sqrt_1m4t(order))
    return rational - algebraic


def series_directed(order: int) -> TruncatedSeries:
    """(1 - sqrt(1-4t)) / (2 sqrt(1-4t)): half central binomials."""
    s = sqrt_1m4t(order)
    return (1 - s) / (2 * s)


def kernel_root(order: int) -> TruncatedSeries:
    """The power-series root s0 = (1 - sqrt(1-4t)) / (2t) of 1 - s + t s^2.

    This is the Catalan series 1 + t + 2t^2 + 5t^3 + ...; it is the unique
    root with nonnegative (in fact positive) coefficients.
    """
    # computed at order+1 so that the division by t keeps full precision
    s = sqrt_1m4t(order + 1)
    return ((1 - s) / 2).divide_by_t(1)


def kernel_residual(order: int) -> TruncatedSeries:
    """1 - s0 + t s0^2, identically zero when s0 is a true kernel root."""
    s0 = kernel_root(order)
    return 1 - s0 + (s0 * s0).shift(1)


# ---------------------------------------------------------------------------
# bivariate series: coefficient of t^n is a polynomial in s
# ---------------------------------------------------------------------------


def census_bivariate(order: int) -> tuple[TruncatedSeries, TruncatedSeries, TruncatedSeries]:
    """Census-derived truncations of the class series B(s,t), R(s,t), G(s,t):
    the coefficient of s^k t^n is the level-n multiplicity of label (k, class)."""
    terms: dict[str, dict[tuple[int, int], Scalar]] = {"B": {}, "R": {}, "G": {}}
    for n in range(1, order + 1):
        for (k, group), c in _level_census(n).counts.items():
            terms[group][(n, k)] = c
    return tuple(TruncatedSeries.from_terms(terms[g], order) for g in ("B", "R", "G"))  # type: ignore[return-value]


def census_full_bivariate(order: int) -> TruncatedSeries:
    b, r, g = census_bivariate(order)
    return b + r + g


def functional_equation_residuals(order: int) -> dict[str, TruncatedSeries]:
    """Residuals of the two class functional equations, denominators cleared
    by (1 - s), evaluated on the census truncations:

    * ``R``:  R(s,t) ((1-s) + s^2 t) - 2st (B(1,t) - B(s,t)) - st R(1,t)
    * ``G``:  G(s,t) ((1-s) + 2st)  -  st (R(1,t) - R(s,t)) - 2st G(1,t)

    Both must vanish identically through the truncation order.
    """
    b, r, g = census_bivariate(order)
    b1 = b.at_s1().constant_in_s()
    r1 = r.at_s1().constant_in_s()
    g1 = g.at_s1().constant_in_s()
    st = TruncatedSeries.from_terms({(1, 1): 1}, order)

    kernel_r = TruncatedSeries.from_terms({(0, 0): 1, (0, 1): -1, (1, 2): 1}, order)
    residual_r = r * kernel_r - 2 * (b1 - b) * st - r1 * st

    kernel_g = TruncatedSeries.from_terms({(0, 0): 1, (0, 1): -1, (1, 1): 2}, order)
    residual_g = g * kernel_g - (r1 - r) * st - 2 * g1 * st

    return {"R": residual_r, "G": residual_g}
