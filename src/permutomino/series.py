"""Truncated power series in t with integer coefficients.

Every series of interest has integer coefficients, and every division here
is by a series with constant term ±1 or by an integer that divides each
coefficient, so :class:`TruncatedSeries` holds plain ``int``s.  Integrality
stays a checked fact rather than an assumption: ``inverse`` and ``sqrt``
refuse a constant term that would leave the integers, and an inexact
division raises ``ArithmeticError``.  The census truncations of the
bivariate class series B(s,t), R(s,t), G(s,t) are integer rows, one per
power of t, with the s-coefficients in order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .census import census as _level_census

# The largest orders the command line expands.  Cold on two cores: the
# slowest univariate name, ``directed``, 1.3 s at order 1000; ``Fst``
# 0.3 s and 31 MiB at 400, ``verify --order 400 --max-n 5`` 0.6 s.
MAX_ORDER = 1000
MAX_BIVARIATE_ORDER = 400


@dataclass(frozen=True)
class TruncatedSeries:
    """Power series in t truncated at a fixed order (inclusive).

    ``coeffs[k]`` is the integer coefficient of ``t**k``.  Binary operations
    require both operands to share the same order, so no precision is lost
    silently.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise ValueError("a series needs at least the constant term")

    @classmethod
    def from_coeffs(cls, values: Iterable[int], order: int) -> "TruncatedSeries":
        """Series from leading coefficients, zero-padded up to ``order``."""
        coeffs = list(values)[: order + 1]
        for c in coeffs:
            if not isinstance(c, int):
                raise TypeError(f"expected an integer coefficient, got {type(c).__name__}")
        coeffs += [0] * (order + 1 - len(coeffs))
        return cls(tuple(coeffs))

    @classmethod
    def constant(cls, value: int, order: int) -> "TruncatedSeries":
        return cls.from_coeffs([value], order)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, k: int) -> int:
        return self.coeffs[k]

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def _coerce(self, other: "TruncatedSeries | int") -> "TruncatedSeries":
        if isinstance(other, TruncatedSeries):
            if other.order != self.order:
                raise ValueError("series orders differ")
            return other
        return TruncatedSeries.constant(other, self.order)

    def __add__(self, other: "TruncatedSeries | int") -> "TruncatedSeries":
        rhs = self._coerce(other)
        return TruncatedSeries(tuple(a + b for a, b in zip(self.coeffs, rhs.coeffs)))

    __radd__ = __add__

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(tuple(-a for a in self.coeffs))

    def __sub__(self, other: "TruncatedSeries | int") -> "TruncatedSeries":
        return self + (-self._coerce(other))

    def __rsub__(self, other: int) -> "TruncatedSeries":
        return self._coerce(other) - self

    def __mul__(self, other: "TruncatedSeries | int") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return TruncatedSeries.from_coeffs([a * other for a in self.coeffs], self.order)
        rhs = self._coerce(other)
        n = self.order
        out = [0] * (n + 1)
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
        """Multiplicative inverse; requires a constant term of ±1.

        With ``p = self[0]``, so that ``1/p = p``, the coefficient of t^k is
        ``u_0 = p`` and ``u_k = −p·Σ_{i≥1} self[i]·u_(k−i)`` over the nonzero
        ``self[i]``.
        """
        p = self.coeffs[0]
        if p == 0:
            raise ZeroDivisionError("series has no inverse: zero constant term")
        if p not in (1, -1):
            raise ArithmeticError(f"inverse needs constant term ±1, got {p}")
        terms = [(i, c) for i, c in enumerate(self.coeffs) if i and c]
        u = [p]
        for k in range(1, self.order + 1):
            u.append(-p * sum(c * u[k - i] for i, c in terms if i <= k))
        return TruncatedSeries(tuple(u))

    def __truediv__(self, other: "TruncatedSeries | int") -> "TruncatedSeries":
        if isinstance(other, TruncatedSeries):
            return self * other.inverse()
        quotients = [a // other for a in self.coeffs]
        if any(q * other != a for q, a in zip(quotients, self.coeffs)):
            raise ArithmeticError(f"a coefficient is not divisible by {other}")
        return TruncatedSeries.from_coeffs(quotients, self.order)

    def sqrt(self) -> "TruncatedSeries":
        """Square root of a series with constant term 1.

        The coefficient of t^k for k ≥ 1 is ``v_k = (self[k] − Σ_{0<i<k}
        v_i·v_(k−i)) / 2``, halved exactly: an odd remainder means the root
        is not an integer series and raises ``ArithmeticError``.  The sum is
        symmetric in i and k−i, so it is formed as twice the sum over
        ``0 < i < k/2`` plus ``v_(k/2)²`` when k is even.
        """
        if self.coeffs[0] != 1:
            raise ValueError("square root needs constant term 1")
        v = [1]
        for k in range(1, self.order + 1):
            cross = 2 * sum(v[i] * v[k - i] for i in range(1, (k + 1) // 2))
            if k % 2 == 0:
                cross += v[k // 2] ** 2
            half, odd = divmod(self.coeffs[k] - cross, 2)
            if odd:
                raise ArithmeticError(f"square root has a non-integer coefficient at t^{k}")
            v.append(half)
        return TruncatedSeries(tuple(v))

    def shift(self) -> "TruncatedSeries":
        """Multiply by t (the top coefficient falls off the truncation)."""
        return TruncatedSeries((0,) + self.coeffs[:-1])

    def divide_by_t(self) -> "TruncatedSeries":
        """Divide by t; the constant term must vanish.  The order drops by 1."""
        if self.coeffs[0]:
            raise ValueError("low-order coefficients are not zero")
        return TruncatedSeries(self.coeffs[1:])


def sqrt_1m4t(order: int) -> TruncatedSeries:
    """The series S with S^2 = 1 - 4t; starts 1, -2, -2, -4, -10, ..."""
    return TruncatedSeries.from_coeffs([1, -4], order).sqrt()


def series_b1(order: int) -> TruncatedSeries:
    """t / (1 - 2t): class-B totals by size (the stack counts 2^(n-1))."""
    return TruncatedSeries.from_coeffs([0, 1], order) / TruncatedSeries.from_coeffs([1, -2], order)


def series_r1(order: int) -> TruncatedSeries:
    """1/sqrt(1-4t) - 1/(1-2t): class-R totals by size."""
    return sqrt_1m4t(order).inverse() - TruncatedSeries.from_coeffs([1, -2], order).inverse()


def series_n1(order: int) -> TruncatedSeries:
    """Class-G totals by size:
    (1-7t+14t^2-4t^3) / ((1-2t)(1-4t)^2) - (1-3t) / (1-4t)^(3/2)."""
    one_m4t = TruncatedSeries.from_coeffs([1, -4], order)
    one_m2t = TruncatedSeries.from_coeffs([1, -2], order)
    rational = TruncatedSeries.from_coeffs([1, -7, 14, -4], order) / (one_m2t * one_m4t * one_m4t)
    algebraic = TruncatedSeries.from_coeffs([1, -3], order) / (one_m4t * sqrt_1m4t(order))
    return rational - algebraic


def series_f1(order: int) -> TruncatedSeries:
    """Convex permutominoes by size:
    2t(1-3t)/(1-4t)^2 - t/(1-4t)^(3/2); starts t + 4t^2 + 18t^3 + ..."""
    one_m4t = TruncatedSeries.from_coeffs([1, -4], order)
    rational = TruncatedSeries.from_coeffs([0, 2, -6], order) / (one_m4t * one_m4t)
    algebraic = TruncatedSeries.from_coeffs([0, 1], order) / (one_m4t * sqrt_1m4t(order))
    return rational - algebraic


def series_directed(order: int) -> TruncatedSeries:
    """(1 - sqrt(1-4t)) / (2 sqrt(1-4t)): half central binomials."""
    s = sqrt_1m4t(order)
    return ((1 - s) / 2) / s


def kernel_root(order: int) -> TruncatedSeries:
    """The power-series root s0 = (1 - sqrt(1-4t)) / (2t) of 1 - s + t s^2.

    This is the Catalan series 1 + t + 2t^2 + 5t^3 + ...; it is the unique
    root with nonnegative (in fact positive) coefficients.
    """
    # computed at order+1 so that the division by t keeps full precision
    s = sqrt_1m4t(order + 1)
    return ((1 - s) / 2).divide_by_t()


def kernel_residual(order: int) -> TruncatedSeries:
    """1 - s0 + t s0^2, identically zero when s0 is a true kernel root."""
    s0 = kernel_root(order)
    return 1 - s0 + (s0 * s0).shift()


# ---------------------------------------------------------------------------
# bivariate series: row n holds the s-coefficients of t^n
# ---------------------------------------------------------------------------

Rows = list[list[int]]


def census_bivariate(order: int) -> tuple[Rows, Rows, Rows]:
    """Census-derived truncations of the class series B(s,t), R(s,t), G(s,t)
    as integer rows: entry ``[n][k]`` is the level-n multiplicity of label
    (k, class), the coefficient of s^k t^n.  Row n has length n+1, because
    no level-n label has degree above n."""
    rows: dict[str, Rows] = {group: [[0] * (n + 1) for n in range(order + 1)] for group in "BRG"}
    for n in range(1, order + 1):
        for (k, group), c in _level_census(n).counts.items():
            rows[group][n][k] = c
    return rows["B"], rows["R"], rows["G"]


def functional_equation_residuals(order: int) -> dict[str, Rows]:
    """Residuals of the two class functional equations, denominators cleared
    by (1 - s), evaluated on the census truncations:

    * ``R``:  R(s,t) ((1-s) + s^2 t) - 2st (B(1,t) - B(s,t)) - st R(1,t)
    * ``G``:  G(s,t) ((1-s) + 2st)  -  st (R(1,t) - R(s,t)) - 2st G(1,t)

    Both must vanish identically through the truncation order.  Row n holds
    the coefficients of s^k t^n for k = 0..n+1; with ``X1[m] = Σ_k X[m][k]``
    and out-of-range entries 0, they are

    * ``R[n][k] − R[n][k−1] + R[n−1][k−2] + 2·B[n−1][k−1] − [k=1]·(2·B1[n−1] + R1[n−1])``
    * ``G[n][k] − G[n][k−1] + 2·G[n−1][k−1] + R[n−1][k−1] − [k=1]·(R1[n−1] + 2·G1[n−1])``
    """
    b, r, g = census_bivariate(order)

    def at(rows: Rows, n: int, k: int) -> int:
        return rows[n][k] if 0 <= n and 0 <= k < len(rows[n]) else 0

    residual_r: Rows = []
    residual_g: Rows = []
    for n in range(order + 1):
        b1, r1, g1 = (sum(rows[n - 1]) if n else 0 for rows in (b, r, g))
        row_r, row_g = [], []
        for k in range(n + 2):
            row_r.append(
                at(r, n, k) - at(r, n, k - 1) + at(r, n - 1, k - 2) + 2 * at(b, n - 1, k - 1)
                - (2 * b1 + r1 if k == 1 else 0)
            )
            row_g.append(
                at(g, n, k) - at(g, n, k - 1) + 2 * at(g, n - 1, k - 1) + at(r, n - 1, k - 1)
                - (r1 + 2 * g1 if k == 1 else 0)
            )
        residual_r.append(row_r)
        residual_g.append(row_g)
    return {"R": residual_r, "G": residual_g}
