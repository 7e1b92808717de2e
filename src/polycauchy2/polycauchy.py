"""Poly-Cauchy numbers with level 2, by two independent routes.

The numbers C_{2n}^(k) are defined through lif2k composed with arcsinh: the
even EGF coefficients of that composition. They also satisfy the finite sum

    C_{2n}^(k) = sum over m = 1..n of (-4)^(n-m) [[n, m]] / (2m+1)^k

with C_0^(k) = 1, where [[n, m]] is the level-2 triangle. Both routes are
implemented and checked against each other; the index parameter k may be
any integer, including zero and negatives.

Both routes run on exact integers (Knuth, TAOCP Vol. 2, 4.7), over one
common denominator D = lcm(2m+1)^k, or D = 1 when k <= 0. Write
s_m = D / (2m+1)^k. The formula route never builds the triangle. It runs
the triangle's own recurrence [[n, m]] = [[n-1, m-1]] + (n-1)^2 [[n-1, m]],
summed in the other order, on the weighted sums

    S_n(j) = sum over m of (-4)^(n-m) [[n, m]] s_(m+j):

S_0(j) = s_j and S_n(j) = S_(n-1)(j+1) - 4(n-1)^2 S_(n-1)(j), so S_n(0) is
D C_{2n}^(k). Every step multiplies a big integer by a small one.

The series route expands lif2k(arcsinh t) as the sum over m of
(arcsinh t)^(2m) / ((2m)! (2m+1)^k), whose EGF coefficients

    P_m[n] = (2n)! [t^(2n)] (arcsinh t)^(2m) / (2m)!

are integers. ``arcsinh_power_egf`` builds them from the arcsinh
coefficients (-1)^j ((2j-1)!!)^2 alone, never from the triangle: P_1 is one
binomial EGF product of those coefficients halved, and P_m is the binomial
EGF product of P_{m-1} and P_1 divided by m(2m-1), each division checked
exact. It then takes the dot product of each column with s_m over D. The
two routes share only the weights s_m: neither reads the other's integers.
Both yield D C_{2n}^(k) for n = 0..nmax and D, the pair ``PolyCauchyTable``
holds per k: values stay integer numerators over D until one is read.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, lcm
from operator import mul
from typing import Iterable, Sequence

from .exact import _even_binomials, rational_to_text
from .polynomials import poly_mul
from .stirling import Level2Triangle, level2_by_recurrence

__all__ = [
    "level2_by_formula",
    "level2_by_series",
    "arcsinh_power_egf",
    "level2_series_values",
    "PolyCauchyTable",
    "IntegralCheck",
    "integral_representation_check",
]


# -- the integer EGF kernel ----------------------------------------------------


def _exact_div(numerator: int, divisor: int, where: str = "EGF kernel") -> int:
    quotient, remainder = divmod(numerator, divisor)
    if remainder:
        raise ArithmeticError(f"{where}: division by {divisor} is not exact")
    return quotient


def _power_table(first: Sequence[int]) -> list[list[int]]:
    """Integer EGF coefficients of the powers of g, one column per index n.

    ``first[n]`` is (2n)! [t^(2n)] g for an even series g with first[0] = 0.
    Entry [n][m], for m = 0..n, is the same coefficient of g^m 2^m / (2m)!,
    built as the m-th row times g by the binomial EGF product, divided by
    binom(2m, 2). For g = f^2 / 2 that is f^(2m) / (2m)!. The binomials are
    the shared rows of ``exact``, and each entry is one ``sum(map(mul, ...))``.
    """
    rows = _even_binomials(len(first) - 1)
    table = [[1]]
    # by_power[m] holds entry [i][m] for i = m, m + 1, ... of the columns built so far.
    by_power = [[1]]
    for n in range(1, len(first)):
        weights = list(map(mul, rows[n][:n], first[n:0:-1]))
        column = [0] * (n + 1)
        for m in range(1, n + 1):
            column[m] = _exact_div(sum(map(mul, weights[m - 1 :], by_power[m - 1])), rows[m][1])
        for entries, value in zip(by_power, column):
            entries.append(value)
        by_power.append([column[n]])
        table.append(column)
    return table


def _power_weights(size: int, k: int, step: int) -> tuple[list[int], int]:
    """D / (step m + 1)^k for m = 0..size-1, and D, the lcm of those powers (1 when k <= 0)."""
    bases = [step * m + 1 for m in range(size)]
    if k <= 0:
        return [base**-k for base in bases], 1
    denominator = lcm(*bases) ** k
    return [_exact_div(denominator, base**k) for base in bases], denominator


def _sum_over_powers(
    columns: Iterable[Sequence[int]], size: int, k: int, step: int
) -> tuple[list[int], int]:
    """D times the sum over m of column[m] / (step m + 1)^k for each column, and D.

    Columns hold at most ``size`` entries; they may be generated one at a time.
    """
    weights, denominator = _power_weights(size, k, step)
    return [sum(map(mul, column, weights)) for column in columns], denominator


def _formula_numerators(nmax: int, k: int) -> tuple[list[int], int]:
    """D C_{2n}^(k) for n = 0..nmax, and D: the weighted-sum recurrence of the module docstring.

    Row n holds S_n(j) for j = 0..nmax-n; no triangle entry is built.
    """
    sums, denominator = _power_weights(nmax + 1, k, 2)
    numerators = [sums[0]]
    for n in range(1, nmax + 1):
        weight = 4 * (n - 1) ** 2
        sums = [b - weight * a for a, b in zip(sums, sums[1:])]
        numerators.append(sums[0])
    return numerators, denominator


def _arcsinh_egf(count: int) -> list[int]:
    """(2j+1)! [t^(2j+1)] arcsinh t = (-1)^j ((2j-1)!!)^2 for j = 0..count-1."""
    coefficients = []
    odd = 1
    for j in range(count):
        odd *= max(2 * j - 1, 1)
        coefficients.append(-odd * odd if j % 2 else odd * odd)
    return coefficients


def arcsinh_power_egf(nmax: int) -> list[list[int]]:
    """P_m[n] = (2n)! [t^(2n)] (arcsinh t)^(2m) / (2m)!, as entry [n][m] for m <= n <= nmax.

    Built from the arcsinh coefficients alone; it equals (-4)^(n-m) [[n, m]]
    without reading the triangle.
    """
    if nmax < 0:
        raise ValueError(f"nmax must be >= 0, got {nmax}")
    a = _arcsinh_egf(nmax)
    # (arcsinh t)^2 / 2: the product of two odd series lands on even indices.
    # Term i equals term n - 1 - i, so the terms below the middle count
    # twice, and the middle term (n odd) once.
    square = [0]
    for n in range(1, nmax + 1):
        half = sum(comb(2 * n, 2 * i + 1) * a[i] * a[n - 1 - i] for i in range(n // 2))
        middle = comb(2 * n, n) * a[n // 2] ** 2 if n % 2 else 0
        square.append(_exact_div(2 * half + middle, 2))
    return _power_table(square)


def level2_series_values(egf: Sequence[Sequence[int]], k: int = 1) -> list[Fraction]:
    """C_{2n}^(k) for n = 0..len(egf)-1 from the columns of ``arcsinh_power_egf``."""
    numerators, denominator = _sum_over_powers(egf, len(egf), k, 2)
    return [Fraction(x, denominator) for x in numerators]


def _formula_column(n: int, triangle: Level2Triangle) -> list[int]:
    """(-4)^(n-m) [[n, m]] for m = 0..n, as a shift by 2(n - m) bits and a sign."""
    return [-(v << 2 * (n - m)) if (n - m) % 2 else v << 2 * (n - m) for m, v in enumerate(triangle.row(n))]


def level2_by_formula(n: int, k: int = 1) -> Fraction:
    """C_{2n}^(k) via the level-2 triangle sum, run as the weighted-sum recurrence. Exact for any integer k."""
    if n < 0:
        raise ValueError(f"index n must be >= 0, got {n}")
    numerators, denominator = _formula_numerators(n, k)
    return Fraction(numerators[n], denominator)


def level2_by_series(n: int, k: int = 1) -> Fraction:
    """C_{2n}^(k) as the even EGF coefficient of lif2k(arcsinh t)."""
    if n < 0:
        raise ValueError(f"index n must be >= 0, got {n}")
    return level2_series_values(arcsinh_power_egf(n), k)[n]


class PolyCauchyTable:
    """C_{2n}^(k) for n = 0..max_n(k) at each k built, held as integer numerators over D.

    Each k holds one route's pass, (numerators, D); ``value`` builds one Fraction
    on demand. Growing a k recomputes its pass, since both kernels start from n = 0.
    """

    def __init__(self) -> None:
        self._passes: dict[int, tuple[list[int], int]] = {}

    @classmethod
    def build(cls, nmax: int, k: int = 1, route: str = "formula") -> "PolyCauchyTable":
        table = cls()
        table.ensure(nmax, k=k, route=route)
        return table

    def ensure(self, nmax: int, k: int = 1, route: str = "formula") -> None:
        """Hold n = 0..nmax for this k, recomputed by the given route if the table holds fewer."""
        if route not in ("formula", "series"):
            raise ValueError(f"route must be 'formula' or 'series', got {route!r}")
        if nmax <= self.max_n(k):
            return
        if route == "formula":
            self._passes[k] = _formula_numerators(nmax, k)
        else:
            self._passes[k] = _sum_over_powers(arcsinh_power_egf(nmax), nmax + 1, k, 2)

    def max_n(self, k: int = 1) -> int:
        """Largest n held for this k, or -1 when none is."""
        numerators, _ = self._passes.get(k, ((), 1))
        return len(numerators) - 1

    def _pass(self, n: int, k: int) -> tuple[list[int], int]:
        if not 0 <= n <= self.max_n(k):
            raise ValueError(f"table holds n = 0..{self.max_n(k)} for k = {k}, requested n = {n}")
        return self._passes[k]

    def value(self, n: int, k: int = 1) -> Fraction:
        numerators, denominator = self._pass(n, k)
        return Fraction(numerators[n], denominator)

    def numerators(self, need: int, k: int = 1) -> tuple[list[int], int]:
        """C_{2m}^(k) for m = 0..need as integer numerators over D, the lcm of their denominators.

        That is the held pair divided by the gcd of D and every numerator read.
        """
        numerators, denominator = self._pass(need, k)
        head = numerators[: need + 1]
        common = gcd(denominator, *head)
        return [x // common for x in head], denominator // common


@dataclass(frozen=True)
class IntegralCheck:
    """Two-stage exact reduction of the k-fold integral representation.

    Stage 1 establishes the polynomial identity behind the representation:
    (-4)^n (n!)^2 binom(z/2, n) binom(-z/2, n), expanded directly from its
    linear factors, must equal sum over m of (-4)^(n-m) [[n, m]] z^(2m).
    Stage 2 integrates the expanded product, not the triangle side, termwise
    over the unit cube in k variables (each monomial (x_1...x_k)^j
    contributes 1/(j+1)^k) and compares the result with the formula route,
    which reads no triangle either. A wrong triangle entry fails stage 1 and
    a wrong formula-route value fails stage 2. Failed stages are recorded,
    never raised.
    """

    n: int
    k: int
    polynomial_match: bool
    value_match: bool
    integral_value: Fraction
    reference_value: Fraction

    @property
    def passed(self) -> bool:
        return self.polynomial_match and self.value_match

    def describe(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (
            f"integral check n={self.n} k={self.k}: polynomial="
            f"{'ok' if self.polynomial_match else 'mismatch'} value="
            f"{rational_to_text(self.integral_value)} vs "
            f"{rational_to_text(self.reference_value)} [{status}]"
        )


# Stage-1 products (-1)^n prod over i < n of (z - 2i)(-z - 2i), grown lazily one
# pair of linear factors at a time: _LINEAR_PRODUCTS[n] is the product for n.
_LINEAR_PRODUCTS: list[list[int]] = [[1]]


def _linear_product(n: int) -> list[int]:
    while len(_LINEAR_PRODUCTS) <= n:
        i = len(_LINEAR_PRODUCTS) - 1
        negated = [-c for c in _LINEAR_PRODUCTS[i]]
        _LINEAR_PRODUCTS.append(poly_mul(poly_mul(negated, [-2 * i, 1]), [-2 * i, -1]))
    return _LINEAR_PRODUCTS[n]


def integral_representation_check(
    n: int, k: int, triangle: Level2Triangle | None = None, table: PolyCauchyTable | None = None
) -> IntegralCheck:
    """Both stages at (n, k): ``triangle`` serves stage 1 and ``table`` stage 2's reference.

    Either is built or extended when it does not reach n.
    """
    if n < 0:
        raise ValueError(f"index n must be >= 0, got {n}")
    if triangle is None or triangle.nmax < n:
        triangle = level2_by_recurrence(n)
    if table is None:
        table = PolyCauchyTable()
    table.ensure(n, k)

    # Stage 1: expand the binomial product factor by factor, once per n.
    # (-4)^n (n!)^2 binom(z/2, n) binom(-z/2, n) = (-4)^n prod (z/2 - i)(-z/2 - i)
    # = (-1)^n prod (z - 2i)(-z - 2i), a product of integer linear factors.
    product = _linear_product(n)

    expected = [0] * (2 * n + 1)
    expected[::2] = _formula_column(n, triangle)
    polynomial_match = product == expected

    # Stage 2: integrate the stage-1 product, which never read the triangle,
    # termwise over the unit cube: z^j becomes 1/(j+1)^k, summed over one
    # common denominator. The k-fold integral is never evaluated numerically.
    (numerator,), denominator = _sum_over_powers([product], 2 * n + 1, k, 1)
    integral_value = Fraction(numerator, denominator)
    reference_value = table.value(n, k)
    value_match = integral_value == reference_value

    return IntegralCheck(n, k, polynomial_match, value_match, integral_value, reference_value)
