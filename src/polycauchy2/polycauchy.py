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
Both yield D C_{2n}^(k) for n = 0..nmax and D, the pass a ``PolyCauchyTable``
holds for its one k: values stay integer numerators over D until one is
read. A table is one pass of one route, built once and never grown, and
``level2_by_formula``, ``level2_by_series`` and the series L(t) each build
a table of their route.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import floordiv, mul
from typing import Iterable, NamedTuple, Sequence

from .exact import _even_binomials, rational_to_text
from .stirling import Level2Triangle, level2_by_recurrence

__all__ = [
    "level2_by_formula",
    "level2_by_series",
    "arcsinh_power_egf",
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


def _power_table(first: Sequence[int], top: int | None = None) -> list[list[int]]:
    """Integer EGF coefficients of the powers of g, one column per index n.

    ``first[n]`` is (2n)! [t^(2n)] g for an even series g with first[0] = 0.
    Entry [n][m], for m = 0..min(n, top), is the same coefficient of
    g^m 2^m / (2m)!, built as the m-th row times g by the binomial EGF
    product, divided by binom(2m, 2); ``top=None`` builds every m <= n. For
    g = f^2 / 2 that is f^(2m) / (2m)!. The binomials are the shared rows of
    ``exact``, and each entry is one ``sum(map(mul, ...))``.
    """
    rows = _even_binomials(len(first) - 1)
    top = len(first) if top is None else top
    table = [[1]]
    # by_power[m] holds entry [i][m] for i = m, m + 1, ... of the columns built so far.
    by_power = [[1]]
    for n in range(1, len(first)):
        weights = list(map(mul, rows[n][:n], first[n:0:-1]))
        column = [0] * (min(n, top) + 1)
        for m in range(1, len(column)):
            column[m] = _exact_div(sum(map(mul, weights[m - 1 :], by_power[m - 1])), rows[m][1])
        for entries, value in zip(by_power, column):
            entries.append(value)
        if n <= top:
            by_power.append([column[n]])
        table.append(column)
    return table


def _power_weights(size: int, k: int) -> tuple[list[int], int]:
    """D / (2m + 1)^k for m = 0..size-1, and D, the lcm of those powers (1 when k <= 0)."""
    bases = [2 * m + 1 for m in range(size)]
    if k <= 0:
        return [base**-k for base in bases], 1
    denominator = lcm(*bases) ** k
    return [_exact_div(denominator, base**k) for base in bases], denominator


def _sum_over_powers(columns: Sequence[Sequence[int]], k: int) -> tuple[list[int], int]:
    """D times the sum over m of column[m] / (2m + 1)^k for each column, and D.

    The weights run as far as the longest column.
    """
    weights, denominator = _power_weights(max(map(len, columns)), k)
    return [sum(map(mul, column, weights)) for column in columns], denominator


def _formula_numerators(nmax: int, k: int) -> tuple[list[int], int]:
    """D C_{2n}^(k) for n = 0..nmax, and D: the weighted-sum recurrence of the module docstring.

    Row n holds S_n(j) for j = 0..nmax-n; no triangle entry is built.
    """
    sums, denominator = _power_weights(nmax + 1, k)
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


def arcsinh_power_egf(nmax: int, *, top: int | None = None) -> list[list[int]]:
    """P_m[n] = (2n)! [t^(2n)] (arcsinh t)^(2m) / (2m)!, as entry [n][m] for m <= n <= nmax.

    Built from the arcsinh coefficients alone; it equals (-4)^(n-m) [[n, m]]
    without reading the triangle. With ``top`` only the powers m <= top are
    built: row n is the full row n cut to m = 0..min(n, top). The default
    None builds every power.
    """
    if nmax < 0:
        raise ValueError(f"nmax must be >= 0, got {nmax}")
    if top is not None and top < 0:
        raise ValueError(f"top must be >= 0, got {top}")
    a = _arcsinh_egf(nmax)
    rows = _even_binomials(nmax)
    # (arcsinh t)^2 / 2: the product of two odd series lands on even indices.
    # Term i weighs a_i a_(n-1-i) by binom(2n, 2i+1) = binom(2n, 2i) (2n-2i) / (2i+1),
    # read off the shared rows. It equals term n - 1 - i, so the terms below
    # the middle count twice, and the middle term (n odd) once.
    square = [0]
    for n in range(1, nmax + 1):
        h = (n + 1) // 2
        odd = map(floordiv, map(mul, rows[n], range(2 * n, 2 * n - 2 * h, -2)), range(1, 2 * h, 2))
        terms = [*map(mul, map(mul, odd, a), a[n - h : n][::-1])]
        middle = terms.pop() if n % 2 else 0
        square.append(_exact_div(2 * sum(terms) + middle, 2))
    return _power_table(square, top)


def _formula_column(n: int, triangle: Level2Triangle) -> list[int]:
    """(-4)^(n-m) [[n, m]] for m = 0..n, as a shift by 2(n - m) bits and a sign."""
    return [-(v << 2 * (n - m)) if (n - m) % 2 else v << 2 * (n - m) for m, v in enumerate(triangle.row(n))]


def level2_by_formula(n: int, k: int = 1) -> Fraction:
    """C_{2n}^(k) via the level-2 triangle sum, read from a formula-route table. Exact for any integer k."""
    if n < 0:
        raise ValueError(f"index n must be >= 0, got {n}")
    return PolyCauchyTable.build(n, k).value(n, k)


def level2_by_series(n: int, k: int = 1) -> Fraction:
    """C_{2n}^(k) as the even EGF coefficient of lif2k(arcsinh t), read from a series-route table."""
    if n < 0:
        raise ValueError(f"index n must be >= 0, got {n}")
    return PolyCauchyTable.build(n, k, "series").value(n, k)


class PolyCauchyTable(NamedTuple):
    """C_{2n}^(k) for n = 0..nmax at one k, held as one route's integer numerators over D.

    ``build`` runs the kernel of its route, "formula" or "series", once; the
    record holds k and that pass, and ``value`` builds one Fraction on demand.
    A table never grows, so no table mixes the routes: a longer range or
    another k is another build.
    """

    k: int
    held: list[int]
    denominator: int

    @classmethod
    def build(cls, nmax: int, k: int = 1, route: str = "formula") -> "PolyCauchyTable":
        if nmax < 0:
            raise ValueError(f"nmax must be >= 0, got {nmax}")
        if route == "formula":
            return cls(k, *_formula_numerators(nmax, k))
        if route == "series":
            return cls(k, *_sum_over_powers(arcsinh_power_egf(nmax), k))
        raise ValueError(f"route must be 'formula' or 'series', got {route!r}")

    def _check(self, n: int, k: int) -> None:
        top = len(self.held) - 1 if k == self.k else -1
        if not 0 <= n <= top:
            raise ValueError(f"table holds n = 0..{top} for k = {k}, requested n = {n}")

    def value(self, n: int, k: int = 1) -> Fraction:
        self._check(n, k)
        return Fraction(self.held[n], self.denominator)

    def numerators(self, need: int, k: int = 1) -> tuple[list[int], int]:
        """C_{2m}^(k) for m = 0..need as integer numerators over D, the lcm of their denominators.

        That is the held pass divided by the gcd of D and every numerator read.
        """
        self._check(need, k)
        head = self.held[: need + 1]
        common = gcd(self.denominator, *head)
        return [x // common for x in head], self.denominator // common


class IntegralCheck(NamedTuple):
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


def _linear_products(last: int) -> list[list[int]]:
    """The stage-1 products (-1)^n prod over i < n of (z - 2i)(-z - 2i), for n = 0..last.

    With its sign, the pair for i is -(z - 2i)(-z - 2i) = z^2 - 4i^2, so each
    product is one quadratic step from the one before:
    P_(i+1)[j] = P_i[j-2] - 4i^2 P_i[j].
    """
    products = [[1]]
    for i in range(last):
        previous, square = products[-1], 4 * i * i
        products.append([a - square * b for a, b in zip([0, 0, *previous], [*previous, 0, 0])])
    return products


def _integral_stages(ns: range, ks: Iterable[int]) -> tuple[list[bool], dict[int, tuple[list[int], int]]]:
    """Stage 1 at each n in ``ns``, once per n; per k, D times stage 2's integral at each n, and D.

    Stage 1 compares with the triangle's rows, built by the recurrence to the
    last n, the binomial product expanded factor by factor:
    (-4)^n (n!)^2 binom(z/2, n) binom(-z/2, n) = (-4)^n prod (z/2 - i)(-z/2 - i)
    = (-1)^n prod (z - 2i)(-z - 2i), a product of integer linear factors.
    The products for n = 0..last are built once per call, each from the one
    before (``_linear_products``), and none is kept after it.
    Stage 2 integrates that product, which never read the triangle, termwise
    over the unit cube: z^j becomes 1/(j+1)^k, summed over one common
    denominator whose weights are built once per k. The k-fold integral is
    never evaluated numerically. Only the even powers z^(2m), with bases
    2m + 1, are summed: stage 1 compares every odd coefficient with 0.
    """
    triangle, products = level2_by_recurrence(ns[-1]), _linear_products(ns[-1])
    matches, evens = [], []
    for n in ns:
        product = products[n]
        expected = [0] * (2 * n + 1)
        expected[::2] = _formula_column(n, triangle)
        matches.append(product == expected)
        evens.append(product[::2])
    return matches, {k: _sum_over_powers(evens, k) for k in ks}


def integral_representation_check(n: int, k: int) -> IntegralCheck:
    """Both stages at (n, k): stage 1 reads the triangle to row n, stage 2 the formula route's C_{2n}^(k)."""
    if n < 0:
        raise ValueError(f"index n must be >= 0, got {n}")
    (polynomial_match,), integrals = _integral_stages(range(n, n + 1), (k,))
    (numerator,), denominator = integrals[k]
    integral_value = Fraction(numerator, denominator)
    reference_value = level2_by_formula(n, k)
    value_match = integral_value == reference_value
    return IntegralCheck(n, k, polynomial_match, value_match, integral_value, reference_value)
