"""Poly-Cauchy numbers with level 2, by two independent routes.

The numbers C_{2n}^(k) are defined through lif2k composed with arcsinh: the
even EGF coefficients of that composition. They also satisfy the finite sum

    C_{2n}^(k) = sum over m = 1..n of (-4)^(n-m) [[n, m]] / (2m+1)^k

with C_0^(k) = 1, where [[n, m]] is the level-2 triangle. Both routes are
implemented and checked against each other; the index parameter k may be
any integer, including zero and negatives. Odd EGF coefficients of the
composition vanish identically, which is asserted by tests rather than
assumed here.

Classical (level 1) poly-Cauchy numbers c_n^(k) are included as comparators:
a signed Stirling sum and the lif_k(log(1+t)) series route.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .exact import rational_to_text
from .polynomials import poly_mul, poly_scale
from .series import Series, builtin_series
from .stirling import Level2Triangle, level2_by_recurrence, stirling1

__all__ = [
    "level2_by_formula",
    "level2_by_series",
    "level1_by_formula",
    "level1_by_series",
    "PolyCauchyTable",
    "IntegralCheck",
    "integral_representation_check",
    "DEFAULT_SERIES_ORDER",
    "composition_series",
]

DEFAULT_SERIES_ORDER = 40


def level2_by_formula(n: int, k: int = 1, triangle: Level2Triangle | None = None) -> Fraction:
    """C_{2n}^(k) via the level-2 triangle sum. Exact for any integer k."""
    if n < 0:
        raise ValueError(f"index n must be >= 0, got {n}")
    if n == 0:
        return Fraction(1)
    if triangle is None or triangle.nmax < n:
        triangle = level2_by_recurrence(n)
    total = Fraction(0)
    for m in range(1, n + 1):
        total += Fraction(-4) ** (n - m) * triangle.value(n, m) * Fraction(2 * m + 1) ** (-k)
    return total


def composition_series(k: int, order: int) -> Series:
    return builtin_series("lif2k", order, k=k).compose(builtin_series("arcsinh", order))


def level2_by_series(n: int, k: int = 1, order: int | None = None) -> Fraction:
    """C_{2n}^(k) as the even EGF coefficient of lif2k(arcsinh t).

    An explicit order below 2n is rejected; when omitted, the order is grown
    to cover the request.
    """
    if n < 0:
        raise ValueError(f"index n must be >= 0, got {n}")
    if order is None:
        order = max(DEFAULT_SERIES_ORDER, 2 * n)
    elif order < 2 * n:
        raise ValueError(f"order {order} cannot determine the coefficient at t^{2 * n}")
    return composition_series(k, order).egf_even_coefficient(n)


def level1_by_formula(n: int, k: int = 1) -> Fraction:
    """Classical poly-Cauchy c_n^(k) = sum of (-1)^(n-m) [n, m] / (m+1)^k."""
    if n < 0:
        raise ValueError(f"index n must be >= 0, got {n}")
    total = Fraction(0)
    for m in range(n + 1):
        sign = -1 if (n - m) % 2 else 1
        total += sign * stirling1(n, m) * Fraction(m + 1) ** (-k)
    return total


def level1_by_series(n: int, k: int = 1, order: int | None = None) -> Fraction:
    """Classical poly-Cauchy c_n^(k) as the EGF coefficient of lif_k(log(1+t))."""
    if n < 0:
        raise ValueError(f"index n must be >= 0, got {n}")
    if order is None:
        order = max(DEFAULT_SERIES_ORDER, n)
    elif order < n:
        raise ValueError(f"order {order} cannot determine the coefficient at t^{n}")
    composed = builtin_series("lif_k", order, k=k).compose(builtin_series("log1p", order))
    return composed.egf_coefficient(n)


@dataclass
class PolyCauchyTable:
    """Computed C_{2n}^(k) values keyed by (n, k), with their route of origin.

    Rows are filled contiguously from n = 0 per k, so ``max_n`` is a reliable
    range statement for consumers that sweep.
    """

    entries: dict[tuple[int, int], Fraction] = field(default_factory=dict)
    provenance: dict[tuple[int, int], str] = field(default_factory=dict)
    _max_n: dict[int, int] = field(default_factory=dict)

    @classmethod
    def build(cls, nmax: int, k: int = 1, route: str = "formula") -> "PolyCauchyTable":
        table = cls()
        table.ensure(nmax, k=k, route=route)
        return table

    def ensure(self, nmax: int, k: int = 1, route: str = "formula") -> None:
        """Fill entries (0..nmax, k) using the given route, reusing what exists."""
        if route not in ("formula", "series"):
            raise ValueError(f"route must be 'formula' or 'series', got {route!r}")
        start = self._max_n.get(k, -1) + 1
        if start > nmax:
            return
        if route == "formula":
            triangle = level2_by_recurrence(nmax)
            for n in range(start, nmax + 1):
                self._store(n, k, level2_by_formula(n, k, triangle), route)
        else:
            composed = composition_series(k, max(DEFAULT_SERIES_ORDER, 2 * nmax))
            for n in range(start, nmax + 1):
                self._store(n, k, composed.egf_even_coefficient(n), route)

    def _store(self, n: int, k: int, value: Fraction, route: str) -> None:
        self.entries[(n, k)] = value
        self.provenance[(n, k)] = route
        self._max_n[k] = max(self._max_n.get(k, -1), n)

    def max_n(self, k: int = 1) -> int:
        """Largest contiguous n stored for this k, or -1 when empty."""
        return self._max_n.get(k, -1)

    def value(self, n: int, k: int = 1) -> Fraction:
        try:
            return self.entries[(n, k)]
        except KeyError:
            raise ValueError(
                f"table holds n = 0..{self.max_n(k)} for k = {k}, requested n = {n}"
            ) from None


@dataclass(frozen=True)
class IntegralCheck:
    """Two-stage exact reduction of the k-fold integral representation.

    Stage 1 establishes the polynomial identity behind the representation:
    (-4)^n (n!)^2 binom(z/2, n) binom(-z/2, n), expanded directly from its
    linear factors, must equal sum over m of (-4)^(n-m) [[n, m]] z^(2m).
    Stage 2 integrates the expanded product, not the triangle side, termwise
    over the unit cube in k variables (each monomial (x_1...x_k)^j
    contributes 1/(j+1)^k) and compares the result with the triangle-sum
    route, so a wrong triangle entry fails both stages. Failed stages are
    recorded, never raised.
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


def integral_representation_check(n: int, k: int, triangle: Level2Triangle | None = None) -> IntegralCheck:
    if n < 0:
        raise ValueError(f"index n must be >= 0, got {n}")
    if triangle is None or triangle.nmax < n:
        triangle = level2_by_recurrence(n)

    # Stage 1: expand the binomial product from scratch, factor by factor.
    # (n!)^2 binom(z/2, n) binom(-z/2, n) = prod (z/2 - i) * prod (-z/2 - i).
    left = [Fraction(1)]
    right = [Fraction(1)]
    for i in range(n):
        left = poly_mul(left, [Fraction(-i), Fraction(1, 2)])
        right = poly_mul(right, [Fraction(-i), Fraction(-1, 2)])
    product = poly_scale(poly_mul(left, right), Fraction(-4) ** n)

    expected = [Fraction(0)] * (2 * n + 1)
    for m in range(n + 1):
        expected[2 * m] = Fraction(-4) ** (n - m) * triangle.value(n, m)
    width = max(len(product), len(expected))
    product += [Fraction(0)] * (width - len(product))
    expected += [Fraction(0)] * (width - len(expected))
    polynomial_match = product == expected

    # Stage 2: integrate the stage-1 product, which never read the triangle,
    # termwise over the unit cube: z^j becomes 1/(j+1)^k. The k-fold
    # integral is never evaluated numerically.
    integral_value = sum(
        (c * Fraction(j + 1) ** (-k) for j, c in enumerate(product) if c), Fraction(0)
    )
    reference_value = level2_by_formula(n, k, triangle)
    value_match = integral_value == reference_value

    return IntegralCheck(n, k, polynomial_match, value_match, integral_value, reference_value)
