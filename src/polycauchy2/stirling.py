"""Stirling numbers of the first kind, their level-2 variant, and central factorials.

The classical unsigned numbers [n, m] count permutations by cycles and obey
[n, m] = [n-1, m-1] + (n-1) [n-1, m]. The level-2 variant [[n, m]] replaces
the factor (n-1) by (n-1)^2; equivalently [[n, m]] is the coefficient of x^m
in x (x + 1^2)(x + 2^2) ... (x + (n-1)^2), or the elementary symmetric sum of
squares e_{n-m}(1^2, ..., (n-1)^2). The routes, checked against each other:

  * the recurrence, the one row kernel for every view of the triangle;
  * brute-force enumeration of the symmetric sums (n <= 20 in the tests);
  * a signed combination of products of classical numbers, whose rows come
    from the classical recurrence in a loop of its own, not the level-2 kernel;
  * the closed forms of columns and diagonals (``closed_form_fixtures``);
  * in the tests, the product above multiplied out by a balanced product tree.

The signed view t(2n, 2m) = (-1)^(n-m) [[n, m]], the central factorial
numbers of even indices, is built by the same row kernel as ``stirling2 --signed``.

All entries are exact integers. Every function builds the rows it reads on
each call, and nothing is kept between calls. ``stirling2`` runs the
recurrence over trapped ``decimal.Decimal``, whose base-10^19 digits print in
linear time (``str`` of a binary int is quadratic; Knuth, TAOCP Vol. 2, 4.4).
It first checks that the sum of the last row fits the precision, which bounds
every entry, then computes and renders one row at a time. ``_decimal_rows``
yields those rows as ``Decimal`` before rendering, whole or cut to columns
m < W, a recurrence of its own, so that ``stirling2`` can split them by columns.
"""

from __future__ import annotations

import decimal
from fractions import Fraction
from itertools import accumulate, combinations
from math import factorial, prod
from typing import Callable, Iterator, NamedTuple

from .exact import binomial, harmonic

__all__ = [
    "Level2Triangle",
    "CentralFactorialTriangle",
    "stirling1",
    "level2_by_recurrence",
    "level2_text_rows",
    "level2_by_symmetric_sum",
    "level2_by_classical_combination",
    "central_factorial_triangle",
    "FormulaCheck",
    "closed_form_fixtures",
]


class _Triangle:
    """Rows of integers indexed by (n, m); indices outside the triangle read 0."""

    def __init__(self, rows: list[list[int]]):
        self._rows = rows

    @property
    def nmax(self) -> int:
        return len(self._rows) - 1

    def row(self, n: int) -> tuple[int, ...]:
        if not 0 <= n <= self.nmax:
            raise ValueError(f"row {n} not built (have 0..{self.nmax})")
        return tuple(self._rows[n])

    def value(self, n: int, m: int) -> int:
        if n < 0 or m < 0 or m > n:
            return 0
        if n > self.nmax:
            raise ValueError(f"row {n} not built (have 0..{self.nmax})")
        return self._rows[n][m]


def _classical_rows(nmax: int) -> list[list[int]]:
    """Rows 0..nmax of [n, m] by [n, m] = [n-1, m-1] + (n-1) [n-1, m], a loop of its own, not the level-2 kernel."""
    rows = [[1]]
    for n in range(1, nmax + 1):
        prev = rows[-1]
        rows.append([0, *[a + (n - 1) * b for a, b in zip(prev, prev[1:])], prev[-1]])
    return rows


def stirling1(n: int, m: int) -> int:
    """Unsigned [n, m], from rows 0..n built for this call; any index outside the triangle returns 0."""
    if n < 0 or m < 0 or m > n:
        return 0
    return _classical_rows(n)[n][m]


class Level2Triangle(_Triangle):
    """The [[n, m]] triangle; rows 0..nmax, all entries nonnegative integers."""


def _level2_row(prev: list, factor) -> list:
    """Row n of the triangle from row n - 1 alone, with the factor (n-1)^2 (negated if signed)."""
    return [0, *[a + factor * b for a, b in zip(prev, prev[1:])], prev[-1]]


def _recurrence_rows(nmax: int, sign: int) -> list[list[int]]:
    """Rows 0..nmax of the recurrence with the factor sign * (n-1)^2."""
    if nmax < 0:
        raise ValueError(f"nmax must be >= 0, got {nmax}")
    rows = [[1]]
    for n in range(1, nmax + 1):
        rows.append(_level2_row(rows[-1], sign * (n - 1) ** 2))
    return rows


def level2_by_recurrence(nmax: int) -> Level2Triangle:
    """Build [[n, m]] rows via [[n, m]] = [[n-1, m-1]] + (n-1)^2 [[n-1, m]]."""
    return Level2Triangle(_recurrence_rows(nmax, 1))


def _row_sum(n: int) -> decimal.Decimal:
    """x (x + 1^2) ... (x + (n-1)^2) at x = 1, the sum of row n, in the current context."""
    return prod((1 + i * i for i in range(1, n)), start=decimal.Decimal(1))


def _exactly(context: decimal.Context, step: Callable, *args):
    """``step(*args)`` in a copy of ``context``; a trapped rounding becomes an ArithmeticError."""
    try:
        with decimal.localcontext(context):
            return step(*args)
    except decimal.DecimalException as exc:
        raise ArithmeticError(f"[[n, m]] text: decimal arithmetic rounded ({exc})") from exc


def _decimal_rows(nmax: int, signed: bool, cut: int | None = None) -> Iterator[list[decimal.Decimal]]:
    """Rows 0..nmax of [[n, m]], or of (-1)^(n-m) [[n, m]] if signed, as exact ``decimal.Decimal``.

    The bound check runs on this call; the iterator returned holds one row,
    cut to columns m < cut if given, computed from the one before, traps on.
    """
    if nmax < 0:
        raise ValueError(f"nmax must be >= 0, got {nmax}")
    context = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
    context.traps[decimal.Inexact] = context.traps[decimal.Rounded] = True
    _exactly(context, _row_sum, nmax)
    sign = -1 if signed else 1
    return accumulate(
        range(1, nmax + 1),
        lambda row, n: _exactly(context, _level2_row, row, decimal.Decimal(sign * (n - 1) ** 2))[:cut],
        initial=[decimal.Decimal(1)],
    )


def level2_text_rows(nmax: int, signed: bool = False) -> Iterator[list[str]]:
    """Rows 0..nmax of [[n, m]], or of (-1)^(n-m) [[n, m]] if signed, as decimal text.

    The arithmetic is ``decimal.Decimal`` at precision ``decimal.MAX_PREC``
    with Inexact and Rounded trapped. No entry of rows 0..nmax, nor either
    term of the recurrence (the two have one sign), exceeds the sum of row
    nmax, so this call raises ``ArithmeticError`` if that sum rounds, even
    when every entry would fit. The iterator returned then computes each row
    from the one before, traps still on, and holds one row and its text.
    """
    return (list(map(str, row)) for row in _decimal_rows(nmax, signed))


def level2_by_symmetric_sum(n: int, m: int) -> int:
    """[[n, m]] as the sum of (i_1 ... i_{n-m})^2 over 1 <= i_1 < ... < i_{n-m} <= n-1.

    Deliberate brute force over subsets; exponential in n and intended as an
    independent cross-check for small n, not for production use.
    """
    if n < 0 or m < 0:
        raise ValueError(f"indices must be >= 0, got ({n}, {m})")
    if m > n:
        return 0
    if m == 0:
        return 1 if n == 0 else 0
    total = 0
    for subset in combinations(range(1, n), n - m):
        total += prod(subset) ** 2
    return total


def level2_by_classical_combination(n: int, m: int) -> int:
    """[[n, m]] from classical numbers: [n,m]^2 + sum over d >= 1 of 2(-1)^d [n,m-d][n,m+d].

    The sum stops once m - d < 1; classical entries outside the triangle are 0.
    """
    if n < 1 or m < 1:
        raise ValueError(f"this route needs n, m >= 1, got ({n}, {m})")
    value = _Triangle(_classical_rows(n)).value
    total = value(n, m) ** 2
    for d in range(1, m):
        term = value(n, m - d) * value(n, m + d)
        total += 2 * term if d % 2 == 0 else -2 * term
    return total


class CentralFactorialTriangle(_Triangle):
    """Central factorial numbers t(2n, 2m), stored at index (n, m)."""


def central_factorial_triangle(nmax: int) -> CentralFactorialTriangle:
    """t(2n, 2m), the coefficient of y^m in y (y - 1^2) ... (y - (n-1)^2), or (-1)^(n-m) [[n, m]].

    Built by the recurrence with the factor -(n-1)^2.
    """
    return CentralFactorialTriangle(_recurrence_rows(nmax, -1))


# -- closed-form fixtures ---------------------------------------------------------


class FormulaCheck(NamedTuple):
    """Outcome of sweeping one closed form over 1 <= n <= nmax."""

    name: str
    ok: bool
    first_failure: tuple[int, Fraction, Fraction] | None  # (n, formula, triangle)


# Each entry is (name, m_of_n, formula). m_of_n maps n to the column checked,
# so diagonals use n - d and small-m forms use a constant column.
_CLASSICAL_FORMULAS: list[tuple[str, Callable[[int], int], Callable[[int], Fraction]]] = [
    ("[n,n]", lambda n: n, lambda n: Fraction(1)),
    ("[n,n-1]", lambda n: n - 1, lambda n: Fraction(binomial(n, 2))),
    ("[n,n-2]", lambda n: n - 2, lambda n: Fraction(3 * n - 1, 4) * binomial(n, 3)),
    ("[n,n-3]", lambda n: n - 3, lambda n: Fraction(binomial(n, 2) * binomial(n, 4))),
    (
        "[n,n-4]",
        lambda n: n - 4,
        lambda n: Fraction(15 * n**3 - 30 * n**2 + 5 * n + 2, 48) * binomial(n, 5),
    ),
    (
        "[n,n-5]",
        lambda n: n - 5,
        lambda n: Fraction(3 * n**2 - 7 * n - 2, 8) * binomial(n, 2) * binomial(n, 6),
    ),
    (
        "[n,n-6]",
        lambda n: n - 6,
        lambda n: Fraction(63 * n**5 - 315 * n**4 + 315 * n**3 + 91 * n**2 - 42 * n - 16, 576)
        * binomial(n, 7),
    ),
    ("[n,1]", lambda n: 1, lambda n: Fraction(factorial(n - 1))),
    ("[n,2]", lambda n: 2, lambda n: factorial(n - 1) * harmonic(n - 1, 1)),
]

_LEVEL2_FORMULAS: list[tuple[str, Callable[[int], int], Callable[[int], Fraction]]] = [
    ("[[n,1]]", lambda n: 1, lambda n: Fraction(factorial(n - 1) ** 2)),
    ("[[n,2]]", lambda n: 2, lambda n: factorial(n - 1) ** 2 * harmonic(n - 1, 2)),
    (
        "[[n,3]]",
        lambda n: 3,
        lambda n: factorial(n - 1) ** 2 * (harmonic(n - 1, 2) ** 2 - harmonic(n - 1, 4)) / 2,
    ),
    ("[[n,n]]", lambda n: n, lambda n: Fraction(1)),
    ("[[n,n-1]]", lambda n: n - 1, lambda n: Fraction(binomial(2 * n, 3), 4)),
    ("[[n,n-2]]", lambda n: n - 2, lambda n: Fraction(5 * n + 1, 24) * binomial(2 * n, 5)),
    (
        "[[n,n-3]]",
        lambda n: n - 3,
        lambda n: Fraction(35 * n**2 + 21 * n + 4, 144) * binomial(2 * n, 7),
    ),
    (
        "[[n,n-4]]",
        lambda n: n - 4,
        lambda n: Fraction((5 * n + 2) * (35 * n**2 + 28 * n + 9), 480) * binomial(2 * n, 9),
    ),
    (
        "[[n,n-5]]",
        lambda n: n - 5,
        lambda n: Fraction(385 * n**4 + 770 * n**3 + 671 * n**2 + 286 * n + 48, 576)
        * binomial(2 * n, 11),
    ),
]


def closed_form_fixtures(nmax: int) -> list[FormulaCheck]:
    """Sweep every closed form against the triangles, built by the recurrences, for 1 <= n <= nmax.

    Covers the seven classical diagonals [n,n]..[n,n-6], the classical
    small-m forms [n,1] and [n,2], the level-2 small-m forms with
    generalized harmonic numbers, and the six level-2 diagonals. Columns
    that fall outside a triangle compare against 0, which the vanishing
    binomial factors reproduce.
    """
    if nmax < 1:
        raise ValueError(f"nmax must be >= 1, got {nmax}")
    triangle = level2_by_recurrence(nmax)
    classical = _Triangle(_classical_rows(nmax))

    checks: list[FormulaCheck] = []
    for lookup, formulas in (
        (classical.value, _CLASSICAL_FORMULAS),
        (triangle.value, _LEVEL2_FORMULAS),
    ):
        for name, column, formula in formulas:
            failure = None
            for n in range(1, nmax + 1):
                expected = formula(n)
                actual = Fraction(lookup(n, column(n)))
                if expected != actual:
                    failure = (n, expected, actual)
                    break
            checks.append(FormulaCheck(name, failure is None, failure))
    return checks
