"""Exact rational scalars and the small combinatorial functions built on them.

Everything in this package is an exact integer or rational; floats never
appear. Rationals are :class:`fractions.Fraction`, which keeps values
normalized (lowest terms, positive denominator, zero as 0/1). Their string
form is the canonical text format of the CLI's output: "p/q" in lowest
terms, plain "p" for integers, sign on the numerator; ``Fraction(text)``
parses it back.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import comb
from operator import floordiv, mul

__all__ = [
    "binomial",
    "harmonic",
    "rational_to_text",
]


def rational_to_text(value: Fraction | int) -> str:
    """Canonical text form of a rational: "p/q", or "p" when the value is integral."""
    return str(Fraction(value))


def binomial(n: int, j: int) -> int:
    """Binomial coefficient C(n, j) for n, j >= 0, with C(n, j) = 0 when j > n."""
    if n < 0 or j < 0:
        raise ValueError(f"binomial requires nonnegative arguments, got ({n}, {j})")
    return comb(n, j)


# Rows of binom(2n, 2i) for i = 0..n, grown lazily: _EVEN_BINOMIALS[n] is row n.
_EVEN_BINOMIALS: list[list[int]] = [[1]]


def _even_binomials(n: int) -> list[list[int]]:
    """The shared rows of binom(2n, 2i), grown through row n, built once per process.

    Row m comes from row m - 1 alone, and only its first half is computed:
    binom(2m, 2i) = binom(2m-2, 2i) 2m(2m-1) / ((2m-2i)(2m-2i-1)) for
    i = 0..m//2, each a big integer times and divided by a small one inside
    ``map``, and binom(2m, 2i) = binom(2m, 2m-2i) mirrors it into the full row.
    """
    rows = _EVEN_BINOMIALS
    while len(rows) <= n:
        m = len(rows)
        h = m // 2 + 1
        divisors = [(2 * m - 2 * i) * (2 * m - 2 * i - 1) for i in range(h)]
        half = [*map(floordiv, map(mul, rows[-1], repeat(2 * m * (2 * m - 1))), divisors)]
        rows.append(half + half[m - h :: -1])
    return rows


# Prefix sums of 1/i^k per order k, grown lazily: _HARMONIC[k][n] = H_n^(k).
_HARMONIC: dict[int, list[Fraction]] = {}


def harmonic(n: int, k: int = 1) -> Fraction:
    """Generalized harmonic number H_n^(k) = sum of 1/i^k for i = 1..n."""
    if k < 1:
        raise ValueError(f"harmonic order must be >= 1, got {k}")
    if n < 0:
        raise ValueError(f"harmonic index must be >= 0, got {n}")
    sums = _HARMONIC.setdefault(k, [Fraction(0)])
    while len(sums) <= n:
        sums.append(sums[-1] + Fraction(1, len(sums) ** k))
    return sums[n]
