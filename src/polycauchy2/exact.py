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
from math import comb

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
