"""Dense univariate polynomials over exact rationals.

Coefficient lists run low degree to high. The conjecture derivation builds
its integer polynomials with the private helpers, and the odd-fold sums
evaluate them with ``_poly_eval``. ``poly_eval`` is that Horner for callers
outside the package, so a traced run records no ``poly_eval`` per term, and
``poly_text`` prints the rational polynomials in the conjecture check's notes.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

__all__ = [
    "poly_eval",
    "poly_text",
]


def poly_eval(a: Sequence[Fraction | int], x: Fraction | int) -> Fraction | int:
    """Horner's rule; integer coefficients at an integer point give an int."""
    return _poly_eval(a, x)


def _poly_eval(a: Sequence[Fraction | int], x: Fraction | int) -> Fraction | int:
    """``poly_eval`` for the package's own per-term callers."""
    value = 0
    for coeff in reversed(a):
        value = value * x + coeff
    return value


def _poly_times_root(a: Sequence[int], c: int) -> list[int]:
    """a(x) (c - x), one degree higher."""
    return [c * hi - lo for hi, lo in zip([*a, 0], [0, *a])]


def _poly_divide_root(a: Sequence[int], i: int) -> list[int]:
    """a(x) / (x - i) by synthetic division; a nonzero remainder a(i) is an ArithmeticError."""
    quotient = [0] * (len(a) - 1)
    carry = a[-1]
    for j in range(len(a) - 2, -1, -1):
        quotient[j] = carry
        carry = a[j] + i * carry
    if carry:
        raise ArithmeticError(f"division by (x - {i}) is not exact: remainder {carry}")
    return quotient


def _poly_compose(a: Sequence[int], c0: int, c1: int) -> list[int]:
    """a(c0 + c1 x), by Horner's rule on coefficient lists."""
    value: list[int] = []
    for coeff in reversed(a):
        value = [c0 * lo + c1 * hi for lo, hi in zip([*value, 0], [0, *value])]
        value[0] += coeff
    return value


def poly_text(a: Sequence[Fraction]) -> str:
    """Readable form like "9 - 12*n + 4*n^2", low degree first; zero terms are left out, and only zero reads "0"."""
    pieces: list[str] = []
    for i, coeff in enumerate(a):
        if coeff == 0:
            continue
        magnitude = str(coeff).lstrip("-")
        if i == 0:
            term = magnitude
        else:
            power = "n" if i == 1 else f"n^{i}"
            term = power if magnitude == "1" else f"{magnitude}*{power}"
        if not pieces:
            pieces.append(term if coeff > 0 else f"-{term}")
        else:
            pieces.append(f"+ {term}" if coeff > 0 else f"- {term}")
    return " ".join(pieces) or "0"
