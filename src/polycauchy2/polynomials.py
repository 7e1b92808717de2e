"""Dense univariate polynomials over exact rationals.

Coefficient lists run low degree to high. The conjecture extraction
evaluates, trims and prints the rational polynomials its linear solve returns.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

__all__ = [
    "poly_eval",
    "poly_trim",
    "poly_degree",
    "poly_text",
]


def poly_eval(a: Sequence[Fraction | int], x: Fraction | int) -> Fraction | int:
    """Horner's rule; integer coefficients at an integer point give an int."""
    value = 0
    for coeff in reversed(a):
        value = value * x + coeff
    return value


def poly_trim(a: Sequence[Fraction]) -> list[Fraction]:
    """Drop trailing zero coefficients; the zero polynomial becomes []."""
    out = list(a)
    while out and out[-1] == 0:
        out.pop()
    return out


def poly_degree(a: Sequence[Fraction]) -> int:
    """Degree after trimming; the zero polynomial reports -1."""
    return len(poly_trim(a)) - 1


def poly_text(a: Sequence[Fraction], variable: str = "n") -> str:
    """Readable form like "9 - 12*n + 4*n^2", low degree first."""
    trimmed = poly_trim(a)
    if not trimmed:
        return "0"
    pieces: list[str] = []
    for i, coeff in enumerate(trimmed):
        if coeff == 0:
            continue
        magnitude = str(coeff).lstrip("-")
        if i == 0:
            term = magnitude
        else:
            power = variable if i == 1 else f"{variable}^{i}"
            term = power if magnitude == "1" else f"{magnitude}*{power}"
        if not pieces:
            pieces.append(term if coeff > 0 else f"-{term}")
        else:
            pieces.append(f"+ {term}" if coeff > 0 else f"- {term}")
    return " ".join(pieces)
