"""Ordinary coefficients of the package's builtin power series.

:func:`builtin_series` returns the coefficients c[0..order] of a named
expansion in t as a tuple of :class:`fractions.Fraction`; ``polycauchy2
series`` prints them. The names are arcsinh, the polylogarithm factorials
lif_k and their level-2 variant lif2k, log(1+t), the three powers
(1+t^2)^(e/2) for e = 1, -1, -3, and L(t) = t/arcsinh(t).

Each expansion is a closed-form coefficient generator. L(t) is lif2k at
k = 1 composed with arcsinh, so its even EGF coefficients are the
poly-Cauchy numbers C_{2n}^(1); they are read from one series-route
``PolyCauchyTable``, built once to order // 2, never from the triangle.
The package does no power-series arithmetic: the identities on L are
checked as convolution sweeps in ``convolution.py``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from math import factorial

from .polycauchy import PolyCauchyTable

__all__ = ["builtin_series", "BUILTIN_SERIES_NAMES"]


def _sign(e: int) -> int:
    return -1 if e % 2 else 1


def _arcsinh(order: int) -> tuple[Fraction, ...]:
    coeffs = [Fraction(0)] * (order + 1)
    for j in range(0, (order - 1) // 2 + 1):
        coeffs[2 * j + 1] = Fraction(
            _sign(j) * factorial(2 * j), 4**j * factorial(j) ** 2 * (2 * j + 1)
        )
    return tuple(coeffs)


def _log1p(order: int) -> tuple[Fraction, ...]:
    coeffs = [Fraction(0)] * (order + 1)
    for m in range(1, order + 1):
        coeffs[m] = Fraction(_sign(m - 1), m)
    return tuple(coeffs)


def _lif_k(order: int, k: int) -> tuple[Fraction, ...]:
    coeffs = [Fraction(1, factorial(m)) * Fraction(m + 1) ** (-k) for m in range(order + 1)]
    return tuple(coeffs)


def _lif2_k(order: int, k: int) -> tuple[Fraction, ...]:
    coeffs = [Fraction(0)] * (order + 1)
    for m in range(0, order // 2 + 1):
        coeffs[2 * m] = Fraction(1, factorial(2 * m)) * Fraction(2 * m + 1) ** (-k)
    return tuple(coeffs)


def _root_power(e: int, order: int) -> tuple[Fraction, ...]:
    # (1+t^2)^(e/2): the coefficient of t^(2j) is binom(e/2, j), kept as a
    # running product binom(e/2, j+1) = binom(e/2, j) (e/2 - j) / (j+1).
    coeffs = [Fraction(0)] * (order + 1)
    term = Fraction(1)
    for j in range(0, order // 2 + 1):
        coeffs[2 * j] = term
        term = term * (Fraction(e, 2) - j) / (j + 1)
    return tuple(coeffs)


def _big_l(order: int) -> tuple[Fraction, ...]:
    # L(t) = t / arcsinh(t) = lif2k(arcsinh t) at k = 1: C_{2n}^(1) / (2n)! at t^(2n).
    table = PolyCauchyTable.build(order // 2, route="series")
    coeffs = [Fraction(0)] * (order + 1)
    for n in range(order // 2 + 1):
        coeffs[2 * n] = table.value(n) / factorial(2 * n)
    return tuple(coeffs)


_PLAIN_BUILTINS = {
    "arcsinh": _arcsinh,
    "log1p": _log1p,
    "sqrt_1pt2": partial(_root_power, 1),
    "invsqrt_1pt2": partial(_root_power, -1),
    "inv32_1pt2": partial(_root_power, -3),
    "L": _big_l,
}

_PARAMETRIC_BUILTINS = {
    "lif_k": _lif_k,
    "lif2k": _lif2_k,
}

BUILTIN_SERIES_NAMES = tuple(sorted(_PLAIN_BUILTINS)) + tuple(sorted(_PARAMETRIC_BUILTINS))


def builtin_series(name: str, order: int, k: int | None = None) -> tuple[Fraction, ...]:
    """The ordinary coefficients c[0..order] of a named builtin expansion.

    The lif_k and lif2k families require the integer parameter k (any sign);
    the other names reject it.
    """
    if order < 0:
        raise ValueError(f"series order must be >= 0, got {order}")
    if name in _PARAMETRIC_BUILTINS:
        if k is None:
            raise ValueError(f"builtin series {name!r} requires the parameter k")
        return _PARAMETRIC_BUILTINS[name](order, k)
    if name in _PLAIN_BUILTINS:
        if k is not None:
            raise ValueError(f"builtin series {name!r} takes no parameter k")
        return _PLAIN_BUILTINS[name](order)
    raise ValueError(f"unknown builtin series {name!r}; known: {', '.join(BUILTIN_SERIES_NAMES)}")
