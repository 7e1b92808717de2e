"""Exact rational scalars, the small combinatorial functions built on them, and the exact solve.

Everything in this package is an exact integer or rational; floats never
appear. Rationals are :class:`fractions.Fraction`, which keeps values
normalized (lowest terms, positive denominator, zero as 0/1). Their string
form is the canonical text format of the CLI's output: "p/q" in lowest
terms, plain "p" for integers, sign on the numerator; ``Fraction(text)``
parses it back.

``_solve_exact`` solves a square rational system on integers modulo primes
and certifies the answer exactly; nothing it returns rests on modular
arithmetic alone.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import comb, gcd, isqrt, lcm, prod
from operator import floordiv, mul
from typing import Iterator, Sequence

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


# -- the exact linear solve ------------------------------------------------------------


def _is_prime(n: int) -> bool:
    """Miller-Rabin for odd n > 3 below 2^64, with J. Sinclair's seven bases, which decide that range exactly."""
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for a in (2, 325, 9375, 28178, 450775, 9780504, 1795265022):
        x = pow(a, d, n)
        if x in (0, 1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _solve_primes() -> Iterator[int]:
    """The solve's moduli: every prime p <= 2^61 - 1 in decreasing order.

    The first, 2^61 - 1, is the Mersenne prime M61 and is yielded untested;
    each later one is the next odd number down that ``_is_prime`` accepts.
    """
    yield (1 << 61) - 1
    candidate = (1 << 61) - 3
    while True:
        if _is_prime(candidate):
            yield candidate
        candidate -= 2


def _primitive(values: Sequence[int | Fraction]) -> list[int]:
    """The row scaled to integers by the lcm of its denominators, then divided by the gcd of its entries."""
    scale = lcm(*(v.denominator for v in values))
    integers = [v.numerator * (scale // v.denominator) for v in values]
    content = gcd(*integers) or 1
    return [v // content for v in integers]


def _norm_bound(values: Sequence[int]) -> int:
    """An integer above the Euclidean norm of the values."""
    return isqrt(sum(v * v for v in values)) + 1


def _solve_mod(rows: list[list[int]], p: int) -> list[int] | None:
    """The solution of the augmented integer rows modulo the prime p, or None when a pivot is 0 mod p."""
    rows = [[v % p for v in row] for row in rows]
    size = len(rows)
    for col in range(size):
        sel = next((i for i in range(col, size) if rows[i][col]), None)
        if sel is None:
            return None
        rows[col], rows[sel] = rows[sel], rows[col]
        inverse = pow(rows[col][col], -1, p)
        pivot = [v * inverse % p for v in rows[col][col:]]
        rows[col][col:] = pivot
        for i, row in enumerate(rows):
            f = row[col]
            if f and i != col:
                row[col:] = [(a - f * b) % p for a, b in zip(row[col:], pivot)]
    return [row[-1] for row in rows]


def _rational_reconstruction(residue: int, modulus: int, bound: int) -> Fraction | None:
    """The fraction a/b with |a|, b <= bound and a = b residue mod modulus, or None.

    Wang's method: the extended Euclidean algorithm on (modulus, residue),
    stopped at the first remainder within the bound. While 2 bound^2 < modulus
    there is at most one such fraction, and this finds it.
    """
    r0, r1, t0, t1 = modulus, residue % modulus, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if t1 == 0 or abs(t1) > bound:
        return None
    return Fraction(r1, t1)


def _satisfies(rows: list[list[int]], candidate: list[Fraction]) -> bool:
    """Whether the candidate solves every augmented integer row exactly, over its common denominator."""
    common = lcm(*(x.denominator for x in candidate))
    scaled = [x.numerator * (common // x.denominator) for x in candidate]
    return all(sum(map(mul, row, scaled)) == row[-1] * common for row in rows)


def _solve_exact(matrix: Sequence[Sequence[int | Fraction]], rhs: Sequence[int | Fraction]) -> list[Fraction]:
    """The unique solution of a square rational system, certified exactly.

    A multimodular solve (von zur Gathen & Gerhard, Modern Computer Algebra,
    ch. 5). Each augmented row is made primitive. For each prime of ``_solve_primes`` the
    rows are solved by Gauss-Jordan mod p; a prime at which a pivot is 0 divides
    det A, or det A = 0, and is skipped. The other primes' residues are combined
    by CRT, and after each prime every unknown is rationally reconstructed. A
    candidate is returned only if it satisfies every integer row exactly: a full
    set of pivots mod one prime proves det A != 0, so it is the unique solution.

    The system is singular once the primes at which it was singular multiply
    past the Hadamard bound of A, since |det A| is below it. Past the Cramer
    bound, twice the square of the augmented rows' Hadamard bound, reconstruction
    is unique, so a candidate that is missing or fails the check there is an
    ArithmeticError and is never returned.
    """
    rows = [_primitive([*row, value]) for row, value in zip(matrix, rhs)]
    hadamard = prod(_norm_bound(row[:-1]) for row in rows)
    cramer = 2 * prod(_norm_bound(row) for row in rows) ** 2
    residues, modulus, singular = [0] * len(rows), 1, 1
    for p in _solve_primes():
        solution = _solve_mod(rows, p)
        if solution is None:
            singular *= p
            if singular > hadamard:
                raise ArithmeticError("sample points produce a singular system; add or vary samples")
            continue
        step = pow(modulus, -1, p)
        residues = [x + modulus * ((s - x) * step % p) for x, s in zip(residues, solution)]
        modulus *= p
        bound = isqrt(modulus >> 1)
        candidate = [_rational_reconstruction(x, modulus, bound) for x in residues]
        if None not in candidate and _satisfies(rows, candidate):
            return candidate
        if modulus > cramer:
            raise ArithmeticError("exact solve: no candidate satisfies every row within the Cramer bound")
    raise ArithmeticError("exact solve: the primes ran out before the Cramer bound")
