"""Multinomial convolutions of the level-2 sequence and the identity checks on them.

The k-fold convolution with offsets (j_1, ..., j_k) at index n is

    sum over i_1 + ... + i_k = n of (2n)! / ((2 i_1)! ... (2 i_k)!)
        * C_{2 i_1 + 2 j_1} * ... * C_{2 i_k + 2 j_k}

over a table of exact values; it is the left-hand side of every closed-form
check. ``convolution_sweep`` evaluates it for every n = 0..N in one pass, as
binary EGF products in t^2: factor j is the sequence i -> C_{2i+2j}, and two
sequences a, b combine into c_n = sum over i of binom(2n, 2i) a_i b_{n-i}.
The coefficient (2n)! / ((2 i_1)! ... (2 i_k)!) is a product of such
binomials, and the product commutes and associates, so any grouping gives
exactly the defining sum. The sweep groups equal offsets: it raises each
distinct offset's sequence to its multiplicity by square-and-multiply
(Knuth, TAOCP Vol. 2, 4.6.3), then multiplies the groups. A square computes
each product of two entries once: terms i and n - i multiply the same two
under the same binomial, so it doubles the sum of the terms below the middle
and adds the middle term when n is even. The 7-fold convolution is thus 4
products, 2 of them squares, instead of 6. Two distinct offsets a < b make
one shifted square: from a, term i of index n multiplies entries i and
n + (b - a) - i, so terms i and n + (b - a) - i pair under the sum of their
two binomials, and only the b - a terms whose mirror lies past n are summed
alone.

The right-hand sides are sweeps too: each returns its closed form at every
n of a range in one call. Both sides run on integers (Knuth, TAOCP Vol. 2,
4.7). A sweep reads the C_{2m} it needs from the table once, as integer
numerators over D, the lcm of their denominators
(``PolyCauchyTable.numerators``). The left sweep multiplies those integers
and returns them over D^k; its products and sums run inside ``map`` and
``sum`` over row n of the rows of binom(2n, 2i) that ``exact`` builds once
per process, each from its first half, for it and the series route. The
closed forms of Theorems 2-4 and 6 weight C_{2l}, up to a small factor, by
(2n)! (-1)^j (2j-3)!! / ((2l)! 2^j j!) = (2n)! v_j / ((2l)! 4^j) for
j = n - l, where -sqrt(1+4u) = sum of v_j u^j has the small coefficients
-1, -2, 2, -4, 10, -28, ... (Concrete Mathematics, 5.4 and 7.5). ``_root_sums`` makes each an ordinary product,
one big integer times a small one per term, that reads no binomial row. The
other closed forms are a few terms per n. Each returns an integer numerator
and denominator per n, and neither side builds a Fraction.

The test suite holds the oracles: ``brute_force_convolution`` enumerates the
defining sum term by term, and the ``paper_rhs_*`` functions evaluate the
paper's right-hand sides as written, one Fraction per term
(``tests/test_convolution.py``).

``verify_identity`` sweeps a named identity over a range and reports per-n
equality without ever aborting on a failure. Each check builds its own
inputs from nmax alone, and every row compares integer sides a / d and
b / e as a e = b d (``CheckRow.of``), building a Fraction only to print.
``thm1`` (the formula route against the series route, k = -3..3) and
``cor1`` (the integral representation against the formula route, k = 1..3)
report at each n its first failing k, else k = 1. The two differential
equations for L(t) = t / arcsinh t, ``eqll`` and ``eqconvo02``, are
Theorems 2 and 3 read as power series: their checks compare the thm2 and
thm3 sides at t^(2n) with (2n)! in both denominators.

``extract_conjecture_polynomials`` gives the polynomials P_{r,2k}(n) in the
ansatz

    (2r+1)-fold convolution at n =
        sum over k = 0..r of P_{r,2k}(n) binom(2n, 2k) binom(2n-2k-1, 2r-2k)
            * C_{2n-2k}

for every n >= 0, binom(2n-2k-1, 2r-2k) read as a polynomial in n. They are
derived, not fitted: with theta = t d/dt, Theorem 2 reads L^2 =
sqrt(1+t^2)(1 - theta)L, two of its steps take L^(2i-1) to L^(2i+1) by an
operator with integer polynomial coefficients, and the product of r such
operators, divided exactly by the falling factorial of binom(2n-2k-1, 2r-2k),
is each P (``_derive_conjecture``), on integers, reading no C value. One
evaluator sums the ansatz on integers (``_odd_fold_sums``): ``fold5`` and
``fold7`` sweep it at r = 2 and 3, and ``verify conjecture-r<R>`` compares it,
on ``extract_conjecture_polynomials``, with the sweep at the fixed samples
n = r + 1..r + (r+1)(r+2) + 3 (``default_conjecture_samples``). The
derivation and the evaluator call no public function: binomials come from
``math.comb`` and ``_prefactor``, and each P from the private Horner
``_poly_eval``, so a traced call records every public function once, at the
stage it enters.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial, reduce
from itertools import accumulate
from math import comb, factorial, gcd, lcm
from operator import add, mul
from typing import Callable, Iterable, NamedTuple, Sequence

# thm1 and cor1 read the routes and stages through the module, so a patched one is the one that runs.
from . import polycauchy as _polycauchy
from .exact import _even_binomials
from .polynomials import _poly_compose, _poly_divide_root, _poly_eval, _poly_times_root, poly_text
from .polycauchy import _exact_div, PolyCauchyTable, arcsinh_power_egf
from .stirling import level2_by_recurrence

__all__ = [
    "convolution_sweep",
    "rhs_2fold_00",
    "rhs_2fold_01",
    "rhs_2fold_11",
    "rhs_3fold",
    "rhs_4fold",
    "rhs_5fold",
    "rhs_7fold",
    "CheckRow",
    "IdentityReport",
    "verify_identity",
    "IDENTITY_NAMES",
    "DEFAULT_NMAX",
    "ConjecturePolynomial",
    "extract_conjecture_polynomials",
]


# -- the integer view ------------------------------------------------------------


def _binomial_dot(n: int, xs: Iterable[int], ys: Iterable[int]) -> int:
    """The sum over i of binom(2n, 2i) x_i y_i, up to the shortest of the three rows.

    The binomials are row n of the shared rows of ``exact``, and every product
    and the sum run inside ``map`` and ``sum``. Callers pass ys reversed, for
    the binomial EGF product sum over i of binom(2n, 2i) a_i b_(n-i).
    """
    return sum(map(mul, map(mul, _even_binomials(n)[n], xs), ys))


# -- the convolution engine -------------------------------------------------------


def _egf_product(xs: Sequence[int], ys: Sequence[int], nmax: int) -> list[int]:
    """The binomial EGF product of xs and ys at n = 0..nmax."""
    return [_binomial_dot(n, xs, ys[n::-1]) for n in range(nmax + 1)]


def _egf_square(xs: Sequence[int], nmax: int, shift: int = 0) -> list[int]:
    """The sum over i <= n of binom(2n, 2i) xs_i xs_(n+shift-i) at n = 0..nmax, each product once.

    With m = n + shift, terms i and m - i multiply the same two entries. A term
    i < shift has its mirror past n, so those terms are summed on their own;
    each i with shift <= i < m/2 is paired with m - i under the one weight
    binom(2n, 2i) + binom(2n, 2m - 2i); the middle term is added when m is
    even and m/2 >= shift. Shift 0 is the square of xs, where the two
    binomials are equal, so the paired sum is taken with binom(2n, 2i) and
    doubled; shift b - a on xs[a:] is the product of the sequences from a
    and from b.
    """
    rows = _even_binomials(nmax)
    out = []
    for n in range(nmax + 1):
        m, row = n + shift, rows[n]
        h = (m + 1) // 2
        if shift:
            weights = map(add, row[shift:h], row[n : m - h : -1])
            total = _binomial_dot(n, xs[: min(shift, n + 1)], xs[m::-1])
            total += sum(map(mul, map(mul, weights, xs[shift:h]), xs[n : m - h : -1]))
        else:
            total = 2 * sum(map(mul, map(mul, row[:h], xs[:h]), xs[n : n - h : -1]))
        if m % 2 == 0 and m // 2 >= shift:
            total += row[m // 2] * xs[m // 2] ** 2
        out.append(total)
    return out


def _egf_power(xs: Sequence[int], exponent: int, nmax: int) -> list[int]:
    """xs to a binomial EGF power, by square-and-multiply (Knuth, TAOCP Vol. 2, 4.6.3)."""
    result = xs
    for bit in bin(exponent)[3:]:
        result = _egf_square(result, nmax)
        if bit == "1":
            result = _egf_product(result, xs, nmax)
    return result


def convolution_sweep(
    offsets: Sequence[int], nmax: int, table: PolyCauchyTable
) -> tuple[list[int], int]:
    """The convolution with these offsets at every n = 0..nmax, as integer numerators over D^(len(offsets)).

    The table must hold C_{2m} (k = 1), as numerators over D, for all m up to nmax + max(offsets).
    """
    offsets = tuple(offsets)
    if len(offsets) < 2:
        raise ValueError("a convolution needs at least two factors")
    if any(j < 0 for j in offsets):
        raise ValueError(f"offsets must be >= 0, got {offsets}")
    if nmax < 0:
        raise ValueError(f"index n must be >= 0, got {nmax}")
    numerators, denominator = table.numerators(nmax + max(offsets))
    multiplicity = {j: offsets.count(j) for j in offsets}
    # Two distinct offsets a < b: the sequence from a against itself shifted by b - a.
    if len(offsets) == len(multiplicity) == 2:
        a, b = sorted(offsets)
        product = _egf_square(numerators[a:], nmax, b - a)
    else:
        product, *rest = [_egf_power(numerators[j : j + nmax + 1], m, nmax) for j, m in multiplicity.items()]
        for factor in rest:
            product = _egf_product(product, factor, nmax)
    return product, denominator ** len(offsets)


# -- closed-form right-hand sides ---------------------------------------------------
#
# Each evaluator is a sweep: it takes nmax and a table of C_{2m} values and
# returns the claimed closed form exactly at every n from the identity's first
# index to nmax, first index first, as an integer numerator and a positive
# denominator per n; Theorem 3's denominator changes with n. Offsets in the
# name describe the convolution it matches: rhs_2fold_01 is the closed form for
# the 2-fold convolution with offsets (0, 1), rhs_5fold for the 5-fold with all
# offsets 0, and so on. The sum forms read the table and build the weights
# once; a factor of a term that depends on both n and l is one small-int row per n.


def _check_first_index(nmax: int, nmin: int) -> None:
    if nmax < nmin:
        raise ValueError(f"defined for n >= {nmin}, got nmax = {nmax}")


def _root_weights(count: int) -> list[int]:
    """v_j = -4^j binom(1/2, j) for j = 0..count: v_0 = -1, v_j = -2 (2j-3) v_{j-1} / j, exactly."""
    return [*accumulate(range(1, count + 1), lambda v, j: -2 * (2 * j - 3) * v // j, initial=-1)]


def _factorial_ratios(nmax: int) -> list[int]:
    """(2 nmax)! / (2l)! for l = 0..nmax."""
    return [*accumulate(range(nmax, 0, -1), lambda r, l: 2 * l * (2 * l - 1) * r, initial=1)][::-1]


def _root_sums(nmax: int, *terms: tuple[Sequence[int], Callable[[int], list[int]]]) -> list[int]:
    """For n = 0..nmax, the sum over terms (y, u) and l <= n of (2n)! y_l u(n)[l] / ((2l)! 4^(n-l)).

    Each y is scaled once to X_l = 4^l (2N)! / (2l)! y_l, N = nmax, so row n is the sum of
    X_l u(n)[l], a big times a small integer each, checked exactly divisible by 4^n (2N)! / (2n)!.
    """
    ratios = _factorial_ratios(nmax)
    scaled = [([r * y << 2 * l for l, (r, y) in enumerate(zip(ratios, ys))], u) for ys, u in terms]
    return [
        _exact_div(sum(sum(map(mul, xs, u(n))) for xs, u in scaled), ratios[n] << 2 * n, "right-hand side")
        for n in range(nmax + 1)
    ]


def _odd_scaled(c: list[int]) -> list[int]:
    """(2l - 1) c_l for every l: the factor of C_{2l} that Theorems 2 and 3 share."""
    return [(2 * l - 1) * value for l, value in enumerate(c)]


def rhs_2fold_00(nmax: int, table: PolyCauchyTable) -> list[tuple[int, int]]:
    _check_first_index(nmax, 0)
    c, denominator = table.numerators(nmax)
    v = _root_weights(nmax)
    return [(total, denominator) for total in _root_sums(nmax, (_odd_scaled(c), lambda n: v[n::-1]))]


def rhs_2fold_01(nmax: int, table: PolyCauchyTable) -> list[tuple[int, int]]:
    """Closed form for offsets (0, 1); at index n the sum runs to l = n + 1.

    With m = n + 1 and j = m - l, the paper's term is (2m)! v_j (2l-1) q C_{2l} / ((2l)! 4^j)
    over 3 (2n+1)(n+1), and its factor 3n^2 - 3nl + 2l^2 + 4n - 3l + 1 is q = j(2j-m) + 2m(m-1).
    """
    _check_first_index(nmax, 0)
    c, denominator = table.numerators(nmax + 1)
    v = _root_weights(nmax + 1)

    def row(m: int) -> list[int]:
        base = 2 * m * (m - 1)
        return [(j * (2 * j - m) + base) * v[j] for j in range(m, -1, -1)]

    sums = _root_sums(nmax + 1, (_odd_scaled(c), row))
    return [(sums[n + 1], 3 * (2 * n + 1) * (n + 1) * denominator) for n in range(nmax + 1)]


def rhs_2fold_11(nmax: int, table: PolyCauchyTable) -> list[tuple[int, int]]:
    """Closed form for offsets (1, 1); its C_{2l+2} and C_{2l} terms carry (2j+1)!!, j = n - l.

    There the paper's weight is (2n)! / ((2l)! 4^j) times -(1 - 4j^2) v_j, and
    the C_{2l+4} term's factor 10n - 8l + 5 is 2n + 5 + 8j.
    """
    _check_first_index(nmax, 0)
    c, denominator = table.numerators(nmax + 2)
    v = _root_weights(nmax)
    odd = [(1 - 4 * j * j) * value for j, value in enumerate(v)]
    y = [10 * (6 * l + 1) * c[l + 1] + (160 * l**3 - 220 * l**2 + 72 * l - 1) * c[l] for l in range(nmax + 1)]
    sums = _root_sums(
        nmax, (c[2:], lambda n: [(2 * n + 5 + 8 * j) * v[j] for j in range(n, -1, -1)]), (y, lambda n: odd[n::-1])
    )
    return [(total, 30 * denominator) for total in sums]


def rhs_3fold(nmax: int, table: PolyCauchyTable) -> list[tuple[int, int]]:
    _check_first_index(nmax, 1)
    c, denominator = table.numerators(nmax)
    return [
        ((2 * n - 1) * ((n - 1) * c[n] + n * (2 * n - 3) ** 2 * c[n - 1]), denominator) for n in range(1, nmax + 1)
    ]


def rhs_4fold(nmax: int, table: PolyCauchyTable) -> list[tuple[int, int]]:
    _check_first_index(nmax, 1)
    c, denominator = table.numerators(nmax)
    x = [
        (2 * l - 1) * (2 * l - 2) * (2 * l - 3) * c[l]
        + (2 * l * (2 * l - 1) * (2 * l - 3) ** 3 * c[l - 1] if l else 0)
        for l in range(nmax + 1)
    ]
    v = _root_weights(nmax)
    return [(total, 6 * denominator) for total in _root_sums(nmax, (x, lambda n: v[n::-1]))[1:]]


def rhs_5fold(nmax: int, table: PolyCauchyTable) -> list[tuple[int, int]]:
    """The derived expansion at r = 2 (``_odd_fold_sums``), whose P_{2,2} lies over 3."""
    _check_first_index(nmax, 2)
    return _odd_fold_sums(_derive_conjecture(2), range(2, nmax + 1), table)


def rhs_7fold(nmax: int, table: PolyCauchyTable) -> list[tuple[int, int]]:
    """The derived expansion at r = 3 (``_odd_fold_sums``), whose P_{3,2} and P_{3,4} lie over 15."""
    _check_first_index(nmax, 3)
    return _odd_fold_sums(_derive_conjecture(3), range(3, nmax + 1), table)


# -- reports ------------------------------------------------------------------------
#
# Every record of the package is a NamedTuple, fixed when built, so its equality and repr
# come from its fields; a report's notes are a tuple, so the empty default is shared safely.


class CheckRow(NamedTuple):
    """One compared pair; ``equal`` is stored so compound checks can override it."""

    n: int
    lhs: Fraction
    rhs: Fraction
    equal: bool

    @classmethod
    def of(cls, n: int, a: int, d: int, b: int, e: int) -> "CheckRow":
        """Row n comparing a / d with b / e as a e = b d; agreeing sides hold one Fraction, printed for both."""
        if a * e == b * d:
            value = Fraction(a, d)
            return cls(n, value, value, True)
        return cls(n, Fraction(a, d), Fraction(b, e), False)


class IdentityReport(NamedTuple):
    """One identity's rows, the notes printed after them, and the verdict they give."""

    identity_name: str
    nmax: int
    parameter_range: str
    per_n_results: list[CheckRow]
    notes: tuple[str, ...] = ()

    @property
    def status(self) -> str:
        # A report that compared nothing has shown nothing.
        rows = self.per_n_results
        return "pass" if rows and all(row.equal for row in rows) else "fail"

    @property
    def first_failure(self) -> CheckRow | None:
        return next((row for row in self.per_n_results if not row.equal), None)

    def to_json_dict(self) -> dict:
        failure = self.first_failure
        return {
            "identity": self.identity_name,
            "nmax": self.nmax,
            "status": self.status,
            "results": [
                {"n": row.n, "lhs": str(row.lhs), "rhs": str(row.rhs), "equal": row.equal}
                for row in self.per_n_results
            ],
            "first_failure": None
            if failure is None
            else {"n": failure.n, "lhs": str(failure.lhs), "rhs": str(failure.rhs)},
        }

    def to_text(self) -> str:
        lines = [f"identity: {self.identity_name}", f"range: {self.parameter_range}"]
        for row in self.per_n_results:
            mark = "ok" if row.equal else "MISMATCH"
            lines.append(f"  n={row.n} lhs={row.lhs} rhs={row.rhs} {mark}")
        lines.extend(f"  {note}" for note in self.notes)
        lines.append(f"status: {self.status}")
        return "\n".join(lines)


# -- identity registry ----------------------------------------------------------


class _ConvolutionIdentity(NamedTuple):
    offsets: tuple[int, ...]
    rhs_name: str
    nmin: int

    @property
    def rhs(self) -> Callable[[int, PolyCauchyTable], list[tuple[int, int]]]:
        return globals()[self.rhs_name]


# Each entry names its right-hand side, and ``rhs`` looks the name up in this
# module when it is read, so a wrapped or patched ``rhs_*`` is the one that runs.
CONVOLUTION_IDENTITIES: dict[str, _ConvolutionIdentity] = {
    "thm2": _ConvolutionIdentity((0, 0), "rhs_2fold_00", 0),
    "thm3": _ConvolutionIdentity((0, 1), "rhs_2fold_01", 0),
    "thm4": _ConvolutionIdentity((1, 1), "rhs_2fold_11", 0),
    "thm5": _ConvolutionIdentity((0, 0, 0), "rhs_3fold", 1),
    "thm6": _ConvolutionIdentity((0, 0, 0, 0), "rhs_4fold", 1),
    "fold5": _ConvolutionIdentity((0,) * 5, "rhs_5fold", 2),
    "fold7": _ConvolutionIdentity((0,) * 7, "rhs_7fold", 3),
}

# The sweep bound when none is given. The conjecture identities sample fixed
# points instead, so their reports carry this bound and accept no other.
DEFAULT_NMAX = 12

_ROUTE_K_RANGE = range(-3, 4)
_INTEGRAL_K_RANGE = range(1, 4)


def _convolution_sides(name: str, nmax: int) -> list[tuple[int, int, int, int, int]]:
    """(n, a, d, b, e) for each n of a convolution identity: the sweep a / d, the closed form b / e."""
    defn = CONVOLUTION_IDENTITIES[name]
    if nmax < defn.nmin:
        raise ValueError(f"{name} starts at n = {defn.nmin}: nmax must be >= {defn.nmin}, got {nmax}")
    table = PolyCauchyTable.build(nmax + 2)
    lhs, d = convolution_sweep(defn.offsets, nmax, table)
    return [(n, lhs[n], d, b, e) for n, (b, e) in zip(range(defn.nmin, nmax + 1), defn.rhs(nmax, table), strict=True)]


def _verify_convolution(name: str, nmax: int) -> IdentityReport:
    rows = [CheckRow.of(*sides) for sides in _convolution_sides(name, nmax)]
    return IdentityReport(name, nmax, f"n={CONVOLUTION_IDENTITIES[name].nmin}..{nmax}", rows)


def _report_over_k(
    name: str, nmax: int, k_range: range, sides: dict[int, tuple[list[int], int, list[int], int]], held: Sequence[bool]
) -> IdentityReport:
    """One row per n = 0..nmax: the first failing k's row, else the k = 1 row.

    ``sides[k]`` is (a, d, b, e), and at n the two sides are a[n] / d and
    b[n] / e, compared by cross-multiplication; the reported row is built by
    ``CheckRow.of``. A false ``held[n]`` fails every k at n, so n reports its first k.
    """

    def row(n: int) -> CheckRow:
        for k in k_range:
            a, d, b, e = sides[k]
            if not held[n] or a[n] * e != b[n] * d:
                break
        else:
            a, d, b, e = sides[1]
        checked = CheckRow.of(n, a[n], d, b[n], e)
        return checked if held[n] else checked._replace(equal=False)

    rows = [row(n) for n in range(nmax + 1)]
    return IdentityReport(name, nmax, f"n=0..{nmax}, k={k_range[0]}..{k_range[-1]}", rows)


def _verify_route_agreement(nmax: int) -> IdentityReport:
    egf = arcsinh_power_egf(nmax)
    sides = {
        k: (*_polycauchy._formula_numerators(nmax, k), *_polycauchy._sum_over_powers(egf, k))
        for k in _ROUTE_K_RANGE
    }
    return _report_over_k("thm1", nmax, _ROUTE_K_RANGE, sides, [True] * (nmax + 1))


def _verify_integral_representation(nmax: int) -> IdentityReport:
    matches, integrals = _polycauchy._integral_stages(range(nmax + 1), _INTEGRAL_K_RANGE)
    sides = {k: (*integrals[k], *_polycauchy._formula_numerators(nmax, k)) for k in _INTEGRAL_K_RANGE}
    return _report_over_k("cor1", nmax, _INTEGRAL_K_RANGE, sides, matches)


def _verify_l_equation(name: str, identity: str, nmax: int) -> IdentityReport:
    """A differential equation for L(t) = t / arcsinh t through t^nmax, as a Theorem 2 or 3 sweep.

    L is lif2k(arcsinh t) at k = 1, so its EGF coefficient at t^(2n) is
    C_{2n}, its odd ones vanish, and L'' has C_{2n+2} at t^(2n). By the EGF
    product rule (2n)! [t^(2n)] L^2 is the (0, 0) convolution at n and
    (2n)! [t^(2n)] L L'' the (0, 1) convolution. Both sides of each equation
    are even, so every odd coefficient reads 0 = 0.

    The right sides multiply out to the closed forms. eqll is L^2 =
    sqrt(1+t^2) (L - t L'): sqrt(1+t^2) has -v_j / 4^j at t^(2j) (see
    ``_root_weights``) and L - t L' has (1 - 2l) C_{2l} / (2l)! at t^(2l), so
    (2n)! [t^(2n)] of the product is the sum over l of (2n)! v_{n-l} (2l-1)
    C_{2l} / ((2l)! 4^(n-l)), which is ``rhs_2fold_00``. eqconvo02 is, with
    s = 1 + t^2,

        L L'' = (s^(-3/2) / 2 - s^(-1/2) / 6) L
              + (s^(1/2) / 6 + s^(-3/2) / 2 - 2 s^(-1/2) / 3) L' / t
              + (s^(-1/2) - s^(1/2)) L'' / 2 - t s^(1/2) L''' / 3,

    whose right side, collected the same way, is ``rhs_2fold_01``. Row 2n
    of the report compares the integer sides of the sweep's row n with
    (2n)!, carried from row to row, multiplied into both denominators.
    """
    scale, rows = 1, []
    for n, a, d, b, e in _convolution_sides(identity, nmax // 2):
        i = 2 * n
        scale *= max(i * (i - 1), 1)
        rows.append(CheckRow.of(i, a, d * scale, b, e * scale))
        if i < nmax:
            rows.append(CheckRow.of(i + 1, 0, 1, 0, 1))
    return IdentityReport(name, nmax, f"coefficients t^0..t^{nmax}", rows)


def _verify_arcsinh_power(nmax: int) -> IdentityReport:
    # (arcsinh t)^(2m) / (2m)! = sum over n >= m of (-4)^(n-m) [[n, m]] t^(2n) / (2n)!,
    # compared through t^nmax as integer EGF coefficients; odd ones vanish on both sides.
    # Powers m = 1..top are compared, so the kernel builds only the columns m <= top.
    if nmax < 2:
        raise ValueError(f"arcsinh_power starts at t^2: nmax must be >= 2, got {nmax}")
    half = nmax // 2
    top = min(6, half)
    egf = arcsinh_power_egf(half, top=top)
    triangle = level2_by_recurrence(half)
    rows: list[CheckRow] = []
    for m in range(1, top + 1):
        lhs = [egf[n][m] if m <= n else 0 for n in range(half + 1)]
        rhs = [(-4) ** (n - m) * triangle.value(n, m) if m <= n else 0 for n in range(half + 1)]
        # Show the first mismatch, else the t^(2m) coefficient.
        n = next((n for n in range(half + 1) if lhs[n] != rhs[n]), m)
        scale = factorial(2 * n)
        rows.append(CheckRow.of(m, lhs[n], scale, rhs[n], scale))
    return IdentityReport("arcsinh_power", nmax, f"m=1..{top}, coefficients through t^{nmax}", rows)


# -- conjecture extraction ----------------------------------------------------------


def _prefactor(r: int, k: int, n: int) -> int:
    """binom(2n, 2k) binom(2n - 2k - 1, 2r - 2k), the fixed factor next to P_{r,2k}.

    It takes n >= 0 and 0 <= k <= r, the terms of the ansatz. The second binomial is read as a
    polynomial in n: binom(x, m) = binom(m - x - 1, m) for x < 0 and even m (upper negation,
    Concrete Mathematics, 5.1), so binom(-1, m) = 1, and every argument of ``comb`` is >= 0.
    """
    top, bottom = 2 * n - 2 * k - 1, 2 * r - 2 * k
    return comb(2 * n, 2 * k) * comb(top if top >= 0 else bottom - top - 1, bottom)


class ConjecturePolynomial(NamedTuple):
    """One P_{r,2k} as the derivation gives it: its 2k + 1 coefficients, low degree first."""

    r: int
    k: int
    coefficients: list[Fraction]


def default_conjecture_samples(r: int) -> list[int]:
    """The (r+1)(r+2) + 3 consecutive samples from r + 1 at which the derived ansatz is checked."""
    return list(range(r + 1, r + 4 + (r + 1) * (r + 2)))


def extract_conjecture_polynomials(r: int) -> list[ConjecturePolynomial]:
    """P_{r,2k} for k = 0..r, derived by the operator rule (``_derive_conjecture``) from no C value or sample.

    Every r >= 1 derives. ``verify conjecture-r<R>``, registered for R = 1..3,
    checks the ansatz they give against the (2r+1)-fold convolution.
    """
    if r < 1:
        raise ValueError(f"conjecture extraction needs r >= 1, got {r}")
    polynomials, common = _derive_conjecture(r)
    return [ConjecturePolynomial(r, k, [Fraction(x, common) for x in p]) for k, p in enumerate(polynomials)]


def _fold_step(i: int, b: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """The roots c of the factors (c - theta) of (2i)(2i-1) O_i t^(2b), at t^(2b) and at t^(2b+2).

    (2i)(2i-1) O_i = [(1+t^2)(2i - theta) - t^2](2i-1 - theta)
                   = (2i - theta)(2i-1 - theta) + t^2 (2i-1 - theta)^2,
    and theta t^(2b) = t^(2b)(theta + 2b) moves each factor (c - theta)
    right past t^(2b) as (c - 2b - theta).
    """
    c = 2 * i - 2 * b
    return (c, c - 1), (c - 1, c - 1)


def _derive_conjecture(r: int) -> tuple[list[list[int]], int]:
    """The coefficients of P_{r,2k} for k = 0..r, from the operator rule alone.

    With L = t / arcsinh t, s = sqrt(1+t^2) and theta = t d/dt, Theorem 2
    reads L^2 = s (1 - theta) L, and so L^(a+1) = s (1 - theta/a) L^a for
    every a != 0. Since s theta s = (1+t^2) theta + t^2, two steps have
    polynomial coefficients: L^(2i+1) = O_i L^(2i-1), where

        O_i = [(1+t^2)(1 - theta/(2i)) - t^2/(2i)] (1 - theta/(2i-1)).

    Built from O_1 up (``_fold_step``), (2r)! L^(2r+1) is the sum over k of
    t^(2k) R_k(theta) L, every R_k an integer polynomial of degree 2i after
    step i. Since (2n)! [t^(2n)] t^(2k) R_k(theta) L = (2n)! / (2n-2k)!
    R_k(2n-2k) C_{2n-2k}, the ansatz holds with P_{r,2k}(n) =
    Q_k(2n-2k) / binom(2r, 2k), read from ``math.comb`` since 0 <= 2k <= 2r,
    where Q_k is R_k divided by (theta-1) ... (theta-2r+2k), the falling
    factorial of binom(2n-2k-1, 2r-2k). That the division is exact is the
    ansatz's shape, so a remainder raises ArithmeticError. With that falling
    factorial read as a polynomial in n (``_prefactor``), the identity holds
    for every n >= 0.
    Returns the P_{r,2k} as integer lists over their least common denominator Q, and Q.
    """
    terms = [[1]]
    for i in range(1, r + 1):
        grown = [[0] * (2 * i + 1) for _ in range(i + 1)]
        for b, poly in enumerate(terms):
            for a, roots in enumerate(_fold_step(i, b)):
                grown[a + b] = [*map(add, grown[a + b], reduce(_poly_times_root, roots, poly))]
        terms = grown
    quotients = [reduce(_poly_divide_root, range(1, 2 * (r - k) + 1), poly) for k, poly in enumerate(terms)]
    scaled = [(_poly_compose(q, -2 * k, 2), comb(2 * r, 2 * k)) for k, q in enumerate(quotients)]
    common = lcm(*(scale // gcd(x, scale) for poly, scale in scaled for x in poly))
    return [[x * common // scale for x in poly] for poly, scale in scaled], common


def _odd_fold_sums(
    derived: tuple[list[list[int]], int], ns: Sequence[int], table: PolyCauchyTable
) -> list[tuple[int, int]]:
    """The (2r+1)-fold expansion at each n of ns, as integer numerators over Q D.

    ``derived`` is (P, Q), the P_{r,2k} as integers over Q (``_derive_conjecture``), and D
    is the table's denominator. Term k at n is P_{r,2k}(n) _prefactor(r, k, n) D C_{2n-2k}; the
    zip pairs P_{r,2k} with C_{2n-2k}, so it drops every k > n, where binom(2n, 2k) = 0, and k <= r.
    """
    polynomials, common = derived
    r = len(polynomials) - 1
    c, denominator = table.numerators(max(ns))
    sums = []
    for n in ns:
        terms = enumerate(zip(polynomials, c[n::-1]))
        sums.append(sum(_poly_eval(p, n) * _prefactor(r, k, n) * x for k, (p, x) in terms))
    return [(total, common * denominator) for total in sums]


def _verify_conjecture(name: str, r: int, nmax: int) -> IdentityReport:
    """The (2r+1)-fold sweep against the derived ansatz at ``default_conjecture_samples(r)``.

    The polynomials are read through this module's ``extract_conjecture_polynomials``,
    so a wrapped or patched one is the one that runs, and evaluated by
    ``_odd_fold_sums``, as ``rhs_5fold`` and ``rhs_7fold`` evaluate theirs. The
    table is the formula route's, built to the last sample.
    """
    if nmax != DEFAULT_NMAX:
        raise ValueError(f"{name} takes no nmax other than {DEFAULT_NMAX}: its sample points are fixed")
    derived = [p.coefficients for p in extract_conjecture_polynomials(r)]
    samples = default_conjecture_samples(r)
    table = PolyCauchyTable.build(samples[-1])
    lhs, scale = convolution_sweep((0,) * (2 * r + 1), samples[-1], table)
    # Over their common denominator Q the polynomials have integer coefficients.
    common = lcm(*(x.denominator for coefficients in derived for x in coefficients))
    integral = [[x.numerator * (common // x.denominator) for x in coefficients] for coefficients in derived]
    sums = _odd_fold_sums((integral, common), samples, table)
    rows = [CheckRow.of(n, lhs[n], scale, b, e) for n, (b, e) in zip(samples, sums, strict=True)]
    notes = tuple(f"P[{2 * k}] = {poly_text(coefficients)}" for k, coefficients in enumerate(derived))
    return IdentityReport(name, nmax, f"r={r}, samples n={samples[0]}..{samples[-1]}", rows, notes)


# -- entry point ---------------------------------------------------------------------

# Every identity by name, in the order the CLI lists them; each checker takes nmax alone.
_CHECKERS: dict[str, Callable[[int], IdentityReport]] = {
    "thm1": _verify_route_agreement,
    "cor1": _verify_integral_representation,
    **{name: partial(_verify_convolution, name) for name in CONVOLUTION_IDENTITIES},
    "eqll": partial(_verify_l_equation, "eqll", "thm2"),
    "eqconvo02": partial(_verify_l_equation, "eqconvo02", "thm3"),
    "arcsinh_power": _verify_arcsinh_power,
    "conjecture": partial(_verify_conjecture, "conjecture", 1),
    **{f"conjecture-r{r}": partial(_verify_conjecture, f"conjecture-r{r}", r) for r in (1, 2, 3)},
}

IDENTITY_NAMES = tuple(_CHECKERS)


def verify_identity(name: str, nmax: int = DEFAULT_NMAX) -> IdentityReport:
    """Sweep one named identity and report per-index equality.

    Every check builds its own inputs: a convolution identity reads the
    formula route's table, built to nmax + 2, and its registered ``rhs_*``,
    looked up in this module when it runs, so a test injects a fault by
    patching the module name the check reads. Failures are recorded in the
    report, never raised; an nmax below the identity's first index is a
    ValueError, since it would compare nothing.
    """
    if nmax < 0:
        raise ValueError(f"nmax must be >= 0, got {nmax}")
    checker = _CHECKERS.get(name)
    if checker is None:
        raise ValueError(f"unknown identity {name!r}; known: {', '.join(IDENTITY_NAMES)}")
    return checker(nmax)
