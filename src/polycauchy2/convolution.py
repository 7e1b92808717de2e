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
(Knuth, TAOCP Vol. 2, 4.6.3), then multiplies the groups. A square sums
only the terms below the middle, since terms i and n - i are equal, doubles
them and adds the middle term when n is even. The 7-fold convolution is
thus 4 products, 2 of them squares, instead of 6.

The right-hand sides are sweeps too: each returns its closed form at every
n of a range in one call. Both sides run on integers (Knuth, TAOCP Vol. 2,
4.7). A sweep reads the C_{2m} it needs from the table once, as integer
numerators over D, the lcm of their denominators
(``PolyCauchyTable.numerators``). The left sweep multiplies those integers
and divides by D^k once per n. The closed forms of Theorems 2-4 and 6
weight C_{2l} by (2n)! / ((2l)! 2^(n-l) (n-l)!) = binom(2n, 2l)
(2n-2l-1)!! (Concrete Mathematics, 7.6) times a sign and a second odd
double factorial, so at each n each is one integer sum over D times a small
constant. The sweep builds the weights once for all n. The other closed
forms are a few terms per n over D times a small constant.
Every binomial-weighted sum, on either side, is one ``_binomial_dot``:
products and sum run inside ``map`` and ``sum``, over row n of the rows of
binom(2n, 2i) that ``exact`` builds once per process and the series route
reads too. Only the final division builds a Fraction.

The test suite holds the oracles: ``brute_force_convolution`` enumerates the
defining sum term by term, and the ``paper_rhs_*`` functions evaluate the
paper's right-hand sides as written, one Fraction per term
(``tests/test_convolution.py``).

``verify_identity`` sweeps a named identity over a range and reports per-n
equality without ever aborting on a failure. The two differential equations
for L(t) = t / arcsinh t, ``eqll`` and ``eqconvo02``, are Theorems 2 and 3
read as power series: their checks run the thm2 and thm3 sweeps on the
formula route's table and report row n at t^(2n), divided by (2n)!.

``extract_conjecture_polynomials`` recovers, from convolution data alone, the
polynomials P_{r,2k}(n) in the ansatz

    (2r+1)-fold convolution at n =
        sum over k = 0..r of P_{r,2k}(n) binom(2n, 2k) binom(2n-2k-1, 2r-2k)
            * C_{2n-2k}

by solving one exact linear system for all coefficient vectors at once,
fraction-free on integers (Bareiss, Math. Comp. 22, 1968). Each P gets a
degree budget of 2k + 1, one slack coefficient above its claimed degree, and
its coefficients are its block of the solution. The last three sample points
are held out of the solve. At every sample, each P is also recovered
pointwise, by subtracting the other solved terms from the convolution and
dividing by its own weight; at a held-out point that value is an independent
probe, so a wrong ansatz cannot slip through.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from math import factorial, gcd, lcm
from operator import mul
from typing import Callable, Iterable, Sequence

from .exact import _even_binomials, binomial
from .polynomials import poly_degree, poly_eval, poly_text, poly_trim
from .polycauchy import (
    _exact_div,
    PolyCauchyTable,
    arcsinh_power_egf,
    integral_representation_check,
    level2_series_values,
)
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
    "conjecture_prefactor",
]


# -- the integer view ------------------------------------------------------------


def _weights(count: int) -> list[int]:
    """w_j = (-1)^j (2j-1)!! (2j-3)!! for j = 0..count, with (-1)!! = 1 and (-3)!! = -1.

    For j = n - l, binom(2n, 2l) w_j is the paper's (2n)! (-1)^j (2j-3)!! /
    ((2l)! 2^j j!), and binom(2n, 2l) w_{j+1} is minus its (2n)! (-1)^j
    (2j+1)!! / ((2l)! 2^j j!). Built by w_0 = -1 and w_j = -(2j-1)(2j-3)
    w_{j-1}, which the extension a (a-2)!! = a!! makes hold from j = 1 on.
    """
    weights = [-1]
    for j in range(1, count + 1):
        weights.append(-(2 * j - 1) * (2 * j - 3) * weights[-1])
    return weights


def _binomial_dot(n: int, xs: Iterable[int], ys: Iterable[int]) -> int:
    """The sum over i of binom(2n, 2i) x_i y_i, up to the shortest of the three rows.

    The binomials are row n of the shared rows of ``exact``. Every product and
    the sum run inside ``map`` and ``sum``, with no Python frame per term.
    Callers pass ys reversed, so that this is the binomial EGF product sum
    over i of binom(2n, 2i) a_i b_(n-i).
    """
    return sum(map(mul, map(mul, _even_binomials(n)[n], xs), ys))


# -- the convolution engine -------------------------------------------------------


def _egf_product(xs: Sequence[int], ys: Sequence[int], nmax: int) -> list[int]:
    """The binomial EGF product of xs and ys at n = 0..nmax."""
    return [_binomial_dot(n, xs, ys[n::-1]) for n in range(nmax + 1)]


def _egf_square(xs: Sequence[int], nmax: int) -> list[int]:
    """The binomial EGF product of xs with itself at n = 0..nmax, in half the terms.

    Terms i and n - i are equal, so the terms below the middle are summed once
    and doubled, and the middle term is added when n is even.
    """
    rows = _even_binomials(nmax)
    return [
        2 * _binomial_dot(n, xs[: (n + 1) // 2], xs[n::-1])
        + (0 if n % 2 else rows[n][n // 2] * xs[n // 2] ** 2)
        for n in range(nmax + 1)
    ]


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
) -> list[Fraction]:
    """The convolution with these offsets at every n = 0..nmax, exactly.

    The table must hold C_{2m} (k = 1) for all m up to nmax + max(offsets).
    """
    offsets = tuple(offsets)
    if len(offsets) < 2:
        raise ValueError("a convolution needs at least two factors")
    if any(j < 0 for j in offsets):
        raise ValueError(f"offsets must be >= 0, got {offsets}")
    if nmax < 0:
        raise ValueError(f"index n must be >= 0, got {nmax}")
    need = nmax + max(offsets)
    if table.max_n(1) < need:
        raise ValueError(f"table holds n <= {table.max_n(1)}, convolution needs {need}")
    numerators, denominator = table.numerators(need)
    multiplicity = {j: offsets.count(j) for j in offsets}
    product, *rest = [_egf_power(numerators[j : j + nmax + 1], m, nmax) for j, m in multiplicity.items()]
    for factor in rest:
        product = _egf_product(product, factor, nmax)
    scale = denominator ** len(offsets)
    return [Fraction(value, scale) for value in product]


# -- closed-form right-hand sides ---------------------------------------------------
#
# Each evaluator is a sweep: it takes nmax and a table of C_{2m} values and
# returns the claimed closed form exactly at every n from the identity's first
# index to nmax, first index first. Offsets in the name describe the
# convolution it matches: rhs_2fold_01 is the closed form for the 2-fold
# convolution with offsets (0, 1), rhs_5fold for the 5-fold with all offsets
# 0, and so on. The sum forms read the table and build the weights once; a
# factor of a term that depends on both n and l is one small-int row per n.


def _check_first_index(nmax: int, nmin: int) -> None:
    if nmax < nmin:
        raise ValueError(f"defined for n >= {nmin}, got nmax = {nmax}")


def _odd_scaled(c: list[int]) -> list[int]:
    """(2l - 1) c_l for every l: the factor of C_{2l} that Theorems 2 and 3 share."""
    return [(2 * l - 1) * value for l, value in enumerate(c)]


def rhs_2fold_00(nmax: int, table: PolyCauchyTable) -> list[Fraction]:
    _check_first_index(nmax, 0)
    c, denominator = table.numerators(nmax)
    w = _weights(nmax)
    x = _odd_scaled(c)
    return [Fraction(_binomial_dot(n, x, w[n::-1]), denominator) for n in range(nmax + 1)]


def rhs_2fold_01(nmax: int, table: PolyCauchyTable) -> list[Fraction]:
    """Closed form for offsets (0, 1); at index n the sum runs to l = n + 1.

    The paper's term carries 1 / (3 (j+1)) for j = n - l. Since
    binom(2n, 2l) (2j-1)!! / (j+1) = binom(2n+2, 2l) (2j+1)!! / ((2n+1)(n+1)),
    every term, the l = n + 1 one (j = -1) included, lies over 3 (2n+1)(n+1).
    """
    _check_first_index(nmax, 0)
    c, denominator = table.numerators(nmax + 1)
    w = _weights(nmax + 1)
    x = _odd_scaled(c)
    values = []
    for n in range(nmax + 1):
        q = [3 * n * n - 3 * n * l + 2 * l * l + 4 * n - 3 * l + 1 for l in range(n + 2)]
        total = _binomial_dot(n + 1, map(mul, q, x), w[n + 1 :: -1])
        values.append(Fraction(total, 3 * (2 * n + 1) * (n + 1) * denominator))
    return values


def rhs_2fold_11(nmax: int, table: PolyCauchyTable) -> list[Fraction]:
    """Closed form for offsets (1, 1); its C_{2l+2} and C_{2l} terms carry w_{n-l+1}.

    The C_{2l+4} term's factor 10n - 8l + 5 runs down from 10n + 5 in steps of 8.
    """
    _check_first_index(nmax, 0)
    c, denominator = table.numerators(nmax + 2)
    w = _weights(nmax + 1)
    shifted = c[2:]
    y = [
        10 * (6 * l + 1) * c[l + 1] + (160 * l**3 - 220 * l**2 + 72 * l - 1) * c[l]
        for l in range(nmax + 1)
    ]
    values = []
    for n in range(nmax + 1):
        total = _binomial_dot(
            n, map(mul, range(10 * n + 5, 2 * n + 4, -8), shifted), w[n::-1]
        ) + _binomial_dot(n, y, w[n + 1 : 0 : -1])
        values.append(Fraction(total, 30 * denominator))
    return values


def rhs_3fold(nmax: int, table: PolyCauchyTable) -> list[Fraction]:
    _check_first_index(nmax, 1)
    c, denominator = table.numerators(nmax)
    return [
        Fraction((2 * n - 1) * ((n - 1) * c[n] + n * (2 * n - 3) ** 2 * c[n - 1]), denominator)
        for n in range(1, nmax + 1)
    ]


def rhs_4fold(nmax: int, table: PolyCauchyTable) -> list[Fraction]:
    _check_first_index(nmax, 1)
    c, denominator = table.numerators(nmax)
    w = _weights(nmax)
    x = [
        (2 * l - 1) * (2 * l - 2) * (2 * l - 3) * c[l]
        + (2 * l * (2 * l - 1) * (2 * l - 3) ** 3 * c[l - 1] if l else 0)
        for l in range(nmax + 1)
    ]
    return [Fraction(_binomial_dot(n, x, w[n::-1]), 6 * denominator) for n in range(1, nmax + 1)]


def rhs_5fold(nmax: int, table: PolyCauchyTable) -> list[Fraction]:
    """The middle term carries a factor 1/3, so every term lies over 3 D."""
    _check_first_index(nmax, 2)
    c, denominator = table.numerators(nmax)
    return [
        Fraction(
            3 * binomial(2 * n - 1, 4) * c[n]
            + (4 * n * n - 16 * n + 17) * binomial(2 * n, 2) * binomial(2 * n - 3, 2) * c[n - 1]
            + 3 * binomial(2 * n, 4) * (2 * n - 5) ** 4 * c[n - 2],
            3 * denominator,
        )
        for n in range(2, nmax + 1)
    ]


def rhs_7fold(nmax: int, table: PolyCauchyTable) -> list[Fraction]:
    """The two middle terms carry a factor 1/15, so every term lies over 15 D."""
    _check_first_index(nmax, 3)
    c, denominator = table.numerators(nmax)
    return [
        Fraction(
            15 * binomial(2 * n - 1, 6) * c[n]
            + (12 * n * n - 60 * n + 83) * binomial(2 * n, 2) * binomial(2 * n - 3, 4) * c[n - 1]
            + (4 * n * n - 24 * n + 39)
            * (12 * n * n - 72 * n + 109)
            * binomial(2 * n, 4)
            * binomial(2 * n - 5, 2)
            * c[n - 2]
            + 15 * binomial(2 * n, 6) * (2 * n - 7) ** 6 * c[n - 3],
            15 * denominator,
        )
        for n in range(3, nmax + 1)
    ]


# -- reports ------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckRow:
    """One compared pair; ``equal`` is stored so compound checks can override it."""

    n: int
    lhs: Fraction
    rhs: Fraction
    equal: bool

    @classmethod
    def compare(cls, n: int, lhs: Fraction, rhs: Fraction) -> "CheckRow":
        return cls(n, lhs, rhs, lhs == rhs)


@dataclass
class IdentityReport:
    identity_name: str
    nmax: int
    parameter_range: str
    per_n_results: list[CheckRow]
    notes: list[str] = field(default_factory=list)

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


@dataclass(frozen=True)
class _ConvolutionIdentity:
    offsets: tuple[int, ...]
    rhs: Callable[[int, PolyCauchyTable], list[Fraction]]
    nmin: int


CONVOLUTION_IDENTITIES: dict[str, _ConvolutionIdentity] = {
    "thm2": _ConvolutionIdentity((0, 0), rhs_2fold_00, 0),
    "thm3": _ConvolutionIdentity((0, 1), rhs_2fold_01, 0),
    "thm4": _ConvolutionIdentity((1, 1), rhs_2fold_11, 0),
    "thm5": _ConvolutionIdentity((0, 0, 0), rhs_3fold, 1),
    "thm6": _ConvolutionIdentity((0, 0, 0, 0), rhs_4fold, 1),
    "fold5": _ConvolutionIdentity((0,) * 5, rhs_5fold, 2),
    "fold7": _ConvolutionIdentity((0,) * 7, rhs_7fold, 3),
}

# The sweep bound when none is given. The conjecture identities sample fixed
# points instead, so their reports carry this bound and accept no other.
DEFAULT_NMAX = 12

_ROUTE_K_RANGE = range(-3, 4)
_INTEGRAL_K_RANGE = range(1, 4)


def _verify_convolution(
    name: str,
    nmax: int,
    rhs_override: Callable[[int, PolyCauchyTable], list[Fraction]] | None,
    table: PolyCauchyTable | None,
) -> IdentityReport:
    defn = CONVOLUTION_IDENTITIES[name]
    if nmax < defn.nmin:
        raise ValueError(f"{name} starts at n = {defn.nmin}: nmax must be >= {defn.nmin}, got {nmax}")
    if table is None:
        table = PolyCauchyTable()
    table.ensure(nmax + 2)
    lhs = convolution_sweep(defn.offsets, nmax, table)
    rhs = (rhs_override if rhs_override is not None else defn.rhs)(nmax, table)
    ns = range(defn.nmin, nmax + 1)
    rows = [CheckRow.compare(n, lhs[n], value) for n, value in zip(ns, rhs, strict=True)]
    return IdentityReport(name, nmax, f"n={defn.nmin}..{nmax}", rows)


def _report_over_k(
    name: str, nmax: int, k_range: range, check: Callable[[int, int], CheckRow]
) -> IdentityReport:
    """One row per n = 0..nmax: the first failing k's row, else the k = 1 row."""

    def row(n: int) -> CheckRow:
        by_k = {}
        for k in k_range:
            by_k[k] = check(n, k)
            if not by_k[k].equal:
                return by_k[k]
        return by_k[1]

    rows = [row(n) for n in range(nmax + 1)]
    return IdentityReport(name, nmax, f"n=0..{nmax}, k={k_range[0]}..{k_range[-1]}", rows)


def _formula_table(nmax: int, k_range: range) -> PolyCauchyTable:
    """The formula route for n = 0..nmax at every k in range, one pass per k."""
    table = PolyCauchyTable()
    for k in k_range:
        table.ensure(nmax, k)
    return table


def _verify_route_agreement(nmax: int) -> IdentityReport:
    formula = _formula_table(nmax, _ROUTE_K_RANGE)
    egf = arcsinh_power_egf(nmax)
    series = {k: level2_series_values(egf, k) for k in _ROUTE_K_RANGE}

    def check(n: int, k: int) -> CheckRow:
        return CheckRow.compare(n, formula.value(n, k), series[k][n])

    return _report_over_k("thm1", nmax, _ROUTE_K_RANGE, check)


def _verify_integral_representation(nmax: int) -> IdentityReport:
    triangle = level2_by_recurrence(nmax)
    table = _formula_table(nmax, _INTEGRAL_K_RANGE)

    def check(n: int, k: int) -> CheckRow:
        result = integral_representation_check(n, k, triangle, table)
        return CheckRow(n, result.integral_value, result.reference_value, result.passed)

    return _report_over_k("cor1", nmax, _INTEGRAL_K_RANGE, check)


def _verify_l_equation(name: str, identity: str, nmax: int) -> IdentityReport:
    """A differential equation for L(t) = t / arcsinh t through t^nmax, as a Theorem 2 or 3 sweep.

    L is lif2k(arcsinh t) at k = 1, so its EGF coefficient at t^(2n) is
    C_{2n}, its odd ones vanish, and L'' has C_{2n+2} at t^(2n). By the EGF
    product rule (2n)! [t^(2n)] L^2 is the (0, 0) convolution at n and
    (2n)! [t^(2n)] L L'' the (0, 1) convolution. Both sides of each equation
    are even, so every odd coefficient reads 0 = 0.

    The right sides multiply out to the closed forms. eqll is
    L^2 = sqrt(1+t^2) (L - t L'): sqrt(1+t^2) has EGF coefficient -w_j at
    t^(2j) (see ``_weights``) and L - t L' has (1 - 2l) C_{2l} at t^(2l), so
    the product is the sum over l of binom(2n, 2l) w_{n-l} (2l-1) C_{2l},
    which is ``rhs_2fold_00``. eqconvo02 is, with s = 1 + t^2,

        L L'' = (s^(-3/2) / 2 - s^(-1/2) / 6) L
              + (s^(1/2) / 6 + s^(-3/2) / 2 - 2 s^(-1/2) / 3) L' / t
              + (s^(-1/2) - s^(1/2)) L'' / 2 - t s^(1/2) L''' / 3,

    whose right side, collected the same way, is ``rhs_2fold_01``. Row 2n
    of the report is row n of the sweep divided by (2n)!.
    """
    rows = [CheckRow.compare(i, Fraction(0), Fraction(0)) for i in range(nmax + 1)]
    for row in _verify_convolution(identity, nmax // 2, None, None).per_n_results:
        scale = factorial(2 * row.n)
        rows[2 * row.n] = CheckRow.compare(2 * row.n, row.lhs / scale, row.rhs / scale)
    return IdentityReport(name, nmax, f"coefficients t^0..t^{nmax}", rows)


def _verify_arcsinh_power(nmax: int) -> IdentityReport:
    # (arcsinh t)^(2m) / (2m)! = sum over n >= m of (-4)^(n-m) [[n, m]] t^(2n) / (2n)!,
    # compared through t^nmax as integer EGF coefficients; odd ones vanish on both sides.
    # Only powers m <= nmax / 2 reach a compared coefficient.
    if nmax < 2:
        raise ValueError(f"arcsinh_power starts at t^2: nmax must be >= 2, got {nmax}")
    half = nmax // 2
    top = min(6, half)
    egf = arcsinh_power_egf(half)
    triangle = level2_by_recurrence(half)
    rows: list[CheckRow] = []
    for m in range(1, top + 1):
        lhs = [egf[n][m] if m <= n else 0 for n in range(half + 1)]
        rhs = [(-4) ** (n - m) * triangle.value(n, m) if m <= n else 0 for n in range(half + 1)]
        mismatch = next((n for n in range(half + 1) if lhs[n] != rhs[n]), None)
        # Show the t^(2m) coefficient, else the first mismatch.
        n = m if mismatch is None else mismatch
        scale = factorial(2 * n)
        rows.append(CheckRow(m, Fraction(lhs[n], scale), Fraction(rhs[n], scale), mismatch is None))
    return IdentityReport("arcsinh_power", nmax, f"m=1..{top}, coefficients through t^{nmax}", rows)


# -- conjecture extraction ----------------------------------------------------------


def conjecture_prefactor(r: int, k: int, n: int) -> int:
    """binom(2n, 2k) binom(2n - 2k - 1, 2r - 2k), the fixed factor next to P_{r,2k}."""
    return binomial(2 * n, 2 * k) * binomial(2 * n - 2 * k - 1, 2 * r - 2 * k)


@dataclass
class ConjecturePolynomial:
    """One recovered P_{r,2k}: pointwise values and the solved coefficients."""

    r: int
    k: int
    sample_points: list[tuple[int, Fraction]]
    interpolated_coefficients: list[Fraction]
    degree_ok: bool

    @property
    def claimed_degree(self) -> int:
        return 2 * self.k

    def evaluate(self, n: int) -> Fraction:
        return poly_eval(self.interpolated_coefficients, n)

    def reproduces_samples(self) -> bool:
        return all(self.evaluate(n) == value for n, value in self.sample_points)


def _solve_exact(
    matrix: list[list[int | Fraction]], rhs: list[int | Fraction]
) -> list[Fraction]:
    """Fraction-free elimination for a square system (Bareiss, Math. Comp. 22, 1968).

    Each row is first made primitive: scaled to integers by the lcm of its denominators, then
    divided by the gcd of its entries. Then below pivot p a row becomes (p row - f pivot_row) / p'
    for the previous pivot p'; a zero pivot swaps rows. Every division, back-substitution's too,
    is checked exact.
    """
    rows = []
    for row, value in zip(matrix, rhs):
        augmented = [*row, value]
        scale = lcm(*(v.denominator for v in augmented))
        integers = [v.numerator * (scale // v.denominator) for v in augmented]
        content = gcd(*integers) or 1
        rows.append([v // content for v in integers])
    size, previous = len(rows), 1
    divide = partial(_exact_div, where="Bareiss solve")
    for col in range(size):
        sel = next((i for i in range(col, size) if rows[i][col]), None)
        if sel is None:
            raise ArithmeticError("sample points produce a singular system; add or vary samples")
        rows[col], rows[sel] = rows[sel], rows[col]
        p, tail = rows[col][col], rows[col][col + 1 :]
        for row in rows[col + 1 :]:
            f = row[col]
            row[col + 1 :] = [divide(p * a - f * b, previous) for a, b in zip(row[col + 1 :], tail)]
        previous = p
    numerators = [0] * size
    for i in reversed(range(size)):
        total = previous * rows[i][-1] - sum(a * x for a, x in zip(rows[i][i + 1 :], numerators[i + 1 :]))
        numerators[i] = divide(total, rows[i][i])
    return [Fraction(x, previous) for x in numerators]


def default_conjecture_samples(r: int) -> list[int]:
    """Consecutive samples from r + 1: enough to solve, plus three held-out points."""
    unknowns = (r + 1) * (r + 2)
    return list(range(r + 1, r + 1 + unknowns + 3))


def extract_conjecture_polynomials(
    r: int,
    n_samples: Sequence[int] | None = None,
    table: PolyCauchyTable | None = None,
) -> list[ConjecturePolynomial]:
    """Recover P_{r,2k} for k = 0..r from the (2r+1)-fold convolution alone.

    Sample indices must satisfy n >= r + 1 so every C index stays
    nonnegative. The first (r+1)(r+2) samples feed the linear solve (degree
    budget 2k + 1 per polynomial); at least one further sample must remain
    as a held-out point, and all points, held-out included, land in
    ``sample_points`` so ``reproduces_samples`` is a genuine check.
    """
    if r not in (1, 2, 3):
        raise ValueError(f"conjecture extraction is implemented for r in 1..3, got {r}")
    if n_samples is None:
        n_samples = default_conjecture_samples(r)
    samples = sorted(set(n_samples))
    if any(n < r + 1 for n in samples):
        raise ValueError(f"sample indices must be >= r + 1 = {r + 1}, got {samples}")
    unknowns = (r + 1) * (r + 2)
    if len(samples) < unknowns + 1:
        raise ValueError(
            f"need at least {unknowns + 1} sample points for r = {r} "
            f"({unknowns} to solve plus a held-out point), got {len(samples)}"
        )
    if table is None:
        table = PolyCauchyTable.build(samples[-1])
    return _extract(r, samples, table)[0]


def _extract(
    r: int, samples: list[int], table: PolyCauchyTable
) -> tuple[list[ConjecturePolynomial], list[Fraction]]:
    """The recovered polynomials, and the convolution sweep they came from.

    Both sides of every equation are scaled by D, the common denominator of
    the C_{2m} read: the weight of P_{r,2k} at n is then the integer
    conjecture_prefactor(r, k, n) D C_{2n-2k}, and each solve row is those
    weights times powers of n. No step relies on the shape of a P.
    """
    lhs = convolution_sweep((0,) * (2 * r + 1), samples[-1], table)
    c, denominator = table.numerators(samples[-1])
    budgets = [2 * k + 1 for k in range(r + 1)]
    unknowns = sum(b + 1 for b in budgets)
    weights = {(k, n): conjecture_prefactor(r, k, n) * c[n - k] for k in range(r + 1) for n in samples}
    targets = {n: denominator * lhs[n] for n in samples}

    solve_points = samples[:unknowns]
    matrix = [
        [weights[(k, n)] * n**j for k in range(r + 1) for j in range(budgets[k] + 1)]
        for n in solve_points
    ]
    solution = _solve_exact(matrix, [targets[n] for n in solve_points])

    solved: list[list[Fraction]] = []
    position = 0
    for k in range(r + 1):
        solved.append(solution[position : position + budgets[k] + 1])
        position += budgets[k] + 1

    terms = {key: poly_eval(solved[key[0]], key[1]) * weight for key, weight in weights.items()}
    polynomials: list[ConjecturePolynomial] = []
    for k in range(r + 1):
        points: list[tuple[int, Fraction]] = []
        for n in samples:
            # Subtract the other recovered terms, divide by this term's
            # weight; at solve points this reproduces the solved polynomial,
            # at held-out points it is an independent probe of the ansatz.
            weight = weights[(k, n)]
            if weight == 0:
                continue
            others = sum(terms[(other, n)] for other in range(r + 1) if other != k)
            points.append((n, (targets[n] - others) / weight))
        coefficients = poly_trim(solved[k])
        degree_ok = poly_degree(coefficients) <= 2 * k
        polynomials.append(ConjecturePolynomial(r, k, points, coefficients, degree_ok))
    return polynomials, lhs


def _verify_conjecture(name: str, r: int, nmax: int) -> IdentityReport:
    if nmax != DEFAULT_NMAX:
        raise ValueError(f"{name} takes no nmax other than {DEFAULT_NMAX}: its sample points are fixed")
    samples = default_conjecture_samples(r)
    table = PolyCauchyTable.build(samples[-1])
    polynomials, lhs = _extract(r, samples, table)

    # Reconstruct the right side with each polynomial truncated to its
    # claimed degree, so an extraction that needed the slack coefficient
    # shows up as row mismatches rather than passing silently.
    truncated = [poly.interpolated_coefficients[: 2 * poly.k + 1] for poly in polynomials]
    rows = []
    for n in samples:
        rhs = sum(
            (
                poly_eval(truncated[k], n)
                * conjecture_prefactor(r, k, n)
                * table.value(n - k)
                for k in range(r + 1)
            ),
            Fraction(0),
        )
        rows.append(CheckRow.compare(n, lhs[n], rhs))
    notes = [
        f"P[{2 * poly.k}] = {poly_text(poly.interpolated_coefficients)}"
        + ("" if poly.degree_ok else f"  (degree exceeds {poly.claimed_degree})")
        for poly in polynomials
    ]
    return IdentityReport(name, nmax, f"r={r}, samples n={samples[0]}..{samples[-1]}", rows, notes)


# -- entry point ---------------------------------------------------------------------

# Every identity by name, in the order the CLI lists them. A convolution
# checker also takes ``rhs_override`` and ``table``; the others take nmax only.
_CHECKERS: dict[str, Callable[..., IdentityReport]] = {
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


def verify_identity(
    name: str,
    nmax: int = DEFAULT_NMAX,
    *,
    rhs_override: Callable[[int, PolyCauchyTable], list[Fraction]] | None = None,
    table: PolyCauchyTable | None = None,
) -> IdentityReport:
    """Sweep one named identity and report per-index equality.

    Failures are recorded in the report, never raised; an nmax below the
    identity's first index is a ValueError, since it would compare nothing.
    ``rhs_override``
    replaces the registered right-hand side of a convolution identity and
    exists for negative-control tests; ``table`` supplies the C values a
    convolution identity reads. Every other identity computes its own values
    and rejects both.
    """
    if nmax < 0:
        raise ValueError(f"nmax must be >= 0, got {nmax}")
    checker = _CHECKERS.get(name)
    if checker is None:
        raise ValueError(f"unknown identity {name!r}; known: {', '.join(IDENTITY_NAMES)}")
    if name in CONVOLUTION_IDENTITIES:
        return checker(nmax, rhs_override, table)
    if rhs_override is not None:
        raise ValueError(f"identity {name!r} has no replaceable right-hand side")
    if table is not None:
        raise ValueError(f"identity {name!r} computes its own values and reads no table")
    return checker(nmax)
