"""Convolution engine, closed-form sweeps, duality, conjecture extraction.

The oracle for ``convolution_sweep`` is a brute-force
enumeration over index tuples written here with itertools only; the closed
forms are then swept against the engine, and the series side of each
identity is checked against the convolution side through the EGF product
rule. The oracles for the integer right-hand sides are the paper's
formulas as written, one Fraction per term (``paper_rhs_*``); ``fold5`` and
``fold7`` evaluate the derived expansion, so their oracles are the 5- and
7-fold forms typed by hand, and Theorem 5 as printed is the r = 1 case. The oracle
for their small weights is the double-factorial weights of the paper's
sums (``weights``), from which ``TestRootWeights`` derives them. The oracles
for the two differential equations for L are their power-series checks on
``series_oracle.Series`` (``paper_l_squared``, ``paper_l_second_derivative``).
The oracles for ``thm1`` and ``cor1`` compare one Fraction per side at every
(n, k) the sweep tries, and rebuild both stages of ``cor1`` for each
(``fraction_route_agreement``, ``fraction_integral_representation``).
The oracle for the derived conjecture polynomials is the sampled route, which
reads no operator: the linear system on the convolution at the default samples
(``sampled_conjecture``), solved by fraction-free elimination (``bareiss``),
itself checked against Gauss-Jordan elimination over Fraction
(``gauss_jordan``). ``square_by_parts`` writes the symmetric
kernel term by term, so its negative controls can drop or change one part.
The sweep returns integer numerators over one denominator and each
right-hand side an integer pair per n; ``sweep_values`` and ``values`` read
them as Fractions for comparison with the oracles.
"""

import itertools
import math
import random
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycauchy2 import (
    IDENTITY_NAMES,
    PolyCauchyTable,
    arcsinh_power_egf,
    builtin_series,
    convolution_sweep,
    extract_conjecture_polynomials,
    level2_by_formula,
    level2_by_recurrence,
    level2_series_values,
    verify_identity,
)
from polycauchy2 import convolution as convolution_module
from polycauchy2 import exact as exact_module
from polycauchy2 import polycauchy as polycauchy_module
from polycauchy2.cli import main
from polycauchy2.convolution import (
    CONVOLUTION_IDENTITIES,
    CheckRow,
    IdentityReport,
    conjecture_prefactor,
    default_conjecture_samples,
    rhs_2fold_00,
    rhs_2fold_01,
    rhs_2fold_11,
    rhs_3fold,
    rhs_4fold,
    rhs_5fold,
    rhs_7fold,
)
from polycauchy2.polynomials import poly_eval
from series_oracle import Series, double_factorial, paper_series, poly_mul


def brute_force_convolution(offsets, n, table):
    total = Fraction(0)
    for indices in itertools.product(range(n + 1), repeat=len(offsets)):
        if sum(indices) != n:
            continue
        term = Fraction(factorial(2 * n))
        for i, j in zip(indices, offsets):
            term /= factorial(2 * i)
            term *= table.value(i + j)
        total += term
    return total


def sweep_values(offsets, nmax, table):
    """``convolution_sweep`` as Fractions: each integer numerator over the sweep's one denominator."""
    numerators, denominator = convolution_sweep(offsets, nmax, table)
    return [Fraction(x, denominator) for x in numerators]


def values(pairs):
    """A right-hand side's (numerator, denominator) pairs as Fractions."""
    return [Fraction(a, d) for a, d in pairs]


def fraction_row(n, lhs, rhs):
    """A row of two Fractions compared with ==, as the oracles build it."""
    return CheckRow(n, lhs, rhs, lhs == rhs)


def square_by_parts(
    xs, nmax, shift=0, *, unpaired=True, weight=lambda row, i, mirror: row[i] + row[mirror], middle=True
):
    """The sum over i <= n of binom(2n, 2i) xs_i xs_(n+shift-i), in the kernel's three parts.

    With m = n + shift: the terms i < shift alone, each i with shift <= i < m/2
    paired with m - i under weight(row, i, m - i), by default binom(2n, 2i) +
    binom(2n, 2m - 2i), and the middle term when m is even and m/2 >= shift.
    """
    rows = exact_module._even_binomials(nmax)
    out = []
    for n in range(nmax + 1):
        m, row = n + shift, rows[n]
        total = 0
        if unpaired:
            total += sum(row[i] * xs[i] * xs[m - i] for i in range(min(shift, n + 1)))
        for i in range(shift, (m + 1) // 2):
            total += weight(row, i, m - i) * xs[i] * xs[m - i]
        if middle and m % 2 == 0 and m // 2 >= shift:
            total += row[m // 2] * xs[m // 2] ** 2
        out.append(total)
    return out


def _sign(e):
    return -1 if e % 2 else 1


def weights(count):
    """w_j = (-1)^j (2j-1)!! (2j-3)!! for j = 0..count, with (-1)!! = 1 and (-3)!! = -1.

    For j = n - l, binom(2n, 2l) w_j is the paper's (2n)! (-1)^j (2j-3)!! /
    ((2l)! 2^j j!), and binom(2n, 2l) w_{j+1} is minus its (2n)! (-1)^j
    (2j+1)!! / ((2l)! 2^j j!). Built by w_0 = -1 and w_j = -(2j-1)(2j-3)
    w_{j-1}, which the extension a (a-2)!! = a!! makes hold from j = 1 on.
    """
    row = [-1]
    for j in range(1, count + 1):
        row.append(-(2 * j - 1) * (2 * j - 3) * row[-1])
    return row


def paper_rhs_2fold_00(n, table):
    total = Fraction(0)
    for l in range(n + 1):
        total += (
            _sign(n - l)
            * double_factorial(2 * n - 2 * l - 3)
            * (2 * l - 1)
            / (Fraction(2) ** (n - l) * factorial(n - l) * factorial(2 * l))
            * table.value(l)
        )
    return factorial(2 * n) * total


def paper_rhs_2fold_01(n, table, lmax=None):
    if lmax is None:
        lmax = n + 1
    total = Fraction(0)
    for l in range(lmax + 1):
        total += (
            _sign(n - l - 1)
            * (2 * l - 1)
            * (3 * n * n - 3 * n * l + 2 * l * l + 4 * n - 3 * l + 1)
            * double_factorial(2 * n - 2 * l - 1)
            / (3 * Fraction(2) ** (n - l) * factorial(n - l + 1) * factorial(2 * l))
            * table.value(l)
        )
    return factorial(2 * n) * total


def bump_rhs_at(patch, name, target, fault="plus one"):
    """Patch the registered right-hand side of ``name`` to read a wrong value at index ``target``.

    With ``fault`` "plus one" the value there is 1 more, and with "negated"
    it is minus itself. With "left numerator over 2 d" it is the left sweep's
    numerator a over twice its denominator d, so the two sides share a
    numerator and differ in denominator. The registry looks the name up in
    ``convolution`` when it runs, so the real function is captured before the
    patch; calling ``defn.rhs`` inside would recurse.
    """
    defn = CONVOLUTION_IDENTITIES[name]
    real = defn.rhs

    def wrong(nmax, table, b, e):
        if fault == "plus one":
            return b + e, e
        if fault == "negated":
            return -b, e
        numerators, d = convolution_sweep(defn.offsets, nmax, table)
        return numerators[target], 2 * d

    def perturbed(nmax, table):
        pairs = enumerate(real(nmax, table), defn.nmin)
        return [wrong(nmax, table, b, e) if n == target else (b, e) for n, (b, e) in pairs]

    patch.setattr(convolution_module, defn.rhs_name, perturbed)


def truncate_2fold_01(patch):
    """Patch Theorem 3's right-hand side to the paper's form without its l = n + 1 term."""
    patch.setattr(
        convolution_module,
        "rhs_2fold_01",
        lambda nmax, table: [paper_rhs_2fold_01(n, table, lmax=n).as_integer_ratio() for n in range(nmax + 1)],
    )


def paper_rhs_2fold_11(n, table):
    s1 = s2 = s3 = Fraction(0)
    for l in range(n + 1):
        shared = Fraction(2) ** (n - l) * factorial(n - l) * factorial(2 * l)
        s1 += (
            _sign(n - l)
            * (10 * n - 8 * l + 5)
            * double_factorial(2 * n - 2 * l - 3)
            / shared
            * table.value(l + 2)
        )
        s2 += (
            _sign(n - l)
            * (6 * l + 1)
            * double_factorial(2 * n - 2 * l + 1)
            / shared
            * table.value(l + 1)
        )
        s3 += (
            _sign(n - l)
            * (160 * l**3 - 220 * l**2 + 72 * l - 1)
            * double_factorial(2 * n - 2 * l + 1)
            / shared
            * table.value(l)
        )
    f2n = factorial(2 * n)
    return Fraction(f2n, 30) * s1 - Fraction(f2n, 3) * s2 - Fraction(f2n, 30) * s3


def paper_rhs_4fold(n, table):
    s1 = s2 = Fraction(0)
    for l in range(n + 1):
        shared = Fraction(2) ** (n - l) * factorial(n - l) * factorial(2 * l)
        s1 += (
            _sign(n - l)
            * double_factorial(2 * n - 2 * l - 3)
            * (2 * l - 1)
            * (2 * l - 2)
            * (2 * l - 3)
            / shared
            * table.value(l)
        )
        if l >= 1:
            s2 += (
                _sign(n - l)
                * double_factorial(2 * n - 2 * l - 3)
                * (2 * l)
                * (2 * l - 1)
                * (2 * l - 3) ** 3
                / shared
                * table.value(l - 1)
            )
    return Fraction(factorial(2 * n), 6) * (s1 + s2)


def paper_rhs_3fold(n, table):
    value = table.value
    return (2 * n - 1) * (n - 1) * value(n) + n * (2 * n - 1) * (2 * n - 3) ** 2 * value(n - 1)


def paper_rhs_5fold(n, table):
    value = table.value
    return (
        comb(2 * n - 1, 4) * value(n)
        + Fraction(4 * n * n - 16 * n + 17, 3) * comb(2 * n, 2) * comb(2 * n - 3, 2) * value(n - 1)
        + comb(2 * n, 4) * (2 * n - 5) ** 4 * value(n - 2)
    )


def paper_rhs_7fold(n, table):
    value = table.value
    return (
        comb(2 * n - 1, 6) * value(n)
        + Fraction(12 * n * n - 60 * n + 83, 15) * comb(2 * n, 2) * comb(2 * n - 3, 4) * value(n - 1)
        + Fraction((4 * n * n - 24 * n + 39) * (12 * n * n - 72 * n + 109), 15)
        * comb(2 * n, 4)
        * comb(2 * n - 5, 2)
        * value(n - 2)
        + comb(2 * n, 6) * (2 * n - 7) ** 6 * value(n - 3)
    )


def paper_l_squared(nmax):
    # L^2 = sqrt(1+t^2) L - t sqrt(1+t^2) L', compared coefficientwise.
    order = nmax + 1
    big_l = paper_series("L", order)
    root = paper_series("sqrt_1pt2", order)
    lhs = big_l * big_l
    rhs = root * big_l - (Series.x(order) * root) * big_l.derivative()
    rows = [fraction_row(i, lhs.coefficient(i), rhs.coefficient(i)) for i in range(nmax + 1)]
    return IdentityReport("eqll", nmax, f"coefficients t^0..t^{nmax}", rows)


def paper_l_second_derivative(nmax):
    # L L'' expressed through L..L''' with rational-function prefactors, each
    # prefactor expanded from builtins. The middle prefactor carries a 1/t;
    # its numerator series has constant term exactly 0, so the division is a
    # legal power-series operation.
    order = nmax + 3
    big_l = paper_series("L", order)
    l1 = big_l.derivative()
    l2 = l1.derivative()
    l3 = l2.derivative()
    root = paper_series("sqrt_1pt2", order)
    invroot = paper_series("invsqrt_1pt2", order)
    inv32 = paper_series("inv32_1pt2", order)

    a = inv32 * Fraction(1, 2) - invroot * Fraction(1, 6)
    b_numerator = root * Fraction(1, 6) + inv32 * Fraction(1, 2) - invroot * Fraction(2, 3)
    b = b_numerator.divide_by(Series.x(order))
    c = (invroot - root) * Fraction(1, 2)
    d = (Series.x(order) * root) * Fraction(-1, 3)

    lhs = big_l * l2
    rhs = a * big_l + b * l1 + c * l2 + d * l3
    rows = [fraction_row(i, lhs.coefficient(i), rhs.coefficient(i)) for i in range(nmax + 1)]
    return IdentityReport("eqconvo02", nmax, f"coefficients t^0..t^{nmax}", rows)


def report_over_k(name, nmax, k_range, check):
    """A k-sweep compared as Fractions: check(n, k) builds a row for every (n, k) tried.

    Each n reports the first failing k's row, else the k = 1 row.
    """

    def row(n):
        by_k = {}
        for k in k_range:
            by_k[k] = check(n, k)
            if not by_k[k].equal:
                return by_k[k]
        return by_k[1]

    rows = [row(n) for n in range(nmax + 1)]
    return IdentityReport(name, nmax, f"n=0..{nmax}, k={k_range[0]}..{k_range[-1]}", rows)


def formula_table(nmax, k_range):
    table = PolyCauchyTable()
    for k in k_range:
        table.ensure(nmax, k)
    return table


def fraction_route_agreement(nmax):
    """thm1 as a Fraction per route and (n, k), compared with ==."""
    formula = formula_table(nmax, range(-3, 4))
    egf = arcsinh_power_egf(nmax)
    series = {k: level2_series_values(egf, k) for k in range(-3, 4)}
    return report_over_k(
        "thm1", nmax, range(-3, 4), lambda n, k: fraction_row(n, formula.value(n, k), series[k][n])
    )


def fraction_integral_check(n, k, triangle, table):
    """Both stages of cor1 at one (n, k), rebuilt for it: stage 1, stage 2's weights, a Fraction per side."""
    product = polycauchy_module._linear_products(n)[n]
    expected = [0] * (2 * n + 1)
    expected[::2] = polycauchy_module._formula_column(n, triangle)
    (numerator,), denominator = polycauchy_module._sum_over_powers([product[::2]], k)
    integral, reference = Fraction(numerator, denominator), table.value(n, k)
    return CheckRow(n, integral, reference, product == expected and integral == reference)


def fraction_integral_representation(nmax):
    """cor1 as ``fraction_integral_check`` at every (n, k) the sweep tries."""
    triangle, table = level2_by_recurrence(nmax), formula_table(nmax, range(1, 4))
    return report_over_k(
        "cor1", nmax, range(1, 4), lambda n, k: fraction_integral_check(n, k, triangle, table)
    )


# The k-sweeps and their Fraction oracles.
K_SWEEPS = [("thm1", fraction_route_agreement), ("cor1", fraction_integral_representation)]
K_SWEEP_IDS = [case[0] for case in K_SWEEPS]


def gauss_jordan(matrix, rhs):
    # Reduce to the identity over Fraction, normalizing at every step.
    rows = [[Fraction(v) for v in row] + [Fraction(value)] for row, value in zip(matrix, rhs)]
    size = len(rows)
    for col in range(size):
        sel = next((i for i in range(col, size) if rows[i][col] != 0), None)
        if sel is None:
            raise ArithmeticError("singular system")
        rows[col], rows[sel] = rows[sel], rows[col]
        inv = 1 / rows[col][col]
        rows[col] = [v * inv for v in rows[col]]
        for i in range(size):
            if i != col and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[col])]
    return [row[-1] for row in rows]


def bareiss_eliminate(rows, divide):
    # Fraction-free elimination (Bareiss, Math. Comp. 22, 1968) of integer
    # rows in place: below pivot p a row becomes (p row - f pivot_row) / p'
    # for the previous pivot p'. Returns the last pivot, which is +-det A.
    size, previous = len(rows), 1
    for col in range(size):
        sel = next((i for i in range(col, size) if rows[i][col]), None)
        if sel is None:
            raise ArithmeticError("singular system")
        rows[col], rows[sel] = rows[sel], rows[col]
        p, tail = rows[col][col], rows[col][col + 1 :]
        for row in rows[col + 1 :]:
            f = row[col]
            row[col + 1 :] = [divide(p * a - f * b, previous) for a, b in zip(row[col + 1 :], tail)]
        previous = p
    return previous


def primitive(values):
    # The row scaled to integers by the lcm of its denominators, then divided by the gcd of its entries.
    scale = math.lcm(*(v.denominator for v in values))
    integers = [v.numerator * (scale // v.denominator) for v in values]
    content = math.gcd(*integers) or 1
    return [v // content for v in integers]


def bareiss(matrix, rhs, divide=None):
    # The fraction-free solve on the primitive integer rows; every division,
    # back-substitution's too, goes through ``divide``.
    if divide is None:
        divide = lambda a, d: polycauchy_module._exact_div(a, d, "Bareiss solve")  # noqa: E731
    rows = [primitive([*row, value]) for row, value in zip(matrix, rhs)]
    previous = bareiss_eliminate(rows, divide)
    numerators = [0] * len(rows)
    for i in reversed(range(len(rows))):
        total = previous * rows[i][-1] - sum(a * x for a, x in zip(rows[i][i + 1 :], numerators[i + 1 :]))
        numerators[i] = divide(total, rows[i][i])
    return [Fraction(x, previous) for x in numerators]


# Integer right-hand side, paper-form oracle, first index, identity name.
PAPER_FORMS = [
    (rhs_2fold_00, paper_rhs_2fold_00, 0, "thm2"),
    (rhs_2fold_01, paper_rhs_2fold_01, 0, "thm3"),
    (rhs_2fold_11, paper_rhs_2fold_11, 0, "thm4"),
    (rhs_4fold, paper_rhs_4fold, 1, "thm6"),
]
PAPER_FORM_IDS = [case[3] for case in PAPER_FORMS]
# The closed forms that are a few terms, not a weighted sum, in the same layout.
SHORT_FORMS = [
    (rhs_3fold, paper_rhs_3fold, 1, "thm5"),
    (rhs_5fold, paper_rhs_5fold, 2, "fold5"),
    (rhs_7fold, paper_rhs_7fold, 3, "fold7"),
]
ALL_FORMS = PAPER_FORMS + SHORT_FORMS
ALL_FORM_IDS = [case[3] for case in ALL_FORMS]

# The differential equations for L and their power-series oracles.
L_EQUATIONS = [("eqll", paper_l_squared), ("eqconvo02", paper_l_second_derivative)]
L_EQUATION_IDS = [case[0] for case in L_EQUATIONS]


@pytest.fixture(scope="module")
def table32():
    return PolyCauchyTable.build(32)


@pytest.fixture(scope="module")
def table42():
    return PolyCauchyTable.build(42)


@pytest.fixture(scope="module")
def paper_values_to_40(table42):
    """Each paper-form oracle at every n from its first index to 40, by identity name."""
    return {name: [oracle(n, table42) for n in range(nmin, 41)] for _, oracle, nmin, name in ALL_FORMS}


SWEEP_CASES = [
    ((0, 0), 8),
    ((0, 1), 8),
    ((1, 1), 7),
    ((2, 0), 7),
    ((0, 0, 0), 7),
    ((0, 1, 2), 6),
    ((0,) * 5, 6),
    ((0,) * 7, 6),
    ((0,) * 4, 7),
    ((0,) * 6, 6),
    ((0,) * 8, 5),
    ((1, 1, 1), 6),
    ((2, 2), 7),
    ((0, 0, 1), 6),
    ((1, 0, 0, 1), 6),
]


class TestConvolveOracle:
    @pytest.mark.parametrize("offsets,nmax", SWEEP_CASES)
    def test_sweep_matches_brute_force_at_every_index(self, offsets, nmax, table18):
        sweep = sweep_values(offsets, nmax, table18)
        assert len(sweep) == nmax + 1
        for n, value in enumerate(sweep):
            assert value == brute_force_convolution(offsets, n, table18), (offsets, n)

    @pytest.mark.parametrize("offsets,nmax", SWEEP_CASES)
    def test_shorter_sweep_is_a_prefix(self, offsets, nmax, table18):
        sweep = sweep_values(offsets, nmax, table18)
        for m in range(nmax + 1):
            assert sweep[: m + 1] == sweep_values(offsets, m, table18)

    @settings(max_examples=25, deadline=None)
    @given(
        offsets=st.lists(st.integers(0, 3), min_size=2, max_size=5).map(tuple),
        nmax=st.integers(0, 6),
    )
    def test_sweep_property(self, offsets, nmax, table18):
        sweep = sweep_values(offsets, nmax, table18)
        assert sweep == [brute_force_convolution(offsets, n, table18) for n in range(nmax + 1)]

    @pytest.mark.parametrize(
        "offsets,n",
        [((0, 0), 7), ((0, 1), 6), ((1, 1), 5), ((0, 0, 0), 6), ((0,) * 5, 5), ((0, 1, 2), 4)],
    )
    def test_matches_brute_force(self, offsets, n, table18):
        assert sweep_values(offsets, n, table18)[n] == brute_force_convolution(offsets, n, table18)

    def test_hand_values(self, table18):
        assert sweep_values((0, 0), 0, table18)[0] == 1
        assert sweep_values((0, 0), 1, table18)[1] == Fraction(2, 3)
        assert sweep_values((1, 1), 0, table18)[0] == Fraction(1, 9)

    def test_invariant_under_offset_permutation(self, table18):
        for n in range(6):
            reference = sweep_values((0, 1, 2), n, table18)[n]
            for offsets in itertools.permutations((0, 1, 2)):
                assert sweep_values(offsets, n, table18)[n] == reference

    @pytest.mark.parametrize(
        "offsets,squares,products",
        [
            ((0, 0), 1, 0),
            ((1, 1), 1, 0),
            ((0, 1), 1, 0),
            ((0,) * 4, 2, 0),
            ((0,) * 7, 2, 2),
            ((1, 0, 0, 1), 2, 1),
            ((1, 3), 1, 0),
        ],
    )
    def test_repeated_offsets_are_squared(self, offsets, squares, products, table18, monkeypatch):
        # Square-and-multiply per distinct offset, then one product per further group;
        # two distinct offsets a < b are one square shifted by b - a.
        calls = {"_egf_square": 0, "_egf_product": 0}
        for attr in calls:
            real = getattr(convolution_module, attr)

            def counted(*args, attr=attr, real=real):
                calls[attr] += 1
                return real(*args)

            monkeypatch.setattr(convolution_module, attr, counted)
        convolution_sweep(offsets, 5, table18)
        assert calls == {"_egf_square": squares, "_egf_product": products}

    @pytest.mark.parametrize("shift", range(4))
    def test_shifted_square_equals_the_product_and_the_enumeration(self, shift, table42):
        rng = random.Random(shift)
        xs = [rng.randrange(-(10**40), 10**40) for _ in range(44)]
        c, denominator = table42.numerators(42)
        for nmax in range(41):
            square = convolution_module._egf_square(xs, nmax, shift)
            assert square == convolution_module._egf_product(xs, xs[shift:], nmax), nmax
        top = 42 - shift
        square = convolution_module._egf_square(c, top, shift)
        assert square == convolution_module._egf_product(c, c[shift:], top)
        for n, value in enumerate(square):
            assert Fraction(value, denominator**2) == brute_force_convolution((0, shift), n, table42), n

    @pytest.mark.parametrize("shift", range(4))
    def test_parts_oracle_is_the_kernel(self, shift, table18):
        c, _ = table18.numerators(18)
        assert square_by_parts(c, 15, shift) == convolution_module._egf_square(c, 15, shift)

    def test_spec_validation(self, table18):
        with pytest.raises(ValueError, match="at least two factors"):
            convolution_sweep((0,), 3, table18)
        with pytest.raises(ValueError, match="offsets must be >= 0"):
            convolution_sweep((0, -1), 3, table18)
        with pytest.raises(ValueError, match="index n must be >= 0"):
            convolution_sweep((0, 0), -1, table18)

    def test_table_must_cover_request(self):
        table = PolyCauchyTable.build(3)
        with pytest.raises(ValueError):
            convolution_sweep((0, 1), 3, table)
        # A table one entry short is an error, and the sweep leaves it as it was.
        table = PolyCauchyTable.build(12)
        held = [table.value(n) for n in range(13)]
        for offsets in ((0, 1), (1, 1)):
            with pytest.raises(ValueError, match="table holds n = 0..12 for k = 1, requested n = 13"):
                convolution_sweep(offsets, 12, table)
            assert table.max_n() == 12
            assert [table.value(n) for n in range(13)] == held


class TestClosedFormSweeps:
    @pytest.mark.parametrize("name", sorted(CONVOLUTION_IDENTITIES))
    def test_rhs_matches_convolution(self, name, table18):
        defn = CONVOLUTION_IDENTITIES[name]
        lhs = sweep_values(defn.offsets, 10, table18)
        rhs = values(defn.rhs(10, table18))
        assert len(rhs) == 11 - defn.nmin
        for n, value in enumerate(rhs, defn.nmin):
            assert lhs[n] == value, (name, n)

    @pytest.mark.parametrize("name", sorted(CONVOLUTION_IDENTITIES))
    def test_sides_are_integers_and_build_no_fraction(self, name, table18, monkeypatch):
        # The sweep is its integer numerators over D^k, and the closed form one
        # pair of integers per n, the denominator positive; neither builds a Fraction.
        defn = CONVOLUTION_IDENTITIES[name]
        _, denominator = table18.numerators(10 + max(defn.offsets))

        def refuse(*args):
            raise AssertionError(f"a Fraction built on the {name} sides")

        monkeypatch.setattr(convolution_module, "Fraction", refuse)
        numerators, scale = convolution_sweep(defn.offsets, 10, table18)
        pairs = defn.rhs(10, table18)
        assert len(numerators) == 11 and all(type(x) is int for x in numerators)
        assert scale == denominator ** len(defn.offsets)
        assert len(pairs) == 11 - defn.nmin
        assert all(type(b) is int and type(e) is int and e > 0 for b, e in pairs)

    @pytest.mark.parametrize(
        "name", ["thm5", "thm6", "fold5", "fold7"]
    )
    def test_lower_bound_guard(self, name, table18):
        defn = CONVOLUTION_IDENTITIES[name]
        with pytest.raises(ValueError):
            defn.rhs(defn.nmin - 1, table18)

    def test_verify_reports_pass(self):
        report = verify_identity("thm4", 9)
        assert report.status == "pass"
        assert report.first_failure is None
        assert [row.n for row in report.per_n_results] == list(range(10))

    def test_verify_json_schema(self):
        payload = verify_identity("thm2", 5).to_json_dict()
        assert list(payload) == ["identity", "nmax", "status", "results", "first_failure"]
        assert payload["identity"] == "thm2"
        assert payload["nmax"] == 5
        assert payload["status"] == "pass"
        assert payload["first_failure"] is None
        first = payload["results"][0]
        assert list(first) == ["n", "lhs", "rhs", "equal"]
        assert first == {"n": 0, "lhs": "1", "rhs": "1", "equal": True}

    @pytest.mark.parametrize("name", PAPER_FORM_IDS)
    def test_one_table_read_and_one_weight_row_per_side(self, name, monkeypatch):
        # The left sweep reads the table once and the right sweep once more;
        # only the right side builds weights. Neither count grows with nmax.
        calls = {"numerators": 0, "_root_weights": 0}

        def counting(owner, attr):
            real = getattr(owner, attr)

            def counted(*args):
                calls[attr] += 1
                return real(*args)

            return counted

        for owner, attr in ((PolyCauchyTable, "numerators"), (convolution_module, "_root_weights")):
            monkeypatch.setattr(owner, attr, counting(owner, attr))
        for nmax in (6, 30):
            calls.update(dict.fromkeys(calls, 0))
            assert verify_identity(name, nmax).status == "pass"
            assert calls == {"numerators": 2, "_root_weights": 1}, (name, nmax)

    def test_one_sweep_per_conjecture_invocation(self, monkeypatch):
        calls = []
        real = convolution_module.convolution_sweep

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(convolution_module, "convolution_sweep", counted)
        assert verify_identity("conjecture-r3", 12).status == "pass"
        assert len(calls) == 1


class TestPaperFormOracles:
    @pytest.mark.parametrize("rhs,oracle,nmin,name", ALL_FORMS, ids=ALL_FORM_IDS)
    def test_integer_form_equals_paper_form(self, rhs, oracle, nmin, name, table32):
        assert values(rhs(30, table32)) == [oracle(n, table32) for n in range(nmin, 31)], name

    @settings(max_examples=40, deadline=None)
    @given(case=st.sampled_from(ALL_FORMS), nmax=st.integers(0, 40))
    def test_every_sweep_equals_its_paper_form(self, case, nmax, table42, paper_values_to_40):
        rhs, _, nmin, name = case
        if nmax < nmin:
            with pytest.raises(ValueError, match=f"defined for n >= {nmin}"):
                rhs(nmax, table42)
            return
        assert values(rhs(nmax, table42)) == paper_values_to_40[name][: nmax + 1 - nmin], (name, nmax)

    @pytest.mark.parametrize("rhs,oracle,nmin,name", SHORT_FORMS, ids=[case[3] for case in SHORT_FORMS])
    def test_short_form_moves_from_the_first_index_reading_a_wrong_entry(
        self, rhs, oracle, nmin, name, table18, bumped_route
    ):
        # Each short form reads C_{2n} at index n, so C_10 + 1 first shows at n = 5.
        bumped_route(5)
        perturbed = PolyCauchyTable.build(18)
        moved = values(rhs(12, perturbed))
        truth = [oracle(n, table18) for n in range(nmin, 13)]
        assert moved[: 5 - nmin] == truth[: 5 - nmin]
        assert moved[5 - nmin] != truth[5 - nmin]

    @pytest.mark.parametrize("rhs,oracle,nmin,name", PAPER_FORMS, ids=PAPER_FORM_IDS)
    def test_perturbed_weight_is_visible(self, rhs, oracle, nmin, name, table32, monkeypatch):
        # C9 style: one integer weight off by 2 must move the closed form off
        # the paper's value and fail the identity's sweep. An even bump keeps
        # every scaled row a multiple of its divisor, so the sweep returns
        # wrong values; an odd one can trip the checked division instead.
        real = convolution_module._root_weights

        def perturbed(count):
            row = real(count)
            if count >= 2:
                row[2] += 2
            return row

        monkeypatch.setattr(convolution_module, "_root_weights", perturbed)
        assert values(rhs(8, table32)) != [oracle(n, table32) for n in range(nmin, 9)]
        report = verify_identity(name, 8)
        assert report.status == "fail"
        assert report.first_failure is not None

    @pytest.mark.parametrize("rhs,oracle,nmin,name", PAPER_FORMS, ids=PAPER_FORM_IDS)
    def test_sum_forms_read_no_binomial_row(self, rhs, oracle, nmin, name, table32, monkeypatch):
        # The shared rows serve the left sweeps and the series route only, so
        # one wrong row can never move both sides of an identity.
        def refuse(n):
            raise AssertionError(f"binomial row {n} read")

        monkeypatch.setattr(convolution_module, "_even_binomials", refuse)
        assert values(rhs(30, table32)) == [oracle(n, table32) for n in range(nmin, 31)], name


class TestRootWeights:
    """The small weights of the sum forms, derived from the double-factorial ones."""

    def test_first_values(self):
        assert convolution_module._root_weights(6) == [-1, -2, 2, -4, 10, -28, 84]

    def test_binomial_weights_rescale_to_root_weights(self):
        w, v = weights(60), convolution_module._root_weights(60)
        for n in range(61):
            for l in range(n + 1):
                j = n - l
                assert comb(2 * n, 2 * l) * w[j] * 4**j == factorial(2 * n) // factorial(2 * l) * v[j], (n, l)

    def test_root_weights_are_the_coefficients_of_minus_sqrt_1_plus_4u(self):
        binomial_half = Fraction(1)
        for j, value in enumerate(convolution_module._root_weights(60)):
            assert value == -(4**j) * binomial_half, j
            binomial_half *= (Fraction(1, 2) - j) / (j + 1)

    def test_shifted_weights(self):
        # Theorem 4's C_{2l+2} and C_{2l} terms carry w_{j+1}; rescaled, that
        # is (1 - 4j^2) v_j = (j+1)(2j+1) v_{j+1} / 2.
        w, v = weights(61), convolution_module._root_weights(61)
        for j in range(61):
            shifted = Fraction(4**j * w[j + 1], factorial(2 * j))
            assert shifted == (1 - 4 * j * j) * v[j] == Fraction((j + 1) * (2 * j + 1) * v[j + 1], 2), j


class TestNegativeControls:
    @pytest.mark.parametrize(
        "fault,rhs_of",
        [
            ("plus one", lambda lhs: lhs + 1),
            # The row keeps both values and the sign of each.
            ("negated", lambda lhs: -lhs),
            # a / d against a / (2 d): equal numerators, unequal values.
            ("left numerator over 2 d", lambda lhs: lhs / 2),
        ],
        ids=["plus-one", "negated", "shared-numerator"],
    )
    @pytest.mark.parametrize("name", sorted(CONVOLUTION_IDENTITIES))
    def test_perturbing_rhs_flips_to_fail(self, name, fault, rhs_of, monkeypatch):
        target = CONVOLUTION_IDENTITIES[name].nmin + 2
        bump_rhs_at(monkeypatch, name, target, fault)
        report = verify_identity(name, target + 3)
        assert report.status == "fail"
        assert report.first_failure is not None
        assert report.first_failure.n == target
        assert report.first_failure.lhs != report.first_failure.rhs
        assert report.first_failure.rhs == rhs_of(report.first_failure.lhs)
        assert [row.n for row in report.per_n_results if not row.equal] == [target]
        payload = report.to_json_dict()
        assert payload["first_failure"]["n"] == target

    def test_truncating_2fold_01_sum_breaks(self, monkeypatch):
        # The paper's form without its l = n + 1 term. That term vanishes at
        # n = 0, so the truncated sum first fails at n = 1.
        truncate_2fold_01(monkeypatch)
        report = verify_identity("thm3", 12)
        assert report.status == "fail"
        assert report.first_failure is not None
        assert report.first_failure.n == 1
        assert report.per_n_results[0].equal

    def test_one_wrong_binomial_fails_at_the_first_row_reading_it(self, monkeypatch):
        # binom(12, 4) one too big, in the shared rows the left sweeps read.
        # The rows are a patched copy, so no wrong row outlives the test. The
        # (0, 0) square and the (0, 1) product read binom(2n, 2i) at row n,
        # so both Theorems 2 and 3 first fail at n = 6. The right sides read
        # no binomial row (see test_sum_forms_read_no_binomial_row).
        rows = [list(row) for row in exact_module._even_binomials(12)]
        rows[6][2] += 1
        monkeypatch.setattr(exact_module, "_EVEN_BINOMIALS", rows)
        for name, first in (("thm2", 6), ("thm3", 6)):
            report = verify_identity(name, 9)
            assert report.status == "fail", name
            assert report.first_failure.n == first, name
            assert all(row.equal for row in report.per_n_results[:first]), name
        # The series route reads the same rows; its checked division by
        # binom(2m, 2) catches the wrong weight at n = 6, before thm1
        # compares a value with the formula route, which reads no binomial.
        with pytest.raises(ArithmeticError, match="not exact"):
            verify_identity("thm1", 9)
        assert verify_identity("thm1", 5).status == "pass"

    @pytest.mark.parametrize("name", PAPER_FORM_IDS)
    def test_wrong_scale_factor_raises_at_the_first_row_reading_it(self, name, monkeypatch):
        # (2N)! / (2l)! one too big at l = 4 scales X_4 and the row-4 divisor
        # alike, but not the rows below it, so row 4 of the sum, the first to
        # read it, is no longer a multiple of its divisor: the checked
        # division raises there, after rows 0..3 divided exactly. For thm3
        # that row is n = 3, since its sum runs at index n + 1.
        real_ratios, real_div, exact = convolution_module._factorial_ratios, convolution_module._exact_div, []

        def bumped(nmax):
            ratios = real_ratios(nmax)
            if nmax >= 4:
                ratios[4] += 1
            return ratios

        def counted(numerator, divisor, where):
            quotient = real_div(numerator, divisor, where)
            exact.append(where)
            return quotient

        monkeypatch.setattr(convolution_module, "_factorial_ratios", bumped)
        monkeypatch.setattr(convolution_module, "_exact_div", counted)
        with pytest.raises(ArithmeticError, match="right-hand side: division by .* is not exact"):
            verify_identity(name, 9)
        assert exact == ["right-hand side"] * 4

    def test_square_without_its_middle_term_fails_at_n_0(self, monkeypatch):
        # At n = 0 the middle term is the whole square.
        def halves_only(xs, nmax, shift=0):
            return square_by_parts(xs, nmax, shift, middle=False)

        monkeypatch.setattr(convolution_module, "_egf_square", halves_only)
        report = verify_identity("thm2", 6)
        assert report.status == "fail"
        assert report.first_failure.n == 0

    @pytest.mark.parametrize(
        "fault,first",
        [
            # At n = 0 the one term, C_0 C_2, has its mirror past n.
            ({"unpaired": False}, 0),
            # n = 2 pairs i = 1 with 2 first: binom(4, 2) + binom(4, 4), not 2 binom(4, 2).
            ({"weight": lambda row, i, mirror: 2 * row[i]}, 2),
            # m = n + 1 is first even with m/2 >= 1 at n = 1.
            ({"middle": False}, 1),
        ],
        ids=["no-unpaired-term", "unshifted-weight", "no-middle-term"],
    )
    def test_shifted_square_fault_fails_thm3_at_the_first_row_reading_it(self, fault, first, monkeypatch):
        def faulty(xs, nmax, shift=0):
            return square_by_parts(xs, nmax, shift, **fault)

        monkeypatch.setattr(convolution_module, "_egf_square", faulty)
        report = verify_identity("thm3", 8)
        assert report.status == "fail"
        assert report.first_failure.n == first
        assert all(row.equal for row in report.per_n_results[:first])

    def test_a_second_verify_builds_no_row(self, monkeypatch):
        rows = [[1]]
        monkeypatch.setattr(exact_module, "_EVEN_BINOMIALS", rows)
        assert main(["verify", "thm2", "--nmax", "30"]) == 0
        built = list(rows)
        assert len(built) == 31
        assert main(["verify", "thm2", "--nmax", "30"]) == 0
        assert len(rows) == 31
        assert all(a is b for a, b in zip(rows, built))

    def test_unknown_identity(self):
        with pytest.raises(ValueError):
            verify_identity("thm9", 5)
        with pytest.raises(ValueError):
            verify_identity("conjecture-r7", 5)

    def test_negative_nmax(self):
        with pytest.raises(ValueError):
            verify_identity("thm2", -1)

    @pytest.mark.parametrize("name", ["thm5", "thm6", "fold5", "fold7"])
    def test_nmax_below_first_index(self, name):
        nmin = CONVOLUTION_IDENTITIES[name].nmin
        with pytest.raises(ValueError, match=f"nmax must be >= {nmin}"):
            verify_identity(name, nmin - 1)
        assert [row.n for row in verify_identity(name, nmin).per_n_results] == [nmin]

    def test_empty_report_is_no_pass(self):
        assert IdentityReport("thm2", 0, "n=1..0", []).status == "fail"

    @pytest.mark.parametrize("name", ["thm2", "thm5", "thm6", "fold5", "fold7"])
    def test_bumped_c20_first_fails_at_n_10(self, name, bumped_route):
        # C_20 + 1 from the formula route: every sweep reads the bumped entry
        # first at n = 10 and fails there.
        bumped_route(10)
        report = verify_identity(name, 12)
        assert report.status == "fail"
        assert report.first_failure.n == 10
        assert all(row.equal for row in report.per_n_results if row.n < 10)

    def test_perturbed_table_entry_is_visible(self, table18, bumped_route):
        # C9 style: one table entry off by 1 must change the sweep and fail
        # the fold7 check, so a sweep-based check is able to fail.
        m = 4
        bumped_route(m)
        perturbed = PolyCauchyTable.build(18)
        sweep = sweep_values((0,) * 7, 8, perturbed)
        truth = [brute_force_convolution((0,) * 7, n, table18) for n in range(9)]
        assert sweep[:m] == truth[:m]
        assert all(sweep[n] != truth[n] for n in range(m, 9))
        report = verify_identity("fold7", 12)
        assert report.status == "fail"
        # At n = m both sides gain the same 7 C_{2m}, so the check fails from m + 1.
        assert report.first_failure.n == m + 1

    def test_registry_swap_is_visible(self, monkeypatch):
        # The registry reads its right-hand sides from the module, so thm2 now runs thm3's.
        monkeypatch.setattr(convolution_module, "rhs_2fold_00", convolution_module.rhs_2fold_01)
        assert verify_identity("thm2", 6).status == "fail"


class TestRouteAndSeriesSweeps:
    def test_route_agreement_report(self):
        report = verify_identity("thm1", 10)
        assert report.status == "pass"
        assert "k=-3..3" in report.parameter_range

    def test_integral_report(self):
        report = verify_identity("cor1", 8)
        assert report.status == "pass"

    @pytest.mark.parametrize("name,oracle", K_SWEEPS, ids=K_SWEEP_IDS)
    def test_k_sweeps_match_the_fraction_comparison(self, name, oracle):
        # Comparing integer numerators reports what comparing Fractions reported.
        for nmax in range(41):
            report, expected = verify_identity(name, nmax), oracle(nmax)
            assert report == expected, (name, nmax)
            assert report.to_text() == expected.to_text(), (name, nmax)
            assert report.to_json_dict() == expected.to_json_dict(), (name, nmax)

    def test_series_numerator_off_at_one_k_fails_thm1_there(self, monkeypatch):
        # Only the reported k builds Fractions, yet every k is compared: a
        # series numerator off by 1 at k = -3, n = 7, where D = 1, fails
        # n = 7 alone, and that row prints the two values of k = -3.
        real = polycauchy_module._sum_over_powers

        def perturbed(columns, k):
            numerators, denominator = real(columns, k)
            if k == -3 and len(numerators) > 7:
                numerators[7] += 1
            return numerators, denominator

        truth = level2_by_formula(7, -3)
        monkeypatch.setattr(polycauchy_module, "_sum_over_powers", perturbed)
        report = verify_identity("thm1", 12)
        assert [row.n for row in report.per_n_results if not row.equal] == [7]
        assert report.first_failure == CheckRow(7, truth, truth + 1, False)
        assert f"  n=7 lhs={truth} rhs={truth + 1} MISMATCH" in report.to_text().splitlines()
        assert report == fraction_route_agreement(12)

    @pytest.mark.parametrize("name", ["thm1", "cor1", *sorted(CONVOLUTION_IDENTITIES), "eqll", "eqconvo02"])
    def test_sides_are_compared_by_value_not_by_denominator(self, name, monkeypatch):
        # Both sides of each k-sweep happen to share one D. The series side,
        # stage 2 and every closed form are patched to hold the same values
        # over twice their denominators (2 b / 2 e against a / d), so a check
        # that compared numerators alone would fail where this one passes.
        # Every agreeing row holds one reduced Fraction on both sides.
        real = polycauchy_module._sum_over_powers
        expected = verify_identity(name, 12)

        def doubled(columns, k):
            numerators, denominator = real(columns, k)
            return [2 * x for x in numerators], 2 * denominator

        monkeypatch.setattr(polycauchy_module, "_sum_over_powers", doubled)
        for defn in CONVOLUTION_IDENTITIES.values():
            rhs_doubled = lambda nmax, table, rhs=defn.rhs: [(2 * b, 2 * e) for b, e in rhs(nmax, table)]  # noqa: E731
            monkeypatch.setattr(convolution_module, defn.rhs_name, rhs_doubled)
        report = verify_identity(name, 12)
        assert report.status == "pass"
        assert report.to_text() == expected.to_text()
        assert all(row.lhs is row.rhs for row in report.per_n_results)

    def test_formula_numerator_off_at_k3_fails_cor1_there(self, monkeypatch):
        # D C_12^(3) + 1 from the formula route at k = 3 alone: cor1 fails at
        # n = 6 only, on the k = 3 row, whose sides differ by 1/D.
        real = polycauchy_module._formula_numerators

        def bumped(nmax, k):
            numerators, denominator = real(nmax, k)
            if k == 3 and nmax >= 6:
                numerators[6] += 1
            return numerators, denominator

        truth = level2_by_formula(6, 3)
        monkeypatch.setattr(polycauchy_module, "_formula_numerators", bumped)
        report = verify_identity("cor1", 10)
        assert [row.n for row in report.per_n_results if not row.equal] == [6]
        row = report.first_failure
        assert row.lhs == truth
        assert row.rhs == truth + Fraction(1, math.lcm(*range(1, 22, 2)) ** 3)
        assert report == fraction_integral_representation(10)

    @pytest.mark.parametrize("name", ["eqll", "eqconvo02"])
    def test_series_identities(self, name):
        report = verify_identity(name, 20)
        assert report.status == "pass"
        assert len(report.per_n_results) == 21

    @pytest.mark.parametrize("name,oracle", L_EQUATIONS, ids=L_EQUATION_IDS)
    def test_series_identities_match_paper_form(self, name, oracle):
        # The sweep-based check prints what the power-series check printed.
        for nmax in range(41):
            report, expected = verify_identity(name, nmax), oracle(nmax)
            assert report.to_text() == expected.to_text(), (name, nmax)
            assert report.to_json_dict() == expected.to_json_dict(), (name, nmax)

    @pytest.mark.parametrize("name,first", [("eqll", 10), ("eqconvo02", 8)])
    def test_wrong_c10_fails_series_identities(self, name, first, bumped_route):
        # C9 style: the L equations read the formula route's table, so a
        # wrong C_10 must fail them from the first coefficient whose
        # convolution reads it. Each side of row 2n is that side of the
        # sweep's row n over (2n)!, failing rows included.
        bumped_route(5)
        report = verify_identity(name, 20)
        assert report.status == "fail"
        assert report.first_failure.n == first
        assert all(row.equal for row in report.per_n_results[:first])
        sweep = {"eqll": "thm2", "eqconvo02": "thm3"}[name]
        for row in verify_identity(sweep, 10).per_n_results:
            scale = factorial(2 * row.n)
            assert report.per_n_results[2 * row.n] == (2 * row.n, row.lhs / scale, row.rhs / scale, row.equal)
        assert report.first_failure.lhs != report.first_failure.rhs

    def test_arcsinh_power_identity(self):
        report = verify_identity("arcsinh_power", 24)
        assert report.status == "pass"
        assert [row.n for row in report.per_n_results] == [1, 2, 3, 4, 5, 6]

    def test_arcsinh_power_reports_only_compared_powers(self):
        for nmax, powers in ((2, [1]), (3, [1]), (7, [1, 2, 3]), (11, [1, 2, 3, 4, 5])):
            report = verify_identity("arcsinh_power", nmax)
            assert [row.n for row in report.per_n_results] == powers
            assert report.parameter_range.startswith(f"m=1..{powers[-1]},")
        for nmax in (0, 1):
            with pytest.raises(ValueError, match="nmax must be >= 2"):
                verify_identity("arcsinh_power", nmax)


DUALITY_CASES = [
    ("L*L", (0, 0)),
    ("L*L''", (0, 1)),
    ("L''*L''", (1, 1)),
    ("L^3", (0, 0, 0)),
    ("L^4", (0,) * 4),
    ("L^5", (0,) * 5),
    ("L^7", (0,) * 7),
]


class TestSeriesConvolutionDuality:
    @pytest.mark.parametrize("label,offsets", DUALITY_CASES)
    def test_egf_product_rule(self, label, offsets, table18):
        # The EGF product of derivatives L^(2j) has even coefficients equal
        # to the multinomial convolution with those offsets.
        order = 2 * 8 + 2 * max(offsets) + 2
        big_l = Series(builtin_series("L", order))
        product = None
        for j in offsets:
            factor = big_l.derivative(2 * j) if j else big_l
            product = factor if product is None else product * factor
        rhs = sweep_values(offsets, 8, table18)
        for n in range(9):
            assert product.egf_even_coefficient(n) == rhs[n], (label, n)

    def test_second_derivative_square_to_12(self, table18):
        big_l = Series(builtin_series("L", 30))
        square = big_l.derivative(2) * big_l.derivative(2)
        sweep = sweep_values((1, 1), 12, table18)
        for n in range(13):
            assert square.egf_even_coefficient(n) == sweep[n]


class TestConjectureExtraction:
    def test_r1_reproduces_the_3fold_coefficients(self):
        p0, p2 = extract_conjecture_polynomials(1)
        assert p0.coefficients == [Fraction(1)]
        assert p2.coefficients == [Fraction(9), Fraction(-12), Fraction(4)]
        assert verify_identity("conjecture-r1").status == "pass"

    def test_r2_fixtures(self):
        p0, p2, p4 = extract_conjecture_polynomials(2)
        assert p0.coefficients == [Fraction(1)]
        assert p2.coefficients == [
            Fraction(17, 3),
            Fraction(-16, 3),
            Fraction(4, 3),
        ]
        assert p4.coefficients == poly_mul(
            [-5, 2], poly_mul([-5, 2], poly_mul([-5, 2], [-5, 2]))
        )

    def test_r3_top_polynomial_is_a_power(self):
        polys = extract_conjecture_polynomials(3)
        expected = [Fraction(1)]
        for _ in range(6):
            expected = poly_mul(expected, [-7, 2])
        assert polys[3].coefficients == expected
        assert [len(p.coefficients) - 1 for p in polys] == [0, 2, 4, 6]
        assert verify_identity("conjecture-r3").status == "pass"

    def test_prefactor(self):
        # binom(2n, 2k) binom(2n-2k-1, 2r-2k) at r=1, k=0, n=3: binom(5, 2)
        assert conjecture_prefactor(1, 0, 3) == 10

    def test_prefactor_reads_its_second_binomial_as_a_polynomial(self):
        # binom(2n-2k-1, 2r-2k) is the falling factorial of its top over
        # (2r-2k)!, so at n = k its top -1 gives binom(-1, 0) = binom(-1, 2) = 1.
        assert conjecture_prefactor(2, 2, 2) == 1
        assert conjecture_prefactor(1, 1, 1) == 1
        assert conjecture_prefactor(2, 1, 1) == 1
        for r in range(1, 5):
            for k in range(r + 1):
                m = 2 * r - 2 * k
                for n in range(10):
                    falling = math.prod(2 * n - 2 * k - 1 - i for i in range(m))
                    assert conjecture_prefactor(r, k, n) == comb(2 * n, 2 * k) * falling // factorial(m), (r, k, n)

    @pytest.mark.parametrize("r, k, n", [(2, 0, -1), (2, -1, 3), (2, 3, 3), (0, 1, 0)])
    def test_prefactor_refuses_a_term_outside_the_ansatz(self, r, k, n):
        # The ansatz has terms k = 0..r at n >= 0; the odd-fold sums skip this check.
        with pytest.raises(ValueError, match="n >= 0 and 0 <= k <= r"):
            conjecture_prefactor(r, k, n)

    def test_domain_errors(self):
        # Only r < 1 is refused: the derivation reads no sample, so every r >= 1 derives.
        with pytest.raises(ValueError, match="needs r >= 1"):
            extract_conjecture_polynomials(0)
        with pytest.raises(ValueError, match="needs r >= 1"):
            extract_conjecture_polynomials(-1)
        polys = extract_conjecture_polynomials(4)
        assert [(p.r, p.k) for p in polys] == [(4, k) for k in range(5)]

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_a_perturbed_polynomial_fails_every_row(self, r, monkeypatch):
        # The check sees P_{r,2k}(n) through its weight prefactor * C_{2n-2k},
        # so a wrong P at any k must fail every sample: no weight is 0 there.
        truth = extract_conjecture_polynomials(r)
        for k in range(r + 1):
            perturbed = list(truth)
            perturbed[k] = truth[k]._replace(coefficients=[truth[k].coefficients[0] + 1, *truth[k].coefficients[1:]])
            monkeypatch.setattr(convolution_module, "extract_conjecture_polynomials", lambda _: perturbed)
            report = verify_identity(f"conjecture-r{r}")
            assert [row.n for row in report.per_n_results] == default_conjecture_samples(r), k
            assert not any(row.equal for row in report.per_n_results), k
        monkeypatch.undo()
        assert verify_identity(f"conjecture-r{r}").status == "pass"

    def test_evaluate_matches_closed_form(self):
        _, p2 = extract_conjecture_polynomials(1)
        for n in range(2, 9):
            assert p2.evaluate(n) == (2 * n - 3) ** 2

    def test_verify_conjecture_reports(self):
        for name, r in (("conjecture", 1), ("conjecture-r2", 2)):
            report = verify_identity(name, 12)
            assert report.status == "pass"
            assert report.notes[0] == "P[0] = 1"

    @pytest.mark.parametrize("name", ["conjecture", "conjecture-r1", "conjecture-r3"])
    def test_conjecture_report_carries_the_only_bound_it_takes(self, name):
        # The samples are fixed, so a report labelled with any other bound
        # would state a sweep that never happened.
        assert verify_identity(name).to_json_dict()["nmax"] == 12
        for nmax in (3, 13):
            with pytest.raises(ValueError, match="sample points are fixed"):
                verify_identity(name, nmax)

    @pytest.mark.parametrize("step", ["1/Q", "1/7"])
    @pytest.mark.parametrize("k,j", [(0, 0), (1, 2), (2, 1), (3, 6)])
    def test_perturbed_coefficient_fails_r3_on_exact_rows(self, k, j, step, monkeypatch):
        # Q is the common denominator of the derived polynomials, so 1/Q is
        # the smallest step of their integer numerators; 1/7 is a step that
        # Q (15) does not divide. Either moves every row, and each row's
        # right side must still be the perturbed ansatz evaluated exactly.
        real = convolution_module._derive_conjecture
        blocks = []

        def perturbed(r):
            # x / Q + 1 / s is (x L/Q + L/s) / L over L = lcm(Q, s).
            polynomials, common = real(r)
            size = common if step == "1/Q" else 7
            shared = math.lcm(common, size)
            bumped = [[x * (shared // common) for x in block] for block in polynomials]
            bumped[k][j] += shared // size
            blocks[:] = [[Fraction(x, shared) for x in block] for block in bumped]
            return bumped, shared

        monkeypatch.setattr(convolution_module, "_derive_conjecture", perturbed)
        report = verify_identity("conjecture-r3")
        assert report.status == "fail"
        assert not any(row.equal for row in report.per_n_results)
        table = PolyCauchyTable.build(default_conjecture_samples(3)[-1])
        for row in report.per_n_results:
            n = row.n
            terms = (poly_eval(blocks[i], n) * conjecture_prefactor(3, i, n) * table.value(n - i) for i in range(4))
            assert row.rhs == sum(terms, Fraction(0)), n

    @pytest.mark.parametrize("name", IDENTITY_NAMES)
    def test_verify_path_does_no_fraction_arithmetic(self, name, monkeypatch):
        # Every row compares integer sides (CheckRow.of): Fractions are only
        # built, to print, never added, multiplied or divided, and never
        # compared, except by the conjecture notes, which compare each
        # derived coefficient with 0 to print it.
        def forbidden(*args):
            raise AssertionError(f"Fraction arithmetic on the {name} path")

        expected = verify_identity(name).to_text()
        for method in ("add", "sub", "mul", "truediv", "floordiv", "mod", "pow"):
            monkeypatch.setattr(Fraction, f"__{method}__", forbidden)
            monkeypatch.setattr(Fraction, f"__r{method}__", forbidden)
        for method in ("neg", "pos", "abs"):
            monkeypatch.setattr(Fraction, f"__{method}__", forbidden)
        if not name.startswith("conjecture"):
            for method in ("eq", "lt", "le", "gt", "ge"):
                monkeypatch.setattr(Fraction, f"__{method}__", forbidden)
        assert verify_identity(name).to_text() == expected

    def test_identity_names_cover_registry(self):
        for name in CONVOLUTION_IDENTITIES:
            assert name in IDENTITY_NAMES


def sampled_conjecture(r):
    """P_{r,2k} fitted to the (2r+1)-fold convolution, with no operator read.

    At the first (r+1)(r+2) default samples, the unknowns are the
    coefficients of each P_{r,2k} up to degree 2k + 1, one slack coefficient
    above the derived degree. The weight of P_{r,2k} at n is
    conjecture_prefactor(r, k, n) D C_{2n-2k}, and each row is scaled by the
    denominator of the convolution at n, so every entry is an integer.
    Returns each polynomial's block of the Bareiss solution.
    """
    samples = default_conjecture_samples(r)
    table = PolyCauchyTable.build(samples[-1])
    lhs = sweep_values((0,) * (2 * r + 1), samples[-1], table)
    c, denominator = table.numerators(samples[-1])
    budgets = [2 * k + 1 for k in range(r + 1)]
    weights = {(k, n): conjecture_prefactor(r, k, n) * c[n - k] for k in range(r + 1) for n in samples}
    solve_points = samples[: sum(b + 1 for b in budgets)]
    matrix = [
        [weights[(k, n)] * lhs[n].denominator * n**j for k in range(r + 1) for j in range(budgets[k] + 1)]
        for n in solve_points
    ]
    solution = bareiss(matrix, [denominator * lhs[n].numerator for n in solve_points])
    blocks, position = [], 0
    for budget in budgets:
        blocks.append(solution[position : position + budget + 1])
        position += budget + 1
    return blocks


def derived_fractions(r):
    """``_derive_conjecture(r)``'s integer coefficient lists over Q, as Fractions."""
    polynomials, common = convolution_module._derive_conjecture(r)
    return [[Fraction(x, common) for x in p] for p in polynomials]


class TestDerivedConjecture:
    """The derived P_{r,2k} against the sampled route, the sweep beyond the samples, and their closed patterns."""

    @pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
    def test_equals_the_sampled_solve(self, r):
        # The derivation reads no C value and the solve no operator, so the
        # two routes are independent; the solved slack coefficient must be 0.
        derived = derived_fractions(r)
        for k, (ours, solved) in enumerate(zip(derived, sampled_conjecture(r), strict=True)):
            assert solved[-1] == 0, (r, k)
            assert solved[:-1] == ours, (r, k)

    @pytest.mark.parametrize("r", range(1, 9))
    def test_ansatz_matches_the_sweep_past_the_samples(self, r):
        # With binom(2n-2k-1, 2r-2k) read as a polynomial in n, the derivation
        # holds at every n >= 0, so it is checked here at n = 0..40, below the
        # first default sample and past the last one of every r up to 5. The
        # terms k > n have binom(2n, 2k) = 0. The evaluator must agree.
        nmax = 40
        table = PolyCauchyTable.build(nmax)
        lhs = sweep_values((0,) * (2 * r + 1), nmax, table)
        derived = derived_fractions(r)
        for n in range(nmax + 1):
            terms = (
                poly_eval(p, n) * conjecture_prefactor(r, k, n) * table.value(n - k)
                for k, p in enumerate(derived[: n + 1])
            )
            assert sum(terms, Fraction(0)) == lhs[n], (r, n)
        evaluated = convolution_module._odd_fold_sums(convolution_module._derive_conjecture(r), range(nmax + 1), table)
        assert values(evaluated) == lhs

    @pytest.mark.parametrize("r", range(1, 11))
    def test_closed_patterns(self, r):
        # P_{r,0} = 1, P_{r,2r}(n) = (2n - 2r - 1)^(2r), and deg P_{r,2k} = 2k,
        # read through the public extraction, which takes every r >= 1.
        derived = [p.coefficients for p in extract_conjecture_polynomials(r)]
        top = [1]
        for _ in range(2 * r):
            top = poly_mul(top, [-2 * r - 1, 2])
        assert derived[0] == [1]
        assert derived[r] == top
        assert [len(p) - 1 for p in derived] == [2 * k for k in range(r + 1)]
        assert all(p[-1] != 0 for p in derived)


class TestOddFoldEvaluator:
    """``fold5`` and ``fold7`` sweep the derived expansion; Theorem 5 as printed and the typed forms are its oracles."""

    def test_thm5_is_the_derived_r1_expansion(self, table42):
        derived = convolution_module._odd_fold_sums(convolution_module._derive_conjecture(1), range(1, 41), table42)
        assert values(derived) == values(rhs_3fold(40, table42))

    def test_derived_polynomials_are_the_typed_factors(self):
        # The middle factors that paper_rhs_5fold and paper_rhs_7fold type.
        typed = {
            (2, 1): ([17, -16, 4], 3),
            (3, 1): ([83, -60, 12], 15),
            (3, 2): (poly_mul([39, -24, 4], [109, -72, 12]), 15),
        }
        for (r, k), (numerators, denominator) in typed.items():
            expected = [Fraction(x, denominator) for x in numerators]
            assert extract_conjecture_polynomials(r)[k].coefficients == expected, (r, k)

    @pytest.mark.parametrize("name,r", [("fold5", 2), ("fold7", 3)])
    def test_a_coefficient_raised_by_one_over_q_fails_the_fold(self, name, r, monkeypatch):
        # A wrong P_{r,2k} fails at the first n where its weight is not 0:
        # n = r for k = r, and n = r + 1 for k < r, since there
        # binom(2n-2k-1, 2r-2k) = binom(2r-2k-1, 2r-2k) = 0 at n = r.
        real = convolution_module._derive_conjecture
        for k in range(r + 1):
            for j in range(2 * k + 1):

                def bumped(s, k=k, j=j):
                    polynomials, common = real(s)
                    polynomials[k][j] += 1
                    return polynomials, common

                monkeypatch.setattr(convolution_module, "_derive_conjecture", bumped)
                report = verify_identity(name)
                assert report.status == "fail", (k, j)
                assert report.first_failure.n == (r if k == r else r + 1), (k, j)
        monkeypatch.undo()
        assert verify_identity(name).status == "pass"


class TestDerivationControls:
    """Negative controls: a fault in the operator rule fails at the first r it reaches."""

    def test_wrong_t2_factor_fails_every_row(self, monkeypatch):
        # t^2's factor (2i-1 - θ) becomes (2i-2 - θ) in every step.
        real = convolution_module._fold_step

        def wrong(i, b):
            low, (c, d) = real(i, b)
            return low, (c - 1, d)

        monkeypatch.setattr(convolution_module, "_fold_step", wrong)
        for r in (1, 2, 3):
            report = verify_identity(f"conjecture-r{r}")
            assert report.status == "fail"
            assert not any(row.equal for row in report.per_n_results), r

    def test_dropped_shift_is_not_exact(self, monkeypatch):
        # At r = 1 the only step moves past t^0, so the shift is 0 there;
        # from r = 2 on, the unshifted product is not divisible as the ansatz says.
        truth = verify_identity("conjecture-r1")
        real = convolution_module._fold_step
        monkeypatch.setattr(convolution_module, "_fold_step", lambda i, b: real(i, 0))
        assert verify_identity("conjecture-r1") == truth
        for r in (2, 3):
            with pytest.raises(ArithmeticError, match=r"division by \(x - 2\) is not exact"):
                verify_identity(f"conjecture-r{r}")


# Square systems of mixed signs and denominators, with zeros often enough to
# make some of them singular: a size, then the augmented rows flattened.
_ENTRY = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12))
_SYSTEMS = st.integers(1, 6).flatmap(
    lambda size: st.lists(_ENTRY, min_size=size * (size + 1), max_size=size * (size + 1)).map(
        lambda flat: [flat[i : i + size + 1] for i in range(0, len(flat), size + 1)]
    )
)


class TestBareissOracle:
    """The Bareiss oracle agrees with Gauss-Jordan, and its checked divisions can fail."""

    @settings(max_examples=100, deadline=None)
    @given(_SYSTEMS)
    def test_matches_gauss_jordan(self, augmented):
        matrix, rhs = [row[:-1] for row in augmented], [row[-1] for row in augmented]
        try:
            expected = gauss_jordan(matrix, rhs)
        except ArithmeticError:
            with pytest.raises(ArithmeticError, match="singular"):
                bareiss(matrix, rhs)
            return
        assert bareiss(matrix, rhs) == expected

    def test_every_division_is_checked(self):
        # Negative control: a wrong divisor (twice the true one) must raise,
        # not return a wrong solution. Unchecked, the same divisor floors
        # its way to a wrong answer, so the check is what catches it.
        matrix, rhs = [[2, 3, 5], [7, 11, 13], [17, 19, 23]], [1, 2, 3]
        matrix = [[Fraction(v) for v in row] for row in matrix]
        rhs = [Fraction(v) for v in rhs]
        real = polycauchy_module._exact_div
        with pytest.raises(ArithmeticError, match="Bareiss solve: division by .* is not exact"):
            bareiss(matrix, rhs, lambda a, d: real(a, 2 * d, "Bareiss solve"))
        assert bareiss(matrix, rhs, lambda a, d: a // (2 * d)) != gauss_jordan(matrix, rhs)
