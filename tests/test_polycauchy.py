"""The level-2 sequence: frozen fixtures, route agreement, integral check.

The series route (polyfactorial composed with arcsinh) and the triangle-sum
route are implemented independently; each acts as the other's oracle. The
frozen list below was produced by the series route and cross-checked against
the triangle sum before freezing. The oracle for the formula route's
weighted-sum recurrence is the route it replaced: each signed triangle row
dotted with D / (2m+1)^k (``triangle_dot_product``). The oracle for the
table's integer read is the lcm of the reduced denominators of the values
it holds (``reduced_numerators``). The oracles for the integral check are
the code it replaced: the stage-1 product as two general polynomial
products per linear pair (``linear_product_by_poly_mul``) and stage 2 summed
over every power z^j, odd ones included (``integral_over_every_power``).
"""

import re
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycauchy2 import (
    Level2Triangle,
    PolyCauchyTable,
    arcsinh_power_egf,
    builtin_series,
    integral_representation_check,
    level2_by_formula,
    level2_by_series,
    level2_by_recurrence,
)
from polycauchy2 import convolution as convolution_module
from polycauchy2 import polycauchy as polycauchy_module
from polycauchy2 import stirling as stirling_module
from polycauchy2.cli import main
from series_oracle import Series, level1_by_formula, level1_by_series, poly_mul, series_route_values

# C_{2n} for n = 0..6 at k = 1.
SEQUENCE_K1 = [
    Fraction(1),
    Fraction(1, 3),
    Fraction(-17, 15),
    Fraction(367, 21),
    Fraction(-27859, 45),
    Fraction(1295803, 33),
    Fraction(-5329242827, 1365),
]

# c_n (level 1) for n = 0..4 at k = 1, the classical Cauchy numbers.
LEVEL1_K1 = [
    Fraction(1),
    Fraction(1, 2),
    Fraction(-1, 6),
    Fraction(1, 4),
    Fraction(-19, 30),
]


def triangle_dot_product(nmax, k):
    """C_{2n}^(k) for n = 0..nmax: the signed row n of the triangle dotted with D / (2m+1)^k, over D."""
    triangle = level2_by_recurrence(nmax)
    bases = [2 * m + 1 for m in range(nmax + 1)]
    denominator = lcm(*bases) ** k if k > 0 else 1
    weights = [denominator * base**-k if k <= 0 else denominator // base**k for base in bases]
    return [
        Fraction(sum((-4) ** (n - m) * v * weights[m] for m, v in enumerate(triangle.row(n))), denominator)
        for n in range(nmax + 1)
    ]


def reduced_numerators(table, need, k):
    """C_{2m} for m = 0..need as integer numerators over D, the lcm of their reduced denominators."""
    values = [table.value(m, k) for m in range(need + 1)]
    denominator = lcm(*(value.denominator for value in values))
    return [value.numerator * (denominator // value.denominator) for value in values], denominator


def formula_values(nmax, k):
    numerators, denominator = polycauchy_module._formula_numerators(nmax, k)
    return [Fraction(x, denominator) for x in numerators]


def linear_product_by_poly_mul(n):
    """(-1)^n prod over i < n of (z - 2i)(-z - 2i), two general products per i."""
    product = [1]
    for i in range(n):
        negated = [-c for c in product]
        product = poly_mul(poly_mul(negated, [-2 * i, 1]), [-2 * i, -1])
    return product


def integral_over_every_power(product, k):
    """Stage 2 over every z^j of the product, odd j included: z^j becomes 1/(j+1)^k, summed over Fraction."""
    return sum((Fraction(c, (j + 1) ** k) for j, c in enumerate(product)), Fraction(0))


def horner_composition(k, order):
    """The Series oracle: lif2k(arcsinh t) by Horner's rule over Fraction."""
    arcsinh = Series(builtin_series("arcsinh", order))
    return Series(builtin_series("lif2k", order, k=k)).compose(arcsinh)


class TestSequenceValues:
    def test_fixtures_by_formula(self):
        assert [level2_by_formula(n) for n in range(7)] == SEQUENCE_K1

    def test_fixtures_by_series(self):
        assert [level2_by_series(n) for n in range(7)] == SEQUENCE_K1

    def test_routes_agree_for_integer_k(self):
        for k in range(-3, 4):
            for n in range(9):
                assert level2_by_formula(n, k) == level2_by_series(n, k)

    def test_weight_zero_hand_value(self):
        # (-4)^1 [[2,1]] + (-4)^0 [[2,2]] = -4 + 1
        assert level2_by_formula(2, 0) == -3

    def test_fixture_signs_alternate(self):
        for n in range(1, 7):
            assert (-1) ** (n + 1) * SEQUENCE_K1[n] > 0

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            level2_by_formula(-1)
        with pytest.raises(ValueError):
            level2_by_series(-2)

    def test_order_grows_automatically(self):
        assert level2_by_series(25) == level2_by_formula(25)

    @settings(max_examples=25)
    @given(st.integers(0, 10), st.integers(-2, 2))
    def test_denominator_is_odd(self, n, k):
        # every term has an odd denominator (2m+1)^k times an integer
        value = level2_by_formula(n, k)
        assert value.denominator % 2 == 1


class TestLevel1Comparator:
    def test_cauchy_fixtures(self):
        assert [level1_by_formula(n) for n in range(5)] == LEVEL1_K1
        assert [level1_by_series(n) for n in range(5)] == LEVEL1_K1

    def test_routes_agree(self):
        for k in (1, 2, 3):
            for n in range(13):
                assert level1_by_formula(n, k) == level1_by_series(n, k)
        for k in (-2, -1, 0):
            for n in range(9):
                assert level1_by_formula(n, k) == level1_by_series(n, k)


class TestIntegerKernel:
    def test_matches_horner_composition(self):
        egf = arcsinh_power_egf(15)
        for k in range(-3, 4):
            composed = horner_composition(k, 30)
            expected = [composed.egf_even_coefficient(n) for n in range(16)]
            assert series_route_values(egf, k) == expected, k

    def test_arcsinh_powers_are_the_signed_triangle(self):
        egf = arcsinh_power_egf(20)
        triangle = level2_by_recurrence(20)
        for n in range(21):
            assert egf[n] == [(-4) ** (n - m) * triangle.value(n, m) for m in range(n + 1)]
            assert all(type(value) is int for value in egf[n])

    def test_top_cuts_each_row_of_the_full_table(self):
        for nmax in range(21):
            full = arcsinh_power_egf(nmax)
            for top in range(nmax + 1):
                assert arcsinh_power_egf(nmax, top=top) == [row[: top + 1] for row in full], (nmax, top)
        assert arcsinh_power_egf(5, top=None) == arcsinh_power_egf(5)

    def test_negative_top_rejected(self):
        with pytest.raises(ValueError):
            arcsinh_power_egf(4, top=-1)

    def test_arcsinh_power_builds_only_the_compared_powers(self, monkeypatch, capsys):
        # verify arcsinh_power --nmax 120 compares m = 1..6 through n = 60, so
        # the kernel returns rows of at most 7 entries and divides by
        # binom(2m, 2) only for m <= 6, once per built entry.
        real_table, real_div = polycauchy_module._power_table, polycauchy_module._exact_div
        built, divisors = [], []

        def spy_table(first, top=None):
            table = real_table(first, top)
            built.append(table)
            return table

        def spy_div(numerator, divisor, where="EGF kernel"):
            divisors.append(divisor)
            return real_div(numerator, divisor, where)

        monkeypatch.setattr(polycauchy_module, "_power_table", spy_table)
        monkeypatch.setattr(polycauchy_module, "_exact_div", spy_div)
        assert main(["verify", "arcsinh_power", "--nmax", "120"]) == 0
        assert "status: pass" in capsys.readouterr().out
        (table,) = built
        assert [len(row) for row in table] == [min(n, 6) + 1 for n in range(61)]
        # One halving of the square per n >= 1, then one division per entry m >= 1.
        assert len(divisors) == 60 + sum(min(n, 6) for n in range(1, 61))
        assert max(divisors) == 6 * 11

    def test_formula_column_is_the_signed_triangle(self):
        # The shift-and-sign column against the power it replaced, at every
        # parity of n - m, including the single entry of row 0.
        triangle = level2_by_recurrence(60)
        for n in range(61):
            column = polycauchy_module._formula_column(n, triangle)
            assert column == [(-4) ** (n - m) * triangle.value(n, m) for m in range(n + 1)], n
            assert all(type(value) is int for value in column)

    def test_formula_route_matches_the_triangle_dot_product(self):
        # Every nmax has its own D, so each n is also run as its own pass.
        for k in range(-3, 4):
            oracle = triangle_dot_product(60, k)
            assert formula_values(60, k) == oracle, k
            assert [level2_by_formula(n, k) for n in range(61)] == oracle, k

    @pytest.mark.parametrize("k,nmax", [(1, 300), (3, 200), (-2, 200)])
    def test_formula_route_matches_the_oracle_at_benchmark_sizes(self, k, nmax):
        assert formula_values(nmax, k) == triangle_dot_product(nmax, k)

    def test_formula_route_reads_no_triangle_and_no_arcsinh_kernel(self, monkeypatch):
        # The formula table, level2_by_formula and the thm1 and cor1 sweeps
        # share one kernel that never reads the other routes' data, so thm1
        # compares two independent routes.
        expected = {k: triangle_dot_product(12, k) for k in (-2, 0, 1, 3)}

        def refuse(*args):
            raise AssertionError("the formula route read another route's kernel")

        for module in (stirling_module, polycauchy_module, convolution_module):
            monkeypatch.setattr(module, "level2_by_recurrence", refuse)
        monkeypatch.setattr(Level2Triangle, "row", refuse)
        monkeypatch.setattr(Level2Triangle, "value", refuse)
        for module in (polycauchy_module, convolution_module):
            monkeypatch.setattr(module, "arcsinh_power_egf", refuse)
        for k, values in expected.items():
            table = PolyCauchyTable.build(12, k, "formula")
            assert [table.value(n, k) for n in range(13)] == values, k
            assert level2_by_formula(12, k) == values[12], k
        # The guards are live: the series route and stage 1 of cor1 trip them.
        with pytest.raises(AssertionError):
            level2_by_series(3)
        with pytest.raises(AssertionError):
            integral_representation_check(3, 1)

    def test_series_route_never_reads_the_triangle(self, monkeypatch):
        expected = [level2_by_formula(n, -2) for n in range(9)]

        def refuse(*args):
            raise AssertionError("the series route read the triangle")

        monkeypatch.setattr(polycauchy_module, "level2_by_recurrence", refuse)
        monkeypatch.setattr(Level2Triangle, "row", refuse)
        monkeypatch.setattr(Level2Triangle, "value", refuse)
        assert [level2_by_series(n) for n in range(7)] == SEQUENCE_K1
        assert [level2_by_series(n, -2) for n in range(9)] == expected
        table = PolyCauchyTable.build(8, k=-2, route="series")
        assert [table.value(n, -2) for n in range(9)] == expected
        # The guard is live: stage 1 of cor1 builds the triangle.
        with pytest.raises(AssertionError):
            integral_representation_check(3, 1)

    def test_inexact_division_raises(self):
        assert polycauchy_module._exact_div(-6, 3) == -2
        with pytest.raises(ArithmeticError):
            polycauchy_module._exact_div(7, 2)
        # g = t^4 / 4!: the t^8 coefficient of g^2 * 2^2 / 4! is 8! / (4! 4! 6),
        # not an integer, so the kernel must raise instead of flooring it.
        with pytest.raises(ArithmeticError):
            polycauchy_module._power_table([0, 0, 1, 0, 0])

    def test_perturbed_arcsinh_coefficient_fails_the_checks(self, monkeypatch):
        # C9 style: one wrong arcsinh coefficient (t^5) must fail both
        # identities that read the kernel. Any integer change keeps every
        # kernel division exact, so the failure is a report, not an error.
        real = polycauchy_module._arcsinh_egf

        def perturbed(count):
            coefficients = real(count)
            if count > 2:
                coefficients[2] += 1
            return coefficients

        monkeypatch.setattr(polycauchy_module, "_arcsinh_egf", perturbed)
        for name, nmax in (("thm1", 6), ("arcsinh_power", 12), ("arcsinh_power", 120)):
            report = convolution_module.verify_identity(name, nmax)
            assert report.status == "fail", name
            assert report.first_failure is not None


class TestTable:
    def test_build_and_range(self):
        # A table holds n = 0..nmax for the one k it was built for.
        table = PolyCauchyTable.build(6)
        assert [table.value(n) for n in range(7)] == SEQUENCE_K1
        with pytest.raises(ValueError, match=r"^table holds n = 0\.\.6 for k = 1, requested n = 7$"):
            table.value(7)
        with pytest.raises(ValueError, match=r"^table holds n = 0\.\.-1 for k = 2, requested n = 0$"):
            table.value(0, 2)
        for route in ("formula", "series"):
            with pytest.raises(ValueError, match="^nmax must be >= 0, got -1$"):
                PolyCauchyTable.build(-1, route=route)

    def test_index_zero_is_one_for_every_weight(self):
        for k in (-3, 0, 1, 5):
            assert PolyCauchyTable.build(0, k).value(0, k) == 1

    def test_routes_fill_identically(self, monkeypatch, request):
        # Each route's table reads only its own kernel: a wrong arcsinh
        # coefficient moves the series table alone, and a wrong D C_10 the
        # formula table alone.
        def values_by_route():
            tables = [PolyCauchyTable.build(7, k=-1, route=route) for route in ("formula", "series")]
            return [[table.value(n, -1) for n in range(8)] for table in tables]

        formula, series = values_by_route()
        assert formula == series
        real = polycauchy_module._arcsinh_egf

        def perturbed(count):
            return [a + (j == 2) for j, a in enumerate(real(count))]

        with monkeypatch.context() as patch:
            patch.setattr(polycauchy_module, "_arcsinh_egf", perturbed)
            moved_formula, moved_series = values_by_route()
        assert moved_formula == formula
        assert moved_series != series
        request.getfixturevalue("bumped_route")(5)
        moved_formula, moved_series = values_by_route()
        assert moved_formula != formula
        assert moved_series == series

    def test_missing_entry_is_an_error(self):
        # Both reads name the held range. A negative n is rejected, not read
        # from the end of the held list, and so is a k never built.
        table = PolyCauchyTable.build(4)
        for n, k, held in ((-1, 1, 4), (5, 1, 4), (2, 3, -1)):
            message = f"table holds n = 0..{held} for k = {k}, requested n = {n}"
            for read in (table.value, table.numerators):
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                    read(n, k)

    @pytest.mark.parametrize("route", ["formula", "series"])
    @pytest.mark.parametrize("nmax", [0, 1, 12, 40])
    @pytest.mark.parametrize("k", [-2, 0, 1, 3])
    def test_integer_read_is_the_lcm_of_the_reduced_denominators(self, route, nmax, k):
        table = PolyCauchyTable.build(nmax, k, route)
        for need in range(nmax + 1):
            assert table.numerators(need, k) == reduced_numerators(table, need, k), need

    @pytest.mark.parametrize("nmax,ratio", [(12, 115), (122, 3)])
    def test_integer_read_reduces_below_the_held_denominator(self, nmax, ratio):
        # Two below the table's top the held D has primes no value read needs,
        # so a read that skipped the gcd would return integers this much larger.
        table = PolyCauchyTable.build(nmax)
        _, held = polycauchy_module._formula_numerators(nmax, 1)
        numerators, denominator = table.numerators(nmax - 2)
        assert held == ratio * denominator
        assert (numerators, denominator) == reduced_numerators(table, nmax - 2, 1)

    def test_bad_route_rejected(self):
        with pytest.raises(ValueError, match="^route must be 'formula' or 'series', got 'guess'$"):
            PolyCauchyTable.build(3, route="guess")


class TestIntegralRepresentation:
    def test_passes_small_range(self):
        for n in range(7):
            for k in range(1, 4):
                check = integral_representation_check(n, k)
                assert check.passed, check.describe()
                assert check.integral_value == level2_by_formula(n, k)

    def test_describe_mentions_both_stages(self):
        text = integral_representation_check(3, 2).describe()
        assert "polynomial" in text and "value" in text

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            integral_representation_check(-1, 1)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_perturbed_triangle_fails_polynomial_stage(self, n, monkeypatch):
        # Stage 1 compares the expanded product with the triangle's row, so a
        # wrong [[n, m]] must show there too, at the coefficient of z^(2m),
        # and cor1 must first fail at n.
        assert integral_representation_check(n, 1).polynomial_match is True
        real, m = polycauchy_module.level2_by_recurrence, min(n, 2)

        def perturbed(nmax):
            rows = [list(real(nmax).row(i)) for i in range(nmax + 1)]
            if nmax >= n:
                rows[n][m] += 1
            return Level2Triangle(rows)

        monkeypatch.setattr(polycauchy_module, "level2_by_recurrence", perturbed)
        assert integral_representation_check(n, 1).polynomial_match is False
        report = convolution_module.verify_identity("cor1", 8)
        assert report.status == "fail"
        assert report.first_failure.n == n

    def test_matches_the_replaced_stages(self):
        # Every product is grown by the quadratic step from [1], on each call.
        products = polycauchy_module._linear_products(15)
        assert len(products) == 16
        for n in range(16):
            product = linear_product_by_poly_mul(n)
            assert products[n] == product, n
            for k in range(1, 4):
                assert integral_representation_check(n, k).integral_value == integral_over_every_power(product, k)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_odd_coefficient_fails_polynomial_stage(self, n, monkeypatch):
        # Stage 2 sums only the even powers, so it cannot see a wrong odd
        # coefficient; stage 1 compares every coefficient and must. The
        # product at n has a z^3 coefficient from n = 2 on.
        real = polycauchy_module._linear_products

        def perturbed(last):
            products = real(last)
            if last >= n:
                products[n][3] += 1
            return products

        monkeypatch.setattr(polycauchy_module, "_linear_products", perturbed)
        check = integral_representation_check(n, 1)
        assert check.polynomial_match is False
        assert check.value_match is True
        assert not check.passed
        report = convolution_module.verify_identity("cor1", 8)
        assert report.status == "fail"
        assert report.first_failure.n == n

    def test_wrong_c10_fails_value_stage(self, bumped_route):
        # C9 style: stage 2 integrates the expanded product, which reads
        # neither the triangle nor the formula route, so a wrong C_10 from
        # the formula route must fail the value stage and only that stage.
        bumped_route(5)
        truth = {k: triangle_dot_product(5, k)[5] for k in range(1, 4)}
        for k in range(1, 4):
            check = integral_representation_check(5, k)
            assert check.polynomial_match is True
            assert check.value_match is False
            assert check.integral_value == truth[k]
            assert check.reference_value != truth[k]
            assert not check.passed
        report = convolution_module.verify_identity("cor1", 8)
        assert report.status == "fail"
        assert report.first_failure.n == 5


class TestOddVanishing:
    def test_odd_egf_coefficients_vanish(self):
        for k in range(-2, 4):
            composed = horner_composition(k, 21)
            for i in range(1, 22, 2):
                assert composed.coefficient(i) == 0
