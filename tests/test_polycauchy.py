"""The level-2 sequence: frozen fixtures, route agreement, integral check.

The series route (polyfactorial composed with arcsinh) and the triangle-sum
route are implemented independently; each acts as the other's oracle. The
frozen list below was produced by the series route and cross-checked against
the triangle sum before freezing. The oracle for the formula route's
weighted-sum recurrence is the route it replaced: each signed triangle row
dotted with D / (2m+1)^k (``triangle_dot_product``). The oracle for the
table's integer read is the lcm of the reduced denominators of the values
it holds (``reduced_numerators``).
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
    level2_series_values,
)
from polycauchy2 import convolution as convolution_module
from polycauchy2 import polycauchy as polycauchy_module
from polycauchy2 import stirling as stirling_module
from series_oracle import Series, level1_by_formula, level1_by_series

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
            assert level2_series_values(egf, k) == expected, k

    def test_arcsinh_powers_are_the_signed_triangle(self):
        egf = arcsinh_power_egf(20)
        triangle = level2_by_recurrence(20)
        for n in range(21):
            assert egf[n] == [(-4) ** (n - m) * triangle.value(n, m) for m in range(n + 1)]
            assert all(type(value) is int for value in egf[n])

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
        # The formula table, level2_by_formula and the sweeps' formula tables
        # share one kernel that never reads the other routes' data, so thm1
        # compares two independent routes.
        expected = {k: triangle_dot_product(12, k) for k in (-2, 0, 1, 3)}
        triangle = level2_by_recurrence(3)

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
        swept = convolution_module._formula_table(12, range(-2, 2))
        assert [swept.value(n, 0) for n in range(13)] == expected[0]
        # The guards are live: the series route and stage 1 of cor1 trip them.
        with pytest.raises(AssertionError):
            level2_by_series(3)
        with pytest.raises(AssertionError):
            integral_representation_check(3, 1, triangle)

    def test_series_route_never_reads_the_triangle(self, monkeypatch):
        expected = [level2_by_formula(n, -2) for n in range(9)]
        triangle = level2_by_recurrence(3)

        def refuse(*args):
            raise AssertionError("the series route read the triangle")

        monkeypatch.setattr(polycauchy_module, "level2_by_recurrence", refuse)
        monkeypatch.setattr(Level2Triangle, "row", refuse)
        monkeypatch.setattr(Level2Triangle, "value", refuse)
        assert [level2_by_series(n) for n in range(7)] == SEQUENCE_K1
        assert [level2_by_series(n, -2) for n in range(9)] == expected
        table = PolyCauchyTable.build(8, k=-2, route="series")
        assert [table.value(n, -2) for n in range(9)] == expected
        # The guard is live: stage 1 of cor1 reads the triangle's rows.
        with pytest.raises(AssertionError):
            integral_representation_check(3, 1, triangle)

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
        for name, nmax in (("thm1", 6), ("arcsinh_power", 12)):
            report = convolution_module.verify_identity(name, nmax)
            assert report.status == "fail", name
            assert report.first_failure is not None


class TestTable:
    def test_build_and_range(self):
        table = PolyCauchyTable.build(6)
        assert table.max_n(1) == 6
        assert table.max_n(2) == -1
        assert [table.value(n) for n in range(7)] == SEQUENCE_K1

    def test_index_zero_is_one_for_every_weight(self):
        table = PolyCauchyTable()
        for k in (-3, 0, 1, 5):
            table.ensure(0, k=k)
            assert table.value(0, k) == 1

    def test_ensure_extends_and_reuses(self):
        table = PolyCauchyTable.build(4)
        table.ensure(8)
        assert table.max_n(1) == 8
        table.ensure(2)
        assert table.max_n(1) == 8
        assert table.value(8) == level2_by_formula(8)

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
        request.getfixturevalue("bumped_c10")
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
        with pytest.raises(ValueError):
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

    def test_perturbed_triangle_fails_polynomial_stage(self):
        # Stage 1 compares the expanded product with the triangle's row, so a
        # wrong [[5, 2]] must show there too, at the coefficient of z^4.
        true = level2_by_recurrence(5)
        rows = [list(true.row(n)) for n in range(6)]
        rows[5][2] += 1
        check = integral_representation_check(5, 1, Level2Triangle(rows))
        assert check.polynomial_match is False
        assert integral_representation_check(5, 1, true).polynomial_match is True

    def test_wrong_c10_fails_value_stage(self, bumped_c10):
        # C9 style: stage 2 integrates the expanded product, which reads
        # neither the triangle nor the formula route, so a wrong C_10 from
        # the formula route must fail the value stage and only that stage.
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
