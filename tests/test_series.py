"""Builtin series coefficients against independent oracles, then the oracle's algebra.

Each builtin expansion is wrapped in the test-only ``series_oracle.Series``
and checked against something other than its own formula: a derivative that
must reproduce a sibling builtin, or a product that must collapse to a
polynomial. The ring operations those checks rely on are tested after.
"""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polycauchy2 import BUILTIN_SERIES_NAMES, builtin_series
from series_oracle import Series

small_series = st.lists(
    st.fractions(min_value=-30, max_value=30, max_denominator=7), min_size=1, max_size=7
).map(Series)


class TestBuiltinsAgainstOracles:
    def test_arcsinh_derivative_is_invsqrt(self):
        a = Series(builtin_series("arcsinh", 21))
        assert a.derivative() == Series(builtin_series("invsqrt_1pt2", 20))

    def test_arcsinh_closed_form(self):
        a = Series(builtin_series("arcsinh", 15))
        for j in range(8):
            expected = Fraction((-1) ** j * factorial(2 * j), 4**j * factorial(j) ** 2 * (2 * j + 1))
            assert a.coefficient(2 * j + 1) == expected
            if 2 * j <= 15:
                assert a.coefficient(2 * j) == 0

    def test_log1p_solves_its_differential_equation(self):
        # (1 + t) log(1+t)' = 1
        log1p = Series(builtin_series("log1p", 20))
        product = (Series.one(19) + Series.x(19)) * log1p.derivative()
        assert product == Series.one(19)

    def test_sqrt_squares_to_polynomial(self):
        root = Series(builtin_series("sqrt_1pt2", 20))
        assert root * root == Series.one(20) + Series.x(20) ** 2

    def test_invsqrt_is_reciprocal_of_sqrt(self):
        root = Series(builtin_series("sqrt_1pt2", 20))
        assert Series(builtin_series("invsqrt_1pt2", 20)) == root.reciprocal()

    def test_inv32_times_poly_is_invsqrt(self):
        # (1+t^2)^(-3/2) (1+t^2) = (1+t^2)^(-1/2)
        inv32 = Series(builtin_series("inv32_1pt2", 20))
        invroot = Series(builtin_series("invsqrt_1pt2", 20))
        assert inv32 * (Series.one(20) + Series.x(20) ** 2) == invroot

    def test_big_l_times_arcsinh_is_t(self):
        big_l = Series(builtin_series("L", 16))
        product = big_l * Series(builtin_series("arcsinh", 16))
        assert product.coefficients[:17] == Series.x(16).coefficients[:17]

    def test_arcsinh_inverts_sinh(self):
        # sinh built here as the odd part of exp
        order = 15
        sinh = Series(
            [Fraction(0) if i % 2 == 0 else Fraction(1, factorial(i)) for i in range(order + 1)]
        )
        assert sinh.compose(Series(builtin_series("arcsinh", order))) == Series.x(order)

    def test_lif_families_coefficientwise(self):
        for k in (-2, 0, 1, 3):
            lif = Series(builtin_series("lif_k", 9, k=k))
            for m in range(10):
                assert lif.coefficient(m) == Fraction(1, factorial(m)) * Fraction(m + 1) ** (-k)
            lif2 = Series(builtin_series("lif2k", 9, k=k))
            for m in range(5):
                assert lif2.coefficient(2 * m) == Fraction(1, factorial(2 * m)) * Fraction(
                    2 * m + 1
                ) ** (-k)
                assert lif2.coefficient(2 * m + 1) == 0

    def test_builtin_name_handling(self):
        with pytest.raises(ValueError):
            builtin_series("nope", 5)
        with pytest.raises(ValueError):
            builtin_series("lif2k", 5)
        with pytest.raises(ValueError):
            builtin_series("arcsinh", 5, k=2)
        assert "L" in BUILTIN_SERIES_NAMES and "lif2k" in BUILTIN_SERIES_NAMES


class TestAlgebra:
    def test_construction_pads_and_truncates(self):
        s = Series([1, 2], order=4)
        assert s.coefficients == (1, 2, 0, 0, 0)
        assert Series([1, 2, 3], order=1).coefficients == (1, 2)

    def test_coefficient_out_of_range(self):
        with pytest.raises(ValueError):
            Series([1]).coefficient(1)

    def test_scalar_mix(self):
        s = Series([1, 1, 1])
        assert (s + 1).coefficient(0) == 2
        assert (2 - s).coefficient(1) == -1
        assert (s * Fraction(1, 2)).coefficient(2) == Fraction(1, 2)
        assert (s / 2).coefficient(0) == Fraction(1, 2)

    def test_product_truncates_to_min_order(self):
        p = Series([1, 1], order=5) * Series([1, 1], order=2)
        assert p.order == 2

    def test_egf_coefficients(self):
        s = Series([1, 0, Fraction(1, 6), 0, Fraction(-17, 360)])
        assert s.egf_even_coefficient(1) == Fraction(1, 3)
        assert s.egf_even_coefficient(2) == Fraction(-17, 15)
        assert s.egf_coefficient(2) == Fraction(1, 3)
        assert Series.x(2).egf_even_coefficient(1) == 0

    def test_derivative_integral_round_trip(self):
        s = Series(builtin_series("arcsinh", 12))
        # Termwise antiderivative with constant term 0, written out here.
        antiderivative = Series([0] + [c / (i + 1) for i, c in enumerate(s.coefficients)])
        assert antiderivative.derivative() == s
        reintegrated = [0] + [c / (i + 1) for i, c in enumerate(s.derivative().coefficients)]
        assert reintegrated[:12] == list(s.coefficients[:12])

    def test_derivative_needs_order(self):
        with pytest.raises(ValueError):
            Series([1]).derivative()

    def test_derivative_of_constant_vanishes(self):
        assert Series([5], order=3).derivative() == Series.zero(2)

    def test_compose_requires_vanishing_inner(self):
        with pytest.raises(ValueError):
            Series([1, 1]).compose(Series([1, 1]))

    def test_compose_linear(self):
        # f(2t) doubles each power's scale
        f = Series([5, 1, 1], order=2)
        g = f.compose(Series([0, 2], order=2))
        assert g.coefficients == (5, 2, 4)

    def test_reciprocal_requires_unit(self):
        with pytest.raises(ValueError):
            Series([0, 1]).reciprocal()

    def test_divide_by_cancels_valuation(self):
        t2 = Series.x(10) ** 2
        s = Series(builtin_series("sqrt_1pt2", 8))
        assert (t2 * s).divide_by(t2) == Series(s.coefficients, 6)

    def test_divide_by_rejects_uncancelled_low_terms(self):
        with pytest.raises(ValueError):
            Series.one(5).divide_by(Series.x(5))

    def test_divide_by_self_is_one(self):
        s = Series(builtin_series("L", 9))
        assert s.divide_by(s) == Series.one(9)

    def test_power_matches_repeated_product(self):
        s = Series(builtin_series("L", 8))
        assert s**3 == s * s * s
        with pytest.raises(ValueError):
            s**-1

    @given(small_series, small_series, small_series)
    def test_distributive(self, a, b, c):
        assert (a + b) * c == a * c + b * c

    @given(small_series)
    def test_reciprocal_inverts(self, s):
        shifted = s + (1 if s.coefficient(0) == 0 else 0)
        if shifted.coefficient(0) == 0:
            shifted = shifted + 1
        product = shifted * shifted.reciprocal()
        assert product == Series.one(product.order)


class TestVanishingStructure:
    def test_level2_composition_has_even_support(self):
        arcsinh = Series(builtin_series("arcsinh", 17))
        composed = Series(builtin_series("lif2k", 17, k=2)).compose(arcsinh)
        for i in range(1, 18, 2):
            assert composed.coefficient(i) == 0

    @given(st.integers(min_value=-3, max_value=3))
    def test_lif2_itself_has_even_support(self, k):
        series = Series(builtin_series("lif2k", 13, k=k))
        assert all(series.coefficient(i) == 0 for i in range(1, 14, 2))
