"""Dense rational polynomials: evaluation and text, the integer helpers of the
conjecture derivation, and the tests' product oracle."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polycauchy2.polynomials import (
    _poly_compose,
    _poly_divide_root,
    _poly_times_root,
    poly_eval,
    poly_text,
)
from series_oracle import poly_mul

coefficient_lists = st.lists(
    st.fractions(min_value=-50, max_value=50, max_denominator=9), min_size=0, max_size=6
)


class TestArithmetic:
    def test_mul_fixture(self):
        # (1 + x)(1 - x) = 1 - x^2
        assert poly_mul([1, 1], [1, -1]) == [Fraction(1), Fraction(0), Fraction(-1)]
        # integer inputs stay integers, so integer expansions never touch Fraction
        assert all(type(c) is int for c in poly_mul([1, 1], [1, -1]))

    def test_eval_horner(self):
        assert poly_eval([9, -12, 4], 5) == (2 * 5 - 3) ** 2

    def test_trim_drops_trailing_zeros(self):
        # poly_text trims as it prints: zero terms are left out, and no terms read "0".
        assert poly_text([Fraction(1), Fraction(0)]) == "1"
        assert poly_text([Fraction(0), Fraction(0)]) == "0"
        assert poly_text([]) == "0"

    def test_text(self):
        assert poly_text([Fraction(9), Fraction(-12), Fraction(4)]) == "9 - 12*n + 4*n^2"
        assert poly_text([Fraction(0)]) == "0"
        assert poly_text([Fraction(1, 3), Fraction(0), Fraction(1)]) == "1/3 + n^2"

    @given(coefficient_lists, coefficient_lists, st.integers(-8, 8))
    def test_mul_respects_evaluation(self, p, q, x):
        assert poly_eval(poly_mul(p, q), x) == poly_eval(p, x) * poly_eval(q, x)


integer_lists = st.lists(st.integers(-50, 50), min_size=1, max_size=7)


class TestIntegerHelpers:
    """Each helper against evaluation at integer points, the tests' product oracle and a fixture."""

    @given(integer_lists, st.integers(-9, 9), st.integers(-8, 8))
    def test_times_root_then_divide_is_the_identity(self, a, c, x):
        product = _poly_times_root(a, c)
        assert product == poly_mul(a, [c, -1])
        assert poly_eval(product, x) == poly_eval(a, x) * (c - x)
        # a (c - x) / (x - c) = -a
        assert _poly_divide_root(product, c) == [-v for v in a]

    @given(integer_lists, st.integers(-9, 9))
    def test_divide_is_exact_or_raises(self, a, i):
        remainder = poly_eval(a, i)
        if remainder:
            message = rf"^division by \(x - {i}\) is not exact: remainder {remainder}$"
            with pytest.raises(ArithmeticError, match=message):
                _poly_divide_root(a, i)
        else:
            quotient = _poly_divide_root(a, i)
            assert len(quotient) == len(a) - 1
            assert all(poly_eval(quotient, x) * (x - i) == poly_eval(a, x) for x in range(-4, 5))

    @given(integer_lists, st.integers(-9, 9), st.integers(-9, 9), st.integers(-8, 8))
    def test_compose_respects_evaluation(self, a, c0, c1, x):
        composed = _poly_compose(a, c0, c1)
        assert len(composed) == len(a)
        assert poly_eval(composed, x) == poly_eval(a, c0 + c1 * x)

    def test_fixtures(self):
        # (x - 2)(x + 3) / (x - 2) = x + 3, and 1 + 2y + 3y^2 at y = 1 + 2x.
        assert _poly_divide_root([-6, 1, 1], 2) == [3, 1]
        assert _poly_compose([1, 2, 3], 1, 2) == [6, 16, 12]
        assert _poly_times_root([1, 2], 3) == [3, 5, -2]
