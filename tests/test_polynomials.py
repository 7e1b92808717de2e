"""Dense rational polynomials: evaluation, trimming and text, and the tests' product oracle."""

from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from polycauchy2.polynomials import (
    poly_degree,
    poly_eval,
    poly_text,
    poly_trim,
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

    def test_degree_ignores_trailing_zeros(self):
        assert poly_degree([Fraction(1), Fraction(0), Fraction(0)]) == 0
        assert poly_degree([]) == -1
        assert poly_trim([Fraction(1), Fraction(0)]) == [Fraction(1)]

    def test_text(self):
        assert poly_text([Fraction(9), Fraction(-12), Fraction(4)]) == "9 - 12*n + 4*n^2"
        assert poly_text([Fraction(0)]) == "0"
        assert poly_text([Fraction(1, 3), Fraction(0), Fraction(1)]) == "1/3 + n^2"

    @given(coefficient_lists, coefficient_lists, st.integers(-8, 8))
    def test_mul_respects_evaluation(self, p, q, x):
        assert poly_eval(poly_mul(p, q), x) == poly_eval(p, x) * poly_eval(q, x)
