"""Integer and rational helpers: fixtures first, then algebraic properties."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polycauchy2 import binomial, harmonic, rational_to_text
from polycauchy2 import exact as exact_module
from series_oracle import double_factorial

# Extended double factorial table, anchored by a (a-2)!! = a!! continued
# below a = 1: each value follows from its successor by division.
DOUBLE_FACTORIAL_FIXTURES = {
    7: Fraction(105),
    5: Fraction(15),
    3: Fraction(3),
    1: Fraction(1),
    -1: Fraction(1),
    -3: Fraction(-1),
    -5: Fraction(1, 3),
    -7: Fraction(-1, 15),
    -9: Fraction(1, 105),
}


class TestRationalText:
    def test_canonical_forms(self):
        assert rational_to_text(Fraction(-17, 15)) == "-17/15"
        assert rational_to_text(Fraction(4, 2)) == "2"
        assert rational_to_text(0) == "0"
        assert rational_to_text(Fraction(1, 3)) == "1/3"

    def test_round_trip(self):
        for text in ("1", "-5329242827/1365", "0", "367/21"):
            assert rational_to_text(Fraction(text)) == text

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            Fraction("1/2/3")

    @given(st.fractions())
    def test_round_trip_property(self, q):
        assert Fraction(rational_to_text(q)) == q

    @given(st.fractions(), st.fractions(), st.fractions())
    def test_field_laws(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


class TestBinomial:
    def test_matches_comb(self):
        for n in range(12):
            for j in range(n + 2):
                assert binomial(n, j) == math.comb(n, j)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            binomial(-1, 0)
        with pytest.raises(ValueError):
            binomial(3, -2)

    @given(st.integers(0, 60), st.integers(0, 60))
    def test_symmetry(self, n, j):
        if j <= n:
            assert binomial(n, j) == binomial(n, n - j)


class TestEvenBinomialRows:
    @pytest.mark.parametrize(
        "order", [range(125, -1, -1), range(126)], ids=["largest-first", "smallest-first"]
    )
    def test_rows_equal_comb_for_every_top_to_250(self, order, monkeypatch):
        monkeypatch.setattr(exact_module, "_EVEN_BINOMIALS", [[1]])
        for n in order:
            expected = [math.comb(2 * n, 2 * i) for i in range(n + 1)]
            assert exact_module._even_binomials(n)[n] == expected, n
        assert len(exact_module._EVEN_BINOMIALS) == 126


class TestDoubleFactorial:
    def test_fixtures(self):
        for a, expected in DOUBLE_FACTORIAL_FIXTURES.items():
            assert double_factorial(a) == expected

    def test_even_rejected(self):
        with pytest.raises(ValueError):
            double_factorial(4)
        with pytest.raises(ValueError):
            double_factorial(0)

    @given(st.integers(-21, 21).filter(lambda a: a % 2))
    def test_descent_relation(self, a):
        assert a * double_factorial(a - 2) == double_factorial(a)


class TestHarmonic:
    def test_small_values(self):
        assert harmonic(0) == 0
        assert harmonic(0, 2) == 0
        assert harmonic(2, 2) == Fraction(5, 4)
        assert harmonic(3) == Fraction(11, 6)
        assert harmonic(3, 2) == Fraction(49, 36)
        assert harmonic(2, 4) == Fraction(17, 16)

    def test_cache_object(self):
        # The per-order memo answers the same whether it grows up or is
        # read back below what it already holds.
        assert harmonic(4, 3) == Fraction(2035, 1728)
        assert harmonic(1, 3) == 1
        assert harmonic(4, 3) == Fraction(2035, 1728)

    def test_bad_order(self):
        with pytest.raises(ValueError):
            harmonic(2, 0)
        with pytest.raises(ValueError):
            harmonic(2, -1)
        with pytest.raises(ValueError):
            harmonic(-1, 3)

    @given(st.integers(1, 80), st.integers(1, 4))
    def test_prefix_sum_step(self, n, k):
        assert harmonic(n, k) - harmonic(n - 1, k) == Fraction(1, n**k)
