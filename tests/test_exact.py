"""Integer and rational helpers: fixtures first, then algebraic properties.

The oracle for the exact solve's primes is Miller-Rabin with the first twelve
primes as bases (``is_prime_oracle``), which decides every n below 3.18e23
(Sorenson & Webster, Math. Comp. 86, 2017); the solve itself uses other bases.
"""

import itertools
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


_ORACLE_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime_oracle(n):
    if n < 2:
        return False
    if n in _ORACLE_BASES or any(n % q == 0 for q in _ORACLE_BASES):
        return n in _ORACLE_BASES
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _ORACLE_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# Strong pseudoprimes: 3215031751 to the bases 2, 3, 5 and 7, and
# 3825123056546413051 = 149491 * 747451 * 34233211 to every prime base up to 23.
_STRONG_PSEUDOPRIMES = (3215031751, 3825123056546413051)


class TestSolvePrimes:
    def test_oracle_matches_trial_division(self):
        for n in range(5000):
            assert is_prime_oracle(n) == (n > 1 and all(n % q for q in range(2, math.isqrt(n) + 1))), n

    def test_oracle_rejects_strong_pseudoprimes(self):
        assert 149491 * 747451 * 34233211 == _STRONG_PSEUDOPRIMES[1]
        assert not any(map(is_prime_oracle, _STRONG_PSEUDOPRIMES))
        assert not any(map(exact_module._is_prime, _STRONG_PSEUDOPRIMES))

    def test_sequence_is_every_prime_down_from_2_61_minus_1(self):
        # Each yielded number is prime, and every odd number between two
        # consecutive ones is composite: the sequence skips no prime.
        primes = list(itertools.islice(exact_module._solve_primes(), 40))
        assert primes[0] == 2**61 - 1
        assert all(map(is_prime_oracle, primes))
        for high, low in zip(primes, primes[1:]):
            assert high > low
            assert not any(map(is_prime_oracle, range(low + 2, high, 2))), (low, high)

    def test_is_prime_matches_the_oracle_near_2_61(self):
        for n in range(2**61 - 6001, 2**61 + 6001, 2):
            assert exact_module._is_prime(n) == is_prime_oracle(n), n


class TestRationalReconstruction:
    M61 = 2**61 - 1

    @given(st.integers(-(10**9), 10**9), st.integers(1, 10**9))
    def test_recovers_every_fraction_inside_the_bound(self, numerator, denominator):
        value = Fraction(numerator, denominator)
        residue = value.numerator * pow(value.denominator, -1, self.M61) % self.M61
        bound = math.isqrt(self.M61 >> 1)
        assert exact_module._rational_reconstruction(residue, self.M61, bound) == value

    def test_a_fraction_past_the_bound_is_not_returned(self):
        residue = -17 * pow(3, -1, self.M61) % self.M61
        assert exact_module._rational_reconstruction(residue, self.M61, 17) == Fraction(-17, 3)
        assert exact_module._rational_reconstruction(residue, self.M61, 16) is None

    def test_crt_across_primes(self, monkeypatch):
        # 2^100 / 3^50 needs a bound of 2^100, so a modulus above 2^201: four 61-bit primes.
        real, used = exact_module._solve_mod, []
        monkeypatch.setattr(exact_module, "_solve_mod", lambda rows, p: used.append(p) or real(rows, p))
        assert exact_module._solve_exact([[3**50]], [2**100]) == [Fraction(2**100, 3**50)]
        assert used == list(itertools.islice(exact_module._solve_primes(), 4))


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
