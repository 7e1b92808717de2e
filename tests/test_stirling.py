"""Level-2 triangle routes against each other and against closed forms.

The symmetric-sum route is the definition (elementary symmetric functions of
the squares 1^2..(n-1)^2), so it serves as the oracle for the recurrence and
rising-factorial tables; frozen row fixtures below were produced by it.
"""

import decimal
import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycauchy2 import (
    central_factorial_even,
    central_factorial_triangle,
    closed_form_fixtures,
    level2_by_classical_combination,
    level2_by_recurrence,
    level2_by_rising_factorial,
    level2_by_symmetric_sum,
    level2_text_rows,
    stirling1,
)
from polycauchy2 import stirling as stirling_module

# Rows 0..5, frozen from the symmetric-sum definition.
LEVEL2_ROWS = [
    [1],
    [0, 1],
    [0, 1, 1],
    [0, 4, 5, 1],
    [0, 36, 49, 14, 1],
    [0, 576, 820, 273, 30, 1],
]

# Classical unsigned triangle rows 0..4.
CLASSICAL_ROWS = [
    [1],
    [0, 1],
    [0, 1, 1],
    [0, 2, 3, 1],
    [0, 6, 11, 6, 1],
]


class TestLevel2Routes:
    def test_row_fixtures(self):
        triangle = level2_by_recurrence(5)
        for n, expected in enumerate(LEVEL2_ROWS):
            assert list(triangle.row(n)) == expected

    def test_symmetric_sum_is_the_oracle(self):
        for n, row in enumerate(LEVEL2_ROWS):
            for m, expected in enumerate(row):
                assert level2_by_symmetric_sum(n, m) == expected

    def test_recurrence_vs_rising_factorial(self):
        a = level2_by_recurrence(30)
        b = level2_by_rising_factorial(30)
        for n in range(31):
            assert a.row(n) == b.row(n)

    def test_recurrence_vs_symmetric_sum(self):
        triangle = level2_by_recurrence(12)
        for n in range(13):
            for m in range(n + 1):
                assert triangle.value(n, m) == level2_by_symmetric_sum(n, m)

    def test_classical_combination(self):
        triangle = level2_by_recurrence(12)
        for n in range(1, 13):
            for m in range(1, n + 1):
                assert triangle.value(n, m) == level2_by_classical_combination(n, m)

    def test_outside_domain_is_zero(self):
        triangle = level2_by_recurrence(4)
        assert triangle.value(3, 4) == 0
        assert triangle.value(-1, 0) == 0
        assert triangle.value(2, -1) == 0
        assert level2_by_symmetric_sum(0, 0) == 1
        assert level2_by_symmetric_sum(1, 0) == 0

    def test_unbuilt_row_raises(self):
        triangle = level2_by_recurrence(4)
        with pytest.raises(ValueError):
            triangle.value(5, 2)
        with pytest.raises(ValueError):
            triangle.row(9)

    @settings(max_examples=30)
    @given(st.integers(0, 40))
    def test_row_sum_is_rising_factorial_at_one(self, n):
        # x = 1 in x(x+1)(x+4)...(x+(n-1)^2)
        triangle = level2_by_recurrence(n)
        expected = math.prod(1 + i * i for i in range(n)) if n else 1
        assert sum(triangle.row(n)) == expected

    def test_alternating_row_sum_vanishes(self):
        # x = -1 kills the (x + 1^2) factor, so rows n >= 2 alternate to zero
        triangle = level2_by_recurrence(20)
        for n in range(2, 21):
            assert sum((-1) ** m * v for m, v in enumerate(triangle.row(n))) == 0


class TestClassicalTriangle:
    def test_row_fixtures(self):
        assert [[stirling1(n, m) for m in range(n + 1)] for n in range(5)] == CLASSICAL_ROWS

    def test_row_sum_is_factorial(self):
        for n in range(10):
            assert sum(stirling1(n, m) for m in range(n + 1)) == math.factorial(n)

    def test_outside_domain_is_zero(self):
        assert stirling1(3, 5) == 0
        assert stirling1(-2, 0) == 0

    def test_extends_on_demand(self):
        assert stirling1(40, 1) == math.factorial(39)


class TestCentralFactorial:
    def test_sign_relation(self):
        level2 = level2_by_recurrence(12)
        central = central_factorial_triangle(12)
        for n in range(13):
            for m in range(n + 1):
                sign = -1 if (n - m) % 2 else 1
                assert level2.value(n, m) == sign * central.value(n, m)

    def test_helper_matches_triangle(self):
        central = central_factorial_triangle(8)
        for n in range(9):
            for m in range(n + 1):
                assert central_factorial_even(n, m) == central.value(n, m)

    def test_diagonal_is_one(self):
        central = central_factorial_triangle(10)
        assert all(central.value(n, n) == 1 for n in range(11))


class TestClosedForms:
    def test_all_formulas_hold_to_15(self):
        checks = closed_form_fixtures(15)
        failed = [check.name for check in checks if not check.ok]
        assert failed == []

    def test_reports_carry_failures(self):
        checks = closed_form_fixtures(15)
        assert all(check.first_failure is None for check in checks)
        # 7 classical diagonals + 2 classical columns + 3 level-2 columns
        # + 6 level-2 diagonals
        assert len(checks) == 18


def _int_text_rows(nmax, signed):
    triangle = level2_by_recurrence(nmax)
    return [
        [str(-value if signed and (n - m) % 2 else value) for m, value in enumerate(triangle.row(n))]
        for n in range(nmax + 1)
    ]


class TestLevel2TextRows:
    """The decimal route that stirling2 prints is the int triangle, digit for digit."""

    @pytest.mark.parametrize("signed", [False, True])
    def test_matches_int_triangle(self, signed):
        for nmax in range(61):
            assert list(level2_text_rows(nmax, signed)) == _int_text_rows(nmax, signed), nmax
        rows = list(level2_text_rows(300, signed))
        assert rows == _int_text_rows(300, signed)
        for row in rows:
            for text in row:
                assert "E" not in text and "." not in text and "-0" not in text, text

    @pytest.mark.parametrize("signed", [False, True])
    def test_rounding_raises(self, monkeypatch, signed):
        # Negative control at 50 digits. Rows 0..25 fit. Row 26 is the first
        # past 50 digits, and its entries end in zeros, so they round exactly
        # and only the Rounded trap stops them printing with an exponent.
        monkeypatch.setattr(decimal, "MAX_PREC", 50)
        assert list(level2_text_rows(25, signed)) == _int_text_rows(25, signed)
        for nmax in (26, 60):
            with pytest.raises(ArithmeticError):
                list(level2_text_rows(nmax, signed))
            # The call itself raises, before any row is taken.
            with pytest.raises(ArithmeticError):
                level2_text_rows(nmax, signed)

    @pytest.mark.parametrize("signed", [False, True])
    def test_bound_fits_exactly_at_its_own_digits(self, monkeypatch, signed):
        # The sum of row 25, prod (1 + i^2) for i = 1..24, has 49 digits: at
        # that precision rows 0..25 print, and the call for 26 refuses.
        assert len(str(math.prod(1 + i * i for i in range(1, 25)))) == 49
        monkeypatch.setattr(decimal, "MAX_PREC", 49)
        assert list(level2_text_rows(25, signed)) == _int_text_rows(25, signed)
        with pytest.raises(ArithmeticError):
            level2_text_rows(26, signed)

    def test_bound_refuses_a_triangle_whose_entries_fit(self, monkeypatch):
        # The price of checking the bound alone: at 48 digits every entry of
        # rows 0..25 fits, yet their last row's sum does not, so the call refuses.
        assert max(len(text) for row in _int_text_rows(25, False) for text in row) == 48
        monkeypatch.setattr(decimal, "MAX_PREC", 48)
        with pytest.raises(ArithmeticError):
            level2_text_rows(25)

    @pytest.mark.parametrize("signed", [False, True])
    def test_rows_stay_trapped_past_the_bound(self, monkeypatch, signed):
        # Negative control of the second guard: with the bound made to fit
        # always, the rows' own traps still stop row 26 at 50 digits.
        monkeypatch.setattr(stirling_module, "_row_sum", lambda n: decimal.Decimal(1))
        monkeypatch.setattr(decimal, "MAX_PREC", 50)
        rows = []
        with pytest.raises(ArithmeticError):
            for row in level2_text_rows(60, signed):
                rows.append(row)
        assert rows == _int_text_rows(25, signed)
        assert not any("E" in text or "." in text for row in rows for text in row)

    def test_caller_context_is_untouched(self):
        context = decimal.getcontext()
        prec, traps = context.prec, dict(context.traps)
        rows = level2_text_rows(5)
        for _ in range(3):
            next(rows)
            assert decimal.getcontext() is context
            assert (context.prec, dict(context.traps)) == (prec, traps)

    def test_first_rows_hold_no_triangle(self):
        tracemalloc.start()
        try:
            rows = level2_text_rows(300)
            assert [next(rows), next(rows)] == [["1"], ["0", "1"]]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000, peak
