"""Level-2 triangle routes against each other and against closed forms.

The symmetric-sum route is the definition (elementary symmetric functions of
the squares 1^2..(n-1)^2), so it serves as the oracle for the recurrence;
frozen row fixtures below were produced by it. ``product_tree_row`` multiplies
out the defining product, and checks the recurrence and its signed view.
"""

import decimal
import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycauchy2 import (
    central_factorial_triangle,
    closed_form_fixtures,
    level2_by_classical_combination,
    level2_by_recurrence,
    level2_by_symmetric_sum,
    stirling1,
)
from polycauchy2 import stirling as stirling_module
from series_oracle import product_tree_row

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

    def test_recurrence_vs_product_tree(self):
        triangle = level2_by_recurrence(30)
        for n in range(31):
            assert triangle.row(n) == product_tree_row(n)

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

    def test_far_row_is_built_for_the_call(self):
        assert stirling1(40, 1) == math.factorial(39)


class TestCentralFactorial:
    def test_sign_relation(self):
        level2 = level2_by_recurrence(12)
        central = central_factorial_triangle(12)
        for n in range(13):
            assert central.row(n) == product_tree_row(n, -1)
            for m in range(n + 1):
                sign = -1 if (n - m) % 2 else 1
                assert level2.value(n, m) == sign * central.value(n, m)

    def test_diagonal_is_one(self):
        central = central_factorial_triangle(10)
        assert all(central.value(n, n) == 1 for n in range(11))


class TestPerturbedTriangle:
    """Negative control: one wrong entry of the row kernel, [[7, 3]] + 1, fails every route at n = 7."""

    @pytest.fixture
    def bumped(self, monkeypatch):
        kernel = stirling_module._level2_row

        def bump_row_7(prev, factor):
            row = kernel(prev, factor)
            if len(row) == 8:
                row[3] += 1
            return row

        monkeypatch.setattr(stirling_module, "_level2_row", bump_row_7)
        return level2_by_recurrence(10)

    def test_rows_below_7_agree(self, bumped):
        central = central_factorial_triangle(10)
        for n in range(7):
            assert bumped.row(n) == product_tree_row(n)
            assert central.row(n) == product_tree_row(n, -1)
            for m in range(1, n + 1):
                assert bumped.value(n, m) == level2_by_symmetric_sum(n, m)
                assert bumped.value(n, m) == level2_by_classical_combination(n, m)

    def test_every_route_fails_at_7(self, bumped):
        assert bumped.row(7) != product_tree_row(7)
        assert bumped.value(7, 3) != level2_by_symmetric_sum(7, 3)
        assert bumped.value(7, 3) != level2_by_classical_combination(7, 3)
        assert central_factorial_triangle(7).row(7) != product_tree_row(7, -1)

    def test_closed_forms_fail_where_the_entry_reaches(self, bumped):
        # The row kernel stays patched, so the triangle closed_form_fixtures builds carries the entry.
        # (7, 3) lies on column 3 and on diagonal n - 4; row 8 carries it to (8, 3), on n - 5.
        first = {c.name: c.first_failure[0] for c in closed_form_fixtures(10) if not c.ok}
        assert first == {"[[n,3]]": 7, "[[n,n-4]]": 7, "[[n,n-5]]": 8}


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


def text_rows(rows):
    """The rows of ``_decimal_rows`` rendered with ``str``, as ``stirling2`` renders them."""
    return [list(map(str, row)) for row in rows]


def _int_text_rows(nmax, signed):
    triangle = level2_by_recurrence(nmax)
    return [
        [str(-value if signed and (n - m) % 2 else value) for m, value in enumerate(triangle.row(n))]
        for n in range(nmax + 1)
    ]


class TestLevel2TextRows:
    """``_decimal_rows``, the one route that stirling2 renders with ``str``, is the int triangle, digit for digit."""

    @pytest.mark.parametrize("signed", [False, True])
    def test_matches_int_triangle(self, signed):
        for nmax in range(61):
            assert text_rows(stirling_module._decimal_rows(nmax, signed)) == _int_text_rows(nmax, signed), nmax
        rows = text_rows(stirling_module._decimal_rows(300, signed))
        assert rows == _int_text_rows(300, signed)
        for row in rows:
            for text in row:
                assert "E" not in text and "." not in text and "-0" not in text, text

    @pytest.mark.parametrize("signed", [False, True])
    @pytest.mark.parametrize("cut", [1, 61, 150, 300, 301, 302])
    def test_cut_rows_are_the_whole_rows_cut(self, signed, cut):
        # Columns m < cut of a row read only columns < cut of the row before,
        # so the rows cut to any width, from one column to past the last
        # row, are the whole rows cut.
        whole = stirling_module._decimal_rows(300, signed)
        assert list(stirling_module._decimal_rows(300, signed, cut)) == [row[:cut] for row in whole]

    @pytest.mark.parametrize("signed", [False, True])
    def test_rounding_raises(self, monkeypatch, signed):
        # Negative control at 50 digits. Rows 0..25 fit. Row 26 is the first
        # past 50 digits, and its entries end in zeros, so they round exactly
        # and only the Rounded trap stops them printing with an exponent.
        monkeypatch.setattr(decimal, "MAX_PREC", 50)
        assert text_rows(stirling_module._decimal_rows(25, signed)) == _int_text_rows(25, signed)
        for nmax in (26, 60):
            with pytest.raises(ArithmeticError):
                list(stirling_module._decimal_rows(nmax, signed))
            # The call itself raises, before any row is taken.
            with pytest.raises(ArithmeticError):
                stirling_module._decimal_rows(nmax, signed)

    @pytest.mark.parametrize("signed", [False, True])
    def test_bound_fits_exactly_at_its_own_digits(self, monkeypatch, signed):
        # The sum of row 25, prod (1 + i^2) for i = 1..24, has 49 digits: at
        # that precision rows 0..25 print, and the call for 26 refuses.
        assert len(str(math.prod(1 + i * i for i in range(1, 25)))) == 49
        monkeypatch.setattr(decimal, "MAX_PREC", 49)
        assert text_rows(stirling_module._decimal_rows(25, signed)) == _int_text_rows(25, signed)
        with pytest.raises(ArithmeticError):
            stirling_module._decimal_rows(26, signed)

    def test_bound_refuses_a_triangle_whose_entries_fit(self, monkeypatch):
        # The price of checking the bound alone: at 48 digits every entry of
        # rows 0..25 fits, yet their last row's sum does not, so the call refuses.
        assert max(len(text) for row in _int_text_rows(25, False) for text in row) == 48
        monkeypatch.setattr(decimal, "MAX_PREC", 48)
        with pytest.raises(ArithmeticError):
            stirling_module._decimal_rows(25, False)

    @pytest.mark.parametrize("signed", [False, True])
    def test_rows_stay_trapped_past_the_bound(self, monkeypatch, signed):
        # Negative control of the second guard: with the bound made to fit
        # always, the rows' own traps still stop row 26 at 50 digits.
        monkeypatch.setattr(stirling_module, "_row_sum", lambda n: decimal.Decimal(1))
        monkeypatch.setattr(decimal, "MAX_PREC", 50)
        rows = []
        with pytest.raises(ArithmeticError):
            for row in stirling_module._decimal_rows(60, signed):
                rows.append(list(map(str, row)))
        assert rows == _int_text_rows(25, signed)
        assert not any("E" in text or "." in text for row in rows for text in row)

    def test_cut_rows_stay_trapped_past_the_bound(self, monkeypatch):
        # As above, on rows cut to 10 columns: row 26 holds 25!^2, 51 digits, in column 1.
        monkeypatch.setattr(stirling_module, "_row_sum", lambda n: decimal.Decimal(1))
        monkeypatch.setattr(decimal, "MAX_PREC", 50)
        rows = stirling_module._decimal_rows(60, False, 10)
        assert [list(map(str, next(rows))) for _ in range(26)] == [row[:10] for row in _int_text_rows(25, False)]
        with pytest.raises(ArithmeticError):
            next(rows)

    def test_caller_context_is_untouched(self):
        context = decimal.getcontext()
        prec, traps = context.prec, dict(context.traps)
        rows = stirling_module._decimal_rows(5, False)
        for _ in range(3):
            next(rows)
            assert decimal.getcontext() is context
            assert (context.prec, dict(context.traps)) == (prec, traps)

    def test_first_rows_hold_no_triangle(self):
        tracemalloc.start()
        try:
            rows = stirling_module._decimal_rows(300, False)
            assert [list(map(str, next(rows))), list(map(str, next(rows)))] == [["1"], ["0", "1"]]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000, peak
