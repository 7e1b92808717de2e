"""Convolution engine, closed-form sweeps, duality, conjecture extraction.

The oracle for ``convolution_sweep`` is a brute-force
enumeration over index tuples written here with itertools only; the closed
forms are then swept against the engine, and the series side of each
identity is checked against the convolution side through the EGF product
rule. The oracles for the integer right-hand sides are the paper's
formulas as written, one Fraction per term (``paper_rhs_*``). The oracles
for the two differential equations for L are their power-series checks on
``series_oracle.Series`` (``paper_l_squared``, ``paper_l_second_derivative``).
The oracle for the fraction-free conjecture solve is Gauss-Jordan elimination
over Fraction (``gauss_jordan``).
"""

import itertools
import random
from dataclasses import replace
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycauchy2 import (
    IDENTITY_NAMES,
    PolyCauchyTable,
    builtin_series,
    convolution_sweep,
    extract_conjecture_polynomials,
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
from polycauchy2.polynomials import poly_eval, poly_mul
from series_oracle import Series, double_factorial, paper_series


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


def _sign(e):
    return -1 if e % 2 else 1


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
    rows = [CheckRow.compare(i, lhs.coefficient(i), rhs.coefficient(i)) for i in range(nmax + 1)]
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
    rows = [CheckRow.compare(i, lhs.coefficient(i), rhs.coefficient(i)) for i in range(nmax + 1)]
    return IdentityReport("eqconvo02", nmax, f"coefficients t^0..t^{nmax}", rows)


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
        sweep = convolution_sweep(offsets, nmax, table18)
        assert len(sweep) == nmax + 1
        for n, value in enumerate(sweep):
            assert value == brute_force_convolution(offsets, n, table18), (offsets, n)

    @pytest.mark.parametrize("offsets,nmax", SWEEP_CASES)
    def test_shorter_sweep_is_a_prefix(self, offsets, nmax, table18):
        sweep = convolution_sweep(offsets, nmax, table18)
        for m in range(nmax + 1):
            assert sweep[: m + 1] == convolution_sweep(offsets, m, table18)

    @settings(max_examples=25, deadline=None)
    @given(
        offsets=st.lists(st.integers(0, 3), min_size=2, max_size=5).map(tuple),
        nmax=st.integers(0, 6),
    )
    def test_sweep_property(self, offsets, nmax, table18):
        sweep = convolution_sweep(offsets, nmax, table18)
        assert sweep == [brute_force_convolution(offsets, n, table18) for n in range(nmax + 1)]

    @pytest.mark.parametrize(
        "offsets,n",
        [((0, 0), 7), ((0, 1), 6), ((1, 1), 5), ((0, 0, 0), 6), ((0,) * 5, 5), ((0, 1, 2), 4)],
    )
    def test_matches_brute_force(self, offsets, n, table18):
        assert convolution_sweep(offsets, n, table18)[n] == brute_force_convolution(offsets, n, table18)

    def test_hand_values(self, table18):
        assert convolution_sweep((0, 0), 0, table18)[0] == 1
        assert convolution_sweep((0, 0), 1, table18)[1] == Fraction(2, 3)
        assert convolution_sweep((1, 1), 0, table18)[0] == Fraction(1, 9)

    def test_invariant_under_offset_permutation(self, table18):
        for n in range(6):
            reference = convolution_sweep((0, 1, 2), n, table18)[n]
            for offsets in itertools.permutations((0, 1, 2)):
                assert convolution_sweep(offsets, n, table18)[n] == reference

    @pytest.mark.parametrize(
        "offsets,squares,products",
        [
            ((0, 0), 1, 0),
            ((1, 1), 1, 0),
            ((0, 1), 0, 1),
            ((0,) * 4, 2, 0),
            ((0,) * 7, 2, 2),
            ((1, 0, 0, 1), 2, 1),
        ],
    )
    def test_repeated_offsets_are_squared(self, offsets, squares, products, table18, monkeypatch):
        # Square-and-multiply per distinct offset, then one product per further group.
        calls = {"_egf_square": 0, "_egf_product": 0}
        for attr in calls:
            real = getattr(convolution_module, attr)

            def counted(*args, attr=attr, real=real):
                calls[attr] += 1
                return real(*args)

            monkeypatch.setattr(convolution_module, attr, counted)
        convolution_sweep(offsets, 5, table18)
        assert calls == {"_egf_square": squares, "_egf_product": products}

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


class TestClosedFormSweeps:
    @pytest.mark.parametrize("name", sorted(CONVOLUTION_IDENTITIES))
    def test_rhs_matches_convolution(self, name, table18):
        defn = CONVOLUTION_IDENTITIES[name]
        lhs = convolution_sweep(defn.offsets, 10, table18)
        rhs = defn.rhs(10, table18)
        assert len(rhs) == 11 - defn.nmin
        for n, value in enumerate(rhs, defn.nmin):
            assert lhs[n] == value, (name, n)

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
        calls = {"numerators": 0, "_weights": 0}

        def counting(owner, attr):
            real = getattr(owner, attr)

            def counted(*args):
                calls[attr] += 1
                return real(*args)

            return counted

        for owner, attr in ((PolyCauchyTable, "numerators"), (convolution_module, "_weights")):
            monkeypatch.setattr(owner, attr, counting(owner, attr))
        for nmax in (6, 30):
            calls.update(dict.fromkeys(calls, 0))
            assert verify_identity(name, nmax).status == "pass"
            assert calls == {"numerators": 2, "_weights": 1}, (name, nmax)

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
        assert rhs(30, table32) == [oracle(n, table32) for n in range(nmin, 31)], name

    @settings(max_examples=40, deadline=None)
    @given(case=st.sampled_from(ALL_FORMS), nmax=st.integers(0, 40))
    def test_every_sweep_equals_its_paper_form(self, case, nmax, table42, paper_values_to_40):
        rhs, _, nmin, name = case
        if nmax < nmin:
            with pytest.raises(ValueError, match=f"defined for n >= {nmin}"):
                rhs(nmax, table42)
            return
        assert rhs(nmax, table42) == paper_values_to_40[name][: nmax + 1 - nmin], (name, nmax)

    @pytest.mark.parametrize("rhs,oracle,nmin,name", SHORT_FORMS, ids=[case[3] for case in SHORT_FORMS])
    def test_short_form_moves_from_the_first_index_reading_a_wrong_entry(
        self, rhs, oracle, nmin, name, table18, bumped_table
    ):
        # Each short form reads C_{2n} at index n, so C_10 + 1 first shows at n = 5.
        perturbed = bumped_table(18, 5)
        values = rhs(12, perturbed)
        truth = [oracle(n, table18) for n in range(nmin, 13)]
        assert values[: 5 - nmin] == truth[: 5 - nmin]
        assert values[5 - nmin] != truth[5 - nmin]

    @pytest.mark.parametrize("rhs,oracle,nmin,name", PAPER_FORMS, ids=PAPER_FORM_IDS)
    def test_perturbed_weight_is_visible(self, rhs, oracle, nmin, name, table32, monkeypatch):
        # C9 style: one integer weight off by 1 must move the closed form off
        # the paper's value and fail the identity's sweep.
        real = convolution_module._weights

        def perturbed(count):
            weights = real(count)
            if count >= 2:
                weights[2] += 1
            return weights

        monkeypatch.setattr(convolution_module, "_weights", perturbed)
        assert rhs(8, table32) != [oracle(n, table32) for n in range(nmin, 9)]
        report = verify_identity(name, 8)
        assert report.status == "fail"
        assert report.first_failure is not None


class TestNegativeControls:
    @pytest.mark.parametrize("name", sorted(CONVOLUTION_IDENTITIES))
    def test_perturbing_rhs_flips_to_fail(self, name):
        defn = CONVOLUTION_IDENTITIES[name]
        target = defn.nmin + 2

        def perturbed(nmax, table):
            values = enumerate(defn.rhs(nmax, table), defn.nmin)
            return [value + (1 if n == target else 0) for n, value in values]

        report = verify_identity(name, target + 3, rhs_override=perturbed)
        assert report.status == "fail"
        assert report.first_failure is not None
        assert report.first_failure.n == target
        assert report.first_failure.lhs != report.first_failure.rhs
        payload = report.to_json_dict()
        assert payload["first_failure"]["n"] == target

    def test_truncating_2fold_01_sum_breaks(self):
        # The paper's form without its l = n + 1 term. That term vanishes at
        # n = 0, so the truncated sum first fails at n = 1.
        def truncated(nmax, table):
            return [paper_rhs_2fold_01(n, table, lmax=n) for n in range(nmax + 1)]

        report = verify_identity("thm3", 12, rhs_override=truncated)
        assert report.status == "fail"
        assert report.first_failure is not None
        assert report.first_failure.n == 1
        assert report.per_n_results[0].equal

    def test_one_wrong_binomial_fails_at_the_first_row_reading_it(self, monkeypatch):
        # binom(12, 4) one too big, in the shared rows both sides read. The
        # rows are a patched copy, so no wrong row outlives the test. Theorem
        # 2 reads binom(2n, 2l) at row n, so it first fails at n = 6; Theorem
        # 3's sum reads binom(2n + 2, 2l), so it first fails at n = 5.
        rows = [list(row) for row in exact_module._even_binomials(12)]
        rows[6][2] += 1
        monkeypatch.setattr(exact_module, "_EVEN_BINOMIALS", rows)
        for name, first in (("thm2", 6), ("thm3", 5)):
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

    def test_square_without_its_middle_term_fails_at_n_0(self, monkeypatch):
        # At n = 0 the middle term is the whole square.
        def halves_only(xs, nmax):
            dot = convolution_module._binomial_dot
            return [2 * dot(n, xs[: (n + 1) // 2], xs[n::-1]) for n in range(nmax + 1)]

        monkeypatch.setattr(convolution_module, "_egf_square", halves_only)
        report = verify_identity("thm2", 6)
        assert report.status == "fail"
        assert report.first_failure.n == 0

    def test_a_second_verify_builds_no_row(self, monkeypatch):
        rows = [[1]]
        monkeypatch.setattr(exact_module, "_EVEN_BINOMIALS", rows)
        assert main(["verify", "thm2", "--nmax", "30"]) == 0
        built = list(rows)
        assert len(built) == 31
        assert main(["verify", "thm2", "--nmax", "30"]) == 0
        assert len(rows) == 31
        assert all(a is b for a, b in zip(rows, built))

    def test_override_limited_to_convolutions(self):
        with pytest.raises(ValueError):
            verify_identity("eqll", 8, rhs_override=lambda n, t: Fraction(0))

    @pytest.mark.parametrize("name", ["thm1", "cor1", "eqll", "arcsinh_power", "conjecture-r1"])
    def test_table_limited_to_convolutions(self, name, bumped_table):
        # A table the identity never reads must not let a perturbed-table
        # negative control pass silently.
        perturbed = bumped_table(14, 10)
        with pytest.raises(ValueError, match="reads no table"):
            verify_identity(name, 12, table=perturbed)

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

    def test_perturbed_table_entry_is_visible(self, table18, bumped_table):
        # C9 style: one table entry off by 1 must change the sweep and fail
        # the fold7 check, so a sweep-based check is able to fail.
        m = 4
        perturbed = bumped_table(18, m)
        sweep = convolution_sweep((0,) * 7, 8, perturbed)
        truth = [brute_force_convolution((0,) * 7, n, table18) for n in range(9)]
        assert sweep[:m] == truth[:m]
        assert all(sweep[n] != truth[n] for n in range(m, 9))
        report = verify_identity("fold7", 12, table=perturbed)
        assert report.status == "fail"
        # At n = m both sides gain the same 7 C_{2m}, so the check fails from m + 1.
        assert report.first_failure.n == m + 1

    def test_registry_swap_is_visible(self, monkeypatch):
        broken = replace(
            CONVOLUTION_IDENTITIES["thm2"],
            rhs=lambda n, table: CONVOLUTION_IDENTITIES["thm3"].rhs(n, table),
        )
        monkeypatch.setitem(CONVOLUTION_IDENTITIES, "thm2", broken)
        assert verify_identity("thm2", 6).status == "fail"


class TestRouteAndSeriesSweeps:
    def test_route_agreement_report(self):
        report = verify_identity("thm1", 10)
        assert report.status == "pass"
        assert "k=-3..3" in report.parameter_range

    def test_integral_report(self):
        report = verify_identity("cor1", 8)
        assert report.status == "pass"

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
    def test_wrong_c10_fails_series_identities(self, name, first, bumped_c10):
        # C9 style: the L equations read the formula route's table, so a
        # wrong C_10 must fail them from the first coefficient whose
        # convolution reads it.
        report = verify_identity(name, 20)
        assert report.status == "fail"
        assert report.first_failure.n == first
        assert all(row.equal for row in report.per_n_results[:first])

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
        rhs = convolution_sweep(offsets, 8, table18)
        for n in range(9):
            assert product.egf_even_coefficient(n) == rhs[n], (label, n)

    def test_second_derivative_square_to_12(self, table18):
        big_l = Series(builtin_series("L", 30))
        square = big_l.derivative(2) * big_l.derivative(2)
        sweep = convolution_sweep((1, 1), 12, table18)
        for n in range(13):
            assert square.egf_even_coefficient(n) == sweep[n]


class TestConjectureExtraction:
    def test_r1_reproduces_the_3fold_coefficients(self):
        p0, p2 = extract_conjecture_polynomials(1)
        assert p0.interpolated_coefficients == [Fraction(1)]
        assert p2.interpolated_coefficients == [Fraction(9), Fraction(-12), Fraction(4)]
        assert p0.degree_ok and p2.degree_ok
        assert p0.reproduces_samples() and p2.reproduces_samples()

    def test_r2_fixtures(self):
        p0, p2, p4 = extract_conjecture_polynomials(2)
        assert p0.interpolated_coefficients == [Fraction(1)]
        assert p2.interpolated_coefficients == [
            Fraction(17, 3),
            Fraction(-16, 3),
            Fraction(4, 3),
        ]
        assert p4.interpolated_coefficients == poly_mul(
            [-5, 2], poly_mul([-5, 2], poly_mul([-5, 2], [-5, 2]))
        )

    def test_r3_top_polynomial_is_a_power(self):
        polys = extract_conjecture_polynomials(3)
        expected = [Fraction(1)]
        for _ in range(6):
            expected = poly_mul(expected, [-7, 2])
        assert polys[3].interpolated_coefficients == expected
        assert all(p.degree_ok and p.reproduces_samples() for p in polys)

    def test_held_out_points_are_recorded(self):
        samples = default_conjecture_samples(1)
        polys = extract_conjecture_polynomials(1, samples)
        for poly in polys:
            assert [n for n, _ in poly.sample_points] == samples

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_held_out_point_catches_a_perturbed_table(self, r, bumped_table):
        # C9 style: C at the last sample is only read at that held-out
        # point, so the solve is untouched and only the held-out check can
        # see the change. Every recovered polynomial must then fail it.
        samples = default_conjecture_samples(r)
        perturbed = bumped_table(samples[-1], samples[-1])
        polys = extract_conjecture_polynomials(r, table=perturbed)
        assert all(p.reproduces_samples() is False for p in polys)
        truth = extract_conjecture_polynomials(r)
        assert [p.interpolated_coefficients for p in polys] == [
            p.interpolated_coefficients for p in truth
        ]

    def test_prefactor(self):
        # binom(2n, 2k) binom(2n-2k-1, 2r-2k) at r=1, k=0, n=3: binom(5, 2)
        assert conjecture_prefactor(1, 0, 3) == 10

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            extract_conjecture_polynomials(0)
        with pytest.raises(ValueError):
            extract_conjecture_polynomials(4)
        with pytest.raises(ValueError):
            extract_conjecture_polynomials(1, [1, 2, 3])
        with pytest.raises(ValueError):
            extract_conjecture_polynomials(1, [2, 3, 4, 5])

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

    def test_identity_names_cover_registry(self):
        for name in CONVOLUTION_IDENTITIES:
            assert name in IDENTITY_NAMES


# Square systems of mixed signs and denominators, with zeros often enough to
# make some of them singular: a size, then the augmented rows flattened.
_ENTRY = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12))
_SYSTEMS = st.integers(1, 6).flatmap(
    lambda size: st.lists(_ENTRY, min_size=size * (size + 1), max_size=size * (size + 1)).map(
        lambda flat: [flat[i : i + size + 1] for i in range(0, len(flat), size + 1)]
    )
)


def _random_fractions(generator, count):
    return [Fraction(generator.randint(-40, 40), generator.randint(1, 12)) for _ in range(count)]


class TestBareissSolve:
    """``_solve_exact`` against the Gauss-Jordan oracle, and the checks inside it."""

    @staticmethod
    def solves(matrix, rhs, solution):
        return all(sum(a * x for a, x in zip(row, solution)) == b for row, b in zip(matrix, rhs))

    @settings(max_examples=150, deadline=None)
    @given(_SYSTEMS)
    def test_matches_gauss_jordan(self, augmented):
        # A singular draw must raise on both sides.
        matrix, rhs = [row[:-1] for row in augmented], [row[-1] for row in augmented]
        try:
            expected = gauss_jordan(matrix, rhs)
        except ArithmeticError:
            with pytest.raises(ArithmeticError, match="singular"):
                convolution_module._solve_exact(matrix, rhs)
            return
        assert convolution_module._solve_exact(matrix, rhs) == expected

    def test_seeded_systems_up_to_the_r3_size(self):
        generator = random.Random(20260)
        for size in range(1, 21):
            matrix = [_random_fractions(generator, size) for _ in range(size)]
            rhs = _random_fractions(generator, size)
            solution = convolution_module._solve_exact(matrix, rhs)
            assert solution == gauss_jordan(matrix, rhs), size
            assert self.solves(matrix, rhs, solution)
            assert all(type(x) is Fraction for x in solution)

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_conjecture_systems_match_gauss_jordan(self, r, monkeypatch):
        real, systems = convolution_module._solve_exact, []

        def record(matrix, rhs):
            systems.append((matrix, rhs))
            return real(matrix, rhs)

        monkeypatch.setattr(convolution_module, "_solve_exact", record)
        extract_conjecture_polynomials(r)
        (matrix, rhs), = systems
        assert len(matrix) == (r + 1) * (r + 2)
        assert real(matrix, rhs) == gauss_jordan(matrix, rhs)
        # Each integer row is the paper's row, weights conjecture_prefactor
        # C_{2n-2k} times n^j over Fraction, scaled by one factor.
        samples = default_conjecture_samples(r)
        table = PolyCauchyTable.build(samples[-1])
        lhs = convolution_sweep((0,) * (2 * r + 1), samples[-1], table)
        for n, row, value in zip(samples, matrix, rhs):
            assert all(type(v) is int for v in row)
            paper_row = [
                Fraction(conjecture_prefactor(r, k, n)) * table.value(n - k) * n**j
                for k in range(r + 1)
                for j in range(2 * k + 2)
            ]
            scale = row[0] / paper_row[0]
            assert [scale * v for v in [*paper_row, lhs[n]]] == [*row, value], (r, n)

    def test_zero_leading_pivot_swaps_rows(self):
        matrix = [[Fraction(0), Fraction(1, 2)], [Fraction(-3, 4), Fraction(5)]]
        rhs = [Fraction(1), Fraction(2, 3)]
        solution = convolution_module._solve_exact(matrix, rhs)
        assert solution == gauss_jordan(matrix, rhs) == [Fraction(112, 9), Fraction(2)]

    def test_zero_pivot_in_the_middle_swaps_rows(self):
        # Scaled to integers, the second pivot after the first step is
        # 4 - 2 * 2 = 0, while the third row has 3 - 2 = 1 there; det = -1/27.
        matrix = [[1, 2, 3], [2, 4, 7], [1, 3, 4]]
        matrix = [[Fraction(v, 3) for v in row] for row in matrix]
        rhs = [Fraction(1), Fraction(-2, 5), Fraction(7)]
        solution = convolution_module._solve_exact(matrix, rhs)
        assert solution == gauss_jordan(matrix, rhs)
        assert self.solves(matrix, rhs, solution)

    @pytest.mark.parametrize(
        "matrix",
        [
            [[1, 2], [2, 4]],
            [[Fraction(1, 2), 3, 1], [1, 6, Fraction(1, 3)], [2, 12, 5]],
            [[1, 0, 2], [3, 0, 4], [5, 0, 6]],
            [[0, 0], [0, 0]],
        ],
        ids=["rank-1", "dependent-columns", "zero-column", "zero-matrix"],
    )
    def test_singular_system_raises(self, matrix):
        matrix = [[Fraction(v) for v in row] for row in matrix]
        with pytest.raises(ArithmeticError, match="singular system"):
            convolution_module._solve_exact(matrix, [Fraction(1)] * len(matrix))

    def test_every_division_is_checked(self, monkeypatch):
        # Negative control: a wrong divisor (twice the true one) must raise,
        # not return a wrong solution. Unchecked, the same divisor floors
        # its way to a wrong answer, so the check is what catches it.
        matrix, rhs = [[2, 3, 5], [7, 11, 13], [17, 19, 23]], [1, 2, 3]
        matrix = [[Fraction(v) for v in row] for row in matrix]
        rhs = [Fraction(v) for v in rhs]
        real = polycauchy_module._exact_div
        monkeypatch.setattr(convolution_module, "_exact_div", lambda a, d, where: real(a, 2 * d, where))
        with pytest.raises(ArithmeticError, match="Bareiss solve: division by .* is not exact"):
            convolution_module._solve_exact(matrix, rhs)
        with pytest.raises(ArithmeticError, match="Bareiss solve"):
            extract_conjecture_polynomials(1)
        monkeypatch.setattr(convolution_module, "_exact_div", lambda a, d, where: a // (2 * d))
        assert convolution_module._solve_exact(matrix, rhs) != gauss_jordan(matrix, rhs)
