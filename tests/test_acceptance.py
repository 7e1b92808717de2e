"""Acceptance gate: every stated criterion, exact equality, stated time bounds.

One test per criterion, in order; each prints a single PASS line on success
(visible with -s or -rA) and carries the criterion number in its name so the
-v report reads as the checklist.
"""

import time
from fractions import Fraction

from polycauchy2 import (
    PolyCauchyTable,
    builtin_series,
    central_factorial_triangle,
    closed_form_fixtures,
    convolution_sweep,
    extract_conjecture_polynomials,
    integral_representation_check,
    level2_by_classical_combination,
    level2_by_formula,
    level2_by_recurrence,
    level2_by_series,
    level2_by_symmetric_sum,
    verify_identity,
)
from polycauchy2.cli import main
from polycauchy2.convolution import CONVOLUTION_IDENTITIES, rhs_3fold
from polycauchy2.polynomials import poly_eval
from series_oracle import Series, poly_mul, product_tree_row
from test_convolution import bump_rhs_at, truncate_2fold_01

SEQUENCE_K1 = [
    "1",
    "1/3",
    "-17/15",
    "367/21",
    "-27859/45",
    "1295803/33",
    "-5329242827/1365",
]


def test_c01_sequence_fixture_via_cli(capsys):
    started = time.perf_counter()
    code = main(["polycauchy", "--k", "1", "--nmax", "6"])
    elapsed = time.perf_counter() - started
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert lines[1:] == [f"{n},{value}" for n, value in enumerate(SEQUENCE_K1)]
    assert elapsed < 1.0
    print(f"PASS C1: CLI reproduces the k=1 fixture list in {elapsed:.3f}s")


def test_c02_four_way_triangle_agreement():
    started = time.perf_counter()
    recurrence = level2_by_recurrence(25)
    for n in range(26):
        assert recurrence.row(n) == product_tree_row(n)
        for m in range(1, n + 1):
            assert recurrence.value(n, m) == level2_by_classical_combination(n, m)
    for n in range(21):
        for m in range(n + 1):
            assert recurrence.value(n, m) == level2_by_symmetric_sum(n, m)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(f"PASS C2: four triangle routes agree (n<=25, symmetric sum n<=20) in {elapsed:.1f}s")


def test_c03_closed_forms_to_30():
    checks = closed_form_fixtures(30)
    failures = [check.name for check in checks if not check.ok]
    assert failures == []
    assert len(checks) == 18
    print("PASS C3: all 18 closed-form fixtures hold for n<=30")


def test_c04_central_factorial_relation():
    level2 = level2_by_recurrence(20)
    central = central_factorial_triangle(20)
    for n in range(21):
        assert central.row(n) == product_tree_row(n, -1)
        for m in range(n + 1):
            sign = -1 if (n - m) % 2 else 1
            assert level2.value(n, m) == sign * central.value(n, m)
    print("PASS C4: [[n,m]] matches the signed even central factorial numbers for n<=20")


def test_c05_route_agreement_and_arcsinh_powers():
    started = time.perf_counter()
    for k in range(-3, 4):
        for n in range(13):
            assert level2_by_formula(n, k) == level2_by_series(n, k)
    report = verify_identity("arcsinh_power", 30)
    assert report.status == "pass"
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(f"PASS C5: formula/series routes agree and arcsinh powers expand correctly in {elapsed:.1f}s")


def test_c06_integral_representation():
    for n in range(11):
        for k in range(1, 4):
            check = integral_representation_check(n, k)
            assert check.polynomial_match and check.value_match, check.describe()
    print("PASS C6: two-stage integral representation check holds for n<=10, k<=3")


def test_c07_convolution_and_series_identity_sweeps(table18):
    started = time.perf_counter()
    for name in ("thm2", "thm3", "thm4", "thm5", "thm6", "fold5", "fold7"):
        report = verify_identity(name, 15)
        assert report.status == "pass", (name, report.first_failure)
    for name in ("eqll", "eqconvo02"):
        report = verify_identity(name, 30)
        assert report.status == "pass", (name, report.first_failure)
    duality = [((0, 0),), ((0, 1),), ((1, 1),), ((0, 0, 0),), ((0,) * 4,), ((0,) * 5,), ((0,) * 7,)]
    for (offsets,) in duality:
        order = 20 + 2 * max(offsets) + 2
        big_l = Series(builtin_series("L", order))
        product = None
        for j in offsets:
            factor = big_l.derivative(2 * j) if j else big_l
            product = factor if product is None else product * factor
        sweep = convolution_sweep(offsets, 10, table18)
        for n in range(11):
            assert product.egf_even_coefficient(n) == sweep[n], (offsets, n)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(f"PASS C7: convolution sweeps to n=15, series identities to order 30, duality to n=10 in {elapsed:.1f}s")


def test_c08_conjecture_extraction():
    for r in (1, 2, 3):
        polys = extract_conjecture_polynomials(r)
        assert [len(p.coefficients) - 1 for p in polys] == list(range(0, 2 * r + 1, 2)), r
        assert all(p.coefficients[-1] != 0 for p in polys), r
        assert verify_identity(f"conjecture-r{r}").status == "pass", r
        assert polys[0].coefficients == [Fraction(1)]
        top = [Fraction(1)]
        for _ in range(2 * r):
            top = poly_mul(top, [-(2 * r + 1), 2])
        assert polys[r].coefficients == top
    # r = 1 reproduces the 3-fold closed form exactly
    p0, p2 = extract_conjecture_polynomials(1)
    table = PolyCauchyTable.build(14)
    closed_form = rhs_3fold(12, table)  # n = 1..12
    for n in range(2, 13):
        reconstructed = (
            poly_eval(p0.coefficients, n) * (2 * n - 1) * (n - 1) * table.value(n)
            + poly_eval(p2.coefficients, n) * n * (2 * n - 1) * table.value(n - 1)
        )
        assert reconstructed == closed_form[n - 1]
    print("PASS C8: conjecture polynomials derived for r=1,2,3 with the claimed degrees and edges")


def test_c09_negative_controls(monkeypatch):
    for name, defn in sorted(CONVOLUTION_IDENTITIES.items()):
        target = defn.nmin + 1
        with monkeypatch.context() as patch:
            bump_rhs_at(patch, name, target)
            report = verify_identity(name, target + 2)
        assert report.status == "fail", name
        assert report.first_failure is not None and report.first_failure.n == target, name
    # Theorem 3's sum without its l = n + 1 term, from the paper-form oracle;
    # that term vanishes at n = 0, so the first failure is n = 1.
    truncate_2fold_01(monkeypatch)
    truncated = verify_identity("thm3", 12)
    assert truncated.status == "fail"
    assert truncated.first_failure is not None and truncated.first_failure.n == 1
    print("PASS C9: every perturbed right-hand side fails with first_failure populated")


def test_c10_odd_coefficients_vanish():
    for k in range(-2, 4):
        arcsinh = Series(builtin_series("arcsinh", 31))
        composed = Series(builtin_series("lif2k", 31, k=k)).compose(arcsinh)
        for i in range(1, 32, 2):
            assert composed.coefficient(i) == 0, (k, i)
    print("PASS C10: odd EGF coefficients vanish through order 31 for k in -2..3")
