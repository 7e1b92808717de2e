import pytest

from polycauchy2 import PolyCauchyTable, level2_by_recurrence
from polycauchy2 import polycauchy as polycauchy_module


@pytest.fixture(scope="session")
def triangle25():
    return level2_by_recurrence(25)


@pytest.fixture(scope="session")
def table18():
    return PolyCauchyTable.build(18)


def _bumped_formula(m, bump):
    """The formula route with bump(D) added to D C_{2m} wherever its pass reaches n = m."""
    real = polycauchy_module._formula_numerators

    def perturbed(nmax, k):
        numerators, denominator = real(nmax, k)
        if nmax >= m:
            numerators[m] += bump(denominator)
        return numerators, denominator

    return perturbed


@pytest.fixture
def bumped_c10(monkeypatch):
    """The formula route returns D C_10 + 1 in place of D C_10 wherever its pass reaches n = 5."""
    monkeypatch.setattr(polycauchy_module, "_formula_numerators", _bumped_formula(5, lambda d: 1))


@pytest.fixture
def bumped_route(monkeypatch):
    """bumped_route(m) makes the formula route return C_{2m} + 1 in place of C_{2m} for the rest of the test.

    Every table built afterwards holds the bumped value, and so does every
    check that builds its own. Adding D to the numerator adds 1 to the value
    and leaves the gcd of D and the numerators unchanged.
    """

    def bump(m):
        monkeypatch.setattr(polycauchy_module, "_formula_numerators", _bumped_formula(m, lambda d: d))

    return bump
