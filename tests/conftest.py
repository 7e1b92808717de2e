import pytest

from polycauchy2 import PolyCauchyTable, level2_by_recurrence
from polycauchy2 import polycauchy as polycauchy_module


@pytest.fixture(scope="session")
def triangle25():
    return level2_by_recurrence(25)


@pytest.fixture(scope="session")
def table18():
    return PolyCauchyTable.build(18)


@pytest.fixture
def bumped_c10(monkeypatch):
    """The formula route returns D C_10 + 1 in place of D C_10 wherever its pass reaches n = 5."""
    real = polycauchy_module._formula_numerators

    def perturbed(nmax, k):
        numerators, denominator = real(nmax, k)
        if nmax >= 5:
            numerators[5] += 1
        return numerators, denominator

    monkeypatch.setattr(polycauchy_module, "_formula_numerators", perturbed)
