import os

import pytest

from polycauchy2 import PolyCauchyTable, level2_by_recurrence
from polycauchy2 import polycauchy as polycauchy_module


@pytest.fixture(autouse=True)
def no_child_left_unreaped():
    """Fail any test that leaves a child process running or unreaped."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process {'running' if pid == 0 else f'{pid} unreaped'}")


@pytest.fixture(scope="session")
def triangle25():
    return level2_by_recurrence(25)


@pytest.fixture(scope="session")
def table18():
    return PolyCauchyTable.build(18)


@pytest.fixture
def bumped_route(monkeypatch):
    """bumped_route(m) makes the formula route return C_{2m} + 1 in place of C_{2m} for the rest of the test.

    Every table built afterwards holds the bumped value, and so does every
    check that builds its own. Adding D to the numerator adds 1 to the value
    and leaves the gcd of D and the numerators unchanged.
    """

    def bump(m):
        real = polycauchy_module._formula_numerators

        def perturbed(nmax, k):
            numerators, denominator = real(nmax, k)
            if nmax >= m:
                numerators[m] += denominator
            return numerators, denominator

        monkeypatch.setattr(polycauchy_module, "_formula_numerators", perturbed)

    return bump
