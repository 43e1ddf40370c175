"""Shared laboratory laws used across the test modules."""

import sys

import numpy as np
import pytest

from cmseq import Tolerance
from cmseq.fixtures import ar1_law, cml_example_law, cyclic_example_law, identity_law


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print the acceptance verdict lines after the run, outside capture."""
    mod = sys.modules.get("test_acceptance") or sys.modules.get("tests.test_acceptance")
    lines = getattr(mod, "CRITERION_LINES", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def tol():
    return Tolerance()


@pytest.fixture(scope="session")
def ar1_n3():
    return ar1_law(3)


@pytest.fixture(scope="session")
def white_n3():
    return identity_law(3)


@pytest.fixture(scope="session")
def cyclic_law():
    return cyclic_example_law()


@pytest.fixture(scope="session")
def cml_law():
    return cml_example_law()


@pytest.fixture
def numpy1_solve(monkeypatch):
    """``np.linalg.solve`` with numpy 1.x's reading of the right-hand side.

    numpy 1.x reads a ``b`` with one dimension fewer than ``a`` as a stack
    of vectors; numpy 2 reads only a 1-D ``b`` as a vector.  The package
    declares ``numpy>=1.24``, so its stacked solves must give the same
    results under both readings.
    """
    solve = np.linalg.solve

    def numpy1(a, b):
        a, b = np.asarray(a), np.asarray(b)
        if b.ndim == a.ndim - 1:
            return solve(a, b[..., None])[..., 0]
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", numpy1)
