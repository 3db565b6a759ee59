"""Shared fixtures for the verification test suite."""

import warnings

import numpy as np
import pytest

from dispersive_decay.errors import BoundaryDecayWarning
from dispersive_decay.grid import GridSpec, SampledFunction
from dispersive_decay.littlewood_paley import BumpFunction


# One line per end-to-end acceptance criterion, filled in by
# test_acceptance.py and echoed after the run (outside output capture).
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(autouse=True)
def _quiet_boundary_warnings():
    """Boundary-decay warnings are exercised explicitly where relevant."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BoundaryDecayWarning)
        yield


@pytest.fixture(scope="session")
def grid40():
    """Small well-resolved grid: L = 40, N = 4096."""
    return GridSpec(half_width=40.0, size=4096)


@pytest.fixture(scope="session")
def grid200():
    """Mid-size grid matching the default lemma-suite domain at reduced N."""
    return GridSpec(half_width=200.0, size=32768)


@pytest.fixture(scope="session")
def bump():
    return BumpFunction()


def gaussian(grid: GridSpec, a: float = 0.5, x0: float = 0.0, b: float = 0.0,
             c: complex = 1.0) -> SampledFunction:
    """c * exp(-a (x-x0)^2 + i b x) sampled on the grid."""
    x = grid.x
    vals = c * np.exp(-a * (x - x0) ** 2 + 1j * b * x)
    return SampledFunction(grid, vals.astype(np.complex128))
