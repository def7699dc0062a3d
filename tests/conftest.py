"""Shared helpers: absolute-weight Bell-diagonal construction and paths."""

from pathlib import Path

import numpy as np
import pytest

from ionsurgery import BellDiagonalState

REPO = Path(__file__).resolve().parent.parent
CIRCUITS = REPO / "circuits"


def bell_abs_state(a: float, b: float, c: float, d: float) -> BellDiagonalState:
    """Bell-diagonal state with absolute weights (phi+, psi+, psi-, phi-)."""
    r = 1.0 - a
    if r <= 0:
        return BellDiagonalState(1.0, 1 / 3, 1 / 3, 1 / 3)
    return BellDiagonalState(a, b / r, d / r, c / r)


def bell_abs(a: float, b: float, c: float, d: float):
    """DensityMatrix of `bell_abs_state`."""
    return bell_abs_state(a, b, c, d).to_density_matrix()


def random_bell_weights(rng: np.random.Generator, n: int):
    """n rows of absolute Bell weights (phi+, psi+, psi-, phi-)."""
    return rng.dirichlet(np.ones(4), size=n)


@pytest.fixture(scope="session")
def fixture_circuit_path() -> Path:
    return CIRCUITS / "ga_3to1.json"
