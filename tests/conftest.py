import math

import numpy as np
import pytest

import skyrme_dyon as sd
from skyrme_dyon.grid import GEOMETRIC_RATE

ACCEPT_POINTS = [
    (0.55 * math.pi, 0.05, 1.0),
    (0.75 * math.pi, 0.30, 1.0),
    (0.90 * math.pi, 0.05, 1.0),
]
SWEEP_QS = [0.30, 0.20, 0.10, 0.05, 0.02]


def blended_grid(R, N, c):
    """Mesh on explicit nodes r_i = R * ((1 - c) x_i + c sinh(beta x_i) / sinh(beta)), x_i = i/N.

    c = 0 is uniform and c = 1 gives build_grid's nodes bitwise; model
    tests use the other values to check the discretization off that mesh.
    """
    xi = np.arange(N + 1, dtype=float) / N
    r = R * ((1.0 - c) * xi + c * np.sinh(GEOMETRIC_RATE * xi) / np.sinh(GEOMETRIC_RATE))
    r[0] = 0.0
    r[-1] = R
    return sd.RadialGrid(r)


@pytest.fixture(scope="session")
def grid60():
    return sd.build_grid(60.0, 2000)


@pytest.fixture(scope="session")
def grid_small():
    return sd.build_grid(30.0, 300)


@pytest.fixture(scope="session")
def solved_points(grid60):
    """Converged dyons at the three production parameter points, N=2000, R=60."""
    out = {}
    for omega, q, kappa in ACCEPT_POINTS:
        p = sd.validate_params(omega, q, kappa)
        profile, report = sd.continuation_solve(p, grid60)
        assert report.converged, report.message
        out[(omega, q, kappa)] = (p, profile, report)
    return out


@pytest.fixture(scope="session")
def solved_kappa0(grid60):
    """Converged sigma-model-limit run (kappa = 0)."""
    p = sd.validate_params(0.75 * math.pi, 0.1, 0.0)
    profile, report = sd.continuation_solve(p, grid60)
    assert report.converged, report.message
    return p, profile, report


@pytest.fixture(scope="session")
def sweep_runs(grid60):
    """q-sweep at omega = 0.75 pi used by the charge-trend checks, each point solved as `sweep` does."""
    runs = []
    for q in SWEEP_QS:
        p = sd.validate_params(0.75 * math.pi, q, 1.0)
        profile, report = sd.continuation_solve(p, grid60)
        assert report.converged, report.message
        runs.append((p, profile, report))
    return runs


@pytest.fixture(scope="session")
def monopole_small(grid_small):
    p = sd.validate_params(0.75 * math.pi, 0.0, 1.0)
    profile, report = sd.newton_solve(p, grid_small, sd.initial_guess(p, grid_small))
    assert report.converged
    return p, profile, report


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
