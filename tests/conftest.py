import math
from functools import cached_property

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


def perturbed_guess(p, grid, rng, g_noise=0.01):
    """initial_guess(p, grid) with noise at the interior nodes, as a new profile (a built one is read-only).

    a is scaled by 1 + 0.05 n, then f is shifted by 0.05 n and, unless
    g_noise is 0, g by g_noise n, each n a fresh standard-normal draw of
    rng in that order.
    """
    guess = sd.initial_guess(p, grid)
    a, f, g = guess.a.copy(), guess.f.copy(), guess.g.copy()
    a[1:-1] *= 1.0 + 0.05 * rng.standard_normal(grid.N - 1)
    f[1:-1] += 0.05 * rng.standard_normal(grid.N - 1)
    if g_noise:
        g[1:-1] += g_noise * rng.standard_normal(grid.N - 1)
    return sd.FieldProfile(grid, a, f, g)


def with_value(s, field, node, value):
    """A new profile of copies of the arrays of s, with field[node] = value (a built profile is read-only)."""
    arrays = {name: getattr(s, name).copy() for name in "afg"}
    arrays[field][node] = value
    return sd.FieldProfile(s.grid, **arrays)


def count_state_evaluations(monkeypatch):
    """Make FieldProfile._state record each profile it evaluates; returns that list, in evaluation order."""
    evaluated = []
    form = sd.FieldProfile._state.func

    def recorded(self):
        evaluated.append(self)
        return form(self)

    counted = cached_property(recorded)
    counted.__set_name__(sd.FieldProfile, "_state")
    monkeypatch.setattr(sd.FieldProfile, "_state", counted)
    return evaluated


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
