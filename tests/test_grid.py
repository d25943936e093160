import dataclasses
import math
import re

import numpy as np
import pytest

import skyrme_dyon as sd
from conftest import blended_grid
from skyrme_dyon.errors import NumericError, ParameterError
from skyrme_dyon.grid import MAX_NODES
from skyrme_dyon.io import read_profile_csv, write_profile_csv

MAX_SPACING_RATIO = 1.2  # the bound on adjacent interval lengths that the grid module's docstring names


@pytest.mark.parametrize("R, N", [(60.0, 2000), (60.0, 8000), (30.0, 300), (60.0, 250), (1000.0, 100)])
def test_build_grid_nodes_are_the_sinh_map(R, N):
    # bitwise the nodes of R * ((1 - c) x + c sinh(5x) / sinh(5)) at c = 1, the one mesh every stored profile was solved on
    r = sd.build_grid(R, N).r
    assert np.array_equal(r.view(np.int64), blended_grid(R, N, 1.0).r.view(np.int64))


def test_default_grading_puts_at_least_ten_percent_of_nodes_in_the_core():
    g = sd.build_grid(60.0, 2000)
    assert np.mean(g.r <= 1.0) >= 0.10


def test_spacing_ratio_bounded():
    # build_grid does not check the ratio: for N >= MIN_NODES it is at most e^(beta/N) <= e^0.05
    for N in (100, 101, 400):
        g = sd.build_grid(60.0, N)
        ratios = g.h[1:] / g.h[:-1]
        assert np.max(np.maximum(ratios, 1.0 / ratios)) <= MAX_SPACING_RATIO


def test_build_grid_rejects_bad_parameters():
    with pytest.raises(ParameterError, match="N"):
        sd.build_grid(60.0, 50)
    with pytest.raises(ParameterError, match="R"):
        sd.build_grid(-1.0, 200)
    # N above the cap is rejected before any array is allocated
    for N in (MAX_NODES + 1, 10**13, 10**20, math.inf, math.nan):
        with pytest.raises(ParameterError, match=rf"N must be an integer in \[100, {MAX_NODES}\], got {N}$"):
            sd.build_grid(60.0, N)


def test_grid_rejects_nodes_whose_half_node_products_overflow():
    # r_(N-1) * r_N must be a finite double; the check itself raises no warning
    for R in (1e160, 1e300):
        with pytest.raises(ParameterError, match=re.escape(f"last node {R} is too large")):
            sd.build_grid(R, 100)
    assert np.all(np.isfinite(sd.build_grid(1e154, 100).p_half))


def flux_divergence(grid, u):
    """(r^2 u')' at interior nodes: the g-row of the residuals with a = 0."""
    zero = np.zeros(grid.N + 1)
    p = sd.validate_params(0.75 * np.pi, 0.0, 1.0)
    return sd.residuals(p, sd.FieldProfile(grid, zero, zero, u))[2]


def test_sturm_liouville_exact_on_constant_linear_and_reciprocal():
    g = sd.build_grid(20.0, 200)
    const = flux_divergence(g, np.full(g.N + 1, 3.7))
    lin = flux_divergence(g, 0.4 * g.r)
    for i in (1, 5, 50, g.N - 1):
        assert const[i - 1] == 0.0
        assert abs(lin[i - 1] - 0.8 * g.r[i]) <= 1e-11 * (1.0 + g.r[i])
    # (r^2 (1/r)')' = 0: exact with the r_i r_{i+1} half-node coefficient
    recip = np.zeros(g.N + 1)
    recip[1:] = 1.0 / g.r[1:]
    assert np.max(np.abs(flux_divergence(g, recip)[1:])) <= 1e-10


def test_sturm_liouville_conservativity_telescopes():
    g = blended_grid(15.0, 150, 0.8)
    rng = np.random.default_rng(3)
    u = np.cumsum(rng.uniform(-1, 1, g.N + 1))
    total = np.dot(flux_divergence(g, u), g.w[1:-1])
    flux = g.p_half * np.diff(u) / g.h
    boundary = flux[-1] - flux[0]
    assert abs(total - boundary) <= 1e-10 * (1.0 + abs(boundary))


def test_integrate_constant_and_linear_exact():
    g = blended_grid(7.5, 130, 0.9)
    assert abs(g.integrate(np.ones(g.N + 1)) - 7.5) <= 1e-12
    gu = blended_grid(10.0, 100, 0.0)
    assert abs(gu.integrate(gu.r.copy()) - 50.0) <= 1e-12


def test_integrate_quadratic_accuracy():
    g = blended_grid(1.0, 1000, 0.0)
    assert abs(g.integrate(g.r**2) - 1.0 / 3.0) <= 1e-5


def test_integrate_rejects_non_finite_with_node_index():
    g = sd.build_grid(10.0, 100)
    w = np.ones(101)
    w[17] = np.nan
    with pytest.raises(NumericError, match="17"):
        g.integrate(w)


def test_integrate_rejects_an_integrand_of_another_length():
    g = sd.build_grid(10.0, 100)
    with pytest.raises(ParameterError, match=r"^integrand must have 101 nodal values, got \(100,\)$"):
        g.integrate(np.ones(100))


def test_quadrature_second_order_under_refinement():
    errors = []
    for k in range(3):
        g = sd.build_grid(10.0, 125 * 2**k)
        errors.append(abs(g.integrate(np.cos(g.r)) - np.sin(10.0)))
    assert errors[0] / errors[1] >= 3.5
    assert errors[1] / errors[2] >= 3.5


def test_refine_doubles_intervals_and_contains_parent_nodes():
    g = sd.build_grid(10.0, 100)
    g2 = sd.build_grid(10.0, 200)
    assert g2.N == 2 * g.N and g2.R == g.R
    assert np.array_equal(g2.r[::2], g.r)
    g4 = sd.build_grid(10.0, 400)
    assert g4.N == 4 * g.N
    assert np.array_equal(g4.r[::4], g.r)


def test_grid_rebuilt_from_its_nodes_roundtrips():
    g = blended_grid(12.0, 110, 0.7)
    g2 = sd.RadialGrid(g.r.copy())
    assert g2.N == g.N and g2.R == g.R
    assert np.array_equal(g2.w, g.w)


def test_grids_compare_and_hash_by_identity():
    g, twin = sd.build_grid(60.0, 200), sd.build_grid(60.0, 200)
    assert g == g and g != twin
    assert {g: 1, twin: 2}[g] == 1


def test_nodes_immutable():
    g = sd.build_grid(10.0, 100)
    with pytest.raises(ValueError):
        g.r[3] = 1.0


def test_grid_conductances_are_read_only_and_their_defining_expressions():
    # the electric solve, the residuals and the Newton Jacobian read them instead of dividing per call
    for g in (sd.build_grid(60.0, 2000), sd.build_grid(30.0, 300), blended_grid(30.0, 300, 0.0), sd.RadialGrid([0.0, 1.0, 3.0])):
        P, h = g.p_half, g.h
        assert g.conductance.tobytes() == (P / h).tobytes()
        assert g.conductance_sum.tobytes() == (P[:-1] / h[:-1] + P[1:] / h[1:]).tobytes()
        assert g.conductance_sum.tobytes() == (P[1:] / h[1:] + P[:-1] / h[:-1]).tobytes()  # the Jacobian's order
        assert g.inv_r2.tobytes() == (1.0 / (g.r[1:-1] * g.r[1:-1])).tobytes()
        for name in ("conductance", "conductance_sum", "inv_r2"):
            with pytest.raises(ValueError):
                getattr(g, name)[0] = 1.0
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(g, name, np.ones(3))


BAD_NODES = [
    ([0.0], "at least 2 intervals"),
    ([0.0, 30.0], "at least 2 intervals"),
    ([], "at least 2 intervals"),
    ([[0.0, 1.0, 2.0]], "1-D"),
    ([0.0, 1.0, np.inf], "last node must be finite, got inf$"),
    ([1.0, 2.0, 3.0], "first node must be 0, got 1.0$"),
    ([0.0, 2.0, 1.0], "^nodes must be strictly increasing$"),
]


@pytest.mark.parametrize("nodes, match", BAD_NODES, ids=[f"nodes{i}" for i in range(len(BAD_NODES))])
def test_grid_needs_an_interior_node(nodes, match):
    with pytest.raises(ParameterError, match=match):
        sd.RadialGrid(np.array(nodes))


HELD = ("two_w", "r2", "lap_m", "lap_p", "lap_0", "stiff_m", "stiff_p", "stiff_0")


def _held_by_inline_expressions(g):
    """Each array a grid holds from first use, by the expression its reader wrote inline before the grid held it."""
    r, h, w = g.r, g.h, g.w[1:-1]
    lap_m, lap_p = 1.0 / (h[:-1] * w), 1.0 / (h[1:] * w)
    return {
        "two_w": 2.0 * w,
        "r2": r[1:] ** 2,
        "lap_m": lap_m,
        "lap_p": lap_p,
        "lap_0": -(lap_m + lap_p),
        "stiff_m": g.p_half[:-1] * lap_m,
        "stiff_p": g.p_half[1:] * lap_p,
        "stiff_0": g.conductance_sum / w,
    }


def test_grid_held_arrays_are_read_only_and_bitwise_their_inline_expressions(tmp_path):
    p = sd.validate_params(0.75 * math.pi, 0.3, 1.0)
    built = sd.build_grid(60.0, 2000)
    path = tmp_path / "profile.csv"
    write_profile_csv(path, p, sd.initial_guess(p, built))
    read_back = read_profile_csv(path)[1].grid
    for g in (built, read_back, sd.build_grid(30.0, 300), blended_grid(30.0, 300, 0.0), sd.RadialGrid([0.0, 1.0, 3.0])):
        inline = _held_by_inline_expressions(g)
        for name in HELD:
            held = getattr(g, name)
            assert held.tobytes() == inline[name].tobytes(), name
            assert getattr(g, name) is held  # computed once
            with pytest.raises(ValueError):
                held[..., :1] = 1.0
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(g, name, np.ones(3))
        # the Jacobian's -stiff/w
        assert (-g.conductance_sum / g.w[1:-1]).tobytes() == (-g.stiff_0).tobytes()
