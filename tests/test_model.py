import dataclasses
import math
import re

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import skyrme_dyon as sd
from conftest import blended_grid, perturbed_guess, with_value
from skyrme_dyon.errors import NumericError, ParameterError, RegionError
from skyrme_dyon.model import _e1, _e2_terms, _interval_e1, _nodal_e1, e2_energy

OMEGA = 0.75 * math.pi


def params(q=0.3, kappa=1.0, omega=OMEGA):
    return sd.validate_params(omega, q, kappa)


# -- parameter validation -----------------------------------------------------------


def test_validate_params_examples():
    assert params(q=0.30).q == 0.30
    assert sd.admissible_q_max(OMEGA) == pytest.approx(0.35355339059327379, abs=1e-14)
    with pytest.raises(RegionError, match="q_max"):
        params(q=0.36)
    with pytest.raises(RegionError, match="omega"):
        sd.validate_params(0.40 * math.pi, 0.1, 1.0)
    with pytest.raises(ParameterError, match="kappa"):
        sd.validate_params(OMEGA, 0.1, -1.0)
    assert sd.validate_params(OMEGA, 0.0, 0.0).kappa == 0.0


@pytest.mark.parametrize("name, args", [("omega", (math.nan, 0.1, 1.0)), ("q", (OMEGA, math.inf, 1.0)), ("kappa", (OMEGA, 0.1, -math.inf))])
def test_validate_params_rejects_non_finite_values(name, args):
    # a ParameterError, not the RegionError that a finite value outside the region raises
    with pytest.raises(ParameterError, match=rf"^{name} must be finite, got") as info:
        sd.validate_params(*args)
    assert type(info.value) is ParameterError


@pytest.mark.parametrize("field", ["a", "f", "g"])
@pytest.mark.parametrize("shape", [(100,), (2, 101), ()], ids=["one-node-short", "2-D", "scalar"])
def test_profile_needs_one_value_per_node(field, shape):
    grid = sd.build_grid(30.0, 100)
    arrays = {name: np.zeros(grid.N + 1) for name in "afg"}
    arrays[field] = np.zeros(shape)
    with pytest.raises(ParameterError, match=rf"^{field} must have 101 nodal values, got {re.escape(str(shape))}$"):
        sd.FieldProfile(grid, **arrays)
    # complex-step profiles build: only the shape is checked
    arrays[field] = np.zeros(grid.N + 1, dtype=complex)
    assert sd.FieldProfile(grid, **arrays).a.shape == (grid.N + 1,)


def test_profiles_compare_and_hash_by_identity_and_are_frozen():
    grid = sd.build_grid(30.0, 100)
    s, twin = sd.initial_guess(params(), grid), sd.initial_guess(params(), grid)
    assert s == s and s != twin
    assert len({s, twin}) == 2
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.g = twin.g


def test_a_built_profile_is_read_only_and_leaves_the_callers_arrays_writable():
    # a profile holds its own state, so a write into one of its arrays would leave that state stale
    grid = sd.build_grid(30.0, 100)
    arrays = {name: np.zeros(grid.N + 1) for name in "afg"}
    s = sd.FieldProfile(grid, **arrays)
    for field, values in arrays.items():
        with pytest.raises(ValueError, match="read-only"):
            getattr(s, field)[1] = 1.0
        values[1] = 1.0
        assert getattr(s, field)[1] == 1.0  # a view, not a copy


@settings(max_examples=50, deadline=None)
@given(omega=st.floats(0.1, 3.1), q=st.floats(0.0, 1.0))
def test_validate_params_region_logic(omega, q):
    inside = (math.pi / 2 < omega < math.pi) and 0.0 <= q < min(
        math.sin(omega) / math.sqrt(2.0), math.sqrt(2.0) * (1.0 - omega / math.pi)
    )
    try:
        sd.validate_params(omega, q, 1.0)
        assert inside
    except RegionError:
        assert not inside


# -- e1 and e2 terms ----------------------------------------------------------------


def vacuum_profile(grid):
    return sd.FieldProfile(grid, np.ones(grid.N + 1), np.zeros(grid.N + 1), np.zeros(grid.N + 1))


def e1_terms(p, s):
    """(interval, node) terms of e1 as the action sums them."""
    return _interval_e1(p, s, 0.5), _nodal_e1(p, s, s._state.mass)


def discrete_action(p, s):
    """L = E1 - E2 through the package's one sum of each; complex inputs give complex L."""
    return _e1(p, s, 0.5, s._state.mass) - e2_energy(s.grid, s.a, s.g)


def test_density_e1_vacuum_zero():
    g = sd.build_grid(10.0, 100)
    for terms in e1_terms(params(), vacuum_profile(g)):
        assert np.all(terms == 0.0)


def test_density_e1_pure_core_term():
    g = sd.build_grid(10.0, 100)
    s = sd.FieldProfile(g, np.zeros(g.N + 1), np.full(g.N + 1, 0.4), np.zeros(g.N + 1))
    interval, nodal = e1_terms(params(kappa=1.0), s)
    assert np.all(interval == 0.0)
    for i in (3, 40, 90):
        assert nodal[i] == pytest.approx(2.0 / g.r[i] ** 2, rel=1e-13)


def test_density_e1_linear_f_on_uniform_grid():
    g = blended_grid(10.0, 200, 0.0)
    s = sd.FieldProfile(g, np.ones(g.N + 1), g.r.copy(), np.zeros(g.N + 1))
    interval, nodal = e1_terms(params(kappa=0.0, q=0.1), s)
    for i in (1, 50, 150):
        # the half-node coefficients r_{i-1} r_i and r_i r_{i+1} average to r_i^2 on a uniform mesh
        assert 0.5 * (interval[i - 1] + interval[i]) == pytest.approx(0.5 * g.r[i] ** 2, rel=1e-12)
        assert nodal[i] == pytest.approx(np.sin(g.r[i]) ** 2, rel=1e-13)


def test_density_e2_examples():
    g = blended_grid(10.0, 120, 0.0)
    p = params(q=0.25)
    ones, zeros = np.ones(g.N + 1), np.zeros(g.N + 1)
    assert e2_energy(g, ones, zeros) == 0.0
    assert e2_energy(g, zeros, np.full(g.N + 1, p.q)) == 0.0
    # integral of (q/R)^2 r^2 + 2 (q r/R)^2 over [0, R] is q^2 R
    assert e2_energy(g, ones, p.q * g.r / g.R) == pytest.approx(p.q**2 * g.R, rel=1e-4)
    # the constraint residual sums the same bilinear form: on its diagonal it is
    # E2 bit for bit, and it is symmetric in (g, G) up to rounding
    a = 1.0 / (1.0 + g.r**2)
    gv, G = np.sin(np.pi * g.r / g.R), g.r * (g.R - g.r) / g.R**2
    assert sd.constraint_residual(g, a, gv, gv) == e2_energy(g, a, gv)
    assert sd.constraint_residual(g, a, gv, G) == pytest.approx(sd.constraint_residual(g, a, G, gv), rel=1e-14)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), kappa=st.floats(0.0, 3.0))
def test_densities_nonnegative(seed, kappa):
    g = blended_grid(8.0, 100, 0.6)
    rng = np.random.default_rng(seed)
    a, f = rng.uniform(-1.5, 1.5, g.N + 1), rng.uniform(-2.0, 2.0, g.N + 1)
    a[0] = 1.0
    f[0] = 0.0
    s = sd.FieldProfile(g, a, f, rng.uniform(-1.0, 1.0, g.N + 1))
    p = sd.ModelParams(OMEGA, 0.2, kappa)
    for terms in e1_terms(p, s) + _e2_terms(g, s.a, s.g, s.g):
        assert np.all(terms >= 0.0)
    assert e2_energy(g, s.a, s.g) >= 0.0


def test_e1_reflection_symmetry():
    g = blended_grid(8.0, 100, 0.6)
    a = 1.0 / (1.0 + g.r**2) + 0.05 * np.sin(g.r)
    f = 0.8 * (1.0 - np.exp(-g.r)) + 0.1 * np.sin(0.7 * g.r)
    q = np.zeros(g.N + 1)
    p = params()
    base = e1_terms(p, sd.FieldProfile(g, a, f, q))
    for flipped in (sd.FieldProfile(g, a, -f, q), sd.FieldProfile(g, -a, f, q)):
        for want, got in zip(base, e1_terms(p, flipped)):
            assert np.array_equal(want, got)


# -- action breakdown ---------------------------------------------------------------


def test_action_vacuum_zero():
    g = sd.build_grid(10.0, 100)
    act = sd.action_breakdown(params(), vacuum_profile(g))
    assert act.E1 == act.E2 == act.L == act.E == 0.0


def test_action_linear_g_closed_form():
    g = blended_grid(10.0, 1000, 0.0)
    p = params(q=0.25)
    s = sd.FieldProfile(g, np.ones(g.N + 1), np.zeros(g.N + 1), p.q * g.r / g.R)
    act = sd.action_breakdown(p, s)
    assert act.E1 == 0.0
    assert act.E2 == pytest.approx(p.q**2 * g.R, rel=1e-5)
    assert act.L == -act.E2 and act.E == act.E2


def test_action_rejects_non_finite():
    g = sd.build_grid(10.0, 100)
    s = with_value(vacuum_profile(g), "g", 20, np.inf)
    with pytest.raises(NumericError, match="node"):
        sd.action_breakdown(params(), s)


def test_action_diverges_for_wrong_origin_data():
    g = sd.build_grid(10.0, 100)
    s = with_value(vacuum_profile(g), "a", 0, 0.5)  # (a^2-1)^2/r^2 now diverges at the origin
    with pytest.raises(NumericError, match="node 0"):
        sd.action_breakdown(params(), s)


def test_action_matches_trapezoid_of_nodal_densities(solved_points):
    # fold each interval term onto its two nodes by the dual-cell average, then integrate by trapezoids
    for p, s, _ in solved_points.values():
        grid = s.grid

        def trapezoid_of_nodal_density(interval, nodal):
            density = nodal.copy()
            density[0] += interval[0]
            density[-1] += interval[-1]
            density[1:-1] += (grid.h[:-1] * interval[:-1] + grid.h[1:] * interval[1:]) / (2.0 * grid.w[1:-1])
            return float(np.sum(0.5 * (density[:-1] + density[1:]) * grid.h))

        E1 = trapezoid_of_nodal_density(*e1_terms(p, s))
        E2 = trapezoid_of_nodal_density(*_e2_terms(grid, s.a, s.g, s.g))
        act = sd.action_breakdown(p, s)
        for got, want in ((act.E1, E1), (act.E2, E2), (act.L, E1 - E2), (act.E, E1 + E2)):
            assert abs(got - want) <= 1e-14 * (1.0 + abs(want))


# -- residuals: trivial exact cases -------------------------------------------------


def test_residual_a_vacuum_and_zero_array():
    g = sd.build_grid(10.0, 100)
    p = params()
    s = vacuum_profile(g)
    assert np.all(sd.residuals(p, s)[0] == 0.0)
    s0 = sd.FieldProfile(g, np.zeros(g.N + 1), 0.3 * g.r, 0.1 * np.tanh(g.r))
    assert np.all(sd.residuals(p, s0)[0] == 0.0)


def test_residual_f_trivial_cases():
    g = sd.build_grid(10.0, 100)
    p = params()
    s = sd.FieldProfile(g, 1.0 / (1.0 + g.r**2), np.zeros(g.N + 1), 0.1 * g.r / g.R)
    assert np.all(sd.residuals(p, s)[1] == 0.0)
    s2 = sd.FieldProfile(g, np.zeros(g.N + 1), np.full(g.N + 1, math.pi / 2), np.zeros(g.N + 1))
    assert np.all(sd.residuals(p, s2)[1] == 0.0)


def test_residual_g_exact_linear_family():
    g = blended_grid(10.0, 150, 0.8)
    p = params()
    c = 0.031
    s = sd.FieldProfile(g, np.ones(g.N + 1), np.zeros(g.N + 1), c * g.r)
    assert np.max(np.abs(sd.residuals(p, s)[2])) <= 1e-13
    flat = sd.FieldProfile(g, np.zeros(g.N + 1), np.zeros(g.N + 1), np.full(g.N + 1, p.q))
    assert np.all(sd.residuals(p, flat)[2] == 0.0)


# -- residual oracle: independent symbolic differentiation --------------------------


def _symbolic_residuals(kappa_val):
    r = sp.symbols("r", positive=True)
    a = 1 / (1 + sp.Rational(7, 10) * r**2) + sp.Rational(1, 20) * sp.sin(sp.Rational(13, 10) * r) * sp.exp(-r / 2)
    f = sp.Rational(9, 10) * (1 - sp.exp(-sp.Rational(4, 5) * r)) + sp.Rational(1, 10) * r * sp.exp(-r)
    gg = sp.Rational(1, 4) * r / (1 + r) + sp.Rational(1, 50) * (1 - sp.cos(sp.Rational(9, 10) * r)) * sp.exp(-sp.Rational(3, 10) * r)
    k = sp.Rational(*kappa_val)
    res_a = sp.diff(a, r, 2) - (
        a * (a**2 - 1) / r**2
        + a * sp.sin(f) ** 2 / 4
        + k * a * sp.sin(f) ** 2 * sp.diff(f, r) ** 2
        + k * a**3 * sp.sin(f) ** 4 / r**2
        - a * gg**2 / 2
    )
    res_f = (
        8 * k * sp.diff(a**2 * sp.sin(f) ** 2 * sp.diff(f, r), r)
        + sp.diff(r**2 * sp.diff(f, r), r)
        - (
            2 * a**2 * sp.sin(f) * sp.cos(f)
            + 8 * k * a**2 * sp.sin(f) * sp.cos(f) * sp.diff(f, r) ** 2
            + 8 * k * a**4 * sp.sin(f) ** 3 * sp.cos(f) / r**2
        )
    )
    res_g = sp.diff(r**2 * sp.diff(gg, r), r) - 2 * a**2 * gg
    fns = [sp.lambdify(r, expr, "numpy") for expr in (a, f, gg, res_a, res_f, res_g)]
    return fns


@pytest.mark.parametrize("kappa_val", [(1, 1), (0, 1), (3, 2)])
def test_residuals_match_symbolic_oracle(kappa_val):
    a_fn, f_fn, g_fn, ra_fn, rf_fn, rg_fn = _symbolic_residuals(kappa_val)
    kappa = kappa_val[0] / kappa_val[1]
    p = sd.ModelParams(OMEGA, 0.25, kappa)
    errs = {}
    for N in (800, 1600):
        g = blended_grid(20.0, N, 0.9)
        s = sd.FieldProfile(g, a_fn(g.r), f_fn(g.r), g_fn(g.r))
        ra, rf, rg = sd.residuals(p, s)
        idx = np.random.default_rng(42).integers(5, g.N - 5, size=10)
        rj = g.r[idx]
        errs[N] = max(
            np.max(np.abs(ra[idx - 1] - ra_fn(rj))),
            np.max(np.abs(rf[idx - 1] - rf_fn(rj))),
            np.max(np.abs(rg[idx - 1] - rg_fn(rj))),
        )
    assert errs[1600] <= 5e-4
    assert errs[1600] <= errs[800] / 2.5  # second-order stencils


# -- residuals are exact gradients of the discrete action ---------------------------


def test_residual_gradient_consistency_complex_step():
    g = blended_grid(12.0, 150, 0.8)
    p = params(q=0.2)
    rng = np.random.default_rng(8)
    s = perturbed_guess(p, g, rng)
    ra, rf, rg = sd.residuals(p, s)
    w = g.w[1:-1]

    def L_h(a, f, gg):
        return discrete_action(p, sd.FieldProfile(g, a, f, gg))

    h = 1e-30
    for k in rng.choice(g.N - 1, 40, replace=False):
        ac = s.a.astype(complex)
        ac[1 + k] += 1j * h
        grad = L_h(ac, s.f.astype(complex), s.g.astype(complex)).imag / h
        assert grad == pytest.approx(-8.0 * w[k] * ra[k], rel=1e-11, abs=1e-11)
        fc = s.f.astype(complex)
        fc[1 + k] += 1j * h
        grad = L_h(s.a.astype(complex), fc, s.g.astype(complex)).imag / h
        assert grad == pytest.approx(-1.0 * w[k] * rf[k], rel=1e-11, abs=1e-11)
        gc = s.g.astype(complex)
        gc[1 + k] += 1j * h
        grad = L_h(s.a.astype(complex), s.f.astype(complex), gc).imag / h
        assert grad == pytest.approx(2.0 * w[k] * rg[k], rel=1e-11, abs=1e-11)


@pytest.mark.parametrize(
    "omega, q, kappa",
    [(OMEGA, 0.3, 1.0), (0.55 * math.pi, 0.05, 1.0), (OMEGA, 0.1, 0.0), (0.6 * math.pi, 0.0, 3.0)],
)
def test_precomputed_stencil_and_sin_f_give_bitwise_same_results(grid_small, rng, omega, q, kappa):
    p = params(q, kappa, omega)
    s = perturbed_guess(p, grid_small, rng, g_noise=0.0)
    # a profile forms its state once, whichever reader comes first, and every value is bitwise the same
    shared = sd.residuals(p, s)
    state = s._state
    action = sd.action_breakdown(p, s)
    assert s._state is state
    fresh = sd.FieldProfile(grid_small, s.a, s.f, s.g)
    assert sd.action_breakdown(p, fresh) == action
    assert all(u.tobytes() == v.tobytes() for u, v in zip(sd.residuals(p, fresh), shared))


def _per_term_residuals_and_action(p, s):
    """Residuals and (E1, E2) written term by term, each product formed where it is used.

    The package forms the difference quotients, a^2 sin^2 f, its interval
    means and the interval fluxes once per state and shares them; every
    value must still be bitwise this direct evaluation.  Returns the
    residuals, (E1, E2) and the record's fields by name.
    """
    grid, a, f, g = s.grid, s.a, s.f, s.g
    h, w, P = grid.h, grid.w[1:-1], grid.p_half
    k = p.kappa
    rj = grid.r[1:-1]
    inv_r2 = 1.0 / (rj * rj)
    sin_f, cos_f = np.sin(f), np.cos(f)
    da, df, dg = np.diff(a) / h, np.diff(f) / h, np.diff(g) / h
    qbar = (h[:-1] * df[:-1] * df[:-1] + h[1:] * df[1:] * df[1:]) / (2.0 * w)
    sin2 = sin_f**2
    c_nodal = a * a * sin2
    C = 0.5 * (c_nodal[:-1] + c_nodal[1:])
    aj, gj, sj, cj = a[1:-1], g[1:-1], sin_f[1:-1], cos_f[1:-1]
    s2 = sj * sj
    Dfm, Dfp = df[:-1], df[1:]
    res_a = (da[1:] - da[:-1]) / w - (
        aj * (aj * aj - 1.0) * inv_r2 + 0.25 * aj * s2 + k * aj * s2 * qbar + k * aj**3 * s2 * s2 * inv_r2 - 0.5 * aj * gj * gj
    )
    res_f = (
        8.0 * k * ((C[1:] * Dfp - C[:-1] * Dfm) / w)
        + (P[1:] * Dfp - P[:-1] * Dfm) / w
        - (2.0 * aj * aj * sj * cj + 8.0 * k * aj * aj * sj * cj * qbar + 8.0 * k * aj**4 * s2 * sj * cj * inv_r2)
    )
    res_g = (P[1:] * dg[1:] - P[:-1] * dg[:-1]) / w - 2.0 * aj * aj * gj
    interval = 4.0 * da * da + (0.5 * P + 4.0 * k * C) * df * df
    E1 = float(np.dot(interval, h) + np.dot(_nodal_e1(p, s, c_nodal), grid.w))
    E2 = float(np.dot(P * dg * dg, h) + np.dot(2.0 * a * a * g * g, grid.w))
    fields = dict(sin=sin_f, cos=cos_f, sin2=sin2, da=da, df=df, dg=dg, mass=c_nodal, c_half=C, qbar=qbar, a3=aj**3, a4=aj**4)
    return (res_a, res_f, res_g), (E1, E2), fields


@pytest.mark.parametrize(
    "omega, q, kappa",
    [(OMEGA, 0.3, 1.0), (0.55 * math.pi, 0.05, 1.0), (OMEGA, 0.1, 0.0), (0.6 * math.pi, 0.0, 3.0)],
)
@pytest.mark.parametrize("R, N", [(30.0, 300), (60.0, 2000)])
def test_shared_products_are_bitwise_the_per_term_formulas(rng, omega, q, kappa, R, N):
    grid = sd.build_grid(R, N)
    p = params(q, kappa, omega)
    guess = sd.initial_guess(p, grid)
    a, f, g = guess.a.copy(), guess.f.copy(), guess.g.copy()
    for field in (a, f, g):
        field[1:-1] *= 1.0 + 0.05 * rng.standard_normal(N - 1)
    s = sd.FieldProfile(grid, a, f, g)
    residuals, (E1, E2), fields = _per_term_residuals_and_action(p, s)
    assert all(u.tobytes() == v.tobytes() for u, v in zip(sd.residuals(p, s), residuals))
    action = sd.action_breakdown(p, s)
    assert (action.E1, action.E2) == (E1, E2)
    state = s._state
    assert set(state._fields) == set(fields)
    for name, value in fields.items():
        assert getattr(state, name).tobytes() == value.tobytes(), name
