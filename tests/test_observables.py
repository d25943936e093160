import dataclasses
import importlib
import math

import numpy as np
import pytest

import skyrme_dyon as sd
from conftest import ACCEPT_POINTS, blended_grid
from skyrme_dyon.errors import DecayWindowError, ParameterError, RegionError
from skyrme_dyon.observables import electric_charge, fit_decay_rate, skyrme_charge_numeric, tail_constants

observables_module = importlib.import_module("skyrme_dyon.observables")

OMEGA = 0.75 * math.pi


def test_skyrme_charge_closed_reference_values():
    assert sd.skyrme_charge_closed(0.0) == pytest.approx(1.0, abs=1e-15)
    assert sd.skyrme_charge_closed(math.pi / 2) == pytest.approx(0.5, abs=1e-15)
    assert sd.skyrme_charge_closed(math.pi) == pytest.approx(0.0, abs=1e-15)
    assert sd.skyrme_charge_closed(OMEGA) == pytest.approx(0.25 - 1.0 / (2.0 * math.pi), abs=1e-14)


def test_skyrme_charge_closed_strictly_decreasing():
    om = np.linspace(0.0, math.pi, 200)
    vals = [sd.skyrme_charge_closed(w) for w in om]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    with pytest.raises(ParameterError):
        sd.skyrme_charge_closed(-0.1)
    with pytest.raises(ParameterError):
        sd.skyrme_charge_closed(3.3)


def test_skyrme_charge_numeric_zero_for_constant_f():
    g = sd.build_grid(20.0, 200)
    s = sd.FieldProfile(g, np.ones(g.N + 1), np.zeros(g.N + 1), np.zeros(g.N + 1))
    assert skyrme_charge_numeric(s) == 0.0


@pytest.mark.parametrize("shape", ["exp", "rational"])
def test_skyrme_charge_ramp_independent_of_shape(shape):
    # any monotone ramp from 0 to pi - omega gives 1 - omega/pi + sin(2 omega)/(2 pi)
    g = sd.build_grid(40.0, 2000)
    f_inf = math.pi - OMEGA
    if shape == "exp":
        f = f_inf * (1.0 - np.exp(-1.3 * g.r))
    else:
        f = f_inf * g.r / (g.r + 0.7)
    f[-1] = f_inf
    s = sd.FieldProfile(g, np.ones(g.N + 1), f, np.zeros(g.N + 1))
    want = 1.0 - OMEGA / math.pi + math.sin(2.0 * OMEGA) / (2.0 * math.pi)
    assert skyrme_charge_numeric(s) == pytest.approx(want, abs=5e-8)


def test_electric_charge_examples():
    g = blended_grid(10.0, 500, 0.0)
    zero = sd.FieldProfile(g, np.ones(g.N + 1), np.zeros(g.N + 1), np.zeros(g.N + 1))
    assert electric_charge(zero) == 0.0
    q = 0.2
    lin = sd.FieldProfile(g, np.ones(g.N + 1), np.zeros(g.N + 1), q * g.r / g.R)
    assert electric_charge(lin) == pytest.approx(q * g.R, rel=1e-13)


def test_gamma_theory_values_and_region():
    p0 = sd.validate_params(OMEGA, 0.0, 1.0)
    assert sd.gamma_theory(p0) == pytest.approx(math.sqrt(2.0) / 4.0, abs=1e-15)
    p3 = sd.validate_params(OMEGA, 0.3, 1.0)
    assert sd.gamma_theory(p3) == pytest.approx(0.5 * math.sqrt(0.32), abs=1e-15)
    bad = sd.ModelParams(OMEGA, 0.6, 1.0)  # bypasses region validation
    with pytest.raises(RegionError):
        sd.gamma_theory(bad)


def _flat_background(grid, f_val=0.6, g_val=0.2):
    return np.full(grid.N + 1, f_val), np.full(grid.N + 1, g_val)


# the synthetic profiles have a flat f, so qbar = 0 and kappa does not enter the fit
P_FLAT = sd.validate_params(OMEGA, 0.0, 1.0)


def test_fit_decay_rate_exact_exponential():
    g = blended_grid(60.0, 1000, 0.0)
    f, gg = _flat_background(g)
    s = sd.FieldProfile(g, np.exp(-0.3 * g.r), f, gg)
    gamma, window = fit_decay_rate(P_FLAT, s)
    assert abs(gamma - 0.3) <= 1e-6
    assert window[0] < window[1]


def test_fit_decay_rate_subexponential_prefactor():
    g = blended_grid(60.0, 1000, 0.0)
    f, gg = _flat_background(g)
    a = (1.0 + g.r) * np.exp(-0.3 * g.r)
    a /= a.max()
    s = sd.FieldProfile(g, a, f, gg)
    gamma, _ = fit_decay_rate(P_FLAT, s)
    assert abs(gamma - 0.3) / 0.3 <= 0.02


def test_fit_decay_rate_truncated_two_mode():
    # hard outer Dirichlet data: a = B (exp(-gamma r) - exp(-gamma (2R - r)))
    g = blended_grid(60.0, 1500, 0.5)
    f, gg = _flat_background(g)
    gamma0 = 0.22
    a = np.exp(-gamma0 * g.r) - np.exp(-gamma0 * (2.0 * g.R - g.r))
    s = sd.FieldProfile(g, a, f, gg)
    gamma, _ = fit_decay_rate(P_FLAT, s)
    assert abs(gamma - gamma0) <= 1e-6


def _two_mode_rates_90_rounds(h, u, idx):
    # the bisection that _local_two_mode_rates replaced, run for all 90 rounds
    hm, hp = h[idx - 1], h[idx]
    um, uj, up = u[idx - 1], u[idx], u[idx + 1]

    def fval(lam):
        return um * np.sinh(lam * hp) + up * np.sinh(lam * hm) - uj * np.sinh(lam * (hm + hp))

    lo = np.full(idx.shape, 1e-9)
    hi = np.full(idx.shape, 10.0)
    ok = (fval(lo) > 0.0) & (fval(hi) < 0.0)
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        take_hi = fval(mid) <= 0.0
        hi = np.where(take_hi, mid, hi)
        lo = np.where(take_hi, lo, mid)
    return np.where(ok, 0.5 * (lo + hi), np.nan)


def _rates_matching_90_round_bisection(grid, u, idx):
    # the rates, after checking them against the bisection: same NaN set, 1e-10 relative
    lam = observables_module._local_two_mode_rates(grid.h, u, idx)
    ref = _two_mode_rates_90_rounds(grid.h, u, idx)
    assert np.array_equal(np.isnan(lam), np.isnan(ref))
    good = np.isfinite(ref)
    assert good.any()
    assert np.max(np.abs(lam[good] - ref[good]) / ref[good]) <= 1e-10
    return lam


def test_two_mode_rates_match_the_90_round_bisection_on_the_truncated_family():
    g = blended_grid(60.0, 1500, 0.5)
    a = np.exp(-0.22 * g.r) - np.exp(-0.22 * (2.0 * g.R - g.r))
    lam = _rates_matching_90_round_bisection(g, a, np.arange(1, g.N))
    assert np.isfinite(lam).sum() > 1000


@pytest.fixture(scope="module")
def solved_fine():
    """The acceptance points at N = 8000, solved to 1e-8 as the fine-mesh CI step does."""
    grid = sd.build_grid(60.0, 8000)
    out = []
    for omega, q, kappa in ACCEPT_POINTS:
        p = sd.validate_params(omega, q, kappa)
        s, rep = sd.continuation_solve(p, grid, sd.SolveConfig(tol_residual=1e-8))
        assert rep.converged, rep.message
        out.append(s)
    return out


@pytest.mark.parametrize("nodes", [2000, 8000])
def test_two_mode_rates_match_the_90_round_bisection_on_solved_profiles(nodes, solved_points, solved_fine):
    profiles = [s for _, s, _ in solved_points.values()] if nodes == 2000 else solved_fine
    for s in profiles:
        assert s.grid.N == nodes
        idx = observables_module._fit_window_nodes(s.a, observables_module.FIT_WINDOW_LO, observables_module.FIT_WINDOW_HI)
        assert idx.size >= observables_module.MIN_FIT_NODES
        _rates_matching_90_round_bisection(s.grid, s.a, idx)


@pytest.mark.parametrize(
    "u_out, u_mid",
    [
        (1.0, 0.001),  # c1 > 0 and c3 > 0: no real seed, and Newton from the midpoint 5 leaves the bracket
        (1.0, 0.26),  # the Taylor seed is about 10.5, outside the bracket (1e-9, 10]
    ],
)
def test_two_mode_rate_safeguard_when_the_seed_is_unusable(u_out, u_mid):
    # a uniform triple has the closed form cosh(lambda h) = (u_m + u_p) / (2 u_j)
    grid = sd.RadialGrid(np.array([0.0, 1.0, 2.0]))
    u = np.array([u_out, u_mid, u_out])
    h = grid.h
    c1 = u[0] * h[1] + u[2] * h[0] - u[1] * (h[0] + h[1])
    c3 = u[0] * h[1] ** 3 + u[2] * h[0] ** 3 - u[1] * (h[0] + h[1]) ** 3
    seed_sq = -6.0 * c1 / c3
    assert seed_sq < 0.0 or seed_sq > 10.0**2
    lam = _rates_matching_90_round_bisection(grid, u, np.array([1]))
    assert lam[0] == pytest.approx(math.acosh(u_out / u_mid), rel=1e-14)


def test_fit_decay_rate_window_error_for_small_domain():
    g = blended_grid(5.0, 100, 0.0)
    f, gg = _flat_background(g)
    s = sd.FieldProfile(g, np.exp(-0.3 * g.r), f, gg)
    with pytest.raises(DecayWindowError, match="radius"):
        fit_decay_rate(P_FLAT, s)


def test_fit_decay_rate_window_error_when_no_node_decays_exponentially():
    # a concave a lies in the window, but no concave triple is a combination of exp(-lr) and exp(lr)
    g = blended_grid(60.0, 1000, 0.0)
    f, gg = _flat_background(g)
    a = 1e-3 * (2.0 - (g.r / g.R) ** 2)
    a[0], a[-1] = 1.0, 0.0
    with pytest.raises(DecayWindowError, match="^too few locally exponential nodes in the decay-fit window"):
        fit_decay_rate(P_FLAT, sd.FieldProfile(g, a, f, gg))


def test_tail_constants_exact_on_truncated_tail_family():
    g = sd.build_grid(60.0, 800)
    p = sd.validate_params(OMEGA, 0.25, 1.0)
    c_g, c_f = 0.7, 2.3
    shape = 1.0 / g.r[1:] - 1.0 / g.R
    gg = np.empty(g.N + 1)
    gg[1:] = p.q - c_g * shape
    gg[0] = 0.0
    f = np.empty(g.N + 1)
    f[1:] = p.f_infinity - c_f * shape
    f[0] = 0.0
    a = np.zeros(g.N + 1)  # no source: the f-correction vanishes identically
    a[0] = 1.0
    s = sd.FieldProfile(g, a, f, gg)
    tails = tail_constants(p, s)
    assert tails.cg == pytest.approx(c_g, rel=1e-12)
    assert tails.cf == pytest.approx(c_f, rel=1e-12)
    assert tails.cg_variation <= 1e-10
    assert tails.cf_variation <= 1e-10


def _f_source_double_integral_everywhere(s, p):
    """The f-source double integral at every node, from one pass over the whole mesh."""
    grid = s.grid
    a, f = s.a, s.f
    sf, cf_ = np.sin(f), np.cos(f)
    source = 2.0 * a * a * sf * cf_
    if p.kappa != 0.0:
        quart = np.zeros(grid.N + 1)
        quart[1:] = a[1:] ** 4 * sf[1:] ** 3 * cf_[1:] / grid.r[1:] ** 2
        df = np.diff(f) / grid.h
        fp2 = np.zeros(grid.N + 1)
        fp2[1:-1] = (grid.h[:-1] * df[:-1] * df[:-1] + grid.h[1:] * df[1:] * df[1:]) / (2.0 * grid.w[1:-1])
        source = source + 8.0 * p.kappa * (a * a * sf * cf_ * fp2 + quart)
    cell = source * grid.w
    T_half = np.cumsum(cell[1:][::-1])[::-1]
    seg = np.zeros(grid.N)
    seg[1:] = T_half[1:] * (1.0 / grid.r[1:-1] - 1.0 / grid.r[2:])
    out = np.zeros(grid.N + 1)
    out[:-1] = np.cumsum(seg[::-1])[::-1]
    return out


def test_tail_integral_on_the_window_is_bitwise_the_pass_over_every_node(monkeypatch, solved_points, solved_kappa0, monopole_small):
    for p, s, _ in [*solved_points.values(), solved_kappa0, monopole_small]:
        tails = tail_constants(p, s)
        first = int(np.searchsorted(s.grid.r, tails.window[0]))
        assert s.grid.r[first] == tails.window[0] and s.grid.r[first - 1] < s.grid.R / 10.0
        everywhere = _f_source_double_integral_everywhere(s, p)
        assert np.array_equal(observables_module._f_source_double_integral(p, s, first), everywhere[first:-1])
        with monkeypatch.context() as m:
            m.setattr(observables_module, "_f_source_double_integral", lambda p, s, first: _f_source_double_integral_everywhere(s, p)[first:-1])
            assert tail_constants(p, s) == tails


def test_tail_constants_monopole_limit_is_zero(monopole_small):
    p, s, _ = monopole_small
    tails = tail_constants(p, s)
    assert tails.cg == 0.0
    assert tails.cg_variation == 0.0


def test_tail_constant_matches_electric_charge(solved_points):
    for (omega, q, kappa), (p, s, _) in solved_points.items():
        tails = tail_constants(p, s)
        qe = electric_charge(s)
        assert abs(tails.cg - qe) <= 0.02 * abs(qe)


def test_observable_report_assembly(solved_points):
    (p, s, _) = solved_points[(OMEGA, 0.30, 1.0)]
    obs = sd.observables(p, s)
    assert obs.Qm == 1.0
    assert obs.QS_closed == pytest.approx(sd.skyrme_charge_closed(p.omega), abs=0.0)
    assert obs.gamma_theory > 0.0
    text = obs.as_text()
    assert "Qe" in text and "gamma_fit" in text
    # regression record for this production point (oracle: flow route + refinement study)
    assert obs.Qe == pytest.approx(0.9352007881556, rel=1e-6)
    assert obs.QS_numeric == pytest.approx(0.0908450493297, rel=1e-6)


def test_observables_text_is_a_line_per_field_in_field_order(solved_points):
    # a report without a note, and one whose decay fit and tail window fail
    p, s, _ = solved_points[(OMEGA, 0.30, 1.0)]
    q = sd.validate_params(OMEGA, 0.1, 1.0)
    tail_less = sd.RadialGrid(np.concatenate([np.linspace(0.0, 2.9, 100), [30.0]]))
    for obs in (sd.observables(p, s), sd.observables(q, sd.initial_guess(q, tail_less), strict=False)):
        lines = [line.split(" ", 1) for line in obs.as_text().splitlines()]
        names = [f.name for f in dataclasses.fields(obs)]
        assert [name for name, _ in lines] == (names if obs.note else names[:-1])
        for name, text in lines:
            if name == "note":
                assert text == obs.note
            else:
                np.testing.assert_array_equal([float(t) for t in text.split()], np.atleast_1d(getattr(obs, name)))
    assert obs.note and math.isnan(obs.gamma_fit) and math.isnan(obs.tail_window[0])


def test_observables_of_a_state_are_those_of_its_profile(solved_points, grid60):
    # a solved profile holds the state of Newton's last iterate; the report must be the one a freshly evaluated profile gives
    p10 = sd.validate_params(0.52 * math.pi, 0.0, 10.0)  # the golden case solve --omega 0.52pi --kappa 10
    s10, rep = sd.continuation_solve(p10, grid60)
    assert rep.converged, rep.message
    for p, s in [*((p, s) for p, s, _ in solved_points.values()), (p10, s10)]:
        assert sd.observables(p, s).as_text() == sd.observables(p, sd.FieldProfile(s.grid, s.a, s.f, s.g)).as_text()


def test_converged_action_split_regression(solved_points):
    # regression record for the production point; cross-checked by the flow
    # route (oracle equivalence) and the refinement study
    _, _, rep = solved_points[(OMEGA, 0.30, 1.0)]
    act = rep.action
    assert np.isfinite(act.E) and np.isfinite(act.L)
    assert act.E1 > act.E2 > 0.0
    assert act.E == pytest.approx(1.8631422074, rel=1e-6)
    assert act.L == pytest.approx(1.3020217345, rel=1e-6)


def test_observables_nonstrict_on_small_domain():
    g = sd.build_grid(5.0, 100)
    p = sd.validate_params(OMEGA, 0.1, 1.0)
    s, rep = sd.continuation_solve(p, g)
    obs = sd.observables(p, s, strict=False)
    assert math.isnan(obs.gamma_fit)
    assert obs.note != ""
    with pytest.raises(DecayWindowError):
        sd.observables(p, s, strict=True)


def test_empty_tail_window_is_a_window_error():
    # 100 nodes on [0, 2.9] and one at R = 30: no interior node in [R/10, R)
    g = sd.RadialGrid(np.concatenate([np.linspace(0.0, 2.9, 100), [30.0]]))
    p = sd.validate_params(OMEGA, 0.1, 1.0)
    s = sd.initial_guess(p, g)
    with pytest.raises(DecayWindowError, match="tail window"):
        tail_constants(p, s)
    with pytest.raises(DecayWindowError, match="decay-fit window"):  # the first failure in step order
        sd.observables(p, s, strict=True)
    obs = sd.observables(p, s, strict=False)
    assert all(math.isnan(v) for v in (obs.cg_tail, obs.cf_tail, obs.cg_variation, obs.cf_variation, *obs.tail_window))
    assert "tail window" in obs.note and "decay-fit window" in obs.note
