import math

import numpy as np
import pytest

import skyrme_dyon as sd
from skyrme_dyon.cli import main
from skyrme_dyon.errors import ParameterError
from skyrme_dyon.io import write_profile_csv

OMEGA = 0.75 * math.pi


def test_suite_passes_on_converged_dyon(solved_points):
    for key, (p, s, _) in solved_points.items():
        report = sd.run_suite(p, s)
        failed = [c.check_id for c in report.checks if not c.passed]
        assert report.overall, f"{key}: failed {failed}"


def test_suite_passes_in_sigma_model_limit(solved_kappa0):
    p, s, _ = solved_kappa0
    report = sd.run_suite(p, s)
    assert report.overall, [c.check_id for c in report.checks if not c.passed]
    assert not any(c.check_id == "small-r-skyrme-bound" for c in report.checks)


@pytest.mark.parametrize("q", [0.35, 0.63])
def test_suite_passes_at_large_kappa(grid60, q):
    # the decay fit subtracts the kappa sin^2 f f'^2 part of the a-potential;
    # without it decay-rate misses by 0.30 and 0.57 at these points
    p = sd.validate_params(0.505 * math.pi, q, 100.0)
    s, rep = sd.continuation_solve(p, grid60)
    assert rep.converged, rep.message
    report = sd.run_suite(p, s)
    assert report.overall, [c.check_id for c in report.checks if not c.passed]


def test_suite_on_initial_guess_fails_residuals_passes_bounds(grid_small):
    p = sd.validate_params(OMEGA, 0.2, 1.0)
    report = sd.run_suite(p, sd.initial_guess(p, grid_small))
    assert not report["residual-g"].passed
    assert report["bound-a-positive"].passed
    assert report["bound-f-interval"].passed
    assert report["bound-g-interval"].passed
    assert not report.overall


def test_suite_reports_zero_electric_charge_without_raising(grid_small, tmp_path):
    # with a = 0 away from the origin Q_e = 2 int a^2 g vanishes although q > 0
    p = sd.validate_params(OMEGA, 0.2, 1.0)
    s = sd.initial_guess(p, grid_small)
    s.a[1:] = 0.0
    assert sd.electric_charge(s) == 0.0
    check = sd.run_suite(p, s)["tail-electric-charge"]
    assert not check.passed and not np.isfinite(check.measured)
    path = tmp_path / "profile.csv"
    write_profile_csv(path, p, s)
    assert main(["verify", str(path)]) == 3


@pytest.mark.parametrize("node, value", [(0, 0.1), (150, float("nan"))])
def test_suite_reports_non_finite_action_without_raising(grid_small, tmp_path, node, value):
    # f(0) != 0 makes the origin term of e1 infinite, a NaN node makes it NaN
    p = sd.validate_params(OMEGA, 0.1, 1.0)
    s = sd.initial_guess(p, grid_small)
    s.f[node] = value
    report = sd.run_suite(p, s)
    for check_id in ("energy-finite", "coercive-bound", "small-r-skyrme-bound"):
        assert not report[check_id].passed and np.isnan(report[check_id].measured), check_id
    path = tmp_path / "profile.csv"
    write_profile_csv(path, p, s)
    assert main(["verify", str(path)]) == 3


CORRUPTIONS = [("a", 0, 0.5), ("a", 150, math.nan), ("g", 150, math.nan)] + [
    (field, node, value) for field in "afg" for node in (0, 150, 300) for value in (math.inf, -math.inf)
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("field, node, value", CORRUPTIONS)
def test_suite_reports_corrupted_profile_without_raising(grid_small, tmp_path, field, node, value):
    # a[0] != 1 or a non-finite a has no inner g minimizer, and a non-finite a or g no electric charge;
    # an inf in any field fails rows without a numpy warning
    p = sd.validate_params(OMEGA, 0.1, 1.0)
    s, rep = sd.newton_solve(p, grid_small, sd.initial_guess(p, grid_small))
    assert rep.converged and sd.run_suite(p, s).overall
    getattr(s, field)[node] = value
    report = sd.run_suite(p, s)
    assert not report.overall
    if field == "a":
        assert np.isnan(report["constraint-orthogonality"].measured)
    if value == 0.5:
        assert not report["boundary-values"].passed and report["boundary-values"].measured == 0.5
    elif node != 150:
        assert not report["boundary-values"].passed and report["boundary-values"].measured == math.inf
    if field != "f" and value != 0.5:
        assert np.isnan(report.observables.Qe)
    path = tmp_path / "profile.csv"
    write_profile_csv(path, p, s)
    assert main(["verify", str(path)]) == 3


def _perturb(p, s, field, kind, node):
    arr = getattr(s, field)
    if kind == "negate":
        arr[node] = -arr[node]
    elif kind == "repeat":  # a non-strict pair (node, node + 1)
        arr[node + 1] = arr[node]
    else:
        arr[node] = p.f_infinity + 0.1


@pytest.mark.parametrize(
    "field, kind, check_id",
    [
        ("a", "negate", "bound-a-positive"),
        ("a", "repeat", "monotone-a-decreasing"),
        ("f", "above", "bound-f-interval"),
        ("f", "repeat", "monotone-f-increasing"),
        ("g", "negate", "bound-g-interval"),
        ("g", "repeat", "monotone-g-increasing"),
    ],
)
def test_property_table_and_suite_agree(solved_points, field, kind, check_id):
    p, s, _ = solved_points[(OMEGA, 0.30, 1.0)]
    assert sd.solution_properties_ok(p, s) == (True, "")
    bad = s.copy()
    node = 731
    _perturb(p, bad, field, kind, node)
    ok, msg = sd.solution_properties_ok(p, bad)
    assert not ok
    assert msg == f"{check_id} fails at node {node}"
    check = sd.run_suite(p, bad)[check_id]
    assert not check.passed and check.node == node


def test_property_table_flags_monopole_g(monopole_small):
    p, s, _ = monopole_small
    bad = s.copy()
    bad.g[40] = 1e-3
    assert sd.solution_properties_ok(p, bad) == (False, "bound-g-monopole fails at node 40")
    check = sd.run_suite(p, bad)["bound-g-monopole"]
    assert not check.passed and check.node == 40


def test_suite_flags_injected_fault_with_node(solved_points):
    p, s, _ = solved_points[(OMEGA, 0.30, 1.0)]
    bad = s.copy()
    node = 731
    bad.g[node] = -bad.g[node]
    report = sd.run_suite(p, bad)
    assert not report["bound-g-interval"].passed
    assert report["bound-g-interval"].node == node
    assert not report["monotone-g-increasing"].passed
    assert report["monotone-g-increasing"].node in (node - 1, node)
    assert not report.overall


def test_suite_monopole_checks_g_identically_zero(monopole_small):
    p, s, _ = monopole_small
    report = sd.run_suite(p, s)
    assert report["bound-g-monopole"].passed
    assert report.overall, [c.check_id for c in report.checks if not c.passed]


def test_report_format_and_determinism(solved_points):
    p, s, _ = solved_points[(OMEGA, 0.30, 1.0)]
    r1 = sd.run_suite(p, s).format()
    r2 = sd.run_suite(p, s).format()
    assert r1 == r2
    lines = r1.strip().splitlines()
    assert lines[-1] == "overall PASS"
    for line in lines[:-1]:
        parts = line.split()
        assert len(parts) == 5
        assert parts[1] in ("PASS", "FAIL")
        float(parts[2])
        float(parts[3])


def test_every_check_has_one_anchor(solved_points):
    p, s, _ = solved_points[(OMEGA, 0.30, 1.0)]
    report = sd.run_suite(p, s)
    ids = [c.check_id for c in report.checks]
    assert len(ids) == len(set(ids))
    assert all(c.anchor for c in report.checks)


def _virial_defect(p, s):
    """Stationarity under radial rescaling r -> lambda r of the action implies

        integral(r^2 f'^2/2 + a^2 sin^2 f) - integral(4 a'^2 + 2(a^2-1)^2/r^2
        + 4 kappa a^2 sin^2 f f'^2 + 2 kappa a^4 sin^4 f / r^2) = E2

    up to O(1/R) truncation corrections.  Completely independent of the
    solver construction, so it cross-checks the whole discretization.
    """
    g = s.grid
    a, f, gg = s.a, s.f, s.g
    da = np.diff(a) / g.h
    df = np.diff(f) / g.h
    dg = np.diff(gg) / g.h
    sin2 = np.sin(f) ** 2
    c_half = 0.5 * (a[:-1] ** 2 * sin2[:-1] + a[1:] ** 2 * sin2[1:])
    shrinking = np.dot(4.0 * da * da + 4.0 * p.kappa * c_half * df * df, g.h)
    core = np.zeros(g.N + 1)
    core[1:] = (a[1:] ** 2 - 1.0) ** 2 / g.r[1:] ** 2
    sky = np.zeros(g.N + 1)
    if p.kappa:
        sky[1:] = (a[1:] ** 2 * sin2[1:]) ** 2 / g.r[1:] ** 2
    shrinking += g.integrate(2.0 * core + 2.0 * p.kappa * sky)
    growing = np.dot(0.5 * g.p_half * df * df, g.h) + g.integrate(a * a * sin2)
    e2 = np.dot(g.p_half * dg * dg, g.h) + g.integrate(2.0 * a * a * gg * gg)
    return growing - shrinking - e2, growing + shrinking + e2


def test_scaling_identity_cross_check(solved_points, solved_kappa0):
    runs = list(solved_points.values()) + [solved_kappa0]
    for p, s, _ in runs:
        defect, scale = _virial_defect(p, s)
        assert abs(defect) <= 5e-3 * scale
    # the residual defect is domain truncation: it shrinks when R grows
    p = sd.validate_params(OMEGA, 0.3, 1.0)
    s90, rep90 = sd.continuation_solve(p, sd.build_grid(90.0, 2000))
    assert rep90.converged
    d60 = abs(_virial_defect(p, solved_points[(OMEGA, 0.30, 1.0)][1])[0])
    d90 = abs(_virial_defect(p, s90)[0])
    assert d90 < d60


def test_refinement_study_requires_two_levels(grid_small):
    p = sd.validate_params(OMEGA, 0.1, 1.0)
    with pytest.raises(ParameterError, match="levels"):
        sd.refinement_study(p, grid_small, levels=1)


def test_refinement_study_small_case():
    p = sd.validate_params(OMEGA, 0.2, 1.0)
    base = sd.build_grid(40.0, 250)
    rep = sd.refinement_study(p, base, levels=2)
    assert rep.complete
    assert rep.Ns == [250, 500]
    assert np.isfinite(rep.dQe_rel_finest)
    assert math.isnan(rep.order_E)  # needs three levels
    text = rep.format()
    assert "order_E" in text and "complete yes" in text
