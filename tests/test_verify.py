import importlib
import math
from collections import Counter

import numpy as np
import pytest

import skyrme_dyon as sd
from conftest import ACCEPT_POINTS, count_state_evaluations, with_value
from skyrme_dyon.cli import main
from skyrme_dyon.errors import DecayWindowError, NumericError, ParameterError
from skyrme_dyon.io import read_profile_csv, write_profile_csv
from skyrme_dyon.model import e2_energy
from skyrme_dyon.observables import electric_charge
from skyrme_dyon.verify import N_TEST_FUNCTIONS, seeded_test_functions

OMEGA = 0.75 * math.pi

model_module = importlib.import_module("skyrme_dyon.model")
verify_module = importlib.import_module("skyrme_dyon.verify")
observables_module = importlib.import_module("skyrme_dyon.observables")

# The 2- and 3-interval profiles of the CI step "Verify runs the smallest electric systems".
TINY_HEADER = "# omega=2.356194490192345\n# q=0.1\n# kappa=1\n"
TINY_PROFILES = {
    2: TINY_HEADER + "# R=2\n# N=2\n# grading=none\nr,a,f,g\n0,1,0,0\n1,0.5,0.4,0.05\n2,0,0.78539816339744828,0.1\n",
    3: TINY_HEADER
    + "# R=3\n# N=3\n# grading=none\nr,a,f,g\n0,1,0,0\n1,0.6,0.3,0.03\n2,0.3,0.6,0.07\n3,0,0.78539816339744828,0.1\n",
}
# The CI step's profile whose half-node products r_i*r_(i+1) underflow to 0: with a = 0 inside, its electric system is singular.
UNDERFLOW_PROFILE = TINY_HEADER + "# R=3e-200\n# N=3\nr,a,f,g\n0,1,0,0\n1e-200,0,0.3,0.03\n2e-200,0,0.6,0.07\n3e-200,0,0.78539816339744828,0.1\n"


def row_of(report, check_id):
    return next(c for c in report.checks if c.check_id == check_id)


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
    assert not row_of(report, "residual-g").passed
    assert row_of(report, "bound-a-positive").passed
    assert row_of(report, "bound-f-interval").passed
    assert row_of(report, "bound-g-interval").passed
    assert not report.overall


def test_suite_reports_zero_electric_charge_without_raising(grid_small, tmp_path):
    # with a = 0 away from the origin Q_e = 2 int a^2 g vanishes although q > 0
    p = sd.validate_params(OMEGA, 0.2, 1.0)
    s = with_value(sd.initial_guess(p, grid_small), "a", slice(1, None), 0.0)
    assert electric_charge(s) == 0.0
    check = row_of(sd.run_suite(p, s), "tail-electric-charge")
    assert not check.passed and not np.isfinite(check.measured)
    path = tmp_path / "profile.csv"
    write_profile_csv(path, p, s)
    assert main(["verify", str(path)]) == 3


@pytest.mark.parametrize("node, value", [(0, 0.1), (150, float("nan"))])
def test_suite_reports_non_finite_action_without_raising(grid_small, tmp_path, node, value):
    # f(0) != 0 makes the origin term of e1 infinite, a NaN node makes it NaN
    p = sd.validate_params(OMEGA, 0.1, 1.0)
    s = with_value(sd.initial_guess(p, grid_small), "f", node, value)
    report = sd.run_suite(p, s)
    for check_id in ("energy-finite", "coercive-bound", "small-r-skyrme-bound"):
        assert not row_of(report, check_id).passed and np.isnan(row_of(report, check_id).measured), check_id
    path = tmp_path / "profile.csv"
    write_profile_csv(path, p, s)
    assert main(["verify", str(path)]) == 3


@pytest.mark.filterwarnings("error")
def test_suite_fails_the_constraint_row_when_a_test_functions_energy_overflows(tmp_path):
    # a finite a so large that E2(a, G) of a test function overflows while the inner solve still succeeds:
    # the constraint row fails with NaN, and verify exits 3, not 1 with an error line
    grid = sd.build_grid(30.0, 100)
    p = sd.validate_params(OMEGA, 0.3, 1.0)
    s = with_value(sd.initial_guess(p, grid), "a", slice(1, -1), 6e153)
    row = row_of(sd.run_suite(p, s), "constraint-orthogonality")
    assert not row.passed and np.isnan(row.measured)
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
    s = with_value(s, field, node, value)
    report = sd.run_suite(p, s)
    assert not report.overall
    if field == "a":
        assert np.isnan(row_of(report, "constraint-orthogonality").measured)
    if value == 0.5:
        assert not row_of(report, "boundary-values").passed and row_of(report, "boundary-values").measured == 0.5
    elif node != 150:
        assert not row_of(report, "boundary-values").passed and row_of(report, "boundary-values").measured == math.inf
    if field != "f" and value != 0.5:
        assert np.isnan(report.observables.Qe)
    path = tmp_path / "profile.csv"
    write_profile_csv(path, p, s)
    assert main(["verify", str(path)]) == 3


def _perturb(p, s, field, kind, node):
    arr = getattr(s, field)
    if kind == "negate":
        return with_value(s, field, node, -arr[node])
    if kind == "repeat":  # a non-strict pair (node, node + 1)
        return with_value(s, field, node + 1, arr[node])
    return with_value(s, field, node, p.f_infinity + 0.1)


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
    node = 731
    bad = _perturb(p, s, field, kind, node)
    ok, msg = sd.solution_properties_ok(p, bad)
    assert not ok
    assert msg == f"{check_id} fails at node {node}"
    check = row_of(sd.run_suite(p, bad), check_id)
    assert not check.passed and check.node == node


def test_property_table_flags_monopole_g(monopole_small):
    p, s, _ = monopole_small
    bad = with_value(s, "g", 40, 1e-3)
    assert sd.solution_properties_ok(p, bad) == (False, "bound-g-monopole fails at node 40")
    check = row_of(sd.run_suite(p, bad), "bound-g-monopole")
    assert not check.passed and check.node == 40


def test_suite_flags_injected_fault_with_node(solved_points):
    p, s, _ = solved_points[(OMEGA, 0.30, 1.0)]
    node = 731
    bad = with_value(s, "g", node, -s.g[node])
    report = sd.run_suite(p, bad)
    assert not row_of(report, "bound-g-interval").passed
    assert row_of(report, "bound-g-interval").node == node
    assert not row_of(report, "monotone-g-increasing").passed
    assert row_of(report, "monotone-g-increasing").node in (node - 1, node)
    assert not report.overall


def test_suite_monopole_checks_g_identically_zero(monopole_small):
    p, s, _ = monopole_small
    report = sd.run_suite(p, s)
    assert row_of(report, "bound-g-monopole").passed
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


def _seeded_test_functions_by_loop(grid, seed):
    """The seeded test functions one at a time: draw a function's nine values, then add its bumps in turn."""
    rng = np.random.default_rng(seed)
    r, R = grid.r, grid.R
    out = []
    for _ in range(N_TEST_FUNCTIONS):
        coeffs = rng.uniform(-1.0, 1.0, size=3)
        centers = rng.uniform(0.05, 0.7, size=3) * R
        widths = rng.uniform(0.05, 0.3, size=3) * R
        G = (1.0 - r / R) * sum(c * np.exp(-(((r - mu) / sg) ** 2)) for c, mu, sg in zip(coeffs, centers, widths))
        G[-1] = 0.0
        out.append(G)
    return out


def _orthogonality_by_loop(p, s, seed):
    """constraint-orthogonality one test function at a time, each with its own E2 and a single-G constraint_residual."""
    grid, a = s.grid, s.a
    g_inner = sd.solve_inner_g(p, grid, a)
    scale_inner = 1.0 + float(e2_energy(grid, a, g_inner).real)
    worst = 0.0
    for G in _seeded_test_functions_by_loop(grid, seed):
        scale = scale_inner + float(e2_energy(grid, a, G).real)
        worst = max(worst, abs(sd.constraint_residual(grid, a, g_inner, G)) / scale)
    return worst


@pytest.mark.parametrize("seed", [0, 7, 42])
def test_constraint_orthogonality_is_bitwise_the_per_function_loop(solved_points, tmp_path, seed):
    profiles = [(p, s) for p, s, _ in solved_points.values()]
    for n, text in TINY_PROFILES.items():
        path = tmp_path / f"tiny{n}.csv"
        path.write_text(text, encoding="utf-8")
        profiles.append(read_profile_csv(path))
    for p, s in profiles:
        assert np.array_equal(seeded_test_functions(s.grid, seed), _seeded_test_functions_by_loop(s.grid, seed))
        row = row_of(sd.run_suite(p, s, sd.Tolerances(seed=seed)), "constraint-orthogonality")
        assert row.measured == _orthogonality_by_loop(p, s, seed)


def test_run_suite_builds_one_stencil_and_one_constraint_residual(monkeypatch, solved_points):
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    evaluated = count_state_evaluations(monkeypatch)
    monkeypatch.setattr(verify_module, "constraint_residual", counted("constraint_residual", verify_module.constraint_residual))
    p, s, _ = solved_points[(OMEGA, 0.30, 1.0)]
    fresh = sd.FieldProfile(s.grid, s.a, s.f, s.g)  # the solved profile holds Newton's state already
    assert sd.run_suite(p, fresh).overall
    assert evaluated == [fresh] and calls == {"constraint_residual": 1}


def test_run_suite_on_a_solved_profile_reads_newtons_state(monkeypatch):
    # continuation_solve returns the profile whose state its last residual formed; the battery evaluates none,
    # and its report is byte for byte the one a freshly evaluated profile gives, as verify on profile.csv does
    evaluated = count_state_evaluations(monkeypatch)
    p = sd.validate_params(OMEGA, 0.3, 1.0)
    s, rep = sd.continuation_solve(p, sd.build_grid(60.0, 1000))
    assert rep.converged and evaluated[-1] is s
    solved = len(evaluated)
    report = sd.run_suite(p, s).format()
    assert len(evaluated) == solved
    assert report == sd.run_suite(p, sd.FieldProfile(s.grid, s.a, s.f, s.g)).format()


def test_run_suite_forms_the_f_prime_average_once_per_profile(monkeypatch, solved_points):
    # the decay fit and the f tail read qbar from the profile's state; an
    # observables module that formed it again would call its own _qbar
    calls = []
    qbar = model_module._qbar

    def counted(*args):
        calls.append(1)
        return qbar(*args)

    monkeypatch.setattr(model_module, "_qbar", counted)
    monkeypatch.setattr(observables_module, "_qbar", counted, raising=False)
    for p, s, _ in solved_points.values():
        calls.clear()
        assert sd.run_suite(p, sd.FieldProfile(s.grid, s.a, s.f, s.g)).overall  # the solved profile holds Newton's state
        assert len(calls) == 1


@pytest.mark.parametrize(
    "field, value",
    [("residual", math.nan), ("residual", -1.0), ("residual", 0.0), ("residual", math.inf), ("seed", -1), ("seed", 1.5)],
)
def test_tolerances_reject_invalid_fields(field, value):
    # before validation seed=-1 raised numpy's ValueError from inside run_suite, seed=1.5 a TypeError,
    # and a NaN or negative residual failed the three residual rows as if the profile were bad
    with pytest.raises(ParameterError, match=field):
        sd.Tolerances(**{field: value})


def test_a_singular_electric_system_fails_the_battery_and_verify(tmp_path, capsys):
    # r^2 underflows to 0 too, so the battery's energy rows divide by zero, without a warning
    path = tmp_path / "underflow.csv"
    path.write_text(UNDERFLOW_PROFILE, encoding="utf-8")
    p, s = read_profile_csv(path)
    with pytest.raises(NumericError, match="^singular matrix$"):
        sd.solve_inner_g(p, s.grid, s.a)
    _, flow = sd.flow_solve(p, s.grid, s)
    assert not flow.converged and flow.message == "singular matrix of the starting profile"
    report = sd.run_suite(p, s)
    row = row_of(report, "constraint-orthogonality")
    assert math.isnan(row.measured) and not row.passed
    assert not report.overall
    assert main(["verify", str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == report.format() and not err


def test_observables_of_a_mesh_whose_r_squared_underflows_note_their_non_finite_values(tmp_path):
    # f'^2 overflows in the state's qbar: NaN with a note, and no numpy warning for tier-1's error::RuntimeWarning filter
    path = tmp_path / "underflow.csv"
    path.write_text(UNDERFLOW_PROFILE, encoding="utf-8")
    p, s = read_profile_csv(path)
    obs = sd.observables(p, s, strict=False)
    assert math.isnan(obs.cf_tail) and math.isnan(obs.cf_variation)
    assert math.isfinite(obs.cg_tail) and math.isfinite(obs.QS_numeric)
    assert obs.note.endswith("; non-finite cf_tail, cf_variation")
    # strict raises the first failure in step order: the decay fit's, not the later non-finite values
    with pytest.raises(DecayWindowError, match="^decay-fit window"):
        sd.observables(p, s, strict=True)


def test_strict_observables_raise_on_a_non_finite_value(solved_points, monkeypatch):
    p, s, _ = solved_points[(OMEGA, 0.30, 1.0)]
    monkeypatch.setattr(observables_module, "skyrme_charge_numeric", lambda st: math.inf)
    with pytest.raises(NumericError, match="^non-finite QS_numeric$"):
        sd.observables(p, s)
    obs = sd.observables(p, s, strict=False)
    assert math.isnan(obs.QS_numeric) and obs.note == "non-finite QS_numeric"


def _solve_and_verify_bytes(p, grid, tmp_path):
    """The bytes of profile.csv, observables.txt and verify.txt of `skyrme-dyon solve` at p on grid."""
    profile, report = sd.continuation_solve(p, grid)
    assert report.converged, report.message
    path = tmp_path / "profile.csv"
    write_profile_csv(path, p, profile)
    suite = sd.run_suite(p, profile)
    return path.read_bytes(), suite.observables.as_text(), suite.format()


def test_acceptance_points_solved_twice_on_one_grid_give_a_fresh_grid_bytes(tmp_path):
    # a held grid array that carried state from one solve or battery to the next would show here
    points = [sd.validate_params(*point) for point in ACCEPT_POINTS]
    fresh = [_solve_and_verify_bytes(p, sd.build_grid(60.0, 1000), tmp_path) for p in points]
    shared = sd.build_grid(60.0, 1000)
    for _ in range(2):
        assert [_solve_and_verify_bytes(p, shared, tmp_path) for p in points] == fresh
