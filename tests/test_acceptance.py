"""Acceptance battery: every production criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  The expensive solves are shared session fixtures (conftest).
"""

import math
import time

import numpy as np

import skyrme_dyon as sd
from skyrme_dyon.model import _e1, _state, e2_energy
from skyrme_dyon.solver import _band_workspace, _jacobian_banded, _pack, _trial_state
from skyrme_dyon.verify import seeded_test_functions

from conftest import SWEEP_QS

OMEGA = 0.75 * math.pi


def _report(criterion: str, passed: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"{criterion}: {detail}"


def test_criterion_01_skyrme_charge_consistency(solved_points):
    worst = 0.0
    slowest = 0.0
    for key, (p, s, rep) in solved_points.items():
        delta = abs(sd.skyrme_charge_numeric(s) - sd.skyrme_charge_closed(p.omega))
        worst = max(worst, delta)
        slowest = max(slowest, rep.wall_time)
    passed = worst <= 1e-3 and slowest <= 60.0
    _report("01 skyrme-charge", passed, f"max |QS_num - QS_closed| = {worst:.3e} (tol 1e-3), slowest solve {slowest:.2f}s")


def test_criterion_02_decay_exponent(solved_points):
    worst = 0.0
    for key, (p, s, _) in solved_points.items():
        gamma_fit, _ = sd.fit_decay_rate(s, p)
        worst = max(worst, abs(gamma_fit - sd.gamma_theory(p)) / sd.gamma_theory(p))
    _report("02 decay-exponent", worst <= 0.03, f"max rel gamma error = {worst:.3e} (tol 0.03)")


def test_criterion_03_tail_laws(solved_points):
    worst_cg = 0.0
    worst_var = 0.0
    for key, (p, s, _) in solved_points.items():
        tails = sd.tail_constants(s, p)
        qe = sd.electric_charge(s)
        worst_cg = max(worst_cg, abs(tails.cg - qe) / abs(qe))
        worst_var = max(worst_var, tails.cf_variation)
    passed = worst_cg <= 0.02 and worst_var <= 0.05
    _report("03 tail-laws", passed, f"max |cg - Qe|/Qe = {worst_cg:.3e} (tol 0.02), max cf variation = {worst_var:.3e} (tol 0.05)")


def test_criterion_04_property_battery(solved_points, solved_kappa0, sweep_runs):
    runs = list(solved_points.values()) + [solved_kappa0] + list(sweep_runs)
    worst_res = 0.0
    violations = []
    for p, s, rep in runs:
        ra, rf, rg = sd.residuals(p, s)
        worst_res = max(worst_res, float(max(np.abs(ra).max(), np.abs(rf).max(), np.abs(rg).max())))
        ok, msg = sd.solution_properties_ok(p, s)
        if not ok:
            violations.append((p.omega, p.q, p.kappa, msg))
        if not (rep.action and np.isfinite(rep.action.E)):
            violations.append((p.omega, p.q, p.kappa, "energy not finite"))
    passed = worst_res <= 1e-10 and not violations
    _report(
        "04 property-battery",
        passed,
        f"{len(runs)} runs, max residual = {worst_res:.3e} (tol 1e-10), violations = {violations}",
    )


def test_criterion_05_electric_charge_vanishes_with_q(sweep_runs):
    qes = [sd.electric_charge(s) for _, s, _ in sweep_runs]
    decreasing = all(b < a for a, b in zip(qes, qes[1:]))
    ratio_ok = qes[-1] <= qes[0] / 5.0
    _report(
        "05 Qe(q)->0",
        decreasing and ratio_ok,
        f"Qe along q={SWEEP_QS}: {[f'{v:.4f}' for v in qes]}, Qe(0.02)/Qe(0.30) = {qes[-1]/qes[0]:.3f} (<= 0.2)",
    )


def test_criterion_06_oracle_equivalence():
    grid = sd.build_grid(40.0, 400)
    t0 = time.perf_counter()
    worst = 0.0
    for q in (0.1, 0.0):
        p = sd.validate_params(OMEGA, q, 1.0)
        guess = sd.initial_guess(p, grid)
        s_newton, rep_n = sd.newton_solve(p, grid, guess)
        s_flow, rep_f = sd.flow_solve(p, grid, guess)
        assert rep_n.converged and rep_f.converged, (rep_n.message, rep_f.message)
        diff = max(
            np.abs(s_newton.a - s_flow.a).max(),
            np.abs(s_newton.f - s_flow.f).max(),
            np.abs(s_newton.g - s_flow.g).max(),
        )
        worst = max(worst, float(diff))
    elapsed = time.perf_counter() - t0
    passed = worst <= 1e-4 and elapsed <= 300.0
    _report("06 oracle-equivalence", passed, f"max nodewise |newton - flow| = {worst:.3e} (tol 1e-4), runtime {elapsed:.1f}s")


def test_criterion_07_inner_solve_exactness(grid60):
    p = sd.validate_params(OMEGA, 0.3, 1.0)
    ones = np.ones(grid60.N + 1)
    g_sol = sd.solve_inner_g(p, grid60, ones)
    err = float(np.abs(g_sol - p.q * grid60.r / grid60.R).max())
    worst_constraint = 0.0
    for G in seeded_test_functions(grid60, 42):
        scale = 1.0 + float(e2_energy(grid60, ones, g_sol)) + float(e2_energy(grid60, ones, G))
        worst_constraint = max(worst_constraint, abs(sd.constraint_residual(grid60, ones, g_sol, G)) / scale)
    passed = err <= 1e-13 * p.q and worst_constraint <= 1e-12
    _report(
        "07 inner-solve-exactness",
        passed,
        f"max |g - qr/R| = {err:.3e} (tol {1e-13 * p.q:.1e}), constraint = {worst_constraint:.3e} (tol 1e-12)",
    )


def test_criterion_08_refinement_convergence():
    # three doubled meshes at R = 60, then a solve on the finest N at 1.5 R probes the domain
    p = sd.validate_params(OMEGA, 0.3, 1.0)
    Ns = [500, 1000, 2000]
    runs = [sd.continuation_solve(p, sd.build_grid(60.0, N)) for N in Ns]
    _, probe = sd.continuation_solve(p, sd.build_grid(90.0, Ns[-1]))
    complete = probe.converged and all(rep.converged for _, rep in runs)
    qe = [sd.electric_charge(s) for s, _ in runs]
    e = [rep.action.E if rep.action else math.nan for _, rep in runs]  # a level without an action fails as NaN
    dqe = abs(qe[2] - qe[1]) / abs(qe[2])
    order = math.log2(abs(e[0] - e[1]) / abs(e[1] - e[2]))
    passed = complete and dqe <= 0.005 and 1.7 <= order <= 2.3
    _report(
        "08 refinement-convergence",
        passed,
        f"N={Ns}, finest dQe = {dqe:.3e} (tol 5e-3), order(E) = {order:.3f} (in [1.7, 2.3])",
    )


def test_criterion_09_jacobian_and_gradient_checks(rng):
    grid = sd.build_grid(40.0, 400)
    p = sd.validate_params(OMEGA, 0.2, 1.0)
    prof = sd.initial_guess(p, grid)
    prof.a[1:-1] *= 1.0 + 0.05 * rng.standard_normal(grid.N - 1)
    prof.f[1:-1] += 0.05 * rng.standard_normal(grid.N - 1)
    prof.g[1:-1] += 0.01 * rng.standard_normal(grid.N - 1)

    # analytic Jacobian columns against central differences
    x = _pack(prof)
    ab = _jacobian_banded(p, _state(prof), _band_workspace(grid))
    n = x.size
    worst_jac = 0.0
    for j in rng.choice(n, 90, replace=False):
        h = 1e-6 * (1.0 + abs(x[j]))
        xp = x.copy()
        xp[j] += h
        xm = x.copy()
        xm[j] -= h
        r_plus, r_minus = _trial_state(p, grid, xp)[3], _trial_state(p, grid, xm)[3]
        fd = (r_plus - r_minus) / (2.0 * h)
        col = np.zeros(n)
        for i in range(max(0, j - 4), min(n, j + 5)):
            col[i] = ab[4 + i - j, j]
        worst_jac = max(worst_jac, float(np.max(np.abs(fd - col)) / (1.0 + np.max(np.abs(col)))))

    # reduced-functional gradient against the residuals with g at the inner solution
    prof = sd.FieldProfile(grid, prof.a, prof.f, sd.solve_inner_g(p, grid, prof.a))
    ra, rf, _ = sd.residuals(p, prof)
    w = grid.w[1:-1]

    def reduced(a, f):
        gg = sd.solve_inner_g(p, grid, a)
        st = _state(sd.FieldProfile(grid, a, f, gg))
        return _e1(p, st, 0.5, st.mass) - e2_energy(grid, a, gg)

    h = 1e-30
    worst_grad = 0.0
    scale = 1.0 + max(np.abs(w * ra).max(), np.abs(w * rf).max())
    for k in rng.choice(grid.N - 1, 60, replace=False):
        ac = prof.a.astype(complex)
        ac[1 + k] += 1j * h
        grad_a = reduced(ac, prof.f.astype(complex)).imag / h
        worst_grad = max(worst_grad, abs(grad_a - (-8.0 * w[k] * ra[k])) / scale)
        fc = prof.f.astype(complex)
        fc[1 + k] += 1j * h
        grad_f = reduced(prof.a.astype(complex), fc).imag / h
        worst_grad = max(worst_grad, abs(grad_f - (-1.0 * w[k] * rf[k])) / scale)

    passed = worst_jac <= 1e-6 and worst_grad <= 1e-8
    _report(
        "09 jacobian-gradient",
        passed,
        f"jacobian col error = {worst_jac:.3e} (tol 1e-6), reduced-gradient error = {worst_grad:.3e} (tol 1e-8)",
    )


def test_criterion_10_sigma_model_limit(solved_kappa0):
    p, s, rep = solved_kappa0
    assert p.kappa == 0.0
    checks = []
    checks.append(("converged", rep.converged))
    checks.append(("QS", abs(sd.skyrme_charge_numeric(s) - sd.skyrme_charge_closed(p.omega)) <= 1e-3))
    gamma_fit, _ = sd.fit_decay_rate(s, p)
    checks.append(("gamma", abs(gamma_fit - sd.gamma_theory(p)) / sd.gamma_theory(p) <= 0.03))
    tails = sd.tail_constants(s, p)
    qe = sd.electric_charge(s)
    checks.append(("cg", abs(tails.cg - qe) <= 0.02 * abs(qe)))
    checks.append(("cf-var", tails.cf_variation <= 0.05))
    ra, rf, rg = sd.residuals(p, s)
    checks.append(("residual", max(np.abs(ra).max(), np.abs(rf).max(), np.abs(rg).max()) <= 1e-10))
    ok, msg = sd.solution_properties_ok(p, s)
    checks.append(("properties", ok))
    failed = [name for name, good in checks if not good]
    _report("10 sigma-model-limit", not failed, f"kappa=0 run checks: {'all pass' if not failed else failed}")
