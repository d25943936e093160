"""Property battery for solved profiles and the mesh-refinement study.

run_suite executes every analytic property the solution must satisfy and
returns a structured report: one line per check with a measured value, a
threshold, and an anchor naming the property family it belongs to.
Failures are report entries, never exceptions.  With a fixed seed the
report is byte-identical across runs.

run_suite is also the one place that evaluates a profile's observables:
the charge, decay and tail checks read the ObservableReport it attaches
to the VerifyReport, so a caller that writes both reports runs the decay
fit and the tail constants once.  The thresholds are module constants;
only the residual target and the test-function seed vary per run
(Tolerances).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError, ParameterError
from .grid import RadialGrid, build_grid
from .inner import constraint_residual, solve_inner_g
from .model import (
    FieldProfile,
    ModelParams,
    _e1,
    action_breakdown,
    e2_energy,
    property_checks,
    residuals,
)
from .observables import ObservableReport, electric_charge, observables, skyrme_charge_numeric
from .observables import fit_decay_rate, tail_constants  # noqa: F401 - perfbench/tracing.py wraps these on verify
from .solver import SolveConfig, continuation_solve

__all__ = ["Tolerances", "CheckResult", "VerifyReport", "run_suite", "refinement_study", "RefinementReport"]


BOUNDARY_TOL = 1e-12
QS_ABS_TOL = 1e-3
GAMMA_REL_TOL = 0.03
CG_REL_TOL = 0.02
CG_ABS_TOL_Q0 = 1e-10  # at q = 0 the electric charge vanishes, so the tail check is absolute
CF_VARIATION_TOL = 0.05
CONSTRAINT_TOL = 1e-12
COERCIVE_REL_TOL = 1e-9
SMALL_R_REL_TOL = 1e-9
FLUX_TOL = 5e-12
N_TEST_FUNCTIONS = 5


@dataclass(frozen=True)
class Tolerances:
    """The per-run settings of run_suite: the residual target and the test-function seed."""

    residual: float = 1e-10
    seed: int = 42


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    anchor: str
    measured: float
    threshold: float
    passed: bool
    node: int | None = None  # first offending node for pointwise checks


@dataclass
class VerifyReport:
    """The checks of one run_suite pass, in order, and the observables they read."""

    checks: list[CheckResult] = field(default_factory=list)
    observables: ObservableReport | None = None

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(
        self,
        check_id: str,
        anchor: str,
        measured: float,
        threshold: float,
        passed: bool | None = None,
        node: int | None = None,
    ) -> None:
        if passed is None:
            passed = bool(np.isfinite(measured)) and measured <= threshold
        self.checks.append(CheckResult(check_id, anchor, float(measured), float(threshold), bool(passed), node))

    def __getitem__(self, check_id: str) -> CheckResult:
        for c in self.checks:
            if c.check_id == check_id:
                return c
        raise KeyError(check_id)

    def format(self) -> str:
        lines = [f"{c.check_id} {'PASS' if c.passed else 'FAIL'} {c.measured:.17g} {c.threshold:.17g} {c.anchor}" for c in self.checks]
        lines.append(f"overall {'PASS' if self.overall else 'FAIL'}")
        return "\n".join(lines) + "\n"


def seeded_test_functions(grid: RadialGrid, seed: int) -> list[np.ndarray]:
    """N_TEST_FUNCTIONS smooth bump combinations vanishing at r_N, reproducible by seed."""
    rng = np.random.default_rng(seed)
    r = grid.r
    R = grid.R
    out = []
    for _ in range(N_TEST_FUNCTIONS):
        coeffs = rng.uniform(-1.0, 1.0, size=3)
        centers = rng.uniform(0.05, 0.7, size=3) * R
        widths = rng.uniform(0.05, 0.3, size=3) * R
        G = (1.0 - r / R) * sum(
            c * np.exp(-(((r - mu) / sg) ** 2)) for c, mu, sg in zip(coeffs, centers, widths)
        )
        G[-1] = 0.0
        out.append(G)
    return out


def _coercive_gap(p: ModelParams, s: FieldProfile, L: float) -> tuple[float, float]:
    """The action L of s minus its lower bound; the bound uses the comparison potential q*f/(pi-omega).

    The bound is E1 with the r^2 f'^2 coefficient 1/2 lowered to c1 and the
    mass term a^2 sin^2 f replaced by c2 a^2 f^2.  Returns (gap, scale).
    The discrete inequality is exact whenever g is the inner minimizer and
    0 <= f <= pi/2 nodewise, so gap >= -round-off.
    """
    grid = s.grid
    om_gap = p.f_infinity
    q_om = math.sqrt(2.0) / math.pi * om_gap
    c1 = 0.5 - (p.q / om_gap) ** 2
    c2 = 2.0 / om_gap**2 * (q_om**2 - p.q**2)
    a, f = s.a, s.f
    bound = float(_e1(p, grid, a, f, c1, np.sin(f), c2 * a * a * f * f))
    return L - bound, abs(L) + abs(bound) + 1.0


def _flux_identity_gap(s: FieldProfile, rg: np.ndarray) -> tuple[float, float]:
    """Max defect of r^2 g'(half node) = cumulative dual-cell sum of 2 a^2 g.

    The identity telescopes the conservative stencil exactly, so the defect
    is bounded by the accumulated mass of the g-residuals rg of s plus
    round-off; the excess over that budget is returned together with its
    scale.
    """
    grid = s.grid
    a, g = s.a, s.g
    flux = grid.p_half * np.diff(g) / grid.h
    w = grid.w[1:-1]
    cum = np.cumsum(2.0 * a[1:-1] ** 2 * g[1:-1] * w)
    budget = np.cumsum(w * np.abs(rg))
    gap = float(np.max(np.abs(flux[1:] - cum) - budget))
    scale = 1.0 + float(np.max(np.abs(flux)))
    return gap, scale


@np.errstate(invalid="ignore", over="ignore")
def run_suite(p: ModelParams, s: FieldProfile, tol: Tolerances | None = None) -> VerifyReport:
    """Execute the full property battery on a profile claiming convergence.

    The returned report carries the profile's ObservableReport (evaluated
    with strict=False) in its observables field.  A non-finite value fails
    the rows it reaches, so the battery runs without numpy's invalid-value
    and overflow warnings.
    """
    tol = tol or Tolerances()
    grid, a, f = s.grid, s.a, s.f
    obs = observables(p, s, strict=False)
    rep = VerifyReport(observables=obs)

    ra, rf, rg = residuals(p, s)
    rep.add("residual-a", "euler-lagrange", float(np.max(np.abs(ra))), tol.residual)
    rep.add("residual-f", "euler-lagrange", float(np.max(np.abs(rf))), tol.residual)
    rep.add("residual-g", "euler-lagrange", float(np.max(np.abs(rg))), tol.residual)

    bc_defect = max(
        abs(s.a[0] - 1.0),
        abs(s.f[0]),
        abs(s.g[0]),
        abs(s.a[-1]),
        abs(s.f[-1] - p.f_infinity),
        abs(s.g[-1] - p.q),
    )
    rep.add("boundary-values", "boundary-conditions", bc_defect, BOUNDARY_TOL)

    for row in property_checks(p, s):
        rep.add(row.check_id, row.anchor, row.measured, 0.0, row.passed, row.node)

    try:
        act = action_breakdown(p, s)
    except NumericError:
        act = None  # non-finite energy density: every check built on the action fails
    if act is None:
        rep.add("energy-finite", "finite-energy", float("nan"), float("inf"), False)
        rep.add("coercive-bound", "coercive-lower-bound", float("nan"), 0.0, False)
    else:
        energy_ok = np.isfinite(act.E) and act.E1 >= 0.0 and act.E2 >= 0.0
        rep.add("energy-finite", "finite-energy", act.E, float("inf"), bool(energy_ok))
        gap, scale = _coercive_gap(p, s, act.L)
        rep.add("coercive-bound", "coercive-lower-bound", -gap, COERCIVE_REL_TOL * scale)

    # weak form evaluated on the inner minimizer for this gauge profile; the
    # profile's own g is tied to it through the residual-g check above
    try:
        g_inner = solve_inner_g(p, grid, a)
    except (ParameterError, NumericError):
        worst = float("nan")  # a with a[0] != 1 or a non-finite value has no inner minimizer
    else:
        scale_inner = 1.0 + float(e2_energy(grid, a, g_inner).real)
        worst = 0.0
        for G in seeded_test_functions(grid, tol.seed):
            scale = scale_inner + float(e2_energy(grid, a, G).real)
            worst = max(worst, abs(constraint_residual(grid, a, g_inner, G)) / scale)
    rep.add("constraint-orthogonality", "weak-constraint", worst, CONSTRAINT_TOL)

    rep.add("skyrme-charge-consistency", "topological-charge", abs(obs.QS_numeric - obs.QS_closed), QS_ABS_TOL)
    # a failed decay fit leaves gamma_fit NaN, which fails the check
    rep.add("decay-rate", "exponential-decay", abs(obs.gamma_fit - obs.gamma_theory) / obs.gamma_theory, GAMMA_REL_TOL)
    if p.q == 0.0:
        rep.add("tail-electric-charge", "tail-laws", abs(obs.cg_tail - obs.Qe), CG_ABS_TOL_Q0)
    else:
        rel = abs(obs.cg_tail - obs.Qe) / abs(obs.Qe) if obs.Qe != 0.0 else float("nan")  # NaN fails the check
        rep.add("tail-electric-charge", "tail-laws", rel, CG_REL_TOL)
    rep.add("tail-f-variation", "tail-laws", obs.cf_variation, CF_VARIATION_TOL)

    # Discrete Cauchy-Schwarz bound |a(r) - 1| <= sqrt(r * cumint a'^2); exact identity.
    da = np.diff(a) / grid.h
    cum_a = np.concatenate([[0.0], np.cumsum(da * da * grid.h)])
    gap_a = float(np.max(np.abs(a - 1.0) - np.sqrt(grid.r * cum_a)))
    rep.add("small-r-gauge-bound", "small-r-bounds", gap_a, SMALL_R_REL_TOL * (1.0 + float(cum_a[-1])))

    if p.kappa > 0.0 and act is None:
        rep.add("small-r-skyrme-bound", "small-r-bounds", float("nan"), 0.0, False)
    elif p.kappa > 0.0:
        # sin^2 f <= 2 kappa^(-1/2) sqrt(r) sqrt(L) on the core region where a >= 1/2.
        act_L = max(act.L, 0.0)
        below = np.flatnonzero(a < 0.5)
        cut = below[0] if below.size else grid.N + 1
        rr = grid.r[:cut]
        lhs = np.sin(f[:cut]) ** 2
        rhs = 2.0 / math.sqrt(p.kappa) * np.sqrt(rr) * math.sqrt(act_L)
        gap_f = float(np.max(lhs - rhs)) if cut > 0 else 0.0
        rep.add("small-r-skyrme-bound", "small-r-bounds", gap_f, SMALL_R_REL_TOL * (1.0 + act_L))

    flux_gap, flux_scale = _flux_identity_gap(s, rg)
    rep.add("flux-identity", "flux-identity", flux_gap, FLUX_TOL * flux_scale)
    return rep


@dataclass
class RefinementReport:
    """Mesh-refinement study: observables per level plus convergence estimates."""

    Ns: list[int]
    converged: list[bool]
    Qe: list[float]
    QS: list[float]
    E: list[float]
    dQe_rel_finest: float
    order_E: float
    R_values: tuple[float, float]
    dQe_rel_R: float
    complete: bool

    def format(self) -> str:
        lines = ["N converged Qe QS E"]
        for N, c, qe, qs, e in zip(self.Ns, self.converged, self.Qe, self.QS, self.E):
            lines.append(f"{N} {'yes' if c else 'no'} {qe:.12g} {qs:.12g} {e:.12g}")
        lines.append(f"dQe_rel_finest {self.dQe_rel_finest:.6g}")
        lines.append(f"order_E {self.order_E:.6g}")
        lines.append(f"R_extension {self.R_values[0]:g} {self.R_values[1]:g} dQe_rel {self.dQe_rel_R:.6g}")
        lines.append(f"complete {'yes' if self.complete else 'no'}")
        return "\n".join(lines) + "\n"


def refinement_study(
    p: ModelParams,
    base_grid: RadialGrid,
    cfg: SolveConfig | None = None,
    levels: int = 3,
) -> RefinementReport:
    """Solve on doubled meshes (and a stretched domain) and report Cauchy differences.

    Levels run N, 2N, 4N, ... at fixed R; a final solve at 1.5 R probes the
    domain-truncation error.  The convergence order is estimated from the
    energy differences of the last three levels (expected close to 2).
    """
    if levels < 2:
        raise ParameterError(f"refinement study needs at least 2 levels, got {levels}")
    cfg = cfg or SolveConfig()
    grading = base_grid.grading if base_grid.grading is not None else 0.0
    Ns, conv, qe, qs, en = [], [], [], [], []
    grid = base_grid
    for level in range(levels):
        if level > 0:
            grid = grid.refine()
        sol, rep = continuation_solve(p, grid, cfg)
        Ns.append(grid.N)
        conv.append(bool(rep.converged))
        qe.append(electric_charge(sol) if rep.converged else float("nan"))
        qs.append(skyrme_charge_numeric(sol) if rep.converged else float("nan"))
        en.append(rep.action.E if rep.converged and rep.action else float("nan"))

    dqe = abs(qe[-1] - qe[-2]) / abs(qe[-1]) if np.isfinite(qe[-1]) and qe[-1] != 0.0 else float("nan")
    if levels >= 3 and all(np.isfinite(en[-3:])):
        num = abs(en[-3] - en[-2])
        den = abs(en[-2] - en[-1])
        order = math.log2(num / den) if den > 0.0 else float("nan")
    else:
        order = float("nan")

    grid_R = build_grid(1.5 * base_grid.R, Ns[-1], cluster=grading)
    sol_R, rep_R = continuation_solve(p, grid_R, cfg)
    qe_R = electric_charge(sol_R) if rep_R.converged else float("nan")
    dqe_R = abs(qe_R - qe[-1]) / abs(qe[-1]) if np.isfinite(qe_R) and np.isfinite(qe[-1]) and qe[-1] != 0.0 else float("nan")

    return RefinementReport(
        Ns=Ns,
        converged=conv,
        Qe=qe,
        QS=qs,
        E=en,
        dQe_rel_finest=float(dqe),
        order_E=float(order),
        R_values=(base_grid.R, 1.5 * base_grid.R),
        dQe_rel_R=float(dqe_R),
        complete=bool(all(conv) and rep_R.converged),
    )
