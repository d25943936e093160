"""Property battery for solved profiles.

run_suite executes every analytic property the solution must satisfy and
returns a structured report: one line per check with a measured value, a
threshold, and an anchor naming the property family it belongs to.
Failures are report entries, never exceptions.  With a fixed seed the
report is byte-identical across runs.

The observables, the residual rows, the action, the coercive bound, the
small-r bounds and the flux identity all read the profile's one state
(model.FieldProfile._state), which Newton's last residual has already
formed for a solved profile and the first reader forms for a profile
read from a file.  The charge, decay and
tail checks read the ObservableReport it attaches to the VerifyReport,
so a caller that writes both reports runs the decay fit and the tail
constants once.  The thresholds are module constants; only the residual
target and the test-function seed vary per run (Tolerances).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .errors import NumericError, ParameterError
from .grid import RadialGrid
from .inner import constraint_residual, solve_inner_g
from .model import (
    CheckResult,
    FieldProfile,
    ModelParams,
    _e1,
    _require_real,
    action_breakdown,
    e2_energy,
    property_checks,
    residuals,
)
from .observables import ObservableReport, observables
# perfbench/tracing.py wraps these on verify
from .observables import electric_charge, fit_decay_rate, skyrme_charge_numeric, tail_constants  # noqa: F401

__all__ = ["Tolerances", "CheckResult", "VerifyReport", "run_suite"]


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
# Uniform draw ranges of a bump's coefficient, centre and width (the last two in units of R).
BUMP_LOW = ((-1.0,), (0.05,), (0.05,))
BUMP_HIGH = ((1.0,), (0.7,), (0.3,))


@dataclass(frozen=True)
class Tolerances:
    """The per-run settings of run_suite: the residual target and the test-function seed.

    Raises ParameterError unless residual is a finite number > 0 and seed an integer >= 0.
    """

    residual: float = 1e-10
    seed: int = 42

    def __post_init__(self) -> None:
        if not (math.isfinite(self.residual) and self.residual > 0.0):
            raise ParameterError(f"residual tolerance must be a finite number > 0, got {self.residual}")
        if not (isinstance(self.seed, Integral) and self.seed >= 0):
            raise ParameterError(f"test-function seed must be an integer >= 0, got {self.seed!r}")


@dataclass
class VerifyReport:
    """The checks of one run_suite pass, in order, and the observables they read.

    format() gives verify.txt: one line per check, then the overall verdict.
    """

    checks: list[CheckResult] = field(default_factory=list)
    observables: ObservableReport | None = None

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, check_id: str, anchor: str, measured: float, threshold: float, passed: bool | None = None) -> None:
        """Append a check row; passed defaults to measured being finite and <= threshold."""
        if passed is None:
            passed = bool(np.isfinite(measured)) and measured <= threshold
        self.checks.append(CheckResult(check_id, anchor, float(measured), float(threshold), bool(passed)))

    def format(self) -> str:
        lines = [f"{c.check_id} {'PASS' if c.passed else 'FAIL'} {c.measured:.17g} {c.threshold:.17g} {c.anchor}" for c in self.checks]
        lines.append(f"overall {'PASS' if self.overall else 'FAIL'}")
        return "\n".join(lines) + "\n"


def seeded_test_functions(grid: RadialGrid, seed: int) -> np.ndarray:
    """N_TEST_FUNCTIONS smooth bump combinations vanishing at r_N, reproducible by seed.

    Returns one (N_TEST_FUNCTIONS, N+1) array, a test function per row:
    (1 - r/R) times three Gaussian bumps c exp(-((r - mu)/sigma)^2), summed
    in bump order.  Each row takes nine draws of one rng, in order three
    coefficients, three centres and three widths.
    """
    rng = np.random.default_rng(seed)
    r, R = grid.r, grid.R
    draws = rng.uniform(BUMP_LOW, BUMP_HIGH, size=(N_TEST_FUNCTIONS, 3, 3))[..., None]
    coeffs, centers, widths = draws[:, 0], draws[:, 1] * R, draws[:, 2] * R
    taper = 1.0 - r / R
    G = np.empty((N_TEST_FUNCTIONS, grid.N + 1))
    # one function at a time: the values of one broadcast over all, with (bump, node) temporaries a fifth the size
    for i in range(N_TEST_FUNCTIONS):
        bumps = coeffs[i] * np.exp(-(((r - centers[i]) / widths[i]) ** 2))  # (bump, node)
        G[i] = taper * ((bumps[0] + bumps[1]) + bumps[2])
    G[:, -1] = 0.0
    return G


def _coercive_gap(p: ModelParams, s: FieldProfile, L: float) -> tuple[float, float]:
    """The action L of the profile s minus its lower bound; the bound uses the comparison potential q*f/(pi-omega).

    The bound is E1 with the r^2 f'^2 coefficient 1/2 lowered to c1 and the
    mass term a^2 sin^2 f replaced by c2 a^2 f^2.  Returns (gap, scale).
    The discrete inequality is exact whenever g is the inner minimizer and
    0 <= f <= pi/2 nodewise, so gap >= -round-off.
    """
    om_gap = p.f_infinity
    q_om = math.sqrt(2.0) / math.pi * om_gap
    c1 = 0.5 - (p.q / om_gap) ** 2
    c2 = 2.0 / om_gap**2 * (q_om**2 - p.q**2)
    bound = float(_e1(p, s, c1, c2 * s.a * s.a * s.f * s.f))
    return L - bound, abs(L) + abs(bound) + 1.0


def _flux_identity_gap(s: FieldProfile, rg: np.ndarray) -> tuple[float, float]:
    """Max defect of r^2 g'(half node) = cumulative dual-cell sum of 2 a^2 g of the profile s.

    The identity telescopes the conservative stencil exactly, so the defect
    is bounded by the accumulated mass of the g-residuals rg of s plus
    round-off; the excess over that budget is returned together with its
    scale.  The flux is formed as p_half * diff(g) / h, not from the
    state's dg, which rounds in another order and would move the row's
    value by ulps.
    """
    grid, a, g = s.grid, s.a, s.g
    flux = grid.p_half * np.diff(g) / grid.h
    w = grid.w[1:-1]
    cum = np.cumsum(2.0 * a[1:-1] ** 2 * g[1:-1] * w)
    budget = np.cumsum(w * np.abs(rg))
    gap = float(np.max(np.abs(flux[1:] - cum) - budget))
    scale = 1.0 + float(np.max(np.abs(flux)))
    return gap, scale


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def run_suite(p: ModelParams, s: FieldProfile, tol: Tolerances | None = None) -> VerifyReport:
    """Execute the full property battery on a profile claiming convergence.

    The returned report carries the profile's ObservableReport (evaluated
    with strict=False) in its observables field.  A non-finite value fails
    the rows it reaches, so the battery runs without numpy's divide-by-zero,
    invalid-value and overflow warnings.  Raises ParameterError when a, f
    or g is complex (model._require_real).
    """
    _require_real(s)
    tol = tol or Tolerances()
    grid, a, st = s.grid, s.a, s._state
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

    rep.checks.extend(property_checks(p, s))

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
        scale_inner = 1.0 + float(e2_energy(grid, a, g_inner))
        tests = seeded_test_functions(grid, tol.seed)
        e2_tests = e2_energy(grid, a, tests)
        ratios = np.abs(constraint_residual(grid, a, g_inner, tests, e2_G=e2_tests)) / (scale_inner + e2_tests)
    except (ParameterError, NumericError):
        # a with a[0] != 1, a non-finite value or a singular electric system has no inner minimizer,
        # and an a so large that a test function's E2(a, G) overflows has no finite weak form
        worst = float("nan")
    else:
        worst = max(0.0, *ratios)  # as a running max from 0.0, which a NaN ratio never replaces
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
    cum_a = np.concatenate([[0.0], np.cumsum(st.da * st.da * grid.h)])
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
        lhs = st.sin2[:cut]
        rhs = 2.0 / math.sqrt(p.kappa) * np.sqrt(rr) * math.sqrt(act_L)
        gap_f = float(np.max(lhs - rhs)) if cut > 0 else 0.0
        rep.add("small-r-skyrme-bound", "small-r-bounds", gap_f, SMALL_R_REL_TOL * (1.0 + act_L))

    flux_gap, flux_scale = _flux_identity_gap(s, rg)
    rep.add("flux-identity", "flux-identity", flux_gap, FLUX_TOL * flux_scale)
    return rep

