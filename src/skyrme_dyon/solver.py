"""Nonlinear boundary-value solvers: damped Newton, constrained flow, continuation.

Two structurally different routes to the same discrete root:

* newton_solve treats the stacked interior residuals as a root problem and
  runs damped Newton with the analytic block-tridiagonal Jacobian (3x3
  blocks per node, a bandwidth-4 banded system) and a backtracking line
  search on the residual norm.  Each Jacobian is factorized by LAPACK
  gbtrf in place on one band workspace allocated per solve and reused by
  every iteration, and each step is one gbtrs solve on those factors.  As
  in the flow, the iterate and each trial are profiles; the state of the
  accepted trial's profile, which its residual read, also serves the next
  Jacobian.  While Newton contracts fast, a factorization is reused
  (the chord method; Kelley, Solving Nonlinear Equations with Newton's
  Method, SIAM 2003, sec. 2.3): a full step that cuts the residual by
  1/CHORD_CONTRACTION or more keeps its factors, and the next iteration
  first tries the chord step with them, kept only if it contracts as
  much.  Indefiniteness of the action is irrelevant on this route.

* flow_solve mirrors the constrained-minimization structure: the electric
  potential is eliminated through the inner solve at every step and the
  reduced functional J(a, f) = E1(a, f) - E2(a, g(a)) is driven downhill.
  Because the residuals are the exact gradients of the discrete action and
  the inner solution makes the g-gradient vanish, the J-gradient is
  exactly the weighted (a, f) residuals with g frozen at the inner
  solution.  Directions come from limited-memory BFGS (Nocedal, Math.
  Comp. 35, 1980), which needs only J and that gradient, never the
  Jacobian; its initial inverse Hessian is the implicit flow step
  (I - dt*A)^(-1) of a fixed time step FLOW_DT, an SPD operator, and
  steps halve from 1 until J falls enough (Armijo).  Each trial profile is
  evaluated once: the state its action sums also serves its residuals,
  reaction rates and preconditioner once it is accepted.  The a- and f-systems of the
  initial inverse Hessian, each row scaled by its dual-cell width, are
  one symmetric positive definite tridiagonal system, uncoupled at the
  seam, factorized once per state as L D L^T by
  inner._spd_tridiagonal_solver (LAPACK pttrf) and solved once per
  application (pttrs).  The flow starts by nested iteration (Briggs,
  Henson & McCormick, A Multigrid Tutorial, 2nd ed., SIAM 2000, ch. 3):
  the same descent first runs on continuation's coarse subgrid, only down
  to COARSE_FLOW_TOL, and its iterate, prolonged by _prolong, starts the
  descent on the full mesh, which then needs about half the steps.

* continuation_solve is Newton only, in two stages.  It chooses and walks
  its route on a subgrid of every k-th node (about COARSE_NODES
  intervals): Newton at the target from the closed-form initial guess, as
  the dyon is a critical point at fixed (omega, q), and only when that
  fails a q ladder of Newton legs from the monopole limit q = 0 to the
  target, the first from the initial guess and each later one from the
  previous leg's a and f, with its g rescaled to the new q (from q = 0,
  the initial guess's g); the first failed leg ends it.  The route's last
  iterate, carried onto the full mesh by cubic interpolation in the node
  index (_prolong), starts one fine Newton solve.  The Newton
  iteration count does not depend on the mesh, and the cubic is one order
  above the discretization, so that solve needs only one or two
  iterations and, at the acceptance points, one factorization.
  flow_solve is never called there, so the two routes stay independent
  checks of each other.

Both routes keep g identically zero when q = 0 and the starting g
vanishes: every coupling of the g-sector to (a, f) carries a factor g.
newton_solve and flow_solve take a guess that lies on their grid (the same
RadialGrid or one with equal nodes) and raise ParameterError otherwise; both
start from one clamped float64 copy of it on their own grid (_start), and
so does every ladder leg.

Every solve ends in a SolveReport, a frozen value, whose converged means
a solution: the residual met its target, the action is finite and
solution_properties_ok holds.  A continuation trace lists its Newton
solves' own reports.

gbtrf and gbtrs are inner's, bound from scipy's compiled LAPACK wrapper
without importing scipy.linalg; only the tracer's solver.solve_banded
(the module __getattr__) imports it.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .errors import NumericError, ParameterError
from .grid import RadialGrid
from .inner import _raise_for_info, _require_finite, _spd_tridiagonal_solver, dgbtrf, dgbtrs, solve_inner_g
from .model import (
    ActionBreakdown,
    FieldProfile,
    ModelParams,
    _reaction_rates,
    _require_real,
    action_breakdown,
    residuals,
    solution_properties_ok,
    validate_params,
)

__all__ = [
    "SolveConfig",
    "SolveReport",
    "initial_guess",
    "newton_solve",
    "flow_solve",
    "continuation_solve",
]

# Newton and flow settings; production values for desk-scale runs
MAX_NEWTON_ITERS = 40  # Newton iteration budget
BACKTRACK_FACTOR = 0.5  # line-search step reduction
CHORD_CONTRACTION = 0.01  # a full Newton step keeps its factors for chord steps when it cuts the residual at least this much
MIN_STEP = 1e-8  # smallest line-search step before a stall is reported
FLOW_DT = 100.0  # time step of the implicit flow step that serves as the initial inverse Hessian
LBFGS_MEMORY = 8  # (s, y) pairs kept by the flow's L-BFGS recursion
FLOW_MAX_STEPS = 1_000  # step budget of each flow stage; the 210-point region scan takes at most 17 coarse and 15 fine steps
FLOW_TOL = 1e-8  # flow stops at this residual infinity-norm
COARSE_FLOW_TOL = 1e-5  # the flow's coarse stage stops at this residual, below what prolongation carries to the full mesh
COARSE_NODES = 250  # fewest intervals of the coarse grid on which continuation walks its route


def __getattr__(name: str):
    """solver.solve_banded, imported on first access: perfbench/tracing.py wraps it by name, and no solve calls it."""
    if name == "solve_banded":
        from scipy.linalg import solve_banded

        return solve_banded
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class SolveConfig:
    """Per-run solver settings: the Newton residual target and the fallback ladder's q values.

    Raises ParameterError unless tol_residual is a finite number > 0.
    """

    tol_residual: float = 1e-10
    continuation_steps: Sequence[float] | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.tol_residual) and self.tol_residual > 0.0):
            raise ParameterError(f"tol_residual must be a finite number > 0, got {self.tol_residual}")

    def ladder(self, p_target: ModelParams) -> list[ModelParams]:
        """The continuation points toward p_target, one per q of continuation_steps or of the default ladder.

        Raises ParameterError unless the list is nonempty, nondecreasing and
        ends within 1e-12 of the target q, and validate_params' error for a
        q outside [0, q_max); the last point is p_target itself, so the last
        leg solves at exactly the target.
        """
        q_target = p_target.q
        steps = list(self.continuation_steps) if self.continuation_steps is not None else default_continuation_steps(q_target)
        if not steps:
            raise ParameterError("continuation step list must be nonempty")
        if any(b < a for a, b in zip(steps, steps[1:])):
            raise ParameterError(f"continuation q values must be nondecreasing, got {steps}")
        if not abs(steps[-1] - q_target) <= 1e-12:  # a NaN last step fails too
            raise ParameterError(f"last continuation step {steps[-1]} must equal target q {q_target}")
        return [validate_params(p_target.omega, q_k, p_target.kappa) for q_k in steps[:-1]] + [p_target]


@dataclass(frozen=True)
class SolveReport:
    """How a solve at q went, from its stop message to its wall time; frozen, so a changed report is a dataclasses.replace copy.

    converged means a solution: the residual met its target, the action is
    finite (not None) and the profile has every bound and monotonicity
    property (properties_ok).  path is the route that produced it:
    "newton" or "flow", and in a continuation trace "direct" for the Newton
    attempt at the target and "fine" for the one solve on the full mesh.
    continuation_trace is a tuple of a continuation's Newton reports, in
    order; a flow's holds its coarse stage ("coarse") and its descent on the
    full mesh ("fine"), or nothing without a coarse subgrid.  j_trace is a
    flow's tuple of J, at its start and after each accepted step.
    factorizations counts a Newton solve's Jacobian factorizations; it
    falls below iterations by the chord steps taken, and a flow keeps 0.
    """

    converged: bool
    iterations: int
    final_residual_norm: float
    action: ActionBreakdown | None
    path: str
    q: float
    continuation_trace: tuple[SolveReport, ...] = ()
    properties_ok: bool = False
    message: str = ""
    j_trace: tuple[float, ...] = ()
    wall_time: float = 0.0
    factorizations: int = 0


def _with_boundary_data(p: ModelParams, grid: RadialGrid, a, f, g) -> FieldProfile:
    """The profile of the caller's fresh arrays a, f and g on grid, with (1, 0, 0) at r = 0 and (0, pi - omega, q) at R set in them first."""
    a[0], f[0], g[0] = 1.0, 0.0, 0.0
    a[-1], f[-1], g[-1] = 0.0, p.f_infinity, p.q
    return FieldProfile(grid, a, f, g)


def initial_guess(p: ModelParams, grid: RadialGrid) -> FieldProfile:
    """Closed-form profile shapes satisfying the boundary data and strict bounds.

    a = 1/(1 + (r/rc)^2), f = (pi - omega)(1 - exp(-r/rc)), g = q r/(r + rc),
    endpoints clipped to the exact boundary values.  The core size is
    rc = max(1, sqrt(kappa)): balancing r^2 f'^2 against the quartic
    kappa a^2 sin^2 f f'^2 gives a core growing like sqrt(kappa).
    """
    r = grid.r
    rc = max(1.0, math.sqrt(p.kappa))
    a = 1.0 / (1.0 + (r / rc) ** 2)
    f = p.f_infinity * (1.0 - np.exp(-r / rc))
    g = p.q * r / (r + rc)
    return _with_boundary_data(p, grid, a, f, g)


def _require_guess_on(grid: RadialGrid, guess: FieldProfile) -> None:
    """Raise ParameterError unless guess lies on grid: the same RadialGrid or one with equal nodes."""
    theirs = guess.grid
    if not (theirs is grid or np.array_equal(theirs.r, grid.r)):
        raise ParameterError(f"guess lies on another grid (R={theirs.R:.17g}, N={theirs.N}) than the solve's (R={grid.R:.17g}, N={grid.N})")


def _start(p: ModelParams, grid: RadialGrid, guess: FieldProfile) -> FieldProfile:
    """Both solvers' start: float64 copies of guess's a, f and g on grid with the boundary data set; raises ParameterError as _require_guess_on and model._require_real do."""
    _require_guess_on(grid, guess)
    _require_real(guess)
    return _with_boundary_data(p, grid, *(np.array(v, dtype=float) for v in (guess.a, guess.f, guess.g)))


def _residual_vector(p: ModelParams, s: FieldProfile) -> tuple[np.ndarray, float]:
    ra, rf, rg = residuals(p, s)
    vec = np.empty(3 * ra.size)
    vec[0::3], vec[1::3], vec[2::3] = ra, rf, rg
    return vec, float(np.abs(vec).max())


def _scatter(ab: np.ndarray, vals: np.ndarray, rf: int, cf: int, doff: int, n: int) -> None:
    """Place d(residual rf at node k)/d(field cf at node k+doff) into banded storage."""
    band = 4 + rf - cf - 3 * doff
    if doff == 0:
        ab[band, cf::3] = vals
    elif doff == 1:
        ab[band, 3 + cf :: 3] = vals[:-1]
    else:
        ab[band, cf : 3 * (n - 1) : 3] = vals[1:]


def _band_workspace(grid: RadialGrid) -> np.ndarray:
    """LAPACK gbtrf band storage for the Newton system: 4 rows of LU fill-in above the l = u = 4 band."""
    return np.zeros((13, 3 * (grid.N - 1)), order="F")


def _jacobian_banded(p: ModelParams, s: FieldProfile, work: np.ndarray) -> np.ndarray:
    """Analytic Jacobian of the stacked residuals at the profile s, in LAPACK banded form (l = u = 4).

    Assembles into rows 4-12 of `work` (a `_band_workspace`, zeroed first) and
    returns that l = u = 4 view: ab[4 + i - j, j] = dres_i/dx_j.  The widest
    couplings, a_j with f_(j+-1), sit 4 places off the diagonal.  The
    stencil weights of a'' and of (r^2 u')' are the grid's (lap_*, stiff_*);
    sin f, cos f, sin^2 f and the interval means c_half of a^2 sin^2 f are
    the profile's state, the values that the residual sums.
    """
    grid, st = s.grid, s._state
    a, g = s.a, s.g
    h = grid.h
    hm, hp = h[:-1], h[1:]
    w, inv_r2, qbar = grid.w[1:-1], grid.inv_r2, st.qbar
    k = p.kappa
    n = grid.N - 1

    am, aj, ap = a[:-2], a[1:-1], a[2:]
    gj = g[1:-1]
    Dfm, Dfp = st.df[:-1], st.df[1:]

    sm, sj, sp_ = st.sin[:-2], st.sin[1:-1], st.sin[2:]
    cm, cj, cp_ = st.cos[:-2], st.cos[1:-1], st.cos[2:]
    s2 = st.sin2[1:-1]
    sc = sj * cj
    Cm, Cp = st.c_half[:-1], st.c_half[1:]
    react_a, react_f = _reaction_rates(p, s)

    work.fill(0.0)
    ab = work[4:]

    # residual_a partials
    _scatter(ab, grid.lap_m, 0, 0, -1, n)
    _scatter(ab, grid.lap_p, 0, 0, 1, n)
    _scatter(ab, grid.lap_0 - react_a, 0, 0, 0, n)
    _scatter(ab, k * aj * s2 * Dfm / w, 0, 1, -1, n)
    _scatter(ab, -k * aj * s2 * Dfp / w, 0, 1, 1, n)
    ra_fj = -(
        0.5 * aj * sc
        + 2.0 * k * aj * sc * qbar
        + k * aj * s2 * (Dfm - Dfp) / w
        + 4.0 * k * st.a3 * s2 * sc * inv_r2
    )
    _scatter(ab, ra_fj, 0, 1, 0, n)
    _scatter(ab, aj * gj, 0, 2, 0, n)

    # residual_f partials
    rf_fm = 8.0 * k * (Cm / hm - am * am * sm * cm * Dfm) / w + grid.stiff_m + 8.0 * k * aj * aj * sc * Dfm / w
    rf_fp = 8.0 * k * (Cp / hp + ap * ap * sp_ * cp_ * Dfp) / w + grid.stiff_p - 8.0 * k * aj * aj * sc * Dfp / w
    rf_fj = (
        8.0 * k * (aj * aj * sc * (Dfp - Dfm) - Cp / hp - Cm / hm) / w
        - grid.stiff_0
        - (react_f + 8.0 * k * aj * aj * sc * (Dfm - Dfp) / w)
    )
    _scatter(ab, rf_fm, 1, 1, -1, n)
    _scatter(ab, rf_fp, 1, 1, 1, n)
    _scatter(ab, rf_fj, 1, 1, 0, n)
    _scatter(ab, -8.0 * k * am * st.sin2[:-2] * Dfm / w, 1, 0, -1, n)
    _scatter(ab, 8.0 * k * ap * st.sin2[2:] * Dfp / w, 1, 0, 1, n)
    rf_aj = 8.0 * k * aj * s2 * (Dfp - Dfm) / w - (
        4.0 * aj * sc + 16.0 * k * aj * sc * qbar + 32.0 * k * st.a3 * s2 * sc * inv_r2
    )
    _scatter(ab, rf_aj, 1, 0, 0, n)

    # residual_g partials
    _scatter(ab, grid.stiff_m, 2, 2, -1, n)
    _scatter(ab, grid.stiff_p, 2, 2, 1, n)
    _scatter(ab, -grid.stiff_0 - 2.0 * aj * aj, 2, 2, 0, n)
    _scatter(ab, -4.0 * aj * gj, 2, 0, 0, n)
    return ab


def _banded_solver(work: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Factorize the Jacobian assembled in `work` in place (LAPACK gbtrf); returns solve(b) -> J^(-1) b.

    Each solve is a gbtrs on the same factors, so gbtrf + one solve is
    bitwise the gbsv step, and scipy.linalg.solve_banded((4, 4), J, b).
    Raises NumericError on non-finite input (the matrix here, b in solve)
    and on an exactly singular factor.
    """
    _require_finite(work)
    lu, ipiv, info = dgbtrf(work, 4, 4, overwrite_ab=1)
    _raise_for_info(info, "gbtrf")

    def solve(b: np.ndarray) -> np.ndarray:
        _require_finite(b)
        x, info = dgbtrs(lu, 4, 4, b, ipiv)
        _raise_for_info(info, "gbtrs")
        return x

    return solve


def _report(
    p: ModelParams,
    s: FieldProfile,
    converged: bool,
    iterations: int,
    norm: float,
    action: ActionBreakdown | None,
    path: str,
    message: str,
    t0: float,
    factorizations: int = 0,
) -> SolveReport:
    """The report of a solve that stopped at s, started at perf_counter() t0.

    converged is whether the residual met its target.  The report is not
    converged when action is None (the caller's message stays) or when a
    solution property fails (the message names the first that fails).
    """
    props_ok, prop_msg = solution_properties_ok(p, s)
    converged = converged and action is not None
    if converged and not props_ok:
        converged = False
        message = f"converged residuals but solution properties violated: {prop_msg}"
    wall_time = time.perf_counter() - t0
    return SolveReport(
        converged, iterations, float(norm), action, path, p.q, properties_ok=props_ok, message=message, wall_time=wall_time, factorizations=factorizations
    )


def _trial_state(p: ModelParams, s: FieldProfile, delta: np.ndarray) -> tuple[FieldProfile, np.ndarray, float]:
    """(profile, residual vector, residual norm) of s plus the interleaved interior step delta, in fresh arrays with the boundary data set; the residual forms the profile's state."""
    fields = [np.empty(s.grid.N + 1) for _ in range(3)]
    for c, (new, old) in enumerate(zip(fields, (s.a, s.f, s.g))):
        np.add(old[1:-1], delta[c::3], out=new[1:-1])
    trial = _with_boundary_data(p, s.grid, *fields)
    return (trial, *_residual_vector(p, trial))


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def newton_solve(
    p: ModelParams, grid: RadialGrid, guess: FieldProfile, cfg: SolveConfig | None = None
) -> tuple[FieldProfile, SolveReport]:
    """Damped Newton on the stacked interior residuals, reusing a factorization while Newton contracts fast.

    Each iteration assembles the Jacobian at the iterate, factorizes it
    (_banded_solver) and backtracks from the full step until the residual
    norm falls (Armijo) or meets its target.  A full step that cuts the
    norm to CHORD_CONTRACTION times its old value or less keeps its
    factors, and the next iteration first tries the chord step
    x - J_old^(-1) F(x) at full length from the iterate x.  That step is
    kept, and counts as an iteration, only if it meets the target or cuts
    the norm by the same factor; otherwise it is discarded, and the
    iteration assembles and factorizes at x as usual.  With fresh factors
    a step is bitwise the gbsv step.

    The iterate is a profile, from _start's clamped copy of guess on, and
    each trial a new one (_trial_state).  Before the trials the iterate's
    state is released by wrapping its arrays in a new profile, which copies
    nothing; after a discarded chord trial the Jacobian forms it again.
    The report's action sums the state that the last iterate's residual
    read, unless a failed iteration had released it; when a term of it is not
    finite (NumericError), the report is not converged, its action is None
    and its message, unless a stop set one, is "action not evaluable: ...".
    Returns the last iterate and a report; a non-finite starting residual,
    line-search stalls and Jacobian factorization failures produce a
    non-converged report, never a crash or a numpy warning.  Raises
    ParameterError when guess lies on another grid (_require_guess_on) or
    a, f or g is complex (model._require_real).
    """
    s = _start(p, grid, guess)
    cfg = cfg or SolveConfig()
    t0 = time.perf_counter()
    rvec, norm = _residual_vector(p, s)
    work = _band_workspace(grid)
    solve = None  # the factors a chord trial reuses, while Newton contracts fast
    iters = factorizations = 0
    message = "" if np.isfinite(norm) else f"non-finite residual ({norm}) at the starting profile"
    while not message and norm > cfg.tol_residual and iters < MAX_NEWTON_ITERS:
        trial = None
        if solve is not None:
            s = FieldProfile(grid, s.a, s.f, s.g)  # the iterate's state, freed as before the line search below
            delta = solve(-rvec)
            trial = _trial_state(p, s, delta)
            if not (trial[-1] <= cfg.tol_residual or trial[-1] <= CHORD_CONTRACTION * norm):
                trial = None
        if trial is None:
            _jacobian_banded(p, s, work)
            # the iterate's state is released before the trials: kept beside each trial's own, it
            # raises the traced peak of an N = 8000 continuation_solve from 5.09 to 5.80 MB
            s = FieldProfile(grid, s.a, s.f, s.g)
            try:
                solve = _banded_solver(work)
                factorizations += 1
                delta = solve(-rvec)
            except NumericError as exc:
                message = f"jacobian factorization failed: {exc}"
                break
            if not np.all(np.isfinite(delta)):
                message = "jacobian solve produced non-finite step"
                break
            step = 1.0
            while step >= MIN_STEP:
                trial = _trial_state(p, s, delta)
                norm_try = trial[-1]
                if np.isfinite(norm_try) and (norm_try <= (1.0 - 1e-4 * step) * norm or norm_try <= cfg.tol_residual):
                    break
                step *= BACKTRACK_FACTOR
                # in place, as a scaled copy beside delta kept that traced peak at 5.28 MB; halving
                # is exact above the subnormal range, so delta stays bitwise step times the Newton step
                delta *= BACKTRACK_FACTOR
            else:
                message = f"line search stalled at step < {MIN_STEP} (residual {norm:.3e})"
                break
            if not (step == 1.0 and norm_try <= CHORD_CONTRACTION * norm):
                solve = None
        s, rvec, norm = trial
        iters += 1
    converged = norm <= cfg.tol_residual
    if not (converged or message):
        message = f"iteration budget of {MAX_NEWTON_ITERS} exhausted at residual {norm:.3e}"
    action = None
    try:
        action = action_breakdown(p, s)
    except NumericError as exc:  # a non-finite term of the last iterate
        message = message or f"action not evaluable: {exc}"
    return s, _report(p, s, converged, iters, norm, action, "newton", message, t0, factorizations)


def _flow_reactions(p: ModelParams, s: FieldProfile):
    """Positive parts of the diagonal reaction rates of the a- and f-equations at the profile s."""
    react_a, react_f = _reaction_rates(p, s)
    return np.maximum(react_a, 0.0), np.maximum(react_f, 0.0)


def _lbfgs_direction(
    grad: np.ndarray, memory: Sequence[tuple[np.ndarray, np.ndarray, float]], precond: Callable[[np.ndarray], np.ndarray]
) -> np.ndarray:
    """-H grad by the L-BFGS two-loop recursion (Nocedal, Math. Comp. 35, 1980).

    memory holds (s, y, 1/(s.y)) pairs, oldest first; precond(v) applies
    the initial inverse Hessian H0, so an empty memory gives -H0 grad.
    """
    q = grad.copy()
    alphas = []
    for s, y, rho in reversed(memory):
        alpha = rho * (s @ q)
        q -= alpha * y
        alphas.append(alpha)
    r = precond(q)
    for (s, y, rho), alpha in zip(memory, reversed(alphas)):
        r += (alpha - rho * (y @ r)) * s
    return -r


def _flow_state(p: ModelParams, grid: RadialGrid, a: np.ndarray, f: np.ndarray) -> tuple[FieldProfile, ActionBreakdown]:
    """(profile, action) of the flow state (a, f), with g solved from a.

    The profile's state, which the action sums, also serves its residuals,
    reaction rates and preconditioner once it is accepted.  Raises
    NumericError when the electric solve fails or the action is not finite.
    """
    s = FieldProfile(grid, a, f, solve_inner_g(p, grid, a))
    return s, action_breakdown(p, s)


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def flow_solve(p: ModelParams, grid: RadialGrid, guess: FieldProfile) -> tuple[FieldProfile, SolveReport]:
    """Descent on the reduced functional J(a, f) = E1(a, f) - E2(a, g(a)), started on the coarse subgrid.

    g is re-solved from a at every trial (so the g-equation holds exactly
    along the whole path), and J is driven down along limited-memory BFGS
    directions in the interior (a, f) values (_flow_descent).  When
    _coarse_grid(grid) is a proper subgrid, the descent first runs there
    from the guess's coarse nodes (every k-th node) until its residual
    reaches COARSE_FLOW_TOL, about the accuracy that cubic interpolation
    in the node index (_prolong) carries to grid (nested iteration;
    Briggs, Henson & McCormick, A Multigrid Tutorial, 2nd ed., SIAM 2000,
    ch. 3).  The descent on grid then starts from the prolonged coarse
    iterate when the coarse residual reached COARSE_FLOW_TOL, whatever its
    property checks say, and from the guess otherwise; without a coarse
    subgrid (N < 2 * COARSE_NODES or N odd) it is the only stage.  Each
    stage ends when its residual infinity-norm reaches its target or
    after FLOW_MAX_STEPS accepted steps.  Like newton_solve, it starts
    from _start's clamped copy of guess on grid.

    The returned report is the descent on grid's: its steps, J trace,
    residual, message and properties, path "flow".  Its wall time covers
    both stages, and its continuation_trace holds the two stages' own
    reports in order (paths "coarse" and "fine"), or nothing without a
    coarse stage.  A start whose a or f is not finite ends at once, in a
    non-converged report with 0 steps that names the node, and so does a
    start on grid whose electric solve or action is not finite.  The flow
    runs without numpy warnings and never assembles the Newton Jacobian.
    Raises ParameterError when guess lies on another grid (_require_guess_on)
    or a, f or g is complex (model._require_real).
    """
    s = _start(p, grid, guess)
    t0 = time.perf_counter()
    for name in ("a", "f"):  # g is re-solved from a
        bad = np.flatnonzero(~np.isfinite(getattr(s, name)))
        if bad.size:
            message = f"non-finite {name} at node {bad[0]} of the starting profile"
            return s, _report(p, s, False, 0, float("nan"), None, "flow", message, t0)
    coarse = _coarse_grid(grid)
    trace: list[SolveReport] = []
    if coarse is not grid:
        k = grid.N // coarse.N
        s_coarse, report = _flow_descent(p, FieldProfile(coarse, s.a[::k].copy(), s.f[::k].copy(), s.g[::k].copy()), COARSE_FLOW_TOL)
        trace.append(replace(report, path="coarse"))
        if report.final_residual_norm <= COARSE_FLOW_TOL:
            a, f = _prolong(np.stack((s_coarse.a, s_coarse.f)), k)
            s = FieldProfile(grid, a, f, s.g)
    s, report = _flow_descent(p, s, FLOW_TOL)
    if trace:
        trace.append(replace(report, path="fine"))
    return s, replace(report, continuation_trace=tuple(trace), wall_time=time.perf_counter() - t0)


def _flow_descent(p: ModelParams, s: FieldProfile, tol: float) -> tuple[FieldProfile, SolveReport]:
    """The flow's L-BFGS descent on s.grid from the a and f of s, until the residual infinity-norm reaches tol.

    The J-gradient is G = (-8 w res_a, -w res_f), exact by the model
    identity, since the inner solve makes the g-gradient vanish.  The
    direction is -H G from the two-loop recursion over the last
    LBFGS_MEMORY pairs (s, y) of state and gradient changes; a pair is kept
    only when s.y > 0, and the memory is cleared whenever -H G is not a
    descent direction.  The initial inverse Hessian H0 is the implicit flow
    step with time step FLOW_DT at the current state: per field it solves
    (I - c*(K - diag(reaction))) u = (dt/w) v, with K u = (k_p Du_p - k_m
    Du_m)/w (c = 8 dt and k = 1 for a; c = dt and k the f flux coefficient
    r_i r_(i+1) + 8 kappa c_half for f, c_half the state's interval means
    of a^2 sin^2 f) and reaction >= 0 the stabilizing part of the local
    reaction rate, which removes the stiffness of the zero-order terms
    (notably (3a^2-1)/r^2 near the origin) from the operator.  diag(w)
    times that operator is symmetric positive definite, so H0 is too, and
    with an empty memory the direction is the implicit flow step of time
    dt.  With each row multiplied by its w, H0 v is the solve of one SPD
    tridiagonal system for dt*v, the two fields' blocks with zero coupling
    at the seam: a-rows w + c (1/h_m + 1/h_p + w react_a) on the diagonal
    and -c/h off it, f-rows w + dt (k_m/h_m + k_p/h_p + w react_f) and -dt
    k/h.  It is factorized once per state as L D L^T, without pivoting; a
    factorization or solve that fails ends the descent in a non-converged
    report, "flow preconditioner factorization failed: ...", as a failed
    Jacobian factorization ends Newton.  The step length halves from 1
    until J_try <= J + 1e-4 step (d.G) + 1e-12 (1 + |J|); a trial whose
    electric solve fails or whose action is not finite halves it too.
    Below MIN_STEP the descent stops with "flow step size underflow at
    residual R", and after FLOW_MAX_STEPS accepted steps with "flow step
    budget exhausted at residual R".

    Each trial profile is evaluated once: its state serves its action and,
    once accepted, its residuals, its reaction rates and its
    preconditioner.  The descent returns the last accepted profile as it
    is; the report's action is that profile's, and it is converged when
    the residual met tol.  A start whose electric solve fails or whose action
    is not finite ends at once, with s and a non-converged report with 0
    steps that names the failure.
    """
    t0 = time.perf_counter()
    grid = s.grid
    try:
        s, action = _flow_state(p, grid, s.a, s.f)
    except NumericError as exc:
        return s, _report(p, s, False, 0, float("nan"), None, "flow", f"{exc} of the starting profile", t0)
    J = action.L
    j_trace = [J]
    hm, hp = grid.h[:-1], grid.h[1:]
    w = grid.w[1:-1]
    k_a = 1.0 / hm + 1.0 / hp  # grid-only: w times the a-operator's diagonal K part
    dt = FLOW_DT
    c = 8.0 * dt
    n = grid.N - 1
    # H0's a- and f-systems, each row times its w, as one SPD tridiagonal
    # system of 2n unknowns: a first, then f, uncoupled at the seam; the a
    # off-diagonal is grid-only
    diag, off = np.empty(2 * n), np.zeros(2 * n - 1)
    off[: n - 1] = -c / grid.h[1:-1]
    memory: deque = deque(maxlen=LBFGS_MEMORY)
    x_prev = grad_prev = None
    accepted = 0
    message = ""
    while True:
        ra, rf, rg = residuals(p, s)
        norm = max(np.abs(ra).max(), np.abs(rf).max(), np.abs(rg).max())
        if norm <= tol:
            break
        if accepted == FLOW_MAX_STEPS:
            message = f"flow step budget exhausted at residual {norm:.3e}"
            break
        x = np.concatenate((s.a[1:-1], s.f[1:-1]))
        grad = np.concatenate((-8.0 * w * ra, -w * rf))
        if x_prev is not None:
            dx, dgrad = x - x_prev, grad - grad_prev
            sy = dx @ dgrad
            if sy > 0.0:
                memory.append((dx, dgrad, 1.0 / sy))
        x_prev, grad_prev = x, grad

        react_a, react_f = _flow_reactions(p, s)
        coeff_f = grid.p_half + 8.0 * p.kappa * s._state.c_half
        diag[:n] = w + c * (k_a + w * react_a)
        diag[n:] = w + dt * (coeff_f[:-1] / hm + coeff_f[1:] / hp + w * react_f)
        off[n:] = -dt * coeff_f[1:-1] / grid.h[1:-1]
        try:
            solve = _spd_tridiagonal_solver(diag, off)

            def precond(v):
                return solve(dt * v)

            d = _lbfgs_direction(grad, memory, precond)
            slope = d @ grad
            if not slope < 0.0:
                memory.clear()
                d = -precond(grad)
                slope = d @ grad
        except NumericError as exc:
            message = f"flow preconditioner factorization failed: {exc}"
            break
        step = 1.0
        while step >= MIN_STEP:
            a_try = s.a.copy()
            f_try = s.f.copy()
            a_try[1:-1] += step * d[:n]
            f_try[1:-1] += step * d[n:]
            try:
                s_try, action_try = _flow_state(p, grid, a_try, f_try)
                J_try = action_try.L
            except NumericError:  # rejected, as a trial that raises J is
                J_try = math.inf
            if J_try <= J + 1e-4 * step * slope + 1e-12 * (1.0 + abs(J)):
                s, action, J = s_try, action_try, J_try
                j_trace.append(J)
                accepted += 1
                break
            step *= BACKTRACK_FACTOR
        else:
            message = f"flow step size underflow at residual {norm:.3e}"
            break
    return s, replace(_report(p, s, bool(norm <= tol), accepted, norm, action, "flow", message, t0), j_trace=tuple(j_trace))


def default_continuation_steps(q_target: float, legs: int = 6) -> list[float]:
    """q values walked during continuation: 0 up to the target inclusive."""
    if q_target == 0.0:
        return [0.0]
    if legs < 2:
        raise ParameterError(f"need at least 2 continuation legs for q > 0, got {legs}")
    return list(np.linspace(0.0, q_target, legs))


def _coarse_grid(grid: RadialGrid) -> RadialGrid:
    """Every k-th node of grid, for the largest power of two k dividing N with N/k >= COARSE_NODES.

    Returns grid itself when no such k > 1 exists (N < 2 * COARSE_NODES or N odd).
    """
    k = 1
    while grid.N % (2 * k) == 0 and grid.N // (2 * k) >= COARSE_NODES:
        k *= 2
    return grid if k == 1 else RadialGrid(grid.r[::k])


def _prolong(v: np.ndarray, k: int) -> np.ndarray:
    """Nodal values on a mesh whose every k-th node carries v, by cubic interpolation in the node index.

    v holds one field per row, or is a single 1-D field; the nodes run
    along its last axis.  The fine node at fraction t = m/k of coarse
    interval j takes the cubic through coarse nodes j-1 .. j+2; the first
    and last intervals use the cubic through the first and last four
    coarse nodes.  The coarse nodes keep their values bitwise, and a cubic
    in the node index is reproduced to round-off.
    """
    t = np.arange(k) / k
    # Lagrange weights of four consecutive coarse nodes at s = t, 1 + t and
    # 2 + t from the first: the first, an inner and the last interval
    s = np.stack((t, 1.0 + t, 2.0 + t))
    w = (
        -(s - 1.0) * (s - 2.0) * (s - 3.0) / 6.0,
        s * (s - 2.0) * (s - 3.0) / 2.0,
        -s * (s - 1.0) * (s - 3.0) / 2.0,
        s * (s - 1.0) * (s - 2.0) / 6.0,
    )
    nc = v.shape[-1] - 1
    fine = np.empty(v.shape[:-1] + (nc, k))
    fine[..., 0, :] = sum(wi[0] * v[..., i, None] for i, wi in enumerate(w))
    fine[..., 1:-1, :] = sum(wi[1] * v[..., i : nc - 2 + i, None] for i, wi in enumerate(w))
    fine[..., -1, :] = sum(wi[2] * v[..., nc - 3 + i, None] for i, wi in enumerate(w))
    return np.concatenate((fine.reshape(v.shape[:-1] + (-1,)), v[..., -1:]), axis=-1)


def continuation_solve(
    p_target: ModelParams, grid: RadialGrid, cfg: SolveConfig | None = None
) -> tuple[FieldProfile, SolveReport]:
    """Choose and walk the route on the coarse subgrid, then run one Newton solve on grid.

    The route runs on _coarse_grid(grid): Newton at the target from
    initial_guess, kept when it converges; otherwise the q ladder
    cfg.ladder(p_target), its first leg from initial_guess and each later
    one from the previous leg's a and f and its g times q_k / q_prev (the
    initial guess's g after a leg at q = 0), clamped by newton_solve's
    _start as any guess is, up to the first leg that fails.  A one-entry
    ladder is itself the direct solve.  The route's last iterate, carried
    onto grid by cubic interpolation in the node index (_prolong), starts
    one newton_solve on grid at the q of the route's last leg, whether or
    not the route succeeded; without a coarse subgrid (N < 2 *
    COARSE_NODES) the route ran on grid and there is no fine solve.

    continuation_trace holds each newton_solve's own report, in order: the
    direct attempt (path "direct"), the ladder legs ("newton"), then the
    fine solve ("fine"), each with its q, stop message, action and wall
    time.  The returned report is a copy of the last one with the whole
    trace and the continuation's wall time; it is converged only if that
    solve converged and the route did not abort.  An abort's message names
    the failed q, the last converged q, if any, that leg's reason and the
    fine solve's.
    """
    cfg = cfg or SolveConfig()
    t0 = time.perf_counter()
    ladder = cfg.ladder(p_target)
    coarse = _coarse_grid(grid)

    trace: list[SolveReport] = []
    p_k, aborted = p_target, ""
    if len(ladder) > 1:
        profile, report = newton_solve(p_target, coarse, initial_guess(p_target, coarse), cfg)
        trace.append(replace(report, path="direct"))
    if not (trace and trace[-1].converged):
        p_prev: ModelParams | None = None
        for p_k in ladder:
            if p_prev is None:
                guess = initial_guess(p_k, coarse)
            else:  # omega is fixed along the ladder, so only g is rescaled
                g = profile.g * (p_k.q / p_prev.q) if p_prev.q > 0.0 else initial_guess(p_k, coarse).g
                guess = FieldProfile(coarse, profile.a, profile.f, g)
            profile, report = newton_solve(p_k, coarse, guess, cfg)
            trace.append(report)
            if not report.converged:
                last = "no ladder leg converged" if p_prev is None else f"last converged q={p_prev.q:.6g}"
                aborted = f"continuation aborted at q={p_k.q:.6g}; {last}. {report.message}"
                break
            p_prev = p_k

    if coarse is not grid:
        a, f, g = _prolong(np.stack((profile.a, profile.f, profile.g)), grid.N // coarse.N)
        profile, report = newton_solve(p_k, grid, FieldProfile(grid, a, f, g), cfg)
        trace.append(replace(report, path="fine"))
        if aborted and report.message:
            aborted = f"{aborted}; fine solve: {report.message}"
    end = trace[-1]
    wall_time = time.perf_counter() - t0
    return profile, replace(end, converged=end.converged and not aborted, message=aborted or end.message, continuation_trace=tuple(trace), wall_time=wall_time)
