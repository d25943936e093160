"""Model parameters, field profiles, energies, and Euler-Lagrange residuals.

Fields live on a RadialGrid as nodal arrays (a, f, g) in the working
convention

    a(0) = 1,  f(0) = 0,      g(0) = 0,
    a(R) = 0,  f(R) = pi - omega,  g(R) = q,

with omega in (pi/2, pi), 0 <= q < q_max(omega) and kappa >= 0.  The
original convention with f(0) = pi is recovered at the observables layer
through f_orig = pi - f; the energy densities are invariant under that
reflection.

Energy densities:

    e1 = 2*(2*a'^2 + (a^2-1)^2/r^2) + (r^2*f'^2 + 2*a^2*sin(f)^2)/2
         + 2*kappa*a^2*sin(f)^2*(2*f'^2 + a^2*sin(f)^2/r^2)
    e2 = r^2*g'^2 + 2*a^2*g^2

with static action L = integral(e1 - e2) and energy E = integral(e1 + e2).

Discretization.  Derivative-squared terms are assembled per interval
(difference quotients, with half-node coefficients r_i*r_{i+1} for r^2 and
arithmetic means for a^2*sin(f)^2); zero-order terms per node with
trapezoid weights.  The discrete action sums each interval term times
its length h_i and each node term times its dual-cell width w_i, and the
residuals below are its exact gradients:

    dL/da_j = -8 * w_j * res_a[j-1]
    dL/df_j = -1 * w_j * res_f[j-1]
    dL/dg_j = +2 * w_j * res_g[j-1]

(w_j the dual-cell width, (res_a, res_f, res_g) = residuals(p, s)).  The
flow solver, the inner electric solve and the gradient checks all rely on
this identity, so any change here must keep the action terms and the
residuals in exact correspondence.

A profile is its own state: FieldProfile._state, formed on first read and
held, is one _State of the products its readers share: sin f, cos f and
sin^2 f, the difference quotients of a, f and g, the mass a^2 sin^2 f and
its interval means, the f'^2 average _qbar and the powers a^3 and a^4,
each formed there once (what depends on the grid alone, w, 2 w, r^2 and
1/r^2 among it, the grid holds).  Every reader takes the profile alone
and reads its grid, a, f and g from it and their products from
s._state, so Newton, the flow, the verify battery and the observables
evaluate each profile once, and no reader can be handed a profile beside
the state of another.
_e1 sums _interval_e1/_nodal_e1 of a profile for E1 and for the verify
battery's coercive bound (_nodal_e1 also takes the mass term, which the
bound replaces), and _e2_form sums E2's bilinear form for e2_energy (its
diagonal), for the action and for the electric constraint residual, one
value per row for a stack of arrays.  _reaction_rates serves the Newton
Jacobian and the flow preconditioner.

At r = 0 the nodal 1/r^2 terms take their regular-limit value 0, which
requires the origin data a_0 = +-1, sin(f_0) = 0; other origin values make
the energy divergent and are reported as non-finite.  Residuals are never
evaluated at the endpoints: Dirichlet data supplies the two boundary rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import NumericError, ParameterError, RegionError
from .grid import RadialGrid

__all__ = [
    "ModelParams",
    "FieldProfile",
    "ActionBreakdown",
    "validate_params",
    "admissible_q_max",
    "action_breakdown",
    "e2_energy",
    "residuals",
    "CheckResult",
    "property_checks",
    "solution_properties_ok",
]


@dataclass(frozen=True)
class ModelParams:
    """Validated model parameters; construct through validate_params."""

    omega: float
    q: float
    kappa: float

    @property
    def f_infinity(self) -> float:
        return math.pi - self.omega


def admissible_q_max(omega: float) -> float:
    """Upper bound min(sin(omega)/sqrt(2), sqrt(2)*(1 - omega/pi)) on q."""
    return min(math.sin(omega) / math.sqrt(2.0), math.sqrt(2.0) * (1.0 - omega / math.pi))


def validate_params(omega: float, q: float, kappa: float) -> ModelParams:
    """Check (omega, q, kappa) against the admissible region and package them.

    omega must lie strictly between pi/2 and pi; q in [0, q_max) where
    q_max = min(sin(omega)/sqrt(2), sqrt(2)*(1 - omega/pi)); kappa >= 0.
    q = 0 is admitted as the monopole limit used to start continuation.
    kappa = 0 selects the gauged sigma-model limit.
    """
    for name, val in (("omega", omega), ("q", q), ("kappa", kappa)):
        if not np.isfinite(val):
            raise ParameterError(f"{name} must be finite, got {val}")
    if not math.pi / 2.0 < omega < math.pi:
        raise RegionError(f"omega must lie strictly inside (pi/2, pi), got omega={omega}")
    q_max = admissible_q_max(omega)
    if q < 0.0 or q >= q_max:
        raise RegionError(f"q must lie in [0, q_max) with q_max={q_max:.6g} at omega={omega}, got q={q}")
    if kappa < 0.0:
        raise ParameterError(f"kappa must be >= 0, got {kappa}")
    return ModelParams(omega=float(omega), q=float(q), kappa=float(kappa))


@dataclass(frozen=True, eq=False)
class FieldProfile:
    """Nodal arrays (a, f, g) on a shared grid, and their state: frozen, compared and hashed by identity, as grids are.

    Construction stores a read-only view of np.asarray of each field (so
    lists work, and a write into a built profile raises ValueError) and
    checks only that it holds one value per node (shape (N+1,); any dtype,
    so complex-step profiles build too), raising ParameterError otherwise;
    the solvers, run_suite, observables, action_breakdown and
    solution_properties_ok reject a complex one (_require_real).  It does
    not enforce the boundary data (unit tests probe synthetic
    configurations freely); the solvers build their profiles through
    solver._with_boundary_data, and run_suite's boundary-values row
    measures it.  _state, formed on first read and held as a grid holds
    its lazy arrays, is the profile's _State; every model reader takes the
    profile and reads it.
    """

    grid: RadialGrid
    a: np.ndarray
    f: np.ndarray
    g: np.ndarray

    def __post_init__(self) -> None:
        for name in ("a", "f", "g"):
            values = np.asarray(getattr(self, name))
            if values.shape != (self.grid.N + 1,):
                raise ParameterError(f"{name} must have {self.grid.N + 1} nodal values, got {values.shape}")
            view = values.view()
            view.setflags(write=False)
            object.__setattr__(self, name, view)

    @cached_property
    @np.errstate(divide="ignore", invalid="ignore", over="ignore")  # any reader may be the first, and a profile may overflow
    def _state(self) -> _State:
        grid, a, f, g = self.grid, self.a, self.f, self.g
        h = grid.h
        sin = np.sin(f)
        sin2 = sin**2
        mass = a * a * sin2
        # u[1:] - u[:-1] is np.diff(u) without its call overhead
        df = (f[1:] - f[:-1]) / h
        aj = a[1:-1]
        return _State(
            sin, np.cos(f), sin2, (a[1:] - a[:-1]) / h, df, (g[1:] - g[:-1]) / h, mass, 0.5 * (mass[:-1] + mass[1:]), _qbar(grid, df), aj**3, aj**4
        )


def _require_real(s: FieldProfile) -> None:
    """Raise ParameterError naming the first of a, f and g whose dtype is complex.

    newton_solve, flow_solve, run_suite, observables, action_breakdown and
    solution_properties_ok call it: numpy would drop the imaginary part
    there with a ComplexWarning.  The complex-step paths (residuals,
    e2_energy, solve_inner_g, constraint_residual) take complex arrays,
    give complex results and do not call it.
    """
    for name in ("a", "f", "g"):
        values = getattr(s, name)
        if np.iscomplexobj(values):
            raise ParameterError(f"{name} must be real, got dtype {np.asarray(values).dtype}")


@dataclass(frozen=True)
class ActionBreakdown:
    """Split of the static action: L = E1 - E2, E = E1 + E2, E1, E2 >= 0."""

    E1: float
    E2: float
    L: float
    E: float


class _State(NamedTuple):
    """The products of a profile's a, f and g that the model's readers share, each formed once by FieldProfile._state."""

    sin: np.ndarray  # sin(f) at all N+1 nodes
    cos: np.ndarray  # cos(f) at all N+1 nodes
    sin2: np.ndarray  # sin^2(f) at all N+1 nodes
    da: np.ndarray  # a difference quotients on all N intervals
    df: np.ndarray  # f difference quotients on all N intervals
    dg: np.ndarray  # g difference quotients on all N intervals
    mass: np.ndarray  # a^2 sin^2(f) at all N+1 nodes
    c_half: np.ndarray  # interval means of mass
    qbar: np.ndarray  # dual-cell average of f'^2 at interior nodes
    a3: np.ndarray  # a^3 at interior nodes
    a4: np.ndarray  # a^4 at interior nodes


def _interval_e1(p: ModelParams, s: FieldProfile, r2_coeff):
    """Per-interval part of e1 (r2_coeff = 1/2): 4*a'^2 + r2_coeff*r^2*f'^2 + 4*kappa*(a^2 sin^2 f)*f'^2."""
    st = s._state
    return 4.0 * st.da * st.da + (r2_coeff * s.grid.p_half + 4.0 * p.kappa * st.c_half) * st.df * st.df


def _nodal_e1(p: ModelParams, s: FieldProfile, mass):
    """Per-node part of e1 of the profile s: 2*(a^2-1)^2/r^2 + mass + 2*kappa*a^4 sin^4 f / r^2.

    mass is the state's a^2 sin^2 f for E1; the coercive bound passes its own.
    """
    grid, a, sin2 = s.grid, s.a, s._state.sin2
    dtype = np.result_type(a, sin2, float)
    a2 = a * a
    core = np.empty(grid.N + 1, dtype=dtype)
    core[1:] = (a2[1:] - 1.0) ** 2 / grid.r2
    core[0] = 0.0 if a2[0] == 1.0 else np.inf
    out = 2.0 * core + mass
    if p.kappa != 0.0:
        sky = np.empty(grid.N + 1, dtype=dtype)
        sky[1:] = (a2[1:] * sin2[1:]) ** 2 / grid.r2
        sky[0] = 0.0 if sin2[0] == 0.0 else np.inf
        out = out + 2.0 * p.kappa * sky
    return out


def _e1(p: ModelParams, s: FieldProfile, r2_coeff, mass):
    """Discrete E1 of the profile s, for r^2 f'^2 coefficient r2_coeff and mass term mass.

    Interval terms times h plus node terms times w.
    """
    return np.dot(_interval_e1(p, s, r2_coeff), s.grid.h) + np.dot(_nodal_e1(p, s, mass), s.grid.w)


def _e2_terms(grid: RadialGrid, a, g, G, dG=None):
    """Per-interval part r^2 g' G' and per-node part 2 a^2 g G of E2's bilinear form.

    dG, when given, must be np.diff(G) / grid.h.  It stays a keyword because
    its one caller, action_breakdown, passes the state's dg, which the
    action would otherwise form again.
    """
    if dG is None:
        dG = np.diff(G) / grid.h
    dg = dG if g is G else np.diff(g) / grid.h  # the diagonal differences once
    return grid.p_half * dg * dG, 2.0 * a * a * g * G


def _e2_form(grid: RadialGrid, a, g, G, dG=None):
    """Discrete bilinear form of E2: interval terms times h plus node terms times w.

    G may be a stack of arrays, one per row; the result then holds one value
    per row, each summed by the same two dots as a single G, so bitwise the
    same.  dG, when given, must be np.diff(G) / grid.h.
    """
    interval, nodal = _e2_terms(grid, a, g, G, dG)
    if interval.ndim == 1:
        return np.dot(interval, grid.h) + np.dot(nodal, grid.w)
    return np.array([np.dot(i, grid.h) + np.dot(n, grid.w) for i, n in zip(interval, nodal)])


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def e2_energy(grid: RadialGrid, a, g):
    """Discrete E2(a, g), the diagonal of _e2_form, per row for a stack of g; kappa-independent."""
    g = np.asarray(g)
    return _e2_form(grid, np.asarray(a), g, g)


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def action_breakdown(p: ModelParams, s: FieldProfile) -> ActionBreakdown:
    """E1 and E2 of the discrete action of the profile s, L = E1 - E2, E = E1 + E2, summed on its state.

    Raises NumericError naming the first node or interval whose term is not
    finite, and ParameterError when a, f or g is complex (_require_real).
    """
    _require_real(s)
    grid, a, g, st = s.grid, s.a, s.g, s._state
    E1 = float(_e1(p, s, 0.5, st.mass))
    E2 = float(_e2_form(grid, a, g, g, st.dg))
    if not (math.isfinite(E1) and math.isfinite(E2)):
        # node j sits at position 2j of the mesh and interval i, between nodes i and i+1, at 2i+1
        interval_e2, nodal_e2 = _e2_terms(grid, a, g, g, st.dg)
        terms = np.empty(2 * grid.N + 1)
        terms[0::2] = _nodal_e1(p, s, st.mass) + nodal_e2
        terms[1::2] = _interval_e1(p, s, 0.5) + interval_e2
        bad = np.flatnonzero(~np.isfinite(terms))
        if bad.size:
            k = int(bad[0]) // 2
            where = f"node {k}" if bad[0] % 2 == 0 else f"the interval from node {k} to node {k + 1}"
            raise NumericError(f"non-finite action term at {where}")
    return ActionBreakdown(E1=E1, E2=E2, L=E1 - E2, E=E1 + E2)


def _qbar(grid: RadialGrid, df):
    """Dual-cell average of f'^2 at interior nodes 1..N-1, from the quotients df of all N intervals."""
    hdd = grid.h * df * df  # h_i df_i^2 on each interval, shared by its two nodes
    return (hdd[:-1] + hdd[1:]) / grid.two_w


def _reaction_rates(p: ModelParams, s: FieldProfile):
    """d/da_j and d/df_j of the bracketed zero-order terms of res_a and res_f of the profile s.

    The f'^2 average qbar is held fixed; the Jacobian adds its cross terms.
    """
    st = s._state
    aj, gj = s.a[1:-1], s.g[1:-1]
    cj, s2 = st.cos[1:-1], st.sin2[1:-1]
    k, qbar, inv_r2 = p.kappa, st.qbar, s.grid.inv_r2
    react_a = (
        (3.0 * aj * aj - 1.0) * inv_r2
        + 0.25 * s2
        + k * s2 * qbar
        + 3.0 * k * aj * aj * s2 * s2 * inv_r2
        - 0.5 * gj * gj
    )
    cos2 = cj * cj - s2
    react_f = (
        2.0 * aj * aj * cos2
        + 8.0 * k * aj * aj * cos2 * qbar
        + 8.0 * k * st.a4 * s2 * (3.0 * cj * cj - s2) * inv_r2
    )
    return react_a, react_f


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def residuals(p: ModelParams, s: FieldProfile):
    """Vectorized (residual_a, residual_f, residual_g) of the profile s over interior nodes 1..N-1, read from its state.

    residual_a = a'' - [a(a^2-1)/r^2 + a sin^2(f)/4 + kappa a sin^2(f) f'^2
                        + kappa a^3 sin^4(f)/r^2 - a g^2/2]
    residual_f = 8 kappa D(a^2 sin^2(f) f') + (r^2 f')'
                 - [2 a^2 sin f cos f + 8 kappa a^2 sin f cos f f'^2
                    + 8 kappa a^4 sin^3(f) cos f / r^2]
    residual_g = (r^2 g')' - 2 a^2 g

    f'^2 factors use the dual-cell average of interval difference quotients
    and D(.) the conservative flux stencil, so each residual is the exact
    gradient of the discrete action (see module docstring).  A profile
    whose values overflow gives non-finite residuals, not a numpy warning.
    """
    grid, a, g, st = s.grid, s.a, s.g, s._state
    w, inv_r2, qbar = grid.w[1:-1], grid.inv_r2, st.qbar
    k = p.kappa
    aj, gj = a[1:-1], g[1:-1]
    sj, cj, s2 = st.sin[1:-1], st.cos[1:-1], st.sin2[1:-1]
    two_a2 = 2.0 * aj * aj
    # interval fluxes r^2 f', a^2 sin^2(f) f' and r^2 g', each differenced at the nodes
    flux_r2f = grid.p_half * st.df
    flux_cf = st.c_half * st.df
    flux_r2g = grid.p_half * st.dg

    da = st.da
    app = (da[1:] - da[:-1]) / w
    res_a = app - (
        aj * (aj * aj - 1.0) * inv_r2
        + 0.25 * aj * s2
        + k * aj * s2 * qbar
        + k * st.a3 * s2 * s2 * inv_r2
        - 0.5 * aj * gj * gj
    )

    sl_f = (flux_r2f[1:] - flux_r2f[:-1]) / w
    flux_f = (flux_cf[1:] - flux_cf[:-1]) / w
    res_f = (
        8.0 * k * flux_f
        + sl_f
        - (
            two_a2 * sj * cj
            + 8.0 * k * aj * aj * sj * cj * qbar
            + 8.0 * k * st.a4 * s2 * sj * cj * inv_r2
        )
    )

    sl_g = (flux_r2g[1:] - flux_r2g[:-1]) / w
    res_g = sl_g - two_a2 * gj
    return res_a, res_f, res_g


@dataclass(frozen=True)
class CheckResult:
    """One row of a check battery: the measured value, its threshold and whether it passed."""

    check_id: str
    anchor: str
    measured: float
    threshold: float
    passed: bool
    node: int | None = None  # first offending node for pointwise checks


def _property_check(check_id: str, anchor: str, measured, ok: np.ndarray, first: int = 0) -> CheckResult:
    """Row for the condition `ok`, evaluated at nodes first, first + 1, ...

    measured is the largest violation, <= 0 when the check passes; the threshold is 0.
    """
    bad = np.flatnonzero(~ok)
    return CheckResult(check_id, anchor, float(measured), 0.0, not bad.size, int(bad[0]) + first if bad.size else None)


def property_checks(p: ModelParams, s: FieldProfile) -> list[CheckResult]:
    """Pointwise bounds and strict monotonicity a solution must satisfy.

    a > 0 and strictly decreasing; 0 < f < pi - omega and strictly
    increasing; 0 < g < q and strictly increasing (g identically zero in
    the monopole limit q = 0).  Interior nodes, strict inequalities on the
    stored values, so a NaN fails every check it enters.
    """
    a, f, g = s.a, s.f, s.g
    fi, gi = f[1:-1], g[1:-1]
    da, df, dg = np.diff(a), np.diff(f), np.diff(g)
    bound, monotone = "pointwise-bounds", "strict-monotonicity"
    rows = [
        _property_check("bound-a-positive", bound, -np.min(a[:-1]), a[:-1] > 0.0),
        _property_check("bound-f-interval", bound, max(-np.min(fi), np.max(fi) - p.f_infinity), (fi > 0.0) & (fi < p.f_infinity), 1),
    ]
    if p.q == 0.0:
        rows.append(_property_check("bound-g-monopole", bound, np.max(np.abs(g)), g == 0.0))
    else:
        rows.append(_property_check("bound-g-interval", bound, max(-np.min(gi), np.max(gi) - p.q), (gi > 0.0) & (gi < p.q), 1))
    rows.append(_property_check("monotone-a-decreasing", monotone, np.max(da), da < 0.0))
    rows.append(_property_check("monotone-f-increasing", monotone, -np.min(df), df > 0.0))
    if p.q > 0.0:
        rows.append(_property_check("monotone-g-increasing", monotone, -np.min(dg), dg > 0.0))
    return rows


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def solution_properties_ok(p: ModelParams, s: FieldProfile) -> tuple[bool, str]:
    """(True, "") if every property_checks row passes, else False and the first failing row.

    Raises ParameterError when a, f or g is complex (_require_real).
    """
    _require_real(s)
    for row in property_checks(p, s):
        if not row.passed:
            return False, f"{row.check_id} fails at node {row.node}"
    return True, ""
