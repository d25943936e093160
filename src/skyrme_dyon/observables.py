"""Physical observables of a converged profile: charges, decay rate, tail constants.

All charges are radial integrals in the working convention f(0) = 0,
f(R) = pi - omega (the original convention enters through f_orig = pi - f,
under which the topological charge integrand is unchanged):

    Q_S = (2/pi) integral sin(f)^2 f' dr      (topological/baryon charge)
    Q_e = 2 integral a^2 g dr                 (electric charge)
    Q_m = 1                                   (magnetic charge, analytic)

with the closed form Q_S(omega) = 1 + (sin(2 omega)/2 - omega)/pi fixed by
the boundary data alone.

The gauge profile decays like a ~ r^(-nu) exp(-gamma r) with
gamma = sqrt(sin(omega)^2 - 2 q^2)/2; on the truncated domain the Dirichlet
value a(R) = 0 adds the reflected mode ~ exp(+gamma r), so the plain
log-slope is useless near R.  fit_decay_rate therefore extracts, per node
triple, the exact rate lambda of the local two-mode family
B exp(-lambda r) + C exp(+lambda r) (a scalar transcendental equation,
exact for any B, C, hence immune to the truncation mode, solved by
safeguarded Newton from its small-lambda Taylor root), subtracts the parts
of the linearized a-potential that the profile's own f and g tails fix,
kappa sin(f)^2 f'^2 included, and fits lambda^2 = gamma^2 + c1/r + c2/r^2
by linear least squares; the intercept estimates gamma^2 and strips the
algebraic-prefactor bias ~ 1/r.

Similarly f and g approach their limits like const/r, but the outer
Dirichlet data pins them to the limit exactly at r = R, so the truncated
tail is const*(1/r - 1/R).  tail_constants divides by that factor instead
of multiplying by r; the estimate converges to the untruncated constant
as R grows.

Each function takes the parameters, if it needs them, before a profile,
(p, s); the decay fit and the f tail read sin f, cos f, sin^2 f and qbar
from the profile's own state (model.FieldProfile._state), which Newton's
last residual has already formed for a solved profile.
observables() is the public entry point; the charge, fit and tail
functions it calls are internals, imported from this module, and each
runs under np.errstate, so a direct call on a profile that overflows
gives non-finite values, not numpy warnings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import DecayWindowError, NumericError, ParameterError, RegionError
from .model import FieldProfile, ModelParams, _require_real

__all__ = ["ObservableReport", "skyrme_charge_closed", "gamma_theory", "observables"]

FIT_WINDOW_LO = 1e-8
FIT_WINDOW_HI = 1e-2
MIN_FIT_NODES = 10
RATE_LO, RATE_HI = 1e-9, 10.0  # bracket of the per-node two-mode rate
RATE_XTOL = 1e-8  # relative Newton step after which a rate is at round-off
RATE_MAX_ROUNDS = 100  # bisection alone narrows the bracket to round-off in about 85


def skyrme_charge_closed(omega: float) -> float:
    """Closed-form Q_S(omega) = 1 + (sin(2 omega)/2 - omega)/pi, decreasing on [0, pi]."""
    if not 0.0 <= omega <= math.pi:
        raise ParameterError(f"omega must lie in [0, pi], got {omega}")
    return 1.0 + (0.5 * math.sin(2.0 * omega) - omega) / math.pi


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def skyrme_charge_numeric(s: FieldProfile) -> float:
    """Quadrature of (2/pi) sin(f)^2 f' dr via the substitution u = f.

    The integrand is an exact differential, so midpoint quadrature in u is
    used per interval; the value depends on the nodal f only, as it must.
    """
    f = s.f
    fm = 0.5 * (f[:-1] + f[1:])
    return float((2.0 / math.pi) * np.sum(np.sin(fm) ** 2 * np.diff(f)))


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def electric_charge(s: FieldProfile) -> float:
    """Q_e = 2 integral a^2 g dr by trapezoid quadrature."""
    return s.grid.integrate(2.0 * s.a**2 * s.g)


def gamma_theory(p: ModelParams) -> float:
    """Linearized far-field decay rate sqrt(sin(omega)^2 - 2 q^2)/2."""
    arg = math.sin(p.omega) ** 2 - 2.0 * p.q * p.q
    if arg <= 0.0:
        raise RegionError(f"decay rate undefined: sin(omega)^2 - 2 q^2 = {arg:.6g} <= 0 requires q < sin(omega)/sqrt(2)")
    return 0.5 * math.sqrt(arg)


def _local_two_mode_rates(h: np.ndarray, u: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Per-node rate lambda_i solving u_m sinh(l hp) + u_p sinh(l hm) = u_j sinh(l (hm+hp)).

    Exact for any local combination B exp(-l r) + C exp(+l r).  A node has
    a rate when its residual changes sign on the bracket [1e-9, 10], and is
    NaN otherwise.  The root is found by safeguarded Newton (rtsafe): each
    round shrinks the bracket to the sign change and takes the Newton step,
    or bisects when that step would leave the bracket or fails to halve the
    previous one.  The seed is the small-l root of the cubic Taylor
    polynomial, l^2 = -6 c1/c3 with c1 = u_m hp + u_p hm - u_j H and
    c3 = u_m hp^3 + u_p hm^3 - u_j H^3 (H = hm + hp), or the bracket's
    midpoint when that root is not real or lies outside.  A node stops
    after a Newton step shorter than RATE_XTOL * l, whose quadratic
    convergence leaves it at round-off; the seed is close enough that
    this takes two or three rounds.
    """
    hm = h[idx - 1]
    hp = h[idx]
    H = hm + hp
    um, uj, up = u[idx - 1], u[idx], u[idx + 1]

    def residual(lam, u_m, u_j, u_p, h_m, h_p, h_mp):
        return u_m * np.sinh(lam * h_p) + u_p * np.sinh(lam * h_m) - u_j * np.sinh(lam * h_mp)

    lo = np.full(idx.shape, RATE_LO)
    hi = np.full(idx.shape, RATE_HI)
    ok = (residual(lo, um, uj, up, hm, hp, H) > 0.0) & (residual(hi, um, uj, up, hm, hp, H) < 0.0)
    c1 = um * hp + up * hm - uj * H
    c3 = um * hp**3 + up * hm**3 - uj * H**3
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = np.sqrt(-6.0 * c1 / c3)
    lam = np.where((lam > lo) & (lam < hi), lam, 0.5 * (lo + hi))
    step_old = hi - lo
    act = np.flatnonzero(ok)
    for _ in range(RATE_MAX_ROUNDS):
        if act.size == 0:
            break
        x, a_m, a_j, a_p, b_m, b_p, b_H = lam[act], um[act], uj[act], up[act], hm[act], hp[act], H[act]
        F = residual(x, a_m, a_j, a_p, b_m, b_p, b_H)
        dF = a_m * b_p * np.cosh(x * b_p) + a_p * b_m * np.cosh(x * b_m) - a_j * b_H * np.cosh(x * b_H)
        below = F > 0.0  # F is positive below the root and negative above it
        x_lo = np.where(below, x, lo[act])
        x_hi = np.where(below, hi[act], x)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = F / dF
        x_new = x - step
        bisect = ~((x_new >= x_lo) & (x_new <= x_hi)) | (np.abs(2.0 * step) > step_old[act])
        x_new = np.where(bisect, 0.5 * (x_lo + x_hi), x_new)
        moved = np.abs(x_new - x)
        lo[act], hi[act], lam[act], step_old[act] = x_lo, x_hi, x_new, moved
        done = (~bisect & (moved <= RATE_XTOL * x_new)) | (x_hi - x_lo <= 4.0 * np.finfo(float).eps * x_new)
        act = act[~done]
    return np.where(ok, lam, np.nan)


def _fit_window_nodes(a: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Interior nodes with lo <= a <= hi and positive neighbours."""
    interior = np.arange(1, a.size - 1)
    sel = (a[interior] >= lo) & (a[interior] <= hi) & (a[interior - 1] > 0.0) & (a[interior + 1] > 0.0)
    return interior[sel]


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def fit_decay_rate(p: ModelParams, s: FieldProfile):
    """Estimate the exponential decay rate of a over the window a in [FIT_WINDOW_LO, FIT_WINDOW_HI].

    Per node the exact two-mode rate lambda_i is extracted, then the known
    slowly-decaying part of the linearized potential is subtracted using
    the profile's own f and g tails,

        lambda_i^2 - (sin(f_i)^2 - sin(f_N)^2)/4 + (g_i^2 - g_N^2)/2
                   - kappa sin(f_i)^2 qbar_i,

    (qbar_i the dual-cell mean of f'^2, as in the residuals), which removes
    the O(1/r) bias of the raw rates; the remaining
    centrifugal O(1/r^2) structure is absorbed by a linear least-squares
    fit against {1, 1/r, 1/r^2} whose intercept estimates gamma^2.

    Returns (gamma_fit, (r_first, r_last)).  Raises DecayWindowError when
    the window holds fewer than MIN_FIT_NODES usable nodes (domain too
    small) or the least-squares intercept is not positive.
    """
    st = s._state
    idx = _fit_window_nodes(s.a, FIT_WINDOW_LO, FIT_WINDOW_HI)
    if idx.size < MIN_FIT_NODES:
        raise DecayWindowError(
            f"decay-fit window a in [{FIT_WINDOW_LO:g}, {FIT_WINDOW_HI:g}] holds {idx.size} nodes (< {MIN_FIT_NODES}); increase the domain radius"
        )
    lam = _local_two_mode_rates(s.grid.h, s.a, idx)
    good = np.isfinite(lam)
    idx, lam = idx[good], lam[good]
    if idx.size < MIN_FIT_NODES:
        raise DecayWindowError("too few locally exponential nodes in the decay-fit window; increase the domain radius")
    r_used = s.grid.r[idx]
    sin2 = st.sin2[idx]
    potential_shift = 0.25 * (sin2 - st.sin2[-1]) - 0.5 * (s.g[idx] ** 2 - s.g[-1] ** 2) + p.kappa * sin2 * st.qbar[idx - 1]
    lam_sq = lam * lam - potential_shift
    design = np.column_stack([np.ones_like(r_used), 1.0 / r_used, 1.0 / r_used**2])
    coef, *_ = np.linalg.lstsq(design, lam_sq, rcond=None)
    if coef[0] <= 0.0:
        raise DecayWindowError("decay fit returned a non-positive squared rate; increase the domain radius")
    return float(math.sqrt(coef[0])), (float(r_used[0]), float(r_used[-1]))


@dataclass(frozen=True)
class TailConstants:
    """Tail amplitudes of the O(1/r) fields over the last decade of radii.

    cg ~ lim r (q - g), cf ~ lim r (pi - omega - f), both estimated through
    the truncated-tail factor (1/r - 1/R); variation fields give the
    relative spread (max - min over the window) / |median|.
    """

    cg: float
    cf: float
    cg_variation: float
    cf_variation: float
    window: tuple[float, float]


def _f_source_double_integral(p: ModelParams, s: FieldProfile, first: int) -> np.ndarray:
    """Values of integral_r^R rho^-2 * (integral_rho^R F) d rho at nodes first..N-1 (first >= 1).

    F is the zero-order side of the f-equation (2 a^2 sin f cos f plus its
    quartic-coupling companions); subtracting this double integral from
    pi - omega - f isolates the homogeneous 1/r tail even where the
    exponentially decaying source is not yet negligible.  Only the nodes
    beyond first enter, and both cumulative sums run inward from R, so the
    values are bitwise those of a pass over every node.
    """
    grid, st = s.grid, s._state
    beyond = slice(first + 1, None)  # nodes first+1..N, whose cells carry the mass beyond node first
    a, r, w = s.a[beyond], grid.r[beyond], grid.w[beyond]
    sf, cf_ = st.sin[beyond], st.cos[beyond]
    source = 2.0 * a * a * sf * cf_
    if p.kappa != 0.0:
        quart = a**4 * sf**3 * cf_ / r**2
        fp2 = np.append(st.qbar[first:], 0.0)  # f'^2 at interior nodes; the source vanishes at R
        source = source + 8.0 * p.kappa * (a * a * sf * cf_ * fp2 + quart)
    # T at half node i+1/2 = sum of cell masses strictly beyond node i, i = first..N-1
    T_half = np.cumsum((source * w)[::-1])[::-1]
    seg = T_half * (1.0 / grid.r[first:-1] - 1.0 / r)  # integral of rho^-2 T over [r_i, r_{i+1}]
    return np.cumsum(seg[::-1])[::-1]


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def tail_constants(p: ModelParams, s: FieldProfile) -> TailConstants:
    """Median tail constants of g and f over radii in [R/10, R).

    The window is the nodes from the first with r >= R/10 (node 1 at the
    least) to N-1; the f source integral is evaluated on them alone.
    Raises DecayWindowError when that window holds no interior node.
    """
    grid = s.grid
    r, R = grid.r, grid.R
    first = max(int(np.searchsorted(r, R / 10.0)), 1)  # the nodes increase strictly, so the window is a run of them
    if first >= grid.N:
        raise DecayWindowError(f"tail window r in [{R / 10.0:g}, {R:g}) holds no interior node; refine the mesh there")
    window = slice(first, -1)
    denom = 1.0 / r[window] - 1.0 / R
    cg_vals = (p.q - s.g[window]) / denom
    cf_vals = (p.f_infinity - s.f[window] + _f_source_double_integral(p, s, first)) / denom
    weights = grid.w[window]  # median in the radius measure, not per node

    def med_var(vals):
        order = np.argsort(vals)
        cum = np.cumsum(weights[order])
        med = float(vals[order][np.searchsorted(cum, 0.5 * cum[-1])])
        spread = float(np.max(vals) - np.min(vals))
        var = spread / abs(med) if med != 0.0 else (0.0 if spread == 0.0 else float("inf"))
        return med, var

    cg, cg_var = med_var(cg_vals)
    cf, cf_var = med_var(cf_vals)
    return TailConstants(cg=cg, cf=cf, cg_variation=cg_var, cf_variation=cf_var, window=(float(r[first]), float(r[-2])))


@dataclass(frozen=True)
class ObservableReport:
    """All physical outputs of one converged profile."""

    QS_numeric: float
    QS_closed: float
    Qe: float
    Qm: float
    gamma_fit: float
    gamma_theory: float
    cg_tail: float
    cf_tail: float
    cg_variation: float
    cf_variation: float
    fit_window: tuple[float, float]
    tail_window: tuple[float, float]
    note: str = ""

    def as_text(self) -> str:
        """observables.txt: a line per field in field order, a window as two numbers, the note only if non-empty."""
        lines = []
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name != "note":
                value = " ".join(f"{v:.17g}" for v in (value if isinstance(value, tuple) else (value,)))
            if value:
                lines.append(f"{f.name} {value}")
        return "\n".join(lines) + "\n"


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def observables(p: ModelParams, s: FieldProfile, strict: bool = True) -> ObservableReport:
    """Assemble the full observable report for a converged profile.

    It runs this module's internals once each, in order, all on the one
    state of s: fit_decay_rate(p, s), tail_constants(p, s),
    electric_charge(s) and skyrme_charge_numeric(s).  Their failures
    are recorded in step order (the fit's and the tail window's
    DecayWindowError, the charge's NumericError, then NumericError
    "non-finite <names>") and each failed value is NaN.  With
    strict=False the note joins the failures' messages, so partial reports
    can still be written; strict=True raises the first failure.  It runs
    under np.errstate, as run_suite does, so a profile whose values
    overflow (on a mesh whose r^2 underflows, say) gives no numpy warning.
    Raises ParameterError when a, f or g is complex (model._require_real).
    """
    _require_real(s)
    nan = float("nan")
    failures = []
    values = {}  # the values computed; one whose function failed is NaN in the report
    fit_window = tail_window = (nan, nan)
    try:
        values["gamma_fit"], fit_window = fit_decay_rate(p, s)
    except DecayWindowError as exc:
        failures.append(exc)
    try:
        tails = tail_constants(p, s)
    except DecayWindowError as exc:
        failures.append(exc)
    else:
        values.update(cg_tail=tails.cg, cf_tail=tails.cf, cg_variation=tails.cg_variation, cf_variation=tails.cf_variation)
        tail_window = tails.window
    try:
        values["Qe"] = electric_charge(s)
    except NumericError as exc:
        failures.append(exc)
    values["QS_numeric"] = skyrme_charge_numeric(s)
    bad = [name for name, value in values.items() if not math.isfinite(value)]
    if bad:
        failures.append(NumericError(f"non-finite {', '.join(bad)}"))
        values.update(dict.fromkeys(bad, nan))
    if strict and failures:
        raise failures[0]
    return ObservableReport(
        **(dict.fromkeys(("gamma_fit", "cg_tail", "cf_tail", "cg_variation", "cf_variation", "Qe"), nan) | values),
        QS_closed=skyrme_charge_closed(p.omega),
        Qm=1.0,  # unit magnetic charge, an analytic identity
        gamma_theory=gamma_theory(p),
        fit_window=fit_window,
        tail_window=tail_window,
        note="; ".join(map(str, failures)),
    )
