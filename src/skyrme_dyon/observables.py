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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DecayWindowError, NumericError, ParameterError, RegionError
from .model import FieldProfile, ModelParams, _qbar

__all__ = [
    "ObservableReport",
    "TailConstants",
    "skyrme_charge_numeric",
    "skyrme_charge_closed",
    "electric_charge",
    "gamma_theory",
    "fit_decay_rate",
    "tail_constants",
    "observables",
]

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


def skyrme_charge_numeric(s: FieldProfile) -> float:
    """Quadrature of (2/pi) sin(f)^2 f' dr via the substitution u = f.

    The integrand is an exact differential, so midpoint quadrature in u is
    used per interval; the value depends on the nodal f only, as it must.
    """
    f = s.f
    fm = 0.5 * (f[:-1] + f[1:])
    return float((2.0 / math.pi) * np.sum(np.sin(fm) ** 2 * np.diff(f)))


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

    def fval(lam):
        return um * np.sinh(lam * hp) + up * np.sinh(lam * hm) - uj * np.sinh(lam * H)

    lo = np.full(idx.shape, RATE_LO)
    hi = np.full(idx.shape, RATE_HI)
    ok = (fval(lo) > 0.0) & (fval(hi) < 0.0)
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
        F = a_m * np.sinh(x * b_p) + a_p * np.sinh(x * b_m) - a_j * np.sinh(x * b_H)
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


def fit_decay_rate(s: FieldProfile, p: ModelParams):
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
    grid = s.grid
    idx = _fit_window_nodes(s.a, FIT_WINDOW_LO, FIT_WINDOW_HI)
    if idx.size < MIN_FIT_NODES:
        raise DecayWindowError(
            f"decay-fit window a in [{FIT_WINDOW_LO:g}, {FIT_WINDOW_HI:g}] holds {idx.size} nodes (< {MIN_FIT_NODES}); increase the domain radius"
        )
    lam = _local_two_mode_rates(grid.h, s.a, idx)
    good = np.isfinite(lam)
    idx, lam = idx[good], lam[good]
    if idx.size < MIN_FIT_NODES:
        raise DecayWindowError("too few locally exponential nodes in the decay-fit window; increase the domain radius")
    r_used = grid.r[idx]
    sin2 = np.sin(s.f[idx]) ** 2
    qbar = _qbar(grid, np.diff(s.f) / grid.h)[idx - 1]
    potential_shift = 0.25 * (sin2 - np.sin(s.f[-1]) ** 2) - 0.5 * (s.g[idx] ** 2 - s.g[-1] ** 2) + p.kappa * sin2 * qbar
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


def _f_source_double_integral(s: FieldProfile, p: ModelParams) -> np.ndarray:
    """Nodal values of integral_r^R rho^-2 * (integral_rho^R F) d rho.

    F is the zero-order side of the f-equation (2 a^2 sin f cos f plus its
    quartic-coupling companions); subtracting this double integral from
    pi - omega - f isolates the homogeneous 1/r tail even where the
    exponentially decaying source is not yet negligible.
    """
    grid = s.grid
    a, f = s.a, s.f
    sf, cf_ = np.sin(f), np.cos(f)
    source = 2.0 * a * a * sf * cf_
    if p.kappa != 0.0:
        quart = np.zeros(grid.N + 1)
        quart[1:] = a[1:] ** 4 * sf[1:] ** 3 * cf_[1:] / grid.r[1:] ** 2
        fp2 = np.zeros(grid.N + 1)  # f'^2 at interior nodes; the source vanishes at both ends
        fp2[1:-1] = _qbar(grid, np.diff(f) / grid.h)
        source = source + 8.0 * p.kappa * (a * a * sf * cf_ * fp2 + quart)
    cell = source * grid.w
    # T at half node i+1/2 = sum of cell masses strictly beyond node i
    T_half = np.cumsum(cell[1:][::-1])[::-1]
    seg = np.zeros(grid.N)  # integral of rho^-2 T over [r_k, r_{k+1}]
    seg[1:] = T_half[1:] * (1.0 / grid.r[1:-1] - 1.0 / grid.r[2:])
    out = np.zeros(grid.N + 1)
    out[:-1] = np.cumsum(seg[::-1])[::-1]
    out[0] = out[1]  # 1/rho^2 is singular on the first cell; node 0 is never consumed
    return out


def tail_constants(s: FieldProfile, p: ModelParams) -> TailConstants:
    """Median tail constants of g and f over radii in [R/10, R).

    Raises DecayWindowError when that window holds no interior node.
    """
    grid = s.grid
    r = grid.r
    R = grid.R
    idx = np.flatnonzero((r >= R / 10.0) & (r < R))
    idx = idx[idx >= 1]
    if idx.size == 0:
        raise DecayWindowError(f"tail window r in [{R / 10.0:g}, {R:g}) holds no interior node; refine the mesh there")
    denom = 1.0 / r[idx] - 1.0 / R
    cg_vals = (p.q - s.g[idx]) / denom
    cf_vals = (p.f_infinity - s.f[idx] + _f_source_double_integral(s, p)[idx]) / denom
    weights = grid.w[idx]  # median in the radius measure, not per node

    def med_var(vals):
        order = np.argsort(vals)
        cum = np.cumsum(weights[order])
        med = float(vals[order][np.searchsorted(cum, 0.5 * cum[-1])])
        spread = float(np.max(vals) - np.min(vals))
        var = spread / abs(med) if med != 0.0 else (0.0 if spread == 0.0 else float("inf"))
        return med, var

    cg, cg_var = med_var(cg_vals)
    cf, cf_var = med_var(cf_vals)
    return TailConstants(cg=cg, cf=cf, cg_variation=cg_var, cf_variation=cf_var, window=(float(r[idx[0]]), float(r[idx[-1]])))


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
        lines = [
            f"QS_numeric {self.QS_numeric:.17g}",
            f"QS_closed {self.QS_closed:.17g}",
            f"Qe {self.Qe:.17g}",
            f"Qm {self.Qm:.17g}",
            f"gamma_fit {self.gamma_fit:.17g}",
            f"gamma_theory {self.gamma_theory:.17g}",
            f"cg_tail {self.cg_tail:.17g}",
            f"cf_tail {self.cf_tail:.17g}",
            f"cg_variation {self.cg_variation:.17g}",
            f"cf_variation {self.cf_variation:.17g}",
            f"fit_window {self.fit_window[0]:.17g} {self.fit_window[1]:.17g}",
            f"tail_window {self.tail_window[0]:.17g} {self.tail_window[1]:.17g}",
        ]
        if self.note:
            lines.append(f"note {self.note}")
        return "\n".join(lines) + "\n"


def observables(p: ModelParams, s: FieldProfile, strict: bool = True) -> ObservableReport:
    """Assemble the full observable report for a converged profile.

    With strict=False a failed decay fit, an empty tail window or a
    non-finite charge integrand is recorded as NaN with a note instead of
    raising, so partial reports can still be written.
    """
    nan = float("nan")
    notes = []
    try:
        gamma_fit, fit_window = fit_decay_rate(s, p)
    except DecayWindowError as exc:
        if strict:
            raise
        gamma_fit, fit_window = nan, (nan, nan)
        notes.append(str(exc))
    try:
        tails = tail_constants(s, p)
    except DecayWindowError as exc:
        if strict:
            raise
        tails = TailConstants(nan, nan, nan, nan, (nan, nan))
        notes.append(str(exc))
    try:
        Qe = electric_charge(s)
    except NumericError as exc:
        if strict:
            raise
        Qe = nan
        notes.append(str(exc))
    return ObservableReport(
        QS_numeric=skyrme_charge_numeric(s),
        QS_closed=skyrme_charge_closed(p.omega),
        Qe=Qe,
        Qm=1.0,  # unit magnetic charge, an analytic identity
        gamma_fit=gamma_fit,
        gamma_theory=gamma_theory(p),
        cg_tail=tails.cg,
        cf_tail=tails.cf,
        cg_variation=tails.cg_variation,
        cf_variation=tails.cf_variation,
        fit_window=fit_window,
        tail_window=tails.window,
        note="; ".join(notes),
    )
