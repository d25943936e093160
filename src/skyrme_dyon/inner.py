"""Electric-sector solve: freeze the gauge profile, solve for the potential.

For fixed a, the electric potential g is the unique minimizer of

    E2(a, G) = integral(r^2 G'^2 + 2 a^2 G^2),   G(R) = q,

equivalently the solution of the linear two-point problem
(r^2 g')' = 2 a^2 g with g(0) = 0, g(R) = q.  The discrete system is the
exact stationarity condition of the discrete E2: a symmetric positive
definite tridiagonal M-matrix, solved directly by one factorization and
one solve (elimination without row exchanges is componentwise backward
stable on it).  Consequences used elsewhere:

* 0 <= g <= q nodewise and g nondecreasing (inverse positivity + the
  telescoped flux identity r^2 g' = integral_0^r 2 a^2 g);
* the weak form integral(r^2 g' G' + 2 a^2 g G) vanishes to round-off for
  every test array G with G(R) = 0;
* with a = 1 the exact solution g = q*r/R lies in the stencil's exact set,
  so the solver reproduces it to round-off.

The first half-node coefficient r_0*r_1 vanishes, so the solve never
divides by r = 0 and the value g_0 = 0 is boundary data that the interior
system does not even need, mirroring the fact that g(0) = 0 is forced
rather than imposed in the continuum.

The electric solve reads its stiffness, the grid's conductances and
their sums, from the grid, checks its diagonal once and solves with one
call of LAPACK gtsv of the arrays' dtype (zgtsv for the complex-step input
that differentiates it, dgtsv otherwise); a 1 x 1 system, which scipy's
gtsv wrapper rejects, is divided directly, unless its one entry is 0.
gtsv is the routine that scipy.linalg.solve_banded((1, 1), ...) calls, so
the results are bitwise its.  The matrix is nonsingular in exact
arithmetic, but on a mesh so small that the products r_i*r_(i+1)
underflow to 0 (R = 3e-200, say) the conductances vanish, and where
a = 0 too the rounded matrix is singular; gtsv reports that, and the
solve raises NumericError("singular matrix"), as every LAPACK failure
here raises a NumericError.
_spd_tridiagonal_solver factorizes a real symmetric positive
definite tridiagonal matrix as L D L^T with LAPACK pttrf, with no
pivoting (Golub & Van Loan, Matrix Computations, 4th ed., sec. 4.3), and
returns a pttrs solve: it serves, once per flow state, the flow's initial
inverse Hessian, whose a- and f-systems it factorizes as one system with
zero coupling between the two blocks.

Every LAPACK routine of the package (dgbtrf and dgbtrs for Newton, dpttrf
and dpttrs here, dgtsv and zgtsv) is bound here, from scipy's f2py
extension scipy/linalg/_flapack, which scipy.linalg.lapack re-exports: the
same compiled wrappers, so the same results bit for bit.  _load_flapack
finds scipy's directory without running its package code and executes the
extension alone, since importing scipy.linalg costs about 0.2 s, mostly
numpy.f2py pulled in by scipy's array-API layer, against about 4 ms for
the extension.  A process that has already imported scipy.linalg shares
its module.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from types import ModuleType
from typing import Callable

import numpy as np

from .errors import NumericError, ParameterError
from .grid import RadialGrid
from .model import ModelParams, _e2_form, e2_energy

__all__ = ["solve_inner_g", "constraint_residual"]


def _load_flapack() -> ModuleType:
    """scipy's LAPACK extension scipy.linalg._flapack, without running scipy's or scipy.linalg's package code.

    Returns the module already in sys.modules when scipy.linalg has been
    imported, so the process holds one copy; otherwise executes the
    extension found in scipy's linalg directory as a private module.
    Raises ImportError naming the directories searched when it is not there.
    """
    loaded = sys.modules.get("scipy.linalg._flapack")
    if loaded is not None:
        return loaded
    scipy = importlib.util.find_spec("scipy")
    where = [os.path.join(path, "linalg") for path in scipy.submodule_search_locations] if scipy else []
    spec = importlib.machinery.PathFinder.find_spec("_flapack", where)
    if spec is None:
        raise ImportError(f"scipy's LAPACK extension _flapack not found in {where or 'any scipy installation'}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_flapack = _load_flapack()
dgbtrf, dgbtrs = _flapack.dgbtrf, _flapack.dgbtrs  # Newton's banded LU
dpttrf, dpttrs = _flapack.dpttrf, _flapack.dpttrs  # the flow's SPD tridiagonal L D L^T
dgtsv, zgtsv = _flapack.dgtsv, _flapack.zgtsv  # the electric solve, real and complex step


def _require_finite(*arrays: np.ndarray) -> None:
    """Raise NumericError unless every entry is finite."""
    if not all(np.isfinite(x).all() for x in arrays):
        raise NumericError("array must not contain infs or NaNs")


def _raise_for_info(info: int, routine: str) -> None:
    """Map a LAPACK info code to an exception: NumericError for a factor that fails, naming pttrf's pivot.

    info < 0 means the call itself was malformed, a bug in this package,
    so it raises a plain ValueError that no solver catches.
    """
    if info > 0 and routine == "pttrf":
        raise NumericError(f"matrix not positive definite: pivot {info} of pttrf is not positive")
    if info > 0:
        raise NumericError("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal {routine}")


def _spd_tridiagonal_solver(d: np.ndarray, e: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Factorize the real SPD tridiagonal matrix (diagonal d, off-diagonal e) once as L D L^T; returns solve(b) -> x.

    LAPACK dpttrf/dpttrs, from 2 x 2 up: scipy's pttrf wrapper rejects a
    1 x 1 system, and the flow's system has two blocks of at least one
    unknown each.  The arrays are not modified.  Raises NumericError on
    non-finite input (the matrix here, b in solve) and on a pivot that is
    not positive, which it names.
    """
    _require_finite(d, e)
    *ldl, info = dpttrf(d, e)
    _raise_for_info(info, "pttrf")

    def solve(b: np.ndarray) -> np.ndarray:
        _require_finite(b)
        x, info = dpttrs(*ldl, b)
        _raise_for_info(info, "pttrs")
        return x

    return solve


def solve_inner_g(p: ModelParams, grid: RadialGrid, a: np.ndarray) -> np.ndarray:
    """Solve the discrete electric-sector system for g given the gauge profile a."""
    a = np.asarray(a)
    if a.shape != (grid.N + 1,):
        raise ParameterError(f"a must have {grid.N + 1} nodal values, got {a.shape}")
    if not np.all(np.isfinite(a.real)):
        raise NumericError(f"non-finite a at node {int(np.flatnonzero(~np.isfinite(a.real))[0])}")
    if abs(a[0] - 1.0) > 1e-12:
        raise ParameterError(f"a[0] must equal 1, got {a[0].item()!r}")

    dtype = np.result_type(a, float)
    cond = grid.conductance
    a2 = a[1:-1] * a[1:-1]

    # Row-scaled symmetric form: diag = P_m/h_m + P_p/h_p + 2 a^2 w, off = -P/h.
    main = grid.conductance_sum + 2.0 * a2 * grid.w[1:-1]
    if not np.all(np.isfinite(main)):
        raise NumericError(f"non-finite electric-sector diagonal at node {int(np.flatnonzero(~np.isfinite(main))[0]) + 1}")
    off = -cond[1:-1]  # finite, as the grid's conductances are
    rhs = np.zeros(grid.N - 1, dtype=dtype)
    rhs[-1] = cond[-1] * p.q

    g = np.empty(grid.N + 1, dtype=dtype)
    g[0] = 0.0
    if main.size == 1:
        if main[0] == 0.0:
            raise NumericError("singular matrix")  # the zero pivot that gtsv reports for a larger system
        g[1:-1] = rhs / main
    else:
        gtsv = zgtsv if np.iscomplexobj(rhs) else dgtsv
        *_, g[1:-1], info = gtsv(off, main, off, rhs)
        _raise_for_info(info, "gtsv")
    g[-1] = p.q
    return g


@np.errstate(over="ignore", invalid="ignore")
def constraint_residual(grid: RadialGrid, a: np.ndarray, g: np.ndarray, G: np.ndarray, *, e2_G=None):
    """Discrete weak form integral(r^2 g' G' + 2 a^2 g G) for a test array G, or per row of a stack of them.

    G is one array of N+1 nodal values, which gives a float, or a
    (k, N+1) stack, which gives an array of k values, each bitwise the
    value of its row alone.  Every test function must vanish at the outer
    node and have finite energy E2(a, G): a finite G whose E2 overflows
    raises that NumericError, not numpy's overflow warning.  The value is
    zero to round-off whenever g came out of solve_inner_g with the same
    a; for any other g it measures how far g is from the constrained
    minimizer.  e2_G, when given, must be e2_energy(grid, a, G), which the
    caller already has; the energy check then reads it instead of summing
    E2 again.  The keyword stays because its one caller, run_suite, needs
    those energies for its row's scale, and summing them twice would cost
    about 1 % of a battery at N = 2000 to 8000.
    """
    G = np.asarray(G)
    for name, arr, ndims in (("a", a, (1,)), ("g", g, (1,)), ("G", G, (1, 2))):
        arr = np.asarray(arr)
        if arr.ndim not in ndims or arr.shape[-1] != grid.N + 1:
            raise ParameterError(f"{name} must have {grid.N + 1} nodal values, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            bad = np.argwhere(~np.isfinite(arr))[0]
            raise NumericError(f"non-finite {name} at node {int(bad[-1])}" + (f" of test function {int(bad[0])}" if arr.ndim == 2 else ""))
    outer = np.abs(G[..., -1]) > 1e-14 * (1.0 + np.max(np.abs(G), axis=-1))
    if np.any(outer):
        k = int(np.flatnonzero(outer)[0])
        where, value = ("G[-1]", G[-1]) if G.ndim == 1 else (f"G[{k}, -1]", G[k, -1])
        raise ParameterError(f"test function must vanish at r = R, got {where}={value.item()!r}")
    if not np.all(np.isfinite(e2_energy(grid, a, G) if e2_G is None else e2_G)):
        raise NumericError("test function has non-finite energy E2(a, G)")
    form = _e2_form(grid, a, g, G)
    return float(form) if G.ndim == 1 else form
