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

_tridiagonal_solver, the package's one tridiagonal solver, factorizes once
with LAPACK gttrf and returns a gttrs solve: it serves the electric solve
and, once per flow state, the flow's initial inverse Hessian, whose a- and
f-systems it factorizes as one tridiagonal system with zero coupling
between the two blocks.  Without row exchanges gttrf + gttrs do the
eliminations of gtsv, which solve_banded calls, so the results are
bitwise those of scipy.linalg.solve_banded((1, 1), ...).  The electric
solve reads its stiffness, the grid's conductances and their sums, from
the grid, checks its diagonal once and factorizes without a second check.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
from scipy.linalg import get_lapack_funcs, solve_banded

from .errors import NumericError, ParameterError, TestFunctionError
from .grid import RadialGrid
from .model import ModelParams, _e2_form, e2_energy

__all__ = ["solve_inner_g", "constraint_residual"]


def _require_finite(*arrays: np.ndarray) -> None:
    """Raise ValueError, as scipy.linalg.solve_banded does, unless every entry is finite."""
    if not all(np.isfinite(x).all() for x in arrays):
        raise ValueError("array must not contain infs or NaNs")


def _raise_for_info(info: int, routine: str) -> None:
    """Map a LAPACK info code to scipy.linalg.solve_banded's exceptions."""
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal {routine}")


def _tridiagonal_solver(dl: np.ndarray, d: np.ndarray, du: np.ndarray, *, finite: bool = False) -> Callable[[np.ndarray], np.ndarray]:
    """Factorize the tridiagonal matrix (sub-, main, super-diagonal) once; returns solve(b) -> x.

    LAPACK gttrf/gttrs of the arrays' dtype, so complex-step input works;
    scipy's gttrf wrapper rejects systems smaller than 3 x 3, which go
    through scipy.linalg.solve_banded.  The arrays are not modified.
    Raises as solve_banded does: ValueError on non-finite input (the
    matrix here, b in solve), LinAlgError on an exactly singular matrix.
    finite=True skips the check of the matrix, for a caller that has
    already checked it.
    """
    if not finite:
        _require_finite(dl, d, du)
    if d.size < 3:
        ab = np.array([np.r_[0.0, du], d, np.r_[dl, 0.0]])
        return lambda b: solve_banded((1, 1), ab, b)
    gttrf, gttrs = get_lapack_funcs(("gttrf", "gttrs"), (dl, d, du))
    *lu, info = gttrf(dl, d, du)
    _raise_for_info(info, "gttrf")

    def solve(b: np.ndarray) -> np.ndarray:
        _require_finite(b)
        x, info = gttrs(*lu, b)
        _raise_for_info(info, "gttrs")
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
        raise ParameterError(f"a[0] must equal 1, got {a[0]!r}")

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
    g[1:-1] = _tridiagonal_solver(off, main, off, finite=True)(rhs)
    g[-1] = p.q
    return g


def constraint_residual(grid: RadialGrid, a: np.ndarray, g: np.ndarray, G: np.ndarray, *, e2_G=None):
    """Discrete weak form integral(r^2 g' G' + 2 a^2 g G) for a test array G, or per row of a stack of them.

    G is one array of N+1 nodal values, which gives a float, or a
    (k, N+1) stack, which gives an array of k values, each bitwise the
    value of its row alone.  Every test function must vanish at the outer
    node and have finite energy E2(a, G).  The value is zero to round-off
    whenever g came out of solve_inner_g with the same a; for any other g
    it measures how far g is from the constrained minimizer.  e2_G, when
    given, must be e2_energy(grid, a, G), which the caller already has;
    the energy check then reads it instead of summing E2 again.
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
        raise TestFunctionError(f"test function must vanish at r = R, got {where}={value!r}")
    if not np.all(np.isfinite(e2_energy(grid, a, G) if e2_G is None else e2_G)):
        raise NumericError("test function has non-finite energy E2(a, G)")
    form = _e2_form(grid, a, g, G)
    return float(form) if G.ndim == 1 else form
