"""Graded radial mesh on [0, R]: stencil coefficients and quadrature.

Nodes are r_i = R * sinh(beta i/N) / sinh(beta), i = 0..N, beta = 5
(GEOMETRIC_RATE).  The spacing h(r) is proportional to sqrt(s^2 + r^2)
with core scale s = R/sinh(beta): a spacing floor near the origin, then
near-geometric growth, so r/h stays bounded by ~N/beta everywhere.
Adjacent interval lengths differ by at most e^(beta/N) <= e^0.05 for
N >= MIN_NODES (the most the map's slope grows over one interval), inside
the bound 1.2 that the tests assert.  The bounded r/h is what
keeps the float-quantization floor of the residual evaluation
(~ (r/h)^2 * ulp per node) a safe factor below the 1e-10 solver target at
N ~ 2000; both much finer cores and much finer tails were measured to push
that floor above target.  A uniform mesh, or one that blends it into this
map, was measured to stall Newton above 1e-10 at the (0.75 pi, 0.3, 1)
acceptance point at N = 1000 and 2000, so the mesh has no free parameter.

A RadialGrid is its nodes: R and N are read from them, and its constructor
holds every node check; build_grid makes the graded nodes.

The grid holds the mesh data of the discrete model: interval lengths h,
dual-cell (trapezoid) weights w, the half-node coefficients r_i*r_{i+1}
of (r^2 u')', and the interval conductances r_i*r_{i+1}/h_i with their
sums at the interior nodes, the stiffness of (r^2 u')' that the electric
solve and the Newton Jacobian read instead of rebuilding it per call, and
1/r^2 at the interior nodes, which the residuals and the Jacobian read.
What else depends on the nodes alone it computes on first use and then
holds, read-only, each by the expression its reader wrote inline, so
every value is bitwise the inline one: 2 w at the interior nodes (the
f'^2 average of every model._state), r^2 at nodes 1..N (the nodal E1
terms) and the six stencil weights of the Newton Jacobian.
model.py writes out the stencils; its conservative flux form
of (r^2 u')' is exact on 1, r and 1/r (the kernel and the linear growth
mode of the continuous operator), so u = c*r satisfies the discrete
equation (r^2 u')' = 2*c*r exactly on any admissible mesh.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import NumericError, ParameterError

MIN_NODES = 100
MAX_NODES = 1_000_000  # the Newton band alone takes 312 bytes per interval
GEOMETRIC_RATE = 5.0


@dataclass(frozen=True, eq=False)
class RadialGrid:
    """Immutable graded mesh: its nodes and the stencil/quadrature data derived from them.

    Grids compare and hash by identity, as their array fields have no
    single truth value.

    r        nodes r_0 = 0 < r_1 < ... < r_N = R, at least 3 of them: the
             sinh map of build_grid, or any nodes read from a file
    R        outer truncation radius, the last node
    N        number of intervals, at least 2 (N+1 nodes, N-1 interior nodes)
    h        interval lengths, h_i = r_{i+1} - r_i
    w        dual-cell (trapezoid) weights: w_0 = h_0/2, w_N = h_{N-1}/2,
             w_i = (h_{i-1} + h_i)/2 otherwise
    p_half   half-node coefficient of (r^2 u')': p_half_i = r_i * r_{i+1}
    conductance      interval conductance of (r^2 u')': p_half_i / h_i
    conductance_sum  its sum over the two intervals at interior node j:
                     conductance_{j-1} + conductance_j, j = 1..N-1
    inv_r2   1/r_j^2 at the interior nodes j = 1..N-1

    Held from first use (read-only; j = 1..N-1 unless said otherwise):
    two_w    2 w_j, the denominator of the dual-cell f'^2 average
    r2       r_i^2 at nodes i = 1..N
    lap_m, lap_p, lap_0
             1/(h_(j-1) w_j), 1/(h_j w_j) and -(lap_m + lap_p): the
             weights of u'' = (Du_j - Du_(j-1))/w_j at u_(j-1), u_(j+1), u_j
    stiff_m, stiff_p, stiff_0
             p_half_(j-1) lap_m, p_half_j lap_p and conductance_sum_j / w_j:
             the weights of (r^2 u')'/w at u_(j-1) and u_(j+1), and minus
             the weight at u_j
    """

    r: np.ndarray
    R: float = field(init=False)
    N: int = field(init=False)
    h: np.ndarray = field(init=False, repr=False)
    w: np.ndarray = field(init=False, repr=False)
    p_half: np.ndarray = field(init=False, repr=False)
    conductance: np.ndarray = field(init=False, repr=False)
    conductance_sum: np.ndarray = field(init=False, repr=False)
    inv_r2: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        r = np.asarray(self.r, dtype=float)
        if r.ndim != 1:
            raise ParameterError(f"nodes must be a 1-D array, got shape {r.shape}")
        if r.size < 3:
            raise ParameterError(f"a mesh needs at least 2 intervals (one interior node), got {r.size} nodes")
        if r[0] != 0.0:
            raise ParameterError(f"first node must be 0, got {float(r[0])}")
        # a NaN anywhere or an infinite inner node breaks the increase below; only an infinite R passes it
        if not np.isfinite(r[-1]):
            raise ParameterError(f"last node must be finite, got {float(r[-1])}")
        h = np.diff(r)
        if not np.all(h > 0.0):
            raise ParameterError("nodes must be strictly increasing")
        # the largest half-node product is the last; Python floats overflow to inf without a warning
        if not np.isfinite(float(r[-2]) * float(r[-1])):
            raise ParameterError(f"last node {float(r[-1])} is too large: the half-node product r_(N-1)*r_N overflows")
        N = r.size - 1
        w = np.empty(N + 1)
        w[0] = 0.5 * h[0]
        w[-1] = 0.5 * h[-1]
        w[1:-1] = 0.5 * (h[:-1] + h[1:])
        p_half = r[:-1] * r[1:]
        # finite: h_i is at least half an ulp of r_(i+1), so p_half_i/h_i stays below ~1e16 r_i
        conductance = p_half / h
        object.__setattr__(self, "R", float(r[-1]))
        object.__setattr__(self, "N", N)
        with np.errstate(divide="ignore"):  # r^2 underflows to 0 on a tiny mesh: inf, and the residuals it enters are not finite
            inv_r2 = 1.0 / (r[1:-1] * r[1:-1])
        arrays = (("r", r), ("h", h), ("w", w), ("p_half", p_half), ("conductance", conductance))
        arrays += (("conductance_sum", conductance[:-1] + conductance[1:]), ("inv_r2", inv_r2))
        for name, arr in arrays:
            object.__setattr__(self, name, _held(arr))

    @cached_property
    def two_w(self) -> np.ndarray:
        return _held(2.0 * self.w[1:-1])

    @cached_property
    def r2(self) -> np.ndarray:
        return _held(self.r[1:] ** 2)

    @cached_property
    def lap_m(self) -> np.ndarray:
        return _held(1.0 / (self.h[:-1] * self.w[1:-1]))

    @cached_property
    def lap_p(self) -> np.ndarray:
        return _held(1.0 / (self.h[1:] * self.w[1:-1]))

    @cached_property
    def lap_0(self) -> np.ndarray:
        return _held(-(self.lap_m + self.lap_p))

    @cached_property
    def stiff_m(self) -> np.ndarray:
        return _held(self.p_half[:-1] * self.lap_m)

    @cached_property
    def stiff_p(self) -> np.ndarray:
        return _held(self.p_half[1:] * self.lap_p)

    @cached_property
    def stiff_0(self) -> np.ndarray:
        return _held(self.conductance_sum / self.w[1:-1])

    def integrate(self, values: np.ndarray) -> float:
        """Trapezoidal quadrature of nodal values (exact on piecewise linears)."""
        values = np.asarray(values)
        if values.shape != (self.N + 1,):
            raise ParameterError(f"integrand must have {self.N + 1} nodal values, got {values.shape}")
        bad = ~np.isfinite(values)
        if np.any(bad):
            raise NumericError(f"non-finite integrand at node {int(np.flatnonzero(bad)[0])}")
        return float(np.dot(values, self.w))


def _held(arr: np.ndarray) -> np.ndarray:
    """arr, made read-only: a grid hands the same array to every reader."""
    arr.setflags(write=False)
    return arr


def build_grid(R: float, N: int) -> RadialGrid:
    """Build the graded mesh r_i = R * sinh(beta i/N) / sinh(beta).

    Raises ParameterError when R <= 0 or N outside [MIN_NODES, MAX_NODES] = [100, 1e6].
    """
    if not np.isfinite(R) or R <= 0.0:
        raise ParameterError(f"R must be positive and finite, got {R}")
    if not (MIN_NODES <= N <= MAX_NODES and int(N) == N):  # a NaN fails the range, before int() sees it
        raise ParameterError(f"N must be an integer in [{MIN_NODES}, {MAX_NODES}], got {N}")
    N = int(N)
    xi = np.arange(N + 1, dtype=float) / N
    r = R * (np.sinh(GEOMETRIC_RATE * xi) / np.sinh(GEOMETRIC_RATE))
    r[0] = 0.0
    r[-1] = R
    return RadialGrid(r)
