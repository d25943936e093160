"""Graded radial mesh on [0, R]: stencil coefficients and quadrature.

Nodes are r_i = R * m(i/N), i = 0..N, with the one-parameter mapping

    m(x) = (1 - c) * x + c * sinh(beta x) / sinh(beta),    beta = 5.

c = 0 degenerates to a uniform mesh; c = 1 (the default) gives spacing
h(r) proportional to sqrt(s^2 + r^2) with core scale s = R/sinh(beta):
a spacing floor near the origin, then near-geometric growth, so r/h stays
bounded by ~N/beta everywhere.  Adjacent interval lengths never differ by
more than a factor 1.2, which build_grid enforces.  The bounded r/h is
what keeps the float-quantization floor of the residual evaluation
(~ (r/h)^2 * ulp per node) a safe factor below the 1e-10 solver target at
N ~ 2000; both much finer cores and much finer tails were measured to push
that floor above target.

The grid holds the mesh data of the discrete model: interval lengths h,
dual-cell (trapezoid) weights w and the half-node coefficients r_i*r_{i+1}
of (r^2 u')'.  model.py writes out the stencils; its conservative flux form
of (r^2 u')' is exact on 1, r and 1/r (the kernel and the linear growth
mode of the continuous operator), so u = c*r satisfies the discrete
equation (r^2 u')' = 2*c*r exactly on any admissible mesh.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError, ParameterError

MIN_NODES = 100
MAX_SPACING_RATIO = 1.2
DEFAULT_CLUSTER = 1.0
MAX_CLUSTER = 1.0
GEOMETRIC_RATE = 5.0


@dataclass(frozen=True)
class RadialGrid:
    """Immutable graded mesh with derived stencil/quadrature data.

    r        nodes r_0 = 0 < r_1 < ... < r_N = R
    R        outer truncation radius
    N        number of intervals, at least 2 (N+1 nodes, N-1 interior nodes)
    grading  cluster parameter c of the sinh map, or None for grids
             rebuilt from explicit nodes
    h        interval lengths, h_i = r_{i+1} - r_i
    w        dual-cell (trapezoid) weights: w_0 = h_0/2, w_N = h_{N-1}/2,
             w_i = (h_{i-1} + h_i)/2 otherwise
    p_half   half-node coefficient of (r^2 u')': p_half_i = r_i * r_{i+1}
    """

    r: np.ndarray
    R: float
    N: int
    grading: float | None
    h: np.ndarray = field(init=False, repr=False)
    w: np.ndarray = field(init=False, repr=False)
    p_half: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        r = np.asarray(self.r, dtype=float)
        if r.ndim != 1 or r.size != self.N + 1:
            raise ParameterError(f"node array must have N+1 = {self.N + 1} entries, got {r.size}")
        if self.N < 2:
            raise ParameterError(f"a mesh needs at least 2 intervals (one interior node), got N={self.N}")
        if r[0] != 0.0:
            raise ParameterError(f"first node must be 0, got {r[0]!r}")
        h = np.diff(r)
        if not np.all(h > 0.0):
            raise ParameterError("nodes must be strictly increasing")
        w = np.empty(self.N + 1)
        w[0] = 0.5 * h[0]
        w[-1] = 0.5 * h[-1]
        w[1:-1] = 0.5 * (h[:-1] + h[1:])
        p_half = r[:-1] * r[1:]
        for name, arr in (("r", r), ("h", h), ("w", w), ("p_half", p_half)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def integrate(self, values: np.ndarray) -> float:
        """Trapezoidal quadrature of nodal values (exact on piecewise linears)."""
        values = np.asarray(values)
        if values.shape != (self.N + 1,):
            raise ParameterError(f"integrand must have {self.N + 1} nodal values, got {values.shape}")
        bad = ~np.isfinite(values)
        if np.any(bad):
            raise NumericError(f"non-finite integrand at node {int(np.flatnonzero(bad)[0])}")
        return float(np.dot(values, self.w))

    def refine(self) -> "RadialGrid":
        """Same R and grading with 2N intervals; parent nodes are a subset."""
        if self.grading is not None:
            return build_grid(self.R, 2 * self.N, cluster=self.grading)
        mid = 0.5 * (self.r[:-1] + self.r[1:])
        nodes = np.empty(2 * self.N + 1)
        nodes[0::2] = self.r
        nodes[1::2] = mid
        return RadialGrid(r=nodes, R=self.R, N=2 * self.N, grading=None)


def _grading_map(xi: np.ndarray, cluster: float) -> np.ndarray:
    return (1.0 - cluster) * xi + cluster * np.sinh(GEOMETRIC_RATE * xi) / np.sinh(GEOMETRIC_RATE)


def build_grid(R: float, N: int, cluster: float = DEFAULT_CLUSTER) -> RadialGrid:
    """Build the graded mesh; cluster = 0 gives uniform spacing.

    Raises ParameterError when R <= 0, N < 100, cluster outside [0, MAX_CLUSTER = 1],
    or when the requested grading would break the 1.2 adjacent-spacing bound.
    """
    if not np.isfinite(R) or R <= 0.0:
        raise ParameterError(f"R must be positive and finite, got {R}")
    if int(N) != N or N < MIN_NODES:
        raise ParameterError(f"N must be an integer >= {MIN_NODES}, got {N}")
    N = int(N)
    if not np.isfinite(cluster) or not 0.0 <= cluster <= MAX_CLUSTER:
        raise ParameterError(f"cluster must lie in [0, {MAX_CLUSTER}], got {cluster}")
    xi = np.arange(N + 1, dtype=float) / N
    r = R * _grading_map(xi, cluster)
    r[0] = 0.0
    r[-1] = R
    h = np.diff(r)
    ratio = np.max(np.maximum(h[1:] / h[:-1], h[:-1] / h[1:]))
    if ratio > MAX_SPACING_RATIO * (1.0 + 1e-12):
        raise ParameterError(
            f"cluster={cluster} gives adjacent spacing ratio {ratio:.4f} > {MAX_SPACING_RATIO} at N={N}"
        )
    return RadialGrid(r=r, R=float(R), N=N, grading=float(cluster))


def grid_from_nodes(r: np.ndarray, grading: float | None = None) -> RadialGrid:
    """Rebuild a grid from explicit nodes (profile files round-trip through this)."""
    r = np.asarray(r, dtype=float)
    return RadialGrid(r=r, R=float(r[-1]), N=r.size - 1, grading=grading)
