import importlib.machinery
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded

import skyrme_dyon as sd
from conftest import blended_grid
from skyrme_dyon import inner
from skyrme_dyon.errors import NumericError, ParameterError
from skyrme_dyon.model import e2_energy
from skyrme_dyon.verify import seeded_test_functions

OMEGA = 0.75 * math.pi


def test_unit_gauge_gives_exact_linear_potential():
    g = sd.build_grid(60.0, 2000)
    p = sd.validate_params(OMEGA, 0.3, 1.0)
    gs = sd.solve_inner_g(p, g, np.ones(g.N + 1))
    assert np.max(np.abs(gs - p.q * g.r / g.R)) <= 1e-13 * p.q


def test_zero_charge_gives_identically_zero():
    g = sd.build_grid(30.0, 300)
    p = sd.validate_params(OMEGA, 0.0, 1.0)
    gs = sd.solve_inner_g(p, g, 1.0 / (1.0 + g.r**2))
    assert np.all(gs == 0.0)


def test_requires_unit_gauge_at_origin():
    g = sd.build_grid(30.0, 300)
    p = sd.validate_params(OMEGA, 0.1, 1.0)
    a = np.full(g.N + 1, 0.5)
    with pytest.raises(ParameterError, match=r"^a\[0\] must equal 1, got 0\.5$"):
        sd.solve_inner_g(p, g, a)


def test_requires_one_gauge_value_per_node():
    g = sd.build_grid(30.0, 300)
    p = sd.validate_params(OMEGA, 0.1, 1.0)
    with pytest.raises(ParameterError, match=r"^a must have 301 nodal values, got \(300,\)$"):
        sd.solve_inner_g(p, g, np.ones(g.N))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), q=st.floats(0.01, 0.35))
def test_maximum_principle_and_monotonicity(seed, q):
    g = blended_grid(25.0, 250, 0.7)
    rng = np.random.default_rng(seed)
    decay = rng.uniform(0.2, 2.0)
    wobble = rng.uniform(-0.4, 0.4, size=3)
    a = 1.0 / (1.0 + (g.r / decay) ** 2)
    a = a + sum(c * np.sin((k + 1) * g.r / g.R * math.pi) * np.exp(-g.r) for k, c in enumerate(wobble))
    a[0] = 1.0
    p = sd.validate_params(OMEGA, q, 1.0)
    gs = sd.solve_inner_g(p, g, a)
    assert np.all(gs >= -1e-15)
    assert np.all(gs <= q * (1.0 + 1e-13))
    assert np.all(np.diff(gs) >= -1e-15)


def test_solution_minimizes_discrete_e2(monopole_small, rng):
    g = sd.build_grid(30.0, 300)
    a = 1.0 / (1.0 + g.r**2)
    a[0] = 1.0
    p = sd.validate_params(OMEGA, 0.25, 1.0)
    gs = sd.solve_inner_g(p, g, a)
    base = e2_energy(g, a, gs)
    for _ in range(20):
        pert = np.zeros(g.N + 1)
        pert[1:-1] = 1e-3 * rng.standard_normal(g.N - 1)
        assert e2_energy(g, a, gs + pert) >= base


def test_weak_form_orthogonality_at_solution():
    g = blended_grid(40.0, 500, 0.9)
    p = sd.validate_params(OMEGA, 0.2, 1.0)
    a = np.exp(-0.5 * g.r**2 / (1 + g.r))
    a[0] = 1.0
    gs = sd.solve_inner_g(p, g, a)
    # includes the specific test function 1 - r/R
    functions = np.vstack([seeded_test_functions(g, 42), 1.0 - g.r / g.R])
    assert functions.shape == (6, g.N + 1)
    for G in functions:
        scale = 1.0 + e2_energy(g, a, gs) + e2_energy(g, a, G)
        assert abs(sd.constraint_residual(g, a, gs, G)) <= 1e-12 * scale


def test_constraint_zero_potential_is_trivially_orthogonal():
    g = sd.build_grid(30.0, 300)
    a = np.exp(-g.r)
    a[0] = 1.0
    G = (1.0 - g.r / g.R) * np.sin(g.r)
    assert sd.constraint_residual(g, a, np.zeros(g.N + 1), G) == 0.0


def test_constraint_detects_non_minimizer():
    g = sd.build_grid(40.0, 500)
    p = sd.validate_params(OMEGA, 0.2, 1.0)
    a = np.exp(-g.r)
    a[0] = 1.0
    g_lin = p.q * g.r / g.R  # not the minimizer for this a
    G = 1.0 - g.r / g.R
    assert abs(sd.constraint_residual(g, a, g_lin, G)) > 1e-4


def test_constraint_rejects_bad_test_function():
    g = sd.build_grid(30.0, 300)
    a = np.ones(g.N + 1)
    gs = 0.1 * g.r / g.R
    G = np.ones(g.N + 1)
    with pytest.raises(ParameterError, match=r"test function must vanish at r = R, got G\[-1\]=1\.0$"):
        sd.constraint_residual(g, a, gs, G)
    bad = np.zeros(g.N + 1)
    bad[3] = np.inf
    with pytest.raises(NumericError):
        sd.constraint_residual(g, a, gs, bad)


def test_constraint_residual_of_a_stack_is_bitwise_its_rows():
    g = sd.build_grid(40.0, 500)
    p = sd.validate_params(OMEGA, 0.2, 1.0)
    a = np.exp(-g.r)
    a[0] = 1.0
    g_lin = p.q * g.r / g.R  # not the minimizer, so the values are far from round-off
    stack = np.vstack([seeded_test_functions(g, 7), 1.0 - g.r / g.R])
    values = sd.constraint_residual(g, a, g_lin, stack)
    assert values.shape == (6,)
    assert [float(v) for v in values] == [sd.constraint_residual(g, a, g_lin, G) for G in stack]
    assert np.array_equal(sd.constraint_residual(g, a, g_lin, stack, e2_G=e2_energy(g, a, stack)), values)


def test_constraint_residual_names_the_bad_row_of_a_stack():
    g = sd.build_grid(30.0, 300)
    a = np.ones(g.N + 1)
    gs = 0.1 * g.r / g.R
    stack = seeded_test_functions(g, 42)
    outer = stack.copy()
    outer[2, -1] = 1.0
    with pytest.raises(ParameterError, match=r"G\[2, -1\]=1\.0$"):
        sd.constraint_residual(g, a, gs, outer)
    bad = stack.copy()
    bad[1, 3] = np.nan
    with pytest.raises(NumericError, match="non-finite G at node 3 of test function 1"):
        sd.constraint_residual(g, a, gs, bad)
    with pytest.raises(NumericError, match="non-finite energy"):
        sd.constraint_residual(g, a, gs, stack, e2_G=np.array([1.0, 1.0, np.inf, 1.0, 1.0]))
    # a finite row whose E2 overflows raises the same error, not numpy's overflow warning
    huge = stack.copy()
    huge[2] *= 1e300
    with pytest.raises(NumericError, match=r"test function has non-finite energy E2\(a, G\)"):
        sd.constraint_residual(g, a, gs, huge)
    for shape in ((5, g.N), (2, 5, g.N + 1)):
        with pytest.raises(ParameterError, match="G must have"):
            sd.constraint_residual(g, a, gs, np.zeros(shape))
    with pytest.raises(ParameterError, match="g must have"):
        sd.constraint_residual(g, a, stack, stack)


def test_flux_identity_telescopes():
    g = blended_grid(30.0, 400, 0.8)
    p = sd.validate_params(OMEGA, 0.3, 1.0)
    a = 1.0 / (1.0 + 0.5 * g.r**2)
    a[0] = 1.0
    gs = sd.solve_inner_g(p, g, a)
    flux = g.p_half * np.diff(gs) / g.h
    w = g.w[1:-1]
    cum = np.cumsum(2.0 * a[1:-1] ** 2 * gs[1:-1] * w)
    ra, rf, rg = sd.residuals(p, sd.FieldProfile(g, a, np.zeros(g.N + 1), gs))
    budget = np.cumsum(w * np.abs(rg))
    assert np.max(np.abs(flux[1:] - cum) - budget) <= 5e-12 * (1.0 + np.max(np.abs(flux)))


def test_inner_solution_of_converged_dyon_is_strictly_increasing(solved_points):
    for (omega, q, kappa), (p, s, _) in solved_points.items():
        if q == 0.0:
            continue
        gs = sd.solve_inner_g(p, s.grid, s.a)
        assert np.max(np.abs(gs - s.g)) <= 1e-9
        assert np.all(np.diff(gs) > 0.0)
        assert np.all(gs[1:-1] < q)


def _banded_reference_g(p, grid, a):
    """The electric-sector solve through one scipy.linalg.solve_banded call."""
    h, P, w = grid.h, grid.p_half, grid.w[1:-1]
    main = P[:-1] / h[:-1] + P[1:] / h[1:] + 2.0 * (a[1:-1] * a[1:-1]) * w
    off = -P[1:-1] / h[1:-1]
    rhs = np.zeros(grid.N - 1, dtype=np.result_type(a, float))
    rhs[-1] = P[-1] / h[-1] * p.q
    ab = np.zeros((3, grid.N - 1), dtype=rhs.dtype)
    ab[0, 1:], ab[1], ab[2, :-1] = off, main, off
    return np.concatenate(([0.0], solve_banded((1, 1), ab, rhs), [p.q]))


@pytest.mark.parametrize("nodes", [2, 3, 4, 300])
@pytest.mark.parametrize("complex_step", [False, True])
def test_factorized_inner_solve_is_bitwise_the_banded_solve(rng, nodes, complex_step):
    # the electric solve gives the same bits as one banded solve, for the
    # complex a of the gradient checks too: one gtsv call, and a 1 x 1
    # system divided directly, as solve_banded divides it
    g = sd.RadialGrid(np.linspace(0.0, 30.0, nodes + 1) ** 1.2)
    p = sd.validate_params(OMEGA, 0.3, 1.0)
    a = (1.0 / (1.0 + g.r**2)) * (1.0 + 0.1 * rng.standard_normal(g.N + 1))
    a[0], a[-1] = 1.0, 0.0
    if complex_step:
        a = a.astype(complex)
        a[g.N // 2] += 1e-30j
    gs = sd.solve_inner_g(p, g, a)
    ref = _banded_reference_g(p, g, a)
    assert gs.dtype == ref.dtype
    assert gs.tobytes() == ref.tobytes()


@pytest.mark.parametrize("R, N", [(30.0, 300), (60.0, 2000)])
def test_inner_solve_on_grid_held_stiffness_is_bitwise_the_per_call_assembly(rng, R, N):
    # solve_inner_g reads the grid's conductances and checks its diagonal
    # once; the solution keeps the bits of the assembly that divides P/h on
    # every call, in _banded_reference_g
    g = sd.build_grid(R, N)
    for q in (0.0, 0.05, 0.3):
        p = sd.validate_params(OMEGA, q, 1.0)
        for _ in range(3):
            a = rng.uniform(0.0, 2.0, g.N + 1)
            a[0], a[-1] = 1.0, 0.0
            assert sd.solve_inner_g(p, g, a).tobytes() == _banded_reference_g(p, g, a).tobytes()


def test_singular_one_by_one_system_raises_as_gtsv_does():
    # r_i*r_(i+1) underflows to 0 and a = 0 inside: the 1 x 1 system is 0 * g_1 = 0
    g = sd.RadialGrid(np.array([0.0, 1e-200, 2e-200]))
    p = sd.validate_params(OMEGA, 0.1, 1.0)
    with pytest.raises(NumericError, match="^singular matrix$"):
        sd.solve_inner_g(p, g, np.array([1.0, 0.0, 0.0]))


def test_non_finite_diagonal_is_reported_with_its_node():
    g = sd.build_grid(30.0, 300)
    p = sd.validate_params(OMEGA, 0.3, 1.0)
    a = np.linspace(1.0, 0.0, g.N + 1)
    a[7] = 1e200  # finite, but a^2 overflows
    with np.errstate(over="ignore"), pytest.raises(NumericError, match="diagonal at node 7"):
        sd.solve_inner_g(p, g, a)


# A fresh process: importing the CLI loads no scipy.linalg, and each LAPACK
# routine the package binds, from its private copy of scipy's _flapack,
# gives scipy.linalg's bits on small systems.
LAPACK_CHILD = """
import sys
import skyrme_dyon.cli
from skyrme_dyon import inner
assert "scipy.linalg" not in sys.modules, sorted(m for m in sys.modules if m.startswith("scipy"))

import numpy as np
import scipy.linalg.lapack as lapack
from scipy.linalg import solve_banded

assert inner._flapack is not sys.modules["scipy.linalg._flapack"]
rng = np.random.default_rng(0)
ab = rng.random((13, 4))  # a (4, 4) band of 4 unknowns, in gbtrf's storage with 4 rows of fill
ab[8] += 8.0
b = rng.random(4)
lu, piv, info = inner.dgbtrf(ab, 4, 4)
assert info == 0 and all(np.array_equal(x, y) for x, y in zip((lu, piv), lapack.dgbtrf(ab, 4, 4)))
x, info = inner.dgbtrs(lu, 4, 4, b, piv)
assert info == 0 and x.tobytes() == lapack.dgbtrs(lu, 4, 4, b, piv)[0].tobytes() == solve_banded((4, 4), ab[4:], b).tobytes()
d, e = 4.0 + rng.random(5), rng.random(4)
ldl = inner.dpttrf(d, e)
assert all(np.array_equal(x, y) for x, y in zip(ldl, lapack.dpttrf(d, e))) and ldl[-1] == 0
b5 = rng.random(5)
assert inner.dpttrs(*ldl[:2], b5)[0].tobytes() == lapack.dpttrs(*ldl[:2], b5)[0].tobytes()
off, main = -rng.random(4), 4.0 + rng.random(5)
band = np.array([np.r_[0.0, off], main, np.r_[off, 0.0]])
for rhs, gtsv in ((rng.random(5), inner.dgtsv), (rng.random(5) + 1e-30j * rng.random(5), inner.zgtsv)):
    x = gtsv(off, main, off, rhs)[3]
    assert x.dtype == rhs.dtype
    assert x.tobytes() == solve_banded((1, 1), band.astype(rhs.dtype), rhs).tobytes()
print("ok")
"""


def test_cli_imports_no_scipy_linalg_and_its_lapack_is_scipys():
    # a child interpreter, about 0.4 s with its scipy.linalg import: this process has scipy.linalg loaded already
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", LAPACK_CHILD], env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0 and out.stdout == "ok\n", out.stderr


def test_lapack_loader_shares_a_loaded_scipy_linalg_and_names_where_it_looked(monkeypatch):
    # this module imported scipy.linalg, so a second load returns scipy's own module
    assert inner._load_flapack() is sys.modules["scipy.linalg._flapack"]
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec", classmethod(lambda cls, name, path=None, target=None: None))
    with pytest.raises(ImportError, match=r"_flapack not found in \[.*linalg'\]$"):
        inner._load_flapack()
