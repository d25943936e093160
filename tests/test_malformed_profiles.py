"""Malformed profiles at the library's entry points: each call returns or raises a SkyrmeDyonError, with no numpy warning."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import skyrme_dyon as sd
from skyrme_dyon.errors import ParameterError, SkyrmeDyonError

N = 100  # the smallest mesh build_grid makes: even a Newton solve that runs its whole iteration budget takes milliseconds

ENTRY_POINTS = {
    "newton_solve": lambda p, s: sd.newton_solve(p, s.grid, s),
    "flow_solve": lambda p, s: sd.flow_solve(p, s.grid, s),
    "run_suite": lambda p, s: sd.run_suite(p, s),
    "observables": lambda p, s: sd.observables(p, s, strict=False),
    "action_breakdown": lambda p, s: sd.action_breakdown(p, s),
}


@pytest.fixture(scope="module")
def starts():
    """The parameters, and the initial guess and the Newton solution at (0.75 pi, 0.3, 1), N = 100, R = 30."""
    grid = sd.build_grid(30.0, N)
    p = sd.validate_params(0.75 * math.pi, 0.3, 1.0)
    guess = sd.initial_guess(p, grid)
    solution, report = sd.newton_solve(p, grid, guess)
    assert report.converged, report.message
    return p, {"guess": guess, "solution": solution}


def _malformed(s, kind, field, node, bad):
    """A copy of s with one malformation: field made complex at node, bad (NaN or +-inf) at node, a negated,
    g times 1e200, f plus 1e6, field stored as float32, or every field passed as a Python list."""
    arrays = {"a": s.a.copy(), "f": s.f.copy(), "g": s.g.copy()}
    if kind == "complex":
        arrays[field] = arrays[field].astype(complex)
        arrays[field][node] += 1e-3j
    elif kind == "non-finite":
        arrays[field][node] = bad
    elif kind == "negated-a":
        arrays["a"] = -arrays["a"]
    elif kind == "g-times-1e200":
        arrays["g"] = arrays["g"] * 1e200
    elif kind == "f-plus-1e6":
        arrays["f"] = arrays["f"] + 1e6
    elif kind == "float32":
        arrays[field] = arrays[field].astype(np.float32)
    elif kind == "list":
        arrays = {name: values.tolist() for name, values in arrays.items()}
    return sd.FieldProfile(s.grid, arrays["a"], arrays["f"], arrays["g"])


@settings(max_examples=10, deadline=None)
@given(
    kind=st.sampled_from(["complex", "non-finite", "negated-a", "g-times-1e200", "f-plus-1e6", "float32", "list"]),
    start=st.sampled_from(["guess", "solution"]),
    field=st.sampled_from("afg"),
    node=st.integers(1, N - 1),
    bad=st.sampled_from([math.nan, math.inf, -math.inf]),
)
@example(kind="complex", start="solution", field="g", node=50, bad=math.nan)
@example(kind="non-finite", start="solution", field="a", node=50, bad=math.nan)
@example(kind="non-finite", start="guess", field="f", node=50, bad=math.inf)
@example(kind="negated-a", start="guess", field="a", node=50, bad=math.nan)
@example(kind="g-times-1e200", start="solution", field="g", node=50, bad=math.nan)
@example(kind="f-plus-1e6", start="solution", field="f", node=50, bad=math.nan)
@example(kind="float32", start="guess", field="a", node=50, bad=math.nan)
@example(kind="list", start="solution", field="a", node=50, bad=math.nan)
def test_malformed_profiles_return_or_raise_a_package_error(starts, kind, start, field, node, bad):
    p, profiles = starts
    s = _malformed(profiles[start], kind, field, node, bad)
    for name, call in ENTRY_POINTS.items():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if kind == "complex":
                # rejected before numpy would drop the imaginary part with a ComplexWarning
                with pytest.raises(ParameterError, match=rf"^{field} must be real, got dtype complex128$"):
                    call(p, s)
                continue
            try:
                call(p, s)
            except SkyrmeDyonError:
                pass
    if kind == "complex":
        # the complex-step paths take it
        sd.residuals(p, s)
        sd.solve_inner_g(p, s.grid, s.a)
