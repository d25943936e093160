"""Malformed profiles at every exported function that takes a profile or its arrays: each call returns or raises a SkyrmeDyonError, with no numpy warning.

The entry points are enumerated from skyrme_dyon.__all__, so a new export
is fuzzed with no edit here: every exported function with a required
parameter named s, guess, a, g or G (PROFILE_PARAMETERS).  Each takes its
parameters first, (p, s), (p, grid, guess) or (p, grid, a), or the grid
first, (grid, a, g, G).  Its required parameters are filled by name from
one malformed profile s (_arguments): p the parameters, grid s.grid, s
and guess s itself, a and g its arrays (Python lists for the list draw),
and G its a, a test function that vanishes at R.  A parameter with a
default keeps it; a required parameter of any other name fails
test_every_exported_profile_function_can_be_called, which names the
function.

A complex field is rejected with the ParameterError that names it, before
numpy would drop the imaginary part with a ComplexWarning, by every entry
point but the complex-step paths (COMPLEX_STEP), which carry it into a
complex result.
"""

import inspect
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import skyrme_dyon as sd
from skyrme_dyon.errors import ParameterError, SkyrmeDyonError
from skyrme_dyon.observables import electric_charge, fit_decay_rate, skyrme_charge_numeric, tail_constants

N = 100  # the smallest mesh build_grid makes: even a Newton solve that runs its whole iteration budget takes milliseconds

PROFILE_PARAMETERS = {"s", "guess", "a", "g", "G"}
FILLED = PROFILE_PARAMETERS | {"p", "grid"}
COMPLEX_STEP = {"residuals", "e2_energy", "solve_inner_g", "constraint_residual"}  # take complex arrays, give complex results


def _entry_points() -> dict:
    """{name: (function, required parameter names)} for each exported function that takes a profile or its arrays."""
    out = {}
    for name in sd.__all__:
        fn = getattr(sd, name)
        if not inspect.isfunction(fn):
            continue
        required = [q.name for q in inspect.signature(fn).parameters.values() if q.default is q.empty]
        if PROFILE_PARAMETERS.intersection(required):
            out[name] = (fn, required)
    return out


ENTRY_POINTS = _entry_points()


def _arguments(p, s, as_lists: bool) -> dict:
    """Each fillable parameter name's value for the parameters p and the profile s, its arrays as Python lists when as_lists."""
    a, g = (s.a.tolist(), s.g.tolist()) if as_lists else (s.a, s.g)
    return {"p": p, "grid": s.grid, "s": s, "guess": s, "a": a, "g": g, "G": a}


def _is_complex(value) -> bool:
    """Whether value, a profile or a tuple of values holds a complex array or number."""
    if isinstance(value, sd.FieldProfile):
        value = (value.a, value.f, value.g)
    if isinstance(value, tuple):
        return any(map(_is_complex, value))
    return np.iscomplexobj(value)


def test_every_exported_profile_function_can_be_called():
    unfillable = {name: [q for q in required if q not in FILLED] for name, (_, required) in ENTRY_POINTS.items()}
    assert not {name: qs for name, qs in unfillable.items() if qs}
    assert ENTRY_POINTS


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
@example(kind="complex", start="guess", field="a", node=50, bad=math.nan)
@example(kind="non-finite", start="solution", field="a", node=50, bad=math.nan)
@example(kind="non-finite", start="guess", field="f", node=50, bad=math.inf)
@example(kind="negated-a", start="guess", field="a", node=50, bad=math.nan)
@example(kind="g-times-1e200", start="solution", field="g", node=50, bad=math.nan)
@example(kind="g-times-1e200", start="guess", field="g", node=50, bad=math.nan)
@example(kind="f-plus-1e6", start="solution", field="f", node=50, bad=math.nan)
@example(kind="float32", start="guess", field="a", node=50, bad=math.nan)
@example(kind="list", start="solution", field="a", node=50, bad=math.nan)
def test_malformed_profiles_return_or_raise_a_package_error(starts, kind, start, field, node, bad):
    p, profiles = starts
    s = _malformed(profiles[start], kind, field, node, bad)
    filled = _arguments(p, s, kind == "list")
    for name, (fn, required) in ENTRY_POINTS.items():
        args = [filled[q] for q in required]
        complex_in = _is_complex(tuple(args))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if complex_in and name not in COMPLEX_STEP:
                # rejected before numpy would drop the imaginary part with a ComplexWarning
                with pytest.raises(ParameterError, match=rf"^{field} must be real, got dtype complex128$"):
                    fn(*args)
                continue
            try:
                result = fn(*args)
            except SkyrmeDyonError:
                assert not complex_in, name
            except Exception as exc:  # a numpy warning turned error, or an exception of numpy's own
                pytest.fail(f"{name} raised {exc!r}")
            else:
                assert _is_complex(result) == complex_in, name


@pytest.mark.parametrize("kind, field", [("g-times-1e200", "g"), ("non-finite", "f")], ids=["g-times-1e200", "inf-in-f"])
@pytest.mark.parametrize("start", ["guess", "solution"])
def test_observables_internals_called_directly_give_no_numpy_warning(starts, kind, field, start):
    # observables() runs them under its np.errstate, and each holds its own; a fresh profile per call,
    # so each one is also the first reader of the profile's state, which holds its own too
    p, profiles = starts
    calls = {
        "FieldProfile._state": lambda s: s._state,
        "fit_decay_rate": lambda s: fit_decay_rate(p, s),
        "tail_constants": lambda s: tail_constants(p, s),
        "skyrme_charge_numeric": skyrme_charge_numeric,
        "electric_charge": electric_charge,
    }
    for name, call in calls.items():
        s = _malformed(profiles[start], kind, field, 50, math.inf)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                call(s)
            except SkyrmeDyonError:
                pass
            except Exception as exc:  # a numpy warning turned error
                pytest.fail(f"{name} raised {exc!r}")
