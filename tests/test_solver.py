import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy.linalg import solve_banded

import skyrme_dyon as sd
from conftest import count_state_evaluations, perturbed_guess, with_value
from skyrme_dyon import solver
from skyrme_dyon.errors import NumericError, ParameterError, RegionError
from skyrme_dyon.inner import _spd_tridiagonal_solver
from skyrme_dyon.io import read_profile_csv, write_profile_csv
from skyrme_dyon.solver import (
    _band_workspace,
    _banded_solver,
    _jacobian_banded,
    _residual_vector,
    _trial_state,
)

OMEGA = 0.75 * math.pi


def test_initial_guess_shapes_and_bounds():
    g = sd.build_grid(30.0, 300)
    p = sd.validate_params(OMEGA, 0.3, 1.0)
    s = sd.initial_guess(p, g)
    assert (s.a[0], s.f[0], s.g[0]) == (1.0, 0.0, 0.0)
    assert (s.a[-1], s.f[-1], s.g[-1]) == (0.0, p.f_infinity, p.q)
    assert np.all(np.diff(s.f) > 0.0) and np.all(np.diff(s.a) < 0.0)
    assert np.all(s.f[1:-1] > 0.0) and np.all(s.f[1:-1] < p.f_infinity)
    assert np.all(s.g[1:-1] > 0.0) and np.all(s.g[1:-1] < p.q)
    assert np.all(s.a[:-1] > 0.0)
    p0 = sd.validate_params(OMEGA, 0.0, 1.0)
    assert np.all(sd.initial_guess(p0, g).g == 0.0)


@pytest.mark.parametrize("steps", [None, [0.0, 0.0, 0.3]], ids=["default-ladder", "two-legs-at-q-0"])
def test_ladder_legs_start_from_the_previous_legs_arrays(monkeypatch, grid_small, steps):
    # a later leg hands the previous leg's a and f to newton_solve as they are, and _start makes the one copy;
    # its g is the previous g rescaled to the new q, or the initial guess's after a leg at q = 0
    _reject_direct_attempt(monkeypatch, grid_small)
    calls = _record_newton_calls(monkeypatch)
    p = sd.validate_params(OMEGA, 0.3, 1.0)
    _, rep = sd.continuation_solve(p, grid_small, sd.SolveConfig(continuation_steps=steps))
    legs = calls[1:]
    assert rep.converged and [leg.path for leg in rep.continuation_trace] == ["direct"] + ["newton"] * len(legs)
    p0, _, first, _ = legs[0]
    assert p0.q == 0.0 and all(getattr(first, n).tobytes() == getattr(sd.initial_guess(p0, grid_small), n).tobytes() for n in "afg")
    for (p_prev, _, _, prev), (p_k, _, guess, _) in zip(legs, legs[1:]):
        assert np.shares_memory(guess.a, prev.a) and np.shares_memory(guess.f, prev.f)
        g = sd.initial_guess(p_k, grid_small).g if p_prev.q == 0.0 else prev.g * (p_k.q / p_prev.q)
        assert guess.g[1:-1].tobytes() == g[1:-1].tobytes()
    for p_k, _, _, s in legs:
        assert (s.a[0], s.f[0], s.g[0]) == (1.0, 0.0, 0.0)
        assert (s.a[-1], s.f[-1], s.g[-1]) == (0.0, p_k.f_infinity, p_k.q)


def test_the_package_writes_into_no_built_profile(tmp_path):
    # every profile holds read-only views of its arrays, so a write into a built profile raises ValueError
    omega = 0.505 * math.pi
    p = sd.validate_params(omega, 0.999 * sd.admissible_q_max(omega), 0.0)
    grid = sd.build_grid(60.0, 500)
    s, rep = sd.continuation_solve(p, grid)
    # the direct attempt lands on the wrong branch, so the route walks the q ladder: five legs start from the one before
    assert rep.converged and [leg.path for leg in rep.continuation_trace] == ["direct"] + ["newton"] * 6 + ["fine"]
    for name in "afg":
        with pytest.raises(ValueError, match="read-only"):
            getattr(s, name)[1] = 0.5
    sd.flow_solve(p, grid, sd.initial_guess(p, grid))
    sd.run_suite(p, s)
    sd.observables(p, s)
    write_profile_csv(tmp_path / "profile.csv", p, s)
    sd.run_suite(*read_profile_csv(tmp_path / "profile.csv"))


def test_newton_restart_from_solution_converges_immediately(monopole_small):
    p, s, _ = monopole_small
    s2, rep = sd.newton_solve(p, s.grid, s)
    assert rep.converged and rep.iterations <= 2
    assert rep.final_residual_norm <= 1e-10


def test_newton_monopole_keeps_g_identically_zero(monopole_small):
    p, s, rep = monopole_small
    assert rep.converged and p.q == 0.0
    assert np.all(s.g == 0.0)


def test_newton_report_contract(monopole_small):
    _, _, rep = monopole_small
    assert rep.path == "newton"
    assert rep.converged and rep.final_residual_norm <= 1e-10
    assert rep.action is not None and np.isfinite(rep.action.E)
    assert rep.properties_ok
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(rep, "message", rep.message)
    assert isinstance(rep.continuation_trace, tuple) and isinstance(rep.j_trace, tuple)


def _fields_holding_a_list(value, path="result"):
    """The paths of the lists in value, going down through dataclass fields and tuple items."""
    if isinstance(value, list):
        return [path]
    if isinstance(value, tuple):
        return [hit for i, item in enumerate(value) for hit in _fields_holding_a_list(item, f"{path}[{i}]")]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return [hit for f in dataclasses.fields(value) for hit in _fields_holding_a_list(getattr(value, f.name), f"{path}.{f.name}")]
    return []


def test_every_result_is_a_frozen_value_without_lists(solved_points):
    # a result is built once: every public dataclass is frozen, and no field of a solve or battery result,
    # down through the trace's reports, holds a list that could still be appended to
    exported = [getattr(sd, name) for name in sd.__all__]
    classes = [obj for obj in exported if isinstance(obj, type) and dataclasses.is_dataclass(obj)]
    assert sd.VerifyReport in classes and sd.SolveReport in classes
    assert [c.__name__ for c in classes if not c.__dataclass_params__.frozen] == []
    p, s, rep = next(iter(solved_points.values()))
    grid = sd.build_grid(30.0, 500)
    pf = sd.validate_params(OMEGA, 0.3, 1.0)
    _, flow_rep = sd.flow_solve(pf, grid, sd.initial_guess(pf, grid))
    assert len(rep.continuation_trace) == len(flow_rep.continuation_trace) == 2
    suite = sd.run_suite(p, s)
    for name, result in [("continuation", rep), ("flow", flow_rep), ("suite", suite)]:
        assert _fields_holding_a_list(result, name) == []


def test_newton_report_action_reads_the_final_iterates_state(monkeypatch, grid_small):
    # the closing action sums the state that the last accepted trial's residual formed, not a second one
    original = solver.action_breakdown
    summed = []
    evaluated = count_state_evaluations(monkeypatch)

    def recording(p, s):
        summed.append((s, len(evaluated)))
        action = original(p, s)
        assert len(evaluated) == summed[-1][1]  # the action evaluated no state
        return action

    monkeypatch.setattr(solver, "action_breakdown", recording)
    p = sd.validate_params(OMEGA, 0.3, 1.0)
    s, rep = sd.newton_solve(p, grid_small, sd.initial_guess(p, grid_small))
    assert rep.converged and [profile for profile, _ in summed] == [s]
    assert evaluated[-1] is s
    fresh = sd.FieldProfile(s.grid, s.a, s.f, s.g)._state
    for name in ("sin2", "df", "dg"):
        assert getattr(s._state, name).tobytes() == getattr(fresh, name).tobytes(), name
    assert rep.action == original(p, s)


def test_newton_failure_is_reported_not_raised(monkeypatch):
    g = sd.build_grid(30.0, 300)
    p = sd.validate_params(OMEGA, 0.3, 1.0)
    monkeypatch.setattr(solver, "MAX_NEWTON_ITERS", 1)
    cfg = sd.SolveConfig()
    _, rep = sd.newton_solve(p, g, sd.initial_guess(p, g), cfg)
    assert not rep.converged
    assert rep.final_residual_norm > cfg.tol_residual
    assert rep.message == f"iteration budget of 1 exhausted at residual {rep.final_residual_norm:.3e}"


def test_newton_names_a_non_finite_start():
    g = sd.build_grid(30.0, 300)
    p = sd.validate_params(OMEGA, 0.3, 1.0)
    # an infinite residual must not enter the iteration, as NaN does not
    for field, value, shown in (("f", np.nan, "nan"), ("g", np.inf, "inf")):
        guess = with_value(sd.initial_guess(p, g), field, 150, value)
        _, rep = sd.newton_solve(p, g, guess)
        assert not rep.converged
        assert rep.iterations == 0 and rep.factorizations == 0
        assert rep.message == f"non-finite residual ({shown}) at the starting profile"


def test_newton_on_a_degenerate_grid_is_reported_without_warnings():
    # r^2 underflows on this grid; the run must end in a report, and the
    # suite turns any numpy RuntimeWarning into an error
    g = sd.build_grid(1e-300, 100)
    p = sd.validate_params(OMEGA, 0.0, 1.0)
    _, rep = sd.newton_solve(p, g, sd.initial_guess(p, g))
    assert not rep.converged
    assert rep.message.startswith("non-finite residual")


def _complex_step_band(p, prof, h=1e-30):
    """Every band entry of the stacked residuals' Jacobian (l = u = 4) from nine complex-step evaluations.

    Columns nine apart share no row, so evaluation c perturbs the unknowns
    c, c + 9, ... at once and each row's imaginary part is the one entry of
    its perturbed column: ab[4 + d, j] = Im(res(x + ih e_j)[j + d]) / h.
    """
    n = 3 * (prof.grid.N - 1)
    ab = np.zeros((9, n))
    for c in range(9):
        step = np.zeros(n, dtype=complex)
        step[c::9] = 1j * h
        a, f, g = (field.astype(complex) for field in (prof.a, prof.f, prof.g))
        a[1:-1] += step[0::3]
        f[1:-1] += step[1::3]
        g[1:-1] += step[2::3]
        ra, rf, rg = sd.residuals(p, sd.FieldProfile(prof.grid, a, f, g))
        res = np.empty(n)
        res[0::3], res[1::3], res[2::3] = ra.imag / h, rf.imag / h, rg.imag / h
        perturbed = np.arange(c, n, 9)
        for d in range(-4, 5):
            cols = perturbed[(perturbed + d >= 0) & (perturbed + d < n)]
            ab[4 + d, cols] = res[cols + d]
    return ab


@pytest.mark.parametrize("kappa", [0.0, 1.0, 100.0])
def test_jacobian_is_the_complex_step_jacobian_at_round_off(rng, kappa):
    # the complex step has no cancellation, so it checks every band entry far below the finite-difference tests' 1e-6
    g = sd.build_grid(40.0, 400)
    p = sd.validate_params(OMEGA, 0.2, kappa)
    perturbed = perturbed_guess(p, g, rng)
    # a near 0 over the outer half, and sin f near 0 over the inner quarter (f near 0) and around node 250 (f near pi)
    a, f = perturbed.a.copy(), perturbed.f.copy()
    a[g.N // 2 : -1] = 1e-9 * rng.uniform(0.5, 1.5, g.N // 2)
    f[1 : g.N // 4] = 1e-9 * rng.uniform(0.5, 1.5, g.N // 4 - 1)
    f[240:260] = math.pi - 1e-9 * rng.uniform(0.5, 1.5, 20)
    degenerate = sd.FieldProfile(g, a, f, perturbed.g)
    for prof in (perturbed, degenerate):
        ab = _jacobian_banded(p, prof, _band_workspace(g))
        oracle = _complex_step_band(p, prof)
        worst = np.max(np.abs(ab - oracle), axis=0) / np.max(np.abs(oracle), axis=0)
        assert np.max(worst) <= 1e-13


def test_jacobian_bandwidth_is_four(rng):
    # the dense finite-difference Jacobian: the a_j <-> f_(j+-1) couplings
    # sit at offsets +-4, and nothing lies beyond them
    g = sd.build_grid(30.0, 100)
    p = sd.validate_params(OMEGA, 0.2, 1.0)
    prof = perturbed_guess(p, g, rng, g_noise=0.0)
    n = 3 * (g.N - 1)
    jac = np.empty((n, n))
    for j in range(n):
        # the step is h at the stacked interior coordinate j: field j % 3 at node 1 + j // 3
        h = 1e-6 * (1.0 + abs((prof.a, prof.f, prof.g)[j % 3][1 + j // 3]))
        step = np.zeros(n)
        step[j] = h
        rp, rm = _trial_state(p, prof, step)[1], _trial_state(p, prof, -step)[1]
        jac[:, j] = (rp - rm) / (2.0 * h)
    offset = np.subtract.outer(np.arange(n), np.arange(n))
    assert np.all(jac[np.abs(offset) > 4] == 0.0)
    assert np.count_nonzero(jac[offset == 4]) > 0 and np.count_nonzero(jac[offset == -4]) > 0
    assert _jacobian_banded(p, prof, _band_workspace(g)).shape == (9, n)


def test_banded_solver_is_bitwise_solve_banded_and_workspace_reassembles(rng):
    g = sd.build_grid(40.0, 400)
    p = sd.validate_params(OMEGA, 0.2, 1.0)
    prof = perturbed_guess(p, g, rng)
    rvec, _ = _residual_vector(p, prof)
    fresh = _jacobian_banded(p, prof, _band_workspace(g))
    work = _band_workspace(g)
    ab = _jacobian_banded(p, prof, work)
    assert np.shares_memory(ab, work)
    assert np.array_equal(ab, fresh)
    solve = _banded_solver(work)
    # one factorization serves every right-hand side, each bitwise solve_banded's
    for b in (-rvec, rng.standard_normal(rvec.size)):
        b_copy = b.copy()
        assert np.array_equal(solve(b), solve_banded((4, 4), fresh, b))
        assert np.array_equal(b, b_copy)
    # the factorization overwrote the workspace, LU fill-in rows included
    assert np.any(work[:4] != 0.0)
    ab = _jacobian_banded(p, prof, work)
    assert np.array_equal(ab, fresh)
    assert np.all(work[:4] == 0.0)


@pytest.mark.parametrize(
    "fill, reason", [(0.0, "singular matrix"), (np.nan, "array must not contain infs or NaNs")]
)
def test_newton_factorization_failure_is_reported_not_raised(monkeypatch, grid_small, fill, reason):
    original = solver._jacobian_banded

    def broken(*args, **kwargs):
        ab = original(*args, **kwargs)
        ab[...] = fill
        return ab

    monkeypatch.setattr(solver, "_jacobian_banded", broken)
    p = sd.validate_params(OMEGA, 0.3, 1.0)
    _, rep = sd.newton_solve(p, grid_small, sd.initial_guess(p, grid_small))
    assert rep.converged is False
    assert rep.iterations == 0
    assert rep.message == f"jacobian factorization failed: {reason}"


def test_newton_non_finite_step_is_reported_without_warnings(monkeypatch, grid_small):
    def nan_solver(work):
        return lambda b: np.full_like(b, np.nan)

    monkeypatch.setattr(solver, "_banded_solver", nan_solver)
    p = sd.validate_params(OMEGA, 0.3, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        _, rep = sd.newton_solve(p, grid_small, sd.initial_guess(p, grid_small))
    assert not rep.converged
    assert rep.iterations == 0 and rep.factorizations == 1
    assert rep.message == "jacobian solve produced non-finite step"


def test_newton_reports_a_non_finite_closing_action_and_raises_other_errors(monkeypatch, grid_small):
    p = sd.validate_params(OMEGA, 0.3, 1.0)
    guess = sd.initial_guess(p, grid_small)

    def non_finite(p, s):
        raise NumericError("non-finite action term at node 3")

    monkeypatch.setattr(solver, "action_breakdown", non_finite)
    _, rep = sd.newton_solve(p, grid_small, guess)
    assert rep.action is None
    assert not rep.converged
    assert rep.message == "action not evaluable: non-finite action term at node 3"

    def broken(p, s):
        raise TypeError("a programming error")

    # only a non-finite term is a report; any other error is a bug and propagates
    monkeypatch.setattr(solver, "action_breakdown", broken)
    with pytest.raises(TypeError, match="a programming error"):
        sd.newton_solve(p, grid_small, guess)


def test_chord_trial_that_does_not_contract_is_discarded(monkeypatch, grid_small):
    p = sd.validate_params(OMEGA, 0.3, 1.0)
    guess = sd.initial_guess(p, grid_small)
    with monkeypatch.context() as m:
        m.setattr(solver, "CHORD_CONTRACTION", 0.0)
        newton, newton_rep = sd.newton_solve(p, grid_small, guess)
    original = solver._banded_solver
    chord_trials = []

    def halving_chords(work):
        solve = original(work)
        solves = []

        def solve_or_halve(b):
            # the first solve on a factorization is its Newton step, later ones are chord trials
            solves.append(b)
            if len(solves) == 1:
                return solve(b)
            chord_trials.append(b)
            return 0.5 * solve(b)

        return solve_or_halve

    jacobian, residuals = solver._jacobian_banded, solver.residuals
    evaluated = []  # each profile whose residual Newton evaluates: the start, then each trial
    after_chord = []  # (profile the Jacobian reads, last accepted trial) after each discarded chord trial

    def recording_residuals(p, s):
        evaluated.append(s)
        return residuals(p, s)

    def recording_jacobian(p, s, work):
        if len(after_chord) < len(chord_trials):  # a chord trial was just discarded; it was evaluated last
            after_chord.append((s, evaluated[-2]))
        return jacobian(p, s, work)

    monkeypatch.setattr(solver, "_banded_solver", halving_chords)
    monkeypatch.setattr(solver, "residuals", recording_residuals)
    monkeypatch.setattr(solver, "_jacobian_banded", recording_jacobian)
    s, rep = sd.newton_solve(p, grid_small, guess)
    assert chord_trials and rep.converged
    # a discarded trial leaves no trace: each iteration is then the Newton step at a fresh factorization
    assert rep.iterations == rep.factorizations == newton_rep.iterations == newton_rep.factorizations
    for name in ("a", "f", "g"):
        assert getattr(s, name).tobytes() == getattr(newton, name).tobytes()
    # after a discarded chord trial the Jacobian reads the last accepted trial's own arrays, in a new profile
    # without that trial's state, not a copy of them
    assert len(after_chord) == len(chord_trials)
    for read, last in after_chord:
        assert read is not last and np.shares_memory(read.a, last.a)


def test_flow_names_a_non_finite_start(grid_small):
    p = sd.validate_params(OMEGA, 0.3, 1.0)
    for field, value in (("a", np.nan), ("f", np.nan), ("f", -np.inf)):
        guess = with_value(sd.initial_guess(p, grid_small), field, 150, value)
        _, rep = sd.flow_solve(p, grid_small, guess)
        assert not rep.converged and rep.iterations == 0
        assert rep.message == f"non-finite {field} at node 150 of the starting profile"


@pytest.mark.parametrize("solve", [sd.newton_solve, sd.flow_solve], ids=["newton", "flow"])
@pytest.mark.parametrize("R, N", [(30.0, 1000), (60.0, 500)], ids=["same-N-other-R", "other-N"])
def test_solve_rejects_a_guess_on_another_grid(solve, R, N):
    # a guess brings its own grid: with the same N it would solve at the wrong radii, with another N fail to broadcast
    p = sd.validate_params(OMEGA, 0.3, 1.0)
    guess = sd.initial_guess(p, sd.build_grid(60.0, 1000))
    with pytest.raises(ParameterError, match="guess lies on another grid"):
        solve(p, sd.build_grid(R, N), guess)


@pytest.mark.parametrize("solve", [sd.newton_solve, sd.flow_solve], ids=["newton", "flow"])
def test_solve_accepts_a_guess_on_an_equal_grid(tmp_path, grid_small, solve):
    # read_profile_csv builds its own RadialGrid on the file's nodes, which equal grid_small's
    p = sd.validate_params(OMEGA, 0.3, 1.0)
    guess = sd.initial_guess(p, grid_small)
    write_profile_csv(tmp_path / "guess.csv", p, guess)
    _, read = read_profile_csv(tmp_path / "guess.csv")
    assert read.grid is not grid_small
    s, rep = solve(p, grid_small, read)
    ref, ref_rep = solve(p, grid_small, guess)
    assert rep.converged and rep.iterations == ref_rep.iterations
    assert s.grid is grid_small
    for name in ("a", "f", "g"):
        assert getattr(s, name).tobytes() == getattr(ref, name).tobytes()


@pytest.mark.parametrize("solve", [sd.newton_solve, sd.flow_solve], ids=["newton", "flow"])
@pytest.mark.parametrize("name", ["a", "f"])
def test_solve_starts_from_a_float64_copy_of_a_float32_guess(grid_small, solve, name):
    # the boundary data are set exactly and the iterates run in float64, whatever the guess's dtype
    p = sd.validate_params(OMEGA, 0.3, 1.0)
    guess = sd.initial_guess(p, grid_small)
    narrow = getattr(guess, name).astype(np.float32)
    s, rep = solve(p, grid_small, dataclasses.replace(guess, **{name: narrow}))
    ref, ref_rep = solve(p, grid_small, dataclasses.replace(guess, **{name: narrow.astype(float)}))
    assert rep.converged and rep.iterations == ref_rep.iterations
    for field in ("a", "f", "g"):
        assert getattr(s, field).dtype == np.float64
        assert getattr(s, field).tobytes() == getattr(ref, field).tobytes()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "a_interior, message",
    [
        (1e160, "non-finite electric-sector diagonal at node 1 of the starting profile"),  # 2 a^2 w overflows
        (1e100, "non-finite action term at node 1 of the starting profile"),  # (a^2 - 1)^2 / r^2 overflows
    ],
)
def test_flow_reports_an_overflowing_start(a_interior, message):
    # finite, but too large for the electric solve or the action: a report, as from Newton, never an exception or a warning
    g = sd.build_grid(60.0, 300)
    p = sd.validate_params(OMEGA, 0.1, 1.0)
    guess = with_value(sd.initial_guess(p, g), "a", slice(1, -1), a_interior)
    _, rep = sd.flow_solve(p, g, guess)
    assert not rep.converged and rep.iterations == 0
    assert rep.message == message
    _, newton = sd.newton_solve(p, g, guess)
    assert not newton.converged and newton.message.startswith("non-finite residual")


def test_flow_rejects_a_trial_whose_electric_solve_raises(monkeypatch, grid_small):
    # a trial that overflows is rejected by halving its step, as one that raises J is
    calls = []
    real_inner = solver.solve_inner_g

    def raising_once(p, grid, a):
        calls.append(1)
        if len(calls) == 2:  # the first trial; the first call sets g of the guess
            raise NumericError("non-finite electric-sector diagonal at node 1")
        return real_inner(p, grid, a)

    monkeypatch.setattr(solver, "solve_inner_g", raising_once)
    p = sd.validate_params(OMEGA, 0.1, 1.0)
    s, rep = sd.flow_solve(p, grid_small, sd.initial_guess(p, grid_small))
    assert rep.converged, rep.message
    assert len(calls) - 1 > rep.iterations  # more trials than accepted steps
    assert rep.final_residual_norm == max(float(np.max(np.abs(r))) for r in sd.residuals(p, s))


def test_flow_names_its_residual_when_the_step_underflows(monkeypatch, grid_small):
    monkeypatch.setattr(solver, "MIN_STEP", 2.0)  # even the full step is below it
    p = sd.validate_params(OMEGA, 0.1, 1.0)
    s, rep = sd.flow_solve(p, grid_small, sd.initial_guess(p, grid_small))
    assert not rep.converged and rep.iterations == 0
    assert rep.final_residual_norm == max(float(np.max(np.abs(r))) for r in sd.residuals(p, s))
    assert rep.message == f"flow step size underflow at residual {rep.final_residual_norm:.3e}"


def test_flow_from_converged_solution_terminates_immediately(monopole_small):
    p, s, _ = monopole_small
    s2, rep = sd.flow_solve(p, s.grid, s)
    assert rep.converged and rep.iterations == 0


def test_flow_matches_newton_and_j_monotone():
    g = sd.build_grid(30.0, 300)
    p = sd.validate_params(OMEGA, 0.1, 1.0)
    guess = sd.initial_guess(p, g)
    sn, rn = sd.newton_solve(p, g, guess)
    sf, rf = sd.flow_solve(p, g, guess)
    assert rn.converged and rf.converged
    assert rf.path == "flow"
    diff = max(np.max(np.abs(sn.a - sf.a)), np.max(np.abs(sn.f - sf.f)), np.max(np.abs(sn.g - sf.g)))
    assert diff <= 1e-7
    jt = np.asarray(rf.j_trace)
    assert np.all(np.diff(jt) <= 1e-12 * (1.0 + np.abs(jt[:-1])))


def test_flow_keeps_g_zero_in_monopole_limit():
    g = sd.build_grid(30.0, 300)
    p = sd.validate_params(OMEGA, 0.0, 1.0)
    s, rep = sd.flow_solve(p, g, sd.initial_guess(p, g))
    assert rep.converged
    assert np.all(s.g == 0.0)


def test_continuation_single_leg_at_q_zero(grid_small):
    p = sd.validate_params(OMEGA, 0.0, 1.0)
    s, rep = sd.continuation_solve(p, grid_small)
    assert rep.converged
    assert len(rep.continuation_trace) == 1
    assert rep.continuation_trace[0].q == 0.0


def _reject_direct_attempt(monkeypatch, grid):
    """Make the first newton_solve (the direct attempt, on grid's coarse subgrid) report failure, so continuation walks the ladder."""
    original = solver.newton_solve
    rejected = []

    def newton_rejecting_first(p, g, *args, **kwargs):
        s, rep = original(p, g, *args, **kwargs)
        if not rejected:
            assert np.array_equal(g.r, solver._coarse_grid(grid).r)
            rep = dataclasses.replace(rep, converged=False, message="rejected by the test")
            rejected.append(rep)
        return s, rep

    monkeypatch.setattr(solver, "newton_solve", newton_rejecting_first)


def _count_newton_calls(monkeypatch):
    """Wrap solver.newton_solve; the returned list gets the grid of each call."""
    original = solver.newton_solve
    grids = []

    def counting(p, g, *args, **kwargs):
        grids.append(g)
        return original(p, g, *args, **kwargs)

    monkeypatch.setattr(solver, "newton_solve", counting)
    return grids


def _record_newton_calls(monkeypatch):
    """Wrap solver.newton_solve; the returned list gets each call's (p, grid, guess, returned profile)."""
    original = solver.newton_solve
    calls = []

    def recording(p, g, guess, *args, **kwargs):
        s, rep = original(p, g, guess, *args, **kwargs)
        calls.append((p, g, guess, s))
        return s, rep

    monkeypatch.setattr(solver, "newton_solve", recording)
    return calls


@pytest.mark.parametrize("N, coarse_N", [(300, 300), (500, 250), (1000, 250), (2000, 250), (3000, 375), (8000, 250)])
def test_coarse_grid_is_a_subgrid_of_at_least_coarse_nodes(N, coarse_N):
    grid = sd.build_grid(60.0, N)
    coarse = solver._coarse_grid(grid)
    assert coarse.N == coarse_N and (coarse is grid) == (N == coarse_N)
    assert coarse.R == grid.R
    assert np.isin(coarse.r, grid.r).all()
    # the same subgrid from a grid rebuilt from its nodes, as read from a file
    rebuilt = sd.RadialGrid(grid.r.copy())
    assert np.array_equal(solver._coarse_grid(rebuilt).r, coarse.r)


@pytest.mark.parametrize("nc, k", [(3, 2), (7, 4), (250, 32)])
def test_prolong_reproduces_a_cubic_in_the_node_index(rng, nc, k):
    c = rng.standard_normal((4, 3, 1))  # one cubic per row, as continuation_solve stacks (a, f, g)
    x = np.arange(nc * k + 1) / k  # fine nodes in coarse-node units

    def cubic(t):
        return c[0] + c[1] * t + c[2] * t**2 + c[3] * t**3

    fine = solver._prolong(cubic(np.arange(nc + 1.0)), k)
    exact = cubic(x)
    assert fine.shape == exact.shape == (3, nc * k + 1)
    # every fine node, the two end intervals with their own cubics included
    assert np.max(np.abs(fine - exact)) <= 1e-13 * np.max(np.abs(exact))


def test_prolong_keeps_the_coarse_nodes_bitwise(rng):
    v = rng.standard_normal((3, 251))
    for k in (8, 32):
        fine = solver._prolong(v, k)
        assert fine.shape == (3, 250 * k + 1) and fine[:, ::k].tobytes() == v.tobytes()
        # the stacked call is bitwise one call per field
        assert all(fine[i].tobytes() == solver._prolong(v[i], k).tobytes() for i in range(3))


def test_solve_below_500_intervals_is_newton_from_the_initial_guess(monkeypatch, grid_small):
    p = sd.validate_params(OMEGA, 0.3, 1.0)
    plain, plain_rep = sd.newton_solve(p, grid_small, sd.initial_guess(p, grid_small))
    grids = _count_newton_calls(monkeypatch)
    s, rep = sd.continuation_solve(p, grid_small)
    assert grids == [grid_small]
    assert [leg.path for leg in rep.continuation_trace] == ["direct"]
    for name in ("a", "f", "g"):
        assert getattr(s, name).tobytes() == getattr(plain, name).tobytes()
    assert rep.iterations == plain_rep.iterations and rep.final_residual_norm == plain_rep.final_residual_norm


def test_continuation_tries_target_first(solved_points):
    for p, _, rep in solved_points.values():
        assert rep.converged and rep.path == "fine"
        direct, fine = rep.continuation_trace
        assert direct.path == "direct" and direct.converged and direct.q == p.q
        assert fine.path == "fine" and fine.converged
        assert fine.q == p.q and fine.iterations == rep.iterations and fine.final_residual_norm == rep.final_residual_norm
        # each leg keeps its own time; the returned report times the whole continuation
        assert 0.0 < direct.wall_time + fine.wall_time <= rep.wall_time and not fine.continuation_trace
        # nested iteration: the fine grid starts inside Newton's quadratic basin
        assert fine.iterations <= 2 < direct.iterations


def test_fine_solve_factorizes_once_at_the_acceptance_points(solved_points):
    # the first fine Newton step contracts more than 1/CHORD_CONTRACTION, so the second is a chord step;
    # each leg's (iterations, factorizations) is pinned, so a change that moves Newton's iterates shows in the route's cost
    legs = [[(leg.path, leg.iterations, leg.factorizations) for leg in rep.continuation_trace] for _, _, rep in solved_points.values()]
    assert legs == [[("direct", 8, 5), ("fine", 2, 1)], [("direct", 7, 5), ("fine", 2, 1)], [("direct", 7, 5), ("fine", 2, 1)]]


def test_no_chord_steps_without_contraction(monkeypatch, grid60):
    monkeypatch.setattr(solver, "CHORD_CONTRACTION", 0.0)
    p = sd.validate_params(0.55 * math.pi, 0.05, 1.0)
    _, rep = sd.continuation_solve(p, grid60)
    assert rep.converged and [leg.path for leg in rep.continuation_trace] == ["direct", "fine"]
    for leg in rep.continuation_trace:
        assert leg.factorizations == leg.iterations > 0


@pytest.mark.parametrize(
    "omega, q, direct, fine",
    [(0.55 * math.pi, 0.05, (7, 5), (2, 1)), (0.75 * math.pi, 0.3, (6, 5), (1, 1)), (0.9 * math.pi, 0.05, (7, 5), (1, 1))],
    ids=["0.55pi", "0.75pi", "0.9pi"],
)
def test_legs_take_their_recorded_paths_at_8000_intervals(omega, q, direct, fine):
    # the cubic prolongation starts the fine mesh within one Newton step of 1e-8 at 0.75pi and 0.9pi; at 0.55pi
    # a chord step follows it; each leg's (iterations, factorizations) is pinned
    p = sd.validate_params(omega, q, 1.0)
    _, rep = sd.continuation_solve(p, sd.build_grid(60.0, 8000), sd.SolveConfig(tol_residual=1e-8))
    assert rep.converged
    legs = [(leg.path, leg.iterations, leg.factorizations) for leg in rep.continuation_trace]
    assert legs == [("direct", *direct), ("fine", *fine)]


def test_continuation_six_legs(monkeypatch, grid_small):
    _reject_direct_attempt(monkeypatch, grid_small)
    p = sd.validate_params(OMEGA, 0.3, 1.0)
    s, rep = sd.continuation_solve(p, grid_small)
    direct, legs = rep.continuation_trace[0], rep.continuation_trace[1:]
    # the trace is the one account of the route: the failed direct attempt keeps its reason
    assert direct.path == "direct" and not direct.converged and direct.q == 0.3
    assert direct.message == "rejected by the test"
    assert rep.converged
    assert len(legs) == 6
    qs = [leg.q for leg in legs]
    assert qs[0] == 0.0 and qs[-1] == pytest.approx(0.3)
    assert all(b >= a for a, b in zip(qs, qs[1:]))
    assert all(leg.converged for leg in legs)


@pytest.mark.parametrize(
    "omega, q_share, kappa",
    [(OMEGA, 0.5, 0.0), (OMEGA, 0.5, 3.0), (0.52 * math.pi, 0.5, 1.0), (0.98 * math.pi, 0.5, 1.0), (OMEGA, 0.98, 1.0)],
)
def test_direct_solve_agrees_with_ladder(monkeypatch, grid60, omega, q_share, kappa):
    p = sd.validate_params(omega, q_share * sd.admissible_q_max(omega), kappa)
    direct, rep = sd.continuation_solve(p, grid60)
    assert rep.converged and [leg.path for leg in rep.continuation_trace] == ["direct", "fine"]
    _reject_direct_attempt(monkeypatch, grid60)
    walked, rep = sd.continuation_solve(p, grid60)
    assert rep.converged and [leg.path for leg in rep.continuation_trace] == ["direct"] + ["newton"] * 6 + ["fine"]
    diff = max(np.max(np.abs(direct.a - walked.a)), np.max(np.abs(direct.f - walked.f)), np.max(np.abs(direct.g - walked.g)))
    assert diff <= 1e-9


def test_continuation_validates_step_list(grid_small):
    p = sd.validate_params(OMEGA, 0.3, 1.0)
    with pytest.raises(ParameterError, match="nondecreasing"):
        sd.continuation_solve(p, grid_small, sd.SolveConfig(continuation_steps=[0.0, 0.2, 0.1, 0.3]))
    with pytest.raises(ParameterError, match="target"):
        sd.continuation_solve(p, grid_small, sd.SolveConfig(continuation_steps=[0.0, 0.2]))
    with pytest.raises(ParameterError, match="target"):
        sd.SolveConfig(continuation_steps=[0.0, math.nan]).ladder(p)
    # a q outside [0, q_max) is rejected before any solve, even where the direct attempt would converge;
    # a nondecreasing list that ends at the target can leave the region only below q = 0
    with pytest.raises(RegionError, match="got q=-0.1"):
        sd.continuation_solve(p, grid_small, sd.SolveConfig(continuation_steps=[-0.1, 0.3]))


@pytest.mark.parametrize("legs", [0, 1, -3])
def test_default_ladder_needs_two_legs_for_positive_q(legs):
    with pytest.raises(ParameterError, match="at least 2 continuation legs"):
        solver.default_continuation_steps(0.1, legs)
    assert solver.default_continuation_steps(0.0, legs) == [0.0]


def test_ladder_holds_omega_and_kappa_and_ends_at_the_target():
    p = sd.validate_params(OMEGA, 0.3, 1.0)
    ladder = sd.SolveConfig(continuation_steps=[0.0, 0.1, 0.3 + 1e-13]).ladder(p)
    assert [p_k.q for p_k in ladder] == [0.0, 0.1, 0.3] and ladder[-1] is p
    assert all((p_k.omega, p_k.kappa) == (p.omega, p.kappa) for p_k in ladder)


def test_solve_config_validation():
    for tol in (-1.0, 0.0, math.inf, math.nan):
        with pytest.raises(ParameterError):
            sd.SolveConfig(tol_residual=tol)
    # checked once, when built: a config cannot be changed afterwards
    cfg = sd.SolveConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.tol_residual = -1.0


def test_continuation_is_newton_only(monkeypatch, grid_small):
    # a 2-iteration Newton budget cannot converge from a cold guess; the
    # continuation must stop with Newton's own report, never call the flow
    def no_flow(*args, **kwargs):
        raise AssertionError("continuation_solve called flow_solve")

    monkeypatch.setattr(solver, "flow_solve", no_flow)
    monkeypatch.setattr(solver, "MAX_NEWTON_ITERS", 2)
    p = sd.validate_params(OMEGA, 0.1, 1.0)
    s, rep = sd.continuation_solve(p, grid_small)
    assert not rep.converged and rep.path == "newton"
    assert rep.message.startswith("continuation aborted at q=0; no ladder leg converged. iteration budget of 2 exhausted")
    assert [(leg.path, leg.converged) for leg in rep.continuation_trace] == [("direct", False), ("newton", False)]
    # each leg keeps its own stop reason
    assert all(leg.message.startswith("iteration budget of 2 exhausted") for leg in rep.continuation_trace)
    assert s.g[-1] == 0.0  # the profile of the failed q = 0 leg


@pytest.mark.parametrize("N", [300, 500])
def test_leg_that_breaks_a_property_aborts_the_solve(N):
    # a one-entry ladder at the wrong-branch point converges onto f outside
    # (0, pi - omega): residuals met, properties not, so the solve is not converged
    omega = 0.505 * math.pi
    p = sd.validate_params(omega, 0.999 * sd.admissible_q_max(omega), 0.0)
    s, rep = sd.continuation_solve(p, sd.build_grid(60.0, N), sd.SolveConfig(continuation_steps=[p.q]))
    assert not rep.converged and not rep.properties_ok
    assert all(leg.final_residual_norm <= 1e-10 and not leg.converged for leg in rep.continuation_trace)
    assert rep.message.startswith(f"continuation aborted at q={p.q:.6g}; no ladder leg converged. converged residuals")
    assert ("; fine solve: converged residuals" in rep.message) == (N >= 500)


def test_newton_on_the_wrong_branch_is_not_converged():
    # Newton from the guess meets the residual target here, but on a critical
    # point with f outside (0, pi - omega): a report's converged means a solution
    omega = 0.505 * math.pi
    p = sd.validate_params(omega, 0.999 * sd.admissible_q_max(omega), 0.0)
    grid = sd.build_grid(60.0, 300)
    _, rep = sd.newton_solve(p, grid, sd.initial_guess(p, grid))
    assert rep.final_residual_norm <= 1e-10 and rep.q == p.q
    assert not rep.converged and not rep.properties_ok
    assert rep.message.startswith("converged residuals but solution properties violated: bound-f-interval fails")


# large kappa near omega = pi/2: before the kappa-aware core scale, direct
# Newton failed at 12 of these 27 points (N = 500)
KAPPA_SCAN = [
    (w * math.pi, share * sd.admissible_q_max(w * math.pi), kappa)
    for w in (0.505, 0.52, 0.6)
    for share in (0.0, 0.5, 0.999)
    for kappa in (10.0, 30.0, 100.0)
]


def test_kappa_aware_start_converges_directly():
    g = sd.build_grid(60.0, 500)
    failed = []
    for omega, q, kappa in KAPPA_SCAN:
        p = sd.validate_params(omega, q, kappa)
        _, rep = sd.newton_solve(p, g, sd.initial_guess(p, g))
        if not (rep.converged and rep.properties_ok):
            failed.append((omega / math.pi, q, kappa, rep.message))
    assert not failed


def test_initial_guess_core_scale():
    g = sd.build_grid(30.0, 300)
    r = g.r
    for kappa, rc in [(0.0, 1.0), (0.5, 1.0), (1.0, 1.0), (16.0, 4.0)]:
        p = sd.validate_params(OMEGA, 0.3, kappa)
        s = sd.initial_guess(p, g)
        # rc = 1 exactly at kappa <= 1: the guess keeps its bits
        assert s.g[1:-1].tobytes() == (p.q * r / (r + rc))[1:-1].tobytes()
        assert s.a[1:-1].tobytes() == (1.0 / (1.0 + (r / rc) ** 2))[1:-1].tobytes()


def test_wrong_branch_direct_solve_is_rescued_by_the_ladder(monkeypatch):
    # direct Newton converges here to a critical point whose f leaves
    # (0, pi - omega); the all-Newton q ladder reaches the right one
    omega = 0.505 * math.pi
    p = sd.validate_params(omega, 0.999 * sd.admissible_q_max(omega), 0.0)
    calls = _record_newton_calls(monkeypatch)
    for N, tol in [(500, 1e-10), (2000, 1e-10), (8000, 1e-8)]:
        g = sd.build_grid(60.0, N)
        calls.clear()
        s, rep = sd.continuation_solve(p, g, sd.SolveConfig(tol_residual=tol))
        trace = rep.continuation_trace
        assert "bound-f-interval fails" in trace[0].message
        assert [(leg.path, leg.converged) for leg in trace] == [("direct", False)] + [("newton", True)] * 6 + [("fine", True)]
        assert trace[0].final_residual_norm <= tol
        assert rep.converged and rep.properties_ok
        # the direct attempt and six legs on the N = 250 subgrid; the full mesh sees one solve
        assert [gr.N for _, gr, _, _ in calls] == [250] * 7 + [N]
        # the five later legs start from the previous leg's arrays
        later = [guess.grid.N for (_, _, _, prev), (_, _, guess, _) in zip(calls, calls[1:]) if np.shares_memory(guess.a, prev.a)]
        assert later == [250] * 5
        assert trace[-1].iterations <= 2 and trace[-1].q == p.q and s.grid is g


# the admissible region at R = 60: 7 omegas x 5 shares of q_max x 6 kappas
SCAN_SHARES = (0.0, 0.5, 0.9, 0.98, 0.999)
SCAN_KAPPAS = (0.0, 1.0, 3.0, 10.0, 30.0, 100.0)
REGION_SCAN = [(w, share, kappa) for w in (0.505, 0.52, 0.6, 0.75, 0.9, 0.98, 0.995) for share in SCAN_SHARES for kappa in SCAN_KAPPAS]

# The battery's failing rows on the region scan, by check, each with the ROADMAP item that owns it.
# An equality: a point that starts passing must leave this table in the same change.
REGION_SCAN_FAILURES = {
    # item 1: at omega >= 0.98 pi the decay length 1/gamma (34-155) exceeds R = 60, so a never enters the fit window
    "decay-rate": [(w, share, kappa) for w in (0.98, 0.995) for share in SCAN_SHARES for kappa in SCAN_KAPPAS],
    # items 1 and 2: the same points with q > 0; the tail law of g needs a = 0 in its window, which R = 60 does not reach
    "tail-electric-charge": [(w, share, kappa) for w in (0.98, 0.995) for share in SCAN_SHARES[1:] for kappa in SCAN_KAPPAS],
    # item 1: the f tail window [R/10, R) starts inside the sqrt(kappa) core
    "tail-f-variation": [(0.75, share, 100.0) for share in SCAN_SHARES] + [(0.75, share, 30.0) for share in (0.9, 0.98, 0.999)],
}


@pytest.fixture(scope="module")
def region_scan(grid60):
    """Each REGION_SCAN point solved by continuation_solve on grid60, and the grid of every newton_solve call."""
    with pytest.MonkeyPatch.context() as mp:
        grids = _count_newton_calls(mp)
        solves = []
        for w, share, kappa in REGION_SCAN:
            p = sd.validate_params(w * math.pi, share * sd.admissible_q_max(w * math.pi), kappa)
            solves.append(((w, share, kappa), p, *sd.continuation_solve(p, grid60)))
    return solves, grids


def test_region_scan_needs_the_ladder_only_on_the_wrong_branch(region_scan, grid60):
    solves, grids = region_scan
    failed, walked, records = [], [], 0
    for point, _, _, rep in solves:
        if not (rep.converged and rep.properties_ok):
            failed.append((*point, rep.message))
        paths = [leg.path for leg in rep.continuation_trace]
        # the route on the coarse subgrid, then one fine solve
        assert paths[-1] == "fine" and "fine" not in paths[:-1]
        if len(paths) > 2:
            walked.append(point)
        records += len(paths)
    assert not failed
    assert walked == [(0.505, 0.999, 0.0)]
    assert records == len(grids)
    assert sum(gr is grid60 for gr in grids) == len(REGION_SCAN)


@pytest.mark.parametrize("seed", [42, 3])
def test_region_scan_battery_failures_are_the_known_table(region_scan, seed):
    failing = {(point, c.check_id) for point, p, s, _ in region_scan[0] for c in sd.run_suite(p, s, sd.Tolerances(seed=seed)).checks if not c.passed}
    assert failing == {(point, check) for check, points in REGION_SCAN_FAILURES.items() for point in points}


def test_solves_near_admissible_boundary():
    g = sd.build_grid(60.0, 2000)
    for omega, q in [(OMEGA, 0.35), (0.52 * math.pi, 0.01), (0.97 * math.pi, 0.01)]:
        p = sd.validate_params(omega, q, 1.0)
        s, rep = sd.continuation_solve(p, g)
        assert rep.converged and rep.properties_ok, (omega, q, rep.message)


def test_flow_matches_newton_in_sigma_model_limit(grid_small):
    p = sd.validate_params(OMEGA, 0.1, 0.0)
    sn, rn = sd.newton_solve(p, grid_small, sd.initial_guess(p, grid_small))
    sf, rf = sd.flow_solve(p, grid_small, sd.initial_guess(p, grid_small))
    assert rn.converged and rf.converged
    diff = max(np.max(np.abs(sn.a - sf.a)), np.max(np.abs(sn.f - sf.f)), np.max(np.abs(sn.g - sf.g)))
    assert diff <= 1e-7


def test_oracle_equivalence_battery():
    """Newton and flow agree nodewise on the documented parameter battery."""
    g = sd.build_grid(40.0, 400)
    for omega, q in [(0.75 * math.pi, 0.1), (0.75 * math.pi, 0.3), (0.6 * math.pi, 0.4)]:
        p = sd.validate_params(omega, q, 1.0)
        sn, rn = sd.continuation_solve(p, g)
        sf, rf = sd.flow_solve(p, g, sd.initial_guess(p, g))
        assert rn.converged and rf.converged, (rn.message, rf.message)
        diff = max(np.max(np.abs(sn.a - sf.a)), np.max(np.abs(sn.f - sf.f)), np.max(np.abs(sn.g - sf.g)))
        assert diff <= 1e-7


# Measured on grid_small: the flow from initial_guess rejects one trial
# step here (13 trials for 12 accepted steps).  It rejected none at 144
# points with omega from 0.505 pi to 0.98 pi, q up to 0.9 q_max and kappa
# up to 100, nor at the other cases below with FLOW_DT from 1e-2 to 1e6.
REJECTING_FLOW_CASE = (0.505 * math.pi, 0.99 * sd.admissible_q_max(0.505 * math.pi), 0.0)


@pytest.mark.parametrize(
    "omega, q, kappa, flow_dt",
    [
        (OMEGA, 0.1, 1.0, None),
        (OMEGA, 0.1, 0.0, None),
        (0.6 * math.pi, 0.0, 3.0, None),
        (0.6 * math.pi, 0.5 * sd.admissible_q_max(0.6 * math.pi), 10.0, 1e3),  # a patched preconditioner time step
        (*REJECTING_FLOW_CASE, None),
    ],
)
def test_flow_reused_values_match_fresh_evaluation(monkeypatch, grid_small, omega, q, kappa, flow_dt):
    # the flow evaluates each state once and carries sin f, the stencil and
    # the action along; none of them may come from a rejected trial
    inner_solves = []
    real_inner = solver.solve_inner_g

    def counting_inner(*args):
        inner_solves.append(1)
        return real_inner(*args)

    monkeypatch.setattr(solver, "solve_inner_g", counting_inner)
    if flow_dt is not None:
        monkeypatch.setattr(solver, "FLOW_DT", flow_dt)
    p = sd.validate_params(omega, q, kappa)
    s, rep = sd.flow_solve(p, grid_small, sd.initial_guess(p, grid_small))
    assert rep.converged, rep.message
    fresh = sd.action_breakdown(p, s)
    assert rep.j_trace[-1] == fresh.L
    assert rep.action == fresh
    assert rep.final_residual_norm == max(float(np.max(np.abs(r))) for r in sd.residuals(p, s))
    assert len(rep.j_trace) == rep.iterations + 1
    trials = len(inner_solves) - 1  # the first solve sets g of the guess
    if (omega, q, kappa) == REJECTING_FLOW_CASE:
        assert trials > rep.iterations


def _unsymmetric_h0_blocks(p, s, dt):
    """H0's a- and f-systems at the profile s as the flow once assembled them: unsymmetric (sub, main, super) diagonals for the right-hand side dt*v/w."""
    g = s.grid
    react_a, react_f = solver._flow_reactions(p, s)
    hm, hp, w = g.h[:-1], g.h[1:], g.w[1:-1]
    hmw, hpw = (hm * w)[1:], (hp * w)[:-1]
    c = 8.0 * dt
    a_sin = s.a * s._state.sin
    coeff_f = g.p_half + 8.0 * p.kappa * (0.5 * (a_sin[:-1] ** 2 + a_sin[1:] ** 2))
    off_f = -dt * coeff_f[1:-1]
    diag_f = 1.0 + dt * ((coeff_f[:-1] / hm + coeff_f[1:] / hp) / w + react_f)
    return (-c / hmw, 1.0 + c * ((1.0 / hm + 1.0 / hp) / w + react_a), -c / hpw), (off_f / hmw, diag_f, off_f / hpw)


def _banded(dl, d, du):
    """scipy.linalg.solve_banded's (1, 1) storage of the tridiagonal matrix (sub-, main, super-diagonal)."""
    ab = np.zeros((3, d.size), dtype=d.dtype)
    ab[0, 1:], ab[1], ab[2, :-1] = du, d, dl
    return ab


def test_flow_first_direction_is_the_preconditioned_flow_step(monkeypatch, grid_small):
    # with an empty memory the L-BFGS direction is -H0 G, the implicit flow
    # step of time FLOW_DT, written out here as the flow took it before L-BFGS
    directions = []
    real_direction = solver._lbfgs_direction

    def recording(grad, memory, precond):
        directions.append((len(memory), real_direction(grad, memory, precond)))
        return directions[-1][1]

    monkeypatch.setattr(solver, "_lbfgs_direction", recording)
    p = sd.validate_params(OMEGA, 0.1, 1.0)
    s = sd.initial_guess(p, grid_small)
    sd.flow_solve(p, grid_small, s)
    memory_size, d = directions[0]
    assert memory_size == 0

    g, dt = grid_small, solver.FLOW_DT
    start = sd.FieldProfile(g, s.a, s.f, sd.solve_inner_g(p, g, s.a))
    ra, rf, _ = sd.residuals(p, start)
    a_block, f_block = _unsymmetric_h0_blocks(p, start, dt)
    step = np.concatenate((solve_banded((1, 1), _banded(*a_block), 8.0 * dt * ra), solve_banded((1, 1), _banded(*f_block), dt * rf)))
    assert np.max(np.abs(d - step)) <= 1e-12 * np.max(np.abs(step))


def test_flow_clears_its_memory_when_the_direction_is_not_descent(monkeypatch):
    # -H G is a descent direction whenever every kept pair has s.y > 0, so
    # an ascent direction is injected once, on a call with two or more pairs
    memory_sizes, injected = [], []
    real_direction = solver._lbfgs_direction

    def ascent_once(grad, memory, precond):
        memory_sizes.append(len(memory))
        d = real_direction(grad, memory, precond)
        if len(memory) < 2 or injected:
            return d
        injected.append(len(memory_sizes) - 1)
        return -d

    g = sd.build_grid(30.0, 300)
    p = sd.validate_params(OMEGA, 0.1, 1.0)
    guess = sd.initial_guess(p, g)
    sn, rn = sd.newton_solve(p, g, guess)
    monkeypatch.setattr(solver, "_lbfgs_direction", ascent_once)
    sf, rf = sd.flow_solve(p, g, guess)
    # the reset step takes -H0 G; the next call sees at most the one pair that step made
    assert injected and memory_sizes[injected[0] + 1] <= 1
    assert rn.converged and rf.converged
    diff = max(np.max(np.abs(sn.a - sf.a)), np.max(np.abs(sn.f - sf.f)), np.max(np.abs(sn.g - sf.g)))
    assert diff <= 1e-7


def _block_solve(d, e, b):
    # pttrs divides each row by its pivot once the elimination is done; a 1 x 1 block is that division alone
    return b / d if d.size == 1 else _spd_tridiagonal_solver(d, e)(b)


def _split_solve(d, e, b):
    """The a- and f-blocks of a one-system H0 solved apart, then concatenated."""
    n = d.size // 2
    assert e[n - 1] == 0.0  # no coupling at the seam
    return np.concatenate((_block_solve(d[:n], e[: n - 1], b[:n]), _block_solve(d[n:], e[n:], b[n:])))


# max |x_LDL^T - x_unsymmetric| / max |x_unsymmetric| over every H0
# application below: 8.5e-14 and 1.3e-13 on the two flows when measured
UNSYMMETRIC_H0_RTOL = 1e-12


def test_one_system_preconditioner_is_bitwise_the_two_field_solves_on_the_flow(monkeypatch, grid_small):
    # every application of H0 the flow makes, on the diagonals of its
    # states: bitwise the two per-field LDL^T solves, and close to the
    # unsymmetric system that the rows were scaled from
    applied, states = [], []
    real_solver, real_reactions = solver._spd_tridiagonal_solver, solver._flow_reactions

    def reactions(p, st):
        states.append((p, st))  # the state whose H0 is factorized next
        return real_reactions(p, st)

    def recording(d, e):
        system = (d.copy(), e.copy(), states[-1])  # the flow refills its arrays at the next state
        solve = real_solver(d, e)

        def recorded(b):
            x = solve(b)
            applied.append((*system, b.copy(), x.copy()))  # the two-loop recursion updates x in place
            return x

        return recorded

    monkeypatch.setattr(solver, "_flow_reactions", reactions)
    monkeypatch.setattr(solver, "_spd_tridiagonal_solver", recording)
    n, w = grid_small.N - 1, grid_small.w[1:-1]
    worst = 0.0
    for omega, q, kappa in [(OMEGA, 0.1, 1.0), REJECTING_FLOW_CASE]:
        p = sd.validate_params(omega, q, kappa)
        applied.clear()
        _, rep = sd.flow_solve(p, grid_small, sd.initial_guess(p, grid_small))
        assert rep.converged and len(applied) >= rep.iterations
        for d, e, state, b, x in applied:
            assert d.size == 2 * n
            assert x.tobytes() == _split_solve(d, e, b).tobytes()
            a_block, f_block = _unsymmetric_h0_blocks(*state, solver.FLOW_DT)
            ref = np.concatenate((solve_banded((1, 1), _banded(*a_block), b[:n] / w), solve_banded((1, 1), _banded(*f_block), b[n:] / w)))
            worst = max(worst, np.max(np.abs(x - ref)) / np.max(np.abs(ref)))
    assert worst <= UNSYMMETRIC_H0_RTOL


def _spd_block(rng, n):
    """Diagonal and off-diagonal of a random diagonally dominant, so SPD, tridiagonal matrix of order n."""
    e = rng.standard_normal(n - 1)
    d = 0.1 * rng.random(n) + 1e-3
    d[1:] += np.abs(e)
    d[:-1] += np.abs(e)
    return d, e


@pytest.mark.parametrize("n", [1, 2, 3, 4, 50, 300])
def test_one_system_ldlt_solve_is_bitwise_the_two_block_solves(rng, n):
    for _ in range(5):
        (d_a, e_a), (d_f, e_f) = _spd_block(rng, n), _spd_block(rng, n)
        d, e = np.concatenate((d_a, d_f)), np.concatenate((e_a, [0.0], e_f))
        copies = (d.copy(), e.copy())
        b = rng.standard_normal(2 * n)
        x = _spd_tridiagonal_solver(d, e)(b)
        assert x.tobytes() == _split_solve(d, e, b).tobytes()
        assert np.array_equal(d, copies[0]) and np.array_equal(e, copies[1])
        ref = solve_banded((1, 1), _banded(e, d, e), b)
        assert np.max(np.abs(x - ref)) <= 1e-10 * np.max(np.abs(ref))


@pytest.mark.parametrize("n", [2, 3, 300])
def test_spd_tridiagonal_solver_names_a_pivot_that_is_not_positive(rng, n):
    d, e = _spd_block(rng, n)
    for spoiled, error, reason in [
        (-1.0, NumericError, f"pivot {n} of pttrf is not positive"),
        (0.0, NumericError, f"pivot {n} of pttrf is not positive"),
        (np.nan, NumericError, "array must not contain infs or NaNs"),
    ]:
        bad = d.copy()
        bad[-1] = spoiled  # the last pivot is bad[-1] less a positive amount
        with pytest.raises(error, match=reason):
            _spd_tridiagonal_solver(bad, e)
    with pytest.raises(NumericError, match="array must not contain infs or NaNs"):
        _spd_tridiagonal_solver(d, e)(np.full(n, np.inf))


def test_flow_preconditioner_failure_is_reported_not_raised(monkeypatch, grid_small):
    calls = []
    real_solver = solver._spd_tridiagonal_solver

    def failing_once(d, e):
        calls.append(1)
        if len(calls) == 3:  # the third state's H0
            raise NumericError("matrix not positive definite: pivot 7 of pttrf is not positive")
        return real_solver(d, e)

    monkeypatch.setattr(solver, "_spd_tridiagonal_solver", failing_once)
    p = sd.validate_params(OMEGA, 0.1, 1.0)
    s, rep = sd.flow_solve(p, grid_small, sd.initial_guess(p, grid_small))
    assert not rep.converged and rep.iterations == 2 and len(calls) == 3
    assert rep.message == "flow preconditioner factorization failed: matrix not positive definite: pivot 7 of pttrf is not positive"
    # the report describes the returned profile, the last accepted state
    assert rep.final_residual_norm == max(float(np.max(np.abs(r))) for r in sd.residuals(p, s))
    assert rep.action == sd.action_breakdown(p, s)


@pytest.mark.parametrize("nodes", [(0.0, 1.0, 2.0), (0.0, 1.0, 2.0, 3.0)])
def test_flow_converges_on_two_and_three_interval_grids(nodes):
    # H0's blocks have one and two unknowns here; 7 and 9 steps when measured
    g = sd.RadialGrid(np.array(nodes))
    p = sd.validate_params(OMEGA, 0.1, 1.0)
    sf, rf = sd.flow_solve(p, g, sd.initial_guess(p, g))
    sn, rn = sd.newton_solve(p, g, sd.initial_guess(p, g))
    assert rf.converged and rn.converged, (rf.message, rn.message)
    assert rf.iterations <= 20
    diff = max(np.max(np.abs(sn.a - sf.a)), np.max(np.abs(sn.f - sf.f)), np.max(np.abs(sn.g - sf.g)))
    assert diff <= 1e-7


def test_flow_converges_at_large_kappa():
    # preconditioned steepest descent stalled here at residual 2.7e-5 after its 200 000-step budget
    g = sd.build_grid(30.0, 300)
    omega = 0.52 * math.pi
    p = sd.validate_params(omega, 0.6 * sd.admissible_q_max(omega), 10.0)
    sf, rf = sd.flow_solve(p, g, sd.initial_guess(p, g))
    sn, rn = sd.continuation_solve(p, g)
    assert rf.converged and rf.properties_ok and rn.converged, (rf.message, rn.message)
    assert rf.iterations <= 100
    diff = max(np.max(np.abs(sn.a - sf.a)), np.max(np.abs(sn.f - sf.f)), np.max(np.abs(sn.g - sf.g)))
    assert diff <= 1e-7


def test_flow_converges_in_few_steps_at_the_benchmark_points(solved_points, solved_kappa0):
    # the flow-oracle benchmark points, N = 2000, R = 60: 9 steps on the
    # N = 250 subgrid, then 7, 7, 6 and 6 on the full mesh when measured
    for p, ref, _ in [*solved_points.values(), solved_kappa0]:
        s, rep = sd.flow_solve(p, ref.grid, sd.initial_guess(p, ref.grid))
        assert rep.converged and rep.properties_ok, rep.message
        assert rep.iterations <= 10
        coarse, fine = rep.continuation_trace
        assert (coarse.path, fine.path) == ("coarse", "fine") and fine.iterations == rep.iterations
        assert coarse.final_residual_norm <= solver.COARSE_FLOW_TOL and coarse.iterations <= 20
        diff = max(np.max(np.abs(ref.a - s.a)), np.max(np.abs(ref.f - s.f)), np.max(np.abs(ref.g - s.g)))
        assert diff <= 1e-7
        jt = np.asarray(rep.j_trace)
        assert np.all(np.diff(jt) <= 1e-12 * (1.0 + np.abs(jt[:-1])))


# The flow's path from initial_guess, measured: the accepted steps of each
# stage (coarse, fine; one stage without a coarse subgrid) and the trial
# evaluations, both stages' starting states included.  The flow-oracle
# points never reject a trial; REJECTING_FLOW_CASE rejects one on each
# mesh.  The accepted steps meet the Armijo test far from its boundary:
# its constant 1e-4 made 1e-2 moves no count here, 0.2 moves the
# (0.9 pi, 0.05) counts, and BACKTRACK_FACTOR 0.25 moves the rejecting
# case's on the (30, 300) mesh.
FLOW_PATH_POINTS = [(0.55 * math.pi, 0.05, 1.0), (0.75 * math.pi, 0.30, 1.0), (0.90 * math.pi, 0.05, 1.0), (0.75 * math.pi, 0.10, 0.0), REJECTING_FLOW_CASE]
FLOW_PATHS = {
    (60.0, 500): [((9, 7), 18), ((9, 7), 18), ((9, 6), 17), ((9, 6), 17), ((9, 6), 18)],
    (30.0, 300): [((12,), 13), ((12,), 13), ((12,), 13), ((11,), 12), ((12,), 14)],
}


@pytest.mark.parametrize("mesh", FLOW_PATHS)
def test_flow_takes_its_recorded_path(monkeypatch, mesh):
    trials = []
    real_state = solver._flow_state

    def counted(*args):
        trials.append(1)
        return real_state(*args)

    monkeypatch.setattr(solver, "_flow_state", counted)
    grid = sd.build_grid(*mesh)
    paths = []
    for point in FLOW_PATH_POINTS:
        p = sd.validate_params(*point)
        trials.clear()
        _, rep = sd.flow_solve(p, grid, sd.initial_guess(p, grid))
        assert rep.converged, rep.message
        paths.append((tuple(r.iterations for r in rep.continuation_trace) or (rep.iterations,), len(trials)))
    assert paths == FLOW_PATHS[mesh]


def test_flow_reports_an_exhausted_step_budget(monkeypatch, grid_small):
    monkeypatch.setattr(solver, "FLOW_MAX_STEPS", 2)
    p = sd.validate_params(OMEGA, 0.1, 1.0)
    s, rep = sd.flow_solve(p, grid_small, sd.initial_guess(p, grid_small))
    assert not rep.converged and rep.iterations == 2
    # the residual is that of the returned profile, after the last accepted step
    assert rep.final_residual_norm == max(float(np.max(np.abs(r))) for r in sd.residuals(p, s))
    assert rep.message == f"flow step budget exhausted at residual {rep.final_residual_norm:.3e}"


# Points of the region scan where a descent from the initial guess on the
# full mesh alone reached FLOW_TOL with a < 0 at a node near R, failing
# bound-a-positive; started on the coarse subgrid, the flow takes 6-15
# full-mesh steps there, ends at most 9.1e-10 from Newton and keeps
# a >= 9.8e-16 on nodes 0..N-1, when measured.
FLOW_SCAN_POINTS = [(0.505, 0.0, 0.0), (0.505, 0.0, 30.0), (0.505, 0.0, 100.0), (0.505, 0.5, 100.0), (0.52, 0.0, 3.0), (0.52, 0.0, 30.0), (0.6, 0.0, 0.0)]


def test_flow_keeps_the_bounds_at_the_region_scan_points_near_the_bound(region_scan, grid60):
    solves = {point: (p, s) for point, p, s, _ in region_scan[0]}
    for point in FLOW_SCAN_POINTS:
        p, ref = solves[point]
        s, rep = sd.flow_solve(p, grid60, sd.initial_guess(p, grid60))
        assert rep.converged and rep.properties_ok, (point, rep.message)
        diff = max(np.max(np.abs(ref.a - s.a)), np.max(np.abs(ref.f - s.f)), np.max(np.abs(ref.g - s.g)))
        assert diff <= 1e-7, point


@pytest.mark.parametrize("N", [300, 501])
def test_flow_without_a_coarse_subgrid_runs_one_stage(N):
    g = sd.build_grid(30.0, N)
    assert solver._coarse_grid(g) is g
    p = sd.validate_params(OMEGA, 0.1, 1.0)
    s, rep = sd.flow_solve(p, g, sd.initial_guess(p, g))
    assert rep.converged and rep.path == "flow"
    assert rep.continuation_trace == ()


@pytest.mark.parametrize("miss", ["step budget", "electric solve"])
def test_flow_whose_coarse_stage_misses_its_target_starts_from_the_guess(monkeypatch, grid60, miss):
    # the coarse stage takes 9 steps here when measured, so a budget of 4 stops it short of COARSE_FLOW_TOL
    real_inner = solver.solve_inner_g

    def inner(p, grid, a):
        if grid.N == 250:
            raise NumericError("non-finite electric-sector diagonal at node 1")
        return real_inner(p, grid, a)

    if miss == "step budget":
        monkeypatch.setattr(solver, "FLOW_MAX_STEPS", 4)
    else:
        monkeypatch.setattr(solver, "solve_inner_g", inner)
    p = sd.validate_params(OMEGA, 0.3, 1.0)
    guess = sd.initial_guess(p, grid60)
    s, rep = sd.flow_solve(p, grid60, guess)
    coarse, fine = rep.continuation_trace
    assert not coarse.final_residual_norm <= solver.COARSE_FLOW_TOL
    monkeypatch.setattr(solver, "_coarse_grid", lambda grid: grid)
    s1, rep1 = sd.flow_solve(p, grid60, guess)
    assert rep1.continuation_trace == ()
    for name in ("a", "f", "g"):
        assert getattr(s, name).tobytes() == getattr(s1, name).tobytes()
    assert (rep.iterations, rep.final_residual_norm, rep.message, rep.j_trace) == (rep1.iterations, rep1.final_residual_norm, rep1.message, rep1.j_trace)
    assert rep.converged == rep1.converged == (miss == "electric solve")


def test_flow_from_the_newton_solution_converges_again(solved_points):
    p, ref, _ = solved_points[(0.75 * math.pi, 0.30, 1.0)]
    s, rep = sd.flow_solve(p, ref.grid, ref)
    assert rep.converged and rep.properties_ok, rep.message
    assert len(rep.continuation_trace) == 2
    diff = max(np.max(np.abs(ref.a - s.a)), np.max(np.abs(ref.f - s.f)), np.max(np.abs(ref.g - s.g)))
    assert diff <= 1e-7
