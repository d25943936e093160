"""Workloads: seeded input points, untimed preparation, the timed sequence
per point, and the correctness gate.

Every workload runs at R = 60.  Each point's timed sequence reaches the
package only through its module functions, looked up on the module at call
time so that the traced run's wrappers see them.  The gate runs after the
clock stops and fails a point when

* the solve does not converge,
* `solution_properties_ok` is false,
* `run_suite(...).overall` is false, or
* (flow-oracle) the flow profile, or its Newton polish, differs from the
  Newton reference by more than 1e-4 at any node, the tolerance of the
  acceptance battery's oracle-equivalence criterion.

Failures are counted, never filtered.  One failure is a recorded known
defect (KNOWN_DEFECTS); any other failure makes the run incorrect.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

R = 60.0
LEGS = 6  # the CLI's default continuation leg count
ORACLE_TOL = 1e-4
VERIFY_SEED = 42  # the CLI's default seed for the battery's test functions

# The acceptance points A, (omega, q, kappa), in the order seed 0 runs them.
ACCEPT_POINTS = (
    (0.55 * math.pi, 0.05, 1.0),
    (0.75 * math.pi, 0.30, 1.0),
    (0.90 * math.pi, 0.05, 1.0),
)
SIGMA_POINT = (0.75 * math.pi, 0.10, 0.0)

# (workload, index into the workload's base points, battery check id): at
# N = 8000 the battery's constraint-orthogonality check measures 2.85e-12
# against its fixed 1e-12 threshold at (0.75 pi, 0.3, 1).
KNOWN_DEFECTS = {("fine-mesh", 1, "constraint-orthogonality")}

# Small boxes: a seed re-checks a claim on inputs not used while writing
# it, without moving the Newton iteration counts that set the per-point cost.
OMEGA_BOX = 0.002 * math.pi  # half-width of the omega perturbation
Q_BOX = 0.02  # relative half-width of the q perturbation
Q_MARGIN = 0.95  # perturbed q stays below this share of q_max


@dataclass(frozen=True)
class Point:
    base: int  # index into the workload's base points
    omega: float
    q: float
    kappa: float

    def label(self) -> str:
        return f"({self.omega / math.pi:.4f}pi, {self.q:.4f}, {self.kappa:g})"


def generate_points(base_points, seed: int, q_max) -> list[Point]:
    """Seed 0 gives the base points unchanged and in order.

    Any other seed shuffles the order and moves each point inside a small
    box: omega by up to 0.002 pi, q by up to 2 %, kept below 95 % of the
    admissible q_max.  kappa is never changed.
    """
    if seed == 0:
        return [Point(i, *pt) for i, pt in enumerate(base_points)]
    rng = random.Random(seed)
    order = list(range(len(base_points)))
    rng.shuffle(order)
    out = []
    for i in order:
        omega, q, kappa = base_points[i]
        omega += rng.uniform(-OMEGA_BOX, OMEGA_BOX)
        q = min(q * (1.0 + rng.uniform(-Q_BOX, Q_BOX)), Q_MARGIN * q_max(omega))
        out.append(Point(i, omega, q, kappa))
    return out


@dataclass
class Workload:
    name: str
    why: str
    nodes: int
    tol: float
    base_points: tuple


WORKLOADS = {
    w.name: w
    for w in (
        Workload("accept-solve", "CLI solve sequence at the acceptance points, N=2000: banded LU, Jacobian and residuals dominate",
                 2000, 1e-10, ACCEPT_POINTS),
        Workload("flow-oracle", "flow_solve plus Newton polish against a Newton reference: inner g solve, action and flow preconditioner",
                 2000, 1e-10, ACCEPT_POINTS + (SIGMA_POINT,)),
        Workload("verify-stored", "CLI verify sequence on stored profiles: CSV parse, decay fit and battery, no solver code",
                 2000, 1e-10, ACCEPT_POINTS),
        Workload("fine-mesh", "solve sequence at N=8000, tol 1e-8: per-element work outweighs per-call overhead",
                 8000, 1e-8, ACCEPT_POINTS),
    )
}


def _max_node_diff(s, ref) -> float:
    return float(max(abs(s.a - ref.a).max(), abs(s.f - ref.f).max(), abs(s.g - ref.g).max()))


def _solve_failures(report) -> list[str]:
    out = []
    if not report.converged:
        out.append(f"not converged: {report.message}")
    if not report.properties_ok:
        out.append(f"solution properties violated: {report.message}")
    return out


def _suite_failures(suite) -> list[tuple[str, str]]:
    return [(c.check_id, f"{c.check_id} {c.measured:.3g} > {c.threshold:.3g}") for c in suite.checks if not c.passed]


class Runner:
    """Prepares one workload's inputs and runs its timed sequence per point."""

    def __init__(self, workload: Workload, points: list[Point], grid, mods, workdir: Path):
        self.w = workload
        self.points = points
        self.grid = grid
        self.m = mods
        self.workdir = workdir
        self.refs: dict[Point, object] = {}
        self.stored: dict[Point, tuple] = {}

    # -- untimed preparation -----------------------------------------------------

    def prepare(self) -> None:
        """Reference data the gate needs, made before any timing starts."""
        solver, verify, model, io = self.m["solver"], self.m["verify"], self.m["model"], self.m["io"]
        if self.w.name not in ("flow-oracle", "verify-stored"):
            return
        for k, pt in enumerate(self.points):
            p = model.validate_params(pt.omega, pt.q, pt.kappa)
            ref, rep = solver.continuation_solve(p, self.grid, self._solve_config(p))
            suite = verify.run_suite(p, ref, verify.Tolerances(residual=self.w.tol, seed=VERIFY_SEED))
            if not (rep.converged and rep.properties_ok and suite.overall):
                raise RuntimeError(f"reference solve at {pt.label()} does not verify: {rep.message} {_suite_failures(suite)}")
            if self.w.name == "flow-oracle":
                self.refs[pt] = ref
            else:
                path = self.workdir / f"stored_{k}.csv"
                io.write_profile_csv(path, p, ref)
                self.stored[pt] = (path, ref)

    def _solve_config(self, p):
        solver = self.m["solver"]
        return solver.SolveConfig(tol_residual=self.w.tol, continuation_steps=solver.default_continuation_steps(p.q, LEGS))

    # -- timed sequences ---------------------------------------------------------

    def run(self, pt: Point):
        """The timed sequence for one point; returns what the gate inspects."""
        if self.w.name == "flow-oracle":
            return self._flow_oracle(pt)
        if self.w.name == "verify-stored":
            return self._verify_stored(pt)
        return self._solve(pt)

    def _solve(self, pt: Point):
        # the `skyrme-dyon solve` sequence (cli.run_solve) on a prebuilt grid
        solver, verify, obs, io, model = self.m["solver"], self.m["verify"], self.m["observables"], self.m["io"], self.m["model"]
        p = model.validate_params(pt.omega, pt.q, pt.kappa)
        profile, report = solver.continuation_solve(p, self.grid, self._solve_config(p))
        io.write_profile_csv(self.workdir / "profile.csv", p, profile)
        if not report.converged:
            return report, None
        (self.workdir / "observables.txt").write_text(obs.observables(p, profile, strict=False).as_text(), encoding="utf-8")
        suite = verify.run_suite(p, profile, verify.Tolerances(residual=self.w.tol, seed=VERIFY_SEED))
        (self.workdir / "verify.txt").write_text(suite.format(), encoding="utf-8")
        return report, suite

    def _flow_oracle(self, pt: Point):
        solver, model = self.m["solver"], self.m["model"]
        p = model.validate_params(pt.omega, pt.q, pt.kappa)
        flow, flow_rep = solver.flow_solve(p, self.grid, solver.initial_guess(p, self.grid))
        polished, polish_rep = solver.newton_solve(p, self.grid, flow)
        return flow, flow_rep, polished, polish_rep

    def _verify_stored(self, pt: Point):
        # the `skyrme-dyon verify` sequence, plus the observables report
        verify, obs, io = self.m["verify"], self.m["observables"], self.m["io"]
        p, s = io.read_profile_csv(self.stored[pt][0])
        suite = verify.run_suite(p, s, verify.Tolerances(residual=self.w.tol, seed=VERIFY_SEED))
        report = obs.observables(p, s, strict=False)
        return p, s, suite, report

    # -- the gate (untimed) ------------------------------------------------------

    def failures(self, pt: Point, result) -> list[tuple[str, str]]:
        """(key, message) per failed condition; key is a battery check id, 'solve', 'oracle' or 'io'."""
        if self.w.name == "flow-oracle":
            flow, flow_rep, polished, polish_rep = result
            out = [("solve", "flow: " + m) for m in _solve_failures(flow_rep)]
            out += [("solve", "polish: " + m) for m in _solve_failures(polish_rep)]
            ref = self.refs[pt]
            for what, s in (("flow", flow), ("polish", polished)):
                d = _max_node_diff(s, ref)
                if not d <= ORACLE_TOL:
                    out.append(("oracle", f"{what} profile differs from the Newton reference by {d:.3g} > {ORACLE_TOL:g}"))
            return out
        if self.w.name == "verify-stored":
            p, s, suite, _ = result
            ok, msg = self.m["model"].solution_properties_ok(p, s)
            out = [] if ok else [("solve", f"solution properties violated: {msg}")]
            if _max_node_diff(s, self.stored[pt][1]) != 0.0:
                out.append(("io", "profile read back differs from the profile written"))
            return out + _suite_failures(suite)
        report, suite = result
        out = [("solve", m) for m in _solve_failures(report)]
        return out if suite is None else out + _suite_failures(suite)

    def unexpected(self, pt: Point, failures) -> list[str]:
        return [msg for key, msg in failures if (self.w.name, pt.base, key) not in KNOWN_DEFECTS]
