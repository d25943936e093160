"""Command-line entry point.

Commands:
  solve   solve one parameter point, write profile/observables/verify files
  sweep   solve a list of parameter points, write a summary CSV
  verify  re-run the property battery on a stored profile CSV
  table   write the analytic tables (no solving)

Each command's handler takes the parsed argparse.Namespace and calls the
library directly; every default is written once, in the parser.  Each
setting is checked once, by the library type that holds it: a handler
builds its SolveConfig (--tol) and Tolerances (--tol, --seed) before it
creates --out or reads a profile, so a rejected value writes nothing.
solve and every sweep point run continuation_solve with the default
ladder, which it walks only when Newton at the target fails.  Angles
accept raw radians or a literal pi suffix, e.g. `--omega 0.75pi`.
Exit codes: 0 success, 1 invalid configuration, 2 non-convergence,
3 verification failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from .errors import SkyrmeDyonError
from .grid import build_grid
from .io import SUMMARY_COLUMNS, read_profile_csv, write_profile_csv, write_summary_csv
from .model import admissible_q_max, validate_params
from .observables import observables, skyrme_charge_closed
from .solver import SolveConfig, continuation_solve
from .verify import Tolerances, run_suite

__all__ = ["main", "run_solve", "run_sweep", "run_table", "run_verify", "parse_angle"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NO_CONVERGENCE = 2
EXIT_VERIFY_FAILED = 3


def parse_angle(token: str) -> float:
    """Parse '0.75pi', '-pi' or plain radians like '2.356'."""
    token = token.strip().lower()
    if token.endswith("pi"):
        prefix = token[:-2]
        return float(prefix + "1" if prefix in ("", "+", "-") else prefix) * math.pi
    return float(token)


def angle_list(token: str) -> list[float]:
    """Parse a comma list of parse_angle tokens, e.g. '0.55pi,0.75pi' or '0.1,0.2'."""
    return [parse_angle(t) for t in token.split(",") if t.strip()]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="skyrme-dyon", description="Radial dyon solver for the minimally gauged Skyrme model")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--omega", type=parse_angle, default=0.75 * math.pi, help="vacuum angle, radians or e.g. 0.75pi")
        sp.add_argument("--q", type=float, default=0.0, help="asymptotic electric potential")
        sp.add_argument("--kappa", type=float, default=1.0, help="quartic coupling (0 = sigma-model limit)")
        sp.add_argument("--rmax", type=float, default=60.0, help="outer truncation radius")
        sp.add_argument("--nodes", type=int, default=2000, help="number of mesh intervals")
        sp.add_argument("--tol", type=float, default=1e-10, help="residual infinity-norm target, finite and > 0")
        sp.add_argument("--out", type=Path, default=Path("."), help="output directory")

    sp = sub.add_parser("solve", help="solve one parameter point")
    add_common(sp)
    sp.add_argument("--seed", type=int, default=42, help="seed for verification test functions, >= 0")
    sp = sub.add_parser("sweep", help="solve a list of points along one parameter")
    add_common(sp)
    sp.add_argument("--sweep-param", choices=["q", "omega", "kappa"], default="q")
    sp.add_argument("--sweep-values", type=angle_list, required=True, help="comma list; a pi suffix is allowed, e.g. 0.75pi")
    sp = sub.add_parser("verify", help="verify a stored profile CSV")
    sp.add_argument("profile", type=Path)
    sp.add_argument("--tol", type=float, default=1e-10, help="residual infinity-norm target, finite and > 0")
    sp.add_argument("--seed", type=int, default=42, help="seed for verification test functions, >= 0")
    sp.add_argument("--out", type=Path, default=None, help="optional path for the report (default: stdout only)")
    sp = sub.add_parser("table", help="write analytic tables over an omega grid")
    sp.add_argument("--omegas", type=angle_list, default=list(np.linspace(0.5 * math.pi, math.pi, 51)), help="nonempty comma list of omega tokens; default 51 points on [0.5pi, pi]")
    sp.add_argument("--out", type=Path, default=Path("."))
    return parser


def run_solve(args: argparse.Namespace) -> int:
    solve_cfg, tolerances = SolveConfig(tol_residual=args.tol), Tolerances(residual=args.tol, seed=args.seed)
    p = validate_params(args.omega, args.q, args.kappa)
    grid = build_grid(args.rmax, args.nodes)
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    profile, report = continuation_solve(p, grid, solve_cfg)
    # an aborted continuation returns the failed leg's profile, with that leg's q
    p_out = p if report.converged else validate_params(p.omega, report.q, p.kappa)
    write_profile_csv(out / "profile.csv", p_out, profile)
    if not report.converged:
        status = f"converged 0\nresidual {report.final_residual_norm:.6g}\ntarget_q {p.q:.17g}\nprofile_q {p_out.q:.17g}\n"
        (out / "solve.txt").write_text(f"{status}{report.message}\n", encoding="utf-8")
        print(f"solve failed: {report.message}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    suite = run_suite(p, profile, tolerances)
    (out / "observables.txt").write_text(suite.observables.as_text(), encoding="utf-8")
    (out / "verify.txt").write_text(suite.format(), encoding="utf-8")
    print(suite.format(), end="")
    if not suite.overall:
        print("verification failed; see verify.txt", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def run_sweep(args: argparse.Namespace) -> int:
    """Solve each point as run_solve does, from a cold start; one summary row per point.

    Each failed point also prints one stderr line with its value and the solver's stopping reason.
    """
    if not args.sweep_values:
        raise SkyrmeDyonError("sweep value list is empty")
    base = {"omega": args.omega, "q": args.q, "kappa": args.kappa}
    points = [validate_params(**{**base, args.sweep_param: val}) for val in args.sweep_values]
    grid = build_grid(args.rmax, args.nodes)
    solve_cfg = SolveConfig(tol_residual=args.tol)
    args.out.mkdir(parents=True, exist_ok=True)
    rows = []
    for p in points:
        profile, report = continuation_solve(p, grid, solve_cfg)
        row = dict.fromkeys(SUMMARY_COLUMNS, float("nan"))
        row.update(omega=p.omega, q=p.q, kappa=p.kappa, QS_closed=skyrme_charge_closed(p.omega), converged=report.converged)
        if not report.converged:
            value = getattr(p, args.sweep_param)
            print(f"sweep point {args.sweep_param}={value:.17g} failed: {report.message}", file=sys.stderr)
        else:
            obs = observables(p, profile, strict=False)
            row.update(Qe=obs.Qe, QS_numeric=obs.QS_numeric, gamma_fit=obs.gamma_fit, gamma_theory=obs.gamma_theory)
            row.update(E=report.action.E, L=report.action.L)
        rows.append(row)
    write_summary_csv(args.out / "summary.csv", rows)
    return EXIT_OK if all(row["converged"] for row in rows) else EXIT_NO_CONVERGENCE


def run_table(args: argparse.Namespace) -> int:
    omegas = np.asarray(args.omegas)
    if omegas.size == 0 or not np.all((omegas >= 0.0) & (omegas <= math.pi)):  # NaN fails both comparisons
        raise SkyrmeDyonError(f"omega grid must be nonempty and inside [0, pi], got {omegas}")
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    qmax = np.array([admissible_q_max(w) for w in omegas])
    qs = np.array([skyrme_charge_closed(w) for w in omegas])
    gamma0 = 0.5 * np.abs(np.sin(omegas))
    lines = ["omega,q_max,QS,gamma_q0"]
    for w, qm, s, gm in zip(omegas, qmax, qs, gamma0):
        lines.append(f"{w:.17g},{qm:.17g},{s:.17g},{gm:.17g}")
    (out / "table.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    for name, col in (("qmax_vs_omega.dat", qmax), ("qs_vs_omega.dat", qs), ("gamma0_vs_omega.dat", gamma0)):
        (out / name).write_text("\n".join(f"{w:.17g} {v:.17g}" for w, v in zip(omegas, col)) + "\n", encoding="utf-8")
    return EXIT_OK


def run_verify(args: argparse.Namespace) -> int:
    tolerances = Tolerances(residual=args.tol, seed=args.seed)
    p, profile = read_profile_csv(args.profile)
    suite = run_suite(p, profile, tolerances)
    text = suite.format()
    print(text, end="")
    if args.out is not None:
        args.out.write_text(text, encoding="utf-8")
    return EXIT_OK if suite.overall else EXIT_VERIFY_FAILED


HANDLERS = {"solve": run_solve, "sweep": run_sweep, "verify": run_verify, "table": run_table}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    try:
        return HANDLERS[args.command](args)
    except (SkyrmeDyonError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
