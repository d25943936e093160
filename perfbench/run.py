"""Time-to-verified-dyon benchmark.

    python3 perfbench/run.py --workload accept-solve --seed 0 --seconds 20 --trace 0

One process, one closed-loop client: the next point starts when the
previous one has been solved, verified and gated.  Run from the root of a
source checkout; the package is imported from ./src and nowhere else.
Every line but the last is for people; the last line is one JSON object
with `correct`, `attempted`, `failed` and `metrics`.  --trace 0 reports
the end-to-end metrics, --trace 1 the per-layer ones.  Times in the result
are reference times: wall time scaled by the host-speed gauge read next to
each point (hostspeed.py); the unscaled wall-clock figures are printed
above it.  See README.md in this directory for the workloads, the
metrics and how to read them.
"""

from __future__ import annotations

import os

# One client and no extra threads: BLAS/LAPACK run single-threaded.  Set
# before numpy loads; the set-up probes inherit it.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import REF_S, Gauge

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_PROBES = 9  # fresh processes per run; setup_s is the median of their reference times
GRID_BUILDS = 5  # in-process build_grid calls timed by the traced run
MIN_POINTS = 100  # per untraced run, so that at least ten samples lie beyond p90

# Times are reference times (hostspeed.py): wall time scaled to a fixed
# host speed.  The unscaled wall-clock figures are printed above the result.
END_TO_END = {
    "setup_s": "s",
    "ref_points_per_s": "1/s",
    "ref_point_ms.p50": "ms",
    "ref_point_ms.p90": "ms",
    "peak_rss_mb": "MB",
}

# per-layer metric -> unit; ".ms"/".self_ms" are self times per point,
# ".calls" call counts per point
PER_LAYER = {
    "solver.lu.ms": "ms",
    "solver.lu.calls": "count",
    "solver.lu.bytes_computed": "bytes",
    "solver.jacobian.ms": "ms",
    "solver.jacobian.calls": "count",
    "solver.newton_solve.self_ms": "ms",
    "solver.newton.iters": "count",
    "solver.continuation.legs": "count",
    "solver.linesearch.accept_ratio": "ratio",
    "model.residuals.ms": "ms",
    "model.residuals.calls": "count",
    "inner.solve_inner_g.ms": "ms",
    "inner.solve_inner_g.calls": "count",
    "model.action_breakdown.ms": "ms",
    "model.action_breakdown.calls": "count",
    "solver.flow.precond.ms": "ms",
    "solver.flow.steps_tried": "count",
    "solver.flow.steps_accepted": "count",
    "solver.flow.accept_ratio": "ratio",
    "solver.flow_solve.self_ms": "ms",
    "observables.fit_decay_rate.ms": "ms",
    "observables.tail_constants.ms": "ms",
    "verify.run_suite.self_ms": "ms",
    "inner.constraint_residual.ms": "ms",
    "io.read_profile_csv.ms": "ms",
    "io.write_profile_csv.ms": "ms",
    "io.profile.bytes": "bytes",
    "grid.build_grid.ms": "ms",
    "trace.overhead_frac": "frac",
}

# counts that must repeat exactly for a given seed
EXACT_COUNTS = (
    "solver.lu.calls",
    "solver.jacobian.calls",
    "solver.newton.iters",
    "solver.continuation.legs",
    "model.residuals.calls",
    "inner.solve_inner_g.calls",
    "model.action_breakdown.calls",
    "solver.flow.steps_tried",
    "solver.flow.steps_accepted",
)

# the layer with the largest self time in the traced run, per workload
EXPECTED_TOP_LAYER = {
    "accept-solve": "solver.lu",
    "flow-oracle": "inner.solve_inner_g",
    "verify-stored": "io.read_profile_csv",
}

PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import skyrme_dyon
skyrme_dyon.build_grid({R!r}, {N})
print(repr(time.perf_counter() - t0))
"""


def parse_args(argv=None):
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0, help="input seed; 0 gives the acceptance points unchanged")
    ap.add_argument("--seconds", type=float, default=20.0, help="measured time; whole cycles over the points are run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics from a traced run")
    return ap.parse_args(argv)


def setup_seconds(nodes: int, R: float, gauge) -> tuple[list[float], list[float]]:
    """Fresh-process `import skyrme_dyon` plus build_grid, timed in the child.

    Returns the probe times and the gauge reading around each probe.  One
    unmeasured probe first, so byte-code compilation and a cold page
    cache are not charged to one run and not the next.
    """
    code = PROBE.format(R=R, N=nodes)
    times, readings = [], []
    before = gauge()
    for i in range(SETUP_PROBES + 1):
        out = subprocess.run([sys.executable, "-c", code, str(SRC)], cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
        after = gauge()
        if i:
            times.append(float(out.stdout.strip().splitlines()[-1]))
            readings.append(0.5 * (before + after))
        before = after
    return times, readings


def measure(runner, seconds: float, gauge, on_point=None, min_cycles: int = 1, min_points: int = 0):
    """Closed loop over the points in whole cycles, for at least `seconds`,
    `min_cycles` cycles and `min_points` points.

    Returns per-point latencies (s), the gauge reading around each point
    (the mean of the readings just before and just after it), per-point
    failure lists and the points in run order.  on_point(cycle, point,
    index), a context manager, wraps each point's timed sequence.
    """
    latencies, readings, failures, order = [], [], [], []
    t_end = time.perf_counter() + seconds
    cycle = 0
    before = gauge()
    while True:
        for pt in runner.points:
            t0 = time.perf_counter()
            if on_point is None:
                result = runner.run(pt)
            else:
                with on_point(cycle, pt, len(order)):
                    result = runner.run(pt)
            latencies.append(time.perf_counter() - t0)
            after = gauge()
            readings.append(0.5 * (before + after))
            before = after
            failures.append(runner.failures(pt, result))
            order.append(pt)
        cycle += 1
        if cycle >= min_cycles and len(order) >= min_points and time.perf_counter() >= t_end:
            return latencies, readings, failures, order


def reference_times(latencies, readings):
    """Wall times scaled to the host speed at which the gauge reads REF_S."""
    return [t * REF_S / g for t, g in zip(latencies, readings)]


def gate(runner, failures, order):
    """Failed and attempted counts, per distinct input point, and whether every failure is known.

    A point fails when any of its runs fails.  Counting distinct points
    rather than runs keeps the counts exact for a seed: how many cycles
    fit in the measured time does not change them.
    """
    failed_points = {pt for pt, f in zip(order, failures) if f}
    unexpected = []
    for pt, f in zip(order, failures):
        unexpected += [f"{pt.label()}: {m}" for m in runner.unexpected(pt, f)]
    seen = set()
    for pt, f in zip(order, failures):
        for key, msg in f:
            if (pt, key) not in seen:
                seen.add((pt, key))
                print(f"# failure at {pt.label()}: {msg}")
    for msg in dict.fromkeys(unexpected):
        print(f"# UNEXPECTED failure {msg}")
    failed_runs = sum(1 for f in failures if f)
    print(f"# fail_frac {len(failed_points)}/{len(runner.points)} points = {len(failed_points) / len(runner.points):.4g}"
          f" ({failed_runs}/{len(order)} point runs)")
    return len(runner.points), len(failed_points), not unexpected


def end_to_end(runner, args, gauge, grid_nodes, R):
    setup, setup_readings = setup_seconds(grid_nodes, R, gauge)
    latencies, readings, failures, order = measure(runner, args.seconds, gauge, min_points=MIN_POINTS)
    attempted, failed, correct = gate(runner, failures, order)
    n = len(latencies)
    ms = [1e3 * t for t in latencies]
    ref_ms = [1e3 * t for t in reference_times(latencies, readings)]
    deciles = statistics.quantiles(ms, n=10)
    ref_deciles = statistics.quantiles(ref_ms, n=10)
    metrics = {
        "setup_s": statistics.median(reference_times(setup, setup_readings)),
        "ref_points_per_s": 1e3 * n / sum(ref_ms),
        "ref_point_ms.p50": statistics.median(ref_ms),
        "ref_point_ms.p90": ref_deciles[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    wall = {
        "points_per_s": (n / sum(latencies), "1/s"),
        "point_ms.p50": (statistics.median(ms), "ms"),
        "point_ms.p90": (deciles[8], "ms"),
        "wall_setup_s": (statistics.median(setup), "s"),
        "host_factor": (statistics.median(readings) / REF_S, "x"),
    }
    beyond = sum(1 for t in ref_ms if t > ref_deciles[8])
    for pt in runner.points:
        own = [(t, r) for t, r, o in zip(ms, ref_ms, order) if o == pt]
        print(f"# {pt.label()}: median {statistics.median(t for t, _ in own):.2f} ms wall, "
              f"{statistics.median(r for _, r in own):.2f} ms reference, over {len(own)} runs")
    print(f"# {n} points in {sum(latencies):.2f} s timed; {beyond} samples beyond p90; setup probes {len(setup)}")
    print("# wall clock, unscaled (host_factor: median gauge reading over REF_S):")
    for name, (value, unit) in wall.items():
        print(f"#   {name} {value:.6g} {unit}")
    if beyond < 10:
        print("# WARNING: fewer than ten samples beyond p90; run longer")
    return attempted, failed, correct, {k: (v, END_TO_END[k]) for k, v in metrics.items()}


def per_layer(runner, args, gauge, mods):
    """Alternate untraced and traced cycles; layer metrics come from the traced ones."""
    from contextlib import contextmanager

    from tracing import Tracer, instrument

    tracer = Tracer()
    before = gauge()
    with instrument(tracer, mods):
        for _ in range(GRID_BUILDS):
            mods["grid"].build_grid(runner.grid.R, runner.grid.N)
    scale = REF_S / (0.5 * (before + gauge()))
    build_ms = scale * statistics.median(1e3 * (s.end - s.start) for s in tracer.spans if s.name == "grid.build_grid")
    tracer = Tracer()
    traced_at = {}
    written = {}

    @contextmanager
    def on_point(cycle, pt, index):
        if cycle % 2 == 0:
            yield
            return
        tracer.point = index
        traced_at[index] = pt
        with instrument(tracer, mods):
            yield
        tracer.point = None
        profile = runner.workdir / "profile.csv"  # written by the solve sequences only
        written[index] = profile.stat().st_size if profile.exists() else 0

    latencies, readings, failures, order = measure(runner, args.seconds, gauge, on_point, min_cycles=2)
    attempted, failed, correct = gate(runner, failures, order)

    layers, spans = tracer.by_point()
    per_occ = {}
    for index, pt in traced_at.items():
        occ = occurrence_metrics(layers[index], spans[index], tracer.spans, written[index])
        scale = REF_S / readings[index]  # self times as reference times, like the point's
        per_occ[index] = {k: v * scale if k.endswith("ms") else v for k, v in occ.items()}
    values, varying = aggregate(per_occ, traced_at)
    values["grid.build_grid.ms"] = build_ms
    ref = reference_times(latencies, readings)
    traced = [ref[i] for i in traced_at]
    untraced = [t for i, t in enumerate(ref) if i not in traced_at]
    values["trace.overhead_frac"] = statistics.fmean(traced) / statistics.fmean(untraced) - 1.0

    print_ranking(runner.w.name, layers, traced_at)
    for name in varying:
        print(f"# WARNING: count {name} differs between runs of the same point")
    print(f"# {len(traced)} traced and {len(untraced)} untraced points")
    return attempted, failed, correct, {k: (values[k], PER_LAYER[k]) for k in PER_LAYER}


def occurrence_metrics(layer, spans, all_spans, written_bytes):
    """Per-layer values for one traced point."""

    def calls(name):
        return layer[name][0] if name in layer else 0

    def self_ms(name):
        return 1e3 * layer[name][1] if name in layer else 0.0

    def info_sum(name, key):
        return sum(s.info[key] for s in spans if s.name == name)

    newton_trials = sum(1 for s in spans if s.name == "model.residuals" and s.parent >= 0
                        and all_spans[s.parent].name == "solver.newton_solve") - calls("solver.newton_solve")
    out = {
        "solver.lu.ms": self_ms("solver.lu"),
        "solver.lu.calls": calls("solver.lu"),
        "solver.lu.bytes_computed": info_sum("solver.lu", "bytes"),
        "solver.jacobian.ms": self_ms("solver.jacobian"),
        "solver.jacobian.calls": calls("solver.jacobian"),
        "solver.newton_solve.self_ms": self_ms("solver.newton_solve"),
        "solver.newton.iters": info_sum("solver.newton_solve", "iters"),
        "solver.continuation.legs": info_sum("solver.continuation_solve", "legs"),
        "_newton_trials": newton_trials,
        "model.residuals.ms": self_ms("model.residuals"),
        "model.residuals.calls": calls("model.residuals"),
        "inner.solve_inner_g.ms": self_ms("inner.solve_inner_g"),
        "inner.solve_inner_g.calls": calls("inner.solve_inner_g"),
        "model.action_breakdown.ms": self_ms("model.action_breakdown"),
        "model.action_breakdown.calls": calls("model.action_breakdown"),
        "solver.flow.precond.ms": self_ms("solver.flow.precond"),
        # each trial flow step solves one preconditioner system per field
        "solver.flow.steps_tried": calls("solver.flow.precond") // 2,
        "solver.flow.steps_accepted": info_sum("solver.flow_solve", "iters"),
        "solver.flow_solve.self_ms": self_ms("solver.flow_solve"),
        "observables.fit_decay_rate.ms": self_ms("observables.fit_decay_rate"),
        "observables.tail_constants.ms": self_ms("observables.tail_constants"),
        "verify.run_suite.self_ms": self_ms("verify.run_suite"),
        "inner.constraint_residual.ms": self_ms("inner.constraint_residual"),
        "io.read_profile_csv.ms": self_ms("io.read_profile_csv"),
        "io.write_profile_csv.ms": self_ms("io.write_profile_csv"),
        "io.profile.bytes": written_bytes,
    }
    return out


def aggregate(per_occ, traced_at):
    """Mean over the distinct points of each point's mean over its traced runs.

    Weighting every distinct point once makes the counts independent of how
    many cycles fit in the run, so they repeat exactly for a seed.
    """
    by_point = {}
    for index, values in per_occ.items():
        by_point.setdefault(traced_at[index], []).append(values)
    varying = set()
    per_point = []
    for runs in by_point.values():
        for name in EXACT_COUNTS + ("_newton_trials",):
            if len({r[name] for r in runs}) > 1:
                varying.add(name)
        per_point.append({k: statistics.fmean(r[k] for r in runs) for k in runs[0]})
    n = len(per_point)
    out = {k: sum(p[k] for p in per_point) / n for k in per_point[0]}
    trials = out.pop("_newton_trials")
    out["solver.linesearch.accept_ratio"] = out["solver.newton.iters"] / trials if trials else 0.0
    tried = out["solver.flow.steps_tried"]
    out["solver.flow.accept_ratio"] = out["solver.flow.steps_accepted"] / tried if tried else 0.0
    return out, sorted(varying)


def print_ranking(workload, layers, traced_at):
    totals = {}
    for index in traced_at:
        for name, (_, self_s) in layers[index].items():
            totals[name] = totals.get(name, 0.0) + self_s
    whole = sum(totals.values())
    ranked = sorted(totals.items(), key=lambda kv: -kv[1])
    print("# layer self time, share of traced point time:")
    for name, t in ranked[:10]:
        print(f"#   {name:34s} {100.0 * t / whole:5.1f} %")
    expected = EXPECTED_TOP_LAYER.get(workload)
    if expected:
        print(f"# top layer {ranked[0][0]} (expected {expected}): {'ok' if ranked[0][0] == expected else 'MISMATCH'}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "skyrme_dyon" / "__init__.py").is_file():
        print(f"error: package source not found at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from tracing import package_modules
    from workloads import R, WORKLOADS, Runner, generate_points

    workload = WORKLOADS[args.workload]
    mods = package_modules()
    points = generate_points(workload.base_points, args.seed, mods["model"].admissible_q_max)
    print(f"# workload {workload.name}: N={workload.nodes} R={R:g} tol={workload.tol:g} seed={args.seed} "
          f"BLAS threads {BLAS_THREADS}")
    print("# points " + ", ".join(pt.label() for pt in points))
    workdir = WORK / f"{workload.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        grid = mods["grid"].build_grid(R, workload.nodes)
        runner = Runner(workload, points, grid, mods, workdir)
        runner.prepare()
        gauge = Gauge()
        measure(runner, 0.0, gauge)  # one untimed warm-up cycle
        if args.trace:
            attempted, failed, correct, metrics = per_layer(runner, args, gauge, mods)
        else:
            attempted, failed, correct, metrics = end_to_end(runner, args, gauge, workload.nodes, R)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
