"""Run the benchmark once per seed and summarise each metric's spread.

    python3 perfbench/spread.py accept-solve 1-10 [--trace 1] [--json out.json]

Runs are sequential, one process at a time, each for BENCHMARK.json's
run_seconds.  For every metric it prints the median, the quartiles and
the distance between the quartiles as a share of the median, which is
the figure the regression bounds in BENCHMARK.json are set against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(spec: str) -> list[int]:
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "iqr_over_median": (q3 - q1) / med if med else float("nan")}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workload")
    ap.add_argument("seeds", type=seeds, help="e.g. 1-10 or 1,4,9")
    ap.add_argument("--trace", default="0", choices=("0", "1"))
    ap.add_argument("--json", type=Path, help="write the runs and the summary here")
    args = ap.parse_args()
    run_seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(run_seconds), "--trace", args.trace],
            cwd=ROOT, capture_output=True, text=True, timeout=180,
        )
        if proc.returncode:
            print(proc.stdout, proc.stderr, sep="\n", file=sys.stderr)
            return 1
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        res["seed"] = seed
        runs.append(res)
        values = " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items())
        print(f"seed {seed}: correct={res['correct']} failed={res['failed']}/{res['attempted']} {values}", flush=True)

    table = {name: summary([r["metrics"][name]["value"] for r in runs]) for name in runs[0]["metrics"]}
    for name, s in table.items():
        print(f"{name:34s} median {s['median']:.5g}  q1 {s['q1']:.5g}  q3 {s['q3']:.5g}  iqr/median {s['iqr_over_median']:.3f}")
    if args.json:
        args.json.write_text(json.dumps({"workload": args.workload, "runs": runs, "summary": table}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
