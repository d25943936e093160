"""The benchmark's own checks.

    python3 -m pytest -q perfbench/check_determinism.py

Not named test_*.py, so the package's test run does not collect it: these
checks launch the benchmark and take about half a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from run import END_TO_END, EXACT_COUNTS, PER_LAYER  # noqa: E402
from skyrme_dyon.model import admissible_q_max as q_max  # noqa: E402
from workloads import ACCEPT_POINTS, OMEGA_BOX, Q_BOX, WORKLOADS, generate_points  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_counts_repeat_exactly(workload):
    # different run lengths: counts are per distinct point, not per cycle run
    runs = [result(bench("--workload", workload, "--seed", "3", "--seconds", s, "--trace", "1")) for s in ("0", "1")]
    for r in runs:
        assert r["correct"]
        assert set(r["metrics"]) == set(PER_LAYER)
    first, second = ({k: r["metrics"][k]["value"] for k in EXACT_COUNTS} for r in runs)
    assert first == second
    # failed and attempted count distinct points, so they do not depend on the run length either
    assert runs[0]["attempted"] == len(WORKLOADS[workload].base_points)
    assert (runs[0]["attempted"], runs[0]["failed"]) == (runs[1]["attempted"], runs[1]["failed"])


def test_seed_zero_gives_the_acceptance_points_in_order():
    pts = generate_points(ACCEPT_POINTS, 0, q_max)
    assert [(p.omega, p.q, p.kappa) for p in pts] == list(ACCEPT_POINTS)


@pytest.mark.parametrize("seed", [1, 7, 12345])
def test_other_seeds_perturb_inside_admissible_boxes(seed):
    pts = generate_points(ACCEPT_POINTS, seed, q_max)
    assert pts == generate_points(ACCEPT_POINTS, seed, q_max)
    assert sorted(p.base for p in pts) == [0, 1, 2]
    for p in pts:
        omega, q, kappa = ACCEPT_POINTS[p.base]
        assert abs(p.omega - omega) <= OMEGA_BOX
        assert abs(p.q - q) <= Q_BOX * q
        assert 0.0 < p.q < q_max(p.omega)
        assert p.kappa == kappa


def test_metric_tables_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "accept-solve", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
