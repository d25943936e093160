"""The benchmark's workloads call the package by name; one seed-0 point of each must run and pass its gate."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import skyrme_dyon as sd

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up by name
    spec.loader.exec_module(workloads)
    return workloads


@pytest.mark.parametrize("name", ["accept-solve", "flow-oracle", "verify-stored", "fine-mesh"])
def test_first_seed_zero_point_of_each_workload_runs_and_passes_its_gate(tmp_path, name):
    workloads = _load_workloads()
    workload = workloads.WORKLOADS[name]
    points = workloads.generate_points(workload.base_points, 0, sd.admissible_q_max)[:1]
    mods = {n: importlib.import_module(f"skyrme_dyon.{n}") for n in ("grid", "model", "inner", "solver", "observables", "verify", "io")}
    runner = workloads.Runner(workload, points, sd.build_grid(workloads.R, workload.nodes), mods, tmp_path)
    runner.prepare()
    (pt,) = points
    result = runner.run(pt)
    assert runner.unexpected(pt, runner.failures(pt, result)) == []
    if name in ("accept-solve", "fine-mesh"):
        report, _ = result
        # the traced run counts continuation legs by the trace's length: the direct attempt, then the fine solve
        assert len(report.continuation_trace) == 2
