import importlib
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import skyrme_dyon as sd
from skyrme_dyon import cli
from skyrme_dyon.cli import main, parse_angle
from skyrme_dyon.io import read_profile_csv, write_profile_csv


def test_parse_angle():
    assert parse_angle("0.75pi") == pytest.approx(0.75 * math.pi)
    assert parse_angle("pi") == pytest.approx(math.pi)
    assert parse_angle("2.356") == pytest.approx(2.356)
    assert parse_angle(" 0.5PI ") == pytest.approx(0.5 * math.pi)
    assert parse_angle("-pi") == -math.pi
    assert parse_angle("+pi") == math.pi
    assert parse_angle("-0.5pi") == -0.5 * math.pi
    assert cli.angle_list("+pi,-pi") == [math.pi, -math.pi]  # a --omegas or --sweep-values list


def test_solve_end_to_end(tmp_path):
    out = tmp_path / "run1"
    code = main(
        [
            "solve", "--omega", "0.75pi", "--q", "0.3", "--kappa", "1",
            "--rmax", "60", "--nodes", "2000", "--out", str(out),
        ]
    )
    assert code == 0
    assert (out / "profile.csv").exists()
    assert (out / "observables.txt").exists()
    assert (out / "verify.txt").exists()
    assert "overall PASS" in (out / "verify.txt").read_text()

    # round trip: the stored profile reproduces the recorded observables exactly
    p, s = read_profile_csv(out / "profile.csv")
    recorded = {}
    for line in (out / "observables.txt").read_text().splitlines():
        parts = line.split()
        if len(parts) == 2:
            recorded[parts[0]] = float(parts[1])
    qe = sd.electric_charge(s)
    energy = sd.action_breakdown(p, s).E
    assert abs(qe - recorded["Qe"]) <= 1e-12 * abs(recorded["Qe"])
    obs = sd.observables(p, s)
    assert abs(obs.QS_numeric - recorded["QS_numeric"]) <= 1e-12 * (1 + abs(recorded["QS_numeric"]))
    assert np.isfinite(energy)

    # both reports are exactly what the stored profile reproduces
    assert (out / "observables.txt").read_text() == sd.observables(p, s, strict=False).as_text()
    assert main(["verify", str(out / "profile.csv"), "--out", str(tmp_path / "reverify.txt")]) == 0
    assert (out / "verify.txt").read_bytes() == (tmp_path / "reverify.txt").read_bytes()


def test_solve_runs_each_decay_fit_once(monkeypatch, tmp_path):
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # the package attribute `observables` is the function; reach the module itself
    for module in (importlib.import_module("skyrme_dyon.observables"), importlib.import_module("skyrme_dyon.verify")):
        for name in ("fit_decay_rate", "tail_constants"):
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    assert main(["solve", "--omega", "0.75pi", "--q", "0.3", "--kappa", "1", "--out", str(tmp_path)]) == 0
    assert calls == {"fit_decay_rate": 1, "tail_constants": 1}


def test_solve_region_error_exit_code(tmp_path):
    code = main(["solve", "--omega", "0.4pi", "--q", "0.1", "--out", str(tmp_path)])
    assert code == 1


def test_solve_under_resolved_domain_is_diagnosed(tmp_path):
    code = main(["solve", "--omega", "0.75pi", "--q", "0.1", "--rmax", "5", "--nodes", "100", "--out", str(tmp_path)])
    assert code == 3
    # the decay window is empty: the fit fails as a report entry, not an exception
    assert any(line.startswith("decay-rate FAIL nan ") for line in (tmp_path / "verify.txt").read_text().splitlines())
    assert any(line.startswith("note ") for line in (tmp_path / "observables.txt").read_text().splitlines())


def test_sweep_end_to_end(tmp_path):
    out = tmp_path / "sweep"
    code = main(
        [
            "sweep", "--omega", "0.75pi", "--kappa", "1", "--nodes", "2000",
            "--sweep-param", "q", "--sweep-values", "0.30,0.20,0.10,0.05,0.02",
            "--out", str(out),
        ]
    )
    assert code == 0
    lines = (out / "summary.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header == ["omega", "q", "kappa", "Qe", "QS_numeric", "QS_closed", "gamma_fit", "gamma_theory", "E", "L", "converged"]
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 5
    qe = [float(row[header.index("Qe")]) for row in rows]
    assert all(b < a for a, b in zip(qe, qe[1:]))
    assert all(row[-1] == "1" for row in rows)


def test_sweep_omega_checks_closed_form(tmp_path):
    out = tmp_path / "sweep_omega"
    code = main(
        [
            "sweep", "--q", "0.05", "--kappa", "1", "--nodes", "2000",
            "--sweep-param", "omega", "--sweep-values", "0.55pi,0.75pi,0.9pi",
            "--out", str(out),
        ]
    )
    assert code == 0
    lines = (out / "summary.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    for line in lines[1:]:
        row = line.split(",")
        omega = float(row[header.index("omega")])
        qs_closed = float(row[header.index("QS_closed")])
        assert qs_closed == pytest.approx(1.0 + (0.5 * math.sin(2 * omega) - omega) / math.pi, abs=1e-12)


def test_sweep_empty_values_exit_one(tmp_path):
    code = main(["sweep", "--sweep-param", "q", "--sweep-values", ",", "--out", str(tmp_path)])
    assert code == 1


def test_sweep_names_why_a_point_failed(tmp_path, capsys):
    argv = ["sweep", "--omega", "0.75pi", "--nodes", "300", "--rmax", "30", "--sweep-param", "q", "--sweep-values", "0.1", "--tol", "1e-16"]
    assert main([*argv, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("sweep point q=0.10000000000000001 failed: ")
    assert "line search stalled" in err[0]


def test_sweep_records_per_point_failures(tmp_path):
    # an unreachable residual target forces honest non-convergence
    out = tmp_path / "failing"
    code = main(
        [
            "sweep", "--omega", "0.75pi", "--nodes", "300", "--rmax", "30",
            "--sweep-param", "q", "--sweep-values", "0.1", "--tol", "1e-16",
            "--out", str(out),
        ]
    )
    assert code == 2
    lines = (out / "summary.csv").read_text().strip().splitlines()
    assert len(lines) == 2
    assert lines[1].split(",")[-1] == "0"


def test_sweep_accepts_only_solutions_that_pass_the_property_checks(monkeypatch, tmp_path):
    # a point is summarized as converged only when its report is, and a
    # report whose profile breaks a property check is not; one such point
    # makes the sweep exit 2
    real_continuation = cli.continuation_solve

    def breaking_second_point(p, *args, **kwargs):
        profile, report = real_continuation(p, *args, **kwargs)
        if p.q == 0.05:
            report.converged = report.properties_ok = False
        return profile, report

    monkeypatch.setattr(cli, "continuation_solve", breaking_second_point)
    out = tmp_path / "sweep"
    code = main(
        [
            "sweep", "--omega", "0.75pi", "--nodes", "300", "--rmax", "30",
            "--sweep-param", "q", "--sweep-values", "0.1,0.05", "--out", str(out),
        ]
    )
    converged = [line.split(",")[-1] for line in (out / "summary.csv").read_text().strip().splitlines()[1:]]
    assert converged == ["1", "0"]
    assert code == 2


def test_sweep_solves_each_point_once_as_solve_does(monkeypatch, tmp_path):
    # one continuation_solve per point, and each row is exactly that solve's
    # profile summarized by observables, with nothing carried between points
    real_continuation = cli.continuation_solve
    solved = []

    def counted(p, *args, **kwargs):
        solved.append(p.q)
        return real_continuation(p, *args, **kwargs)

    monkeypatch.setattr(cli, "continuation_solve", counted)
    qs = [0.1, 0.05, 0.02]
    out = tmp_path / "sweep"
    argv = ["sweep", "--omega", "0.75pi", "--nodes", "300", "--rmax", "30", "--sweep-values", "0.1,0.05,0.02", "--out", str(out)]
    assert main(argv) == 0
    assert solved == qs
    lines = (out / "summary.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    grid = sd.build_grid(30.0, 300)
    for q, line in zip(qs, lines[1:], strict=True):
        p = sd.validate_params(0.75 * math.pi, q, 1.0)
        profile, report = real_continuation(p, grid)
        obs = sd.observables(p, profile, strict=False)
        expected = {
            "omega": p.omega, "q": p.q, "kappa": p.kappa, "Qe": obs.Qe, "QS_numeric": obs.QS_numeric,
            "QS_closed": obs.QS_closed, "gamma_fit": obs.gamma_fit, "gamma_theory": obs.gamma_theory,
            "E": report.action.E, "L": report.action.L, "converged": 1.0,
        }
        assert {name: float(cell) for name, cell in zip(header, line.split(","))} == expected


def test_failed_solve_writes_profile_of_the_failed_leg(tmp_path):
    # the unreachable target aborts the continuation on its q = 0 leg
    out = tmp_path / "failed"
    code = main(
        [
            "solve", "--omega", "0.75pi", "--q", "0.1", "--nodes", "300", "--rmax", "30",
            "--tol", "1e-16", "--out", str(out),
        ]
    )
    assert code == 2
    p, s = read_profile_csv(out / "profile.csv")
    assert p.q == s.g[-1] == 0.0
    solve_txt = (out / "solve.txt").read_text().splitlines()
    assert "target_q 0.10000000000000001" in solve_txt and "profile_q 0" in solve_txt
    # no leg converged, so the message must not name a converged q
    assert "last converged" not in solve_txt[-1] and "no ladder leg converged" in solve_txt[-1]
    # the q = 0 leg meets the default 1e-10 but not the requested residual target
    assert main(["verify", str(out / "profile.csv")]) == 0
    assert main(["verify", str(out / "profile.csv"), "--tol", "1e-16"]) == 3


def test_aborted_route_on_a_coarse_grid_ends_with_one_fine_solve(monkeypatch, tmp_path):
    # N = 500 has a coarse subgrid: the q = 0 leg stalls there, and the
    # fine solve still runs from it, so the written profile is on the full mesh
    reports = []

    def recording(*args, **kwargs):
        profile, report = sd.continuation_solve(*args, **kwargs)
        reports.append(report)
        return profile, report

    monkeypatch.setattr(cli, "continuation_solve", recording)
    out = tmp_path / "failed"
    code = main(
        [
            "solve", "--omega", "0.75pi", "--q", "0.1", "--nodes", "500", "--rmax", "30",
            "--tol", "1e-16", "--out", str(out),
        ]
    )
    assert code == 2
    (report,) = reports
    fine = report.continuation_trace[-1]
    assert [leg.path for leg in report.continuation_trace] == ["direct", "newton", "fine"]
    assert fine.q == 0.0 and not report.converged
    p, s = read_profile_csv(out / "profile.csv")
    assert s.grid.r.size == 501 and p.q == s.g[-1] == 0.0
    solve_txt = (out / "solve.txt").read_text().splitlines()
    assert "profile_q 0" in solve_txt
    assert f"residual {fine.final_residual_norm:.6g}" in solve_txt
    assert solve_txt[-1].startswith("continuation aborted at q=0; no ladder leg converged.")
    assert solve_txt[-1] == report.message


def test_ladder_ends_exactly_at_the_target(tmp_path):
    # direct Newton lands on the wrong branch here, so solve walks the default ladder, whose last leg is the target
    out = tmp_path / "ladder"
    code = main(["solve", "--omega", "0.505pi", "--q", "0.6993", "--kappa", "0", "--out", str(out)])
    assert code == 0
    p, s = read_profile_csv(out / "profile.csv")
    assert s.g[-1] == p.q == 0.6993


def test_table_reference_values(tmp_path):
    out = tmp_path / "table"
    code = main(["table", "--omegas", "0.5pi,0.75pi,pi", "--out", str(out)])
    assert code == 0
    lines = (out / "table.csv").read_text().strip().splitlines()
    rows = {round(float(r.split(",")[0]), 10): [float(x) for x in r.split(",")[1:]] for r in lines[1:]}
    qmax, qs, gamma0 = rows[round(0.75 * math.pi, 10)]
    assert qs == pytest.approx(0.0908450569081046, abs=1e-12)
    assert qmax == pytest.approx(0.35355339059327379, abs=1e-12)
    assert gamma0 == pytest.approx(0.35355339059327379, abs=1e-12)
    half = rows[round(0.5 * math.pi, 10)]
    assert half[1] == pytest.approx(0.5, abs=1e-14)
    full = rows[round(math.pi, 10)]
    assert full[1] == pytest.approx(0.0, abs=1e-14)
    for name in ("qmax_vs_omega.dat", "qs_vs_omega.dat", "gamma0_vs_omega.dat"):
        dat = (out / name).read_text().strip().splitlines()
        assert len(dat) == 3 and all(len(line.split()) == 2 for line in dat)


@pytest.mark.parametrize("omega", ["1.5pi", "-0.1", "nan"])
def test_table_invalid_range(tmp_path, omega):
    out = tmp_path / "table"
    assert main(["table", "--omegas", omega, "--out", str(out)]) == 1
    assert not out.exists()


def test_verify_command_on_stored_profile(tmp_path):
    grid = sd.build_grid(60.0, 2000)
    p = sd.validate_params(0.75 * math.pi, 0.1, 1.0)
    profile, report = sd.continuation_solve(p, grid)
    assert report.converged
    path = tmp_path / "profile.csv"
    write_profile_csv(path, p, profile)
    assert main(["verify", str(path)]) == 0
    profile.g[50] = -profile.g[50]
    write_profile_csv(path, p, profile)
    assert main(["verify", str(path)]) == 3


@pytest.mark.parametrize("old_line", ["# grading=1", "# grading=none"])
def test_profile_with_a_grading_line_verifies_as_without(tmp_path, capsys, old_line):
    # files written before the mesh lost its parameter carry a grading line; it is read and ignored
    out = tmp_path / "run"
    main(["solve", "--nodes", "300", "--rmax", "30", "--q", "0.1", "--out", str(out)])
    lines = (out / "profile.csv").read_text().splitlines()
    assert [line.split("=")[0] for line in lines[:6]] == ["# omega", "# q", "# kappa", "# R", "# N", "r,a,f,g"]
    old = tmp_path / "old.csv"
    old.write_text("\n".join([*lines[:5], old_line, *lines[5:]]) + "\n")
    for path, report in ((out / "profile.csv", tmp_path / "new.txt"), (old, tmp_path / "old.txt")):
        main(["verify", str(path), "--out", str(report)])
    assert (tmp_path / "old.txt").read_bytes() == (tmp_path / "new.txt").read_bytes() == (out / "verify.txt").read_bytes()
    assert "Traceback" not in capsys.readouterr().err


def test_profile_csv_bitwise_roundtrip(tmp_path, grid_small):
    p = sd.validate_params(0.75 * math.pi, 0.2, 1.0)
    s = sd.initial_guess(p, grid_small)
    path = tmp_path / "p.csv"
    write_profile_csv(path, p, s)
    p2, s2 = read_profile_csv(path)
    assert p2.omega == p.omega and p2.q == p.q and p2.kappa == p.kappa
    assert np.array_equal(s2.grid.r, s.grid.r)
    assert np.array_equal(s2.a, s.a) and np.array_equal(s2.f, s.f) and np.array_equal(s2.g, s.g)


@pytest.mark.parametrize("rebuilt", [False, True])
def test_profile_csv_bytes_match_per_row_format(tmp_path, rng, rebuilt):
    grid = sd.build_grid(60.0, 1000)
    if rebuilt:  # a grid read back from a file
        grid = sd.RadialGrid(grid.r[::2].copy())
    p = sd.validate_params(0.75 * math.pi, 0.2, 1.0)
    s = sd.initial_guess(p, grid)
    s.a[1:-1] *= 1.0 + 1e-3 * rng.standard_normal(grid.N - 1)  # full-length mantissas
    s.f[1:-1] *= 1.0 + 1e-3 * rng.standard_normal(grid.N - 1)
    path = tmp_path / "p.csv"
    write_profile_csv(path, p, s)
    head = [f"# omega={p.omega:.17g}", f"# q={p.q:.17g}", f"# kappa={p.kappa:.17g}", f"# R={grid.R:.17g}", f"# N={grid.N}", "r,a,f,g"]
    rows = [f"{r:.17g},{a:.17g},{f:.17g},{g:.17g}" for r, a, f, g in zip(grid.r.tolist(), s.a.tolist(), s.f.tolist(), s.g.tolist())]
    assert path.read_bytes() == ("\n".join(head + rows) + "\n").encode()


# -0.0, the smallest and largest subnormals, the largest finite double, +-inf and NaN
EDGE_FLOATS = [-0.0, 5e-324, 2.2250738585072009e-308, 1.7976931348623157e308, math.inf, -math.inf, math.nan]
ROUNDTRIP_NODES = 20
# a written NaN reads back as the canonical quiet NaN, so that is the NaN drawn
cells = st.lists(st.floats(allow_nan=False) | st.sampled_from(EDGE_FLOATS), min_size=ROUNDTRIP_NODES + 1, max_size=ROUNDTRIP_NODES + 1)


@settings(max_examples=60, deadline=None)
@given(a=cells, f=cells, g=cells)
@example(a=(EDGE_FLOATS * 3)[: ROUNDTRIP_NODES + 1], f=(EDGE_FLOATS[::-1] * 3)[: ROUNDTRIP_NODES + 1], g=[math.nan] * (ROUNDTRIP_NODES + 1))
def test_profile_csv_roundtrip_is_bitwise_for_any_float(tmp_path_factory, a, f, g):
    grid = sd.RadialGrid(np.linspace(0.0, 3.0, ROUNDTRIP_NODES + 1))
    p = sd.validate_params(0.75 * math.pi, 0.2, 1.0)
    path = tmp_path_factory.mktemp("roundtrip") / "p.csv"
    written = sd.FieldProfile(grid, np.array(a), np.array(f), np.array(g))
    write_profile_csv(path, p, written)
    _, read = read_profile_csv(path)
    for name in ("a", "f", "g"):
        assert np.array_equal(getattr(read, name).view(np.int64), getattr(written, name).view(np.int64)), name


@pytest.mark.parametrize(
    "line, content",
    [
        (9, "0.1,0.5,abc,0.05"),  # a non-numeric cell
        (1, "# omega=abc"),  # a non-numeric header value
        (5, "# N=300.5"),  # a non-integer node count
        (9, "0.1,0.5,0.05"),  # a row with three columns
        (4, "# R=abc"),  # a non-numeric radius
        (4, "# R=31"),  # a radius that is not the last node's
    ],
)
def test_verify_rejects_malformed_profile(tmp_path, capsys, grid_small, line, content):
    p = sd.validate_params(0.75 * math.pi, 0.2, 1.0)
    path = tmp_path / "p.csv"
    write_profile_csv(path, p, sd.initial_guess(p, grid_small))
    lines = path.read_text().splitlines()
    lines[line - 1] = content
    path.write_text("\n".join(lines) + "\n")
    assert main(["verify", str(path)]) == 1
    err = capsys.readouterr().err
    assert str(path) in err
    assert "4 columns" in err if content.count(",") == 2 else f"line {line} " in err


@pytest.mark.parametrize(
    "line, content",
    [
        (3, "# omega=abc"),  # a bad header value below two blank lines
        (12, "0.1,0.5,abc,0.05"),  # a bad cell below two blank lines
    ],
)
def test_malformed_profile_line_numbers_count_leading_blank_lines(tmp_path, capsys, grid_small, line, content):
    p = sd.validate_params(0.75 * math.pi, 0.2, 1.0)
    path = tmp_path / "p.csv"
    write_profile_csv(path, p, sd.initial_guess(p, grid_small))
    lines = ["", "", *path.read_text().splitlines()]
    lines[line - 1] = content
    path.write_text("\n".join(lines) + "\n")
    assert main(["verify", str(path)]) == 1
    assert f"line {line} is not readable: '{content}'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--sweep-param", "q", "--sweep-values", "abc"],
        ["table", "--omegas", "foo"],
        ["sweep", "--sweep-param", "q", "--sweep-values", "0.1,abc"],
        ["table", "--omegas", ","],
    ],
)
def test_malformed_list_tokens_exit_config(tmp_path, argv):
    assert main([*argv, "--out", str(tmp_path)]) == 1


BAD_TOLS = ["-1", "0", "nan", "inf"]


@pytest.mark.parametrize(
    "option",
    [
        ["solve", "--omega", "0.4pi"],
        ["solve", "--grading", "0"],  # the mesh has no parameter: a deleted option
        *(["solve", "--tol", tol] for tol in BAD_TOLS),
        *(["sweep", "--sweep-values", "0.1", "--tol", tol] for tol in BAD_TOLS),
        ["solve", "--seed", "-1"],
        ["solve", "--rmax", "1e160", "--nodes", "100"],
        ["solve", "--nodes", "100000000000000000000"],  # above MAX_NODES, rejected before any allocation
    ],
)
def test_bad_solve_settings_create_no_out_directory(tmp_path, capsys, option):
    # option is the command and its bad setting; the suite turns any
    # RuntimeWarning, such as an overflow in the mesh's r_i*r_(i+1), into an error
    out = tmp_path / "newdir"
    assert main([*option, "--q", "0.1", "--out", str(out)]) == 1
    assert not out.exists()
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("tol", BAD_TOLS)
def test_verify_tol_must_be_finite_and_positive(tmp_path, capsys, grid_small, tol):
    p = sd.validate_params(0.75 * math.pi, 0.2, 1.0)
    path = tmp_path / "p.csv"
    write_profile_csv(path, p, sd.initial_guess(p, grid_small))
    report = tmp_path / "report.txt"
    assert main(["verify", str(path), "--tol", tol, "--out", str(report)]) == 1
    assert "residual tolerance must be a finite number > 0" in capsys.readouterr().err
    assert not report.exists()


def test_verify_seed_must_be_nonnegative(tmp_path, capsys, grid_small):
    p = sd.validate_params(0.75 * math.pi, 0.2, 1.0)
    path = tmp_path / "p.csv"
    write_profile_csv(path, p, sd.initial_guess(p, grid_small))
    report = tmp_path / "report.txt"
    assert main(["verify", str(path), "--seed", "-1", "--out", str(report)]) == 1
    assert "test-function seed must be an integer >= 0, got -1" in capsys.readouterr().err
    assert not report.exists()


def test_verify_reports_an_empty_tail_window_as_a_failure(tmp_path, capsys):
    # 100 nodes on [0, 2.9] and one at R = 30: no interior node in [R/10, R)
    p = sd.validate_params(0.75 * math.pi, 0.1, 1.0)
    grid = sd.RadialGrid(np.concatenate([np.linspace(0.0, 2.9, 100), [30.0]]))
    path = tmp_path / "p.csv"
    write_profile_csv(path, p, sd.initial_guess(p, grid))
    assert main(["verify", str(path)]) == 3
    report = dict(line.split(" ", 1) for line in capsys.readouterr().out.splitlines())
    for check in ("tail-electric-charge", "tail-f-variation"):
        assert report[check].startswith("FAIL nan ")


@pytest.mark.parametrize(
    "rows, message",
    [
        ([], "has 0 rows, header says 3"),
        (["0,1,0,0", "1,0.5,0.4,0.05", "inf,0,0.78539816339744828,0.1"], "last node must be finite, got inf"),
        (["0,1,0,0", "1e160,0.5,0.4,0.05", "2e160,0,0.78539816339744828,0.1"], "last node 2e+160 is too large"),
    ],
    ids=["no-rows", "infinite-last-node", "overflowing-last-node"],
)
def test_verify_names_the_file_of_an_unusable_profile(tmp_path, capsys, rows, message):
    R = rows[-1].split(",")[0] if rows else "2"
    header = ["# omega=2.356194490192345", "# q=0.1", "# kappa=1", f"# R={R}", "# N=2", "# grading=none", "r,a,f,g"]
    path = tmp_path / "p.csv"
    path.write_text("\n".join([*header, *rows]) + "\n")
    assert main(["verify", str(path)]) == 1
    out, err = capsys.readouterr()
    assert f"profile file {path}" in err and message in err and not out


def test_verify_rejects_a_mesh_without_interior_node(tmp_path, capsys):
    path = tmp_path / "p.csv"
    header = ["# omega=2.3561944901923448", "# q=0.1", "# kappa=1", "# R=30", "# N=1", "# grading=none", "r,a,f,g"]
    path.write_text("\n".join([*header, "0,1,0,0", "30,0,0.78539816339744828,0.1"]) + "\n")
    assert main(["verify", str(path)]) == 1
    assert str(path) in capsys.readouterr().err


@pytest.mark.parametrize(
    "rows",
    [
        ["0,1,0,0", "1,0.5,0.4,0.05", "2,0,0.78539816339744828,0.1"],
        ["0,1,0,0", "1,0.6,0.3,0.03", "2,0.3,0.6,0.07", "3,0,0.78539816339744828,0.1"],
    ],
    ids=["2-intervals", "3-intervals"],
)
def test_verify_solves_the_smallest_electric_systems(tmp_path, capsys, rows):
    # 1 x 1 and 2 x 2 electric systems take the tridiagonal solver's small-system route; the CI writes the same files
    n = len(rows) - 1
    header = ["# omega=2.356194490192345", "# q=0.1", "# kappa=1", f"# R={n}", f"# N={n}", "# grading=none", "r,a,f,g"]
    path = tmp_path / "p.csv"
    path.write_text("\n".join([*header, *rows]) + "\n")
    assert main(["verify", str(path)]) == 3
    out, err = capsys.readouterr()
    report = dict(line.split(" ", 1) for line in out.splitlines())
    assert report["constraint-orthogonality"].startswith("PASS ") and not err


# --continuation-steps was deleted from solve; a stale script passing it to sweep must still exit config
@pytest.mark.parametrize("option", [["--continuation-steps", "3"], ["--seed", "7"]])
def test_sweep_rejects_solve_only_options(tmp_path, option):
    argv = ["sweep", "--nodes", "300", "--rmax", "30", "--sweep-values", "0.1", *option, "--out", str(tmp_path)]
    assert main(argv) == 1
    assert not (tmp_path / "summary.csv").exists()
