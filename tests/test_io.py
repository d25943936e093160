"""The profile writer's vectorized '%.17g' kernel against Python's formatter, and the reader's errors."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import skyrme_dyon as sd
from skyrme_dyon import io
from skyrme_dyon.cli import main
from skyrme_dyon.io import write_profile_csv


def per_value_format(table):
    return "".join(",".join("%.17g" % v for v in row) + "\n" for row in table.tolist()).encode()


def assert_formats_like_python(values, cols=4):
    values = np.asarray(values, dtype=np.float64)
    table = np.concatenate([values, np.ones(-values.size % cols)]).reshape(-1, cols)
    assert io._format_rows(table) == per_value_format(table)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_kernel_matches_percent_format_for_any_bit_pattern(bits):
    assert_formats_like_python(np.array(bits, dtype=np.uint64).view(np.float64))


def test_kernel_matches_percent_format_at_powers_of_ten():
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    assert_formats_like_python(np.concatenate([np.nextafter(powers, 0.0), powers, np.nextafter(powers, np.inf)]))


def test_kernel_matches_percent_format_at_exact_ties():
    # odd m/8 in [1e14, 1e15) has 18 significant digits ending in 5: a tie at 17
    m = np.random.default_rng(3).integers(8 * 10**14, 8 * 10**15, 10_000) | 1
    assert_formats_like_python(m / 8.0)


def test_kernel_matches_percent_format_at_special_values():
    subnormals = np.array([5e-324, 1e-320, 2.2250738585072009e-308, 1e-310])
    specials = [0.0, -0.0, math.inf, -math.inf, math.nan, 1e-270, 1e270, 1e-5, 1e-4, 1e16, 1e17, 12345678901234567.0]
    assert_formats_like_python(np.concatenate([subnormals, -subnormals, specials, -np.array(specials)]))


def test_kernel_matches_percent_format_across_block_boundaries(monkeypatch):
    monkeypatch.setattr(io, "_BLOCK_ROWS", 7)
    rng = np.random.default_rng(4)
    values = rng.standard_normal(4 * 30) * 10.0 ** rng.integers(-300, 300, 4 * 30)
    values[::10] = [0.0, math.nan, -math.inf, 0.5, 1e100, -1e-5, 60.0, 1e16, 2.5, -0.0, 1e-300, 7.0]
    assert_formats_like_python(values)


def test_fine_mesh_profile_bytes_match_per_row_format(tmp_path):
    grid = sd.build_grid(60.0, 8000)
    p = sd.validate_params(0.9 * math.pi, 0.05, 1.0)
    s, report = sd.continuation_solve(p, grid, sd.SolveConfig(tol_residual=1e-8))
    assert report.converged, report.message
    path = tmp_path / "profile.csv"
    write_profile_csv(path, p, s)
    rows = [f"{r:.17g},{a:.17g},{f:.17g},{g:.17g}" for r, a, f, g in zip(grid.r.tolist(), s.a.tolist(), s.f.tolist(), s.g.tolist())]
    assert path.read_bytes().split(b"r,a,f,g\n", 1)[1] == ("\n".join(rows) + "\n").encode()


@pytest.mark.parametrize(
    "content, message",
    [
        (b"\xff\xfe# omega=2.356194490192345\n", "is not UTF-8 text: invalid start byte at byte 0"),
        (b"# q=0.1\n# kappa=1\n# R=2\n# N=2\nr,a,f,g\n0,1,0,0\n1,0.5,0.4,0.05\n2,0,0.78539816339744828,0.1\n", "is missing header line '# omega='"),
        (b"# omega=2.356194490192345\n# q=0.1\n# kappa=1\n# R=2\n# N=2\nr,a,f,g\n0,1,0\n1,0.5,0.4\n2,0,0.78539816339744828\n", "must have 4 columns r,a,f,g"),
        # the line number counts the blank line 8, which the row parse skips
        (
            b"# omega=2.356194490192345\n# q=0.1\n# kappa=1\n# R=2\n# N=2\nr,a,f,g\n0,1,0,0\n\n1,x,0.4,0.05\n2,0,0.78539816339744828,0.1\n",
            "line 9 is not readable: '1,x,0.4,0.05'",
        ),
    ],
    ids=["not-utf-8", "no-omega-line", "three-columns", "blank-line-before-bad-row"],
)
def test_verify_names_the_profile_file_it_cannot_read(tmp_path, capsys, content, message):
    path = tmp_path / "p.csv"
    path.write_bytes(content)
    assert main(["verify", str(path)]) == 1
    out, err = capsys.readouterr()
    assert err == f"error: profile file {path} {message}\n" and not out
