"""Profile and summary file formats.

Profile CSV: header lines `# key=value` for omega, q, kappa, R, N, grading
(17 significant digits, lossless float round-trip), a column header line
`r,a,f,g`, then one row per node.  Grids are reconstructed from the stored
nodes, so re-reading a profile reproduces every derived quantity bitwise;
the R header must equal the last node's r.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import ParameterError
from .grid import grid_from_nodes
from .model import FieldProfile, ModelParams, validate_params

__all__ = ["write_profile_csv", "read_profile_csv", "write_summary_csv", "SUMMARY_COLUMNS"]

# header keys read as numbers; any other header value stays a string
_HEADER_TYPES = {"omega": float, "q": float, "kappa": float, "R": float, "N": int, "grading": lambda v: None if v == "none" else float(v)}

SUMMARY_COLUMNS = ["omega", "q", "kappa", "Qe", "QS_numeric", "QS_closed", "gamma_fit", "gamma_theory", "E", "L", "converged"]


def write_profile_csv(path: str | Path, p: ModelParams, s: FieldProfile) -> None:
    grid = s.grid
    grading = "none" if grid.grading is None else f"{grid.grading:.17g}"
    lines = [
        f"# omega={p.omega:.17g}",
        f"# q={p.q:.17g}",
        f"# kappa={p.kappa:.17g}",
        f"# R={grid.R:.17g}",
        f"# N={grid.N}",
        f"# grading={grading}",
        "r,a,f,g",
    ]
    # one %-format over the interleaved columns, as Python floats: the same
    # bytes as a per-row f-string in about half the time at N = 2000
    table = np.column_stack((grid.r, s.a, s.f, s.g)).ravel().tolist()
    rows = ("%.17g,%.17g,%.17g,%.17g\n" * (grid.N + 1)) % tuple(table)
    Path(path).write_text("\n".join(lines) + "\n" + rows, encoding="utf-8")


def read_profile_csv(path: str | Path) -> tuple[ModelParams, FieldProfile]:
    text = Path(path).read_text(encoding="utf-8").strip().splitlines()
    header: dict = {}
    header_line: dict[str, int] = {}
    rows: list[list[float]] = []
    for lineno, line in enumerate(text, 1):
        line = line.strip()
        try:
            if line.startswith("#"):
                key, _, value = line.lstrip("# ").partition("=")
                key = key.strip()
                header[key] = _HEADER_TYPES.get(key, str)(value.strip())
                header_line[key] = lineno
            elif line and not line.startswith("r,"):
                rows.append([float(tok) for tok in line.split(",")])
        except ValueError:
            raise ParameterError(f"profile file {path} line {lineno} is not readable: '{line}'") from None
    for key in ("omega", "q", "kappa", "R", "N", "grading"):
        if key not in header:
            raise ParameterError(f"profile file {path} is missing header line '# {key}='")
    if len({len(row) for row in rows}) != 1 or len(rows[0]) != 4:
        raise ParameterError(f"profile file {path} must have 4 columns r,a,f,g")
    data = np.asarray(rows, dtype=float)
    n_expected = header["N"] + 1
    if data.shape[0] != n_expected:
        raise ParameterError(f"profile file {path} has {data.shape[0]} rows, header says {n_expected}")
    if header["R"] != data[-1, 0]:
        raise ParameterError(
            f"profile file {path} line {header_line['R']} says R={header['R']:.17g}, but the last node is r={data[-1, 0]:.17g}"
        )
    try:
        grid = grid_from_nodes(data[:, 0], grading=header["grading"])
    except ParameterError as exc:
        raise ParameterError(f"profile file {path}: {exc}") from None
    p = validate_params(header["omega"], header["q"], header["kappa"])
    s = FieldProfile(grid, data[:, 1].copy(), data[:, 2].copy(), data[:, 3].copy())
    return p, s


def write_summary_csv(path: str | Path, rows: list[dict]) -> None:
    lines = [",".join(SUMMARY_COLUMNS)]
    for row in rows:
        cells = []
        for col in SUMMARY_COLUMNS:
            val = row[col]
            cells.append(str(int(val)) if col == "converged" else f"{val:.17g}")
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
