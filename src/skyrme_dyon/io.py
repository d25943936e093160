"""Profile and summary file formats.

Profile CSV: header lines `# key=value` for omega, q, kappa, R, N, grading
(17 significant digits, lossless float round-trip), a column header line
`r,a,f,g`, then one row per node.  Grids are reconstructed from the stored
nodes, so re-reading a profile reproduces every derived quantity bitwise;
the R header must equal the last node's r.  The header block ends at the
first data row; the rows are parsed in one np.loadtxt call, so a cell must
be a float literal that it reads (`nan`, `inf`, exponents; no `_` digit
separators).
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


def _parse_rows(path: str | Path, text: list[str], start: int) -> np.ndarray:
    """The data rows text[start:] as an (n, columns) array; (0, 0) when there are none.

    A failed parse is re-read line by line only to name the first
    unreadable line; when every line reads alone, the rows disagree on
    their column count.
    """
    rows = text[start:]
    if not rows:
        return np.empty((0, 0))
    try:
        return np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        pass
    for lineno, line in enumerate(rows, start + 1):
        if not line:
            continue  # the parse skips empty lines
        try:
            np.loadtxt([line], delimiter=",", comments=None)
        except ValueError:
            raise ParameterError(f"profile file {path} line {lineno} is not readable: '{line.strip()}'") from None
    raise ParameterError(f"profile file {path} must have 4 columns r,a,f,g")


def read_profile_csv(path: str | Path) -> tuple[ModelParams, FieldProfile]:
    text = Path(path).read_text(encoding="utf-8").strip().splitlines()
    header: dict = {}
    header_line: dict[str, int] = {}
    # header lines, blank lines and the column header lead the file; the
    # first other line starts the data rows, which are parsed in one call
    start = len(text)
    for lineno, line in enumerate(text, 1):
        line = line.strip()
        if line.startswith("#"):
            key, _, value = line.lstrip("# ").partition("=")
            key = key.strip()
            try:
                header[key] = _HEADER_TYPES.get(key, str)(value.strip())
            except ValueError:
                raise ParameterError(f"profile file {path} line {lineno} is not readable: '{line}'") from None
            header_line[key] = lineno
        elif line and not line.startswith("r,"):
            start = lineno - 1
            break
    data = _parse_rows(path, text, start)
    for key in ("omega", "q", "kappa", "R", "N", "grading"):
        if key not in header:
            raise ParameterError(f"profile file {path} is missing header line '# {key}='")
    if data.shape[1] != 4:
        raise ParameterError(f"profile file {path} must have 4 columns r,a,f,g")
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
