"""Profile and summary file formats.

Profile CSV: header lines `# key=value` for omega, q, kappa, R, N
(17 significant digits, lossless float round-trip), a column header line
`r,a,f,g`, then one row per node.  The rows hold the bytes of `'%.17g'`,
written by a numpy kernel (`_format_rows`) that rounds a block of values
to 17 digits at once; Python's `'%.17g'` formats only the values the
kernel cannot decide: 0, nan, inf, magnitudes outside [1e-270, 1e270],
those within 1e-9 of a rounding tie, and those whose rounding carries
into an 18th digit or whose decimal exponent log10 misjudges.  Grids are
reconstructed from the stored nodes, so re-reading a profile reproduces
every derived quantity bitwise; the R header must equal the last node's r.
A header line with any other key is read and ignored, such as the
`# grading=` line that files written before the mesh lost its parameter
carry, so those files still verify.
The header block ends at the first data row; the rows are parsed in one
np.loadtxt call, so a cell must be a float literal that it reads (`nan`,
`inf`, exponents; no `_` digit separators).
"""

from __future__ import annotations

import functools
from pathlib import Path

import numpy as np

from .errors import ParameterError
from .grid import RadialGrid
from .model import FieldProfile, ModelParams, validate_params

__all__ = ["write_profile_csv", "read_profile_csv", "write_summary_csv", "SUMMARY_COLUMNS"]

# header keys read as numbers; any other header value stays a string
_HEADER_TYPES = {"omega": float, "q": float, "kappa": float, "R": float, "N": int}

SUMMARY_COLUMNS = ["omega", "q", "kappa", "Qe", "QS_numeric", "QS_closed", "gamma_fit", "gamma_theory", "E", "L", "converged", "verified", "failed_check"]


def write_profile_csv(path: str | Path, p: ModelParams, s: FieldProfile) -> None:
    grid = s.grid
    lines = [
        f"# omega={p.omega:.17g}",
        f"# q={p.q:.17g}",
        f"# kappa={p.kappa:.17g}",
        f"# R={grid.R:.17g}",
        f"# N={grid.N}",
        "r,a,f,g",
    ]
    header = ("\n".join(lines) + "\n").encode()
    Path(path).write_bytes(header + _format_rows(np.column_stack((grid.r, s.a, s.f, s.g))))


# rows formatted per block: the kernel's temporaries do not grow with N
_BLOCK_ROWS = 1024

# One value in the unpacked layout: 48 bytes, six 8-byte words.
#   0      sign
#   1-5    "0.000", the prefix of fixed-notation values below 1
#   7-22   digits 0-15
#   23     the decimal point
#   24-39  digits 1-16 again, so that the digits after the point follow it
#   40-44  "e", exponent sign, two or three exponent digits
#   45     the separator
# A mask looked up by (layout, significant digit count) keeps the bytes
# '%.17g' writes; the other bytes are dropped.
_CELL_WORDS = 6
_LAYOUTS = 23  # 0-20: fixed notation, exponent layout - 4; 21, 22: scientific, 2 and 3 exponent digits
_EXP_OFFSET = 300  # index of exponent 0 in the exponent tables
_POW_MIN, _POW_MAX = -260, 290  # the powers 10**k held as double-doubles
# the values the kernel decides; Python formats the others, with 0, nan and inf
_TINY, _HUGE = 1e-270, 1e270


@functools.cache
def _format_tables() -> tuple[np.ndarray, ...]:
    """Read-only tables for `_format_rows`, built on its first call."""
    hi, lo = [], []
    for k in range(_POW_MIN, _POW_MAX + 1):
        num, den = 10 ** max(k, 0), 10 ** max(-k, 0)
        h = num / den  # int / int true division rounds correctly
        hn, hd = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * hd - hn * den) / (den * hd))
    hi = np.array(hi)
    hi_h, hi_l = _split(hi)

    n = np.arange(10000, dtype=np.int16)
    quads = (48 + np.stack([n // 1000, n // 100 % 10, n // 10 % 10, n % 10], axis=1)).astype(np.uint8)
    quads_point = quads.copy()
    quads_point[:, 3] = ord(".")
    # last[i][g]: position among digits 1-16 of the last nonzero digit of group i with value g; 0 if g = 0
    trailing = sum((n % m == 0).astype(np.int8) for m in (10, 100, 1000, 10000))
    last = np.where(n > 0, 4 * np.arange(1, 5, dtype=np.int8)[:, None] - trailing, 0).astype(np.int8)

    lead = np.zeros((10, 8), np.uint8)
    lead[:, :6] = np.frombuffer(b"-0.000", np.uint8)
    lead[:, 7] = 48 + np.arange(10)
    e = np.arange(-_EXP_OFFSET, _EXP_OFFSET + 1)
    big = abs(e) >= 100
    exps = np.zeros((e.size, 8), np.uint8)
    exps[:, 0] = ord("e")
    exps[:, 1] = np.where(e < 0, ord("-"), ord("+"))
    exps[:, 2] = 48 + np.where(big, abs(e) // 100, abs(e) // 10 % 10)
    exps[:, 3] = 48 + np.where(big, abs(e) // 10 % 10, abs(e) % 10)
    exps[:, 4] = np.where(big, 48 + abs(e) % 10, 0)
    layout = np.where((e >= -4) & (e <= 16), e + 4, 21 + big)

    keep = np.zeros((_LAYOUTS, 17, 8 * _CELL_WORDS), bool)
    nd = np.arange(1, 18)[:, None]
    j = np.arange(17)
    keep[:, :, 45] = True
    for lay in range(_LAYOUTS):
        k = keep[lay]
        x = lay - 4 if lay < 21 else 0  # scientific notation puts the point after digit 0
        shown = (j < nd) | (j <= x)
        second = (j == 16) | ((x >= 0) & (j > x))  # digits taken from the second copy
        k[:, 7 + j[~second]] = shown[:, ~second]
        k[:, 23 + j[second]] = shown[:, second]
        if x < 0:
            k[:, 1 : 2 - x] = True
        elif x < 16:
            k[:, 23] = nd[:, 0] > x + 1
        if lay >= 21:
            k[:, 40 : 44 + (lay == 22)] = True
    tables = (
        hi,
        np.array(lo),
        hi_h,
        hi_l,
        *last,
        quads.view(np.uint32)[:, 0],
        quads_point.view(np.uint32)[:, 0],
        lead.view(np.uint64)[:, 0],
        exps.view(np.uint64)[:, 0],
        17 * layout,
        keep.reshape(_LAYOUTS * 17, -1).view(np.uint64),
    )
    for t in tables:
        t.setflags(write=False)
    return tables


def _split(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's split of v into two halves of at most 26 significant bits."""
    c = 134217729.0 * v
    h = c - (c - v)
    return h, v - h


def _round17(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sure, E, D) for each value x: D = round(|x| 10**(16 - E)) is the
    17-digit integer of x, E = floor(log10|x|) its decimal exponent, and
    sure is false where Python must format x instead.

    The product is formed in double-double arithmetic (Dekker's exact
    product against 10**(16 - E) held as hi + lo), so D is known to within
    1e-14.  A value is not sure when this cannot decide its rounding or
    exponent (a fraction within 1e-9 of 1/2, a D outside [1e16, 1e17)), and
    when it is 0, nan, inf or outside [1e-270, 1e270].
    """
    pow_hi, pow_lo, pow_hi_h, pow_hi_l = _format_tables()[:4]
    ax = np.abs(x)
    sure = (ax >= _TINY) & (ax <= _HUGE)
    ax[~sure] = 1.0
    e = np.floor(np.log10(ax)).astype(np.int64)
    k = 16 - _POW_MIN - e
    hi, hi_h, hi_l = pow_hi.take(k), pow_hi_h.take(k), pow_hi_l.take(k)
    # |x| 10**(16 - e) = p + t: p = fl(|x| hi), t its exact rounding error plus |x| lo
    ah, al = _split(ax)
    p = ax * hi
    t = (((ah * hi_h - p) + ah * hi_l + al * hi_h) + al * hi_l) + ax * pow_lo.take(k)
    d = p.astype(np.int64) + np.rint(t).astype(np.int64)
    sure &= (np.abs(t - np.floor(t) - 0.5) > 1e-9) & ((p - 1e16) + t >= 0) & (d < 10**17)
    d[~sure] = 10**16
    return sure, e, d


def _format_rows(table: np.ndarray) -> bytes:
    """The bytes of `'%.17g'` for every cell of a 2-D float table, cells
    joined by ',' and rows ended by '\\n'.

    `_round17` gives each value's digits; each value's text is laid out in
    a fixed cell, and a per-layout mask drops the bytes '%.17g' does not
    write.  Python formats the values `_round17` is not sure of.
    """
    last1, last2, last3, last4, quads, quads_point, lead, exps, layout_key, keep = _format_tables()[4:]
    table = np.ascontiguousarray(table, dtype=np.float64)
    rows, cols = table.shape
    size = min(rows, _BLOCK_ROWS) * cols
    seps = np.zeros((cols, 8), np.uint8)
    seps[:, 5] = ord(",")
    seps[-1, 5] = ord("\n")
    seps = np.tile(seps.view(np.uint64)[:, 0], size // cols)
    cells = np.empty((size, _CELL_WORDS), np.uint64)
    blocks = []
    for start in range(0, rows, _BLOCK_ROWS):
        x = table[start : start + _BLOCK_ROWS].ravel()
        sure, e, d = _round17(x)
        upper = d // 10**8
        lower = d - upper * 10**8
        d0 = upper // 10**8
        upper -= d0 * 10**8
        g1, g3 = upper // 10000, lower // 10000
        g2, g4 = upper - g1 * 10000, lower - g3 * 10000
        e += _EXP_OFFSET
        n = x.size
        text = cells[:n]
        quarters = text.view(np.uint32)
        text[:, 0] = lead.take(d0)
        quarters[:, 2] = quarters[:, 6] = quads.take(g1)
        quarters[:, 3] = quarters[:, 7] = quads.take(g2)
        quarters[:, 4] = quarters[:, 8] = quads.take(g3)
        quarters[:, 5] = quads_point.take(g4)
        quarters[:, 9] = quads.take(g4)
        text[:, 5] = exps.take(e) | seps[:n]
        # the mask row: layout from the exponent, digit count from the last nonzero digit
        last = np.maximum(np.maximum(last1.take(g1), last2.take(g2)), np.maximum(last3.take(g3), last4.take(g4)))
        kept = keep.take(layout_key.take(e) + last, axis=0).view(bool)
        text = text.view(np.uint8)
        kept[:, 0] = x < 0
        for i in np.flatnonzero(~sure).tolist():
            s = b"%.17g" % float(x[i])
            text[i, : len(s)] = np.frombuffer(s, np.uint8)
            kept[i, :45] = False
            kept[i, : len(s)] = True
        blocks.append(text.ravel()[kept.ravel()])
    return b"".join(blocks)


def _parse_rows(path: str | Path, text: list[str], start: int) -> np.ndarray:
    """The data rows text[start:] as an (n, columns) array; (0, 4) when there are none.

    A failed parse is re-read line by line only to name the first
    unreadable line; when every line reads alone, the rows disagree on
    their column count.
    """
    rows = text[start:]
    if not rows:
        return np.empty((0, 4))  # the row count check names a file without rows
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
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:  # a ValueError, not the OSError that a reader's callers handle
        raise ParameterError(f"profile file {path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    # only the end is stripped: the list index of a line is its file line number - 1
    text = text.rstrip().splitlines()
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
    for key in ("omega", "q", "kappa", "R", "N"):
        if key not in header:
            raise ParameterError(f"profile file {path} is missing header line '# {key}='")
    if data.shape[1] != 4:
        raise ParameterError(f"profile file {path} must have 4 columns r,a,f,g")
    n_expected = header["N"] + 1
    if data.shape[0] != n_expected:
        raise ParameterError(f"profile file {path} has {data.shape[0]} rows, header says {n_expected}")
    try:
        grid = RadialGrid(data[:, 0].copy())  # a copy, as a, f and g are: the parsed table is freed with the read
    except ParameterError as exc:
        raise ParameterError(f"profile file {path}: {exc}") from None
    if header["R"] != grid.R:
        raise ParameterError(f"profile file {path} line {header_line['R']} says R={header['R']:.17g}, but the last node is r={grid.R:.17g}")
    p = validate_params(header["omega"], header["q"], header["kappa"])
    s = FieldProfile(grid, data[:, 1].copy(), data[:, 2].copy(), data[:, 3].copy())
    return p, s


def write_summary_csv(path: str | Path, rows: list[dict]) -> None:
    """One line per row: a flag (bool) as 0 or 1, a check id (str) as written, a number as '%.17g'."""
    lines = [",".join(SUMMARY_COLUMNS)]
    for row in rows:
        cells = []
        for col in SUMMARY_COLUMNS:
            val = row[col]
            cells.append(str(int(val)) if isinstance(val, (bool, np.bool_)) else val if isinstance(val, str) else f"{val:.17g}")
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
