"""Golden values: the CLI cases whose outputs every change is compared against.

Each case in golden_cli.json is one `skyrme-dyon` command line, run in
process.  The test compares its exit code and the PASS/FAIL verdict of
every verify.txt line exactly, the numbers of observables.txt (or of the
sweep's summary.csv) to 1e-12 relative, and the note of observables.txt
and the sweep's failed_check ids exactly.

It compares each verify.txt row's bound to 1e-12 relative: a bound is a
fixed constant, or one times an O(1) scale of the solution.  It compares
the row's value to 1e-12 relative with an absolute floor of 1e-12: the
value is a difference of O(1) quantities (energy-finite, coercive-bound,
skyrme-charge-consistency, decay-rate, tail-*, the bound, monotonicity,
boundary-values and small-r rows), so 1e-12 is relative to the scale of
what it compares.  The floor leaves verdict-only in effect the values
recorded as 0 (boundary-values, the small-r rows, and a few bound and
tail rows) and those near or below 1e-12: bound-a-positive and
monotone-a-decreasing on the cases whose a ends at round-off (-3e-14 to
-1e-13), tail-electric-charge at q = 0.05 and q = 0.35 (below 1e-14),
small-r-gauge-bound (1e-22) and tail-f-variation on the wrong-branch case
(1.5e-12); skyrme-charge-consistency on the N = 8000 cases (5e-11 to
9e-10) is held to 2e-2 to 1e-3 relative.  Rows whose value is round-off
at every case stay verdict-only (VERDICT_ONLY), because no scale bounds
how their value moves between hosts until their float floor is
modelled:
  residual-a, residual-f, residual-g  the Euler-Lagrange residuals at the
                                      solution, which sit at the float
                                      floor of the discrete equations;
  constraint-orthogonality            the weak-form constraint of the inner
                                      minimizer, zero up to round-off;
  flux-identity                       the defect of a discrete identity that
                                      the stencil satisfies exactly.

It also prints the sha256 of every output file and of stdout next to the
stored one.  numpy's SIMD loops and OpenBLAS's kernels are chosen per CPU,
so a digest may differ on another host; a mismatch is printed and warned
about, never failed.

A deliberate change of the numbers re-records the file, and the diff of
golden_cli.json shows what moved:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import itertools
import json
import math
import sys
import tempfile
import warnings
from pathlib import Path

from skyrme_dyon.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")

ACCEPT = [["--omega", "0.55pi", "--q", "0.05"], ["--omega", "0.75pi", "--q", "0.3"], ["--omega", "0.9pi", "--q", "0.05"]]
FINE = ["--nodes", "8000", "--tol", "1e-8"]
# the 2- and 3-interval profiles that CI verifies: 1 x 1 and 2 x 2 electric systems
TINY = {
    "tiny2.csv": "# omega=2.356194490192345\n# q=0.1\n# kappa=1\n# R=2\n# N=2\n# grading=none\nr,a,f,g\n0,1,0,0\n1,0.5,0.4,0.05\n2,0,0.78539816339744828,0.1\n",
    "tiny3.csv": "# omega=2.356194490192345\n# q=0.1\n# kappa=1\n# R=3\n# N=3\n# grading=none\nr,a,f,g\n0,1,0,0\n1,0.6,0.3,0.03\n2,0.3,0.6,0.07\n3,0,0.78539816339744828,0.1\n",
}
# {dir} is the case's output directory
CASES = {
    **{f"solve {' '.join(pt)}": ["solve", *pt, "--out", "{dir}"] for pt in ACCEPT},
    **{f"solve {' '.join(pt + FINE)}": ["solve", *pt, *FINE, "--out", "{dir}"] for pt in ACCEPT},
    "solve --omega 0.52pi --kappa 10": ["solve", "--omega", "0.52pi", "--kappa", "10", "--out", "{dir}"],
    "solve --omega 0.505pi --q 0.35 --kappa 100": ["solve", "--omega", "0.505pi", "--q", "0.35", "--kappa", "100", "--out", "{dir}"],
    "solve --omega 0.505pi --q 0.6993 --kappa 0": ["solve", "--omega", "0.505pi", "--q", "0.6993", "--kappa", "0", "--out", "{dir}"],
    "sweep --omega 0.75pi --sweep-param q --sweep-values 0.30,0.20,0.10,0.05,0.02": [
        "sweep", "--omega", "0.75pi", "--sweep-param", "q", "--sweep-values", "0.30,0.20,0.10,0.05,0.02", "--out", "{dir}",
    ],
    **{f"verify {name}": ["verify", f"{{dir}}/{name}", "--out", "{dir}/verify.txt"] for name in TINY},
    # a domain too short for the decay fit: observables.txt records NaN and a note, and the run exits 3
    "solve --rmax 5 --nodes 100 --q 0.1": ["solve", "--rmax", "5", "--nodes", "100", "--q", "0.1", "--out", "{dir}"],
}


# verify.txt rows whose value is round-off: compared by verdict alone (see the module docstring)
VERDICT_ONLY = ("residual-a", "residual-f", "residual-g", "constraint-orthogonality", "flux-identity")
TEXT = ("note", "failed_check")  # tokens compared exactly


def _values(name: str, text: str) -> dict[str, list[str]]:
    """The numbers of observables.txt by name, of summary.csv by column, or of verify.txt by check id, as the tokens written.

    The note line of observables.txt is kept whole, as one text token.  A
    verify.txt row gives its value and bound; the VERDICT_ONLY rows and the
    overall line give none.
    """
    if name == "summary.csv":
        header, *rows = (line.split(",") for line in text.splitlines())
        return {col: [row[i] for row in rows] for i, col in enumerate(header)}
    if name == "verify.txt":
        rows = (line.split() for line in text.splitlines())
        return {row[0]: row[2:4] for row in rows if row[0] not in VERDICT_ONLY + ("overall",)}
    lines = (line.split(" ", 1) for line in text.splitlines())
    return {key: [rest] if key == "note" else rest.split() for key, rest in lines}


def run_case(argv: list[str], out: Path) -> dict:
    """Exit code, values, verdict lines and output digests of one CLI run into the empty directory out."""
    for name, text in TINY.items():
        (out / name).write_text(text, encoding="utf-8")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = main([token.format(dir=out) for token in argv])
    files = {path.name: path.read_bytes() for path in sorted(out.iterdir()) if path.name not in TINY}
    files["stdout"] = stdout.getvalue().encode()
    verify = files.get("verify.txt", b"").decode().splitlines()
    return {
        "exit": code,
        "values": {name: _values(name, files[name].decode()) for name in ("observables.txt", "summary.csv", "verify.txt") if name in files},
        "verdicts": [" ".join(line.split()[:2]) for line in verify],
        "sha256": {name: hashlib.sha256(data).hexdigest() for name, data in files.items()},
    }


def _close(stored: str, got: str, abs_tol: float) -> bool:
    a, b = float(stored), float(got)
    return (math.isnan(a) and math.isnan(b)) or math.isclose(a, b, rel_tol=1e-12, abs_tol=abs_tol)


def test_cli_outputs_match_the_golden_values(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sorted(golden) == sorted(CASES)
    moved, digests = [], 0
    for i, (case, argv) in enumerate(CASES.items()):
        out = tmp_path / str(i)
        out.mkdir()
        want, got = golden[case], run_case(argv, out)
        assert got["exit"] == want["exit"], case
        assert got["verdicts"] == want["verdicts"], case
        assert got["values"].keys() == want["values"].keys(), case
        for name, table in want["values"].items():
            assert table.keys() == got["values"][name].keys(), (case, name)
            floors = (1e-12, 0.0) if name == "verify.txt" else itertools.repeat(0.0)  # a verify.txt row is (value, bound)
            for key, tokens in table.items():
                new = got["values"][name][key]
                same = new == tokens if key in TEXT else len(new) == len(tokens) and all(map(_close, tokens, new, floors))
                assert same, (case, name, key, tokens, new)
        assert got["sha256"].keys() == want["sha256"].keys(), case
        digests += len(want["sha256"])
        moved += [f"{case}: {name}" for name, digest in want["sha256"].items() if got["sha256"][name] != digest]
    print(f"\nsha256: {digests - len(moved)} of {digests} outputs match the stored digests")
    for line in moved:
        print(f"sha256 differs: {line}")
    if moved:
        warnings.warn(f"{len(moved)} of {digests} CLI outputs differ in bytes from golden_cli.json on this host; run with -s for the list")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        record = {}
        for i, (case, argv) in enumerate(CASES.items()):
            out = Path(tmp) / str(i)
            out.mkdir()
            record[case] = run_case(argv, out)
    GOLDEN.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"recorded {len(record)} cases in {GOLDEN}", file=sys.stderr)
