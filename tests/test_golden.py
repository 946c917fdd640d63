"""Byte-for-byte golden corpus of CLI reports.

Every subcommand runs in every format and its stdout is compared with a
file under tests/golden/. A refactor that moves any output byte fails here.
A deliberate change of output regenerates the corpus with
`PYTHONPATH=src python tests/test_golden.py` and names the changed bytes in
CHANGES.md; `PYTHONPATH=src python tests/test_golden.py CASE...` regenerates
only the named cases.
"""

import contextlib
import io
import os
import sys
from pathlib import Path

import pytest

from codonlab.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

# Relative to ROOT, so the report's `source` does not depend on the checkout.
TABLE = "tests/golden/vertebrate_mitochondrial.table"

CASES = {
    "count": ["count", "--k", "4", "--r", "3"],
    "count-r0": ["count", "--k", "3", "--r", "0"],
    "count-alphabet": ["count", "--k", "4", "--r", "3", "--alphabet", "ACGU"],
    "count-skip-classes": ["count", "--k", "5", "--r", "7", "--skip-classes"],
    "analyze-builtin": ["analyze", "--builtin", "standard"],
    "analyze-random-seed": ["analyze", "--random-seed", "7"],
    "analyze-table": ["analyze", "--table", TABLE],
    "grover-solve-n": ["grover", "solve-n", "--q", "3"],
    "grover-solve-q": ["grover", "solve-q", "--n", "20.2"],
    "grover-simulate": ["grover", "simulate", "--n", "20", "--q", "3", "--marked", "11"],
    "grover-simulate-exact": ["grover", "simulate", "--n", "4", "--q", "12"],
    "grover-simulate-long": ["grover", "simulate", "--n", "64", "--q", "150"],
    "energy": ["energy"],
    "energy-overrides": ["energy", "--hbar", "1e-27", "--delta-x", "3.4e-8", "--mass",
                         "1.67e-23", "--hbond", "3.5e-13", "--scale", "2.5"],
}
EXTENSIONS = {"text": "txt", "json": "json", "csv": "csv"}


def run(argv, fmt) -> bytes:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, "--format", fmt])
    assert (code, err.getvalue()) == (0, "")
    return out.getvalue().encode("utf-8")


@pytest.mark.parametrize("fmt", EXTENSIONS)
@pytest.mark.parametrize("case", CASES)
def test_cli_report_matches_golden(case, fmt, monkeypatch):
    monkeypatch.chdir(ROOT)
    expected = (GOLDEN / f"{case}.{EXTENSIONS[fmt]}").read_bytes()
    assert run(CASES[case], fmt) == expected


if __name__ == "__main__":
    os.chdir(ROOT)
    names = sys.argv[1:] or list(CASES)
    unknown = [name for name in names if name not in CASES]
    if unknown:
        sys.exit(f"unknown case(s): {', '.join(unknown)}")
    for case in names:
        for fmt, ext in EXTENSIONS.items():
            (GOLDEN / f"{case}.{ext}").write_bytes(run(CASES[case], fmt))
