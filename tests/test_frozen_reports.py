"""Frozen CLI reports: the JSON stdout, the stderr and the exit status of a
fixed set of runs, recorded once in ``frozen_reports.json``, must come out
byte for byte the same.

The runs cover every command that prints jet variables, generator weights,
field coefficients or table rows: the m=3 cusp with exponents [2, 0], the
m=2 parabola and x1^2 - zeta*x2^2 at m=4 with [1, 1], one off-lattice
window (5/2 at m=3) and one run that stops with exit status 3.  Each runs
in-process from a directory holding its scheme file, so the report's
``input`` field is the bare file name.  The record is a list of
{"argv", "exit", "stdout", "stderr"}, one per run of ``RUNS``, as ``run``
returns it.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from jetva.cli import main

SCHEMES = {
    "cusp.json": {
        "m": 3,
        "variables": ["x1", "x2"],
        "relations": ["x1^3 - x2^2"],
        "exponents": [2, 0],
    },
    "parabola.json": {
        "m": 2,
        "variables": ["x1", "x2"],
        "relations": ["x1^2 - x2"],
        "exponents": [1, 0],
    },
    "zeta4.json": {
        "m": 4,
        "variables": ["x1", "x2"],
        "relations": ["x1^2 - zeta*x2^2"],
        "exponents": [1, 1],
    },
}

RUNS = [
    ["twisted-jet", "--input", "cusp.json", "--max-weight", "4"],
    ["twisted-jet", "--input", "cusp.json", "--max-weight", "5/2"],
    ["twisted-jet", "--input", "zeta4.json", "--max-weight", "3"],
    ["jet", "--input", "parabola.json", "--max-weight", "3"],
    ["jet", "--input", "cusp.json", "--max-weight", "3"],
    ["coinvariants", "--input", "cusp.json", "--max-weight", "3", "--max-degree", "3"],
    ["coinvariants", "--input", "zeta4.json", "--max-weight", "2", "--max-degree", "3"],
    ["coinvariants", "--input", "parabola.json", "--max-weight", "3", "--max-degree", "2"],
    ["check-twisted", "--input", "cusp.json", "--window", "2", "--index-bound", "1",
     "--random-samples", "0"],
    ["check-twisted", "--input", "zeta4.json", "--window", "2", "--index-bound", "1",
     "--random-samples", "0"],
    ["check-twisted", "--input", "parabola.json", "--window", "0", "--index-bound", "2"],
    ["check-va", "--input", "parabola.json", "--window", "2", "--index-bound", "0"],
    ["check-quasiconf", "--input", "cusp.json", "--max-weight", "3", "--index-bound", "2"],
    ["check-quasiconf", "--input", "zeta4.json", "--max-weight", "5/2",
     "--index-bound", "1"],
]

FROZEN = Path(__file__).with_name("frozen_reports.json")


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, "--format", "json"])
    return {
        "argv": argv,
        "exit": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
    }


@pytest.fixture
def scheme_dir(tmp_path, monkeypatch):
    for name, payload in SCHEMES.items():
        (tmp_path / name).write_text(json.dumps(payload))
    monkeypatch.chdir(tmp_path)


def test_the_record_covers_every_run():
    assert [r["argv"] for r in json.loads(FROZEN.read_text())] == RUNS


@pytest.mark.parametrize(
    "index", range(len(RUNS)), ids=[" ".join(a[:1] + a[2:]) for a in RUNS]
)
def test_report_is_frozen(index, scheme_dir):
    assert run(RUNS[index]) == json.loads(FROZEN.read_text())[index]

