"""Command-line interface: report shape, frozen output strings, exit codes,
and determinism.
"""

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import jetva
from jetva.cli import InputError, build_parser, load_spec, main


PARABOLA = {
    "m": 2,
    "variables": ["x1", "x2"],
    "relations": ["x1^2 - x2"],
    "exponents": [1, 0],
}

LINE_M1 = {"m": 1, "variables": ["x1"], "relations": [], "exponents": [0]}


@pytest.fixture
def spec_file(tmp_path):
    def write(payload, name="spec.json"):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    return write


def run_json(capsys, *argv):
    code = main([*argv, "--format", "json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# report shape and frozen values
# ---------------------------------------------------------------------------


def test_jet_report(spec_file, capsys):
    path = spec_file(PARABOLA)
    code, rep = run_json(capsys, "jet", "--input", path, "--max-weight", "3")
    assert code == 0
    assert set(rep) == {"command", "inputs", "results", "checks"}
    assert rep["command"] == "jet"
    assert rep["inputs"]["m"] == 2
    assert rep["inputs"]["relations"] == ["-1*x2 + x1^2"]
    gens = {(g["relation"], g["weight"]): g["poly"] for g in rep["results"]["generators"]}
    assert gens[(1, "0")] == "-x2[0] + x1[0]^2"
    assert gens[(1, "1")] == "-x2[-1] + 2*x1[0]*x1[-1]"
    assert gens[(1, "2")] == "-x2[-2] + 2*x1[0]*x1[-2] + x1[-1]^2"
    assert gens[(1, "3")] == "-x2[-3] + 2*x1[0]*x1[-3] + 2*x1[-1]*x1[-2]"
    agree = [c for c in rep["checks"] if "agree" in c["name"]]
    assert agree and agree[0]["pass"] is True


def test_twisted_jet_report(spec_file, capsys):
    path = spec_file(PARABOLA)
    code, rep = run_json(capsys, "twisted-jet", "--input", path, "--max-weight", "2")
    assert code == 0
    gens = {g["weight"]: g["poly"] for g in rep["results"]["generators"]}
    assert gens == {
        "0": "-x2[0]",
        "1": "-x2[-1] + x1[-1/2]^2",
        "2": "-x2[-2] + 2*x1[-1/2]*x1[-3/2]",
    }
    assert rep["results"]["variables"] == [
        "x1[-1/2]",
        "x1[-3/2]",
        "x2[0]",
        "x2[-1]",
        "x2[-2]",
    ]


def test_fixed_points_report(spec_file, capsys):
    path = spec_file(PARABOLA)
    code, rep = run_json(capsys, "fixed-points", "--input", path)
    assert code == 0
    assert rep["results"]["variables"] == ["x2"]
    assert rep["results"]["relations"] == ["-1*x2"]
    assert rep["checks"] == []


def test_check_va_passes(spec_file, capsys):
    path = spec_file(LINE_M1)
    code, rep = run_json(
        capsys, "check-va", "--input", path, "--window", "5", "--index-bound", "1"
    )
    assert code == 0
    assert rep["checks"]
    assert all(c["pass"] for c in rep["checks"])


def test_check_twisted_passes(spec_file, capsys):
    path = spec_file(PARABOLA)
    code, rep = run_json(
        capsys, "check-twisted", "--input", path, "--window", "4", "--index-bound", "1"
    )
    assert code == 0
    assert all(c["pass"] for c in rep["checks"])


@pytest.mark.parametrize("command", ["check-va", "check-twisted"])
def test_no_coordinates_checks_the_unit(spec_file, capsys, command):
    # with no coordinates every random source is the unit 1
    path = spec_file({"m": 2, "variables": [], "relations": [], "exponents": []})
    code, rep = run_json(capsys, command, "--input", path, "--window", "3")
    assert code == 0
    assert rep["results"]["sources"] == ["1"]
    assert rep["checks"]
    assert all(c["pass"] and c["name"].startswith("[a = 1") for c in rep["checks"])


def test_check_quasiconf_passes(spec_file, capsys):
    path = spec_file(PARABOLA)
    code, rep = run_json(
        capsys, "check-quasiconf", "--input", path, "--max-weight", "3",
        "--index-bound", "2",
    )
    assert code == 0
    assert all(c["pass"] for c in rep["checks"])


def test_check_quasiconf_without_coordinates_checks_nothing(spec_file, capsys):
    # no coordinates, no test vectors: nothing is claimed
    path = spec_file({"m": 2, "variables": [], "relations": [], "exponents": []})
    code, rep = run_json(capsys, "check-quasiconf", "--input", path)
    assert code == 0
    assert rep["results"]["counts"] == {"total": 0, "failed": 0}
    assert rep["checks"] == []


def test_check_quasiconf_drops_a_family_without_levels(spec_file, capsys):
    # at weight 0 the twisted coset 1/2 + Z has no level, the plain one has x[0]
    path = spec_file({"m": 2, "variables": ["x"], "relations": ["x^2"], "exponents": [1]})
    code, rep = run_json(
        capsys, "check-quasiconf", "--input", path, "--max-weight", "0",
        "--index-bound", "1",
    )
    assert code == 0
    assert [c["name"] for c in rep["checks"]] == [
        "weight eigenvalue: L_0 v = wt(v) v",
        "[L_0, L_0] = (0) L_0",
        "[L_0, L_1] = (1) L_1",
        "[L_1, L_0] = (-1) L_1",
        "[L_1, L_1] = (0) L_2",
    ]


def test_coinvariants_report(spec_file, capsys):
    path = spec_file(PARABOLA)
    code, rep = run_json(
        capsys, "coinvariants", "--input", path, "--max-weight", "2",
        "--max-degree", "3",
    )
    assert code == 0
    dims = {
        (row["weight"], row["degree"]): row["dim"]
        for row in rep["results"]["dimensions"]
    }
    assert [dims.get(("0", d), 0) for d in range(4)] == [1, 0, 0, 0]
    # every reported positive-weight entry is zero
    assert all(v == 0 for (w, _), v in dims.items() if w != "0")
    assert all(c["pass"] for c in rep["checks"])


# ---------------------------------------------------------------------------
# exit codes and validation
# ---------------------------------------------------------------------------


def test_exit_2_on_bad_inputs(spec_file, capsys):
    cases = [
        {**PARABOLA, "m": 0},
        {**PARABOLA, "variables": ["x1", "zeta"]},
        {**PARABOLA, "variables": ["x1", "x1"]},
        {**PARABOLA, "relations": ["x1 +"]},
        {**PARABOLA, "relations": ["x3"]},
        {**PARABOLA, "exponents": [1]},
        {**PARABOLA, "exponents": [1, 5]},
        # JSON booleans are not integers
        {"m": True, "variables": ["x1"], "relations": ["x1^2"], "exponents": [False]},
        {**PARABOLA, "exponents": [True, False]},
    ]
    for i, payload in enumerate(cases):
        path = spec_file(payload, f"bad{i}.json")
        assert main(["jet", "--input", path]) == 2, payload
        capsys.readouterr()


@pytest.mark.parametrize("name", ["_x", "_"])
def test_load_spec_refuses_a_name_outside_the_identifier_grammar(spec_file, name):
    path = spec_file({**PARABOLA, "variables": ["x1", name]})
    with pytest.raises(InputError, match=f"invalid variable name {name!r}"):
        load_spec(path)


def test_exit_2_on_negative_bounds(spec_file, capsys):
    # a negative bound is invalid input, not a vacuous pass or a false FAIL
    path = spec_file(PARABOLA)
    cases = [
        (["coinvariants", "--max-weight", "-1"], "--max-weight"),
        (["coinvariants", "--max-degree", "-1"], "--max-degree"),
        (["twisted-jet", "--max-weight=-1/2"], "--max-weight"),
        (["check-quasiconf", "--max-weight", "-1"], "--max-weight"),
        (["jet", "--max-weight", "-1"], "--max-weight"),
        (["check-va", "--index-bound", "-1"], "--index-bound"),
        (["check-twisted", "--index-bound", "-1"], "--index-bound"),
        (["check-quasiconf", "--index-bound", "-1"], "--index-bound"),
        (["check-va", "--random-samples", "-1"], "--random-samples"),
        (["check-twisted", "--random-samples", "-1"], "--random-samples"),
        (["check-va", "--window", "-1"], "--window"),
        (["check-twisted", "--window", "-1"], "--window"),
    ]
    for argv, flag in cases:
        assert main([*argv, "--input", path]) == 2, argv
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {flag} "), argv
        assert captured.out == ""


def test_exit_2_when_symmetry_moves_ideal(spec_file, capsys):
    payload = {
        "m": 2,
        "variables": ["x1", "x2"],
        "relations": ["x1 + x2^2"],
        "exponents": [1, 0],
    }
    path = spec_file(payload)
    assert main(["twisted-jet", "--input", path]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


@pytest.mark.parametrize("command", ["twisted-jet", "coinvariants", "check-twisted"])
def test_exit_2_when_exponents_move_the_relation_span(spec_file, capsys, command):
    # x + y goes to zeta*x + zeta^2*y, outside span{x + y}
    path = spec_file(
        {"m": 3, "variables": ["x", "y"], "relations": ["x + y"], "exponents": [1, 2]}
    )
    assert main([command, "--input", path]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "error: exponents (1, 2) do not preserve the relation span\n"
    )
    assert captured.out == ""


def test_check_twisted_skips_non_eigen_relations_of_a_preserved_span(
    spec_file, capsys
):
    # span{x + y, x - y} = span{x, y} is preserved, but neither relation is
    # an eigenvector of the action, so neither is a source
    path = spec_file(
        {
            "m": 3,
            "variables": ["x", "y"],
            "relations": ["x + y", "x - y"],
            "exponents": [1, 2],
        }
    )
    code, rep = run_json(capsys, "check-twisted", "--input", path)
    assert code == 0
    assert rep["results"]["skipped_sources"] == ["x + y", "x - y"]
    assert "x + y" not in rep["results"]["sources"]
    assert rep["results"]["counts"]["failed"] == 0
    assert rep["results"]["counts"]["total"] > 0


def test_exit_2_on_missing_file(capsys):
    assert main(["jet", "--input", "/nonexistent/spec.json"]) == 2
    capsys.readouterr()


def test_exit_3_when_window_too_small(spec_file, capsys):
    payload = {"m": 3, "variables": ["x1", "x2"], "relations": [], "exponents": [1, 2]}
    path = spec_file(payload)
    argv = ["check-twisted", "--input", path, "--window", "2", "--index-bound", "2"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("window too small: ")
    assert "beyond the window" in captured.err
    assert captured.out == ""


def test_check_va_exit_3_when_window_too_small(spec_file, capsys):
    payload = {"m": 3, "variables": ["x1", "x2"], "relations": [], "exponents": [1, 2]}
    path = spec_file(payload)
    argv = ["check-va", "--input", path, "--window", "1", "--index-bound", "2"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.err == (
        "window too small: coefficient of z^3 is beyond the window (trunc 1)\n"
    )
    assert captured.out == ""


# ---------------------------------------------------------------------------
# determinism and text format
# ---------------------------------------------------------------------------


def test_fixed_seed_is_deterministic(spec_file, capsys):
    path = spec_file(PARABOLA)
    argv = ["check-twisted", "--input", path, "--window", "4", "--seed", "7",
            "--format", "json"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second


def test_text_format_lists_checks(spec_file, capsys):
    path = spec_file(PARABOLA)
    code = main(["jet", "--input", path, "--max-weight", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "command: jet" in out
    assert "[PASS]" in out


_COMMANDS = (
    "jet", "twisted-jet", "fixed-points", "check-va", "check-twisted",
    "check-quasiconf", "coinvariants",
)


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["--help"],
        ["bogus"],
        ["-h", "coinvariants"],
        *([command, "--help"] for command in _COMMANDS),
        *([command] for command in _COMMANDS),
        ["coinvariants", "--input", "x.json", "--bogus"],
        ["check-va", "--input", "x.json", "--window", "six"],
        ["jet", "--input", "x.json", "--format", "yaml"],
    ],
)
def test_help_and_usage_errors_match_the_full_parser(argv, capsys):
    # ``main`` builds only the named subcommand's parser; what it prints
    # and its exit status are those of the parser with every subcommand.
    def run(parse):
        with pytest.raises(SystemExit) as stop:
            parse(argv)
        printed = capsys.readouterr()
        return stop.value.code, printed.out, printed.err

    assert run(main) == run(build_parser().parse_args)


def test_a_known_subcommand_builds_its_parser_alone():
    for command in _COMMANDS:
        (sub,) = (
            action
            for action in build_parser(command)._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        assert list(sub.choices) == [command]
    (sub,) = (
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    assert tuple(sub.choices) == _COMMANDS


def test_console_entry_point(spec_file, tmp_path):
    path = spec_file(LINE_M1)
    # the child imports the same jetva as this test, installed or not
    src = str(Path(jetva.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "jetva.cli", "jet", "--input", path,
         "--max-weight", "2", "--format", "json"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    rep = json.loads(proc.stdout)
    assert rep["command"] == "jet"


def test_axiom_sweep_reports_small_window():
    # the README example: a twisted Borcherds identity needs z^14/3, past
    # window 4, so the script must end with exit code 3, not a traceback
    proc = _run_script(
        "axiom_sweep.py", "--order", "3", "--exponents", "1", "2", "--window", "4"
    )
    assert proc.returncode == 3
    assert proc.stderr.startswith("window too small: ")
    assert "z^14/3" in proc.stderr
    assert "Traceback" not in proc.stderr


def _run_script(name, *argv, cwd=None):
    """Run a script of the checkout with no PYTHONPATH: it finds ``src``
    itself."""
    script = Path(__file__).parents[1] / "scripts" / name
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, str(script), *argv],
        capture_output=True, text=True, env=env, cwd=cwd,
    )


@pytest.mark.parametrize(
    "name,argv",
    [
        ("coinvariant_tables.py", ["--max-weight", "1", "--max-degree", "1"]),
        ("axiom_sweep.py", ["--window", "2", "--index-bound", "0"]),
    ],
)
def test_scripts_run_outside_the_checkout(tmp_path, name, argv):
    proc = _run_script(name, *argv, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_coinvariant_tables_script():
    proc = _run_script("coinvariant_tables.py")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 8
    rows = []
    for line in lines:
        found = re.search(r"weight-0 dims (\[[0-9, ]*\])  positive-weight total 0"
                          r"  \[ok\] \(\d+\.\ds\)$", line)
        assert found, line
        rows.append(json.loads(found.group(1)))
    assert rows == [
        [1, 0, 0, 0],
        [1, 1, 1, 1],
        [1, 0, 0, 0],
        [1, 0, 0, 0],
        [1, 1, 0, 0],
        [1, 0, 0, 0],
        [1, 0, 0, 0],
        [1, 1, 0, 0],
    ]


def test_axiom_sweep_totals_match_cli(spec_file, capsys):
    proc = _run_script("axiom_sweep.py", "--window", "4", "--index-bound", "1")
    assert proc.returncode == 0, proc.stderr
    # the script's defaults: order 2, two coordinates, exponents (1, 0),
    # two random samples, seed 0
    path = spec_file({"m": 2, "variables": ["x1", "x2"], "relations": [],
                      "exponents": [1, 0]})
    expected = []
    for command in ("check-va", "check-twisted"):
        code, rep = run_json(capsys, command, "--input", path, "--window", "4",
                             "--index-bound", "1", "--random-samples", "2")
        assert code == 0
        counts = rep["results"]["counts"]
        expected.append(f"{command}: {counts['total']} checks, 0 failed")
    assert proc.stdout.splitlines() == expected
