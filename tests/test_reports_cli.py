"""End-to-end checks of report building, rendering and the CLI contract.

Exit codes: 0 success, 2 invalid input or parse error, 3 capacity
exceeded. Failing runs must leave stdout empty (no partial reports).
"""

import contextlib
import io
import json
import subprocess
import sys

import pytest

from codonlab import PhysicalParams, builtin_standard_code, solve_n, symmetry
from codonlab.cli import main
from codonlab.genetic_code import STANDARD_TABLE_TEXT
from codonlab.reports import (
    build_analyze_report,
    build_count_report,
    build_energy_report,
    render,
    round_sig,
)
from codonlab.errors import InvalidParamsError


def strict_json(text):
    """json.loads that refuses the non-RFC-8259 constants NaN and Infinity."""

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


def run_cli(*argv):
    """Invoke the CLI in-process; returns (exit_code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse uses sys.exit for usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


# --- count ----------------------------------------------------------------


def test_count_text_output():
    code, out, err = run_cli("count", "--k", "4", "--r", "3")
    assert code == 0 and err == ""
    assert "64" in out and "20" in out
    assert out.endswith("\n")


def test_count_json_matches_builder():
    code, out, _ = run_cli("count", "--k", "5", "--r", "4", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report == build_count_report(5, 4)
    assert report["arrangements"] == 625
    assert report["multiset_count"] == 70
    assert report["partition_identity_holds"] is True
    assert len(report["classes"]) == 70


def test_count_smallest_case():
    code, out, _ = run_cli("count", "--k", "1", "--r", "1", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["arrangements"] == report["multiset_count"] == 1
    assert report["classes"] == [{"word": "A", "counts": [1], "size": 1}]


def test_count_skip_classes():
    code, out, _ = run_cli("count", "--k", "4", "--r", "3", "--skip-classes", "--format", "json")
    assert code == 0
    assert "classes" not in json.loads(out)


def test_count_custom_alphabet():
    code, out, _ = run_cli(
        "count", "--k", "4", "--r", "3", "--alphabet", "ACGU", "--format", "json"
    )
    assert code == 0
    words = [c["word"] for c in json.loads(out)["classes"]]
    assert "AGU" in words and len(words) == 20


def test_count_csv_output():
    code, out, _ = run_cli("count", "--k", "2", "--r", "2", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["word,counts,size", "AA,2:0,1", "AB,1:1,2", "BB,0:2,1"]


def test_count_capacity_exit_code():
    code, out, err = run_cli("count", "--k", "4", "--r", "3", "--cap", "10")
    assert code == 3
    assert out == ""
    assert "error:" in err


@pytest.mark.skipif(
    getattr(sys, "get_int_max_str_digits", lambda: 0)() == 0,
    reason="this interpreter prints integers of any length",
)
def test_count_refuses_results_past_the_int_digit_limit():
    limit = sys.get_int_max_str_digits()
    for fmt in ("text", "json"):
        # 10**limit has limit + 1 digits, one more than str() may print
        code, out, err = run_cli("count", "--k", "10", "--r", str(limit), "--skip-classes",
                                 "--format", fmt)
        assert code == 3 and out == ""
        assert "error:" in err
        code, out, _ = run_cli("count", "--k", "10", "--r", str(limit - 1), "--skip-classes",
                               "--format", fmt)
        assert code == 0 and str(10 ** (limit - 1)) in out


def test_count_missing_and_invalid_params():
    assert run_cli("count", "--k", "4")[0] == 2
    assert run_cli("count", "--k", "-1", "--r", "3")[0] == 2
    code, out, _ = run_cli("count", "--k", "3", "--r", "2", "--alphabet", "ACGU")
    assert code == 2 and out == ""


# --- analyze ----------------------------------------------------------------


def test_analyze_builtin_json_matches_builder():
    code, out, _ = run_cli("analyze", "--builtin", "standard", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report == build_analyze_report(builtin_standard_code(), "builtin:standard")
    assert report["code"]["sense_codon_count"] == 61
    assert report["code"]["stop_codon_count"] == 3
    assert report["code"]["amino_acid_count"] == 20
    assert report["symmetry"]["size_profile"] == {"1": 4, "3": 12, "6": 4}


def test_analyze_partitions_the_code_once(monkeypatch):
    calls = []
    partition = symmetry.partition_classes

    def counted(code):
        calls.append(code)
        return partition(code)

    monkeypatch.setattr(symmetry, "partition_classes", counted)
    build_analyze_report(builtin_standard_code(), "builtin:standard")
    assert len(calls) == 1


def test_analyze_requires_exactly_one_source(tmp_path):
    assert run_cli("analyze")[0] == 2
    table = tmp_path / "t.txt"
    table.write_text(STANDARD_TABLE_TEXT)
    assert run_cli("analyze", "--builtin", "standard", "--table", str(table))[0] == 2
    assert run_cli("analyze", "--builtin", "standard", "--random-seed", "1")[0] == 2


def test_analyze_table_file(tmp_path):
    table = tmp_path / "standard.txt"
    table.write_text(STANDARD_TABLE_TEXT)
    code, out, _ = run_cli("analyze", "--table", str(table), "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["source"] == f"table:{table}"
    builtin = json.loads(run_cli("analyze", "--builtin", "standard", "--format", "json")[1])
    assert report["symmetry"] == builtin["symmetry"]
    assert report["violations"] == builtin["violations"]


def test_analyze_malformed_table_emits_nothing(tmp_path):
    table = tmp_path / "broken.txt"
    table.write_text(STANDARD_TABLE_TEXT.replace("TCAG", "TCG", 1))
    code, out, err = run_cli("analyze", "--table", str(table))
    assert code == 2
    assert out == ""
    assert "line" in err


def test_analyze_missing_table_file():
    code, out, err = run_cli("analyze", "--table", "/no/such/file")
    assert code == 2 and out == ""
    assert "cannot read table file" in err


def test_analyze_unknown_builtin():
    assert run_cli("analyze", "--builtin", "martian")[0] == 2


def test_analyze_random_seed_is_deterministic():
    first = run_cli("analyze", "--random-seed", "5", "--format", "json")
    second = run_cli("analyze", "--random-seed", "5", "--format", "json")
    assert first == second and first[0] == 0
    other = run_cli("analyze", "--random-seed", "6", "--format", "json")
    assert other[1] != first[1]
    assert json.loads(first[1])["source"] == "random-seed:5"


def test_analyze_csv_lists_the_classes():
    code, out, _ = run_cli("analyze", "--builtin", "standard", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "word,size,codons,products,coherent,coherent_excluding_stop"
    assert len(lines) == 21
    assert "\r" not in out


# --- grover ----------------------------------------------------------------


def test_grover_solve_n():
    code, out, _ = run_cli("grover", "solve-n", "--q", "3", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["n_solved"] == round_sig(solve_n(3))
    csv_out = run_cli("grover", "solve-n", "--q", "3", "--format", "csv")[1]
    assert csv_out.splitlines()[0] == "q,n_solved"


def test_grover_solve_q():
    code, out, _ = run_cli("grover", "solve-q", "--n", "20.2", "--format", "json")
    assert code == 0
    assert json.loads(out)["q_rounded"] == 3


def test_grover_simulate_csv_trace():
    code, out, _ = run_cli(
        "grover", "simulate", "--n", "4", "--q", "1", "--format", "csv"
    )
    assert code == 0
    assert out == "iteration,marked_probability\n0,0.25\n1,1\n"


def test_grover_simulate_json():
    code, out, _ = run_cli(
        "grover", "simulate", "--n", "20", "--q", "3", "--marked", "11", "--format", "json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["marked"] == 11
    assert report["difference"] <= 1e-10
    assert report["max_norm_drift"] <= 1e-12
    assert len(report["trace"]) == 4


def test_grover_error_paths():
    assert run_cli("grover", "solve-n")[0] == 2  # missing --q
    assert run_cli("grover", "solve-n", "--q", "-1")[0] == 2
    assert run_cli("grover", "simulate", "--n", "4", "--q", "1", "--marked", "9")[0] == 2
    code, out, _ = run_cli(
        "grover", "simulate", "--n", "2048", "--q", "1", "--cap", "1000"
    )
    assert code == 3 and out == ""


# --- energy ----------------------------------------------------------------


def test_energy_defaults_match_builder():
    code, out, _ = run_cli("energy", "--format", "json")
    assert code == 0
    assert json.loads(out) == build_energy_report(PhysicalParams(), 3.0)


def test_energy_scale_flag():
    code, out, _ = run_cli("energy", "--scale", "2", "--format", "json")
    assert code == 0
    assert json.loads(out)["scale"]["energy_ratio"] == 0.25


def test_energy_rejects_nonpositive_length():
    code, out, _ = run_cli("energy", "--delta-x", "0")
    assert code == 2 and out == ""


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
@pytest.mark.parametrize(
    "command",
    ["grover solve-q --n", "energy --hbar", "energy --delta-x", "energy --mass",
     "energy --hbond", "energy --scale"],
)
def test_non_finite_floats_exit_2(command, value):
    *words, flag = command.split()
    code, out, err = run_cli(*words, f"{flag}={value}", "--format", "json")
    assert code == 2 and out == ""
    assert "finite" in err


def test_json_reports_are_strict_rfc_8259():
    for argv in (
        ("energy", "--hbar", "1e-20", "--delta-x", "1e-3", "--scale", "1e6"),
        ("grover", "solve-q", "--n", "1"),
        ("grover", "solve-q", "--n", "1e300"),
        ("analyze", "--random-seed", "3"),
    ):
        code, out, _ = run_cli(*argv, "--format", "json")
        assert code == 0
        strict_json(out)


def test_energy_csv_is_key_value_rows():
    code, out, _ = run_cli("energy", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "quantity,value"
    assert any(line.startswith("energy_ratio,") for line in lines)


# --- config files, output files, formats --------------------------------------


def test_config_supplies_missing_options(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"k": 4, "r": 3, "format": "json"}))
    code, out, _ = run_cli("count", "--config", str(config))
    assert code == 0
    assert json.loads(out)["arrangements"] == 64


def test_explicit_flags_beat_config(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"k": 2, "r": 2}))
    code, out, _ = run_cli(
        "count", "--config", str(config), "--k", "5", "--format", "json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["k"] == 5 and report["r"] == 2


def test_unreadable_or_malformed_config(tmp_path):
    assert run_cli("count", "--config", str(tmp_path / "absent.json"))[0] == 2
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    assert run_cli("count", "--k", "2", "--r", "2", "--config", str(bad))[0] == 2
    listy = tmp_path / "list.json"
    listy.write_text("[1, 2]")
    assert run_cli("count", "--k", "2", "--r", "2", "--config", str(listy))[0] == 2


@pytest.mark.parametrize(
    "argv, config",
    [
        (("count",), {"k": "abc", "r": 2}),
        (("count", "--k", "2"), {"r": [2]}),
        (("count", "--k", "2", "--r", "2"), {"cap": "1e9"}),
        (("grover", "solve-q"), {"n": "many"}),
        (("grover", "simulate", "--n", "4"), {"q": 2, "marked": {}}),
        (("grover", "simulate", "--n", "4", "--q", "1"), {"marked": 1e400}),
        (("energy",), {"hbar": "tiny"}),
        (("analyze",), {"random_seed": "x"}),
    ],
)
def test_non_numeric_config_values_exit_2(tmp_path, argv, config):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    code, out, err = run_cli(*argv, "--config", str(path))
    assert code == 2 and out == ""
    assert "error:" in err


def test_config_accepts_numbers_and_numeric_strings(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n": "123.456", "format": "json"}))
    code, out, _ = run_cli("grover", "solve-q", "--config", str(path))
    assert code == 0 and json.loads(out)["n"] == 123.456
    path.write_text(json.dumps({"k": 3, "r": "2", "hbar": 1.05e-27, "format": "json"}))
    assert json.loads(run_cli("count", "--config", str(path))[1])["arrangements"] == 9
    assert json.loads(run_cli("energy", "--config", str(path))[1])["params"]["hbar"] == 1.05e-27


def test_config_cannot_smuggle_bad_format(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"format": "xml"}))
    code, out, _ = run_cli("count", "--k", "2", "--r", "2", "--config", str(config))
    assert code == 2 and out == ""


def test_output_file_matches_stdout(tmp_path):
    _, stdout, _ = run_cli("analyze", "--builtin", "standard", "--format", "json")
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        "analyze", "--builtin", "standard", "--format", "json", "--output", str(target)
    )
    assert code == 0 and out == ""
    assert target.read_text(encoding="utf-8") == stdout


def test_unwritable_output_path_exits_2(tmp_path):
    target = tmp_path / "missing" / "report.txt"
    code, out, err = run_cli("count", "--k", "2", "--r", "2", "--output", str(target))
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write output file")
    assert not target.exists()


def test_invalid_format_flag():
    assert run_cli("count", "--k", "2", "--r", "2", "--format", "xml")[0] == 2


def test_help_exits_zero():
    assert run_cli("--help")[0] == 0
    assert run_cli("count", "--help")[0] == 0


# --- rendering helpers ----------------------------------------------------------


def test_render_rejects_unknown_format():
    with pytest.raises(InvalidParamsError):
        render(build_count_report(2, 2), fmt="yaml")


def test_round_sig_pins_emission_precision():
    assert round_sig(1.0 / 3.0) == 0.333333333333
    assert round_sig(0.1) == 0.1
    assert round_sig(123456789.0) == 123456789.0


def test_json_reports_end_with_newline():
    for argv in (
        ("count", "--k", "2", "--r", "2"),
        ("energy",),
        ("grover", "solve-n", "--q", "1"),
    ):
        _, out, _ = run_cli(*argv, "--format", "json")
        assert out.endswith("\n") and not out.endswith("\n\n")


# --- whole-process determinism ---------------------------------------------------


def module_run(args):
    return subprocess.run(
        [sys.executable, "-m", "codonlab", *args],
        capture_output=True,
        timeout=60,
    )


def test_subprocess_runs_are_byte_identical():
    args = ["analyze", "--builtin", "standard", "--format", "json"]
    first, second = module_run(args), module_run(args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.decode() == run_cli(*args)[1]


def test_subprocess_exit_codes():
    assert module_run(["count", "--k", "4", "--r", "3", "--cap", "5"]).returncode == 3
    assert module_run(["count", "--k", "4"]).returncode == 2
    assert module_run(["count", "--k", "4", "--r", "3"]).returncode == 0
