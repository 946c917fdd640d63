"""End-to-end checks of report building, rendering and the CLI contract.

Exit codes: 0 success, 2 invalid input or parse error, 3 capacity
exceeded. Failing runs must leave stdout empty (no partial reports).
"""

import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import codonlab
from codonlab import (
    DEFAULT_CLASS_CAP,
    DEFAULT_SIM_CAP,
    PhysicalParams,
    builtin_standard_code,
    class_size,
    enumerate_multisets,
    reports,
    solve_n,
    symmetry,
)
from codonlab.cli import main
from codonlab.genetic_code import STANDARD_TABLE_TEXT, parse_table
from codonlab.reports import (
    build_analyze_report,
    build_count_report,
    build_energy_report,
    build_grover_simulate_report,
    render,
    round_sig,
)
from codonlab.errors import InvalidParamsError

GOLDEN = Path(__file__).resolve().parent / "golden"
EXTENSIONS = {"text": "txt", "json": "json", "csv": "csv"}


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
    built = build_count_report(5, 4)
    classes = [
        {"word": c.canonical_word, "counts": list(c.counts), "size": class_size(c)}
        for c in built.pop("classes")
    ]
    assert report == dict(built, partition_identity_holds=True, classes=classes)
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


@pytest.mark.parametrize("env_limit, bound", [("0", 4300), ("640", 640)])
def test_count_digit_bound_is_fixed_and_respects_a_lower_interpreter_limit(env_limit, bound):
    # 0 turns the interpreter's limit off, which leaves the fixed bound; 640 is below it
    env = {**os.environ, "PYTHONINTMAXSTRDIGITS": env_limit}
    argv = [sys.executable, "-m", "codonlab", "count", "--k", "10", "--skip-classes", "--r"]
    refused = subprocess.run([*argv, str(bound)], capture_output=True, env=env, timeout=60)
    assert refused.returncode == 3 and refused.stdout == b""
    assert refused.stderr.startswith(b"error:")
    printed = subprocess.run([*argv, str(bound - 1)], capture_output=True, env=env, timeout=60)
    assert printed.returncode == 0
    assert str(10 ** (bound - 1)).encode() in printed.stdout


def test_count_skip_classes_csv_carries_both_counts():
    code, out, _ = run_cli("count", "--k", "4", "--r", "3", "--skip-classes", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["quantity,value", "k,4", "r,3", "arrangements,64",
                                "multiset_count,20"]


def test_count_k_1_bounds_r_by_the_cap():
    code, out, err = run_cli("count", "--k", "1", "--r", "10", "--cap", "10", "--format", "csv")
    assert code == 3 and out == ""
    assert "error:" in err
    code, out, _ = run_cli("count", "--k", "1", "--r", "9", "--cap", "10", "--format", "csv")
    assert code == 0 and out == "word,counts,size\nAAAAAAAAA,9,1\n"
    for r in (10**6, 10**18):  # past the default cap of 10**6 on r + 1
        code, out, _ = run_cli("count", "--k", "1", "--r", str(r), "--format", "csv")
        assert code == 3 and out == ""


@pytest.mark.parametrize("alphabet", ['A,"', '\\",', 'a,"\\\u00e9'])
def test_count_quotes_and_escapes_special_letters(alphabet):
    k = str(len(alphabet))
    classes = list(enumerate_multisets(len(alphabet), 3, alphabet=alphabet))
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(("word", "counts", "size"))
    writer.writerows((c.canonical_word, ":".join(map(str, c.counts)), class_size(c))
                     for c in classes)
    code, out, _ = run_cli("count", "--k", k, "--r", "3", "--alphabet", alphabet, "--format", "csv")
    assert code == 0 and out == buffer.getvalue()
    assert [row[0] for row in csv.reader(io.StringIO(out))][1:] == [
        c.canonical_word for c in classes]
    code, out, _ = run_cli("count", "--k", k, "--r", "3", "--alphabet", alphabet,
                           "--format", "json")
    assert code == 0
    assert [c["word"] for c in strict_json(out)["classes"]] == [
        c.canonical_word for c in classes]


def test_count_json_has_one_class_per_line():
    code, out, _ = run_cli("count", "--k", "3", "--r", "2", "--format", "json")
    assert code == 0
    lines = out.splitlines()
    assert lines[lines.index('  "classes": [') + 1:] == [
        '    {"word": "AA", "counts": [2, 0, 0], "size": 1},',
        '    {"word": "AB", "counts": [1, 1, 0], "size": 2},',
        '    {"word": "AC", "counts": [1, 0, 1], "size": 2},',
        '    {"word": "BB", "counts": [0, 2, 0], "size": 1},',
        '    {"word": "BC", "counts": [0, 1, 1], "size": 2},',
        '    {"word": "CC", "counts": [0, 0, 2], "size": 1}',
        "  ]",
        "}",
    ]


def test_count_reports_stream_in_chunks(monkeypatch):
    monkeypatch.setattr(reports, "CHUNK_LINES", 3)
    report = build_count_report(4, 3)
    for fmt in ("text", "json", "csv"):
        chunks = list(reports.emit(report, fmt))
        assert len(chunks) > 5
        assert "".join(chunks) == (GOLDEN / f"count.{EXTENSIONS[fmt]}").read_text()


def child_peak_rss_kb(*argv):
    """Peak resident set of one `python -m codonlab` run, from os.wait4."""
    child = subprocess.Popen([sys.executable, "-m", "codonlab", *argv],
                             stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    return usage.ru_maxrss


def test_count_memory_is_flat_in_class_count():
    small = child_peak_rss_kb("count", "--k", "5", "--r", "20", "--format", "json")  # 10,626
    large = child_peak_rss_kb("count", "--k", "6", "--r", "27", "--format", "json")  # 201,376
    assert large - small < 4 * 1024


def test_count_missing_and_invalid_params():
    assert run_cli("count", "--k", "4")[0] == 2
    assert run_cli("count", "--k", "-1", "--r", "3")[0] == 2
    code, out, _ = run_cli("count", "--k", "3", "--r", "2", "--alphabet", "ACGU")
    assert code == 2 and out == ""


@pytest.mark.parametrize("letter", ["\n", "\t", " ", "\u754c", "\u0301"],
                         ids=["newline", "tab", "space", "wide", "combining"])
def test_count_refuses_letters_that_break_text_tables(letter):
    for fmt in EXTENSIONS:
        code, out, err = run_cli("count", "--k", "2", "--r", "1", "--alphabet", "A" + letter,
                                 "--format", fmt)
        assert (code, out) == (2, "")
        assert "one column wide" in err


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


@pytest.mark.parametrize("to_file", [False, True])
def test_analyze_refuses_a_table_name_that_is_not_utf8(tmp_path, to_file):
    # the report prints the name, which no UTF-8 output can hold
    table = os.path.join(os.fsencode(tmp_path), b"x\xff.table")
    try:
        with open(table, "wb") as handle:
            handle.write(STANDARD_TABLE_TEXT.encode())
    except OSError:
        pytest.skip("the filesystem refuses a file name that is not UTF-8")
    output = ["-o", str(tmp_path / "out.txt")] if to_file else []
    result = subprocess.run(
        [sys.executable, "-m", "codonlab", "analyze", "--table", table, *output],
        capture_output=True, timeout=60, env=dict(os.environ, PYTHONIOENCODING="utf-8"),
    )
    assert (result.returncode, result.stdout) == (2, b"")
    assert result.stderr.startswith(b"error: cannot read table file")
    assert os.listdir(os.fsencode(tmp_path)) == [b"x\xff.table"]


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
    for q, cap in (("1001", ["--cap", "1000"]), (str(2**20 + 1), [])):
        code, out, err = run_cli("grover", "simulate", "--n", "4", "--q", q, *cap)
        assert code == 3 and out == ""
        assert f"q={q} exceeds the simulation cap" in err


def reference_simulate_text(report):
    """A simulate report as text, its trace rendered as a table of (iteration, value) rows."""
    fmt = "{:.12g}".format
    lines = [
        f"Search simulation: n = {report['n']}, q = {report['q']}, marked index {report['marked']}",
        f"  final marked probability: {fmt(report['final_marked_probability'])}",
        f"  closed-form probability:  {fmt(report['closed_form_probability'])}",
        f"  |difference|:             {fmt(report['difference'])}",
        f"  max norm drift:           {fmt(report['max_norm_drift'])}",
        "",
    ]
    rows = [("iteration", "marked_probability")]
    rows += [(str(i), fmt(p)) for i, p in enumerate(report["trace"])]
    widths = [max(map(len, column)) for column in zip(*rows)]
    template = "  ".join(f"{{:<{width}}}" for width in widths)
    return "\n".join(lines + [template.format(*row).rstrip() for row in rows]) + "\n"


def reference_simulate_csv(report):
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(("iteration", "marked_probability"))
    writer.writerows((i, f"{p:.12g}") for i, p in enumerate(report["trace"]))
    return buffer.getvalue()


@st.composite
def _simulations(draw):
    n = draw(st.one_of(st.integers(2, 64), st.integers(2, 2**20)))
    return n, draw(st.integers(0, 1500)), draw(st.integers(0, n - 1))


@given(_simulations())
@example((4, 12, 0))  # exact 1.0 and 0.25, spelled 1.0 in JSON and 1 in text and CSV
@example((64, 150, 5))
@settings(max_examples=60, deadline=None)
def test_simulate_emitters_match_reference_renderings(args):
    report = build_grover_simulate_report(*args)
    assert render(report, "json") == json.dumps(report, indent=2) + "\n"
    assert render(report, "text") == reference_simulate_text(report)
    assert render(report, "csv") == reference_simulate_csv(report)


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


@pytest.mark.parametrize(
    "argv",
    [
        ("energy", "--hbar", "1e300", "--delta-x", "1e-300"),  # momentum
        ("energy", "--hbar", "1e200", "--delta-x", "1e-10"),  # kinetic energy
        ("energy", "--scale", "1e-200"),  # scaled energy
        ("energy", "--hbar", "1e-10", "--delta-x", "1e-150", "--hbond", "1e10"),  # eV
        ("grover", "solve-n", "--q", "1" + "0" * 309),  # q does not fit a float
        ("grover", "solve-n", "--q", "1" + "0" * 160),  # n overflows
    ],
)
def test_overflowing_results_exit_2(argv):
    code, out, err = run_cli(*argv, "--format", "json")
    assert code == 2 and out == ""
    assert err.startswith("error:")


def test_json_reports_are_strict_rfc_8259():
    for argv in (
        ("energy", "--hbar", "1e-20", "--delta-x", "1e-3", "--scale", "1e6"),
        ("energy", "--delta-x", "1e-150"),
        ("grover", "solve-n", "--q", "1" + "0" * 150),
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
        (("grover", "simulate", "--n", "4"), {"q": 3.7}),
        (("grover", "simulate", "--n", "4", "--q", "1"), {"marked": 1e400}),
        (("energy",), {"hbar": "tiny"}),
        (("analyze",), {"random_seed": "x"}),
        (("grover", "solve-n"), {"q": True}),
        (("grover", "solve-q"), {"n": False}),
        (("energy",), {"mass": True}),
        (("count", "--k", "2", "--r", "2"), {"alphabet": 12}),
        (("count", "--k", "2", "--r", "2"), {"skip_classes": "yes"}),
        (("count", "--k", "2", "--r", "2"), {"format": 1}),
        (("count", "--k", "2", "--r", "2"), {"output": 3}),
        (("analyze",), {"table": 0}),
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
    path.write_text(json.dumps({"k": 3, "r": "2", "format": "json"}))
    assert json.loads(run_cli("count", "--config", str(path))[1])["arrangements"] == 9
    path.write_text(json.dumps({"hbar": 1.05e-27, "format": "json"}))
    assert json.loads(run_cli("energy", "--config", str(path))[1])["params"]["hbar"] == 1.05e-27
    path.write_text(json.dumps({"q": 3.0, "format": "json"}))
    assert json.loads(run_cli("grover", "solve-n", "--config", str(path))[1])["q"] == 3
    path.write_text(json.dumps({"hbar": None, "scale": None, "format": "json"}))  # null: absent
    energy = json.loads(run_cli("energy", "--config", str(path))[1])
    assert energy == build_energy_report(PhysicalParams(), 3.0)


@pytest.mark.parametrize(
    "argv, config, unknown",
    [
        (("count",), {"k": 4, "r": 1, "bogus": 1}, "'bogus'"),
        (("count", "--k", "4", "--r", "1"), {"hbar": 1e-27}, "'hbar'"),
        (("grover", "solve-n", "--q", "3"), {"n": 20}, "'n'"),
        (("energy",), {"config": "other.json", "command": "count"}, "'command', 'config'"),
    ],
)
def test_unknown_config_keys_exit_2(tmp_path, argv, config, unknown):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    code, out, err = run_cli(*argv, "--config", str(path))
    assert code == 2 and out == ""
    assert f"unknown option(s) {unknown}" in err


@pytest.mark.parametrize(
    "argv, config",
    [
        (("count",), {"k": 3, "r": 2, "alphabet": "XYZ", "cap": 10, "skip_classes": False}),
        (("analyze",), {"builtin": "standard"}),
        (("analyze",), {"random_seed": 3}),
        (("grover", "solve-n"), {"q": 3}),
        (("grover", "solve-q"), {"n": 20.2}),
        (("grover", "simulate"), {"n": 4, "q": 1, "marked": 2, "cap": 8}),
        (("energy",), {"hbar": 1e-27, "delta_x": 3e-8, "mass": 1e-23, "hbond": 3e-13,
                       "scale": 2.0}),
        (("count",), {"k": 3, "r": 2, "skip_classes": True}),
    ],
)
def test_config_accepts_every_option_of_its_subcommand(tmp_path, argv, config):
    path = tmp_path / "cfg.json"
    target = tmp_path / "report.json"
    path.write_text(json.dumps(dict(config, format="json", output=str(target))))
    code, out, err = run_cli(*argv, "--config", str(path))
    assert (code, out, err) == (0, "", "")
    report = target.read_text(encoding="utf-8")
    strict_json(report)
    flags = ["--" + name.replace("_", "-") + ("" if value is True else f"={value}")
             for name, value in config.items() if value is not False]
    assert run_cli(*argv, *flags, "--format=json") == (0, report, "")


def test_config_cannot_smuggle_bad_format(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"format": "xml"}))
    for argv in (
        ("count", "--k", "2", "--r", "2"),
        ("count", "--k", "4", "--r", "3", "--cap", "5"),  # refused before the class cap
        ("grover", "simulate", "--n", "4", "--q", "10", "--cap", "3"),  # and the simulation cap
    ):
        code, out, err = run_cli(*argv, "--config", str(config))
        assert (code, out) == (2, "")
        assert err == "error: format must be one of text, json, csv, got 'xml'\n"


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
    code, out, err = run_cli("count", "--k", "2", "--r", "2", "--output", str(tmp_path))
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write output file")
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--k", "4", "--r", "3", "--cap", "5"),  # class cap
        ("count", "--k", "1", "--r", "5", "--cap", "5"),  # r + 1 cap
        ("count", "--k", "10", "--r", "5000"),  # digit bound
        ("count", "--k", "3", "--r", "2", "--alphabet", "AAB"),  # bad alphabet
        ("count", "--k", "3", "--r", "2", "--format", "xml"),
    ],
)
def test_count_refusals_create_no_output_file(tmp_path, argv):
    target = tmp_path / "report.txt"
    code, out, err = run_cli(*argv, "--output", str(target))
    assert code in (2, 3) and out == ""
    assert "error" in err
    assert os.listdir(tmp_path) == []


def test_output_replaces_an_existing_file(tmp_path):
    target = tmp_path / "report.csv"
    target.write_text("old report\n")
    target.chmod(0o600)
    code, out, _ = run_cli("count", "--k", "2", "--r", "2", "--format", "csv", "-o", str(target))
    assert code == 0 and out == ""
    assert target.read_text() == "word,counts,size\nAA,2:0,1\nAB,1:1,2\nBB,0:2,1\n"
    assert target.stat().st_mode & 0o777 == 0o600
    assert os.listdir(tmp_path) == ["report.csv"]


def test_invalid_format_flag():
    assert run_cli("count", "--k", "2", "--r", "2", "--format", "xml")[0] == 2


def test_help_exits_zero():
    assert run_cli("--help")[0] == 0
    assert run_cli("count", "--help")[0] == 0


# every option with a default, as the library or the runs define it
HELP_DEFAULTS = {
    ("count",): {"alphabet": "A, B, C, ...", "cap": DEFAULT_CLASS_CAP},
    ("analyze",): {},
    ("grover", "solve-n"): {},
    ("grover", "solve-q"): {},
    ("grover", "simulate"): {"marked": 0, "cap": DEFAULT_SIM_CAP},
    ("energy",): {"hbar": PhysicalParams.hbar, "delta_x": PhysicalParams.delta_x,
                  "mass": PhysicalParams.mass, "hbond": PhysicalParams.hbond_energy,
                  "scale": 3.0},
}


@pytest.mark.parametrize("command, defaults", HELP_DEFAULTS.items())
def test_help_names_every_option_default(monkeypatch, command, defaults):
    monkeypatch.setenv("COLUMNS", "200")  # no wrapping inside a number such as 1.7e-08
    code, out, _ = run_cli(*command, "--help")
    assert code == 0
    # whitespace normalised, as argparse wraps help differently across versions
    options = " ".join(out.split()).split("options:", 1)[1]
    # an entry starts "--name ARG, -n ARG" or, from Python 3.13, "--name, -n ARG"
    entries = {entry.split()[0].rstrip(","): entry for entry in re.split(r" (?=--[a-z])", options)}
    for name, default in dict(defaults, format="text").items():
        assert f"(default {default})" in entries["--" + name.replace("_", "-")]


def test_version_prints_the_package_version():
    assert run_cli("--version") == (0, f"codonlab {codonlab.__version__}\n", "")
    result = module_run(["--version"])
    assert (result.returncode, result.stdout, result.stderr) == (
        0, f"codonlab {codonlab.__version__}\n".encode(), b"")


# --- rendering helpers ----------------------------------------------------------


def test_render_rejects_unknown_format():
    with pytest.raises(InvalidParamsError):
        render(build_count_report(2, 2), fmt="yaml")


def scalar_keys(node):
    """The key of every scalar field, nested ones too, duplicates kept."""
    for key, value in node.items():
        if isinstance(value, dict):
            yield from scalar_keys(value)
        elif value is None or isinstance(value, (str, int, float)):
            yield key


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_count_report(4, 3),
        lambda: build_count_report(4, 3, include_classes=False),
        lambda: build_analyze_report(builtin_standard_code(), "builtin:standard"),
        lambda: build_analyze_report(symmetry.random_code(7), "random-seed:7"),
        lambda: build_analyze_report(
            parse_table((GOLDEN / "vertebrate_mitochondrial.table").read_text()), "table:t"),
        lambda: reports.build_grover_solve_n_report(3),
        lambda: reports.build_grover_solve_q_report(20.0),
        lambda: build_grover_simulate_report(16, 3, 5),
        lambda: build_energy_report(PhysicalParams(), 3.0),
    ],
    ids=["count", "count-skip-classes", "analyze-builtin", "analyze-random-seed",
         "analyze-table", "grover-solve-n", "grover-solve-q", "grover-simulate", "energy"],
)
def test_no_two_scalar_fields_share_a_key(build):
    """Text templates and scalar CSVs name nested fields by key alone, so keys must be unique."""
    report = build()
    keys = list(scalar_keys(report))
    assert len(keys) == len(set(keys))
    assert list(reports._fields(report)) == [key for key in keys if key not in ("command", "mode")]


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


def test_import_loads_no_numpy():
    check = "import codonlab, sys; assert 'numpy' not in sys.modules"
    assert subprocess.run([sys.executable, "-c", check], timeout=60).returncode == 0


def test_reader_closing_stdout_early_exits_2_without_traceback():
    # about 3 MB of JSON, far more than a pipe holds, so the run is still writing
    child = subprocess.Popen(
        [sys.executable, "-m", "codonlab", "count", "--k", "6", "--r", "20", "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert child.stdout.read(10) == b'{\n  "comma'
    child.stdout.close()
    err = child.stderr.read().decode()
    assert child.wait(timeout=60) == 2
    assert err == "error: cannot write the report to stdout: [Errno 32] Broken pipe\n"


@pytest.mark.parametrize(
    "argv, stdout_too, expected",
    [
        (["count", "--k", "4", "--r", "3", "--cap", "5"], False, 3),
        (["grover", "simulate", "--n", "2", "--q", "0"], True, 2),  # refused for its stdout
    ],
)
def test_refusal_keeps_its_exit_code_when_stderr_is_closed(argv, stdout_too, expected):
    read, write = os.pipe()
    os.close(read)  # a reader that is gone: every write to the pipe fails
    try:
        result = subprocess.run(
            [sys.executable, "-m", "codonlab", *argv],
            stdout=write if stdout_too else subprocess.DEVNULL, stderr=write, timeout=60,
        )
    finally:
        os.close(write)
    assert result.returncode == expected


def test_subprocess_exit_codes():
    assert module_run(["count", "--k", "4", "--r", "3", "--cap", "5"]).returncode == 3
    assert module_run(["count", "--k", "4"]).returncode == 2
    assert module_run(["count", "--k", "4", "--r", "3"]).returncode == 0
