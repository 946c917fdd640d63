"""End-to-end checks of report building, rendering and the CLI contract.

Exit codes: 0 success, 2 invalid input or parse error, 3 capacity
exceeded. Failing runs must leave stdout empty (no partial reports).
"""

import contextlib
import copy
import csv
import gc
import importlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from collections import Counter, OrderedDict
from enum import IntEnum
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import codonlab
from codonlab import (
    DEFAULT_CLASS_CAP,
    DEFAULT_SIM_CAP,
    GeneticCode,
    PhysicalParams,
    builtin_standard_code,
    class_size,
    enumerate_multisets,
    reports,
    simulate,
    solve_n,
    symmetry,
)
from codonlab import cli
from codonlab.cli import main
from codonlab.genetic_code import PRODUCT_SYMBOLS, STANDARD_TABLE_TEXT, parse_table
from codonlab.reports import (
    RoundedTrace,
    build_analyze_report,
    build_count_report,
    build_energy_report,
    build_grover_simulate_report,
    build_grover_solve_n_report,
    build_grover_solve_q_report,
    render,
    round_sig,
)
from codonlab.errors import InvalidParamsError
from test_combinatorics import one_column_letters

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


def test_count_reports_a_violated_partition_identity():
    # the survey's size sum is compared with the report's own k^r, so an off-by-one
    # `arrangements` must read as violated in both layouts that print the identity
    report = build_count_report(3, 2)
    assert render(report).splitlines()[3] == "  partition identity:   ok (class sizes sum to k^r)"
    report["arrangements"] += 1
    assert render(report).splitlines()[3] == "  partition identity:   VIOLATED"
    assert json.loads(render(report, "json"))["partition_identity_holds"] is False


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


def test_count_refuses_a_huge_r_at_once():
    # k**r is refused from r's digit bound before it is computed, so this exits in time
    argv = [sys.executable, "-m", "codonlab", "count", "--k", "3", "--r", "9" * 20]
    refused = subprocess.run(argv, capture_output=True, timeout=60)
    assert refused.returncode == 3 and refused.stdout == b""
    assert refused.stderr.startswith(b"error: k**r for k=3, r=99999999999999999999 has more than")


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


def test_count_walks_an_alphabet_of_any_size():
    alphabet = "".join(one_column_letters(2000))
    outputs = {}
    for fmt in EXTENSIONS:
        code, outputs[fmt], err = run_cli("count", "--k", "2000", "--r", "1",
                                          "--alphabet", alphabet, "--format", fmt)
        assert (code, err) == (0, "")
    assert [c["word"] for c in strict_json(outputs["json"])["classes"]] == list(alphabet)
    assert [row[0] for row in csv.reader(io.StringIO(outputs["csv"]))][1:] == list(alphabet)
    assert len(outputs["text"].splitlines()) > 2000


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


def padded_table(headers, rows):
    """A text table as every column padded, the last too, and each line then right-stripped."""
    widths = [max(map(len, column)) for column in zip(headers, *rows)]
    template = "  ".join(f"{{:<{width}}}" for width in widths)
    return [template.format(*row).rstrip() for row in [headers, *rows]]


_CELLS = st.text(st.characters(blacklist_categories=("Cc", "Cs")), max_size=8)
_LAST_CELLS = _CELLS.filter(lambda cell: cell and not cell[-1].isspace())


@given(data=st.data(), columns=st.integers(1, 6), row_count=st.integers(0, 6))
@settings(max_examples=200, deadline=None)
def test_table_lines_match_padding_every_column(data, columns, row_count):
    row = st.tuples(*[_CELLS] * (columns - 1), _LAST_CELLS)
    headers = data.draw(row)
    rows = data.draw(st.lists(row, min_size=row_count, max_size=row_count))
    assert list(reports._table(headers, rows)) == padded_table(headers, rows)


def buffered_csv(headers, rows):
    """A CSV table as csv.writer writes it into one io.StringIO."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows([headers, *rows])
    return buffer.getvalue()


CSV_CHUNK = 4  # CHUNK_LINES while a CSV report renders below


def csv_chunks(report):
    """A report's CSV chunks, CSV_CHUNK lines to a chunk."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reports, "CHUNK_LINES", CSV_CHUNK)
        return list(reports.emit(report, "csv"))


# letters that csv.writer quotes or doubles, that other CSV dialects treat specially, or non-ASCII;
# and `%`, `{` and `}`, which a `%` or str.format template would read as its own
_CSV_LETTERS = (",", '"', "'", "\\", ";", ":", "a", "Z", "\u00e9", "\u03a9", "\u00df",
                "%", "{", "}")


def reference_count_text(rows):
    """The count text table, each row f"{word:<W}  {counts:<C}  {size}" of a class's own fields."""
    rows = [(word or "(empty)", counts.replace(":", ","), size) for word, counts, size in rows]
    word, counts = (max(len(head), *(len(row[i]) for row in rows))
                    for i, head in enumerate(("word", "counts")))
    return "".join(f"{w:<{word}}  {c:<{counts}}  {size}\n"
                   for w, c, size in [("word", "counts", "size"), *rows])


def chunk_rows(chunks):
    """The rows in each chunk of a count's text or CSV: its line breaks, less the text head's five
    and the closing one; a last chunk that holds only the closing newline is left out."""
    rows = [chunk.count("\n") for chunk in chunks]
    rows[0] -= 5 * chunks[0].startswith("Content")
    rows[-1] -= 1
    return rows if rows[-1] else rows[:-1]


@given(letters=st.permutations(_CSV_LETTERS), k=st.integers(1, 7), r=st.integers(0, 5),
       block_chars=st.sampled_from([1, 40, 300, 1 << 18]), chunk=st.sampled_from([1, 3, 256]))
@example(letters='",', k=2, r=0, block_chars=1 << 18, chunk=256)
@example(letters='"', k=1, r=5, block_chars=1 << 18, chunk=256)
@example(letters='%"{', k=3, r=4, block_chars=300, chunk=3)
@example(letters='%', k=1, r=0, block_chars=1, chunk=1)
@settings(max_examples=200, deadline=None)
def test_count_csv_matches_csv_writer(letters, k, r, block_chars, chunk):
    """The count CSV is csv.writer's, its text table and JSON their references, at every split of
    the alphabet into head and tail slots (BLOCK_CHARS) and every chunk size."""
    alphabet = letters[:k]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(codonlab.combinatorics, "BLOCK_CHARS", block_chars)
        report, expected_json = _count_json_case(letters, k, r)
        rows = [(c.canonical_word, ":".join(map(str, c.counts)), class_size(c))
                for c in report["classes"]]
        patch.setattr(reports, "CHUNK_LINES", 1)  # a chunk to a head prefix's tail block
        blocks = {fmt: chunk_rows(list(reports.emit(report, fmt))) for fmt in ("text", "csv")}
        patch.setattr(reports, "CHUNK_LINES", chunk)
        chunks = {fmt: list(reports.emit(report, fmt)) for fmt in EXTENSIONS}
    assert "".join(chunks["csv"]) == buffered_csv(("word", "counts", "size"), rows)
    assert "".join(chunks["text"]).split("\n\n", 1)[1] == reference_count_text(rows)
    assert "".join(chunks["json"]) == expected_json
    # each chunk holds whole blocks, the fewest that reach `chunk` rows, and the last the rest;
    # a format's blocks are its own, as a letter's spelling moves the split
    for fmt, sizes in blocks.items():
        assert sum(sizes) == len(rows)
        expected, rest = [], 0
        for size in sizes:
            rest += size
            if rest >= chunk:
                expected, rest = expected + [rest], 0
        assert chunk_rows(chunks[fmt]) == expected + ([rest] if rest else []), fmt


def _yes_no(flag):
    return "yes" if flag else "no"


@st.composite
def _analyze_csv_cases(draw):
    aas = draw(st.text(PRODUCT_SYMBOLS, min_size=64, max_size=64))
    report = build_analyze_report(GeneticCode(name=draw(st.text()), id=None, aas=aas), "random")
    rows = [(c["word"], c["size"], ";".join(c["codons"]), ";".join(c["products"]),
             _yes_no(c["coherent"]), _yes_no(c["coherent_excluding_stop"]))
            for c in report["symmetry"]["classes"]]
    return report, ("word", "size", "codons", "products", "coherent",
                    "coherent_excluding_stop"), rows


@st.composite
def _simulate_csv_cases(draw):
    report = build_grover_simulate_report(*draw(_simulations()))
    return report, ("iteration", "marked_probability"), [
        (i, f"{p:.12g}") for i, p in enumerate(report["trace"])]


@st.composite
def _solve_csv_cases(draw):
    report = build_grover_solve_n_report(draw(st.integers(0, 10**6)))
    if draw(st.booleans()):
        return report, ("q", "n_solved"), [(report["q"], f"{report['n_solved']:.12g}")]
    report = build_grover_solve_q_report(draw(st.floats(1, 1e15)))
    return report, ("n", "q_solved", "q_rounded"), [
        (f"{report['n']:.12g}", f"{report['q_solved']:.12g}", report["q_rounded"])]


@st.composite
def _energy_csv_cases(draw):
    value = st.floats(1e-30, 1e-10)
    params = PhysicalParams(*(draw(value) for _ in range(4)))
    report = build_energy_report(params, draw(st.floats(0.1, 10)))
    names = ("hbar_erg_s", "delta_x_cm", "mass_g", "hbond_energy_erg",
             "momentum_uncertainty_g_cm_s", "fluctuation_energy_erg", "fluctuation_energy_ev",
             "hbond_ratio", "scale_factor", "energy_scaled_erg", "energy_ratio", "scaled_to_hbond")
    values = [*report["params"].values(), report["momentum_uncertainty"],
              report["fluctuation_energy_erg"], report["fluctuation_energy_ev"],
              report["hbond_ratio"], *report["scale"].values()]
    return report, ("quantity", "value"), list(zip(names, (f"{v:.12g}" for v in values)))


@st.composite
def _skipped_count_csv_cases(draw):
    report = build_count_report(draw(st.integers(1, 30)), draw(st.integers(0, 200)),
                                include_classes=False)
    return report, ("quantity", "value"), [(key, report[key]) for key in
                                           ("k", "r", "arrangements", "multiset_count")]


@given(st.one_of(_analyze_csv_cases(), _simulate_csv_cases(), _solve_csv_cases(),
                 _energy_csv_cases(), _skipped_count_csv_cases()))
@settings(max_examples=200, deadline=None)
def test_csv_reports_match_csv_writer(case):
    report, headers, rows = case
    assert "".join(csv_chunks(report)) == buffered_csv(headers, rows)


_PEAK_RSS_LAUNCHER = """
import os, subprocess, sys
child = subprocess.Popen([sys.executable, "-m", "codonlab", *sys.argv[1:]],
                         stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(child.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def child_peak_rss_kb(*argv):
    """Peak resident set of one `python -m codonlab` run, from os.wait4 in a small launcher.

    Linux carries a process's peak over the vfork and exec that start its child into
    the child's ru_maxrss, so a child of this test process would read at least this
    process's own peak. The launcher, an interpreter without `site`, peaks below any run.
    """
    launched = subprocess.run([sys.executable, "-S", "-c", _PEAK_RSS_LAUNCHER, *argv],
                              capture_output=True, text=True, check=True)
    code, peak = map(int, launched.stdout.split())
    assert code == 0
    return peak


def test_count_memory_is_flat_in_class_count():
    small = {fmt: child_peak_rss_kb("count", "--k", "5", "--r", "20", "--format", fmt)
             for fmt in EXTENSIONS}  # 10,626 classes
    large = child_peak_rss_kb("count", "--k", "6", "--r", "27", "--format", "json")  # 201,376
    assert large - small["json"] < 4 * 1024
    # and in the row width: 2,000 classes whose counts text is about 4,000 characters long
    alphabet = "".join(one_column_letters(2000))
    for fmt in EXTENSIONS:
        wide = child_peak_rss_kb("count", "--k", "2000", "--r", "1", "--alphabet", alphabet,
                                 "--format", fmt)
        assert wide - small[fmt] < 12 * 1024, fmt
        # and in r where the output is small: one class, a word of 999,999 letters
        long = child_peak_rss_kb("count", "--k", "1", "--r", "999999", "--format", fmt)
        assert long - small[fmt] < 12 * 1024, fmt


def emit_peak(report, fmt):
    """The tracemalloc peak, in bytes, of emitting a report and dropping each chunk."""
    tracemalloc.start()
    try:
        for _ in reports.emit(report, fmt):
            pass
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("fmt", EXTENSIONS)
def test_count_emit_allocates_the_same_peak_at_43758_and_352716_classes(fmt):
    # deterministic, unlike a process's peak RSS; the 352,716-class report is about 16 MB of text
    emit_peak(build_count_report(2, 2), fmt)  # a first emit builds the layouts it caches
    small = emit_peak(build_count_report(11, 8), fmt)
    large = emit_peak(build_count_report(11, 11), fmt)
    assert abs(large - small) < 2 * 2**20


def test_simulate_memory_holds_one_copy_of_a_long_trace():
    # at the cap the report holds the run's 2**20 + 1 floats once: no rounded list beside them
    for fmt in EXTENSIONS:
        small = child_peak_rss_kb("grover", "simulate", "--n", "4", "--q", "10", "--format", fmt)
        long = child_peak_rss_kb("grover", "simulate", "--n", "4", "--q", str(DEFAULT_SIM_CAP),
                                 "--format", fmt)
        assert long - small < 60 * 1024, fmt


def test_count_missing_and_invalid_params():
    assert run_cli("count", "--k", "4")[0] == 2
    assert run_cli("count", "--k", "-1", "--r", "3")[0] == 2
    # the alphabet and the cap are checked whether or not the classes are skipped
    for skip in ([], ["--skip-classes"]):
        code, out, err = run_cli("count", "--k", "3", "--r", "2", "--alphabet", "ACGU", *skip)
        assert (code, out, err) == (2, "", "error: alphabet has 4 letters, expected k=3\n")
        # a negative cap is invalid input, not a cap that every count exceeds
        code, out, err = run_cli("count", "--k", "3", "--r", "3", "--cap", "-1", *skip)
        assert (code, out, err) == (2, "", "error: cap must be >= 0, got -1\n")
    code, out, err = run_cli("count", "--k", "3", "--r", "3", "--alphabet", "ab", "--skip-classes")
    assert (code, out, err) == (2, "", "error: alphabet has 2 letters, expected k=3\n")
    with pytest.raises(InvalidParamsError, match="cap must be an integer"):
        build_count_report(3, 3, cap="x", include_classes=False)


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
    # the report reads the code through the coherence core that partition_classes wraps
    calls = []
    coherence = symmetry._coherence

    def counted(aas):
        calls.append(aas)
        return coherence(aas)

    monkeypatch.setattr(symmetry, "_coherence", counted)
    code = builtin_standard_code()
    build_analyze_report(code, "builtin:standard")
    assert calls == [code.aas]


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


def test_table_and_config_files_may_start_with_a_byte_order_mark(tmp_path):
    # as some Windows editors save them: each gives the report of the plain file
    table, config = tmp_path / "code.table", tmp_path / "cfg.json"
    runs = []
    for table_mark, config_mark in ((b"", b""), (b"\xef\xbb\xbf", b""), (b"", b"\xef\xbb\xbf")):
        table.write_bytes(table_mark + (GOLDEN / "vertebrate_mitochondrial.table").read_bytes())
        config.write_bytes(config_mark + b'{"format": "json"}')
        runs.append(run_cli("analyze", "--table", str(table), "--config", str(config)))
    assert runs[0][0] == 0 and json.loads(runs[0][1])["code"]["name"] == "Vertebrate Mitochondrial"
    assert runs[1] == runs[0] and runs[2] == runs[0]


@pytest.mark.parametrize("option, what, text, fill", [
    ("--table", "table", STANDARD_TABLE_TEXT, "\n"),
    ("--config", "config", '{"format": "csv"}', " "),
])
def test_a_table_or_config_file_past_the_cap_is_refused(tmp_path, option, what, text, fill):
    # one read takes the cap and one character more, so an endless file is refused as this one
    cap = cli._MAX_FILE_CHARS
    path = tmp_path / "input"
    argv = ("analyze", option, str(path)) if what == "table" else (
        "analyze", "--builtin", "standard", option, str(path))
    path.write_text(text + fill * (cap - len(text)))  # exactly the cap: read whole
    code, out, _ = run_cli(*argv)
    assert code == 0 and out.startswith("Genetic code:" if what == "table" else "word,size,")
    path.write_text(text + fill * (cap + 1 - len(text)))
    assert run_cli(*argv) == (2, "", f"error: cannot read {what} file: longer than {cap}"
                                     " characters\n")


def test_a_config_file_nested_past_the_recursion_limit_is_refused(tmp_path):
    config = tmp_path / "deep.json"
    config.write_text("[" * 100_000)
    code, out, err = run_cli("count", "--k", "2", "--r", "2", "--config", str(config))
    assert code == 2 and out == ""
    assert err.startswith("error: cannot read config file: maximum recursion depth exceeded")
    assert err.count("\n") == 1


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
    code, out, err = run_cli("grover", "simulate", "--n", "4", "--q", "3", "--cap", "-1")
    assert (code, out, err) == (2, "", "error: cap must be >= 0, got -1\n")


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
    listed = dict(report, trace=list(report["trace"]))  # a plain list renders the same bytes
    assert render(report, "json") == json.dumps(listed, indent=2) + "\n"
    assert render(report, "text") == reference_simulate_text(report)
    assert render(report, "csv") == reference_simulate_csv(report)
    for fmt in EXTENSIONS:
        assert render(listed, fmt) == render(report, fmt), fmt
    # the trace is a view of the run's own floats, each rounded as it is read
    n, q, marked = args
    assert len(report["trace"]) == q + 1
    assert listed["trace"] == [round_sig(p) for p in simulate(n, q, marked).probability_trace]


def _simulate_renderings_match_references(report, chunk):
    """Each format, `chunk` rows to a block, equals its reference: JSON, json.dumps of the report
    with its trace listed."""
    listed = dict(report, trace=list(report["trace"]))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reports, "CHUNK_LINES", chunk)
        assert render(report, "text") == reference_simulate_text(report)
        assert render(report, "csv") == reference_simulate_csv(report)
        assert render(report, "json") == json.dumps(listed, indent=2) + "\n"


@pytest.mark.parametrize("chunk", [1, 3, 256])
@given(_simulations())
@example((4, 1000, 0))  # an exact 1.0 in every block, spelled 1.0 in JSON and 1 in text and CSV
@settings(max_examples=20, deadline=None)
def test_simulate_blocks_match_references_at_every_block_size(chunk, args):
    _simulate_renderings_match_references(build_grover_simulate_report(*args), chunk)


@pytest.mark.parametrize("chunk", [1, 3, 256])
def test_a_plain_trace_mixes_template_and_per_entry_blocks(chunk):
    trace = [round_sig(1 / (i + 2)) for i in range(600)]  # in 0 < x < 0.9999999999, where %.12g
    # is {:.12}; outside it: 0.0 in the first block of 256, 1.0 in the second, 0.9999999999 in a
    # block of 3 of its own; the third block of 256 and most blocks of 3, 0.999999999899 too, are in
    trace[7], trace[300], trace[400], trace[403] = 0.0, 1.0, 0.9999999999, 0.999999999899
    _simulate_renderings_match_references(dict(build_grover_simulate_report(4, 1, 0),
                                               trace=trace), chunk)


def test_a_plain_trace_holding_ints_renders_as_floats_in_json():
    report = dict(build_grover_simulate_report(4, 1, 0), trace=[0, 1])
    assert render(report, "json").endswith('"trace": [\n    0.0,\n    1.0\n  ]\n}\n')
    assert render(report, "csv") == "iteration,marked_probability\n0,0\n1,1\n"


# one of each way an entry can be spelled, in one block at CHUNK_LINES 256: signed zeros, an exact
# 1.0, ints and a bool, a subnormal, exponent forms, the edge 0.9999999999, a value that rounds up
# to 1, and values of 11 to 13 digits, where {:.12} and json.dumps part (1e12 is 1e+12)
SPELLING_CLASSES = [0.0, -0.0, 1.0, 0, 1, True, 5e-324, 1e-05, 0.9999999999, 0.99999999999951,
                    1e11, 123456789012.0, 1e12]


@pytest.mark.parametrize("chunk", [1, 3, 256])
def test_every_spelling_class_in_one_block_matches_a_per_entry_reference(chunk):
    report = dict(build_grover_simulate_report(4, 1, 0), trace=SPELLING_CLASSES)
    rows = list(enumerate(SPELLING_CLASSES))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reports, "CHUNK_LINES", chunk)
        assert render(report, "json").endswith('"trace": [\n    ' + ",\n    ".join(
            f"{float(x):.12}" for x in SPELLING_CLASSES) + "\n  ]\n}\n")
        assert render(report, "text").endswith("\n\niteration  marked_probability" + "".join(
            f"\n{i:<9}  " + "%.12g" % x for i, x in rows) + "\n")
        assert render(report, "csv") == "iteration,marked_probability\n" + "".join(
            f"{i},%.12g\n" % x for i, x in rows)


@pytest.mark.parametrize("trace", [[], RoundedTrace(())], ids=["list", "view"])
def test_an_empty_trace_renders_as_its_references(trace):  # in JSON, "trace": [] on one line
    _simulate_renderings_match_references(dict(build_grover_simulate_report(4, 1, 0),
                                               trace=trace), 256)


def _dumped(report):
    """A report and its JSON as json.dumps spells it."""
    return report, json.dumps(report, indent=2) + "\n"


def _analyze_json_case(aas, symmetrize, name, table_id, source):
    if symmetrize:
        aas = symmetry.symmetrized_code(GeneticCode(name="", id=None, aas=aas)).aas
    return _dumped(build_analyze_report(GeneticCode(name=name, id=table_id, aas=aas), source))


def _count_json_case(letters, k, r):
    """A count report and its JSON: json.dumps of the report, one class to a line."""
    report = build_count_report(k, r, alphabet=letters[:k])
    classes = [{"word": c.canonical_word, "counts": list(c.counts), "size": class_size(c)}
               for c in report["classes"]]
    head = {key: value for key, value in report.items() if key != "classes"}
    head["partition_identity_holds"] = sum(c["size"] for c in classes) == report["arrangements"]
    text = json.dumps(dict(head, classes=[0]), indent=2) + "\n"
    lines = ",\n    ".join(map(json.dumps, classes))
    return report, text.replace("\n    0\n", f"\n    {lines}\n")


def _simulate_json_case(args):
    """A simulate report and its JSON: json.dumps of the report with its trace listed."""
    report = build_grover_simulate_report(*args)
    return report, json.dumps(dict(report, trace=list(report["trace"])), indent=2) + "\n"


_positive = st.floats(1e-30, 1e-10)
_JSON_CASES = st.one_of(
    st.builds(_analyze_json_case,
              aas=st.one_of(st.text(PRODUCT_SYMBOLS, min_size=64, max_size=64),
                            st.sampled_from(PRODUCT_SYMBOLS).map(lambda symbol: symbol * 64)),
              symmetrize=st.booleans(), name=st.text(), table_id=st.none() | st.integers(),
              source=st.text()),
    st.builds(_count_json_case, st.permutations(_CSV_LETTERS), st.integers(1, 7),
              st.integers(0, 4)),
    st.builds(build_count_report, st.integers(1, 30), st.integers(0, 200),
              include_classes=st.just(False)).map(_dumped),
    st.builds(build_energy_report, st.builds(PhysicalParams, _positive, _positive, _positive,
                                             _positive), st.floats(0.1, 10)).map(_dumped),
    st.builds(build_grover_solve_n_report, st.integers(0, 10**6)).map(_dumped),
    st.builds(build_grover_solve_q_report, st.floats(1, 1e15)).map(_dumped),
    _simulations().map(_simulate_json_case),
)


@given(case=_JSON_CASES)
@example(case=_analyze_json_case(builtin_standard_code().aas, False, "Standard", 1,
                                 "builtin:standard"))
@example(case=_analyze_json_case("*" * 64, False, "stops", None, "random"))
@settings(max_examples=400, deadline=None)
def test_every_json_report_matches_json_dumps(case):
    """Each command's JSON, from its one cached layout, is json.dumps(report, indent=2) + "\\n".

    A count lists its classes one to a line, each as json.dumps spells it.
    """
    report, expected = case
    assert render(report, "json") == expected


def test_json_of_a_report_with_a_key_added_or_removed():
    # a layout serves only reports of its own keys, at every depth
    def dumped(report):
        return json.dumps(report, indent=2) + "\n"

    solve_n = build_grover_solve_n_report(3)
    energy = build_energy_report(PhysicalParams(), 3.0)
    assert render(solve_n, "json") == dumped(solve_n)  # lays out each command's own layout
    assert render(energy, "json") == dumped(energy)
    added, removed, tagged = dict(solve_n, note="x"), dict(solve_n), dict(solve_n, tags=[])
    del removed["q"]
    nested_added, nested_removed = json.loads(dumped(energy)), json.loads(dumped(energy))
    nested_tagged = json.loads(dumped(energy))
    nested_added["params"]["extra"] = 1.5
    del nested_removed["scale"]["factor"]
    nested_tagged["params"]["tags"] = nested_tagged["scale"]["tags"] = []  # each [] has a slot
    nested_renamed = json.loads(dumped(energy))  # the same values, one key fewer and one more
    nested_renamed["params"]["h"] = nested_renamed["params"].pop("hbar")
    # the same keys at every depth, an object moved from one key to the other
    moved = [dict(solve_n, t={"a": {"b": 1}, "c": 2}), dict(solve_n, t={"a": 2, "c": {"b": 1}})]
    for report in (added, removed, tagged, nested_added, nested_removed, nested_tagged,
                   nested_renamed, *moved, solve_n, energy):
        assert render(report, "json") == dumped(report)


class _Level(IntEnum):  # an int subclass: json.dumps spells a member as its int
    LOW = 1


def test_json_of_one_report_never_changes_how_another_prints(monkeypatch):
    # a value that the walk does not descend into is one slot, in the layout cache's key too, and
    # printed as json.dumps prints it: a dict subclass, a tuple, an IntEnum member. A key 1 is
    # equal to a key True, yet each prints its own spelling
    monkeypatch.setattr(reports, "_json_layouts", {})
    solve_n = build_grover_solve_n_report(3)
    for value in (OrderedDict(a=1), 5, (1, 2), Counter("ab"), [OrderedDict(a=1)], _Level.LOW,
                  {True: 1}, {1: 1}, [{"a": 1}, (2,)], 1.5):
        report = dict(solve_n, t=value)
        assert render(report, "json") == json.dumps(report, indent=2) + "\n"
    report = OrderedDict(solve_n, t=(1, 2))  # the report itself a dict subclass
    assert render(report, "json") == json.dumps(report, indent=2) + "\n"


def test_json_of_a_report_holds_no_reference_to_its_stream_afterwards():
    # with the cyclic collector off, a reference left in a cycle would stay: a long trace's
    # floats would live on until some later collection, which then frees them mid-operation
    for report in (build_grover_simulate_report(4, 300, 0), build_count_report(3, 4)):
        stream = next(value for key, value in report.items() if key in ("trace", "classes"))
        before = sys.getrefcount(stream)
        gc.disable()
        try:
            render(report, "json")
            assert sys.getrefcount(stream) == before
        finally:
            gc.enable()


_JSON_EDITS = st.recursive(  # lists of any JSON value: nested, mixed, of objects or of strings;
    # tuples, OrderedDicts and an IntEnum member, which json.dumps spells as lists, objects and ints
    st.none() | st.booleans() | st.integers(-10**30, 10**30) | st.text() | st.just(_Level.LOW)
    | st.floats(allow_nan=False, allow_infinity=False) | st.lists(st.text(), max_size=4),
    lambda values: st.dictionaries(st.text(), values, max_size=3) | st.lists(values, max_size=4)
    | st.lists(values, max_size=4).map(tuple)
    | st.dictionaries(st.text(), values, max_size=3).map(OrderedDict),
    max_leaves=8)


def _objects(node):
    """Every object in a report, itself first, depth first."""
    if isinstance(node, dict):
        yield node
    for value in node.values() if isinstance(node, dict) else node:
        if isinstance(value, (dict, list)):
            yield from _objects(value)


def _listed(report, stream):
    """A report as json.dumps can take it, its stream listed, and its JSON: json.dumps's, but a
    count's classes one to a line, its partition identity just before them."""
    if stream == "trace":
        return _dumped(dict(report, trace=list(report["trace"])))
    if stream is None:
        return _dumped(report)
    listed = {}
    for key, value in report.items():
        if key == "classes":
            value = [{"word": c.canonical_word, "counts": list(c.counts), "size": class_size(c)}
                     for c in value]
            total = sum(c["size"] for c in value)
            listed["partition_identity_holds"] = total == report["arrangements"]
        listed[key] = value
    text = json.dumps(dict(listed, classes=[0]), indent=2) + "\n"
    lines = ",\n    ".join(map(json.dumps, listed["classes"]))
    return listed, text.replace('\n  "classes": [\n    0\n', f'\n  "classes": [\n    {lines}\n')


@given(data=st.data(), report=st.sampled_from([
    build_grover_solve_n_report(3), build_grover_solve_q_report(20.2),
    build_energy_report(PhysicalParams(), 3.0), build_count_report(4, 3, include_classes=False),
    build_analyze_report(builtin_standard_code(), "builtin:standard"),
    dict(build_grover_simulate_report(5, 3, 1), tags=["a"]),
    dict(build_count_report(3, 2, alphabet='"%\u00e9'), tags=["a"])]))  # a key after the stream
@example(data=None, report=dict(build_grover_solve_n_report(3), tags=["a", "b"]))  # at its depth
@example(data=None, report=dict(build_grover_solve_n_report(3), tags=['say "x"']))  # escaped
@example(data=None, report=dict(build_grover_solve_n_report(3), tags=["\u00e9"]))  # as \u00e9
@example(data=None, report={"command": "energy", "\0": 1, "q": {"x": ["\\", "\n"]}})
@example(data=None, report=dict(build_grover_simulate_report(4, 2, 0), tags=["a"]))  # after it
@example(data=None, report=dict(build_grover_solve_n_report(3), tags=[1, 2]))  # not all strings
@example(data=None, report=dict(build_grover_solve_n_report(3), t=(1, 2)))  # a tuple, as a list
@settings(max_examples=300, deadline=None)
def test_json_of_a_report_edited_at_any_depth_matches_json_dumps(data, report):
    """A key added to any object, holding a scalar, a list of any values, [] or an object: the JSON
    is json.dumps's, each list of strings at its depth and escaped, and it loads as the report. A
    stream (a trace, a count's classes) is listed where its key sits, before the keys after it."""
    stream = next((key for key in ("trace", "classes") if key in report), None)
    streamed = {stream: report[stream]} if stream else {}
    report = copy.deepcopy(dict(report, **dict.fromkeys(streamed)))  # a copy to edit
    if data is not None:
        node = data.draw(st.sampled_from(list(_objects(report))))
        node[data.draw(st.text().filter(lambda key: key not in node))] = data.draw(_JSON_EDITS)
    report.update(streamed)  # the stream back at its place
    listed, expected = _listed(report, stream)
    text = render(report, "json")
    assert text == expected
    assert json.loads(text) == json.loads(json.dumps(listed))  # tuples load as lists


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


# every int and float option of every command, as (command words, option, kind)
NUMERIC_OPTIONS = [(command.split(), name, kind)
                   for command, (_, options, _) in cli.COMMANDS.items() if options is not None
                   for name, (kind, *_) in options().items() if kind in (int, float)]


@pytest.mark.parametrize("argv, name, kind", NUMERIC_OPTIONS,
                         ids=["-".join([*argv, name]) for argv, name, _ in NUMERIC_OPTIONS])
def test_a_non_numeric_flag_is_refused_as_its_config_value_is(tmp_path, argv, name, kind):
    # flags reach the one converter as strings, as config values may, so both get one line
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({name: "x"}))
    noun = "an integer" if kind is int else "a number"
    refused = (2, "", f"error: {name} must be {noun}, got 'x'\n")
    assert run_cli(*argv, "--" + name.replace("_", "-"), "x") == refused
    assert run_cli(*argv, "--config", str(path)) == refused


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


@given(st.floats(sys.float_info.min, 1 + 1e-9) | st.floats(0, sys.float_info.min))
@example(0.0)
@example(0.25)
@example(1.0)
@example(9.99999999999951e-05)  # rounds up to 0.0001, where the spelling leaves exponent form
@example(0.9999999999)  # the edge of 0 < x < 0.9999999999, inside which %.12g is {:.12}
@example(math.nextafter(0.9999999999, 0))
@example(0.99999999999951)  # rounds up to 1, which %.12g spells without the point
@example(5e-324)
@example(1e-05)
@settings(max_examples=4000)  # about half draw subnormals
def test_a_trace_entry_is_spelled_as_its_rounding(x):
    """A simulate trace's layouts spell the run's own floats: {:.12} in JSON is repr (json.dumps's
    spelling) of the rounded value, and {:.12g} in text and CSV is the rounded value's spelling.
    The `%` templates that spell a block of text or CSV rows at once give the same bytes: %.12g
    is {:.12g}, and inside 0 < x < 0.9999999999 it is {:.12} too, the JSON template's spelling.

    Every trace entry is a probability that is 0.0 or a normal float. Subnormals differ from
    their rounding's repr: 5e-324 is spelled 4.94065645841e-324, by %.12g and {:.12} alike.
    """
    if x == 0 or x >= sys.float_info.min:
        assert f"{x:.12}" == repr(round_sig(x))
    assert f"{x:.12g}" == f"{round_sig(x):.12g}"
    assert "%.12g" % x == f"{x:.12g}"
    if 0 < x < 0.9999999999:
        assert "%.12g" % x == f"{x:.12}"


def test_one_layout_row_per_command_as_the_cli_names_it():
    from codonlab.cli import COMMANDS
    leaves = {command for command, (_, options, _) in COMMANDS.items() if options is not None}
    assert set(reports._LAYOUTS) == leaves | {"count --skip-classes"}


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


# --- start-up: what a call loads -------------------------------------------------

# Runs `python -m codonlab ARGS`, or just `import codonlab` without ARGS, and
# prints every module then loaded to stderr.
LIST_LOADED = """
import sys
if len(sys.argv) > 1:
    import runpy
    try:
        runpy.run_module("codonlab", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        assert not exc.code, exc.code
else:
    import codonlab
print(*sorted(sys.modules), file=sys.stderr)
"""


def loaded_modules(*argv) -> set:
    """The modules a fresh `python -S` process has loaded after the call.

    -S skips the site module, so that modules its .pth files preload cannot
    hide an import the call makes itself.
    """
    env = dict(os.environ, PYTHONPATH=str(Path(codonlab.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-S", "-c", LIST_LOADED, *argv], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    return set(result.stderr.split())


def test_import_loads_no_numpy():
    loaded = loaded_modules()
    assert "codonlab" in loaded and "numpy" not in loaded
    assert not [name for name in loaded if name.startswith("codonlab.")]


@pytest.mark.parametrize("argv, unloaded", [
    (["energy"], {"dataclasses", "inspect", "json", "csv", "random", "codonlab.symmetry",
                  "codonlab.combinatorics", "codonlab.genetic_code", "codonlab.grover"}),
    (["grover", "solve-n", "--q", "3"], {"dataclasses", "inspect", "csv", "codonlab.symmetry",
                                         "codonlab.physics", "codonlab.combinatorics",
                                         "codonlab.genetic_code"}),
    # a CSV report is written without the csv module
    (["count", "--k", "4", "--r", "3", "--format", "csv"], {"csv", "_csv", "json"}),
    (["grover", "simulate", "--n", "4", "--q", "3", "--format", "csv"], {"csv", "_csv", "json"}),
])
def test_a_subcommand_loads_only_what_it_uses(argv, unloaded):
    loaded = loaded_modules(*argv)
    assert {"codonlab.cli", "codonlab.reports"} <= loaded  # the call ran
    assert not loaded & unloaded


def test_every_lazy_name_is_its_module_attribute():
    for name, module in codonlab._EXPORTS.items():
        vars(codonlab).pop(name, None)  # resolved anew, through the module __getattr__
        assert getattr(codonlab, name) is getattr(importlib.import_module(f"codonlab.{module}"),
                                                  name)
    assert len(set(codonlab.__all__)) == len(codonlab.__all__)
    assert set(codonlab.__all__) == set(codonlab._EXPORTS)
    listed = dir(codonlab)
    assert len(set(listed)) == len(listed) and set(codonlab.__all__) <= set(listed)
    with pytest.raises(AttributeError, match="no_such_name"):
        codonlab.no_such_name  # noqa: B018
    namespace = {}
    exec("from codonlab import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(codonlab.__all__)


def test_reader_closing_stdout_early_exits_2_without_traceback():
    # about 3 MB of JSON, far more than a pipe holds, so the run is still writing
    child = subprocess.Popen(
        [sys.executable, "-m", "codonlab", "count", "--k", "6", "--r", "20", "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert child.stdout.read(10) == b'{\n  "comma'
    child.stdout.close()
    with child.stderr:
        err = child.stderr.read().decode()
    assert child.wait(timeout=60) == 2
    assert err == "error: cannot write the report to stdout: [Errno 32] Broken pipe\n"


def _closed_stdout_run(argv):
    """`python -m codonlab ARGV` started with no stdout at all, as `>&-` starts it."""
    return subprocess.run(["sh", "-c", 'exec "$@" >&-', "sh", sys.executable, "-m", "codonlab",
                           *argv], stderr=subprocess.PIPE, timeout=60)


@pytest.mark.parametrize("argv", [
    ["energy"],
    ["count", "--k", "4", "--r", "3"],
    ["grover", "solve-n", "--q", "3"],
    ["analyze", "--builtin", "standard", "--format", "json"],
])
def test_a_closed_stdout_exits_2_without_traceback(argv):
    result = _closed_stdout_run(argv)
    assert result.returncode == 2
    assert result.stderr == b"error: cannot write the report to stdout: stdout is closed\n"


def test_a_closed_stdout_does_not_stop_a_report_to_a_file(tmp_path):
    target = tmp_path / "energy.txt"
    result = _closed_stdout_run(["energy", "-o", str(target)])
    assert (result.returncode, result.stderr) == (0, b"")
    assert target.read_text(encoding="utf-8") == run_cli("energy")[1]


@pytest.mark.parametrize("argv", [
    ["count", "--k", "2", "--r", "1", "--alphabet", "\u00e9a"],
    ["count", "--k", "2", "--r", "3", "--alphabet", "a\u00e9", "--format", "csv"],
    ["analyze", "--table", str(GOLDEN / "escaped_name.table")],
])
def test_a_stdout_that_cannot_spell_the_report_exits_2_with_nothing_written(argv):
    env = dict(os.environ, PYTHONIOENCODING="ascii")
    result = subprocess.run([sys.executable, "-m", "codonlab", *argv], capture_output=True,
                            env=env, timeout=60)
    assert result.returncode == 2
    assert result.stdout == b""
    assert result.stderr.startswith(b"error: cannot write the report to stdout: 'ascii' codec")
    # the same report in JSON escapes every non-ASCII letter, so that stdout can hold it
    assert subprocess.run([sys.executable, "-m", "codonlab", *argv, "--format", "json"],
                          capture_output=True, env=env, timeout=60).returncode == 0


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


SILENCED_STREAMS = """
import os
from codonlab import cli

report_to = os.dup(1)
counts = []
for _ in range(4):
    for fd in (1, 2):  # a pipe whose reader is gone: every write to it fails
        read, write = os.pipe()
        os.close(read)
        os.dup2(write, fd)
        os.close(write)
    status = cli.main(["grover", "solve-n", "--q", "3"])
    counts.append(len(os.listdir("/proc/self/fd")))
os.write(report_to, f"{status} {counts}".encode())
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd to count")
def test_a_failed_stream_is_silenced_without_leaking_a_descriptor():
    # each in-process run fails on stdout, then on stderr, and points both at the null device
    result = subprocess.run([sys.executable, "-c", SILENCED_STREAMS], capture_output=True,
                            timeout=60)
    assert result.returncode == 0
    status, counts = result.stdout.decode().split(" ", 1)
    assert status == "2"
    counts = json.loads(counts)
    assert counts == [counts[0]] * 4, counts


def test_subprocess_exit_codes():
    assert module_run(["count", "--k", "4", "--r", "3", "--cap", "5"]).returncode == 3
    assert module_run(["count", "--k", "4"]).returncode == 2
    assert module_run(["count", "--k", "4", "--r", "3"]).returncode == 0
