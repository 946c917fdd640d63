"""Property test of the CLI contract over generated argv and config files.

Whatever the options, their values and where they come from (flags or a
config file), a run exits 0, 2 or 3 without a traceback; a failed run
prints nothing to stdout; JSON output is strict RFC 8259; and a failed run
with --output leaves neither the target nor a temporary file behind.
"""

import json
import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from codonlab import reports
from codonlab.genetic_code import STANDARD_TABLE_TEXT
from test_reports_cli import run_cli, strict_json

TEXT = st.text(max_size=6)
ANY = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 30), st.floats(), TEXT,
    st.lists(st.integers(), max_size=2),
)


def ints(low, high, *extremes):
    """Integers in [low, high], and one time in ten one of the extremes."""
    if not extremes:
        return st.integers(low, high)
    return st.integers(0, 9).flatmap(
        lambda n: st.sampled_from(extremes) if n == 9 else st.integers(low, high))


def floats():
    return st.one_of(st.floats(), st.sampled_from([1e-27, 3.4e-8, 1.67e-24, 7e-14, 20.2, 3.0]))


# Each option's usual values, bounded so that an accepted run stays small;
# the extremes are refused by a cap, the digit bound or a range check.
OPTIONS = {
    ("count",): {
        "k": ints(-1, 6, 27, 10**6),
        "r": ints(-1, 7, 10**6, 10**30),
        "alphabet": st.one_of(TEXT, st.sampled_from(['A,"', "\\x\u00e9", "ACGU"])),
        "cap": ints(-1, 2000),
        "skip_classes": st.booleans(),
    },
    ("analyze",): {
        "builtin": st.one_of(TEXT, st.just("standard")),
        "table": st.sampled_from(["table.txt", "missing.txt", "."]),
        "random_seed": ints(-5, 10**6, 2**64),
    },
    ("grover", "solve-n"): {"q": ints(-2, 100, 10**30, 10**400)},
    ("grover", "solve-q"): {"n": floats()},
    ("grover", "simulate"): {
        "n": ints(-1, 300, 2**20, 2**20 + 1),
        "q": ints(-1, 60, 2**20 + 1),
        "marked": ints(-1, 300),
        "cap": ints(-1, 2000),
    },
    ("energy",): {name: floats() for name in ("hbar", "delta_x", "mass", "hbond", "scale")},
}
TABLES = st.one_of(
    st.just(STANDARD_TABLE_TEXT),
    st.just(STANDARD_TABLE_TEXT.replace("TCAG", "TCG", 1)),
    TEXT,
    st.just(b"\xff\xfe"),
)


# Options a run needs; analyze needs exactly one of its three.
REQUIRED = {
    ("count",): ("k", "r"),
    ("analyze",): (),
    ("grover", "solve-n"): ("q",),
    ("grover", "solve-q"): ("n",),
    ("grover", "simulate"): ("n", "q"),
    ("energy",): (),
}


def rarely(draw, strategy, usual):
    """A value from `strategy` one time in ten, else one from `usual`."""
    return draw(strategy if draw(st.integers(0, 9)) == 9 else usual)


@st.composite
def invocations(draw):
    """(command words, {option: (value, "flag" | "config")}, extra config keys,
    format, output choice, table file content, config file mode)."""
    command = draw(st.sampled_from(sorted(OPTIONS)))
    required = REQUIRED[command] or (draw(st.sampled_from(sorted(OPTIONS[command]))),)
    options = {}
    for name, values in OPTIONS[command].items():
        place = draw(st.sampled_from(["flag", "config"] if name in required
                                     else ["absent", "absent", "flag", "config"]))
        if place != "absent":
            options[name] = (rarely(draw, ANY, values), place)
    extra = rarely(draw, st.dictionaries(st.sampled_from(["bogus", "k", "q", "hbar", "command"]),
                                         ANY, min_size=1, max_size=1), st.just({}))
    fmt = rarely(draw, ANY, st.sampled_from([None, "text", "json", "csv"]))
    fmt_place = draw(st.sampled_from(["flag", "config"]))
    output = draw(st.sampled_from([None, None, "-", "report.out", "report.out",
                                   "missing/report.out", "."]))
    table = draw(TABLES)
    config_mode = rarely(draw, st.sampled_from(["list", "broken", "absent-file"]), st.just("json"))
    return command, options, extra, (fmt, fmt_place), output, table, config_mode


def flag(name, value):
    spelled = "--" + name.replace("_", "-")
    if name == "skip_classes":
        return [spelled] if value is True else []
    return [f"{spelled}={value}"]


@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(invocations())
def test_cli_contract_holds_for_generated_invocations(invocation):
    command, options, extra, (fmt, fmt_place), output, table, config_mode = invocation
    with tempfile.TemporaryDirectory() as workdir:
        argv = list(command)
        config = dict(extra)
        for name, (value, place) in options.items():
            if name == "table" and isinstance(value, str):
                value = os.path.join(workdir, value)
            if place == "flag":
                argv += flag(name, value)
            else:
                config[name] = value
        if fmt is not None:
            if fmt_place == "flag" and isinstance(fmt, str):
                argv.append(f"--format={fmt}")
            else:
                config["format"] = fmt
        target = None
        if output is not None:
            target = output if output == "-" else os.path.join(workdir, output)
            argv.append(f"--output={target}")
        if isinstance(table, bytes):
            with open(os.path.join(workdir, "table.txt"), "wb") as handle:
                handle.write(table)
        else:
            with open(os.path.join(workdir, "table.txt"), "w", encoding="utf-8") as handle:
                handle.write(table)
        if config:
            path = os.path.join(workdir, "config.json")
            if config_mode != "absent-file":
                with open(path, "w", encoding="utf-8") as handle:
                    if config_mode == "json":
                        json.dump(config, handle)
                    elif config_mode == "list":
                        json.dump(list(config), handle)
                    else:
                        handle.write("{not json")
            argv.append(f"--config={path}")
        before = set(os.listdir(workdir))

        code, out, err = run_cli(*argv)

        assert code in (0, 2, 3), (argv, config, err)
        assert "Traceback" not in err
        after = set(os.listdir(workdir))
        if code != 0:
            assert out == "", (argv, config)
            assert err
            assert after == before, (argv, config, after - before)
            return
        to_file = target not in (None, "-")
        assert after == before | ({output} if to_file else set())
        if to_file:
            assert out == ""
            with open(target, encoding="utf-8") as handle:
                out = handle.read()
        effective = argv_format(argv) or config.get("format") or "text"
        assert out.endswith("\n")
        if effective == "json":
            strict_json(out)


def argv_format(argv):
    for word in argv:
        if word.startswith("--format="):
            return word[len("--format="):]
    return None


def failing_after(count, error):
    """An emit() whose chunk stream raises `error` after `count` chunks."""
    emit = reports.emit

    def failing_emit(report, fmt="text"):
        chunks = emit(report, fmt)

        def stream():
            for number, chunk in enumerate(chunks):
                if number == count:
                    raise error
                yield chunk

        return stream()

    return failing_emit


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_failing_row_stream_leaves_no_output_file(tmp_path, monkeypatch, fmt):
    monkeypatch.setattr(reports, "CHUNK_LINES", 4)
    monkeypatch.setattr(reports, "emit", failing_after(3, OSError(28, "No space left on device")))
    target = tmp_path / "report.out"
    code, out, err = run_cli("count", "--k", "4", "--r", "3", "--format", fmt, "-o", str(target))
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write output file") and "No space left" in err
    assert os.listdir(tmp_path) == []

    target.write_text("previous report\n")
    code, _, _ = run_cli("count", "--k", "4", "--r", "3", "--format", fmt, "-o", str(target))
    assert code == 2
    assert target.read_text() == "previous report\n"
    assert os.listdir(tmp_path) == ["report.out"]


def test_crash_mid_stream_leaves_no_output_file(tmp_path, monkeypatch):
    monkeypatch.setattr(reports, "CHUNK_LINES", 4)
    monkeypatch.setattr(reports, "emit", failing_after(2, KeyboardInterrupt()))
    with pytest.raises(KeyboardInterrupt):
        run_cli("count", "--k", "4", "--r", "3", "-o", str(tmp_path / "report.out"))
    assert os.listdir(tmp_path) == []
