"""Command-line interface.

Subcommands: count, analyze, grover (solve-n | solve-q | simulate), energy.
Exit codes: 0 success, 2 invalid input or parse error, 3 capacity exceeded.

Every option can also come from a JSON config file passed with --config;
explicit flags always win over config values, which win over built-in
defaults. Every input is checked before the first byte of a report is
written, so a refused run emits nothing; reports then stream to stdout, or
to --output through a temporary file that replaces the target only when
complete.
"""

import argparse
import json
import os
import sys

from . import __version__, reports
from .combinatorics import DEFAULT_CLASS_CAP
from .errors import CodonLabError, InvalidParamsError
from .genetic_code import BUILTIN_TABLE_TEXTS, builtin_code, parse_table
from .grover import DEFAULT_SIM_CAP
from .physics import PhysicalParams
from .symmetry import random_code

REQUIRED = object()  # the default of an option that a run cannot do without


# command -> (help, {option: (kind, default, help[, argparse settings])}): a kind is int,
# float, str or bool (a flag that sets True); a default is a value, None or REQUIRED.
# A command of several modes has None for options; each mode is a command of its own.
COMMANDS = {
    "count": ("count and enumerate word content classes", {
        "k": (int, REQUIRED, "alphabet size"),
        "r": (int, REQUIRED, "word length"),
        "alphabet": (str, None, "k distinct letters to enumerate over (default A, B, C, ...)"),
        "cap": (int, DEFAULT_CLASS_CAP, "class enumeration cap"),
        "skip_classes": (bool, False, "emit the two counts only, without enumerating classes"),
    }),
    "analyze": ("partition a genetic code and measure coherence", {
        "builtin": (str, None, f"built-in table name ({', '.join(sorted(BUILTIN_TABLE_TEXTS))})"),
        "table": (str, None, "translation-table file", {"metavar": "PATH"}),
        "random_seed": (int, None, "analyze a seeded synthetic random code instead of a table"),
    }),
    "grover": ("query-count relations and search simulation", None),
    "grover solve-n": ("database size reachable with q queries", {
        "q": (int, REQUIRED, "query count"),
    }),
    "grover solve-q": ("query count needed for database size n", {
        "n": (float, REQUIRED, "database size (real, >= 1)"),
    }),
    "grover simulate": ("exact two-amplitude simulation of the search", {
        "n": (int, REQUIRED, "database size (integer, >= 2)"),
        "q": (int, REQUIRED, "iterations to apply"),
        "marked": (int, 0, "marked index"),
        "cap": (int, DEFAULT_SIM_CAP, "simulation cap on both n and q"),
    }),
    "energy": ("uncertainty momentum/energy estimates (CGS)", {
        "hbar": (float, PhysicalParams.hbar, "erg*s"),
        "delta_x": (float, PhysicalParams.delta_x, "cm"),
        "mass": (float, PhysicalParams.mass, "g"),
        "hbond": (float, PhysicalParams.hbond_energy, "hydrogen-bond energy, erg"),
        "scale": (float, 3.0, "length-scale factor to compare against"),  # a codon is 3 bases
    }),
}
# the options every command takes after its own, each with a one-letter flag too
_COMMON = {
    "format": (str, "text", "output format", {"choices": ("text", "json", "csv")}),
    "output": (str, None, "write the report to PATH instead of stdout", {"metavar": "PATH"}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="codonlab",
        description="Codon content-class counting, genetic-code symmetry analysis, "
                    "search-query numerics and uncertainty-energy estimates.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subparsers = {"": parser.add_subparsers(dest="command", required=True)}
    for command, (summary, options) in COMMANDS.items():
        group, _, name = command.rpartition(" ")
        p = subparsers[group].add_parser(name, help=summary)
        if options is None:
            subparsers[command] = p.add_subparsers(dest="mode", required=True)
            continue
        for option, (kind, default, text, *extra) in {**options, **_COMMON}.items():
            settings = dict(*extra)
            if kind is bool:
                settings.update(action="store_const", const=True)
            else:
                settings.update(type=kind)
                if default not in (None, REQUIRED):
                    text = f"{text} (default {default})"
            flags = [f"-{option[0]}"] if option in _COMMON else []
            p.add_argument("--" + option.replace("_", "-"), *flags, help=text, **settings)
        p.add_argument("--config", "-c", metavar="PATH",
                       help="JSON file with option defaults; explicit flags win")
    return parser


def _options(args, parser, command) -> dict:
    """Every option of `command`: its flag, else its config-file value, else its default.

    Config keys are checked against the command's options when the file is read; every
    value is then checked for type and choices, the required ones for presence, before any work.
    """
    options = {**COMMANDS[command][1], **_COMMON}
    config = {}
    if args.config is not None:
        try:
            with open(args.config, encoding="utf-8") as handle:
                config = json.load(handle)
        except (OSError, ValueError) as exc:
            parser.error(f"cannot read config file: {exc}")
        if not isinstance(config, dict):
            parser.error("config file must hold a JSON object")
        unknown = sorted(set(config) - set(options))
        if unknown:
            parser.error(f"config file has unknown option(s) {', '.join(map(repr, unknown))}"
                         f" for this command")
    values = {}
    for name, (kind, default, _, *extra) in options.items():
        value = getattr(args, name)
        if value is None:
            value = config.get(name)  # a JSON null counts as absent
        if value is None and default is not REQUIRED:
            value = default
        values[name] = None if value is None else _convert(value, kind, name)
        choices = dict(*extra).get("choices")  # argparse checks a flag's; this, a config value's
        if choices and values[name] not in choices:
            raise InvalidParamsError(f"{name} must be one of {', '.join(choices)}, got {value!r}")
    required = [name for name, (_, default, *_) in options.items() if default is REQUIRED]
    if any(values[name] is None for name in required):
        parser.error(f"{command} requires {' and '.join('--' + name for name in required)}")
    return values


def _convert(value, kind, name):
    """Check or convert an option value, from a flag or a config file, to `kind`.

    str and bool options take only values of that type. Numbers take ints,
    floats and numeric strings, never booleans; an int option takes a float
    only when it is integral: 3.0 is 3, 3.7 is refused rather than truncated.
    """
    if kind in (str, bool):
        if isinstance(value, kind):
            return value
        noun = "a string" if kind is str else "true or false"
        raise InvalidParamsError(f"{name} must be {noun}, got {value!r}")
    try:
        if isinstance(value, bool):
            raise ValueError
        number = kind(value)
        if kind is int and isinstance(value, float) and number != value:
            raise ValueError
        return number
    except (TypeError, ValueError, OverflowError):
        noun = "an integer" if kind is int else "a number"
        raise InvalidParamsError(f"{name} must be {noun}, got {value!r}") from None


def _report(command, options, parser) -> dict:
    """Build `command`'s report from its resolved options."""
    if command == "count":
        return reports.build_count_report(
            options["k"],
            options["r"],
            alphabet=options["alphabet"],
            cap=options["cap"],
            include_classes=not options["skip_classes"],
        )
    if command == "analyze":
        name, path, seed = options["builtin"], options["table"], options["random_seed"]
        if [name, path, seed].count(None) != 2:
            parser.error("analyze requires exactly one of --builtin, --table, --random-seed")
        if name is not None:
            code, source = builtin_code(name), f"builtin:{name}"
        elif path is not None:
            try:
                path.encode("utf-8")  # the report prints the path, so it must be UTF-8
                with open(path, encoding="utf-8") as handle:
                    text = handle.read()
            except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or a NUL in the path
                raise InvalidParamsError(f"cannot read table file: {exc}") from exc
            code, source = parse_table(text), f"table:{path}"
        else:
            code, source = random_code(seed), f"random-seed:{seed}"
        return reports.build_analyze_report(code, source)
    if command == "grover solve-n":
        return reports.build_grover_solve_n_report(options["q"])
    if command == "grover solve-q":
        return reports.build_grover_solve_q_report(options["n"])
    if command == "grover simulate":
        return reports.build_grover_simulate_report(
            options["n"], options["q"], options["marked"], cap=options["cap"]
        )
    params = PhysicalParams(options["hbar"], options["delta_x"], options["mass"], options["hbond"])
    return reports.build_energy_report(params, options["scale"])


def _write(chunks, output) -> None:
    """Stream the report's chunks to stdout or to the `output` file.

    A file is written under a temporary name in the target's directory and
    moved over the target only once complete, so a failed run leaves no
    partial file and no temporary one; a replaced file keeps its permission
    bits. A target that exists but is not a regular file (a device, a pipe)
    has nothing to replace and is written directly.
    """
    if output in (None, "-"):
        try:
            sys.stdout.writelines(chunks)
            sys.stdout.flush()
        except OSError as exc:  # say, a reader that stopped early (`| head`)
            # point stdout at nothing, so the interpreter's last flush cannot fail again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            raise InvalidParamsError(f"cannot write the report to stdout: {exc}") from exc
        return
    try:
        path = os.path.realpath(output)
        direct = os.path.exists(path) and not os.path.isfile(path)
        mode = os.stat(path).st_mode & 0o7777 if os.path.isfile(path) else None
        temporary = path if direct else os.path.join(
            os.path.dirname(path), f".{os.path.basename(path)}.{os.getpid()}.tmp")
        handle = open(temporary, "w" if direct else "x", encoding="utf-8", newline="")
    except (OSError, ValueError) as exc:  # ValueError: a path holding a NUL character
        raise InvalidParamsError(f"cannot write output file {output!r}: {exc}") from exc
    try:
        with handle:
            handle.writelines(chunks)
        if not direct:
            if mode is not None:  # a replaced file keeps its permissions
                os.chmod(temporary, mode)
            os.replace(temporary, path)
    except BaseException as exc:
        if not direct:
            try:
                os.remove(temporary)
            except OSError:
                pass
        if isinstance(exc, OSError):
            raise InvalidParamsError(f"cannot write output file {output!r}: {exc}") from exc
        raise


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    command = " ".join(filter(None, (args.command, getattr(args, "mode", None))))
    try:
        options = _options(args, parser, command)
        report = _report(command, options, parser)
        _write(reports.emit(report, fmt=options["format"]), options["output"])
    except CodonLabError as exc:
        try:
            print(f"error: {exc}", file=sys.stderr)
        except OSError:  # a closed stderr: point it at nothing, as _write does stdout
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stderr.fileno())
        return exc.exit_code
    return 0
