"""Command-line interface.

Subcommands: count, analyze, grover (solve-n | solve-q | simulate), energy.
Exit codes: 0 success, 2 invalid input or parse error, 3 capacity exceeded, 130 interrupted.

Every option can also come from a JSON config file passed with --config;
explicit flags always win over config values, which win over built-in
defaults. Every input is checked before the first byte of a report is
written, so a refused run emits nothing; reports then stream to stdout, or
to --output through a temporary file that replaces the target only when
complete.

A run loads only the modules its command uses: a command's options, and
the library values their defaults name, are read only when it runs.
"""

import argparse
import os
import sys

import codonlab  # the package, whose public names load their module on first use

from . import reports
from .errors import CodonLabError, InvalidParamsError

REQUIRED = object()  # the default of an option that a run cannot do without
_MAX_FILE_CHARS = 1 << 20  # a --table or --config file's cap: a table is 7 lines, a config a few


def _analyze(o) -> dict:
    """The analyze report of the one code named by --builtin, --table or --random-seed."""
    name, path, seed = o["builtin"], o["table"], o["random_seed"]
    if [name, path, seed].count(None) != 2:  # checked before any file is read
        raise InvalidParamsError("analyze requires exactly one of --builtin, --table,"
                                 " --random-seed")
    if name is not None:
        code, source = codonlab.builtin_code(name), f"builtin:{name}"
    elif path is not None:
        code, source = codonlab.parse_table(_read(path, "table")), f"table:{path}"
    else:
        code, source = codonlab.random_code(seed), f"random-seed:{seed}"
    return reports.build_analyze_report(code, source)


# command -> (help, options, build): options() is {option: (kind, default, help)}, called only
# when the command runs, so only then are the modules its defaults name loaded; build(o) makes the
# report from the resolved options o. A kind is int, float, str, bool (a flag that sets True) or
# the tuple of the strings allowed; a default is a value, None or REQUIRED. A command of several
# modes has None for options and build; each mode is a command of its own.
COMMANDS = {
    "count": ("count and enumerate word content classes", lambda: {
        "k": (int, REQUIRED, "alphabet size"),
        "r": (int, REQUIRED, "word length"),
        "alphabet": (str, None, "k distinct letters to enumerate over (default A, B, C, ...)"),
        "cap": (int, codonlab.DEFAULT_CLASS_CAP, "class enumeration cap"),
        "skip_classes": (bool, False, "emit the two counts only, without enumerating classes"),
    }, lambda o: reports.build_count_report(o["k"], o["r"], alphabet=o["alphabet"], cap=o["cap"],
                                            include_classes=not o["skip_classes"])),
    "analyze": ("partition a genetic code and measure coherence", lambda: {
        "builtin": (str, None,
                    f"built-in table name ({', '.join(sorted(codonlab.BUILTIN_TABLE_TEXTS))})"),
        "table": (str, None, "translation-table file"),
        "random_seed": (int, None, "analyze a seeded synthetic random code instead of a table"),
    }, _analyze),
    "grover": ("query-count relations and search simulation", None, None),
    "grover solve-n": ("database size reachable with q queries", lambda: {
        "q": (int, REQUIRED, "query count"),
    }, lambda o: reports.build_grover_solve_n_report(o["q"])),
    "grover solve-q": ("query count needed for database size n", lambda: {
        "n": (float, REQUIRED, "database size (real, >= 1)"),
    }, lambda o: reports.build_grover_solve_q_report(o["n"])),
    "grover simulate": ("exact two-amplitude simulation of the search", lambda: {
        "n": (int, REQUIRED, "database size (integer, >= 2)"),
        "q": (int, REQUIRED, "iterations to apply"),
        "marked": (int, 0, "marked index"),
        "cap": (int, codonlab.DEFAULT_SIM_CAP, "simulation cap on both n and q"),
    }, lambda o: reports.build_grover_simulate_report(o["n"], o["q"], o["marked"], cap=o["cap"])),
    "energy": ("uncertainty momentum/energy estimates (CGS)", lambda: {
        "hbar": (float, codonlab.PhysicalParams.hbar, "erg*s"),
        "delta_x": (float, codonlab.PhysicalParams.delta_x, "cm"),
        "mass": (float, codonlab.PhysicalParams.mass, "g"),
        "hbond": (float, codonlab.PhysicalParams.hbond_energy, "hydrogen-bond energy, erg"),
        "scale": (float, 3.0, "length-scale factor to compare against"),  # a codon is 3 bases
    }, lambda o: reports.build_energy_report(
        codonlab.PhysicalParams(o["hbar"], o["delta_x"], o["mass"], o["hbond"]), o["scale"])),
}
# the options every command takes after its own, each with a one-letter flag too
_COMMON = {
    "format": (("text", "json", "csv"), "text", "output format: text, json or csv"),
    "output": (str, None, "write the report to OUTPUT instead of stdout"),
}


def _command_options(command) -> dict:
    """Every option of `command`, its own and the common ones; see COMMANDS."""
    return {**COMMANDS[command][1](), **_COMMON}


class _Parser(argparse.ArgumentParser):
    """A parser that adds its command's options when it first parses or shows its help,
    so that a run imports the module, and reads the defaults, of its own command only."""

    command = None

    def error(self, message):  # an unknown flag, a missing value: one `error:` line, no usage
        raise InvalidParamsError(" ".join(message.splitlines()))  # it may quote a line break

    def parse_known_args(self, args=None, namespace=None):
        if self.command is not None:
            for option, (kind, default, text) in _command_options(self.command).items():
                settings = {"action": "store_const", "const": True} if kind is bool else {}
                if kind is not bool and default not in (None, REQUIRED):
                    text = f"{text} (default {default})"
                flags = [f"-{option[0]}"] if option in _COMMON else []
                self.add_argument("--" + option.replace("_", "-"), *flags, help=text, **settings)
            self.add_argument("--config", "-c", metavar="PATH",
                              help="JSON file with option defaults; explicit flags win")
            self.command = None
        return super().parse_known_args(args, namespace)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="codonlab",
        description="Codon content-class counting, genetic-code symmetry analysis, "
                    "search-query numerics and uncertainty-energy estimates.",
    )
    version = f"%(prog)s {codonlab.__version__}"
    parser.add_argument("--version", action="version", version=version)
    subparsers = {"": parser.add_subparsers(dest="command", required=True)}
    for command, (summary, options, _) in COMMANDS.items():
        group, _, name = command.rpartition(" ")
        p = subparsers[group].add_parser(name, help=summary)
        if options is None:
            subparsers[command] = p.add_subparsers(dest="mode", required=True)
        else:
            p.command = command
    return parser


def _options(args, command) -> dict:
    """Every option of `command`: its flag, else its config-file value, else its default.

    Config keys are checked against the command's options when the file is read; every
    value is then checked by `_convert`, the required ones for presence, before any work.
    """
    options = _command_options(command)
    config = {}
    if args.config is not None:
        import json
        config = _read(args.config, "config", json.loads)
        if not isinstance(config, dict):
            raise InvalidParamsError("config file must hold a JSON object")
        unknown = sorted(set(config) - set(options))
        if unknown:
            raise InvalidParamsError("config file has unknown option(s) "
                                     f"{', '.join(map(repr, unknown))} for this command")
    values = {}
    for name, (kind, default, _) in options.items():
        value = getattr(args, name)
        if value is None:
            value = config.get(name)  # a JSON null counts as absent
        if value is None and default is not REQUIRED:
            value = default
        values[name] = None if value is None else _convert(value, kind, name)
    required = [name for name, (_, default, _) in options.items() if default is REQUIRED]
    if any(values[name] is None for name in required):
        raise InvalidParamsError(f"{command} requires --{' and --'.join(required)}")
    return values


def _read(path, what, parse=str):
    """A --table or --config file's text past any byte-order mark, parsed by `parse`, or refused."""
    try:
        if what == "table":
            path.encode("utf-8")  # the report prints the path, so it must be UTF-8
        with open(path, encoding="utf-8-sig") as handle:
            text = handle.read(_MAX_FILE_CHARS + 1)  # so an endless file is refused as a long one
        if len(text) > _MAX_FILE_CHARS:
            raise ValueError(f"longer than {_MAX_FILE_CHARS} characters")
        return parse(text)
    except (OSError, ValueError, RecursionError) as exc:  # not UTF-8, a NUL in the path, deep JSON
        raise InvalidParamsError(f"cannot read {what} file: {exc}") from exc


def _convert(value, kind, name):
    """Check or convert an option value, a flag's string or a config file's value, to `kind`.

    A tuple kind takes only one of its strings; str and bool options take only values of
    that type. Numbers take ints, floats and numeric strings, never booleans; an int option
    takes a float only when it is integral: 3.0 is 3, 3.7 is refused rather than truncated.
    """
    if type(kind) is tuple:
        if value in kind:
            return value
        raise InvalidParamsError(f"{name} must be one of {', '.join(kind)}, got {value!r}")
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
            if sys.stdout is None:  # the run started with stdout closed
                raise OSError("stdout is closed")
            sys.stdout.writelines(chunks)
            sys.stdout.flush()
        except (OSError, UnicodeEncodeError) as exc:  # `| head`, or no letter in its encoding
            if sys.stdout is not None:  # point it at nothing, so the last flush cannot fail again
                _silence(sys.stdout)
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


def _silence(stream) -> None:  # point a failed stream at the null device, and close the copy
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, stream.fileno())
    os.close(null)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        command = " ".join(filter(None, (args.command, getattr(args, "mode", None))))
        options = _options(args, command)
        report = COMMANDS[command][2](options)
        _write(reports.emit(report, fmt=options["format"]), options["output"])
    except (CodonLabError, KeyboardInterrupt) as exc:  # Ctrl-C: one line and 128 + SIGINT
        interrupted = isinstance(exc, KeyboardInterrupt)
        try:
            print(f"error: {'interrupted' if interrupted else exc}", file=sys.stderr)
        except OSError:  # a closed stderr: point it at nothing, as _write does stdout
            _silence(sys.stderr)
        return 130 if interrupted else exc.exit_code
    return 0
