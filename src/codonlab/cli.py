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

DEFAULT_SCALE_FACTOR = 3.0  # codon length scale relative to a single nucleotide


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", "-f", choices=("text", "json", "csv"), default=None,
                        help="output format (default text)")
    parser.add_argument("--output", "-o", default=None, metavar="PATH",
                        help="write the report to PATH instead of stdout")
    parser.add_argument("--config", "-c", default=None, metavar="PATH",
                        help="JSON file with option defaults; explicit flags win")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="codonlab",
        description="Codon content-class counting, genetic-code symmetry analysis, "
                    "search-query numerics and uncertainty-energy estimates.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="count and enumerate word content classes")
    p.add_argument("--k", type=int, default=None, help="alphabet size")
    p.add_argument("--r", type=int, default=None, help="word length")
    p.add_argument("--alphabet", default=None,
                   help="k distinct letters to enumerate over (default A, B, C, ...)")
    p.add_argument("--cap", type=int, default=None,
                   help=f"class enumeration cap (default {DEFAULT_CLASS_CAP})")
    p.add_argument("--skip-classes", action="store_const", const=True, default=None,
                   help="emit the two counts only, without enumerating classes")
    _add_common(p)

    p = sub.add_parser("analyze", help="partition a genetic code and measure coherence")
    p.add_argument("--builtin", default=None,
                   help=f"built-in table name ({', '.join(sorted(BUILTIN_TABLE_TEXTS))})")
    p.add_argument("--table", default=None, metavar="PATH", help="translation-table file")
    p.add_argument("--random-seed", type=int, default=None,
                   help="analyze a seeded synthetic random code instead of a table")
    _add_common(p)

    p = sub.add_parser("grover", help="query-count relations and search simulation")
    gsub = p.add_subparsers(dest="mode", required=True)
    g = gsub.add_parser("solve-n", help="database size reachable with q queries")
    g.add_argument("--q", type=int, default=None, help="query count")
    _add_common(g)
    g = gsub.add_parser("solve-q", help="query count needed for database size n")
    g.add_argument("--n", type=float, default=None, help="database size (real, >= 1)")
    _add_common(g)
    g = gsub.add_parser("simulate", help="exact two-amplitude simulation of the search")
    g.add_argument("--n", type=int, default=None, help="database size (integer, >= 2)")
    g.add_argument("--q", type=int, default=None, help="iterations to apply")
    g.add_argument("--marked", type=int, default=None, help="marked index (default 0)")
    g.add_argument("--cap", type=int, default=None,
                   help=f"simulation cap on both n and q (default {DEFAULT_SIM_CAP})")
    _add_common(g)

    p = sub.add_parser("energy", help="uncertainty momentum/energy estimates (CGS)")
    p.add_argument("--hbar", type=float, default=None, help="erg*s")
    p.add_argument("--delta-x", type=float, default=None, dest="delta_x", help="cm")
    p.add_argument("--mass", type=float, default=None, help="g")
    p.add_argument("--hbond", type=float, default=None, help="hydrogen-bond energy, erg")
    p.add_argument("--scale", type=float, default=None,
                   help=f"length-scale factor to compare against (default {DEFAULT_SCALE_FACTOR})")
    _add_common(p)
    return parser


def _config_getter(args, parser):
    """Three-level option lookup: explicit flag, then config file, then default.

    Config keys are checked against the chosen subcommand's options when the
    file is read; values are checked for type when they are looked up.
    """
    config = {}
    if args.config is not None:
        try:
            with open(args.config, encoding="utf-8") as handle:
                config = json.load(handle)
        except (OSError, ValueError) as exc:
            parser.error(f"cannot read config file: {exc}")
        if not isinstance(config, dict):
            parser.error("config file must hold a JSON object")
        options = set(vars(args)) - {"command", "mode", "config"}
        unknown = sorted(set(config) - options)
        if unknown:
            parser.error(f"config file has unknown option(s) {', '.join(map(repr, unknown))}"
                         f" for this command")

    def get(name, kind=str, default=None):
        value = getattr(args, name, None)
        if value is None:
            value = config.get(name)  # a JSON null counts as absent
        if value is None:
            value = default
        return None if value is None else _convert(value, kind, name)

    return get


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


def _run_count(get, parser) -> dict:
    k, r = get("k", int), get("r", int)
    if k is None or r is None:
        parser.error("count requires --k and --r")
    return reports.build_count_report(
        k,
        r,
        alphabet=get("alphabet"),
        cap=get("cap", int, DEFAULT_CLASS_CAP),
        include_classes=not get("skip_classes", bool, False),
    )


def _run_analyze(get, parser) -> dict:
    kinds = {"builtin": str, "table": str, "random_seed": int}
    sources = [name for name, kind in kinds.items() if get(name, kind) is not None]
    if len(sources) != 1:
        parser.error("analyze requires exactly one of --builtin, --table, --random-seed")
    if sources[0] == "builtin":
        name = get("builtin")
        code, source = builtin_code(name), f"builtin:{name}"
    elif sources[0] == "table":
        path = get("table")
        try:
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
        except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or a NUL in the path
            raise InvalidParamsError(f"cannot read table file: {exc}") from exc
        code, source = parse_table(text), f"table:{path}"
    else:
        seed = get("random_seed", int)
        code, source = random_code(seed), f"random-seed:{seed}"
    return reports.build_analyze_report(code, source)


def _run_grover(get, parser, mode) -> dict:
    if mode == "solve-n":
        q = get("q", int)
        if q is None:
            parser.error("grover solve-n requires --q")
        return reports.build_grover_solve_n_report(q)
    if mode == "solve-q":
        n = get("n", float)
        if n is None:
            parser.error("grover solve-q requires --n")
        return reports.build_grover_solve_q_report(n)
    n, q = get("n", int), get("q", int)
    if n is None or q is None:
        parser.error("grover simulate requires --n and --q")
    return reports.build_grover_simulate_report(
        n, q, get("marked", int, 0), cap=get("cap", int, DEFAULT_SIM_CAP)
    )


def _run_energy(get, parser) -> dict:
    params = PhysicalParams(
        hbar=get("hbar", float, PhysicalParams.hbar),
        delta_x=get("delta_x", float, PhysicalParams.delta_x),
        mass=get("mass", float, PhysicalParams.mass),
        hbond_energy=get("hbond", float, PhysicalParams.hbond_energy),
    )
    scale = get("scale", float, DEFAULT_SCALE_FACTOR)
    return reports.build_energy_report(params, scale)


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
    get = _config_getter(args, parser)
    try:
        if args.command == "count":
            report = _run_count(get, parser)
        elif args.command == "analyze":
            report = _run_analyze(get, parser)
        elif args.command == "grover":
            report = _run_grover(get, parser, args.mode)
        else:
            report = _run_energy(get, parser)
        _write(reports.emit(report, fmt=get("format", default="text")), get("output"))
    except CodonLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0
