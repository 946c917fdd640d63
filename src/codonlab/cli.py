"""Command-line interface.

Subcommands: count, analyze, grover (solve-n | solve-q | simulate), energy.
Exit codes: 0 success, 2 invalid input or parse error, 3 capacity exceeded.

Every option can also come from a JSON config file passed with --config;
explicit flags always win over config values, which win over built-in
defaults. Reports go to stdout or to --output, fully built before anything
is written, so a failing run emits no partial report.
"""

import argparse
import json
import sys

from . import reports
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
    g = gsub.add_parser("simulate", help="state-vector simulation of the search")
    g.add_argument("--n", type=int, default=None, help="database size (integer, >= 2)")
    g.add_argument("--q", type=int, default=None, help="iterations to apply")
    g.add_argument("--marked", type=int, default=None, help="marked index (default 0)")
    g.add_argument("--cap", type=int, default=None,
                   help=f"simulation size cap (default {DEFAULT_SIM_CAP})")
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
    """Three-level option lookup: explicit flag, then config file, then default."""
    config = {}
    if args.config is not None:
        try:
            with open(args.config, encoding="utf-8") as handle:
                config = json.load(handle)
        except (OSError, ValueError) as exc:
            parser.error(f"cannot read config file: {exc}")
        if not isinstance(config, dict):
            parser.error("config file must hold a JSON object")

    def get(name, default=None):
        value = getattr(args, name, None)
        if value is not None:
            return value
        return config.get(name, default)

    return get


def _number(value, kind, name):
    """Convert an option value, from a flag or a config file, with int or float."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        noun = "an integer" if kind is int else "a number"
        raise InvalidParamsError(f"{name} must be {noun}, got {value!r}") from None


def _run_count(get, parser) -> dict:
    k, r = get("k"), get("r")
    if k is None or r is None:
        parser.error("count requires --k and --r")
    return reports.build_count_report(
        _number(k, int, "k"),
        _number(r, int, "r"),
        alphabet=get("alphabet"),
        cap=_number(get("cap", DEFAULT_CLASS_CAP), int, "cap"),
        include_classes=not get("skip_classes", False),
    )


def _run_analyze(get, parser) -> dict:
    sources = [name for name in ("builtin", "table", "random_seed") if get(name) is not None]
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
        except OSError as exc:
            raise InvalidParamsError(f"cannot read table file: {exc}") from exc
        code, source = parse_table(text), f"table:{path}"
    else:
        seed = _number(get("random_seed"), int, "random_seed")
        code, source = random_code(seed), f"random-seed:{seed}"
    return reports.build_analyze_report(code, source)


def _run_grover(get, parser, mode) -> dict:
    if mode == "solve-n":
        q = get("q")
        if q is None:
            parser.error("grover solve-n requires --q")
        return reports.build_grover_solve_n_report(_number(q, int, "q"))
    if mode == "solve-q":
        n = get("n")
        if n is None:
            parser.error("grover solve-q requires --n")
        return reports.build_grover_solve_q_report(_number(n, float, "n"))
    n, q = get("n"), get("q")
    if n is None or q is None:
        parser.error("grover simulate requires --n and --q")
    return reports.build_grover_simulate_report(
        _number(n, int, "n"),
        _number(q, int, "q"),
        _number(get("marked", 0), int, "marked"),
        cap=_number(get("cap", DEFAULT_SIM_CAP), int, "cap"),
    )


def _run_energy(get, parser) -> dict:
    params = PhysicalParams(
        hbar=_number(get("hbar", PhysicalParams.hbar), float, "hbar"),
        delta_x=_number(get("delta_x", PhysicalParams.delta_x), float, "delta_x"),
        mass=_number(get("mass", PhysicalParams.mass), float, "mass"),
        hbond_energy=_number(get("hbond", PhysicalParams.hbond_energy), float, "hbond"),
    )
    scale = _number(get("scale", DEFAULT_SCALE_FACTOR), float, "scale")
    return reports.build_energy_report(params, scale)


def _write(payload: str, output) -> None:
    if output in (None, "-"):
        sys.stdout.write(payload)
        return
    try:
        with open(output, "w", encoding="utf-8", newline="") as handle:
            handle.write(payload)
    except OSError as exc:
        raise InvalidParamsError(f"cannot write output file: {exc}") from exc


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
        _write(reports.render(report, fmt=get("format", "text")), get("output"))
    except CodonLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0
