"""Report construction and deterministic rendering (text, JSON, CSV).

Builders assemble plain dicts with stable key order. Each command has two
layouts, a text document (lines, (headers, rows) tables and runs of
preformatted lines) and one CSV table, and a JSON emitter: indented
json.dumps, except that count (one class per line) and grover simulate (the
trace spelled from float reprs, as json.dumps spells it) stream their long
list, preformatted item by item, after the indented head.
Output comes chunk by chunk, so a report whose rows are generated on demand
(the classes of a count) is never held whole.
Floats are rounded to 12 significant digits at build time, so every format
encodes identical values and repeated runs over identical inputs produce
byte-identical output.
"""

import csv
import io
import itertools
import json
from collections import Counter

from . import combinatorics, grover, physics, symmetry
from .errors import InvalidParamsError
from .genetic_code import GeneticCode

SIGNIFICANT_DIGITS = 12
CHUNK_LINES = 4096  # lines per emitted chunk
_format_float = f"{{:.{SIGNIFICANT_DIGITS}g}}".format


def round_sig(x: float) -> float:
    """Round to the emission precision (12 significant digits)."""
    return float(_format_float(x))


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return _format_float(value)
    return str(value)


def _chunked(lines, sep="\n"):
    """Join lines with `sep` into chunks of CHUNK_LINES lines; no separator after the last."""
    lines = iter(lines)
    lead = ""
    while chunk := list(itertools.islice(lines, CHUNK_LINES)):
        yield lead + sep.join(chunk)
        lead = sep


def _lines(document):
    """A document's lines, left-aligning the string cells of each table.

    A block is a line, a table or any other iterable of preformatted lines.
    A table is (headers, rows), its column widths taken from the rows, or
    (headers, rows, widths) for rows generated on demand.
    """
    for block in document:
        if isinstance(block, str):
            yield block
            continue
        if not isinstance(block, tuple):
            yield from block
            continue
        headers, rows, *given = block
        widths = given[0] if given else [max(map(len, column)) for column in zip(headers, *rows)]
        template = "  ".join(f"{{:<{width}}}" for width in widths)
        yield template.format(*headers).rstrip()
        for row in rows:
            yield template.format(*row).rstrip()


def _text(document):
    yield from _chunked(_lines(document))
    yield "\n"


def _csv(headers, rows):
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(headers)
    rows = iter(rows)
    while True:
        writer.writerows(itertools.islice(rows, CHUNK_LINES))
        chunk = buffer.getvalue()
        if not chunk:
            return
        yield chunk
        buffer.seek(0)
        buffer.truncate()


def _json(report):
    yield json.dumps(report, indent=2) + "\n"


def _json_with_list(head, key, items):
    """`head` as indented JSON, closed by the field `key`: a list of preformatted items."""
    return itertools.chain(
        [json.dumps(head, indent=2)[:-2] + f',\n  "{key}": [\n    '],
        _chunked(items, ",\n    "),
        ["\n  ]\n}\n"],
    )


# --- count ---------------------------------------------------------------


def build_count_report(
    k: int,
    r: int,
    *,
    alphabet=None,
    cap: int = combinatorics.DEFAULT_CLASS_CAP,
    include_classes: bool = True,
) -> dict:
    """The two counts and, unless skipped, the classes as a lazy MultisetClasses.

    Every check (the digit bound, the alphabet, the cap) runs here, before
    any class is generated. The text and JSON layouts add the partition
    identity from a counts-only pass over the class sizes.
    """
    combinatorics.check_printable(k, r)
    report = {
        "command": "count",
        "k": k,
        "r": r,
        "arrangements": combinatorics.arrangements(k, r),
        "multiset_count": combinatorics.multiset_count(k, r),
    }
    if include_classes:
        report["classes"] = combinatorics.enumerate_multisets(k, r, alphabet=alphabet, cap=cap)
    return report


def _count_survey(report):
    """Counts-only pass: whether the class sizes sum to k^r, and the widest counts text."""
    classes = report["classes"]
    total = widest = 0
    for _, counts, size in classes.rows(letters=("",) * len(classes.alphabet)):
        total += size
        widest = max(widest, len(counts))
    return total == report["arrangements"], widest


def _count_text(report) -> list:
    document = [
        f"Content-class counting for k={report['k']}, r={report['r']}",
        f"  ordered words (k^r):  {report['arrangements']}",
        f"  content classes:      {report['multiset_count']}",
    ]
    if "classes" not in report:
        return document + ["  classes:              skipped"]
    holds, widest = _count_survey(report)
    identity = "ok (class sizes sum to k^r)" if holds else "VIOLATED"
    r = report["r"]
    rows = ((word or "(empty)", counts, str(size))
            for word, counts, size in report["classes"].rows())
    # every word has r letters; the last column is never padded, so its width is moot
    widths = (max(len("word"), r or len("(empty)")), max(len("counts"), widest), len("size"))
    table = (("word", "counts", "size"), rows, widths)
    return document + [f"  partition identity:   {identity}", "", table]


def _count_json(report):
    """The count report as JSON, each class on one line.

    Letters are JSON-escaped one by one, which escapes every word spelled
    from them.
    """
    if "classes" not in report:
        return _json(report)
    classes = report["classes"]
    head = {key: value for key, value in report.items() if key != "classes"}
    head["partition_identity_holds"] = _count_survey(report)[0]
    letters = [json.dumps(letter)[1:-1] for letter in classes.alphabet]
    rows = (f'{{"word": "{word}", "counts": [{counts}], "size": {size}}}'
            for word, counts, size in classes.rows(letters, ", "))
    return _json_with_list(head, "classes", rows)


def _count_csv(report) -> tuple:
    if "classes" not in report:
        keys = ("k", "r", "arrangements", "multiset_count")
        return ("quantity", "value"), [(key, report[key]) for key in keys]
    return ("word", "counts", "size"), report["classes"].rows(sep=":")


# --- analyze ---------------------------------------------------------------


def build_analyze_report(code: GeneticCode, source: str) -> dict:
    sym = symmetry.partition_classes(code)
    prefixes = symmetry.prefix_significance(code)

    profile = Counter(len(r.codons) for r in sym.per_class)
    return {
        "command": "analyze",
        "source": source,
        "code": {
            "name": code.name,
            "id": code.id,
            "sense_codon_count": len(code.sense_codons),
            "stop_codon_count": len(code.stop_codons),
            "amino_acid_count": len(code.amino_acid_image),
        },
        "symmetry": {
            "class_count": len(sym.per_class),
            "size_profile": {str(size): profile[size] for size in sorted(profile)},
            "coherent_count": sym.coherent_count,
            "coherent_count_excluding_stop": sym.coherent_count_excluding_stop,
            "bijective_20_to_20": sym.bijective_20_to_20,
            "bijective_20_to_20_excluding_stop": sym.bijective_20_to_20_excluding_stop,
            "classes": [
                {
                    "word": r.multiset.canonical_word,
                    "size": len(r.codons),
                    "codons": list(r.codons),
                    "products": list(r.products),
                    "coherent": r.coherent,
                    "coherent_excluding_stop": r.coherent_excluding_stop,
                }
                for r in sym.per_class
            ],
        },
        "violations": {
            "pairs_total": sym.pairs_total,
            "pairs_violating": sym.pairs_violating,
            "fraction": round_sig(sym.fraction),
            "pairs_total_excluding_stop": sym.pairs_total_excluding_stop,
            "pairs_violating_excluding_stop": sym.pairs_violating_excluding_stop,
            "fraction_excluding_stop": round_sig(sym.fraction_excluding_stop),
        },
        "prefix": {
            "fully_degenerate_prefix_count": prefixes.fully_degenerate_prefix_count,
            "full_degeneracy_amino_ceiling": symmetry.FULL_DEGENERACY_AMINO_CEILING,
            "prefixes": [
                {
                    "prefix": e.prefix,
                    "products": list(e.products),
                    "product_set": list(e.product_set),
                    "fully_degenerate": e.fully_degenerate,
                }
                for e in prefixes.per_prefix
            ],
        },
    }


def _class_rows(report, joiner) -> list:
    """The six class columns of both analyze tables, codons and products joined by `joiner`."""
    return [
        (c["word"], str(c["size"]), joiner.join(c["codons"]), joiner.join(c["products"]),
         _fmt(c["coherent"]), _fmt(c["coherent_excluding_stop"]))
        for c in report["symmetry"]["classes"]
    ]


def _analyze_text(report) -> list:
    code = report["code"]
    sym = report["symmetry"]
    violations = report["violations"]
    prefix = report["prefix"]
    code_id = "-" if code["id"] is None else code["id"]
    profile = ", ".join(f"{n}x size {s}" for s, n in sym["size_profile"].items())
    prefix_rows = [
        (
            e["prefix"],
            ",".join(e["products"]),
            ",".join(e["product_set"]),
            _fmt(e["fully_degenerate"]),
        )
        for e in prefix["prefixes"]
    ]
    return [
        f"Genetic code: {code['name']} (id {code_id}, {report['source']})",
        f"  sense codons: {code['sense_codon_count']}   stop codons: {code['stop_codon_count']}"
        f"   distinct amino acids: {code['amino_acid_count']}",
        "",
        f"Base-content classes: {sym['class_count']} ({profile})",
        f"  coherent classes:            {sym['coherent_count']}"
        f" (excluding stop: {sym['coherent_count_excluding_stop']})",
        f"  one-to-one 20 -> 20:         {_fmt(sym['bijective_20_to_20'])}"
        f" (excluding stop: {_fmt(sym['bijective_20_to_20_excluding_stop'])})",
        f"  same-class pairs:            {violations['pairs_total']}"
        f" (excluding stop: {violations['pairs_total_excluding_stop']})",
        f"  pairs differing in product:  {violations['pairs_violating']}"
        f" (excluding stop: {violations['pairs_violating_excluding_stop']})",
        f"  violation fraction:          {_fmt(violations['fraction'])}"
        f" (excluding stop: {_fmt(violations['fraction_excluding_stop'])})",
        "",
        (("word", "size", "codons", "products", "coherent", "coherent-excl-stop"),
         _class_rows(report, ",")),
        "",
        "Third-base significance (16 two-base prefixes)",
        f"  fully third-base-degenerate prefixes: {prefix['fully_degenerate_prefix_count']}",
        f"  distinct amino acids (actual):        {code['amino_acid_count']}",
        f"  ceiling if the third base never mattered: {prefix['full_degeneracy_amino_ceiling']}",
        "",
        (("prefix", "products(U,C,A,G)", "distinct", "fully-degenerate"), prefix_rows),
    ]


def _analyze_csv(report) -> tuple:
    headers = ("word", "size", "codons", "products", "coherent", "coherent_excluding_stop")
    return headers, _class_rows(report, ";")


# --- grover ---------------------------------------------------------------


def build_grover_solve_n_report(q: int) -> dict:
    return {
        "command": "grover",
        "mode": "solve-n",
        "q": q,
        "n_solved": round_sig(grover.solve_n(q)),
    }


def build_grover_solve_q_report(n: float) -> dict:
    q = grover.solve_q(n)
    return {
        "command": "grover",
        "mode": "solve-q",
        "n": round_sig(n),
        "q_solved": round_sig(q),
        "q_rounded": round(q),
    }


def build_grover_simulate_report(n: int, q: int, marked: int, *, cap=grover.DEFAULT_SIM_CAP) -> dict:
    run = grover.simulate(n, q, marked, cap=cap)
    closed_form = grover.success_probability(n, q)
    final = run.probability_trace[-1]
    return {
        "command": "grover",
        "mode": "simulate",
        "n": n,
        "q": q,
        "marked": marked,
        "final_marked_probability": round_sig(final),
        "closed_form_probability": round_sig(closed_form),
        "difference": round_sig(abs(final - closed_form)),
        "max_norm_drift": round_sig(run.max_norm_drift),
        "trace": list(map(float, map(_format_float, run.probability_trace))),  # round_sig each
    }


def _grover_text(report) -> list:
    mode = report["mode"]
    if mode == "solve-n":
        return [
            "Query relation: (2q+1) * asin(1/sqrt(n)) = pi/2",
            f"  q = {report['q']}",
            f"  n = {_fmt(report['n_solved'])}",
        ]
    if mode == "solve-q":
        return [
            "Query relation: (2q+1) * asin(1/sqrt(n)) = pi/2",
            f"  n = {_fmt(report['n'])}",
            f"  q = {_fmt(report['q_solved'])} (rounded: {report['q_rounded']})",
        ]
    trace = report["trace"]
    # the trace table as preformatted rows; as in a _lines table, the last column is not padded
    width = max(len("iteration"), len(str(len(trace) - 1)))
    row = f"{{:<{width}}}  {{:.{SIGNIFICANT_DIGITS}g}}".format
    return [
        f"Search simulation: n = {report['n']}, q = {report['q']}, marked index {report['marked']}",
        f"  final marked probability: {_fmt(report['final_marked_probability'])}",
        f"  closed-form probability:  {_fmt(report['closed_form_probability'])}",
        f"  |difference|:             {_fmt(report['difference'])}",
        f"  max norm drift:           {_fmt(report['max_norm_drift'])}",
        "",
        f"{'iteration':<{width}}  marked_probability",
        map(row, range(len(trace)), trace),
    ]


def _grover_csv(report) -> tuple:
    mode = report["mode"]
    if mode == "solve-n":
        return ("q", "n_solved"), [(report["q"], _fmt(report["n_solved"]))]
    if mode == "solve-q":
        return (
            ("n", "q_solved", "q_rounded"),
            [(_fmt(report["n"]), _fmt(report["q_solved"]), report["q_rounded"])],
        )
    trace = report["trace"]
    rows = zip(range(len(trace)), map(_format_float, trace))
    return ("iteration", "marked_probability"), rows


def _grover_json(report):
    """A simulate report as JSON, its trace spelled as json.dumps spells finite floats."""
    if report["mode"] != "simulate":
        return _json(report)
    head = {key: value for key, value in report.items() if key != "trace"}
    return _json_with_list(head, "trace", map(float.__repr__, report["trace"]))


# --- energy ---------------------------------------------------------------


def build_energy_report(params: physics.PhysicalParams, scale_factor: float) -> dict:
    dp = physics.momentum_uncertainty(params)
    comparison = physics.scale_comparison(params, scale_factor)
    return {
        "command": "energy",
        "params": {
            "hbar": round_sig(params.hbar),
            "delta_x": round_sig(params.delta_x),
            "mass": round_sig(params.mass),
            "hbond_energy": round_sig(params.hbond_energy),
        },
        "momentum_uncertainty": round_sig(dp),
        "fluctuation_energy_erg": round_sig(comparison.energy_base),
        "fluctuation_energy_ev": round_sig(physics.erg_to_ev(comparison.energy_base)),
        "hbond_ratio": round_sig(comparison.base_to_hbond),
        "scale": {
            "factor": round_sig(comparison.scale_factor),
            "energy_scaled_erg": round_sig(comparison.energy_scaled),
            "energy_ratio": round_sig(comparison.energy_ratio),
            "scaled_to_hbond": round_sig(comparison.scaled_to_hbond),
        },
    }


def _energy_text(report) -> list:
    p = report["params"]
    s = report["scale"]
    return [
        "Uncertainty-relation energy estimate (CGS)",
        f"  hbar = {_fmt(p['hbar'])} erg*s, delta_x = {_fmt(p['delta_x'])} cm,"
        f" mass = {_fmt(p['mass'])} g",
        f"  momentum uncertainty:  {_fmt(report['momentum_uncertainty'])} g*cm/s",
        f"  fluctuation energy:    {_fmt(report['fluctuation_energy_erg'])} erg"
        f" ({_fmt(report['fluctuation_energy_ev'])} eV)",
        f"  hydrogen-bond energy:  {_fmt(p['hbond_energy'])} erg",
        f"  energy / h-bond:       {_fmt(report['hbond_ratio'])}",
        f"  at {_fmt(s['factor'])} * delta_x: {_fmt(s['energy_scaled_erg'])} erg,"
        f" ratio {_fmt(s['energy_ratio'])}, / h-bond {_fmt(s['scaled_to_hbond'])}",
    ]


def _energy_csv(report) -> tuple:
    p = report["params"]
    s = report["scale"]
    rows = [
        ("hbar_erg_s", _fmt(p["hbar"])),
        ("delta_x_cm", _fmt(p["delta_x"])),
        ("mass_g", _fmt(p["mass"])),
        ("hbond_energy_erg", _fmt(p["hbond_energy"])),
        ("momentum_uncertainty_g_cm_s", _fmt(report["momentum_uncertainty"])),
        ("fluctuation_energy_erg", _fmt(report["fluctuation_energy_erg"])),
        ("fluctuation_energy_ev", _fmt(report["fluctuation_energy_ev"])),
        ("hbond_ratio", _fmt(report["hbond_ratio"])),
        ("scale_factor", _fmt(s["factor"])),
        ("energy_scaled_erg", _fmt(s["energy_scaled_erg"])),
        ("energy_ratio", _fmt(s["energy_ratio"])),
        ("scaled_to_hbond", _fmt(s["scaled_to_hbond"])),
    ]
    return ("quantity", "value"), rows


# --- dispatch ---------------------------------------------------------------

# command -> (text document layout, CSV table layout, JSON emitter)
_LAYOUTS = {
    "count": (_count_text, _count_csv, _count_json),
    "analyze": (_analyze_text, _analyze_csv, _json),
    "grover": (_grover_text, _grover_csv, _grover_json),
    "energy": (_energy_text, _energy_csv, _json),
}


def emit(report: dict, fmt: str = "text"):
    """A built report in one of the three formats, as an iterator of text chunks.

    The format is checked, and a count's counts-only pass made, before the
    iterator is returned, so a failure leaves nothing half emitted.
    """
    text_layout, csv_layout, json_emitter = _LAYOUTS[report["command"]]
    if fmt == "text":
        return _text(text_layout(report))
    if fmt == "csv":
        return _csv(*csv_layout(report))
    if fmt == "json":
        return json_emitter(report)
    raise InvalidParamsError(f"format must be text, json or csv, got {fmt!r}")


def render(report: dict, fmt: str = "text") -> str:
    """Render a built report in one of the three formats: the joined chunks of emit()."""
    return "".join(emit(report, fmt))
