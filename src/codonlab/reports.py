"""Report construction and deterministic rendering (text, JSON, CSV).

Builders assemble plain dicts with stable key order. Each command has two
layouts: a text document (lines and (headers, rows) tables) and one CSV
table; one emitter per format turns them into output. Floats are rounded to
12 significant digits at build time, so every format encodes identical
values and repeated runs over identical inputs produce byte-identical output.
"""

import csv
import io
import json
from collections import Counter

from . import combinatorics, grover, physics, symmetry
from .errors import InvalidParamsError
from .genetic_code import GeneticCode

SIGNIFICANT_DIGITS = 12


def round_sig(x: float) -> float:
    """Round to the emission precision (12 significant digits)."""
    return float(f"{x:.{SIGNIFICANT_DIGITS}g}")


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.{SIGNIFICANT_DIGITS}g}"
    return str(value)


def _text(document) -> str:
    """Join a document's lines, left-aligning the string cells of each table."""
    lines = []
    for block in document:
        if isinstance(block, str):
            lines.append(block)
            continue
        headers, rows = block
        widths = [max(map(len, column)) for column in zip(headers, *rows)]
        template = "  ".join(f"{{:<{width}}}" for width in widths)
        lines.append(template.format(*headers).rstrip())
        lines.extend(template.format(*row).rstrip() for row in rows)
    return "\n".join(lines) + "\n"


def _csv(headers, rows) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(headers)
    writer.writerows(rows)
    return buffer.getvalue()


# --- count ---------------------------------------------------------------


def build_count_report(
    k: int,
    r: int,
    *,
    alphabet=None,
    cap: int = combinatorics.DEFAULT_CLASS_CAP,
    include_classes: bool = True,
) -> dict:
    combinatorics.check_printable(k, r)
    report = {
        "command": "count",
        "k": k,
        "r": r,
        "arrangements": combinatorics.arrangements(k, r),
        "multiset_count": combinatorics.multiset_count(k, r),
    }
    if include_classes:
        classes = combinatorics.enumerate_multisets(k, r, alphabet=alphabet, cap=cap)
        sizes = [combinatorics.class_size(c) for c in classes]
        report["partition_identity_holds"] = sum(sizes) == report["arrangements"]
        report["classes"] = [
            {"word": c.canonical_word, "counts": list(c.counts), "size": size}
            for c, size in zip(classes, sizes)
        ]
    return report


def _count_text(report) -> list:
    document = [
        f"Content-class counting for k={report['k']}, r={report['r']}",
        f"  ordered words (k^r):  {report['arrangements']}",
        f"  content classes:      {report['multiset_count']}",
    ]
    if "classes" not in report:
        return document + ["  classes:              skipped"]
    identity = "ok (class sizes sum to k^r)" if report["partition_identity_holds"] else "VIOLATED"
    rows = [
        (c["word"] or "(empty)", ",".join(map(str, c["counts"])), str(c["size"]))
        for c in report["classes"]
    ]
    table = (("word", "counts", "size"), rows)
    return document + [f"  partition identity:   {identity}", "", table]


def _count_csv(report) -> tuple:
    rows = [
        (c["word"], ":".join(map(str, c["counts"])), c["size"])
        for c in report.get("classes", [])
    ]
    return ("word", "counts", "size"), rows


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


def _analyze_text(report) -> list:
    code = report["code"]
    sym = report["symmetry"]
    violations = report["violations"]
    prefix = report["prefix"]
    code_id = "-" if code["id"] is None else code["id"]
    profile = ", ".join(f"{n}x size {s}" for s, n in sym["size_profile"].items())
    class_rows = [
        (
            c["word"],
            str(c["size"]),
            ",".join(c["codons"]),
            ",".join(c["products"]),
            _fmt(c["coherent"]),
            _fmt(c["coherent_excluding_stop"]),
        )
        for c in sym["classes"]
    ]
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
        (("word", "size", "codons", "products", "coherent", "coherent-excl-stop"), class_rows),
        "",
        "Third-base significance (16 two-base prefixes)",
        f"  fully third-base-degenerate prefixes: {prefix['fully_degenerate_prefix_count']}",
        f"  distinct amino acids (actual):        {code['amino_acid_count']}",
        f"  ceiling if the third base never mattered: {prefix['full_degeneracy_amino_ceiling']}",
        "",
        (("prefix", "products(U,C,A,G)", "distinct", "fully-degenerate"), prefix_rows),
    ]


def _analyze_csv(report) -> tuple:
    rows = [
        (
            c["word"],
            c["size"],
            ";".join(c["codons"]),
            ";".join(c["products"]),
            _fmt(c["coherent"]),
            _fmt(c["coherent_excluding_stop"]),
        )
        for c in report["symmetry"]["classes"]
    ]
    return ("word", "size", "codons", "products", "coherent", "coherent_excluding_stop"), rows


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
        "trace": [round_sig(p) for p in run.probability_trace],
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
    rows = [(str(i), f"{p:.{SIGNIFICANT_DIGITS}g}") for i, p in enumerate(report["trace"])]
    return [
        f"Search simulation: n = {report['n']}, q = {report['q']}, marked index {report['marked']}",
        f"  final marked probability: {_fmt(report['final_marked_probability'])}",
        f"  closed-form probability:  {_fmt(report['closed_form_probability'])}",
        f"  |difference|:             {_fmt(report['difference'])}",
        f"  max norm drift:           {_fmt(report['max_norm_drift'])}",
        "",
        (("iteration", "marked_probability"), rows),
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
    rows = [(i, f"{p:.{SIGNIFICANT_DIGITS}g}") for i, p in enumerate(report["trace"])]
    return ("iteration", "marked_probability"), rows


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

# command -> (text document layout, CSV table layout)
_LAYOUTS = {
    "count": (_count_text, _count_csv),
    "analyze": (_analyze_text, _analyze_csv),
    "grover": (_grover_text, _grover_csv),
    "energy": (_energy_text, _energy_csv),
}


def render(report: dict, fmt: str = "text") -> str:
    """Render a built report in one of the three formats."""
    if fmt == "json":
        return json.dumps(report, indent=2) + "\n"
    text_layout, csv_layout = _LAYOUTS[report["command"]]
    if fmt == "text":
        return _text(text_layout(report))
    if fmt == "csv":
        return _csv(*csv_layout(report))
    raise InvalidParamsError(f"format must be text, json or csv, got {fmt!r}")
