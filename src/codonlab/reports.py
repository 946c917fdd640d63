"""Report construction and deterministic rendering (text, JSON, CSV), one _LAYOUTS row a command.

Builders assemble plain dicts with stable key order; each imports the module it reports on, and
JSON the json module, only when called. Rows made on demand are spelled a block at a time, one
template a block (see _trace_blocks and _count_blocks), and leave through one chunker, whole
blocks to a chunk of CHUNK_LINES rows or more, so they are never held whole as text. Floats are
rounded to 12 significant digits, so every format encodes identical values and runs are
byte-identical: a builder rounds each scalar, a RoundedTrace each entry, or a template spells it.
"""

import itertools
from collections import Counter

from .errors import InvalidParamsError, as_int
from .record import Record

CHUNK_LINES = 256  # rows per emitted chunk at least, but in the last
_format_float = "{:.12g}".format


def round_sig(x: float) -> float:
    """Round to the emission precision (12 significant digits)."""
    return float(_format_float(x))


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return _format_float(value)
    return "-" if value is None else str(value)  # None: a code without an id


def _chunks(head, blocks, sep="", end="\n"):
    """`head`, the blocks, (text, rows) pairs, joined by `sep`, and `end`: each chunk holds whole
    blocks, the fewest that reach CHUNK_LINES rows, and the last one the rest and `end`."""
    lead, chunk, count = head, [], 0
    for block, rows in blocks:
        if count >= CHUNK_LINES:
            yield lead + sep.join(chunk)
            lead, chunk, count = sep, [], 0
        chunk.append(block)
        count += rows
    yield lead + sep.join(chunk) + end


def _fields(report) -> dict:
    """Every scalar field, nested ones too, by key in report order, formatted once.

    Lists, a count's classes, a simulate trace, and the command and mode are left out.
    """
    fields = {}
    for key, value in report.items():
        if isinstance(value, dict):
            fields.update(_fields(value))
        elif key not in ("command", "mode") and isinstance(value, (str, int, float, type(None))):
            fields[key] = _fmt(value)
    return fields


def _table(headers, rows):
    """A table's lines, one template.format each: every cell but the last left-aligned and padded.

    The last cell of every row must be non-empty and must not end in whitespace,
    so no line ends in padding. The padded columns' widths come from the rows, a list.
    """
    widths = [max(map(len, column)) for column in zip(headers[:-1], *rows)]
    template = "".join(f"{{:<{width}}}  " for width in widths) + "{}"
    return itertools.chain([template.format(*headers)], itertools.starmap(template.format, rows))


def _json_skeleton(node):
    """`node` with each value that _json's walk does not descend into, by its test, as "\\0"."""
    if type(node) is dict:
        return {key: _json_skeleton(value) for key, value in node.items()}
    if type(node) is list and node and type(node[0]) is dict:
        return list(map(_json_skeleton, node))
    return "\0"


# the walk's record, where each object and list of objects starts among the values and its keys
# or length -> a layout, from the first report of that record: a fixed report would, for analyze,
# parse an unasked table. A record with a key that is not a string is not kept, as 1 == True
_json_layouts = {}


def _json(report, key=None, items=()):
    """The report as json.dumps(report, indent=2) + "\\n" spells it, from its record's layout.

    With `key`, the field `key` is a stream: one value, a list of `items` spelled where it sits,
    blocks of _chunks joined by ",", each item as json.dumps spells it, its line break first. Every
    builder keeps one shape rule: keys, their order and the length of every list of objects do not
    depend on the inputs, so the first report's layout, a `{}` slot for each value, serves every
    report of its command. Values are spelled as json.dumps spells them (floats are finite), a list
    of strings at its depth, escaped if any is not plain, and any other value by json.dumps itself.
    """
    import json
    from json.encoder import encode_basestring_ascii  # how json.dumps escapes a string
    stream = key and id(report[key])  # its id: `add` calls itself, a cycle that outlives _json
    values, keys, strings, spellings = [], [], [], {}

    def add(node, depth, escape=False):  # in json.dumps order, as the builder makes each object
        keys.extend((len(values), len(node) if type(node) is list else tuple(node)))
        if depth not in spellings:  # a list of strings' opening, separator and closing here
            item = "\n" + "  " * (depth + 2)
            spellings[depth] = f'[{item}"', f'",{item}"', f'"{item[:-2]}]'
        start, sep, end = spellings[depth]
        for value in node if type(node) is list else node.values():
            kind = type(value)
            if kind is dict or kind is list and value and type(value[0]) is dict:
                add(value, depth + 1, escape)
            elif kind is list and id(value) != stream:  # of strings, or empty
                try:
                    value = [encode_basestring_ascii(s)[1:-1] for s in value] if escape else value
                    values.append(start + sep.join(value) + end if value else "[]")
                    strings.extend(value)
                except TypeError:  # a mixed list
                    values.append(json.dumps(value, indent=2).replace("\n", "\n  " + "  " * depth))
            elif kind is str:
                values.append(encode_basestring_ascii(value))
            elif value is None or kind is bool:
                values.append("null" if value is None else "true" if value else "false")
            elif kind is int or kind is float:
                values.append(repr(value))
            elif id(value) == stream:  # its "[", and the "\0" where the text is cut
                values.append("[\0" if len(value) else "[]")
            else:  # a tuple, a subclass of dict, int or float
                values.append(json.dumps(value, indent=2).replace("\n", "\n  " + "  " * depth))

    add(report, 0)
    text = "".join(strings)  # plain, or every string in a list is escaped
    if not (text.isascii() and text.isprintable() and '"' not in text and "\\" not in text):
        values[:], keys[:] = [], []
        add(report, 0, True)
    layout = _json_layouts.get(tuple(keys))
    if layout is None:  # a value's slot is a "\0" that ends a line, as no key does
        text = json.dumps(_json_skeleton(dict(report)), indent=2) + "\n"  # a dict subclass too
        text = text.replace("{", "{{").replace("}", "}}").replace('"\\u0000",\n', "{},\n")
        layout = text.replace('"\\u0000"\n', "{}\n")
        if all(type(name) is str for names in keys if type(names) is tuple for name in names):
            _json_layouts[tuple(keys)] = layout
    head, cut, rest = layout.format(*values).partition("\0")  # at the stream's "[" and "]"
    return _chunks(head, items, ",", "\n  ]" + rest) if cut else [head]


# --- count ---------------------------------------------------------------

_COUNT_TEXT = (
    "Content-class counting for k={k}, r={r}\n"
    "  ordered words (k^r):  {arrangements}\n"
    "  content classes:      {multiset_count}\n"
)
_COUNT_SKIPPED_TEXT = _COUNT_TEXT + "  classes:              skipped"
_COUNT_CLASSES_TEXT = _COUNT_TEXT + "  partition identity:   {identity}\n\n{word}  {counts}  size"


def build_count_report(k: int, r: int, *, alphabet=None, cap: int | None = None,
                       include_classes: bool = True) -> dict:
    """The two counts and, unless skipped, the classes as a lazy MultisetClasses.

    Each value is checked once, before any class is generated: k, r and the digit bound by the
    two counts, the cap (by default combinatorics.DEFAULT_CLASS_CAP) and the alphabet by
    enumerate_multisets, or here when the classes are skipped. The text and JSON layouts add the
    partition identity: whether the classes' survey of their sizes sums to `arrangements`.
    """
    from . import combinatorics
    report = {"command": "count", "k": k, "r": r, "arrangements": combinatorics.arrangements(k, r),
              "multiset_count": combinatorics.multiset_count(k, r)}
    if include_classes:
        cap = combinatorics.DEFAULT_CLASS_CAP if cap is None else cap
        report["classes"] = combinatorics.enumerate_multisets(k, r, alphabet=alphabet, cap=cap)
    else:
        if cap is not None:
            as_int(cap, "cap", 0)
        if alphabet is not None:
            combinatorics.validated_alphabet(alphabet, k)
    return report


def _count_blocks(classes, letters, sep, row, lines="", mark=None):
    """A count's rows, a _chunks block per head prefix: its tail block (MultisetClasses._blocks)
    spelled once per `left` and `mark(word, counts)` as one `%` template, `row(word, counts, mark)`
    of each tail row joined by `lines`, "\\0" and "\\1" standing for the prefix's word and counts,
    %d for each size. Letters are escaped "%%"; printable, none spells "\\0" or "\\1"."""
    prefixes, block = classes._blocks(tuple(letter.replace("%", "%%") for letter in letters), sep)
    templates = {}
    for word, counts, size, left in prefixes:
        key = left, mark and mark(word, counts)
        if key not in templates:
            words, tails, sizes = block(left)[:3]
            templates[key] = lines.join(map(row, words, tails, [key[1]] * len(sizes))), sizes
        template, sizes = templates[key]
        text = template.replace("\0", word).replace("\1", counts)
        yield text % tuple(map(size.__mul__, sizes)), len(sizes)


def _count_text(report):
    classes, r = report["classes"], report["r"]
    total, widest = classes.survey()
    identity = "ok (class sizes sum to k^r)" if total == report["arrangements"] else "VIOLATED"
    # every word has r letters, r = 0's one class is spelled (empty); the sizes are not padded
    word, width = max(len("word"), r or len("(empty)")), max(len("counts"), widest)
    head = _COUNT_CLASSES_TEXT.format(identity=identity, word="word".ljust(word),
                                      counts="counts".ljust(width), **_fields(report))
    return _chunks(head, _count_blocks(classes, classes.alphabet, ",", lambda tail, counts, n: (
        "\n\0" + tail if r else "\n(empty)") + " " * (word - (r or 7)) + f"  \1{counts}"
        + " " * (width - n - len(counts)) + "  %d", mark=lambda _, counts: len(counts)))


def _count_json(report):
    """The count report as JSON, a class to a line; escaping each letter escapes every word."""
    from json.encoder import encode_basestring_ascii
    classes = report["classes"]
    letters = [encode_basestring_ascii(letter)[1:-1] for letter in classes.alphabet]
    identity = classes.survey()[0] == report["arrangements"]
    fields = [*report.items()]  # the partition identity is listed just before the classes
    fields.insert([*report].index("classes"), ("partition_identity_holds", identity))
    row = '\n    {"word": "\0%s", "counts": [\1%s], "size": %%d}'
    return _json(dict(fields), "classes", _count_blocks(
        classes, letters, ", ", lambda word, counts, _: row % (word, counts), ","))


def _count_csv(report):
    classes = report["classes"]  # as csv.writer: a word holding `"` (spelled `""`) or "," is quoted
    letters = [letter.replace('"', '""') for letter in classes.alphabet]
    return _chunks("word,counts,size", _count_blocks(classes, letters, ":", lambda word, cell, q: (
        f'\n"\0{word}"' if q or '"' in word or "," in word else "\n\0" + word) + f",\1{cell},%d",
        mark=lambda word, _: '"' in word or "," in word))  # q: the prefix's word is quoted


_COUNT_SKIPPED_CSV = ("quantity,value\nk,{k}\nr,{r}\narrangements,{arrangements}\n"
                      "multiset_count,{multiset_count}")


# --- analyze ---------------------------------------------------------------

_ANALYZE_TEXT = (
    "Genetic code: {name} (id {id}, {source})\n"
    "  sense codons: {sense_codon_count}   stop codons: {stop_codon_count}"
    "   distinct amino acids: {amino_acid_count}\n"
    "\n"
    "Base-content classes: {class_count} ({size_profile})\n"
    "  coherent classes:            {coherent_count}"
    " (excluding stop: {coherent_count_excluding_stop})\n"
    "  one-to-one 20 -> 20:         {bijective_20_to_20}"
    " (excluding stop: {bijective_20_to_20_excluding_stop})\n"
    "  same-class pairs:            {pairs_total} (excluding stop: {pairs_total_excluding_stop})\n"
    "  pairs differing in product:  {pairs_violating}"
    " (excluding stop: {pairs_violating_excluding_stop})\n"
    "  violation fraction:          {fraction} (excluding stop: {fraction_excluding_stop})\n"
    "\n"
    "{classes}\n"
    "\n"
    "Third-base significance (16 two-base prefixes)\n"
    "  fully third-base-degenerate prefixes: {fully_degenerate_prefix_count}\n"
    "  distinct amino acids (actual):        {amino_acid_count}\n"
    "  ceiling if the third base never mattered: {full_degeneracy_amino_ceiling}\n"
    "\n"
    "{prefixes}"
)


def build_analyze_report(code, source: str) -> dict:
    """The coherence report of a GeneticCode over the 20 content classes, from the cores that
    partition_classes and prefix_significance wrap, with no per-class or per-prefix record."""
    from . import symmetry
    classes, counts = symmetry._coherence(code.aas)
    sym = symmetry.SymmetryReport((), *counts)  # the counts and their fractions
    prefixes, degenerate_count = symmetry._prefix_degeneracy(code.aas)
    partition = symmetry.codon_partition()
    profile = Counter(len(codons) for _, codons in partition)
    stops = code.aas.count(symmetry.STOP)
    return {
        "command": "analyze",
        "source": source,
        "code": {"name": code.name, "id": code.id, "sense_codon_count": 64 - stops,
                 "stop_codon_count": stops, "amino_acid_count": len(code.amino_acid_image)},
        "symmetry": {
            "class_count": len(partition),
            "size_profile": {str(size): profile[size] for size in sorted(profile)},
            "coherent_count": sym.coherent_count,
            "coherent_count_excluding_stop": sym.coherent_count_excluding_stop,
            "bijective_20_to_20": sym.bijective_20_to_20,
            "bijective_20_to_20_excluding_stop": sym.bijective_20_to_20_excluding_stop,
            "classes": [{"word": cls.canonical_word, "size": len(codons), "codons": list(codons),
                         "products": list(products), "coherent": c, "coherent_excluding_stop": cx}
                        for (cls, codons), (products, c, cx) in zip(partition, classes)],
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
            "fully_degenerate_prefix_count": degenerate_count,
            "full_degeneracy_amino_ceiling": symmetry.FULL_DEGENERACY_AMINO_CEILING,
            "prefixes": [{"prefix": prefix, "products": list(products), "product_set": distinct,
                          "fully_degenerate": degenerate}
                         for prefix, products, distinct, degenerate in prefixes],
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
    profile = ", ".join(f"{n}x size {s}" for s, n in report["symmetry"]["size_profile"].items())
    classes = _table(("word", "size", "codons", "products", "coherent", "coherent-excl-stop"),
                     _class_rows(report, ","))
    prefix_rows = [(e["prefix"], ",".join(e["products"]), ",".join(e["product_set"]),
                    _fmt(e["fully_degenerate"])) for e in report["prefix"]["prefixes"]]
    prefixes = _table(("prefix", "products(U,C,A,G)", "distinct", "fully-degenerate"), prefix_rows)
    return [_ANALYZE_TEXT.format(size_profile=profile, classes="\n".join(classes),
                                 prefixes="\n".join(prefixes), **_fields(report)) + "\n"]


def _analyze_csv(report) -> list:
    return ["\n".join(["word,size,codons,products,coherent,coherent_excluding_stop",
                       *map(",".join, _class_rows(report, ";"))]) + "\n"]


# --- grover ---------------------------------------------------------------

_QUERY_RELATION = "Query relation: (2q+1) * asin(1/sqrt(n)) = pi/2\n"
_SOLVE_N_TEXT = _QUERY_RELATION + "  q = {q}\n  n = {n_solved}"
_SOLVE_Q_TEXT = _QUERY_RELATION + "  n = {n}\n  q = {q_solved} (rounded: {q_rounded})"
_SIMULATE_TEXT = (  # the trace table's rows follow its header
    "Search simulation: n = {n}, q = {q}, marked index {marked}\n"
    "  final marked probability: {final_marked_probability}\n"
    "  closed-form probability:  {closed_form_probability}\n"
    "  |difference|:             {difference}\n"
    "  max norm drift:           {max_norm_drift}\n\n{iteration}  marked_probability"
)


def build_grover_solve_n_report(q: int) -> dict:
    from . import grover
    return {"command": "grover", "mode": "solve-n", "q": q,
            "n_solved": round_sig(grover.solve_n(q))}


def build_grover_solve_q_report(n: float) -> dict:
    from . import grover
    q = grover.solve_q(n)
    return {"command": "grover", "mode": "solve-q", "n": round_sig(n), "q_solved": round_sig(q),
            "q_rounded": round(q)}


def build_grover_simulate_report(n: int, q: int, marked: int, *, cap: int | None = None) -> dict:
    """A run's final and closed-form probabilities and trace; `cap` defaults to DEFAULT_SIM_CAP."""
    from . import grover
    run = grover.simulate(n, q, marked, cap=grover.DEFAULT_SIM_CAP if cap is None else cap)
    closed_form = grover.success_probability(n, q)
    final = run.probability_trace[-1]
    return {"command": "grover", "mode": "simulate", "n": n, "q": q, "marked": marked,
            "final_marked_probability": round_sig(final),
            "closed_form_probability": round_sig(closed_form),
            "difference": round_sig(abs(final - closed_form)),
            "max_norm_drift": round_sig(run.max_norm_drift),
            "trace": RoundedTrace(run.probability_trace)}


class RoundedTrace(Record):
    """A run's probability_trace, read-only: len() does no work; iterating rounds each entry."""

    probabilities: tuple[float, ...]

    def __len__(self) -> int:
        return len(self.probabilities)

    def __iter__(self):
        return map(round_sig, self.probabilities)


def _trace_blocks(trace, row, sep=""):
    """A simulate trace's rows as _chunks blocks of CHUNK_LINES rows, each `row` repeated, joined
    by `sep` and filled from the block: a `%` row from iterations and entries, JSON's `{:.12}`
    (json.dumps's spelling of the 12-digit rounding) from entries; a list is read as floats."""
    floats = trace.probabilities if isinstance(trace, RoundedTrace) else [*map(float, trace)]
    for start in range(0, len(trace), CHUNK_LINES):  # len(): a trace that is an iterator is refused
        entries = floats[start:start + CHUNK_LINES]
        template = sep.join([row] * len(entries))
        if "{" in row:  # JSON
            yield template.format(*entries), len(entries)
        else:
            values = [0, 0] * len(entries)
            values[::2], values[1::2] = range(start, start + len(entries)), entries
            yield template % tuple(values), len(entries)


def _simulate_text(report):
    width = max(len("iteration"), len(str(len(report["trace"]) - 1)))
    head = _SIMULATE_TEXT.format_map(dict(_fields(report), iteration="iteration".ljust(width)))
    return _chunks(head, _trace_blocks(report["trace"], f"\n%-{width}d  %.12g"))


# --- energy ---------------------------------------------------------------

_ENERGY_TEXT = (
    "Uncertainty-relation energy estimate (CGS)\n"
    "  hbar = {hbar} erg*s, delta_x = {delta_x} cm, mass = {mass} g\n"
    "  momentum uncertainty:  {momentum_uncertainty} g*cm/s\n"
    "  fluctuation energy:    {fluctuation_energy_erg} erg ({fluctuation_energy_ev} eV)\n"
    "  hydrogen-bond energy:  {hbond_energy} erg\n"
    "  energy / h-bond:       {hbond_ratio}\n"
    "  at {factor} * delta_x: {energy_scaled_erg} erg,"
    " ratio {energy_ratio}, / h-bond {scaled_to_hbond}"
)


def build_energy_report(params, scale_factor: float) -> dict:
    """The uncertainty energies for PhysicalParams, at delta_x and scaled by `scale_factor`."""
    from . import physics
    dp = physics.momentum_uncertainty(params)
    comparison = physics.scale_comparison(params, scale_factor)
    return {"command": "energy",
            "params": {name: round_sig(value) for name, value in vars(params).items()},
            "momentum_uncertainty": round_sig(dp),
            "fluctuation_energy_erg": round_sig(comparison.energy_base),
            "fluctuation_energy_ev": round_sig(physics.erg_to_ev(comparison.energy_base)),
            "hbond_ratio": round_sig(comparison.base_to_hbond),
            "scale": {"factor": round_sig(comparison.scale_factor),
                      "energy_scaled_erg": round_sig(comparison.energy_scaled),
                      "energy_ratio": round_sig(comparison.energy_ratio),
                      "scaled_to_hbond": round_sig(comparison.scaled_to_hbond)}}


_ENERGY_CSV = (
    "quantity,value\nhbar_erg_s,{hbar}\ndelta_x_cm,{delta_x}\nmass_g,{mass}\n"
    "hbond_energy_erg,{hbond_energy}\nmomentum_uncertainty_g_cm_s,{momentum_uncertainty}\n"
    "fluctuation_energy_erg,{fluctuation_energy_erg}\n"
    "fluctuation_energy_ev,{fluctuation_energy_ev}\nhbond_ratio,{hbond_ratio}\n"
    "scale_factor,{factor}\nenergy_scaled_erg,{energy_scaled_erg}\nenergy_ratio,{energy_ratio}\n"
    "scaled_to_hbond,{scaled_to_hbond}"
)


# --- dispatch ---------------------------------------------------------------

# command as the CLI names it -> (text layout, CSV layout, JSON emitter); a layout is a
# function that returns the chunks, or a template of the whole text filled from the fields
_LAYOUTS = {
    "count": (_count_text, _count_csv, _count_json),
    "count --skip-classes": (_COUNT_SKIPPED_TEXT, _COUNT_SKIPPED_CSV, _json),
    "analyze": (_analyze_text, _analyze_csv, _json),
    "grover solve-n": (_SOLVE_N_TEXT, "q,n_solved\n{q},{n_solved}", _json),
    "grover solve-q": (_SOLVE_Q_TEXT, "n,q_solved,q_rounded\n{n},{q_solved},{q_rounded}", _json),
    "grover simulate": (_simulate_text, lambda report: _chunks(
        "iteration,marked_probability", _trace_blocks(report["trace"], "\n%d,%.12g")),
        lambda report: _json(report, "trace", _trace_blocks(report["trace"], "\n    {:.12}", ","))),
    "energy": (_ENERGY_TEXT, _ENERGY_CSV, _json),
}


def emit(report: dict, fmt: str = "text"):
    """A built report in one of the three formats, as an iterator of text chunks.

    Only here is a report's shape (command, mode, a count's classes) read, to pick
    its layouts. The format and each field the layout names are checked, and a count's classes
    surveyed, before the iterator is returned, so a failure leaves nothing half emitted.
    """
    command = " ".join(filter(None, (report["command"], report.get("mode"))))
    if command == "count" and "classes" not in report:
        command += " --skip-classes"
    formats = ("text", "csv", "json")  # the order of a _LAYOUTS row
    if fmt not in formats:
        raise InvalidParamsError(f"format must be text, json or csv, got {fmt!r}")
    layout = _LAYOUTS[command][formats.index(fmt)]
    try:
        return layout(report) if callable(layout) else [layout.format_map(_fields(report)) + "\n"]
    except KeyError as exc:
        raise InvalidParamsError(f"{command} report has no field {exc.args[0]!r}") from None


def render(report: dict, fmt: str = "text") -> str:
    """Render a built report in one of the three formats: the joined chunks of emit()."""
    return "".join(emit(report, fmt))
