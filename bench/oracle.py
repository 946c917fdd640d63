"""Independent checks of every benchmark operation's output.

Each check parses the report in the format it was asked for and compares it
with the harness's own arithmetic: binomials and multinomials for count,
the closed form sin^2((2q+1) asin(1/sqrt(n))) for the simulator, a grouping
of codons by sorted bases for analyze and the CGS formulas for energy.
Nothing here imports codonlab. A check returns a list of problems; an empty
list means the output is correct.
"""

import csv
import io
import json
import math
import re

from workloads import CODONS, STOP, content_key

NUMBER = re.compile(r"[-+]?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?")
PROBABILITY_TOLERANCE = 1e-8
REL_TOLERANCE = 1e-9


class Mismatch(Exception):
    """An output disagrees with the oracle."""


def _expect(condition, message):
    if not condition:
        raise Mismatch(message)


def _close(got, want, what, rel=REL_TOLERANCE, abs_tol=0.0):
    _expect(math.isclose(float(got), want, rel_tol=rel, abs_tol=abs_tol),
            f"{what}: got {got!r}, expected {want!r}")


def _csv_rows(text):
    return list(csv.reader(io.StringIO(text)))


def _table_rows(lines, start):
    """Whitespace-split rows of an aligned text table, up to a blank line."""
    rows = []
    for line in lines[start:]:
        if not line.strip():
            break
        rows.append(line.split())
    return rows


def _labelled(text, label):
    """Numbers on the first line that starts with `label` (after indentation)."""
    for line in text.splitlines():
        if line.strip().startswith(label):
            return NUMBER.findall(line[line.index(label) + len(label):])
    raise Mismatch(f"no line {label!r}")


# --- count -------------------------------------------------------------------


def check_count(expect, text):
    k, r, alphabet, fmt = expect["k"], expect["r"], expect["alphabet"], expect["format"]
    classes = math.comb(k + r - 1, r)
    if fmt == "json":
        report = json.loads(text)
        _expect((report["k"], report["r"]) == (k, r), "k, r not echoed")
        _expect(report["arrangements"] == k**r, "arrangements != k^r")
        _expect(report["multiset_count"] == classes, "multiset_count != C(k+r-1, r)")
        _expect(("classes" in report) == expect["classes"], "classes presence")
        if not expect["classes"]:
            return
        _expect(report["partition_identity_holds"] is True, "identity flag")
        rows = [(c["word"], tuple(c["counts"]), c["size"]) for c in report["classes"]]
    elif fmt == "text":
        lines = text.split("\n")
        _expect(lines[0] == f"Content-class counting for k={k}, r={r}", "title line")
        _expect(int(_labelled(text, "ordered words (k^r):")[0]) == k**r, "ordered words")
        _expect(int(_labelled(text, "content classes:")[0]) == classes, "content classes")
        if not expect["classes"]:
            _expect(lines[3].split() == ["classes:", "skipped"], "skipped line")
            return
        _expect(lines[3].split()[:3] == ["partition", "identity:", "ok"], "identity line")
        _expect(lines[5].split() == ["word", "counts", "size"], "table header")
        rows = []
        for cells in _table_rows(lines, 6):
            _expect(len(cells) == 3, f"text row {cells}")
            word = "" if cells[0] == "(empty)" else cells[0]
            rows.append((word, tuple(map(int, cells[1].split(","))), int(cells[2])))
    else:
        table = _csv_rows(text)
        _expect(table[0] == ["word", "counts", "size"], "csv header")
        rows = [(w, tuple(map(int, counts.split(":"))), int(size))
                for w, counts, size in table[1:]]
    _check_classes(rows, k, r, alphabet, classes)


def _check_classes(rows, k, r, alphabet, classes):
    """Rows (word, counts tuple, size) against C(k+r-1, r), multinomials and k^r."""
    _expect(len(rows) == classes, f"{len(rows)} classes, expected {classes}")
    fact = [math.factorial(i) for i in range(r + 1)]
    factorial_of, whole = fact.__getitem__, fact[r]
    repeat = str.__mul__
    previous, total = None, 0
    for word, counts, size in rows:
        if len(counts) != k or sum(counts) != r:
            raise Mismatch(f"counts {counts} for {word!r}")
        if word != "".join(map(repeat, alphabet, counts)):
            raise Mismatch(f"word {word!r} is not the canonical word of {counts}")
        # Canonical words ascend exactly when their count vectors descend.
        if previous is not None and counts >= previous:
            raise Mismatch(f"word {word!r} out of order or repeated")
        previous = counts
        if size != whole // math.prod(map(factorial_of, counts)):
            raise Mismatch(f"size {size} of {word!r} is not the multinomial of {counts}")
        total += size
    _expect(total == k**r, f"class sizes sum to {total}, not k^r = {k**r}")


# --- grover --------------------------------------------------------------------


def _probability(n, i):
    return math.sin((2 * i + 1) * math.asin(1.0 / math.sqrt(n))) ** 2


def check_simulate(expect, text):
    n, q, marked, fmt = expect["n"], expect["q"], expect["marked"], expect["format"]
    want_final = _probability(n, q)
    if fmt == "json":
        report = json.loads(text)
        _expect((report["n"], report["q"], report["marked"]) == (n, q, marked), "n, q, marked")
        trace = report["trace"]
        _close(report["closed_form_probability"], want_final, "closed form", abs_tol=1e-12)
        _expect(report["final_marked_probability"] == trace[-1], "final != last trace entry")
    else:
        if fmt == "text":
            lines = text.split("\n")
            _expect(lines[0] == f"Search simulation: n = {n}, q = {q}, marked index {marked}",
                    "title line")
            _close(_labelled(text, "closed-form probability:")[0], want_final, "closed form",
                   abs_tol=1e-12)
            final = float(_labelled(text, "final marked probability:")[0])
            _expect(lines[6].split() == ["iteration", "marked_probability"], "table header")
            rows = _table_rows(lines, 7)
        else:
            rows = _csv_rows(text)
            _expect(rows[0] == ["iteration", "marked_probability"], "csv header")
            rows = rows[1:]
        _expect([row[0] for row in rows] == [str(i) for i in range(len(rows))], "iteration column")
        trace = [float(row[1]) for row in rows]
        if fmt == "text":
            _expect(final == trace[-1], "final != last trace entry")
    _expect(len(trace) == q + 1, f"trace has {len(trace)} entries, expected q+1 = {q + 1}")
    for i, p in enumerate(trace):
        _close(p, _probability(n, i), f"trace[{i}]", rel=0.0, abs_tol=PROBABILITY_TOLERANCE)


def check_solve_n(expect, text):
    q, fmt = expect["q"], expect["format"]
    want = 1.0 / math.sin(math.pi / (2.0 * (2 * q + 1))) ** 2
    if fmt == "json":
        report = json.loads(text)
        _expect(report["q"] == q, "q not echoed")
        got = report["n_solved"]
    elif fmt == "text":
        _expect(int(_labelled(text, "q =")[0]) == q, "q not echoed")
        got = _labelled(text, "n =")[0]
    else:
        rows = _csv_rows(text)
        _expect(rows[0] == ["q", "n_solved"] and int(rows[1][0]) == q, "csv rows")
        got = rows[1][1]
    _close(got, want, "n_solved")


def check_solve_q(expect, text):
    n, fmt = expect["n"], expect["format"]
    want = (math.pi / (2.0 * math.asin(1.0 / math.sqrt(n))) - 1.0) / 2.0
    if fmt == "json":
        report = json.loads(text)
        got, rounded = report["q_solved"], report["q_rounded"]
    elif fmt == "text":
        got, rounded = _labelled(text, "q =")
    else:
        rows = _csv_rows(text)
        _expect(rows[0] == ["n", "q_solved", "q_rounded"], "csv header")
        _, got, rounded = rows[1]
    _close(got, want, "q_solved", abs_tol=1e-12)
    _expect(int(rounded) == round(want), f"q_rounded {rounded}")


# --- energy ----------------------------------------------------------------------

ERG_PER_EV = 1.602176634e-12


def check_energy(expect, text):
    hbar, dx, mass, hbond, c = (expect[k] for k in ("hbar", "delta_x", "mass", "hbond", "scale"))
    dp = hbar / dx
    energy = dp * dp / (2.0 * mass)
    ratio = 1.0 / (c * c)
    want = [hbar, dx, mass, hbond, dp, energy, energy / ERG_PER_EV, energy / hbond,
            c, energy * ratio, ratio, energy * ratio / hbond]
    fmt = expect["format"]
    if fmt == "json":
        report = json.loads(text)
        p, s = report["params"], report["scale"]
        got = [p["hbar"], p["delta_x"], p["mass"], p["hbond_energy"],
               report["momentum_uncertainty"], report["fluctuation_energy_erg"],
               report["fluctuation_energy_ev"], report["hbond_ratio"], s["factor"],
               s["energy_scaled_erg"], s["energy_ratio"], s["scaled_to_hbond"]]
    elif fmt == "text":
        numbers = NUMBER.findall(text)
        # Text order: hbar, dx, mass, dp, E erg, E eV, h-bond, E / h-bond, c, ...
        _expect(len(numbers) == 12, f"{len(numbers)} numbers in the text report")
        got = numbers[:3] + [numbers[6]] + numbers[3:6] + numbers[7:]
    else:
        rows = dict(_csv_rows(text)[1:])
        got = [rows[key] for key in (
            "hbar_erg_s", "delta_x_cm", "mass_g", "hbond_energy_erg",
            "momentum_uncertainty_g_cm_s", "fluctuation_energy_erg", "fluctuation_energy_ev",
            "hbond_ratio", "scale_factor", "energy_scaled_erg", "energy_ratio",
            "scaled_to_hbond")]
    for i, (g, w) in enumerate(zip(got, want)):
        _close(g, w, f"energy value {i}")


# --- analyze ----------------------------------------------------------------------


_STATS = {}


def _class_stats(mapping):
    """Coherence and pair counts from the harness's own grouping by sorted bases."""
    key = "".join(mapping[c] for c in CODONS)
    if key not in _STATS:
        _STATS[key] = _count_class_stats(mapping)
    return _STATS[key]


def _count_class_stats(mapping):
    groups = {}
    for codon in CODONS:
        groups.setdefault(content_key(codon), []).append(mapping[codon])
    stats = dict.fromkeys(("coherent", "coherent_excl", "pairs", "violating",
                           "pairs_excl", "violating_excl"), 0)
    for products in groups.values():
        kept = [p for p in products if p != STOP]
        stats["coherent"] += len(set(products)) == 1
        stats["coherent_excl"] += len(set(kept)) <= 1
        for key, items in (("", products), ("_excl", kept)):
            m = len(items)
            stats["pairs" + key] += m * (m - 1) // 2
            stats["violating" + key] += sum(
                items[a] != items[b] for a in range(m) for b in range(a + 1, m))
    return stats


def check_analyze(expect, text):
    fmt = expect["format"]
    summary = None
    if fmt == "json":
        report = json.loads(text)
        sym, vio = report["symmetry"], report["violations"]
        classes = [(c["word"], c["codons"], c["products"], c["coherent"],
                    c["coherent_excluding_stop"]) for c in sym["classes"]]
        summary = {"coherent": sym["coherent_count"],
                   "coherent_excl": sym["coherent_count_excluding_stop"],
                   "pairs": vio["pairs_total"], "violating": vio["pairs_violating"],
                   "pairs_excl": vio["pairs_total_excluding_stop"],
                   "violating_excl": vio["pairs_violating_excluding_stop"]}
    elif fmt == "text":
        lines = text.split("\n")
        header = _find_header(lines)
        classes = [(w, c.split(","), p.split(","), a == "yes", b == "yes")
                   for w, _, c, p, a, b in _table_rows(lines, header + 1)]
        summary = {}
        for label, key in (("coherent classes:", "coherent"), ("same-class pairs:", "pairs"),
                           ("pairs differing in product:", "violating")):
            whole, excl = _labelled(text, label)
            summary[key], summary[key + "_excl"] = int(whole), int(excl)
    else:
        rows = _csv_rows(text)
        _expect(rows[0] == ["word", "size", "codons", "products", "coherent",
                            "coherent_excluding_stop"], "csv header")
        classes = [(w, c.split(";"), p.split(";"), a == "yes", b == "yes")
                   for w, _, c, p, a, b in rows[1:]]

    _expect(len(classes) == 20, f"{len(classes)} classes, expected 20")
    seen = {}
    for word, codons, products, coherent, coherent_excl in classes:
        _expect(len(codons) == len(products), f"class {word}: codons and products differ in length")
        for codon, product in zip(codons, products):
            _expect(content_key(codon) == word, f"codon {codon} filed under class {word}")
            seen[codon] = product
        kept = [p for p in products if p != STOP]
        _expect(coherent == (len(set(products)) == 1), f"class {word}: coherent flag")
        _expect(coherent_excl == (len(set(kept)) <= 1), f"class {word}: coherent-excl flag")
    _expect(sorted(seen) == sorted(CODONS), "classes do not cover the 64 codons once each")
    mapping = expect["mapping"]
    if mapping is not None:
        wrong = [c for c in CODONS if seen[c] != mapping[c]]
        _expect(not wrong, f"products differ from the table at {wrong[:4]}")
    else:
        mapping = seen
    if summary is not None:
        want = _class_stats(mapping)
        _expect(summary == want, f"summary {summary} != oracle {want}")


def _find_header(lines):
    for i, line in enumerate(lines):
        if line.split() == ["word", "size", "codons", "products", "coherent",
                            "coherent-excl-stop"]:
            return i
    raise Mismatch("no class table header")


# --- dispatch ------------------------------------------------------------------------

CHECKS = {"count": check_count, "simulate": check_simulate, "solve-n": check_solve_n,
          "solve-q": check_solve_q, "energy": check_energy, "analyze": check_analyze}


def check(op, exit_code, stdout, stderr, output_file):
    """Problems with one operation's outcome; [] when it passes.

    `output_file` is the --output file's content, or None when the operation
    wrote to stdout or the file does not exist.
    """
    try:
        if op.kind == "refusal":
            _expect(exit_code == op.expect["exit"],
                    f"exit {exit_code}, expected {op.expect['exit']}")
            _expect(stdout == "", "refusal wrote to stdout")
            _expect("Traceback" not in stderr, "traceback on stderr")
            _expect(any(line.startswith("error:") for line in stderr.splitlines()),
                    "no 'error:' line on stderr")
            _expect(output_file is None, "refusal created the output file")
            return []
        _expect(exit_code == 0, f"exit {exit_code}: {stderr.strip()[-300:]}")
        _expect(stderr == "", f"unexpected stderr: {stderr.strip()[-300:]}")
        if op.request.get("output"):
            _expect(stdout == "", "stdout not empty with --output")
            _expect(output_file is not None, "--output file missing")
            report = output_file
        else:
            report = stdout
        CHECKS[op.kind](op.expect, report)
        return []
    except Mismatch as exc:
        return [str(exc)]
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unparseable {op.kind} output: {type(exc).__name__}: {exc}"]
