"""Seeded operation generators for the four benchmark workloads.

Every workload is a sequence of *blocks*. A block has a fixed composition
(the same size tiers, formats and operation kinds every time) and the seed
only chooses the details inside it: sizes near a tier's centre, letters,
output targets, table spellings and, where order does not change the cost,
the order. The timed loop always finishes whole *segments*: `segment_blocks`
consecutive blocks, the shortest run after which the composition repeats
(a refusal kind or an output format may cycle over blocks). So two seeds,
and two versions of the program, measure the same mix of work, and a
figure taken per segment, such as the tail, always ranks the same
operations.

Table files are written here by the harness's own writer, never by the
program's serializer, and the harness keeps its own copy of the standard
code, so the oracle never trusts the program for its expected values.
"""

import json
import math
import random
import string
from dataclasses import dataclass, field
from pathlib import Path

FORMATS = ("text", "json", "csv")

# Fractional part of the golden ratio: offsets frac(v + b * GOLDEN) spread
# evenly over [0, 1) for consecutive blocks b, so a run of a few blocks
# already averages out the jitter a seed puts on a tier.
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

BASES = "UCAG"
CODONS = tuple(a + b + c for a in BASES for b in BASES for c in BASES)
STANDARD_AAS = "FFLLSSSSYY**CC*WLLLLPPPPHHQQRRRRIIIMTTTTNNKKSSRRVVVVAAAADDEEGGGG"
STANDARD = dict(zip(CODONS, STANDARD_AAS))
STANDARD_STARTS = frozenset({"UUG", "CUG", "AUG"})
AMINO = "ACDEFGHIKLMNPQRSTVWY"
STOP = "*"

# Physical defaults of the energy command (CGS), restated for the oracle.
ENERGY_DEFAULTS = {"hbar": 1.05e-27, "delta_x": 1.7e-8, "mass": 1.67e-24,
                   "hbond": 7e-14, "scale": 3.0}

ALPHABET_POOL = string.ascii_letters + string.digits


@dataclass
class Op:
    """One operation: what to run, and what the oracle expects of it.

    `request` is the argv (CLI mode) or the call description sent to the
    worker (library mode). `expect` holds everything the oracle needs,
    including the output format. `work` holds the harness's own count of
    the work the operation implies, used to cross-check traced counters.
    """

    kind: str
    request: dict
    expect: dict
    work: dict = field(default_factory=dict)


def content_key(codon: str) -> str:
    """The base-content class of an RNA codon: its letters sorted."""
    return "".join(sorted(codon))


def _rng(workload: str, seed: int, *parts) -> random.Random:
    return random.Random(":".join(map(str, (workload, seed) + parts)))


def _fixed_order(workload: str, b: int, ops: list) -> list:
    """Shuffle a block the same way for every seed.

    A large operation leaves caches and the allocator in a state that slows
    the next one, so the order is part of the workload: keeping it fixed
    keeps seeds comparable while the operations still interleave.
    """
    random.Random(f"{workload}:order:{b}").shuffle(ops)
    return ops


# --- table files -----------------------------------------------------------


def random_mapping(rng: random.Random, *, stops: bool) -> dict:
    symbols = AMINO + STOP if stops else AMINO
    return {c: rng.choice(symbols) for c in CODONS}


def symmetrized_mapping(base: dict, rng: random.Random) -> dict:
    """Give every codon of a content class the product of one random member."""
    groups = {}
    for codon in CODONS:
        groups.setdefault(content_key(codon), []).append(codon)
    result = {}
    for members in groups.values():
        product = base[rng.choice(members)]
        for codon in members:
            result[codon] = product
    return result


def _cased(text: str, rng: random.Random) -> str:
    mode = rng.randrange(3)
    if mode == 0:
        return text.upper()
    if mode == 1:
        return text.lower()
    return "".join(ch.lower() if rng.random() < 0.5 else ch for ch in text)


def table_text(mapping: dict, rng: random.Random, *, name=None, table_id=None,
               starts=None, defect=None) -> str:
    """A translation-table file in a seeded spelling, case and column order.

    `defect` makes the file invalid on purpose: "short" drops one AAs
    column, "letter" puts an unknown letter in Base2, "duplicate" lists
    one codon twice.
    """
    order = list(CODONS)
    if rng.random() < 0.75:
        rng.shuffle(order)
    dna = rng.random() < 0.5

    def spell(s):
        return s.replace("U", "T") if dna else s

    bases = ["".join(c[i] for c in order) for i in range(3)]
    aas = "".join(mapping[c] for c in order)
    if defect == "short":
        aas = aas[:-1]
    elif defect == "letter":
        pos = rng.randrange(64)
        bases[1] = bases[1][:pos] + "X" + bases[1][pos + 1:]
    elif defect == "duplicate":
        src, dst = rng.sample(range(64), 2)
        bases = [b[:dst] + b[src] + b[dst + 1:] for b in bases]

    fields = []
    if name is not None:
        fields.append(("name", name))
    if table_id is not None:
        fields.append(("id", str(table_id)))
    fields.append(("AAs", _cased(aas, rng)))
    if starts is not None:
        fields.append(("Starts", _cased("".join("M" if c in starts else "-" for c in order), rng)))
    for i, line in enumerate(bases, start=1):
        fields.append((f"Base{i}", _cased(spell(line), rng)))
    sep = rng.choice((" = ", "=", "  =  "))
    return "".join(f"{key:<6}{sep}{value}\n" for key, value in fields)


def null_tables(rng: random.Random, count: int) -> list[tuple[dict, str]]:
    """The analyze-null table pool: (mapping, file text) pairs.

    A third random codes with stops, a third random codes without stops,
    and the rest split between spellings of the standard code and
    symmetrised codes (coherent on every content class).
    """
    pool = []
    for i in range(count):
        category = ("random-stops", "random-no-stops", "standard", "symmetrized",
                    "random-stops", "random-no-stops")[i % 6]
        if category == "standard":
            mapping, starts, table_id = STANDARD, STANDARD_STARTS, 1
        elif category == "symmetrized":
            base = STANDARD if rng.random() < 0.5 else random_mapping(rng, stops=True)
            mapping, starts, table_id = symmetrized_mapping(base, rng), None, None
        else:
            mapping = random_mapping(rng, stops=category == "random-stops")
            starts, table_id = None, None
        name = f"null-{i}" if rng.random() < 0.8 else None
        text = table_text(mapping, rng, name=name, table_id=table_id, starts=starts)
        pool.append((mapping, text))
    return pool


# --- cli-mix ---------------------------------------------------------------


class CliMix:
    """Small invocations of every subcommand, 5% documented refusals.

    A block is 20 invocations: 5 count, 5 analyze, 5 grover, 4 energy and
    one refusal, which cycles through a table parse error, a count over
    --cap and a simulate over --cap from block to block.
    """

    name = "cli-mix"
    mode = "cli"
    segment_blocks = 3  # one block of each refusal kind
    trace_blocks = 3
    REFUSALS = ("table", "count-cap", "simulate-cap")

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.refusal_offset = _rng(self.name, seed).randrange(3)

    def warmup(self) -> Op:
        return Op("count", {"argv": ["count", "--k", "4", "--r", "3"]},
                  {"format": "text", "k": 4, "r": 3, "alphabet": "ABCD", "classes": True})

    def block(self, b: int) -> list[Op]:
        rng = _rng(self.name, self.seed, b)
        makers = ([self._count] * 5 + [self._analyze] * 5 + [self._grover] * 5
                  + [self._energy] * 4)
        ops = [make(rng, b, i) for i, make in enumerate(makers)]
        kind = self.REFUSALS[(b + self.refusal_offset) % 3]
        ops.append(self._refusal(rng, b, len(ops), kind))
        rng.shuffle(ops)
        return ops

    def _path(self, b, i, suffix) -> Path:
        return self.workdir / f"b{b}-op{i}.{suffix}"

    def _finish(self, rng, b, i, kind, command, options, expect) -> Op:
        """Turn an option dict into argv, moving some options into a config
        file and some reports into --output, both seeded."""
        fmt = rng.choice(FORMATS)
        expect["format"] = fmt
        options = dict(options, format=fmt)
        config = {}
        if rng.random() < 0.3:
            for key in list(options):
                if rng.random() < 0.5:
                    config[key] = options.pop(key)
            if "format" in options and rng.random() < 0.5:
                # A config value the explicit flag must override.
                config["format"] = rng.choice([f for f in FORMATS if f != fmt])
            path = self._path(b, i, "config.json")
            path.write_text(json.dumps(config), encoding="utf-8")
            argv_tail = ["--config", str(path)]
        else:
            argv_tail = []
        output = None
        if rng.random() < 0.5:
            output = str(self._path(b, i, "out"))
            argv_tail += ["--output", output]
        argv = list(command)
        for key, value in options.items():
            argv += ["--" + key.replace("_", "-"), str(value)]
        argv += argv_tail
        return Op(kind, {"argv": argv, "output": output}, expect)

    def _count(self, rng, b, i) -> Op:
        k, r = rng.randint(1, 5), rng.randint(0, 4)
        options = {"k": k, "r": r}
        alphabet = string.ascii_uppercase[:k]
        if rng.random() < 0.3:
            alphabet = "".join(rng.sample(ALPHABET_POOL, k))
            options["alphabet"] = alphabet
        op = self._finish(rng, b, i, "count", ["count"], options,
                          {"k": k, "r": r, "alphabet": alphabet, "classes": True})
        if op.expect["format"] != "csv" and rng.random() < 0.15:
            op.request["argv"].append("--skip-classes")
            op.expect["classes"] = False
        return op

    def _analyze(self, rng, b, i) -> Op:
        source = ("builtin", "table", "table", "random")[i % 4]
        if source == "builtin":
            return self._finish(rng, b, i, "analyze", ["analyze"], {"builtin": "standard"},
                                {"mapping": STANDARD})
        if source == "random":
            return self._finish(rng, b, i, "analyze", ["analyze"],
                                {"random_seed": rng.randrange(10**6)}, {"mapping": None})
        mapping = random_mapping(rng, stops=rng.random() < 0.5)
        path = self._path(b, i, "table.txt")
        path.write_text(table_text(mapping, rng, name=f"mix-{b}-{i}"), encoding="utf-8")
        return self._finish(rng, b, i, "analyze", ["analyze"], {"table": str(path)},
                            {"mapping": mapping})

    def _grover(self, rng, b, i) -> Op:
        mode = ("solve-n", "solve-q", "simulate")[i % 3]
        if mode == "solve-n":
            q = rng.randint(0, 100)
            return self._finish(rng, b, i, "solve-n", ["grover", "solve-n"], {"q": q}, {"q": q})
        if mode == "solve-q":
            n = f"{10 ** rng.uniform(0.2, 6):.6g}"
            return self._finish(rng, b, i, "solve-q", ["grover", "solve-q"], {"n": n},
                                {"n": float(n)})
        n = rng.randint(2, 256)
        q, marked = rng.randint(0, 40), rng.randrange(n)
        return self._finish(rng, b, i, "simulate", ["grover", "simulate"],
                            {"n": n, "q": q, "marked": marked},
                            {"n": n, "q": q, "marked": marked})

    def _energy(self, rng, b, i) -> Op:
        params = dict(ENERGY_DEFAULTS)
        options = {}
        for key, default in ENERGY_DEFAULTS.items():
            if key in ("delta_x", "scale") or rng.random() < 0.5:
                value = float(f"{default * 10 ** rng.uniform(-1, 1):.6g}")
                params[key] = options[key] = value
        return self._finish(rng, b, i, "energy", ["energy"], options, params)

    def _refusal(self, rng, b, i, kind) -> Op:
        if kind == "table":
            path = self._path(b, i, "bad-table.txt")
            defect = rng.choice(("short", "letter", "duplicate"))
            path.write_text(table_text(random_mapping(rng, stops=True), rng, defect=defect),
                            encoding="utf-8")
            argv, code = ["analyze", "--table", str(path)], 2
        elif kind == "count-cap":
            k, r = rng.randint(3, 5), rng.randint(3, 4)
            cap = rng.randint(1, math.comb(k + r - 1, r) - 1)
            argv, code = ["count", "--k", str(k), "--r", str(r), "--cap", str(cap)], 3
        else:
            n = rng.randint(17, 256)
            argv = ["grover", "simulate", "--n", str(n), "--q", str(rng.randint(1, 9)),
                    "--cap", str(rng.randint(2, n - 1))]
            code = 3
        argv += ["--format", rng.choice(FORMATS)]
        output = None
        if rng.random() < 0.5:
            output = str(self._path(b, i, "out"))
            argv += ["--output", output]
        return Op("refusal", {"argv": argv, "output": output}, {"exit": code, "format": None})


# --- count-enumerate -------------------------------------------------------


# Ten class-count targets, log-spaced from 1e3 to 2e5, and for each the
# (k, r) pair, 5 <= k <= 12, whose class count C(k+r-1, r) comes closest.
COUNT_TIERS = tuple(round(1000 * 200 ** (i / 9)) for i in range(10))


def count_pair(target: int) -> tuple[int, int]:
    """The (k, r) pair whose class count is closest to `target`.

    Fixed per tier on purpose: sizes with the same class count but another
    k differ in output width, and so in time and memory; a seed varies the
    letters, the order and the output targets instead.
    """
    pairs = [(k, r) for k in range(5, 13) for r in range(1, 40)]
    return min(pairs, key=lambda p: abs(math.comb(p[0] + p[1] - 1, p[1]) / target - 1))


class CountEnumerate:
    """Full class enumeration at ten class-count tiers, 1e3 to 2e5.

    A block runs every tier in every format (30 invocations), half of them
    to stdout and half to --output.
    """

    name = "count-enumerate"
    mode = "cli"
    segment_blocks = 1
    trace_blocks = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.pairs = [count_pair(t) for t in COUNT_TIERS]

    def warmup(self) -> Op:
        return Op("count", {"argv": ["count", "--k", "4", "--r", "3"]},
                  {"format": "text", "k": 4, "r": 3, "alphabet": "ABCD", "classes": True})

    def block(self, b: int) -> list[Op]:
        rng = _rng(self.name, self.seed, b)
        combos = [(tier, fmt) for tier in range(len(COUNT_TIERS)) for fmt in FORMATS]
        to_file = [i % 2 == 0 for i in range(len(combos))]
        rng.shuffle(to_file)
        ops = []
        for i, ((tier, fmt), output_file) in enumerate(zip(combos, to_file)):
            k, r = self.pairs[tier]
            argv = ["count", "--k", str(k), "--r", str(r), "--format", fmt]
            alphabet = string.ascii_uppercase[:k]
            if rng.random() < 0.5:
                alphabet = "".join(rng.sample(ALPHABET_POOL, k))
                argv += ["--alphabet", alphabet]
            output = str(self.workdir / f"b{b}-op{i}.out") if output_file else None
            if output:
                argv += ["--output", output]
            ops.append(Op("count", {"argv": argv, "output": output},
                          {"format": fmt, "k": k, "r": r, "alphabet": alphabet, "classes": True},
                          {"classes": math.comb(k + r - 1, r)}))
        return _fixed_order(self.name, b, ops)


# --- grover-simulate -------------------------------------------------------


SIM_TIERS = 32          # half-octave tiers of n over [2^4, 2^20]
LONG_TRACE_TIERS = 4    # tiers of q over [10^3, 5 * 10^4] with n <= 64
TIER_JITTER = 0.25      # share of its tier's width that a size may move by


class GroverSimulate:
    """Library-mode simulate + render, mostly at the optimal query count.

    A block has one n per half octave of [2^4, 2^20] with q = round(solve_q(n))
    and four long-trace runs (n <= 64, q from 10^3 to 5 * 10^4). Sizes sit
    near their tier's centre: the seed sets each tier's offset and later
    blocks step it by the golden ratio, so every run spreads its sizes
    alike and the slowest operations cost the same from seed to seed.
    """

    name = "grover-simulate"
    mode = "library"
    segment_blocks = 3  # each tier in each format
    trace_blocks = 2

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        base = _rng(self.name, self.seed)
        self.offsets = [base.random() for _ in range(SIM_TIERS + LONG_TRACE_TIERS)]

    def warmup(self) -> Op:
        return self._op(64, 6, 5, "text")

    def _op(self, n, q, marked, fmt) -> Op:
        return Op("simulate", {"fn": "grover", "n": n, "q": q, "marked": marked, "fmt": fmt},
                  {"format": fmt, "n": n, "q": q, "marked": marked},
                  {"iterations": q, "amplitude_updates": n * q})

    def block(self, b: int) -> list[Op]:
        rng = _rng(self.name, self.seed, b)
        ops = []
        for tier in range(SIM_TIERS + LONG_TRACE_TIERS):
            u = (self.offsets[tier] + b * GOLDEN) % 1.0
            position = 0.5 + TIER_JITTER * (u - 0.5)
            fmt = FORMATS[(tier + b) % 3]
            if tier < SIM_TIERS:
                n = round(2 ** (4 + (tier + position) * 16 / SIM_TIERS))
                theta = math.asin(1.0 / math.sqrt(n))
                q = round((math.pi / (2.0 * theta) - 1.0) / 2.0)
            else:
                j = tier - SIM_TIERS
                n = rng.randint(2, 64)
                q = round(10 ** (3 + (j + position) * math.log10(50) / LONG_TRACE_TIERS))
            ops.append(self._op(n, q, rng.randrange(n), fmt))
        return _fixed_order(self.name, b, ops)


# --- analyze-null ----------------------------------------------------------


NULL_POOL = 96


class AnalyzeNull:
    """Library-mode parse_table + build_analyze_report + render.

    The setup writes a pool of 96 table files (random codes with and without
    stops, spellings of the standard code, symmetrised codes). A block
    analyses each once in a seeded order; the format rotates per block.
    """

    name = "analyze-null"
    mode = "library"
    segment_blocks = 3  # each table in each format
    trace_blocks = 20

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        rng = _rng(self.name, self.seed)
        self.pool = []
        for i, (mapping, text) in enumerate(null_tables(rng, NULL_POOL)):
            path = workdir / f"null-{i}.txt"
            path.write_text(text, encoding="utf-8")
            self.pool.append((str(path), mapping))

    def warmup(self) -> Op:
        return self._op(0, "text")

    def _op(self, i, fmt) -> Op:
        path, mapping = self.pool[i]
        return Op("analyze", {"fn": "analyze", "path": path, "source": f"table:null-{i}",
                              "fmt": fmt},
                  {"format": fmt, "mapping": mapping}, {"tables": 1})

    def block(self, b: int) -> list[Op]:
        order = list(range(len(self.pool)))
        _rng(self.name, self.seed, b).shuffle(order)
        return [self._op(i, FORMATS[(i + b) % 3]) for i in order]


WORKLOADS = {w.name: w for w in (CliMix, CountEnumerate, GroverSimulate, AnalyzeNull)}
