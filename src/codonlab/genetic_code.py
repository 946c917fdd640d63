"""Nucleotide and codon primitives plus translation-table parsing.

A translation table is a plain-text file of ``key = value`` lines::

    name   = Standard
    id     = 1
    AAs    = FFLLSSSSYY**CC*WLLLLPPPPHHQQRRRRIIIMTTTTNNKKSSRRVVVVAAAADDEEGGGG
    Starts = ---M---------------M---------------M----------------------------
    Base1  = TTTTTTTTTTTTTTTTCCCCCCCCCCCCCCCCAAAAAAAAAAAAAAAAGGGGGGGGGGGGGGGG
    Base2  = TTTTCCCCAAAAGGGGTTTTCCCCAAAAGGGGTTTTCCCCAAAAGGGGTTTTCCCCAAAAGGGG
    Base3  = TCAGTCAGTCAGTCAGTCAGTCAGTCAGTCAGTCAGTCAGTCAGTCAGTCAGTCAGTCAGTCAG

AAs, Starts and the three Base lines are exactly 64 characters long;
position i describes the codon Base1[i] Base2[i] Base3[i]. The mapping is
read positionally from those lines, never from an assumed codon order: the
Base lines may list the 64 codons in any order as long as each appears
exactly once, and may use DNA (T) or RNA (U) spelling. The Starts line is
optional; '-' marks a non-start. Input is case-insensitive.

Internally everything is held in RNA spelling: codons are spelled in AUCG
and the 21 product symbols are the 20 one-letter amino-acid codes plus '*'
for stop.
"""

import functools
import itertools

from .errors import InvalidParamsError, TableFormatError, UnknownLetterError
from .record import Record

# Base order of the canonical codon index: index = 16*b1 + 4*b2 + b3 with
# U=0, C=1, A=2, G=3 (the layout order of the table format above).
INDEX_BASE_ORDER = ("U", "C", "A", "G")

AMINO_ACIDS = "ACDEFGHIKLMNPQRSTVWY"
STOP = "*"
PRODUCT_SYMBOLS = AMINO_ACIDS + STOP

# All 64 codons in canonical index order.
ALL_CODONS = tuple(map("".join, itertools.product(INDEX_BASE_ORDER, repeat=3)))
_CODON_INDEX = {codon: i for i, codon in enumerate(ALL_CODONS)}


def codon_index(codon: str) -> int:
    """Canonical index 0..63 of an RNA codon (U=0, C=1, A=2, G=3 per slot)."""
    if not isinstance(codon, str) or len(codon) != 3:
        raise InvalidParamsError(f"codon must be a string of 3 bases, got {codon!r}")
    if codon not in _CODON_INDEX:
        base = next(base for base in codon if base not in INDEX_BASE_ORDER)
        raise UnknownLetterError(f"{base!r} in {codon!r} is not an RNA base")
    return _CODON_INDEX[codon]


class GeneticCode(Record):
    """Immutable total map from the 64 codons to amino acids or stop.

    `aas` holds the 64 product symbols in canonical codon-index order;
    `starts` is the set of start codons in RNA spelling.
    """

    name: str
    id: int | None
    aas: str
    starts: frozenset[str] = frozenset()

    def _check(self):
        if not isinstance(self.name, str):
            raise InvalidParamsError(f"name must be a string, got {self.name!r}")
        if not (self.id is None or type(self.id) is int):  # not a bool, a float or a str
            raise InvalidParamsError(f"id must be an integer or None, got {self.id!r}")
        if self.id is not None and self.id.bit_length() > 2000:  # else < 603 digits: printable
            from .combinatorics import _digit_limit  # a limit is never below 640 digits
            if abs(self.id) >= 10 ** _digit_limit():  # more digits than str() prints
                raise InvalidParamsError(f"id must have at most {_digit_limit()} digits")
        if len(self.aas) != 64:
            raise InvalidParamsError(f"aas must have 64 symbols, got {len(self.aas)}")
        if self.aas.strip(PRODUCT_SYMBOLS):  # empty exactly when every symbol is known
            symbol = next(symbol for symbol in self.aas if symbol not in PRODUCT_SYMBOLS)
            raise InvalidParamsError(f"unknown product symbol {symbol!r}")
        for codon in self.starts:
            codon_index(codon)

    def translate(self, codon: str) -> str:
        """Product symbol for a codon; accepts DNA or RNA spelling, any case."""
        if isinstance(codon, str):  # codon_index refuses anything else
            codon = codon.upper().replace("T", "U")
        return self.aas[codon_index(codon)]

    @property
    def stop_codons(self) -> tuple[str, ...]:
        return tuple(c for i, c in enumerate(ALL_CODONS) if self.aas[i] == STOP)

    @property
    def sense_codons(self) -> tuple[str, ...]:
        return tuple(c for i, c in enumerate(ALL_CODONS) if self.aas[i] != STOP)

    @property
    def amino_acid_image(self) -> frozenset[str]:
        """Distinct amino acids the code produces (stop excluded)."""
        return frozenset(self.aas) - {STOP}


_FIELD_NAMES = ("name", "id", "AAs", "Starts", "Base1", "Base2", "Base3")
_CANONICAL_FIELD = {name.lower(): name for name in _FIELD_NAMES}


def _scan_fields(text: str) -> dict[str, tuple[str, int, int]]:
    """Split table text into key -> (value, line, value column), validating shape."""
    fields = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        raw_key, eq, rhs = raw.partition("=")
        if not eq:
            raise TableFormatError("expected a 'key = value' line", line=line_no)
        key = _CANONICAL_FIELD.get(raw_key.strip().lower())
        if key is None:
            raise TableFormatError(f"unknown field {raw_key.strip()!r}", line=line_no, column=1)
        if key in fields:
            raise TableFormatError(f"duplicate field {key!r}", line=line_no, column=1)
        column = raw.index("=") + 2 + (len(rhs) - len(rhs.lstrip()))
        fields[key] = (rhs.strip(), line_no, column)
    return fields


def _checked_value(fields, key, allowed: str) -> tuple[str, int, int]:
    value, line, column = fields[key]
    value = value.upper()
    if len(value) != 64:
        raise TableFormatError(f"{key} must be 64 characters, got {len(value)}",
                               line=line, column=column)
    if value.strip(allowed):  # empty exactly when every letter is allowed
        i, char = next((i, char) for i, char in enumerate(value) if char not in allowed)
        raise TableFormatError(f"unknown letter {char!r} in {key}", line=line, column=column + i)
    return value, line, column


def parse_table(text: str) -> GeneticCode:
    """Parse a translation table from its file content.

    Raises TableFormatError with 1-based line/column positions on any
    violation: malformed lines, wrong field width, unknown letters, missing
    fields, or Base lines that do not list each codon exactly once.
    """
    if not isinstance(text, str):
        raise InvalidParamsError(f"table text must be a string, got {type(text).__name__}")
    fields = _scan_fields(text)
    for key in ("AAs", "Base1", "Base2", "Base3"):
        if key not in fields:
            raise TableFormatError(f"missing field {key!r}")

    aas_value, _, _ = _checked_value(fields, "AAs", PRODUCT_SYMBOLS)
    base1, base1_line, base1_column = _checked_value(fields, "Base1", "TCAGU")
    base2, _, _ = _checked_value(fields, "Base2", "TCAGU")
    base3, _, _ = _checked_value(fields, "Base3", "TCAGU")

    starts_value = _checked_value(fields, "Starts", "-M")[0] if "Starts" in fields else ""

    name = fields["name"][0] if "name" in fields else "Custom"
    table_id = None
    if "id" in fields:
        raw_id, id_line, id_column = fields["id"]
        try:
            table_id = int(raw_id)
        except ValueError:
            raise TableFormatError(f"id must be an integer, got {raw_id!r}",
                                   line=id_line, column=id_column) from None

    rna_bases = (base.replace("T", "U") for base in (base1, base2, base3))
    codons = list(map("".join, zip(*rna_bases)))  # column by column
    if len(set(codons)) != 64:  # report the first column that repeats an earlier one
        i = next(i for i, codon in enumerate(codons) if codon in codons[:i])
        raise TableFormatError(f"codon {codons[i]} listed more than once in the Base lines",
                               line=base1_line, column=base1_column + i)
    aas = [None] * 64
    for codon, product in zip(codons, aas_value):
        aas[_CODON_INDEX[codon]] = product
    starts = frozenset(codon for codon, mark in zip(codons, starts_value) if mark == "M")
    return GeneticCode(name=name, id=table_id, aas="".join(aas), starts=starts)


def serialize_table(code: GeneticCode) -> str:
    """Render a code in the table-file format (DNA spelling, canonical order).

    parse_table(serialize_table(code)) == code for every code it writes; a name that the
    format cannot hold, one with a line break or whitespace at either end, is refused.
    """
    if code.name != code.name.strip() or len(code.name.splitlines()) > 1:
        raise InvalidParamsError(f"a table file cannot hold the name {code.name!r}")
    fields = {"name": code.name, "id": code.id, "AAs": code.aas,
              "Starts": "".join("M" if codon in code.starts else "-" for codon in ALL_CODONS)}
    for i in range(3):
        fields[f"Base{i + 1}"] = "".join(codon[i] for codon in ALL_CODONS).replace("U", "T")
    return "".join(f"{key:<6} = {value}\n" for key, value in fields.items() if value is not None)


STANDARD_TABLE_TEXT = """\
name   = Standard
id     = 1
AAs    = FFLLSSSSYY**CC*WLLLLPPPPHHQQRRRRIIIMTTTTNNKKSSRRVVVVAAAADDEEGGGG
Starts = ---M---------------M---------------M----------------------------
Base1  = TTTTTTTTTTTTTTTTCCCCCCCCCCCCCCCCAAAAAAAAAAAAAAAAGGGGGGGGGGGGGGGG
Base2  = TTTTCCCCAAAAGGGGTTTTCCCCAAAAGGGGTTTTCCCCAAAAGGGGTTTTCCCCAAAAGGGG
Base3  = TCAGTCAGTCAGTCAGTCAGTCAGTCAGTCAGTCAGTCAGTCAGTCAGTCAGTCAGTCAGTCAG
"""

BUILTIN_TABLE_TEXTS = {"standard": STANDARD_TABLE_TEXT}


def builtin_code(name: str = "standard") -> GeneticCode:
    """A built-in code by name, parsed once; only "standard" ships currently."""
    if not isinstance(name, str) or name not in BUILTIN_TABLE_TEXTS:  # before the cache hashes it
        known = ", ".join(sorted(BUILTIN_TABLE_TEXTS))
        raise InvalidParamsError(f"unknown builtin code {name!r} (known: {known})")
    return _parsed_builtin(name)


@functools.lru_cache(maxsize=None)
def _parsed_builtin(name: str) -> GeneticCode:
    return parse_table(BUILTIN_TABLE_TEXTS[name])


def builtin_standard_code() -> GeneticCode:
    """The standard nuclear genetic code (translation table 1)."""
    return builtin_code("standard")
