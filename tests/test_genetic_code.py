"""Translation-table parsing, serialization and codon indexing.

The oracle is a test-local copy of the standard table's strings, turned
into a codon -> product dict by walking the Base columns directly. The
library under test never sees this dict; any disagreement between the
two readings of the same 64 columns is a bug.
"""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codonlab import (
    ALL_CODONS,
    AMINO_ACIDS,
    GeneticCode,
    InvalidParamsError,
    TableFormatError,
    UnknownLetterError,
    builtin_code,
    builtin_standard_code,
    codon_index,
    parse_table,
    serialize_table,
)
from codonlab.genetic_code import PRODUCT_SYMBOLS, STANDARD_TABLE_TEXT, _scan_fields
from codonlab.reports import build_analyze_report, render

# Frozen copy of translation table 1, kept separate from the package's own.
ORACLE_AAS = "FFLLSSSSYY**CC*WLLLLPPPPHHQQRRRRIIIMTTTTNNKKSSRRVVVVAAAADDEEGGGG"
ORACLE_STARTS = "---M---------------M---------------M----------------------------"
ORACLE_BASE1 = "TTTTTTTTTTTTTTTTCCCCCCCCCCCCCCCCAAAAAAAAAAAAAAAAGGGGGGGGGGGGGGGG"
ORACLE_BASE2 = "TTTTCCCCAAAAGGGGTTTTCCCCAAAAGGGGTTTTCCCCAAAAGGGGTTTTCCCCAAAAGGGG"
ORACLE_BASE3 = "TCAGTCAGTCAGTCAGTCAGTCAGTCAGTCAGTCAGTCAGTCAGTCAGTCAGTCAGTCAGTCAG"


def oracle_mapping():
    """RNA codon -> product, read column by column from the frozen strings."""
    table = {}
    for i in range(64):
        codon = (ORACLE_BASE1[i] + ORACLE_BASE2[i] + ORACLE_BASE3[i]).replace("T", "U")
        table[codon] = ORACLE_AAS[i]
    return table


def oracle_starts():
    return {
        (ORACLE_BASE1[i] + ORACLE_BASE2[i] + ORACLE_BASE3[i]).replace("T", "U")
        for i in range(64)
        if ORACLE_STARTS[i] == "M"
    }


# --- the standard code ------------------------------------------------------


def test_standard_code_translates_all_codons_like_the_oracle():
    code = builtin_standard_code()
    expected = oracle_mapping()
    for codon in ALL_CODONS:
        assert code.translate(codon) == expected[codon]
    assert dict(zip(ALL_CODONS, code.aas)) == expected


def test_standard_code_counts():
    code = builtin_standard_code()
    expected = oracle_mapping()
    stops = sorted(c for c, p in expected.items() if p == "*")
    assert sorted(code.stop_codons) == stops == ["UAA", "UAG", "UGA"]
    assert len(code.sense_codons) == 64 - len(stops) == 61
    assert code.amino_acid_image == set(AMINO_ACIDS)
    assert len(code.amino_acid_image) == 20


def test_standard_code_starts():
    code = builtin_standard_code()
    assert code.starts == oracle_starts() == {"UUG", "CUG", "AUG"}


def test_standard_code_metadata():
    code = builtin_standard_code()
    assert code.name == "Standard"
    assert code.id == 1


def test_translate_accepts_dna_and_lowercase():
    code = builtin_standard_code()
    assert code.translate("ATG") == code.translate("AUG") == "M"
    assert code.translate("taa") == "*"
    assert code.translate("ggg") == "G"


def test_builtin_lookup():
    assert builtin_code("standard") is builtin_standard_code()
    with pytest.raises(InvalidParamsError):
        builtin_code("martian")


# --- codon indexing ---------------------------------------------------------


def test_codon_index_is_a_bijection():
    seen = set()
    for i, codon in enumerate(ALL_CODONS):
        assert codon_index(codon) == i
        seen.add(i)
    assert seen == set(range(64))


def test_codon_index_corner_values():
    assert codon_index("UUU") == 0
    assert codon_index("UUC") == 1
    assert codon_index("GGG") == 63


def test_codon_index_rejects_bad_input():
    for codon in ("AU", None, ["U", "U", "U"]):
        with pytest.raises(InvalidParamsError, match="^codon must be a string of 3 bases"):
            codon_index(codon)
    with pytest.raises(UnknownLetterError, match="^'T' in 'ATG' is not an RNA base$"):
        codon_index("ATG")  # DNA spelling is not an index key
    with pytest.raises(UnknownLetterError, match="^'x' in 'UxT'"):  # the first bad base
        codon_index("UxT")


# --- parsing ----------------------------------------------------------------


def test_parse_builtin_text_round_trips_byte_identically():
    code = builtin_standard_code()
    assert serialize_table(code) == STANDARD_TABLE_TEXT
    assert parse_table(serialize_table(code)) == code


def test_parse_accepts_rna_spelling_and_mixed_case():
    # respell only the Base lines; AAs has a genuine T (threonine)
    text = "\n".join(
        line.replace("T", "U") if line.startswith("Base") else line
        for line in STANDARD_TABLE_TEXT.splitlines()
    )
    assert parse_table(text).aas == builtin_standard_code().aas
    lowered = "\n".join(
        line.lower() if line.startswith(("Base", "AAs", "Starts")) else line
        for line in STANDARD_TABLE_TEXT.splitlines()
    )
    assert parse_table(lowered) == builtin_standard_code()


def test_parse_reads_columns_positionally():
    # shuffling the 64 columns in lockstep must not change the parsed code
    rng = random.Random(11)
    order = list(range(64))
    rng.shuffle(order)
    text = "\n".join(
        [
            "name  = Standard",
            "id    = 1",
            "AAs    = " + "".join(ORACLE_AAS[i] for i in order),
            "Starts = " + "".join(ORACLE_STARTS[i] for i in order),
            "Base1  = " + "".join(ORACLE_BASE1[i] for i in order),
            "Base2  = " + "".join(ORACLE_BASE2[i] for i in order),
            "Base3  = " + "".join(ORACLE_BASE3[i] for i in order),
        ]
    )
    assert parse_table(text) == builtin_standard_code()


def test_parse_without_optional_fields():
    text = "\n".join(
        [
            "AAs    = " + ORACLE_AAS,
            "Base1  = " + ORACLE_BASE1,
            "Base2  = " + ORACLE_BASE2,
            "Base3  = " + ORACLE_BASE3,
        ]
    )
    code = parse_table(text)
    assert code.name == "Custom"
    assert code.id is None
    assert code.starts == frozenset()
    assert dict(zip(ALL_CODONS, code.aas)) == oracle_mapping()


def test_parse_ignores_blank_lines():
    text = "\n\n" + STANDARD_TABLE_TEXT.replace("\nBase1", "\n\nBase1") + "\n\n"
    assert parse_table(text) == builtin_standard_code()


def random_test_code(seed):
    """A valid but meaningless code, with random starts, for round trips."""
    rng = random.Random(seed)
    aas = "".join(rng.choice(PRODUCT_SYMBOLS) for _ in range(64))
    starts = frozenset(rng.sample(ALL_CODONS, rng.randrange(0, 5)))
    table_id = rng.choice([None, rng.randrange(1, 100)])
    return GeneticCode(name=f"scrambled-{seed}", id=table_id, aas=aas, starts=starts)


@pytest.mark.parametrize("seed", [0, 1, 17, 99])
def test_serialize_parse_round_trip_on_random_codes(seed):
    code = random_test_code(seed)
    assert parse_table(serialize_table(code)) == code


def test_round_trip_over_many_seeds():
    for seed in range(100):
        code = random_test_code(seed)
        assert parse_table(serialize_table(code)) == code


@settings(max_examples=300)
@given(st.text())
def test_serialize_refuses_a_name_or_round_trips_it_exactly(name):
    code = GeneticCode(name=name, id=5, aas=ORACLE_AAS, starts=frozenset({"AUG"}))
    try:
        text = serialize_table(code)
    except InvalidParamsError:
        return
    assert parse_table(text) == code


@pytest.mark.parametrize("name", ["  padded ", "x\r", "a\nb", "a\u2028b", "\t"])
def test_serialize_refuses_a_name_the_table_format_cannot_hold(name):
    # parse_table strips a value and splits lines as str.splitlines does
    with pytest.raises(InvalidParamsError, match="cannot hold the name"):
        serialize_table(GeneticCode(name=name, id=None, aas=ORACLE_AAS))


# --- parse errors carry positions -------------------------------------------


def replace_line(text, key, new_line):
    return "\n".join(
        new_line if line.startswith(key) else line for line in text.splitlines()
    )


def test_short_aas_line_reports_position():
    bad = replace_line(STANDARD_TABLE_TEXT, "AAs", "AAs    = " + ORACLE_AAS[:63])
    with pytest.raises(TableFormatError) as err:
        parse_table(bad)
    assert err.value.line == 3
    assert "64" in str(err.value)


def test_unknown_product_symbol_reports_column():
    mangled = ORACLE_AAS[:10] + "J" + ORACLE_AAS[11:]
    bad = replace_line(STANDARD_TABLE_TEXT, "AAs", "AAs    = " + mangled)
    with pytest.raises(TableFormatError) as err:
        parse_table(bad)
    assert err.value.line == 3
    assert err.value.column == 10 + 10  # value starts at column 10
    assert "'J'" in str(err.value)


def test_unknown_base_letter_reports_position():
    bad = replace_line(STANDARD_TABLE_TEXT, "Base3", "Base3  = " + "X" * 64)
    with pytest.raises(TableFormatError) as err:
        parse_table(bad)
    assert err.value.line == 7
    assert err.value.column == 10


def test_missing_field():
    bad = replace_line(STANDARD_TABLE_TEXT, "Base2", "")
    with pytest.raises(TableFormatError, match="missing field 'Base2'"):
        parse_table(bad)


def test_duplicate_field():
    bad = STANDARD_TABLE_TEXT + "id     = 2\n"
    with pytest.raises(TableFormatError) as err:
        parse_table(bad)
    assert "duplicate field 'id'" in str(err.value)
    assert err.value.line == 8


def test_unknown_field():
    bad = STANDARD_TABLE_TEXT + "Codons = 64\n"
    with pytest.raises(TableFormatError, match="unknown field"):
        parse_table(bad)


def test_line_without_equals_sign():
    with pytest.raises(TableFormatError) as err:
        parse_table("just some words\n")
    assert err.value.line == 1


def test_non_integer_id():
    bad = replace_line(STANDARD_TABLE_TEXT, "id", "id     = one")
    with pytest.raises(TableFormatError, match="id must be an integer"):
        parse_table(bad)


def test_repeated_codon_across_base_lines():
    # making column 1 read TTT again collides with column 0
    mangled = ORACLE_BASE3[0] + "T" + ORACLE_BASE3[2:]
    bad = replace_line(STANDARD_TABLE_TEXT, "Base3", "Base3  = " + mangled)
    with pytest.raises(TableFormatError, match="more than once"):
        parse_table(bad)


def test_bad_starts_letter():
    bad = replace_line(STANDARD_TABLE_TEXT, "Starts", "Starts = " + "S" * 64)
    with pytest.raises(TableFormatError, match="unknown letter"):
        parse_table(bad)


# --- the error path against a letter-by-letter reference ---------------------


def reference_parse_table(text):
    """parse_table's checks as a scan letter by letter and a codon_index per column.

    The library checks whole lines at once and reads codon indices from a
    lookup; it must raise what this reference raises, with the same message,
    line and column. Only the field scan is shared.
    """
    fields = _scan_fields(text)
    for key in ("AAs", "Base1", "Base2", "Base3"):
        if key not in fields:
            raise TableFormatError(f"missing field {key!r}")

    def checked(key, allowed):
        value, line, column = fields[key]
        value = value.upper()
        if len(value) != 64:
            raise TableFormatError(
                f"{key} must be 64 characters, got {len(value)}", line=line, column=column
            )
        for i, char in enumerate(value):
            if char not in allowed:
                raise TableFormatError(
                    f"unknown letter {char!r} in {key}", line=line, column=column + i
                )
        return value, line, column

    checked("AAs", PRODUCT_SYMBOLS)
    base1, base1_line, base1_column = checked("Base1", "TCAGU")
    base2, base3 = checked("Base2", "TCAGU")[0], checked("Base3", "TCAGU")[0]
    if "Starts" in fields:
        checked("Starts", "-M")
    seen = set()
    for i in range(64):
        codon = (base1[i] + base2[i] + base3[i]).replace("T", "U")
        if codon_index(codon) in seen:
            raise TableFormatError(
                f"codon {codon} listed more than once in the Base lines",
                line=base1_line,
                column=base1_column + i,
            )
        seen.add(codon_index(codon))


def reference_check_aas(aas):
    """GeneticCode's symbol check, letter by letter."""
    for symbol in aas:
        if symbol not in PRODUCT_SYMBOLS:
            raise InvalidParamsError(f"unknown product symbol {symbol!r}")


def outcome(call, *args):
    """What `call` raises, as (type, message, line, column), or None."""
    try:
        call(*args)
    except Exception as exc:  # noqa: BLE001 - the exception itself is compared
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None)
    return None


_TABLE_KEYS = ("AAs", "Starts", "Base1", "Base2", "Base3")
_ALLOWED = {"AAs": PRODUCT_SYMBOLS, "Starts": "-M", "Base1": "TCAGU", "Base2": "TCAGU",
            "Base3": "TCAGU"}


def _bad_letters(key):
    return st.characters().filter(lambda c: c.upper() not in _ALLOWED[key])


@st.composite
def defective_tables(draw):
    """A valid table in a drawn column order and spelling, then one defect."""
    order = draw(st.permutations(ALL_CODONS))
    values = {
        "AAs": draw(st.text(PRODUCT_SYMBOLS, min_size=64, max_size=64)),
        "Starts": draw(st.text("-M", min_size=64, max_size=64)),
    }
    for i in range(3):
        values[f"Base{i + 1}"] = "".join(codon[i] for codon in order)
    if draw(st.booleans()):  # DNA spelling
        values.update({f"Base{i}": values[f"Base{i}"].replace("U", "T") for i in (1, 2, 3)})
    defect = draw(st.sampled_from(("letter", "length", "duplicate")))
    key = draw(st.sampled_from(_TABLE_KEYS))
    value = values[key]
    if defect == "letter":  # one to three bad letters: the first one is reported
        for _ in range(draw(st.integers(1, 3))):
            i = draw(st.integers(0, 63))
            value = value[:i] + draw(_bad_letters(key)) + value[i + 1:]
    elif defect == "length":
        size = draw(st.integers(0, 130).filter(lambda n: n != 64))
        value = (value * 3)[:size]
    else:  # column `dst` repeats column `src` in all three Base lines
        src, dst = draw(st.lists(st.integers(0, 63), min_size=2, max_size=2, unique=True))
        for base in ("Base1", "Base2", "Base3"):
            line = values[base]
            values[base] = line[:dst] + line[src] + line[dst + 1:]
        key, value = "AAs", values["AAs"]
    values[key] = value
    lower = draw(st.booleans())
    lines = [f"{k:<6} = {v.lower() if lower else v}" for k, v in values.items()]
    return "name   = drawn\nid     = 7\n" + "\n".join(lines) + "\n"


@given(defective_tables())
@settings(max_examples=300, deadline=None)
def test_parse_errors_match_the_letter_by_letter_reference(text):
    expected = outcome(reference_parse_table, text)
    assert expected is not None  # every defect is an error
    assert outcome(parse_table, text) == expected


@given(st.text(PRODUCT_SYMBOLS, min_size=64, max_size=64),
       st.lists(st.tuples(st.integers(0, 63), st.characters().filter(
           lambda c: c not in PRODUCT_SYMBOLS)), min_size=1, max_size=3))
@settings(max_examples=200, deadline=None)
def test_code_symbol_errors_match_the_letter_by_letter_reference(aas, bad):
    for i, char in bad:
        aas = aas[:i] + char + aas[i + 1:]
    expected = outcome(reference_check_aas, aas)
    assert expected is not None
    assert outcome(GeneticCode, "x", None, aas) == expected


# --- GeneticCode validation -------------------------------------------------


def test_code_rejects_wrong_aas_length():
    with pytest.raises(InvalidParamsError):
        GeneticCode(name="x", id=None, aas="M" * 63)


@pytest.mark.parametrize("bad_id", [float("nan"), float("inf"), 2.5, 7.0, "7", True, False])
def test_code_rejects_an_id_that_is_not_none_or_an_int(bad_id):
    # analyze JSON would spell a float id `nan`, `inf` or `7.0`, a str "7" and a bool true
    with pytest.raises(InvalidParamsError, match="id must be an integer or None"):
        GeneticCode(name="x", id=bad_id, aas="M" * 64)


@pytest.mark.parametrize("bad_name", [None, 7, b"x"])
def test_code_rejects_a_name_that_is_not_a_string(bad_name):
    with pytest.raises(InvalidParamsError, match="name must be a string"):
        GeneticCode(name=bad_name, id=None, aas="M" * 64)


@pytest.mark.parametrize("good_id", [None, 0, 1, -3, 10**30])
def test_code_accepts_none_or_an_int_id(good_id):
    def refuse(constant):
        raise ValueError(f"not strict JSON: {constant}")

    code = GeneticCode(name="x", id=good_id, aas="M" * 64)
    assert code.id == good_id
    report = json.loads(render(build_analyze_report(code, "s"), "json"), parse_constant=refuse)
    assert report["code"]["id"] == good_id


def test_code_rejects_unknown_product_symbols():
    with pytest.raises(InvalidParamsError):
        GeneticCode(name="x", id=None, aas="M" * 63 + "J")


def test_code_rejects_invalid_start_codons():
    with pytest.raises((InvalidParamsError, UnknownLetterError)):
        GeneticCode(name="x", id=None, aas="M" * 64, starts=frozenset({"ATG"}))
