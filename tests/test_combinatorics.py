"""Exact counting against brute-force enumeration oracles.

Every expected number here is either produced by an independent
stdlib-only oracle (itertools over the full word space) or is a value
that the oracle reproduced before it was frozen into the test.
"""

import csv
import itertools
import json
import math
import os
import subprocess
import sys
import unicodedata
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codonlab import (
    CapacityExceededError,
    InvalidParamsError,
    MultisetClass,
    UnknownLetterError,
    arrangements,
    canonicalize,
    class_size,
    enumerate_multisets,
    generic_alphabet,
    multiset_count,
)
from codonlab.reports import build_count_report, emit


def brute_words(alphabet, r):
    return ["".join(w) for w in itertools.product(alphabet, repeat=r)]


def brute_class_sizes(alphabet, r):
    """canonical word -> number of ordered words with that letter content."""
    return Counter("".join(sorted(w)) for w in brute_words(alphabet, r))


# --- counting formulas vs brute force ---------------------------------------


@pytest.mark.parametrize("k", range(1, 7))
@pytest.mark.parametrize("r", range(0, 7))
def test_counts_match_brute_force(k, r):
    alphabet = generic_alphabet(k)
    words = brute_words(alphabet, r)
    assert arrangements(k, r) == len(words)
    assert multiset_count(k, r) == len(set("".join(sorted(w)) for w in words))


@pytest.mark.parametrize("k", range(1, 7))
@pytest.mark.parametrize("r", range(0, 7))
def test_partition_identity_on_grid(k, r):
    # class sizes partition the set of ordered words
    sizes = [class_size(c) for c in enumerate_multisets(k, r)]
    assert sum(sizes) == arrangements(k, r)
    assert all(s >= 1 for s in sizes)


def test_frozen_values():
    # oracle-confirmed spot values
    assert arrangements(4, 3) == 64
    assert multiset_count(4, 3) == 20
    assert arrangements(2, 3) == 8
    assert multiset_count(6, 3) == 56
    assert arrangements(5, 4) == 625
    assert multiset_count(5, 4) == 70
    assert arrangements(1, 6) == 1
    assert multiset_count(1, 6) == 1


def test_counts_are_exact_integers_for_large_inputs():
    assert arrangements(10, 50) == 10**50
    assert multiset_count(26, 100) == math.comb(125, 100)
    assert isinstance(arrangements(10, 50), int)
    assert isinstance(multiset_count(26, 100), int)


def test_count_symmetry_with_binomial():
    # C(k+r-1, r) == C(k+r-1, k-1)
    for k in range(1, 11):
        for r in range(0, 11):
            assert multiset_count(k, r) == math.comb(k + r - 1, k - 1)


# the digit limit: MAX_DIGITS, or the interpreter's int-to-str limit where that is lower
LIMIT = min(4300, getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300)


def evaluated_in_child(expression, seconds=30):
    """`expression`, over codonlab's public names, evaluated by a fresh interpreter that may
    map 1 GiB and is stopped after `seconds`: its value's digit count, or its error's name.

    A missing bound on a count's work then fails a test rather than hanging it.
    """
    code = ("import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from codonlab import *\n"
            f"try:\n    print(len(str({expression})))\n"
            "except Exception as exc:\n    print(type(exc).__name__)\n")
    env = {key: value for key, value in os.environ.items() if key != "PYTHONINTMAXSTRDIGITS"}
    child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           env=env, timeout=seconds)
    return child.stdout.strip()


@pytest.mark.parametrize("expression, outcome", [
    ("arrangements(3, 2**70)", "CapacityExceededError"),
    ("arrangements(10, 4299)", "4300"),  # 10**4299 has the 4,300 digits allowed
    ("arrangements(10, 4300)", "CapacityExceededError"),
    ("multiset_count(2**70, 2**70)", "CapacityExceededError"),
    ("multiset_count(10**6, 10**6)", "CapacityExceededError"),
    ("multiset_count(7001, 7000)", "4213"),
    ("enumerate_multisets(2**70, 2**70)", "CapacityExceededError"),
])
def test_counts_refuse_work_past_the_digit_limit_in_time(expression, outcome):
    assert evaluated_in_child(expression) == outcome


@given(k=st.integers(2, 10**6), shift=st.integers(-2, 2))
@settings(max_examples=100, deadline=None)
def test_arrangements_refuses_exactly_the_powers_past_the_limit(k, shift):
    r = max(0, round(LIMIT / math.log10(k)) + shift)  # near the bound
    try:
        assert arrangements(k, r) < 10**LIMIT
    except CapacityExceededError:
        assert k**r >= 10**LIMIT


@given(k=st.integers(1, 16000), r=st.integers(0, 16000))
@settings(max_examples=200, deadline=None)
def test_multiset_count_refuses_no_count_within_the_limit(k, r):
    exact = math.comb(k + r - 1, r)
    try:
        assert multiset_count(k, r) == exact
    except CapacityExceededError:
        assert exact >= 10**LIMIT


def test_arrangements_empty_alphabet_convention():
    assert arrangements(0, 0) == 1
    assert arrangements(0, 5) == 0


# --- enumeration ------------------------------------------------------------


def test_enumerate_two_letters_length_two():
    words = [c.canonical_word for c in enumerate_multisets(2, 2)]
    assert words == ["AA", "AB", "BB"]


def test_enumerate_three_letters_length_two():
    words = [c.canonical_word for c in enumerate_multisets(3, 2)]
    assert words == ["AA", "AB", "AC", "BB", "BC", "CC"]


def test_enumeration_is_sorted_and_duplicate_free():
    for k, r in [(4, 3), (3, 5), (6, 2)]:
        words = [c.canonical_word for c in enumerate_multisets(k, r)]
        assert words == sorted(words)
        assert len(words) == len(set(words)) == multiset_count(k, r)


def test_enumerated_counts_describe_the_word():
    for cls in enumerate_multisets(4, 3):
        assert sum(cls.counts) == 3
        rebuilt = "".join(a * n for a, n in zip(cls.alphabet, cls.counts))
        assert rebuilt == cls.canonical_word


def test_enumerate_custom_alphabet():
    words = [c.canonical_word for c in enumerate_multisets(4, 1, alphabet="ACGU")]
    assert words == ["A", "C", "G", "U"]


def test_enumerate_r_zero_gives_single_empty_class():
    classes = enumerate_multisets(4, 0)
    assert len(classes) == 1
    (only,) = classes
    assert only.canonical_word == ""
    assert class_size(only) == 1


def test_enumeration_cap():
    with pytest.raises(CapacityExceededError):
        enumerate_multisets(4, 30, cap=100)
    # the cap is inclusive
    exact = multiset_count(4, 3)
    assert len(enumerate_multisets(4, 3, cap=exact)) == exact
    with pytest.raises(CapacityExceededError):
        enumerate_multisets(4, 3, cap=exact - 1)
    # k = 1 has one class whatever r is, so r + 1 is held to the cap as well
    assert len(enumerate_multisets(1, 9, cap=10)) == 1
    with pytest.raises(CapacityExceededError):
        enumerate_multisets(1, 10, cap=10)
    with pytest.raises(CapacityExceededError):
        enumerate_multisets(1, 10**18)
    # a cap is an integer >= 0: neither a string, None nor a bool (True is not taken as 1)
    for cap in ("x", None, True, -1, 2.5):
        with pytest.raises(InvalidParamsError, match="cap"):
            enumerate_multisets(1, 0, cap=cap)


def one_column_letters(k):
    """The first k letters from U+0100 up that print one column wide, in code-point order."""
    letters = (c for c in map(chr, range(0x100, 0x10000))
               if unicodedata.category(c) in ("Lu", "Ll")
               and unicodedata.east_asian_width(c) not in ("W", "F"))
    return tuple(itertools.islice(letters, k))


# an alphabet of 2,000 letters is past any recursion limit of one frame per letter
ROW_CASES = [(generic_alphabet(k), r) for k in range(1, 6) for r in range(0, 6)]
ROW_CASES += [(one_column_letters(2000), 1), (one_column_letters(60), 2)]


@pytest.mark.parametrize("alphabet, r", ROW_CASES, ids=[f"{r}-{len(a)}" for a, r in ROW_CASES])
def test_rows_spell_every_class_in_order(alphabet, r):
    # iterating the classes: each a head prefix joined to a row of its tail block
    oracle = brute_class_sizes(alphabet, r)
    classes = list(enumerate_multisets(len(alphabet), r, alphabet=alphabet))
    assert [cls.canonical_word for cls in classes] == sorted(oracle)
    for cls in classes:
        assert cls.counts == tuple(cls.canonical_word.count(a) for a in alphabet)
        assert cls.alphabet == alphabet
        assert class_size(cls) == oracle[cls.canonical_word]


def reference_rows(k, r):
    """(counts, size) per class, independent of the library's walk.

    combinations_with_replacement gives each class once, as its sorted letter
    indices, in ascending canonical order; the size is the multinomial from factorials.
    """
    factorial = [math.factorial(n) for n in range(r + 1)]
    for combo in itertools.combinations_with_replacement(range(k), r):
        counts = list(map(combo.count, range(k)))
        yield counts, factorial[r] // math.prod(map(factorial.__getitem__, counts))


# Sizes past the brute-force grid, where a class is a head prefix joined to a suffix block
# and the split moves with the spelling: (7, 12) has a head of 4 slots and a tail of 3 in text
# and CSV, 5 and 2 with its letters JSON-escaped, 3 and 4 in the survey; (5, 38), 3 and 2, and
# 2 and 3 in the survey; (6, 27), 3 and 3; (3, 400) has no tail, while its survey has a tail of
# one slot; k = 1 has no tail; r = 0 a tail of one slot, but none in JSON.
BLOCK_CASES = [(generic_alphabet(5), 38), (generic_alphabet(6), 27), (one_column_letters(7), 12),
               (generic_alphabet(3), 400), (generic_alphabet(1), 9), (generic_alphabet(4), 0)]


def printed_lines(report, fmt):
    """A report's lines as emit() hands them out, a chunk at a time: no format is held whole."""
    rest = ""
    for chunk in emit(report, fmt):
        *lines, rest = (rest + chunk).split("\n")
        yield from lines
    if rest:
        yield rest


@pytest.mark.parametrize("alphabet, r", BLOCK_CASES, ids=[f"{len(a)}-{r}" for a, r in BLOCK_CASES])
def test_block_rows_match_an_independent_reference(alphabet, r):
    """Each class that the JSON, CSV and text layouts print is the reference's, in its order, and
    the survey is the sizes' sum and the widest counts text."""
    k = len(alphabet)
    report = build_count_report(k, r, alphabet=alphabet)
    classes = (json.loads(line.rstrip(",")) for line in printed_lines(report, "json")
               if line.startswith("    {"))  # a class to a line
    csv_rows = csv.reader(printed_lines(report, "csv"))
    assert next(csv_rows) == ["word", "counts", "size"]
    text = itertools.dropwhile(bool, printed_lines(report, "text"))  # to the table's blank line
    assert next(text) == "" and next(text).split() == ["word", "counts", "size"]
    total = widest = 0
    for (counts, size), cls, row, line in zip(reference_rows(k, r), classes, csv_rows, text,
                                              strict=True):
        word, digits = "".join(map(str.__mul__, alphabet, counts)), list(map(str, counts))
        assert cls == {"word": word, "counts": counts, "size": size}
        assert row == [word, ":".join(digits), str(size)]
        assert line.split() == [word or "(empty)", ",".join(digits), str(size)]
        total += size
        widest = max(widest, len(",".join(digits)))
    assert total == k**r
    assert report["classes"].survey() == (total, widest)


# --- canonicalize -----------------------------------------------------------


def test_canonicalize_codon():
    cls = canonicalize("GAU")
    assert cls.canonical_word == "AGU"
    assert cls.counts == (1, 0, 1, 1)
    assert cls.alphabet == ("A", "C", "G", "U")


def test_canonicalize_permutation_invariance_exhaustive():
    for word in ["AAA", "ACG", "GGU", "UCA"]:
        expected = canonicalize(word)
        for perm in itertools.permutations(word):
            assert canonicalize("".join(perm)) == expected


def test_canonicalize_is_idempotent():
    for word in ["GAU", "UUU", "CAGU"]:
        once = canonicalize(word)
        assert canonicalize(once.canonical_word) == once


def test_canonicalize_empty_word():
    cls = canonicalize("")
    assert cls.canonical_word == ""
    assert cls.counts == (0, 0, 0, 0)


def test_canonicalize_rejects_unknown_letters():
    with pytest.raises(UnknownLetterError):
        canonicalize("AXG")
    with pytest.raises(UnknownLetterError):
        canonicalize("ABC", alphabet="AB")
    for word in (None, ["A", "C"]):
        with pytest.raises(InvalidParamsError, match="^word must be a string"):
            canonicalize(word)


# --- class sizes ------------------------------------------------------------


def test_class_size_spot_values():
    assert class_size(canonicalize("AAA")) == 1
    assert class_size(canonicalize("AAG")) == 3
    assert class_size(canonicalize("ACG")) == 6


def test_class_sizes_match_brute_force():
    for k, r in [(2, 4), (3, 3), (4, 3), (4, 5)]:
        alphabet = generic_alphabet(k)
        oracle = brute_class_sizes(alphabet, r)
        for cls in enumerate_multisets(k, r):
            assert class_size(cls) == oracle[cls.canonical_word]


def test_class_size_counts_distinct_permutations():
    for word in ["AAG", "ACGU", "CCGGU"]:
        cls = canonicalize(word)
        assert class_size(cls) == len(set(itertools.permutations(word)))


# --- argument validation ----------------------------------------------------


def test_rejects_out_of_domain_arguments():
    for bad in [(-1, 3), (4, -1), (1.5, 3), (4, "3"), (True, 2), (4, False)]:
        with pytest.raises(InvalidParamsError):
            arrangements(*bad)
    with pytest.raises(InvalidParamsError):
        multiset_count(0, 3)
    with pytest.raises(InvalidParamsError):
        enumerate_multisets(27, 1)  # default alphabet runs out of letters
    for bad in (0, True):  # True is not taken as 1
        with pytest.raises(InvalidParamsError):
            generic_alphabet(bad)


def test_rejects_malformed_alphabets():
    with pytest.raises(InvalidParamsError):
        enumerate_multisets(3, 2, alphabet="AB")  # wrong length
    with pytest.raises(InvalidParamsError):
        enumerate_multisets(2, 2, alphabet="AA")  # duplicate letters
    with pytest.raises(InvalidParamsError):
        enumerate_multisets(2, 2, alphabet=("AB", "C"))  # not single chars
    with pytest.raises(InvalidParamsError):
        enumerate_multisets(2, 2, alphabet=5)  # not a sequence


# --- property-based checks --------------------------------------------------


@given(k=st.integers(min_value=1, max_value=5), r=st.integers(min_value=0, max_value=5))
@settings(max_examples=40, deadline=None)
def test_property_enumeration_length_equals_formula(k, r):
    classes = enumerate_multisets(k, r)
    assert len(classes) == multiset_count(k, r)
    assert sum(class_size(c) for c in classes) == arrangements(k, r)


@given(word=st.text(alphabet="ACGU", min_size=0, max_size=12), data=st.data())
@settings(max_examples=80, deadline=None)
def test_property_canonicalize_ignores_order(word, data):
    shuffled = "".join(data.draw(st.permutations(list(word))))
    assert canonicalize(shuffled) == canonicalize(word)


@given(word=st.text(alphabet="ACGU", min_size=1, max_size=8))
@settings(max_examples=60, deadline=None)
def test_property_class_size_matches_permutation_count(word):
    assert class_size(canonicalize(word)) == len(set(itertools.permutations(word)))


def test_multiset_class_is_hashable_value_object():
    a = canonicalize("GAU")
    b = canonicalize("UGA")
    assert a == b
    assert hash(a) == hash(b)
    assert a.word_length == 3
    assert isinstance(a, MultisetClass)
