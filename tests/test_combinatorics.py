"""Exact counting against brute-force enumeration oracles.

Every expected number here is either produced by an independent
stdlib-only oracle (itertools over the full word space) or is a value
that the oracle reproduced before it was frozen into the test.
"""

import itertools
import math
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


@pytest.mark.parametrize("k", range(1, 6))
@pytest.mark.parametrize("r", range(0, 6))
def test_rows_spell_every_class_in_order(k, r):
    alphabet = generic_alphabet(k)
    oracle = brute_class_sizes(alphabet, r)
    classes = enumerate_multisets(k, r)
    rows = list(classes.rows())
    assert [word for word, _, _ in rows] == sorted(oracle)
    for word, counts, size in rows:
        assert counts == ",".join(str(word.count(a)) for a in alphabet)
        assert size == oracle[word]
    spelled = classes.rows(letters=[f"<{a}>" for a in alphabet], sep="; ")
    for (word, counts, size), (other, other_counts, other_size) in zip(rows, spelled, strict=True):
        assert other == "".join(f"<{a}>" for a in word)
        assert (other_counts, other_size) == (counts.replace(",", "; "), size)


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
    with pytest.raises(InvalidParamsError):
        generic_alphabet(0)


def test_rejects_malformed_alphabets():
    with pytest.raises(InvalidParamsError):
        enumerate_multisets(3, 2, alphabet="AB")  # wrong length
    with pytest.raises(InvalidParamsError):
        enumerate_multisets(2, 2, alphabet="AA")  # duplicate letters
    with pytest.raises(InvalidParamsError):
        enumerate_multisets(2, 2, alphabet=("AB", "C"))  # not single chars


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
