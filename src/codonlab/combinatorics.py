"""Exact counting and enumeration of ordered words and their content classes.

Two quantities drive everything here: the number of ordered length-r words
over a k-letter alphabet, k**r, and the number of distinct letter-content
classes those words collapse into when order is ignored, C(k+r-1, r)
(combinations with repetition, equivalently the number of occupancy vectors
of r indistinguishable items over k slots).

All arithmetic in this module is exact big-integer arithmetic; it never
touches floating point.
"""

import itertools
import math
import string
import sys
from dataclasses import dataclass

from .errors import CapacityExceededError, InvalidParamsError, UnknownLetterError

# Canonical total order for nucleotide words (RNA spelling).
RNA_ALPHABET = ("A", "C", "G", "U")

# Refuse to materialize more classes than this unless the caller raises the cap.
DEFAULT_CLASS_CAP = 10**6


@dataclass(frozen=True)
class MultisetClass:
    """One equivalence class of words under permutation of their letters.

    `canonical_word` is the unique non-decreasing member of the class under
    the alphabet's total order; `counts[i]` says how many times `alphabet[i]`
    occurs in it. Two words belong to the same class exactly when one is a
    permutation of the other.
    """

    canonical_word: str
    counts: tuple[int, ...]
    alphabet: tuple[str, ...]

    @property
    def word_length(self) -> int:
        return sum(self.counts)


def generic_alphabet(k: int) -> tuple[str, ...]:
    """First k uppercase letters, the default alphabet for abstract counting."""
    if not isinstance(k, int) or not 1 <= k <= 26:
        raise InvalidParamsError(f"generic alphabet needs an integer 1 <= k <= 26, got {k!r}")
    return tuple(string.ascii_uppercase[:k])


def _check_k_r(k, r, *, min_k: int) -> None:
    if not isinstance(k, int) or isinstance(k, bool):
        raise InvalidParamsError(f"k must be an integer, got {k!r}")
    if not isinstance(r, int) or isinstance(r, bool):
        raise InvalidParamsError(f"r must be an integer, got {r!r}")
    if k < min_k:
        raise InvalidParamsError(f"k must be >= {min_k}, got {k}")
    if r < 0:
        raise InvalidParamsError(f"r must be >= 0, got {r}")


def _validated_alphabet(alphabet, k: int) -> tuple[str, ...]:
    alphabet = tuple(alphabet)
    if len(alphabet) != k:
        raise InvalidParamsError(f"alphabet has {len(alphabet)} letters, expected k={k}")
    if any(not isinstance(a, str) or len(a) != 1 for a in alphabet):
        raise InvalidParamsError("alphabet letters must be single characters")
    if len(set(alphabet)) != len(alphabet):
        raise InvalidParamsError("alphabet letters must be distinct")
    return alphabet


def arrangements(k: int, r: int) -> int:
    """Number of ordered length-r words over a k-letter alphabet: k**r.

    Uses the empty-word convention: r = 0 yields 1 (even for k = 0), while
    k = 0 with r > 0 yields 0. The result is an exact integer for any k, r.
    """
    _check_k_r(k, r, min_k=0)
    return k**r


def check_printable(k: int, r: int) -> None:
    """Refuse k, r whose counts would have more digits than str() may print.

    Python 3.11 and later refuse to convert an integer of more than
    sys.get_int_max_str_digits() decimal digits (0 means no limit). k**r has
    floor(r * log10(k)) + 1 digits and bounds the class count and every
    class size, so this check runs before any of them is computed.
    """
    _check_k_r(k, r, min_k=1)
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    # r is compared with the float bound, never converted, so a huge r cannot overflow
    if limit and k > 1 and r >= limit / math.log10(k):
        raise CapacityExceededError(
            f"k**r for k={k}, r={r} has more than {limit} digits, the int-to-str limit"
        )


def multiset_count(k: int, r: int) -> int:
    """Number of distinct content classes of length-r words: C(k+r-1, r)."""
    _check_k_r(k, r, min_k=1)
    return math.comb(k + r - 1, r)


def enumerate_multisets(
    k: int,
    r: int,
    *,
    alphabet=None,
    cap: int = DEFAULT_CLASS_CAP,
) -> list[MultisetClass]:
    """All content classes for length-r words over k letters.

    Classes come back in lexicographic order of the canonical word under the
    alphabet's total order, with no duplicates; the list length always equals
    multiset_count(k, r). `alphabet` defaults to the first k uppercase
    letters. Raises CapacityExceededError instead of materializing more than
    `cap` classes.
    """
    _check_k_r(k, r, min_k=1)
    if alphabet is None:
        alphabet = generic_alphabet(k)
    else:
        alphabet = _validated_alphabet(alphabet, k)
    total = multiset_count(k, r)
    if total > cap:
        raise CapacityExceededError(f"{total} classes for k={k}, r={r} exceed the cap of {cap}")
    index = {letter: i for i, letter in enumerate(alphabet)}
    classes = []
    for combo in itertools.combinations_with_replacement(alphabet, r):
        counts = [0] * k
        for letter in combo:
            counts[index[letter]] += 1
        classes.append(MultisetClass("".join(combo), tuple(counts), alphabet))
    return classes


def canonicalize(word, alphabet=RNA_ALPHABET) -> MultisetClass:
    """Collapse a word to its content class.

    The result is invariant under any permutation of the input letters and
    idempotent: feeding the canonical word back in yields the same class.
    """
    alphabet = tuple(alphabet)
    index = {letter: i for i, letter in enumerate(alphabet)}
    counts = [0] * len(alphabet)
    for letter in word:
        if letter not in index:
            raise UnknownLetterError(
                f"letter {letter!r} is not in alphabet {''.join(alphabet)!r}"
            )
        counts[index[letter]] += 1
    canonical = "".join(letter * counts[i] for i, letter in enumerate(alphabet))
    return MultisetClass(canonical, tuple(counts), alphabet)


def class_size(cls: MultisetClass) -> int:
    """Number of ordered words in a class: the multinomial r! / prod(counts!)."""
    size = math.factorial(sum(cls.counts))
    for count in cls.counts:
        size //= math.factorial(count)
    return size
