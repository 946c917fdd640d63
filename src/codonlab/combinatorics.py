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
import sys

from .errors import CapacityExceededError, InvalidParamsError, UnknownLetterError, as_int
from .record import Record

# Canonical total order for nucleotide words (RNA spelling).
RNA_ALPHABET = ("A", "C", "G", "U")

# Refuse to enumerate more classes than this unless the caller raises the cap.
DEFAULT_CLASS_CAP = 10**6

BLOCK_CHARS = 1 << 18  # characters held at most in the suffix blocks of one pass over the classes

# Refuse counts with more decimal digits than this (CPython's default int-to-str limit).
MAX_DIGITS = 4300


class MultisetClass(Record):
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
    if isinstance(k, bool) or not isinstance(k, int) or not 1 <= k <= 26:
        raise InvalidParamsError(f"generic alphabet needs an integer 1 <= k <= 26, got {k!r}")
    return tuple("ABCDEFGHIJKLMNOPQRSTUVWXYZ"[:k])


def validated_alphabet(alphabet, k: int | None = None) -> tuple[str, ...]:
    """`alphabet` as a tuple of distinct letters, each one printable column wide; k if given."""
    try:
        alphabet = tuple(alphabet)
    except TypeError:
        raise InvalidParamsError(f"alphabet must be letters, got {alphabet!r}") from None
    if k is not None and len(alphabet) != k:
        raise InvalidParamsError(f"alphabet has {len(alphabet)} letters, expected k={k}")
    if any(not isinstance(a, str) or len(a) != 1 for a in alphabet):
        raise InvalidParamsError("alphabet letters must be single characters")
    if len(set(alphabet)) != len(alphabet):
        raise InvalidParamsError("alphabet letters must be distinct")
    for letter in alphabet:
        if not _fills_one_cell(letter):
            raise InvalidParamsError("alphabet letters must be printable, non-space and one"
                                     f" column wide, got {letter!r}")
    return alphabet


def _fills_one_cell(letter: str) -> bool:
    """Whether a letter prints as one visible column, so text tables stay aligned."""
    if not letter.isprintable() or letter.isspace():
        return False
    if letter.isascii():
        return True
    import unicodedata  # only for non-ASCII letters, so start-up does not load it
    return (unicodedata.east_asian_width(letter) not in ("W", "F")
            and not unicodedata.category(letter).startswith("M"))


def _digit_limit() -> int:
    """MAX_DIGITS, or the int-to-str limit where lower (3.11+, 0 meaning none)."""
    return min(MAX_DIGITS, getattr(sys, "get_int_max_str_digits", lambda: 0)() or MAX_DIGITS)


def _check_digits(exponent, log_base, what: str, k, r) -> None:
    """Refuse a count of at least base**exponent (log_base is log10(base)) past _digit_limit(), so
    str() never refuses a count. A huge exponent is compared with a float bound, never converted,
    and a k or r that str() could refuse (3 bits per allowed digit or more) is named by length."""
    limit = _digit_limit()
    if log_base > 0 and exponent >= limit / log_base:
        k, r = (v if v.bit_length() < 3 * limit else f"a {v.bit_length()}-bit int" for v in (k, r))
        raise CapacityExceededError(f"{what} for k={k}, r={r} has more than {limit} digits")


def arrangements(k: int, r: int) -> int:
    """Number of ordered length-r words over a k-letter alphabet: k**r.

    Uses the empty-word convention: r = 0 yields 1 (even for k = 0), while
    k = 0 with r > 0 yields 0. The result is an exact integer, refused before it is
    computed when it would pass the digit limit (see _check_digits).
    """
    as_int(k, "k", 0)
    as_int(r, "r", 0)
    _check_digits(r, math.log10(k or 1), "k**r", k, r)
    return k**r


def multiset_count(k: int, r: int) -> int:
    """Number of distinct content classes of length-r words: C(k+r-1, r), within the digit limit.

    C(n, m) >= (n/m)**m for m = min(r, k-1), so the bound refuses no count that fits the limit.
    """
    as_int(k, "k", 1)
    as_int(r, "r", 0)
    if m := min(r, k - 1):
        _check_digits(m, math.log10(k + r - 1) - math.log10(m), "C(k+r-1, r)", k, r)
    return math.comb(k + r - 1, r)


def _walk(letters, r, digits, ends):
    """Yield (word, counts, size, left) per spread of r letters over the slots, in word order.

    Depth first from a stack of prefixes; slot i counting c adds letters[i] * c to the word,
    digits[c] to the counts text and C(left, c) to the size's product. A prefix at the last slot
    or with no letters left is done: the last slot takes the `left` letters, spelled ends[left].
    """
    last = len(letters) - 1
    comb = math.comb
    stack = [(0, r, "", "", 1)]
    pop, push = stack.pop, stack.append
    while stack:
        i, left, word, counts, size = pop()
        if i == last or not left:
            yield word + letters[i] * left, counts + digits[0] * (last - i) + ends[left], size, left
            continue
        letter = letters[i]
        for c in range(left + 1):
            push((i + 1, left - c, word + letter * c, counts + digits[c], size * comb(left, c)))


class MultisetClasses(Record):
    """The content classes of length-r words over an alphabet, generated on demand.

    `len()` is C(k+r-1, r) and generates nothing. Each iteration generates
    the classes afresh in ascending order of the canonical word, so memory
    does not grow with the class count: iterating yields MultisetClass
    objects, each a head prefix joined to a row of its tail block (see _blocks).
    """

    alphabet: tuple[str, ...]
    r: int

    def __len__(self) -> int:
        return math.comb(len(self.alphabet) + self.r - 1, self.r)

    def __iter__(self):
        prefixes, block = self._blocks(self.alphabet, ",")
        for word, counts, _, left in prefixes:
            for tail_word, tail in zip(*block(left)[:2]):
                yield MultisetClass(word + tail_word, tuple(map(int, (counts + tail).split(","))),
                                    self.alphabet)

    def _blocks(self, letters, sep):
        """The head's prefixes, from _walk, and the tail's block for the `left` a prefix leaves.

        The tail is the last m < k slots, m as large as keeps its blocks (for left = 0..r: its
        words, counts texts and sizes, their sum and the widest counts text) within BLOCK_CHARS
        characters and 2 a class, not more than a pass spells. The head's last slot takes the rest.
        """
        r, k = self.r, len(letters)
        # spell only the counts a walk reaches: each up to r, but with one letter just r (and 0)
        ends = {c: str(c) for c in (range(r + 1) if k > 1 else {0, r})}
        digits = {c: end + sep for c, end in ends.items()}
        widest, m = max(map(len, letters)), 0  # a tail row: at most r*widest + m*len(digits[r])
        while m + 1 < k and math.comb(r + m + 1, r) * (
                r * widest + (m + 1) * len(digits[r])) <= min(BLOCK_CHARS, 2 * len(self)):
            m += 1
        if not m:  # every class is a prefix, joined to one empty row
            return _walk(letters, r, digits, ends), lambda left: (("",), ("",), (1,), 1, 0)
        blocks = []
        for left in range(r + 1):
            words, counts, sizes, _ = zip(*_walk(letters[k - m:], left, digits, ends))
            blocks.append((words, counts, sizes, sum(sizes), max(map(len, counts))))
        return _walk(letters[:k - m] + ("",), r, digits, ("",) * (r + 1)), blocks.__getitem__

    def survey(self) -> tuple[int, int]:
        """(sum of the class sizes, widest counts text joined by ","), one step per head prefix."""
        prefixes, block = self._blocks(("",) * len(self.alphabet), ",")
        total = widest = 0
        for _, counts, size, left in prefixes:
            *_, block_total, block_widest = block(left)
            total += size * block_total
            widest = max(widest, len(counts) + block_widest)
        return total, widest


def enumerate_multisets(k: int, r: int, *, alphabet=None,
                        cap: int = DEFAULT_CLASS_CAP) -> MultisetClasses:
    """All content classes for length-r words over k letters, generated lazily.

    Classes come in lexicographic order of the canonical word under the
    alphabet's total order, with no duplicates; the sequence's length always
    equals multiset_count(k, r). `alphabet` defaults to the first k uppercase
    letters. Raises CapacityExceededError, before generating anything, when
    the class count or r + 1 exceeds `cap`, an integer >= 0: for k >= 2 the class
    count is at least r + 1 already, and for k = 1 the one class is an r-letter word.
    """
    total = multiset_count(k, r)
    as_int(cap, "cap", 0)
    alphabet = generic_alphabet(k) if alphabet is None else validated_alphabet(alphabet, k)
    if total > cap:
        raise CapacityExceededError(f"{total} classes for k={k}, r={r} exceed the cap of {cap}")
    if r + 1 > cap:
        raise CapacityExceededError(f"r + 1 = {r + 1} for k={k} exceeds the cap of {cap}")
    return MultisetClasses(alphabet, r)


def canonicalize(word, alphabet=RNA_ALPHABET) -> MultisetClass:
    """Collapse a word to its content class.

    The result is invariant under any permutation of the input letters and
    idempotent: feeding the canonical word back in yields the same class.
    """
    if not isinstance(word, str):
        raise InvalidParamsError(f"word must be a string, got {word!r}")
    alphabet = validated_alphabet(alphabet)
    if unknown := set(word).difference(alphabet):
        letter = next(letter for letter in word if letter in unknown)
        raise UnknownLetterError(f"letter {letter!r} is not in alphabet {''.join(alphabet)!r}")
    counts = tuple(map(word.count, alphabet))
    return MultisetClass("".join(map(str.__mul__, alphabet, counts)), counts, alphabet)


def class_size(cls: MultisetClass) -> int:
    """Number of ordered words in a class: the multinomial r! / prod(counts!).

    The product of C(s, c) over the counts c, where s sums c and every later count.
    """
    counts = cls.counts[::-1]
    return math.prod(map(math.comb, itertools.accumulate(counts), counts))
