"""Partition of the 64 codons by base content and coherence of a code over it.

A code is "coherent" on a content class when every member codon maps to the
same product. Because stops occupy codons but are not amino acids, every
metric is computed twice, by one rule: once with stop as an ordinary 21st
symbol and once with stop-producing codons excluded.
"""

import itertools
from functools import lru_cache
from operator import eq, itemgetter

from .combinatorics import RNA_ALPHABET, MultisetClass, canonicalize
from .errors import as_int
from .genetic_code import (
    ALL_CODONS,
    INDEX_BASE_ORDER,
    PRODUCT_SYMBOLS,
    STOP,
    GeneticCode,
    codon_index,
)
from .record import Record


class ClassReport(Record):
    """One content class together with what a code does on it."""

    multiset: MultisetClass
    codons: tuple[str, ...]
    products: tuple[str, ...]
    coherent: bool
    coherent_excluding_stop: bool


class SymmetryReport(Record):
    """A code's coherence over the 20 content classes.

    The pair counts cover unordered same-class codon pairs; a pair violates
    when its two products differ.
    """

    per_class: tuple[ClassReport, ...]
    coherent_count: int
    coherent_count_excluding_stop: int
    bijective_20_to_20: bool
    bijective_20_to_20_excluding_stop: bool
    pairs_total: int
    pairs_violating: int
    pairs_total_excluding_stop: int
    pairs_violating_excluding_stop: int

    @property
    def fraction(self) -> float:
        return self.pairs_violating / self.pairs_total

    @property
    def fraction_excluding_stop(self) -> float:
        pairs = self.pairs_total_excluding_stop
        return self.pairs_violating_excluding_stop / pairs if pairs else 0.0


class PrefixEntry(Record):
    prefix: str
    products: tuple[str, str, str, str]  # third base U, C, A, G
    product_set: tuple[str, ...]
    fully_degenerate: bool


class PrefixReport(Record):
    per_prefix: tuple[PrefixEntry, ...]
    fully_degenerate_prefix_count: int


@lru_cache(maxsize=1)
def codon_partition() -> tuple[tuple[MultisetClass, tuple[str, ...]], ...]:
    """The 20 content classes of the 64 codons, members in codon-index order.

    Code-independent: this is pure combinatorics of the 4-letter alphabet.
    """
    groups: dict[MultisetClass, list[str]] = {}
    for codon in ALL_CODONS:
        groups.setdefault(canonicalize(codon, RNA_ALPHABET), []).append(codon)
    pairs = ((cls, tuple(members)) for cls, members in groups.items())
    return tuple(sorted(pairs, key=lambda item: item[0].canonical_word))


@lru_cache(maxsize=1)
def _plan():
    """How a code's `aas` is read, built on first use: a getter of the 64 products in class
    order and each class's slice of them, a getter of each side of the 96 same-class codon
    pairs, and a getter of each codon's class representative (its first, lowest-index member)."""
    members = [tuple(map(codon_index, codons)) for _, codons in codon_partition()]
    ends = tuple(itertools.accumulate(map(len, members)))
    pairs = [pair for group in members for pair in itertools.combinations(group, 2)]
    first = {i: group[0] for group in members for i in group}
    return (itemgetter(*itertools.chain(*members)), tuple(map(slice, (0,) + ends, ends)),
            *(itemgetter(*side) for side in zip(*pairs)), itemgetter(*map(first.get, range(64))))


def _coherence(aas: str):
    """Per class, its products (a string, members in index order) and two coherent flags, then a
    SymmetryReport's eight counts in field order, by one rule for both stop conventions. Sense
    pairs are the equal pairs once each side spells a stop as a digit of its own; their total
    follows by inclusion-exclusion from the pairs with a stop on either side."""
    in_order, spans, left, right, _ = _plan()
    grouped = "".join(in_order(aas))
    classes = []
    for span in spans:
        products = grouped[span]
        symbols = set(products)
        distinct = len(symbols)
        classes.append((products, distinct <= 1, distinct - (STOP in symbols) <= 1))
    count, count_excl = sum(c for _, c, _ in classes), sum(cx for _, _, cx in classes)
    left, right = "".join(left(aas)), "".join(right(aas))
    equal = sum(map(eq, left, right))
    sense_equal = sum(map(eq, left.replace(STOP, "0"), right.replace(STOP, "1")))
    sense = len(left) - left.count(STOP) - right.count(STOP) + equal - sense_equal
    symbols = set(aas)  # with every class coherent, as many as classes iff none is empty or shared
    return classes, (count, count_excl, count == len(spans) == len(symbols),
                     count_excl == len(spans) == len(symbols - {STOP}),
                     len(left), len(left) - equal, sense, sense - sense_equal)


def partition_classes(code: GeneticCode) -> SymmetryReport:
    """Group the 64 codons by base content and measure the code's coherence."""
    classes, counts = _coherence(code.aas)
    per_class = tuple(ClassReport(cls, codons, tuple(products), c, cx)
                      for (cls, codons), (products, c, cx) in zip(codon_partition(), classes))
    return SymmetryReport(per_class, *counts)


# the paper's name for the same report: no pair differs, stop a symbol, iff every class is coherent
multiset_invariance_violation = partition_classes


PREFIXES = tuple(b1 + b2 for b1 in INDEX_BASE_ORDER for b2 in INDEX_BASE_ORDER)

# If the third base never mattered, a code could distinguish at most 4^2 = 16
# products; the standard code's 20 amino acids exceed that ceiling.
FULL_DEGENERACY_AMINO_CEILING = 16


def _prefix_degeneracy(aas: str):
    """Per two-base prefix: its products (a string), their sorted distinct symbols (a list)
    and whether there is one; then how many prefixes have one."""
    rows = []
    for i, prefix in enumerate(PREFIXES):
        products = aas[4 * i : 4 * i + 4]  # the prefix's codons are consecutive
        distinct = sorted(set(products))
        rows.append((prefix, products, distinct, len(distinct) == 1))
    return rows, sum(row[3] for row in rows)


def prefix_significance(code: GeneticCode) -> PrefixReport:
    """Product sets per two-base prefix over the four third-base completions."""
    rows, count = _prefix_degeneracy(code.aas)
    return PrefixReport(tuple(PrefixEntry(prefix, tuple(products), tuple(distinct), degenerate)
                              for prefix, products, distinct, degenerate in rows), count)


def random_code(seed: int) -> GeneticCode:
    """Deterministic pseudo-random code: same seed (any int), same code.

    Every codon gets an independent uniform product symbol, stop included.
    """
    import random  # only here, so start-up does not load it
    rng = random.Random(as_int(seed, "seed"))
    aas = "".join(PRODUCT_SYMBOLS[rng.randrange(len(PRODUCT_SYMBOLS))] for _ in range(64))
    return GeneticCode(name=f"random-{seed}", id=None, aas=aas)


def symmetrized_code(code: GeneticCode) -> GeneticCode:
    """Replace every codon's product with its class representative's product.

    The representative is the member with the lowest codon index, so the result
    depends only on base content and has zero violations by construction.
    """
    *_, representative = _plan()
    aas = "".join(representative(code.aas))
    return GeneticCode(name=f"{code.name}-symmetrized", id=None, aas=aas)
