"""Partition of the 64 codons by base content and coherence of a code over it.

A code is "coherent" on a content class when every member codon maps to the
same product. Because stops occupy codons but are not amino acids, every
metric is computed twice, by one rule: once with stop as an ordinary 21st
symbol and once with stop-producing codons excluded.
"""

import itertools
from functools import lru_cache

from .combinatorics import RNA_ALPHABET, MultisetClass, canonicalize
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
def _index_partition() -> tuple[tuple[int, ...], ...]:
    """codon_partition() as codon indices, to read products straight from `aas`."""
    return tuple(tuple(map(codon_index, codons)) for _, codons in codon_partition())


def _coherence(groups):
    """Coherence over classes given as product tuples, as one rule for both conventions.

    Returns the per-class coherent flags, their count, whether the classes map
    one-to-one (each has exactly one product and no two share it), and the
    total and differing same-class pairs.
    """
    flags = tuple(len(set(g)) <= 1 for g in groups)
    count = sum(flags)
    # with every class coherent, |all products| == |classes| iff none is empty and none shared
    one_to_one = count == len(groups) == len(set().union(*groups))
    total = sum(len(g) * (len(g) - 1) // 2 for g in groups)
    differing = sum(a != b for g in groups for a, b in itertools.combinations(g, 2))
    return flags, count, one_to_one, total, differing


def partition_classes(code: GeneticCode) -> SymmetryReport:
    """Group the 64 codons by base content and measure the code's coherence."""
    aas = code.aas
    products = [tuple(aas[i] for i in members) for members in _index_partition()]
    coherent, count, bijective, pairs, violating = _coherence(products)
    coherent_excl, count_excl, bijective_excl, pairs_excl, violating_excl = _coherence(
        [tuple(p for p in g if p != STOP) for g in products]
    )
    per_class = tuple(
        ClassReport(cls, codons, p, c, cx)
        for (cls, codons), p, c, cx in zip(codon_partition(), products, coherent, coherent_excl)
    )
    return SymmetryReport(per_class, count, count_excl, bijective, bijective_excl,
                          pairs, violating, pairs_excl, violating_excl)


def multiset_invariance_violation(code: GeneticCode) -> SymmetryReport:
    """Count unordered same-class codon pairs whose products differ.

    Zero violations (in the stop-as-symbol convention) holds exactly when
    every class is coherent, i.e. the code only depends on base content.
    This is the partition_classes report: its pair counts and fraction
    properties are the violation metrics.
    """
    return partition_classes(code)


PREFIXES = tuple(b1 + b2 for b1 in INDEX_BASE_ORDER for b2 in INDEX_BASE_ORDER)

# If the third base never mattered, a code could distinguish at most 4^2 = 16
# products; the standard code's 20 amino acids exceed that ceiling.
FULL_DEGENERACY_AMINO_CEILING = 16


def prefix_significance(code: GeneticCode) -> PrefixReport:
    """Product sets per two-base prefix over the four third-base completions."""
    entries = []
    for i, prefix in enumerate(PREFIXES):
        products = tuple(code.aas[4 * i : 4 * i + 4])  # the prefix's codons are consecutive
        distinct = tuple(sorted(set(products)))
        entries.append(PrefixEntry(prefix, products, distinct, len(distinct) == 1))
    return PrefixReport(tuple(entries), sum(e.fully_degenerate for e in entries))


def random_code(seed: int) -> GeneticCode:
    """Deterministic pseudo-random code: same seed, same code.

    Every codon gets an independent uniform product symbol, stop included.
    """
    import random  # only here, so start-up does not load it
    rng = random.Random(seed)
    aas = "".join(PRODUCT_SYMBOLS[rng.randrange(len(PRODUCT_SYMBOLS))] for _ in range(64))
    return GeneticCode(name=f"random-{seed}", id=None, aas=aas)


def symmetrized_code(code: GeneticCode) -> GeneticCode:
    """Replace every codon's product with its class representative's product.

    The representative is the member with the lowest codon index (the first,
    as members are in index order), so the result depends only on base
    content and has zero violations by construction.
    """
    aas = [None] * 64
    for members in _index_partition():
        for i in members:
            aas[i] = code.aas[members[0]]
    return GeneticCode(name=f"{code.name}-symmetrized", id=None, aas="".join(aas))
