"""Partition of the 64 codons by base content and coherence of a code over it.

A code is "coherent" on a content class when every member codon maps to the
same product. Because stops occupy codons but are not amino acids, every
metric is computed twice: once with stop as an ordinary 21st symbol and once
with stop-producing codons excluded.
"""

import itertools
import random
from dataclasses import dataclass
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


@dataclass(frozen=True)
class ClassReport:
    """One content class together with what a code does on it."""

    multiset: MultisetClass
    codons: tuple[str, ...]
    products: tuple[str, ...]
    coherent: bool
    coherent_excluding_stop: bool


@dataclass(frozen=True)
class SymmetryReport:
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


@dataclass(frozen=True)
class PrefixEntry:
    prefix: str
    products: tuple[str, str, str, str]  # third base U, C, A, G
    product_set: tuple[str, ...]
    fully_degenerate: bool


@dataclass(frozen=True)
class PrefixReport:
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


def _differing_pairs(products) -> int:
    return sum(1 for a, b in itertools.combinations(products, 2) if a != b)


def _pair_count(m: int) -> int:
    return m * (m - 1) // 2


def partition_classes(code: GeneticCode) -> SymmetryReport:
    """Group the 64 codons by base content and measure the code's coherence."""
    class_reports = []
    for cls, codons in codon_partition():
        products = tuple(code.translate(c) for c in codons)
        non_stop = tuple(p for p in products if p != STOP)
        class_reports.append(
            ClassReport(
                multiset=cls,
                codons=codons,
                products=products,
                coherent=len(set(products)) == 1,
                coherent_excluding_stop=len(set(non_stop)) <= 1,
            )
        )

    n_classes = len(class_reports)
    coherent_count = sum(r.coherent for r in class_reports)
    coherent_count_excl = sum(r.coherent_excluding_stop for r in class_reports)

    coherent_products = [r.products[0] for r in class_reports if r.coherent]
    bijective = coherent_count == n_classes and len(set(coherent_products)) == n_classes

    # Excluding stops: every class must keep at least one codon, stay coherent
    # on the survivors, and the 20 surviving products must be pairwise distinct.
    survivor_products = [
        next((p for p in r.products if p != STOP), None) for r in class_reports
    ]
    bijective_excl = (
        coherent_count_excl == n_classes
        and all(p is not None for p in survivor_products)
        and len(set(survivor_products)) == n_classes
    )

    pairs_total = sum(_pair_count(len(r.codons)) for r in class_reports)
    pairs_violating = sum(_differing_pairs(r.products) for r in class_reports)
    non_stop_products = [
        tuple(p for p in r.products if p != STOP) for r in class_reports
    ]
    pairs_total_excl = sum(_pair_count(len(p)) for p in non_stop_products)
    pairs_violating_excl = sum(_differing_pairs(p) for p in non_stop_products)

    return SymmetryReport(
        per_class=tuple(class_reports),
        coherent_count=coherent_count,
        coherent_count_excluding_stop=coherent_count_excl,
        bijective_20_to_20=bijective,
        bijective_20_to_20_excluding_stop=bijective_excl,
        pairs_total=pairs_total,
        pairs_violating=pairs_violating,
        pairs_total_excluding_stop=pairs_total_excl,
        pairs_violating_excluding_stop=pairs_violating_excl,
    )


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
    for prefix in PREFIXES:
        products = tuple(code.translate(prefix + b3) for b3 in INDEX_BASE_ORDER)
        distinct = tuple(sorted(set(products)))
        entries.append(PrefixEntry(prefix, products, distinct, len(distinct) == 1))
    return PrefixReport(
        per_prefix=tuple(entries),
        fully_degenerate_prefix_count=sum(e.fully_degenerate for e in entries),
    )


def random_code(seed: int, *, include_stops: bool = True, name: str | None = None) -> GeneticCode:
    """Deterministic pseudo-random code: same seed, same code.

    Every codon gets an independent uniform product symbol; with
    include_stops=False only amino acids are drawn.
    """
    rng = random.Random(seed)
    symbols = PRODUCT_SYMBOLS if include_stops else PRODUCT_SYMBOLS[:-1]
    aas = "".join(symbols[rng.randrange(len(symbols))] for _ in range(64))
    return GeneticCode(name=name or f"random-{seed}", id=None, aas=aas)


def symmetrized_code(code: GeneticCode, *, name: str | None = None) -> GeneticCode:
    """Replace every codon's product with its class representative's product.

    The representative is the member with the lowest codon index, so the
    result depends only on base content and has zero violations by
    construction.
    """
    aas = [None] * 64
    for _, codons in codon_partition():
        product = code.translate(min(codons, key=codon_index))
        for codon in codons:
            aas[codon_index(codon)] = product
    return GeneticCode(name=name or f"{code.name}-symmetrized", id=None, aas="".join(aas))
