"""Content-class partition of the codons and code-coherence metrics.

The partition oracle groups codons by their sorted letters; the metric
oracles recount pairs straight from translate() so that the library's
bookkeeping is checked against a second, dumber implementation.
"""

import itertools
from collections import Counter, defaultdict

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from codonlab import (
    ALL_CODONS,
    AMINO_ACIDS,
    STOP,
    GeneticCode,
    builtin_standard_code,
    codon_partition,
    multiset_invariance_violation,
    partition_classes,
    prefix_significance,
    random_code,
    symmetrized_code,
)
from codonlab.genetic_code import PRODUCT_SYMBOLS
from codonlab.reports import build_analyze_report
from codonlab.symmetry import FULL_DEGENERACY_AMINO_CEILING, PREFIXES


def oracle_partition():
    groups = defaultdict(list)
    for codon in ALL_CODONS:
        groups["".join(sorted(codon))].append(codon)
    return dict(groups)


def oracle_violations(code):
    """(total, differing) same-class pairs, counted one pair at a time."""
    total = differing = 0
    for members in oracle_partition().values():
        for a, b in itertools.combinations(members, 2):
            total += 1
            differing += code.translate(a) != code.translate(b)
    return total, differing


# --- the code-independent partition ------------------------------------------


def test_partition_matches_oracle():
    oracle = oracle_partition()
    partition = codon_partition()
    assert len(partition) == len(oracle) == 20
    for cls, members in partition:
        assert list(members) == oracle[cls.canonical_word]


def test_partition_size_profile():
    sizes = Counter(len(members) for _, members in codon_partition())
    assert sizes == {1: 4, 3: 12, 6: 4}
    assert sum(len(m) for _, m in codon_partition()) == 64


def test_every_codon_in_exactly_one_class():
    seen = Counter()
    for _, members in codon_partition():
        seen.update(members)
    assert seen == Counter(dict.fromkeys(ALL_CODONS, 1))


def test_partition_is_sorted_by_canonical_word():
    words = [cls.canonical_word for cls, _ in codon_partition()]
    assert words == sorted(words)


# --- coherence of the standard code ------------------------------------------


def test_class_products_match_translate():
    code = builtin_standard_code()
    report = partition_classes(code)
    for cls in report.per_class:
        assert cls.products == tuple(code.translate(c) for c in cls.codons)
        assert cls.coherent == (len(set(cls.products)) == 1)


def test_standard_code_coherent_classes_are_the_singletons():
    report = partition_classes(builtin_standard_code())
    coherent = {c.multiset.canonical_word for c in report.per_class if c.coherent}
    singletons = {c.multiset.canonical_word for c in report.per_class if len(c.codons) == 1}
    assert coherent == singletons == {"AAA", "CCC", "GGG", "UUU"}
    assert report.coherent_count == 4
    assert report.coherent_count_excluding_stop == 4


def test_standard_code_agu_class():
    report = partition_classes(builtin_standard_code())
    agu = next(c for c in report.per_class if c.multiset.canonical_word == "AGU")
    assert agu.codons == ("UAG", "UGA", "AUG", "AGU", "GUA", "GAU")
    assert agu.products == ("*", "*", "M", "S", "V", "D")
    assert not agu.coherent
    assert not agu.coherent_excluding_stop


def test_standard_code_is_not_20_to_20():
    report = partition_classes(builtin_standard_code())
    assert len(builtin_standard_code().amino_acid_image) == 20
    assert not report.bijective_20_to_20
    assert not report.bijective_20_to_20_excluding_stop


def test_pair_counts_match_oracle():
    code = builtin_standard_code()
    total, differing = oracle_violations(code)
    report = partition_classes(code)
    assert report.pairs_total == total == 96
    assert report.pairs_violating == differing
    # 12 classes of 3 plus 4 classes of 6
    assert total == 12 * 3 + 4 * 15


def test_violation_metrics_consistency():
    metrics = multiset_invariance_violation(builtin_standard_code())
    total, differing = oracle_violations(builtin_standard_code())
    assert metrics.pairs_total == total
    assert metrics.pairs_violating == differing
    assert metrics.fraction == differing / total
    assert 0 < metrics.fraction <= 1


def test_excluding_stop_drops_stop_codons_only():
    code = builtin_standard_code()
    report = partition_classes(code)
    total = violating = 0
    for members in oracle_partition().values():
        sense = [c for c in members if code.translate(c) != STOP]
        for a, b in itertools.combinations(sense, 2):
            total += 1
            violating += code.translate(a) != code.translate(b)
    assert report.pairs_total_excluding_stop == total
    assert report.pairs_violating_excluding_stop == violating


# --- synthetic codes ----------------------------------------------------------


def test_symmetrized_code_has_zero_violations():
    code = symmetrized_code(builtin_standard_code())
    metrics = multiset_invariance_violation(code)
    assert metrics.pairs_violating == 0
    assert metrics.fraction == 0
    report = partition_classes(code)
    assert report.coherent_count == len(report.per_class)


def test_symmetrized_code_is_idempotent_and_content_only():
    once = symmetrized_code(builtin_standard_code())
    assert symmetrized_code(once).aas == once.aas
    for _, members in codon_partition():
        products = {once.translate(c) for c in members}
        assert len(products) == 1


def test_symmetrized_representative_is_lowest_index_member():
    code = builtin_standard_code()
    sym = symmetrized_code(code)
    for _, members in codon_partition():
        assert sym.translate(members[0]) == code.translate(members[0])


def test_random_code_is_seed_deterministic():
    assert random_code(7) == random_code(7)
    assert random_code(7).aas != random_code(8).aas
    assert random_code(3).name == "random-3"


def oracle_report(code):
    """Every SymmetryReport field, straight from the sorted-letter grouping."""
    classes = []
    for word, members in sorted(oracle_partition().items()):
        products = tuple(code.translate(c) for c in members)
        sense = [p for p in products if p != STOP]
        classes.append((word, tuple(members), products,
                        len(set(products)) == 1, len(set(sense)) <= 1))
    pairs = {}
    for excluding_stop in (False, True):
        total = differing = 0
        for _, members, products, _, _ in classes:
            kept = [p for p in products if not (excluding_stop and p == STOP)]
            for a, b in itertools.combinations(kept, 2):
                total += 1
                differing += a != b
        pairs[excluding_stop] = total, differing
    # one-to-one: each class yields exactly one product, and no two classes share it
    images = [set(products) for _, _, products, _, _ in classes]
    sense_images = [image - {STOP} for image in images]
    return {
        "per_class": classes,
        "coherent_count": sum(c[3] for c in classes),
        "coherent_count_excluding_stop": sum(c[4] for c in classes),
        "bijective_20_to_20": all(len(i) == 1 for i in images)
        and len(set().union(*images)) == 20,
        "bijective_20_to_20_excluding_stop": all(len(i) == 1 for i in sense_images)
        and len(set().union(*sense_images)) == 20,
        "pairs": pairs[False],
        "pairs_excluding_stop": pairs[True],
    }


def assert_matches_oracle(code):
    report = partition_classes(code)
    oracle = oracle_report(code)
    assert [
        (c.multiset.canonical_word, c.codons, c.products, c.coherent, c.coherent_excluding_stop)
        for c in report.per_class
    ] == oracle["per_class"]
    assert report.coherent_count == oracle["coherent_count"]
    assert report.coherent_count_excluding_stop == oracle["coherent_count_excluding_stop"]
    assert report.bijective_20_to_20 == oracle["bijective_20_to_20"]
    assert report.bijective_20_to_20_excluding_stop == oracle["bijective_20_to_20_excluding_stop"]
    assert (report.pairs_total, report.pairs_violating) == oracle["pairs"]
    total, differing = oracle["pairs_excluding_stop"]
    assert (report.pairs_total_excluding_stop, report.pairs_violating_excluding_stop) == (
        total, differing)
    assert report.fraction == oracle["pairs"][1] / oracle["pairs"][0]
    assert report.fraction_excluding_stop == (differing / total if total else 0.0)
    return report


def per_class_aas(products):
    """Class i (sorted-letter order) -> products[i], as a list indexed by codon."""
    partition = oracle_partition()
    aas = [None] * 64
    for product, word in zip(products, sorted(partition)):
        for codon in partition[word]:
            aas[ALL_CODONS.index(codon)] = product
    return aas


def with_stops(aas, codons):
    aas = list(aas)
    for codon in codons:
        aas[ALL_CODONS.index(codon)] = STOP
    return GeneticCode(name="corner", id=None, aas="".join(aas))


def test_one_product_per_class_is_one_to_one_in_both_conventions():
    report = assert_matches_oracle(with_stops(per_class_aas(AMINO_ACIDS), []))
    assert report.bijective_20_to_20 and report.bijective_20_to_20_excluding_stop
    assert report.pairs_violating == report.pairs_violating_excluding_stop == 0


def test_a_stop_in_a_size3_class_keeps_only_the_excluding_stop_bijection():
    report = assert_matches_oracle(with_stops(per_class_aas(AMINO_ACIDS), ["AAC"]))
    assert not report.bijective_20_to_20
    assert report.bijective_20_to_20_excluding_stop
    assert report.coherent_count == 19 and report.coherent_count_excluding_stop == 20


def test_a_stopped_singleton_class_keeps_no_codon_excluding_stop():
    report = assert_matches_oracle(with_stops(per_class_aas(AMINO_ACIDS), ["AAA"]))
    assert report.bijective_20_to_20  # stop is the 20th distinct symbol
    assert not report.bijective_20_to_20_excluding_stop


def test_all_stop_code_has_no_pairs_excluding_stop():
    report = assert_matches_oracle(GeneticCode(name="stops", id=None, aas=STOP * 64))
    assert report.pairs_total_excluding_stop == 0
    assert report.fraction_excluding_stop == 0.0
    assert report.coherent_count == report.coherent_count_excluding_stop == 20
    assert not report.bijective_20_to_20 and not report.bijective_20_to_20_excluding_stop


@st.composite
def codes(draw):
    """A product per class over 1 to 21 symbols, then any number of codons redrawn."""
    symbols = draw(st.permutations(PRODUCT_SYMBOLS))[: draw(st.integers(1, 21))]
    if len(symbols) >= 20 and draw(st.booleans()):
        per_class = draw(st.permutations(symbols))[:20]  # one-to-one before the redraws
    else:
        per_class = draw(st.lists(st.sampled_from(symbols), min_size=20, max_size=20))
    aas = per_class_aas(per_class)
    # no redraw, one (a lone stop keeps the excluding-stop bijection) or many
    redrawn = draw(st.dictionaries(st.integers(0, 63), st.sampled_from(symbols),
                                   max_size=draw(st.sampled_from((0, 1, 64)))))
    for index, product in redrawn.items():
        aas[index] = product
    return GeneticCode(name="drawn", id=None, aas="".join(aas))


@given(codes())
@settings(max_examples=200, deadline=None)
def test_report_matches_oracle_on_drawn_codes(code):
    assert_matches_oracle(code)


def analyze_report_from_records(code, source):
    """The analyze report assembled from the library's records, each turned into a dict."""
    sym = partition_classes(code)
    prefixes = prefix_significance(code)
    profile = Counter(len(r.codons) for r in sym.per_class)
    return {
        "command": "analyze",
        "source": source,
        "code": {
            "name": code.name,
            "id": code.id,
            "sense_codon_count": 64 - code.aas.count(STOP),
            "stop_codon_count": code.aas.count(STOP),
            "amino_acid_count": len(code.amino_acid_image),
        },
        "symmetry": {
            "class_count": len(sym.per_class),
            "size_profile": {str(size): profile[size] for size in sorted(profile)},
            "coherent_count": sym.coherent_count,
            "coherent_count_excluding_stop": sym.coherent_count_excluding_stop,
            "bijective_20_to_20": sym.bijective_20_to_20,
            "bijective_20_to_20_excluding_stop": sym.bijective_20_to_20_excluding_stop,
            "classes": [
                {
                    "word": r.multiset.canonical_word,
                    "size": len(r.codons),
                    "codons": list(r.codons),
                    "products": list(r.products),
                    "coherent": r.coherent,
                    "coherent_excluding_stop": r.coherent_excluding_stop,
                }
                for r in sym.per_class
            ],
        },
        "violations": {
            "pairs_total": sym.pairs_total,
            "pairs_violating": sym.pairs_violating,
            "fraction": float(f"{sym.fraction:.12g}"),
            "pairs_total_excluding_stop": sym.pairs_total_excluding_stop,
            "pairs_violating_excluding_stop": sym.pairs_violating_excluding_stop,
            "fraction_excluding_stop": float(f"{sym.fraction_excluding_stop:.12g}"),
        },
        "prefix": {
            "fully_degenerate_prefix_count": prefixes.fully_degenerate_prefix_count,
            "full_degeneracy_amino_ceiling": FULL_DEGENERACY_AMINO_CEILING,
            "prefixes": [
                {
                    "prefix": e.prefix,
                    "products": list(e.products),
                    "product_set": list(e.product_set),
                    "fully_degenerate": e.fully_degenerate,
                }
                for e in prefixes.per_prefix
            ],
        },
    }


@given(codes())
@example(builtin_standard_code())
@example(GeneticCode(name="stops", id=None, aas=STOP * 64))
@example(GeneticCode(name="one symbol", id=7, aas="W" * 64))
@example(symmetrized_code(random_code(3)))
@settings(max_examples=200, deadline=None)
def test_analyze_report_matches_the_records_on_drawn_codes(code):
    # the report reads the code in one pass, with no record; it must equal the report made
    # from the records, which the pair-by-pair oracle checks first, down to types and key order
    assert_matches_oracle(code)
    expected = analyze_report_from_records(code, "drawn")
    assert repr(build_analyze_report(code, "drawn")) == repr(expected)


def test_zero_violation_iff_all_classes_coherent():
    # random codes break the symmetry, their symmetrized versions restore it
    codes = [random_code(seed) for seed in range(60)]
    codes += [symmetrized_code(c) for c in codes[::3]]
    hit_both = set()
    for code in codes:
        metrics = multiset_invariance_violation(code)
        report = partition_classes(code)
        all_coherent = report.coherent_count == len(report.per_class)
        assert (metrics.pairs_violating == 0) == all_coherent
        hit_both.add(all_coherent)
    assert hit_both == {True, False}  # both sides of the equivalence exercised


# --- third-base significance ---------------------------------------------------


def test_prefix_products_match_translate():
    code = builtin_standard_code()
    report = prefix_significance(code)
    assert tuple(e.prefix for e in report.per_prefix) == PREFIXES
    for entry in report.per_prefix:
        expected = tuple(code.translate(entry.prefix + b) for b in "UCAG")
        assert entry.products == expected
        assert entry.fully_degenerate == (len(set(expected)) == 1)
        assert entry.product_set == tuple(sorted(set(expected)))


def test_prefix_gg_is_fully_degenerate():
    report = prefix_significance(builtin_standard_code())
    gg = next(e for e in report.per_prefix if e.prefix == "GG")
    assert gg.fully_degenerate
    assert gg.product_set == ("G",)


def test_degenerate_prefix_count_matches_oracle():
    code = builtin_standard_code()
    oracle = sum(
        len({code.translate(p + b) for b in "UCAG"}) == 1 for p in PREFIXES
    )
    report = prefix_significance(code)
    assert report.fully_degenerate_prefix_count == oracle == 8


def test_actual_amino_count_exceeds_the_degeneracy_ceiling():
    code = builtin_standard_code()
    assert len(code.amino_acid_image) == 20
    assert len(code.amino_acid_image) > FULL_DEGENERACY_AMINO_CEILING == 16


def test_prefix_determined_code_stays_under_the_ceiling():
    # assign products by prefix alone, so the third base carries nothing
    aas = "".join(
        AMINO_ACIDS[(i // 4) % len(AMINO_ACIDS)] for i in range(64)
    )
    code = GeneticCode(name="prefix-only", id=None, aas=aas)
    report = prefix_significance(code)
    assert report.fully_degenerate_prefix_count == 16
    assert len(code.amino_acid_image) <= FULL_DEGENERACY_AMINO_CEILING


# --- determinism ----------------------------------------------------------------


def test_reports_are_reproducible():
    a = partition_classes(builtin_standard_code())
    b = partition_classes(builtin_standard_code())
    assert a == b
    assert multiset_invariance_violation(random_code(42)) == multiset_invariance_violation(
        random_code(42)
    )
