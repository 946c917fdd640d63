"""Acceptance gate: seven go/no-go checks over the whole package.

Each check prints one PASS or FAIL line (run with -s to see them all) and
enforces its runtime budget where one applies. Tolerances are pinned here
and nowhere else; loosening them is a release decision, not a refactor.
"""

import contextlib
import itertools
import json
import random
import subprocess
import sys
import time
from collections import Counter

from codonlab import (
    ALL_CODONS,
    GeneticCode,
    PhysicalParams,
    arrangements,
    builtin_standard_code,
    canonicalize,
    class_size,
    codon_partition,
    enumerate_multisets,
    fluctuation_energy,
    momentum_uncertainty,
    multiset_count,
    multiset_invariance_violation,
    parse_table,
    partition_classes,
    prefix_significance,
    scale_comparison,
    serialize_table,
    simulate,
    solve_n,
    success_probability,
    symmetrized_code,
)
from codonlab.genetic_code import PRODUCT_SYMBOLS
from codonlab.reports import build_analyze_report, render


@contextlib.contextmanager
def criterion(number, title, budget_seconds=None):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        if budget_seconds is not None:
            assert elapsed < budget_seconds, (
                f"took {elapsed:.2f}s, budget {budget_seconds}s"
            )
    except BaseException:
        print(f"FAIL criterion {number}: {title}")
        raise
    print(f"PASS criterion {number}: {title} ({elapsed:.2f}s)")


def test_criterion_1_exact_counting():
    with criterion(1, "exact counting and the partition identity", 1.0):
        assert arrangements(4, 3) == 64
        assert multiset_count(4, 3) == 20
        for k in range(1, 7):
            for r in range(0, 7):
                classes = enumerate_multisets(k, r)
                assert len(classes) == multiset_count(k, r)
                assert sum(class_size(c) for c in classes) == arrangements(k, r)


def test_criterion_2_codon_class_structure():
    with criterion(2, "64 codons fall into 20 classes sized 4x1, 12x3, 4x6", 1.0):
        partition = codon_partition()
        assert len(partition) == 20
        assert Counter(len(m) for _, m in partition) == {1: 4, 3: 12, 6: 4}
        members = [c for _, m in partition for c in m]
        assert sorted(members) == sorted(ALL_CODONS)
        assert len(set(members)) == 64


def test_criterion_3_standard_code_facts():
    with criterion(3, "standard-code facts from the embedded table"):
        code = builtin_standard_code()
        assert len(code.sense_codons) == 61
        assert len(code.stop_codons) == 3
        assert len(code.amino_acid_image) == 20

        prefixes = prefix_significance(code)
        gg = next(e for e in prefixes.per_prefix if e.prefix == "GG")
        assert gg.fully_degenerate

        report = partition_classes(code)
        agu = next(c for c in report.per_class if c.multiset.canonical_word == "AGU")
        assert sorted(agu.products) == sorted(("M", "S", "*", "*", "D", "V"))
        assert not agu.coherent


def test_criterion_4_query_count_numerics():
    with criterion(4, "query-relation solutions and simulator agreement", 10.0):
        assert abs(solve_n(3) - 20.19) <= 0.05
        assert abs(solve_n(1) - 4.0) <= 1e-9
        for n in range(2, 65):
            run = simulate(n, 10)
            assert run.max_norm_drift <= 1e-12
            for q, probability in enumerate(run.probability_trace):
                assert abs(probability - success_probability(n, q)) <= 1e-10


def test_criterion_5_energy_estimates():
    with criterion(5, "uncertainty momentum and energy at CGS defaults", 1.0):
        params = PhysicalParams()
        assert abs(momentum_uncertainty(params) / 6.2e-20 - 1.0) <= 0.02
        assert abs(fluctuation_energy(params) / 1.2e-15 - 1.0) <= 0.05
        assert scale_comparison(params, 3.0).energy_ratio == 1.0 / 9.0


def test_criterion_6_property_suites():
    with criterion(6, "canonicalization, round-trip and coherence properties", 10.0):
        # permutation invariance, exhaustive over every codon
        for codon in ALL_CODONS:
            expected = canonicalize(codon)
            for perm in itertools.permutations(codon):
                assert canonicalize("".join(perm)) == expected

        # serialize/parse round trip on the builtin and 100 seeded tables
        assert parse_table(serialize_table(builtin_standard_code())) == builtin_standard_code()
        for seed in range(100):
            rng = random.Random(seed)
            code = GeneticCode(
                name=f"seeded-{seed}",
                id=rng.choice([None, seed]),
                aas="".join(rng.choice(PRODUCT_SYMBOLS) for _ in range(64)),
                starts=frozenset(rng.sample(ALL_CODONS, rng.randrange(0, 4))),
            )
            assert parse_table(serialize_table(code)) == code

        # zero violations exactly when every class is coherent
        for seed in range(100):
            code = GeneticCode(
                name=f"random-{seed}",
                id=None,
                aas="".join(
                    random.Random(seed).choice(PRODUCT_SYMBOLS) for _ in range(64)
                ),
            )
            for candidate in (code, symmetrized_code(code)):
                metrics = multiset_invariance_violation(candidate)
                report = partition_classes(candidate)
                all_coherent = report.coherent_count == len(report.per_class)
                assert (metrics.pairs_violating == 0) == all_coherent


def test_criterion_7_deterministic_reporting():
    with criterion(7, "coherence metrics reported deterministically; no 20-to-20"):
        # the one-product-per-class reading does not hold on the standard code
        report = partition_classes(builtin_standard_code())
        assert not report.bijective_20_to_20
        assert not report.bijective_20_to_20_excluding_stop
        assert report.coherent_count < len(report.per_class)
        assert report.pairs_violating > 0

        # what is reported instead must be byte-stable, in and out of process
        builds = [
            build_analyze_report(builtin_standard_code(), "builtin:standard")
            for _ in range(2)
        ]
        for fmt in ("text", "json", "csv"):
            assert render(builds[0], fmt) == render(builds[1], fmt)

        argv = [sys.executable, "-m", "codonlab", "analyze", "--builtin", "standard",
                "--format", "json"]
        first = subprocess.run(argv, capture_output=True, timeout=60)
        second = subprocess.run(argv, capture_output=True, timeout=60)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
        payload = json.loads(first.stdout)
        assert payload["violations"]["pairs_violating"] == report.pairs_violating
