"""codonlab: codon content-class combinatorics and genetic-code analysis.

The package counts and enumerates the unordered base-content classes of
nucleotide words (64 ordered codons collapse into 20 classes), parses and
analyzes genetic-code translation tables against that partition, solves and
simulates the query-count relation of amplitude-amplification search, and
computes uncertainty-relation momentum/energy estimates in CGS units.

`import codonlab` loads no submodule: each public name below is imported from
its module on first access (PEP 562), and `from codonlab import X` works as ever.
"""

__version__ = "0.1.0"

# public name -> the module that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "combinatorics": "DEFAULT_CLASS_CAP RNA_ALPHABET MultisetClass arrangements canonicalize"
                         " class_size enumerate_multisets generic_alphabet multiset_count",
        "errors": "CapacityExceededError CodonLabError InvalidParamsError TableFormatError"
                  " UnknownLetterError",
        "genetic_code": "ALL_CODONS AMINO_ACIDS BUILTIN_TABLE_TEXTS INDEX_BASE_ORDER STOP"
                        " GeneticCode builtin_code builtin_standard_code codon_index parse_table"
                        " serialize_table",
        "grover": "DEFAULT_SIM_CAP GroverRun simulate solve_n solve_q success_probability",
        "physics": "PhysicalParams ScaleComparison erg_to_ev erg_to_joule fluctuation_energy"
                   " kinetic_energy momentum_uncertainty scale_comparison",
        "symmetry": "ClassReport PrefixReport SymmetryReport codon_partition"
                    " multiset_invariance_violation partition_classes prefix_significance"
                    " random_code symmetrized_code",
    }.items()
    for name in names.split()
}
__all__ = list(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(__import__(f"{__name__}.{_EXPORTS[name]}", fromlist=[name]), name)
    globals()[name] = value  # later lookups find it without this hook
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
