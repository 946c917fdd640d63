"""codonlab: codon content-class combinatorics and genetic-code analysis.

The package counts and enumerates the unordered base-content classes of
nucleotide words (64 ordered codons collapse into 20 classes), parses and
analyzes genetic-code translation tables against that partition, solves and
simulates the query-count relation of amplitude-amplification search, and
computes uncertainty-relation momentum/energy estimates in CGS units.
"""

from .combinatorics import (
    DEFAULT_CLASS_CAP,
    RNA_ALPHABET,
    MultisetClass,
    arrangements,
    canonicalize,
    class_size,
    enumerate_multisets,
    generic_alphabet,
    multiset_count,
)
from .errors import (
    CapacityExceededError,
    CodonLabError,
    InvalidParamsError,
    TableFormatError,
    UnknownLetterError,
)
from .genetic_code import (
    ALL_CODONS,
    AMINO_ACIDS,
    INDEX_BASE_ORDER,
    STOP,
    GeneticCode,
    builtin_code,
    builtin_standard_code,
    codon_index,
    parse_table,
    serialize_table,
)
from .grover import (
    DEFAULT_SIM_CAP,
    GroverRun,
    simulate,
    solve_n,
    solve_q,
    success_probability,
)
from .physics import (
    PhysicalParams,
    ScaleComparison,
    erg_to_ev,
    erg_to_joule,
    fluctuation_energy,
    kinetic_energy,
    momentum_uncertainty,
    scale_comparison,
)
from .symmetry import (
    ClassReport,
    PrefixReport,
    SymmetryReport,
    codon_partition,
    multiset_invariance_violation,
    partition_classes,
    prefix_significance,
    random_code,
    symmetrized_code,
)

__version__ = "0.1.0"
