"""The package's immutable record classes: construction, checks, value semantics.

Every record is built by position or keyword, refuses assignment, and (but
for GroverRun, compared by identity) compares and hashes by value against
its own class only. GeneticCode, PhysicalParams and ScaleComparison check
their fields when built (the first two are tested with their modules);
PhysicalParams' defaults are readable on the class.
"""

import math

import pytest

from codonlab import (
    ClassReport,
    GeneticCode,
    GroverRun,
    InvalidParamsError,
    MultisetClass,
    PhysicalParams,
    PrefixReport,
    ScaleComparison,
    SymmetryReport,
    builtin_standard_code,
    canonicalize,
)
from codonlab.reports import RoundedTrace
from codonlab.symmetry import PrefixEntry

STANDARD_AAS = builtin_standard_code().aas
AAC = canonicalize("AAC")

# class -> keyword arguments of one valid record, in field order
RECORDS = {
    MultisetClass: {"canonical_word": "AAC", "counts": (2, 1, 0, 0),
                    "alphabet": ("A", "C", "G", "U")},
    ClassReport: {"multiset": AAC, "codons": ("AAC", "ACA", "CAA"), "products": ("N", "T", "Q"),
                  "coherent": False, "coherent_excluding_stop": False},
    SymmetryReport: {"per_class": (), "coherent_count": 1, "coherent_count_excluding_stop": 2,
                     "bijective_20_to_20": False, "bijective_20_to_20_excluding_stop": True,
                     "pairs_total": 10, "pairs_violating": 3, "pairs_total_excluding_stop": 6,
                     "pairs_violating_excluding_stop": 0},
    PrefixEntry: {"prefix": "GG", "products": ("G", "G", "G", "G"), "product_set": ("G",),
                  "fully_degenerate": True},
    PrefixReport: {"per_prefix": (), "fully_degenerate_prefix_count": 8},
    GeneticCode: {"name": "Standard", "id": 1, "aas": STANDARD_AAS,
                  "starts": frozenset({"AUG"})},
    GroverRun: {"n": 4, "marked": 0, "iterations_applied": 1, "marked_amplitude": 1.0,
                "unmarked_amplitude": 0.0, "probability_trace": (0.25, 1.0),
                "max_norm_drift": 0.0},
    PhysicalParams: {"hbar": 1e-27, "delta_x": 2e-8, "mass": 1e-24, "hbond_energy": 5e-14},
    ScaleComparison: {"scale_factor": 2.0, "energy_base": 4.0, "energy_scaled": 1.0,
                      "energy_ratio": 0.25, "base_to_hbond": 8.0, "scaled_to_hbond": 2.0},
    RoundedTrace: {"probabilities": (0.25, 1.0)},
}
# a changed value for the first field of each record, still valid
OTHER_FIRST = {MultisetClass: "AAG", ClassReport: canonicalize("AAG"), SymmetryReport: (AAC,),
               PrefixEntry: "GC", PrefixReport: (None,), GeneticCode: "Other", GroverRun: 5,
               PhysicalParams: 2e-27, ScaleComparison: 3.0, RoundedTrace: (0.5,)}
BY_VALUE = [cls for cls in RECORDS if cls is not GroverRun]


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_positional_and_keyword_construction_set_the_same_fields(cls):
    fields = RECORDS[cls]
    by_keyword = cls(**fields)
    by_position = cls(*fields.values())
    mixed = cls(*list(fields.values())[:1], **dict(list(fields.items())[1:]))
    for record in (by_keyword, by_position, mixed):
        assert {name: getattr(record, name) for name in fields} == fields


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_wrong_arguments_are_refused(cls):
    fields = RECORDS[cls]
    with pytest.raises(TypeError):
        cls(*fields.values(), "one too many")
    with pytest.raises(TypeError):
        cls(**fields, unknown_field=1)
    first, *_ = fields
    with pytest.raises(TypeError):  # the first field both by position and by keyword
        cls(fields[first], **fields)


@pytest.mark.parametrize("cls", BY_VALUE, ids=lambda cls: cls.__name__)
def test_equal_values_give_equal_records_and_hashes(cls):
    fields = RECORDS[cls]
    a, b = cls(**fields), cls(*fields.values())
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    first, *_ = fields
    changed = cls(**dict(fields, **{first: OTHER_FIRST[cls]}))
    assert changed != a and not changed == a


@pytest.mark.parametrize("cls", BY_VALUE, ids=lambda cls: cls.__name__)
def test_a_record_never_equals_a_tuple_of_its_values(cls):
    fields = RECORDS[cls]
    record = cls(**fields)
    assert record != tuple(fields.values())
    assert record != type("Other", (), {})()


def test_grover_run_compares_by_identity():
    fields = RECORDS[GroverRun]
    a, b = GroverRun(**fields), GroverRun(**fields)
    assert a == a and a != b
    assert len({a, b, a}) == 2  # hashable


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_assignment_and_deletion_raise_attribute_error(cls):
    record = cls(**RECORDS[cls])
    for name, value in RECORDS[cls].items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) == value
    with pytest.raises(AttributeError):
        record.new_attribute = 1


def test_physical_params_defaults_are_class_attributes():
    defaults = {"hbar": 1.05e-27, "delta_x": 1.7e-8, "mass": 1.67e-24, "hbond_energy": 7e-14}
    for name, value in defaults.items():
        assert getattr(PhysicalParams, name) == value
        assert getattr(PhysicalParams(), name) == value
    assert PhysicalParams() == PhysicalParams(**defaults)
    assert PhysicalParams(mass=2e-24) == PhysicalParams(1.05e-27, 1.7e-8, 2e-24, 7e-14)


def test_genetic_code_starts_default_to_no_codon():
    code = GeneticCode("x", None, STANDARD_AAS)
    assert code.starts == frozenset()
    assert code == GeneticCode(name="x", id=None, aas=STANDARD_AAS, starts=frozenset())


@pytest.mark.parametrize("field", list(RECORDS[ScaleComparison]))
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_scale_comparison_checks_every_field(field, value):
    with pytest.raises(InvalidParamsError, match=field):
        ScaleComparison(**dict(RECORDS[ScaleComparison], **{field: value}))
