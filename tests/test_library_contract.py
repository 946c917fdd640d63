"""The library contract: a public function refuses a bad argument with a CodonLabError.

Each case below once escaped as a bare ValueError, TypeError, AttributeError or KeyError, or
was accepted. The function that owns the argument refuses it, with the error class the CLI maps
to its exit status and a message that names the argument.
"""

import json
import re
import sys

import pytest

import codonlab
from codonlab import CapacityExceededError, InvalidParamsError
from codonlab.genetic_code import STANDARD_TABLE_TEXT
from codonlab.reports import (build_analyze_report, build_energy_report,
                              build_grover_simulate_report, build_grover_solve_n_report, emit,
                              render)

# each call is evaluated over codonlab's public names, so its text is the test's id
NAMES = {name: getattr(codonlab, name) for name in codonlab.__all__}
NAMES.update(HUGE=10**4300, TABLE_BYTES=STANDARD_TABLE_TEXT.encode())  # HUGE: 4,301 digits
# reports, each without a field that its text and CSV layouts name
NAMES.update(emit=emit, SOLVE_N=build_grover_solve_n_report(3),
             ENERGY=build_energy_report(codonlab.PhysicalParams(), 3.0),
             SIMULATE=build_grover_simulate_report(20, 3, 0))
del NAMES["SOLVE_N"]["q"], NAMES["ENERGY"]["params"]["hbar"], NAMES["SIMULATE"]["trace"]


@pytest.mark.parametrize("call, error, message", [
    ("arrangements(HUGE, 1)", CapacityExceededError,
     "k**r for k=a 14285-bit int, r=1 has more than"),
    ("arrangements(3, HUGE)", CapacityExceededError,
     "k**r for k=3, r=a 14285-bit int has more than"),
    ("multiset_count(HUGE, 2)", CapacityExceededError,
     "C(k+r-1, r) for k=a 14285-bit int, r=2 has more than"),
    ("canonicalize('AC', alphabet=5)", InvalidParamsError, "alphabet must be letters, got 5"),
    ("canonicalize('A', alphabet=[['x']])", InvalidParamsError,
     "alphabet letters must be single characters"),
    ("builtin_standard_code().translate(None)", InvalidParamsError,
     "codon must be a string of 3 bases, got None"),
    ("parse_table(TABLE_BYTES)", InvalidParamsError, "table text must be a string, got bytes"),
    ("builtin_code([])", InvalidParamsError, "unknown builtin code []"),
    ("random_code([])", InvalidParamsError, "seed must be an integer, got []"),
    ("random_code(1.5)", InvalidParamsError, "seed must be an integer, got 1.5"),
    ("random_code('x')", InvalidParamsError, "seed must be an integer, got 'x'"),
    ("random_code(True)", InvalidParamsError, "seed must be an integer, got True"),
    ("GeneticCode('x', HUGE, 'A' * 64)", InvalidParamsError, "id must have at most"),
    ("GeneticCode('x', -HUGE, 'A' * 64)", InvalidParamsError, "id must have at most"),
    # refused when emit() is called, before any chunk is returned
    ("emit(SOLVE_N, 'text')", InvalidParamsError, "grover solve-n report has no field 'q'"),
    ("emit(SOLVE_N, 'csv')", InvalidParamsError, "grover solve-n report has no field 'q'"),
    ("emit(ENERGY, 'text')", InvalidParamsError, "energy report has no field 'hbar'"),
    ("emit(ENERGY, 'csv')", InvalidParamsError, "energy report has no field 'hbar'"),
    ("emit(SIMULATE, 'text')", InvalidParamsError, "grover simulate report has no field 'trace'"),
    ("emit(SIMULATE, 'csv')", InvalidParamsError, "grover simulate report has no field 'trace'"),
    ("emit(SIMULATE, 'json')", InvalidParamsError, "grover simulate report has no field 'trace'"),
])
def test_a_bad_argument_is_refused_by_the_function_that_owns_it(call, error, message):
    with pytest.raises(error, match="^" + re.escape(message)):
        eval(call, dict(NAMES))


def test_the_refusals_keep_the_valid_calls():
    random_code, builtin_code = codonlab.random_code, codonlab.builtin_code
    assert random_code(-5).name == "random--5" and random_code(-5) == random_code(-5)
    assert builtin_code("standard") is codonlab.builtin_standard_code()
    assert builtin_code("standard").translate("atg") == "M"
    assert codonlab.canonicalize("GAU", alphabet=["U", "G", "A"]).canonical_word == "UGA"
    assert json.loads(render(NAMES["SOLVE_N"], "json")) == NAMES["SOLVE_N"]  # JSON names no field


def assert_ids_refused_past(limit):
    for id in (10**limit, -(10**limit)):
        with pytest.raises(InvalidParamsError, match=f"^id must have at most {limit} digits$"):
            codonlab.GeneticCode(name="x", id=id, aas="A" * 64)
    for id in (10**limit - 1, 1 - 10**limit, 2**2000, -(2**2001)):
        code = codonlab.GeneticCode(name="x", id=id, aas="A" * 64)
        assert codonlab.parse_table(codonlab.serialize_table(code)) == code
        for fmt in ("text", "json"):
            assert str(id) in render(build_analyze_report(code, "library"), fmt)


def test_an_id_is_refused_past_the_digit_limit_and_printed_within_it():
    # refused where str() would refuse to print it: at the digit limit of counts
    assert_ids_refused_past(min(4300, getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300))
    if hasattr(sys, "set_int_max_str_digits"):  # Python 3.11+: a lowered limit is the limit
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            assert_ids_refused_past(640)
        finally:
            sys.set_int_max_str_digits(old)
