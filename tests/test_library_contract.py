"""The library contract: a public function refuses a bad argument with a CodonLabError.

Each case below once escaped as a bare ValueError, TypeError or AttributeError, or was
accepted. The function that owns the argument refuses it, with the error class the CLI maps
to its exit status and a message that names the argument.
"""

import re

import pytest

import codonlab
from codonlab import CapacityExceededError, InvalidParamsError
from codonlab.genetic_code import STANDARD_TABLE_TEXT

# each call is evaluated over codonlab's public names, so its text is the test's id
NAMES = {name: getattr(codonlab, name) for name in codonlab.__all__}
NAMES.update(HUGE=10**4300, TABLE_BYTES=STANDARD_TABLE_TEXT.encode())  # HUGE: 4,301 digits


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
