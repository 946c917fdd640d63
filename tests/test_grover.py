"""Query-count closed forms cross-checked against the search simulator.

The two sides are independent implementations of the same process, so
their agreement over a dense grid is the main correctness argument; the
identity (2q+1) * asin(1/sqrt(n)) = pi/2 is verified directly as well. The
two-amplitude simulator is also compared, amplitude by amplitude, with a
full-vector oracle (`grover_oracle.simulate_vector`), and bit for bit with
the plain step-by-step pair loop (`grover_oracle.simulate_pair`).
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grover_oracle import simulate_pair, simulate_vector

from codonlab import (
    CapacityExceededError,
    InvalidParamsError,
    simulate,
    solve_n,
    solve_q,
    success_probability,
)

HALF_PI = math.pi / 2.0


# --- closed forms -------------------------------------------------------------


def test_solve_n_satisfies_the_defining_identity():
    for q in range(0, 51):
        n = solve_n(q)
        assert (2 * q + 1) * math.asin(1.0 / math.sqrt(n)) == pytest.approx(
            HALF_PI, abs=1e-12
        )


def test_solve_n_spot_values():
    assert solve_n(0) == 1.0
    assert abs(solve_n(1) - 4.0) <= 1e-9
    assert abs(solve_n(3) - 20.19) <= 0.05


def test_solve_n_is_strictly_increasing():
    values = [solve_n(q) for q in range(30)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_solve_q_inverts_solve_n():
    for q in range(0, 51):
        assert solve_q(solve_n(q)) == pytest.approx(q, abs=1e-9)


def test_solve_q_spot_values():
    assert solve_q(1) == 0.0
    assert solve_q(4) == pytest.approx(1.0, abs=1e-12)
    assert solve_q(20.2) == pytest.approx(3.0, abs=1e-2)
    assert round(solve_q(20.2)) == 3


def test_solve_q_is_strictly_increasing():
    values = [solve_q(n) for n in range(1, 200, 7)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_success_probability_basics():
    for n in (2, 3, 10, 64):
        assert success_probability(n, 0) == pytest.approx(1.0 / n, abs=1e-15)
        assert 0.0 <= success_probability(n, 7) <= 1.0
    # n = 4 is the textbook exact case: one iteration, certainty
    assert success_probability(4, 1) == pytest.approx(1.0, abs=1e-12)


def test_success_probability_near_one_at_the_solved_q():
    for n in (16, 20, 50, 64):
        q = round(solve_q(n))
        assert success_probability(n, q) > 0.9


def test_closed_form_domain_errors():
    for bad_q in (-1, 10**309, 10**160, math.inf, math.nan):
        with pytest.raises(InvalidParamsError):
            solve_n(bad_q)
    for bad_n in (0.5, math.nan, math.inf):
        with pytest.raises(InvalidParamsError):
            solve_q(bad_n)
    for bad_args in [(1, 1), (4.0, 1), (4, -1), (4, 1.5), (True, 1)]:
        with pytest.raises(InvalidParamsError):
            success_probability(*bad_args)


# --- simulator ------------------------------------------------------------------


def test_simulation_agrees_with_closed_form_on_a_grid():
    for n in range(2, 65):
        run = simulate(n, 10)
        assert run.max_norm_drift <= 1e-12
        for q, probability in enumerate(run.probability_trace):
            assert abs(probability - success_probability(n, q)) <= 1e-10


def test_four_item_search_is_exact_after_one_iteration():
    for marked in range(4):
        run = simulate(4, 1, marked)
        assert run.marked_amplitude == 1.0
        assert run.unmarked_amplitude == 0.0
        assert run.probability_trace == (0.25, 1.0)
        assert run.max_norm_drift == 0.0


def test_run_record_shape():
    run = simulate(10, 3, marked=7)
    assert run.n == 10
    assert run.marked == 7
    assert run.iterations_applied == 3
    assert len(run.probability_trace) == 4
    assert run.marked_amplitude ** 2 == run.probability_trace[-1]
    assert not hasattr(run, "amplitudes")
    assert run.probability_trace[0] == pytest.approx(0.1, abs=1e-15)


def test_marked_index_does_not_change_the_trace():
    for n in (2, 5, 17, 64):
        reference = simulate(n, 3, 0).probability_trace
        for marked in (1, n // 2, n - 1):
            trace = simulate(n, 3, marked).probability_trace
            assert all(abs(a - b) <= 1e-12 for a, b in zip(reference, trace))


def test_probability_grows_until_the_optimal_iteration():
    for n in (8, 20, 64, 100):
        best = math.floor(solve_q(n))
        trace = simulate(n, best).probability_trace
        assert all(b > a for a, b in zip(trace, trace[1:]))


def test_overrotation_reduces_the_probability():
    n = 16
    best = round(solve_q(n))
    peak = simulate(n, best).probability_trace[-1]
    assert simulate(n, best + 2).probability_trace[-1] < peak


def test_amplitudes_stay_real_and_normalized():
    run = simulate(50, 10)
    assert type(run.marked_amplitude) is float
    assert type(run.unmarked_amplitude) is float
    norm = math.sqrt(run.marked_amplitude ** 2 + 49 * run.unmarked_amplitude ** 2)
    assert norm == pytest.approx(1.0, abs=1e-12)


def test_simulator_domain_errors():
    for bad in [(1, 1), (0, 1), (2.0, 1), (4, -1), (4, 1.0), (4, 1, 4), (4, 1, -1)]:
        with pytest.raises(InvalidParamsError):
            simulate(*bad)


def test_simulator_capacity():
    with pytest.raises(CapacityExceededError):
        simulate(2**20 + 1, 1)
    with pytest.raises(CapacityExceededError):
        simulate(1024, 1, cap=1000)
    assert simulate(100, 1, cap=100).n == 100
    # the cap bounds q, the length of the trace, as well
    with pytest.raises(CapacityExceededError):
        simulate(4, 2**20 + 1)
    with pytest.raises(CapacityExceededError):
        simulate(4, 1001, cap=1000)
    assert simulate(4, 1000, cap=1000).iterations_applied == 1000


@st.composite
def _runs(draw):
    n = draw(st.integers(min_value=2, max_value=300))
    return n, draw(st.integers(min_value=0, max_value=60)), draw(st.integers(0, n - 1))


@given(_runs())
@settings(max_examples=100, deadline=None)
def test_two_amplitude_simulator_matches_the_full_vector_oracle(args):
    n, q, marked = args
    amplitudes, trace = simulate_vector(n, q, marked)
    run = simulate(n, q, marked)
    assert len(run.probability_trace) == len(trace)
    assert all(abs(a - b) <= 1e-12 for a, b in zip(run.probability_trace, trace))
    assert abs(run.marked_amplitude - amplitudes[marked]) <= 1e-12
    others = [float(x) for i, x in enumerate(amplitudes) if i != marked]
    assert all(abs(run.unmarked_amplitude - x) <= 1e-12 for x in others)


@given(st.integers(min_value=2, max_value=2**20), st.integers(min_value=0, max_value=3000))
@settings(max_examples=200, deadline=None)
def test_simulator_is_bit_exact_against_the_step_by_step_pair_loop(n, q):
    a, b, trace, drift = simulate_pair(n, q)
    run = simulate(n, q)
    # float.hex tells -0.0 from 0.0, which == does not
    assert list(map(float.hex, run.probability_trace)) == list(map(float.hex, trace))
    final = (run.marked_amplitude, run.unmarked_amplitude, run.max_norm_drift)
    assert list(map(float.hex, final)) == list(map(float.hex, (a, b, drift)))
