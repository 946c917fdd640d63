"""Full-vector reference for the search simulator.

`simulate_vector` applies the sign flip and the inversion about the mean to
all n amplitudes, so it shares no arithmetic with `codonlab.simulate`, which
carries only the (marked, unmarked) pair. Tests that call it skip when numpy
is not installed.
"""

import math

import pytest


def simulate_vector(n: int, q: int, marked: int = 0):
    """Return (amplitudes, probability_trace) after q iterations on n amplitudes."""
    np = pytest.importorskip("numpy")
    amplitudes = np.full(n, 1.0 / math.sqrt(n))
    trace = [float(amplitudes[marked]) ** 2]
    for _ in range(q):
        amplitudes[marked] = -amplitudes[marked]
        amplitudes = 2.0 * amplitudes.mean() - amplitudes
        trace.append(float(amplitudes[marked]) ** 2)
    return amplitudes, tuple(trace)
