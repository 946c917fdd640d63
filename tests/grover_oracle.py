"""References for the search simulator.

`simulate_vector` applies the sign flip and the inversion about the mean to
all n amplitudes, a plain list, so it shares no arithmetic with
`codonlab.simulate`, which carries only the (marked, unmarked) pair.

`simulate_pair` is the plain two-amplitude loop, one step at a time: negate
the marked amplitude, take the mean, reflect both amplitudes about it, and
track the norm drift as it goes. `codonlab.simulate` must reproduce it bit
for bit.
"""

import math


def simulate_vector(n: int, q: int, marked: int = 0):
    """Return (amplitudes, probability_trace) after q iterations on n amplitudes."""
    amplitudes = [1.0 / math.sqrt(n)] * n
    trace = [amplitudes[marked] ** 2]
    for _ in range(q):
        amplitudes[marked] = -amplitudes[marked]
        mean = math.fsum(amplitudes) / n
        amplitudes = [2.0 * mean - x for x in amplitudes]
        trace.append(amplitudes[marked] ** 2)
    return amplitudes, tuple(trace)


def simulate_pair(n: int, q: int):
    """Return (marked amplitude, unmarked amplitude, probability_trace, max_norm_drift)."""
    others = n - 1
    a = b = 1.0 / math.sqrt(n)
    trace = [a * a]
    drift = abs(math.sqrt(a * a + others * b * b) - 1.0)
    for _ in range(q):
        a = -a
        mean = (a + others * b) / n
        a, b = 2.0 * mean - a, 2.0 * mean - b
        drift = max(drift, abs(math.sqrt(a * a + others * b * b) - 1.0))
        trace.append(a * a)
    return a, b, tuple(trace), drift
