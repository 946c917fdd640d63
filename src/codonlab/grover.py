"""Query-count relations for amplitude-amplification search, plus a simulator.

The closed-form side inverts (2q+1) * asin(1/sqrt(n)) = pi/2 for either
variable; the simulator runs the actual iteration (sign flip on the marked
index, then inversion about the mean) and is used to validate the closed
forms. With one marked item and a uniform start, every unmarked amplitude
stays equal to every other, so the simulator carries the exact state as two
real amplitudes, the marked one and the one shared by the n - 1 others, in
O(1) memory and O(q) time. Amplitudes stay real throughout: the oracle and
diffusion steps never introduce complex phases.
"""

import math

from .errors import CapacityExceededError, InvalidParamsError, as_float, as_int
from .record import Record

DEFAULT_SIM_CAP = 2**20


def solve_n(q) -> float:
    """Database size searchable with certainty in q queries.

    Analytic inversion n = 1 / sin^2(pi / (2(2q+1))); q = 0 gives 1 and the
    result grows monotonically with q.
    """
    x = as_float(q, "q")
    if x < 0:
        raise InvalidParamsError(f"q must be >= 0, got {q}")
    s = math.sin(math.pi / (2.0 * (2.0 * x + 1.0)))
    n = 1.0 / (s * s) if s * s else math.inf
    if not math.isfinite(n):
        raise InvalidParamsError(f"q={x:.6g} gives no finite database size")
    return n


def solve_q(n) -> float:
    """Query count that drives the marked-item probability to one for size n.

    Analytic inversion q = (pi / (2 asin(1/sqrt(n))) - 1) / 2. Real-valued;
    callers wanting whole queries round the result.
    """
    if not (math.isfinite(as_float(n, "n")) and n >= 1):
        raise InvalidParamsError(f"n must be finite and >= 1, got {n}")
    return (math.pi / (2.0 * math.asin(1.0 / math.sqrt(n))) - 1.0) / 2.0


def success_probability(n: int, q: int) -> float:
    """Probability of measuring the single marked item after q iterations.

    Closed form sin^2((2q+1) * asin(1/sqrt(n))); q = 0 reduces to the uniform
    1/n.
    """
    as_int(n, "n", 2)
    as_int(q, "q", 0)
    theta = math.asin(1.0 / math.sqrt(as_float(n, "n")))
    return math.sin(as_float(2 * q + 1, "q") * theta) ** 2


class GroverRun(Record):
    """Result of one simulated search run.

    `probability_trace[i]` is the marked-item probability after i iterations
    (entry 0 is the uniform start), so it has iterations_applied + 1 entries.
    `marked_amplitude` is the final amplitude of the marked item and
    `unmarked_amplitude` the final amplitude each of the other n - 1 items
    shares. `max_norm_drift` is the largest deviation of the state's L2 norm
    from 1 observed at any step.
    """

    n: int
    marked: int
    iterations_applied: int
    marked_amplitude: float
    unmarked_amplitude: float
    probability_trace: tuple[float, ...]
    max_norm_drift: float

    __eq__, __hash__ = object.__eq__, object.__hash__  # compared by identity


def simulate(n: int, q: int, marked: int = 0, *, cap: int = DEFAULT_SIM_CAP) -> GroverRun:
    """Run q iterations of sign-flip + inversion-about-mean on n amplitudes.

    Starts from the uniform state 1/sqrt(n). Both n and q are bounded by
    `cap`. The final marked amplitude squared matches success_probability(n, q)
    to ~1e-10 and the norm stays within ~1e-12 of 1 throughout. `marked`
    only names the item: the state, and so the trace, do not depend on it.
    """
    as_int(cap, "cap", 0)
    for name, value, minimum in (("n", n, 2), ("q", q, 0)):
        if as_int(value, name, minimum) > cap:
            raise CapacityExceededError(f"{name}={value} exceeds the simulation cap of {cap}")
    as_int(marked, "marked", 0)
    if marked >= n:
        raise InvalidParamsError(f"marked must be < n={n}, got {marked}")

    others = n - 1
    a = b = 1.0 / math.sqrt(n)
    p = a * a
    trace = [p]
    low = high = p + others * b * b  # extremes of the squared L2 norm over all steps
    append = trace.append
    for _ in range(q):
        # sign flip, then inversion about the mean, with the flip folded in:
        # (others*b - a) and m + a are exactly (-a + others*b) and 2*mean - (-a)
        m = (others * b - a) / n
        m += m
        a, b = m + a, m - b
        p = a * a
        append(p)
        s = p + others * b * b
        if s > high:
            high = s
        elif s < low:
            low = s
    # |fl(sqrt(s)) - 1| falls then rises with s, so the extremes of s give its maximum
    drift = max(abs(math.sqrt(low) - 1.0), abs(math.sqrt(high) - 1.0))
    return GroverRun(n=n, marked=marked, iterations_applied=q, marked_amplitude=a,
                     unmarked_amplitude=b, probability_trace=tuple(trace), max_norm_drift=drift)
