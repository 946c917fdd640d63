"""Query-count relations for amplitude-amplification search, plus a simulator.

The closed-form side inverts (2q+1) * asin(1/sqrt(n)) = pi/2 for either
variable; the simulator runs the actual iteration (sign flip on the marked
index, then inversion about the mean) on a real-valued state vector and is
used to validate the closed forms. Amplitudes stay real throughout: the
oracle and diffusion steps never introduce complex phases.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityExceededError, InvalidParamsError

DEFAULT_SIM_CAP = 2**20


def _check_int(value, name: str, minimum: int) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise InvalidParamsError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise InvalidParamsError(f"{name} must be >= {minimum}, got {value}")
    return value


def solve_n(q) -> float:
    """Database size searchable with certainty in q queries.

    Analytic inversion n = 1 / sin^2(pi / (2(2q+1))); q = 0 gives 1 and the
    result grows monotonically with q.
    """
    if q < 0:
        raise InvalidParamsError(f"q must be >= 0, got {q}")
    s = math.sin(math.pi / (2.0 * (2.0 * q + 1.0)))
    return 1.0 / (s * s)


def solve_q(n) -> float:
    """Query count that drives the marked-item probability to one for size n.

    Analytic inversion q = (pi / (2 asin(1/sqrt(n))) - 1) / 2. Real-valued;
    callers wanting whole queries round the result.
    """
    if not (math.isfinite(n) and n >= 1):
        raise InvalidParamsError(f"n must be finite and >= 1, got {n}")
    return (math.pi / (2.0 * math.asin(1.0 / math.sqrt(n))) - 1.0) / 2.0


def success_probability(n: int, q: int) -> float:
    """Probability of measuring the single marked item after q iterations.

    Closed form sin^2((2q+1) * asin(1/sqrt(n))); q = 0 reduces to the uniform
    1/n.
    """
    _check_int(n, "n", 2)
    _check_int(q, "q", 0)
    theta = math.asin(1.0 / math.sqrt(n))
    return math.sin((2 * q + 1) * theta) ** 2


@dataclass(frozen=True, eq=False)
class GroverRun:
    """Result of one simulated search run.

    `probability_trace[i]` is the marked-item probability after i iterations
    (entry 0 is the uniform start), so it has iterations_applied + 1 entries.
    `max_norm_drift` is the largest deviation of the state's L2 norm from 1
    observed at any step.
    """

    n: int
    marked: int
    iterations_applied: int
    amplitudes: np.ndarray
    probability_trace: tuple[float, ...]
    max_norm_drift: float


def simulate(n: int, q: int, marked: int = 0, *, cap: int = DEFAULT_SIM_CAP) -> GroverRun:
    """Run q iterations of sign-flip + inversion-about-mean on n amplitudes.

    Starts from the uniform vector 1/sqrt(n). The final marked amplitude
    squared matches success_probability(n, q) to ~1e-10 and the norm stays
    within ~1e-12 of 1 throughout.
    """
    _check_int(n, "n", 2)
    if n > cap:
        raise CapacityExceededError(f"n={n} exceeds the simulation cap of {cap}")
    _check_int(q, "q", 0)
    _check_int(marked, "marked", 0)
    if marked >= n:
        raise InvalidParamsError(f"marked must be < n={n}, got {marked}")

    amplitudes = np.full(n, 1.0 / math.sqrt(n))
    trace = [float(amplitudes[marked]) ** 2]
    drift = abs(float(np.linalg.norm(amplitudes)) - 1.0)
    for _ in range(q):
        amplitudes[marked] = -amplitudes[marked]
        amplitudes = 2.0 * amplitudes.mean() - amplitudes
        drift = max(drift, abs(float(np.linalg.norm(amplitudes)) - 1.0))
        trace.append(float(amplitudes[marked]) ** 2)
    return GroverRun(
        n=n,
        marked=marked,
        iterations_applied=q,
        amplitudes=amplitudes,
        probability_trace=tuple(trace),
        max_norm_drift=drift,
    )
