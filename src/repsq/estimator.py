"""Online weighted-measure estimator and the scalar reference radii.

The estimator ingests one weighted measure psi(x)*w(x) per test. Its
state is the count n and the shifted sums about a pivot, the first value
it ingests (Chan, Golub & LeVeque 1983): s1 = sum(x - pivot) and
s2 = sum((x - pivot)^2). The running estimate mean = pivot + s1/n, the
sum of squared deviations m2 = s2 - s1^2/n and the population variance
sigma_hat = m2/n are read from them in O(1).

The radii, the radius modes and the stopping rule are described, and
evaluated, in _kernels. bernstein_radius and hoeffding_radius are the
scalar references of its StopRule, written out on their own:
update() makes the same additions in the same order as the scan, so
both give the same bits for every prefix, however chunked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, InsufficientSamples

__all__ = [
    "EstimatorState",
    "BoundSpec",
    "update",
    "bernstein_radius",
    "hoeffding_radius",
    "required_n_hoeffding",
    "MAX_SAMPLES",
]

# Largest sample count a campaign may reach. The radii are evaluated on
# float(n), which is exact only up to 2**53.
MAX_SAMPLES = 2**53


@dataclass(frozen=True, kw_only=True)
class EstimatorState:
    """Count n and shifted sums s1 = sum(x - pivot), s2 = sum((x - pivot)^2)
    of the values seen so far; pivot is the first of them.

    mean, m2 and variance are read from the sums. variance is the
    population variance m2/n (division by n, not n-1), matching the
    termination radius definition. The fields are keyword-only, so a
    call that passes (n, mean, m2) by position fails instead of being
    read as (n, pivot, s1).
    """

    n: int = 0
    pivot: float = 0.0
    s1: float = 0.0
    s2: float = 0.0

    def __post_init__(self) -> None:
        if self.n < 0:
            raise DomainError(f"negative count {self.n}")
        if self.n == 0 and (self.s1 != 0.0 or self.s2 != 0.0):
            raise DomainError("empty state must have s1 = s2 = 0")
        if self.s2 < 0.0:
            raise DomainError(f"negative s2 {self.s2}")

    @property
    def mean(self) -> float:
        return self.pivot + self.s1 / self.n if self.n > 0 else 0.0

    @property
    def m2(self) -> float:
        return max(self.s2 - self.s1 * self.s1 / self.n, 0.0) if self.n > 0 else 0.0

    @property
    def variance(self) -> float:
        return self.m2 / self.n if self.n > 0 else 0.0


def update(state: EstimatorState, weighted_measure: float) -> EstimatorState:
    """Fold one weighted measure into the state (shifted-sum recurrence;
    the first value becomes the pivot)."""
    if not math.isfinite(weighted_measure):
        raise DomainError(f"non-finite weighted measure {weighted_measure}")
    pivot = weighted_measure if state.n == 0 else state.pivot
    d = weighted_measure - pivot
    return EstimatorState(n=state.n + 1, pivot=pivot, s1=state.s1 + d, s2=state.s2 + d * d)


@dataclass(frozen=True)
class BoundSpec:
    """Declared range and weight bounds entering the radii.

    m is the measure range m_high - m_low; w_bar caps the importance
    weight p/q. ``joint`` optionally overrides the product m*w_bar with a
    tighter empirical or conditional bound on psi*w (declaring it is the
    campaign author's responsibility; radii are only valid if the bound
    actually holds for the sampled values).
    """

    m: float
    w_bar: float
    c: float
    joint: float | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.m) and self.m > 0.0):
            raise DomainError(f"m must be finite and positive, got {self.m}")
        if not (math.isfinite(self.w_bar) and self.w_bar >= 1.0):
            raise DomainError(f"w_bar must be >= 1 (p=q somewhere), got {self.w_bar}")
        if not 0.0 < self.c < 1.0:
            raise DomainError(f"c must lie in (0, 1), got {self.c}")
        if self.joint is not None and not (math.isfinite(self.joint) and self.joint > 0.0):
            raise DomainError(f"joint bound must be finite and positive, got {self.joint}")

    @property
    def product(self) -> float:
        """The effective bound on psi*w used by both radii."""
        return self.joint if self.joint is not None else self.m * self.w_bar

    @property
    def log_term(self) -> float:
        return math.log(2.0 / self.c)


def bernstein_radius(
    state: EstimatorState, bounds: BoundSpec, range_term_mode: str = "paper-exact"
) -> float:
    """Variance-adaptive radius at the current n (StopRule.bernstein),
    with R = P^2 under "paper-exact" and R = P under "linear-range"."""
    if state.n < 2:
        raise InsufficientSamples(f"radius needs n >= 2, have n = {state.n}")
    p = bounds.product
    range_r = {"paper-exact": p * p, "linear-range": p}
    if range_term_mode not in range_r:
        raise DomainError(f"unknown range_term_mode {range_term_mode!r}")
    n = float(state.n)
    sigma = state.m2 / n
    c2 = 7.0 * range_r[range_term_mode] * bounds.log_term / 3.0
    return math.sqrt(2.0 * sigma * bounds.log_term / n) + c2 / (n - 1.0)


def hoeffding_radius(n: int, bounds: BoundSpec) -> float:
    """Fixed-range radius at sample count n (StopRule.hoeffding)."""
    if n < 1:
        raise InsufficientSamples(f"radius needs n >= 1, have n = {n}")
    return bounds.product * math.sqrt(bounds.log_term / (2.0 * float(n)))


def required_n_hoeffding(gamma: float, bounds: BoundSpec) -> int:
    """Smallest n whose fixed-range radius is <= gamma; MAX_SAMPLES + 1
    when no campaign reaches it."""
    if not (math.isfinite(gamma) and gamma > 0.0):
        raise DomainError(f"gamma must be finite and positive, got {gamma}")
    ratio = bounds.product / gamma
    return _smallest_n(
        ratio * ratio * bounds.log_term / 2.0, 1, lambda n: hoeffding_radius(n, bounds) <= gamma
    )


def _smallest_n(guess: float, lo: int, reached) -> int:
    """Smallest n >= lo with reached(n), a predicate that holds from some n
    on, settled from its closed-form guess; MAX_SAMPLES + 1 far beyond
    MAX_SAMPLES, where float(n) cannot tell neighbouring counts apart."""
    if not guess < 2.0 * MAX_SAMPLES:
        return MAX_SAMPLES + 1
    n = max(lo, math.ceil(guess))
    # The rounded closed form can be one off; settle it exactly.
    while not reached(n):
        n += 1
    while n > lo and reached(n - 1):
        n -= 1
    return n
