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
both give the same bits for every prefix, however chunked. They take
the range P of psi*w and the confidence parameter c as floats; a
campaign's P is the one harness.CampaignConfig computes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, InsufficientSamples

__all__ = [
    "EstimatorState",
    "update",
    "bernstein_radius",
    "hoeffding_radius",
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


def bernstein_radius(
    state: EstimatorState, product: float, c: float, range_term_mode: str = "paper-exact"
) -> float:
    """Variance-adaptive radius at the current n (StopRule.bernstein) for
    range P = product and confidence parameter c, with R = P^2 under
    "paper-exact" and R = P under "linear-range"."""
    if state.n < 2:
        raise InsufficientSamples(f"radius needs n >= 2, have n = {state.n}")
    range_r = {"paper-exact": product * product, "linear-range": product}
    if range_term_mode not in range_r:
        raise DomainError(f"unknown range_term_mode {range_term_mode!r}")
    n = float(state.n)
    sigma = state.m2 / n
    log_term = math.log(2.0 / c)
    c2 = 7.0 * range_r[range_term_mode] * log_term / 3.0
    return math.sqrt(2.0 * sigma * log_term / n) + c2 / (n - 1.0)


def hoeffding_radius(n: int, product: float, c: float) -> float:
    """Fixed-range radius at sample count n (StopRule.hoeffding) for range
    P = product and confidence parameter c."""
    if n < 1:
        raise InsufficientSamples(f"radius needs n >= 1, have n = {n}")
    return product * math.sqrt(math.log(2.0 / c) / (2.0 * float(n)))
