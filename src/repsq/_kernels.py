"""The stopping rule and its termination scan.

A campaign stops once either confidence radius of its running estimate
falls to gamma. With P the range of psi*w (computed once, by
harness.CampaignConfig, from the interval its sampler's weighted values
lie in), c the confidence parameter and sigma_hat = m2/n the population
variance, they are:

- the variance-adaptive radius
      sqrt(2 sigma_hat ln(2/c) / n) + 7 R ln(2/c) / (3 (n-1)); and
- the fixed-range radius
      P sqrt(ln(2/c) / (2 n)).

The radius mode fixes R, and nothing else. _MODES maps each mode to
its R(P), and its keys are RANGE_TERM_MODES; the first is the default:

- "paper-exact" takes R = P^2, as the paper prints it;
- "linear-range" takes R = P, the dimensionally linear variant.

StopRule.for_campaign is the one place a mode name is read and
checked. Both radii are always evaluated and the smaller one decides:
the variance-adaptive radius wins by orders of magnitude on
low-variance campaigns, the fixed-range radius near maximal variance.

Neither mode gives a valid confidence radius at the stopping n, for
reasons every mode shares: each radius holds at level 1-c for a fixed
n, but a campaign stops at a data-dependent n, where a fixed-n radius
promises nothing; by a union bound the minimum of the two holds only
at level 1-2c, not 1-c; and the empirical-Bernstein bound behind the
adaptive radius (Maurer & Pontil 2009, Thm 4) is one-sided at ln(2/c),
so a two-sided radius needs ln(4/c), and it uses the unbiased sample
variance m2/(n-1) where this module uses m2/n. "paper-exact" has one
gap more: that bound is linear in R = P, so when P < 1 its P^2 range
term is smaller than the bound's and the radius is too narrow even at
a fixed n. A rule's range_term_sound says whether its range term is at
least the bound's, R(P) >= P: always for "linear-range", only when
P >= 1 for "paper-exact".

StopRule.bernstein and StopRule.hoeffding are the one copy of both
expressions, called on arrays by the scan and the trace and on floats
for the final radii; estimator.bernstein_radius and
estimator.hoeffding_radius are their scalar references, bit for bit.
The scan consumes one chunk of weighted measures and reports where, if
anywhere, the rule fired. The carried state is estimator.EstimatorState,
the count and the shifted sums about the campaign's first value: the
chunk's deviations from that pivot are prefixed with the carried sums
and accumulated with ``np.add.accumulate``, a strictly sequential sum,
so every prefix sum, mean, m2 and radius is the same float
estimator.update() would reach one value at a time, however the values
are split into chunks. One accumulate carries both sums: the deviation
is the real part and its square the imaginary part of one complex128
buffer. A complex add is two independent IEEE adds, so each part is the
sequential float sum bit for bit, and the two dependency chains overlap
instead of running one after the other: ~39 us for 8,192 values
against ~60 us for two float accumulates (2-vCPU x86-64 host). The
trace needs no carried state of its own: it replays a campaign's
consumed values through one such pass.

The fixed-range radius depends on n alone and never increases with it,
so the scan tests it as n >= StopRule.n_hoeffding instead of taking a
square root per value. The variance-adaptive radius is a square root
plus the range term c2/(n-1), and a float sum of non-negative terms is
never below either term, so it cannot reach gamma while c2/(n-1) >
gamma: the scan evaluates it only from StopRule.n_range on.

The same two thresholds size a campaign's draws. StopRule.first_stop
gives the first n at which the rule can fire while the population
variance stays at a given value. At variance 0 that is StopRule.n_floor,
max(n_min, min(n_range, n_hoeffding)), and no campaign stops before it,
whatever its values.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .estimator import MAX_SAMPLES, EstimatorState

__all__ = [
    "ACTIVE_BACKEND",
    "RANGE_TERM_MODES",
    "StopRule",
    "scan_terminate",
    "trace_radii",
]

# The kernel's name, recorded by benchmarks next to their results.
ACTIVE_BACKEND = "numpy-shifted-cumsum"


class StopRule(NamedTuple):
    """Constants of one campaign's stopping rule, and its radii."""

    gamma: float
    log_term: float  # ln(2/c)
    c2: float  # 7 R ln(2/c) / 3
    product: float  # the range P of psi*w
    n_hoeffding: int  # smallest n whose fixed-range radius is <= gamma
    n_min: int  # termination floor, >= 2
    n_range: int  # smallest n >= 2 whose range term c2/(n-1) is <= gamma
    n_floor: int  # first_stop(0.0): no campaign stops before it
    range_term_sound: bool  # R(P) >= P: the range term is at least the bound's

    @staticmethod
    def for_campaign(
        gamma: float, product: float, c: float, range_term_mode: str, n_min: int
    ) -> "StopRule":
        """The rule of a campaign in the named radius mode, for range P =
        product and confidence parameter c. gamma and c are an
        AccuracySpec's, checked there; P is checked here, since finite
        bounds such as m_high * weight_cap can overflow."""
        R = _MODES.get(range_term_mode) if isinstance(range_term_mode, str) else None
        if R is None:
            raise DomainError(
                f"range_term_mode must be one of {RANGE_TERM_MODES}, got {range_term_mode!r}"
            )
        if not (math.isfinite(product) and product > 0.0):
            raise DomainError(f"the range P must be finite and positive, got {product}")
        log_term = math.log(2.0 / c)
        c2 = 7.0 * R(product) * log_term / 3.0
        ratio = product / gamma
        n_hoeffding = _smallest_n(  # the fixed-range radius as hoeffding() evaluates it
            ratio * ratio * log_term / 2.0, 1,
            lambda n: product * math.sqrt(log_term / (2.0 * n)) <= gamma,
        )
        n_min = max(2, n_min)
        n_range = _required_n_range(gamma, c2)
        n_floor = max(n_min, min(n_range, n_hoeffding))
        return StopRule(gamma, log_term, c2, product, n_hoeffding, n_min, n_range, n_floor,
                        R(product) >= product)

    def bernstein(self, n, sigma):
        """Variance-adaptive radius at count n >= 2 and population
        variance sigma."""
        return np.sqrt(2.0 * sigma * self.log_term / n) + self.c2 / (n - 1.0)

    def hoeffding(self, n):
        """Fixed-range radius at count n >= 1."""
        return self.product * np.sqrt(self.log_term / (2.0 * n))

    def first_stop(self, sigma: float) -> int:
        """First n at which the rule can fire while the population
        variance stays sigma; MAX_SAMPLES + 1 when it cannot.

        That is the smaller of n_hoeffding and the smallest n >= n_range
        whose variance-adaptive radius at sigma is <= gamma (the radius
        never increases with n at a fixed sigma), and at least n_min.
        At sigma = 0 it is n_floor.
        """
        lo = max(self.n_min, self.n_range)
        if lo >= self.n_hoeffding:
            return max(self.n_min, self.n_hoeffding)
        # sqrt(b^2 / n) + c2 / n = gamma is a quadratic in t = sqrt(n).
        b = math.sqrt(2.0 * sigma * self.log_term)
        t = (b + math.sqrt(b * b + 4.0 * self.gamma * self.c2)) / (2.0 * self.gamma)
        n = _smallest_n(t * t, lo, lambda n: self.bernstein(float(n), sigma) <= self.gamma)
        return min(self.n_hoeffding, n)

    def final(self, state: EstimatorState) -> tuple[float, float]:
        """(bernstein, hoeffding) radii of a state with n >= 2."""
        n = float(state.n)
        return float(self.bernstein(n, state.m2 / n)), float(self.hoeffding(n))


_MODES = {"paper-exact": lambda p: p * p, "linear-range": lambda p: p}
RANGE_TERM_MODES = tuple(_MODES)


def _required_n_range(gamma: float, c2: float) -> int:
    """Smallest n >= 2 with c2 / (n - 1.0) <= gamma, as the scan
    evaluates the quotient; MAX_SAMPLES + 1 when no campaign reaches it."""
    return _smallest_n(c2 / gamma + 1.0, 2, lambda n: c2 / (n - 1.0) <= gamma)


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


def _prefix_sums(values, state: EstimatorState):
    """(pivot, s1, s2) after each element of the chunk, carried on from
    ``state``; s1 and s2 are the real and imaginary views of one
    complex buffer."""
    pivot = float(values[0]) if state.n == 0 else state.pivot
    sums = np.empty(values.shape[0], dtype=np.complex128)
    dev, sq = sums.real, sums.imag
    np.subtract(values, pivot, out=dev)
    np.multiply(dev, dev, out=sq)
    # cumsum over [carry, chunk] without the copy: the first output is
    # carry + first deviation either way.
    sums[0] += complex(state.s1, state.s2)
    np.add.accumulate(sums, out=sums)
    return pivot, dev, sq


def _counts(state: EstimatorState, start: int, stop: int):
    """n after chunk elements start..stop-1, as floats."""
    return np.arange(state.n + 1 + start, state.n + 1 + stop, dtype=np.float64)


def _sigma(n_arr, s1, s2):
    """Population variance m2/n of each prefix."""
    m2 = s2 - s1 * s1 / n_arr
    np.maximum(m2, 0.0, out=m2)
    return m2 / n_arr


def scan_terminate(values, state: EstimatorState, rule: StopRule):
    """Scan one chunk; returns (stop_index, state).

    stop_index is the 0-based chunk index of the terminating sample, or
    -1 if the chunk was exhausted. The returned state includes every
    chunk element up to and including stop_index (the whole chunk when
    -1). Termination is evaluated only at n >= rule.n_min.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    k = values.shape[0]
    if k == 0:
        return -1, state
    pivot, s1, s2 = _prefix_sums(values, state)
    first = max(0, rule.n_min - state.n - 1)  # first index with n >= n_min
    # From index h on the fixed-range radius is <= gamma; before it only
    # the variance-adaptive radius can stop the campaign, and only from
    # n_range on.
    h = max(first, rule.n_hoeffding - state.n - 1)
    stop = h if h < k else -1
    end = min(k, h)
    start = max(first, rule.n_range - state.n - 1)
    if start < end:
        n_on = _counts(state, start, end)
        hit = rule.bernstein(n_on, _sigma(n_on, s1[start:end], s2[start:end])) <= rule.gamma
        j = int(hit.argmax())
        if hit[j]:
            stop = start + j
    last = stop if stop >= 0 else k - 1
    n = state.n + last + 1
    return stop, EstimatorState(n=n, pivot=pivot, s1=float(s1[last]), s2=float(s2[last]))


def trace_radii(values, rule: StopRule):
    """Per-prefix state and radii of a campaign's consumed values, for
    diagnostics export; the prefix sums are the scan's, bit for bit.

    Returns (n, mean, sigma_hat, bernstein, hoeffding) arrays; entries
    with n < rule.n_min carry NaN radii (the rule never consults them).
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    pivot, s1, s2 = _prefix_sums(values, EstimatorState())
    n_arr = np.arange(1, values.shape[0] + 1, dtype=np.float64)
    mean = pivot + s1 / n_arr
    sigma = _sigma(n_arr, s1, s2)
    bern = np.full(n_arr.shape, np.nan)
    hoef = np.full(n_arr.shape, np.nan)
    young = rule.n_min - 1  # first index with n >= n_min
    bern[young:] = rule.bernstein(n_arr[young:], sigma[young:])
    hoef[young:] = rule.hoeffding(n_arr[young:])
    return n_arr.astype(np.int64), mean, sigma, bern, hoef
