"""Termination-scan kernel: one numpy scan whose bits do not depend on
how a campaign is chunked.

Campaigns feed weighted measures to the estimator in chunks; the scan
consumes one chunk and reports where (if anywhere) the termination rule
fired. The carried state holds shifted sums about the campaign's first
value (see estimator.EstimatorState): the chunk's deviations from that
pivot are prefixed with the carried sums and accumulated with
``np.add.accumulate`` (``np.cumsum``), a strictly sequential sum. Every prefix sum is
therefore the same float estimator.update() would reach one value at a
time, however the values are split into chunks, and so are the prefix
means, m2 and radii computed from it.

Radius expressions here mirror estimator.bernstein_radius and
estimator.hoeffding_radius operation for operation. The fixed-range
radius depends on n alone and never increases with it, so the stop scan
tests it as n >= StopRule.n_hoeffding (estimator.required_n_hoeffding
evaluates that same expression) instead of taking a square root per
value. The variance-adaptive radius is a square root plus the range
term c2/(n-1), and a float sum of non-negative terms is never below
either term, so it cannot reach gamma while c2/(n-1) > gamma: the scan
evaluates it only from StopRule.n_range on.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .estimator import (
    MAX_SAMPLES,
    BoundSpec,
    EstimatorState,
    bernstein_second_coef,
    required_n_hoeffding,
)

__all__ = [
    "ACTIVE_BACKEND",
    "StopRule",
    "scan_terminate",
    "trace_radii",
]

# The kernel's name, recorded by benchmarks next to their results.
ACTIVE_BACKEND = "numpy-shifted-cumsum"


class StopRule(NamedTuple):
    """Constants of one campaign's termination rule."""

    gamma: float
    log_term: float
    c2: float  # estimator.bernstein_second_coef
    product: float  # the declared bound on |psi*w|
    n_hoeffding: int  # smallest n whose fixed-range radius is <= gamma
    n_min: int  # termination floor, >= 2
    n_range: int  # smallest n >= 2 whose range term c2/(n-1) is <= gamma

    @classmethod
    def for_campaign(
        cls, gamma: float, bounds: BoundSpec, range_term_mode: str, n_min: int
    ) -> "StopRule":
        c2 = bernstein_second_coef(bounds, range_term_mode)
        return cls(
            gamma,
            bounds.log_term,
            c2,
            bounds.product,
            required_n_hoeffding(gamma, bounds),
            max(2, n_min),
            _required_n_range(gamma, c2),
        )


def _required_n_range(gamma: float, c2: float) -> int:
    """Smallest n >= 2 with c2 / (n - 1.0) <= gamma, as the scan
    evaluates the quotient; MAX_SAMPLES + 1 when no campaign reaches it."""
    ratio = c2 / gamma
    if not ratio < 2.0 * MAX_SAMPLES:
        return MAX_SAMPLES + 1
    n = max(2, math.ceil(ratio) + 1)
    # The rounded ratio can put the closed form one off; settle it.
    while c2 / (n - 1.0) > gamma:
        n += 1
    while n > 2 and c2 / (n - 2.0) <= gamma:
        n -= 1
    return n


def _prefix_sums(values, state: EstimatorState):
    """(pivot, s1, s2) after each element of the chunk, carried on from
    ``state``."""
    pivot = float(values[0]) if state.n == 0 else state.pivot
    dev = values - pivot
    sq = dev * dev
    # cumsum over [carry, chunk] without the copy: the first output is
    # carry + first deviation either way.
    dev[0] += state.s1
    sq[0] += state.s2
    return pivot, np.add.accumulate(dev), np.add.accumulate(sq)


def _counts(state: EstimatorState, start: int, stop: int):
    """n after chunk elements start..stop-1, as floats."""
    return np.arange(state.n + 1 + start, state.n + 1 + stop, dtype=np.float64)


def _sigma(n_arr, s1, s2):
    """Population variance m2/n of each prefix."""
    m2 = s2 - s1 * s1 / n_arr
    np.maximum(m2, 0.0, out=m2)
    return m2 / n_arr


def _bernstein(n_arr, sigma, rule: StopRule):
    """Variance-adaptive radius of prefixes with n >= 2."""
    return np.sqrt(2.0 * sigma * rule.log_term / n_arr) + rule.c2 / (n_arr - 1.0)


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
        hit = _bernstein(n_on, _sigma(n_on, s1[start:end], s2[start:end]), rule) <= rule.gamma
        j = int(hit.argmax())
        if hit[j]:
            stop = start + j
    last = stop if stop >= 0 else k - 1
    n = state.n + last + 1
    return stop, EstimatorState.from_sums(n, pivot, float(s1[last]), float(s2[last]))


def trace_radii(values, state: EstimatorState, rule: StopRule):
    """Per-prefix state and radii over the chunk, for diagnostics export.

    Returns (n, mean, sigma_hat, bernstein, hoeffding) arrays; entries
    with n < rule.n_min carry NaN radii (the rule never consults them).
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    pivot, s1, s2 = _prefix_sums(values, state)
    n_arr = _counts(state, 0, values.shape[0])
    mean = pivot + s1 / n_arr
    sigma = _sigma(n_arr, s1, s2)
    bern = np.full(n_arr.shape, np.nan)
    hoef = np.full(n_arr.shape, np.nan)
    young = max(0, rule.n_min - state.n - 1)  # first index with n >= n_min
    bern[young:] = _bernstein(n_arr[young:], sigma[young:], rule)
    hoef[young:] = rule.product * np.sqrt(rule.log_term / (2.0 * n_arr[young:]))
    return n_arr.astype(np.int64), mean, sigma, bern, hoef
