"""Estimator state, radii, and termination rule.

Frozen expected values were computed independently with mpmath at 50
significant digits from the radius definitions; tolerances here are pure
float-roundtrip slack.
"""

import math

import numpy as np
import pytest

from repsq._kernels import StopRule
from repsq.errors import DomainError, InsufficientSamples
from repsq.estimator import (
    MAX_SAMPLES,
    EstimatorState,
    bernstein_radius,
    hoeffding_radius,
    update,
)
from repsq.quantize import AccuracySpec

# Range P of psi*w and confidence parameter c of most cases here.
P, C = 1.0, 0.05


def should_terminate(state, gamma, n_min=2):
    """The paper-exact stopping rule at P = 1, c = 0.05, one state at a
    time: true once the smaller of the two radii has reached gamma,
    never before n = max(2, n_min)."""
    if state.n < max(2, n_min):
        return False
    radius = min(bernstein_radius(state, P, C), hoeffding_radius(state.n, P, C))
    return radius <= gamma


def n_hoeffding(gamma, product=P, c=C):
    """The smallest n whose fixed-range radius is <= gamma, as a
    campaign's rule computes it."""
    return StopRule.for_campaign(gamma, product, c, "paper-exact", 2).n_hoeffding


def feed_constant(value, count):
    state = EstimatorState()
    for _ in range(count):
        state = update(state, value)
    return state


class TestState:
    def test_empty_state(self):
        s = EstimatorState()
        assert s.n == 0 and s.mean == 0.0 and s.m2 == 0.0
        assert s.variance == 0.0

    def test_single_update(self):
        s = update(EstimatorState(), 0.25)
        assert s.n == 1
        assert s.mean == 0.25
        assert s.m2 == 0.0

    def test_stream_matches_batch_numpy(self):
        rng = np.random.default_rng(11)
        x = rng.uniform(-3.0, 5.0, size=10_000)
        state = EstimatorState()
        for v in x:
            state = update(state, float(v))
        assert state.n == x.size
        assert state.mean == pytest.approx(float(np.mean(x)), rel=1e-10)
        m2_batch = float(np.sum((x - np.mean(x)) ** 2))
        assert state.m2 == pytest.approx(m2_batch, rel=1e-10)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(12)
        x = rng.normal(2.0, 0.7, size=2_000)
        forward = EstimatorState()
        for v in x:
            forward = update(forward, float(v))
        backward = EstimatorState()
        for v in x[::-1]:
            backward = update(backward, float(v))
        assert forward.mean == pytest.approx(backward.mean, rel=1e-12)
        assert forward.m2 == pytest.approx(backward.m2, rel=1e-10)

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            update(EstimatorState(), math.nan)
        with pytest.raises(DomainError):
            update(EstimatorState(), math.inf)

    def test_invalid_state_fields(self):
        with pytest.raises(DomainError):
            EstimatorState(n=-1)
        with pytest.raises(DomainError):
            EstimatorState(n=0, s1=1.0)
        with pytest.raises(DomainError):
            EstimatorState(n=0, s2=1.0)
        with pytest.raises(DomainError):
            EstimatorState(n=3, pivot=0.5, s2=-1e-9)

    def test_fields_are_keyword_only(self):
        # A positional (n, mean, m2) would otherwise read as (n, pivot, s1).
        with pytest.raises(TypeError):
            EstimatorState(3, 0.5, 0.25)

    def test_moments_are_read_from_the_sums(self):
        s = EstimatorState(n=4, pivot=1.0, s1=2.0, s2=3.0)
        assert s.mean == 1.0 + 2.0 / 4
        assert s.m2 == 3.0 - 2.0 * 2.0 / 4
        assert s.variance == s.m2 / 4


class TestBernsteinRadius:
    # Zero-variance stream, P = 1, c = 0.05: the radius is purely the
    # deterministic term 7 * ln(40) / (3 (n-1)).

    def test_frozen_n2(self):
        state = feed_constant(0.02, 2)
        assert bernstein_radius(state, P, C) == pytest.approx(
            8.607385392932518, rel=1e-12
        )

    def test_frozen_crossing_at_n88(self):
        state87 = feed_constant(0.02, 87)
        state88 = feed_constant(0.02, 88)
        assert bernstein_radius(state87, P, C) == pytest.approx(
            0.10008587666200602, rel=1e-12
        )
        assert bernstein_radius(state88, P, C) == pytest.approx(
            0.098935464286580667, rel=1e-12
        )

    def test_requires_two_samples(self):
        with pytest.raises(InsufficientSamples):
            bernstein_radius(feed_constant(0.5, 1), P, C)

    def test_linear_range_mode_scales_deterministic_term(self):
        state = feed_constant(1.0, 10)
        quadratic = bernstein_radius(state, 4.0, C, "paper-exact")
        linear = bernstein_radius(state, 4.0, C, "linear-range")
        # sigma_hat = 0, so the radii are pure range terms: 16 vs 4.
        assert quadratic == pytest.approx(4.0 * linear, rel=1e-12)

    def test_invalid_mode(self):
        with pytest.raises(DomainError):
            bernstein_radius(feed_constant(0.5, 5), P, C, "exact")

    def test_monotone_on_constant_stream(self):
        prev = math.inf
        state = feed_constant(0.3, 2)
        for _ in range(200):
            r = bernstein_radius(state, P, C)
            assert r < prev
            prev = r
            state = update(state, 0.3)

    def test_variance_term_matches_closed_form(self):
        # Alternating 0/1 stream: sigma_hat = 1/4 exactly at even n.
        state = EstimatorState()
        for i in range(1000):
            state = update(state, float(i % 2))
        assert state.variance == pytest.approx(0.25, rel=1e-12)
        lg = math.log(2.0 / 0.05)
        expected = math.sqrt(2.0 * 0.25 * lg / 1000.0) + 7.0 * lg / (3.0 * 999.0)
        assert bernstein_radius(state, P, C) == pytest.approx(expected, rel=1e-12)


class TestHoeffdingRadius:
    def test_frozen_crossing_at_n185(self):
        assert hoeffding_radius(184, P, C) == pytest.approx(
            0.10012057206886388, rel=1e-12
        )
        assert hoeffding_radius(185, P, C) == pytest.approx(
            0.099849609266026706, rel=1e-12
        )

    def test_required_n_frozen(self):
        assert n_hoeffding(0.1) == 185
        assert n_hoeffding(0.1, c=0.2) == 116

    def test_required_n_is_exact_threshold(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            gamma = float(rng.uniform(0.001, 0.5))
            product = float(rng.uniform(0.1, 5.0)) * float(rng.uniform(1.0, 10.0))
            c = float(rng.uniform(0.01, 0.5))
            n = n_hoeffding(gamma, product, c)
            assert hoeffding_radius(n, product, c) <= gamma
            if n > 1:
                assert hoeffding_radius(n - 1, product, c) > gamma

    @pytest.mark.parametrize(
        "gamma, bounds",  # bounds: (P, c)
        [
            (1e-100, (P, C)),
            (1e-160, (P, C)),  # gamma**2 underflows
            (1e-3, (1e160, C)),  # overflows
            (1e-300, (1e300, C)),
        ],
    )
    def test_required_n_out_of_reach_exceeds_max_samples(self, gamma, bounds):
        assert n_hoeffding(gamma, *bounds) > MAX_SAMPLES

    def test_required_n_is_exact_up_to_max_samples(self):
        for target in (10**12, 2**50, MAX_SAMPLES // 3):
            gamma = hoeffding_radius(target, P, C)
            n = n_hoeffding(gamma)
            assert n <= target
            assert hoeffding_radius(n, P, C) <= gamma < hoeffding_radius(n - 1, P, C)

    def test_requires_one_sample(self):
        with pytest.raises(InsufficientSamples):
            hoeffding_radius(0, P, C)

    def test_rejects_bad_gamma(self):
        # gamma is checked once, by the accuracy contract a rule's gamma
        # comes from.
        with pytest.raises(DomainError, match="gamma"):
            AccuracySpec(0.0, C, 0.1)


class TestDominance:
    def test_variance_radius_wins_on_low_variance(self):
        state = feed_constant(0.4, 10_000)
        assert bernstein_radius(state, P, C) < hoeffding_radius(10_000, P, C)

    def test_range_radius_wins_on_maximal_variance(self):
        # 0/1 alternation saturates the variance allowed by the range
        # bound; the extra deterministic term then makes the
        # variance-adaptive radius strictly worse at every n.
        state = EstimatorState()
        for i in range(2, 600):
            state = update(state, float(i % 2))
            if state.n >= 2 and state.n % 2 == 0:
                assert bernstein_radius(state, P, C) > hoeffding_radius(state.n, P, C)


class TestShouldTerminate:
    def test_zero_variance_terminates_at_exactly_88(self):
        state = EstimatorState()
        stopped_at = None
        for _ in range(200):
            state = update(state, 0.02)
            if should_terminate(state, 0.1):
                stopped_at = state.n
                break
        assert stopped_at == 88

    def test_never_before_two_samples(self):
        # gamma so large any radius would pass; n < 2 still refuses.
        state = update(EstimatorState(), 0.5)
        assert not should_terminate(state, 1e9)
        state = update(state, 0.5)
        assert should_terminate(state, 1e9)

    def test_n_min_floor_delays_termination(self):
        state = feed_constant(0.5, 499)
        assert not should_terminate(state, 1e9, n_min=500)
        state = update(state, 0.5)
        assert should_terminate(state, 1e9, n_min=500)

    def test_range_radius_alone_can_terminate(self):
        # Maximal-variance stream: only the fixed-range radius crosses.
        state = EstimatorState()
        stopped_at = None
        for i in range(400):
            state = update(state, float(i % 2))
            if should_terminate(state, 0.15):
                stopped_at = state.n
                break
        lg = math.log(2.0 / 0.05)
        expected = math.ceil(lg / (2.0 * 0.15**2))
        assert stopped_at == expected
