"""StopRule's radii against the scalar references, bit for bit.

estimator.bernstein_radius and estimator.hoeffding_radius are the
reference semantics of StopRule.bernstein and StopRule.hoeffding. The
array calls are checked through the scan and the trace in
test_kernels.py; here the rule's final radii, which call the same
methods on floats, are checked on every prefix of random streams. The
rule's range_term_sound and its mode check are tested here too.
"""

import math
import re

import numpy as np
import pytest

from repsq import _kernels
from repsq._kernels import RANGE_TERM_MODES
from repsq.errors import DomainError
from repsq.estimator import (
    MAX_SAMPLES,
    EstimatorState,
    bernstein_radius,
    hoeffding_radius,
    update,
)
from repsq.harness import CampaignConfig
from repsq.quantize import AccuracySpec
from repsq.testbeds import moderate_cellular_testbed


@pytest.mark.parametrize("mode", RANGE_TERM_MODES)
@pytest.mark.parametrize("joint", [0.02, 1.0, 30.0])
def test_final_radii_equal_the_scalar_references(mode, joint):
    rng = np.random.default_rng(80)
    rule = _kernels.StopRule.for_campaign(0.01, joint, 0.05, mode, 2)
    streams = [
        joint * rng.beta(2.0, 5.0, size=1000),
        np.full(300, 0.3 * joint),
        joint * np.where(rng.random(1000) < 0.02, 1.0, 0.0),
        joint * rng.uniform(-1.0, 1.0, size=1000),
    ]
    for values in streams:
        state = update(EstimatorState(), float(values[0]))
        for v in values[1:]:
            state = update(state, float(v))
            bern, hoef = rule.final(state)
            assert type(bern) is float and type(hoef) is float
            assert bern == bernstein_radius(state, joint, 0.05, mode)
            assert hoef == hoeffding_radius(state.n, joint, 0.05)
            assert rule.hoeffding(float(state.n)) == hoef


# The floats next to 1, the smallest subnormal and a P whose square
# overflows to inf.
EDGES = (1.0 - 2.0**-53, 1.0 + 2.0**-52, 5e-324, 1e200)


@pytest.mark.parametrize(
    "mode,joint,sound",
    [("paper-exact", joint, joint >= 1.0) for joint in (1e-4, 0.999, 1.0, 30.0, *EDGES)]
    + [("linear-range", joint, True) for joint in (1e-8, 1e-4, 0.999, 1.0, 30.0, *EDGES)],
)
def test_range_term_is_sound_where_it_is_at_least_the_bounds(mode, joint, sound):
    """paper-exact's P^2 is at least P only from P = 1 on; linear-range's
    P always is."""
    rule = _kernels.StopRule.for_campaign(0.01, joint, 0.05, mode, 2)
    assert rule.range_term_sound is sound


@pytest.mark.parametrize("mode", ["exact", "", None, 5, [], {}])
def test_unknown_mode_is_rejected_by_for_campaign_alone(mode):
    named = re.escape(f"one of {RANGE_TERM_MODES}")
    with pytest.raises(DomainError, match=named) as direct:
        _kernels.StopRule.for_campaign(0.01, 1.0, 0.05, mode, 2)
    with pytest.raises(DomainError, match=named) as configured:
        CampaignConfig(
            accuracy=AccuracySpec(0.1, 0.05, 0.1), m_low=0.0, m_high=1.0, w_bar=1.0,
            joint=None, sampler={"kind": "monte_carlo"},
            testbed=moderate_cellular_testbed(), seed=0,
            range_term_mode=mode,
        )
    for raised in (direct, configured):
        assert raised.traceback[-1].name == "for_campaign"


@pytest.mark.parametrize("product", [0.0, -1.0, math.inf, math.nan])
def test_range_outside_its_domain_is_rejected(product):
    with pytest.raises(DomainError, match="range P must be finite and positive"):
        _kernels.StopRule.for_campaign(0.01, product, 0.05, "linear-range", 2)


@pytest.mark.parametrize("mode", RANGE_TERM_MODES)
@pytest.mark.parametrize("joint", [0.02, 1.0, 30.0])
@pytest.mark.parametrize("n_min", [2, 300])
def test_first_stop_is_the_first_n_the_rule_can_fire_at(mode, joint, n_min):
    """first_stop settles a closed form; here the count is found by
    walking n up from n_min."""
    gamma = 0.05 * joint
    rule = _kernels.StopRule.for_campaign(gamma, joint, 0.05, mode, n_min)

    def fires(n, sigma):
        if n >= rule.n_hoeffding:
            return True
        return n >= rule.n_range and rule.bernstein(float(n), sigma) <= gamma

    for share in (0.0, 1e-6, 1e-3, 0.01, 0.05, 0.1, 0.25, 1.0):
        sigma = share * joint * joint
        n = rule.n_min
        while not fires(n, sigma):
            n += 1
        assert rule.first_stop(sigma) == n
    assert rule.first_stop(0.0) == rule.n_floor
    assert rule.n_floor == max(rule.n_min, min(rule.n_range, rule.n_hoeffding))


def test_first_stop_out_of_reach_is_max_samples_plus_one():
    # Neither radius reaches gamma.
    rule = _kernels.StopRule.for_campaign(1e-300, 1.0, 0.05, "linear-range", 2)
    assert rule.first_stop(0.25) == rule.n_floor == MAX_SAMPLES + 1
    # Only the variance-adaptive radius can, and only at a small variance.
    rule = _kernels.StopRule.for_campaign(1e-9, 1.0, 0.05, "linear-range", 2)
    assert rule.n_hoeffding == MAX_SAMPLES + 1
    assert rule.first_stop(0.0) == rule.n_range < MAX_SAMPLES
    assert rule.first_stop(0.25) == MAX_SAMPLES + 1
