"""StopRule's radii against the scalar references, bit for bit.

estimator.bernstein_radius and estimator.hoeffding_radius are the
reference semantics of StopRule.bernstein and StopRule.hoeffding. The
array calls are checked through the scan and the trace in
test_kernels.py; here the rule's final radii, which call the same
methods on floats, are checked on every prefix of random streams.
"""

import numpy as np
import pytest

from repsq import _kernels
from repsq.estimator import (
    RANGE_TERM_MODES,
    BoundSpec,
    EstimatorState,
    bernstein_radius,
    hoeffding_radius,
    update,
)


@pytest.mark.parametrize("mode", RANGE_TERM_MODES)
@pytest.mark.parametrize("joint", [0.02, 1.0, 30.0])
def test_final_radii_equal_the_scalar_references(mode, joint):
    rng = np.random.default_rng(80)
    bounds = BoundSpec(m=1.0, w_bar=50.0, c=0.05, joint=joint)
    rule = _kernels.StopRule.for_campaign(0.01, bounds, mode, 2)
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
            assert bern == bernstein_radius(state, bounds, mode)
            assert hoef == hoeffding_radius(state.n, bounds)
            assert rule.hoeffding(float(state.n)) == hoef
