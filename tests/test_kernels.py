"""The scan kernel against the scalar estimator, bit for bit.

estimator.update is the reference semantics: the kernel advances the
same shifted sums with the same additions in the same order, so every
prefix state, radius and termination point must match the scalar path
exactly, for any chunking. The ``sequential`` parameter runs the scalar
reference through the kernel's interface; ``vectorized`` runs the kernel.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repsq import _kernels
from repsq.estimator import EstimatorState, bernstein_radius, hoeffding_radius, update

# The range P of psi*w and the confidence parameter c of most cases here.
UNIT = (1.0, 0.05)


def should_terminate(state, gamma, bounds, n_min=2):
    """The paper-exact stopping rule at bounds = (P, c), one state at a
    time: true once the smaller of the two radii has reached gamma,
    never before n = max(2, n_min)."""
    if state.n < max(2, n_min):
        return False
    radius = min(bernstein_radius(state, *bounds), hoeffding_radius(state.n, *bounds))
    return radius <= gamma


def scalar_reference_run(values, gamma, bounds, n_min=2):
    """Feed values one at a time through the scalar estimator."""
    state = EstimatorState()
    for v in values:
        state = update(state, float(v))
        if should_terminate(state, gamma, bounds, n_min=n_min):
            return state.n, state
    return None, state


def sequential_scan(values, state, rule, bounds):
    """The scalar reference with the kernel's interface."""
    for i, v in enumerate(values):
        state = update(state, float(v))
        if should_terminate(state, rule.gamma, bounds, n_min=rule.n_min):
            return i, state
    return -1, state


def vectorized_scan(values, state, rule, bounds):
    return _kernels.scan_terminate(values, state, rule)


def make_rule(gamma, bounds, n_min=2):
    return _kernels.StopRule.for_campaign(gamma, *bounds, "paper-exact", n_min)


def kernel_run(scan, values, gamma, bounds, n_min=2, chunk=64):
    rule = make_rule(gamma, bounds, n_min)
    state = EstimatorState()
    for start in range(0, len(values), chunk):
        block = np.asarray(values[start : start + chunk], dtype=np.float64)
        i, state = scan(block, state, rule, bounds)
        if i >= 0:
            return state.n, state
    return None, state


def sums(state):
    return (state.n, state.mean, state.m2, state.pivot, state.s1, state.s2)


SCANS = [
    pytest.param(sequential_scan, id="sequential"),
    pytest.param(vectorized_scan, id="vectorized"),
]


class TestBackendSelection:
    """One kernel remains; its name is what benchmarks record."""

    def test_active_backend_is_known(self):
        assert _kernels.ACTIVE_BACKEND == "numpy-shifted-cumsum"

    def test_dispatch_matches_sequential(self):
        rng = np.random.default_rng(31)
        values = rng.uniform(0.0, 1.0, size=2_000)
        bounds = UNIT
        rule = make_rule(0.05, bounds)
        i_got, got = _kernels.scan_terminate(values, EstimatorState(), rule)
        i_want, want = sequential_scan(values, EstimatorState(), rule, bounds)
        assert i_got == i_want >= 0
        assert sums(got) == sums(want)


class TestAgainstScalarReference:
    @pytest.mark.parametrize("scan", SCANS)
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_same_termination_n_and_state(self, scan, seed):
        rng = np.random.default_rng(seed)
        # Bounded stream with modest variance so the variance-adaptive
        # radius decides termination at a few hundred samples.
        values = 0.5 + 0.05 * rng.standard_normal(5_000)
        np.clip(values, 0.0, 1.0, out=values)
        bounds = UNIT
        gamma = 0.02
        n_ref, state_ref = scalar_reference_run(values, gamma, bounds)
        n_got, state = kernel_run(scan, values, gamma, bounds)
        assert n_ref is not None
        assert n_got == n_ref
        assert sums(state) == sums(state_ref)

    @pytest.mark.parametrize("scan", SCANS)
    def test_zero_variance_stops_at_88(self, scan):
        values = np.full(200, 0.02)
        bounds = UNIT
        n_got, _ = kernel_run(scan, values, 0.1, bounds, chunk=13)
        assert n_got == 88

    @pytest.mark.parametrize("scan", SCANS)
    def test_non_terminating_returns_full_state(self, scan):
        rng = np.random.default_rng(40)
        values = rng.uniform(0.0, 1.0, size=300)
        bounds = UNIT
        n_got, state = kernel_run(scan, values, 1e-9, bounds)
        assert n_got is None
        assert state.n == 300
        assert state.mean == pytest.approx(float(np.mean(values)), rel=1e-12)
        assert state.m2 == pytest.approx(float(np.var(values) * 300), rel=1e-9)

    @pytest.mark.parametrize("scan", SCANS)
    def test_n_min_respected_within_chunk(self, scan):
        values = np.full(50, 0.3)
        bounds = UNIT
        n_got, _ = kernel_run(scan, values, 1e9, bounds, n_min=17, chunk=50)
        assert n_got == 17

    @pytest.mark.parametrize("scan", SCANS)
    @pytest.mark.parametrize("chunk", [1, 64, 400])
    def test_range_radius_alone_stops_at_required_n(self, scan, chunk):
        # 0/1 alternation saturates the variance: only the fixed-range
        # radius can stop, at exactly the rule's n_hoeffding.
        values = np.arange(400) % 2.0
        bounds = UNIT
        n_got, _ = kernel_run(scan, values, 0.15, bounds, chunk=chunk)
        assert n_got == make_rule(0.15, bounds).n_hoeffding == 82


class TestChunkingInvariance:
    @pytest.mark.parametrize("scan", SCANS)
    @pytest.mark.parametrize("chunk", [1, 7, 64, 997, 5_000])
    def test_chunk_size_does_not_change_answer(self, scan, chunk):
        rng = np.random.default_rng(50)
        values = rng.beta(2.0, 5.0, size=5_000)
        bounds = UNIT
        gamma = 0.015
        n_base, base = kernel_run(sequential_scan, values, gamma, bounds, chunk=64)
        n_got, state = kernel_run(scan, values, gamma, bounds, chunk=chunk)
        assert n_base is not None
        assert n_got == n_base
        assert sums(state) == sums(base)

    @pytest.mark.parametrize("chunk", [1, 7, 64, 997, 8192])
    def test_every_prefix_is_bitwise_chunk_invariant(self, chunk):
        # The state the scan carries out of each chunk is the trace's row
        # for that prefix; chunks of 1 reach every prefix.
        rng = np.random.default_rng(51)
        values = rng.lognormal(0.0, 1.0, size=20_003)
        bounds = (100.0, 0.05)
        rule = make_rule(1e-9, bounds)
        n_arr, mean, sigma, bern, hoef = _kernels.trace_radii(values, rule)
        state = EstimatorState()
        for start in range(0, values.size, chunk):
            i, state = _kernels.scan_terminate(values[start : start + chunk], state, rule)
            assert i == -1
            row = state.n - 1
            assert n_arr[row] == state.n
            assert mean[row] == state.mean
            assert sigma[row] == state.variance
            if state.n >= rule.n_min:
                assert (bern[row], hoef[row]) == rule.final(state)
        assert state.n == values.size

    def test_empty_chunk_is_identity(self):
        state = EstimatorState(n=7, pivot=1.5, s1=0.5, s2=0.25)
        rule = make_rule(0.1, UNIT)
        got = _kernels.scan_terminate(np.empty(0), state, rule)
        assert got == (-1, state)


def two_pass_prefix_sums(values, state):
    """The reference for _prefix_sums: one np.add.accumulate per sum."""
    pivot = float(values[0]) if state.n == 0 else state.pivot
    dev = values - pivot
    sq = dev * dev
    dev[0] += state.s1
    sq[0] += state.s2
    return pivot, np.add.accumulate(dev), np.add.accumulate(sq)


# Signed zeros, subnormals, the float extremes' neighbourhood and
# ordinary values; squares of 1e300 overflow and of 1e-300 underflow.
EDGE_FLOATS = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e-300,
     1e300, -1e300, 1.0, -1.0, 0.1, 3.0]
)
VALUES = st.lists(EDGE_FLOATS | st.floats(allow_nan=False, allow_infinity=False),
                  min_size=1, max_size=40)
CARRIED = st.one_of(
    st.just(EstimatorState()),
    st.builds(
        EstimatorState,
        n=st.integers(1, 10**6),
        pivot=EDGE_FLOATS | st.floats(allow_nan=False, allow_infinity=False),
        s1=EDGE_FLOATS | st.floats(allow_nan=False, allow_infinity=False),
        s2=EDGE_FLOATS.map(abs) | st.floats(min_value=0.0, allow_infinity=False),
    ),
)


class TestPrefixSums:
    """One complex accumulate gives both running sums of two float
    accumulates, bit for bit: each part of a complex add is one IEEE
    add."""

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(values=VALUES, state=CARRIED)
    def test_equals_two_accumulates(self, values, state):
        arr = np.array(values, dtype=np.float64)
        with np.errstate(over="ignore", invalid="ignore"):  # 1e300 squared, inf - inf
            pivot, s1, s2 = _kernels._prefix_sums(arr, state)
            ref_pivot, ref_s1, ref_s2 = two_pass_prefix_sums(arr, state)
        assert pivot == ref_pivot
        assert s1.tobytes() == ref_s1.tobytes()
        assert s2.tobytes() == ref_s2.tobytes()
        assert arr.tolist() == values  # the input is not written

    def test_long_chunk_equals_two_accumulates(self):
        rng = np.random.default_rng(52)
        arr = rng.lognormal(0.0, 3.0, size=8192) * rng.choice([-1.0, 1.0], size=8192)
        state = EstimatorState(n=40_000, pivot=0.7, s1=-12.5, s2=3.0e4)
        _, s1, s2 = _kernels._prefix_sums(arr, state)
        _, ref_s1, ref_s2 = two_pass_prefix_sums(arr, state)
        assert s1.tobytes() == ref_s1.tobytes() and s2.tobytes() == ref_s2.tobytes()


class TestTraceRadii:
    def test_matches_scalar_radii(self):
        rng = np.random.default_rng(60)
        values = rng.uniform(0.2, 0.8, size=400)
        bounds = UNIT
        n_arr, mean_arr, sigma, bern, hoef = _kernels.trace_radii(
            values, make_rule(0.05, bounds)
        )
        assert n_arr[0] == 1 and n_arr[-1] == 400
        assert math.isnan(bern[0]) and math.isnan(hoef[0])
        state = EstimatorState()
        for idx, v in enumerate(values):
            state = update(state, float(v))
            assert mean_arr[idx] == state.mean
            assert sigma[idx] == state.variance
            if state.n < 2:
                continue
            assert bern[idx] == bernstein_radius(state, *bounds)
            assert hoef[idx] == hoeffding_radius(state.n, *bounds)


class TestRangeTermCut:
    """Below StopRule.n_range the variance-adaptive radius cannot reach
    gamma, so the scan skips it there; the cut must change nothing."""

    def test_threshold_is_exact(self):
        rng = np.random.default_rng(70)
        for _ in range(20_000):
            gamma = 10.0 ** rng.uniform(-6.0, 1.0)
            c2 = 10.0 ** rng.uniform(-8.0, 7.0)
            n = _kernels._required_n_range(gamma, c2)
            assert n >= 2
            assert c2 / (n - 1.0) <= gamma
            assert n == 2 or c2 / (n - 2.0) > gamma

    def test_threshold_on_exact_quotients(self):
        # c2 / gamma an integer: the quotient meets gamma exactly there.
        assert _kernels._required_n_range(0.5, 3.0) == 7
        assert _kernels._required_n_range(0.1, 0.7) == 8
        assert _kernels._required_n_range(4.0, 1.0) == 2

    def test_out_of_reach_threshold(self):
        from repsq.estimator import MAX_SAMPLES

        assert _kernels._required_n_range(1e-300, 1.0) == MAX_SAMPLES + 1
        assert _kernels._required_n_range(1e-12, 1e6) == MAX_SAMPLES + 1
        assert 1e6 / (MAX_SAMPLES - 1.0) > 1e-12

    @pytest.mark.parametrize("chunk", [7, 10, 64, 1000])
    def test_scan_with_and_without_the_cut_agree(self, chunk):
        rng = np.random.default_rng(71)
        streams = [
            rng.beta(2.0, 5.0, size=30_000),
            np.full(30_000, 0.3),
            np.where(rng.random(30_000) < 0.01, 1.0, 0.0),
            10.0 * rng.beta(0.2, 3.0, size=30_000),
        ]
        for mode in ("paper-exact", "linear-range"):
            for values in streams:
                rule = _kernels.StopRule.for_campaign(0.04, 10.0, 0.05, mode, 2)
                uncut = rule._replace(n_range=2)
                results = []
                for r in (rule, uncut):
                    state = EstimatorState()
                    for start in range(0, values.size, chunk):
                        i, state = _kernels.scan_terminate(values[start : start + chunk], state, r)
                        if i >= 0:
                            break
                    results.append((i, sums(state)))
                assert results[0] == results[1]
                assert rule.n_range > 2
