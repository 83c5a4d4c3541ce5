"""Distributions, Beta fitting, AIS updates, and importance weights.

Continuous-density expectations are graded against scipy quadrature and
analytic Beta moments; frozen constants were computed independently
with mpmath at 50 significant digits. Fixed-proposal importance weights
are formed by the harness's importance sampler and are checked through
it on discrete stub testbeds.
"""

import json
import math
import os
import subprocess
import sys
import textwrap
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

import repsq

from repsq.errors import (
    BoundViolation,
    ClampWarning,
    DegenerateBatch,
    DomainError,
)
from repsq import harness
from repsq.harness import CampaignConfig, run_quantized_sq
from repsq.quantize import AccuracySpec, build_partition
from repsq.samplers import (
    GUIDE_BUCKETS,
    SHAPE_MAX,
    SHAPE_MIN,
    AisPolicy,
    BetaProposal,
    BoxDomain,
    BoxUniform,
    DiscreteDistribution,
    ais_update,
    beta_density,
    fit_beta,
    mixture_sample_many,
    proposal_snapshot,
)
from repsq.testbeds import CellularTestbed

UNIT = BoxDomain([0.0], [1.0])
ROOT = Path(__file__).resolve().parents[1]


class TestBoxDomain:
    def test_dims_volume_contains(self):
        box = BoxDomain([-0.3, -0.3, -0.3], [0.3, 0.3, 0.3])
        assert box.dims == 3
        assert box.volume == pytest.approx(0.216, rel=1e-12)
        inside = BoxUniform(box).density_many([[0.0, 0.1, -0.3], [0.0, 0.1, 0.31]]) > 0.0
        assert inside.tolist() == [True, False]

    def test_rejects_bad_bounds(self):
        with pytest.raises(DomainError):
            BoxDomain([0.0], [0.0])
        with pytest.raises(DomainError):
            BoxDomain([0.0, 1.0], [1.0])
        with pytest.raises(DomainError):
            BoxDomain([], [])

    def test_uniform_density_normalizes(self):
        box = BoxDomain([1.0, -2.0], [3.0, 2.0])
        u = BoxUniform(box)
        dens = u.density_many([[2.0, 0.0], [0.0, 0.0]])
        assert dens[0] * box.volume == pytest.approx(1.0, rel=1e-12)
        assert dens[1] == 0.0

    def test_uniform_sampling_stays_inside(self):
        box = BoxDomain([-0.3, -0.3], [0.3, 0.3])
        pts = BoxUniform(box).sample_many(np.random.default_rng(5), 10_000)
        assert pts.shape == (10_000, 2)
        assert np.all(pts >= -0.3) and np.all(pts <= 0.3)
        se = 0.6 / math.sqrt(12.0) / math.sqrt(10_000)
        assert abs(float(np.mean(pts))) < 3 * se


class TestDiscreteDistribution:
    def test_masses_must_normalize(self):
        with pytest.raises(DomainError):
            DiscreteDistribution([0.5, 0.4])
        with pytest.raises(DomainError):
            DiscreteDistribution([1.1, -0.1])

    def test_sampling_frequencies(self):
        masses = [0.6, 0.3, 0.1]
        d = DiscreteDistribution(masses)
        draws = d.sample_many(np.random.default_rng(8), 100_000)
        for k, m in enumerate(masses):
            freq = float(np.mean(draws == k))
            se = math.sqrt(m * (1 - m) / 100_000)
            assert abs(freq - m) < 4 * se

    def test_density_is_mass(self):
        d = DiscreteDistribution([0.9, 0.1])
        assert d.density_many([0, 1]).tolist() == [0.9, 0.1]
        with pytest.raises(DomainError):
            d.density_many([2])

    def test_weighted_enumeration_recovers_target_mean(self):
        # Sum over cells of q * (psi * p/q) telescopes back to the
        # p-expectation; the float detour must cost at most roundoff.
        rng = np.random.default_rng(9)
        for _ in range(20):
            k = int(rng.integers(2, 40))
            p_raw = rng.uniform(0.01, 1.0, size=k)
            q_raw = rng.uniform(0.01, 1.0, size=k)
            psi = rng.uniform(0.0, 1.0, size=k)
            p = p_raw / p_raw.sum()
            q = q_raw / q_raw.sum()
            direct = float(np.dot(p, psi))
            via_q = float(math.fsum(q[i] * (psi[i] * p[i] / q[i]) for i in range(k)))
            assert via_q == pytest.approx(direct, rel=1e-13)


G = GUIDE_BUCKETS


def deep_scan_proposal() -> list:
    path = ROOT / "campaign_bench" / "workloads" / "deep_scan.json"
    return json.loads(path.read_text())["config"]["testbed"]["proposal_masses"]


def search(d: DiscreteDistribution, u):
    """The plain inversion every draw must reproduce."""
    return np.searchsorted(d._cum, u, side="right")


class _ChosenU:
    """Stands in for an rng: ``random(size)`` cycles through chosen u."""

    def __init__(self, u) -> None:
        self.u = np.asarray(u, dtype=np.float64)
        self.calls = []

    def random(self, size):
        self.calls.append(size)
        return np.resize(self.u, size)


def edge_uniforms(cum) -> np.ndarray:
    """0, the largest double below 1, every bucket edge g/G with its
    neighbours, and every CDF step with the doubles either side."""
    edges = np.arange(G) / G
    steps = cum[cum < 1.0]
    u = np.concatenate([
        [0.0, 1.0 - 2.0**-53],
        edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0),
        steps, np.nextafter(steps, 0.0), np.nextafter(steps, 1.0),
    ])
    return u[(u >= 0.0) & (u < 1.0)]


@st.composite
def dyadic_masses(draw):
    """Masses k / 2**bits, so the CDF is exact and, for bits <= 10,
    every step lands on a bucket edge."""
    total = 2 ** draw(st.integers(0, 12))
    cuts = sorted(draw(st.lists(st.integers(0, total), max_size=40)))
    edges = [0, *cuts, total]
    return [(b - a) / total for a, b in zip(edges, edges[1:])]


any_masses = (
    st.lists(st.one_of(st.just(0.0), st.floats(1e-12, 1.0)), min_size=1, max_size=60)
    .filter(lambda raw: sum(raw) > 0.0)
    .map(lambda raw: (np.asarray(raw) / math.fsum(raw)).tolist())
)


class TestGuideTable:
    """Draws of at least GUIDE_BUCKETS values read a guide table; the
    cells must be ``searchsorted(cum, u, "right")``'s, bit for bit."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        masses=st.one_of(any_masses, dyadic_masses()),
        size=st.sampled_from([1, 64, G - 1, G, G + 1, 8192]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(masses=[1.0], size=G, seed=0)
    @example(masses=[0.0, 1.0, 0.0], size=G, seed=0)
    @example(masses=[0.25, 0.25, 0.5], size=8192, seed=1)
    @example(masses=[2.0**-10] * 1024, size=8192, seed=2)
    @example(masses=[2.0**-11] * 2048, size=8192, seed=3)
    @example(masses=deep_scan_proposal(), size=8192, seed=4)
    # The last CDF entry, pinned to 1.0, sits below its predecessor.
    @example(masses=[0.5, 0.5 + 1e-13, 0.0], size=8192, seed=5)
    @example(masses=[0.3, 0.2, 0.5 + 1e-13, 0.0, 0.0], size=8192, seed=6)
    def test_draws_equal_the_search(self, masses, size, seed):
        d = DiscreteDistribution(masses)
        got = d.sample_many(np.random.default_rng(seed), size)
        want = search(d, np.random.default_rng(seed).random(size))
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        u = edge_uniforms(d._cum)
        for n in (G - 1, max(u.size, G)):
            rng = _ChosenU(u)
            got = d.sample_many(rng, n)
            assert rng.calls == [n]
            assert np.array_equal(got, search(d, np.resize(u, n)))

    def test_deep_scan_proposal_straddles_few_buckets(self):
        d = DiscreteDistribution(deep_scan_proposal())
        d.sample_many(np.random.default_rng(6), 8192)
        assert np.count_nonzero(d._guide < 0) == 6

    def test_bucket_of_every_double_is_exact(self):
        """u * G and its floor are exact (G is a power of two): each edge
        g/G opens bucket g, and the double below it lies in bucket g-1."""
        g = np.arange(1, G)
        assert np.array_equal((g / G * G).astype(np.intp), g)
        assert np.array_equal((np.nextafter(g / G, 0.0) * G).astype(np.intp), g - 1)
        assert int((1.0 - 2.0**-53) * G) == G - 1

    def test_small_draws_never_build_the_table(self):
        d = DiscreteDistribution(deep_scan_proposal())
        rng = np.random.default_rng(8)
        for size in (0, 1, 64, 128, G - 1):
            d.sample_many(rng, size)
        assert d._guide is None
        d.sample_many(rng, G)
        table = d._guide
        assert table is not None
        d.sample_many(rng, 8192)
        assert d._guide is table


class TestScipyIsLazy:
    def test_cellular_campaigns_do_not_load_scipy(self):
        """scipy is imported by the first Beta proposal or density, not
        by ``import repsq``; what it computes is unchanged."""
        script = textwrap.dedent("""
            import json, sys
            from importlib import resources
            import numpy as np
            import repsq
            from repsq.samplers import beta_density
            text = (resources.files("repsq") / "configs" / "moderate_cellular.json").read_text()
            cfg = repsq.CampaignConfig.from_dict(json.loads(text))
            art, init = repsq.initiator(cfg)
            rep = repsq.replicator(repsq.load_artifact(repsq.dump_artifact(art)), 5)
            after_cellular = "scipy" in sys.modules
            box = repsq.BoxDomain([0.0, -1.0], [1.0, 1.0])
            q = repsq.BetaProposal(box, [2.0, 0.5], [3.0, 0.7])
            pts, w = repsq.mixture_sample_many(
                repsq.BoxUniform(box), q, 0.1, np.random.default_rng(9), 200)
            print(json.dumps({
                "after_cellular": after_cellular,
                "after_beta": "scipy.special" in sys.modules,
                "cells": [init.cell, rep.cell],
                "density": beta_density(0.3, 2.0, 3.0, 0.0, 2.0).hex(),
                "weights": [v.hex() for v in w.tolist()],
            }))
        """)
        src = str(Path(repsq.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        assert out["after_cellular"] is False
        assert out["after_beta"] is True
        box = BoxDomain([0.0, -1.0], [1.0, 1.0])
        q = BetaProposal(box, [2.0, 0.5], [3.0, 0.7])
        _, w = mixture_sample_many(BoxUniform(box), q, 0.1, np.random.default_rng(9), 200)
        assert out["weights"] == [v.hex() for v in w.tolist()]
        assert out["density"] == beta_density(0.3, 2.0, 3.0, 0.0, 2.0).hex()
        assert float.fromhex(out["density"]) == pytest.approx(12 * 0.15 * 0.85**2 / 2)


class TestBetaDensity:
    def test_uniform_shape_is_flat(self):
        assert beta_density(0.3, 1.0, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_symmetric_quadratic_peak(self):
        assert beta_density(0.5, 2.0, 2.0) == pytest.approx(1.5, rel=1e-12)

    def test_shifted_interval_midpoint(self):
        got = beta_density(0.0, 0.83, 0.79, -0.3, 0.3)
        assert got == pytest.approx(1.4599048398771327, rel=1e-12)

    @pytest.mark.parametrize(
        "a,b",
        [(1.0, 1.0), (2.0, 2.0), (2.0, 5.0), (0.5, 0.5), (0.83, 0.79), (5.0, 1.0), (100.0, 100.0)],
    )
    def test_normalizes_on_shifted_interval(self, a, b):
        total, err = integrate.quad(
            beta_density, -0.3, 0.3, args=(a, b, -0.3, 0.3), limit=200
        )
        assert err < 1e-6
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_edge_values(self):
        assert beta_density(0.0, 2.0, 2.0) == 0.0
        assert beta_density(1.0, 2.0, 2.0) == 0.0
        assert beta_density(0.0, 1.0, 3.0) == pytest.approx(3.0, rel=1e-12)
        assert beta_density(0.0, 0.5, 0.5) == math.inf

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            beta_density(1.5, 2.0, 2.0)
        with pytest.raises(DomainError):
            beta_density(0.5, 0.0, 2.0)
        with pytest.raises(DomainError):
            beta_density(0.5, 2.0, 2.0, 1.0, 0.0)


def beta_draws(a, b, lo, hi, rng, size):
    """size draws of a 1-D Beta(a, b) proposal on [lo, hi]."""
    return BetaProposal(BoxDomain([lo], [hi]), [a], [b]).sample_many(rng, size)[:, 0]


class TestBetaSample:
    def test_uniform_mean_on_shifted_interval(self):
        rng = np.random.default_rng(14)
        draws = beta_draws(1.0, 1.0, -0.3, 0.3, rng, 100_000)
        se = 0.6 / math.sqrt(12.0) / math.sqrt(draws.size)
        assert abs(float(np.mean(draws))) < 3 * se

    def test_symmetric_moments(self):
        rng = np.random.default_rng(15)
        draws = beta_draws(2.0, 2.0, 0.0, 1.0, rng, 100_000)
        n = draws.size
        mean = float(np.mean(draws))
        var = float(np.var(draws))
        dist = stats.beta(2.0, 2.0)
        se_mean = math.sqrt(dist.var() / n)
        kurt = float(dist.stats(moments="k"))
        mu4 = (kurt + 3.0) * dist.var() ** 2
        se_var = math.sqrt((mu4 - dist.var() ** 2) / n)
        assert abs(mean - 0.5) < 3 * se_mean
        assert abs(var - 0.05) < 3 * se_var

    def test_arcsine_shape_against_cdf(self):
        rng = np.random.default_rng(16)
        draws = beta_draws(0.5, 0.5, 0.0, 1.0, rng, 10_000)
        d_stat = stats.kstest(draws, stats.beta(0.5, 0.5).cdf).statistic
        critical_1pct = 1.63 / math.sqrt(draws.size)
        assert d_stat < critical_1pct

    def test_seed_determinism(self):
        a = beta_draws(2.0, 5.0, 0.0, 1.0, np.random.default_rng(99), 1)
        b = beta_draws(2.0, 5.0, 0.0, 1.0, np.random.default_rng(99), 1)
        assert a.tolist() == b.tolist()


class TestFitBeta:
    def test_two_point_batch_exact(self):
        a, b = fit_beta([0.25, 0.75])
        assert a == pytest.approx(1.5, rel=1e-12)
        assert b == pytest.approx(1.5, rel=1e-12)

    def test_two_point_batch_on_shifted_interval(self):
        a, b = fit_beta([-0.15, 0.15], -0.3, 0.3)
        assert a == pytest.approx(1.5, rel=1e-12)
        assert b == pytest.approx(1.5, rel=1e-12)

    def test_recovers_shapes_from_large_sample(self):
        rng = np.random.default_rng(17)
        draws = rng.beta(2.0, 5.0, size=100_000)
        a, b = fit_beta(draws)
        assert abs(a - 2.0) < 0.1
        assert abs(b - 5.0) < 0.1

    def test_constant_batch_degenerate(self):
        with pytest.raises(DegenerateBatch):
            fit_beta([0.4, 0.4, 0.4])

    def test_endpoint_mean_degenerate(self):
        with pytest.raises(DegenerateBatch):
            fit_beta([0.0, 0.0, 0.0, 0.0])

    def test_overdispersed_batch_clamps_with_warning(self):
        # Mean 0.5 with near-maximal spread drives both shape estimates
        # under the floor.
        with pytest.warns(ClampWarning):
            a, b = fit_beta([0.005, 0.995])
        assert a == SHAPE_MIN
        assert b == SHAPE_MIN

    def test_input_validation(self):
        with pytest.raises(DomainError):
            fit_beta([0.5])
        with pytest.raises(DomainError):
            fit_beta([0.5, 1.5])


class TestAisUpdate:
    def make(self, a, b):
        return BetaProposal(UNIT, [a], [b])

    def test_full_replacement_at_unit_learning_rate(self):
        policy = AisPolicy(d=2, l_r=1.0)
        updated = ais_update(self.make(0.99, 0.99), [[0.25], [0.75]], policy)
        assert updated.a[0] == pytest.approx(1.5, rel=1e-12)
        assert updated.b[0] == pytest.approx(1.5, rel=1e-12)

    def test_matching_fit_is_fixed_point(self):
        policy = AisPolicy(d=2, l_r=0.1)
        updated = ais_update(self.make(1.5, 1.5), [[0.25], [0.75]], policy)
        assert updated.a[0] == pytest.approx(1.5, rel=1e-12)
        assert updated.b[0] == pytest.approx(1.5, rel=1e-12)

    def test_convex_combination_step(self):
        policy = AisPolicy(d=2, l_r=0.1)
        updated = ais_update(self.make(1.0, 1.0), [[0.25], [0.75]], policy)
        assert updated.a[0] == pytest.approx(0.9 * 1.0 + 0.1 * 1.5, rel=1e-12)

    def test_degenerate_dimension_passes_through(self):
        box = BoxDomain([0.0, 0.0], [1.0, 1.0])
        current = BetaProposal(box, [0.99, 0.99], [0.99, 0.99])
        # Second coordinate constant: its shapes must survive untouched.
        batch = [[0.25, 0.4], [0.75, 0.4]]
        updated = ais_update(current, batch, AisPolicy(d=2, l_r=1.0))
        assert updated.a[0] == pytest.approx(1.5, rel=1e-12)
        assert updated.a[1] == 0.99
        assert updated.b[1] == 0.99

    def test_batch_length_must_match_policy(self):
        with pytest.raises(DomainError):
            ais_update(self.make(1.0, 1.0), [[0.5]], AisPolicy(d=2))

    def test_shapes_stay_clamped_over_trajectory(self):
        rng = np.random.default_rng(18)
        policy = AisPolicy(d=10, l_r=0.5)
        q = policy.initial_proposal(UNIT)
        for _ in range(200):
            batch = rng.uniform(0.0, 1.0, size=(10, 1))
            q = ais_update(q, batch, policy)
            assert SHAPE_MIN <= q.a[0] <= SHAPE_MAX
            assert SHAPE_MIN <= q.b[0] <= SHAPE_MAX


class TestAisPolicy:
    def test_defaults(self):
        policy = AisPolicy()
        assert policy.mix_p == 0.1
        assert policy.l_r == 0.1
        q = policy.initial_proposal(BoxDomain([-0.3] * 3, [0.3] * 3))
        assert list(q.a) == [0.99] * 3 and list(q.b) == [0.99] * 3

    @pytest.mark.parametrize(
        "kwargs",
        [dict(mix_p=-0.1), dict(mix_p=1.1), dict(d=1), dict(l_r=0.0), dict(l_r=1.5)],
    )
    def test_validation(self, kwargs):
        with pytest.raises(DomainError):
            AisPolicy(**kwargs)


class TestBetaProposal:
    def test_density_factorizes(self):
        box = BoxDomain([-0.3, 0.0, 1.0], [0.3, 1.0, 3.0])
        q = BetaProposal(box, [0.83, 2.0, 5.0], [0.79, 2.0, 1.0])
        rng = np.random.default_rng(19)
        pts = q.sample_many(rng, 50)
        dens = q.density_many(pts)
        for i in range(50):
            manual = math.prod(
                beta_density(
                    float(pts[i, k]), float(q.a[k]), float(q.b[k]), box.lo[k], box.hi[k]
                )
                for k in range(3)
            )
            assert dens[i] == pytest.approx(manual, rel=1e-10)

    def test_sampling_moments_per_dimension(self):
        box = BoxDomain([-0.3, -0.3], [0.3, 0.3])
        q = BetaProposal(box, [0.83, 2.0], [0.79, 5.0])
        pts = q.sample_many(np.random.default_rng(20), 200_000)
        for k, (a, b) in enumerate([(0.83, 0.79), (2.0, 5.0)]):
            dist = stats.beta(a, b, loc=-0.3, scale=0.6)
            se = math.sqrt(dist.var() / pts.shape[0])
            assert abs(float(np.mean(pts[:, k])) - dist.mean()) < 3 * se

    def test_shape_bounds_enforced(self):
        with pytest.raises(DomainError):
            BetaProposal(UNIT, [0.04], [1.0])
        with pytest.raises(DomainError):
            BetaProposal(UNIT, [1.0], [101.0])

    def test_snapshot_round_trips_json(self):
        q = BetaProposal(UNIT, [1.5], [2.5])
        snap = proposal_snapshot(q, AisPolicy(), "numpy-pcg64-ss1", 42)
        back = json.loads(json.dumps(snap))
        assert back["shapes_a"] == [1.5] and back["shapes_b"] == [2.5]
        assert back["mix_p"] == 0.1 and back["rng_seed"] == 42


class TestMixture:
    def test_pure_target_weight_is_one(self):
        p = BoxUniform(UNIT)
        q = BetaProposal(UNIT, [2.0], [2.0])
        _, w = mixture_sample_many(p, q, 1.0, np.random.default_rng(22), 100)
        assert w.tolist() == [1.0] * 100

    def test_weight_cap_small_sample(self):
        p = BoxUniform(UNIT)
        q = BetaProposal(UNIT, [5.0], [1.0])
        _, w = mixture_sample_many(p, q, 0.1, np.random.default_rng(23), 2_000)
        assert np.all(w > 0.0) and np.all(w <= 10.0 + 1e-12)

    def test_weight_value_at_midpoint(self):
        p = BoxUniform(UNIT)
        q = BetaProposal(UNIT, [2.0], [2.0])
        pts = np.array([[0.5]])
        w = p.density_many(pts) / (0.1 * p.density_many(pts) + 0.9 * q.density_many(pts))
        assert float(w[0]) == pytest.approx(0.6896551724137931, rel=1e-12)

    def test_vectorized_weights_match_densities(self):
        p = BoxUniform(UNIT)
        q = BetaProposal(UNIT, [0.5, ], [3.0])
        pts, weights = mixture_sample_many(p, q, 0.1, np.random.default_rng(24), 5_000)
        manual = p.density_many(pts) / (
            0.1 * p.density_many(pts) + 0.9 * q.density_many(pts)
        )
        assert np.allclose(weights, manual, rtol=1e-12)
        assert float(np.max(weights)) <= 10.0 + 1e-12

    def test_mixture_mean_interpolates(self):
        p = BoxUniform(UNIT)
        q = BetaProposal(UNIT, [5.0], [1.0])
        pts, _ = mixture_sample_many(p, q, 0.1, np.random.default_rng(25), 100_000)
        want = 0.1 * 0.5 + 0.9 * (5.0 / 6.0)
        se = math.sqrt(float(np.var(pts)) / pts.size)
        assert abs(float(np.mean(pts)) - want) < 4 * se

    def test_domain_mismatch_rejected(self):
        p = BoxUniform(BoxDomain([0.0], [2.0]))
        q = BetaProposal(UNIT, [2.0], [2.0])
        with pytest.raises(DomainError):
            mixture_sample_many(p, q, 0.1, np.random.default_rng(26), 1)

    def test_seed_determinism(self):
        p = BoxUniform(UNIT)
        q = BetaProposal(UNIT, [2.0], [3.0])
        pts1, w1 = mixture_sample_many(p, q, 0.1, np.random.default_rng(27), 1_000)
        pts2, w2 = mixture_sample_many(p, q, 0.1, np.random.default_rng(27), 1_000)
        assert np.array_equal(pts1, pts2) and np.array_equal(w1, w2)


class _ConstantBed(CellularTestbed):
    """A cellular bed with psi = 1 in every cell, so a campaign's values
    are its importance weights p/q; the bed's own constructor checks the
    proposal's coverage and derives the mass ratio."""

    def __init__(self, target_masses, proposal_masses) -> None:
        ones = np.ones(len(target_masses))
        super().__init__(target_masses, ones, proposal_masses)

    def evaluate_many(self, xs, rng):
        return np.ones(len(xs))


def stub_config(w_bar: float, bed, sampler=None) -> CampaignConfig:
    """A config over ``bed``; building it holds the bed to the cap."""
    return CampaignConfig(
        accuracy=AccuracySpec(0.25, 0.05, 0.1),
        m_low=0.0,
        m_high=1.0,
        w_bar=w_bar,
        joint=2.0,  # psi*w <= 2 holds on every campaign below
        sampler=sampler or {"kind": "importance"},
        testbed=bed,
        seed=1,
    )


def importance_draw(p, q, size=2_000, w_bar=1.0):
    """(cells, weights) from one importance proposal."""
    sampler = harness._SAMPLERS["importance"](stub_config(w_bar, _ConstantBed(p, q)))
    return sampler.propose(np.random.default_rng(30), size)


@dataclass
class _DataclassBed:
    """A caller's bed as a plain dataclass (eq=True leaves it
    unhashable) that declares its own mass ratio."""

    target: DiscreteDistribution
    proposal: DiscreteDistribution
    mass_ratio: np.ndarray
    m_low: float = 0.0
    m_high: float = 1.0

    def evaluate_many(self, xs, rng):
        return np.ones(len(xs))


class TestImportanceWeight:
    def test_identical_distributions(self):
        _, w = importance_draw([0.3, 0.7], [0.3, 0.7])
        assert w.tolist() == [1.0] * w.size

    def test_discrete_mass_ratio(self):
        xs, w = importance_draw([0.9, 0.1], [0.5, 0.5], w_bar=1.8)
        assert np.any(xs == 0) and np.any(xs == 1)
        assert w[xs == 0] == pytest.approx(1.8, rel=1e-12)
        assert w[xs == 1] == pytest.approx(0.2, rel=1e-12)

    def test_zero_target_density_gives_zero_weight(self):
        xs, w = importance_draw([1.0, 0.0], [0.5, 0.5], w_bar=2.0)
        assert np.any(xs == 1)
        assert w[xs == 1].tolist() == [0.0] * int(np.count_nonzero(xs == 1))
        assert w[xs == 0].tolist() == [2.0] * int(np.count_nonzero(xs == 0))

    def test_caller_bed_over_the_cap_is_rejected(self):
        """Weights of 2 against a declared cap of 1.5: a caller's bed is
        held to the cap when its config is built, as a bundled bed is."""
        bed = _ConstantBed([1.0, 0.0], [0.5, 0.5])
        with pytest.raises(BoundViolation, match="declared cap 1.5"):
            stub_config(1.5, bed)

    def test_unhashable_caller_bed(self):
        """A caller's bed that declares its mass ratio, and cannot be
        hashed, runs bit for bit as the cellular bed with that ratio."""
        p, q = [1.0, 0.0], [0.5, 0.5]
        partition = build_partition(0.0, 1.0, 0.25, 0.0)
        bed = _DataclassBed(
            DiscreteDistribution(p), DiscreteDistribution(q), np.array([2.0, 0.0])
        )
        res = run_quantized_sq(stub_config(2.0, bed), partition, 3)
        same = run_quantized_sq(stub_config(2.0, _ConstantBed(p, q)), partition, 3)
        assert res.terminated
        assert res.to_dict() == same.to_dict()

    def test_caller_bed_declaring_a_nan_weight_is_rejected_before_any_draw(self):
        """The cap check reads the declared ratio, not the masses: a NaN
        there fails the cap before the bed runs a single test."""
        calls = []

        class Counted(_DataclassBed):
            def evaluate_many(self, xs, rng):
                calls.append(len(xs))
                return np.ones(len(xs))

        p, q = [0.5, 0.5], [0.5, 0.5]
        bed = Counted(
            DiscreteDistribution(p), DiscreteDistribution(q), np.array([1.0, math.nan])
        )
        with pytest.raises(BoundViolation, match="mass ratio nan"):
            stub_config(2.0, bed)
        assert calls == []

    def test_caller_bed_with_a_short_mass_ratio_is_rejected(self):
        """One declared weight for a two-cell proposal: the config refuses
        the bed, where a draw of cell 1 would index past the ratio."""
        p, q = [0.5, 0.5], [0.5, 0.5]
        bed = _DataclassBed(DiscreteDistribution(p), DiscreteDistribution(q), np.array([1.0]))
        with pytest.raises(DomainError, match=r"shape \(1,\) for 2 proposal cells"):
            stub_config(2.0, bed)

    def test_caller_bed_without_a_mass_ratio_is_rejected(self):
        """A discrete proposal alone is not enough: the bed must declare
        the weight of each cell."""

        class Undeclared:
            m_low = 0.0
            m_high = 1.0
            target = DiscreteDistribution([0.5, 0.5])
            proposal = DiscreteDistribution([0.5, 0.5])

            def evaluate_many(self, xs, rng):
                return np.ones(len(xs))

        with pytest.raises(DomainError, match="discrete proposal"):
            stub_config(2.0, Undeclared())


def normalized(raw) -> list:
    return (np.asarray(raw) / math.fsum(raw)).tolist()


@st.composite
def covered_masses(draw):
    """A target p and a proposal q over the same 1 to 12 cells, with
    q > 0 wherever p > 0."""
    k = draw(st.integers(1, 12))
    cell = st.one_of(st.just(0.0), st.floats(1e-6, 1.0))
    q = draw(st.lists(cell, min_size=k, max_size=k).filter(lambda raw: sum(raw) > 0.0))
    p = draw(st.lists(cell, min_size=k, max_size=k))
    p = [pi if qi > 0.0 else 0.0 for pi, qi in zip(p, q)]
    assume(sum(p) > 0.0)
    return normalized(p), normalized(q)


class _BoxBed:
    """Testbed stub: a uniform target over a box and psi = 1, so a
    campaign's values are its mixture weights."""

    m_low = 0.0
    m_high = 1.0

    def __init__(self, dims: int) -> None:
        self.domain = BoxDomain([0.0] * dims, [1.0] * dims)
        self.target = BoxUniform(self.domain)

    def evaluate_many(self, xs, rng):
        return np.ones(len(xs))


class TestCapCheckIsEnough:
    """A bed that passes its sampler kind's check draws no weight above
    the declared cap w_bar, up to the check's own 1e-9 slack. So every
    campaign runs within the cap, and there is nothing left to count."""

    SLACK = 1.0 + 1e-9

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(masses=covered_masses(), seed=st.integers(0, 2**32 - 1))
    def test_importance_at_the_worst_mass_ratio(self, masses, seed):
        p, q = masses
        w_bar = max(1.0, max(pi / qi for pi, qi in zip(p, q) if qi > 0.0))
        cfg = stub_config(w_bar, _ConstantBed(p, q))  # passes the cap check
        rng = np.random.default_rng(seed)
        _, weights = harness._SAMPLERS["importance"](cfg).propose(rng, 2_000)
        assert float(np.max(weights)) <= w_bar * self.SLACK

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        mix_p=st.floats(1e-3, 1.0),
        shapes=st.lists(
            st.tuples(st.floats(SHAPE_MIN, SHAPE_MAX), st.floats(SHAPE_MIN, SHAPE_MAX)),
            min_size=1,
            max_size=3,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_ais_at_one_over_mix_p(self, mix_p, shapes, seed):
        w_bar = 1.0 / mix_p
        cfg = stub_config(w_bar, _BoxBed(len(shapes)), {"kind": "ais", "mix_p": mix_p})
        sampler = harness._SAMPLERS["ais"](cfg)
        a, b = zip(*shapes)
        sampler.q = BetaProposal(cfg.testbed.domain, list(a), list(b))
        rng = np.random.default_rng(seed)
        _, weights = sampler.propose(rng, 2_000)
        assert float(np.max(weights)) <= w_bar * self.SLACK
