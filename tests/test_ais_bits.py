"""The AIS batch, pinned bit for bit.

Golden campaigns freeze the outcome of whole AIS campaigns (estimate
bits, counts, final proposal shapes and the number of clamped refits).
All of them were re-recorded when the campaign refit moved to the
cumulative psi * w-weighted moments of every batch so far, and the
tracking evaluator to one noncentral chi-square draw per command (the
same law, drawn command by command). The property tests compare the
batched refit, unweighted and cumulative weighted, and the batched
Beta density against scalar references kept here, on random batches
that include degenerate columns, clamped fits, zero-weight prefixes
and points on the box boundary.
"""

import json
import math
import os
import subprocess
import sys
import warnings
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from scipy import special

from repsq.errors import ClampWarning, DegenerateBatch, DomainError
from repsq.harness import CampaignConfig, initiator, replicator, run_quantized_sq
from repsq.harness import campaign_stream
from repsq.quantize import AccuracySpec, build_partition, compute_alpha
from repsq.samplers import (
    SHAPE_MAX,
    SHAPE_MIN,
    AisPolicy,
    BetaProposal,
    BoxDomain,
    BoxUniform,
    ais_update,
    beta_density,
    fit_beta,
)
from repsq.testbeds import DisplacementTestbed, TrackingTestbed

ROOT = Path(__file__).resolve().parents[1]

# initiator(config) and replicator(artifact, 12345) of the bundled
# tracking_ais config; floats as float.hex().
TRACKING_AIS = {
    "initiator": dict(
        raw_estimate="0x1.941d0751c506dp-2", n=22367, evaluated_n=22370, chunks=2237,
        cell=5, sigma_hat_final="0x1.c7767d3899c58p-8",
        bernstein_radius_final="0x1.47aa87ce33d22p-5",
        hoeffding_radius_final="0x1.73f405adf1443p-4",
        shapes_a=["0x1.94d83c2b3646cp-1", "0x1.9a983d4263a58p-1", "0x1.9c6a07d308798p-1"],
        shapes_b=["0x1.9446490e92ba0p-1", "0x1.9a8da0d284a74p-1", "0x1.9a2eada9bea1ap-1"],
        clamped_fits=0,
    ),
    "replicator": dict(
        raw_estimate="0x1.94f25b20dd673p-2", n=22379, evaluated_n=22380, chunks=2238,
        cell=5, sigma_hat_final="0x1.d42e5d3a0a675p-8",
        bernstein_radius_final="0x1.47aa6a6b5fdaap-5",
        hoeffding_radius_final="0x1.73da7d4d9a42fp-4",
        shapes_a=["0x1.993341c773b7fp-1", "0x1.9ac9d7d01fc10p-1", "0x1.a1b3e1a1795ecp-1"],
        shapes_b=["0x1.93692a1a1cfb4p-1", "0x1.9560505babf16p-1", "0x1.9cf670035e50dp-1"],
        clamped_fits=0,
    ),
}

# Short campaigns that clamp, with batches below and at the 8-value
# length where numpy switches to pairwise summation.
SHORT = {
    "displacement_d2": dict(
        raw="0x1.d0f9341812ec7p+0", n=256, evaluated_n=256, chunks=128,
        sigma="0x1.3e96f1ce65d30p-2",
        a=["0x1.1be2401729fd7p+0", "0x1.b6b6b46ad267ep-1"],
        b=["0x1.12b1156d725cbp+0", "0x1.c629ae9f67936p-1"],
        clamped_fits=3,
    ),
    "displacement_d3": dict(
        raw="0x1.cf8309e6a5cedp+0", n=501, evaluated_n=501, chunks=167,
        sigma="0x1.0274f1f6a6e90p-1",
        a=["0x1.e3e252cc48704p-1", "0x1.0fedce32c2580p+0"],
        b=["0x1.fd48ca2b0ebb0p-1", "0x1.e99c670396f44p-1"],
        clamped_fits=1,
    ),
    "tracking_d8": dict(
        raw="0x1.809ccd58ba7cap-2", n=239, evaluated_n=240, chunks=30,
        sigma="0x1.947ef94d945b1p-6",
        a=["0x1.78235bc07ad02p-1", "0x1.0dd1cdb698810p+0", "0x1.c4ec3326c75bap-1"],
        b=["0x1.4a8f1eefbecf2p-1", "0x1.9223fc0edf764p-1", "0x1.cf7b4fb22d6d7p-1"],
        clamped_fits=2,
    ),
}
SHORT_SETUP = {
    # bed, w_bar, mix_p, d, l_r, init_shape, gamma
    "displacement_d2": (DisplacementTestbed, 2.0, 0.5, 2, 1.0, 0.05, 0.5),
    "displacement_d3": (DisplacementTestbed, 4.0, 0.25, 3, 0.5, 0.05, 0.5),
    "tracking_d8": (TrackingTestbed, 2.0, 0.5, 8, 1.0, 100.0, 0.1),
}


def pinned(res) -> dict:
    d = res.to_dict()
    return dict(
        raw_estimate=d["raw_estimate"].hex(), n=d["n"], evaluated_n=d["evaluated_n"],
        chunks=d["chunks"], cell=d["cell"], sigma_hat_final=d["sigma_hat_final"].hex(),
        bernstein_radius_final=d["bernstein_radius_final"].hex(),
        hoeffding_radius_final=d["hoeffding_radius_final"].hex(),
        shapes_a=[v.hex() for v in d["ais_final_proposal"]["shapes_a"]],
        shapes_b=[v.hex() for v in d["ais_final_proposal"]["shapes_b"]],
        clamped_fits=d["clamped_fits"],
    )


def bundled_tracking_config() -> dict:
    return json.loads((resources.files("repsq") / "configs" / "tracking_ais.json").read_text())


def benchmark_tracking_config() -> dict:
    path = ROOT / "campaign_bench" / "workloads" / "ais_tracking.json"
    return json.loads(path.read_text())["config"]


class TestGoldenCampaigns:
    @pytest.mark.parametrize("source", [bundled_tracking_config, benchmark_tracking_config])
    def test_tracking_ais_initiator_and_replicator(self, source):
        cfg = CampaignConfig.from_dict(source())
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ClampWarning)
            art, init = initiator(cfg)
            rep = replicator(art, 12345)
        assert pinned(init) == TRACKING_AIS["initiator"]
        assert pinned(rep) == TRACKING_AIS["replicator"]

    @pytest.mark.parametrize("name", sorted(SHORT))
    def test_short_clamping_campaign(self, name):
        make_bed, w_bar, mix_p, d, l_r, shape, gamma = SHORT_SETUP[name]
        bed = make_bed()
        cfg = CampaignConfig(
            accuracy=AccuracySpec(gamma, 0.05, 0.1), m_low=bed.m_low, m_high=bed.m_high,
            w_bar=w_bar, joint=None,
            sampler={"kind": "ais", "mix_p": mix_p, "d": d, "l_r": l_r, "init_shape": shape},
            testbed=bed, seed=77, n_max=200_000, range_term_mode="linear-range",
        )
        part = build_partition(cfg.m_low, cfg.m_high, compute_alpha(cfg.accuracy), 0.0)
        with pytest.warns(ClampWarning, match=f"^{SHORT[name]['clamped_fits']} adaptive refits"):
            res = run_quantized_sq(cfg, part, campaign_stream(77, 0, 0))
        d = res.to_dict()
        got = dict(
            raw=d["raw_estimate"].hex(), n=d["n"], evaluated_n=d["evaluated_n"],
            chunks=d["chunks"], sigma=d["sigma_hat_final"].hex(),
            a=[v.hex() for v in d["ais_final_proposal"]["shapes_a"]],
            b=[v.hex() for v in d["ais_final_proposal"]["shapes_b"]],
            clamped_fits=d["clamped_fits"],
        )
        assert got == SHORT[name]


def float64_log_target():
    """The SIMD target numpy's float64 log dispatches to, read as a run
    manifest's ``environment.numpy_dispatch`` reads it; None on numpy <
    2.0, which cannot say."""
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:
        return None
    return opt_func_info(func_name="^log$")["log"].get("dd", {}).get("current")


def dispatches_to_avx512(target) -> bool:
    # numpy >= 2.4 names the AVX-512 level X86_V4; earlier releases name
    # each AVX-512 feature group AVX512*.
    return target is not None and (target == "X86_V4" or target.startswith("AVX512"))


class TestGoldensWithoutAvx512:
    """ROADMAP item 16: the AIS goldens should not depend on the SIMD
    level numpy dispatches exp, log, log1p and expm1 to. The golden
    campaigns rerun in a subprocess whose numpy may not use AVX-512, as
    on a host without it. Today all five fail there."""

    @pytest.mark.skipif(
        not dispatches_to_avx512(float64_log_target()),
        reason="numpy's float64 log does not dispatch to an AVX-512 target here",
    )
    @pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="the Beta density and the tracking simulator round by SIMD level (item 16)",
    )
    def test_goldens_hold_with_avx512_disabled(self):
        env = dict(
            os.environ,
            NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4",
            PYTHONDONTWRITEBYTECODE="1",  # the checkout stays clean
        )
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             "tests/test_ais_bits.py", "-k", "TestGoldenCampaigns"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=600, check=False,
        )
        if proc.returncode not in (0, 1):  # 1: the run completed and a test failed
            raise RuntimeError(f"the golden run did not complete:\n{proc.stdout}{proc.stderr}")
        assert proc.returncode == 0, proc.stdout[-3000:]


class TestAgainstMonteCarlo:
    def test_tracking_ais_stops_no_later_than_monte_carlo_at_the_same_bound(self):
        # The bundled campaign (paper-exact, w_bar 10 = 1 / mix_p) against
        # the same config with Monte Carlo draws on the same stream. AIS
        # values lie in [0, 10], Monte Carlo's in [0, 1], and P is the
        # width of each interval. The Monte Carlo arm runs under the AIS
        # arm's rule, P = 10, so that both radii have one range, and a
        # proposal that adapts to the measure must not need more tests.
        doc = bundled_tracking_config()
        ais = CampaignConfig.from_dict(doc)
        mc = CampaignConfig.from_dict(dict(doc, sampler={"kind": "monte_carlo"}))
        assert ais.w_bar == mc.w_bar == 10.0
        assert ais.range_term_mode == mc.range_term_mode == "paper-exact"
        rule = mc.stop_rule
        assert (rule.product, rule.n_hoeffding, rule.n_floor) == (1.0, 1_153, 217)
        assert ais.stop_rule.product == 10.0
        object.__setattr__(mc, "stop_rule", ais.stop_rule)
        part = build_partition(ais.m_low, ais.m_high, compute_alpha(ais.accuracy), 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ClampWarning)
            by_ais = run_quantized_sq(ais, part, campaign_stream(ais.seed, 0, 0))
        by_mc = run_quantized_sq(mc, part, campaign_stream(mc.seed, 0, 0))
        assert by_ais.terminated and by_mc.terminated
        assert by_ais.n <= by_mc.n


# ---------------------------------------------------------------------------
# Scalar references: one dimension and one point at a time.


def fit_beta_reference(x, lo, hi):
    """Per-column method of moments as a 1-D np.mean computes it; None
    for a degenerate column, else (a, b, clamped)."""
    u = (np.asarray(x, dtype=np.float64) - lo) / (hi - lo)
    mean = float(np.mean(u))
    return moment_fit_reference(mean, float(np.mean((u - mean) ** 2)))


def moment_fit_reference(mean, var):
    """Beta shapes from a mean and a variance on [0, 1]; None when they
    carry no shape information, else (a, b, clamped)."""
    if var <= 1e-12 or mean <= 1e-12 or mean >= 1.0 - 1e-12:
        return None
    k = mean * (1.0 - mean) / var - 1.0
    a = mean * k
    b = (1.0 - mean) * k
    ca = min(max(a, SHAPE_MIN), SHAPE_MAX)
    cb = min(max(b, SHAPE_MIN), SHAPE_MAX)
    return ca, cb, ca != a or cb != b


def ais_update_reference(current, pts, l_r):
    """Per-dimension fit plus exponential moving average, kept in the
    shape range; returns (a, b, clamped count)."""
    new_a = current.a.copy()
    new_b = current.b.copy()
    clamped = 0
    for k in range(current.domain.dims):
        fit = fit_beta_reference(pts[:, k], current.domain.lo[k], current.domain.hi[k])
        if fit is None:
            continue
        new_a[k] = min(max((1.0 - l_r) * new_a[k] + l_r * fit[0], SHAPE_MIN), SHAPE_MAX)
        new_b[k] = min(max((1.0 - l_r) * new_b[k] + l_r * fit[1], SHAPE_MIN), SHAPE_MAX)
        clamped += fit[2]
    return new_a, new_b, clamped


def weighted_refit_reference(current, batches, values, l_r):
    """The cumulative weighted refit, one dimension at a time: after each
    batch, sum v, sum v u and sum v u^2 with v = |value| over every batch
    so far, a moment fit to them, and the moving average. A refit whose
    totals carry no weight keeps the shapes and counts one clamp.
    Returns (a, b, clamped count) after each batch."""
    dims = current.domain.dims
    lo = np.asarray(current.domain.lo)
    width = np.asarray(current.domain.hi) - lo
    a, b = current.a.copy(), current.b.copy()
    s0, s1, s2 = 0.0, [0.0] * dims, [0.0] * dims
    out = []
    for pts, vals in zip(batches, values):
        v = np.abs(np.asarray(vals, dtype=np.float64))
        s0 += float(np.add.reduce(v))
        clamped = 0
        a, b = a.copy(), b.copy()
        for k in range(dims):
            u = (np.ascontiguousarray(pts[:, k]) - lo[k]) / width[k]
            s1[k] += float(np.add.reduce(v * u))
            s2[k] += float(np.add.reduce(v * u * u))
            if not s0 > 0.0:
                continue
            mean = s1[k] / s0
            fit = moment_fit_reference(mean, s2[k] / s0 - mean * mean)
            if fit is None:
                continue
            a[k] = min(max((1.0 - l_r) * a[k] + l_r * fit[0], SHAPE_MIN), SHAPE_MAX)
            b[k] = min(max((1.0 - l_r) * b[k] + l_r * fit[1], SHAPE_MIN), SHAPE_MAX)
            clamped += fit[2]
        out.append((a, b, clamped if s0 > 0.0 else 1))
    return out


def random_values(rng, d):
    """psi * w of a batch: spread, sparse, one heavy point, negative
    (weighed by magnitude) or all zero."""
    kind = rng.integers(5)
    if kind == 0:
        return rng.uniform(0.0, 10.0, size=d)
    if kind == 1:
        return rng.uniform(0.0, 1.0, size=d) * (rng.random(d) < 0.3)
    if kind == 2:
        v = np.zeros(d)
        v[rng.integers(d)] = rng.uniform(0.1, 10.0)
        return v
    if kind == 3:
        return -rng.uniform(0.0, 1.0, size=d)
    return np.zeros(d)


def density_reference(q, x):
    """The one log-density rule, one term at a time: (a - 1) log t and
    (b - 1) log(1 - t) with 0 log 0 = 0, and density 0 for a row outside
    the box or a row whose terms hold both +inf and -inf (a mixed
    corner, 0 inf = 0)."""
    lo = np.asarray(q.domain.lo)
    width = np.asarray(q.domain.hi) - lo
    log_norm = float(np.sum(special.betaln(q.a, q.b)) + np.sum(np.log(width)))
    t = (x - lo) / width
    log_pdf = np.full(x.shape[0], -np.inf)
    for i in np.nonzero(np.all((t >= 0.0) & (t <= 1.0), axis=1))[0]:
        with np.errstate(divide="ignore"):
            log_t, log_s = np.log(t[i]), np.log1p(-t[i])
        left = [0.0 if c == 0.0 else c * v for c, v in zip(q.a - 1.0, log_t)]
        right = [0.0 if c == 0.0 else c * v for c, v in zip(q.b - 1.0, log_s)]
        terms = left + right
        if math.inf in terms and -math.inf in terms:
            continue
        log_pdf[i] = np.add.reduce(left) + np.add.reduce(right) - log_norm
    return np.exp(log_pdf)


BOXES = [
    BoxDomain([0.0], [1.0]),
    BoxDomain([-0.3] * 3, [0.3] * 3),
    BoxDomain([0.0, -2.0], [1.0, 5.0]),
    BoxDomain([-1.0, 0.0, 1.0, 10.0], [1.0, 1e-3, 3.0, 10.5]),
]


def random_batch(rng, domain, d):
    """A batch with, per column, one of: Beta-spread, uniform, two-point
    extremes (clamps), constant (degenerate), pinned to an edge
    (degenerate mean), or a mix with exact boundary values."""
    lo = np.asarray(domain.lo)
    hi = np.asarray(domain.hi)
    pts = np.empty((d, domain.dims))
    for k in range(domain.dims):
        kind = rng.integers(6)
        if kind == 0:
            t = rng.beta(rng.uniform(0.1, 20.0), rng.uniform(0.1, 20.0), size=d)
        elif kind == 1:
            t = rng.uniform(size=d)
        elif kind == 2:
            t = np.where(rng.random(d) < 0.5, 0.001, 0.999)
        elif kind == 3:
            t = np.full(d, rng.uniform())
        elif kind == 4:
            t = np.zeros(d) if rng.random() < 0.5 else np.ones(d)
        else:
            t = rng.uniform(size=d)
            t[rng.random(d) < 0.3] = 0.0
            t[rng.random(d) < 0.3] = 1.0
        pts[:, k] = np.where(t == 1.0, hi[k], lo[k] + (hi[k] - lo[k]) * t)
    return pts


class TestBatchedRefit:
    @pytest.mark.parametrize("seed", range(12))
    def test_refit_equals_per_dimension_fit_and_ema(self, seed):
        rng = np.random.default_rng(5100 + seed)
        for _ in range(60):
            domain = BOXES[rng.integers(len(BOXES))]
            d = int(rng.choice([2, 3, 7, 8, 9, 10, 16, 17, 40]))
            l_r = float(rng.choice([1.0, 0.5, 0.1, rng.uniform(0.01, 1.0)]))
            a0 = rng.uniform(SHAPE_MIN, 30.0, size=domain.dims)
            b0 = rng.uniform(SHAPE_MIN, 30.0, size=domain.dims)
            current = BetaProposal(domain, a0, b0)
            pts = random_batch(rng, domain, d)
            want_a, want_b, want_clamped = ais_update_reference(current, pts, l_r)
            got = ais_update(current, pts, AisPolicy(d=d, l_r=l_r))
            assert got.a.tobytes() == want_a.tobytes()
            assert got.b.tobytes() == want_b.tobytes()
            assert got.refit_clamps == want_clamped
            fresh = BetaProposal(domain, want_a, want_b)
            x = random_batch(rng, domain, 12)
            assert got.density_many(x).tobytes() == fresh.density_many(x).tobytes()

    @pytest.mark.parametrize("seed", range(8))
    def test_cumulative_weighted_refit_equals_the_scalar_reference(self, seed):
        rng = np.random.default_rng(5700 + seed)
        for _ in range(25):
            domain = BOXES[rng.integers(len(BOXES))]
            d = int(rng.choice([2, 3, 7, 8, 9, 10, 16, 17]))
            l_r = float(rng.choice([1.0, 0.5, 0.1, rng.uniform(0.01, 1.0)]))
            current = BetaProposal(domain, rng.uniform(SHAPE_MIN, 30.0, size=domain.dims),
                                   rng.uniform(SHAPE_MIN, 30.0, size=domain.dims))
            count = int(rng.integers(1, 12))
            batches = [random_batch(rng, domain, d) for _ in range(count)]
            values = [random_values(rng, d) for _ in range(count)]
            zeros = int(rng.integers(0, 4))  # a zero-weight prefix
            values[:zeros] = [np.zeros(d)] * min(zeros, count)
            want = weighted_refit_reference(current, batches, values, l_r)
            policy = AisPolicy(d=d, l_r=l_r)
            sums = np.zeros((3, domain.dims))
            q = current
            for pts, vals, (want_a, want_b, want_clamped) in zip(batches, values, want):
                q = ais_update(q, pts, policy, vals, sums)
                assert q.a.tobytes() == want_a.tobytes()
                assert q.b.tobytes() == want_b.tobytes()
                assert q.refit_clamps == want_clamped

    def test_zero_weight_prefix_keeps_the_proposal(self):
        box = BoxDomain([0.0, 0.0], [1.0, 1.0])
        current = BetaProposal(box, [2.0, 3.0], [4.0, 5.0])
        batch = [[0.1, 0.2], [0.7, 0.9], [0.4, 0.5]]
        sums = np.zeros((3, 2))
        kept = ais_update(current, batch, AisPolicy(d=3, l_r=1.0), [0.0, 0.0, 0.0], sums)
        assert kept.a.tolist() == [2.0, 3.0] and kept.b.tolist() == [4.0, 5.0]
        assert kept.refit_clamps == 1
        assert not sums.any()
        moved = ais_update(kept, batch, AisPolicy(d=3, l_r=1.0), [1.0, 1.0, 1.0], sums)
        unweighted = ais_update(kept, batch, AisPolicy(d=3, l_r=1.0))
        assert moved.a == pytest.approx(unweighted.a, rel=1e-12)
        assert moved.b == pytest.approx(unweighted.b, rel=1e-12)
        assert sums[0].tolist() == [3.0, 3.0]

    def test_bad_values_and_sums_are_rejected(self):
        current = BetaProposal(BoxDomain([0.0], [1.0]), [1.0], [1.0])
        batch = [[0.2], [0.6]]
        policy = AisPolicy(d=2)
        for values in ([1.0], [1.0, np.nan], [np.inf, 1.0]):
            with pytest.raises(DomainError):
                ais_update(current, batch, policy, values, np.zeros((3, 1)))
        with pytest.raises(DomainError):
            ais_update(current, batch, policy, [1.0, 1.0], np.zeros((3, 2)))
        with pytest.raises(DomainError, match="running sums"):
            ais_update(current, batch, policy, [1.0, 1.0])

    @pytest.mark.parametrize("seed", range(4))
    def test_fit_beta_equals_the_scalar_moments(self, seed):
        rng = np.random.default_rng(5200 + seed)
        for _ in range(100):
            n = int(rng.choice([2, 5, 8, 9, 31, 128, 129, 1000, 20_000]))
            lo, hi = sorted(rng.uniform(-3.0, 3.0, size=2))
            x = random_batch(rng, BoxDomain([lo], [hi]), n)[:, 0]
            want = fit_beta_reference(x, lo, hi)
            if want is None:
                with pytest.raises(DegenerateBatch):
                    fit_beta(x, lo, hi)
                continue
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", ClampWarning)
                a, b = fit_beta(x, lo, hi)
            assert (a.hex(), b.hex()) == (want[0].hex(), want[1].hex())
            assert type(a) is float and type(b) is float
            assert len(caught) == int(want[2])

    def test_fit_beta_on_a_large_sample(self):
        x = np.random.default_rng(17).beta(2.0, 5.0, size=100_000)
        a, b = fit_beta(x)
        want = fit_beta_reference(x, 0.0, 1.0)
        assert (a.hex(), b.hex()) == (want[0].hex(), want[1].hex())

    def test_strided_batch_columns(self):
        # A batch handed over as a transposed view must fit like a
        # contiguous one.
        rng = np.random.default_rng(5300)
        pts = np.asfortranarray(rng.uniform(-0.3, 0.3, size=(10, 3)))
        current = BetaProposal(BOXES[1], [0.99] * 3, [0.99] * 3)
        got = ais_update(current, pts, AisPolicy())
        want_a, want_b, _ = ais_update_reference(current, np.ascontiguousarray(pts), 0.1)
        assert got.a.tobytes() == want_a.tobytes()
        assert got.b.tobytes() == want_b.tobytes()

    def test_nan_point_is_rejected(self):
        current = BetaProposal(BoxDomain([0.0], [1.0]), [1.0], [1.0])
        with pytest.raises(DomainError):
            ais_update(current, [[0.2], [np.nan]], AisPolicy(d=2))
        with pytest.raises(DomainError):
            fit_beta([0.2, np.nan])

    def test_ema_leaving_the_shape_range_is_clamped_back(self):
        # 0.7 * 0.05 + 0.3 * 0.05 rounds to 0.049999999999999996, below
        # SHAPE_MIN; a moving average of in-range shapes leaves the range
        # only by rounding, so the refit clamps it back to SHAPE_MIN.
        assert (1.0 - 0.3) * SHAPE_MIN + 0.3 * SHAPE_MIN < SHAPE_MIN
        box = BoxDomain([0.0], [1.0])
        current = BetaProposal(box, [SHAPE_MIN], [SHAPE_MIN])
        batch = [[0.005], [0.995]]  # fit clamps to (SHAPE_MIN, SHAPE_MIN)
        got = ais_update(current, batch, AisPolicy(d=2, l_r=0.3))
        assert got.a.tolist() == [SHAPE_MIN] and got.b.tolist() == [SHAPE_MIN]
        assert got.refit_clamps == 1  # the fit's clamp; the EMA's is not counted

    def test_campaigns_at_the_shape_floor_terminate(self):
        # The displacement campaign whose EMA rounds below SHAPE_MIN; it
        # used to abort with DomainError on 9 of these 20 seeds.
        bed = DisplacementTestbed()
        cfg = CampaignConfig(
            accuracy=AccuracySpec(0.5, 0.05, 0.1), m_low=bed.m_low, m_high=bed.m_high,
            w_bar=2.0, joint=None,
            sampler={"kind": "ais", "mix_p": 0.5, "d": 2, "l_r": 0.3, "init_shape": 0.05},
            testbed=bed, seed=0, n_max=200_000, range_term_mode="linear-range",
        )
        part = build_partition(cfg.m_low, cfg.m_high, compute_alpha(cfg.accuracy), 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ClampWarning)
            for seed in range(20):
                res = run_quantized_sq(cfg, part, campaign_stream(seed, 0, 0))
                assert res.terminated


class TestBatchedDensity:
    @pytest.mark.parametrize("seed", range(8))
    def test_density_equals_the_reference(self, seed):
        rng = np.random.default_rng(5400 + seed)
        for _ in range(80):
            domain = BOXES[rng.integers(len(BOXES))]
            a = rng.choice([0.05, 0.5, 1.0, 1.0, 2.0, 37.0], size=domain.dims)
            b = rng.choice([0.05, 0.5, 1.0, 1.0, 2.0, 37.0], size=domain.dims)
            q = BetaProposal(domain, a, b)
            n = int(rng.integers(0, 25))
            x = random_batch(rng, domain, n) if n else np.empty((0, domain.dims))
            if n and rng.random() < 0.3:
                # points outside the box have density 0
                k = rng.integers(domain.dims)
                x[rng.integers(n), k] = domain.hi[k] + 1.0
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # no floating-point warnings
                got = q.density_many(x)
            want = density_reference(q, x)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", range(4))
    def test_density_equals_the_scalar_product(self, seed):
        rng = np.random.default_rng(5500 + seed)
        # A shape of exactly 1 gives finite edge rows; its own stream
        # leaves the points and the other shapes as they were.
        ones = np.random.default_rng(5600 + seed)
        for _ in range(40):
            domain = BOXES[rng.integers(len(BOXES))]
            a = rng.uniform(0.05, 40.0, size=domain.dims)
            b = rng.uniform(0.05, 40.0, size=domain.dims)
            a[ones.random(domain.dims) < 0.15] = 1.0
            b[ones.random(domain.dims) < 0.15] = 1.0
            q = BetaProposal(domain, a, b)
            x = random_batch(rng, domain, 15)
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # no floating-point warnings
                got = q.density_many(x)
            for i in range(x.shape[0]):
                want = math.prod(
                    beta_density(float(x[i, k]), float(q.a[k]), float(q.b[k]),
                                 domain.lo[k], domain.hi[k])
                    for k in range(domain.dims)
                )
                t = (x[i] - np.asarray(domain.lo)) / (np.asarray(domain.hi) - domain.lo)
                if np.all((t > 0.0) & (t < 1.0)):
                    assert got[i] == pytest.approx(want, rel=1e-9)
                elif math.isnan(want):
                    assert got[i] == 0.0  # mixed corner: 0 inf = 0
                elif want in (0.0, math.inf):
                    assert got[i] == want
                else:
                    assert got[i] == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_mixed_corner_has_density_zero_and_the_capped_weight(self):
        # At t = (0, 0) the first factor is inf (a = 0.5) and the second
        # 0 (a = 2); the scalar product is NaN.
        box = BoxDomain([0.0, 0.0], [1.0, 1.0])
        q = BetaProposal(box, [0.5, 2.0], [1.0, 2.0])
        corner = np.array([[0.0, 0.0]])
        assert math.isnan(beta_density(0.0, 0.5, 1.0) * beta_density(0.0, 2.0, 2.0))
        q_x = q.density_many(corner)
        assert q_x.tolist() == [0.0]
        p_x = BoxUniform(box).density_many(corner)
        mix_p = 0.1
        weight = p_x / (mix_p * p_x + (1.0 - mix_p) * q_x)
        assert weight.tolist() == [1.0 / mix_p]


class TestShapeRange:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_shapes_are_rejected(self, bad):
        box = BoxDomain([0.0], [1.0])
        with pytest.raises(DomainError):
            BetaProposal(box, [bad], [1.0])
        with pytest.raises(DomainError):
            BetaProposal(box, [1.0], [bad])

    def test_nan_in_any_dimension_is_rejected(self):
        box = BoxDomain([0.0] * 3, [1.0] * 3)
        with pytest.raises(DomainError):
            BetaProposal(box, [1.0, np.nan, 1.0], [1.0] * 3)
        with pytest.raises(DomainError):
            BetaProposal(box, [1.0] * 3, [1.0, 1.0, np.nan])

    def test_range_edges_are_accepted(self):
        q = BetaProposal(BoxDomain([0.0] * 2, [1.0] * 2), [SHAPE_MIN, SHAPE_MAX],
                         [SHAPE_MAX, SHAPE_MIN])
        assert q.refit_clamps == 0


class TestClampTelemetry:
    def test_refit_counts_clamps_without_warning(self):
        box = BoxDomain([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
        current = BetaProposal(box, [1.0] * 3, [1.0] * 3)
        # column 0 clamps, column 1 fits in range, column 2 is degenerate
        batch = [[0.005, 0.25, 0.4], [0.995, 0.75, 0.4]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            updated = ais_update(current, batch, AisPolicy(d=2, l_r=1.0))
        assert updated.refit_clamps == 1
        assert list(updated.a) == [SHAPE_MIN, 1.5, 1.0]

    def test_campaign_without_weight_keeps_its_proposal(self):
        # A loss that is identically 0 gives every refit zero weight: the
        # proposal stays as initialised and each refit counts as clamped.
        bed = TrackingTestbed(bias_gain=0.0, noise_base=0.0, noise_slope=0.0)
        cfg = CampaignConfig(
            accuracy=AccuracySpec(0.04, 0.05, 0.1), m_low=0.0, m_high=1.0, w_bar=10.0,
            joint=None, sampler={"kind": "ais", "mix_p": 0.1, "d": 10, "init_shape": 0.99},
            testbed=bed, seed=4, range_term_mode="linear-range",
        )
        part = build_partition(0.0, 1.0, compute_alpha(cfg.accuracy), 0.0)
        with pytest.warns(ClampWarning) as caught:
            res = run_quantized_sq(cfg, part, campaign_stream(4, 0, 0))
        assert res.raw_estimate == 0.0
        assert res.clamped_fits == res.chunks - 1  # every batch but the last refits
        assert [str(w.message) for w in caught] == [
            f"{res.clamped_fits} adaptive refits were clamped to the proposal shape "
            f"bounds or had no weight to fit"
        ]
        snapshot = res.ais_final_proposal
        assert snapshot["shapes_a"] == snapshot["shapes_b"] == [0.99] * 3

    def test_counter_is_an_ais_only_result_field(self):
        bed = DisplacementTestbed()
        for sampler in ({"kind": "monte_carlo"}, {"kind": "ais", "mix_p": 0.5, "d": 4}):
            cfg = CampaignConfig(
                accuracy=AccuracySpec(0.5, 0.05, 0.1), m_low=0.0, m_high=6.0, w_bar=2.0,
                joint=None, sampler=sampler, testbed=bed, seed=3,
                range_term_mode="linear-range",
            )
            part = build_partition(0.0, 6.0, compute_alpha(cfg.accuracy), 0.0)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ClampWarning)
                res = run_quantized_sq(cfg, part, campaign_stream(3, 0, 0))
            if sampler["kind"] == "ais":
                assert isinstance(res.clamped_fits, int)
                assert res.to_dict()["clamped_fits"] == res.clamped_fits
            else:
                assert res.clamped_fits is None
                assert "clamped_fits" not in res.to_dict()
