"""The AIS batch, pinned bit for bit.

Golden campaigns freeze the outcome of whole AIS campaigns (estimate
bits, counts, final proposal shapes and the number of clamped refits)
as the per-dimension scalar implementation produced them. The property
tests compare the batched refit and the batched Beta density against
scalar references kept here, on random batches that include degenerate
columns, clamped fits and points on the box boundary.
"""

import json
import math
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
    ais_update,
    beta_density,
    fit_beta,
)
from repsq.testbeds import displacement_testbed, tracking_testbed

ROOT = Path(__file__).resolve().parents[1]

# initiator(config) and replicator(artifact, 12345) of the bundled
# tracking_ais config; floats as float.hex().
TRACKING_AIS = {
    "initiator": dict(
        raw_estimate="0x1.8982342c19aafp-2", n=36449, evaluated_n=36450, chunks=3645,
        cell=5, sigma_hat_final="0x1.537fc7a798936p+0",
        bernstein_radius_final="0x1.47acfc3a59048p-5",
        hoeffding_radius_final="0x1.235f7fe59f76ap-4",
        shapes_a=["0x1.3f4bdb11dfef4p+3", "0x1.8df0e172be1c9p+2", "0x1.abf436b0a2303p+3"],
        shapes_b=["0x1.4f8e94384c5d9p+3", "0x1.b50a4575969bfp+2", "0x1.c71b98319ebc3p+3"],
        clamped_fits=10,
    ),
    "replicator": dict(
        raw_estimate="0x1.8dd00e7da7549p-2", n=36727, evaluated_n=36730, chunks=3673,
        cell=5, sigma_hat_final="0x1.5d9ca40b427acp+0",
        bernstein_radius_final="0x1.47added4292c6p-5",
        hoeffding_radius_final="0x1.2244a884b40cap-4",
        shapes_a=["0x1.5258776511472p+3", "0x1.430b0df6a83f4p+2", "0x1.32b34af94d6a0p+3"],
        shapes_b=["0x1.a07ddd41e9fdcp+3", "0x1.72114cb8f6af8p+2", "0x1.05617903513b1p+3"],
        clamped_fits=19,
    ),
}

# Short campaigns that clamp often, with batches below and at the
# 8-value length where numpy switches to pairwise summation.
SHORT = {
    "displacement_d2": dict(
        raw="0x1.e36f2668f0c6ep+0", n=367, evaluated_n=368, chunks=184,
        sigma="0x1.2c9fb27220dc4p+1",
        a=["0x1.2b6909a96e758p+1", "0x1.744687f4b23e3p-2"],
        b=["0x1.5cde2ae6fe0a9p+3", "0x1.39ddac88d96fap-1"],
        clamped_fits=75,
    ),
    "displacement_d3": dict(
        raw="0x1.be1238a504d02p+0", n=875, evaluated_n=876, chunks=292,
        sigma="0x1.07ab6a8e126c8p+3",
        a=["0x1.432e07afaea5dp+5", "0x1.89ed6674e0d6fp+3"],
        b=["0x1.d9999882b996ap+4", "0x1.9d2521725ac21p+3"],
        clamped_fits=117,
    ),
    "tracking_d8": dict(
        raw="0x1.8585c2911b1a7p-2", n=306, evaluated_n=312, chunks=39,
        sigma="0x1.3e434dc843198p-4",
        a=["0x1.023c0b865b496p+1", "0x1.8e365a4108211p-1", "0x1.e8c088b1e32b8p-1"],
        b=["0x1.9e51b0edd2fe0p+0", "0x1.b8acf383e3727p-1", "0x1.c9f50bdfb3adcp+0"],
        clamped_fits=2,
    ),
}
SHORT_SETUP = {
    # bed, w_bar, mix_p, d, l_r, init_shape, gamma
    "displacement_d2": (displacement_testbed, 2.0, 0.5, 2, 1.0, 0.05, 0.5),
    "displacement_d3": (displacement_testbed, 4.0, 0.25, 3, 0.5, 0.05, 0.5),
    "tracking_d8": (tracking_testbed, 2.0, 0.5, 8, 1.0, 100.0, 0.1),
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
            testbed=bed.to_spec(), seed=77, n_max=200_000, range_term_mode="linear-range",
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


# ---------------------------------------------------------------------------
# Scalar references: one dimension and one point at a time.


def fit_beta_reference(x, lo, hi):
    """Per-column method of moments as a 1-D np.mean computes it; None
    for a degenerate column, else (a, b, clamped)."""
    u = (np.asarray(x, dtype=np.float64) - lo) / (hi - lo)
    mean = float(np.mean(u))
    var = float(np.mean((u - mean) ** 2))
    if var <= 1e-12 or mean <= 1e-12 or mean >= 1.0 - 1e-12:
        return None
    k = mean * (1.0 - mean) / var - 1.0
    a = mean * k
    b = (1.0 - mean) * k
    ca = min(max(a, SHAPE_MIN), SHAPE_MAX)
    cb = min(max(b, SHAPE_MIN), SHAPE_MAX)
    return ca, cb, ca != a or cb != b


def ais_update_reference(current, pts, l_r):
    """Per-dimension fit plus exponential moving average; returns
    (a, b, clamped count)."""
    new_a = current.a.copy()
    new_b = current.b.copy()
    clamped = 0
    for k in range(current.domain.dims):
        fit = fit_beta_reference(pts[:, k], current.domain.lo[k], current.domain.hi[k])
        if fit is None:
            continue
        new_a[k] = (1.0 - l_r) * new_a[k] + l_r * fit[0]
        new_b[k] = (1.0 - l_r) * new_b[k] + l_r * fit[1]
        clamped += fit[2]
    return new_a, new_b, clamped


def density_reference(q, x):
    """Interior rows through one log-density sum over the interior rows
    alone, edge rows through the scalar beta_density product."""
    lo = np.asarray(q.domain.lo)
    width = np.asarray(q.domain.hi) - lo
    log_norm = float(np.sum(special.betaln(q.a, q.b)) + np.sum(np.log(width)))
    t = (x - lo) / width
    out = np.zeros(x.shape[0])
    inside = np.all((t >= 0.0) & (t <= 1.0), axis=1)
    interior = inside & np.all((t > 0.0) & (t < 1.0), axis=1)
    ti = t[interior]
    out[interior] = np.exp(
        np.sum((q.a - 1.0) * np.log(ti), axis=1)
        + np.sum((q.b - 1.0) * np.log1p(-ti), axis=1)
        - log_norm
    )
    for i in np.nonzero(inside & ~interior)[0]:
        out[i] = math.prod(
            beta_density(float(x[i, k]), float(q.a[k]), float(q.b[k]),
                         q.domain.lo[k], q.domain.hi[k])
            for k in range(q.domain.dims)
        )
    return out


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

    def test_ema_leaving_the_shape_range_is_rejected(self):
        # 0.7 * 0.05 + 0.3 * 0.05 rounds to 0.049999999999999996, below
        # SHAPE_MIN; the refit refuses it as the constructor would.
        assert (1.0 - 0.3) * SHAPE_MIN + 0.3 * SHAPE_MIN < SHAPE_MIN
        box = BoxDomain([0.0], [1.0])
        current = BetaProposal(box, [SHAPE_MIN], [SHAPE_MIN])
        batch = [[0.005], [0.995]]  # fit clamps to (SHAPE_MIN, SHAPE_MIN)
        with pytest.raises(DomainError):
            ais_update(current, batch, AisPolicy(d=2, l_r=0.3))


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
        for _ in range(40):
            domain = BOXES[rng.integers(len(BOXES))]
            q = BetaProposal(domain, rng.uniform(0.05, 40.0, size=domain.dims),
                             rng.uniform(0.05, 40.0, size=domain.dims))
            x = random_batch(rng, domain, 15)
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
                else:
                    # A corner where one factor is inf and another 0 gives
                    # NaN on both routes.
                    assert got[i] == want or (math.isnan(got[i]) and math.isnan(want))


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

    def test_counter_is_an_ais_only_result_field(self):
        bed = displacement_testbed()
        for sampler in ({"kind": "monte_carlo"}, {"kind": "ais", "mix_p": 0.5, "d": 4}):
            cfg = CampaignConfig(
                accuracy=AccuracySpec(0.5, 0.05, 0.1), m_low=0.0, m_high=6.0, w_bar=2.0,
                joint=None, sampler=sampler, testbed=bed.to_spec(), seed=3,
                range_term_mode="linear-range",
            )
            part = build_partition(0.0, 6.0, compute_alpha(cfg.accuracy), 0.0)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ClampWarning)
                res = run_quantized_sq(cfg, part, campaign_stream(3, 0, 0), testbed=bed)
            if sampler["kind"] == "ais":
                assert isinstance(res.clamped_fits, int)
                assert res.to_dict()["clamped_fits"] == res.clamped_fits
            else:
                assert res.clamped_fits is None
                assert "clamped_fits" not in res.to_dict()
