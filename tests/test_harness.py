"""Campaign harness and artifact exchange tests.

Termination counts and estimate trajectories here are deterministic
given the seeds baked into each test; statistical assertions state the
floor they check and carry margins wide enough that a failure means a
logic change, not an unlucky stream.
"""

import dataclasses
import json
import math
import warnings
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

from repsq import _kernels, harness
from repsq import artifact as art_mod
from repsq.artifact import (
    build_artifact,
    dump_artifact,
    load_artifact,
    partition_from_payload,
)
from repsq.errors import (
    ArtifactVersionMismatch,
    BoundViolation,
    ClampWarning,
    ContractViolation,
    DomainError,
    NonTerminated,
    OracleBudgetError,
)
from repsq.estimator import MAX_SAMPLES, hoeffding_radius
from repsq.harness import (
    CampaignConfig,
    campaign_stream,
    convergence_study,
    effort_comparison,
    initiator,
    pairwise_experiment,
    replication,
    replicator,
    run_quantized_sq,
)
from repsq.quantize import AccuracySpec, build_partition, compute_alpha
from repsq.samplers import BetaProposal, BoxDomain, BoxUniform, DiscreteDistribution
from repsq.testbeds import (
    CellularTestbed,
    DisplacementTestbed,
    TrackingTestbed,
    convergence_study_testbed,
    moderate_cellular_testbed,
    rare_event_acceptance_testbed,
    rare_event_testbed,
)

# Cell widths for the two headline accuracy contracts, frozen from the
# closed form (also pinned independently in the quantization tests).
ALPHA_WIDE = 0.18947368421052632
ALPHA_RARE = 4.2847307032624357e-9


def rare_config(seed=20260821, **overrides) -> CampaignConfig:
    base = dict(
        accuracy=AccuracySpec(3e-9, 0.01, 0.1),
        joint=1e-4,
        sampler={"kind": "importance"},
        testbed=rare_event_acceptance_testbed(),
        seed=seed,
        n_max=1_000_000,
    )
    base.update(overrides)
    return CampaignConfig(**base)


def moderate_config(sampler_kind="monte_carlo", seed=7, **overrides) -> CampaignConfig:
    base = dict(
        accuracy=AccuracySpec(0.01, 0.01, 0.1),
        joint=1.0,
        sampler={"kind": sampler_kind},
        testbed=moderate_cellular_testbed(),
        seed=seed,
        n_max=1_000_000,
    )
    base.update(overrides)
    return CampaignConfig(**base)


def zero_variance_config(seed=1) -> CampaignConfig:
    bed = DisplacementTestbed(noise=False, mean_constant=0.02)
    return CampaignConfig(
        accuracy=AccuracySpec(0.1, 0.05, 0.1),
        joint=1.0,
        sampler={"kind": "monte_carlo"},
        testbed=bed,
        seed=seed,
        n_max=10_000,
    )


def make_partition(config: CampaignConfig):
    return build_partition(
        config.m_low, config.m_high, compute_alpha(config.accuracy), 0.0
    )


def outcome(result) -> dict:
    """A result's to_dict() without the counters that depend on chunking."""
    d = result.to_dict()
    del d["evaluated_n"], d["chunks"]
    return d


class TestArtifactSerialization:
    def test_partition_payload_round_trip_materialized(self):
        part = build_partition(0.0, 6.0, ALPHA_WIDE, 0.05)
        grid = json.loads(json.dumps(build_artifact(zero_variance_config(), part)["grid"]))
        back = partition_from_payload(grid, 0.0, 6.0)
        assert back == part
        assert [back.boundary(k) for k in range(back.n_cells + 1)] == [
            part.boundary(k) for k in range(part.n_cells + 1)
        ]

    def test_partition_payload_round_trip_virtual(self):
        part = build_partition(0.0, 1.0, ALPHA_RARE, 0.0)
        grid = json.loads(json.dumps(build_artifact(rare_config(), part)["grid"]))
        assert grid["n_cells"] == part.n_cells == 233_386_897
        back = partition_from_payload(grid, 0.0, 1.0)
        assert back.n_cells == part.n_cells
        for v in (0.0, 3.2e-8, 0.731, 1.0):
            assert back.cell_of(v) == part.cell_of(v)

    def test_artifact_dump_load_round_trip(self):
        art, _ = initiator(zero_variance_config())
        loaded = load_artifact(dump_artifact(art))
        assert loaded == art
        rebuilt = partition_from_payload(loaded["grid"], 0.0, 6.0)
        original = partition_from_payload(art["grid"], 0.0, 6.0)
        assert rebuilt == original

    def test_artifact_text_is_compact_sorted_json(self):
        art, _ = initiator(zero_variance_config())
        text = dump_artifact(art)
        assert text == json.dumps(art, sort_keys=True, separators=(",", ":")) + "\n"

    def test_indented_artifact_text_still_loads(self):
        """Artifacts written with indent=2 (the earlier text layout of
        this format) load, verify and replicate as the compact text."""
        art, _ = initiator(zero_variance_config())
        indented = json.dumps(art, indent=2, sort_keys=True) + "\n"
        loaded = load_artifact(indented)
        compact = load_artifact(dump_artifact(art))
        assert loaded == compact == art
        assert replicator(loaded, 7).to_dict() == replicator(compact, 7).to_dict()

    def test_artifact_is_the_sealed_config_and_its_grid(self):
        cfg = zero_variance_config()
        art, _ = initiator(cfg)
        assert set(art) == {"format_version", "rng_algorithm", "checksum", "config", "grid"}
        sealed = cfg.to_dict()
        del sealed["seed"]
        assert art["config"] == sealed
        part = make_partition(cfg)
        assert art["grid"] == {"alpha": part.alpha, "offset": 0.0, "n_cells": part.n_cells}

    def test_tampered_boundary_is_rejected(self):
        """A cell count the grid scalars do not yield is rejected: by the
        checksum as sent, and by the rebuild check once resealed. That
        check is the only one on a count, since a Partition derives its
        own; it refuses a fractional count, the right count as a float,
        a boolean and a count one off either way."""
        art, _ = initiator(zero_variance_config())
        n = art["grid"]["n_cells"]
        for sent in (n + 1, n - 1, n + 0.5, float(n), True):
            bad = dict(art)
            bad["grid"] = dict(art["grid"], n_cells=sent)
            with pytest.raises(ArtifactVersionMismatch, match="checksum"):
                replicator(load_artifact(dump_artifact(bad)), seed=1)
            bad["checksum"] = art_mod.artifact_checksum(bad)
            loaded = load_artifact(dump_artifact(bad))
            with pytest.raises(ArtifactVersionMismatch, match="cell count"):
                replicator(loaded, seed=1)

    def test_wrong_format_version_is_rejected(self):
        art, _ = initiator(zero_variance_config())
        bad = dict(art)
        bad["format_version"] = "repsq-artifact-0"
        with pytest.raises(ArtifactVersionMismatch):
            replicator(load_artifact(dump_artifact(bad)), seed=1)

    def test_wrong_rng_algorithm_is_rejected(self):
        art, _ = initiator(zero_variance_config())
        bad = dict(art)
        bad["rng_algorithm"] = "mt19937"
        with pytest.raises(ArtifactVersionMismatch):
            replicator(load_artifact(dump_artifact(bad)), seed=1)

    def test_checksum_covers_testbed_spec(self):
        art, _ = initiator(zero_variance_config())
        bad = dict(art)
        bad["config"] = dict(
            art["config"], testbed=dict(art["config"]["testbed"], mean_constant=0.03)
        )
        with pytest.raises(ArtifactVersionMismatch):
            replicator(load_artifact(dump_artifact(bad)), seed=1)

    def test_text_round_trip_verifies_once(self, monkeypatch):
        """``load_artifact`` only parses; ``replicator`` checks the seal."""
        calls = []
        verify = art_mod.verify_artifact

        def counted(art):
            calls.append(art)
            return verify(art)

        for module in (art_mod, harness):
            monkeypatch.setattr(module, "verify_artifact", counted)
        art, _ = initiator(zero_variance_config())
        replicator(load_artifact(dump_artifact(art)), seed=1)
        assert len(calls) == 1


class TestCampaignConfig:
    def test_dict_round_trip(self):
        cfg = rare_config()
        assert CampaignConfig.from_dict(cfg.to_dict()) == cfg

    def test_missing_field_raises(self):
        d = rare_config().to_dict()
        del d["accuracy"]
        with pytest.raises(DomainError):
            CampaignConfig.from_dict(d)

    @pytest.mark.parametrize("field", ["n_min", "n_max", "seed"])
    @pytest.mark.parametrize("value", [3.7, "12", True, math.nan])
    def test_non_integral_count_raises(self, field, value):
        d = rare_config().to_dict()
        d[field] = value
        with pytest.raises(DomainError, match=field):
            CampaignConfig.from_dict(d)

    def test_missing_optional_fields_take_the_dataclass_defaults(self):
        d = rare_config(offset_policy="uniform-random", n_min=5, n_max=1000,
                        range_term_mode="linear-range").to_dict()
        for key in ("offset_policy", "n_min", "n_max", "range_term_mode"):
            del d[key]
        cfg = CampaignConfig.from_dict(d)
        for f in dataclasses.fields(CampaignConfig):
            if f.default is not dataclasses.MISSING:
                assert getattr(cfg, f.name) == f.default

    def test_integral_float_count_is_accepted(self):
        d = rare_config().to_dict()
        d["n_max"] = 1e6
        assert CampaignConfig.from_dict(d).n_max == 1_000_000

    def test_n_max_above_the_sample_limit_raises(self):
        assert rare_config(n_max=MAX_SAMPLES).n_max == MAX_SAMPLES
        with pytest.raises(DomainError, match="n_max"):
            rare_config(n_max=MAX_SAMPLES + 1)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n_max", 100.5),
            ("n_min", 1e6 + 0.5),
            ("n_min", 2.5),
            ("n_min", True),
            ("n_max", "100"),
            ("joint", "1e-4"),
        ],
    )
    def test_constructor_reads_each_scalar_field(self, field, value):
        """Direct construction reads the fields from_dict used to read
        alone; a fractional n_max used to escape a campaign as numpy's
        TypeError."""
        with pytest.raises(DomainError, match=field):
            rare_config(**{field: value})

    def test_descriptor_given_to_the_constructor_raises(self):
        with pytest.raises(DomainError, match="from_dict"):
            rare_config(testbed=rare_event_acceptance_testbed().to_spec())

    def test_campaigns_draw_from_the_bed_checked_at_construction(self, monkeypatch):
        """A campaign neither rebuilds nor rechecks the config's bed;
        dataclasses.replace builds a new config and checks it again."""
        cfg = rare_config()
        calls = []
        check = harness._Importance.check
        monkeypatch.setattr(
            harness._Importance, "check", staticmethod(lambda c: calls.append(c) or check(c))
        )
        monkeypatch.setattr(harness, "testbed_from_spec", calls.append)
        initiator(cfg)
        run_quantized_sq(cfg, make_partition(cfg), campaign_stream(cfg.seed, 1, 0))
        assert calls == []
        other = dataclasses.replace(cfg, seed=1)
        assert calls == [other] and other.testbed is cfg.testbed

    def test_replace_checks_the_bed_under_the_new_sampler(self):
        cfg = zero_variance_config()  # a displacement bed has no proposal
        with pytest.raises(DomainError, match="discrete proposal"):
            dataclasses.replace(cfg, sampler={"kind": "importance"})

    def test_unknown_sampler_kind_raises(self):
        with pytest.raises(DomainError):
            rare_config(sampler={"kind": "quasi_random"})

    def test_bad_offset_policy_raises(self):
        with pytest.raises(DomainError):
            rare_config(offset_policy="per-pair")

    @staticmethod
    def with_retired(config: CampaignConfig, **retired) -> dict:
        """The config as a file that still carries the retired keys
        ``interval`` or ``w_bar`` would hold it."""
        d = config.to_dict()
        if "interval" in retired:
            d["interval"] = retired["interval"]
        if "w_bar" in retired:
            d["bounds"]["w_bar"] = retired["w_bar"]
        return d

    def test_interval_must_match_testbed(self):
        d = self.with_retired(rare_config(), interval={"m_low": 0.0, "m_high": 2.0})
        with pytest.raises(DomainError, match=r"does not match testbed interval \[0.0, 1.0\]"):
            CampaignConfig.from_dict(d)

    def test_importance_needs_w_bar_covering_proposal(self):
        cfg = moderate_config("importance")  # worst mass ratio 1.8
        with pytest.raises(BoundViolation, match="weight cap 1.8"):
            CampaignConfig.from_dict(self.with_retired(cfg, w_bar=1.5))

    def test_ais_cap_must_fit_declared_w_bar(self):
        cfg = TestBundledConfigs.config("tracking_ais")  # cap 1/mix_p = 10
        with pytest.raises(BoundViolation, match="weight cap 10"):
            CampaignConfig.from_dict(self.with_retired(cfg, w_bar=5.0))

    def test_retired_keys_that_hold_set_nothing(self):
        """A file written before the cap and the interval were derived
        reads as the config it names: a w_bar above the derived cap does
        not widen it, and the interval is the bed's."""
        cfg = rare_config()
        d = self.with_retired(cfg, interval={"m_low": 0, "m_high": 1}, w_bar=512.0)
        back = CampaignConfig.from_dict(d)
        assert back == cfg and back.weight_cap == cfg.weight_cap == 499.99998400000004
        assert back.stop_rule == cfg.stop_rule

    @pytest.mark.parametrize(
        "interval, message",
        [({"m_low": 0.0}, "missing field 'm_high'"),
         ({"m_low": "0", "m_high": 1.0}, "m_low must be a number"),
         ({"m_low": 0.0, "m_high": 1.0, "m": 1.0}, r"interval does not read \['m'\]")],
        ids=["partial", "string", "extra-key"],
    )
    def test_retired_interval_is_read_whole(self, interval, message):
        with pytest.raises(DomainError, match=message):
            CampaignConfig.from_dict(self.with_retired(rare_config(), interval=interval))

    def test_ais_without_a_target_share_has_no_weight_cap(self):
        """1/mix_p would divide by zero; the kind's check runs before the
        cap is used, so the config refuses it as a bound it cannot prove."""
        with pytest.raises(BoundViolation, match="mix_p = 0 has no provable weight cap"):
            CampaignConfig(
                accuracy=AccuracySpec(0.04, 0.05, 0.1),
                joint=None,
                sampler={"kind": "ais", "mix_p": 0.0},
                testbed=TrackingTestbed(),
                seed=0,
            )

    def test_ais_rejects_cellular_testbed(self):
        with pytest.raises(DomainError, match="box-domain"):
            moderate_config(sampler={"kind": "ais", "mix_p": 0.5})

    def test_importance_rejects_testbed_without_proposal(self):
        """displacement_star's bed has a box domain and no proposal, so
        an importance run there has no weights to apply."""
        path = resources.files("repsq") / "configs" / "displacement_star.json"
        raw = json.loads(path.read_text())
        with pytest.raises(DomainError, match="discrete proposal"):
            CampaignConfig.from_dict(dict(raw, sampler={"kind": "importance"}))
        art, _ = initiator(CampaignConfig.from_dict(raw))
        with pytest.raises(DomainError, match="discrete proposal"):
            replicator(art, seed=1, sampler_override={"kind": "importance"})

    @pytest.mark.parametrize(
        "field, value, match",
        [
            # a caller's bed on an interval of width 0, or of negative width
            ("m_high", 0.0, "must be finite and nonempty"),
            ("m_low", 2.0, "must be finite and nonempty"),
            ("m_low", -math.inf, "must be finite and nonempty"),
            ("m_high", math.inf, "must be finite and nonempty"),
            # the retired key, refused below the derived cap 500 or not finite
            ("w_bar", 0.5, "w_bar"),
            ("w_bar", math.inf, "w_bar"),
            ("w_bar", math.nan, "w_bar"),
            ("joint", 0.0, "joint"),
            ("joint", -1e-4, "joint"),
            ("joint", math.inf, "joint"),
            ("joint", math.nan, "joint"),
        ],
        ids=["m-zero", "m-negative", "m-low-infinite", "m-high-infinite", "w-bar-below-1",
             "w-bar-infinite", "w-bar-nan", "joint-zero", "joint-negative", "joint-infinite",
             "joint-nan"],
    )
    def test_bounds_outside_their_domain_raise(self, field, value, match):
        if field == "w_bar":
            d = self.with_retired(rare_config(), w_bar=value)
            with pytest.raises(BoundViolation, match=match):
                CampaignConfig.from_dict(d)
            return
        overrides = {field: value}
        if field != "joint":
            bed = rare_event_acceptance_testbed()
            setattr(bed, field, value)  # shadows the class's interval
            overrides = {"testbed": bed}
        with pytest.raises(DomainError, match=match):
            rare_config(**overrides)

    @pytest.mark.parametrize("c", [0.0, 1.0], ids=["c-zero", "c-one"])
    def test_failure_probability_outside_unit_interval_raises(self, c):
        path = resources.files("repsq") / "configs" / "displacement_star.json"
        raw = json.loads(path.read_text())
        raw["accuracy"]["c"] = c
        with pytest.raises(DomainError, match="c must lie"):
            CampaignConfig.from_dict(raw)

    def test_monte_carlo_accepts_conservative_w_bar(self):
        # A file may still declare a cap sized for an importance
        # replicator; the monte-carlo arm reads it and keeps its own cap 1.
        d = self.with_retired(moderate_config("monte_carlo"), w_bar=2.0)
        assert CampaignConfig.from_dict(d).weight_cap == 1.0


class TestPublicArguments:
    """A bad count, seed, pair or arm given to the public API raises
    DomainError, never numpy's TypeError or ValueError."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda cfg, part: pairwise_experiment(cfg, 2.5),
            lambda cfg, part: pairwise_experiment(cfg, "3"),
            lambda cfg, part: run_quantized_sq(cfg, part, 1, chunk_size=2.5),
            lambda cfg, part: run_quantized_sq(cfg, part, -1),
            lambda cfg, part: campaign_stream(-1, 0, 0),
            lambda cfg, part: campaign_stream(1, -1, 0),
            lambda cfg, part: campaign_stream(1, 0, -1),
            lambda cfg, part: campaign_stream(1.5, 0, 0),
            lambda cfg, part: campaign_stream(True, 0, 0),
            lambda cfg, part: convergence_study(convergence_study_testbed(), seeds=[-1]),
            # these two used to run truncated, as (10, 20) and (1, 20)
            lambda cfg, part: convergence_study(
                convergence_study_testbed(), seeds=[0], checkpoints=(10.7, 20.2)
            ),
            lambda cfg, part: convergence_study(
                convergence_study_testbed(), seeds=[0], checkpoints=(True, 20)
            ),
        ],
        ids=[
            "n-pairs-fraction",
            "n-pairs-string",
            "chunk-size-fraction",
            "negative-stream",
            "negative-seed",
            "negative-pair",
            "negative-arm",
            "fractional-seed",
            "bool-seed",
            "negative-study-seed",
            "fractional-checkpoint",
            "bool-checkpoint",
        ],
    )
    def test_is_a_domain_error(self, call):
        cfg = moderate_config()
        with pytest.raises(DomainError):
            call(cfg, make_partition(cfg))


class TestRunQuantizedSq:
    def test_huge_gamma_terminates_at_floor(self):
        bed = CellularTestbed([0.99, 0.01], [0.0, 3e-6], [0.99, 0.01])
        cfg = CampaignConfig(
            accuracy=AccuracySpec(1.0, 0.05, 0.1),
            joint=None,
            sampler={"kind": "monte_carlo"},
            testbed=bed,
            seed=3,
        )
        res = run_quantized_sq(cfg, make_partition(cfg), campaign_stream(3, 0, 0))
        assert res.n == 2
        assert res.terminated

    def test_n_min_floor_is_respected(self):
        bed = CellularTestbed([0.99, 0.01], [0.0, 3e-6], [0.99, 0.01])
        cfg = CampaignConfig(
            accuracy=AccuracySpec(1.0, 0.05, 0.1),
            joint=None,
            sampler={"kind": "monte_carlo"},
            testbed=bed,
            seed=3,
            n_min=17,
        )
        res = run_quantized_sq(cfg, make_partition(cfg), campaign_stream(3, 0, 0))
        assert res.n == 17

    def test_importance_with_q_equal_p_matches_monte_carlo(self):
        # Same seed, q = p: the weight path computes p/q = 1 exactly and
        # consumes the streams identically, so the trajectories agree
        # bit for bit.
        p = [0.55, 0.25, 0.2]
        f = [0.1, 0.4, 0.05]
        bed = CellularTestbed(p, f, p)
        common = dict(
            accuracy=AccuracySpec(0.02, 0.05, 0.1),
            joint=1.0,
            testbed=bed,
            seed=91,
        )
        mc = CampaignConfig(sampler={"kind": "monte_carlo"}, **common)
        imp = CampaignConfig(sampler={"kind": "importance"}, **common)
        r1 = run_quantized_sq(mc, make_partition(mc), campaign_stream(91, 0, 0))
        r2 = run_quantized_sq(imp, make_partition(imp), campaign_stream(91, 0, 0))
        assert r1.n == r2.n
        assert r1.raw_estimate == r2.raw_estimate
        assert r1.quantized_estimate == r2.quantized_estimate
        assert r1.sigma_hat_final == r2.sigma_hat_final

    def test_monte_carlo_weighs_no_draw(self, monkeypatch):
        calls = []
        for cls in (BoxUniform, BetaProposal, DiscreteDistribution):
            def counted(dist, points, _original=cls.density_many):
                calls.append(len(points))
                return _original(dist, points)

            monkeypatch.setattr(cls, "density_many", counted)
        cfg = zero_variance_config()
        res = run_quantized_sq(
            cfg, make_partition(cfg), campaign_stream(cfg.seed, 0, 0), chunk_size=16
        )
        assert res.terminated and res.chunks > 1
        assert calls == []

    @pytest.mark.parametrize(
        "bed",
        [
            rare_event_acceptance_testbed(),
            moderate_cellular_testbed(),
            convergence_study_testbed(),
            rare_event_testbed(50, 7),
            CellularTestbed([0.5, 0.5, 0.0], [1.0, 0.0, 0.0], [0.25, 0.75, 0.0]),
        ],
        ids=["rare_event_acceptance", "moderate_cellular", "convergence_study",
             "rare_event_50_7", "uncovered-empty-cell"],
    )
    def test_cellular_bed_carries_its_mass_ratio(self, bed, monkeypatch):
        """A cellular bed's mass_ratio is p/q, 0 where q is 0, and the
        importance sampler proposes every cell with that array's weight."""
        p, q = bed.target.masses, bed.proposal.masses
        want = [pi / qi if qi > 0.0 else 0.0 for pi, qi in zip(p.tolist(), q.tolist())]
        assert bed.mass_ratio.tolist() == want
        cfg = rare_config(testbed=bed)
        assert cfg.weight_cap == max(want)
        sampler = harness._SAMPLERS["importance"](cfg)
        xs, weights = sampler.propose(np.random.default_rng(11), 4_000)
        assert np.array_equal(weights, bed.mass_ratio[xs])
        # A proposal that draws each cell once reads the whole array.
        every = np.arange(bed.n_cells)
        monkeypatch.setattr(bed.proposal, "sample_many", lambda rng, k: every)
        xs, weights = sampler.propose(np.random.default_rng(11), bed.n_cells)
        assert weights.dtype == bed.mass_ratio.dtype
        assert np.array_equal(weights, bed.mass_ratio)

    def test_same_stream_reproduces_bitwise(self):
        cfg = rare_config()
        part = make_partition(cfg)
        r1 = run_quantized_sq(cfg, part, campaign_stream(cfg.seed, 4, 1))
        r2 = run_quantized_sq(cfg, part, campaign_stream(cfg.seed, 4, 1))
        assert r1.raw_estimate == r2.raw_estimate
        assert r1.n == r2.n and r1.cell == r2.cell

    def test_arm_streams_differ(self):
        cfg = moderate_config()
        part = make_partition(cfg)
        r0 = run_quantized_sq(cfg, part, campaign_stream(cfg.seed, 0, 0))
        r1 = run_quantized_sq(cfg, part, campaign_stream(cfg.seed, 0, 1))
        assert r0.raw_estimate != r1.raw_estimate

    def test_chunk_size_does_not_change_the_trajectory(self):
        # Sampler and noise streams are consumed position-aligned, so
        # the drawn values are identical for any batching, and the scan
        # kernel's sums do not depend on chunk boundaries: the whole
        # result is bit-equal but for the effort counters. The tracking
        # bed draws its noise command by command, so it holds there too.
        tracking = json.loads(
            (resources.files("repsq") / "configs" / "tracking_ais.json").read_text()
        )
        tracking.update(sampler={"kind": "monte_carlo"}, range_term_mode="linear-range")
        for cfg, sizes in (
            (moderate_config(), (64, 1000, 8192)),
            (CampaignConfig.from_dict(tracking), (7, 64, 1000)),
        ):
            part = make_partition(cfg)
            results = [
                run_quantized_sq(
                    cfg, part, campaign_stream(cfg.seed, 2, 0), chunk_size=size
                )
                for size in sizes
            ]
            assert len({json.dumps(outcome(r)) for r in results}) == 1

    @pytest.mark.parametrize("kind", ["monte_carlo", "importance", "ais"])
    def test_the_campaign_loop_runs_every_test_on_the_noise_stream(self, kind):
        """Monte Carlo on displacement, importance on moderate_cellular,
        AIS on tracking: the campaign loop calls evaluate_many once per
        chunk, and the psi those calls return, in order, are what one
        call on all of the campaign's points returns on a fresh copy of
        the campaign's evaluator-noise stream. No sampler draws from it."""
        if kind == "monte_carlo":
            cfg = TestBundledConfigs.config("displacement_star")
        elif kind == "importance":
            cfg = moderate_config("importance")
        else:
            cfg = CampaignConfig(
                accuracy=AccuracySpec(0.1, 0.05, 0.1),
                joint=None, sampler={"kind": "ais", "mix_p": 0.1, "d": 10},
                testbed=TrackingTestbed(), seed=5, n_max=20_000,
            )
        assert cfg.sampler["kind"] == kind
        bed = cfg.testbed
        calls = []

        def evaluate(points, rng):
            psi = type(bed).evaluate_many(bed, points, rng)
            calls.append((points, psi))
            return psi

        bed.evaluate_many = evaluate
        res = run_quantized_sq(cfg, make_partition(cfg), campaign_stream(cfg.seed, 3, 1))
        assert res.terminated and len(calls) == res.chunks > 1
        points = np.concatenate([x for x, _ in calls])
        psi = np.concatenate([v for _, v in calls])
        assert len(psi) == res.evaluated_n
        # spawn advances a SeedSequence, so the noise stream is re-derived.
        noise = np.random.default_rng(campaign_stream(cfg.seed, 3, 1).spawn(2)[1])
        assert np.array_equal(type(bed).evaluate_many(bed, points, noise), psi)

    @staticmethod
    def sized_run(cfg, **kwargs):
        """run_quantized_sq on a bed that records the size of each chunk."""
        bed = cfg.testbed
        sizes = []

        def evaluate(points, rng):
            sizes.append(len(points))
            return type(bed).evaluate_many(bed, points, rng)

        bed.evaluate_many = evaluate
        part = make_partition(cfg)
        return sizes, lambda: run_quantized_sq(
            cfg, part, campaign_stream(cfg.seed, 2, 0), **kwargs
        )

    @pytest.mark.parametrize("cap", [7, 64, 1000, 8192])
    def test_chunks_run_to_where_the_rule_can_fire(self, cap):
        # The first chunk runs to the stop floor, before which no campaign
        # stops, and is consumed whole. Each later chunk runs to where the
        # rule would fire if the variance stayed where it is, at most
        # max(n, 64) samples, so evaluated_n <= 2n + 64.
        cfg = moderate_config()
        rule = cfg.stop_rule
        sizes, run = self.sized_run(cfg, chunk_size=cap, record_trace=True)
        res = run()
        assert sizes[0] == min(cap, cfg.n_max, rule.n_floor) <= res.n
        drawn = sizes[0]
        for k in sizes[1:]:
            sigma = float(res.trace.sigma_hat[drawn - 1])  # at n = drawn
            assert k == min(cap, rule.first_stop(sigma) - drawn, max(drawn, 64))
            assert 1 <= k <= min(cap, max(drawn, 64))
            drawn += k
        assert (res.chunks, res.evaluated_n) == (len(sizes), drawn)
        assert drawn - sizes[-1] < res.n <= drawn
        assert res.evaluated_n <= 2 * res.n + 64
        assert len(sizes) > 1

    def test_first_chunk_stops_at_n_max_below_the_floor(self):
        cfg = moderate_config(n_max=500)
        assert cfg.stop_rule.n_floor > 500
        sizes, run = self.sized_run(cfg)
        with pytest.raises(NonTerminated) as raised:
            run()
        assert sizes == [500]
        assert (raised.value.result.n, raised.value.result.evaluated_n) == (500, 500)

    def test_chunk_size_must_be_positive(self):
        cfg = zero_variance_config()
        with pytest.raises(DomainError):
            run_quantized_sq(cfg, make_partition(cfg), 0, chunk_size=0)

    def test_displacement_chunk_invariance(self):
        bed = DisplacementTestbed()
        cfg = CampaignConfig(
            accuracy=AccuracySpec(0.1, 0.05, 0.1),
            joint=None,
            sampler={"kind": "monte_carlo"},
            testbed=bed,
            seed=11,
            n_max=100_000,
        )
        part = make_partition(cfg)
        r1 = run_quantized_sq(cfg, part, campaign_stream(11, 0, 0), chunk_size=977)
        r2 = run_quantized_sq(cfg, part, campaign_stream(11, 0, 0), chunk_size=8192)
        assert outcome(r1) == outcome(r2)
        assert r1.raw_estimate == r2.raw_estimate

    def test_zero_variance_terminates_at_88(self):
        cfg = zero_variance_config()
        part = make_partition(cfg)
        res = run_quantized_sq(cfg, part, campaign_stream(1, 0, 0))
        assert res.n == 88
        assert res.sigma_hat_final == 0.0
        assert res.raw_estimate == 0.02
        assert res.cell == 0
        assert res.quantized_estimate == part.midpoint(0)

    def test_n_max_raises_non_terminated_with_partial_result(self):
        cfg = moderate_config(n_max=500)
        part = make_partition(cfg)
        with pytest.raises(NonTerminated) as info:
            run_quantized_sq(cfg, part, campaign_stream(7, 0, 0))
        partial = info.value.result
        assert partial.n == 500
        assert not partial.terminated
        assert 0.0 <= partial.raw_estimate <= 1.0

    def test_non_terminated_partial_result_traces_n_max_rows(self):
        cfg = moderate_config(n_max=500)
        with pytest.raises(NonTerminated) as info:
            run_quantized_sq(
                cfg, make_partition(cfg), campaign_stream(7, 0, 0), record_trace=True
            )
        partial = info.value.result
        t = partial.trace
        assert len(t) == cfg.n_max == partial.n
        assert list(t.n) == list(range(1, cfg.n_max + 1))
        assert t.estimate[-1] == partial.raw_estimate
        assert t.sigma_hat[-1] == partial.sigma_hat_final
        assert (t.bernstein[-1], t.hoeffding[-1]) == (
            partial.bernstein_radius_final,
            partial.hoeffding_radius_final,
        )

    @pytest.mark.parametrize(
        "overrides",
        [
            {"accuracy": AccuracySpec(1e-160, 0.01, 0.1)},  # gamma**2 underflows
            {"accuracy": AccuracySpec(1e-300, 0.01, 0.1)},
            {"joint": 1e160},  # product**2 overflows
        ],
    )
    def test_out_of_reach_gamma_raises_non_terminated(self, overrides):
        part = make_partition(moderate_config())
        cfg = moderate_config(n_max=500, **overrides)
        with pytest.raises(NonTerminated) as info:
            run_quantized_sq(cfg, part, campaign_stream(7, 0, 0))
        assert info.value.result.n == 500

    def test_off_midpoint_quantization_raises(self, monkeypatch):
        real = harness.quantize

        def off_midpoint(value, partition):
            return real(value, partition)._replace(value=value)

        monkeypatch.setattr(harness, "quantize", off_midpoint)
        cfg = zero_variance_config()
        with pytest.raises(ContractViolation, match="midpoint"):
            run_quantized_sq(cfg, make_partition(cfg), campaign_stream(1, 0, 0))

    def test_stop_above_gamma_raises(self, monkeypatch):
        monkeypatch.setattr(_kernels.StopRule, "final", lambda rule, state: (0.5, 0.5))
        cfg = zero_variance_config()
        with pytest.raises(ContractViolation, match="above gamma"):
            run_quantized_sq(cfg, make_partition(cfg), campaign_stream(1, 0, 0))

    def test_undeclarable_value_raises_bound_violation(self):
        # Importance values on the moderate bed reach 0.2; declaring a
        # tighter joint bound voids the radii and must abort.
        cfg = moderate_config("importance", joint=0.1)
        part = make_partition(cfg)
        with pytest.raises(BoundViolation):
            run_quantized_sq(cfg, part, campaign_stream(7, 0, 0))

    def test_nan_measure_raises_bound_violation_at_the_first_chunk(self):
        # NaN > bound is False, so the check must read "not <= bound".
        tracking = json.loads(
            (resources.files("repsq") / "configs" / "tracking_ais.json").read_text()
        )
        tracking.update(sampler={"kind": "monte_carlo"}, range_term_mode="linear-range")
        cfg = CampaignConfig.from_dict(tracking)
        bed = cfg.testbed
        chunks = []

        def evaluate_with_nan(points, rng):
            psi = type(bed).evaluate_many(bed, points, rng)
            psi[-1] = np.nan
            chunks.append(len(points))
            return psi

        bed.evaluate_many = evaluate_with_nan
        with pytest.raises(BoundViolation, match="testbed 'tracking-sim' gave weighted measure nan"):
            run_quantized_sq(cfg, make_partition(cfg), campaign_stream(1, 0, 0))
        assert len(chunks) == 1

    @staticmethod
    def interval_config(m_low, m_high, values, joint=None):
        """A Monte Carlo config over a caller's bed on [m_low, m_high]
        whose tests return ``values`` in turn."""

        class CyclingBed:
            domain = BoxDomain([0.0], [1.0])
            target = BoxUniform(domain)

            def evaluate_many(self, xs, rng):
                return np.resize(np.asarray(values, dtype=np.float64), len(xs))

        bed = CyclingBed()
        bed.m_low, bed.m_high = m_low, m_high
        return CampaignConfig(
            accuracy=AccuracySpec(0.25, 0.05, 0.1), joint=joint,
            sampler={"kind": "monte_carlo"}, testbed=bed, seed=3, n_max=10_000,
        )

    def test_values_inside_an_interval_away_from_zero_run(self):
        # 2.5 lies in [1, 3]; a ball of radius m = 2 around 0 misses it.
        cfg = self.interval_config(1.0, 3.0, [2.5])
        assert cfg.value_range == (1.0, 3.0) and cfg.stop_rule.product == 2.0
        res = run_quantized_sq(cfg, make_partition(cfg), campaign_stream(3, 0, 0))
        assert res.terminated and res.raw_estimate == 2.5 and res.n == cfg.stop_rule.n_floor

    @pytest.mark.parametrize("values, bad", [([-1.0, 1.9], "1.9"), ([0.5, -1.5], "-1.5")])
    def test_values_outside_the_interval_raise_bound_violation(self, values, bad):
        # Both lie within the ball of radius m = 2 around 0, not in [-1, 1].
        cfg = self.interval_config(-1.0, 1.0, values)
        match = rf"weighted measure {bad}, outside the interval \[-1, 1\]"
        with pytest.raises(BoundViolation, match=match):
            run_quantized_sq(cfg, make_partition(cfg), campaign_stream(3, 0, 0))

    @pytest.mark.parametrize("joint", [None, 1.0, 10.0])
    def test_range_of_an_interval_straddling_zero_is_its_width(self, joint):
        # A joint of 1 cuts nothing from [-1, 1], whose width is 2 = 2 * joint.
        cfg = self.interval_config(-1.0, 1.0, [1.0, -1.0], joint=joint)
        assert cfg.value_range == (-1.0, 1.0) and cfg.stop_rule.product == 2.0
        # A joint wider than the interval does not widen P either.
        cfg = self.interval_config(0.0, 1.0, [0.5], joint=joint)
        assert cfg.value_range == (0.0, 1.0) and cfg.stop_rule.product == 1.0

    def test_joint_that_leaves_no_value_raises_bound_violation(self):
        # A joint of 1 cuts [1, 3] to [1, 1], an interval of width 0.
        for joint in (0.5, 1.0):
            match = rf"joint bound {joint:g} leaves no value of the interval \[1, 3\]"
            with pytest.raises(BoundViolation, match=match):
                self.interval_config(1.0, 3.0, [2.5], joint=joint)

    def test_range_that_overflows_is_rejected(self):
        # Both ends are finite; their distance is not.
        with pytest.raises(DomainError, match="range P must be finite"):
            self.interval_config(-1e308, 1e308, [0.0])

    def test_each_sampler_kind_checks_its_own_interval(self):
        # AIS weights lie in [0, 1/mix_p]; a declared joint also bounds |psi * w|,
        # and the width of the cut interval is the range of the radii.
        ais = TestBundledConfigs.config("tracking_ais")
        assert ais.value_range == (0.0, 10.0) and ais.stop_rule.product == 10.0
        mc = dataclasses.replace(ais, sampler={"kind": "monte_carlo"})
        assert mc.value_range == (0.0, 1.0) and mc.stop_rule.product == 1.0
        rare = rare_config()
        assert rare.value_range == (0.0, 1e-4) and rare.stop_rule.product == 1e-4

    def test_callers_bed_over_another_interval_is_rejected(self):
        # The interval is the bed's: the displacement bed measures on
        # [0, 6], tracking_ais on [0, 1], so tracking's grid does not fit.
        cfg = TestBundledConfigs.config("tracking_ais")
        moved = dataclasses.replace(cfg, testbed=DisplacementTestbed())
        assert (moved.m_low, moved.m_high, moved.value_range) == (0.0, 6.0, (0.0, 60.0))
        with pytest.raises(DomainError, match=r"partition interval \[0.0, 1.0\]"):
            run_quantized_sq(moved, make_partition(cfg), campaign_stream(1, 0, 0))

    def test_partition_over_another_interval_is_rejected(self):
        cfg = TestBundledConfigs.config("tracking_ais")
        part = build_partition(0.0, 6.0, compute_alpha(cfg.accuracy), 0.0)
        with pytest.raises(DomainError, match=r"partition interval \[0.0, 6.0\]"):
            run_quantized_sq(cfg, part, campaign_stream(1, 0, 0))

    def test_ais_on_a_callers_bed_without_a_box_domain_is_a_domain_error(self):
        cfg = TestBundledConfigs.config("tracking_ais")
        with pytest.raises(DomainError, match="box-domain"):
            dataclasses.replace(cfg, testbed=moderate_cellular_testbed())

    def test_trace_covers_exactly_the_consumed_prefix(self):
        cfg = zero_variance_config()
        part = make_partition(cfg)
        res = run_quantized_sq(
            cfg, part, campaign_stream(1, 0, 0), record_trace=True
        )
        t = res.trace
        assert len(t) == res.n
        assert int(t.n[0]) == 1 and int(t.n[-1]) == res.n
        assert t.bernstein[-1] == res.bernstein_radius_final
        assert t.hoeffding[-1] == res.hoeffding_radius_final
        assert t.estimate[-1] == res.raw_estimate
        # radius first reaches gamma exactly at the final sample
        live = ~np.isnan(t.bernstein[:-1])
        assert np.all(
            np.minimum(t.bernstein[:-1][live], t.hoeffding[:-1][live]) > 0.1
        )

    def test_accuracy_over_1000_seeded_campaigns(self):
        # Moderate bed at gamma = 0.1 * r_star: the quantized estimate
        # must land within gamma + alpha/2 of the enumerated truth in at
        # least 95% of campaigns (observed: all but a handful).
        bed = moderate_cellular_testbed()
        cfg = CampaignConfig(
            accuracy=AccuracySpec(0.005, 0.05, 0.1),
            joint=0.2,
            sampler={"kind": "importance"},
            testbed=bed,
            seed=314,
            n_max=100_000,
        )
        part = make_partition(cfg)
        tol = 0.005 + 0.5 * part.alpha
        r_star = bed.oracle_r_star
        hits = 0
        for pair in range(1000):
            res = run_quantized_sq(
                cfg,
                part,
                campaign_stream(cfg.seed, pair, 0),
                chunk_size=1024,
            )
            hits += abs(res.quantized_estimate - r_star) <= tol
        assert hits >= 950

    def test_tracking_ais_campaign_terminates_and_grades(self):
        bed = TrackingTestbed()
        cfg = CampaignConfig(
            accuracy=AccuracySpec(0.04, 0.05, 0.1),
            joint=None,
            sampler={"kind": "ais", "mix_p": 0.1, "d": 10, "l_r": 0.1},
            testbed=bed,
            seed=5,
            n_max=200_000,
        )
        part = make_partition(cfg)
        # The weighted refit settles inside the shape range, so the
        # campaign clamps no fit and warns of nothing.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = run_quantized_sq(cfg, part, campaign_stream(5, 0, 0))
        assert res.clamped_fits == 0
        assert [str(w.message) for w in caught] == []
        assert res.terminated
        assert res.ais_final_proposal is not None
        assert abs(res.quantized_estimate - bed.oracle_r_star) <= 0.04 + 0.5 * part.alpha
        shapes = res.ais_final_proposal["shapes_a"]
        assert len(shapes) == 3 and all(0.05 <= s <= 100.0 for s in shapes)


class TestInitiatorReplicator:
    def test_artifact_embeds_wide_alpha(self):
        bed = DisplacementTestbed()
        cfg = CampaignConfig(
            accuracy=AccuracySpec(0.1, 0.05, 0.1),
            joint=None,
            sampler={"kind": "monte_carlo"},
            testbed=bed,
            seed=11,
            n_max=100_000,
        )
        art, res = initiator(cfg)
        assert art["grid"]["alpha"] == pytest.approx(ALPHA_WIDE, rel=1e-12)
        assert res.terminated

    def test_artifact_embeds_rare_alpha(self):
        art, _ = initiator(rare_config())
        assert art["grid"]["alpha"] == pytest.approx(ALPHA_RARE, rel=1e-12)

    def test_replicator_reproduces_the_cell(self):
        cfg = rare_config()
        art, ires = initiator(cfg)
        rres = replicator(art, seed=999)
        assert rres.cell == ires.cell
        assert rres.quantized_estimate == ires.quantized_estimate

    def test_replicator_rejects_tampered_artifact(self):
        art, _ = initiator(rare_config())
        bad = dict(art)
        bad["config"] = dict(art["config"], n_max=art["config"]["n_max"] + 1)
        with pytest.raises(ArtifactVersionMismatch):
            replicator(bad, seed=1)

    def test_non_integral_n_max_in_artifact_raises(self):
        art, _ = initiator(zero_variance_config())
        bad = dict(art)
        bad["config"] = dict(art["config"], n_max=art["config"]["n_max"] + 0.7)
        bad["checksum"] = art_mod.artifact_checksum(bad)
        loaded = art_mod.load_artifact(art_mod.dump_artifact(bad))
        with pytest.raises(ArtifactVersionMismatch, match="n_max"):
            replicator(loaded, seed=1)

    def test_replicator_rejects_alpha_not_from_contract(self):
        art, _ = initiator(zero_variance_config())
        bad = dict(art)
        bad["grid"] = dict(art["grid"], alpha=0.19)  # same 32 cells on [0, 6]
        bad["checksum"] = art_mod.artifact_checksum(bad)
        with pytest.raises(ArtifactVersionMismatch, match="accuracy contract"):
            replicator(bad, seed=1)

    def test_sampler_override_cross_strategy(self):
        cfg = moderate_config("monte_carlo")
        art, ires = initiator(cfg)
        rres = replicator(art, seed=404, sampler_override={"kind": "importance"})
        assert rres.sampler_kind == "importance"
        assert rres.cell == ires.cell  # seeded outcome; disagreement odds ~0.5%

    def test_override_violating_weight_cap_is_rejected(self):
        cfg = TestBundledConfigs.config("tracking_ais")
        art = art_mod.build_artifact(cfg, make_partition(cfg))
        with pytest.raises(BoundViolation, match="no provable weight cap"):
            replicator(art, seed=2, sampler_override={"kind": "ais", "mix_p": 0.0})

    def test_replication_round_trips_fields(self):
        cfg = rare_config()
        art, _ = initiator(cfg)
        back, partition, stream = replication(art, seed=55)
        assert partition == make_partition(cfg)
        assert stream.entropy == 55 and stream.spawn_key == (0, harness.REPLICATOR_ARM)
        assert back.accuracy == cfg.accuracy
        assert back.weight_cap == cfg.weight_cap and back.joint == cfg.joint
        assert back.testbed == cfg.testbed
        assert back.seed == 55
        assert back == dataclasses.replace(cfg, seed=55)

    @pytest.mark.parametrize(
        "edit, message",
        [
            # the reader would fill in the default
            (lambda c: c.pop("n_min"), "as a config writes it"),
            (lambda c: c.__setitem__("seed", 3), "as a config writes it"),
            (lambda c: c.__setitem__("extra", 1), r"does not read \['extra'\]"),
            (lambda c: c["bounds"].pop("joint"), "as a config writes it"),
        ],
        ids=["dropped-default", "sealed-seed", "extra-key", "dropped-joint"],
    )
    def test_sealed_config_must_read_back_as_written(self, edit, message):
        art, _ = initiator(zero_variance_config())
        bad = json.loads(json.dumps(art))
        edit(bad["config"])
        bad["checksum"] = art_mod.artifact_checksum(bad)
        with pytest.raises(ArtifactVersionMismatch, match=message):
            replicator(load_artifact(dump_artifact(bad)), seed=1)

    def test_replicator_input_errors_are_not_artifact_errors(self):
        art, _ = initiator(moderate_config("monte_carlo"))
        for seed in (-1, 2.5, True, False):
            with pytest.raises(DomainError, match="seed"):
                replicator(art, seed=seed)
        with pytest.raises(DomainError):
            replicator(art, seed=1, sampler_override={"kind": "nope"})

    @pytest.mark.parametrize("sampler", ["monte_carlo", 5, ["kind"]])
    def test_a_sampler_that_is_not_an_object_is_an_input_error(self, sampler):
        cfg = moderate_config("monte_carlo")
        art, _ = initiator(cfg)
        with pytest.raises(DomainError, match="sampler_override must be an object"):
            replicator(art, seed=1, sampler_override=sampler)
        with pytest.raises(DomainError, match="replicator_sampler must be an object"):
            pairwise_experiment(cfg, 1, replicator_sampler=sampler)


class TestPairwiseExperiment:
    def test_single_pair_determinism(self):
        cfg = rare_config()
        a = pairwise_experiment(cfg, 1)
        b = pairwise_experiment(cfg, 1)
        assert a.rows == b.rows
        assert a.to_dict() == b.to_dict()

    def test_rare_event_pairs_repeat_and_grade(self):
        cfg = rare_config()
        report = pairwise_experiment(cfg, 40)
        assert report.n_pairs == 40 and report.n_trials == 80
        assert report.repeat_rate == 1.0  # disagreement odds per pair ~1e-5
        assert report.accuracy_hit_rate == 1.0
        assert report.effort["initiator"]["min"] >= 2
        assert report.effort["replicator"]["max"] < 200
        assert len(report.partition_checksum) == 64
        assert report.tolerance == pytest.approx(3e-9 + ALPHA_RARE / 2, rel=1e-12)

    def test_rows_schema(self):
        report = pairwise_experiment(rare_config(), 2)
        assert len(report.rows) == 4
        for row in report.rows:
            assert set(row) == {
                "pair_id",
                "arm",
                "raw_estimate",
                "quantized_estimate",
                "n",
                "evaluated_n",
                "sigma_hat",
                "repeat",
            }
            assert row["n"] <= row["evaluated_n"]

    def test_mixed_sampler_pairs_meet_the_floor(self):
        cfg = moderate_config("monte_carlo", seed=909)
        report = pairwise_experiment(
            cfg, 25, replicator_sampler={"kind": "importance"}
        )
        assert report.sampler_initiator == "monte_carlo"
        assert report.sampler_replicator == "importance"
        # per-pair agreement odds ~0.995; 20/25 is a logic-failure floor
        assert report.repeat_count >= 20
        assert report.accuracy_hit_rate == 1.0

    def test_star_mode_shares_one_initiator(self):
        bed = DisplacementTestbed()
        cfg = CampaignConfig(
            accuracy=AccuracySpec(0.1, 0.05, 0.1),
            joint=None,
            sampler={"kind": "monte_carlo"},
            testbed=bed,
            seed=17,
            n_max=100_000,
        )
        report = pairwise_experiment(cfg, 10, star=True)
        assert report.star
        assert report.n_trials == 11  # one initiator + ten replicators
        assert report.rows[0]["arm"] == "initiator"
        assert sum(r["arm"] == "initiator" for r in report.rows) == 1
        assert report.repeat_rate == 1.0  # midpoint sits 16 sigma from the edges
        assert report.effort["initiator"]["min"] == report.effort["initiator"]["max"]

    @pytest.mark.parametrize(
        "star, replicator_sampler",
        [(False, None), (True, None), (False, {"kind": "importance"})],
        ids=["default", "star", "override"],
    )
    def test_report_does_not_depend_on_run_order(self, star, replicator_sampler):
        # Each arm run on its own, pairs in reverse order, gives the
        # report's rows and counts.
        cfg = moderate_config("monte_carlo", seed=31)
        n_pairs = 5
        report = pairwise_experiment(
            cfg, n_pairs, replicator_sampler=replicator_sampler, star=star
        )
        bed = cfg.testbed
        part = make_partition(cfg)
        rep_cfg = cfg
        if replicator_sampler is not None:
            rep_cfg = dataclasses.replace(cfg, sampler=replicator_sampler)

        def arm(config, pair, arm_id):
            stream = campaign_stream(cfg.seed, pair, arm_id)
            return run_quantized_sq(config, part, stream)

        reps = {p: arm(rep_cfg, p, 1) for p in reversed(range(n_pairs))}
        inits = {p: arm(cfg, p, 0) for p in reversed(range(1 if star else n_pairs))}

        def row(pair, name, res, same):
            return {
                "pair_id": pair,
                "arm": name,
                "raw_estimate": res.raw_estimate,
                "quantized_estimate": res.quantized_estimate,
                "n": res.n,
                "evaluated_n": res.evaluated_n,
                "sigma_hat": res.sigma_hat_final,
                "repeat": same,
            }

        rows = [row(0, "initiator", inits[0], True)] if star else []
        repeats = 0
        for p in range(n_pairs):
            init, rep = inits[0 if star else p], reps[p]
            same = init.cell == rep.cell and init.quantized_estimate == rep.quantized_estimate
            repeats += same
            if not star:
                rows.append(row(p, "initiator", init, same))
            rows.append(row(p, "replicator", rep, same))
        trials = list(inits.values()) + list(reps.values())
        r_star = bed.oracle_r_star
        assert report.rows == rows
        assert report.repeat_count == repeats
        assert report.n_trials == len(trials) == n_pairs + (1 if star else n_pairs)
        assert report.accuracy_hits == sum(
            abs(r.quantized_estimate - r_star) <= report.tolerance for r in trials
        )
        assert report.raw_gamma_hits == sum(
            abs(r.raw_estimate - r_star) <= report.gamma for r in trials
        )
        for name, runs in (("initiator", inits), ("replicator", reps)):
            ns = [runs[p].n for p in sorted(runs)]
            evaluated = [runs[p].evaluated_n for p in sorted(runs)]
            assert report.effort[name] == {
                "min": min(ns),
                "mean": float(np.mean(ns)),
                "max": max(ns),
                "evaluated_n": {
                    "min": min(evaluated),
                    "mean": float(np.mean(evaluated)),
                    "max": max(evaluated),
                },
            }

    def test_oracle_too_coarse_refuses_grading(self):
        # The tracking quadrature's error estimate, ~1e-11, is above
        # gamma/10 at gamma = 1e-11.
        bed = TrackingTestbed()
        assert bed.oracle_se > 1e-12
        cfg = CampaignConfig(
            accuracy=AccuracySpec(1e-11, 0.05, 0.1),
            joint=None,
            sampler={"kind": "monte_carlo"},
            testbed=bed,
            seed=3,
        )
        with pytest.raises(OracleBudgetError):
            pairwise_experiment(cfg, 1)
        # NaN > gamma/10 is False, so the guard asks for oracle_se <= gamma/10.
        cfg = TestRunQuantizedSq.interval_config(0.0, 1.0, [0.5])
        cfg.testbed.oracle_r_star = cfg.testbed.oracle_se = math.nan
        with pytest.raises(OracleBudgetError, match="oracle error nan"):
            pairwise_experiment(cfg, 1)

    def test_n_pairs_validation(self):
        with pytest.raises(DomainError):
            pairwise_experiment(rare_config(), 0)

    @staticmethod
    def small_bound_report(range_term_mode):
        """200 pairs on a 2-cell bed whose declared bound on |psi*w| is
        0.02, below 1, where R^2 < R in the range term."""
        bed = rare_event_testbed(2, 0, masses=[0.01, 0.99], failure_probs=[0.2, 0])
        cfg = CampaignConfig(
            accuracy=AccuracySpec(5e-4, 0.05, 0.1),
            joint=0.02,
            sampler={"kind": "importance"},
            testbed=bed,
            seed=20260821,
            range_term_mode=range_term_mode,
        )
        return pairwise_experiment(cfg, 200)

    @staticmethod
    def raw_hit_rate_upper_bound(report):
        """Two-sided 95% Clopper-Pearson upper bound on P(|raw - r*| <= gamma)."""
        k, n = report.raw_gamma_hits, report.n_trials
        return 1.0 if k == n else float(scipy.stats.beta.ppf(0.975, k + 1, n - k))

    @pytest.mark.xfail(
        strict=True,
        reason="paper-exact puts R^2 in the range term, which is smaller than "
        "the empirical-Bernstein bound's R when R < 1: 251/400 raw hits, "
        "upper bound 0.675",
    )
    def test_paper_exact_radius_holds_with_a_bound_below_one(self):
        report = self.small_bound_report("paper-exact")
        assert self.raw_hit_rate_upper_bound(report) >= 1.0 - 0.05

    def test_linear_range_radius_holds_with_a_bound_below_one(self):
        report = self.small_bound_report("linear-range")
        assert report.raw_gamma_hits == report.n_trials == 400
        assert self.raw_hit_rate_upper_bound(report) >= 1.0 - 0.05


class TestEffortComparison:
    def test_zero_variance_anchor_rows(self):
        comp = effort_comparison(zero_variance_config())
        assert comp.n_terminated == 88
        assert comp.required_n_hoeffding == 185
        assert comp.terminated_by == "bernstein"
        rows = comp.rows()
        assert rows[-1]["n"] == 88 and rows[-1]["terminated_by"] == "bernstein"
        assert all(r["terminated_by"] == "" for r in rows[:-1])
        assert comp.effort_ratio == pytest.approx(88 / 185, rel=1e-12)

    def test_low_variance_rare_campaign_beats_fixed_range_hugely(self):
        comp = effort_comparison(rare_config())
        assert comp.terminated_by == "bernstein"
        assert comp.n_terminated < 100
        assert comp.required_n_hoeffding > 10**9
        assert comp.effort_ratio < 1e-6

    def test_maximal_variance_lets_the_fixed_range_rule_bind(self):
        # Bernoulli(0.5) values with product 1: the variance term of the
        # adaptive radius equals the fixed-range radius, so the extra
        # deterministic term keeps it strictly larger at every n.
        bed = CellularTestbed([0.5, 0.5], [0.5, 0.5], [0.5, 0.5])
        cfg = CampaignConfig(
            accuracy=AccuracySpec(0.05, 0.05, 0.1),
            joint=1.0,
            sampler={"kind": "monte_carlo"},
            testbed=bed,
            seed=23,
            n_max=10_000,
        )
        comp = effort_comparison(cfg)
        assert comp.terminated_by == "hoeffding"
        assert comp.n_terminated == comp.required_n_hoeffding
        live = ~np.isnan(comp.trace.bernstein)
        assert np.all(
            comp.trace.bernstein[live] > comp.trace.hoeffding[live]
        )


class TestBundledConfigs:
    """Every bundled config, through run_quantized_sq."""

    NAMES = [
        "rare_event_acceptance",
        "moderate_cellular",
        "displacement_star",
        "zero_variance",
        "tracking_ais",
    ]
    CELLULAR = [name for name in NAMES if name != "tracking_ais"]

    @staticmethod
    def config(name):
        text = (resources.files("repsq") / "configs" / f"{name}.json").read_text()
        return CampaignConfig.from_dict(json.loads(text))

    @pytest.fixture(scope="class")
    def run(self):
        cache = {}

        def run(name, chunk_size=8192, fresh=False):
            key = (name, chunk_size)
            if fresh or key not in cache:
                cfg = self.config(name)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", ClampWarning)
                    cache[key] = run_quantized_sq(
                        cfg,
                        make_partition(cfg),
                        campaign_stream(cfg.seed, 0, 0),
                        chunk_size=chunk_size,
                    )
            return cache[key]

        return run

    @pytest.mark.parametrize("name", NAMES)
    def test_file_is_what_its_config_writes(self, name):
        """So a bundled file holds no retired key and no key the reader
        would fill with a default."""
        text = (resources.files("repsq") / "configs" / f"{name}.json").read_text()
        assert json.loads(text) == CampaignConfig.from_dict(json.loads(text)).to_dict()

    @pytest.mark.parametrize("name", NAMES)
    def test_evaluated_n_bounds_speculation(self, run, name):
        res = run(name)
        assert res.n <= res.evaluated_n
        if name == "tracking_ais":
            d = harness._Ais.options(self.config(name).sampler).d
            assert res.evaluated_n <= res.n + d - 1
            assert res.chunks == math.ceil(res.evaluated_n / d)
        else:
            assert res.evaluated_n <= 2 * res.n + 64

    @pytest.mark.parametrize("name", CELLULAR)
    def test_result_is_bitwise_chunk_invariant(self, run, name):
        # AIS draws one batch of d per chunk whatever chunk_size says, and
        # chunk_size caps only its scan blocks (TestAisBlockScan).
        base = outcome(run(name))
        for size in (7, 64, 997):
            assert outcome(run(name, size)) == base

    def test_trace_is_bitwise_chunk_invariant(self):
        # The trace replays the consumed values in one pass, so it is the
        # same however the campaign was chunked.
        cfg = self.config("moderate_cellular")
        part = make_partition(cfg)
        traces = []
        for size in (1, 7, 64, 8192):
            res = run_quantized_sq(
                cfg, part, campaign_stream(cfg.seed, 0, 0), record_trace=True, chunk_size=size
            )
            assert len(res.trace) == res.n
            traces.append(dataclasses.astuple(res.trace))
        for cols in traces[1:]:
            for got, want in zip(cols, traces[0]):
                np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("name", CELLULAR + ["early_stop", "deep_scan"])
    def test_no_campaign_stops_before_the_floor(self, name):
        # The Bernstein radius is never below its range term, so the
        # first chunk, n_floor long, is never drawn past the stop.
        if name in self.CELLULAR:
            cfg = self.config(name)
        else:
            path = Path(__file__).resolve().parents[1] / "campaign_bench" / "workloads"
            spec = json.loads((path / f"{name}.json").read_text())
            cfg = CampaignConfig.from_dict(spec["config"])
        rule = cfg.stop_rule
        assert rule.n_floor == rule.first_stop(0.0)
        part = make_partition(cfg)
        for pair in range(4):
            res = run_quantized_sq(cfg, part, campaign_stream(cfg.seed, pair, 1))
            assert res.n >= rule.n_floor

    @pytest.mark.parametrize("name", NAMES)
    def test_to_dict_is_byte_stable_across_reruns(self, run, name):
        first = json.dumps(run(name).to_dict(), sort_keys=True)
        again = json.dumps(run(name, fresh=True).to_dict(), sort_keys=True)
        assert again == first

    @pytest.mark.parametrize("name", NAMES)
    def test_final_fixed_range_radius_is_the_scalar_reference(self, run, name):
        cfg = self.config(name)
        res = run(name)
        p, c = cfg.stop_rule.product, cfg.accuracy.c
        assert res.hoeffding_radius_final == hoeffding_radius(res.n, p, c)

    @pytest.mark.parametrize("name", CELLULAR)
    def test_effort_trace_ends_at_the_result(self, name):
        cfg = self.config(name)
        comp = effort_comparison(cfg)
        res = comp.result
        last = comp.rows()[-1]
        n, p, c = comp.required_n_hoeffding, cfg.stop_rule.product, cfg.accuracy.c
        assert hoeffding_radius(n, p, c) <= comp.gamma < hoeffding_radius(n - 1, p, c)
        assert (
            last["n"],
            last["estimate"],
            last["sigma_hat"],
            last["bernstein_radius"],
            last["hoeffding_radius"],
        ) == (
            res.n,
            res.raw_estimate,
            res.sigma_hat_final,
            res.bernstein_radius_final,
            res.hoeffding_radius_final,
        )


class TestAisBlockScan:
    """AIS batches before the stop floor are scanned in blocks of at
    most chunk_size values; the blocks change how often the kernel is
    called, not what it computes."""

    CONFIG = dict(
        accuracy=AccuracySpec(0.1, 0.05, 0.1),
        joint=None, sampler={"kind": "ais", "mix_p": 0.1, "d": 10}, seed=5, n_max=20_000,
    )

    def run(self, chunk_size):
        cfg = CampaignConfig(**self.CONFIG, testbed=TrackingTestbed())
        res = run_quantized_sq(
            cfg, make_partition(cfg), campaign_stream(5, 0, 0),
            record_trace=True, chunk_size=chunk_size,
        )
        return cfg, res

    def test_result_and_trace_are_bitwise_chunk_invariant(self):
        def fields(res):
            return {f.name: getattr(res, f.name) for f in dataclasses.fields(res)
                    if f.name not in ("wall_time_s", "trace")}

        _, base = self.run(8192)
        assert base.terminated
        for size in (1, 10, 64, 997):
            _, res = self.run(size)
            assert fields(res) == fields(base)
            for got, want in zip(dataclasses.astuple(res.trace), dataclasses.astuple(base.trace)):
                np.testing.assert_array_equal(got, want)

    def test_blocks_hold_at_most_chunk_size_values(self, monkeypatch):
        scanned = []
        real = _kernels.scan_terminate

        def scan(values, state, rule):
            scanned.append(len(values))
            return real(values, state, rule)

        monkeypatch.setattr(_kernels, "scan_terminate", scan)
        cfg, res = self.run(64)
        assert sum(scanned) == res.evaluated_n
        assert max(scanned) <= 64 and len(scanned) < res.chunks
        # From the floor on every batch can stop the campaign, so each is
        # scanned alone.
        ends = np.cumsum(scanned)
        past = [k for k, end in zip(scanned, ends) if end - k >= cfg.stop_rule.n_floor]
        assert past and set(past) == {10}


class TestConvergenceStudy:
    def test_errors_collapse_between_checkpoints(self):
        bed = convergence_study_testbed()
        study = convergence_study(bed, seeds=range(20), checkpoints=(10**3, 10**5))
        assert study.decrease_count == 20
        # early errors pinned near the heavy-cell gap, late errors at CLT scale
        assert np.all(study.errors[:, 0] > 0.2)
        assert np.all(study.errors[:, -1] <= 5.0 * study.error_sd_at(10**5))

    def test_value_sd_matches_direct_enumeration(self):
        bed = convergence_study_testbed()
        study = convergence_study(bed, seeds=[0], checkpoints=(10, 20))
        p = bed.target.masses
        q = bed.proposal.masses
        second = math.fsum(
            float(q[i]) * float(bed.failure_probs[i]) * (float(p[i] / q[i])) ** 2
            for i in range(bed.n_cells)
        )
        want = math.sqrt(second - bed.oracle_r_star**2)
        assert study.value_sd == pytest.approx(want, rel=1e-12)
        assert study.oracle_r_star == pytest.approx(0.4109470266496501, rel=1e-12)

    def test_requires_cellular_testbed(self):
        with pytest.raises(DomainError):
            convergence_study(DisplacementTestbed(), seeds=[0])

    def test_checkpoint_validation(self):
        bed = convergence_study_testbed()
        with pytest.raises(DomainError):
            convergence_study(bed, seeds=[0], checkpoints=(1000,))


class TestReportInvariants:
    def test_partition_checksum_matches_artifact(self):
        cfg = rare_config()
        report = pairwise_experiment(cfg, 2)
        art, _ = initiator(cfg)
        assert report.partition_checksum == art["checksum"]

    def test_effort_counts_are_consistent_with_rows(self):
        report = pairwise_experiment(rare_config(), 5)
        init_ns = [r["n"] for r in report.rows if r["arm"] == "initiator"]
        rep_ns = [r["n"] for r in report.rows if r["arm"] == "replicator"]
        assert report.effort["initiator"]["min"] == min(init_ns)
        assert report.effort["initiator"]["max"] == max(init_ns)
        assert report.effort["replicator"]["mean"] == pytest.approx(
            sum(rep_ns) / len(rep_ns)
        )
        for arm in ("initiator", "replicator"):
            evaluated = [r["evaluated_n"] for r in report.rows if r["arm"] == arm]
            assert report.effort[arm]["evaluated_n"] == {
                "min": min(evaluated),
                "mean": pytest.approx(sum(evaluated) / len(evaluated)),
                "max": max(evaluated),
            }
        assert report.range_term_sound is False  # paper-exact at P = 1e-4
        assert report.to_dict()["range_term_sound"] is False

    def test_uniform_random_offset_is_seed_stable(self):
        cfg = dataclasses.replace(rare_config(), offset_policy="uniform-random")
        a1, _ = initiator(cfg)
        a2, _ = initiator(cfg)
        assert a1["grid"]["offset"] == a2["grid"]["offset"]
        off = a1["grid"]["offset"]
        assert 0.0 <= off < a1["grid"]["alpha"]
        other = dataclasses.replace(cfg, seed=cfg.seed + 1)
        a3, _ = initiator(other)
        assert a3["grid"]["offset"] != a1["grid"]["offset"]
