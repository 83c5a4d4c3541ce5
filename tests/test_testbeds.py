"""Testbeds: loss function arithmetic, exact oracles, and their
determinism contracts.

The cellular oracle is cross-checked by an independent Decimal
enumeration, and the displacement oracle's closed form against
simulation where the clip binds. The tracking evaluator draws each
loss from its sufficient statistic (one noncentral chi-square value per
command): it is pinned bitwise to that expression, and its law is
checked against the exact first two moments and, by a two-sample
Kolmogorov-Smirnov test, against losses of simulated 150-step
trajectories. The tracking oracle's closed-form conditional mean is
checked against the evaluator, and its quadrature against a
noncentral chi-square Monte Carlo, a finer rule and the mean of the
evaluator's draws over the box.
"""

import dataclasses
import json
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import repsq.testbeds as testbeds_mod
from repsq.artifact import build_artifact
from repsq.errors import BoundViolation, DomainError
from repsq.harness import CampaignConfig, convergence_study
from repsq.quantize import AccuracySpec, build_partition, compute_alpha
from repsq.testbeds import (
    TRAJECTORY_STEPS,
    CellularTestbed,
    DisplacementTestbed,
    TrackingTestbed,
    convergence_study_testbed,
    moderate_cellular_testbed,
    rare_event_acceptance_testbed,
    rare_event_testbed,
    testbed_from_spec as build_from_spec,
    tracking_loss,
)


class TestTrackingLoss:
    def test_perfect_tracking_is_zero(self):
        cmd = np.array([0.1, -0.2, 0.05])
        obs = np.tile(cmd, (TRAJECTORY_STEPS, 1))
        assert tracking_loss(obs, cmd) == 0.0

    def test_half_loss_at_log2_over_6(self):
        cmd = np.zeros(3)
        obs = np.zeros((TRAJECTORY_STEPS, 3))
        obs[0, 0] = math.sqrt(math.log(2.0) / 6.0)
        assert tracking_loss(obs, cmd) == pytest.approx(0.5, rel=1e-12)

    def test_constant_deviation_norm(self):
        # 150 steps at squared deviation 0.01 each: exponent -9.
        cmd = np.array([0.2, 0.0, 0.0])
        obs = np.tile(cmd + np.array([0.1, 0.0, 0.0]), (TRAJECTORY_STEPS, 1))
        assert tracking_loss(obs, cmd) == pytest.approx(
            0.99987659019591332, rel=1e-12
        )

    def test_monotone_in_each_step_deviation(self):
        cmd = np.zeros(3)
        obs = np.full((TRAJECTORY_STEPS, 3), 0.01)
        base = tracking_loss(obs, cmd)
        bumped = obs.copy()
        bumped[77, 1] += 0.005
        assert tracking_loss(bumped, cmd) > base

    def test_stays_below_one(self):
        cmd = np.zeros(3)
        obs = np.full((TRAJECTORY_STEPS, 3), 0.05)
        assert tracking_loss(obs, cmd) < 1.0

    def test_input_validation(self):
        cmd = np.zeros(3)
        with pytest.raises(DomainError):
            tracking_loss(np.zeros((149, 3)), cmd)
        bad = np.zeros((TRAJECTORY_STEPS, 3))
        bad[3, 0] = math.nan
        with pytest.raises(DomainError):
            tracking_loss(bad, cmd)
        with pytest.raises(DomainError):
            tracking_loss(np.zeros((TRAJECTORY_STEPS, 3)), np.zeros(2))


def worst_failing_ratio(bed: CellularTestbed) -> float:
    """Largest possible psi * (p/q): the largest mass ratio over the
    cells that can fail."""
    can_fail = bed.failure_probs > 0.0
    return float(np.max(bed.target.masses[can_fail] / bed.proposal.masses[can_fail]))


def decimal_enumeration(bed: CellularTestbed) -> float:
    total = Decimal(0)
    for p, f in zip(bed.target.masses, bed.failure_probs):
        total += Decimal(float(p)) * Decimal(float(f))
    return float(total)


class TestCellularTestbed:
    def test_two_cell_example(self):
        bed = rare_event_testbed(2, 0, masses=[0.99, 0.01], failure_probs=[0.0, 3e-6])
        assert bed.oracle_r_star == pytest.approx(3e-8, rel=1e-15)
        assert bed.oracle_se == 0.0

    def test_generated_oracle_matches_decimal_enumeration(self):
        bed = rare_event_testbed(100, 7)
        assert bed.oracle_r_star == pytest.approx(decimal_enumeration(bed), rel=1e-14)
        assert 1e-8 <= bed.oracle_r_star <= 1e-7

    @pytest.mark.parametrize("seed", [0, 1, 7, 13])
    def test_generated_proposal_respects_declared_cap(self, seed):
        bed = rare_event_testbed(50, seed)
        p = bed.target.masses
        q = bed.proposal.masses
        covered = q > 0
        assert np.all(covered | (p == 0))
        # The campaign config declares the cap: one at the worst mass
        # ratio holds, one below it is refused.
        worst = float(np.max(p[covered] / q[covered]))
        cfg = CampaignConfig(
            accuracy=AccuracySpec(1e-8, 0.05, 0.1), m_low=0.0, m_high=1.0, w_bar=worst,
            joint=None, sampler={"kind": "importance"}, testbed=bed, seed=0,
        )
        with pytest.raises(BoundViolation):
            dataclasses.replace(cfg, w_bar=worst * (1.0 - 1e-6))

    def test_generation_is_seed_deterministic(self):
        a = rare_event_testbed(60, 3)
        b = rare_event_testbed(60, 3)
        assert np.array_equal(a.target.masses, b.target.masses)
        assert np.array_equal(a.failure_probs, b.failure_probs)
        assert np.array_equal(a.proposal.masses, b.proposal.masses)

    def test_acceptance_fixture_numbers(self):
        bed = rare_event_acceptance_testbed()
        assert bed.n_cells == 40
        assert bed.oracle_r_star == pytest.approx(3.2e-8, rel=1e-12)
        assert worst_failing_ratio(bed) == pytest.approx(3.2e-8 / 0.998, rel=1e-12)
        ratios = bed.target.masses / bed.proposal.masses
        assert float(np.max(ratios)) <= 512.0

    def test_moderate_fixture_numbers(self):
        bed = moderate_cellular_testbed()
        assert bed.oracle_r_star == pytest.approx(0.05, rel=1e-14)
        assert worst_failing_ratio(bed) == pytest.approx(0.2, rel=1e-12)
        ratios = np.unique(np.round(bed.target.masses / bed.proposal.masses, 9))
        assert list(ratios) == [pytest.approx(0.2), pytest.approx(1.8)]

    def test_evaluator_is_bernoulli_with_cell_rate(self):
        bed = moderate_cellular_testbed()
        cells = np.zeros(100_000, dtype=np.int64)  # risky cell, rate 0.5
        vals = bed.evaluate_many(cells, np.random.default_rng(71))
        assert set(np.unique(vals)) <= {0.0, 1.0}
        rate = float(np.mean(vals))
        assert abs(rate - 0.5) < 3 * math.sqrt(0.25 / cells.size)

    def test_evaluation_range_is_hard(self):
        bed = rare_event_testbed(30, 5)
        rng = np.random.default_rng(72)
        cells = bed.target.sample_many(rng, 50_000)
        vals = bed.evaluate_many(cells, rng)
        assert np.all((vals >= bed.m_low) & (vals <= bed.m_high))

    def test_spec_round_trip_is_exact(self):
        bed = rare_event_testbed(25, 11)
        back = build_from_spec(bed.to_spec())
        assert np.array_equal(back.target.masses, bed.target.masses)
        assert np.array_equal(back.failure_probs, bed.failure_probs)
        assert back.oracle_r_star == bed.oracle_r_star

    def test_construction_guards(self):
        with pytest.raises(DomainError):
            CellularTestbed([0.5, 0.5], [0.0, 1.5], [0.5, 0.5])
        with pytest.raises(DomainError):
            CellularTestbed([0.5, 0.5], [0.0, 1.0], [1.0, 0.0])
        with pytest.raises(DomainError):
            rare_event_testbed(1, 0)

    @pytest.mark.parametrize("bad", [math.nan, -math.nan, math.inf, -1e-300])
    def test_failure_probability_outside_unit_interval_is_rejected(self, bad):
        with pytest.raises(DomainError, match="must lie in"):
            CellularTestbed([0.5, 0.5], [bad, 0.0], [0.5, 0.5])

    def test_vectors_are_copies(self):
        p, f, q = np.array([0.5, 0.5]), np.array([1.0, 0.0]), np.array([0.5, 0.5])
        bed = CellularTestbed(p, f, q)
        p[0] = f[0] = q[0] = 0.25
        assert bed.masses.tolist() == [0.5, 0.5]
        assert bed.failure_probs.tolist() == [1.0, 0.0]
        assert bed.proposal_masses.tolist() == [0.5, 0.5]
        assert p.flags.writeable

    @pytest.mark.parametrize(
        "name", ["masses", "failure_probs", "proposal_masses", "mass_ratio", "_psi"]
    )
    def test_held_arrays_are_read_only(self, name):
        bed = rare_event_acceptance_testbed()
        with pytest.raises(ValueError, match="read-only"):
            getattr(bed, name)[0] = 0.5


def fresh_interpreter(script: str) -> dict:
    """The JSON object the script prints last, run in a new interpreter
    that imports this checkout's repsq."""
    src = str(Path(testbeds_mod.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _drawn(bed, cells, rng):
    """The Bernoulli draw that evaluate_many reproduces."""
    return (rng.random(len(cells)) < bed.failure_probs[cells]).astype(np.float64)


def _state(rng):
    return json.dumps(rng.bit_generator.state, sort_keys=True, default=np.ndarray.tolist)


class TestCertainCells:
    """A bed whose cells fail with probability 0 or 1 reads psi from a
    table and advances the noise stream past the draws it skips: the
    values, their bytes and the stream position are the draw's."""

    SIZES = [0, 1, 43, CellularTestbed.TABLE_MIN - 1, CellularTestbed.TABLE_MIN, 1024, 8192]

    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("seed", range(4))
    def test_table_equals_the_draw(self, seed, size):
        gen = np.random.default_rng([seed, size])
        cells = int(gen.integers(2, 60))
        f = (gen.random(cells) < 0.3).astype(np.float64)
        f[0], f[1] = 1.0, -0.0  # at least one can fail; -0.0 reads as 0.0
        p = np.full(cells, 1.0 / cells)
        bed = CellularTestbed(p, f, p)
        assert bed._psi is not None
        xs = gen.integers(0, cells, size)
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        a.random(3), b.random(3)  # a stream part-way through
        got = bed.evaluate_many(xs, a)
        want = _drawn(bed, xs, b)
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
        assert _state(a) == _state(b)
        assert a.random() == b.random()

    @pytest.mark.parametrize("size,table", [(1, False), (CellularTestbed.TABLE_MIN - 1, False),
                                            (CellularTestbed.TABLE_MIN, True), (8192, True)])
    def test_batches_from_table_min_read_the_table(self, size, table, monkeypatch):
        bed = rare_event_acceptance_testbed()
        monkeypatch.setattr(bed, "_psi", np.full(bed.n_cells, 2.0))  # marks a table read
        got = bed.evaluate_many(np.zeros(size, dtype=np.int64), np.random.default_rng(0))
        assert np.all(got == (2.0 if table else 1.0))

    def test_only_zero_one_beds_hold_a_table(self):
        assert rare_event_acceptance_testbed()._psi is not None
        assert rare_event_testbed(50, 0)._psi is None  # fractional rates

    def test_building_a_bed_does_not_import_numpy_random(self):
        """A campaign's set-up builds its bed; numpy.random costs ~6 ms
        to import, and only the campaign's streams need it."""
        out = fresh_interpreter(textwrap.dedent("""
            import json, sys
            import repsq
            repsq.rare_event_acceptance_testbed()
            print(json.dumps({"loaded": "numpy.random" in sys.modules}))
        """))
        assert out["loaded"] is False

    def test_a_fractional_bed_draws(self):
        bed = moderate_cellular_testbed()  # f in {0, 0.5}
        assert bed._psi is None
        xs = np.arange(bed.n_cells).repeat(40)
        a, b = np.random.default_rng(5), np.random.default_rng(5)
        assert bed.evaluate_many(xs, a).tobytes() == _drawn(bed, xs, b).tobytes()
        assert _state(a) == _state(b)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: np.random.Generator(np.random.SFC64(0)),  # no advance
            lambda: np.random.Generator(np.random.Philox(0)),  # advances by blocks
            lambda: np.random.Generator(np.random.MT19937(0)),
        ],
        ids=["SFC64", "Philox", "MT19937"],
    )
    def test_other_generators_draw(self, make):
        bed = rare_event_acceptance_testbed()
        xs = bed.proposal.sample_many(np.random.default_rng(1), 1024)
        a, b = make(), make()
        got = bed.evaluate_many(xs, a)
        assert got.tobytes() == _drawn(bed, xs, b).tobytes()
        assert _state(a) == _state(b)

    def test_a_cached_32_bit_half_is_kept(self):
        """advance would drop the half a float32 draw leaves cached."""
        bed = rare_event_acceptance_testbed()
        xs = bed.proposal.sample_many(np.random.default_rng(1), CellularTestbed.TABLE_MIN)
        a, b = np.random.default_rng(2), np.random.default_rng(2)
        a.random(dtype=np.float32), b.random(dtype=np.float32)
        assert bed.evaluate_many(xs, a).tobytes() == _drawn(bed, xs, b).tobytes()
        assert _state(a) == _state(b)
        assert a.random(dtype=np.float32) == b.random(dtype=np.float32)

    def test_convergence_study_keeps_its_bytes(self, monkeypatch):
        """The study draws cells and noise from one stream, so a table
        that did not advance it would move every later draw."""
        bed = rare_event_acceptance_testbed()
        args = dict(seeds=range(5), checkpoints=(10**3, 10**5))
        table = convergence_study(bed, **args)
        monkeypatch.setattr(bed, "_psi", None)
        drawn = convergence_study(bed, **args)
        assert table.errors.tobytes() == drawn.errors.tobytes()


class TestDisplacementTestbed:
    def test_constant_deterministic_mode(self):
        bed = DisplacementTestbed(noise=False, mean_constant=0.02)
        assert bed.oracle_r_star == 0.02
        assert bed.oracle_se == 0.0
        vals = bed.evaluate_many(
            np.random.default_rng(0).uniform(0, 1, (1000, 2)), np.random.default_rng(1)
        )
        assert np.all(vals == 0.02)

    def test_oracle_matches_analytic_mean(self):
        # E[1.75 + 0.2 x y] + E[noise] = 1.75 + 0.2/4 = 1.8 exactly.
        for noise in (True, False):
            bed = DisplacementTestbed(noise=noise)
            assert bed.oracle_r_star == 1.8
            assert bed.oracle_se == 0.0

    def test_oracle_bit_identical_on_recompute(self):
        first = DisplacementTestbed().oracle_r_star
        assert DisplacementTestbed().oracle_r_star == first

    @pytest.mark.parametrize("constant", [0.3, 5.9])
    def test_clipped_oracle_matches_simulation(self, constant):
        # The noise reaches below 0 (or above 6), where the clip binds.
        bed = DisplacementTestbed(mean_constant=constant)
        rng = np.random.default_rng(72)
        vals = bed.evaluate_many(bed.target.sample_many(rng, 1_000_000), rng)
        assert vals.min() == 0.0 or vals.max() == 6.0
        se = float(np.std(vals)) / math.sqrt(vals.size)
        assert abs(float(np.mean(vals)) - bed.oracle_r_star) < 4 * se
        assert bed.oracle_se == 0.0

    def test_range_check(self):
        bed = DisplacementTestbed()
        rng = np.random.default_rng(73)
        vals = bed.evaluate_many(bed.target.sample_many(rng, 1_000_000), rng)
        assert np.all((vals >= 0.0) & (vals <= 6.0))

    def test_spec_round_trip(self):
        bed = DisplacementTestbed(noise=False, mean_constant=0.02)
        back = build_from_spec(bed.to_spec())
        assert back.oracle_r_star == bed.oracle_r_star
        assert back.to_spec() == bed.to_spec()


class TestTrackingTestbed:
    def test_zero_noise_config(self):
        # A noise-free bed is the three noise fields at 0: its loss is 0,
        # it draws nothing and its oracle is exact.
        bed = TrackingTestbed(0.4, bias_gain=0.0, noise_base=0.0, noise_slope=0.0)
        rng = np.random.default_rng(74)
        x = bed.target.sample_many(rng, 1000)
        state = rng.bit_generator.state
        vals = bed.evaluate_many(x, rng)
        assert rng.bit_generator.state == state
        assert np.all(vals == 0.0)
        assert (bed.oracle_r_star, bed.oracle_se) == (0.0, 0.0)

    def test_losses_grow_with_command_magnitude(self):
        bed = TrackingTestbed()
        rng = np.random.default_rng(75)
        small = bed.evaluate_many(np.tile([0.05, 0.0, 0.0], (10_000, 1)), rng)
        large = bed.evaluate_many(np.tile([0.3, 0.0, 0.0], (10_000, 1)), rng)
        sep = math.hypot(
            float(np.std(small)) / math.sqrt(small.size),
            float(np.std(large)) / math.sqrt(large.size),
        )
        assert float(np.mean(large)) - float(np.mean(small)) > 3 * sep

    def test_sim_gap_raises_losses(self):
        rng = np.random.default_rng(76)
        cmds = np.tile([0.15, 0.1, -0.1], (10_000, 1))
        base = TrackingTestbed(0.0).evaluate_many(cmds, rng)
        shifted = TrackingTestbed(1.0).evaluate_many(cmds, rng)
        sep = math.hypot(
            float(np.std(base)) / 100.0, float(np.std(shifted)) / 100.0
        )
        assert float(np.mean(shifted)) - float(np.mean(base)) > 3 * sep

    def test_oracle_agrees_with_simulation_route(self):
        # The oracle integrates the loss's closed-form conditional
        # mean; the evaluator draws each loss from its exact law. Their
        # means must agree within the sample's error and the oracle's.
        bed = TrackingTestbed()
        rng = np.random.default_rng(77)
        sims = bed.evaluate_many(bed.target.sample_many(rng, 200_000), rng)
        sim_mean = float(np.mean(sims))
        sim_se = float(np.std(sims)) / math.sqrt(sims.size)
        assert abs(sim_mean - bed.oracle_r_star) < 4 * math.hypot(sim_se, bed.oracle_se)

    def test_oracle_is_deterministic(self):
        a = TrackingTestbed(0.0)
        first = a.oracle_r_star
        key = (a.kind, a.sim_gap, a.bias_gain, a.noise_base, a.noise_slope)
        testbeds_mod._oracle_cache.pop(key)
        assert TrackingTestbed(0.0).oracle_r_star == first

    def test_simulate_composes_with_loss(self):
        bed = TrackingTestbed()
        rng = np.random.default_rng(78)
        cmd = np.array([0.2, -0.1, 0.3])
        traj = bed.simulate(cmd, rng)
        assert traj.shape == (TRAJECTORY_STEPS, 3)
        assert 0.0 < tracking_loss(traj, cmd) < 1.0

    def test_range_and_validation(self):
        bed = TrackingTestbed()
        rng = np.random.default_rng(79)
        vals = bed.evaluate_many(bed.target.sample_many(rng, 100_000), rng)
        assert np.all((vals >= 0.0) & (vals < 1.0))
        with pytest.raises(DomainError):
            TrackingTestbed(-0.1)
        # A NaN noise scale or gap made the oracle and every measure NaN.
        for name in ("sim_gap", "bias_gain", "noise_base", "noise_slope"):
            for bad in (math.nan, math.inf, -math.inf):
                with pytest.raises(DomainError, match=f"{name} must be finite"):
                    TrackingTestbed.from_spec({**TrackingTestbed().to_spec(), name: bad})

    def test_spec_round_trip(self):
        bed = TrackingTestbed(0.5)
        back = build_from_spec(bed.to_spec())
        assert back.to_spec() == bed.to_spec()

    @pytest.mark.parametrize("sim_gap,noise_free", [(0.0, False), (0.7, False), (0.0, True)])
    def test_evaluation_matches_the_direct_expression(self, sim_gap, noise_free):
        # Bitwise against the exact law written out with fresh
        # temporaries: np.linalg.norm, then sigma^2 times one noncentral
        # chi-square(450, (sqrt(150) b r / sigma)^2) draw per command, one
        # command at a time, and nothing else drawn. A noise-free bed
        # draws nothing and its loss is exactly 0.
        bed = (TrackingTestbed(sim_gap, bias_gain=0.0, noise_base=0.0, noise_slope=0.0)
               if noise_free else TrackingTestbed(sim_gap))
        rng = np.random.default_rng(83)
        for n in (1, 7, 10, 64):
            x = bed.target.sample_many(rng, n)
            state = rng.bit_generator.state
            got = bed.evaluate_many(x, rng)
            after = rng.bit_generator.state
            rng.bit_generator.state = state
            norms = np.linalg.norm(x, axis=1)
            sigma = bed._noise_scale(norms)
            shift = norms * (math.sqrt(TRAJECTORY_STEPS) * bed.bias_gain)
            if noise_free:
                total = shift * shift
            else:
                total = np.array([
                    rng.noncentral_chisquare(3 * TRAJECTORY_STEPS, (m / s) ** 2) * (s * s)
                    for m, s in zip(shift, sigma)
                ])
            want = -np.expm1(-6.0 * total)
            assert got.tobytes() == want.tobytes()
            assert rng.bit_generator.state == after
            if noise_free:
                assert not got.any()

    def test_noise_free_commands_draw_nothing(self):
        # sigma = 0 at the origin when the noise has no base: that command's
        # deviation is deterministic and the others draw as if it were absent.
        bed = TrackingTestbed()
        bed.noise_base = 0.0
        x = np.array([[0.1, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.2, -0.1]])
        got = bed.evaluate_many(x, np.random.default_rng(84))
        want = bed.evaluate_many(x[[0, 2]], np.random.default_rng(84))
        assert got[[0, 2]].tobytes() == want.tobytes()
        assert got[1] == 0.0
        # With no noise at all, a biased command tracks deterministically.
        bed.noise_slope = 0.0
        rng = np.random.default_rng(85)
        state = rng.bit_generator.state
        got = bed.evaluate_many(x, rng)
        assert rng.bit_generator.state == state
        r = np.linalg.norm(x, axis=1)
        assert got == pytest.approx(-np.expm1(-6.0 * TRAJECTORY_STEPS * (bed.bias_gain * r) ** 2),
                                    rel=1e-13, abs=0.0)

    def test_a_negative_noise_scale_reads_as_its_square(self):
        # The law and the oracle read sigma only through sigma^2, so a
        # descriptor whose noise scale is negative gives the same bed.
        spec = TrackingTestbed().to_spec()
        flipped = build_from_spec(dict(spec, noise_base=-spec["noise_base"],
                                         noise_slope=-spec["noise_slope"]))
        x = np.random.default_rng(87).uniform(-0.3, 0.3, (64, 3))
        want = TrackingTestbed().evaluate_many(x, np.random.default_rng(88))
        got = flipped.evaluate_many(x, np.random.default_rng(88))
        assert got.tobytes() == want.tobytes()
        assert flipped.conditional_mean(x).tobytes() == TrackingTestbed().conditional_mean(x).tobytes()
        # A scale that changes sign across the box keeps evaluator and oracle together.
        mixed = build_from_spec(dict(spec, noise_base=-0.005))
        cmds = np.tile([0.1, 0.0, 0.0], (40_000, 1))  # sigma = -0.003
        vals = mixed.evaluate_many(cmds, np.random.default_rng(89))
        se = float(np.std(vals)) / math.sqrt(vals.size)
        assert abs(float(np.mean(vals)) - float(mixed.conditional_mean(cmds[:1])[0])) < 4 * se

    @pytest.mark.parametrize("noise_base", [1e-200, 1e-156, 5e-324])
    def test_a_vanishing_noise_scale_is_exact(self, noise_base):
        # sigma^2 underflows to 0 (1e-200, 5e-324) or stays positive
        # while lambda = (sqrt(150) b r / sigma)^2 overflows (1e-156):
        # no warning, no NaN, no draw, and the oracle's deterministic loss.
        bed = TrackingTestbed()
        bed.noise_base = noise_base
        bed.noise_slope = 0.0
        x = np.array([[0.3, 0.3, 0.3], [0.1, 0.0, 0.0]])
        rng = np.random.default_rng(90)
        state = rng.bit_generator.state
        got = bed.evaluate_many(x, rng)
        assert rng.bit_generator.state == state
        r = np.linalg.norm(x, axis=1)
        want = -np.expm1(-6.0 * TRAJECTORY_STEPS * (bed.bias_gain * r) ** 2)
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)
        # At the origin lambda = 0: the loss is sigma^2 times a draw, or 0.
        (origin,) = bed.evaluate_many([[0.0, 0.0, 0.0]], rng)
        assert 0.0 <= origin < 1e-300
        assert bed.conditional_mean(x) == pytest.approx(want, rel=1e-13, abs=0.0)


def noncentral_chisquare_mean(bed, seed, draws, chunk=250_000):
    """r_star and its standard error by Monte Carlo: uniform commands,
    the total squared deviation drawn from its exact law (sigma^2 times
    a noncentral chi-square over 450 degrees of freedom)."""
    rng = np.random.default_rng(seed)
    total = 0.0
    total_sq = 0.0
    for _ in range(draws // chunk):
        norms = np.linalg.norm(bed.target.sample_many(rng, chunk), axis=1)
        sigma = bed._noise_scale(norms)
        lam = TRAJECTORY_STEPS * (bed.bias_gain * norms) ** 2 / sigma**2
        dev_sq = sigma**2 * rng.noncentral_chisquare(3 * TRAJECTORY_STEPS, lam)
        vals = -np.expm1(-6.0 * dev_sq)
        total += float(np.sum(vals))
        total_sq += float(np.sum(vals * vals))
    mean = total / draws
    return mean, math.sqrt((total_sq / draws - mean * mean) / draws)


class TestExactTrackingOracle:
    COMMANDS = [(0.3, 0.3, 0.3), (0.1, 0.0, 0.0), (0.0, 0.0, 0.0)]

    @pytest.mark.parametrize("sim_gap", [0.0, 1.0])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_conditional_mean_matches_simulated_trajectories(self, sim_gap, command):
        bed = TrackingTestbed(sim_gap)
        rng = np.random.default_rng(84)
        cmds = np.tile(command, (5_000, 1))
        sims = np.concatenate([bed.evaluate_many(cmds, rng) for _ in range(4)])
        exact = float(bed.conditional_mean([command])[0])
        se = float(np.std(sims)) / math.sqrt(sims.size)
        assert se > 0.0
        assert abs(float(np.mean(sims)) - exact) < 4 * se

    @pytest.mark.parametrize("sim_gap", [0.0, 1.0])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_first_two_moments_match_the_mgf(self, sim_gap, command):
        # E[psi] = 1 - M(6) and E[psi^2] = 1 - 2 M(6) + M(12), with M
        # the MGF of -T at s: (1 + 2 s sigma^2)^(-225)
        # exp(-150 s (b r)^2 / (1 + 2 s sigma^2)).
        bed = TrackingTestbed(sim_gap)
        r = math.hypot(*command)
        sigma = float(bed._noise_scale(np.array([r]))[0])

        def mgf(s):
            spread = 2.0 * s * sigma**2
            return math.exp(-1.5 * TRAJECTORY_STEPS * math.log1p(spread)
                            - TRAJECTORY_STEPS * s * (bed.bias_gain * r) ** 2 / (1.0 + spread))

        vals = bed.evaluate_many(np.tile(command, (40_000, 1)), np.random.default_rng(86))
        for sample, exact in ((vals, 1.0 - mgf(6.0)),
                              (vals * vals, 1.0 - 2.0 * mgf(6.0) + mgf(12.0))):
            se = float(np.std(sample)) / math.sqrt(sample.size)
            assert se > 0.0
            assert abs(float(np.mean(sample)) - exact) < 4 * se

    @pytest.mark.parametrize("sim_gap", [0.0, 1.0])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_law_matches_the_trajectory_route(self, sim_gap, command):
        # The reference scores one simulated 150-step trajectory per
        # draw, as tracking_loss(simulate(x), x).
        bed = TrackingTestbed(sim_gap)
        cmd = np.array(command)
        rng = np.random.default_rng(87)
        ref = [tracking_loss(bed.simulate(cmd, rng), cmd) for _ in range(5_000)]
        vals = bed.evaluate_many(np.tile(cmd, (5_000, 1)), np.random.default_rng(88))
        assert stats.ks_2samp(vals, ref).pvalue > 0.01

    def test_noise_free_bias_bed_is_exact(self):
        # With no noise the trajectory is deterministic: psi(x) is
        # -expm1(-900 (b r)^2), which the closed form must reproduce.
        bed = TrackingTestbed(0.0, bias_gain=0.05, noise_base=0.0, noise_slope=0.0)
        cmds = np.array(self.COMMANDS + [(-0.2, 0.1, 0.25)])
        sims = bed.evaluate_many(cmds, np.random.default_rng(85))
        np.testing.assert_allclose(bed.conditional_mean(cmds), sims, rtol=1e-12, atol=0.0)
        assert sims[0] > 0.0 and sims[2] == 0.0
        assert 0.0 < bed.oracle_r_star < 1.0

    @pytest.mark.parametrize("seed", [0, 1])
    def test_oracle_matches_noncentral_chisquare_monte_carlo(self, seed):
        bed = TrackingTestbed()
        mc_mean, mc_se = noncentral_chisquare_mean(bed, seed, 1_000_000)
        assert abs(mc_mean - bed.oracle_r_star) < 4 * math.hypot(mc_se, bed.oracle_se)

    @pytest.mark.parametrize("sim_gap", [0.0, 1.0])
    def test_quadrature_converged_and_error_reported(self, sim_gap):
        bed = TrackingTestbed(sim_gap)
        assert abs(bed._octant_mean(48) - bed._octant_mean(64)) < 1e-12
        assert 0.0 < bed.oracle_se <= 1e-9

    def test_oracle_is_within_three_se_of_the_old_monte_carlo(self):
        # The 10^7-draw oracle this replaced read 0.39518287006133407
        # with standard error 3.78e-5.
        assert abs(TrackingTestbed().oracle_r_star - 0.39518287006133407) < 3 * 3.78e-5

    def test_oracle_memory_stays_small(self):
        # A sample-based oracle peaks above 100 MB; the quadrature needs
        # a few arrays of 48^3 values.
        bed = TrackingTestbed(0.3)
        key = (bed.kind, bed.sim_gap, bed.bias_gain, bed.noise_base, bed.noise_slope)
        testbeds_mod._oracle_cache.pop(key, None)
        tracemalloc.start()
        try:
            bed.oracle_r_star
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_import_does_not_load_the_quadrature(self):
        script = textwrap.dedent("""
            import json, sys
            import repsq
            before = "numpy.polynomial" in sys.modules
            r_star = repsq.TrackingTestbed().oracle_r_star
            print(json.dumps({"before": before, "after": "numpy.polynomial" in sys.modules,
                              "r_star": r_star.hex()}))
        """)
        out = fresh_interpreter(script)
        assert out["before"] is False and out["after"] is True
        assert out["r_star"] == TrackingTestbed().oracle_r_star.hex()


class TestConvergenceStudyBed:
    def test_heavy_cell_ratio_is_exactly_512(self):
        bed = convergence_study_testbed()
        assert bed.target.masses[0] / bed.proposal.masses[0] == 512.0
        light = bed.target.masses[1:] / bed.proposal.masses[1:]
        assert np.all(light < 1.0)
        assert light == pytest.approx(light[0], rel=1e-12)

    def test_masses_normalize(self):
        bed = convergence_study_testbed()
        assert math.fsum(bed.target.masses.tolist()) == pytest.approx(1.0, abs=1e-12)
        assert math.fsum(bed.proposal.masses.tolist()) == pytest.approx(1.0, abs=1e-12)

    def test_oracle_matches_decimal_enumeration(self):
        bed = convergence_study_testbed()
        exact = sum(
            Decimal(float(p)) * Decimal(float(f))
            for p, f in zip(bed.target.masses, bed.failure_probs)
        )
        assert bed.oracle_r_star == pytest.approx(float(exact), rel=1e-12)
        assert bed.oracle_r_star == pytest.approx(0.4109470266496501, rel=1e-12)

    def test_heavy_draws_expected_half_at_1000(self):
        # the design point: 1000 proposal draws put mean 0.5 on cell 0,
        # so the integer count is always at least 0.5 away from its mean
        bed = convergence_study_testbed()
        assert 1000.0 * bed.proposal.masses[0] == 0.5

    def test_spec_round_trip(self):
        bed = convergence_study_testbed()
        back = build_from_spec(bed.to_spec())
        assert np.array_equal(back.target.masses, bed.target.masses)
        assert np.array_equal(back.proposal.masses, bed.proposal.masses)
        assert back.to_spec() == bed.to_spec()


WORKLOADS = sorted((Path(__file__).resolve().parents[1] / "campaign_bench" / "workloads").glob("*.json"))


class TestSpecDispatch:
    @pytest.mark.parametrize("path", WORKLOADS, ids=lambda p: p.stem)
    def test_frozen_workloads_describe_their_source_beds(self, path):
        # The benchmark workloads were frozen while descriptors still
        # carried oracle_seed, zero_noise and a cellular w_bar; the reader
        # ignores those keys, so each workload builds its source's bed.
        workload = json.loads(path.read_text())
        source = json.loads((path.parents[2] / workload["source"]).read_text())
        assert (build_from_spec(workload["config"]["testbed"]).to_spec()
                == build_from_spec(source["testbed"]).to_spec())

    @pytest.mark.parametrize("path", WORKLOADS, ids=lambda p: p.stem)
    def test_frozen_workloads_seal_only_what_their_beds_read(self, path):
        # The retired keys those workloads still carry are not sealed.
        cfg = CampaignConfig.from_dict(json.loads(path.read_text())["config"])
        grid = build_partition(cfg.m_low, cfg.m_high, compute_alpha(cfg.accuracy), 0.0)
        sealed = build_artifact(cfg, grid)["config"]["testbed"]
        assert sealed == cfg.testbed.to_spec()

    def test_unknown_kind_rejected(self):
        with pytest.raises(DomainError):
            build_from_spec({"kind": "unheard-of"})

    def test_bound_mismatch_rejected(self):
        spec = moderate_cellular_testbed().to_spec()
        spec["m_high"] = 2.0
        with pytest.raises(DomainError):
            build_from_spec(spec)
