"""Unit tests for cell-width selection, partitions, and midpoint rounding."""

import bisect
import math

import numpy as np
import pytest

from repsq.errors import DomainError, InfeasibleRepeatability
from repsq.quantize import (
    AccuracySpec,
    Partition,
    build_partition,
    collision_probability_lower_bound,
    compute_alpha,
    quantize,
)


def bounds(p: Partition) -> list:
    """Every boundary of p, from its canonical rule."""
    return [p.boundary(k) for k in range(p.n_cells + 1)]


class TestComputeAlpha:
    # Frozen from a 50-digit arithmetic oracle, not from package code.
    FROZEN = [
        ((0.1, 0.05, 0.1), 0.18947368421052632),
        ((3e-9, 0.01, 0.1), 4.2847307032624357e-9),
        ((0.04, 0.05, 0.1), 0.075789473684210526),
    ]

    @pytest.mark.parametrize("params,alpha_expect", FROZEN)
    def test_frozen_values(self, params, alpha_expect):
        alpha = compute_alpha(AccuracySpec(*params))
        np.testing.assert_allclose(alpha, alpha_expect, rtol=1e-12)

    def test_reported_tolerances(self):
        """gamma + alpha/2 reproduces the three published tolerances."""
        cases = [((0.1, 0.05, 0.1), 0.195), ((3e-9, 0.01, 0.1), 5.14e-9), ((0.04, 0.05, 0.1), 0.078)]
        for (g, c, b), tol_expect in cases:
            alpha = compute_alpha(AccuracySpec(g, c, b))
            np.testing.assert_allclose(g + alpha / 2.0, tol_expect, rtol=5e-3)

    def test_degenerate_discriminant(self):
        """(1-c)^2 == 1-beta gives the extreme width alpha = 2*gamma."""
        alpha = compute_alpha(AccuracySpec(0.1, 0.05, 0.0975))
        np.testing.assert_allclose(alpha, 0.2, rtol=1e-12)

    def test_quadratic_identity_sweep(self):
        """alpha solves (1-c)^2 (4 g a - a^2) = 4 g^2 (1-beta) and a <= 2g."""
        rng = np.random.default_rng(42)
        for _ in range(2000):
            g = 10.0 ** rng.uniform(-9, 2)
            c = rng.uniform(1e-4, 0.5)
            # feasible betas satisfy 1-beta <= (1-c)^2
            beta = rng.uniform(1.0 - (1.0 - c) ** 2, 1.0 - 1e-6)
            spec = AccuracySpec(g, c, beta)
            a = compute_alpha(spec)
            assert 0.0 < a <= 2.0 * g * (1.0 + 1e-12)
            lhs = (1.0 - c) ** 2 * (4.0 * g * a - a * a)
            rhs = 4.0 * g * g * (1.0 - beta)
            np.testing.assert_allclose(lhs, rhs, rtol=1e-9)

    def test_smaller_root(self):
        """The returned root is the smaller of the two quadratic roots."""
        spec = AccuracySpec(0.1, 0.05, 0.1)
        a = compute_alpha(spec)
        disc = math.sqrt(spec.discriminant)
        larger = 2.0 * spec.gamma * ((1.0 - spec.c) + disc) / (1.0 - spec.c)
        assert a < larger
        assert larger > 2.0 * spec.gamma  # the larger root is unusable

    def test_infeasible_rejected(self):
        with pytest.raises(InfeasibleRepeatability):
            AccuracySpec(0.1, 0.2, 0.1)  # (0.8)^2 = 0.64 < 0.9

    @pytest.mark.parametrize(
        "g,c,b", [(0.0, 0.05, 0.1), (-1.0, 0.05, 0.1), (0.1, 0.0, 0.1), (0.1, 1.0, 0.1), (0.1, 0.05, 0.0), (0.1, 0.05, 1.0)]
    )
    def test_domain_errors(self, g, c, b):
        with pytest.raises(DomainError):
            AccuracySpec(g, c, b)


class TestBuildPartition:
    def test_exact_tiling(self):
        p = build_partition(0.0, 1.0, 0.2, 0.0)
        np.testing.assert_allclose(bounds(p), [0.0, 0.2, 0.4, 0.6, 0.8, 1.0], atol=1e-15)
        assert p.n_cells == 5

    def test_shifted_tiling(self):
        p = build_partition(0.0, 1.0, 0.2, 0.1)
        b = bounds(p)
        np.testing.assert_allclose(b, [0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0], atol=1e-15)
        assert b[1] - b[0] == pytest.approx(0.1)
        assert b[-1] - b[-2] == pytest.approx(0.1)

    def test_short_interval_single_cell(self):
        p = build_partition(0.0, 0.15, 0.2, 0.0)
        assert bounds(p) == [0.0, 0.15]
        assert p.n_cells == 1

    def test_offset_alpha_means_full_first_cell(self):
        a = build_partition(0.0, 1.0, 0.2, 0.0)
        b = build_partition(0.0, 1.0, 0.2, 0.2)
        assert bounds(a) == bounds(b)

    def test_measure_preserved(self):
        """Cell lengths sum to the interval length."""
        for m_lo, m_hi, alpha, off in [(0.0, 1.0, 0.2, 0.0), (-0.3, 0.3, 0.07, 0.03), (0.0, 6.0, 0.18947368421052632, 0.0)]:
            p = build_partition(m_lo, m_hi, alpha, off)
            b = bounds(p)
            total = math.fsum(b[k + 1] - b[k] for k in range(p.n_cells))
            assert abs(total - (m_hi - m_lo)) <= 1e-12

    def test_uniformity_where_floats_allow(self):
        """Interior cells measure alpha within 1e-12*alpha when alpha is
        large enough relative to |m_high| for binary64 to express that."""
        for m_lo, m_hi, alpha in [(0.0, 1.0, 0.2), (0.0, 6.0, 0.18947368421052632), (-0.3, 0.3, 0.011)]:
            p = build_partition(m_lo, m_hi, alpha, 0.0)
            lengths = np.diff(bounds(p))
            interior = lengths[1:-1] if p.n_cells > 2 else lengths[:0]
            if interior.size:
                assert np.max(np.abs(interior - alpha)) <= 1e-12 * alpha

    def test_boundaries_strictly_increasing_sweep(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            lo = rng.uniform(-5, 5)
            hi = lo + 10.0 ** rng.uniform(-3, 1)
            alpha = (hi - lo) * 10.0 ** rng.uniform(-2.5, 0.3)
            off = rng.uniform(0, alpha)
            p = build_partition(lo, hi, alpha, off)
            b = np.asarray(bounds(p))
            assert np.all(np.diff(b) > 0)
            assert b[0] == lo and b[-1] == hi
            slack = 1e-9 * alpha
            assert b[1] - b[0] <= alpha + slack
            assert b[-1] - b[-2] <= alpha + slack

    def test_snap_absorbs_near_exact_tilings(self):
        """A last step landing within 1e-9*alpha of m_high must not leave a
        sliver cell behind."""
        p = build_partition(0.0, 0.6000000000000001, 0.2, 0.0)
        assert p.n_cells == 3

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            build_partition(1.0, 0.0, 0.1)
        with pytest.raises(DomainError):
            build_partition(0.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            build_partition(0.0, 1.0, 0.2, 0.3)

    @pytest.mark.parametrize(
        "m_low,m_high,offset",
        [(0.0, math.inf, 0.0), (-math.inf, 1.0, 0.0), (0.0, 1.0, math.nan)],
        ids=["inf-high", "inf-low", "nan-offset"],
    )
    def test_non_finite_partition_is_rejected(self, m_low, m_high, offset):
        """A grid over an infinite interval has no midpoints: quantize
        would return inf or overflow. Both the constructor and
        build_partition refuse it."""
        with pytest.raises(DomainError, match="must be finite"):
            Partition(m_low, m_high, 0.1, offset, 3)
        with pytest.raises(DomainError, match="must be finite"):
            build_partition(m_low, m_high, 0.1, offset)

    def test_cell_rule_matches_bisect_reference(self):
        """The arithmetic cell rule resolves every boundary, both its float
        neighbours and uniform values exactly as a bisect over the
        canonical boundary list does, on random grids and on the
        233M-cell rare-event grid (probed near its ends and middle)."""
        rng = np.random.default_rng(3)
        grids = []
        for _ in range(120):
            lo = rng.uniform(-5, 5)
            hi = lo + 10.0 ** rng.uniform(-3, 1)
            alpha = (hi - lo) / 10.0 ** rng.uniform(-0.3, 3.3)  # up to ~2,000 cells
            grids.append(build_partition(lo, hi, alpha, rng.uniform(0, alpha)))
        grids.append(build_partition(0.0, 1.0, 0.2, 0.0))  # exact tiling
        probed = 0
        for p in grids:
            b = bounds(p)
            values = np.concatenate(
                [b, np.nextafter(b, -np.inf), np.nextafter(b, np.inf),
                 rng.uniform(p.m_low, p.m_high, 100)]
            )
            probed += self._agree(p, b, values)
        rare = build_partition(0.0, 1.0, 4.2847307032624357e-9, 0.0)
        assert rare.n_cells == 233_386_897
        for ks in (range(0, 300), range(rare.n_cells // 2, rare.n_cells // 2 + 300),
                   range(rare.n_cells - 299, rare.n_cells + 1)):
            b = [rare.boundary(k) for k in ks]
            values = np.concatenate(
                [b, np.nextafter(b, -np.inf), np.nextafter(b, np.inf),
                 rng.uniform(b[0], b[-1], 300)]
            )
            probed += self._agree(rare, b, values, first=ks[0])
        assert probed > 50_000

    @staticmethod
    def _agree(p, b, values, first=0) -> int:
        """Compare cell_of and midpoint with a bisect over the boundary
        slice b (boundaries first, first+1, ...) for every value the
        slice covers; returns how many values were compared."""
        probes, want = [], []
        for v in values.tolist():
            j = bisect.bisect_right(b, v) - 1
            if 0 <= j < len(b) - 1 or v == p.m_high:
                probes.append(v)
                want.append(min(first + j, p.n_cells - 1))  # m_high: closed last cell
        got = [p.cell_of(v) for v in probes]
        assert got == [(k, False) for k in want]
        mids = [0.5 * (p.boundary(k) + p.boundary(k + 1)) for k in want]
        assert [p.midpoint(k) for k, _ in got] == mids
        return len(probes)

    def test_wide_partition_is_virtual_and_deterministic(self):
        """The tiny-alpha regime used by the rare-event campaigns: cells are
        resolved arithmetically and bit-identically across instances."""
        alpha = 4.2847307032624357e-9
        p = build_partition(0.0, 1.0, alpha, 0.0)
        assert p.n_cells == int(p.n_cells)
        assert abs(p.n_cells * alpha - 1.0) < 2 * alpha
        q = build_partition(0.0, 1.0, alpha, 0.0)
        assert q.n_cells == p.n_cells
        for v in (0.0, 3.2e-8, 0.5, 1.0 - 1e-9, 1.0):
            assert p.cell_of(v) == q.cell_of(v)
            assert p.midpoint(p.cell_of(v)[0]) == q.midpoint(q.cell_of(v)[0])


class TestQuantize:
    def setup_method(self):
        self.p = build_partition(0.0, 1.0, 0.2, 0.0)

    def test_interior_value(self):
        q = quantize(0.35, self.p)
        assert q.value == pytest.approx(0.3, abs=1e-15)
        assert not q.clamped

    def test_boundary_goes_right(self):
        """A value on a boundary belongs to the cell on its right."""
        q = quantize(0.4, self.p)
        assert q.value == pytest.approx(0.5, abs=1e-15)

    def test_upper_endpoint_closed(self):
        q = quantize(1.0, self.p)
        assert q.value == pytest.approx(0.9, abs=1e-15)

    def test_clamping_flags(self):
        below = quantize(-0.2, self.p)
        above = quantize(1.7, self.p)
        assert below.clamped and below.value == pytest.approx(0.1, abs=1e-15)
        assert above.clamped and above.value == pytest.approx(0.9, abs=1e-15)
        assert not quantize(0.5, self.p).clamped

    def test_idempotent(self):
        rng = np.random.default_rng(11)
        p = build_partition(-0.3, 0.3, 0.043, 0.01)
        for v in rng.uniform(-0.3, 0.3, 500):
            once = quantize(float(v), p).value
            twice = quantize(once, p).value
            assert once == twice

    def test_error_at_most_half_alpha(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            lo = rng.uniform(-2, 2)
            hi = lo + rng.uniform(0.5, 3)
            alpha = (hi - lo) * rng.uniform(0.01, 0.6)
            p = build_partition(lo, hi, alpha, rng.uniform(0, alpha))
            v = rng.uniform(lo, hi, 200)
            for x in v:
                q = quantize(float(x), p)
                assert abs(q.value - x) <= alpha / 2.0 + 1e-15

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            quantize(float("nan"), self.p)


class TestCollisionBound:
    def test_values(self):
        assert collision_probability_lower_bound(0.1, 0.2) == pytest.approx(1.0)
        assert collision_probability_lower_bound(0.1, 0.1) == pytest.approx(0.75)
        assert collision_probability_lower_bound(0.1, 1e-9) == pytest.approx(0.0, abs=1e-7)

    def test_domain(self):
        with pytest.raises(DomainError):
            collision_probability_lower_bound(0.1, 0.3)
        with pytest.raises(DomainError):
            collision_probability_lower_bound(-0.1, 0.05)
        with pytest.raises(DomainError):
            collision_probability_lower_bound(0.1, 0.0)

    def test_same_cell_rate_matches_geometry(self):
        """For pairs drawn independently and uniformly within gamma of a
        center, with the grid phase drawn uniformly per pair block, the
        same-cell rate is (2*g*a - a^2/3) / (4*g^2) exactly; simulation
        confirms within 3 SE over block means. This pins the quantizer's
        geometry; the design bound quoted by
        collision_probability_lower_bound sits above this rate (see the
        acceptance suite for the faithful floor check and its status).
        """
        rng = np.random.default_rng(2024)
        n_blocks, per_block = 250, 400
        for g, a in [(0.1, 0.1), (0.1, 0.19), (0.01, 0.004)]:
            center = 0.5
            geom = (2.0 * g * a - a * a / 3.0) / (4.0 * g * g)
            rates = np.empty(n_blocks)
            for j in range(n_blocks):
                p = build_partition(0.0, 1.0, a, float(rng.uniform(0, a)))
                m1 = rng.uniform(center - g, center + g, per_block)
                m2 = rng.uniform(center - g, center + g, per_block)
                cells1 = [p.cell_of(v)[0] for v in m1.tolist()]
                cells2 = [p.cell_of(v)[0] for v in m2.tolist()]
                rates[j] = np.mean(np.asarray(cells1) == np.asarray(cells2))
            emp = float(np.mean(rates))
            se = float(np.std(rates, ddof=1) / math.sqrt(n_blocks))
            assert abs(emp - geom) <= 3.0 * se
