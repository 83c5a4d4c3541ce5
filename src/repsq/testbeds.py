"""Synthetic testing systems with knowable ground truth.

Each testbed bundles a sample space, a target distribution p, an
evaluator psi mapping a test case to a measure in [m_low, m_high], and
an oracle for the true mean r_star = E_p[psi]:

- cellular rare-event testbeds: finitely many scenario cells with
  Bernoulli failure indicators, r_star exact by enumeration;
- a displacement field: uniform targets on a planar workspace, a
  position-dependent mean displacement plus bounded noise, r_star
  exact in closed form;
- a command-tracking simulator: 150-step trajectories whose deviation
  grows with command magnitude, scored by an exponential loss that the
  evaluator draws from its exact law (one noncentral chi-square draw
  per command, not a trajectory); r_star exact: the loss's conditional
  mean given the command has a closed form (the noncentral chi-square
  moment generating function), and its mean over the command box is a
  deterministic Gauss-Legendre quadrature.

Every oracle reports its error as oracle_se: 0 for enumeration and
for the displacement field's closed form, and the quadrature's error
estimate for the tracking simulator. Campaigns refuse accuracy grading
when that error is not well under the accuracy target.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ._fields import flag, mapping, real, real_or_null, reals
from .errors import DomainError
from .samplers import BoxDomain, BoxUniform, DiscreteDistribution

__all__ = [
    "TRAJECTORY_STEPS",
    "CellularTestbed",
    "DisplacementTestbed",
    "TrackingTestbed",
    "tracking_loss",
    "rare_event_testbed",
    "rare_event_acceptance_testbed",
    "moderate_cellular_testbed",
    "convergence_study_testbed",
    "testbed_from_spec",
]

TRAJECTORY_STEPS = 150
# Gauss-Legendre nodes per axis: the tracking oracle's rule, and the
# coarser rule whose gap to it estimates the truncation error.
_QUADRATURE_NODES = 48
_CHECK_NODES = 32
_oracle_cache: dict = {}


def _leggauss(n):
    """``numpy.polynomial.legendre.leggauss``. Only the tracking oracle
    needs it, so it is imported on the first call, which rebinds this
    name to it."""
    global _leggauss
    from numpy.polynomial.legendre import leggauss

    _leggauss = leggauss
    return leggauss(n)


def tracking_loss(observed, commanded) -> float:
    """Exponential loss on total squared tracking deviation.

    1 - exp(-6 * sum over 150 steps of ||observed_i - commanded||^2):
    zero only for perfect tracking, below 1 for any finite trajectory
    (up to float rounding once the exponent underflows), and
    increasing in every per-step deviation.
    """
    obs = np.asarray(observed, dtype=np.float64)
    cmd = np.asarray(commanded, dtype=np.float64)
    if obs.shape != (TRAJECTORY_STEPS, 3):
        raise DomainError(
            f"trajectory must be {TRAJECTORY_STEPS} state 3-vectors, got {obs.shape}"
        )
    if cmd.shape != (3,):
        raise DomainError(f"commanded state must be a 3-vector, got {cmd.shape}")
    if not (np.all(np.isfinite(obs)) and np.all(np.isfinite(cmd))):
        raise DomainError("non-finite trajectory entries")
    total = float(np.sum((obs - cmd) ** 2))
    return -math.expm1(-6.0 * total)


class _Testbed:
    """The descriptor a testbed is sealed as, and the defaults testbeds
    share.

    A testbed class declares ``kind`` and ``fields``, a map from each
    settable descriptor key to the ``_fields`` reader of its JSON value.
    Each key is also the constructor keyword and the attribute that
    holds the value, so the one map yields both the descriptor reader
    (``from_spec``) and its writer (``to_spec``). The descriptor also
    carries the measure range, fixed by the class: ``testbed_from_spec``
    checks a given ``m_low``/``m_high`` against it. Two beds are equal
    when they write the same descriptor. A bed with a discrete proposal
    sets ``mass_ratio``, the importance weight of each cell.
    """

    kind: str
    fields: dict
    m_low = 0.0
    m_high = 1.0
    oracle_se = 0.0
    proposal = None
    domain = None
    mass_ratio = None

    def to_spec(self) -> dict:
        spec = {"kind": self.kind}
        for key in self.fields:
            value = getattr(self, key)
            spec[key] = value.tolist() if isinstance(value, np.ndarray) else value
        spec["m_low"] = self.m_low
        spec["m_high"] = self.m_high
        return spec

    def __eq__(self, other) -> bool:
        if not isinstance(other, _Testbed):
            return NotImplemented
        return self.to_spec() == other.to_spec()

    @classmethod
    def from_spec(cls, spec: dict):
        return cls(**{key: read(spec[key], key) for key, read in cls.fields.items()})


class CellularTestbed(_Testbed):
    """Finite scenario cells with Bernoulli failure indicators.

    psi(cell) ~ Bernoulli(failure_probs[cell]); r_star is the exact
    enumerated sum of mass * failure probability. Ships a companion
    proposal that covers every cell with target mass, and each cell's
    importance weight p/q as ``mass_ratio`` (0 where p is 0), which must
    be finite; an importance campaign derives its weight cap from it.

    A bed holds its own float64 copies of the three vectors and marks
    them, ``mass_ratio`` and its psi table read-only, so nothing derived
    from them can go stale.

    ``evaluate_many`` draws one uniform u per test and returns
    ``u < failure_probs[cell]``. When every failure probability is
    exactly 0 or 1, that comparison does not depend on u, so a bed on a
    stream whose ``advance(k)`` lands where k ``random()`` doubles would
    (a PCG64 or PCG64DXSM holding no cached 32-bit half, as every stream
    of this package is) reads a batch of at least TABLE_MIN tests from a
    psi table and advances the stream past the k draws instead of
    making them: the same values and the same stream position, at a
    fraction of the cost. A smaller batch, any other stream, or a bed
    with a fractional failure probability draws.
    """

    kind = "cellular-bernoulli"
    fields = {"masses": reals, "failure_probs": reals, "proposal_masses": reals}
    # The table's fixed cost per call (the stream check and the advance)
    # outweighs the draws it skips below ~250 tests; in early_stop's
    # ~43-test chunks it cost ~5 us a campaign against drawing (2-vCPU
    # x86-64 host, 4,000 interleaved campaigns).
    TABLE_MIN = 512

    def __init__(
        self,
        masses: Sequence[float],
        failure_probs: Sequence[float],
        proposal_masses: Sequence[float],
    ) -> None:
        p = np.array(masses, dtype=np.float64)
        f = np.array(failure_probs, dtype=np.float64)
        q = np.array(proposal_masses, dtype=np.float64)
        if not (p.shape == f.shape == q.shape) or p.ndim != 1:
            raise DomainError("masses, failure_probs, proposal_masses must align")
        if not ((f >= 0.0) & (f <= 1.0)).all():  # NaN included
            raise DomainError("failure probabilities must lie in [0, 1]")
        self.masses, self.failure_probs, self.proposal_masses = p, f, q
        self.target = DiscreteDistribution(p)
        self.proposal = DiscreteDistribution(q)
        with np.errstate(divide="ignore", over="ignore"):
            self.mass_ratio = np.divide(p, q, out=np.zeros_like(p), where=p > 0.0)
        if not np.isfinite(self.mass_ratio).all():  # q is 0, or too small, where p > 0
            raise DomainError("proposal must cover every cell with target mass, at a finite p/q")
        # psi of each cell when no cell's outcome is random; a -0.0
        # probability reads +0.0, as the draw does.
        psi = (f == 1.0).astype(np.float64)
        self._psi = psi if (psi == f).all() else None
        for arr in (p, f, q, self.mass_ratio, self._psi):
            if arr is not None:
                arr.setflags(write=False)

    @property
    def n_cells(self) -> int:
        return self.target.n_cells

    @property
    def oracle_r_star(self) -> float:
        return float(math.fsum(self.target.masses * self.failure_probs))

    def evaluate_many(self, cells, rng):
        idx = np.asarray(cells, dtype=np.int64)
        k = idx.shape[0]
        if (
            self._psi is not None
            and k >= self.TABLE_MIN
            and _advances_by_doubles(rng.bit_generator)
        ):
            rng.bit_generator.advance(k)
            return self._psi.take(idx)
        return (rng.random(k) < self.failure_probs[idx]).astype(np.float64)


def _advances_by_doubles(bit_generator) -> bool:
    """Whether advance(k) leaves ``bit_generator`` where k ``random()``
    doubles would.

    PCG64 and PCG64DXSM spend one 64-bit output per double and advance
    by outputs (Philox's advance counts 256-bit blocks). advance also
    drops a cached 32-bit half, which the doubles keep, so a generator
    holding one draws. ``np.random`` is looked up here, not at import:
    importing it costs a campaign's set-up ~6 ms, and a caller holding a
    generator has imported it already.
    """
    return (
        type(bit_generator) in (np.random.PCG64, np.random.PCG64DXSM)
        and not bit_generator.state["has_uint32"]
    )


def _power_law_masses(count: int, total: float) -> np.ndarray:
    weights = 1.0 / (np.arange(1, count + 1, dtype=np.float64) ** 2)
    return total * weights / math.fsum(weights.tolist())


def rare_event_testbed(K: int, seed, *,
                       masses: Sequence[float] | None = None,
                       failure_probs: Sequence[float] | None = None,
                       r_target: float = 3.2e-8,
                       proposal_mass_on_risky: float = 0.5) -> CellularTestbed:
    """Seeded generator of rare-failure cellular testbeds.

    Masses are heavy-tailed; the lowest-mass fifth of the cells are the
    risky ones, with failure probabilities scaled so the enumerated
    r_star lands on r_target. Passing explicit masses and failure_probs
    bypasses generation (the proposal then splits its mass evenly
    between the can-fail and safe groups, proportionally within each).
    """
    if K < 2:
        raise DomainError(f"need at least 2 cells, got {K}")
    if masses is not None or failure_probs is not None:
        if masses is None or failure_probs is None:
            raise DomainError("masses and failure_probs must be given together")
        p = np.asarray(masses, dtype=np.float64)
        f = np.asarray(failure_probs, dtype=np.float64)
        if p.shape != (K,) or f.shape != (K,):
            raise DomainError(f"explicit vectors must have length K={K}")
    else:
        rng = np.random.default_rng(seed)
        raw = 1.0 + rng.pareto(1.5, size=K)
        p = raw / math.fsum(raw.tolist())
        n_risky = max(1, K // 5)
        risky = np.argsort(p)[:n_risky]
        f = np.zeros(K)
        u = rng.uniform(0.5, 1.0, size=n_risky)
        scale = r_target / math.fsum((p[risky] * u).tolist())
        f[risky] = scale * u
        if np.any(f > 1.0):
            raise DomainError(
                f"r_target {r_target} unreachable: risky cells carry too little mass"
            )
    return CellularTestbed(p, f, _companion_proposal(p, f, proposal_mass_on_risky))


def _companion_proposal(p: np.ndarray, f: np.ndarray, q_risky: float) -> np.ndarray:
    """Put q_risky proposal mass on the can-fail cells, spread
    proportionally to mass * failure probability (the variance-optimal
    tilt), and the rest on the safe cells proportionally to mass."""
    can_fail = f > 0.0
    if not np.any(can_fail):
        raise DomainError("at least one cell must be able to fail")
    q = np.zeros_like(p)
    pf = p[can_fail] * f[can_fail]
    q[can_fail] = q_risky * pf / pf.sum()
    safe_mass = float(p[~can_fail].sum())
    if safe_mass > 0.0:
        q[~can_fail] = (1.0 - q_risky) * p[~can_fail] / safe_mass
    else:
        q[can_fail] /= q_risky
    total = math.fsum(q.tolist())
    q /= total
    return q


def rare_event_acceptance_testbed() -> CellularTestbed:
    """The fixed 40-cell configuration used by the bundled rare-event
    campaign config.

    Five risky cells share total target mass 3.2e-8 and always fail;
    the proposal concentrates 0.998 of its mass there, so importance-
    weighted measures are either 0 or r_star/0.998 and campaigns
    terminate in tens of samples with estimates tightly packed around
    r_star. The safe-cell mass ratio is just under 500, which is the
    importance sampler's weight cap on this bed.
    """
    risky = _power_law_masses(5, 3.2e-8)
    safe = _power_law_masses(35, 1.0 - 3.2e-8)
    p = np.concatenate([risky, safe])
    f = np.concatenate([np.ones(5), np.zeros(35)])
    q = np.concatenate([0.998 * risky / risky.sum(), 0.002 * safe / safe.sum()])
    q /= math.fsum(q.tolist())
    return CellularTestbed(p, f, q)


def moderate_cellular_testbed() -> CellularTestbed:
    """Fixed 30-cell configuration with r_star = 0.05: ten risky cells
    of total mass 0.1 failing half the time. Used for cross-sampler
    studies where a non-negligible failure rate keeps plain Monte
    Carlo informative."""
    risky = _power_law_masses(10, 0.1)
    safe = _power_law_masses(20, 0.9)
    p = np.concatenate([risky, safe])
    f = np.concatenate([np.full(10, 0.5), np.zeros(20)])
    q = np.concatenate([0.5 * risky / risky.sum(), 0.5 * safe / safe.sum()])
    q /= math.fsum(q.tolist())
    return CellularTestbed(p, f, q)


def convergence_study_testbed() -> CellularTestbed:
    """Fixed 13-cell configuration for running-mean convergence checks.

    Cell 0 always fails, carries target mass 0.256, and is proposed
    with probability only 5e-4, so its importance weight is 512. At
    n = 1e3 the expected number of heavy draws is 0.5: the integer
    draw count leaves the running mean offset from r_star by at least
    256/1000 on every run, far above the light-cell noise (sd ~ 0.01).
    At n = 1e6 the heavy count concentrates (sd ~ 22 draws around 500)
    and the error collapses to the CLT scale ~ 0.011. The n=1e3 vs
    n=1e6 error decrease is therefore decisive on every seed, not a
    coin flip riding the tail of two overlapping error distributions;
    a bed whose checkpoint errors are both plain CLT noise passes a
    per-seed decrease check only ~98% of the time, which no 100-seed
    registry can certify at a 99/100 bar.
    """
    q_heavy = 5e-4
    p_heavy = 512.0 * q_heavy
    light = _power_law_masses(12, 1.0 - p_heavy)
    p = np.concatenate([[p_heavy], light])
    # Heterogeneous light failure rates keep the value distribution off
    # any two-atom lattice that could tie the checkpoint errors.
    f = np.concatenate([[1.0], 0.2 + 0.05 * np.arange(1, 13) / 12.0])
    # Scale only the light block; renormalizing the whole vector would
    # nudge q_heavy off the exact power-of-two relation with p_heavy.
    q_light = light * ((1.0 - q_heavy) / math.fsum(light.tolist()))
    q = np.concatenate([[q_heavy], q_light])
    return CellularTestbed(p, f, q)


class DisplacementTestbed(_Testbed):
    """Planar workspace with a stochastic displacement measure in
    [0, 6].

    The mean field is 1.75 + 0.2 * x * y over the unit square (so the
    target mean is exactly 1.8); noise is uniform on [-0.6, 0.6].
    Values stay well inside the declared range; clipping is a hard
    safety net, not an operating regime.

    The oracle is exact and draws nothing, so oracle_se is 0.
    """

    kind = "displacement-field"
    fields = {"noise": flag, "mean_constant": real_or_null}
    m_high = 6.0

    def __init__(self, *, noise: bool = True, mean_constant: float | None = None) -> None:
        if mean_constant is not None and not 0.0 <= mean_constant <= 6.0:
            raise DomainError(f"mean_constant must lie in [0, 6], got {mean_constant}")
        self.noise = bool(noise)
        self.mean_constant = mean_constant
        self.domain = BoxDomain([0.0, 0.0], [1.0, 1.0])
        self.target = BoxUniform(self.domain)

    def _mean_field(self, points: np.ndarray) -> np.ndarray:
        if self.mean_constant is not None:
            return np.full(points.shape[0], self.mean_constant)
        return 1.75 + 0.2 * points[:, 0] * points[:, 1]

    def evaluate_many(self, points, rng):
        x = np.atleast_2d(np.asarray(points, dtype=np.float64))
        mu = self._mean_field(x)
        if self.noise:
            mu = mu + rng.uniform(-0.6, 0.6, size=x.shape[0])
        return np.clip(mu, self.m_low, self.m_high)

    @property
    def oracle_r_star(self) -> float:
        """E[psi] in closed form. The field never reaches the clip, so
        its mean is 1.75 + 0.2 E[x] E[y]; a constant c plus uniform
        noise on [-0.6, 0.6] is clipped at 0 below c = 0.6 and at 6
        above c = 5.4."""
        c = self.mean_constant
        if c is None:
            return 1.75 + 0.2 * 0.25
        if not self.noise or 0.6 <= c <= 5.4:
            return float(c)
        if c < 0.6:
            return (c + 0.6) ** 2 / 2.4
        return c - (c - 5.4) ** 2 / 2.4


class TrackingTestbed(_Testbed):
    """Command-tracking simulator over the [-0.3, 0.3]^3 command box.

    A commanded state held for 150 steps picks up a proportional bias
    plus Gaussian per-step noise whose scale grows with the command
    magnitude, so larger commands track worse. The measure is
    tracking_loss of the trajectory (simulate draws one).

    Given a command x with r = |x|, the total squared deviation is
    sigma^2 X with
    X ~ noncentral chi-square(k = 450, lambda = 150 (b r)^2 / sigma^2),
    sigma = _noise_scale(r) and b = bias_gain. evaluate_many draws the
    loss from that exact law rather than from a trajectory, one
    ``rng.noncentral_chisquare`` draw per command instead of 450
    normals. numpy draws it value by value as chi-square(449) +
    (Z + sqrt(lambda))^2, which is what rotating the 450 Gaussian
    deviations so that their mean lies on one axis leaves; so a batch
    of commands uses the stream as the same commands one at a time
    would. A command with sigma^2 = 0 (a noise-free bed) has the
    deterministic deviation 150 (b r)^2 and draws nothing.

    The oracle is exact and draws nothing. The moment generating
    function E[exp(t X)] = exp(lambda t / (1 - 2t)) (1 - 2t)^(-k/2) at
    t = -6 sigma^2 gives E[psi | x] in closed form (conditional_mean).
    That form never divides by sigma^2, so it also holds for a
    noise-free bed. E[psi | x] depends on |x| only, so r_star, its mean
    over the box, is its mean over one octant, taken by a tensor
    Gauss-Legendre rule. oracle_se is an error estimate for that
    number: the gap between the 48- and 32-node rules plus the
    floating-point bound n^3 eps r_star on the 48^3-term sum. It is
    positive (except on a bed whose loss is identically 0) and far
    below 1e-9.
    """

    kind = "tracking-sim"
    fields = {"sim_gap": real, "bias_gain": real, "noise_base": real, "noise_slope": real}

    def __init__(self, sim_gap: float = 0.0, *, bias_gain: float = 0.05,
                 noise_base: float = 0.005, noise_slope: float = 0.02) -> None:
        for name, value in zip(self.fields, (sim_gap, bias_gain, noise_base, noise_slope)):
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value}")
            setattr(self, name, float(value))
        if self.sim_gap < 0.0:
            raise DomainError(f"sim_gap must be nonnegative, got {sim_gap}")
        self.domain = BoxDomain([-0.3] * 3, [0.3] * 3)
        self.target = BoxUniform(self.domain)

    def _noise_scale(self, cmd_norm: np.ndarray) -> np.ndarray:
        return (self.noise_base + self.noise_slope * cmd_norm) * (1.0 + self.sim_gap)

    def simulate(self, commanded, rng) -> np.ndarray:
        """One observed 150-step trajectory for a single command."""
        cmd = np.asarray(commanded, dtype=np.float64)
        norm = float(np.linalg.norm(cmd))
        sigma = float(self._noise_scale(np.array([norm]))[0])
        drift = (1.0 + self.bias_gain) * cmd
        return drift + sigma * rng.standard_normal((TRAJECTORY_STEPS, 3))

    def evaluate_many(self, points, rng):
        """psi for each command, from the law of the total squared
        deviation: sigma^2 noncentral_chisquare(450, lambda) with
        lambda = (sqrt(150) b r / sigma)^2, one draw per command in
        command order, so the stream's use does not depend on how the
        commands are batched. Like the oracle, the law reads sigma only
        through sigma^2. A command whose sigma^2 is 0 (a noise-free bed,
        or a sigma that underflows when squared) or whose lambda
        overflows has a negligible noise term and draws nothing: its
        deviation is (sqrt(150) b r)^2 exactly."""
        x = np.asarray(points, dtype=np.float64)
        if x.ndim < 2:
            x = x.reshape(1, -1)
        norms = np.sqrt(np.add.reduce(x * x, axis=1))  # np.linalg.norm's arithmetic
        sigma = self._noise_scale(norms)
        shift = norms * (math.sqrt(TRAJECTORY_STEPS) * self.bias_gain)
        variance = sigma * sigma
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            ratio = shift / sigma
            lam = ratio * ratio
        noisy = (variance > 0.0) & np.isfinite(lam)
        if np.logical_and.reduce(noisy):  # the usual case: every command draws
            total = rng.noncentral_chisquare(3 * TRAJECTORY_STEPS, lam) * variance
        else:
            total = shift * shift
            if noisy.any():
                draws = rng.noncentral_chisquare(3 * TRAJECTORY_STEPS, lam[noisy])
                total[noisy] = draws * variance[noisy]
        total *= -6.0
        return -np.expm1(total)

    def _mean_at_norm(self, norms: np.ndarray) -> np.ndarray:
        spread = 12.0 * self._noise_scale(norms) ** 2  # (1 - 2t) - 1 at t = -6 sigma^2
        bias_sq = (self.bias_gain * norms) ** 2
        return -np.expm1(
            -1.5 * TRAJECTORY_STEPS * np.log1p(spread)
            - 6.0 * TRAJECTORY_STEPS * bias_sq / (1.0 + spread)
        )

    def conditional_mean(self, points) -> np.ndarray:
        """E[psi | x] for each command x, in closed form:
        -expm1(-225 log1p(12 sigma^2) - 900 (b r)^2 / (1 + 12 sigma^2))."""
        x = np.atleast_2d(np.asarray(points, dtype=np.float64))
        return self._mean_at_norm(np.sqrt(np.add.reduce(x * x, axis=1)))

    def _octant_mean(self, nodes: int) -> float:
        """Mean of E[psi | x] over [0, 0.3]^3 by the tensor Gauss-Legendre
        rule with the given number of nodes per axis."""
        t, w = _leggauss(nodes)
        half = self.domain.hi[0]
        sq = (0.5 * half * (t + 1.0)) ** 2
        w = 0.5 * w  # weights of the mean over [0, half]
        r = np.sqrt(sq[:, None, None] + sq[None, :, None] + sq[None, None, :])
        vals = self._mean_at_norm(r)
        vals *= w[:, None, None] * w[None, :, None] * w[None, None, :]
        return float(np.sum(vals))

    def _oracle(self):
        key = (self.kind, *(getattr(self, k) for k in self.fields))
        if key not in _oracle_cache:
            mean = self._octant_mean(_QUADRATURE_NODES)
            gap = abs(mean - self._octant_mean(_CHECK_NODES))
            rounding = _QUADRATURE_NODES**3 * np.finfo(np.float64).eps * mean
            _oracle_cache[key] = (mean, gap + rounding)
        return _oracle_cache[key]

    @property
    def oracle_r_star(self) -> float:
        return self._oracle()[0]

    @property
    def oracle_se(self) -> float:
        return self._oracle()[1]


_KINDS = {
    CellularTestbed.kind: CellularTestbed,
    DisplacementTestbed.kind: DisplacementTestbed,
    TrackingTestbed.kind: TrackingTestbed,
}


def testbed_from_spec(spec: dict):
    """Rebuild a testbed from its JSON descriptor; a descriptor that is
    not an object or names no known kind, a missing field or a field of
    the wrong JSON type raises DomainError. Keys the testbed does not
    read are ignored."""
    kind = mapping(spec, "testbed").get("kind")
    if not isinstance(kind, str) or kind not in _KINDS:
        raise DomainError(f"unknown testbed kind {kind!r}")
    cls = _KINDS[kind]
    try:
        bed = cls.from_spec(spec)
    except KeyError as exc:
        raise DomainError(f"{cls.kind} testbed descriptor missing field {exc.args[0]!r}") from exc
    for bound in ("m_low", "m_high"):
        if bound in spec and real(spec[bound], bound) != getattr(bed, bound):
            raise DomainError(f"descriptor {bound} disagrees with testbed definition")
    return bed
