"""Campaign harness: runs adaptively-terminated sampling campaigns
against a shared partition and aggregates repeatability statistics.

The protocol has two roles. An initiating party picks the accuracy
contract, computes the cell width, builds the partition, and publishes
a checksummed artifact together with its own quantized estimate. Any
replicating party loads the artifact, rebuilds the identical partition,
and runs its own campaign with an independent seed (and possibly a
different sampler). Both sides report cell midpoints; agreement is what
the repeatability contract promises.

Randomness contract
-------------------
All randomness flows from numpy SeedSequence spawning. A campaign's
stream is SeedSequence(seed, spawn_key=(pair, arm)); inside a campaign
that stream is split once into a sampler stream and an evaluator-noise
stream, so switching samplers never perturbs the noise a testbed would
have produced for the same draw positions. Reports are reproducible
bit for bit from (config, seed) alone, regardless of execution order.

Effort accounting
-----------------
A trial's n counts the evaluator invocations consumed by the estimator.
Campaigns draw and evaluate in chunks, so the chunk that holds the
terminating test also evaluates the tests after it in that chunk; those
speculative evaluations are discarded, as in a physical campaign that
stops at the terminating test, but they are real test executions.
``evaluated_n`` counts them all and ``chunks`` counts the draws. Chunks
grow as 64, 128, 256, ... samples up to the ``chunk_size`` cap (the next
chunk is min(cap, n + 64) samples), so a campaign that stops at n has
evaluated at most 2n + 64 tests; AIS draws one batch of d samples per
chunk and evaluates at most n + d - 1. The scan kernel's result does not
depend on the chunking, so neither does any estimate.
"""

from __future__ import annotations

import dataclasses
import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from ._fields import mapping, real, real_or_null, whole
from .artifact import (
    RNG_ALGORITHM,
    build_artifact,
    partition_from_payload,
    sealed_content,
    verify_artifact,
)
from .errors import (
    ArtifactVersionMismatch,
    BoundViolation,
    ClampWarning,
    ContractViolation,
    DomainError,
    NonTerminated,
    OracleBudgetError,
    WeightCapExceeded,
    ZeroProposalDensity,
)
from .estimator import (
    RANGE_TERM_MODES,
    BoundSpec,
    MAX_SAMPLES,
    EstimatorState,
)
from .quantize import AccuracySpec, Partition, build_partition, compute_alpha, quantize
from .samplers import AisPolicy, ais_update, mixture_sample_many, proposal_snapshot
from .testbeds import testbed_class, testbed_from_spec

__all__ = [
    "SAMPLER_KINDS",
    "OFFSET_POLICIES",
    "CampaignConfig",
    "TrialResult",
    "RadiusTrace",
    "RepeatabilityReport",
    "EffortComparison",
    "ConvergenceStudy",
    "campaign_stream",
    "run_quantized_sq",
    "initiator",
    "replicator",
    "config_from_artifact",
    "pairwise_experiment",
    "effort_comparison",
    "convergence_study",
]

OFFSET_POLICIES = ("zero", "uniform-random")

INITIATOR_ARM = 0
REPLICATOR_ARM = 1
# Dedicated spawn key for the partition-offset draw; far outside the
# pair-index range so offset randomness never collides with arm streams.
_OFFSET_STREAM_KEY = 0x0FF5E7

_CHUNK = 8192  # default cap on the chunk size
_FIRST_CHUNK = 64
_CONVERGENCE_CHUNK = 250_000
# Relative slack for float dust when checking declared bounds.
_BOUND_SLACK = 1.0 + 1e-9
# The AIS sampler fields and their readers; a missing field takes the
# AisPolicy default.
_AIS_FIELDS = {"mix_p": real, "d": whole, "l_r": real, "init_shape": real}
# Each sampler kind and the fields it reads besides ``kind``.
_SAMPLER_FIELDS = {"monte_carlo": {}, "importance": {}, "ais": _AIS_FIELDS}
SAMPLER_KINDS = tuple(_SAMPLER_FIELDS)
# Fields of a result record that its to_dict leaves out: wall time
# (timings belong in the run manifest, so result files stay byte-stable),
# the per-sample and per-pair tables (written as CSV files of their own)
# and the campaign an effort comparison was taken from.
_UNRECORDED = ("trace", "wall_time_s", "rows", "result")


@dataclass(frozen=True)
class CampaignConfig:
    """Everything a campaign needs, in one serializable bundle.

    ``sampler`` and ``testbed`` are plain JSON-shaped dicts (the
    testbed dict is whatever the testbed's to_spec produced). A sampler
    key its kind does not read is rejected; a testbed key its kind does
    not read is ignored and left out of ``to_dict``. The declared
    interval must match the testbed's declared measure range; the bound
    m is always m_high - m_low.
    """

    accuracy: AccuracySpec
    m_low: float
    m_high: float
    w_bar: float
    joint: float | None
    sampler: dict
    testbed: dict
    seed: int
    offset_policy: str = "zero"
    n_min: int = 2
    n_max: int = 10_000_000
    range_term_mode: str = "paper-exact"

    def __post_init__(self) -> None:
        if not self.m_high > self.m_low:
            raise DomainError(f"empty interval [{self.m_low}, {self.m_high}]")
        if self.offset_policy not in OFFSET_POLICIES:
            raise DomainError(
                f"offset_policy must be one of {OFFSET_POLICIES}, got {self.offset_policy!r}"
            )
        if self.range_term_mode not in RANGE_TERM_MODES:
            raise DomainError(
                f"range_term_mode must be one of {RANGE_TERM_MODES}, "
                f"got {self.range_term_mode!r}"
            )
        kind = self.sampler.get("kind") if isinstance(self.sampler, dict) else None
        if not isinstance(kind, str) or kind not in _SAMPLER_FIELDS:
            raise DomainError(f"sampler kind must be one of {SAMPLER_KINDS}, got {kind!r}")
        unread = sorted(k for k in self.sampler if k != "kind" and k not in _SAMPLER_FIELDS[kind])
        if unread:
            raise DomainError(f"{kind} sampler does not read {unread}")
        if kind == "ais":
            self.ais_policy()  # validates the policy fields up front
        _check_seed(self.seed)
        if self.n_min < 1:
            raise DomainError(f"n_min must be >= 1, got {self.n_min}")
        if self.n_max < max(2, self.n_min):
            raise DomainError(f"n_max {self.n_max} below the termination floor")
        if self.n_max > MAX_SAMPLES:
            raise DomainError(f"n_max {self.n_max} above the 2**53 sample limit")
        # Constructing the BoundSpec validates w_bar, c, joint.
        self.bound_spec

    @property
    def bound_spec(self) -> BoundSpec:
        return BoundSpec(
            m=self.m_high - self.m_low,
            w_bar=self.w_bar,
            c=self.accuracy.c,
            joint=self.joint,
        )

    @property
    def stop_rule(self) -> _kernels.StopRule:
        return _kernels.StopRule.for_campaign(
            self.accuracy.gamma, self.bound_spec, self.range_term_mode, self.n_min
        )

    def ais_policy(self) -> AisPolicy:
        s = self.sampler
        return AisPolicy(**{k: read(s[k], k) for k, read in _AIS_FIELDS.items() if k in s})

    def build_testbed(self):
        bed = testbed_from_spec(self.testbed)
        if bed.m_low != self.m_low or bed.m_high != self.m_high:
            raise DomainError(
                f"config interval [{self.m_low}, {self.m_high}] does not match "
                f"testbed interval [{bed.m_low}, {bed.m_high}]"
            )
        _check_sampler_bounds(self, bed)
        return bed

    def to_dict(self) -> dict:
        sealed = ("kind", "m_low", "m_high", *testbed_class(self.testbed).fields)
        return {
            "accuracy": {
                "gamma": self.accuracy.gamma,
                "c": self.accuracy.c,
                "beta": self.accuracy.beta,
            },
            "interval": {"m_low": self.m_low, "m_high": self.m_high},
            "bounds": {"w_bar": self.w_bar, "joint": self.joint},
            "sampler": dict(self.sampler),
            "testbed": {k: v for k, v in self.testbed.items() if k in sealed},
            "seed": self.seed,
            "offset_policy": self.offset_policy,
            "n_min": self.n_min,
            "n_max": self.n_max,
            "range_term_mode": self.range_term_mode,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CampaignConfig":
        """Parse a JSON-shaped config; a missing field or a field of the
        wrong JSON type raises DomainError; a missing optional field takes
        its dataclass default (the class attribute of that name)."""
        d = mapping(d, "campaign config")
        try:
            acc = mapping(d["accuracy"], "accuracy")
            interval = mapping(d["interval"], "interval")
            bounds = mapping(d.get("bounds", {}), "bounds")
            return cls(
                accuracy=AccuracySpec(
                    real(acc["gamma"], "gamma"), real(acc["c"], "c"), real(acc["beta"], "beta")
                ),
                m_low=real(interval["m_low"], "m_low"),
                m_high=real(interval["m_high"], "m_high"),
                w_bar=real(bounds.get("w_bar", 1.0), "w_bar"),
                joint=real_or_null(bounds.get("joint"), "joint"),
                sampler=dict(mapping(d["sampler"], "sampler")),
                testbed=dict(mapping(d["testbed"], "testbed")),
                seed=whole(d["seed"], "seed"),
                offset_policy=d.get("offset_policy", cls.offset_policy),
                n_min=whole(d.get("n_min", cls.n_min), "n_min"),
                n_max=whole(d.get("n_max", cls.n_max), "n_max"),
                range_term_mode=d.get("range_term_mode", cls.range_term_mode),
            )
        except KeyError as exc:
            raise DomainError(f"campaign config missing field {exc.args[0]!r}") from exc


def _check_seed(seed) -> None:
    if not isinstance(seed, int) or seed < 0:
        raise DomainError(f"seed must be a nonnegative integer, got {seed!r}")


def _check_sampler_bounds(config: CampaignConfig, testbed) -> None:
    """Reject a sampler that cannot honor the declared weight cap."""
    kind = config.sampler["kind"]
    w_bar = config.w_bar
    if kind == "monte_carlo":
        return  # weights are identically 1 <= w_bar
    if kind == "importance":
        q = testbed.proposal
        if q is None or not hasattr(q, "masses"):
            return  # falls back to q = target; weights identically 1
        p = testbed.target.masses
        live = p > 0.0
        ratios = p[live] / q.masses[live]
        worst = float(np.max(ratios)) if ratios.size else 1.0
        if worst > w_bar * _BOUND_SLACK:
            raise BoundViolation(
                f"importance sampler's worst mass ratio {worst:.6g} exceeds "
                f"the declared cap {w_bar:.6g}"
            )
        return
    if kind == "ais":
        if testbed.domain is None:
            raise DomainError("ais sampling needs a box-domain testbed")
        mix_p = config.ais_policy().mix_p
        if mix_p <= 0.0:
            raise BoundViolation(
                "ais with mix_p = 0 has no provable weight cap; declare mix_p > 0"
            )
        if 1.0 / mix_p > w_bar * _BOUND_SLACK:
            raise BoundViolation(
                f"ais weight cap 1/mix_p = {1.0 / mix_p:.6g} exceeds the "
                f"declared cap {w_bar:.6g}"
            )
        return
    raise DomainError(f"unknown sampler kind {kind!r}")


def _record_dict(record, *derived: str) -> dict:
    """A result record's JSON-shaped summary: each dataclass field but
    the _UNRECORDED ones and the optional ones (default None) that are
    None, then each named derived property."""
    d = {}
    for f in dataclasses.fields(record):
        value = getattr(record, f.name)
        if f.name not in _UNRECORDED and not (value is None and f.default is None):
            d[f.name] = value
    for name in derived:
        d[name] = getattr(record, name)
    return d


@dataclass(frozen=True)
class RadiusTrace:
    """Per-sample diagnostics for the consumed prefix of a campaign."""

    n: np.ndarray
    estimate: np.ndarray
    sigma_hat: np.ndarray
    bernstein: np.ndarray
    hoeffding: np.ndarray

    def __len__(self) -> int:
        return int(self.n.size)


@dataclass(frozen=True)
class TrialResult:
    """One campaign's outcome with full provenance."""

    raw_estimate: float
    quantized_estimate: float
    cell: int
    clamped: bool
    n: int
    sigma_hat_final: float
    bernstein_radius_final: float
    hoeffding_radius_final: float
    terminated: bool
    sampler_kind: str
    weight_cap_violations: int
    evaluated_n: int  # test executions, speculative ones included
    chunks: int
    wall_time_s: float
    trace: RadiusTrace | None = field(default=None, repr=False)
    ais_final_proposal: dict | None = field(default=None, repr=False)
    # AIS only: refits whose fresh fit hit the proposal shape bounds
    clamped_fits: int | None = None

    def to_dict(self) -> dict:
        return _record_dict(self)


def campaign_stream(seed: int, pair: int, arm: int) -> np.random.SeedSequence:
    """The deterministic sub-stream for one campaign arm."""
    return np.random.SeedSequence(seed, spawn_key=(pair, arm))


class _FixedSampler:
    """Draw values for monte_carlo and fixed-proposal importance runs.

    Monte Carlo is importance sampling with q = p run through the same
    code path: the weight computes as p(x)/p(x) = 1.0 exactly, so an
    importance run whose proposal equals the target produces the bit-
    identical value stream a monte_carlo run would.
    """

    def __init__(self, bed, use_proposal: bool, w_bar: float) -> None:
        self.bed = bed
        self.w_bar = w_bar
        self.target = bed.target
        q = bed.proposal if use_proposal else None
        self.source = q if q is not None else self.target
        if hasattr(self.target, "masses"):
            p_m = self.target.masses
            q_m = self.source.masses
            covered = (q_m > 0.0) | (p_m == 0.0)
            if not covered.all():
                raise ZeroProposalDensity(
                    "proposal assigns zero mass to a cell with target mass"
                )
            self.ratio = np.divide(
                p_m, q_m, out=np.zeros_like(p_m), where=q_m > 0.0
            )
        else:
            self.ratio = None

    def draw(self, rng_s, rng_e, k: int):
        xs = self.source.sample_many(rng_s, k)
        psi = self.bed.evaluate_many(xs, rng_e)
        if self.ratio is not None:
            w = self.ratio[np.asarray(xs, dtype=np.int64)]
        else:
            p_d = self.target.density_many(xs)
            q_d = self.source.density_many(xs)
            starved = (q_d <= 0.0) & (p_d > 0.0)
            if np.any(starved):
                raise ZeroProposalDensity(
                    "proposal density vanished at a sampled point with "
                    "positive target density"
                )
            w = np.divide(p_d, q_d, out=np.zeros(k), where=q_d > 0.0)
        violations = int(np.count_nonzero(w > self.w_bar * _BOUND_SLACK))
        return psi * w, xs, violations

    def post_chunk(self, xs, values) -> None:
        pass


class _AisSampler:
    """Mixture-of-target-and-adapted-Beta draws, refitted after every
    batch on the psi * w-weighted moments of all batches so far."""

    def __init__(self, bed, policy: AisPolicy, w_bar: float) -> None:
        self.bed = bed
        self.policy = policy
        self.w_bar = w_bar
        self.q = policy.initial_proposal(bed.domain)
        self.sums = np.zeros((3, bed.domain.dims))  # see ais_update
        self.clamped_fits = 0

    def draw(self, rng_s, rng_e, k: int):
        pts, w = mixture_sample_many(
            self.bed.target, self.q, self.policy.mix_p, rng_s, k
        )
        psi = self.bed.evaluate_many(pts, rng_e)
        violations = int(np.count_nonzero(w > self.w_bar * _BOUND_SLACK))
        return psi * w, pts, violations

    def post_chunk(self, xs, values) -> None:
        # Refit only on full batches; a truncated final batch carries no
        # update (the campaign is ending anyway). Clamped fits are
        # tallied here and surfaced once per campaign.
        if xs.shape[0] != self.policy.d:
            return
        self.q = ais_update(self.q, xs, self.policy, values, self.sums)
        self.clamped_fits += self.q.refit_clamps


def _make_sampler(config: CampaignConfig, bed):
    kind = config.sampler["kind"]
    if kind == "monte_carlo":
        return _FixedSampler(bed, use_proposal=False, w_bar=config.w_bar)
    if kind == "importance":
        return _FixedSampler(bed, use_proposal=True, w_bar=config.w_bar)
    return _AisSampler(bed, config.ais_policy(), config.w_bar)


def run_quantized_sq(
    config: CampaignConfig,
    partition: Partition,
    rng_stream,
    *,
    testbed=None,
    record_trace: bool = False,
    chunk_size: int = _CHUNK,
) -> TrialResult:
    """One campaign: sample, evaluate, weight, and update until the
    termination radius reaches gamma, then quantize the running mean.

    ``rng_stream`` is a numpy SeedSequence (an int is promoted to one).
    Chunks grow 64, 128, 256, ... up to ``chunk_size`` (AIS draws one
    batch of d per chunk instead); see the module docstring for what
    that costs in speculative evaluations. The sampler and
    evaluator-noise streams are consumed position-aligned and the scan
    kernel's sums do not depend on where the chunks split, so every field but
    ``evaluated_n``, ``chunks`` and the wall time is bit-identical for
    any ``chunk_size``.

    Raises NonTerminated at n_max with the partial result attached.
    """
    if chunk_size < 1:
        raise DomainError(f"chunk_size must be >= 1, got {chunk_size}")
    t0 = time.perf_counter()
    bed = testbed if testbed is not None else config.build_testbed()
    rule = config.stop_rule
    kind = config.sampler["kind"]
    sampler = _make_sampler(config, bed)
    ais = isinstance(sampler, _AisSampler)

    ss = rng_stream
    if not isinstance(ss, np.random.SeedSequence):
        ss = np.random.SeedSequence(ss)
    s_sample, s_noise = ss.spawn(2)
    rng_s = np.random.default_rng(s_sample)
    rng_e = np.random.default_rng(s_noise)

    state = EstimatorState()
    cap_violations = 0
    evaluated = 0
    chunks = 0
    stopped = False
    trace_parts: list | None = [] if record_trace else None
    while not stopped and state.n < config.n_max:
        k = sampler.policy.d if ais else min(chunk_size, state.n + _FIRST_CHUNK)
        k = min(k, config.n_max - state.n)
        values, xs, violations = sampler.draw(rng_s, rng_e, k)
        evaluated += k
        chunks += 1
        worst = float(np.abs(values).max())
        if not worst <= rule.product * _BOUND_SLACK:  # NaN included
            raise BoundViolation(
                f"testbed {config.testbed.get('kind')!r} gave weighted measure "
                f"{worst:.6g}, outside the declared bound {rule.product:.6g}; "
                f"the termination radii are void"
            )
        if record_trace:
            trace_parts.append(_kernels.trace_radii(values, state, rule))
        i, state = _kernels.scan_terminate(values, state, rule)
        stopped = i >= 0
        if record_trace and stopped:
            trace_parts[-1] = tuple(col[: i + 1] for col in trace_parts[-1])
        cap_violations += violations
        if not stopped:
            sampler.post_chunk(xs, values)
    wall = time.perf_counter() - t0

    n = state.n
    bern, hoef = rule.final(state)
    radius = min(bern, hoef)
    trace = None
    if record_trace:
        cols = [np.concatenate([part[j] for part in trace_parts]) for j in range(5)]
        trace = RadiusTrace(*cols)
    snapshot = clamped_fits = None
    if ais:
        snapshot = proposal_snapshot(sampler.q, sampler.policy, RNG_ALGORITHM, config.seed)
        clamped_fits = sampler.clamped_fits
    qv = quantize(state.mean, partition)
    result = TrialResult(
        raw_estimate=state.mean,
        quantized_estimate=qv.value,
        cell=qv.cell,
        clamped=qv.clamped,
        n=n,
        sigma_hat_final=state.variance,
        bernstein_radius_final=bern,
        hoeffding_radius_final=hoef,
        terminated=stopped,
        sampler_kind=kind,
        weight_cap_violations=cap_violations,
        evaluated_n=evaluated,
        chunks=chunks,
        wall_time_s=wall,
        trace=trace,
        ais_final_proposal=snapshot,
        clamped_fits=clamped_fits,
    )
    if not stopped:
        raise NonTerminated(
            f"campaign reached n_max = {config.n_max} with min radius "
            f"{radius:.6g} still above gamma = {rule.gamma:.6g}",
            result=result,
        )
    if cap_violations:
        warnings.warn(
            f"{cap_violations} importance weights exceeded the declared cap "
            f"{config.w_bar:.6g}",
            WeightCapExceeded,
            stacklevel=2,
        )
    if clamped_fits:
        warnings.warn(
            f"{clamped_fits} adaptive refits were clamped to the proposal "
            f"shape bounds or had no weight to fit",
            ClampWarning,
            stacklevel=2,
        )
    # Postconditions of the termination contract.
    if result.quantized_estimate != partition.midpoint(result.cell):
        raise ContractViolation(
            f"quantized estimate {result.quantized_estimate!r} is not the "
            f"midpoint of its cell {result.cell}"
        )
    if not radius <= rule.gamma * _BOUND_SLACK:
        raise ContractViolation(
            f"campaign stopped at n = {n} with min radius {radius!r} "
            f"above gamma = {rule.gamma!r}"
        )
    return result


def _draw_offset(config: CampaignConfig, alpha: float) -> float:
    if config.offset_policy == "zero":
        return 0.0
    rng = np.random.default_rng(
        np.random.SeedSequence(config.seed, spawn_key=(_OFFSET_STREAM_KEY,))
    )
    return float(rng.uniform(0.0, alpha))


def _campaign_partition(config: CampaignConfig) -> Partition:
    """The grid a config fixes: cell width from its accuracy contract,
    first-cell offset from its offset policy."""
    alpha = compute_alpha(config.accuracy)
    return build_partition(config.m_low, config.m_high, alpha, _draw_offset(config, alpha))


def initiator(config: CampaignConfig) -> tuple[dict, TrialResult]:
    """Fix the partition, publish the artifact, run the first campaign."""
    partition = _campaign_partition(config)
    art = build_artifact(config, partition)
    result = run_quantized_sq(
        config, partition, campaign_stream(config.seed, 0, INITIATOR_ARM)
    )
    return art, result


def config_from_artifact(art: dict, seed: int) -> CampaignConfig:
    """The sealed config of an artifact that passed ``verify_artifact``,
    with the replicator's own seed.

    The config reader parses the sealed dict, which must then be exactly
    the ``to_dict()`` of what it parsed to, without the seed: a dropped
    key that the reader would fill with its default, an extra key and a
    sealed seed all fail that comparison. Sealed content that fails to
    parse or to compare raises ArtifactVersionMismatch; an invalid
    ``seed`` raises DomainError.
    """
    _check_seed(seed)
    with sealed_content("config"):
        sealed = mapping(art["config"], "config")
        config = CampaignConfig.from_dict({**sealed, "seed": seed})
        written = config.to_dict()
        del written["seed"]
        if written != sealed:
            keys = sorted(
                k for k in written.keys() | sealed.keys()
                if k not in written or k not in sealed or written[k] != sealed[k]
            )
            raise DomainError(f"sealed config is not as a config writes it, at {keys}")
    return config


def replicator(
    art: dict, seed: int, sampler_override: dict | None = None
) -> TrialResult:
    """Reproduce the initiator's cell structure and run independently.

    The artifact is integrity-checked, the partition is rebuilt bit for
    bit, and the rebuilt cell width is cross-checked against the
    accuracy contract it claims to come from. Invalid sealed content
    (config, grid or testbed) raises ArtifactVersionMismatch; an invalid
    seed or ``sampler_override`` is the replicator's own input error.
    """
    art = verify_artifact(art)
    config = config_from_artifact(art, seed)
    partition = partition_from_payload(art["grid"], config.m_low, config.m_high)
    if compute_alpha(config.accuracy) != partition.alpha:
        raise ArtifactVersionMismatch(
            "artifact cell width does not come from its own accuracy contract"
        )
    with sealed_content("testbed"):
        bed = config.build_testbed()
    if sampler_override is not None:
        config = dataclasses.replace(config, sampler=dict(sampler_override))
        _check_sampler_bounds(config, bed)
    return run_quantized_sq(
        config, partition, campaign_stream(seed, 0, REPLICATOR_ARM), testbed=bed
    )


@dataclass(frozen=True)
class RepeatabilityReport:
    """Aggregate of a pairwise campaign suite over one fixed partition."""

    n_pairs: int
    star: bool
    repeat_count: int
    n_trials: int
    accuracy_hits: int
    raw_gamma_hits: int
    alpha: float
    gamma: float
    tolerance: float
    oracle_r_star: float
    oracle_se: float
    partition_checksum: str
    sampler_initiator: str
    sampler_replicator: str
    range_term_mode: str
    seed: int
    effort: dict
    rows: list = field(repr=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.repeat_rate <= 1.0:
            raise DomainError(f"repeat_rate {self.repeat_rate} outside [0, 1]")
        if not 0.0 <= self.accuracy_hit_rate <= 1.0:
            raise DomainError(f"accuracy_hit_rate {self.accuracy_hit_rate} outside [0, 1]")

    @property
    def repeat_rate(self) -> float:
        return self.repeat_count / self.n_pairs

    @property
    def accuracy_hit_rate(self) -> float:
        return self.accuracy_hits / self.n_trials

    @property
    def raw_gamma_hit_rate(self) -> float:
        return self.raw_gamma_hits / self.n_trials

    def to_dict(self) -> dict:
        return _record_dict(self, "repeat_rate", "accuracy_hit_rate", "raw_gamma_hit_rate")


def _effort_stats(ns: list[int]) -> dict:
    return {
        "min": int(min(ns)),
        "mean": float(np.mean(ns)),
        "max": int(max(ns)),
    }


def pairwise_experiment(
    config: CampaignConfig,
    n_pairs: int,
    *,
    replicator_sampler: dict | None = None,
    star: bool = False,
) -> RepeatabilityReport:
    """Run n_pairs independent (initiator-arm, replicator-arm) pairs
    against one fixed partition and aggregate the outcome.

    In star mode a single initiator arm is compared against n_pairs
    replicator arms (the one-artifact-many-replicators deployment); the
    default mode runs a fresh initiator arm per pair. Arms draw from
    disjoint sub-streams keyed by (pair, arm), so pairs could execute
    in any order or in parallel without changing a single bit of the
    report; this implementation runs them sequentially.

    Accuracy is graded against the testbed oracle with the quantized
    tolerance gamma + alpha/2 (raw estimates are also graded against
    bare gamma as a diagnostic). Grading refuses oracles whose error
    (oracle_se: 0 for an exact oracle, or a quadrature's error
    estimate) is above gamma/10.
    """
    if n_pairs < 1:
        raise DomainError(f"n_pairs must be >= 1, got {n_pairs}")
    bed = config.build_testbed()
    gamma = config.accuracy.gamma
    if bed.oracle_se > gamma / 10.0:
        raise OracleBudgetError(
            f"oracle error {bed.oracle_se:.3g} exceeds gamma/10 = "
            f"{gamma / 10.0:.3g}; refusing to grade accuracy against it"
        )
    r_star = bed.oracle_r_star
    partition = _campaign_partition(config)
    checksum = build_artifact(config, partition)["checksum"]
    tolerance = gamma + 0.5 * partition.alpha

    rep_sampler = replicator_sampler if replicator_sampler is not None else config.sampler
    rep_config = dataclasses.replace(config, sampler=dict(rep_sampler))
    rep_config.build_testbed()  # validate the replicator sampler's bounds

    rows = []
    init_ns: list[int] = []
    rep_ns: list[int] = []
    repeat_count = 0
    accuracy_hits = 0
    raw_hits = 0
    n_trials = 0

    def grade(res: TrialResult) -> None:
        nonlocal accuracy_hits, raw_hits, n_trials
        n_trials += 1
        accuracy_hits += abs(res.quantized_estimate - r_star) <= tolerance
        raw_hits += abs(res.raw_estimate - r_star) <= gamma

    def row(pair: int, arm: str, res: TrialResult, same: bool) -> dict:
        return {
            "pair_id": pair,
            "arm": arm,
            "raw_estimate": res.raw_estimate,
            "quantized_estimate": res.quantized_estimate,
            "n": res.n,
            "sigma_hat": res.sigma_hat_final,
            "repeat": same,
        }

    shared_init: TrialResult | None = None
    if star:
        shared_init = run_quantized_sq(
            config,
            partition,
            campaign_stream(config.seed, 0, INITIATOR_ARM),
            testbed=bed,
        )
        grade(shared_init)
        init_ns.append(shared_init.n)
    for pair in range(n_pairs):
        if star:
            init_res = shared_init
        else:
            init_res = run_quantized_sq(
                config,
                partition,
                campaign_stream(config.seed, pair, INITIATOR_ARM),
                testbed=bed,
            )
            grade(init_res)
            init_ns.append(init_res.n)
        rep_res = run_quantized_sq(
            rep_config,
            partition,
            campaign_stream(config.seed, pair, REPLICATOR_ARM),
            testbed=bed,
        )
        grade(rep_res)
        rep_ns.append(rep_res.n)
        same = (
            init_res.cell == rep_res.cell
            and init_res.quantized_estimate == rep_res.quantized_estimate
        )
        repeat_count += same
        if not star:
            rows.append(row(pair, "initiator", init_res, same))
        rows.append(row(pair, "replicator", rep_res, same))
    if star:
        rows.insert(0, row(0, "initiator", shared_init, True))

    return RepeatabilityReport(
        n_pairs=n_pairs,
        star=star,
        repeat_count=repeat_count,
        n_trials=n_trials,
        accuracy_hits=accuracy_hits,
        raw_gamma_hits=raw_hits,
        alpha=partition.alpha,
        gamma=gamma,
        tolerance=tolerance,
        oracle_r_star=r_star,
        oracle_se=bed.oracle_se,
        partition_checksum=checksum,
        sampler_initiator=config.sampler["kind"],
        sampler_replicator=rep_config.sampler["kind"],
        range_term_mode=config.range_term_mode,
        seed=config.seed,
        effort={
            "initiator": _effort_stats(init_ns),
            "replicator": _effort_stats(rep_ns),
        },
        rows=rows,
    )


@dataclass(frozen=True)
class EffortComparison:
    """Radius trace of one campaign against the fixed-range baseline."""

    trace: RadiusTrace
    gamma: float
    n_terminated: int
    terminated_by: str
    required_n_hoeffding: int
    result: TrialResult

    @property
    def effort_ratio(self) -> float:
        return self.n_terminated / self.required_n_hoeffding

    def rows(self):
        """(n, estimate, sigma_hat, bernstein, hoeffding, terminated_by)
        per consumed sample; the final row carries the binding rule."""
        t = self.trace
        out = []
        last = len(t) - 1
        for i in range(len(t)):
            out.append(
                (
                    int(t.n[i]),
                    float(t.estimate[i]),
                    float(t.sigma_hat[i]),
                    float(t.bernstein[i]),
                    float(t.hoeffding[i]),
                    self.terminated_by if i == last else "",
                )
            )
        return out

    def to_dict(self) -> dict:
        return _record_dict(self, "effort_ratio")


def effort_comparison(config: CampaignConfig) -> EffortComparison:
    """Run one campaign with full radius tracing and compare its
    adaptive termination point against the sample count a fixed-range
    rule would require for the same gamma and declared bounds."""
    result = run_quantized_sq(
        config,
        _campaign_partition(config),
        campaign_stream(config.seed, 0, INITIATOR_ARM),
        record_trace=True,
    )
    gamma = config.accuracy.gamma
    by = "bernstein" if result.bernstein_radius_final <= gamma else "hoeffding"
    return EffortComparison(
        trace=result.trace,
        gamma=gamma,
        n_terminated=result.n,
        terminated_by=by,
        required_n_hoeffding=config.stop_rule.n_hoeffding,
        result=result,
    )


@dataclass(frozen=True)
class ConvergenceStudy:
    """Running-mean errors at fixed checkpoints over a seed registry."""

    checkpoints: tuple
    seeds: tuple
    errors: np.ndarray  # shape (len(seeds), len(checkpoints))
    oracle_r_star: float
    value_sd: float  # exact per-sample sd of the weighted measure

    @property
    def decrease_count(self) -> int:
        """Seeds whose error at the last checkpoint is strictly below
        the error at the first."""
        return int(np.count_nonzero(self.errors[:, -1] < self.errors[:, 0]))

    def error_sd_at(self, n: int) -> float:
        return self.value_sd / math.sqrt(n)


def convergence_study(testbed, seeds, checkpoints=(10**3, 10**6)) -> ConvergenceStudy:
    """Track |running mean - r_star| at fixed sample counts with the
    termination rule switched off, one independent stream per seed.

    Needs a cellular testbed (the per-sample value sd is computed by
    exact enumeration so checkpoint errors can be graded in oracle
    units). Samples come from the testbed's proposal when it has one,
    drawn and weighted as an importance campaign draws them, with one
    stream for the draws and the evaluator noise.
    """
    if not hasattr(testbed.target, "masses"):
        raise DomainError("convergence study needs a cellular testbed")
    cps = tuple(sorted(int(c) for c in checkpoints))
    if len(cps) < 2 or cps[0] < 1:
        raise DomainError(f"need >= 2 positive checkpoints, got {checkpoints}")
    sampler = _FixedSampler(testbed, use_proposal=True, w_bar=math.inf)
    q = sampler.source.masses
    ratio = sampler.ratio
    f = testbed.failure_probs
    r_star = testbed.oracle_r_star
    second_moment = math.fsum((q * f * ratio * ratio).tolist())
    value_sd = math.sqrt(max(second_moment - r_star * r_star, 0.0))

    errors = np.empty((len(seeds), len(cps)))
    for si, seed in enumerate(seeds):
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        total = 0.0
        n = 0
        for ci, cp in enumerate(cps):
            while n < cp:
                k = min(_CONVERGENCE_CHUNK, cp - n)
                values, _, _ = sampler.draw(rng, rng, k)
                total += float(np.sum(values))
                n += k
            errors[si, ci] = abs(total / n - r_star)
    return ConvergenceStudy(
        checkpoints=cps,
        seeds=tuple(int(s) for s in seeds),
        errors=errors,
        oracle_r_star=r_star,
        value_sd=value_sd,
    )
