"""Campaign harness: runs adaptively-terminated sampling campaigns
against a shared partition and aggregates repeatability statistics.

The protocol has two roles. An initiating party picks the accuracy
contract, computes the cell width, builds the partition, and publishes
a checksummed artifact together with its own quantized estimate. Any
replicating party loads the artifact, rebuilds the identical partition,
and runs its own campaign with an independent seed (and possibly a
different sampler). Both sides report cell midpoints; agreement is what
the repeatability contract promises.

A CampaignConfig holds the testbed its campaigns draw from, a bundled
or a caller's own bed, and checks it once, when the config is built.

Randomness contract
-------------------
All randomness flows from numpy SeedSequence spawning. A campaign's
stream is SeedSequence(seed, spawn_key=(pair, arm)); inside a campaign
that stream is split once into a sampler stream, from which a sampler
proposes where to test and how to weigh each test, and an
evaluator-noise stream, on which the campaign loop alone runs the tests;
so switching samplers never perturbs the noise a testbed would have
produced for the same draw positions. Reports are reproducible bit for
bit from (config, seed) alone, regardless of execution order, on any
host for cellular and displacement campaigns (+, -, *, / and sqrt
only). AIS and tracking campaigns also call numpy's exp, log, log1p and
expm1, so their raw estimate, final sigma hat, radii and final shapes
hold only between hosts whose numpy dispatches these to the same SIMD
target, as a run manifest's ``environment.numpy_dispatch`` records.

A cellular bed whose cells fail with probability 0 or 1 needs no
noise. When it skips the draws it still moves the noise stream to
where they would leave it (PCG64 ``advance``), so a stream shared with
other draws, as convergence_study's is, keeps every later number.

Effort accounting
-----------------
A trial's n counts the evaluator invocations consumed by the estimator.
Campaigns draw and evaluate in chunks, so the chunk that holds the
terminating test also evaluates the tests after it in that chunk; those
speculative evaluations are discarded, as in a physical campaign that
stops at the terminating test, but they are real test executions.
``evaluated_n`` counts them all and ``chunks`` counts the draws. The
stopping rule sizes each chunk, up to the ``chunk_size`` cap, so that
few tests are drawn past the stop. The first chunk runs to the rule's
stop floor (StopRule.n_floor), before which no campaign stops, and is
consumed whole. Each later chunk runs to StopRule.first_stop at the
current variance, the first n at which the rule could fire if the
variance stayed there, and holds at most max(n, 64) samples; so a
campaign that stops at n has evaluated at most 2n + 64 tests. AIS draws
one batch of d samples per chunk and evaluates at most n + d - 1.

Every chunk's values are checked against the interval the sampler
kind's weighted values lie in as soon as they are drawn, and then held
in a block that the scan kernel reads in one call. A block is scanned
once the held values reach the stop floor or n_max, or once another
chunk of the same size would take it past ``chunk_size``. No campaign
stops before the floor, so only a block's last chunk can hold the stop,
and the kernel's sums do not depend on how the values are split into
blocks: the block only sets how often the kernel is called. A chunk
sized by the rule always closes its block, because it runs to the floor
or fills the cap; the AIS batches before the floor share blocks of up
to ``chunk_size`` values. So neither the stop nor any estimate depends
on ``chunk_size``.
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
)
from .estimator import MAX_SAMPLES, EstimatorState
from .quantize import AccuracySpec, Partition, build_partition, compute_alpha, quantize
from .samplers import AisPolicy, ais_update, mixture_sample_many, proposal_snapshot
from .testbeds import testbed_from_spec

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
    "replication",
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
_SPECULATION = 64  # a chunk after the first holds at most max(n, 64) samples
_CONVERGENCE_CHUNK = 250_000
# Relative slack for float dust when checking declared bounds.
_BOUND_SLACK = 1.0 + 1e-9
# Fields of a result record that its to_dict leaves out: wall time
# (timings belong in the run manifest, so result files stay byte-stable),
# the per-sample and per-pair tables (written as CSV files of their own)
# and the campaign an effort comparison was taken from.
_UNRECORDED = ("trace", "wall_time_s", "rows", "result")
# The top-level keys of a campaign config, as to_dict writes them.
_CONFIG_KEYS = (
    "accuracy", "interval", "bounds", "sampler", "testbed", "seed",
    "offset_policy", "n_min", "n_max", "range_term_mode",
)


@dataclass(frozen=True)
class CampaignConfig:
    """Everything a campaign needs, in one bundle.

    ``sampler`` is a JSON-shaped dict; a key its kind does not read is
    rejected. ``testbed`` is a built bed (``from_dict`` reads a
    descriptor, ``to_dict`` writes its ``to_spec()``), checked here
    against the interval and by the sampler kind's ``check``, so also
    on ``dataclasses.replace``. The radii's range P, ``stop_rule.product``,
    is the width of ``value_range``, or the declared joint where that
    is wider.
    """

    accuracy: AccuracySpec
    m_low: float
    m_high: float
    w_bar: float
    joint: float | None
    sampler: dict
    testbed: object
    seed: int
    offset_policy: str = "zero"
    n_min: int = 2
    n_max: int = 10_000_000
    range_term_mode: str = "paper-exact"
    stop_rule: _kernels.StopRule = field(init=False, repr=False, compare=False)
    # The interval [lo, hi] each weighted value psi * w is checked against.
    value_range: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if isinstance(self.testbed, dict):
            raise DomainError("testbed must be a built bed; from_dict reads a descriptor")
        for name, read in _SCALARS.items():
            object.__setattr__(self, name, read(getattr(self, name), name))
        if not (math.isfinite(self.m_low) and math.isfinite(self.m_high)):
            raise DomainError(f"interval [{self.m_low}, {self.m_high}] must be finite")
        if not self.m_high > self.m_low:
            raise DomainError(f"empty interval [{self.m_low}, {self.m_high}]")
        if not (math.isfinite(self.w_bar) and self.w_bar >= 1.0):
            raise DomainError(f"w_bar must be finite and >= 1 (p = q somewhere), got {self.w_bar}")
        if self.joint is not None and not (math.isfinite(self.joint) and self.joint > 0.0):
            raise DomainError(f"joint bound must be finite and positive, got {self.joint}")
        if self.offset_policy not in OFFSET_POLICIES:
            raise DomainError(
                f"offset_policy must be one of {OFFSET_POLICIES}, got {self.offset_policy!r}"
            )
        kind = self.sampler.get("kind") if isinstance(self.sampler, dict) else None
        if not isinstance(kind, str) or kind not in _SAMPLERS:
            raise DomainError(f"sampler kind must be one of {SAMPLER_KINDS}, got {kind!r}")
        mapping(self.sampler, f"{kind} sampler", ("kind", *_SAMPLERS[kind].fields))
        _SAMPLERS[kind].options(self.sampler)  # validates the fields up front
        if self.n_min < 1:
            raise DomainError(f"n_min must be >= 1, got {self.n_min}")
        if self.n_max < max(2, self.n_min):
            raise DomainError(f"n_max {self.n_max} below the termination floor")
        if self.n_max > MAX_SAMPLES:
            raise DomainError(f"n_max {self.n_max} above the 2**53 sample limit")
        lo, hi = _SAMPLERS[kind].interval(self)
        if self.joint is not None:  # a declared joint bounds |psi * w|
            if lo > self.joint or hi < -self.joint:
                raise BoundViolation(
                    f"joint bound {self.joint:.6g} leaves no value of the interval "
                    f"[{lo:.6g}, {hi:.6g}] its sampler's values lie in"
                )
            lo, hi = max(lo, -self.joint), min(hi, self.joint)
        object.__setattr__(self, "value_range", (lo, hi))
        # The range P of psi * w, which scales both radii: the interval's
        # width, or the declared joint where that is wider. It is on every
        # interval that starts at 0; a cut interval that straddles 0 can
        # be up to 2 * joint wide.
        product = max(hi - lo, self.joint or 0.0)
        rule = _kernels.StopRule.for_campaign(
            self.accuracy.gamma, product, self.accuracy.c, self.range_term_mode, self.n_min
        )
        object.__setattr__(self, "stop_rule", rule)
        _check_interval(self, self.testbed, "testbed")
        _SAMPLERS[kind].check(self)

    # ``testbed`` under the name the benchmark still calls.
    def build_testbed(self):
        return self.testbed

    def to_dict(self) -> dict:
        return {
            "accuracy": {
                "gamma": self.accuracy.gamma,
                "c": self.accuracy.c,
                "beta": self.accuracy.beta,
            },
            "interval": {"m_low": self.m_low, "m_high": self.m_high},
            "bounds": {"w_bar": self.w_bar, "joint": self.joint},
            "sampler": dict(self.sampler),
            "testbed": self.testbed.to_spec(),
            "seed": self.seed,
            "offset_policy": self.offset_policy,
            "n_min": self.n_min,
            "n_max": self.n_max,
            "range_term_mode": self.range_term_mode,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CampaignConfig":
        """Parse a JSON-shaped config; a missing field, a field of the
        wrong JSON type or a key the reader does not read (outside the
        testbed block) raises DomainError; a missing optional field takes
        its dataclass default (the class attribute of that name)."""
        d = mapping(d, "campaign config", _CONFIG_KEYS)
        try:
            acc = mapping(d["accuracy"], "accuracy", ("gamma", "c", "beta"))
            interval = mapping(d["interval"], "interval", ("m_low", "m_high"))
            bounds = mapping(d.get("bounds", {}), "bounds", ("w_bar", "joint"))
            return cls(
                accuracy=AccuracySpec(
                    real(acc["gamma"], "gamma"), real(acc["c"], "c"), real(acc["beta"], "beta")
                ),
                m_low=interval["m_low"],
                m_high=interval["m_high"],
                w_bar=bounds.get("w_bar", 1.0),
                joint=bounds.get("joint"),
                sampler=dict(mapping(d["sampler"], "sampler")),
                testbed=testbed_from_spec(d["testbed"]),
                seed=d["seed"],
                offset_policy=d.get("offset_policy", cls.offset_policy),
                n_min=d.get("n_min", cls.n_min),
                n_max=d.get("n_max", cls.n_max),
                range_term_mode=d.get("range_term_mode", cls.range_term_mode),
            )
        except KeyError as exc:
            raise DomainError(f"campaign config missing field {exc.args[0]!r}") from exc


def _check_interval(config: CampaignConfig, other, what: str) -> None:
    """Reject a testbed or partition over another interval than the config's."""
    if other.m_low != config.m_low or other.m_high != config.m_high:
        raise DomainError(
            f"config interval [{config.m_low}, {config.m_high}] does not match "
            f"{what} interval [{other.m_low}, {other.m_high}]"
        )


def _read_seed(value, name: str = "seed") -> int:
    """A seed, pair or arm index: a nonnegative integer."""
    value = whole(value, name)
    if value < 0:
        raise DomainError(f"{name} must be a nonnegative integer, got {value!r}")
    return value


# Each scalar field of a campaign config and its reader.
_SCALARS = {"m_low": real, "m_high": real, "w_bar": real, "joint": real_or_null,
            "seed": _read_seed, "n_min": whole, "n_max": whole}


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
    range_term_sound: bool  # see StopRule.range_term_sound
    sampler_kind: str
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
    return np.random.SeedSequence(
        _read_seed(seed), spawn_key=(_read_seed(pair, "pair"), _read_seed(arm, "arm"))
    )


def _declared_mass_ratio(bed) -> np.ndarray:
    """The importance weight p/q of each proposal cell, as the bed declares it."""
    ratio = getattr(bed, "mass_ratio", None)
    if ratio is None:
        raise DomainError("importance sampling needs a testbed with a discrete proposal")
    if np.shape(ratio) != (bed.proposal.n_cells,):
        n = bed.proposal.n_cells
        raise DomainError(f"mass_ratio of shape {np.shape(ratio)} for {n} proposal cells")
    return ratio


class _Sampler:
    """One sampler kind: the config fields it reads besides ``kind``, the
    bed and weight cap it needs, the interval its weighted values lie in,
    and where it tests ``config.testbed``.
    ``propose(rng_s, k)`` returns k points and their weights (None: all
    1), which ``check``, run when the config was built, has held to the
    declared cap; the campaign loop runs and weighs the tests.
    ``post_chunk`` sees each chunk that did not stop the campaign.

    What the campaign loop reads besides: ``batch``, the chunk size the
    kind fixes (None: the stopping rule sizes the chunks), and
    ``clamped_fits`` and ``snapshot``, what the kind adapted (None: it
    does not adapt).
    """

    fields: dict = {}
    batch: int | None = None
    clamped_fits: int | None = None

    def __init__(self, config: CampaignConfig) -> None:
        self.bed = config.testbed

    @staticmethod
    def options(sampler: dict):
        """The kind's validated options, from a sampler dict that holds
        only ``kind`` and keys in ``fields``."""
        return None

    @staticmethod
    def check(config: CampaignConfig) -> None:
        """Reject the config's bed if the kind cannot draw from it, or
        the declared weight cap w_bar if the kind cannot honor it."""

    @staticmethod
    def interval(config: CampaignConfig) -> tuple[float, float]:
        """The interval the kind's weighted values psi * w lie in, for psi
        in [m_low, m_high] and weights in [0, w_bar]."""
        w_bar = config.w_bar
        return min(0.0, config.m_low * w_bar), max(0.0, config.m_high * w_bar)

    def post_chunk(self, xs, values) -> None:
        pass

    def snapshot(self, seed: int) -> dict | None:
        return None


class _MonteCarlo(_Sampler):
    """Draws from the target. Every weight is 1 <= w_bar, and psi * 1.0
    is psi bit for bit, so no weight is applied."""

    @staticmethod
    def interval(config: CampaignConfig) -> tuple[float, float]:
        return config.m_low, config.m_high

    def propose(self, rng_s, k: int):
        return self.bed.target.sample_many(rng_s, k), None


class _Importance(_Sampler):
    """Draws from the bed's discrete proposal, weighted by the mass ratio
    of the drawn cell. With the proposal equal to the target every
    weight is 1.0, and the run is bit-identical to a Monte Carlo run."""

    @staticmethod
    def check(config: CampaignConfig) -> None:
        worst = float(np.max(_declared_mass_ratio(config.testbed)))
        if not worst <= config.w_bar * _BOUND_SLACK:  # NaN included
            raise BoundViolation(
                f"importance sampler's worst mass ratio {worst:.6g} exceeds "
                f"the declared cap {config.w_bar:.6g}"
            )

    def propose(self, rng_s, k: int):
        xs = self.bed.proposal.sample_many(rng_s, k)
        return xs, self.bed.mass_ratio[xs]


class _Ais(_Sampler):
    """Mixture-of-target-and-adapted-Beta draws, refitted after every
    batch on the psi * w-weighted moments of all batches so far. A
    missing field takes the AisPolicy default."""

    fields = {"mix_p": real, "d": whole, "l_r": real, "init_shape": real}

    def __init__(self, config: CampaignConfig) -> None:
        super().__init__(config)
        self.policy = self.options(config.sampler)
        self.batch = self.policy.d
        self.q = self.policy.initial_proposal(self.bed.domain)
        self.sums = np.zeros((3, self.bed.domain.dims))  # see ais_update
        self.clamped_fits = 0

    @classmethod
    def options(cls, sampler: dict) -> AisPolicy:
        given = {k: read(sampler[k], k) for k, read in cls.fields.items() if k in sampler}
        return AisPolicy(**given)

    @staticmethod
    def check(config: CampaignConfig) -> None:
        if config.testbed.domain is None:
            raise DomainError("ais sampling needs a box-domain testbed")
        mix_p = _Ais.options(config.sampler).mix_p
        if mix_p <= 0.0:
            raise BoundViolation(
                "ais with mix_p = 0 has no provable weight cap; declare mix_p > 0"
            )
        if 1.0 / mix_p > config.w_bar * _BOUND_SLACK:
            raise BoundViolation(
                f"ais weight cap 1/mix_p = {1.0 / mix_p:.6g} exceeds the "
                f"declared cap {config.w_bar:.6g}"
            )

    def propose(self, rng_s, k: int):
        return mixture_sample_many(self.bed.target, self.q, self.policy.mix_p, rng_s, k)

    def post_chunk(self, xs, values) -> None:
        # Refit only on full batches; a truncated final batch carries no
        # update (the campaign is ending anyway). Clamped fits are
        # tallied here and surfaced once per campaign.
        if xs.shape[0] != self.policy.d:
            return
        self.q = ais_update(self.q, xs, self.policy, values, self.sums)
        self.clamped_fits += self.q.refit_clamps

    def snapshot(self, seed: int) -> dict:
        return proposal_snapshot(self.q, self.policy, RNG_ALGORITHM, seed)


# Each sampler kind and the class that reads, checks and proposes it.
_SAMPLERS = {"monte_carlo": _MonteCarlo, "importance": _Importance, "ais": _Ais}
SAMPLER_KINDS = tuple(_SAMPLERS)


def run_quantized_sq(
    config: CampaignConfig,
    partition: Partition,
    rng_stream,
    *,
    record_trace: bool = False,
    chunk_size: int = _CHUNK,
) -> TrialResult:
    """One campaign: sample, evaluate, weight, and update until the
    termination radius reaches gamma, then quantize the running mean.

    ``rng_stream`` is a numpy SeedSequence (an int is promoted to one).
    Each chunk holds at most ``chunk_size`` samples: the first runs to
    the stop floor, each later one to where the rule could first fire at
    the current variance, at most max(n, 64) (AIS draws one batch of d
    per chunk instead); see the module docstring for what that costs in
    speculative evaluations. The sampler proposes and this loop runs the
    tests, checks each chunk's values against ``config.value_range`` and
    scans them per block: the chunks held before the stop floor share
    one kernel call, and ``chunk_size`` also caps a block. Both streams
    are consumed position-aligned and the scan kernel's sums do not
    depend on where the chunks or blocks split, so every field but
    ``evaluated_n``, ``chunks`` and the wall time is bit-identical for
    any ``chunk_size``, and for AIS those two are as well.

    Draws from ``config.testbed``. Raises NonTerminated at n_max with
    the partial result attached.
    """
    chunk_size = whole(chunk_size, "chunk_size")
    if chunk_size < 1:
        raise DomainError(f"chunk_size must be >= 1, got {chunk_size}")
    t0 = time.perf_counter()
    _check_interval(config, partition, "partition")
    rule = config.stop_rule
    kind = config.sampler["kind"]
    sampler = _SAMPLERS[kind](config)
    lo, hi = config.value_range
    slack = (hi - lo) * (_BOUND_SLACK - 1.0)
    least, most = lo - slack, hi + slack

    ss = rng_stream
    if not isinstance(ss, np.random.SeedSequence):
        ss = np.random.SeedSequence(_read_seed(ss, "rng_stream"))
    s_sample, s_noise = ss.spawn(2)
    rng_s = np.random.default_rng(s_sample)
    rng_e = np.random.default_rng(s_noise)

    state = EstimatorState()
    evaluated = 0
    chunks = 0
    stopped = False
    block = []  # the checked chunks not yet scanned
    held = 0  # values in block
    consumed = []  # each block's consumed values, kept only for the trace
    while not stopped and state.n + held < config.n_max:
        # A rule-sized chunk always closes its block (module docstring),
        # so the rule sizes each chunk from a fully scanned state.
        k = sampler.batch or _next_chunk(rule, state, chunk_size)
        k = min(k, config.n_max - state.n - held)
        xs, weights = sampler.propose(rng_s, k)
        values = config.testbed.evaluate_many(xs, rng_e)
        if weights is not None:
            values = values * weights
        evaluated += k
        chunks += 1
        low, high = np.minimum.reduce(values), np.maximum.reduce(values)
        if not (low >= least and high <= most):  # NaN included
            raise BoundViolation(
                f"testbed {getattr(config.testbed, 'kind', None)!r} gave weighted measure "
                f"{low if not low >= least else high:.6g}, outside the interval "
                f"[{lo:.6g}, {hi:.6g}] its sampler's values lie in; "
                f"the termination radii are void"
            )
        block.append(values)
        held += k
        drawn = state.n + held
        if drawn < rule.n_floor and drawn < config.n_max and held + k <= chunk_size:
            sampler.post_chunk(xs, values)  # no stop before the floor
            continue
        scanned = block[0] if len(block) == 1 else np.concatenate(block)
        block = []
        held = 0
        i, state = _kernels.scan_terminate(scanned, state, rule)
        stopped = i >= 0
        if record_trace:
            consumed.append(scanned[: i + 1] if stopped else scanned)
        if not stopped:
            sampler.post_chunk(xs, values)
    wall = time.perf_counter() - t0

    n = state.n
    bern, hoef = rule.final(state)
    radius = min(bern, hoef)
    trace = None
    if record_trace:
        trace = RadiusTrace(*_kernels.trace_radii(np.concatenate(consumed), rule))
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
        range_term_sound=rule.range_term_sound,
        sampler_kind=kind,
        evaluated_n=evaluated,
        chunks=chunks,
        wall_time_s=wall,
        trace=trace,
        ais_final_proposal=sampler.snapshot(config.seed),
        clamped_fits=sampler.clamped_fits,
    )
    if not stopped:
        raise NonTerminated(
            f"campaign reached n_max = {config.n_max} with min radius "
            f"{radius:.6g} still above gamma = {rule.gamma:.6g}",
            result=result,
        )
    if result.clamped_fits:
        warnings.warn(
            f"{result.clamped_fits} adaptive refits were clamped to the proposal "
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


def _next_chunk(rule: _kernels.StopRule, state: EstimatorState, cap: int) -> int:
    """At most cap samples: the first chunk runs to the stop floor, a
    later one to the first n at which the rule can fire if the variance
    stays where it is, and holds at most max(n, 64) samples."""
    if state.n == 0:
        return min(cap, rule.n_floor)
    most = min(cap, max(state.n, _SPECULATION))
    if state.n + most <= rule.n_floor:  # first_stop is never below the floor
        return most
    return min(most, max(1, rule.first_stop(state.variance) - state.n))


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


def replication(art: dict, seed: int, sampler_override: dict | None = None) -> tuple:
    """The config, partition and stream of a replicator's campaign, all
    read from ``art`` once, with the replicator's own seed. The stream
    serves one campaign: spawning from a SeedSequence advances it.

    The artifact is integrity-checked first. The config reader parses
    the sealed config, which must then be exactly the ``to_dict()`` of
    what it parsed to, without the seed: a dropped key that the reader
    would fill with its default (a testbed's m_low or m_high too), an
    extra testbed key and a sealed seed all fail that comparison (the
    reader itself rejects any other extra key). The partition is rebuilt
    bit for bit, and its cell width is cross-checked against the
    accuracy contract it claims to come from. Invalid sealed content
    (config, testbed or grid) raises ArtifactVersionMismatch; an invalid
    seed or ``sampler_override`` is the replicator's own input error.
    """
    art = verify_artifact(art)
    seed = _read_seed(seed)
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
    partition = partition_from_payload(art["grid"], config.m_low, config.m_high)
    if compute_alpha(config.accuracy) != partition.alpha:
        raise ArtifactVersionMismatch(
            "artifact cell width does not come from its own accuracy contract"
        )
    if sampler_override is not None:
        sampler = mapping(sampler_override, "sampler_override")
        config = dataclasses.replace(config, sampler=dict(sampler))
    return config, partition, campaign_stream(config.seed, 0, REPLICATOR_ARM)


def replicator(art: dict, seed: int, sampler_override: dict | None = None) -> TrialResult:
    """Reproduce the initiator's cell structure and run independently."""
    return run_quantized_sq(*replication(art, seed, sampler_override))


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
    range_term_sound: bool
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


def _spread(counts: list[int]) -> dict:
    return {
        "min": int(min(counts)),
        "mean": float(np.mean(counts)),
        "max": int(max(counts)),
    }


def _effort_stats(results: list[TrialResult]) -> dict:
    """Spread of an arm's consumed n, and under ``evaluated_n`` of its
    test executions."""
    return {
        **_spread([r.n for r in results]),
        "evaluated_n": _spread([r.evaluated_n for r in results]),
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
    disjoint sub-streams keyed by (pair, arm) and no campaign changes
    the shared testbed, so the arms could run in any order or in
    parallel without changing a single bit of the report; this
    implementation runs every initiator arm first, then every
    replicator arm, one at a time.

    Accuracy is graded against the testbed oracle with the quantized
    tolerance gamma + alpha/2 (raw estimates are also graded against
    bare gamma as a diagnostic). Grading refuses oracles whose error
    (oracle_se: 0 for an exact oracle, or a quadrature's error
    estimate) is above gamma/10.
    """
    n_pairs = whole(n_pairs, "n_pairs")
    if n_pairs < 1:
        raise DomainError(f"n_pairs must be >= 1, got {n_pairs}")
    bed = config.testbed
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

    rep_sampler = config.sampler if replicator_sampler is None else replicator_sampler
    rep_config = dataclasses.replace(
        config, sampler=dict(mapping(rep_sampler, "replicator_sampler"))
    )

    def run(cfg: CampaignConfig, pair: int, arm: int) -> TrialResult:
        return run_quantized_sq(cfg, partition, campaign_stream(config.seed, pair, arm))

    def row(pair: int, arm: str, res: TrialResult, same: bool) -> dict:
        return {
            "pair_id": pair,
            "arm": arm,
            "raw_estimate": res.raw_estimate,
            "quantized_estimate": res.quantized_estimate,
            "n": res.n,
            "evaluated_n": res.evaluated_n,
            "sigma_hat": res.sigma_hat_final,
            "repeat": same,
        }

    init_runs = [run(config, pair, INITIATOR_ARM) for pair in range(1 if star else n_pairs)]
    rep_runs = [run(rep_config, pair, REPLICATOR_ARM) for pair in range(n_pairs)]
    runs = init_runs + rep_runs
    accuracy_hits = sum(abs(r.quantized_estimate - r_star) <= tolerance for r in runs)
    raw_hits = sum(abs(r.raw_estimate - r_star) <= gamma for r in runs)

    rows = [row(0, "initiator", init_runs[0], True)] if star else []
    repeat_count = 0
    for pair, rep_res in enumerate(rep_runs):
        init_res = init_runs[0 if star else pair]
        same = (
            init_res.cell == rep_res.cell
            and init_res.quantized_estimate == rep_res.quantized_estimate
        )
        repeat_count += same
        if not star:
            rows.append(row(pair, "initiator", init_res, same))
        rows.append(row(pair, "replicator", rep_res, same))

    return RepeatabilityReport(
        n_pairs=n_pairs,
        star=star,
        repeat_count=repeat_count,
        n_trials=len(runs),
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
        range_term_sound=config.stop_rule.range_term_sound,
        seed=config.seed,
        effort={
            "initiator": _effort_stats(init_runs),
            "replicator": _effort_stats(rep_runs),
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

    @property
    def range_term_sound(self) -> bool:
        return self.result.range_term_sound

    def rows(self) -> list[dict]:
        """One row per consumed sample: n, estimate, sigma_hat, the two
        radii and terminated_by, which only the final row fills in with
        the binding rule."""
        t = self.trace
        last = len(t) - 1
        return [
            {
                "n": int(t.n[i]),
                "estimate": float(t.estimate[i]),
                "sigma_hat": float(t.sigma_hat[i]),
                "bernstein_radius": float(t.bernstein[i]),
                "hoeffding_radius": float(t.hoeffding[i]),
                "terminated_by": self.terminated_by if i == last else "",
            }
            for i in range(len(t))
        ]

    def to_dict(self) -> dict:
        return _record_dict(self, "effort_ratio", "range_term_sound")


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

    Needs a cellular testbed, whose discrete proposal the samples come
    from, drawn and weighted as an importance campaign draws them, with
    one stream for the draws and the evaluator noise. The per-sample
    value sd is computed by exact enumeration, so checkpoint errors can
    be graded in oracle units.
    """
    ratio = _declared_mass_ratio(testbed)
    seeds = tuple(_read_seed(s) for s in seeds)
    cps = tuple(sorted(int(c) for c in checkpoints))
    if len(cps) < 2 or cps[0] < 1:
        raise DomainError(f"need >= 2 positive checkpoints, got {checkpoints}")
    proposal = testbed.proposal
    q = proposal.masses
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
                xs = proposal.sample_many(rng, k)
                values = testbed.evaluate_many(xs, rng) * ratio[xs]
                total += float(np.sum(values))
                n += k
            errors[si, ci] = abs(total / n - r_star)
    return ConvergenceStudy(
        checkpoints=cps,
        seeds=seeds,
        errors=errors,
        oracle_r_star=r_star,
        value_sd=value_sd,
    )
