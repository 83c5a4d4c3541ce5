"""Target distributions, importance proposals, and the adaptive Beta
mixture.

Every distribution here exposes one vectorized interface:
``sample_many(rng, size)`` draws a batch and ``density_many(points)``
evaluates the density at a batch of points. Campaigns draw and weight
only through it, so a fixed rng stream yields one fixed batch of points.

Continuous proposals are per-dimension Beta densities mapped linearly
onto an axis-aligned box; the 1/(hi-lo) Jacobian is part of the density,
so all densities are with respect to Lebesgue measure on the box.
Every point, inside, on the boundary of, or outside the box, takes one
log-density, sum over k of (a_k - 1) log t_k + (b_k - 1) log(1 - t_k)
minus the log normalizer, with two measure-theory conventions on the
boundary: 0 log 0 = 0, so a shape of exactly 1 puts no factor on its own
edge (Beta(1, b) is b/width at t = 0), and 0 inf = 0, so a corner where
one factor is infinite and another 0 has density 0. Points outside the
box have density 0.
Importance weights are p(x)/q(x); when q is a mix_p:p mixture of the
target and an adapted Beta proposal the denominator is the mixture
density, which caps every weight at 1/mix_p.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ClampWarning, DegenerateBatch, DomainError

__all__ = [
    "SHAPE_MIN",
    "SHAPE_MAX",
    "BoxDomain",
    "DiscreteDistribution",
    "BoxUniform",
    "BetaProposal",
    "AisPolicy",
    "beta_density",
    "fit_beta",
    "ais_update",
    "mixture_sample_many",
    "proposal_snapshot",
]

SHAPE_MIN = 0.05
SHAPE_MAX = 100.0


def _betaln(a, b):
    """``scipy.special.betaln``. Only Beta proposals need scipy, so it
    is imported on the first call, which rebinds this name to it."""
    global _betaln
    from scipy.special import betaln

    _betaln = betaln
    return betaln(a, b)


@dataclass(frozen=True)
class BoxDomain:
    """Axis-aligned box; the sample space of continuous testbeds."""

    lo: tuple
    hi: tuple

    def __init__(self, lo: Sequence[float], hi: Sequence[float]) -> None:
        object.__setattr__(self, "lo", tuple(float(v) for v in lo))
        object.__setattr__(self, "hi", tuple(float(v) for v in hi))
        if len(self.lo) != len(self.hi) or not self.lo:
            raise DomainError("lo and hi must be equal-length, non-empty vectors")
        for k, (a, b) in enumerate(zip(self.lo, self.hi)):
            if not (math.isfinite(a) and math.isfinite(b) and a < b):
                raise DomainError(f"dimension {k}: need finite lo < hi, got [{a}, {b}]")

    @property
    def dims(self) -> int:
        return len(self.lo)

    @property
    def volume(self) -> float:
        return float(np.prod(np.asarray(self.hi) - np.asarray(self.lo)))


# Buckets of the guide table; a power of two, so u * G and its floor are
# exact for every double u in [0, 1).
GUIDE_BUCKETS = 1024


def _guide_table(cum):
    """Cell of every bucket [g/G, (g+1)/G) of [0, 1) that one CDF step
    covers, and -1 for a bucket that straddles a step.

    For u in bucket g, ``searchsorted(cum, u, "right")`` lies between
    ``searchsorted(cum, g/G, "right")`` and ``searchsorted(cum, (g+1)/G,
    "left")``; where the two agree the bucket alone decides the cell
    (Chen & Asau 1974; Devroye 1986, III.2.4). The last entry, pinned to
    1.0, may sit below a predecessor that rounded above 1; no key here
    exceeds 1.0, so every search treats it as the largest entry.
    """
    g = np.arange(GUIDE_BUCKETS + 1) / GUIDE_BUCKETS
    lo = np.searchsorted(cum, g[:-1], side="right")
    hi = np.searchsorted(cum, g[1:], side="left")
    return np.where(lo == hi, lo, -1)


class DiscreteDistribution:
    """Finite distribution over cells 0..K-1 given by explicit masses.

    ``sample_many`` inverts the CDF, cell = ``searchsorted(cum, u,
    "right")`` for one ``rng.random(size)`` batch of u. A batch of at
    least GUIDE_BUCKETS draws reads the cell from a guide table, built
    on first use and kept, and searches only for the u in buckets that
    straddle a CDF step; the cells are the search's, bit for bit.
    """

    def __init__(self, masses: Sequence[float]) -> None:
        m = np.asarray(masses, dtype=np.float64)
        if m.ndim != 1 or m.size < 1:
            raise DomainError("masses must be a non-empty vector")
        if not np.all(np.isfinite(m)) or np.any(m < 0.0):
            raise DomainError("masses must be finite and nonnegative")
        total = float(math.fsum(m.tolist()))
        if abs(total - 1.0) > 1e-12:
            raise DomainError(f"masses sum to {total!r}, expected 1 within 1e-12")
        self.masses = m
        self._cum = np.cumsum(m)
        self._cum[-1] = 1.0
        self._guide = None

    @property
    def n_cells(self) -> int:
        return int(self.masses.size)

    def sample_many(self, rng, size: int):
        u = rng.random(size)
        # Below G values the search is no slower per draw than the table,
        # and the table's ~35 us build would dominate an early-stopping
        # campaign's draws (table for every size: early_stop draw time
        # 0.012 -> 0.077 ms a campaign, p90 +9%, 2-vCPU x86-64 host).
        if size < GUIDE_BUCKETS:
            return np.searchsorted(self._cum, u, side="right")
        if self._guide is None:
            self._guide = _guide_table(self._cum)
        cells = self._guide[(u * GUIDE_BUCKETS).astype(np.intp)]
        split = np.flatnonzero(cells < 0)
        cells[split] = np.searchsorted(self._cum, u[split], side="right")
        return cells

    def density_many(self, points):
        idx = np.asarray(points, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= self.n_cells):
            raise DomainError("cell index outside the distribution's support")
        return self.masses[idx]


class BoxUniform:
    """Uniform target over a box: density 1/volume inside, 0 outside."""

    def __init__(self, domain: BoxDomain) -> None:
        self.domain = domain
        self._density = 1.0 / domain.volume
        self._lo = np.asarray(domain.lo)
        self._hi = np.asarray(domain.hi)

    def sample_many(self, rng, size: int):
        return rng.uniform(self._lo, self._hi, size=(size, self.domain.dims))

    def density_many(self, points):
        x = np.asarray(points, dtype=np.float64)
        inside = ((x >= self._lo) & (x <= self._hi)).all(axis=-1)
        return np.where(inside, self._density, 0.0)


def beta_density(x: float, a: float, b: float, lo: float = 0.0, hi: float = 1.0) -> float:
    """Beta(a, b) density mapped linearly onto [lo, hi]; the scalar
    reference that tests hold BetaProposal.density_many to.

    The Jacobian factor 1/(hi - lo) is included; omitting it would break
    normalization on any interval other than [0, 1].
    """
    if not (a > 0.0 and b > 0.0):
        raise DomainError(f"shapes must be positive, got a={a}, b={b}")
    if not lo < hi:
        raise DomainError(f"need lo < hi, got [{lo}, {hi}]")
    if not lo <= x <= hi:
        raise DomainError(f"x={x} outside [{lo}, {hi}]")
    width = hi - lo
    t = (x - lo) / width
    if t in (0.0, 1.0):
        # Edge values: finite only when the touching shape is >= 1.
        shape = a if t == 0.0 else b
        if shape > 1.0:
            return 0.0
        if shape == 1.0:
            other = b if t == 0.0 else a
            return float(other) / width
        return math.inf
    log_pdf = (a - 1.0) * math.log(t) + (b - 1.0) * math.log1p(-t) - _betaln(a, b)
    return math.exp(log_pdf) / width


def _in_shape_range(*shapes) -> bool:
    """True when every shape lies in [SHAPE_MIN, SHAPE_MAX]. NaN fails
    both comparisons, so a non-finite shape is never in range."""
    return all(SHAPE_MIN <= v <= SHAPE_MAX for s in shapes for v in s.tolist())


class BetaProposal:
    """Product of per-dimension Betas on a box; the adapted proposal.

    ``refit_clamps`` counts the dimensions whose fresh fit was clamped to
    the shape range in the ais_update that produced this proposal (0 for
    a constructed one).
    """

    refit_clamps = 0

    def __init__(self, domain: BoxDomain, a: Sequence[float], b: Sequence[float]) -> None:
        av = np.asarray(a, dtype=np.float64)
        bv = np.asarray(b, dtype=np.float64)
        if av.shape != (domain.dims,) or bv.shape != (domain.dims,):
            raise DomainError(
                f"shape vectors must have length {domain.dims}, "
                f"got {av.shape} and {bv.shape}"
            )
        if not _in_shape_range(av, bv):
            raise DomainError(f"shapes must be finite and lie in [{SHAPE_MIN}, {SHAPE_MAX}]")
        self.domain = domain
        self._lo = np.asarray(domain.lo)
        self._hi = np.asarray(domain.hi)
        self._width = self._hi - self._lo
        self._log_width = np.add.reduce(np.log(self._width))
        self._set_shapes(av, bv)

    def _set_shapes(self, a, b) -> None:
        self.a = a
        self.b = b
        self._am1 = a - 1.0
        self._bm1 = b - 1.0
        self._log_norm = float(np.add.reduce(_betaln(a, b)) + self._log_width)

    def _with_shapes(self, a, b, refit_clamps: int) -> "BetaProposal":
        """This proposal's box with new shape vectors of the right length;
        only their range is checked."""
        if not _in_shape_range(a, b):
            raise DomainError(f"shapes must be finite and lie in [{SHAPE_MIN}, {SHAPE_MAX}]")
        q = object.__new__(BetaProposal)
        q.domain = self.domain
        q._lo = self._lo
        q._hi = self._hi
        q._width = self._width
        q._log_width = self._log_width
        q._set_shapes(a, b)
        q.refit_clamps = refit_clamps
        return q

    def sample_many(self, rng, size: int):
        t = rng.beta(self.a, self.b, size=(size, self.domain.dims))
        return self._lo + self._width * t

    def density_many(self, points):
        """Density at every row of points, by one log-density for rows
        inside, on the boundary of, or outside the box (see the module
        docstring for the two edge conventions); never NaN."""
        x = np.atleast_2d(np.asarray(points, dtype=np.float64))
        t = (x - self._lo) / self._width
        # Only a row that touches or leaves the box can make a NaN term.
        edge = not (t.size and t.min() > 0.0 and t.max() < 1.0)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            left = self._am1 * np.log(t)
            right = self._bm1 * np.log1p(-t)
            if edge:  # 0 log 0 = 0
                left[(t == 0.0) & (self._am1 == 0.0)] = 0.0
                right[(t == 1.0) & (self._bm1 == 0.0)] = 0.0
            log_pdf = np.add.reduce(left, axis=1) + np.add.reduce(right, axis=1) - self._log_norm
            if edge:  # 0 inf = 0 at a mixed corner, and 0 outside the box
                inside = np.all((t >= 0.0) & (t <= 1.0), axis=1)
                log_pdf[~inside | np.isnan(log_pdf)] = -np.inf
            return np.exp(log_pdf)


@dataclass(frozen=True)
class AisPolicy:
    """How the adaptive proposal mixes, batches, and learns."""

    mix_p: float = 0.1
    d: int = 10
    l_r: float = 0.1
    init_shape: float = 0.99

    def __post_init__(self) -> None:
        if not 0.0 <= self.mix_p <= 1.0:
            raise DomainError(f"mix_p must lie in [0, 1], got {self.mix_p}")
        if self.d < 2:
            raise DomainError(f"batch size d must be >= 2 (a Beta fit needs 2 points), got {self.d}")
        if not 0.0 < self.l_r <= 1.0:
            raise DomainError(f"learning rate must lie in (0, 1], got {self.l_r}")
        if not SHAPE_MIN <= self.init_shape <= SHAPE_MAX:
            raise DomainError(f"init_shape must lie in [{SHAPE_MIN}, {SHAPE_MAX}]")

    def initial_proposal(self, domain: BoxDomain) -> BetaProposal:
        shapes = [self.init_shape] * domain.dims
        return BetaProposal(domain, shapes, shapes)


class _BetaFit(NamedTuple):
    a: float  # clamped to [SHAPE_MIN, SHAPE_MAX]
    b: float
    clamped: bool


def _moment_fits(u) -> list:
    """Method-of-moments Beta fits of the rows of u, a C-contiguous
    (dims, d) array of values mapped onto [0, 1]; None for a row that
    carries no shape information (zero variance, or mean pinned to an
    endpoint).

    Two reductions give the moments of every row. Each row is reduced
    along its own contiguous run, as np.mean reduces a 1-D batch
    (pairwise from 8 values on, where a reduction down axis 0 would be
    sequential), so a row's fit has the bits of the one-column fit.
    """
    d = u.shape[1]
    means = np.add.reduce(u, axis=1) / d
    dev = u - means[:, None]
    dev *= dev
    variances = np.add.reduce(dev, axis=1) / d
    fits = []
    for mean, var in zip(means.tolist(), variances.tolist()):
        if var <= 1e-12 or mean <= 1e-12 or mean >= 1.0 - 1e-12:
            fits.append(None)
            continue
        k = mean * (1.0 - mean) / var - 1.0
        a = mean * k
        b = (1.0 - mean) * k
        clamped_a = min(max(a, SHAPE_MIN), SHAPE_MAX)
        clamped_b = min(max(b, SHAPE_MIN), SHAPE_MAX)
        fits.append(_BetaFit(clamped_a, clamped_b, clamped_a != a or clamped_b != b))
    return fits


def fit_beta(samples: Sequence[float], lo: float = 0.0, hi: float = 1.0):
    """Method-of-moments Beta fit on samples from [lo, hi].

    Raises DegenerateBatch when the batch carries no usable shape
    information (zero variance, or mean pinned to an endpoint); the
    caller keeps its previous shapes in that case. Estimates landing
    outside [SHAPE_MIN, SHAPE_MAX] are clamped with a ClampWarning.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 1 or x.size < 2:
        raise DomainError(f"need >= 2 samples, got shape {x.shape}")
    if not lo < hi:
        raise DomainError(f"need lo < hi, got [{lo}, {hi}]")
    if not ((x >= lo) & (x <= hi)).all():
        raise DomainError("samples outside [lo, hi]")
    (fit,) = _moment_fits(((x - lo) / (hi - lo)).reshape(1, -1))
    if fit is None:
        raise DegenerateBatch("batch has zero variance or a mean pinned to an endpoint")
    if fit.clamped:
        warnings.warn(
            f"Beta fit clamped to [{SHAPE_MIN}, {SHAPE_MAX}]", ClampWarning, stacklevel=2
        )
    return fit.a, fit.b


def ais_update(current: BetaProposal, batch, policy: AisPolicy) -> BetaProposal:
    """Refit on the batch and move shapes by an exponential moving
    average, kept in [SHAPE_MIN, SHAPE_MAX]; dimensions whose batch is
    degenerate keep their shapes.

    Every dimension is fitted as fit_beta fits one column. The returned
    proposal's ``refit_clamps`` counts the dimensions whose fit was
    clamped; no warning is raised.
    """
    pts = np.asarray(batch, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.shape != (policy.d, current.domain.dims):
        raise DomainError(
            f"batch must be {policy.d} points of dim {current.domain.dims}, "
            f"got shape {pts.shape}"
        )
    cols = np.ascontiguousarray(pts.T)  # one contiguous row per dimension
    lo = current._lo[:, None]
    if not ((cols >= lo) & (cols <= current._hi[:, None])).all():
        raise DomainError("samples outside [lo, hi]")
    fits = _moment_fits((cols - lo) / current._width[:, None])
    keep = 1.0 - policy.l_r
    new_a = current.a.tolist()
    new_b = current.b.tolist()
    for k, fit in enumerate(fits):
        if fit is not None:
            # A convex combination of in-range shapes leaves the range
            # only by rounding (0.7 * 0.05 + 0.3 * 0.05 < 0.05), so it is
            # clamped back; this is not a clamped fit.
            new_a[k] = min(max(keep * new_a[k] + policy.l_r * fit.a, SHAPE_MIN), SHAPE_MAX)
            new_b[k] = min(max(keep * new_b[k] + policy.l_r * fit.b, SHAPE_MIN), SHAPE_MAX)
    clamps = sum(1 for fit in fits if fit is not None and fit.clamped)
    return current._with_shapes(np.array(new_a), np.array(new_b), clamps)


def mixture_sample_many(p, q: BetaProposal, mix_p: float, rng, size: int):
    """Draws from the mix_p:p / (1-mix_p):q mixture; returns (points,
    weights).

    Each weight divides by the mixture density, never by q alone: that
    keeps the weighted estimator unbiased and caps the weight at 1/mix_p
    whenever mix_p > 0.
    """
    if not 0.0 <= mix_p <= 1.0:
        raise DomainError(f"mix_p must lie in [0, 1], got {mix_p}")
    if getattr(p, "domain", None) is not None and p.domain != q.domain:
        raise DomainError("target and proposal must share one domain")
    from_p = rng.random(size) < mix_p
    n_p = int(np.count_nonzero(from_p))
    points = np.empty((size, q.domain.dims))
    if n_p:
        points[from_p] = np.atleast_2d(p.sample_many(rng, n_p))
    if size - n_p:
        points[~from_p] = q.sample_many(rng, size - n_p)
    p_x = np.asarray(p.density_many(points), dtype=np.float64)
    q_mix = mix_p * p_x + (1.0 - mix_p) * q.density_many(points)
    if size and q_mix.min() > 0.0:  # the usual case: no guard needed
        return points, p_x / q_mix
    bad = (q_mix <= 0.0) & (p_x > 0.0)
    if np.any(bad):
        raise DomainError("mixture density vanished where the target is positive")
    weights = np.divide(p_x, q_mix, out=np.zeros(size), where=q_mix > 0.0)
    return points, weights


def proposal_snapshot(
    q: BetaProposal, policy: AisPolicy, rng_algorithm: str, rng_seed
) -> dict:
    """JSON-ready snapshot of an adapted proposal and its policy."""
    return {
        "shapes_a": [float(v) for v in q.a],
        "shapes_b": [float(v) for v in q.b],
        "domain": {"lo": list(q.domain.lo), "hi": list(q.domain.hi)},
        "mix_p": policy.mix_p,
        "d": policy.d,
        "l_r": policy.l_r,
        "rng_algorithm": rng_algorithm,
        "rng_seed": rng_seed,
    }
