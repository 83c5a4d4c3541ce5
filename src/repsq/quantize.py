"""Quantization core: cell width selection and interval partitions.

Turns an accuracy contract (gamma, c, beta) into a cell width alpha, tiles
the measure interval M = [m_low, m_high] with an almost-uniform partition
of that width, and rounds raw estimates to cell midpoints. Two runs that
both land within gamma of the truth then collide on the same midpoint
often enough to make the rounded output repeatable, at the price of at
most alpha/2 extra error.

Conventions
-----------
- Cells are half-open [x_{j-1}, x_j) except the last, which is closed
  [x_{n-1}, x_n], so every value in M has exactly one cell.
- All cells have width alpha except possibly the first (controlled by
  ``offset``) and the last (the remainder at m_high); both are <= alpha.
- Boundaries are computed from the grid scalars by one arithmetic rule,
  boundary k = b1 + (k-1)*alpha with b1 = m_low + first-cell length, and
  membership is resolved against those same positions. No boundary list
  is stored, so a grid of any size costs constant memory, and two
  parties holding the same scalars resolve every value to bit-identical
  cells and midpoints.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import DomainError, InfeasibleRepeatability

__all__ = [
    "AccuracySpec",
    "Partition",
    "QuantizedValue",
    "compute_alpha",
    "build_partition",
    "quantize",
    "collision_probability_lower_bound",
]

# Square-root arguments in [-_DISC_EPS, 0] are rounding residue, treated as 0.
_DISC_EPS = 1e-15

# A generated boundary this close to m_high (relative to alpha) is snapped to
# m_high instead of leaving a sliver cell.
_SNAP_REL = 1e-9


@dataclass(frozen=True)
class AccuracySpec:
    """Accuracy and repeatability contract for one campaign.

    gamma: accuracy tolerance, in measure units; the raw estimate must land
        within gamma of the truth with probability >= 1 - c.
    c: accuracy failure probability, in (0, 1).
    beta: repeatability failure probability, in (0, 1); two independent
        runs must agree with probability >= 1 - beta.

    A cell width exists only when (1-c)^2 >= 1-beta; construction rejects
    anything else up front.
    """

    gamma: float
    c: float
    beta: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.gamma) and self.gamma > 0.0):
            raise DomainError(f"gamma must be finite and positive, got {self.gamma}")
        if not 0.0 < self.c < 1.0:
            raise DomainError(f"c must lie in (0, 1), got {self.c}")
        if not 0.0 < self.beta < 1.0:
            raise DomainError(f"beta must lie in (0, 1), got {self.beta}")
        if self.discriminant < -_DISC_EPS:
            raise InfeasibleRepeatability(
                f"(1-c)^2 = {(1.0 - self.c) ** 2:.6g} < 1-beta = {1.0 - self.beta:.6g}: "
                f"no cell width can deliver repeatability {1.0 - self.beta:.6g} "
                f"from accuracy confidence {1.0 - self.c:.6g}"
            )

    @property
    def discriminant(self) -> float:
        return (1.0 - self.c) ** 2 - (1.0 - self.beta)


def compute_alpha(spec: AccuracySpec) -> float:
    """Cell width alpha for the given contract; the smaller quadratic root.

    Solves (1-c)^2 (4 gamma alpha - alpha^2) = 4 gamma^2 (1-beta) for alpha
    and returns the smaller root

        alpha = 2 gamma ((1-c) - sqrt((1-c)^2 - (1-beta))) / (1-c),

    which always lies in (0, 2 gamma]. The larger root would waste width:
    the same repeatability at strictly worse rounding error.
    """

    disc = spec.discriminant
    if disc < -_DISC_EPS:
        # Unreachable through the validated type; kept for raw callers.
        raise InfeasibleRepeatability("(1-c)^2 < 1-beta")
    if disc < 0.0:
        disc = 0.0
    one_minus_c = 1.0 - spec.c
    return 2.0 * spec.gamma * (one_minus_c - math.sqrt(disc)) / one_minus_c


def collision_probability_lower_bound(gamma: float, alpha: float) -> float:
    """The design bound (4 gamma alpha - alpha^2) / (4 gamma^2).

    This is the collision level that the alpha selection in compute_alpha
    is calibrated against; reports and property tests quote it. It is not
    a certified floor for arbitrary estimate distributions (see the
    companion geometry test in the test suite).
    """

    if not (math.isfinite(gamma) and gamma > 0.0):
        raise DomainError(f"gamma must be finite and positive, got {gamma}")
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise DomainError(f"alpha must be finite and positive, got {alpha}")
    if alpha > 2.0 * gamma * (1.0 + 1e-12):
        raise DomainError(f"alpha = {alpha} exceeds 2*gamma = {2.0 * gamma}")
    return (4.0 * gamma * alpha - alpha * alpha) / (4.0 * gamma * gamma)


class QuantizedValue(NamedTuple):
    """A rounded estimate: the cell midpoint, its index, and whether the
    raw value had to be clamped into the measure interval first."""

    value: float
    cell: int
    clamped: bool


@dataclass(frozen=True)
class Partition:
    """Almost-uniform tiling of [m_low, m_high] with cell width alpha.

    ``offset`` is the requested first-cell length: 0 (or alpha) means the
    first cell has full width. ``n_cells`` is fixed by build_partition;
    every boundary follows from the scalars by the canonical rule.
    """

    m_low: float
    m_high: float
    alpha: float
    offset: float
    n_cells: int

    # -- canonical grid ------------------------------------------------

    @property
    def _first_len(self) -> float:
        # offset 0 and offset alpha both mean a full-width first cell
        if self.offset == 0.0 or self.offset == self.alpha:
            return self.alpha
        return self.offset

    @property
    def _b1(self) -> float:
        """First interior boundary (grid anchor)."""
        return self.m_low + self._first_len

    def boundary(self, k: int) -> float:
        """The k-th boundary (k in 0..n_cells), from the canonical rule."""
        if k < 0 or k > self.n_cells:
            raise DomainError(f"boundary index {k} outside 0..{self.n_cells}")
        if k == 0:
            return self.m_low
        if k == self.n_cells:
            return self.m_high
        # Single rounding per term keeps this expression bit-stable.
        return self._b1 + (k - 1) * self.alpha

    def midpoint(self, cell: int) -> float:
        if cell < 0 or cell >= self.n_cells:
            raise DomainError(f"cell {cell} outside 0..{self.n_cells - 1}")
        return 0.5 * (self.boundary(cell) + self.boundary(cell + 1))

    # -- membership ----------------------------------------------------

    def cell_of(self, value: float) -> tuple[int, bool]:
        """(cell index, clamped flag) for one value."""
        if not math.isfinite(value):
            raise DomainError(f"cannot quantize non-finite value {value}")
        clamped = False
        v = value
        if v < self.m_low:
            v, clamped = self.m_low, True
        elif v > self.m_high:
            v, clamped = self.m_high, True
        if v < self._b1:
            return 0, clamped
        j = min(1 + int(math.floor((v - self._b1) / self.alpha)), self.n_cells - 1)
        # floor() on rounded differences can be off by one cell near a
        # boundary; nudge so that boundary(j) <= v < boundary(j+1) holds
        # against the canonical positions (v == m_high stays in the
        # closed last cell).
        while j > 0 and v < self.boundary(j):
            j -= 1
        while j < self.n_cells - 1 and v >= self.boundary(j + 1):
            j += 1
        return j, clamped

    # -- validation ----------------------------------------------------

    def __post_init__(self) -> None:
        for name in ("m_low", "m_high", "offset"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.m_high > self.m_low:
            raise DomainError(f"empty interval [{self.m_low}, {self.m_high}]")
        if not (math.isfinite(self.alpha) and self.alpha > 0.0):
            raise DomainError(f"alpha must be finite and positive, got {self.alpha}")
        if not 0.0 <= self.offset <= self.alpha:
            raise DomainError(f"offset {self.offset} outside [0, alpha={self.alpha}]")
        if self.n_cells < 1:
            raise DomainError(f"n_cells must be >= 1, got {self.n_cells}")


def build_partition(
    m_low: float, m_high: float, alpha: float, offset: float = 0.0
) -> Partition:
    """Tile [m_low, m_high] with cells of width alpha, first cell ``offset``.

    The grid anchor is b1 = m_low + first_len; the k-th interior boundary
    sits at b1 + k*alpha. A generated boundary within 1e-9*alpha of
    m_high is snapped onto m_high rather than leaving a sliver cell. An
    interval no wider than alpha yields the single cell [m_low, m_high].
    """

    grid = Partition(m_low, m_high, alpha, offset, 1)  # validates the scalars
    if m_high - m_low <= alpha:
        return grid

    b1 = grid._b1
    cutoff = m_high - _SNAP_REL * alpha
    if b1 >= cutoff:
        n_interior = 0
    else:
        # Closed-form count, then a local scan to absorb float rounding at
        # the cutoff; interior boundary k sits at b1 + k*alpha.
        k = max(0, int(math.floor((cutoff - b1) / alpha)) - 2)
        while b1 + (k + 1) * alpha < cutoff:
            k += 1
        while k >= 0 and b1 + k * alpha >= cutoff:
            k -= 1
        n_interior = k + 1
    return dataclasses.replace(grid, n_cells=n_interior + 1)


def quantize(value: float, partition: Partition) -> QuantizedValue:
    """Round a raw estimate to its cell midpoint.

    Out-of-interval values are clamped to [m_low, m_high] first and the
    result carries ``clamped=True``; campaigns report the flag instead of
    aborting on a transient excursion.
    """

    cell, clamped = partition.cell_of(value)
    return QuantizedValue(partition.midpoint(cell), cell, clamped)
