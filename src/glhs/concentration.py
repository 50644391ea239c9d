"""Anti-concentration estimators for the small-ball and spread lemmas.

Two families of checks live here:

1. Exact subset-sum counting for geometric weight vectors: a vector whose
   sorted magnitudes shrink by a factor of 3 per step separates its 2^T
   subset sums so far apart that a short interval can catch at most one.
   `noisy_small_ball` turns that into a probability bound under per-bit
   replacement noise: whatever the base distribution, hitting the interval
   requires landing on the unique preimage point, which noise prevents with
   probability at least 1 - (1 - gamma/2)^T.
2. Spread estimation for regular unit vectors: the probability that the
   noisy linear form lands in any fixed interval [a, b] is bounded by
   4(b-a)/sqrt(gamma) + 4 tau/sqrt(gamma) + 2 exp(-gamma^2 / (2 tau^2)).

The three Monte Carlo estimators (small-ball, spread, noise mass) take one
route: each states a row test over draws addressed by absolute row index,
`_estimate` counts its hits `chunk_rows` rows at a time, and all three
return an `Estimate`, which carries the bound, the side it bounds from and
a slack of four binomial standard deviations.  Every row test decides its
linear form against its threshold through `halfspace.exact_margins`, the
one exact-sign route, over the stored float64 weights and thresholds: the
count is that of the exact comparisons, not of float sums whose rounding
depends on how many rows BLAS multiplies at once.  So the estimators are
deterministic given (master_seed, stream_id), and the chunking moves
neither a draw nor a decision.  Base
distributions come from a small adversarial catalog: the bounds quantify
over every distribution, so tests probe point masses and biased or uniform
product laws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Protocol, Sequence

import numpy as np

from .core import (
    GuardError,
    PURPOSE_MC,
    PURPOSE_NOISE,
    PURPOSE_X,
    chunk_rows,
    purpose_stream,
    threshold_bits,
    uniform_threshold,
)
from .halfspace import critical_index, exact_margins
from .moments import apply_noise
from .stats import binomial_sigma

SUBSET_GUARD_T = 24

# ---------------------------------------------------------------------------
# geometric vectors and subset sums


def sorted_magnitudes(w: Sequence[float] | np.ndarray) -> np.ndarray:
    arr = np.abs(np.asarray(w, dtype=np.float64))
    return -np.sort(-arr)


def require_geometric(w: Sequence[float] | np.ndarray, rtol: float = 1e-9) -> np.ndarray:
    """Validate the factor-3 magnitude decay; returns sorted magnitudes.

    Requires every magnitude strictly positive: a zero coordinate makes two
    distinct cube points share one subset sum, and the uniqueness statement
    is about points, not sums.
    """
    mags = sorted_magnitudes(w)
    if mags.size == 0:
        raise ValueError("geometric vector must be nonempty")
    if mags[-1] <= 0.0:
        raise ValueError("geometric vector must have strictly positive magnitudes")
    for i in range(mags.size - 1):
        if mags[i + 1] > (mags[i] / 3.0) * (1.0 + rtol):
            raise ValueError(
                f"decay violated at position {i + 1}: "
                f"{mags[i + 1]:.6g} > {mags[i]:.6g}/3"
            )
    return mags


def subset_sums(w: Sequence[float] | np.ndarray) -> np.ndarray:
    """All 2^T subset sums of w, unsorted."""
    arr = np.asarray(w, dtype=np.float64)
    if arr.size > SUBSET_GUARD_T:
        raise GuardError(
            f"subset enumeration needs 2^{arr.size} points; guard is 2^{SUBSET_GUARD_T}"
        )
    sums = np.zeros(1)
    for v in arr:
        sums = np.concatenate([sums, sums + v])
    return sums


def unique_point_in_interval(
    w: Sequence[float] | np.ndarray, a: float, b: float
) -> int:
    """Exhaustive count of cube points whose weighted sum lands in [a, b].

    Preconditions: sorted magnitudes decay by a factor of 3 per step, all
    strictly positive, interval length at most a third of the smallest
    magnitude, and at most 2^24 points.  Under these the count is provably
    at most 1: two distinct points differ by at least half the magnitude at
    the highest rank where they disagree.
    """
    if not a <= b:
        raise ValueError(f"interval endpoints out of order: [{a}, {b}]")
    arr = np.asarray(w, dtype=np.float64)
    mags = require_geometric(arr)
    if (b - a) > (mags[-1] / 3.0) * (1.0 + 1e-9):
        raise ValueError(
            f"interval length {b - a:.6g} exceeds smallest magnitude/3 = "
            f"{mags[-1] / 3.0:.6g}"
        )
    sums = subset_sums(arr)
    return int(np.count_nonzero((sums >= a) & (sums <= b)))


# ---------------------------------------------------------------------------
# adversarial base-distribution catalog


class BitSource(Protocol):
    """Deterministically samplable distribution over {0,1}^dim."""

    @property
    def dim(self) -> int: ...

    def sample_bits(
        self, count: int, master_seed: int, stream_id: int, start: int = 0
    ) -> np.ndarray: ...


@dataclass(frozen=True)
class PointMass:
    """The distribution concentrated on one fixed bit pattern."""

    bits: tuple[int, ...]

    def __post_init__(self):
        if any(v not in (0, 1) for v in self.bits):
            raise ValueError("point mass bits must be 0/1")

    @property
    def dim(self) -> int:
        return len(self.bits)

    def sample_bits(
        self, count: int, master_seed: int, stream_id: int, start: int = 0
    ) -> np.ndarray:
        row = np.asarray(self.bits, dtype=np.uint8)
        return np.tile(row, (count, 1))


@dataclass(frozen=True)
class ProductBits:
    """Independent per-coordinate Bernoulli bits."""

    rates: tuple[float, ...]

    def __post_init__(self):
        if any(not 0.0 <= r <= 1.0 for r in self.rates):
            raise ValueError("rates must lie in [0, 1]")

    @property
    def dim(self) -> int:
        return len(self.rates)

    def sample_bits(
        self, count: int, master_seed: int, stream_id: int, start: int = 0
    ) -> np.ndarray:
        """Row start + i owns the counter words [(start + i) * dim, (start + i + 1) * dim)."""
        n = self.dim
        origins = np.arange(start, start + count, dtype=np.uint64) * np.uint64(n)
        out = np.empty((count, n), dtype=np.uint8)
        return threshold_bits(
            master_seed, stream_id, origins, n, uniform_threshold(self.rates), out
        )


def uniform_bits(dim: int) -> ProductBits:
    return ProductBits(rates=(0.5,) * dim)


# ---------------------------------------------------------------------------
# Monte Carlo estimators


@dataclass(frozen=True)
class Estimate:
    """An empirical probability next to the bound a lemma claims for it.

    `upper` says which side the bound is on; the check allows `slack`, four
    binomial standard deviations at the estimate plus 4/trials.
    """

    estimate: float
    bound: float
    trials: int
    slack: float
    upper: bool

    @property
    def passed(self) -> bool:
        if self.upper:
            return self.estimate <= self.bound + self.slack
        return self.estimate >= self.bound - self.slack


# hits_of(start, rows): the hit mask of rows start .. start + rows - 1
RowTest = Callable[[int, int], np.ndarray]


def _estimate(hits_of: RowTest, width: int, trials: int, bound: float, upper: bool) -> Estimate:
    """Count the rows `hits_of(start, rows)` marks, chunk_rows(width) at a time.

    Rows are drawn at absolute indices, so the chunking never moves a draw.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    chunk = chunk_rows(width)
    hits = sum(
        int(np.count_nonzero(hits_of(start, min(chunk, trials - start))))
        for start in range(0, trials, chunk)
    )
    est = hits / trials
    slack = 4.0 * binomial_sigma(est, trials) + 4.0 / trials
    return Estimate(estimate=est, bound=bound, trials=trials, slack=slack, upper=upper)


def _interval_hits(w: np.ndarray, source: BitSource, gamma: float, a: float, b: float,
                   master_seed: int, stream_id: int) -> RowTest:
    """The row test `<w, y> in [a, b]` for noisy draws y of `source`.

    Both ends are decided by one `exact_margins` call, whose sign is exact,
    zero included: a row is a hit iff <w, y> - a >= 0 and <w, y> - b <= 0
    over the stored floats.
    """
    if w.size != source.dim:
        raise ValueError(f"weight length {w.size} does not match source dim {source.dim}")
    x_stream = purpose_stream(stream_id, PURPOSE_X)
    noise_stream = purpose_stream(stream_id, PURPOSE_NOISE)

    def hits_of(start: int, rows: int) -> np.ndarray:
        bits = source.sample_bits(rows, master_seed, x_stream, start=start)
        y = apply_noise(bits, gamma, master_seed, noise_stream, start=start)
        above_a, above_b = exact_margins(y, w, (a, b))
        return (above_a >= 0) & (above_b <= 0)

    return hits_of


def _require_rate(gamma: float) -> None:
    if not 0.0 < gamma <= 1.0:
        raise ValueError(f"noise rate must be in (0, 1], got {gamma}")


def _require_regular_unit(w: Sequence[float] | np.ndarray, tau: float) -> np.ndarray:
    """w as an array, after checking it is a tau-regular unit vector."""
    arr = np.asarray(w, dtype=np.float64)
    norm = float(np.linalg.norm(arr))
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"w must be a unit vector, got norm {norm!r}")
    c_tau = critical_index(arr, tau).c_tau
    if c_tau != 1:
        raise ValueError(f"w must be tau-regular (critical index 1), got {c_tau}")
    return arr


def noisy_small_ball(
    w: Sequence[float] | np.ndarray,
    source: BitSource,
    gamma: float,
    theta: float,
    trials: int,
    master_seed: int,
    stream_id: int = 0,
) -> Estimate:
    """Estimate Pr[<w, y> in theta +- m/6] against the (1-gamma/2)^T bound.

    y is a draw from `source` with each bit independently replaced by a fair
    coin with probability gamma; m is the smallest weight magnitude.  The
    interval has length m/3, so it contains at most one cube point, and the
    noise reaches any fixed point with probability at most (1-gamma/2)^T.
    """
    arr = np.asarray(w, dtype=np.float64)
    half = require_geometric(arr)[-1] / 6.0
    _require_rate(gamma)
    hits_of = _interval_hits(
        arr, source, gamma, theta - half, theta + half, master_seed, stream_id
    )
    return _estimate(hits_of, arr.size, trials, (1.0 - gamma / 2.0) ** arr.size, upper=True)


def spread_bound(gamma: float, tau: float, length: float) -> float:
    """4|b-a|/sqrt(gamma) + 4 tau/sqrt(gamma) + 2 exp(-gamma^2/(2 tau^2))."""
    _require_rate(gamma)
    if not 0.0 < tau <= 1.0:
        raise ValueError(f"tau must be in (0, 1], got {tau}")
    if length < 0.0:
        raise ValueError(f"interval length must be nonnegative, got {length}")
    rg = math.sqrt(gamma)
    return 4.0 * length / rg + 4.0 * tau / rg + 2.0 * math.exp(-(gamma * gamma) / (2.0 * tau * tau))


def spread_estimate(
    w: Sequence[float] | np.ndarray,
    source: BitSource,
    gamma: float,
    a: float,
    b: float,
    tau: float,
    trials: int,
    master_seed: int,
    stream_id: int = 0,
) -> Estimate:
    """Estimate Pr[<w, y> in [a, b]] for a tau-regular unit vector w."""
    arr = _require_regular_unit(w, tau)
    if not a <= b:
        raise ValueError(f"interval endpoints out of order: [{a}, {b}]")
    hits_of = _interval_hits(arr, source, gamma, a, b, master_seed, stream_id)
    return _estimate(hits_of, arr.size, trials, spread_bound(gamma, tau, b - a), upper=True)


def noise_mass_estimate(
    w: Sequence[float] | np.ndarray,
    gamma: float,
    tau: float,
    trials: int,
    master_seed: int,
    stream_id: int = 0,
) -> Estimate:
    """The squared-weight mass hit by noise concentrates above gamma/2.

    z_i are the per-bit replacement indicators (independent Bernoulli(gamma));
    for a tau-regular unit vector the mass sum w_i^2 z_i has mean gamma and
    fourth-power range sum at most tau^2, so it falls below gamma/2 with
    probability at most 2 exp(-gamma^2/(2 tau^2)) (one factor of 2 to spare).
    The bound is a lower one: 1 - 2 exp(-gamma^2/(2 tau^2)).  The test
    sum w_i^2 z_i >= gamma/2 is decided exactly over the stored squares
    fl(w_i * w_i) and fl(gamma/2).
    """
    arr = _require_regular_unit(w, tau)
    _require_rate(gamma)
    sq = arr * arr
    stream = purpose_stream(stream_id, PURPOSE_MC)
    indicators = ProductBits(rates=(gamma,) * arr.size)

    def hits_of(start: int, rows: int) -> np.ndarray:
        z = indicators.sample_bits(rows, master_seed, stream, start=start)
        return exact_margins(z, sq, gamma / 2.0) >= 0

    bound = 1.0 - 2.0 * math.exp(-(gamma * gamma) / (2.0 * tau * tau))
    return _estimate(hits_of, arr.size, trials, bound, upper=False)
