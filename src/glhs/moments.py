"""Moment-matched column distributions over {0,1}^k.

The positive source D1 mixes an exactly-one-hot component with four product
Bernoulli components at rates p, 2p, 3p, 4p.  The negative source D0 mixes an
all-zeros component with the same four product components, reweighted so that
every moment of degree at most four agrees between the two sources.  The
reweighting solves a 4x4 linear system whose closed form is

    eps_i = eps/4 + delta_i,   delta = (4b, -3b, 4b/3, -b/4),
    b = (1 - eps) / (k * p).

All weights are solved in exact rational arithmetic (floats are read as the
decimal literal they print as), so boundary-feasible parameter sets come out
exactly on the boundary instead of within float noise of it.  The
closed forms are exact too.  Each component has one: the probability that m
given coordinates show one fixed pattern with j ones, behind replacement
noise.  Every other quantity reads the mixture's weighted sum of it: the
moments (the all-ones pattern), the all-zeros probability (j = 0 at m = k),
the column-sum law (C(k, j) times the law at m = k) and the exact marginals.
So the D0/D1 moment gap through degree four is an exact zero, noiseless or
noisy, and any nonzero gap is an error.  An exact value at m = k has
O(k log b) bits (b the bit rates' common denominator), too many to sum in
Fractions at large k, so the column-sum law and the all-zeros probability
walk the same closed form twice in 40-digit decimals, rounding every step
down and then up: O(k) small steps whose two results bound each exact value.
Each float is the correctly rounded one; the exact law decides where the
bounds straddle a rounding boundary.  The float brute-force enumeration
oracle checks it.  Deterministic column samplers and the per-bit
replacement-noise channel also live here.

Column n owns the counter words [n*(k+2), (n+1)*(k+2)) (component word, hot
word, one word per Bernoulli bit), and noised row r owns [r*(L+2), ...).  A
Bernoulli bit or dense-path noise decision tests ``(w >> 11) < ceil(q*2^53)``
on one word w in `core.threshold_bits`, 2^15 words per block; noise takes
w's low bit as the new value.  A column whose component has rate 0 or 1
draws no bit words, since its test has one outcome for every word (T = 0 or
2^53); the addresses stay reserved, so no other draw moves.
"""

from __future__ import annotations

import decimal
import itertools
import math
from dataclasses import dataclass, replace
from decimal import Decimal
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Union

import numpy as np

from .core import (
    GuardError,
    rng_words,
    threshold_bits,
    uniform_threshold,
    words_to_open_uniforms,
    words_to_uniforms,
)

Rational = Union[int, float, str, Fraction]
Number = Union[Fraction, Decimal]  # exact values, or bounds on them

ENUM_GUARD_K = 20
EXACT_MARGINAL_GUARD_M = 16
_DENSE_NOISE_THRESHOLD = 1.0 / 32.0

KIND_EXACTLY_ONE = 1
KIND_BERNOULLI = 2


class FeasibilityError(ValueError):
    """Raised when no valid moment-matched pair exists at the parameters."""


def as_fraction(x: Rational) -> Fraction:
    """Exact rational from a parameter.

    Floats are converted through their shortest decimal representation, so a
    value written as 0.8 means 4/5 rather than the nearest binary double.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ValueError(f"parameter must be finite, got {x}")
        return Fraction(str(x))
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {type(x).__name__} as a rational")


# ---------------------------------------------------------------------------
# mixture components


@dataclass(frozen=True)
class ExactlyOne:
    """Uniform choice of a single hot coordinate."""

    kind = KIND_EXACTLY_ONE
    rate: float = 0.0  # no independent bits: sample_columns_at draws none for it

    def bit_rate(self, gamma: Fraction) -> Fraction:
        """P[a coordinate other than the hot one reads 1]; the hot one reads 1
        with the complementary probability."""
        return gamma / 2

    def law(self, k: int, m: int, j: int, t: dict[int, Number]) -> Number:
        """k times the law of a pattern of j ones on m coordinates, given
        t[i] = x^i (1-x)^(m-i) at the bit rate x, for i in [j-1, j+1] and
        0 <= i <= m.  The hot coordinate lies outside the m, on one of the
        j ones or on one of the m - j zeros."""
        out = (k - m) * t[j]
        if j:
            out += j * t[j - 1]
        if j < m:
            out += (m - j) * t[j + 1]
        return out


@dataclass(frozen=True)
class Bernoulli:
    """Independent bits at a common rate; rate 0 is the all-zeros point mass."""

    rate: float
    rate_exact: Fraction

    kind = KIND_BERNOULLI

    def __post_init__(self):
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"bernoulli rate must be in [0, 1], got {self.rate}")

    def bit_rate(self, gamma: Fraction) -> Fraction:
        """P[a bit reads 1] behind replacement noise at rate gamma."""
        return (1 - gamma) * self.rate_exact + gamma / 2

    def law(self, k: int, m: int, j: int, t: dict[int, Number]) -> Number:
        """k times the law of a pattern of j ones on m coordinates, with t as
        in `ExactlyOne.law`."""
        return k * t[j]


def bernoulli(rate: Rational) -> Bernoulli:
    exact = as_fraction(rate)
    return Bernoulli(rate=float(exact), rate_exact=exact)


Component = Union[ExactlyOne, Bernoulli]


# ---------------------------------------------------------------------------
# bounds: every operation under the first context rounds down and under the
# second up, so a chain of them on nonnegative values bounds its exact value
# from below and from above.  40 digits keep the bounds within 10^-33 of each
# other over 10^5 steps; the exponent range is unbounded in practice.

_BOUNDS = tuple(
    decimal.Context(prec=40, rounding=r, Emin=decimal.MIN_EMIN, Emax=decimal.MAX_EMAX)
    for r in (decimal.ROUND_FLOOR, decimal.ROUND_CEILING)
)


def _power(x: Decimal, m: int) -> Decimal:
    """x^m by squaring, each product rounded in the current context."""
    out = Decimal(1)
    while m:
        if m & 1:
            out *= x
        x *= x
        m >>= 1
    return out


def _terms(x: Fraction, m: int):
    """For j = 0, 1, ...: one dict t, updated in place, with t[i] =
    x^i (1 - x)^(m - i) for i in [j - 1, j + 1], each step rounded in the
    current context."""
    a, b = x.numerator, x.denominator
    t = {-1: 0, 0: _power(Decimal(b - a) / b, m)}
    for j in itertools.count():
        # at x = 1 every bit reads 1: only the all-ones pattern has mass
        t[j + 1] = t[j] * a / (b - a) if a < b else Decimal(int(j + 1 == m))
        yield t
        del t[j - 1]


# ---------------------------------------------------------------------------
# mixtures


@dataclass(frozen=True)
class ColumnMixture:
    """Finite mixture of exchangeable column components over {0,1}^k, seen
    through per-bit replacement noise at rate `gamma_exact` (0: noiseless).

    Each bit is independently replaced by a uniform bit with probability
    gamma, so a Bernoulli bit at rate r reads 1 with probability
    (1-gamma) r + gamma/2.  The rational weights are the definition; the
    float weights are their correctly rounded values.
    """

    k: int
    weights_exact: tuple[Fraction, ...]
    components: tuple[Component, ...]
    gamma_exact: Fraction = Fraction(0)

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"column arity k must be >= 1, got {self.k}")
        if len(self.weights_exact) != len(self.components):
            raise ValueError("weights and components must align")
        if not self.components:
            raise ValueError("mixture needs at least one component")
        for w in self.weights_exact:
            if w < 0:
                raise ValueError(f"mixture weight {w} is negative")
        if sum(self.weights_exact) != 1:
            raise ValueError("exact mixture weights must sum to exactly 1")
        if not 0 <= self.gamma_exact <= 1:
            raise ValueError(f"noise rate must be in [0, 1], got {self.gamma_exact}")

    @cached_property
    def weights(self) -> tuple[float, ...]:
        return tuple(float(w) for w in self.weights_exact)

    @property
    def gamma(self) -> float:
        return float(self.gamma_exact)

    def noisy(self, gamma: Rational) -> "ColumnMixture":
        """This mixture behind a further replacement channel at rate gamma:
        a bit survives both channels iff it survives each."""
        g = as_fraction(gamma)
        return replace(self, gamma_exact=1 - (1 - self.gamma_exact) * (1 - g))

    def law(self, m: int, j: int) -> Fraction:
        """P[m given coordinates show one fixed pattern with j ones], exactly:
        the weighted sum of the components' closed forms."""
        if not 0 <= j <= m <= self.k:
            raise ValueError(f"need 0 <= j <= m <= {self.k}, got j={j}, m={m}")
        total = Fraction(0)
        for w, comp in zip(self.weights_exact, self.components):
            x = comp.bit_rate(self.gamma_exact)
            t = {i: x**i * (1 - x) ** (m - i) for i in range(max(j - 1, 0), min(j + 1, m) + 1)}
            total += w * comp.law(self.k, m, j, t)
        return total / self.k

    def moment_of_size(self, s: int) -> Fraction:
        """E[prod of s distinct coordinates], identical for every such set."""
        return self.law(s, s)

    def count_pmf(self, n: int) -> list[float]:
        """P[a column shows j ones] for j < n: C(k, j) times the law at m = k,
        each the correctly rounded float of its exact value.

        The law is walked once under each of the `_BOUNDS` contexts, O(n +
        log k) steps on 40-digit decimals, and the two walks bound each
        exact value.  Where the bounds round to one float it is the answer;
        elsewhere the exact law decides.
        """
        k, sides = self.k, []
        for ctx in _BOUNDS:
            with decimal.localcontext(ctx):
                terms = [_terms(c.bit_rate(self.gamma_exact), k) for c in self.components]
                weights = [w.numerator / Decimal(w.denominator * k) for w in self.weights_exact]
                comb, row = Decimal(1), []
                for j in range(n):
                    row.append(float(comb * sum(
                        w * c.law(k, k, j, next(t))
                        for w, c, t in zip(weights, self.components, terms)
                    )))
                    comb = comb * (k - j) / (j + 1)
            sides.append(row)
        return [
            lo if lo == hi else float(math.comb(k, j) * self.law(k, j))
            for j, (lo, hi) in enumerate(zip(*sides))
        ]

    def prob_all_zero(self) -> float:
        """P[column is all zeros], correctly rounded: the j = 0 entry of
        `count_pmf`."""
        return self.count_pmf(1)[0]

    @cached_property
    def sampler_tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        cdf = np.cumsum(np.asarray(self.weights, dtype=np.float64))
        cdf[-1] = 1.0
        kinds = np.asarray([c.kind for c in self.components], dtype=np.uint8)
        rates = np.asarray([c.rate for c in self.components], dtype=np.float64)
        return cdf, kinds, rates


# ---------------------------------------------------------------------------
# the weight solver


@dataclass(frozen=True)
class WeightSolution:
    """Exact and float solutions of the degree-4 matching system."""

    k: int
    eps: Fraction
    p: Fraction
    b: Fraction
    eps_weights: tuple[Fraction, Fraction, Fraction, Fraction]

    @property
    def eps_floats(self) -> tuple[float, float, float, float]:
        return tuple(float(w) for w in self.eps_weights)

    @property
    def total(self) -> Fraction:
        return sum(self.eps_weights)

    def residuals(self) -> tuple[float, ...]:
        """Float residuals of the four moment equations at the float weights."""
        eps_f = self.eps_floats
        p_f = float(self.p)
        eps = float(self.eps)
        out = []
        for s in range(1, 5):
            lhs = math.fsum(w * ((i + 1) * p_f) ** s for i, w in enumerate(eps_f))
            rhs = math.fsum((eps / 4.0) * ((i + 1) * p_f) ** s for i in range(4))
            if s == 1:
                rhs += (1.0 - eps) / self.k
            out.append(lhs - rhs)
        return tuple(out)


def _numeric_cross_check(k: int, eps: Fraction, p: Fraction,
                         exact: tuple[Fraction, ...]) -> None:
    # independent route: Gaussian elimination on the float Vandermonde system
    rates = [float((i + 1) * p) for i in range(4)]
    a = np.array([[r ** s for r in rates] for s in range(1, 5)], dtype=np.float64)
    rhs = np.array(
        [
            math.fsum((float(eps) / 4.0) * r ** s for r in rates)
            + ((1.0 - float(eps)) / k if s == 1 else 0.0)
            for s in range(1, 5)
        ]
    )
    numeric = np.linalg.solve(a, rhs)
    scale = max(1.0, float(max(abs(w) for w in exact)))
    drift = max(abs(n - float(e)) for n, e in zip(numeric, exact))
    if drift > 1e-6 * scale:
        raise ArithmeticError(
            f"weight solver cross-check failed: exact and numeric routes "
            f"disagree by {drift:.3e}"
        )


def solve_d0_weights(k: int, eps: Rational, p: Rational) -> WeightSolution:
    """Solve for the D0 component weights matching D1 to degree 4.

    Raises FeasibilityError when any weight would be negative (which happens
    exactly when eps*k*p < 12*(1-eps)) or when the weights exceed total mass 1
    (which happens exactly when k*p < 25/12), naming the violated quantity.
    """
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")
    eps_x = as_fraction(eps)
    p_x = as_fraction(p)
    if not 0 <= eps_x <= 1:
        raise ValueError(f"eps must be in [0, 1], got {eps_x}")
    if not 0 < p_x:
        raise ValueError(f"p must be positive, got {p_x}")
    if 4 * p_x > 1:
        raise ValueError(
            f"p must satisfy 4*p <= 1 so all component rates are valid; got p={p_x}"
        )

    b = (1 - eps_x) / (k * p_x)
    delta = (4 * b, -3 * b, Fraction(4, 3) * b, -b / 4)
    weights = tuple(eps_x / 4 + d for d in delta)

    for i, w in enumerate(weights, start=1):
        if w < 0:
            lhs = eps_x * k * p_x
            rhs = 12 * (1 - eps_x)
            raise FeasibilityError(
                f"eps{i} = {float(w):.6g} < 0: no valid weights at "
                f"(k={k}, eps={float(eps_x):.6g}, p={float(p_x):.6g}); "
                f"feasibility requires eps*k*p >= 12*(1-eps), got "
                f"{float(lhs):.6g} < {float(rhs):.6g}"
            )
    total = sum(weights)
    if total > 1:
        raise FeasibilityError(
            f"sum of eps weights = {float(total):.6g} > 1, leaving the "
            f"all-zero component of D0 with negative mass at "
            f"(k={k}, eps={float(eps_x):.6g}, p={float(p_x):.6g}); "
            f"this requires k*p >= 25/12, got k*p = {float(k * p_x):.6g}"
        )

    solution = WeightSolution(k=k, eps=eps_x, p=p_x, b=b, eps_weights=weights)
    _numeric_cross_check(k, eps_x, p_x, weights)
    return solution


def boundary_eps(k: int, p: Rational) -> Fraction:
    """The smallest feasible eps at (k, p): eps*k*p = 12*(1-eps)."""
    p_x = as_fraction(p)
    return Fraction(12, 1) / (12 + k * p_x)


def asymptotic_eps(k: int) -> float:
    """The k^(-1/2) mixing weight used by the asymptotic completeness bounds."""
    return k ** -0.5


def asymptotic_rate(k: int) -> float:
    """The k^(-1/3) base Bernoulli rate used by the asymptotic analysis."""
    return k ** (-1.0 / 3.0)


def default_noise_rate(k: int) -> float:
    """Noise rate 1/k^2: below one expected replaced bit per column."""
    return 1.0 / (k * k)


def build_pair(k: int, eps: Rational, p: Rational) -> tuple[ColumnMixture, ColumnMixture]:
    """Construct the moment-matched pair (D0, D1) at (k, eps, p).

    D1 = (1-eps) ExactlyOne + sum_i (eps/4) Bernoulli(i*p)
    D0 = (1-sum eps_i) Bernoulli(0) + sum_i eps_i Bernoulli(i*p)
    """
    sol = solve_d0_weights(k, eps, p)
    rates = [(i + 1) * sol.p for i in range(4)]
    bern = tuple(bernoulli(r) for r in rates)

    d1 = ColumnMixture(
        k=k,
        weights_exact=(1 - sol.eps,) + tuple(sol.eps / 4 for _ in range(4)),
        components=(ExactlyOne(),) + bern,
    )
    d0 = ColumnMixture(
        k=k,
        weights_exact=(1 - sol.total,) + sol.eps_weights,
        components=(bernoulli(0),) + bern,
    )
    gap = moment_gap(d0, d1, 4)
    if gap:
        raise ArithmeticError(f"constructed pair has moment gap {float(gap):.3e}")
    return d0, d1


def completeness_pair(k: int, eps: Rational, p: Rational) -> tuple[ColumnMixture, ColumnMixture]:
    """One-sided pair for completeness-only experiments.

    D0 is the all-zeros point mass and D1 the usual positive mixture.  No
    degree-4 matching holds (or is possible for k*p < 25/12); acceptance
    closed forms remain valid.
    """
    eps_x = as_fraction(eps)
    p_x = as_fraction(p)
    if not 0 <= eps_x <= 1:
        raise ValueError(f"eps must be in [0, 1], got {eps_x}")
    if not 0 < 4 * p_x <= 1:
        raise ValueError(f"p must satisfy 0 < 4*p <= 1, got {p_x}")
    bern = tuple(bernoulli((i + 1) * p_x) for i in range(4))
    d1 = ColumnMixture(
        k=k,
        weights_exact=(1 - eps_x,) + tuple(eps_x / 4 for _ in range(4)),
        components=(ExactlyOne(),) + bern,
    )
    d0 = ColumnMixture(k=k, weights_exact=(Fraction(1),), components=(bernoulli(0),))
    return d0, d1


# ---------------------------------------------------------------------------
# closed-form moment queries


def _distinct_coords(dist: ColumnMixture, coords: Iterable[int]) -> frozenset[int]:
    out = set()
    for c in coords:
        if not isinstance(c, (int, np.integer)):
            raise TypeError(f"coordinate {c!r} is not an integer")
        if not 0 <= c < dist.k:
            raise ValueError(
                f"coordinate {c} out of range [0, {dist.k}) for this source"
            )
        out.add(int(c))
    return frozenset(out)


def exact_moment(dist: ColumnMixture, coords: Iterable[int]) -> Fraction:
    """E[prod_{i in coords} x_i] exactly, in closed form; repeats collapse (bits are 0/1)."""
    return dist.moment_of_size(len(_distinct_coords(dist, coords)))


def moment_gap(d0: ColumnMixture, d1: ColumnMixture, degree: int) -> Fraction:
    """max_{1<=s<=degree} |E_D0 - E_D1| over s distinct coordinates, exactly."""
    if d0.k != d1.k:
        raise ValueError(f"sources have different arity: {d0.k} vs {d1.k}")
    if degree < 1:
        raise ValueError("degree must be >= 1")
    if degree > d0.k:
        raise ValueError(f"degree {degree} exceeds arity {d0.k}")
    return max(
        abs(d0.moment_of_size(s) - d1.moment_of_size(s))
        for s in range(1, degree + 1)
    )


# ---------------------------------------------------------------------------
# enumeration oracle


def _popcounts(n_patterns: int) -> np.ndarray:
    return np.bitwise_count(np.arange(n_patterns, dtype=np.uint64)).astype(np.int64)


def enum_oracle_moment(dist: ColumnMixture, coords: Iterable[int]) -> float:
    """Brute-force E[prod x_i] over all 2^k points; the closed forms' oracle."""
    s = _distinct_coords(dist, coords)
    pmf = marginal_pmf(dist, dist.k)
    mask = 0
    for i in s:
        mask |= 1 << i
    idx = np.arange(pmf.size, dtype=np.uint64)
    hit = (idx & np.uint64(mask)) == np.uint64(mask)
    return float(pmf[hit].sum())


def marginal_pmf(dist: ColumnMixture, m: int) -> np.ndarray:
    """pmf of the first m coordinates (the sources are exchangeable).

    Pattern index encodes coordinate i at bit i.  With m = k this is the
    full pmf over all 2^k columns: the enumeration oracle, independent of
    the closed forms, since component pmfs are assembled pointwise and noise
    is applied as an explicit per-bit transfer.
    """
    if not 1 <= m <= dist.k:
        raise ValueError(f"marginal size must be in [1, {dist.k}], got {m}")
    if m > ENUM_GUARD_K:
        raise GuardError(f"marginal over 2^{m} patterns exceeds the guard")
    k = dist.k
    n = 1 << m
    pop = _popcounts(n)
    pmf = np.zeros(n, dtype=np.float64)
    for w, comp in zip(dist.weights, dist.components):
        if comp.kind == KIND_EXACTLY_ONE:
            pmf[0] += w * (k - m) / k
            for i in range(m):
                pmf[1 << i] += w / k
        else:
            q = comp.rate
            if q == 0.0:
                pmf[0] += w
            elif q == 1.0:
                pmf[n - 1] += w
            else:
                pmf += w * np.exp(pop * math.log(q) + (m - pop) * math.log1p(-q))
    g = dist.gamma
    if g > 0.0:
        t = np.array(
            [[1.0 - g / 2.0, g / 2.0], [g / 2.0, 1.0 - g / 2.0]], dtype=np.float64
        )
        pmf = pmf.reshape((2,) * m)
        for _ in range(m):
            pmf = np.tensordot(pmf, t, axes=([0], [1]))
        pmf = pmf.reshape(-1)
    return pmf


def marginal_pmf_rational(dist: ColumnMixture, m: int) -> list[Fraction]:
    """Exact-rational pmf of the first m coordinates, in `marginal_pmf`'s
    pattern order: the law at the pattern's number of ones."""
    if not 1 <= m <= dist.k:
        raise ValueError(f"marginal size must be in [1, {dist.k}], got {m}")
    if m > EXACT_MARGINAL_GUARD_M:
        raise GuardError(f"exact marginal limited to m <= {EXACT_MARGINAL_GUARD_M}")
    law = [dist.law(m, j) for j in range(m + 1)]
    return [law[i.bit_count()] for i in range(1 << m)]


# ---------------------------------------------------------------------------
# column-sum distribution (for exact acceptance analysis of weight-uniform
# halfspaces)


def column_sum_pmf(dist: ColumnMixture) -> np.ndarray:
    """pmf of the number of ones in one column (length k+1): C(k, j) times
    the law at m = k, each entry the correctly rounded float of its exact
    value."""
    return np.array(dist.count_pmf(dist.k + 1))


# ---------------------------------------------------------------------------
# sampling


_COLUMN_BLOCK_EXTRA = 2  # component word + hot word

# Column words (k per column) per block of `sample_columns_at`, which bounds
# its per-column arrays; the Bernoulli bits go through `threshold_bits` in
# its own blocks.  Every column owns fixed counter addresses, so the output
# does not depend on where the blocks fall.
_BLOCK_WORDS = 1 << 17
# the Bernoulli threshold of rate 1: every word's test (w >> 11) < T holds
_ALWAYS = np.uint64(1 << 53)


def column_block_size(k: int) -> int:
    """Counter words reserved per sampled column."""
    return _COLUMN_BLOCK_EXTRA + k


def sample_columns_at(
    dist: ColumnMixture,
    master_seed: int,
    stream_id: int,
    columns: np.ndarray,
) -> np.ndarray:
    """Columns (len(columns), k) for an array of absolute column indices.

    Column n owns the counter block [n*B, (n+1)*B) with B =
    column_block_size, so the result is independent of batch boundaries and
    interleaving calls for disjoint index sets (different mixtures per
    example row, say) still reproduces the same bits per index.  Noise is
    not drawn here: noisy columns are these columns through apply_noise.
    """
    if dist.gamma_exact:
        raise ValueError("sample_columns_at draws noiseless columns; apply_noise adds the noise")
    k = dist.k
    idx = np.asarray(columns, dtype=np.uint64) * np.uint64(column_block_size(k))
    cdf, kinds, rates = dist.sampler_tables
    rate_t = uniform_threshold(rates)

    cols = np.zeros((idx.size, k), dtype=np.uint8)
    step = max(1, _BLOCK_WORDS // k)
    for start in range(0, idx.size, step):
        blk = idx[start : start + step]
        out = cols[start : start + step]
        u = words_to_uniforms(rng_words(master_seed, stream_id, blk))
        comp = np.minimum(np.searchsorted(cdf, u, side="right"), len(kinds) - 1)

        hot_rows = np.flatnonzero(kinds[comp] == KIND_EXACTLY_ONE)
        if hot_rows.size:
            hw = words_to_uniforms(
                rng_words(master_seed, stream_id, blk[hot_rows] + np.uint64(1))
            )
            out[hot_rows, np.minimum((hw * k).astype(np.int64), k - 1)] = 1

        # rate-0 rows (the all-zeros component) stay zero and rate-1 rows
        # (T = 2^53, which every word passes) are all ones: neither draws words
        row_t = rate_t[comp]
        out[row_t == _ALWAYS] = 1
        bern_rows = np.flatnonzero((row_t > 0) & (row_t < _ALWAYS))
        if bern_rows.size:
            out[bern_rows] = threshold_bits(
                master_seed, stream_id, blk[bern_rows] + np.uint64(2), k,
                rate_t[comp[bern_rows], None],
                np.empty((bern_rows.size, k), dtype=np.uint8),
            )
    return cols


def noise_block_size(length: int) -> int:
    """Counter words reserved per example for replacement noise over `length` bits."""
    return length + 2


def apply_noise(
    bits: np.ndarray,
    gamma: float,
    master_seed: int,
    stream_id: int,
    start: int,
) -> np.ndarray:
    """Per-bit replacement noise, in place, over rows of a (count, L) bit array.

    Row r (absolute example index start + r) owns the counter block
    [(start+r)*(L+2), ...).  For sparse noise the replaced positions are
    walked by exact geometric gaps, consuming one word per replacement; each
    word's low bit supplies the replacement value and its top 53 bits the
    gap uniform, so the channel is exactly the independent per-bit one.
    Dense rates use one word per bit, through `threshold_bits`.  The path
    depends only on gamma, so equal parameters give identical output
    regardless of batching.

    A uint8 `bits` is noised in place and returned; other input is first
    converted to a new uint8 array.  Callers that still need the clean bits
    pass a copy.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.ndim != 2:
        raise ValueError("apply_noise expects a (count, length) bit array")
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"noise rate must be in [0, 1], got {gamma}")
    count, length = bits.shape
    if gamma == 0.0 or length == 0 or count == 0:
        return bits

    block = np.uint64(noise_block_size(length))
    base = (np.arange(start, start + count, dtype=np.uint64)) * block

    if gamma >= _DENSE_NOISE_THRESHOLD:
        return threshold_bits(
            master_seed, stream_id, base, length, uniform_threshold(gamma), bits, replace=True
        )

    inv_log = 1.0 / math.log1p(-gamma)
    pos = np.full(count, -1, dtype=np.int64)
    slot = np.zeros(count, dtype=np.uint64)
    active = np.arange(count)
    while active.size:
        w = rng_words(master_seed, stream_id, base[active] + slot[active])
        u = words_to_open_uniforms(w)
        # a gap past the row ends it; capping it keeps tiny rates from
        # overflowing the int64 cast
        gap = np.floor(np.minimum(np.log(u) * inv_log, length)).astype(np.int64)
        pos[active] += gap + 1
        slot[active] += np.uint64(1)
        vals = (w & np.uint64(1)).astype(np.uint8)
        alive = pos[active] < length
        rows = active[alive]
        bits[rows, pos[rows]] = vals[alive]
        active = rows
    return bits
