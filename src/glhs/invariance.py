"""Moment-matched ensembles force nearly equal smooth statistics of linear forms.

Everything here is exact enumeration over finite supports: a family of
independent small ensembles, a linear form l(x) = sum_i <l_i, x_i>, and a
test function Psi with bounded fourth derivative.  If every A_i matches
every B_i up to degree-3 moments, the Psi-expectation gap is at most
K * sum_i ||l_i||_1^4, proved (and tested here) one hybrid swap at a time
with a per-swap budget of (K/12) * ||l_i||_1^4.

For the 0/1 sign statistic the chain runs through a smooth surrogate: a
degree-9 polynomial bridge that climbs from 0 to 1 across [-lam, lam] with
four vanishing derivatives at both ends.  Its certified fourth-derivative
bound C/lam^4 plus the worst window mass c(alpha) of the linear form give
the testable bound gap <= (C/alpha^4) * sum ||l_i||_1^4 + 2 c(alpha).

Each quantity has one arithmetic route, and it is exact wherever the
quantity is a polynomial in the support rows.  An ensemble's moments are
Fractions.  Everything about a polynomial Psi (the gap against its bound,
the cubic gap, the hybrid steps) needs only the raw moments E[l^j] for
j <= deg Psi: each block's moments come from its support rows in Fractions
and independent blocks combine by the binomial sum rule, so the cost grows
with the number of blocks, not with the number of atoms of l, a cubic gap
is zero rather than small, and the hybrid steps sum to the signed gap
exactly.  Float rows enter these moments through the exact values of their
floats.  The 0/1 sign statistic is not a polynomial, so `sgn_gap_bound`
alone convolves per-block value distributions (floats, exact duplicates
merged) to read Pr[l >= theta] and the window masses.
Gadget-column marginals always enter as exact ensembles (Fraction rows).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .core import GuardError
from .moments import ColumnMixture, marginal_pmf_rational

ENUM_GUARD_POINTS = 10_000_000

Number = float | Fraction


@dataclass(frozen=True)
class Ensemble:
    """A finite joint distribution of `vars_count` variables in [-1, 1].

    support holds (probability, value tuple) rows; probabilities sum to 1.
    Rows may carry Fractions or floats.  Every moment is an exact Fraction;
    a float enters through the exact value it stores, not the decimal it
    prints as.
    """

    vars_count: int
    support: tuple[tuple[Number, tuple[Number, ...]], ...]

    def __post_init__(self):
        if self.vars_count < 0:
            raise ValueError("vars_count must be nonnegative")
        if not self.support:
            raise ValueError("support must be nonempty")
        total = 0
        for prob, values in self.support:
            if len(values) != self.vars_count:
                raise ValueError(
                    f"support row has {len(values)} values, expected {self.vars_count}"
                )
            if prob < 0:
                raise ValueError(f"negative probability {prob}")
            if any(abs(v) > 1 + 1e-12 for v in values):
                raise ValueError("ensemble values must be bounded by 1")
            total = total + prob
        if abs(float(total) - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {float(total)!r}, expected 1")

    def moment(self, multiset: Sequence[int]) -> Fraction:
        """E[prod_{i in multiset} x_i] exactly; indices may repeat."""
        for i in multiset:
            if not 0 <= i < self.vars_count:
                raise ValueError(f"variable index {i} out of range")
        acc = Fraction(0)
        for p, vals in self.support:
            term = Fraction(p)
            for i in multiset:
                term *= Fraction(vals[i])
            acc += term
        return acc


def first_moment_mismatch(
    a: Ensemble, b: Ensemble, degree: int
) -> tuple[int, ...] | None:
    """The smallest multiset (by size, then lexicographic) where moments differ.

    Moments are exact Fractions, so any difference at all is a mismatch.
    """
    if a.vars_count != b.vars_count:
        raise ValueError(
            f"arity mismatch: {a.vars_count} vs {b.vars_count} variables"
        )
    for size in range(1, degree + 1):
        for multiset in itertools.combinations_with_replacement(
            range(a.vars_count), size
        ):
            if a.moment(multiset) != b.moment(multiset):
                return multiset
    return None


@dataclass(frozen=True)
class EnsembleFamily:
    """Independent ensembles."""

    ensembles: tuple[Ensemble, ...]

    def __len__(self) -> int:
        return len(self.ensembles)


def family(*ensembles: Ensemble) -> EnsembleFamily:
    return EnsembleFamily(ensembles=tuple(ensembles))


# ---------------------------------------------------------------------------
# ensembles from gadget mixtures


def ensemble_from_pmf(pmf: Sequence[Number], m: int) -> Ensemble:
    """Ensemble over m bit variables from a pmf over the 2^m patterns.

    Pattern index bit i (little-endian) is the value of variable i.
    """
    if len(pmf) != 1 << m:
        raise ValueError(f"pmf has {len(pmf)} entries, expected {1 << m}")
    rows = []
    for pattern, prob in enumerate(pmf):
        if not prob:
            continue
        values = tuple((pattern >> i) & 1 for i in range(m))
        rows.append((prob, values))
    return Ensemble(vars_count=m, support=tuple(rows))


def mixture_marginal_ensemble(dist: ColumnMixture, m: int) -> Ensemble:
    """First-m-coordinates marginal of a gadget column as an exact ensemble."""
    return ensemble_from_pmf(marginal_pmf_rational(dist, m), m)


# ---------------------------------------------------------------------------
# test functions


@dataclass(frozen=True)
class PolyPsi:
    """Polynomial test function with coefficients in ascending degree order."""

    coeffs: tuple[Number, ...]

    def __call__(self, t):
        if isinstance(t, np.ndarray):
            return np.polynomial.polynomial.polyval(
                t, np.asarray([float(c) for c in self.coeffs])
            )
        acc = 0 * t
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    @property
    def degree(self) -> int:
        d = len(self.coeffs) - 1
        while d > 0 and float(self.coeffs[d]) == 0.0:
            d -= 1
        return d

    @property
    def k_bound(self) -> float:
        """max |fourth derivative|; finite only through degree 4."""
        if self.degree > 4:
            raise ValueError("fourth-derivative bound unavailable above degree 4")
        if self.degree < 4:
            return 0.0
        return abs(24.0 * float(self.coeffs[4]))


QUARTIC = PolyPsi(coeffs=(0, 0, 0, 0, 1))


# the degree-9 bridge S(u) on [0, 1]: derivatives 1..4 vanish at both ends
_BRIDGE_ASC = (0.0, 0.0, 0.0, 0.0, 0.0, 126.0, -420.0, 540.0, -315.0, 70.0)
# S''''(u) = 15120 * h(u), h(u) = u(1-u)(1-2u)(7u^2-7u+1)
_H_ASC = (0.0, 1.0, -10.0, 30.0, -35.0, 14.0)
_H_PRIME_ASC = (1.0, -20.0, 90.0, -140.0, 70.0)
_H_PRIME2_ASC = (-20.0, 180.0, -420.0, 280.0)


def _polyval_asc(coeffs: Sequence[float], x):
    return np.polynomial.polynomial.polyval(x, np.asarray(coeffs))


def _bridge_fourth_max() -> float:
    """Certified max of |S''''| on [0, 1] via the critical points of h."""
    roots = np.roots(list(reversed(_H_PRIME_ASC)))
    crit = [r.real for r in roots if abs(r.imag) < 1e-9 and -0.01 < r.real < 1.01]
    for _ in range(4):  # Newton polish
        crit = [
            u - _polyval_asc(_H_PRIME_ASC, u) / _polyval_asc(_H_PRIME2_ASC, u)
            for u in crit
        ]
    candidates = [0.0, 1.0] + [min(max(u, 0.0), 1.0) for u in crit]
    peak = max(abs(_polyval_asc(_H_ASC, u)) for u in candidates)
    return 15120.0 * peak * (1.0 + 1e-9)


_BRIDGE_FOURTH_MAX = _bridge_fourth_max()

# max |Phi''''| = C_PHI / lam^4 for every half-width lam
C_PHI = _BRIDGE_FOURTH_MAX / 16.0


@dataclass(frozen=True)
class SmoothSign:
    """0 below -lam, 1 above lam, a degree-9 polynomial bridge between.

    Four derivatives vanish at the seams, so the function has four
    continuous derivatives everywhere; |fourth derivative| <= k_bound.
    """

    lam: float
    bridge: tuple[float, ...]
    k_bound: float

    def __call__(self, t):
        scalar = np.isscalar(t)
        arr = np.asarray(t, dtype=np.float64)
        u = np.clip((arr + self.lam) / (2.0 * self.lam), 0.0, 1.0)
        out = _polyval_asc(self.bridge, u)
        return float(out) if scalar else out

    def fourth_derivative(self, t):
        scalar = np.isscalar(t)
        arr = np.asarray(t, dtype=np.float64)
        u = (arr + self.lam) / (2.0 * self.lam)
        inside = (u > 0.0) & (u < 1.0)
        vals = np.where(
            inside,
            15120.0 * _polyval_asc(_H_ASC, np.clip(u, 0.0, 1.0)),
            0.0,
        ) / (16.0 * self.lam**4)
        return float(vals) if scalar else vals


def smooth_sign(lam: float) -> SmoothSign:
    if not 0.0 < lam < 0.5:
        raise ValueError(f"half-width must be in (0, 1/2), got {lam}")
    return SmoothSign(lam=lam, bridge=_BRIDGE_ASC, k_bound=C_PHI / lam**4)


# ---------------------------------------------------------------------------
# linear-form distributions


def _check_blocks(fam: EnsembleFamily, blocks: Sequence[Sequence[Number]]) -> None:
    if len(blocks) != len(fam):
        raise ValueError(
            f"{len(blocks)} weight blocks for {len(fam)} ensembles"
        )
    for i, (ens, block) in enumerate(zip(fam.ensembles, blocks)):
        if len(block) != ens.vars_count:
            raise ValueError(
                f"block {i} has {len(block)} weights for {ens.vars_count} variables"
            )


def _merge_float(vals: np.ndarray, probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    atoms, inverse = np.unique(vals, return_inverse=True)
    mass = np.bincount(inverse, weights=probs, minlength=atoms.size)
    return atoms, mass


def linear_form_distribution(
    fam: EnsembleFamily, blocks: Sequence[Sequence[Number]]
) -> tuple[np.ndarray, np.ndarray]:
    """Atoms and probabilities of l(x) = sum_i <l_i, x_i>, in floats.

    The sign statistic's route: per-block value distributions are convolved
    one block at a time, exact duplicates merged.  The product of the support
    sizes, which bounds the atom count, is guarded.
    """
    _check_blocks(fam, blocks)
    points = math.prod(len(e.support) for e in fam.ensembles)
    if points > ENUM_GUARD_POINTS:
        raise GuardError(f"product support has {points} points; guard is {ENUM_GUARD_POINTS}")
    atoms, mass = np.zeros(1), np.ones(1)
    for ens, block in zip(fam.ensembles, blocks):
        w = [float(v) for v in block]
        block_atoms, block_mass = _merge_float(
            np.asarray([math.fsum(float(x) * wi for x, wi in zip(row, w))
                        for _, row in ens.support]),
            np.asarray([float(p) for p, _ in ens.support]),
        )
        atoms, mass = _merge_float(
            (atoms[:, None] + block_atoms[None, :]).reshape(-1),
            (mass[:, None] * block_mass[None, :]).reshape(-1),
        )
    return atoms, mass


def _block_raw_moments(ens: Ensemble, block, degree: int) -> list[Fraction]:
    """E[<l_i, x_i>^j] for j = 0..degree, exactly, from the support rows."""
    w = [Fraction(v) for v in block]
    moments = [Fraction(0)] * (degree + 1)
    for p, row in ens.support:
        val = sum((Fraction(x) * wi for x, wi in zip(row, w)), Fraction(0))
        term = Fraction(p)
        for j in range(degree + 1):
            moments[j] += term
            term *= val
    return moments


def _add_independent(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """Raw moments of X + Y for independent X, Y: the binomial sum rule."""
    return [
        sum((math.comb(j, i) * a[i] * b[j - i] for i in range(j + 1)), Fraction(0))
        for j in range(len(a))
    ]


def _shift_moments(theta: Number, degree: int) -> list[Fraction]:
    """Raw moments of the constant -theta."""
    shift = -Fraction(theta)
    return [shift**j for j in range(degree + 1)]


def _psi_of(psi: PolyPsi, moments: list[Fraction]) -> Fraction:
    """E[Psi(X)] from the raw moments of X."""
    return sum((Fraction(c) * m for c, m in zip(psi.coeffs, moments)), Fraction(0))


def expect_psi_exact(
    fam: EnsembleFamily,
    blocks: Sequence[Sequence[Number]],
    theta: Number,
    psi: PolyPsi,
) -> Fraction:
    """Exact E[Psi(l(x) - theta)] for a polynomial Psi, by moment propagation."""
    _check_blocks(fam, blocks)
    degree = len(psi.coeffs) - 1
    moments = _shift_moments(theta, degree)
    for ens, block in zip(fam.ensembles, blocks):
        moments = _add_independent(moments, _block_raw_moments(ens, block, degree))
    return _psi_of(psi, moments)


def sum_l1_fourth(blocks: Sequence[Sequence[Number]]) -> float:
    return math.fsum(
        math.fsum(abs(float(v)) for v in block) ** 4 for block in blocks
    )


# ---------------------------------------------------------------------------
# gap computations


def _require_matching(
    fam_a: EnsembleFamily, fam_b: EnsembleFamily, degree: int
) -> None:
    """Each distinct (A_i, B_i) pair is checked once, at its first index."""
    if len(fam_a) != len(fam_b):
        raise ValueError(
            f"family sizes differ: {len(fam_a)} vs {len(fam_b)}"
        )
    checked = set()
    for i, pair in enumerate(zip(fam_a.ensembles, fam_b.ensembles)):
        if pair in checked:
            continue
        checked.add(pair)
        bad = first_moment_mismatch(*pair, degree)
        if bad is not None:
            raise ValueError(
                f"ensembles at index {i} disagree on the degree-{len(bad)} "
                f"moment of variables {bad}"
            )


@dataclass(frozen=True)
class GapResult:
    expect_a: Fraction
    expect_b: Fraction
    gap: Fraction
    bound: float
    sum_l1_4: float

    @property
    def passed(self) -> bool:
        return self.gap <= self.bound + 1e-9


def invariance_gap(
    fam_a: EnsembleFamily,
    fam_b: EnsembleFamily,
    blocks: Sequence[Sequence[Number]],
    theta: Number,
    psi: PolyPsi,
) -> GapResult:
    """|E_A Psi(l - theta) - E_B Psi(l - theta)| against K * sum ||l_i||_1^4.

    K is psi.k_bound; the expectations and the gap are exact.  Requires
    per-index degree-3 moment matching; the violating multiset is named on
    failure.
    """
    _require_matching(fam_a, fam_b, 3)
    ea = expect_psi_exact(fam_a, blocks, theta, psi)
    eb = expect_psi_exact(fam_b, blocks, theta, psi)
    s = sum_l1_fourth(blocks)
    return GapResult(
        expect_a=ea,
        expect_b=eb,
        gap=abs(ea - eb),
        bound=psi.k_bound * s,
        sum_l1_4=s,
    )


def invariance_gap_exact(
    fam_a: EnsembleFamily,
    fam_b: EnsembleFamily,
    blocks: Sequence[Sequence[Number]],
    theta: Number,
    psi: PolyPsi,
) -> Fraction:
    """The signed gap E_A - E_B of a polynomial Psi as an exact rational."""
    _require_matching(fam_a, fam_b, 3)
    return expect_psi_exact(fam_a, blocks, theta, psi) - expect_psi_exact(
        fam_b, blocks, theta, psi
    )


def hybrid_steps(
    fam_a: EnsembleFamily,
    fam_b: EnsembleFamily,
    blocks: Sequence[Sequence[Number]],
    theta: Number,
    psi: PolyPsi,
) -> list[Fraction]:
    """Exact signed per-index swap gaps; they sum to E_B - E_A exactly.

    Step i swaps ensemble i from A to B while indices below i already use B
    and indices above still use A.  Each step is bounded by
    (K/12) * ||l_i||_1^4 when the pair matches to degree 3.
    """
    _check_blocks(fam_a, blocks)
    _check_blocks(fam_b, blocks)
    degree = len(psi.coeffs) - 1
    a_moms = [_block_raw_moments(e, b, degree) for e, b in zip(fam_a.ensembles, blocks)]
    b_moms = [_block_raw_moments(e, b, degree) for e, b in zip(fam_b.ensembles, blocks)]
    prefix_b = [_shift_moments(theta, degree)]  # -theta plus the B blocks below i
    for moms in b_moms:
        prefix_b.append(_add_independent(prefix_b[-1], moms))
    suffix_a = [_shift_moments(0, degree)]
    for moms in reversed(a_moms):
        suffix_a.append(_add_independent(moms, suffix_a[-1]))
    suffix_a.reverse()  # suffix_a[i]: the A blocks from i on
    steps = []
    for i, (a, b) in enumerate(zip(a_moms, b_moms)):
        rest = _add_independent(prefix_b[i], suffix_a[i + 1])
        # the sum rule is bilinear, so the swap acts through B_i - A_i
        swap = [mb - ma for ma, mb in zip(a, b)]
        steps.append(_psi_of(psi, _add_independent(rest, swap)))
    return steps


# ---------------------------------------------------------------------------
# sign statistic


def window_mass(
    atoms: np.ndarray, probs: np.ndarray, alpha: float
) -> float:
    """sup over centers of Pr[value in [center - alpha, center + alpha]].

    For a discrete distribution the supremum is attained with a window edge
    at an atom; both edge alignments are scanned.
    """
    if alpha < 0:
        raise ValueError(f"alpha must be nonnegative, got {alpha}")
    order = np.argsort(atoms)
    a = atoms[order]
    p = probs[order]
    cum = np.concatenate([[0.0], np.cumsum(p)])
    width = 2.0 * alpha
    best = 0.0
    for lows in (a, a - width):
        lo = np.searchsorted(a, lows, side="left")
        hi = np.searchsorted(a, lows + width, side="right")
        mass = cum[hi] - cum[lo]
        best = max(best, float(mass.max()))
    return best


@dataclass(frozen=True)
class SgnGapResult:
    gap: float
    bound: float
    c_alpha: float
    smooth_bound: float
    sum_l1_4: float

    @property
    def passed(self) -> bool:
        return self.gap <= self.bound + 1e-9


def sgn_gap_bound(
    fam_a: EnsembleFamily,
    fam_b: EnsembleFamily,
    blocks: Sequence[Sequence[Number]],
    theta: float,
    alpha: float,
) -> SgnGapResult:
    """0/1 sign-statistic gap against (C/alpha^4) sum ||l_i||_1^4 + 2 c(alpha).

    The sign statistic is Pr[l(x) >= theta] (the halfspace convention maps
    the boundary to 1).  c(alpha) is the worse of the two families' maximal
    window masses at half-width alpha.
    """
    if not 0.0 < alpha < 0.5:
        raise ValueError(f"alpha must be in (0, 1/2), got {alpha}")
    _require_matching(fam_a, fam_b, 3)
    da = linear_form_distribution(fam_a, blocks)
    db = linear_form_distribution(fam_b, blocks)
    pa = float(da[1][da[0] >= theta].sum())
    pb = float(db[1][db[0] >= theta].sum())
    c_alpha = max(
        window_mass(da[0] - theta, da[1], alpha),
        window_mass(db[0] - theta, db[1], alpha),
    )
    ss = smooth_sign(alpha)
    s = sum_l1_fourth(blocks)
    smooth_term = ss.k_bound * s
    return SgnGapResult(
        gap=abs(pa - pb),
        bound=smooth_term + 2.0 * c_alpha,
        c_alpha=c_alpha,
        smooth_bound=smooth_term,
        sum_l1_4=s,
    )
