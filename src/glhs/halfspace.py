"""Halfspaces and disjunctions over structured bit coordinates.

Coordinates are laid out as a (rows, cols) grid flattened row-major: entry
(i, j) of the weight grid multiplies bit i*cols + j of an example.  The sign
convention is global: sgn(t) = 1 iff t >= 0, so a zero weight vector with a
nonpositive threshold evaluates to the constant 1.

`exact_margins` is the one route that tests a linear form on bit rows
against a threshold: `Halfspace.evaluate` and the Monte-Carlo estimators of
`glhs.concentration` all decide through it.  It gives the exact sign of
<w, x> - theta over the stored float64 weights and threshold, not the sign
of some float rounding of it: rows are multiplied in float64 a block of
_BLOCK_CELLS cells at a time, and a row whose float margin lies within the
rounding bound of zero is summed exactly.  Beyond a few (n,) arrays, it
allocates only that block (one row, when a row is wider than the block),
whatever n is.  The perceptron's own step is the one other sign test on bit
rows; its float `x.dot(w)` defines the trained weights.

The tail-structure tools operate on the multiset of weight magnitudes sorted
in decreasing order (ties broken by ascending original index so every
ordering decision is deterministic):

* tail norms: sigma_t^2 = sum of the squared magnitudes from sorted position
  t on (1-based);
* critical index: the first sorted position t with |w_(t)| <= tau * sigma_t,
  or infinity when no position qualifies;
* a vector is tau-regular iff its critical index is 1;
* the regularizing prefix is the first (critical index - 1) sorted positions,
  the minimal prefix whose removal leaves a tau-regular tail.

`critical_index` and `check_geometric_decay` take one vector or a
(count, dim) matrix of row vectors, decided at once; a vector is the one-row
case of the same code.  The tail norms are a running dnrm2-style update that
squares each ratio as r * r.  They agree with a per-element loop that squares
with Python's `** 2` (libm pow) to a few ulps, well inside the 4(n+4) eps
within which `critical_index` redoes a near-tie on `math.hypot`; no decision
depends on the difference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence, TextIO

import numpy as np

from .core import AtomicFile, FormatError


# Rows of a batch are converted to float64 and multiplied this many cells at
# a time, so `exact_margins` never holds a float copy of a whole batch.
_BLOCK_CELLS = 1 << 18


def _frozen_array(values, dtype=np.float64) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Halfspace:
    """sgn(<w, x> - theta) over a (rows, cols) bit grid."""

    weights: np.ndarray
    theta: float
    rows: int
    cols: int

    @classmethod
    def from_grid(cls, grid: np.ndarray, theta: float) -> "Halfspace":
        grid = np.asarray(grid, dtype=np.float64)
        if grid.ndim != 2:
            raise ValueError("weight grid must be two-dimensional")
        return cls(
            weights=_frozen_array(grid.reshape(-1)),
            theta=float(theta),
            rows=grid.shape[0],
            cols=grid.shape[1],
        )

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 1 or w.size != self.rows * self.cols:
            raise ValueError(
                f"weights must be flat with {self.rows * self.cols} entries"
            )
        if not np.isfinite(w).all() or not math.isfinite(self.theta):
            raise ValueError("halfspace weights and threshold must be finite")
        if not w.flags.writeable:
            object.__setattr__(self, "weights", w)
        else:
            object.__setattr__(self, "weights", _frozen_array(w))

    @property
    def dim(self) -> int:
        return self.rows * self.cols

    def grid(self) -> np.ndarray:
        return self.weights.reshape(self.rows, self.cols)

    def block(self, row: int) -> np.ndarray:
        """Weight block of one row (one slot or vertex)."""
        if not 0 <= row < self.rows:
            raise IndexError(f"row {row} out of range [0, {self.rows})")
        return self.weights[row * self.cols : (row + 1) * self.cols]

    def evaluate(self, bits: np.ndarray) -> np.ndarray:
        """0/1 prediction(s): 1 iff <w, x> >= theta, decided exactly."""
        return (exact_margins(bits, self.weights, self.theta) >= 0).astype(np.uint8)


def rounding_bound(dim: int, norm: float) -> float:
    """2 (dim+2) u norm, u = 2^-53: twice the error of a float <w, x> - theta.

    With norm = |w|_1 + |theta|, a float64 evaluation of <w, x> - theta over
    dim bits, in any order of addition, is within gamma_(dim+1) norm of the
    exact value, gamma_m = m u / (1 - m u) < (dim+2) u.
    """
    return 2 * (dim + 2) * 2.0**-53 * norm


def exact_margins(bits: np.ndarray, w: np.ndarray, theta) -> np.ndarray:
    """<w, x> - theta for one flat bit vector or a batch (n, dim); exact sign.

    The one route that tests a linear form on bit rows against a threshold.
    It decides over the stored float64 w and theta, not over the reals they
    approximate: with w = fl(1/5) per coordinate, 18 set bits sum exactly to
    more than fl(3.6), though their float sums may round onto it.  The sign, zero
    included, is exact, so `>= 0` and `<= 0` are both exact tests.  theta
    may also be a sequence of k thresholds, which share one product: the
    result then has a leading axis of k, one set of margins per threshold.

    The bits keep their dtype; rows are converted to float64 _BLOCK_CELLS
    cells at a time into one scratch block and multiplied there.  A row whose
    float margin is within `rounding_bound` of zero is replaced by the
    correctly rounded exact margin, `math.fsum` over w on its set bits and
    -theta.  Every other row has the exact sign, which is also the sign of
    any other float evaluation within that bound (one gemv over the whole
    batch, for one), so no decision depends on the block size or on the
    order in which BLAS adds.  When w is integral and |w|_1 < 2^53, every
    partial sum of <w, x> is an exact integer and the one rounded
    subtraction of theta keeps its sign, so no row is recomputed.
    """
    x = np.asarray(bits)
    dim = w.size
    if x.ndim == 0 or x.shape[-1] != dim:
        raise ValueError(f"expected {dim} bits, got shape {x.shape}")
    n = math.prod(x.shape[:-1])
    flat = x.reshape(n, dim)
    products = np.empty(n)
    step = max(1, _BLOCK_CELLS // max(dim, 1))
    block = np.empty((min(step, n), dim))
    for lo in range(0, n, step):
        rows = block[: min(step, n - lo)]
        np.copyto(rows, flat[lo : lo + step])
        np.matmul(rows, w, out=products[lo : lo + rows.shape[0]])
    thetas = np.asarray(theta, dtype=np.float64)
    out = products - thetas.reshape(-1, 1)
    norm = float(np.abs(w).sum())
    if not (norm < 2.0**53 and np.array_equal(w, np.trunc(w))):
        for margins, t in zip(out, thetas.reshape(-1).tolist()):
            bound = rounding_bound(dim, norm + abs(t))
            for i in np.flatnonzero(np.abs(margins) <= bound).tolist():
                margins[i] = math.fsum(w[np.flatnonzero(flat[i])].tolist() + [-t])
    return out.reshape(thetas.shape + x.shape[:-1])[()]


@dataclass(frozen=True)
class Disjunction:
    """OR of positive literals, each naming one (row, col) grid position."""

    literals: frozenset[tuple[int, int]]
    rows: int
    cols: int

    def __post_init__(self):
        for (i, j) in self.literals:
            if not (0 <= i < self.rows and 0 <= j < self.cols):
                raise ValueError(
                    f"literal ({i}, {j}) outside the {self.rows}x{self.cols} grid"
                )

    @property
    def dim(self) -> int:
        return self.rows * self.cols

    def flat_indices(self) -> np.ndarray:
        idx = sorted(i * self.cols + j for (i, j) in self.literals)
        return np.asarray(idx, dtype=np.int64)

    def evaluate(self, bits: np.ndarray) -> np.ndarray:
        x = np.asarray(bits, dtype=np.uint8)
        if x.shape[-1] != self.dim:
            raise ValueError(f"expected {self.dim} bits, got shape {x.shape}")
        idx = self.flat_indices()
        if idx.size == 0:
            shape = x.shape[:-1] if x.ndim > 1 else ()
            return np.zeros(shape, dtype=np.uint8)
        sel = x[..., idx]
        return sel.any(axis=-1).astype(np.uint8)

    def as_halfspace(self) -> Halfspace:
        """The same function as a halfspace: sum of literal bits >= 1/2."""
        grid = np.zeros((self.rows, self.cols))
        for (i, j) in self.literals:
            grid[i, j] = 1.0
        return Halfspace.from_grid(grid, 0.5)


# ---------------------------------------------------------------------------
# tail structure


@dataclass(frozen=True)
class CriticalIndexReport:
    """Sorted magnitude order, tail norms, and the critical index.

    order[t] is the original index of the (t+1)-st largest magnitude;
    tail_norms[t] is sigma_{t+1} in 1-based terms.  c_tau is a 1-based
    position or math.inf when no position qualifies.  For a (count, dim)
    matrix of row vectors, order and tail_norms are (count, dim) and c_tau is
    a float array of count positions (inf where none qualifies).
    """

    order: np.ndarray
    tail_norms: np.ndarray
    c_tau: float | np.ndarray
    tau: float

    @property
    def is_regular(self) -> bool | np.ndarray:
        return self.c_tau == 1

    @property
    def prefix_size(self) -> int | np.ndarray:
        """Length of the regularizing prefix: c_tau - 1, or dim if c_tau = inf."""
        size = np.where(np.isinf(self.c_tau), self.order.shape[-1], self.c_tau - 1)
        size = size.astype(np.int64)
        return size if size.ndim else int(size)


def _as_rows(w: Sequence[float] | np.ndarray) -> np.ndarray:
    """A vector as one row, or a (count, dim) matrix as it is, in float64."""
    arr = np.asarray(w, dtype=np.float64)
    if arr.ndim not in (1, 2):
        raise ValueError("expected a vector or a (count, dim) matrix of row vectors")
    if arr.size and not np.isfinite(arr).all():
        raise ValueError("weights must be finite")
    return arr[None, :] if arr.ndim == 1 else arr


def _magnitude_order(w: np.ndarray) -> np.ndarray:
    # stable sort on (-|w|, index) along the last axis: ties broken by
    # ascending original index
    return np.argsort(-np.abs(w), axis=-1, kind="stable")


def _suffix_norms(mags: np.ndarray) -> np.ndarray:
    """Euclidean norm of every suffix of every row, rescaled on the fly.

    dnrm2's running (scale, sum-of-squares) update from the last position
    back, so no range of float64 magnitudes overflows or underflows.  On rows
    sorted in decreasing order the scale at t is |w_(t)| itself:
    ssq_t = 1 + ssq_(t+1) q_t^2 with q_t = |w_(t+1)| / |w_(t)| (0 past the
    last nonzero), and sigma_t = |w_(t)| sqrt(ssq_t).
    """
    count, n = mags.shape
    head, rest = mags[:, :-1], mags[:, 1:]
    q = np.divide(rest, head, out=np.zeros_like(rest), where=head > 0.0)
    q *= q
    q = q.T.copy()  # one contiguous row of ratios per step
    ssq = np.ones((n, count))
    for t in range(n - 2, -1, -1):
        np.multiply(ssq[t + 1], q[t], out=ssq[t])
        ssq[t] += 1.0
    return mags * np.sqrt(ssq.T)


def critical_index(w: Sequence[float] | np.ndarray, tau: float) -> CriticalIndexReport:
    """Locate the first sorted position whose magnitude drops to the tau fringe.

    w is one vector or a (count, dim) matrix whose rows are decided at once;
    a vector is the one-row case and gets a scalar c_tau.  The empty vector
    and the all-zero vector are regular (c_tau = 1).  The report is
    scale-invariant: both sides of the defining comparison scale linearly.
    """
    if not 0 < tau <= 1:
        raise ValueError(f"tau must be in (0, 1], got {tau}")
    rows = _as_rows(w)
    count, n = rows.shape
    order = _magnitude_order(rows)
    mags = np.take_along_axis(np.abs(rows), order, axis=1)
    tails = _suffix_norms(mags)
    # The running norm may be a few ulps off; within that bound of a tie the
    # comparison is decided on math.hypot of the tail, which is correctly
    # rounded in all but rare cases.
    slack = 4.0 * (n + 4) * np.finfo(np.float64).eps
    fringe = tau * tails
    near = np.abs(mags - fringe) <= slack * np.maximum(mags, fringe)
    # first plain hit per row; a sentinel column makes it n where there is none
    plain = np.concatenate([(mags <= fringe) & ~near, np.ones((count, 1), bool)], axis=1)
    first = plain.argmax(axis=1)
    c = np.where(first < n, first + 1.0, math.inf) if n else np.ones(count)
    # near-ties before a row's first plain hit, in row-major order
    decided = np.zeros(count, dtype=bool)
    cells = np.nonzero(near & (np.arange(n) < first[:, None]))
    for r, t in zip(cells[0].tolist(), cells[1].tolist()):
        if not decided[r] and mags[r, t] <= tau * math.hypot(*mags[r, t:].tolist()):
            c[r] = t + 1
            decided[r] = True
    order = order.astype(np.int64)
    order.flags.writeable = False
    tails.flags.writeable = False
    if np.ndim(w) == 1:
        c0 = float(c[0])
        return CriticalIndexReport(
            order=order[0], tail_norms=tails[0],
            c_tau=int(c0) if math.isfinite(c0) else math.inf, tau=tau,
        )
    c.flags.writeable = False
    return CriticalIndexReport(order=order, tail_norms=tails, c_tau=c, tau=tau)


def top_indices(w: Sequence[float] | np.ndarray, t: int) -> np.ndarray:
    """Original indices of the t largest magnitudes, in rank order."""
    arr = np.asarray(w, dtype=np.float64)
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    t = min(t, arr.size)
    return _magnitude_order(arr)[:t].astype(np.int64)


def regularizing_prefix(
    w: Sequence[float] | np.ndarray, tau: float
) -> np.ndarray:
    """The minimal rank prefix whose removal leaves a tau-regular tail.

    Returns the first max(c_tau - 1, 0) sorted original indices; when
    c_tau is infinite every index is returned.
    """
    report = critical_index(w, tau)
    return report.order[: report.prefix_size].copy()


def drop_top(w: np.ndarray, order: np.ndarray, counts) -> np.ndarray:
    """Copy of each row of w with its counts[r] largest magnitudes zeroed.

    order is the rows' magnitude order (`CriticalIndexReport.order`); counts
    is one count per row, or one for all.
    """
    rank = np.argsort(order, axis=-1)
    return np.where(rank >= np.asarray(counts)[..., None], w, 0.0)


def truncate(w: Sequence[float] | np.ndarray, keep: Iterable[int]) -> np.ndarray:
    """Copy of w with every coordinate outside `keep` zeroed."""
    arr = np.asarray(w, dtype=np.float64).copy()
    keep_idx = np.asarray(sorted(set(int(i) for i in keep)), dtype=np.int64)
    if keep_idx.size:
        if keep_idx[0] < 0 or keep_idx[-1] >= arr.size:
            raise ValueError(
                f"keep indices must lie in [0, {arr.size}), got "
                f"[{keep_idx.min()}, {keep_idx.max()}]"
            )
    mask = np.zeros(arr.size, dtype=bool)
    mask[keep_idx] = True
    arr[~mask] = 0.0
    return arr


@dataclass(frozen=True)
class DecayCheck:
    """Outcome of the geometric tail-decay verification; truthy iff it passed."""

    ok: bool
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok


def check_geometric_decay(
    w: Sequence[float] | np.ndarray,
    tau: float,
    l: int | Sequence[int] | np.ndarray,
    rtol: float = 1e-9,
) -> DecayCheck | list[DecayCheck]:
    """Verify the decay chain on the sorted magnitudes when c_tau > l.

    For 1 <= i <= j <= l+1 the chain asserts

        |w_(j)| <= sigma_j <= (1-tau^2)^((j-i)/2) sigma_i,

    and for positions i strictly below the critical index additionally

        sigma_i <= |w_(i)| / tau,

    which gives |w_(j)| <= |w_(i)| / 3 whenever j - i > (4/tau^2) ln(1/tau)
    and tau <= 1/3.  The third link is only guaranteed strictly below the
    critical index; at i equal to the critical index the defining inequality
    points the other way, so it is checked only where it is implied.

    w is one vector, or a (count, dim) matrix with one l per row (or one
    for all) and one DecayCheck per row.  A row reports its first failing
    link, and in a link its first failing pair in i-major order.
    """
    if not 0 < tau <= 1:
        raise ValueError(f"tau must be in (0, 1], got {tau}")
    if np.any(np.asarray(l) < 0):
        raise ValueError(f"l must be nonnegative, got {l}")
    rows = _as_rows(w)
    count, n = rows.shape
    report = critical_index(rows, tau)
    c = report.c_tau
    ls = np.broadcast_to(np.asarray(l, dtype=np.int64), (count,))
    short = np.flatnonzero(~(c > ls))
    if short.size:
        r = short[0]
        where = f" in row {r}" if np.ndim(w) == 2 else ""
        raise ValueError(
            f"precondition failed{where}: critical index {c[r]:g} must exceed "
            f"l={ls[r]}"
        )
    mags = np.take_along_axis(np.abs(rows), report.order, axis=1)
    limit = np.minimum(ls + 1, n)
    third = np.minimum(limit, report.prefix_size)
    checks = _decay_chain(mags, report.tail_norms, tau, limit, third, 1.0 + rtol)
    return checks[0] if np.ndim(w) == 1 else checks


def _decay_chain(
    mags: np.ndarray,
    tails: np.ndarray,
    tau: float,
    limit: np.ndarray,
    third: np.ndarray,
    slack: float,
) -> list[DecayCheck]:
    """The four links of `check_geometric_decay` over sorted rows.

    Row r checks positions below limit[r], and the last two links only from
    positions below third[r].  The pair links take a block of i at a time,
    at most max(_BLOCK_CELLS, count * dim) cells.
    """
    count, n = mags.shape
    cols = np.arange(n)
    in_limit = cols < limit[:, None]
    details: list[str | None] = [None] * count
    open_ = np.ones(count, dtype=bool)

    def settle(bad: np.ndarray, describe) -> None:
        # bad is (count, cells); each open row fails at its first bad cell
        hit = open_ & bad.any(axis=1)
        if hit.any():
            for r, k in zip(np.flatnonzero(hit).tolist(), bad[hit].argmax(axis=1).tolist()):
                details[r] = describe(r, k)
            open_[hit] = False

    # every pair has i <= j < max(limit)
    stop = int(limit.max(initial=0))

    def settle_pairs(bad_pairs, describe, i_stop: int) -> None:
        # bad_pairs(i0, i1) is (count, i1 - i0, stop - i0): pair (i, j) fails,
        # for i in [i0, i1) and j in [i0, stop)
        step = max(1, _BLOCK_CELLS // max(count * stop, 1))
        for i0 in range(0, i_stop, step):
            if open_.any():
                width = stop - i0
                bad = bad_pairs(i0, min(i_stop, i0 + step)).reshape(count, -1)
                settle(bad, lambda r, k: describe(r, i0 + k // width, i0 + k % width))

    settle(
        in_limit & (mags > tails * slack),
        lambda r, j: (
            f"|w_({j + 1})| = {mags[r, j]:.6g} exceeds sigma = {tails[r, j]:.6g}"
        ),
    )

    decay = math.sqrt(max(0.0, 1.0 - tau * tau))
    # Python's ** as in the scalar chain, so every bound is the same float
    powers = np.array([decay**e for e in range(n)])

    def chain(i0: int, i1: int) -> np.ndarray:
        gap = cols[i0:stop] - cols[i0:i1, None]  # j - i
        bound = powers[np.maximum(gap, 0)] * tails[:, i0:i1, None]
        bad = tails[:, None, i0:stop] > bound * slack + 1e-300
        return bad & (gap >= 0) & in_limit[:, None, i0:stop]

    settle_pairs(
        chain,
        lambda r, i, j: (
            f"sigma_({j + 1}) = {tails[r, j]:.6g} exceeds "
            f"(1-tau^2)^({j - i}/2) * sigma_({i + 1}) = {powers[j - i] * tails[r, i]:.6g}"
        ),
        stop,
    )
    settle(
        (cols < third[:, None]) & (tails * tau > mags * slack),
        lambda r, i: (
            f"tau * sigma_({i + 1}) = {tau * tails[r, i]:.6g} exceeds "
            f"|w_({i + 1})| = {mags[r, i]:.6g} below the critical index"
        ),
    )
    # tau^2 underflows to 0 below tau ~ 1.5e-162, where the stride is unbounded
    stride = (4.0 / (tau * tau)) * math.log(1.0 / tau) if tau * tau else math.inf
    if tau <= 1.0 / 3.0 and stop - 1 > stride:

        def spread(i0: int, i1: int) -> np.ndarray:
            rows = cols[i0:i1, None]
            bad = mags[:, None, i0:stop] > (mags[:, i0:i1, None] / 3.0) * slack
            return bad & ((cols[i0:stop] - rows) > stride) & in_limit[:, None, i0:stop] & (
                rows < third[:, None, None]
            )

        settle_pairs(
            spread,
            lambda r, i, j: (
                f"|w_({j + 1})| = {mags[r, j]:.6g} exceeds |w_({i + 1})|/3 "
                f"despite a gap of {j - i} > {stride:.3g}"
            ),
            int(third.max(initial=0)),
        )
    return [DecayCheck(True) if d is None else DecayCheck(False, d) for d in details]


# ---------------------------------------------------------------------------
# serialization

_HS_MAGIC = "GLHS-HS"
_HS_VERSION = 1


def write_halfspace(h: Halfspace, out: str | TextIO) -> None:
    """Versioned text record: order tag, grid shape, theta, weights.

    `out` is a path, written through an `AtomicFile`, or a text file open for
    writing, such as the one an open `AtomicFile` yields.
    """
    lines = [
        f"{_HS_MAGIC} {_HS_VERSION}",
        "order row-major",
        f"rows {h.rows}",
        f"cols {h.cols}",
        f"theta {h.theta!r}",
        "weights " + " ".join(repr(float(v)) for v in h.weights),
        "",
    ]
    if hasattr(out, "write"):
        out.write("\n".join(lines))
        return
    with AtomicFile(out) as fh:
        fh.write("\n".join(lines))


def read_halfspace(path: str) -> Halfspace:
    """Parse a `write_halfspace` file; every FormatError names the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return _parse_halfspace([ln.rstrip("\n") for ln in fh if ln.strip()])
    except ValueError as exc:  # UnicodeDecodeError and Halfspace's own checks included
        raise FormatError(f"halfspace record {path}: {exc}") from None


def _parse_halfspace(lines: list[str]) -> Halfspace:
    if not lines or not lines[0].startswith(_HS_MAGIC):
        raise FormatError(f"not a halfspace record: missing {_HS_MAGIC} header")
    version = lines[0][len(_HS_MAGIC):].strip()
    if version != str(_HS_VERSION):
        raise FormatError(f"unsupported halfspace record version {version!r}")
    fields: dict[str, str] = {}
    for ln in lines[1:]:
        key, _, rest = ln.partition(" ")
        fields[key] = rest
    if fields.get("order", "row-major") != "row-major":
        raise FormatError(f"unknown coordinate order {fields.get('order')!r}")
    missing = [key for key in ("rows", "cols", "theta", "weights") if key not in fields]
    if missing:
        raise FormatError(f"lacks {', '.join(missing)}")
    rows = int(fields["rows"])
    cols = int(fields["cols"])
    theta = float(fields["theta"])
    weights = np.asarray([float(v) for v in fields["weights"].split()])
    if rows < 1 or cols < 1 or weights.size != rows * cols:
        raise FormatError(
            f"weight count {weights.size} does not match {rows}x{cols}"
        )
    return Halfspace.from_grid(weights.reshape(rows, cols), theta)
