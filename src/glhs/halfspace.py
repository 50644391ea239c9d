"""Halfspaces and disjunctions over structured bit coordinates.

Coordinates are laid out as a (rows, cols) grid flattened row-major: entry
(i, j) of the weight grid multiplies bit i*cols + j of an example.  The sign
convention is global: sgn(t) = 1 iff t >= 0, so a zero weight vector with a
nonpositive threshold evaluates to the constant 1.

`Halfspace.evaluate` is the exact sign of <w, x> - theta under that
convention, not the sign of some float rounding of it: rows are multiplied
in float64 a block of _BLOCK_CELLS cells at a time, and a row whose float
margin lies within the rounding bound of zero is summed exactly (see
`Halfspace.margin`).  Beyond a few (n,) arrays, evaluation allocates only
that block (one row, when a row is wider than the block), whatever n is.

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import AtomicFile, FormatError


# Rows of a batch are converted to float64 and multiplied this many cells at
# a time, so `Halfspace.margin` never holds a float copy of a whole batch.
_BLOCK_CELLS = 1 << 18


def sgn(t: float) -> int:
    """Global sign convention: 1 iff t >= 0, else -1."""
    return 1 if t >= 0 else -1


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

    def margin(self, bits: np.ndarray) -> np.ndarray:
        """<w, x> - theta for one flat bit vector or a batch (n, dim); exact sign.

        The bits keep their dtype; rows are converted to float64 _BLOCK_CELLS
        cells at a time into one scratch block and multiplied there.  A block
        product minus theta is within gamma_(dim+1) (|w|_1 + |theta|) of the
        exact margin, gamma_m = m u / (1 - m u) < (dim+2) u with u = 2^-53, in
        whatever order BLAS adds.  A row whose |margin| is at most twice that,
        2 (dim+2) u (|w|_1 + |theta|), is replaced by the correctly rounded
        exact margin, `math.fsum` over w on its set bits and -theta.  Every
        other row has the exact sign, which is also the sign of any other
        float evaluation within that bound (one gemv over the whole batch, for
        one).  When w is integral and |w|_1 < 2^53, every partial sum of
        <w, x> is an exact integer and the one rounded subtraction of theta
        keeps its sign, so no row is recomputed.
        """
        x = np.asarray(bits)
        if x.ndim == 0 or x.shape[-1] != self.dim:
            raise ValueError(f"expected {self.dim} bits, got shape {x.shape}")
        n = math.prod(x.shape[:-1])
        flat = x.reshape(n, self.dim)
        w = self.weights
        out = np.empty(n)
        step = max(1, _BLOCK_CELLS // max(self.dim, 1))
        block = np.empty((min(step, n), self.dim))
        for lo in range(0, n, step):
            rows = block[: min(step, n - lo)]
            np.copyto(rows, flat[lo : lo + step])
            np.matmul(rows, w, out=out[lo : lo + rows.shape[0]])
        out -= self.theta
        norm = float(np.abs(w).sum())
        if not (norm < 2.0**53 and np.array_equal(w, np.trunc(w))):
            bound = 2 * (self.dim + 2) * 2.0**-53 * (norm + abs(self.theta))
            for i in np.flatnonzero(np.abs(out) <= bound).tolist():
                out[i] = math.fsum(w[np.flatnonzero(flat[i])].tolist() + [-self.theta])
        return out.reshape(x.shape[:-1])[()]

    def evaluate(self, bits: np.ndarray) -> np.ndarray:
        """0/1 prediction(s): 1 iff <w, x> >= theta, decided exactly."""
        m = self.margin(bits)
        return (m >= 0).astype(np.uint8)


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
    position or math.inf when no position qualifies.
    """

    order: np.ndarray
    tail_norms: np.ndarray
    c_tau: float
    tau: float

    @property
    def is_regular(self) -> bool:
        return self.c_tau == 1


def _magnitude_order(w: np.ndarray) -> np.ndarray:
    # stable sort on (-|w|, index): ties broken by ascending original index
    return np.argsort(-np.abs(w), kind="stable")


def _suffix_norms(mags: np.ndarray) -> np.ndarray:
    """Euclidean norm of every suffix, rescaled on the fly.

    Running (scale, sum-of-squares) update in the dnrm2 style, so vectors
    spanning the full float64 magnitude range neither overflow nor underflow.
    """
    n = mags.size
    tails = np.empty(n, dtype=np.float64)
    scale = 0.0
    ssq = 1.0
    for t in range(n - 1, -1, -1):
        x = float(mags[t])
        if x > scale:
            ssq = 1.0 + ssq * (scale / x) ** 2 if scale > 0.0 else 1.0
            scale = x
        elif scale > 0.0:
            ssq += (x / scale) ** 2
        tails[t] = scale * math.sqrt(ssq)
    return tails


def critical_index(w: Sequence[float] | np.ndarray, tau: float) -> CriticalIndexReport:
    """Locate the first sorted position whose magnitude drops to the tau fringe.

    The empty vector and the all-zero vector are regular (c_tau = 1).  The
    report is scale-invariant: both sides of the defining comparison scale
    linearly.
    """
    if not 0 < tau <= 1:
        raise ValueError(f"tau must be in (0, 1], got {tau}")
    arr = np.asarray(w, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError("critical_index expects a one-dimensional vector")
    if arr.size and not np.isfinite(arr).all():
        raise ValueError("weights must be finite")
    order = _magnitude_order(arr)
    mags = np.abs(arr[order])
    tails = _suffix_norms(mags)
    # The running norm may be a few ulps off; within that bound of a tie the
    # comparison is decided on math.hypot of the tail, which is correctly
    # rounded in all but rare cases.
    slack = 4.0 * (arr.size + 4) * np.finfo(np.float64).eps
    fringe = tau * tails
    near = np.abs(mags - fringe) <= slack * np.maximum(mags, fringe)
    c: float = math.inf
    for t in np.flatnonzero((mags <= fringe) | near).tolist():
        if not near[t] or mags[t] <= tau * math.hypot(*mags[t:].tolist()):
            c = t + 1
            break
    if arr.size == 0:
        c = 1.0
    order_ro = order.astype(np.int64)
    order_ro.flags.writeable = False
    tails_ro = tails.copy()
    tails_ro.flags.writeable = False
    return CriticalIndexReport(order=order_ro, tail_norms=tails_ro, c_tau=c, tau=tau)


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
    arr = np.asarray(w, dtype=np.float64)
    if math.isinf(report.c_tau):
        return report.order.copy()
    return report.order[: int(report.c_tau) - 1].copy()


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
    l: int,
    rtol: float = 1e-9,
) -> DecayCheck:
    """Verify the decay chain on the sorted magnitudes when c_tau > l.

    For 1 <= i <= j <= l+1 the chain asserts

        |w_(j)| <= sigma_j <= (1-tau^2)^((j-i)/2) sigma_i,

    and for positions i strictly below the critical index additionally

        sigma_i <= |w_(i)| / tau,

    which gives |w_(j)| <= |w_(i)| / 3 whenever j - i > (4/tau^2) ln(1/tau)
    and tau <= 1/3.  The third link is only guaranteed strictly below the
    critical index; at i equal to the critical index the defining inequality
    points the other way, so it is checked only where it is implied.
    """
    if not 0 < tau <= 1:
        raise ValueError(f"tau must be in (0, 1], got {tau}")
    if l < 0:
        raise ValueError(f"l must be nonnegative, got {l}")
    arr = np.asarray(w, dtype=np.float64)
    report = critical_index(arr, tau)
    if not report.c_tau > l:
        raise ValueError(
            f"precondition failed: critical index {report.c_tau} must exceed l={l}"
        )
    limit = min(l + 1, arr.size)
    mags = np.abs(arr[report.order])
    tails = report.tail_norms
    slack = 1.0 + rtol

    decay = math.sqrt(max(0.0, 1.0 - tau * tau))
    c_strict = arr.size if math.isinf(report.c_tau) else int(report.c_tau) - 1
    third_limit = min(limit, c_strict)

    for j in range(limit):
        if mags[j] > tails[j] * slack:
            return DecayCheck(
                False, f"|w_({j + 1})| = {mags[j]:.6g} exceeds sigma = {tails[j]:.6g}"
            )
    for i in range(limit):
        for j in range(i, limit):
            bound = decay ** (j - i) * tails[i]
            if tails[j] > bound * slack + 1e-300:
                return DecayCheck(
                    False,
                    f"sigma_({j + 1}) = {tails[j]:.6g} exceeds "
                    f"(1-tau^2)^({j - i}/2) * sigma_({i + 1}) = {bound:.6g}",
                )
    for i in range(third_limit):
        if tails[i] * tau > mags[i] * slack:
            return DecayCheck(
                False,
                f"tau * sigma_({i + 1}) = {tau * tails[i]:.6g} exceeds "
                f"|w_({i + 1})| = {mags[i]:.6g} below the critical index",
            )

    if tau <= 1.0 / 3.0:
        stride = (4.0 / (tau * tau)) * math.log(1.0 / tau)
        for i in range(third_limit):
            for j in range(i + 1, limit):
                if (j - i) > stride and mags[j] > (mags[i] / 3.0) * slack:
                    return DecayCheck(
                        False,
                        f"|w_({j + 1})| = {mags[j]:.6g} exceeds |w_({i + 1})|/3 "
                        f"despite a gap of {j - i} > {stride:.3g}",
                    )
    return DecayCheck(True)


# ---------------------------------------------------------------------------
# serialization

_HS_MAGIC = "GLHS-HS"
_HS_VERSION = 1


def write_halfspace(h: Halfspace, path: str) -> None:
    """Versioned text record: order tag, grid shape, theta, weights."""
    lines = [
        f"{_HS_MAGIC} {_HS_VERSION}",
        "order row-major",
        f"rows {h.rows}",
        f"cols {h.cols}",
        f"theta {h.theta!r}",
        "weights " + " ".join(repr(float(v)) for v in h.weights),
        "",
    ]
    with AtomicFile(path) as fh:
        fh.write("\n".join(lines))


def read_halfspace(path: str) -> Halfspace:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
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
        raise FormatError(f"halfspace record {path} lacks {', '.join(missing)}")
    try:
        rows = int(fields["rows"])
        cols = int(fields["cols"])
        theta = float(fields["theta"])
        weights = np.asarray([float(v) for v in fields["weights"].split()])
    except ValueError as exc:
        raise FormatError(f"halfspace record {path}: {exc}") from exc
    if rows < 1 or cols < 1 or weights.size != rows * cols:
        raise FormatError(
            f"weight count {weights.size} does not match {rows}x{cols}"
        )
    return Halfspace.from_grid(weights.reshape(rows, cols), theta)
