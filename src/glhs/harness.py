"""Hypothesis evaluation, a perceptron probe, and the grid-test experiment.

Examples are one batch form throughout: a uint8 bit matrix (n, rows*cols)
and a uint8 label vector (n,).  Both consumers of examples take an
iterable of such batches, so a stream is read chunk by chunk
(`StreamReader.read_batches`), and the samplers draw `chunk_rows` rows
(2^22 bit cells) at a time: no step holds a whole unpacked stream.  The
perceptron, which holds its examples packed, takes a stream's packed
records as stored (`StreamReader.read_records`) instead.

`agreement` counts exact matches between each of its hypotheses and the
batches, in one pass, and reports each one's rate plus the conditional
means E[h | b] whose balanced combination obeys the half-plus-half-gap
identity.
`perceptron_train` is a deterministic averaged-perceptron probe: the
hardness construction predicts that no efficient learner beats the trivial
rate by much on sound instances, so its results are reported comparatively
rather than asserted against theory constants.  It holds the examples
packed eight bits per byte; while mistakes are rare it scans ahead, summing
the weights over each row's set bits to find the next mistake, and it
updates only the coordinates a row sets.  Every decision and every weight
is bit-identical to the plain per-example loop over float rows (see its
docstring).

`run_experiment` executes the plans of the dictatorship test, completeness
(the dictator OR against its closed form) and soundness (the majority
probe's gap), on one draw of grid samples, `chunk_rows` at a time: each
chunk is drawn once and evaluated under both hypotheses by one `agreement`
pass.  It emits one CheckRecord per check; records serialize to single
tab-separated text lines so report files can be folded by concatenation.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence, Union

import numpy as np

from .core import (
    CursorRng,
    FormatError,
    PURPOSE_LEARN,
    StreamWriter,
    chunk_rows,
    purpose_stream,
)
from .halfspace import Disjunction, Halfspace, rounding_bound
from .labelcover import LabelCoverInstance
from .moments import ColumnMixture, column_sum_pmf
from .reduction import (
    TestSpec,
    dict_test_batch,
    lc_reduce_batch,
    or_acceptance_closed_form,
    ug_reduce_batch,
)
from .stats import binomial_sigma

Hypothesis = Union[Halfspace, Disjunction]
Batch = tuple[np.ndarray, np.ndarray]  # bits (n, dim) uint8, labels (n,) uint8

SIGMA_RULE = 4.0  # experiment tolerances are this many binomial sigmas


def hypothesis_id(h: Hypothesis) -> str:
    """Stable short identifier: kind, grid shape, content digest."""
    digest = hashlib.blake2b(digest_size=6)
    if isinstance(h, Halfspace):
        kind = "halfspace"
        digest.update(np.ascontiguousarray(h.weights).tobytes())
        digest.update(repr(h.theta).encode())
    else:
        kind = "disjunction"
        digest.update(repr(sorted(h.literals)).encode())
    return f"{kind}-{h.rows}x{h.cols}-{digest.hexdigest()}"


# ---------------------------------------------------------------------------
# agreement


@dataclass(frozen=True)
class AgreementReport:
    """Exact agreement count of a hypothesis against a labeled sample set.

    `rate` is matches/count.  The conditional means split by label:
    cond_mean1 = E[h | b=1], cond_mean0 = E[h | b=0].  The balanced
    acceptance 1/2 + (cond_mean1 - cond_mean0)/2 weighs both labels equally
    and is what the closed forms predict; it equals `rate` exactly when the
    label counts are equal.
    """

    hypothesis: str
    count: int
    matches: int
    n1: int
    hits1: int

    def __post_init__(self):
        if not 0 <= self.matches <= self.count:
            raise ValueError("match count out of range")

    @property
    def n0(self) -> int:
        return self.count - self.n1

    @property
    def hits0(self) -> int:
        # h=1 answers among b=0 examples: those b=0 examples NOT matched
        return self.n0 - (self.matches - (self.hits1))

    @property
    def rate(self) -> float:
        return self.matches / self.count

    @property
    def cond_mean1(self) -> float:
        """E[h | b=1]; 0 when no b=1 examples were seen."""
        return self.hits1 / self.n1 if self.n1 else 0.0

    @property
    def cond_mean0(self) -> float:
        """E[h | b=0]; 0 when no b=0 examples were seen."""
        return self.hits0 / self.n0 if self.n0 else 0.0

    @property
    def gap(self) -> float:
        return self.cond_mean1 - self.cond_mean0

    @property
    def balanced_acceptance(self) -> float:
        return 0.5 + 0.5 * self.gap

    def identity_residual(self) -> float:
        """|balanced acceptance - (1/2 + gap/2)| recomputed from raw counts.

        Always tiny (two float evaluations of one algebraic identity); kept
        as an explicit audit so every experiment can record it.
        """
        lhs = 0.0
        if self.n1:
            lhs += 0.5 * (self.hits1 / self.n1)
        if self.n0:
            lhs += 0.5 * (1.0 - self.hits0 / self.n0)
        else:
            lhs += 0.5
        return abs(lhs - self.balanced_acceptance)


def agreement(
    hypotheses: Sequence[Hypothesis], batches: Iterable[Batch]
) -> list[AgreementReport]:
    """Exact agreement of each hypothesis over every example of every batch.

    One pass over `batches` serves them all: each batch is evaluated under
    every hypothesis before the next is drawn.  Returns one report per
    hypothesis, in order; ``[rep] = agreement([h], batches)`` for one.
    """
    tallies = [[0, 0] for _ in hypotheses]  # matches, hits1
    count = n1 = 0
    for bits, labels in batches:
        count += labels.size
        ones = labels == 1
        n1 += int(ones.sum())
        for h, tally in zip(hypotheses, tallies):
            if bits.shape[1] != h.dim:
                raise ValueError(
                    f"hypothesis reads {h.dim} bits but examples carry {bits.shape[1]}"
                )
            preds = h.evaluate(bits)
            tally[0] += int((preds == labels).sum())
            tally[1] += int(preds[ones].sum())
        del bits  # before the next batch is made
    if count == 0:
        raise ValueError("no examples to evaluate")
    return [
        AgreementReport(
            hypothesis=hypothesis_id(h), count=count, matches=matches, n1=n1, hits1=hits1
        )
        for h, (matches, hits1) in zip(hypotheses, tallies)
    ]


def negated_rate(report: AgreementReport) -> float:
    """Agreement rate the pointwise negation would have scored."""
    return (report.count - report.matches) / report.count


# ---------------------------------------------------------------------------
# perceptron probe


@dataclass(frozen=True)
class LearnerConfig:
    """Averaged-perceptron settings; training order is fixed by the seed."""

    epochs: int = 5
    rate: float = 1.0
    schedule: str = "constant"
    shuffle_seed: int = 0
    averaged: bool = True

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be at least 1, got {self.epochs}")
        if not self.rate > 0.0:
            raise ValueError(f"learning rate must be positive, got {self.rate}")
        if self.schedule not in ("constant", "inverse"):
            raise ValueError(
                f"schedule must be 'constant' or 'inverse', got {self.schedule!r}"
            )


# Scan-ahead walk of `perceptron_train`.  Stretches where mistakes come
# closer together than _SCAN_MIN_RUN steps run one example at a time,
# _STEP_WINDOW rows per window.  A scan covers at most _SCAN_MAX rows, and at
# most _BLOCK_CELLS index cells.  Measured on a 2-core Xeon, 12 epochs over
# 20000 rows of 96 bits (up to 90 set) and of 3200 bits (up to 41 set):
# training time is flat (within noise) over _SCAN_MIN_RUN 4-32,
# _STEP_WINDOW 64-128 and _SCAN_MAX 512-8192 on both; on the 96-bit rows a
# 32-row window is ~10% slower and a 16-row one ~40%, and on the 3200-bit
# rows a 256-row window is ~2.5-2.8x slower.
_SCAN_MIN_RUN = 8
_SCAN_MAX = 2048
_STEP_WINDOW = 64
_BLOCK_CELLS = 1 << 18

# row b holds the eight bits of byte value b as floats, least significant first
_BYTE_FLOATS = np.unpackbits(
    np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little"
).astype(np.float64)


def _float_rows(packed: np.ndarray, dim: int, out: np.ndarray) -> np.ndarray:
    """The float64 (m, dim) rows of m packed bit rows, one table lookup per byte.

    `out` is a (>= m, bytes, 8) float64 buffer the lookup writes to (with
    mode "clip", which no byte index reaches, `take` writes it directly
    rather than through a temporary).  The result is C-contiguous and equal
    to ``bits.astype(np.float64)`` of the unpacked rows.
    """
    m = packed.shape[0]
    x = np.take(_BYTE_FLOATS, packed, axis=0, out=out[:m], mode="clip").reshape(m, -1)
    return x if x.shape[1] == dim else np.ascontiguousarray(x[:, :dim])


def _active_indices(packed: np.ndarray, dim: int) -> np.ndarray:
    """(n, width) columns of each row's set bits, ascending, padded with dim.

    `packed` holds the rows eight bits per byte, least significant first.
    width is the largest row count of set bits (at least 1), and the index
    type is the narrowest unsigned one that holds dim, so the matrix never
    outweighs the float copy it replaces.  Rows are indexed _BLOCK_CELLS
    bits at a time, which keeps the temporaries that size; within a block
    only the nonzero bytes are unpacked.
    """
    n, nbytes = packed.shape
    step = max(1, _BLOCK_CELLS // max(8 * nbytes, 1))
    counts = np.zeros(n, dtype=np.intp)
    for lo in range(0, n, step):
        counts[lo : lo + step] = np.bitwise_count(packed[lo : lo + step]).sum(axis=1)
    width = max(int(counts.max(initial=0)), 1)
    active = np.full((n, width), dim, dtype=np.min_scalar_type(dim))
    for lo in range(0, n, step):
        flat = np.ascontiguousarray(packed[lo : lo + step]).reshape(-1)
        nonzero = np.flatnonzero(flat)
        byte, bit = np.nonzero(
            np.unpackbits(flat[nonzero][:, None], axis=1, bitorder="little")
        )
        row, col = np.divmod(nonzero[byte], nbytes)
        c = counts[lo : lo + step]
        active[lo + row, np.arange(byte.size) - (np.cumsum(c) - c)[row]] = col * 8 + bit
    return active


def perceptron_train(
    records: tuple[np.ndarray, np.ndarray],
    cfg: LearnerConfig,
    rows: int,
    cols: int,
) -> Halfspace:
    """Train a rows x cols halfspace on {0,1} features, bias folded into theta.

    `records` is (packed, labels), as `StreamReader.read_records` returns a
    stream's: packed (n, bytes) uint8 holds each example's rows*cols bits
    eight per byte, least significant first, with its pad bits clear, and
    labels (n,) holds its label, 0 or 1.

    Mistake-driven updates on the +-1 margin, visiting examples in an order
    reshuffled each epoch from cfg.shuffle_seed.  With `averaged` the
    returned weights are the average over all per-step states (computed via
    the weighted-update identity, so only mistakes touch the accumulators).

    The examples stay packed, an eighth of the unpacked bit matrix, and no
    float copy of them is made.
    A step decides by the sign of ``x @ w + bias`` (ties count as +1) for its
    float row x: one BLAS dot per row, the same routine as ``x.dot(w)``.  The
    walk goes through each epoch's order in windows and reaches the same
    decisions with less work, in one of two modes picked by the distance
    between the last two mistakes:

    - Scan (mistakes _SCAN_MIN_RUN or more steps apart): the margins of the
      next rows under the current weights come from one gather-and-sum of w
      over each row's set bits (`_active_indices`, built at the first scan);
      the walk jumps to the first mistake and updates there.  With integer
      weights (an integer rate and the constant schedule) every partial sum
      of both the scan and the dot is an exact integer, so the two margins
      are equal.  Otherwise each is within gamma_(dim+1) * (|w|_1 + |bias|)
      of the exact margin, gamma_m = m u / (1 - m u) < (dim+2) u with
      u = 2^-53, in whatever order it adds.  A row whose scanned |margin| is
      at most 2 (dim+2) u (|w|_1 + |bias|) is therefore decided by its own
      dot, one row at a time (a batched ``rows @ w`` is a gemv, which adds in
      another order); on every other row both signs agree.
    - Step (mistakes closer together): per-example steps on the float rows
      of the next _STEP_WINDOW rows, built for that window only
      (`_float_rows`).  While the weights are integral, every update to u is
      an integer and |u| <= rate * total * (total + 1) / 2 for
      total = n * epochs; where that bound is at most 2^53, every partial
      sum of u's updates is an exact integer in any order, so a window
      adds them to u at once, the product ``coef @ x`` of its float rows x
      and coef, step * delta at each mistake and zero elsewhere.  Otherwise
      u takes each mistake's update in turn.

    An update adds delta = eta * label to w and step * delta to u.  The scan
    adds them on the row's set bits only: the dense update adds a signed zero
    elsewhere, which changes no entry because w and u never hold -0.0, so the
    weights are the same floats either way and so is the averaging identity.
    """
    packed, labels = records
    dim = rows * cols
    nbytes = (dim + 7) // 8
    if packed.ndim != 2 or packed.shape[1] != nbytes or labels.shape != packed.shape[:1]:
        raise ValueError(f"a {rows}x{cols} grid needs {nbytes}-byte rows, one label each")
    if labels.size == 0:
        raise ValueError("no training examples")
    if labels.max() > 1:
        raise ValueError("training labels must be 0 or 1")
    if dim % 8 and (packed[:, -1] >> dim % 8).any():
        raise ValueError(f"a row sets a pad bit past its {dim} bits")
    n = labels.size
    positive = labels == 1
    t = (labels.astype(np.float64) * 2.0 - 1.0).tolist()
    active = None  # built at the first scan
    rows_buf = np.empty((_STEP_WINDOW, packed.shape[1], 8))  # one window's float rows
    coef = np.zeros(_STEP_WINDOW)  # one window's u coefficients, zero off its mistakes

    # slot dim is the target of the index padding and is kept at zero
    w_pad = np.zeros(dim + 1)
    u_pad = np.zeros(dim + 1)
    w, u = w_pad[:dim], u_pad[:dim]
    bias = 0.0
    u_bias = 0.0
    rng = CursorRng(cfg.shuffle_seed, purpose_stream(0, PURPOSE_LEARN))
    total = n * cfg.epochs
    # |u| <= rate * (1 + ... + total): while that is at most 2^53, every sum
    # of integral updates is an exact integer, whatever order it adds in
    exact_u = Fraction(cfg.rate) * total * (total + 1) <= 2**54
    integral = True
    run = 0  # steps from one mistake to the next, as last observed
    for epoch in range(cfg.epochs):
        order = np.asarray(rng.shuffle(list(range(n))))
        eta = cfg.rate if cfg.schedule == "constant" else cfg.rate / (epoch + 1)
        integral = integral and float(eta).is_integer()
        windowed = integral and exact_u
        first = epoch * n + 1  # step number of order[0]
        p = 0
        clean = 0  # rows scanned since the last mistake
        while p < n:
            if run < _SCAN_MIN_RUN:
                window = order[p : p + _STEP_WINDOW]
                x = _float_rows(packed[window], dim, rows_buf)
                mistakes = 0
                for j, (i, xi) in enumerate(zip(window.tolist(), x)):
                    margin = xi.dot(w) + bias
                    if (1.0 if margin >= 0.0 else -1.0) != t[i]:
                        delta = eta * t[i]
                        step = first + p + j
                        if delta == 1.0:
                            w += xi
                        elif delta == -1.0:
                            w -= xi
                        else:
                            w += delta * xi
                        bias += delta
                        if windowed:
                            coef[j] = step * delta
                        else:
                            u += (step * delta) * xi
                        u_bias += step * delta
                        mistakes += 1
                if windowed and mistakes:
                    u += coef[: window.size] @ x
                    coef.fill(0.0)
                p += window.size
                run = window.size // (mistakes + 1)
                continue

            if active is None:
                active = _active_indices(packed, dim)
                scan_rows = max(1, _BLOCK_CELLS // active.shape[1])
            window = order[p : p + min(2 * run, _SCAN_MAX, scan_rows)]
            margins = w_pad[active[window]].sum(axis=1)
            margins += bias
            suspect = (margins >= 0.0) != positive[window]
            norm = float(np.abs(w).sum()) + abs(bias)
            unsure = None
            if not (integral and norm <= 2.0**53):
                unsure = np.abs(margins) <= rounding_bound(dim, norm)
                suspect |= unsure
            j = -1  # the first mistake in the window
            for c in np.flatnonzero(suspect).tolist():
                if unsure is not None and unsure[c]:
                    i = int(window[c])
                    margin = _float_rows(packed[i : i + 1], dim, rows_buf)[0].dot(w) + bias
                    if (1.0 if margin >= 0.0 else -1.0) == t[i]:
                        continue
                j = c
                break
            if j < 0:
                p += window.size
                clean += window.size
                run = max(run, clean)
                continue
            i = int(window[j])
            step = first + p + j
            delta = eta * t[i]
            w_pad[active[i]] += delta
            u_pad[active[i]] += step * delta
            w_pad[dim] = u_pad[dim] = 0.0
            bias += delta
            u_bias += step * delta
            p += j + 1
            run, clean = clean + j + 1, 0
    if cfg.averaged:
        w = w * ((total + 1) / total) - u / total
        bias = bias * ((total + 1) / total) - u_bias / total
    return Halfspace.from_grid(w.reshape(rows, cols), -bias)


# ---------------------------------------------------------------------------
# majority-statistic closed forms


def matrix_sum_pmf(dist: ColumnMixture, r: int) -> np.ndarray:
    """PMF of the total bit count over r i.i.d. columns (length r*k + 1)."""
    if r < 1:
        raise ValueError(f"column count must be positive, got {r}")
    base = column_sum_pmf(dist)
    acc = None
    power = base
    exp = r
    while exp:
        if exp & 1:
            acc = power if acc is None else np.convolve(acc, power)
        exp >>= 1
        if exp:
            power = np.convolve(power, power)
    return acc


def majority_threshold(spec: TestSpec) -> tuple[int, float]:
    """Integer threshold maximizing the exact majority acceptance.

    The majority halfspace accepts iff the total bit count reaches theta;
    acceptance = 1/2 + (P1[S >= theta] - P0[S >= theta])/2, maximized over
    integer thresholds (the Kolmogorov point of the two sum laws).
    """
    pmf0 = matrix_sum_pmf(spec.d0.noisy(spec.gamma), spec.r)
    pmf1 = matrix_sum_pmf(spec.d1.noisy(spec.gamma), spec.r)
    # tail[t] = P[S >= t] for t = 0 .. r*k + 1
    tail0 = np.concatenate([np.cumsum(pmf0[::-1])[::-1], [0.0]])
    tail1 = np.concatenate([np.cumsum(pmf1[::-1])[::-1], [0.0]])
    diff = tail1 - tail0
    theta = int(np.argmax(diff))
    return theta, 0.5 + 0.5 * float(diff[theta])


def exact_majority_gap(spec: TestSpec) -> float:
    """max over thresholds of |E[h | b=1] - E[h | b=0]| for majority h."""
    theta, acc = majority_threshold(spec)
    del theta
    return 2.0 * acc - 1.0


def majority_halfspace(spec: TestSpec, theta: int | None = None) -> Halfspace:
    """All-ones weights over the k x r grid at the optimal integer threshold."""
    if theta is None:
        theta, _ = majority_threshold(spec)
    return Halfspace.from_grid(np.ones((spec.k, spec.r)), float(theta))


def linear_statistic_gap_exact(spec: TestSpec, coeffs: Sequence[float]) -> Fraction:
    """E[sum c_i y_i | b=1] - E[... | b=0], exactly zero for matched pairs.

    Degree-1 noisy moments agree coordinate-wise whenever the base pair
    matches first moments, so the difference is coeff-sum times an exact
    zero.
    """
    m1 = spec.d1.noisy(spec.gamma).moment_of_size(1)
    m0 = spec.d0.noisy(spec.gamma).moment_of_size(1)
    total = Fraction(0)
    for c in coeffs:
        total += Fraction(str(float(c)))
    return total * (m1 - m0)


def centered_threshold(spec: TestSpec, weights: np.ndarray) -> float:
    """theta equal to the common expected margin (same under both labels)."""
    base = float(spec.d0.noisy(spec.gamma).moment_of_size(1))
    return float(np.sum(weights)) * base


# ---------------------------------------------------------------------------
# stream generation


def _spec_meta(spec: TestSpec, kind: str, master_seed: int, stream_id: int) -> str:
    parts = [
        f"kind={kind}",
        f"k={spec.k}",
        f"r={spec.r}",
        f"gamma={spec.gamma!r}",
        f"seed={master_seed}",
        f"stream={stream_id}",
    ]
    return " ".join(parts)


def write_dict_test_stream(
    path: str,
    spec: TestSpec,
    count: int,
    master_seed: int,
    stream_id: int = 0,
    extra_meta: str = "",
) -> None:
    """Write `count` grid-test examples to `path`, `chunk_rows` at a time.

    Every chunk is drawn into one buffer the writer owns, so a batch handed
    to `append_batch` is valid only until the next chunk is drawn.
    """
    meta = _spec_meta(spec, "dict-test", master_seed, stream_id)
    if extra_meta:
        meta += " " + extra_meta
    step = chunk_rows(spec.dim)
    buf = np.empty((min(step, count), spec.dim), dtype=np.uint8)
    with StreamWriter(path, spec.k, spec.r, meta=meta) as writer:
        for start in range(0, count, step):
            n = min(step, count - start)
            writer.append_batch(
                *dict_test_batch(spec, master_seed, stream_id, start, n, out=buf[:n])
            )


def write_reduction_stream(
    path: str,
    inst: LabelCoverInstance,
    spec: TestSpec,
    count: int,
    master_seed: int,
    stream_id: int = 0,
    extra_meta: str = "",
) -> None:
    """Write `count` reduction examples of `inst` to `path`, `chunk_rows` at a time.

    Unique instances use the permuted-grid sampler, general ones the
    per-target-noise sampler; the meta line records which.  As in
    `write_dict_test_stream`, every chunk is drawn into one buffer the
    writer owns, valid in `append_batch` only until the next chunk.
    """
    if inst.unique:
        sampler, kind, cols = ug_reduce_batch, "ug-reduce", inst.m
    else:
        sampler, kind, cols = lc_reduce_batch, "lc-reduce", inst.m
    meta = _spec_meta(spec, kind, master_seed, stream_id) + (
        f" vertices={inst.num_vertices} edges={inst.num_edges} m={inst.m} n={inst.n}"
    )
    if extra_meta:
        meta += " " + extra_meta
    step = chunk_rows(inst.num_vertices * cols)
    buf = np.empty((min(step, count), inst.num_vertices * cols), dtype=np.uint8)
    with StreamWriter(path, inst.num_vertices, cols, meta=meta) as writer:
        for start in range(0, count, step):
            n = min(step, count - start)
            writer.append_batch(
                *sampler(inst, spec, master_seed, stream_id, start, n, out=buf[:n])
            )


# ---------------------------------------------------------------------------
# report records


@dataclass(frozen=True)
class CheckRecord:
    """One verified (or reported) quantity: id, params, statistic, verdict."""

    check_id: str
    params: tuple[tuple[str, str], ...]
    statistic: float
    target: str
    status: str

    def __post_init__(self):
        if self.status not in ("pass", "fail", "exploratory"):
            raise ValueError(f"unknown record status {self.status!r}")

    @property
    def passed(self) -> bool:
        return self.status != "fail"

    def line(self) -> str:
        params = ",".join(f"{k}={v}" for k, v in self.params)
        return "\t".join(
            ["check", self.check_id, params, repr(self.statistic), self.target, self.status]
        )


def make_record(
    check_id: str,
    params: dict,
    statistic: float,
    target: str,
    ok: bool | None,
) -> CheckRecord:
    """ok=None marks the record exploratory (reported, not asserted)."""
    status = "exploratory" if ok is None else ("pass" if ok else "fail")
    return CheckRecord(
        check_id=check_id,
        params=tuple((str(k), str(v)) for k, v in params.items()),
        statistic=float(statistic),
        target=target,
        status=status,
    )


def parse_record(line: str) -> CheckRecord:
    fields = line.rstrip("\n").split("\t")
    if len(fields) != 6 or fields[0] != "check":
        raise ValueError(f"not a check record: {line!r}")
    _, check_id, params_text, stat_text, target, status = fields
    params = []
    for item in filter(None, params_text.split(",")):
        key, sep, value = item.partition("=")
        if not sep:
            raise ValueError(f"params item {item!r} has no '='")
        params.append((key, value))
    return CheckRecord(
        check_id=check_id,
        params=tuple(params),
        statistic=float(stat_text),
        target=target,
        status=status,
    )


def read_records(path: str) -> list[CheckRecord]:
    """Parse check lines; blank lines and '#' comments (config echoes) skip.

    A malformed line raises FormatError naming the file and the line.
    """
    records = []
    lineno = 0
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                if line.strip() and not line.startswith("#"):
                    records.append(parse_record(line))
    except UnicodeDecodeError as exc:
        raise FormatError(f"record file {path} is not UTF-8 text: {exc}") from None
    except ValueError as exc:
        raise FormatError(f"record file {path}, line {lineno}: {exc}") from None
    return records


@dataclass(frozen=True)
class ReportSummary:
    total: int
    passed: int
    failed: int
    exploratory: int

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def line(self) -> str:
        verdict = "OK" if self.ok else "FAIL"
        return (
            f"summary\ttotal={self.total}\tpass={self.passed}"
            f"\tfail={self.failed}\texploratory={self.exploratory}\t{verdict}"
        )


def summarize_records(records: Iterable[CheckRecord]) -> ReportSummary:
    total = passed = failed = exploratory = 0
    for rec in records:
        total += 1
        if rec.status == "pass":
            passed += 1
        elif rec.status == "fail":
            failed += 1
        else:
            exploratory += 1
    return ReportSummary(total, passed, failed, exploratory)


def fold_record_files(paths: Sequence[str]) -> tuple[list[CheckRecord], ReportSummary]:
    records: list[CheckRecord] = []
    for path in paths:
        records.extend(read_records(path))
    return records, summarize_records(records)


# ---------------------------------------------------------------------------
# experiment plans


@dataclass(frozen=True)
class ExperimentPlan:
    """One check of the dictatorship test on `samples` grid examples.

    kinds: 'completeness' (the dictator OR against its closed form, plus a
    floor on its agreement when `threshold` is set) and 'soundness' (the
    majority probe's gap, asserted against `threshold` when it is set).
    """

    kind: str
    spec: TestSpec
    samples: int
    master_seed: int
    threshold: float | None = None

    def __post_init__(self):
        if self.kind not in ("completeness", "soundness"):
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        if self.samples < 1:
            raise ValueError("sample count must be positive")


def _plan_params(plan: ExperimentPlan, **extra) -> dict:
    params = {
        "k": plan.spec.k,
        "r": plan.spec.r,
        "gamma": f"{plan.spec.gamma:.3g}",
        "n": plan.samples,
        "seed": plan.master_seed,
    }
    params.update(extra)
    return params


def _plan_batches(plan: ExperimentPlan) -> Iterator[Batch]:
    """The plan's examples, drawn `chunk_rows` at a time."""
    step = chunk_rows(plan.spec.dim)
    for start in range(0, plan.samples, step):
        n = min(step, plan.samples - start)
        yield dict_test_batch(plan.spec, plan.master_seed, 0, start, n)


def _identity_record(plan: ExperimentPlan, rep: AgreementReport, tag: str) -> CheckRecord:
    residual = rep.identity_residual()
    return make_record(
        f"{tag}.balance-identity",
        _plan_params(plan),
        residual,
        "<= 1e-12",
        residual <= 1e-12,
    )


def _plan_records(plan: ExperimentPlan, rep: AgreementReport) -> list[CheckRecord]:
    """A plan's check records, from its hypothesis's agreement report."""
    if plan.kind == "completeness":
        predicted = or_acceptance_closed_form(plan.spec)
        sigma = binomial_sigma(predicted, rep.count)
        tol = SIGMA_RULE * sigma + SIGMA_RULE / rep.count
        records = [
            make_record(
                "completeness.acceptance",
                _plan_params(plan, predicted=f"{predicted:.6f}"),
                rep.balanced_acceptance,
                f"within {tol:.2e} of {predicted:.6f}",
                abs(rep.balanced_acceptance - predicted) <= tol,
            ),
            _identity_record(plan, rep, "completeness"),
        ]
        if plan.threshold is not None:
            records.append(
                make_record(
                    "completeness.floor",
                    _plan_params(plan),
                    rep.rate,
                    f">= {plan.threshold!r}",
                    rep.rate >= plan.threshold,
                )
            )
        return records

    # conditional means each carry ~ sqrt(1/4 / (n/2)) noise; their
    # difference carries twice the pooled binomial sigma
    gap_sigma = 2.0 * binomial_sigma(0.5, rep.count)
    asserted = plan.threshold is not None
    return [
        make_record(
            "soundness.majority.gap",
            _plan_params(plan, hyp=rep.hypothesis),
            abs(rep.gap),
            (
                f"<= {plan.threshold!r} + {SIGMA_RULE}*sigma({gap_sigma:.2e})"
                if asserted
                else "reported"
            ),
            abs(rep.gap) <= plan.threshold + SIGMA_RULE * gap_sigma if asserted else None,
        ),
        _identity_record(plan, rep, "soundness.majority"),
    ]


def run_experiment(*plans: ExperimentPlan) -> list[CheckRecord]:
    """The records of the plans of one dictatorship test, in plan order.

    The plans share one spec, sample count and seed, so they read the same
    examples: those are drawn once, `chunk_rows` at a time, and every chunk
    is evaluated under each plan's hypothesis (the dictator OR for
    completeness, the majority halfspace for soundness) before the next.
    """
    if not plans:
        raise ValueError("no experiment plans")
    first = plans[0]
    if any(
        (plan.spec, plan.samples, plan.master_seed)
        != (first.spec, first.samples, first.master_seed)
        for plan in plans
    ):
        raise ValueError("the plans of one experiment must share spec, samples and seed")
    k, r = first.spec.k, first.spec.r
    hypotheses = [
        Disjunction(literals=frozenset((i, 0) for i in range(k)), rows=k, cols=r)
        if plan.kind == "completeness"
        else majority_halfspace(plan.spec)
        for plan in plans
    ]
    reports = agreement(hypotheses, _plan_batches(first))
    return [rec for plan, rep in zip(plans, reports) for rec in _plan_records(plan, rep)]
