"""Labeled-example samplers, the halfspace decoder, and soundness audits.

The central object is a gadget test over a k x R bit grid: draw a uniform
label b, fill the R columns independently from the b-side gadget mixture,
then hit every bit with replacement noise.  Encoding hypotheses (a
dictator-style OR reading one column) accept with probability tracked by an
exact closed form; hypotheses without a dominant shared coordinate provably
hover near 1/2.

Two instance-driven samplers embed that test into projection instances:

* the unique-projection sampler permutes each slot's columns by its
  bijection and pads non-edge vertices with zero blocks (noise lands on x
  before the pullback, and the bit layout matches the plain grid test
  word-for-word given aligned seeds);
* the general sampler copies source column pi(j) into target coordinate j
  and applies independent noise per TARGET coordinate, after the pullback.
  Coordinates sharing a source become almost identical copies, which is
  what its soundness analysis leans on.

Layouts are fixed per example index across four purpose streams (label,
edge, column, noise words), so any chunking of a batch reproduces identical
bytes.  Edge slots scatter in order: when a hyperedge repeats a vertex the
later slot wins.

The decoding direction turns halfspace weights back into vertex labels
(uniform over each block's top-t magnitudes) and audits the quantities the
soundness argument consumes: the weak-satisfaction rate of decoded
labelings and the quartic collision ("niceness") statistic of regular
parts under projections.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    CursorRng,
    PURPOSE_DECODE,
    PURPOSE_EDGE,
    PURPOSE_LABEL,
    PURPOSE_NOISE,
    PURPOSE_X,
    purpose_stream,
    rng_words,
    words_to_uniforms,
)
from .halfspace import (
    Disjunction,
    Halfspace,
    critical_index,
    drop_top,
    top_indices,
    truncate,
)
from .labelcover import LabelCoverInstance, Labeling, weak_mask
from .moments import (
    ColumnMixture,
    exact_moment,
    moment_gap,
    sample_columns_at,
    apply_noise,
)

@dataclass(frozen=True)
class TestSpec:
    """Parameters of the grid test: the gadget pair, arity, width, noise.

    The pair must match moments to degree 4 unless `completeness_only` is
    set (a one-sided pair supports completeness measurements at arities too
    small for any matched pair to exist).
    """

    d0: ColumnMixture
    d1: ColumnMixture
    r: int
    gamma: float
    completeness_only: bool = False

    def __post_init__(self):
        if self.d0.k != self.d1.k:
            raise ValueError(
                f"mixture arities differ: {self.d0.k} vs {self.d1.k}"
            )
        if self.r < 1:
            raise ValueError(f"width must be positive, got {self.r}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"noise rate must be in [0, 1], got {self.gamma}")
        if not self.completeness_only:
            gap = moment_gap(self.d0, self.d1, 4)
            if gap:
                raise ValueError(
                    f"gadget pair mismatches moments up to degree 4 (gap {float(gap):.3g}); "
                    "set completeness_only for one-sided use"
                )

    @property
    def k(self) -> int:
        return self.d0.k

    @property
    def dim(self) -> int:
        return self.k * self.r


@dataclass(frozen=True)
class DecoderSpec:
    """List size, regularity parameter, and trial count for decoding."""

    t: int
    tau: float
    trials: int = 64

    def __post_init__(self):
        if self.t < 1:
            raise ValueError(f"list size must be at least 1, got {self.t}")
        if not 0.0 < self.tau <= 1.0:
            raise ValueError(f"tau must be in (0, 1], got {self.tau}")
        if self.trials < 1:
            raise ValueError(f"trials must be positive, got {self.trials}")


# ---------------------------------------------------------------------------
# samplers


def _labels_for(master_seed: int, stream_id: int, start: int, count: int) -> np.ndarray:
    idx = np.arange(start, start + count, dtype=np.uint64)
    words = rng_words(master_seed, purpose_stream(stream_id, PURPOSE_LABEL), idx)
    return (words & np.uint64(1)).astype(np.uint8)


def _require_edges(num_edges: int, what: str) -> None:
    if num_edges == 0:
        raise ValueError(f"{what} needs an instance with at least one edge")


def _edges_for(
    master_seed: int, stream_id: int, start: int, count: int, num_edges: int
) -> np.ndarray:
    _require_edges(num_edges, "the reduction")
    idx = np.arange(start, start + count, dtype=np.uint64)
    u = words_to_uniforms(
        rng_words(master_seed, purpose_stream(stream_id, PURPOSE_EDGE), idx)
    )
    return np.minimum((u * num_edges).astype(np.int64), num_edges - 1)


def _grid_columns(
    spec: TestSpec,
    labels: np.ndarray,
    width: int,
    master_seed: int,
    stream_id: int,
    start: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """(count, k, width) noiseless grids; example n owns columns n*width ...

    Rows with label 0 draw their columns from d0, rows with label 1 from d1,
    at the same counter addresses either way.  The grids are a view of `out`
    (a C-contiguous (count, k*width) uint8 array, every cell of which they
    fill) when it is given, else a new C-contiguous array.
    """
    count = labels.size
    x_stream = purpose_stream(stream_id, PURPOSE_X)
    base = (
        np.arange(start, start + count, dtype=np.uint64)[:, None] * np.uint64(width)
        + np.arange(width, dtype=np.uint64)[None, :]
    )
    shape = (count, spec.k, width)
    grids = np.empty(shape, np.uint8) if out is None else out.reshape(shape)
    for bit, mixture in ((0, spec.d0), (1, spec.d1)):
        rows = np.flatnonzero(labels == bit)
        if rows.size:
            drawn = sample_columns_at(
                mixture, master_seed, x_stream, base[rows].reshape(-1)
            )
            # through the transposed view the scatter needs no temporary
            grids.transpose(0, 2, 1)[rows] = drawn.reshape(rows.size, width, spec.k)
    return grids


def _zeroed_blocks(out: np.ndarray | None, count: int, vertices: int, width: int) -> np.ndarray:
    """(count, vertices, width) zero vertex blocks: `out` zeroed, or a new array.

    The blocks are a view of `out`, a C-contiguous (count, vertices*width)
    array, so the sampler's bits land in it; another size raises ValueError.
    """
    shape = (count, vertices, width)
    if out is None:
        return np.zeros(shape, dtype=np.uint8)
    blocks = out.reshape(shape)
    blocks.fill(0)
    return blocks


def dict_test_batch(
    spec: TestSpec,
    master_seed: int,
    stream_id: int,
    start: int,
    count: int,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(bits (count, k*r), labels (count,)) for absolute examples start..

    b uniform; columns i.i.d. from the b-side mixture; independent
    replacement noise on every bit.  Grid layout: bit (i, j) of example n is
    bits[n, i*r + j].  The bits are written to `out`, a C-contiguous
    (count, k*r) uint8 array, when it is given, else to a new array.
    """
    if count < 1:
        return np.zeros((0, spec.dim), dtype=np.uint8), np.zeros(0, dtype=np.uint8)
    labels = _labels_for(master_seed, stream_id, start, count)
    grids = _grid_columns(spec, labels, spec.r, master_seed, stream_id, start, out)
    noisy = apply_noise(
        grids.reshape(count, spec.dim),
        spec.gamma,
        master_seed,
        purpose_stream(stream_id, PURPOSE_NOISE),
        start,
    )
    return noisy, labels


def ug_reduce_batch(
    inst: LabelCoverInstance,
    spec: TestSpec,
    master_seed: int,
    stream_id: int,
    start: int,
    count: int,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Unique-instance sampler over |V| x R grids.

    Noise lands on the k x R source grid first (the noisy-mixture power
    distribution); slot i then permutes columns by its bijection:
    target column j copies source column pi^{v_i,e}(j).  Non-edge vertex
    blocks stay zero.  With identity projections the edge rows reproduce
    dict_test_batch byte-for-byte.  The bits are written to `out`, a
    (count, |V|*R) uint8 array, when it is given (see `_zeroed_blocks`).
    """
    if not inst.unique:
        raise ValueError("sampler requires a unique instance (M = N, bijections)")
    if inst.m != spec.r:
        raise ValueError(
            f"instance label count {inst.m} does not match spec width {spec.r}"
        )
    if inst.k != spec.k:
        raise ValueError(
            f"instance arity {inst.k} does not match gadget arity {spec.k}"
        )
    r = spec.r
    labels = _labels_for(master_seed, stream_id, start, count)
    edge_ids = _edges_for(master_seed, stream_id, start, count, inst.num_edges)
    grids = _grid_columns(spec, labels, r, master_seed, stream_id, start)
    noisy = apply_noise(
        grids.reshape(count, spec.k * r),
        spec.gamma,
        master_seed,
        purpose_stream(stream_id, PURPOSE_NOISE),
        start,
    ).reshape(count, spec.k, r)

    blocks = _zeroed_blocks(out, count, inst.num_vertices, r)
    rows = np.arange(count)
    edge_verts = inst.edges[edge_ids]
    for s in range(inst.k):
        proj = inst.projections[edge_ids, s].astype(np.int64)
        pulled = np.take_along_axis(noisy[:, s, :], proj, axis=1)
        blocks[rows, edge_verts[:, s]] = pulled
    return blocks.reshape(count, inst.num_vertices * r), labels


def lc_reduce_batch(
    inst: LabelCoverInstance,
    spec: TestSpec,
    master_seed: int,
    stream_id: int,
    start: int,
    count: int,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """General-instance sampler over |V| x M grids.

    The k x N source grid is drawn noiselessly; slot i's block copies
    source bit pi^{v_i,e}(j) into target coordinate j, and the noise is
    applied per target coordinate after the pullback (coordinates sharing a
    source are almost identical copies, their disagreement probability
    bounded by 2 * gamma * (1 - gamma/2)).  The bits are written to `out`,
    a (count, |V|*M) uint8 array, when it is given (see `_zeroed_blocks`).
    """
    if inst.k != spec.k:
        raise ValueError(
            f"instance arity {inst.k} does not match gadget arity {spec.k}"
        )
    if inst.n != spec.r:
        raise ValueError(
            f"instance inner label count {inst.n} does not match spec width {spec.r}"
        )
    labels = _labels_for(master_seed, stream_id, start, count)
    edge_ids = _edges_for(master_seed, stream_id, start, count, inst.num_edges)
    grids = _grid_columns(spec, labels, inst.n, master_seed, stream_id, start)

    rows = np.arange(count)
    pulled = np.empty((count, inst.k, inst.m), dtype=np.uint8)
    for s in range(inst.k):
        proj = inst.projections[edge_ids, s].astype(np.int64)
        pulled[:, s, :] = np.take_along_axis(grids[:, s, :], proj, axis=1)
    noisy = apply_noise(
        pulled.reshape(count, inst.k * inst.m),
        spec.gamma,
        master_seed,
        purpose_stream(stream_id, PURPOSE_NOISE),
        start,
    ).reshape(count, inst.k, inst.m)

    blocks = _zeroed_blocks(out, count, inst.num_vertices, inst.m)
    edge_verts = inst.edges[edge_ids]
    for s in range(inst.k):
        blocks[rows, edge_verts[:, s]] = noisy[:, s, :]
    return blocks.reshape(count, inst.num_vertices * inst.m), labels


# ---------------------------------------------------------------------------
# closed forms


def or_acceptance_closed_form(spec: TestSpec) -> float:
    """Acceptance of a one-column OR under the grid test, exactly.

    The OR of one column accepts a b=0 example iff the noisy column is all
    zero, and a b=1 example iff it is not:
    1/2 * P0(all zero) + 1/2 * (1 - P1(all zero)).

    The same number is the planted-disjunction acceptance on a strongly
    satisfiable instance with distinct-vertex edges, where the disjunction
    collapses to the OR of the common projected column.
    """
    p0 = spec.d0.noisy(spec.gamma).prob_all_zero()
    p1 = spec.d1.noisy(spec.gamma).prob_all_zero()
    return 0.5 * p0 + 0.5 * (1.0 - p1)


def planted_disjunction(lab: Labeling) -> Disjunction:
    """OR of y_v at each vertex's planted label."""
    return Disjunction(
        literals=frozenset(
            (v, int(lab.assignment[v])) for v in range(lab.num_vertices)
        ),
        rows=lab.num_vertices,
        cols=lab.m,
    )


# ---------------------------------------------------------------------------
# decoding


def decode_labeling(
    h: Halfspace,
    spec: DecoderSpec,
    master_seed: int,
    stream_id: int,
    trial: int = 0,
) -> Labeling:
    """One label per vertex, uniform over the top-t magnitudes of its block.

    All-zero blocks fall back to a uniform label over the whole alphabet.
    Each trial consumes exactly one draw per vertex, so trial n starts at
    cursor n * rows.
    """
    cands = _candidate_table(h, spec.t)
    return _draw_labeling(cands, h.cols, master_seed, stream_id, trial)


def _candidate_table(h: Halfspace, t: int) -> tuple[np.ndarray, np.ndarray]:
    """Candidate labels of every vertex, padded into one table, and their counts."""
    cands = [_candidate_labels(h, t, v) for v in range(h.rows)]
    sizes = np.array([c.size for c in cands], dtype=np.int64)
    table = np.zeros((h.rows, int(sizes.max())), dtype=np.int64)
    for v, c in enumerate(cands):
        table[v, : c.size] = c
    return table, sizes


def _draw_labeling(
    cands: tuple[np.ndarray, np.ndarray],
    m: int,
    master_seed: int,
    stream_id: int,
    trial: int,
) -> Labeling:
    """Vertex v takes entry randint(sizes[v]) of its table row.

    Its draw is word trial * rows + v, with `CursorRng.randint`'s float
    arithmetic, done for all vertices at once (as in `CursorRng.shuffle`).
    """
    table, sizes = cands
    rng = CursorRng(
        master_seed, purpose_stream(stream_id, PURPOSE_DECODE), index=trial * sizes.size
    )
    picks = np.minimum((rng.uniforms(sizes.size) * sizes).astype(np.int64), sizes - 1)
    labels = table[np.arange(sizes.size), picks].astype(np.int32)
    return Labeling(assignment=labels, m=m)


@dataclass(frozen=True)
class DecodeReport:
    weak_rate: float
    trials: int
    edges: int


def weak_sat_rate_of_decoder(
    h: Halfspace,
    spec: DecoderSpec,
    inst: LabelCoverInstance,
    master_seed: int,
    stream_id: int = 0,
) -> DecodeReport:
    """Mean weakly-satisfied fraction over independent decode draws."""
    if h.rows != inst.num_vertices or h.cols != inst.m:
        raise ValueError(
            f"halfspace grid {h.rows}x{h.cols} does not match instance "
            f"{inst.num_vertices}x{inst.m}"
        )
    _require_edges(inst.num_edges, "the decoder's weak-satisfaction rate")
    cands = _candidate_table(h, spec.t)
    total = 0
    for trial in range(spec.trials):
        lab = _draw_labeling(cands, h.cols, master_seed, stream_id, trial)
        total += int(weak_mask(inst, lab).sum())
    n = spec.trials * inst.num_edges
    return DecodeReport(
        weak_rate=total / n,
        trials=spec.trials,
        edges=inst.num_edges,
    )


def _candidate_labels(h: Halfspace, spec_t: int, v: int) -> np.ndarray:
    block = h.block(v)
    if not np.any(block):
        return np.arange(h.cols, dtype=np.int64)
    return top_indices(block, min(spec_t, h.cols))


# ---------------------------------------------------------------------------
# niceness


def collision_mass(parts: np.ndarray, proj: np.ndarray, n: int) -> np.ndarray:
    """Quartic collision mass of each row l of `parts` under its projection row.

    parts and proj are (..., m); the value is
    sum_i (sum_{j in preimage(i)} |l_j|)^4 / ||l||_2^4, and 0 when l = 0.
    The preimage sums add |l_j| in ascending j, as np.bincount does.
    """
    parts = np.asarray(parts, dtype=np.float64)
    proj = np.asarray(proj)
    if proj.shape != parts.shape:
        raise ValueError(
            f"projection shape {proj.shape} does not match weights {parts.shape}"
        )
    m = parts.shape[-1]
    mags = np.abs(parts).reshape(-1, m)
    bins = proj.reshape(-1, m)
    rows = np.arange(mags.shape[0])
    sums = np.zeros((mags.shape[0], n))
    for j in range(m):
        sums[rows, bins[:, j]] += mags[:, j]
    norm2 = np.vecdot(parts, parts).reshape(-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        values = np.sum(sums**4, axis=1) / (norm2 * norm2)
    return np.where(norm2 > 0.0, values, 0.0).reshape(parts.shape[:-1])


def edge_niceness_audit(
    inst: LabelCoverInstance, h: Halfspace, tau: float, beta: float
) -> float:
    """Fraction of edges all of whose slot vertices are beta-nice.

    A slot is beta-nice when the `collision_mass` of its vertex block's
    regular part (the block with its regularizing prefix zeroed) under the
    slot's projection row is at most beta.  One critical_index call covers
    every vertex block.
    """
    if h.rows != inst.num_vertices or h.cols != inst.m:
        raise ValueError(
            f"halfspace grid {h.rows}x{h.cols} does not match instance "
            f"{inst.num_vertices}x{inst.m}"
        )
    _require_edges(inst.num_edges, "the niceness audit")
    grid = h.grid()
    report = critical_index(grid, tau)
    parts = drop_top(grid, report.order, report.prefix_size)
    values = collision_mass(parts[inst.edges], inst.projections, inst.n)
    nice = ~(values > beta).any(axis=1)
    return int(nice.sum()) / inst.num_edges


def non_nice_bound(k: int, d: int, j: float) -> float:
    """k * d^16 / J: the audited ceiling on the non-nice edge fraction."""
    return k * float(d) ** 16 / j


# ---------------------------------------------------------------------------
# truncation stability


def edge_incidence_fraction(inst: LabelCoverInstance, v: int) -> float:
    """Fraction of edges containing vertex v at least once."""
    return float((inst.edges == v).any(axis=1).mean())


def truncation_shift(
    h: Halfspace,
    vertex: int,
    t: int,
    inst: LabelCoverInstance,
    spec: TestSpec,
) -> tuple[Halfspace, float]:
    """Replace one vertex block by its top-t truncation, shifting the threshold.

    The dropped tail a contributes E[<a, y_v> | b=0] to every margin on
    average; subtracting that mean from theta recenters the truncated
    halfspace.  The closed form uses E[y | b=0, v on edge] = (1-gamma) * m1
    + gamma/2 per coordinate (m1 the degree-1 gadget moment) times the
    fraction of edges covering v; it matches the per-edge recentering
    exactly when every edge covers v.
    """
    if not 0 <= vertex < h.rows:
        raise IndexError(f"vertex {vertex} out of range [0, {h.rows})")
    block = h.block(vertex)
    keep = top_indices(block, min(t, h.cols))
    kept = truncate(block, keep)
    dropped = block - kept
    grid = h.grid().copy()
    grid[vertex] = kept
    m1 = float(exact_moment(spec.d0, [0]))
    per_coord = (1.0 - spec.gamma) * m1 + spec.gamma / 2.0
    shift = edge_incidence_fraction(inst, vertex) * per_coord * float(dropped.sum())
    return Halfspace.from_grid(grid, h.theta - shift), shift
