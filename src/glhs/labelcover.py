"""k-ary projection-constraint instances: model, generators, audits, files.

An instance is a k-uniform multi-hypergraph whose edges are ordered vertex
tuples; each (edge, slot) carries a total projection [M] -> [N].  A labeling
strongly satisfies an edge when every slot projects its vertex's label to
one common value, and weakly satisfies it when some two slots holding
DISTINCT vertices agree.

Planted generators return (instance, labeling) pairs whose labeling strongly
satisfies every edge by construction; the smooth construction expands a
W-regular bipartite instance into all ordered k-tuples of each W-vertex's
neighborhood, inheriting the bipartite projections.  Audits measure the two
structural quantities the downstream soundness analysis consumes: the
smoothness collision rate max_{i != j} Pr_e[pi(i) = pi(j)] at a vertex, and
the largest projection preimage.

Everything is deterministic given the generator seed, and instances
round-trip losslessly through a line-oriented text format.

The generators' output bytes are fixed by the words they read from stream 0
of the seed, in this order, each word w used as randint(n) = min(int(u * n),
n - 1) with u = uniform(w):

- one word per vertex: its planted label;
- then per edge: k words for a partial Fisher-Yates draw of its k distinct
  vertices (step i takes i + randint(V - i)), 1 word for the common target,
  and per slot the swaps i = L-1, ..., 1 of a Fisher-Yates shuffle of its
  L-entry slot list, one word each (j = randint(i + 1)).  L is d n - 1 for
  a projection slot (the target d - 1 times, each other value d times, in
  ascending order) and r for a unique slot (0, ..., r - 1).

`gen_planted_bipartite` reads as `gen_planted_projection` does, with
W-vertices for edges and the degree for k.  The draws run for all edges at
once as array code.

`read_instance` parses the `e` and `p` blocks in one numeric pass each when
every line is exactly in writer form, the `p` lines come in writer order
and their values are in range.  Any other block goes through the
line-by-line parser, so the fast path changes no result and no diagnostic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import AtomicFile, CursorRng, GuardError

SMOOTH_PAIR_GUARD_M = 512
SMOOTH_EDGE_GUARD = 1_000_000

_LC_MAGIC = "GLHS-LC"
_LC_VERSION = 1
_LAB_MAGIC = "GLHS-LAB"
_LAB_VERSION = 1


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _int32_below(values, bound: int, message: str) -> np.ndarray:
    """values as a contiguous int32 array, each checked to lie in [0, bound).

    The check runs before the cast, which would wrap larger values.
    """
    arr = np.asarray(values)
    bound = min(bound, int(np.iinfo(np.int32).max) + 1)
    if arr.size and not (arr.min() >= 0 and arr.max() < bound):
        raise ValueError(message)
    return np.ascontiguousarray(arr, dtype=np.int32)


@dataclass(frozen=True)
class LabelCoverInstance:
    """Ordered k-tuples over [num_vertices] with per-slot projections.

    edges: (E, k) int32 vertex ids; projections: (E, k, M) int32 values in
    [0, N).  Projections are dense arrays, so totality is structural.
    """

    k: int
    num_vertices: int
    m: int
    n: int
    edges: np.ndarray
    projections: np.ndarray

    def __post_init__(self):
        if self.k < 2:
            raise ValueError(f"edge arity must be at least 2, got {self.k}")
        if self.num_vertices < 1:
            raise ValueError("instance needs at least one vertex")
        if not 1 <= self.n <= self.m:
            raise ValueError(
                f"label sizes must satisfy M >= N >= 1, got M={self.m}, N={self.n}"
            )
        edges = _int32_below(self.edges, self.num_vertices, "edge vertex id out of range")
        proj = _int32_below(self.projections, self.n, "projection value out of range [0, N)")
        if edges.ndim != 2 or edges.shape[1] != self.k:
            raise ValueError(f"edges must be (E, {self.k}), got {edges.shape}")
        if proj.shape != (edges.shape[0], self.k, self.m):
            raise ValueError(
                f"projections must be ({edges.shape[0]}, {self.k}, {self.m}), "
                f"got {proj.shape}"
            )
        object.__setattr__(self, "edges", _readonly(edges))
        object.__setattr__(self, "projections", _readonly(proj))

    @property
    def num_edges(self) -> int:
        return self.edges.shape[0]

    @property
    def unique(self) -> bool:
        """True when M = N and every projection is a bijection."""
        if self.m != self.n:
            return False
        sorted_rows = np.sort(self.projections, axis=2)
        return bool((sorted_rows == np.arange(self.m, dtype=np.int32)).all())


@dataclass(frozen=True)
class Labeling:
    """Total assignment of one label in [0, M) per vertex."""

    assignment: np.ndarray
    m: int

    def __post_init__(self):
        arr = _int32_below(self.assignment, self.m, f"labels must lie in [0, {self.m})")
        if arr.ndim != 1:
            raise ValueError("assignment must be one-dimensional")
        object.__setattr__(self, "assignment", _readonly(arr))

    @property
    def num_vertices(self) -> int:
        return self.assignment.size


@dataclass(frozen=True)
class BipartiteInstance:
    """W-regular bipartite projection instance (the smoothness source).

    neighbors: (num_w, degree) int32 V-vertex ids; projections:
    (num_w, degree, M) int32, entry [w, s] being the map of the edge
    (w, neighbors[w, s]).
    """

    num_w: int
    num_v: int
    m: int
    n: int
    neighbors: np.ndarray
    projections: np.ndarray

    def __post_init__(self):
        if not 1 <= self.n <= self.m:
            raise ValueError(
                f"label sizes must satisfy M >= N >= 1, got M={self.m}, N={self.n}"
            )
        nb = _int32_below(self.neighbors, self.num_v, "neighbor vertex id out of range")
        proj = _int32_below(self.projections, self.n, "projection value out of range [0, N)")
        if nb.ndim != 2 or nb.shape[0] != self.num_w:
            raise ValueError(f"neighbors must be ({self.num_w}, degree)")
        if nb.shape[1] < 1:
            raise ValueError("every W-vertex needs at least one neighbor")
        if proj.shape != (*nb.shape, self.m):
            raise ValueError(
                f"projections must be {(*nb.shape, self.m)}, got {proj.shape}"
            )
        object.__setattr__(self, "neighbors", _readonly(nb))
        object.__setattr__(self, "projections", _readonly(proj))

    @property
    def degree(self) -> int:
        return self.neighbors.shape[1]


# ---------------------------------------------------------------------------
# satisfaction


def projected_labels(inst: LabelCoverInstance, lab: Labeling) -> np.ndarray:
    """(E, k) array of per-slot projected labels pi^{v_i,e}(Lambda(v_i))."""
    if lab.num_vertices != inst.num_vertices or lab.m != inst.m:
        raise ValueError("labeling shape does not match the instance")
    slot_labels = lab.assignment[inst.edges]
    return np.take_along_axis(
        inst.projections, slot_labels[:, :, None].astype(np.int64), axis=2
    )[:, :, 0]


def strong_mask(inst: LabelCoverInstance, lab: Labeling) -> np.ndarray:
    proj = projected_labels(inst, lab)
    return (proj == proj[:, :1]).all(axis=1)


def weak_mask(inst: LabelCoverInstance, lab: Labeling) -> np.ndarray:
    proj = projected_labels(inst, lab)
    out = np.zeros(inst.num_edges, dtype=bool)
    for s in range(inst.k):
        for t in range(s + 1, inst.k):
            out |= (proj[:, s] == proj[:, t]) & (
                inst.edges[:, s] != inst.edges[:, t]
            )
    return out


def satisfaction_fractions(
    inst: LabelCoverInstance, lab: Labeling
) -> tuple[float, float]:
    """(strong fraction, weak fraction) over the edge multiset."""
    return (
        float(strong_mask(inst, lab).mean()),
        float(weak_mask(inst, lab).mean()),
    )


# ---------------------------------------------------------------------------
# generators


def _randint(u: np.ndarray, n) -> np.ndarray:
    """`CursorRng.randint(n)` over uniforms u, elementwise: min(int(u * n), n - 1)."""
    return np.minimum((u * n).astype(np.int64), np.asarray(n) - 1)


def _planted_draws(
    seed: int, num_vertices: int, num_edges: int, k: int,
    labels: int, targets: int, slot_words: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Planted labels, edge vertices, common targets and slot-shuffle uniforms.

    One `uniforms` call reads the cursor words in the layout of the module
    docstring.  Returns planted (V,), verts (E, k), common (E,) and the
    shuffle uniforms (E * k, slot_words), row e * k + s for slot s of edge e.
    """
    per_edge = k + 1 + k * slot_words
    u = CursorRng(seed, 0).uniforms(num_vertices + num_edges * per_edge)
    planted = _randint(u[:num_vertices], labels)
    body = u[num_vertices:].reshape(num_edges, per_edge)
    verts = _distinct_vertices(body[:, :k], num_vertices)
    common = _randint(body[:, k], targets)
    return planted, verts, common, body[:, k + 1 :].reshape(num_edges * k, slot_words)


def _distinct_vertices(u: np.ndarray, n: int) -> np.ndarray:
    """k distinct values from range(n) per row of u (E, k): a partial Fisher-Yates.

    Step i swaps positions i and j = i + randint(n - i) of a virtual
    arange(n) and emits the value now at i.  Only earlier steps wrote to the
    array, at their j, so a read is the last of those writes that hit it.
    """
    rows, k = u.shape
    out = np.empty((rows, k), dtype=np.int64)
    wrote_at = np.empty((rows, k), dtype=np.int64)
    wrote = np.empty((rows, k), dtype=np.int64)
    for i in range(k):
        j = i + _randint(u[:, i], n - i)
        at_i = np.full(rows, i, dtype=np.int64)
        at_j = j
        for t in range(i):
            at_i = np.where(wrote_at[:, t] == i, wrote[:, t], at_i)
            at_j = np.where(wrote_at[:, t] == j, wrote[:, t], at_j)
        out[:, i] = at_j
        wrote_at[:, i], wrote[:, i] = j, at_i
    return out


def _shuffle_rows(items: np.ndarray, u: np.ndarray) -> None:
    """`CursorRng.shuffle` of every row of items (R, L) at once, in place.

    Swap i = L-1, ..., 1 of row r takes j = randint(i + 1) from u[r, L-1-i].
    """
    rows = np.arange(items.shape[0])
    for w, i in enumerate(range(items.shape[1] - 1, 0, -1)):
        j = _randint(u[:, w], i + 1)
        held = items[:, i].copy()
        items[:, i] = items[rows, j]
        items[rows, j] = held


def _projection_rows(
    sources: np.ndarray, targets: np.ndarray, u: np.ndarray, m: int, n: int, d: int
) -> np.ndarray:
    """Random total maps [M] -> [N], all preimages <= d, row r sending sources[r]
    to targets[r]: one map per row of the shuffle uniforms u.

    Row r's slot list is d - 1 copies of its target, then each other value
    d times in ascending order; it is shuffled, and fills the sources other
    than sources[r] in ascending order.
    """
    c = targets[:, None]
    others = np.arange((n - 1) * d) // d
    slots = np.concatenate(
        [np.repeat(c, d - 1, axis=1), others + (others >= c), c], axis=1
    )
    width = slots.shape[1] - 1  # the last column holds the target itself
    _shuffle_rows(slots[:, :width], u)
    p = np.arange(m)
    src = sources[:, None]
    pick = np.where(p == src, width, p - (p > src))
    return np.take_along_axis(slots, pick, axis=1)


def gen_planted_unique(
    num_vertices: int, num_edges: int, k: int, r: int, seed: int
) -> tuple[LabelCoverInstance, Labeling]:
    """Bijection instance (M = N = R) strongly satisfied by the planted labeling.

    Each edge draws k distinct vertices and a common target value; each
    slot's bijection is a uniform permutation conditioned on sending the
    planted label to that target.
    """
    if num_vertices < k:
        raise ValueError(
            f"need at least k={k} vertices for distinct edge slots, got {num_vertices}"
        )
    if min(num_edges, r) < 1:
        raise ValueError("num_edges and r must be positive")
    planted, verts, common, u = _planted_draws(
        seed, num_vertices, num_edges, k, r, r, r - 1
    )
    perm = np.tile(np.arange(r), (num_edges * k, 1))
    _shuffle_rows(perm, u)
    # force planted consistency: swap so the planted label maps to common
    rows = np.arange(perm.shape[0])
    at = np.argmax(perm == np.repeat(common, k)[:, None], axis=1)
    src = planted[verts].reshape(-1)
    held = perm[rows, at]
    perm[rows, at] = perm[rows, src]
    perm[rows, src] = held
    inst = LabelCoverInstance(
        k=k, num_vertices=num_vertices, m=r, n=r, edges=verts,
        projections=perm.reshape(num_edges, k, r),
    )
    return inst, Labeling(assignment=planted, m=r)


def _check_projection_sizes(m: int, n: int, d: int) -> None:
    if m > d * n:
        raise ValueError(
            f"infeasible: M={m} sources cannot fit in N*d={n * d} preimage slots"
        )
    if m < n:
        raise ValueError(f"label sizes must satisfy M >= N, got M={m}, N={n}")


def _planted_projections(
    seed: int, num_vertices: int, num_edges: int, k: int, m: int, n: int, d: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(planted, vertices (E, k), projections (E, k, M)) of a projection draw."""
    planted, verts, common, u = _planted_draws(
        seed, num_vertices, num_edges, k, m, n, max(d * n - 2, 0)
    )
    proj = _projection_rows(
        planted[verts].reshape(-1), np.repeat(common, k), u, m, n, d
    )
    return planted, verts, proj.reshape(num_edges, k, m)


def gen_planted_projection(
    num_vertices: int,
    num_edges: int,
    k: int,
    m: int,
    n: int,
    d: int,
    seed: int,
) -> tuple[LabelCoverInstance, Labeling]:
    """Projection instance with preimages <= d, planted strongly satisfying."""
    if num_vertices < k:
        raise ValueError(
            f"need at least k={k} vertices for distinct edge slots, got {num_vertices}"
        )
    if min(num_edges, n, d) < 1:
        raise ValueError("num_edges, n, and d must be positive")
    _check_projection_sizes(m, n, d)
    planted, edges, proj = _planted_projections(seed, num_vertices, num_edges, k, m, n, d)
    inst = LabelCoverInstance(
        k=k, num_vertices=num_vertices, m=m, n=n, edges=edges, projections=proj
    )
    return inst, Labeling(assignment=planted, m=m)


def gen_planted_bipartite(
    num_w: int,
    num_v: int,
    degree: int,
    m: int,
    n: int,
    d: int,
    seed: int,
) -> tuple[BipartiteInstance, Labeling]:
    """W-regular bipartite instance where the planted V-labeling recommends
    one common value to every W-vertex.  It draws exactly as
    `gen_planted_projection` with W-vertices for edges and degree for k."""
    if num_v < degree:
        raise ValueError(
            f"need at least degree={degree} V-vertices for distinct neighbors"
        )
    if min(num_w, n, d) < 1:
        raise ValueError("num_w, n, and d must be positive")
    _check_projection_sizes(m, n, d)
    planted, neighbors, proj = _planted_projections(seed, num_v, num_w, degree, m, n, d)
    bip = BipartiteInstance(
        num_w=num_w, num_v=num_v, m=m, n=n, neighbors=neighbors, projections=proj
    )
    return bip, Labeling(assignment=planted, m=m)


def smooth_from_bipartite(bip: BipartiteInstance, k: int) -> LabelCoverInstance:
    """All ordered k-tuples of each W-vertex's neighbors, one hyperedge each.

    Slots may repeat a vertex (tuples are drawn with repetition); each slot
    inherits the bipartite projection of its (vertex, w) edge.  A labeling
    satisfying every bipartite constraint strongly satisfies every hyperedge.
    """
    if k < 2:
        raise ValueError(f"edge arity must be at least 2, got {k}")
    total = bip.num_w * bip.degree**k
    if total > SMOOTH_EDGE_GUARD:
        raise GuardError(
            f"expansion would create {total} hyperedges; guard is {SMOOTH_EDGE_GUARD}"
        )
    # (degree^k, k) slot-index tuples, lexicographic
    tuples = np.indices((bip.degree,) * k).reshape(k, -1).T.astype(np.int64)
    edges = bip.neighbors[:, tuples].reshape(total, k)
    proj = bip.projections[:, tuples, :].reshape(total, k, bip.m)
    return LabelCoverInstance(
        k=k,
        num_vertices=bip.num_v,
        m=bip.m,
        n=bip.n,
        edges=edges,
        projections=proj,
    )


# ---------------------------------------------------------------------------
# audits


@dataclass(frozen=True)
class SmoothnessReport:
    """Worst collision rate over label pairs at one vertex.

    Exact when the label count is under the pair-scan guard; otherwise the
    value is a max over sampled pairs (a lower bound on the true max).
    """

    value: float
    exact: bool
    pairs_scanned: int
    occurrences: int


def _incident_projections(inst: LabelCoverInstance, v: int) -> np.ndarray:
    rows, slots = np.nonzero(inst.edges == v)
    if rows.size == 0:
        raise ValueError(f"vertex {v} has no incident edges")
    return inst.projections[rows, slots]


def audit_smoothness(
    inst: LabelCoverInstance, v: int, seed: int = 0, sample_pairs: int = 2048
) -> SmoothnessReport:
    """max_{i != j} fraction of v's slot occurrences with pi(i) = pi(j)."""
    proj = _incident_projections(inst, v)
    occ = proj.shape[0]
    if inst.m <= SMOOTH_PAIR_GUARD_M:
        best = 0.0
        for i in range(inst.m - 1):
            rates = (proj[:, i, None] == proj[:, i + 1 :]).mean(axis=0)
            if rates.size:
                best = max(best, float(rates.max()))
        return SmoothnessReport(
            value=best,
            exact=True,
            pairs_scanned=inst.m * (inst.m - 1) // 2,
            occurrences=occ,
        )
    rng = CursorRng(seed, 0)
    best = 0.0
    for _ in range(sample_pairs):
        i = rng.randint(inst.m)
        j = rng.randint(inst.m - 1)
        if j >= i:
            j += 1
        best = max(best, int((proj[:, i] == proj[:, j]).sum()) / occ)
    return SmoothnessReport(
        value=best,
        exact=False,
        pairs_scanned=sample_pairs,
        occurrences=occ,
    )


def audit_preimage(inst: LabelCoverInstance) -> int:
    """Largest |pi^{-1}(target)| over every (edge, slot) projection."""
    flat = inst.projections.reshape(-1, inst.m)
    best = 0
    chunk = max(1, (1 << 22) // max(1, inst.n))
    for lo in range(0, flat.shape[0], chunk):
        rows = flat[lo : lo + chunk]
        counts = np.zeros((rows.shape[0], inst.n), dtype=np.int32)
        np.add.at(counts, (np.arange(rows.shape[0])[:, None], rows), 1)
        best = max(best, int(counts.max()))
    return best


def audit_connected(inst: LabelCoverInstance) -> bool:
    """Do the edges join every vertex into one component?  Reported, not enforced."""
    parent = list(range(inst.num_vertices))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for row in inst.edges:
        root = find(int(row[0]))
        for v in row[1:]:
            r = find(int(v))
            if r != root:
                parent[r] = root
    roots = {find(v) for v in range(inst.num_vertices)}
    return len(roots) == 1


# ---------------------------------------------------------------------------
# files


def write_instance(inst: LabelCoverInstance, path: str) -> None:
    with AtomicFile(path) as fh:
        fh.write(f"{_LC_MAGIC} {_LC_VERSION}\n")
        fh.write(f"k {inst.k}\n")
        fh.write(f"vertices {inst.num_vertices}\n")
        fh.write(f"labels {inst.m} {inst.n}\n")
        fh.write(f"edges {inst.num_edges}\n")
        for row in inst.edges:
            fh.write("e " + " ".join(str(int(v)) for v in row) + "\n")
        for e in range(inst.num_edges):
            for s in range(inst.k):
                fh.write(
                    f"p {e} {s} "
                    + " ".join(str(int(t)) for t in inst.projections[e, s])
                    + "\n"
                )


class InstanceFormatError(ValueError):
    """Schema violation in an instance file, with a line diagnostic."""


_INT32 = np.iinfo(np.int32)


def _content_lines(path: str) -> tuple[list[str], list[int]]:
    """The file's non-blank lines without their newlines, and the physical
    (1-based) line number of each, plus one past the last: a diagnostic
    names the line as an editor shows it."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = fh.read().split("\n")
    keep = list(map(str.strip, raw))  # an empty string drops its line
    numbers = list(itertools.compress(range(1, len(raw) + 1), keep))
    return list(itertools.compress(raw, keep)), numbers + [numbers[-1] + 1 if numbers else 1]


def _header_version(lines: list[str], numbers: list[int], magic: str) -> tuple[str, int]:
    """The version token of the first line, as written and as an integer."""
    if not lines or not lines[0].startswith(f"{magic} "):
        raise InstanceFormatError(f"line {numbers[0]}: missing '{magic}' header")
    parts = lines[0].split()
    if len(parts) < 2:
        raise InstanceFormatError(f"line {numbers[0]}: missing '{magic}' version")
    try:
        return parts[1], int(parts[1])
    except ValueError:
        raise InstanceFormatError(
            f"line {numbers[0]}: non-integer version {parts[1]!r}"
        ) from None


def _parse_ints(line: str, lineno: int, prefix: str, count: int | None) -> list[int]:
    parts = line.split()
    if parts[0] != prefix:
        raise InstanceFormatError(
            f"line {lineno}: expected '{prefix} ...', got {line.split()[0]!r}"
        )
    try:
        vals = [int(p) for p in parts[1:]]
    except ValueError as exc:
        raise InstanceFormatError(f"line {lineno}: non-integer field: {exc}") from exc
    if count is not None and len(vals) != count:
        raise InstanceFormatError(
            f"line {lineno}: expected {count} integers after '{prefix}', got {len(vals)}"
        )
    return vals


def _line_ints(
    lines: list[str], numbers: list[int], i: int, prefix: str, count: int
) -> list[int]:
    """`_parse_ints` of lines[i], which must exist."""
    if i >= len(lines):
        raise InstanceFormatError(
            f"line {numbers[i]}: expected '{prefix} ...', got end of file"
        )
    return _parse_ints(lines[i], numbers[i], prefix, count)


def _fast_block(lines: list[str], prefix: str, width: int) -> np.ndarray | None:
    """(len(lines), width) int64 values in one numeric parse, or None.

    It parses only lines written exactly as `write_instance` writes them:
    `prefix`, then `width` fields of 1-9 ASCII digits, each after one space.
    On such lines `_parse_ints` gives the same values.  Any other line makes
    it return None, and the caller parses line by line instead.
    """
    per_line = width + 2  # the prefix, one space per field, the newline
    text = ("\n".join(lines) + "\n").encode("utf-8")
    b = np.frombuffer(text, dtype=np.uint8)
    marks = np.flatnonzero((b < 48) | (b > 57))  # every byte that is not a digit
    if marks.size != len(lines) * per_line:
        return None
    # the non-digit bytes of each line, then the digit run before each of them
    line_marks = np.frombuffer(f"{prefix}{' ' * width}\n".encode(), dtype=np.uint8)
    runs = np.diff(marks, prepend=-1).reshape(-1, per_line) - 1
    if (
        (b[marks].reshape(-1, per_line) != line_marks).any()
        or runs[:, :2].any()
        or (runs[:, 2:] < 1).any()
        or (runs[:, 2:] > 9).any()
    ):
        return None
    vals = np.fromstring(text.replace(prefix.encode(), b" "), dtype=np.int64, sep=" ")
    return vals.reshape(len(lines), width)


def _read_edges(lines: list[str], numbers: list[int], k: int) -> np.ndarray:
    """(E, k) vertex ids of the `e` lines, at file lines `numbers`."""
    fast = _fast_block(lines, "e", k)
    if fast is not None:
        return fast.astype(np.int32)
    edges = np.empty((len(lines), k), dtype=np.int32)
    for e, (line, lineno) in enumerate(zip(lines, numbers)):
        vals = _parse_ints(line, lineno, "e", k)
        if any(not _INT32.min <= v <= _INT32.max for v in vals):
            raise InstanceFormatError(f"line {lineno}: edge vertex id out of range")
        edges[e] = vals
    return edges


def _read_projections(
    lines: list[str], numbers: list[int], ne: int, k: int, m: int, n: int
) -> tuple[np.ndarray, str | None]:
    """(E, k, M) projections of the `p` lines, at file lines `numbers`.

    Also returns a diagnostic for the first line that repeats an (e, s)
    index, or None.  The fast path takes the lines only in writer order.
    """
    fast = _fast_block(lines, "p", m + 2)
    if (
        fast is not None
        and np.array_equal(fast[:, 0], np.repeat(np.arange(ne), k))
        and np.array_equal(fast[:, 1], np.tile(np.arange(k), ne))
        and (fast[:, 2:] < n).all()
    ):
        return fast[:, 2:].astype(np.int32).reshape(ne, k, m), None
    rows = {}
    repeat = None
    for line, lineno in zip(lines, numbers):
        vals = _parse_ints(line, lineno, "p", 2 + m)
        e, s = vals[0], vals[1]
        if not (0 <= e < ne and 0 <= s < k):
            raise InstanceFormatError(
                f"line {lineno}: projection index ({e}, {s}) out of range"
            )
        row = vals[2:]
        if any(not 0 <= t < n for t in row):
            raise InstanceFormatError(
                f"line {lineno}: projection value outside [0, {n})"
            )
        if any(t > _INT32.max for t in row):
            raise InstanceFormatError(f"line {lineno}: projection value exceeds int32")
        if (e, s) in rows and repeat is None:
            repeat = f"line {lineno}: duplicate projection index ({e}, {s})"
        rows[e, s] = row
    proj = np.zeros((ne, k, m), dtype=np.int32)
    for (e, s), row in rows.items():
        proj[e, s] = row
    return proj, repeat


def read_instance(path: str) -> LabelCoverInstance:
    """Parse a `write_instance` file; InstanceFormatError names the bad line."""
    lines, numbers = _content_lines(path)
    version, number = _header_version(lines, numbers, _LC_MAGIC)
    if number != _LC_VERSION:
        raise InstanceFormatError(f"line {numbers[0]}: unsupported version {version}")
    k = _line_ints(lines, numbers, 1, "k", 1)[0]
    nv = _line_ints(lines, numbers, 2, "vertices", 1)[0]
    m, n = _line_ints(lines, numbers, 3, "labels", 2)
    if m < n:
        raise InstanceFormatError(f"line {numbers[3]}: M={m} must be at least N={n}")
    ne = _line_ints(lines, numbers, 4, "edges", 1)[0]
    expected = 5 + ne + ne * k
    if len(lines) != expected:
        raise InstanceFormatError(
            f"expected {expected} lines for {ne} edges of arity {k}, got {len(lines)}"
        )
    if k < 0:
        raise InstanceFormatError(
            f"line {numbers[1]}: edge arity must be at least 2, got {k}"
        )
    try:
        edges = _read_edges(lines[5 : 5 + ne], numbers[5 : 5 + ne], k)
        if m < 0:
            raise InstanceFormatError(
                f"line {numbers[3]}: label sizes must satisfy M >= N >= 1, got M={m}, N={n}"
            )
        proj, repeat = _read_projections(
            lines[5 + ne :], numbers[5 + ne :], ne, k, m, n
        )
        inst = LabelCoverInstance(
            k=k, num_vertices=nv, m=m, n=n, edges=edges, projections=proj
        )
    except InstanceFormatError:
        raise
    except ValueError as exc:  # sizes numpy cannot allocate, or a schema check
        raise InstanceFormatError(str(exc)) from exc
    if repeat is not None:
        raise InstanceFormatError(repeat)
    return inst


def write_labeling(lab: Labeling, path: str) -> None:
    with AtomicFile(path) as fh:
        fh.write(f"{_LAB_MAGIC} {_LAB_VERSION}\n")
        fh.write(f"vertices {lab.num_vertices}\n")
        fh.write(f"labels {lab.m}\n")
        fh.write("a " + " ".join(str(int(v)) for v in lab.assignment) + "\n")


def read_labeling(path: str) -> Labeling:
    lines, numbers = _content_lines(path)
    if _header_version(lines, numbers, _LAB_MAGIC)[1] != _LAB_VERSION:
        raise InstanceFormatError(f"line {numbers[0]}: unsupported labeling version")
    nv = _line_ints(lines, numbers, 1, "vertices", 1)[0]
    m = _line_ints(lines, numbers, 2, "labels", 1)[0]
    assignment = _line_ints(lines, numbers, 3, "a", nv)
    try:
        return Labeling(assignment=assignment, m=m)
    except ValueError as exc:
        raise InstanceFormatError(str(exc)) from exc
