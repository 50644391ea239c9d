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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import AtomicFile, CursorRng, GuardError
from .stats import Interval, wilson_interval

SMOOTH_PAIR_GUARD_M = 512
SMOOTH_EDGE_GUARD = 1_000_000

_LC_MAGIC = "GLHS-LC"
_LC_VERSION = 1
_LAB_MAGIC = "GLHS-LAB"
_LAB_VERSION = 1


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


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
        edges = np.ascontiguousarray(np.asarray(self.edges, dtype=np.int32))
        proj = np.ascontiguousarray(np.asarray(self.projections, dtype=np.int32))
        if edges.ndim != 2 or edges.shape[1] != self.k:
            raise ValueError(f"edges must be (E, {self.k}), got {edges.shape}")
        if proj.shape != (edges.shape[0], self.k, self.m):
            raise ValueError(
                f"projections must be ({edges.shape[0]}, {self.k}, {self.m}), "
                f"got {proj.shape}"
            )
        if edges.size and (edges.min() < 0 or edges.max() >= self.num_vertices):
            raise ValueError("edge vertex id out of range")
        if proj.size and (proj.min() < 0 or proj.max() >= self.n):
            raise ValueError("projection value out of range [0, N)")
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
        arr = np.ascontiguousarray(np.asarray(self.assignment, dtype=np.int32))
        if arr.ndim != 1:
            raise ValueError("assignment must be one-dimensional")
        if arr.size and (arr.min() < 0 or arr.max() >= self.m):
            raise ValueError(f"labels must lie in [0, {self.m})")
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
        nb = np.ascontiguousarray(np.asarray(self.neighbors, dtype=np.int32))
        proj = np.ascontiguousarray(np.asarray(self.projections, dtype=np.int32))
        if nb.ndim != 2 or nb.shape[0] != self.num_w:
            raise ValueError(f"neighbors must be ({self.num_w}, degree)")
        if nb.shape[1] < 1:
            raise ValueError("every W-vertex needs at least one neighbor")
        if proj.shape != (*nb.shape, self.m):
            raise ValueError(
                f"projections must be {(*nb.shape, self.m)}, got {proj.shape}"
            )
        if nb.size and (nb.min() < 0 or nb.max() >= self.num_v):
            raise ValueError("neighbor vertex id out of range")
        if proj.size and (proj.min() < 0 or proj.max() >= self.n):
            raise ValueError("projection value out of range [0, N)")
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


def _planted_projection_row(
    rng: CursorRng, m: int, n: int, d: int, source: int, target: int
) -> np.ndarray:
    """A random total map [M]->[N] with all preimages <= d and source -> target."""
    slots = [target] * (d - 1)
    for t in range(n):
        if t != target:
            slots.extend([t] * d)
    rng.shuffle(slots)
    row = np.empty(m, dtype=np.int32)
    row[source] = target
    rest = [s for s in range(m) if s != source]
    for s, t in zip(rest, slots):
        row[s] = t
    return row


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
    rng = CursorRng(seed, 0)
    planted = np.asarray([rng.randint(r) for _ in range(num_vertices)], dtype=np.int32)
    edges = np.empty((num_edges, k), dtype=np.int32)
    proj = np.empty((num_edges, k, r), dtype=np.int32)
    for e in range(num_edges):
        verts = rng.sample_without_replacement(num_vertices, k)
        edges[e] = verts
        common = rng.randint(r)
        for s in range(k):
            perm = rng.shuffle(list(range(r)))
            # force planted consistency: swap so planted label maps to common
            src = int(planted[verts[s]])
            at = perm.index(common)
            perm[at], perm[src] = perm[src], perm[at]
            proj[e, s] = perm
    inst = LabelCoverInstance(
        k=k, num_vertices=num_vertices, m=r, n=r, edges=edges, projections=proj
    )
    return inst, Labeling(assignment=planted, m=r)


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
    if m > d * n:
        raise ValueError(
            f"infeasible: M={m} sources cannot fit in N*d={n * d} preimage slots"
        )
    if m < n:
        raise ValueError(f"label sizes must satisfy M >= N, got M={m}, N={n}")
    rng = CursorRng(seed, 0)
    planted = np.asarray([rng.randint(m) for _ in range(num_vertices)], dtype=np.int32)
    edges = np.empty((num_edges, k), dtype=np.int32)
    proj = np.empty((num_edges, k, m), dtype=np.int32)
    for e in range(num_edges):
        verts = rng.sample_without_replacement(num_vertices, k)
        edges[e] = verts
        common = rng.randint(n)
        for s in range(k):
            proj[e, s] = _planted_projection_row(
                rng, m, n, d, int(planted[verts[s]]), common
            )
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
    one common value to every W-vertex."""
    if num_v < degree:
        raise ValueError(
            f"need at least degree={degree} V-vertices for distinct neighbors"
        )
    if min(num_w, n, d) < 1:
        raise ValueError("num_w, n, and d must be positive")
    if m > d * n:
        raise ValueError(
            f"infeasible: M={m} sources cannot fit in N*d={n * d} preimage slots"
        )
    if m < n:
        raise ValueError(f"label sizes must satisfy M >= N, got M={m}, N={n}")
    rng = CursorRng(seed, 0)
    planted = np.asarray([rng.randint(m) for _ in range(num_v)], dtype=np.int32)
    neighbors = np.empty((num_w, degree), dtype=np.int32)
    proj = np.empty((num_w, degree, m), dtype=np.int32)
    for w in range(num_w):
        verts = rng.sample_without_replacement(num_v, degree)
        neighbors[w] = verts
        common = rng.randint(n)
        for s in range(degree):
            proj[w, s] = _planted_projection_row(
                rng, m, n, d, int(planted[verts[s]]), common
            )
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
    value is a max over sampled pairs (a lower bound on the true max) and
    `interval` is the Wilson interval of the worst sampled pair's rate.
    """

    value: float
    exact: bool
    pairs_scanned: int
    occurrences: int
    interval: Interval | None = None


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
    best_hits = 0
    for _ in range(sample_pairs):
        i = rng.randint(inst.m)
        j = rng.randint(inst.m - 1)
        if j >= i:
            j += 1
        hits = int((proj[:, i] == proj[:, j]).sum())
        rate = hits / occ
        if rate > best:
            best, best_hits = rate, hits
    return SmoothnessReport(
        value=best,
        exact=False,
        pairs_scanned=sample_pairs,
        occurrences=occ,
        interval=wilson_interval(best_hits, occ),
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


def read_instance(path: str) -> LabelCoverInstance:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    lines = [ln for ln in lines if ln.strip()]
    if not lines or not lines[0].startswith(f"{_LC_MAGIC} "):
        raise InstanceFormatError(f"line 1: missing '{_LC_MAGIC}' header")
    version = lines[0].split()[1]
    if int(version) != _LC_VERSION:
        raise InstanceFormatError(f"line 1: unsupported version {version}")
    k = _parse_ints(lines[1], 2, "k", 1)[0]
    nv = _parse_ints(lines[2], 3, "vertices", 1)[0]
    m, n = _parse_ints(lines[3], 4, "labels", 2)
    if m < n:
        raise InstanceFormatError(f"line 4: M={m} must be at least N={n}")
    ne = _parse_ints(lines[4], 5, "edges", 1)[0]
    expected = 5 + ne + ne * k
    if len(lines) != expected:
        raise InstanceFormatError(
            f"expected {expected} lines for {ne} edges of arity {k}, got {len(lines)}"
        )
    edges = np.empty((ne, k), dtype=np.int32)
    for e in range(ne):
        edges[e] = _parse_ints(lines[5 + e], 6 + e, "e", k)
    proj = np.empty((ne, k, m), dtype=np.int32)
    for i in range(ne * k):
        lineno = 5 + ne + i
        vals = _parse_ints(lines[lineno], lineno + 1, "p", 2 + m)
        e, s = vals[0], vals[1]
        if not (0 <= e < ne and 0 <= s < k):
            raise InstanceFormatError(
                f"line {lineno + 1}: projection index ({e}, {s}) out of range"
            )
        row = vals[2:]
        if any(not 0 <= t < n for t in row):
            raise InstanceFormatError(
                f"line {lineno + 1}: projection value outside [0, {n})"
            )
        proj[e, s] = row
    try:
        return LabelCoverInstance(
            k=k, num_vertices=nv, m=m, n=n, edges=edges, projections=proj
        )
    except ValueError as exc:
        raise InstanceFormatError(str(exc)) from exc


def write_labeling(lab: Labeling, path: str) -> None:
    with AtomicFile(path) as fh:
        fh.write(f"{_LAB_MAGIC} {_LAB_VERSION}\n")
        fh.write(f"vertices {lab.num_vertices}\n")
        fh.write(f"labels {lab.m}\n")
        fh.write("a " + " ".join(str(int(v)) for v in lab.assignment) + "\n")


def read_labeling(path: str) -> Labeling:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines or not lines[0].startswith(f"{_LAB_MAGIC} "):
        raise InstanceFormatError(f"line 1: missing '{_LAB_MAGIC}' header")
    if int(lines[0].split()[1]) != _LAB_VERSION:
        raise InstanceFormatError("line 1: unsupported labeling version")
    nv = _parse_ints(lines[1], 2, "vertices", 1)[0]
    m = _parse_ints(lines[2], 3, "labels", 1)[0]
    assignment = _parse_ints(lines[3], 4, "a", nv)
    return Labeling(assignment=np.asarray(assignment, dtype=np.int32), m=m)
