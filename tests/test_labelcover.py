"""Constraint instances: planted generators, satisfaction, structural audits."""

import contextlib
import io

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from glhs import labelcover
from glhs.cli import main
from glhs.core import CursorRng, GuardError
from glhs.halfspace import write_halfspace
from glhs.labelcover import (
    BipartiteInstance,
    InstanceFormatError,
    LabelCoverInstance,
    Labeling,
    audit_connected,
    audit_preimage,
    audit_smoothness,
    gen_planted_bipartite,
    gen_planted_projection,
    gen_planted_unique,
    projected_labels,
    read_instance,
    read_labeling,
    satisfaction_fractions,
    smooth_from_bipartite,
    strong_mask,
    weak_mask,
    write_instance,
    write_labeling,
)
from glhs.reduction import planted_disjunction


def _tiny_instance():
    """3 vertices, arity 2, M=N=2, hand-written projections."""
    edges = np.array([[0, 1], [1, 2]], dtype=np.int32)
    proj = np.array(
        [
            [[0, 1], [0, 1]],  # identity on both slots
            [[0, 1], [1, 0]],  # identity vs swap
        ],
        dtype=np.int32,
    )
    return LabelCoverInstance(
        k=2, num_vertices=3, m=2, n=2, edges=edges, projections=proj
    )


class TestInstanceValidation:
    def test_tiny_instance_is_unique(self):
        inst = _tiny_instance()
        assert inst.num_edges == 2
        assert inst.unique

    def test_non_bijective_projection_is_not_unique(self):
        edges = np.array([[0, 1]], dtype=np.int32)
        proj = np.array([[[0, 0], [0, 1]]], dtype=np.int32)
        inst = LabelCoverInstance(
            k=2, num_vertices=2, m=2, n=2, edges=edges, projections=proj
        )
        assert not inst.unique

    def test_shape_and_range_checks(self):
        edges = np.array([[0, 1]], dtype=np.int32)
        good = np.array([[[0, 1], [0, 1]]], dtype=np.int32)
        with pytest.raises(ValueError, match="arity"):
            LabelCoverInstance(k=1, num_vertices=2, m=2, n=2,
                               edges=edges[:, :1], projections=good[:, :1])
        with pytest.raises(ValueError, match="projection value"):
            LabelCoverInstance(k=2, num_vertices=2, m=2, n=1,
                               edges=edges, projections=good)
        with pytest.raises(ValueError, match="vertex id"):
            LabelCoverInstance(k=2, num_vertices=1, m=2, n=2,
                               edges=edges, projections=good)

    def test_labeling_validation(self):
        with pytest.raises(ValueError):
            Labeling(assignment=np.array([0, 3], dtype=np.int32), m=2)

    # an int32 cast would wrap 2**32 to 0 and 2**32 + 1 to 1, both in range
    def test_instance_values_beyond_int32_are_rejected(self):
        proj = np.array([[[0, 1], [0, 1]]])
        with pytest.raises(ValueError, match="vertex id out of range"):
            LabelCoverInstance(k=2, num_vertices=3, m=2, n=2,
                               edges=np.array([[2**32, 1]]), projections=proj)
        proj[0, 1, 0] = 2**32
        with pytest.raises(ValueError, match="projection value out of range"):
            LabelCoverInstance(k=2, num_vertices=3, m=2, n=2,
                               edges=np.array([[0, 1]]), projections=proj)

    def test_labeling_values_beyond_int32_are_rejected(self):
        with pytest.raises(ValueError, match=r"labels must lie in \[0, 3\)"):
            Labeling(assignment=[2**32 + 1], m=3)
        with pytest.raises(ValueError, match=r"labels must lie in \[0, 3\)"):
            Labeling(assignment=np.array([0, 2**32 + 1]), m=3)

    def test_bipartite_values_beyond_int32_are_rejected(self):
        proj = np.array([[[0, 1]]])
        with pytest.raises(ValueError, match="neighbor vertex id out of range"):
            BipartiteInstance(num_w=1, num_v=2, m=2, n=2,
                              neighbors=np.array([[2**32]]), projections=proj)
        with pytest.raises(ValueError, match="projection value out of range"):
            BipartiteInstance(num_w=1, num_v=2, m=2, n=2,
                              neighbors=np.array([[1]]), projections=proj + 2**32)

    def test_arrays_are_readonly(self):
        inst = _tiny_instance()
        with pytest.raises(ValueError):
            inst.edges[0, 0] = 5


class TestSatisfaction:
    def test_projected_labels_by_hand(self):
        inst = _tiny_instance()
        lab = Labeling(assignment=np.array([1, 1, 1], dtype=np.int32), m=2)
        proj = projected_labels(inst, lab)
        # edge 0: identity/identity -> (1, 1); edge 1: identity/swap -> (1, 0)
        assert proj.tolist() == [[1, 1], [1, 0]]

    def test_strong_and_weak_masks(self):
        inst = _tiny_instance()
        lab = Labeling(assignment=np.array([1, 1, 1], dtype=np.int32), m=2)
        assert strong_mask(inst, lab).tolist() == [True, False]
        assert weak_mask(inst, lab).tolist() == [True, False]
        frac = satisfaction_fractions(inst, lab)
        assert frac == (0.5, 0.5)

    def test_weak_needs_distinct_vertices(self):
        # both slots hold vertex 0: agreement there is not weak satisfaction
        edges = np.array([[0, 0, 1]], dtype=np.int32)
        proj = np.tile(np.arange(3, dtype=np.int32), (1, 3, 1))
        inst = LabelCoverInstance(
            k=3, num_vertices=2, m=3, n=3, edges=edges, projections=proj
        )
        lab = Labeling(assignment=np.array([0, 1], dtype=np.int32), m=3)
        # slots 0,1 agree (same vertex), slot 2 differs -> not weak
        assert weak_mask(inst, lab).tolist() == [False]
        lab2 = Labeling(assignment=np.array([1, 1], dtype=np.int32), m=3)
        assert weak_mask(inst, lab2).tolist() == [True]

    def test_strong_implies_weak_on_distinct_edges(self):
        inst, lab = gen_planted_unique(12, 30, 3, 4, seed=5)
        s = strong_mask(inst, lab)
        w = weak_mask(inst, lab)
        assert (w[s]).all()

    def test_mismatched_labeling_rejected(self):
        inst = _tiny_instance()
        short = Labeling(assignment=np.zeros(2, dtype=np.int32), m=2)
        with pytest.raises(ValueError, match="does not match"):
            projected_labels(inst, short)


class TestGenerators:
    @given(st.integers(0, 2**32))
    @settings(max_examples=20, deadline=None)
    def test_planted_unique_is_strongly_satisfied(self, seed):
        inst, lab = gen_planted_unique(10, 25, 3, 5, seed=seed)
        assert inst.unique
        strong, weak = satisfaction_fractions(inst, lab)
        assert strong == 1.0
        assert weak == 1.0
        assert (np.sort(inst.edges, axis=1)[:, :-1] !=
                np.sort(inst.edges, axis=1)[:, 1:]).all()  # distinct slots

    @given(st.integers(0, 2**32))
    @settings(max_examples=20, deadline=None)
    def test_planted_projection_keeps_preimage_bound(self, seed):
        m, n, d = 8, 4, 2
        inst, lab = gen_planted_projection(9, 20, 3, m, n, d, seed=seed)
        assert not inst.unique
        assert satisfaction_fractions(inst, lab)[0] == 1.0
        assert audit_preimage(inst) <= d

    def test_projection_rows_are_total_maps(self):
        inst, _ = gen_planted_projection(9, 10, 3, 8, 4, 2, seed=0)
        assert inst.projections.min() >= 0
        assert inst.projections.max() < 4
        # every target value actually hit somewhere (d*n == m forces surjection)
        for row in inst.projections.reshape(-1, 8)[:6]:
            assert set(row.tolist()) == set(range(4))

    def test_infeasible_projection_arguments(self):
        with pytest.raises(ValueError, match="preimage slots"):
            gen_planted_projection(9, 5, 3, m=9, n=4, d=2, seed=0)
        with pytest.raises(ValueError, match="M >= N"):
            gen_planted_projection(9, 5, 3, m=3, n=4, d=2, seed=0)
        with pytest.raises(ValueError, match="vertices"):
            gen_planted_unique(2, 5, 3, 4, seed=0)

    def test_determinism(self):
        a, la = gen_planted_unique(10, 8, 3, 4, seed=123)
        b, lb = gen_planted_unique(10, 8, 3, 4, seed=123)
        assert np.array_equal(a.edges, b.edges)
        assert np.array_equal(a.projections, b.projections)
        assert np.array_equal(la.assignment, lb.assignment)
        c, _ = gen_planted_unique(10, 8, 3, 4, seed=124)
        assert not np.array_equal(a.projections, c.projections)


class TestSmoothExpansion:
    def test_expansion_shape_and_planted_satisfaction(self):
        bip, lab = gen_planted_bipartite(6, 8, 3, 8, 4, 2, seed=9)
        inst = smooth_from_bipartite(bip, k=2)
        assert inst.num_edges == 6 * 3**2
        assert inst.k == 2
        assert inst.num_vertices == 8
        strong, _ = satisfaction_fractions(inst, lab)
        assert strong == 1.0

    def test_tuples_enumerate_with_repetition(self):
        bip, _ = gen_planted_bipartite(1, 5, 2, 4, 2, 2, seed=1)
        inst = smooth_from_bipartite(bip, k=2)
        pairs = {tuple(row) for row in inst.edges.tolist()}
        nb = bip.neighbors[0].tolist()
        assert pairs == {(a, b) for a in nb for b in nb}

    def test_slot_projection_follows_the_vertex(self):
        bip, _ = gen_planted_bipartite(2, 6, 2, 6, 3, 2, seed=3)
        inst = smooth_from_bipartite(bip, k=3)
        for e in range(inst.num_edges):
            w = e // bip.degree**3
            for s in range(3):
                v = inst.edges[e, s]
                slot = bip.neighbors[w].tolist().index(v)
                assert np.array_equal(
                    inst.projections[e, s], bip.projections[w, slot]
                )

    def test_edge_guard(self):
        bip, _ = gen_planted_bipartite(4, 40, 32, 4, 2, 2, seed=0)
        with pytest.raises(GuardError):
            smooth_from_bipartite(bip, k=4)

    def test_bipartite_validation(self):
        nb = np.array([[0, 1]], dtype=np.int32)
        proj = np.zeros((1, 2, 2), dtype=np.int32)
        bip = BipartiteInstance(
            num_w=1, num_v=2, m=2, n=2, neighbors=nb, projections=proj
        )
        assert bip.degree == 2
        with pytest.raises(ValueError, match="neighbor vertex id"):
            BipartiteInstance(
                num_w=1, num_v=1, m=2, n=2, neighbors=nb, projections=proj
            )


class TestAudits:
    def test_preimage_oracle(self):
        inst, _ = gen_planted_projection(9, 12, 3, 8, 4, 2, seed=7)
        flat = inst.projections.reshape(-1, 8)
        want = max(np.bincount(row, minlength=4).max() for row in flat)
        assert audit_preimage(inst) == int(want)

    def test_smoothness_exact_scan(self):
        inst, _ = gen_planted_projection(9, 40, 3, 8, 4, 2, seed=11)
        rep = audit_smoothness(inst, v=0)
        assert rep.exact
        rows, slots = np.nonzero(inst.edges == 0)
        proj = inst.projections[rows, slots]
        want = max(
            float((proj[:, i] == proj[:, j]).mean())
            for i in range(8)
            for j in range(i + 1, 8)
        )
        assert rep.value == pytest.approx(want)
        assert rep.occurrences == rows.size

    def test_smoothness_requires_incidence(self):
        edges = np.array([[0, 1]], dtype=np.int32)
        proj = np.array([[[0, 1], [0, 1]]], dtype=np.int32)
        lone = LabelCoverInstance(
            k=2, num_vertices=3, m=2, n=2, edges=edges, projections=proj
        )
        with pytest.raises(ValueError, match="incident"):
            audit_smoothness(lone, v=2)

    def test_connectivity(self):
        inst = _tiny_instance()
        assert audit_connected(inst)
        edges = np.array([[0, 1]], dtype=np.int32)
        proj = np.array([[[0, 1], [0, 1]]], dtype=np.int32)
        lone = LabelCoverInstance(
            k=2, num_vertices=3, m=2, n=2, edges=edges, projections=proj
        )
        assert not audit_connected(lone)


class TestSerialization:
    def test_instance_roundtrip(self, tmp_path):
        inst, _ = gen_planted_projection(9, 15, 3, 8, 4, 2, seed=21)
        path = tmp_path / "inst.lc"
        write_instance(inst, str(path))
        back = read_instance(str(path))
        assert back.k == inst.k
        assert back.num_vertices == inst.num_vertices
        assert back.m == inst.m and back.n == inst.n
        assert np.array_equal(back.edges, inst.edges)
        assert np.array_equal(back.projections, inst.projections)

    def test_labeling_roundtrip(self, tmp_path):
        _, lab = gen_planted_unique(10, 5, 3, 4, seed=2)
        path = tmp_path / "lab.txt"
        write_labeling(lab, str(path))
        back = read_labeling(str(path))
        assert back.m == lab.m
        assert np.array_equal(back.assignment, lab.assignment)

    @pytest.mark.parametrize(
        "mangle, message",
        [
            (lambda t: t.replace("GLHS-LC 1", "NOPE 1", 1), "header"),
            (lambda t: t.replace("GLHS-LC 1", "GLHS-LC 9", 1), "version"),
            (lambda t: t[: t.rfind("\np ")] + "\n", "expected"),
            (lambda t: t.replace("\ne ", "\nq ", 1), "expected 'e"),
        ],
    )
    def test_corrupt_instance_rejected(self, tmp_path, mangle, message):
        inst, _ = gen_planted_unique(10, 5, 3, 4, seed=2)
        path = tmp_path / "inst.lc"
        write_instance(inst, str(path))
        path.write_text(mangle(path.read_text()))
        with pytest.raises(InstanceFormatError, match=message):
            read_instance(str(path))

    def test_out_of_range_projection_value_rejected(self, tmp_path):
        inst, _ = gen_planted_unique(10, 5, 3, 4, seed=2)
        path = tmp_path / "inst.lc"
        write_instance(inst, str(path))
        lines = path.read_text().splitlines()
        first_p = next(i for i, ln in enumerate(lines) if ln.startswith("p "))
        parts = lines[first_p].split()
        parts[-1] = str(inst.n)  # one past the valid range
        lines[first_p] = " ".join(parts)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InstanceFormatError, match="outside"):
            read_instance(str(path))


# ---------------------------------------------------------------------------
# generator oracle: the per-edge loops the array generators replaced


def _reference_sample(rng, n, m):
    """m distinct values from range(n), order random."""
    if m > n:
        raise ValueError(f"cannot draw {m} distinct values from range({n})")
    picked: dict[int, int] = {}
    out = []
    for i in range(m):
        j = i + rng.randint(n - i)
        vi = picked.get(i, i)
        vj = picked.get(j, j)
        out.append(vj)
        picked[j] = vi
    return out


def _reference_row(rng, m, n, d, source, target):
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


def _loop_reference(kind, *args):
    """(vertices, projections, planted, final cursor index) of the loop generator.

    kind "unique" takes (V, E, k, r, seed); "projection" takes
    (V, E, k, M, N, d, seed) and "bipartite" (W, V, degree, M, N, d, seed),
    which draw alike with the roles of E and V renamed.
    """
    if kind == "unique":
        num_vertices, num_edges, k, r, seed = args
        rng = CursorRng(seed, 0)
        planted = np.asarray([rng.randint(r) for _ in range(num_vertices)], dtype=np.int32)
        edges = np.empty((num_edges, k), dtype=np.int32)
        proj = np.empty((num_edges, k, r), dtype=np.int32)
        for e in range(num_edges):
            verts = _reference_sample(rng, num_vertices, k)
            edges[e] = verts
            common = rng.randint(r)
            for s in range(k):
                perm = rng.shuffle(list(range(r)))
                src = int(planted[verts[s]])
                at = perm.index(common)
                perm[at], perm[src] = perm[src], perm[at]
                proj[e, s] = perm
        return edges, proj, planted, rng.index
    if kind == "projection":
        num_vertices, num_edges, k, m, n, d, seed = args
    else:
        num_edges, num_vertices, k, m, n, d, seed = args
    rng = CursorRng(seed, 0)
    planted = np.asarray([rng.randint(m) for _ in range(num_vertices)], dtype=np.int32)
    edges = np.empty((num_edges, k), dtype=np.int32)
    proj = np.empty((num_edges, k, m), dtype=np.int32)
    for e in range(num_edges):
        verts = _reference_sample(rng, num_vertices, k)
        edges[e] = verts
        common = rng.randint(n)
        for s in range(k):
            proj[e, s] = _reference_row(rng, m, n, d, int(planted[verts[s]]), common)
    return edges, proj, planted, rng.index


_GENERATORS = {
    "unique": gen_planted_unique,
    "projection": gen_planted_projection,
    "bipartite": gen_planted_bipartite,
}


def _assert_matches_loop(kind, *args):
    made = []

    class Recording(CursorRng):
        def __init__(self, *a, **kw):
            super().__init__(*a, **kw)
            made.append(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(labelcover, "CursorRng", Recording)
        inst, lab = _GENERATORS[kind](*args)
    verts = inst.neighbors if kind == "bipartite" else inst.edges
    edges, proj, planted, index = _loop_reference(kind, *args)
    assert np.array_equal(verts, edges)
    assert np.array_equal(inst.projections, proj)
    assert np.array_equal(lab.assignment, planted)
    assert len(made) == 1 and made[0].index == index


# (V, E, k, M, N, d, seed) for the projection kind; the bipartite kind runs
# them as (W, V, degree, ...) = (E, V, k, ...)
_PROJECTION_CASES = [
    (200, 2000, 3, 16, 8, 2, 5),  # the benchmark's size
    (50, 300, 2, 7, 4, 2, 11),
    (30, 100, 4, 9, 3, 3, 2),
    (6, 15, 2, 6, 3, 2, 3),  # k = 2
    (4, 12, 4, 5, 3, 2, 8),  # k = num_vertices
    (5, 10, 3, 3, 1, 3, 4),  # n = 1
    (3, 4, 2, 1, 1, 1, 9),  # n = d = m = 1: no shuffle words
    (5, 10, 3, 4, 4, 1, 5),  # d = 1 with m = n
    (7, 10, 3, 12, 4, 3, 6),  # m = d n
    (5, 1, 3, 6, 3, 2, 7),  # a single edge
    (8, 20, 3, 8, 4, 2, 2**64 - 1),  # seed near 2^64
]

# (V, E, k, r, seed) for the unique kind
_UNIQUE_CASES = [
    (200, 2000, 3, 16, 8),
    (6, 15, 2, 5, 3),  # k = 2
    (4, 12, 4, 5, 8),  # k = num_vertices
    (5, 10, 3, 1, 4),  # r = 1: no shuffle words
    (5, 1, 3, 6, 7),  # a single edge
    (8, 20, 3, 7, 2**64 - 2),  # seed near 2^64
]


class TestGeneratorOracle:
    @pytest.mark.parametrize("args", _PROJECTION_CASES)
    def test_projection_matches_loop(self, args):
        _assert_matches_loop("projection", *args)

    @pytest.mark.parametrize(
        "args",
        [(e, v, k, *rest) for v, e, k, *rest in _PROJECTION_CASES]
        + [(4, 5, 1, 4, 2, 2, 3)],  # degree 1
    )
    def test_bipartite_matches_loop(self, args):
        _assert_matches_loop("bipartite", *args)

    @pytest.mark.parametrize("args", _UNIQUE_CASES)
    def test_unique_matches_loop(self, args):
        _assert_matches_loop("unique", *args)

    @given(
        st.integers(2, 5), st.integers(0, 5), st.integers(1, 12), st.integers(1, 5),
        st.integers(1, 3), st.integers(1, 12), st.integers(0, 2**64 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_sizes_match_loop(self, k, extra_v, ne, n, d, m_pick, seed):
        nv = k + extra_v
        m = n + m_pick % (d * n - n + 1)  # n <= m <= d n
        _assert_matches_loop("projection", nv, ne, k, m, n, d, seed)
        _assert_matches_loop("bipartite", ne, nv, k, m, n, d, seed)
        _assert_matches_loop("unique", nv, ne, k, m, seed)

    @given(st.integers(1, 40), st.integers(0, 2**32))
    @settings(max_examples=50, deadline=None)
    def test_distinct_vertices_are_partial_permutations(self, n, seed):
        rng = CursorRng(seed, 1)
        m = rng.randint(n) + 1
        picks = labelcover._distinct_vertices(rng.uniforms(20 * m).reshape(20, m), n)
        for row in picks.tolist():
            assert len(set(row)) == m
            assert all(0 <= v < n for v in row)


# ---------------------------------------------------------------------------
# hostile files: truncated, mutated and spliced GLHS-LC / GLHS-LAB


def _reference_parse_ints(line, lineno, prefix, count):
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


def _reference_content_lines(path):
    """Non-blank lines and their 1-based physical line numbers."""
    with open(path, "r", encoding="utf-8") as fh:
        numbered = [(i, ln.rstrip("\n")) for i, ln in enumerate(fh, 1) if ln.strip()]
    return [ln for _, ln in numbered], [i for i, _ in numbered]


def _reference_read_instance(path):
    """The per-line reader `read_instance` replaced.

    Two changes define what the old one left undefined: projection rows a
    file omits are zero instead of uninitialised, and once the instance
    validates, a repeated (e, s) index is rejected at its first repeat.
    Diagnostics name physical file lines, counting the blank ones.
    """
    lines, nos = _reference_content_lines(path)
    if not lines or not lines[0].startswith("GLHS-LC "):
        raise InstanceFormatError(f"line {nos[0] if nos else 1}: missing 'GLHS-LC' header")
    version = lines[0].split()[1]
    if int(version) != 1:
        raise InstanceFormatError(f"line {nos[0]}: unsupported version {version}")
    k = _reference_parse_ints(lines[1], nos[1], "k", 1)[0]
    nv = _reference_parse_ints(lines[2], nos[2], "vertices", 1)[0]
    m, n = _reference_parse_ints(lines[3], nos[3], "labels", 2)
    if m < n:
        raise InstanceFormatError(f"line {nos[3]}: M={m} must be at least N={n}")
    ne = _reference_parse_ints(lines[4], nos[4], "edges", 1)[0]
    expected = 5 + ne + ne * k
    if len(lines) != expected:
        raise InstanceFormatError(
            f"expected {expected} lines for {ne} edges of arity {k}, got {len(lines)}"
        )
    edges = np.empty((ne, k), dtype=np.int32)
    for e in range(ne):
        edges[e] = _reference_parse_ints(lines[5 + e], nos[5 + e], "e", k)
    proj = np.zeros((ne, k, m), dtype=np.int32)
    seen = {}
    for i in range(5 + ne, 5 + ne + ne * k):
        vals = _reference_parse_ints(lines[i], nos[i], "p", 2 + m)
        e, s = vals[0], vals[1]
        if not (0 <= e < ne and 0 <= s < k):
            raise InstanceFormatError(
                f"line {nos[i]}: projection index ({e}, {s}) out of range"
            )
        row = vals[2:]
        if any(not 0 <= t < n for t in row):
            raise InstanceFormatError(
                f"line {nos[i]}: projection value outside [0, {n})"
            )
        proj[e, s] = row
        seen.setdefault((e, s), []).append(nos[i])
    try:
        inst = LabelCoverInstance(
            k=k, num_vertices=nv, m=m, n=n, edges=edges, projections=proj
        )
    except ValueError as exc:
        raise InstanceFormatError(str(exc)) from exc
    repeats = sorted((lines_[1], es) for es, lines_ in seen.items() if len(lines_) > 1)
    if repeats:
        lineno, (e, s) = repeats[0]
        raise InstanceFormatError(f"line {lineno}: duplicate projection index ({e}, {s})")
    return inst


def _reference_read_labeling(path):
    lines, nos = _reference_content_lines(path)
    if not lines or not lines[0].startswith("GLHS-LAB "):
        raise InstanceFormatError(f"line {nos[0] if nos else 1}: missing 'GLHS-LAB' header")
    if int(lines[0].split()[1]) != 1:
        raise InstanceFormatError(f"line {nos[0]}: unsupported labeling version")
    nv = _reference_parse_ints(lines[1], nos[1], "vertices", 1)[0]
    m = _reference_parse_ints(lines[2], nos[2], "labels", 1)[0]
    assignment = _reference_parse_ints(lines[3], nos[3], "a", nv)
    return Labeling(assignment=np.asarray(assignment, dtype=np.int32), m=m)


_FUZZ_TOKENS = st.one_of(
    st.integers(-1, 6).map(str),
    st.sampled_from([
        "", "x", "1.5", "+1", "007", "1_0", "٣", "-0", "e", "p", "a", "k",
        "p0", "0p", "e0", "0e", "a0",
        "GLHS-LC", "GLHS-LAB", "1 2", "2147483648", "99999999999999999999",
    ]),
)


@st.composite
def _mangled(draw, text):
    """text after 1-3 token replacements, line splices or truncations.

    Most edits land past the 5 header lines, and most keep the line count,
    so that the edited file reaches the checks of the body lines.
    """

    def line():
        lo = 5 if draw(st.booleans()) and len(lines) > 5 else 0
        return draw(st.integers(lo, len(lines) - 1))

    lines = text.rstrip("\n").split("\n")
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["token", "replace", "swap"] * 2 + ["insert", "drop", "cut"]))
        i, j = line(), line()
        if op == "token":
            parts = lines[i].split(" ")
            parts[draw(st.integers(0, len(parts) - 1))] = draw(_FUZZ_TOKENS)
            lines[i] = " ".join(parts)
        elif op == "replace":
            lines[j] = lines[i]
        elif op == "swap":
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "insert":
            lines.insert(j, lines[i])
        elif op == "drop" and len(lines) > 1:
            del lines[i]
        elif op == "cut":
            lines = lines[:i] + [lines[i][: draw(st.integers(0, len(lines[i])))]]
    return "\n".join(lines) + "\n"


def _assert_reader_matches(read, reference, path, same):
    try:
        want = reference(path)
    except InstanceFormatError as exc:
        with pytest.raises(InstanceFormatError) as got:
            read(path)
        assert str(got.value) == str(exc)
        return
    except Exception:  # the old reader crashed; the new one must diagnose
        with pytest.raises(InstanceFormatError):
            read(path)
        return
    same(read(path), want)


def _run_cli(argv):
    """Exit code of an in-process CLI run; an escaping exception fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (code, err.getvalue())
    return code


def _same_instance(got, want):
    assert (got.k, got.num_vertices, got.m, got.n) == (
        want.k, want.num_vertices, want.m, want.n
    )
    assert np.array_equal(got.edges, want.edges)
    assert np.array_equal(got.projections, want.projections)


def _same_labeling(got, want):
    assert got.m == want.m
    assert np.array_equal(got.assignment, want.assignment)


class TestHostileFiles:
    @pytest.fixture(scope="class")
    def written(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("hostile")
        inst, lab = gen_planted_projection(6, 5, 3, 4, 2, 2, seed=3)
        write_instance(inst, str(root / "good.lc"))
        write_labeling(lab, str(root / "good.lab"))
        h = planted_disjunction(lab).as_halfspace()
        write_halfspace(h, str(root / "planted.hs"))
        return root

    @given(data=st.data())
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_instance_reader_matches_reference(self, written, data):
        path = written / "fuzz.lc"
        path.write_text(data.draw(_mangled((written / "good.lc").read_text())))
        _assert_reader_matches(read_instance, _reference_read_instance, str(path),
                               _same_instance)
        _run_cli(["verify", "smoothness", "--instance", str(path)])

    @given(data=st.data())
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_labeling_reader_matches_reference(self, written, data):
        path = written / "fuzz.lab"
        path.write_text(data.draw(_mangled((written / "good.lab").read_text())))
        _assert_reader_matches(read_labeling, _reference_read_labeling, str(path),
                               _same_labeling)
        _run_cli(["decode", "--halfspace", str(written / "planted.hs"),
                  "--instance", str(written / "good.lc"), "--trials", "2",
                  "--seed", "1", "--labeling", str(path)])

    @pytest.mark.parametrize(
        "text, message",
        [
            ("GLHS-LC 1\nk 3\n", "line 3: expected 'vertices ...', got end of file"),
            ("GLHS-LC x\n", "line 1: non-integer version 'x'"),
            ("GLHS-LC \n", "line 1: missing 'GLHS-LC' version"),
        ],
    )
    def test_short_or_bad_header(self, tmp_path, capsys, text, message):
        path = tmp_path / "short.lc"
        path.write_text(text)
        with pytest.raises(InstanceFormatError) as got:
            read_instance(str(path))
        assert str(got.value) == message
        assert main(["verify", "smoothness", "--instance", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_diagnostics_count_blank_lines(self, tmp_path):
        # the bad `e` line is physical line 7, the 6th non-blank one
        path = tmp_path / "blank.lc"
        path.write_text(
            "GLHS-LC 1\n\nk 2\nvertices 2\nlabels 2 2\nedges 1\ne 0 x\n"
            "p 0 0 0 1\np 0 1 0 1\n"
        )
        with pytest.raises(InstanceFormatError) as got:
            read_instance(str(path))
        assert str(got.value) == "line 7: non-integer field: invalid literal for int() with base 10: 'x'"
        _assert_reader_matches(read_instance, _reference_read_instance, str(path),
                               _same_instance)
        path = tmp_path / "blank.lab"
        path.write_text("\nGLHS-LAB 1\nvertices 2\n\n\nlabels 2\na 0 x\n")
        with pytest.raises(InstanceFormatError, match="^line 7: non-integer field"):
            read_labeling(str(path))
        _assert_reader_matches(read_labeling, _reference_read_labeling, str(path),
                               _same_labeling)
        path.write_text("GLHS-LAB 1\nvertices 2\nlabels 2\n\n\n")
        with pytest.raises(InstanceFormatError, match="^line 4: expected 'a ...', got end"):
            read_labeling(str(path))

    def test_short_labeling(self, tmp_path):
        path = tmp_path / "short.lab"
        path.write_text("GLHS-LAB 1\nvertices 3\nlabels 2\n")
        with pytest.raises(InstanceFormatError, match="line 4: expected 'a ...'"):
            read_labeling(str(path))

    def test_repeated_projection_line_rejected(self, tmp_path):
        inst, _ = gen_planted_unique(10, 5, 3, 4, seed=2)
        path = tmp_path / "inst.lc"
        write_instance(inst, str(path))
        lines = path.read_text().splitlines()
        # line 13 is 'p 0 2 ...'; repeat line 12 ('p 0 1 ...') in its place
        lines[12] = lines[11]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InstanceFormatError) as got:
            read_instance(str(path))
        assert str(got.value) == "line 13: duplicate projection index (0, 1)"

    def test_non_canonical_spacing_parses_like_writer_form(self, tmp_path):
        inst, _ = gen_planted_projection(9, 15, 3, 8, 4, 2, seed=21)
        path = tmp_path / "inst.lc"
        write_instance(inst, str(path))
        text = path.read_text().replace("\np 3 1 ", "\np\t3  1 ").replace("\ne ", "\ne  ", 1)
        path.write_text(text.replace("\n", "\n\n", 3))
        _same_instance(read_instance(str(path)), inst)
