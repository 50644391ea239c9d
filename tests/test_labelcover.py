"""Constraint instances: planted generators, satisfaction, structural audits."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glhs.core import GuardError
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
