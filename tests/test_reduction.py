"""Example samplers, acceptance closed forms, decoding, soundness audits."""

from dataclasses import replace
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from glhs.core import PURPOSE_DECODE, CursorRng, purpose_stream
from glhs.halfspace import (
    Disjunction,
    Halfspace,
    critical_index,
    drop_top,
    regularizing_prefix,
    top_indices,
    truncate,
)
from glhs.labelcover import (
    LabelCoverInstance,
    gen_planted_projection,
    gen_planted_unique,
    weak_mask,
)
from glhs.moments import build_pair, completeness_pair, exact_moment, marginal_pmf, moment_gap
from glhs.reduction import (
    DecoderSpec,
    collision_mass,
    decode_labeling,
    dict_test_batch,
    edge_incidence_fraction,
    edge_niceness_audit,
    lc_reduce_batch,
    non_nice_bound,
    or_acceptance_closed_form,
    planted_disjunction,
    truncation_shift,
    ug_reduce_batch,
    weak_sat_rate_of_decoder,
)
from glhs.reduction import TestSpec as Spec  # plain import trips pytest collection
from glhs.stats import binomial_sigma

SEED = 20260816


def _matched_spec(r=4, gamma=0.03125, k=12, eps="0.82", p="0.25"):
    d0, d1 = build_pair(k, eps, p)
    return Spec(d0=d0, d1=d1, r=r, gamma=gamma)


def _onesided_spec(r=2, gamma=0.25, k=3, eps="0.5", p="0.25"):
    d0, d1 = completeness_pair(k, eps, p)
    return Spec(d0=d0, d1=d1, r=r, gamma=gamma, completeness_only=True)


def _identity_unique(k, num_vertices, r):
    """One edge (0..k-1), identity bijections, optional isolated tail vertices."""
    edges = np.arange(k, dtype=np.int32)[None, :]
    proj = np.tile(np.arange(r, dtype=np.int32), (1, k, 1))
    return LabelCoverInstance(
        k=k, num_vertices=num_vertices, m=r, n=r, edges=edges, projections=proj
    )


class TestSpecValidation:
    def test_arity_mismatch(self):
        a0, _ = build_pair(12, "0.82", "0.25")
        _, b1 = build_pair(9, "0.9", "0.25")
        with pytest.raises(ValueError, match="arities differ"):
            Spec(d0=a0, d1=b1, r=1, gamma=0.0)

    def test_width_and_noise_ranges(self):
        d0, d1 = build_pair(12, "0.82", "0.25")
        with pytest.raises(ValueError, match="width"):
            Spec(d0=d0, d1=d1, r=0, gamma=0.0)
        with pytest.raises(ValueError, match="noise rate"):
            Spec(d0=d0, d1=d1, r=1, gamma=1.5)

    def test_unmatched_pair_needs_flag(self):
        d0, d1 = completeness_pair(4, "0.5", "0.25")
        with pytest.raises(ValueError, match="mismatches moments"):
            Spec(d0=d0, d1=d1, r=2, gamma=0.0)
        # arity 3 cannot even state degree-4 matching; only one-sided use works
        e0, e1 = completeness_pair(3, "0.5", "0.25")
        with pytest.raises(ValueError):
            Spec(d0=e0, d1=e1, r=2, gamma=0.0)
        spec = Spec(d0=e0, d1=e1, r=2, gamma=0.0, completeness_only=True)
        assert spec.k == 3
        assert spec.dim == 6

    def test_any_nonzero_moment_gap_is_rejected(self):
        # 10^-12 of D0's mass moves from its all-zeros component to eps1
        # (rate p = 1/4): the degree-1 moment moves by 10^-12 / 4, far below
        # any float tolerance, and is still a mismatch
        d0, d1 = build_pair(12, "0.82", "0.25")
        w = d0.weights_exact
        shift = Fraction(1, 10**12)
        bad = replace(d0, weights_exact=(w[0] - shift, w[1] + shift) + w[2:])
        assert moment_gap(bad, d1, 4) == Fraction(1, 4 * 10**12)
        with pytest.raises(ValueError, match="mismatches moments"):
            Spec(d0=bad, d1=d1, r=2, gamma=0.01)

    def test_decoder_spec_validation(self):
        assert DecoderSpec(t=2, tau=0.5).trials == 64
        with pytest.raises(ValueError, match="list size"):
            DecoderSpec(t=0, tau=0.5)
        with pytest.raises(ValueError, match="tau"):
            DecoderSpec(t=1, tau=0.0)
        with pytest.raises(ValueError, match="tau"):
            DecoderSpec(t=1, tau=1.5)
        with pytest.raises(ValueError, match="trials"):
            DecoderSpec(t=1, tau=0.5, trials=0)


class TestDictTestStream:
    def test_reruns_are_byte_identical(self):
        spec = _matched_spec()
        a_bits, a_labels = dict_test_batch(spec, SEED, 7, 0, 40)
        b_bits, b_labels = dict_test_batch(spec, SEED, 7, 0, 40)
        assert np.array_equal(a_bits, b_bits)
        assert np.array_equal(a_labels, b_labels)
        c_bits, _ = dict_test_batch(spec, SEED + 1, 7, 0, 40)
        assert not np.array_equal(a_bits, c_bits)

    def test_chunking_is_invisible(self):
        spec = _matched_spec()
        whole_bits, whole_labels = dict_test_batch(spec, SEED, 3, 0, 20)
        parts = [dict_test_batch(spec, SEED, 3, s, c) for s, c in ((0, 7), (7, 7), (14, 6))]
        assert np.array_equal(whole_bits, np.concatenate([p[0] for p in parts]))
        assert np.array_equal(whole_labels, np.concatenate([p[1] for p in parts]))

    def test_absolute_indexing(self):
        spec = _matched_spec()
        full_bits, full_labels = dict_test_batch(spec, SEED, 3, 0, 9)
        tail_bits, tail_labels = dict_test_batch(spec, SEED, 3, 5, 4)
        assert np.array_equal(tail_bits, full_bits[5:])
        assert np.array_equal(tail_labels, full_labels[5:])

    def test_single_sample_matches_batch(self):
        spec = _matched_spec()
        bits, labels = dict_test_batch(spec, SEED, 2, 6, 1)
        full_bits, full_labels = dict_test_batch(spec, SEED, 2, 0, 7)
        assert bits.shape == (1, spec.dim)
        assert bits[0].tolist() == full_bits[6].tolist()
        assert int(labels[0]) == int(full_labels[6])

    def test_label_balance(self):
        spec = _matched_spec(r=1)
        _, labels = dict_test_batch(spec, SEED, 11, 0, 4000)
        sigma = binomial_sigma(0.5, 4000)
        assert abs(labels.mean() - 0.5) <= 4.0 * sigma

    def test_empty_batch(self):
        spec = _matched_spec()
        bits, labels = dict_test_batch(spec, SEED, 0, 0, 0)
        assert bits.shape == (0, spec.dim)
        assert labels.shape == (0,)


class TestAcceptanceClosedForm:
    def test_matches_enumeration(self):
        spec = _matched_spec(r=3, gamma=0.125)
        p0 = float(marginal_pmf(spec.d0.noisy(spec.gamma), spec.k)[0])
        p1 = float(marginal_pmf(spec.d1.noisy(spec.gamma), spec.k)[0])
        want = 0.5 * p0 + 0.5 * (1.0 - p1)
        assert or_acceptance_closed_form(spec) == pytest.approx(want, rel=1e-12)

    def test_matches_empirical_or_acceptance(self):
        spec = _matched_spec(r=2, gamma=0.015625)
        n = 20000
        bits, labels = dict_test_batch(spec, SEED, 5, 0, n)
        column_or = Disjunction(
            literals=frozenset((i, 1) for i in range(spec.k)),
            rows=spec.k,
            cols=spec.r,
        )
        preds = column_or.evaluate(bits)
        rate = float((preds == labels).mean())
        want = or_acceptance_closed_form(spec)
        assert abs(rate - want) <= 4.0 * binomial_sigma(want, n)

    def test_noiseless_onesided_acceptance(self):
        # D0 is a point mass on zero: the OR is right on every b=0 example,
        # and wrong on b=1 exactly when the mixture drew its all-zero part.
        spec = _onesided_spec(r=1, gamma=0.0)
        want = or_acceptance_closed_form(spec)
        assert want == pytest.approx(0.5 + 0.5 * (1.0 - float(marginal_pmf(spec.d1, spec.k)[0])))
        n = 20000
        bits, labels = dict_test_batch(spec, SEED, 9, 0, n)
        full_or = Disjunction(
            literals=frozenset((i, 0) for i in range(spec.k)), rows=spec.k, cols=1
        )
        rate = float((full_or.evaluate(bits) == labels).mean())
        assert abs(rate - want) <= 4.0 * binomial_sigma(want, n)


class TestUniqueInstanceSampler:
    def test_identity_instance_reproduces_grid_test(self):
        spec = _matched_spec(r=4, gamma=0.03125)
        inst = _identity_unique(spec.k, spec.k, spec.r)
        g_bits, g_labels = dict_test_batch(spec, SEED, 13, 0, 64)
        u_bits, u_labels = ug_reduce_batch(inst, spec, SEED, 13, 0, 64)
        assert np.array_equal(u_bits, g_bits)
        assert np.array_equal(u_labels, g_labels)

    def test_permutation_pulls_source_columns(self):
        spec = _matched_spec(r=3, gamma=0.0, k=9, eps="0.9", p="0.25")
        perms = [list(range(3)) for _ in range(9)]
        perms[1] = [2, 0, 1]
        perms[2] = [1, 0, 2]
        proj = np.asarray(perms, dtype=np.int32)[None, :, :]
        inst = LabelCoverInstance(
            k=9, num_vertices=10, m=3, n=3,
            edges=np.arange(9, dtype=np.int32)[None, :],
            projections=proj,
        )
        count = 128
        src, _ = dict_test_batch(spec, SEED, 21, 0, count)
        src = src.reshape(count, 9, 3)
        out, _ = ug_reduce_batch(inst, spec, SEED, 21, 0, count)
        out = out.reshape(count, 10, 3)
        for s in range(9):
            for j in range(3):
                assert np.array_equal(out[:, s, j], src[:, s, perms[s][j]])
        assert not out[:, 9, :].any()  # vertex 9 sits on no edge

    def test_chunking_and_determinism(self):
        spec = _matched_spec(r=4)
        inst = _identity_unique(spec.k, spec.k + 2, spec.r)
        whole, labels = ug_reduce_batch(inst, spec, SEED, 4, 0, 30)
        parts = [ug_reduce_batch(inst, spec, SEED, 4, s, c) for s, c in ((0, 11), (11, 19))]
        assert np.array_equal(whole, np.concatenate([p[0] for p in parts]))
        assert np.array_equal(labels, np.concatenate([p[1] for p in parts]))

    def test_validation(self):
        spec = _matched_spec(r=4)
        with_proj, _ = gen_planted_projection(9, 4, 3, 8, 4, 2, seed=1)
        with pytest.raises(ValueError, match="unique"):
            ug_reduce_batch(with_proj, spec, SEED, 0, 0, 4)
        wrong_r = _identity_unique(spec.k, spec.k, 5)
        with pytest.raises(ValueError, match="label count"):
            ug_reduce_batch(wrong_r, spec, SEED, 0, 0, 4)
        wrong_k = _identity_unique(6, 6, spec.r)
        with pytest.raises(ValueError, match="arity"):
            ug_reduce_batch(wrong_k, spec, SEED, 0, 0, 4)


def _shared_source_instance():
    """Arity 3, M=4, N=2; block 0's coordinates 0 and 1 copy one source bit."""
    rows = [[0, 0, 1, 1], [0, 1, 0, 1], [1, 1, 0, 0]]
    return LabelCoverInstance(
        k=3,
        num_vertices=3,
        m=4,
        n=2,
        edges=np.array([[0, 1, 2]], dtype=np.int32),
        projections=np.asarray(rows, dtype=np.int32)[None, :, :],
    )


class TestProjectionInstanceSampler:
    def test_zero_noise_copies_are_exact(self):
        spec = _onesided_spec(r=2, gamma=0.0)
        inst = _shared_source_instance()
        bits, _ = lc_reduce_batch(inst, spec, SEED, 6, 0, 256)
        grid = bits.reshape(-1, 3, 4)
        assert np.array_equal(grid[:, 0, 0], grid[:, 0, 1])
        assert np.array_equal(grid[:, 0, 2], grid[:, 0, 3])
        assert np.array_equal(grid[:, 2, 0], grid[:, 2, 1])

    def test_copy_disagreement_rate(self):
        gamma = 0.25
        spec = _onesided_spec(r=2, gamma=gamma)
        inst = _shared_source_instance()
        n = 6000
        bits, _ = lc_reduce_batch(inst, spec, SEED, 6, 0, n)
        grid = bits.reshape(n, 3, 4)
        rate = float((grid[:, 0, 0] != grid[:, 0, 1]).mean())
        exact = gamma * (1.0 - gamma / 2.0)  # one replacement flips a copy
        assert abs(rate - exact) <= 4.0 * binomial_sigma(exact, n)

    def test_chunking_and_determinism(self):
        spec = _onesided_spec(r=2, gamma=0.25)
        inst, _ = gen_planted_projection(5, 6, 3, 4, 2, 2, seed=3)
        whole, labels = lc_reduce_batch(inst, spec, SEED, 8, 0, 25)
        parts = [lc_reduce_batch(inst, spec, SEED, 8, s, c) for s, c in ((0, 9), (9, 16))]
        assert np.array_equal(whole, np.concatenate([p[0] for p in parts]))
        assert np.array_equal(labels, np.concatenate([p[1] for p in parts]))
        again, _ = lc_reduce_batch(inst, spec, SEED, 8, 0, 25)
        assert np.array_equal(whole, again)

    def test_nonincident_blocks_stay_zero(self):
        spec = _onesided_spec(r=2, gamma=0.25)
        rows = [[0, 0, 1, 1], [0, 1, 0, 1], [1, 1, 0, 0]]
        inst = LabelCoverInstance(
            k=3, num_vertices=5, m=4, n=2,
            edges=np.array([[0, 1, 2]], dtype=np.int32),
            projections=np.asarray(rows, dtype=np.int32)[None, :, :],
        )
        bits, _ = lc_reduce_batch(inst, spec, SEED, 2, 0, 200)
        grid = bits.reshape(-1, 5, 4)
        assert not grid[:, 3:, :].any()

    def test_validation(self):
        spec = _onesided_spec(r=2)
        wrong_n, _ = gen_planted_projection(5, 4, 3, 6, 3, 2, seed=0)
        with pytest.raises(ValueError, match="label count"):
            lc_reduce_batch(wrong_n, spec, SEED, 0, 0, 4)
        wrong_k, _ = gen_planted_projection(5, 4, 4, 4, 2, 2, seed=0)
        with pytest.raises(ValueError, match="arity"):
            lc_reduce_batch(wrong_k, spec, SEED, 0, 0, 4)


class TestOutBuffer:
    """A sampler given `out` writes its bits there, over whatever it held;
    called without one it returns a fresh array (see the chunking tests)."""

    def _draw(self, kind):
        if kind == "dict":
            spec = _matched_spec(r=4)
            return lambda **kw: dict_test_batch(spec, SEED, 3, 5, 17, **kw)
        if kind == "ug":
            spec = _matched_spec(r=4)
            inst = _identity_unique(spec.k, spec.k + 2, spec.r)
            return lambda **kw: ug_reduce_batch(inst, spec, SEED, 4, 5, 17, **kw)
        spec = _onesided_spec(r=2, gamma=0.25)
        inst, _ = gen_planted_projection(5, 6, 3, 4, 2, 2, seed=3)
        return lambda **kw: lc_reduce_batch(inst, spec, SEED, 8, 5, 17, **kw)

    @pytest.mark.parametrize("kind", ["dict", "ug", "lc"])
    def test_out_holds_the_same_bits(self, kind):
        draw = self._draw(kind)
        fresh, labels = draw()
        n, dim = fresh.shape
        # the bytes of an earlier chunk: the rows of a larger buffer, as the
        # stream writers pass them
        out = np.full((n + 3, dim), 7, dtype=np.uint8)[:n]
        bits, again = draw(out=out)
        assert np.shares_memory(bits, out)
        assert np.array_equal(out, fresh)
        assert np.array_equal(bits, fresh) and np.array_equal(again, labels)
        with pytest.raises(ValueError):
            draw(out=np.zeros((n, dim + 1), dtype=np.uint8))


class TestPlantedDisjunction:
    def test_literals_follow_the_labeling(self):
        inst, lab = gen_planted_unique(8, 6, 3, 4, seed=10)
        dis = planted_disjunction(lab)
        assert dis.rows == 8 and dis.cols == 4
        assert dis.literals == frozenset(
            (v, int(lab.assignment[v])) for v in range(8)
        )


def _randint_decoder(h, spec, master_seed, stream_id, trial=0):
    """The per-vertex decoder loop, one `randint` per vertex, as a reference."""
    rng = CursorRng(
        master_seed, purpose_stream(stream_id, PURPOSE_DECODE), index=trial * h.rows
    )
    labels = np.empty(h.rows, dtype=np.int32)
    for v in range(h.rows):
        block = h.block(v)
        if not np.any(block):
            labels[v] = rng.randint(h.cols)
        else:
            tops = top_indices(block, min(spec.t, h.cols))
            labels[v] = tops[rng.randint(tops.size)]
    return labels


class TestDecoder:
    @pytest.mark.parametrize("t", [1, 2, 3, 9])
    def test_draws_match_the_randint_loop(self, t):
        # zero blocks, ties, and t at, below and above the alphabet size 7
        inst, _ = gen_planted_projection(12, 30, 3, 7, 4, 2, seed=2)
        grid = np.random.RandomState(t).standard_normal((12, 7))
        grid[[1, 5]] = 0.0
        grid[3] = np.round(grid[3])
        h = Halfspace.from_grid(grid, 0.0)
        spec = DecoderSpec(t=t, tau=0.5, trials=40)
        weak = 0
        for trial in range(spec.trials):
            want = _randint_decoder(h, spec, SEED, 4, trial)
            got = decode_labeling(h, spec, SEED, 4, trial=trial)
            assert got.assignment.dtype == np.int32
            assert np.array_equal(got.assignment, want)
            weak += int(weak_mask(inst, got).sum())
        report = weak_sat_rate_of_decoder(h, spec, inst, SEED, stream_id=4)
        assert report.weak_rate == weak / (spec.trials * inst.num_edges)

    def _hand_halfspace(self):
        grid = np.array(
            [
                [0.1, 3.0, 0.2, 0.1],
                [5.0, 0.1, 0.1, 0.1],
                [0.0, 0.0, 0.0, 0.0],
            ]
        )
        return Halfspace.from_grid(grid, 1.0)

    def test_top1_is_the_argmax(self):
        h = self._hand_halfspace()
        spec = DecoderSpec(t=1, tau=0.5, trials=4)
        lab = decode_labeling(h, spec, SEED, 0, trial=0)
        assert lab.assignment[0] == 1
        assert lab.assignment[1] == 0
        assert 0 <= lab.assignment[2] < 4

    def test_zero_block_falls_back_to_uniform(self):
        h = self._hand_halfspace()
        spec = DecoderSpec(t=1, tau=0.5, trials=4)
        seen = {
            int(decode_labeling(h, spec, SEED, 0, trial=t).assignment[2])
            for t in range(64)
        }
        assert len(seen) > 1
        assert seen <= set(range(4))

    def test_trials_are_reproducible_and_distinct(self):
        h = self._hand_halfspace()
        spec = DecoderSpec(t=2, tau=0.5, trials=4)
        one = decode_labeling(h, spec, SEED, 0, trial=3)
        two = decode_labeling(h, spec, SEED, 0, trial=3)
        assert np.array_equal(one.assignment, two.assignment)
        draws = [
            tuple(decode_labeling(h, spec, SEED, 0, trial=t).assignment.tolist())
            for t in range(32)
        ]
        assert len(set(draws)) > 1

    def test_planted_one_hot_decodes_to_weak_rate_one(self):
        inst, lab = gen_planted_unique(8, 12, 3, 4, seed=4)
        grid = np.zeros((8, 4))
        grid[np.arange(8), lab.assignment] = 1.0
        h = Halfspace.from_grid(grid, 0.5)
        spec = DecoderSpec(t=1, tau=0.5, trials=8)
        report = weak_sat_rate_of_decoder(h, spec, inst, SEED)
        assert report.weak_rate == 1.0
        assert report.trials == 8
        assert report.edges == 12

    def test_grid_shape_must_match(self):
        inst, _ = gen_planted_unique(8, 12, 3, 4, seed=4)
        h = Halfspace.from_grid(np.zeros((7, 4)), 0.0)
        with pytest.raises(ValueError, match="does not match"):
            weak_sat_rate_of_decoder(h, DecoderSpec(t=1, tau=0.5), inst, SEED)


def _weak_probability_oracle(inst, h, t, edge):
    """Enumerate decoder draws over the edge's distinct vertices."""
    verts = [int(v) for v in inst.edges[edge]]
    distinct = sorted(set(verts))
    cands = {}
    for v in distinct:
        block = h.block(v)
        if not np.any(block):
            cands[v] = list(range(h.cols))
        else:
            order = np.argsort(-np.abs(block), kind="stable")
            cands[v] = [int(i) for i in order[: min(t, h.cols)]]
    proj = inst.projections[edge]
    hits = total = 0
    for combo in product(*(cands[v] for v in distinct)):
        chosen = dict(zip(distinct, combo))
        projected = [int(proj[s, chosen[verts[s]]]) for s in range(inst.k)]
        total += 1
        hits += any(
            projected[s] == projected[u] and verts[s] != verts[u]
            for s in range(inst.k)
            for u in range(s + 1, inst.k)
        )
    return hits / total


class TestEdgeWeakProbability:
    def test_against_enumeration_oracle(self):
        # the decoder's per-edge weak-satisfaction rate tracks the exact
        # probability over its candidate sets
        inst, _ = gen_planted_unique(6, 5, 3, 3, seed=2)
        rnd = np.random.RandomState(0)
        h = Halfspace.from_grid(rnd.standard_normal((6, 3)), 0.0)
        trials = 1000
        for t in (1, 2, 3):
            spec = DecoderSpec(t=t, tau=0.5, trials=trials)
            hits = sum(
                weak_mask(inst, decode_labeling(h, spec, SEED, 4, trial=n)).astype(np.int64)
                for n in range(trials)
            )
            for edge in range(inst.num_edges):
                want = _weak_probability_oracle(inst, h, t, edge)
                assert abs(hits[edge] / trials - want) <= 4.0 * binomial_sigma(want, trials)
            report = weak_sat_rate_of_decoder(h, spec, inst, SEED, stream_id=4)
            assert report.weak_rate == hits.sum() / (trials * inst.num_edges)

    def test_repeated_vertex_pairs_do_not_count(self):
        proj = np.tile(np.arange(3, dtype=np.int32), (1, 3, 1))
        inst = LabelCoverInstance(
            k=3, num_vertices=2, m=3, n=3,
            edges=np.array([[0, 0, 1]], dtype=np.int32),
            projections=proj,
        )
        spec = DecoderSpec(t=1, tau=0.5, trials=4)
        grid = np.zeros((2, 3))
        grid[0, 1] = 1.0
        grid[1, 1] = 1.0  # same top label, distinct vertices: always weak
        h = Halfspace.from_grid(grid, 0.5)
        assert weak_sat_rate_of_decoder(h, spec, inst, SEED).weak_rate == 1.0
        grid2 = np.zeros((2, 3))
        grid2[0, 1] = 1.0
        grid2[1, 2] = 1.0  # tops disagree: never weak
        h2 = Halfspace.from_grid(grid2, 0.5)
        assert weak_sat_rate_of_decoder(h2, spec, inst, SEED).weak_rate == 0.0


def _niceness_value(w, tau, proj, n):
    """The audit's value for one block: the collision mass of its regular part."""
    rep = critical_index(w, tau)
    return float(collision_mass(drop_top(w, rep.order, rep.prefix_size), proj, n))


def _oracle_niceness_value(w_v, tau, proj_row, n):
    """The former per-block value: prefix trimmed by truncate, sums by bincount."""
    prefix = regularizing_prefix(w_v, tau)
    l = w_v - truncate(w_v, prefix)
    norm2 = float(l @ l)
    if norm2 <= 0.0:
        return 0.0
    sums = np.bincount(proj_row, weights=np.abs(l), minlength=n)
    return float(np.sum(sums**4)) / (norm2 * norm2)


def _oracle_edge_niceness_audit(inst, h, tau, beta):
    """The former audit: one value per (edge, slot), cached per (vertex, row)."""
    values = {}
    nice_edges = 0
    for e in range(inst.num_edges):
        ok = True
        for s in range(inst.k):
            v = int(inst.edges[e, s])
            key = (v, inst.projections[e, s].tobytes())
            if key not in values:
                values[key] = _oracle_niceness_value(
                    h.block(v), tau, inst.projections[e, s], inst.n
                )
            if values[key] > beta:
                ok = False
                break
        nice_edges += ok
    return nice_edges / inst.num_edges


class TestNiceness:
    def test_hand_value_regular_vector(self):
        # three equal magnitudes are 0.8-regular, so nothing is trimmed
        w = np.array([1.0, 1.0, 1.0])
        proj = np.array([0, 0, 1])
        val = _niceness_value(w, 0.8, proj, 2)
        assert val == pytest.approx((2.0**4 + 1.0) / 9.0)

    def test_bijective_projection_of_regular_part_is_tau_squared_nice(self):
        rnd = np.random.RandomState(3)
        tau = 0.5
        for _ in range(25):
            w = rnd.standard_normal(12)
            proj = rnd.permutation(12).astype(np.int64)
            prefix = regularizing_prefix(w, tau)
            l = w - truncate(w, prefix)
            val = _niceness_value(w, tau, proj, 12)
            if float(l @ l) == 0.0:
                assert val == 0.0
            else:
                assert val <= tau * tau + 1e-12

    def test_prefix_is_removed_before_scoring(self):
        # one dominant head coordinate; the value must reflect the tail only
        w = np.array([100.0, 1.0, 1.0, 1.0])
        proj = np.array([0, 0, 0, 1])
        prefix = regularizing_prefix(w, 0.8)
        l = w - truncate(w, prefix)
        sums = np.bincount(proj, weights=np.abs(l), minlength=2)
        want = float((sums**4).sum()) / float(l @ l) ** 2
        assert _niceness_value(w, 0.8, proj, 2) == pytest.approx(want)
        assert _niceness_value(w, 0.8, proj, 2) < _niceness_value(
            np.array([1.0, 1.0, 1.0, 1.0]), 0.8, proj, 2
        )

    def test_zero_tail_scores_zero(self):
        w = np.array([5.0, 0.0, 0.0])
        assert _niceness_value(w, 0.9, np.array([0, 1, 1]), 2) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            collision_mass(np.ones(3), np.array([0, 1]), 2)

    def test_edge_audit_counts_fully_nice_edges(self):
        # vertex 0 is collapsed by an all-to-one row; vertices 1, 2 spread out
        rows_bad = [[0, 0, 0, 0], [0, 1, 2, 3], [0, 1, 2, 3]]
        rows_good = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1]]
        inst = LabelCoverInstance(
            k=3, num_vertices=3, m=4, n=4,
            edges=np.array([[0, 1, 2], [0, 1, 2]], dtype=np.int32),
            projections=np.asarray([rows_bad, rows_good], dtype=np.int32),
        )
        h = Halfspace.from_grid(np.full((3, 4), 1.0), 0.0)
        tau = 0.9
        beta = 0.5  # equal weights: bijective rows score 4/16, all-to-one scores 16
        frac = edge_niceness_audit(inst, h, tau, beta)
        assert frac == 0.5
        vals = [
            _niceness_value(h.block(0), tau, np.asarray(r), 4)
            for r in (rows_bad[0], rows_good[0])
        ]
        assert vals[0] > beta >= vals[1]

    @pytest.mark.parametrize("tau", [0.25, 0.5, 0.8])
    def test_batched_audit_matches_the_per_edge_oracle(self, tau):
        # the acceptance-test instance and weights, plus decaying, zero and
        # tied blocks
        inst, _ = gen_planted_projection(10, 40, 3, 8, 4, 2, seed=1111)
        grid = np.asarray(CursorRng(1111, 1).uniforms(10 * 8)).reshape(10, 8) - 0.5
        grid[1] *= np.geomspace(1.0, 1e-4, 8)
        grid[2] = 0.0
        grid[3] = np.round(grid[3] * 3.0)
        h = Halfspace.from_grid(grid, 0.0)
        rep = critical_index(grid, tau)
        values = collision_mass(
            drop_top(grid, rep.order, rep.prefix_size)[inst.edges], inst.projections, inst.n
        )
        for e, s in product(range(inst.num_edges), range(inst.k)):
            want = _oracle_niceness_value(
                h.block(int(inst.edges[e, s])), tau, inst.projections[e, s], inst.n
            )
            assert values[e, s] == want
        for beta in (0.3, 0.5, 1.0, 1.5, 2.0):
            got = edge_niceness_audit(inst, h, tau, beta)
            assert got == _oracle_edge_niceness_audit(inst, h, tau, beta)

    def test_edge_audit_shape_check(self):
        inst, _ = gen_planted_unique(6, 5, 3, 3, seed=2)
        with pytest.raises(ValueError, match="does not match"):
            edge_niceness_audit(inst, Halfspace.from_grid(np.zeros((5, 3)), 0.0), 0.5, 1.0)

    def test_non_nice_bound_formula(self):
        assert non_nice_bound(64, 2, 1e9) == pytest.approx(64 * 2.0**16 / 1e9)


class TestTruncationShift:
    def test_full_list_is_identity(self):
        spec = _matched_spec(r=3, gamma=0.125, k=9, eps="0.9", p="0.25")
        inst = _identity_unique(9, 9, 3)
        h = Halfspace.from_grid(np.arange(27, dtype=np.float64).reshape(9, 3), 4.0)
        out, shift = truncation_shift(h, 2, t=3, inst=inst, spec=spec)
        assert shift == 0.0
        assert out.theta == h.theta
        assert np.array_equal(out.grid(), h.grid())

    def test_shift_closed_form(self):
        spec = _matched_spec(r=3, gamma=0.125, k=9, eps="0.9", p="0.25")
        inst = _identity_unique(9, 9, 3)
        grid = np.ones((9, 3))
        grid[0] = [4.0, 2.0, 1.0]
        h = Halfspace.from_grid(grid, 2.0)
        out, shift = truncation_shift(h, 0, t=2, inst=inst, spec=spec)
        m1 = exact_moment(spec.d0, [0])
        want = 1.0 * ((1.0 - spec.gamma) * m1 + spec.gamma / 2.0) * 1.0
        assert shift == pytest.approx(want)
        assert out.theta == pytest.approx(2.0 - want)
        assert out.block(0).tolist() == [4.0, 2.0, 0.0]
        assert np.array_equal(out.grid()[1:], grid[1:])

    def test_partial_incidence_scales_the_shift(self):
        spec = _matched_spec(r=3, gamma=0.125, k=9, eps="0.9", p="0.25")
        edges = np.vstack([np.arange(9), np.arange(1, 10)]).astype(np.int32)
        proj = np.tile(np.arange(3, dtype=np.int32), (2, 9, 1))
        inst = LabelCoverInstance(
            k=9, num_vertices=10, m=3, n=3, edges=edges, projections=proj
        )
        assert edge_incidence_fraction(inst, 0) == 0.5
        assert edge_incidence_fraction(inst, 5) == 1.0
        grid = np.ones((10, 3))
        grid[0] = [4.0, 2.0, 1.0]
        h = Halfspace.from_grid(grid, 2.0)
        _, shift = truncation_shift(h, 0, t=2, inst=inst, spec=spec)
        m1 = exact_moment(spec.d0, [0])
        assert shift == pytest.approx(0.5 * ((1.0 - spec.gamma) * m1 + spec.gamma / 2.0))

    def test_vertex_bounds(self):
        spec = _matched_spec(r=3, gamma=0.125, k=9, eps="0.9", p="0.25")
        inst = _identity_unique(9, 9, 3)
        h = Halfspace.from_grid(np.ones((9, 3)), 0.0)
        with pytest.raises(IndexError):
            truncation_shift(h, 9, t=1, inst=inst, spec=spec)
