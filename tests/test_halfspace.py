"""Halfspaces, disjunctions, and magnitude-tail structure."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from glhs.halfspace import (
    _BLOCK_CELLS,
    CriticalIndexReport,
    DecayCheck,
    Disjunction,
    Halfspace,
    _decay_chain,
    check_geometric_decay,
    critical_index,
    drop_top,
    exact_margins,
    read_halfspace,
    regularizing_prefix,
    top_indices,
    truncate,
    write_halfspace,
)

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
# multiples of 1/5: fl(k/5) is inexact, so float sums of such weights round
# onto a threshold on the same lattice far more often than arbitrary floats
lattice_floats = st.integers(-12, 12).map(lambda k: k / 5.0)


def _fraction_sign(w, theta, bits):
    """Oracle: 1 iff the sum of Fraction(w_i) over set bits >= Fraction(theta)."""
    return [int(sum((Fraction(float(v)) for v, b in zip(w, row) if b), Fraction(0))
                >= Fraction(float(theta))) for row in bits]


def _oracle_critical_index(w, tau):
    """Direct restatement: first 1-based sorted position with |w| <= tau * tail norm."""
    order = sorted(range(len(w)), key=lambda i: (-abs(w[i]), i))
    mags = [abs(w[i]) for i in order]
    for t in range(len(w)):
        tail = math.hypot(*mags[t:])
        if mags[t] <= tau * tail:
            return t + 1
    return math.inf


def _oracle_suffix_norms(mags):
    """The former per-element dnrm2-style loop over one sorted row."""
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


def _oracle_decay_chain(mags, tails, tau, limit, third_limit, slack):
    """The former pair loops of check_geometric_decay over one sorted row."""
    decay = math.sqrt(max(0.0, 1.0 - tau * tau))
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


def sgn(t: float) -> int:
    """The global sign convention: 1 iff t >= 0, else -1."""
    return 1 if t >= 0 else -1


class TestSgn:
    def test_zero_maps_to_plus_one(self):
        assert sgn(0.0) == 1
        assert sgn(1e-300) == 1
        assert sgn(-1e-300) == -1

    def test_evaluate_follows_the_convention(self):
        # margins <w, x> - theta of 0, 0, -1e-300 and +1e-300
        h = Halfspace.from_grid(np.array([[1.0, -1.0]]), 0.0)
        bits = np.array([[0, 0], [1, 1]], dtype=np.uint8)
        assert h.evaluate(bits).tolist() == [(sgn(0.0) + 1) // 2] * 2
        for theta in (1e-300, -1e-300):
            got = Halfspace.from_grid(np.zeros((1, 2)), theta).evaluate(bits[:1])
            assert got.tolist() == [(sgn(-theta) + 1) // 2]


class TestHalfspace:
    def test_grid_roundtrip(self):
        grid = np.arange(12, dtype=np.float64).reshape(3, 4)
        h = Halfspace.from_grid(grid, theta=1.5)
        assert h.rows == 3 and h.cols == 4 and h.dim == 12
        assert np.array_equal(h.grid(), grid)
        assert np.array_equal(h.block(1), grid[1])

    def test_weights_are_readonly(self):
        h = Halfspace.from_grid(np.ones((2, 2)), theta=0.0)
        with pytest.raises(ValueError):
            h.weights[0] = 5.0

    @given(
        st.one_of(
            hnp.arrays(np.float64, st.integers(1, 16), elements=finite_floats),
            hnp.arrays(np.float64, st.integers(1, 16), elements=lattice_floats),
        ),
        st.one_of(finite_floats, lattice_floats),
        st.integers(0, 2**32),
    )
    @settings(max_examples=60, deadline=None)
    def test_evaluate_is_the_margin_sign(self, w, theta, seed):
        h = Halfspace(weights=w, theta=theta, rows=1, cols=w.size)
        bits = np.random.default_rng(seed).integers(0, 2, size=(8, w.size), dtype=np.uint8)
        margins = exact_margins(bits, h.weights, h.theta)
        evals = h.evaluate(bits)
        assert np.allclose(margins, bits @ w - theta)
        assert np.array_equal(evals, (margins >= 0).astype(np.uint8))
        assert evals.tolist() == _fraction_sign(w, theta, bits)

    @given(
        hnp.arrays(np.float64, st.integers(1, 30), elements=lattice_floats),
        st.integers(-30, 30),
        st.integers(0, 2**32),
    )
    @settings(max_examples=60, deadline=None)
    def test_lattice_ties_match_the_fraction_oracle(self, w, k, seed):
        # theta = k/5 on the weights' lattice: exact ties and float sums that
        # round onto theta are both common
        theta = k / 5.0
        bits = np.random.default_rng(seed).integers(0, 2, size=(64, w.size), dtype=np.uint8)
        margins = exact_margins(bits, w, theta)
        assert (margins >= 0).astype(int).tolist() == _fraction_sign(w, theta, bits)
        # the sign is exact at zero too, so `<= 0` is the mirrored exact test
        assert (margins <= 0).astype(int).tolist() == _fraction_sign(-w, -theta, bits)
        # several thresholds share one product, each decided as on its own
        both = exact_margins(bits, w, (theta, theta + 0.2))
        assert np.array_equal(both, [margins, exact_margins(bits, w, theta + 0.2)])

    def test_margin_accepts_single_row(self):
        h = Halfspace.from_grid(np.array([[1.0, -1.0]]), theta=0.0)
        assert int(h.evaluate(np.array([1, 0], dtype=np.uint8))) == 1
        assert int(h.evaluate(np.array([0, 1], dtype=np.uint8))) == 0


def _gemv_reference(h, bits):
    """The former evaluation: one float64 copy of the batch and one gemv."""
    m = np.asarray(bits, dtype=np.float64) @ h.weights - h.theta
    return (m >= 0).astype(np.uint8)


def _sparse_rows(n, dim, seed):
    """Rows with at most 48 set bits."""
    rnd = np.random.RandomState(seed)
    bits = np.zeros((n, dim), dtype=np.uint8)
    for i, c in enumerate(rnd.randint(0, min(48, dim) + 1, size=n)):
        bits[i, rnd.choice(dim, c, replace=False)] = 1
    return bits


class TestBlockedEvaluation:
    """Blocked evaluation against the whole-batch gemv it replaced."""

    # one row, one block plus one row, and 3.5 blocks (64 rows each)
    @pytest.mark.parametrize("n", [1, _BLOCK_CELLS // 4096 + 1, 224])
    def test_all_ones_weights_with_ties(self, n):
        # 64x64 majority at an integer threshold: many margins are exactly 0
        h = Halfspace.from_grid(np.ones((64, 64)), 2048.0)
        rnd = np.random.RandomState(n)
        bits = rnd.randint(0, 2, size=(n, h.dim)).astype(np.uint8)
        bits[::2, :2048] = 1
        bits[::2, 2048:] = 0
        got = h.evaluate(bits)
        assert np.array_equal(got, _gemv_reference(h, bits))
        assert got[::2].all()

    # dim 3200: 81 rows per block
    @pytest.mark.parametrize("n", [1, _BLOCK_CELLS // 3200 + 1, 1000])
    def test_normal_weights_on_sparse_rows(self, n):
        rnd = np.random.RandomState(11)
        h = Halfspace.from_grid(rnd.standard_normal((200, 16)), 0.37)
        bits = _sparse_rows(n, h.dim, seed=n)
        assert np.array_equal(h.evaluate(bits), _gemv_reference(h, bits))
        assert np.allclose(exact_margins(bits, h.weights, h.theta), bits @ h.weights - h.theta)

    def test_row_wider_than_the_block(self):
        dim = _BLOCK_CELLS + 5
        rnd = np.random.RandomState(12)
        h = Halfspace.from_grid(rnd.standard_normal((1, dim)), 0.0)
        bits = (rnd.random_sample((3, dim)) < 0.3).astype(np.uint8)
        assert np.array_equal(h.evaluate(bits), _gemv_reference(h, bits))

    def test_single_row(self):
        rnd = np.random.RandomState(13)
        h = Halfspace.from_grid(rnd.standard_normal((8, 4)), -0.2)
        bits = _sparse_rows(20, h.dim, seed=13)
        for row, want in zip(bits, _gemv_reference(h, bits).tolist()):
            got = h.evaluate(row)
            assert got.shape == () and int(got) == want

    def test_cancellation_is_decided_exactly(self):
        # exact margin 2^53 + 1 - 2^53 - 1/2 = 1/2; adding left to right in
        # float64 loses the 1 and reads -1/2
        h = Halfspace.from_grid(np.array([[2.0**53, 1.0, -(2.0**53)]]), 0.5)
        ones = np.ones(3, dtype=np.uint8)
        assert int(h.evaluate(ones)) == 1
        assert h.evaluate(np.tile(ones, (5, 1))).tolist() == [1] * 5
        assert exact_margins(ones, h.weights, h.theta) == 0.5


class TestDisjunction:
    def test_literals_are_positional(self):
        d = Disjunction(literals=frozenset({(0, 1), (2, 0)}), rows=3, cols=2)
        assert d.dim == 6
        assert sorted(d.flat_indices().tolist()) == [1, 4]

    @given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_disjunction_equals_its_halfspace_form(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        n_lits = int(rng.integers(1, rows * cols + 1))
        lits = set()
        while len(lits) < n_lits:
            lits.add((int(rng.integers(rows)), int(rng.integers(cols))))
        d = Disjunction(literals=frozenset(lits), rows=rows, cols=cols)
        bits = rng.integers(0, 2, size=(32, rows * cols), dtype=np.uint8)
        want = bits[:, d.flat_indices()].any(axis=1).astype(np.uint8)
        assert np.array_equal(d.evaluate(bits), want)
        assert np.array_equal(d.as_halfspace().evaluate(bits), want)

    def test_empty_disjunction_rejects_everything(self):
        d = Disjunction(literals=frozenset(), rows=2, cols=2)
        bits = np.ones((3, 4), dtype=np.uint8)
        assert d.evaluate(bits).tolist() == [0, 0, 0]


class TestCriticalIndex:
    def test_regular_vector(self):
        # 4 equal weights: |w|/sigma = 1/2 <= tau at the first position
        rep = critical_index([1.0, 1.0, 1.0, 1.0], tau=0.5)
        assert rep.c_tau == 1
        assert rep.is_regular

    def test_single_spike_is_never_regular(self):
        rep = critical_index([5.0], tau=0.5)
        assert rep.c_tau == math.inf

    def test_known_mixed_vector(self):
        w = [8.0, 1.0, 1.0, 1.0, 1.0]
        # position 1: 8/sqrt(68) = 0.97 > 0.5; position 2: 1/2 <= 0.5
        rep = critical_index(w, tau=0.5)
        assert rep.c_tau == 2
        assert rep.order[0] == 0

    @given(
        hnp.arrays(
            np.float64,
            st.integers(1, 24),
            elements=st.floats(min_value=-100, max_value=100, allow_nan=False),
        ),
        st.floats(min_value=0.05, max_value=1.0),
    )
    # a near-tie: the running tail norm rounds up to 1.0, math.hypot does not
    @example(np.array([0.0, 0.0] + [1 / 3] * 9), 1 / 3)
    @settings(max_examples=120, deadline=None)
    def test_matches_direct_restatement(self, w, tau):
        assert critical_index(w, tau).c_tau == _oracle_critical_index(w.tolist(), tau)

    @given(
        hnp.arrays(
            np.float64,
            st.integers(1, 16),
            elements=st.floats(
                min_value=-100, max_value=100, allow_nan=False, allow_subnormal=False
            ),
        ),
        st.floats(min_value=0.05, max_value=1.0),
        st.floats(min_value=0.01, max_value=1000),
    )
    @example(np.array([1e-170, -1e-170, 1e-170]), 0.9, 0.5)
    @example(np.array([9e200, 3e200, 1e200]), 0.3, 0.5)
    @settings(max_examples=60, deadline=None)
    def test_scale_invariance(self, w, tau, scale):
        # scaling must keep every nonzero entry a normal float: a subnormal
        # that underflows to zero changes the vector, not just its scale
        scaled = w * scale
        tiny = np.finfo(np.float64).tiny
        for v in (w, scaled):
            assume(np.all((v == 0) | (np.abs(v) >= tiny)))
        assume(np.array_equal(w == 0, scaled == 0))
        assert critical_index(w, tau).c_tau == critical_index(scaled, tau).c_tau

    def test_zero_vector_is_regular(self):
        assert critical_index(np.zeros(5), tau=0.3).c_tau == 1

    def test_tail_norms_are_suffix_norms(self):
        w = np.array([3.0, -4.0, 12.0])
        rep = critical_index(w, tau=0.2)
        mags = np.abs(w[rep.order])
        for t in range(3):
            assert rep.tail_norms[t] == pytest.approx(
                math.sqrt((mags[t:] ** 2).sum())
            )

    def test_rejects_bad_tau(self):
        with pytest.raises(ValueError):
            critical_index([1.0], tau=0.0)
        with pytest.raises(ValueError):
            critical_index([1.0], tau=1.5)


# rows that tend to tie: a few repeated magnitudes, zeros and their negatives
_tie_prone = st.sampled_from([0.0, 1.0, -1.0, 0.5, -0.5, 1.0 / 3.0, -1.0 / 3.0, 0.25])
_row_entries = st.one_of(
    st.floats(min_value=-100, max_value=100, allow_nan=False, allow_subnormal=False),
    _tie_prone,
)


def _matrices(max_dim=24):
    return hnp.arrays(
        np.float64,
        st.tuples(st.integers(1, 5), st.integers(0, max_dim)),
        elements=_row_entries,
    )


class TestRowForm:
    """The (count, dim) row form against the former per-vector loops."""

    @given(_matrices(), st.floats(min_value=0.05, max_value=1.0))
    @example(np.zeros((3, 0)), 0.3)
    @example(np.array([[2.0], [0.0], [-1e-170]]), 0.5)
    @example(
        np.array([[0.0, 0.0, 0.0], [1e-170, -1e-170, 1e-170], [9e200, 3e200, 1e200]]), 0.9
    )
    @example(np.array([[0.0, 0.0] + [1 / 3] * 9, [1 / 3] * 11]), 1 / 3)
    @settings(max_examples=60, deadline=None)
    def test_rows_match_the_per_vector_oracles(self, w, tau):
        count, dim = w.shape
        rep = critical_index(w, tau)
        assert rep.c_tau.shape == (count,)
        assert rep.order.shape == rep.tail_norms.shape == (count, dim)
        limit = np.minimum(rep.prefix_size, max(dim - 1, 0))
        checks = check_geometric_decay(w, tau, limit)
        assert len(checks) == count
        for r, row in enumerate(w):
            want_c = _oracle_critical_index(row.tolist(), tau) if dim else 1
            assert rep.c_tau[r] == want_c
            order = sorted(range(dim), key=lambda i: (-abs(row[i]), i))
            assert rep.order[r].tolist() == order
            # the running norm squares each ratio as r * r where the loop
            # used libm's pow; they differ by a few ulps at most, well inside
            # the 4(n+4) eps within which critical_index redoes a tie exactly
            want_tails = _oracle_suffix_norms(np.abs(row[order]))
            bound = 4.0 * (dim + 4) * np.finfo(np.float64).eps * want_tails
            assert np.all(np.abs(rep.tail_norms[r] - want_tails) <= bound)
            # one row alone gives the same report and check as in the batch
            one = critical_index(row, tau)
            assert one.c_tau == rep.c_tau[r]
            assert np.array_equal(one.order, rep.order[r])
            assert np.array_equal(one.tail_norms, rep.tail_norms[r])
            if dim:
                assert check_geometric_decay(row, tau, int(limit[r])) == checks[r]
            third = min(int(limit[r]) + 1, dim, int(rep.prefix_size[r]))
            assert checks[r] == _oracle_decay_chain(
                np.abs(row[order]), rep.tail_norms[r], tau,
                min(int(limit[r]) + 1, dim), third, 1.0 + 1e-9,
            )

    @given(
        hnp.arrays(
            np.float64,
            st.tuples(st.integers(1, 6), st.integers(0, 16)),
            elements=st.floats(min_value=0.0, max_value=10.0, allow_subnormal=False),
        ),
        st.data(),
        st.floats(min_value=0.05, max_value=1.0),
        st.floats(min_value=0.5, max_value=12.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_chain_matches_the_pair_loops_on_any_rows(self, mags, data, tau, slack):
        # arbitrary (mags, tails) pairs, so every link can fail
        count, dim = mags.shape
        tails = data.draw(
            hnp.arrays(np.float64, mags.shape,
                       elements=st.floats(min_value=0.0, max_value=10.0,
                                          allow_subnormal=False))
        )
        limit = np.asarray(data.draw(st.lists(st.integers(0, dim), min_size=count,
                                              max_size=count)), dtype=np.int64)
        third = np.asarray([data.draw(st.integers(0, int(l))) for l in limit], dtype=np.int64)
        got = _decay_chain(mags, tails, tau, limit, third, slack)
        for r in range(count):
            want = _oracle_decay_chain(mags[r], tails[r], tau, limit[r], third[r], slack)
            assert got[r] == want

    def test_each_link_fails_as_in_the_pair_loops(self):
        tau = 1.0 / 3.0
        decay = math.sqrt(1.0 - tau * tau)
        geometric = np.array([decay**t for t in range(42)])
        link4 = 0.05 * geometric
        link4[41] = 0.5
        rows = [
            # |w_(j)| above sigma_j
            (np.array([2.0, 1.0] + [0.0] * 40), np.ones(42), 1.0 + 1e-9),
            # sigma_j growing
            (np.zeros(42), np.linspace(1.0, 2.0, 42), 1.0 + 1e-9),
            # tau * sigma_i above |w_(i)|
            (0.1 * geometric, geometric, 1.0 + 1e-9),
            # |w_(j)| above |w_(i)|/3 across a gap of 41 > 39.5 (a loose slack
            # lets the other three links pass)
            (link4, geometric, 11.0),
            # every link holds
            (0.5 * geometric, geometric, 1.0 + 1e-9),
        ]
        prefixes = [
            "|w_(1)| = 2 exceeds sigma",
            "sigma_(2) = ",
            "tau * sigma_(1) = ",
            "|w_(42)| = 0.5 exceeds |w_(1)|/3 despite a gap of 41 ",
            None,
        ]
        for (mags, tails, slack), prefix in zip(rows, prefixes):
            mags, tails = mags[None, :], tails[None, :]
            limit = third = np.array([42])
            (got,) = _decay_chain(mags, tails, tau, limit, third, slack)
            assert got == _oracle_decay_chain(mags[0], tails[0], tau, 42, 42, slack)
            if prefix is None:
                assert got.ok
            else:
                assert not got.ok and got.detail.startswith(prefix)

    def test_one_l_or_one_per_row(self):
        w = np.array([[3.0 ** -i for i in range(10)], [2.0 ** -i for i in range(10)]])
        assert [c.ok for c in check_geometric_decay(w, 0.3, 4)] == [True, True]
        assert [c.ok for c in check_geometric_decay(w, 0.3, [4, 2])] == [True, True]
        with pytest.raises(ValueError, match="row 1"):
            check_geometric_decay(
                np.array([[3.0 ** -i for i in range(4)], [1.0] * 4]), 0.6, 2
            )

    def test_drop_top_zeroes_the_largest_magnitudes(self):
        w = np.array([[0.5, -8.0, 2.0, -1.0], [1.0, 1.0, -1.0, 0.0]])
        rep = critical_index(w, 0.5)
        assert drop_top(w, rep.order, [2, 1]).tolist() == [
            [0.5, 0.0, 0.0, -1.0], [0.0, 1.0, -1.0, 0.0],
        ]
        assert drop_top(w[0], rep.order[0], 0).tolist() == w[0].tolist()

    def test_prefix_size(self):
        w = np.array([[8.0, 1.0, 1.0, 1.0, 1.0], [5.0, 1.0, 0.2, 0.04, 0.008]])
        rep = critical_index(w, 0.5)
        assert rep.c_tau.tolist() == [2.0, math.inf]
        assert rep.prefix_size.tolist() == [1, 5]
        assert critical_index([8.0, 1.0, 1.0, 1.0, 1.0], 0.5).prefix_size == 1


class TestPrefixAndTruncate:
    def test_top_indices_rank_order(self):
        w = [0.5, -8.0, 2.0, -1.0]
        assert top_indices(w, 3).tolist() == [1, 2, 3]
        assert top_indices(w, 99).tolist() == [1, 2, 3, 0]

    def test_regularizing_prefix_leaves_a_regular_tail(self):
        w = np.array([100.0, 50.0, 1.0, 1.0, 1.0, 1.0, 1.0])
        tau = 0.5
        prefix = regularizing_prefix(w, tau)
        rest = w.copy()
        rest[prefix] = 0.0
        assert critical_index(rest, tau).c_tau == 1
        # minimality: keeping the last prefix element breaks regularity
        assert prefix.size == critical_index(w, tau).c_tau - 1
        if prefix.size:
            partial = w.copy()
            partial[prefix[:-1]] = 0.0
            assert critical_index(partial, tau).c_tau != 1

    def test_truncate_zeroes_the_complement(self):
        w = np.array([1.0, 2.0, 3.0, 4.0])
        assert truncate(w, [0, 2]).tolist() == [1.0, 0.0, 3.0, 0.0]
        with pytest.raises(ValueError):
            truncate(w, [4])

    def test_truncate_keeps_input_intact(self):
        w = np.array([1.0, 2.0])
        truncate(w, [0])
        assert w.tolist() == [1.0, 2.0]


class TestGeometricDecay:
    def test_geometric_vector_passes(self):
        w = [3.0 ** -i for i in range(10)]
        assert check_geometric_decay(w, tau=0.3, l=4)

    @given(
        hnp.arrays(
            np.float64,
            st.integers(4, 24),
            elements=st.floats(min_value=-10, max_value=10, allow_nan=False),
        ),
        st.floats(min_value=0.05, max_value=1.0 / 3.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_chain_holds_whenever_the_precondition_does(self, w, tau):
        # every link is implied by non-criticality of the positions it
        # crosses, so under c_tau > l the verifier must always pass
        rep = critical_index(w, tau)
        l = w.size - 1 if math.isinf(rep.c_tau) else int(rep.c_tau) - 1
        if l < 1:
            return
        assert check_geometric_decay(w, tau=tau, l=l)

    def test_precondition_requires_large_critical_index(self):
        with pytest.raises(ValueError, match="critical index"):
            check_geometric_decay([1.0, 1.0, 1.0, 1.0], tau=0.6, l=2)

    @pytest.mark.parametrize("tau", [2.9073303515915243e-182, 1e-300, 5e-324])
    def test_tau_whose_square_underflows(self, tau):
        # tau^2 is 0 in float64: the spread link's stride is unbounded, so
        # that link is vacuous rather than a division by zero
        w = [3.0 ** -i for i in range(10)]
        assert check_geometric_decay(w, tau=tau, l=4)

    def test_third_link_holds_strictly_below_critical(self):
        # alternating-ish decay: passes the norm chain but position 1 violates
        # tau*sigma <= |w| only at or past the critical index, never before
        w = [2.0 ** -i for i in range(12)]
        assert check_geometric_decay(w, tau=1.0 / 3.0, l=6)


class TestSerialization:
    @given(
        rows=st.integers(1, 4),
        cols=st.integers(1, 5),
        theta=finite_floats,
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_is_exact(self, tmp_path_factory, rows, cols, theta, seed):
        rng = np.random.default_rng(seed)
        grid = rng.standard_normal((rows, cols)) * 1e3
        h = Halfspace.from_grid(grid, theta=theta)
        path = tmp_path_factory.mktemp("hs") / "h.json"
        write_halfspace(h, str(path))
        back = read_halfspace(str(path))
        assert back.rows == rows and back.cols == cols
        assert back.theta == theta
        assert np.array_equal(back.weights, h.weights)
