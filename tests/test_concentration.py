"""Anti-concentration estimators: subset sums, small-ball, spread, noise mass."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glhs.core import GuardError
from glhs.concentration import (
    PointMass,
    ProductBits,
    noise_mass_estimate,
    noisy_small_ball,
    require_geometric,
    sorted_magnitudes,
    spread_bound,
    spread_estimate,
    subset_sums,
    uniform_bits,
    unique_point_in_interval,
)


def _geometric_vector(rng, t, ratio=3.2):
    """Random signs and scale, magnitudes decaying faster than a factor 3."""
    mags = rng.uniform(1.0, 2.0) * ratio ** -np.arange(t)
    signs = rng.choice([-1.0, 1.0], size=t)
    return mags * signs


def uniform_interval_probability(w, a, b):
    """Exact Pr[<w, x> in [a, b]] for x uniform on the cube."""
    sums = subset_sums(w)
    return float(np.count_nonzero((sums >= a) & (sums <= b)) / sums.size)


def _exact_ball_probability(w, rates, a, b):
    """Enumerate a product-bit law and add up the interval mass."""
    n = len(w)
    total = 0.0
    for patt in itertools.product((0, 1), repeat=n):
        prob = 1.0
        for bit, r in zip(patt, rates):
            prob *= r if bit else (1.0 - r)
        s = sum(wi * bi for wi, bi in zip(w, patt))
        if a <= s <= b:
            total += prob
    return total


class TestSubsetSums:
    @given(st.integers(0, 10), st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force(self, t, seed):
        rng = np.random.default_rng(seed)
        w = rng.standard_normal(t)
        got = np.sort(subset_sums(w))
        want = np.sort(
            [sum(c) for r in range(t + 1) for c in itertools.combinations(w, r)]
        )
        assert np.allclose(got, want, atol=1e-12)

    def test_guard(self):
        with pytest.raises(GuardError):
            subset_sums(np.ones(25))

    def test_uniform_interval_probability(self):
        w = [1.0, 0.25]
        # sums: 0, 0.25, 1, 1.25 each with mass 1/4
        assert uniform_interval_probability(w, 0.2, 1.05) == pytest.approx(0.5)


class TestGeometricVectors:
    def test_accepts_factor_three_decay(self):
        mags = require_geometric([9.0, -3.0, 1.0])
        assert mags.tolist() == [9.0, 3.0, 1.0]

    def test_rejects_slow_decay_and_zeros(self):
        with pytest.raises(ValueError, match="decay violated"):
            require_geometric([9.0, 4.0, 1.0])
        with pytest.raises(ValueError, match="strictly positive"):
            require_geometric([9.0, 3.0, 0.0])
        with pytest.raises(ValueError, match="nonempty"):
            require_geometric([])

    def test_sorted_magnitudes(self):
        assert sorted_magnitudes([-2.0, 5.0, 1.0]).tolist() == [5.0, 2.0, 1.0]


class TestUniquePoint:
    @given(st.integers(1, 12), st.integers(0, 2**32))
    @settings(max_examples=80, deadline=None)
    def test_interval_holds_at_most_one_point(self, t, seed):
        rng = np.random.default_rng(seed)
        w = _geometric_vector(rng, t)
        sums = subset_sums(w)
        width = np.abs(w).min() / 3.0
        center = rng.choice(sums) + rng.uniform(-width, width)
        a, b = center - width / 2, center + width / 2
        got = unique_point_in_interval(w, a, b)
        assert got == int(((sums >= a) & (sums <= b)).sum())
        assert got <= 1

    def test_rejects_wide_interval(self):
        with pytest.raises(ValueError, match="interval length"):
            unique_point_in_interval([9.0, 3.0, 1.0], 0.0, 0.5)

    def test_rejects_slow_decay(self):
        with pytest.raises(ValueError, match="decay"):
            unique_point_in_interval([1.0, 0.9], 0.0, 0.1)

    def test_rejects_disordered_interval(self):
        with pytest.raises(ValueError, match="out of order"):
            unique_point_in_interval([3.0, 1.0], 1.0, 0.0)


class TestSources:
    def test_point_mass(self):
        src = PointMass(bits=(1, 0, 1))
        out = src.sample_bits(4, 0, 0)
        assert out.tolist() == [[1, 0, 1]] * 4

    def test_product_bits_rate(self):
        src = ProductBits(rates=(0.1, 0.9))
        out = src.sample_bits(20000, 5, 1)
        means = out.mean(axis=0)
        assert abs(means[0] - 0.1) < 4 * math.sqrt(0.09 / 20000)
        assert abs(means[1] - 0.9) < 4 * math.sqrt(0.09 / 20000)

    def test_product_bits_start_offsets_agree(self):
        src = uniform_bits(7)
        whole = src.sample_bits(12, 9, 2, start=0)
        assert np.array_equal(whole[5:], src.sample_bits(7, 9, 2, start=5))

    def test_validation(self):
        with pytest.raises(ValueError):
            PointMass(bits=(0, 2))
        with pytest.raises(ValueError):
            ProductBits(rates=(1.2,))


class TestNoisySmallBall:
    def test_tracks_exact_probability_for_point_mass(self):
        t = 8
        w = (3.2 ** -np.arange(t)) * np.array([1, -1] * (t // 2), dtype=float)
        gamma = 0.5
        src = PointMass(bits=(0,) * t)
        theta = 0.0  # the all-zero point itself
        est = noisy_small_ball(w, src, gamma, theta, trials=30000, master_seed=21)
        half = np.abs(w).min() / 6.0
        rates = [0 * (1 - gamma) + gamma / 2] * t
        exact = _exact_ball_probability(w.tolist(), rates, -half, half)
        assert abs(est.estimate - exact) <= est.slack
        assert exact <= est.bound
        assert est.passed

    def test_bound_is_the_reach_probability(self):
        w = [9.0, 3.0, 1.0]
        est = noisy_small_ball(w, PointMass(bits=(0, 0, 0)), 0.25, 0.0, 100, 0)
        assert est.bound == pytest.approx((1 - 0.125) ** 3)

    def test_catalog_of_adversarial_sources_passes(self):
        t = 10
        rng = np.random.default_rng(7)
        w = _geometric_vector(rng, t)
        sums = subset_sums(w)
        gamma = 0.4
        catalog = [
            PointMass(bits=tuple(int(b) for b in rng.integers(0, 2, t))),
            uniform_bits(t),
            ProductBits(rates=tuple(rng.uniform(0, 1, t))),
        ]
        for i, src in enumerate(catalog):
            # adversarial center: sit right on a subset-sum point
            theta = float(rng.choice(sums))
            est = noisy_small_ball(w, src, gamma, theta, trials=20000, master_seed=50 + i)
            assert est.passed

    def test_rejects_bad_inputs(self):
        w = [9.0, 3.0, 1.0]
        with pytest.raises(ValueError):
            noisy_small_ball(w, PointMass(bits=(0, 0, 0)), 0.0, 0.0, 10, 0)
        with pytest.raises(ValueError):
            noisy_small_ball(w, PointMass(bits=(0, 0)), 0.5, 0.0, 10, 0)
        with pytest.raises(ValueError):
            noisy_small_ball([1.0, 0.9], PointMass(bits=(0, 0)), 0.5, 0.0, 10, 0)


class TestSpread:
    def _regular_unit(self, dim):
        w = np.ones(dim) / math.sqrt(dim)
        return w

    def test_uniform_source_tracks_exact_uniform_mass(self):
        # replacement noise preserves the uniform law, so the exact value
        # is the plain subset-sum interval probability
        dim = 16
        w = self._regular_unit(dim)
        a, b = 0.4, 0.6
        est = spread_estimate(
            w, uniform_bits(dim), gamma=0.3, a=a, b=b, tau=0.3, trials=40000, master_seed=3
        )
        exact = uniform_interval_probability(w, a, b)
        assert abs(est.estimate - exact) <= est.slack
        assert est.passed

    def test_biased_source_stays_under_the_bound(self):
        dim = 25
        w = self._regular_unit(dim)
        src = ProductBits(rates=(0.9,) * dim)
        est = spread_estimate(
            w, src, gamma=0.5, a=0.0, b=0.1, tau=0.2, trials=20000, master_seed=11
        )
        assert est.passed

    def test_bound_formula(self):
        g, tau, length = 0.25, 0.1, 0.05
        want = 4 * length / math.sqrt(g) + 4 * tau / math.sqrt(g) + 2 * math.exp(
            -g * g / (2 * tau * tau)
        )
        assert spread_bound(g, tau, length) == pytest.approx(want)

    def test_rejects_irregular_or_non_unit(self):
        with pytest.raises(ValueError, match="unit"):
            spread_estimate([1.0, 1.0], uniform_bits(2), 0.3, 0, 1, 0.3, 10, 0)
        spike = np.zeros(10)
        spike[0] = 1.0
        with pytest.raises(ValueError, match="regular"):
            spread_estimate(spike, uniform_bits(10), 0.3, 0, 1, 0.3, 10, 0)


class TestNoiseMass:
    def test_binomial_oracle_for_equal_weights(self):
        n = 25
        w = np.ones(n) / math.sqrt(n)
        gamma = 0.4
        est = noise_mass_estimate(w, gamma, tau=0.25, trials=40000, master_seed=13)
        # mass = |z|/n: P[Bin(n, gamma) >= n*gamma/2], exact binomial tail
        kmin = math.ceil(n * gamma / 2)
        exact = sum(
            math.comb(n, j) * gamma**j * (1 - gamma) ** (n - j) for j in range(kmin, n + 1)
        )
        assert abs(est.estimate - exact) <= est.slack
        assert est.passed
        assert exact >= est.bound

    def test_rejects_bad_inputs(self):
        n = 16
        w = np.ones(n) / 4.0
        with pytest.raises(ValueError):
            noise_mass_estimate(w * 2, 0.3, 0.3, 10, 0)
        with pytest.raises(ValueError):
            noise_mass_estimate(w, 1.5, 0.3, 10, 0)



class TestCounterAddresses:
    """Each estimator's hit count at fixed seeds, under the default chunk
    budget and under 7-row chunks: draws are addressed by absolute row, so
    neither the estimator code nor the chunking may move a count."""

    @pytest.mark.parametrize("rows", [None, 7])
    def test_hit_counts_are_pinned(self, monkeypatch, rows):
        from glhs import core

        if rows is not None:
            monkeypatch.setattr(core, "CHUNK_CELLS", rows * 25)
        u = np.ones(25) / 5.0
        ests = [
            noisy_small_ball(
                [9.0, -3.0, 1.0, 0.3], ProductBits(rates=(0.2, 0.7, 0.5, 0.9)),
                0.3, 9.0, 3001, 5, stream_id=2,
            ),
            # the interval [3.3, 3.7] holds no float tie of the margins k/5
            spread_estimate(
                u, ProductBits(rates=(0.8,) * 25), 0.4, 3.3, 3.7, 0.25, 3001, 7,
                stream_id=1,
            ),
            noise_mass_estimate(u, 0.4, 0.25, 3001, 9, stream_id=3),
            # 18 fl(1/5) lie exactly above fl(3.6), but their float sums round
            # onto it, in a way that depends on the chunk's row count
            spread_estimate(
                u, ProductBits(rates=(0.8,) * 25), 0.4, 3.2, 3.6, 0.25, 3001, 7,
                stream_id=1,
            ),
        ]
        assert [round(e.estimate * e.trials) for e in ests] == [35, 979, 2975, 955]
        assert all(e.trials == 3001 and e.passed for e in ests)


def _lattice_unit(signs, twos):
    """A unit vector of multiples of 1/5: `twos` entries of 2/5, the rest
    1/5 (25 - 4 twos of them), signed by `signs`; tau-regular for tau 1/2."""
    k = np.array([2.0] * twos + [1.0] * (25 - 4 * twos))
    return k * np.resize(signs, k.size) / 5.0


class TestLatticeTies:
    """Weights, interval ends and gamma/2 on the weights' lattices, so float
    sums land on a threshold often; every count is the same under the
    default budget and under 7-row chunks."""

    @given(
        st.lists(st.sampled_from([-1.0, 1.0]), min_size=1, max_size=25),
        st.integers(0, 6),
        st.integers(-3, 3),
        st.integers(0, 2),
        st.integers(1, 12),
        st.integers(0, 2**16),
    )
    @settings(max_examples=15, deadline=None)
    def test_counts_ignore_the_chunk_size(self, signs, twos, lo, span, j, seed):
        from glhs import core

        w = _lattice_unit(signs, twos)
        lo += round(5 * 0.7 * w.sum())  # near the mean of <w, y>, in fifths
        sq = w[-1] * w[-1]  # the stored square of 1/5
        geometric = np.array([27.0, -9.0, 3.0, -1.0]) / 5.0
        sums = subset_sums(geometric)
        runs = [
            (w.size, lambda: spread_estimate(
                w, ProductBits(rates=(0.8,) * w.size), 0.4, lo / 5.0, (lo + span) / 5.0,
                0.5, 200, seed)),
            # gamma/2 = j fl(1/5)^2, the mass of j noisy coordinates of weight 1/5
            (w.size, lambda: noise_mass_estimate(w, 2 * j * sq, 0.5, 200, seed)),
            # the interval theta -+ (1/5)/6 starts near the subset sum sums[j]
            (4, lambda: noisy_small_ball(
                geometric, ProductBits(rates=(0.3, 0.5, 0.6, 0.9)), 0.3,
                sums[j] + 1.0 / 30.0, 200, seed)),
        ]

        def counts(rows):
            with pytest.MonkeyPatch.context() as mp:
                found = []
                for width, run in runs:
                    if rows is not None:
                        mp.setattr(core, "CHUNK_CELLS", rows * width)
                    est = run()
                    found.append(round(est.estimate * est.trials))
                return found

        assert counts(7) == counts(None)
