"""Gadget column mixtures: weight solving, moment matching, enumeration oracles."""

import decimal
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glhs import core, moments
from glhs.core import GuardError, rng_words, words_to_uniforms
from glhs.moments import (
    ENUM_GUARD_K,
    EXACT_MARGINAL_GUARD_M,
    KIND_EXACTLY_ONE,
    Bernoulli,
    ColumnMixture,
    ExactlyOne,
    FeasibilityError,
    apply_noise,
    as_fraction,
    bernoulli,
    boundary_eps,
    build_pair,
    column_block_size,
    column_sum_pmf,
    completeness_pair,
    default_noise_rate,
    enum_oracle_moment,
    exact_moment,
    marginal_pmf,
    marginal_pmf_rational,
    moment_gap,
    noise_block_size,
    sample_columns_at,
    solve_d0_weights,
)

# a comfortably feasible small case reused across tests
K, EPS, P = 12, "0.82", "0.25"


def sample_columns(dist, master_seed, stream_id, start, count):
    """Columns start..start+count-1 of a source, by absolute column index."""
    columns = np.arange(start, start + count, dtype=np.uint64)
    return sample_columns_at(dist, master_seed, stream_id, columns)


def alone(comp, k):
    """The one-component mixture of `comp` over {0,1}^k."""
    return ColumnMixture(k=k, weights_exact=(Fraction(1),), components=(comp,))


def noiseless_moment(comp, s, k):
    """E[prod of s distinct coordinates] of a noiseless component, by hand."""
    if isinstance(comp, ExactlyOne):
        return Fraction(1) if s == 0 else Fraction(1, k) if s == 1 else Fraction(0)
    return comp.rate_exact**s


def _fraction_solve(aug):
    """Gaussian elimination over Fractions; aug is n x (n+1)."""
    n = len(aug)
    m = [row[:] for row in aug]
    for col in range(n):
        piv = next(r for r in range(col, n) if m[r][col] != 0)
        m[col], m[piv] = m[piv], m[col]
        inv = Fraction(1, 1) / m[col][col]
        m[col] = [v * inv for v in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return [m[r][n] for r in range(n)]


class TestFractions:
    def test_decimal_strings_and_floats_mean_the_decimal(self):
        assert as_fraction("0.1") == Fraction(1, 10)
        assert as_fraction(0.1) == Fraction(1, 10)
        assert as_fraction("3/4") == Fraction(3, 4)
        assert as_fraction(Fraction(2, 7)) == Fraction(2, 7)
        assert as_fraction(3) == Fraction(3)


class TestComponents:
    def test_component_moments(self):
        k = 10
        assert alone(bernoulli(0), k).moment_of_size(0) == 1
        assert alone(bernoulli(0), k).moment_of_size(2) == 0
        assert alone(ExactlyOne(), k).moment_of_size(1) == Fraction(1, k)
        assert alone(ExactlyOne(), k).moment_of_size(2) == 0
        q = Fraction(1, 3)
        assert alone(bernoulli(q), k).moment_of_size(3) == q**3

    def test_component_all_zero(self):
        k = 6
        assert alone(bernoulli(0), k).prob_all_zero() == 1
        assert alone(ExactlyOne(), k).prob_all_zero() == 0
        assert alone(bernoulli("0.25"), k).prob_all_zero() == Fraction(3, 4) ** k

    def test_bernoulli_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            bernoulli("1.5")


class TestMixture:
    def test_zero_noise_closed_forms_are_the_noiseless_ones(self):
        # the exact moments and all-zeros probability at gamma = 0 are the
        # noiseless mixture sums, and the float weights are the rounded
        # exact ones
        for dist in build_pair(K, EPS, P):
            exact_terms = list(zip(dist.weights_exact, dist.components))
            for s in range(1, 6):
                assert dist.moment_of_size(s) == sum(
                    w * noiseless_moment(c, s, K) for w, c in exact_terms
                )
            assert dist.weights == tuple(float(w) for w in dist.weights_exact)
            assert dist.prob_all_zero() == float(sum(
                w * (1 - c.rate_exact) ** K for w, c in exact_terms if isinstance(c, Bernoulli)
            ))

    def test_noisy_composes(self):
        a, b = Fraction(1, 8), Fraction(1, 5)
        for dist in build_pair(K, EPS, P):
            # a bit survives both channels iff it survives each
            assert dist.noisy(a).noisy(b) == dist.noisy(1 - (1 - a) * (1 - b))
            assert dist.noisy(0) == dist
            with pytest.raises(ValueError, match="noise rate"):
                dist.noisy(-1)

    @pytest.mark.parametrize(
        "weights, match",
        [((Fraction(3, 2), Fraction(-1, 2)), "negative"),
         ((Fraction(1, 2), Fraction(1, 2) + Fraction(1, 10**30)), "sum to exactly 1")],
    )
    def test_rejects_bad_exact_weights(self, weights, match):
        with pytest.raises(ValueError, match=match):
            ColumnMixture(k=4, weights_exact=weights, components=(bernoulli(0), ExactlyOne()))


class TestWeightSolver:
    def test_weights_match_an_independent_linear_solve(self):
        sol = solve_d0_weights(K, EPS, P)
        eps, p = sol.eps, sol.p
        # the delta system: sum_i delta_i (i p)^s = (1-eps)/k for s=1, else 0
        aug = [
            [((i + 1) * p) ** s for i in range(4)]
            + [Fraction(1 - eps, K) if s == 1 else Fraction(0)]
            for s in range(1, 5)
        ]
        deltas = _fraction_solve(aug)
        for i, d in enumerate(deltas):
            assert sol.eps_weights[i] == eps / 4 + d

    def test_closed_form_deltas(self):
        sol = solve_d0_weights(K, EPS, P)
        b = sol.b
        assert b == (1 - sol.eps) / (K * sol.p)
        expected = (4 * b, -3 * b, 4 * b / 3, -b / 4)
        for got, want in zip(sol.eps_weights, expected):
            assert got - sol.eps / 4 == want

    def test_residuals_vanish(self):
        sol = solve_d0_weights(K, EPS, P)
        assert max(abs(r) for r in sol.residuals()) <= 1e-12

    def test_boundary_eps_zeroes_the_second_weight(self):
        p = Fraction(1, 4)
        eps_star = boundary_eps(K, p)
        assert eps_star == Fraction(12, 12) / (1 + K * p / 12)
        sol = solve_d0_weights(K, eps_star, p)
        assert sol.eps_weights[1] == 0
        assert min(sol.eps_weights) == 0

    def test_below_boundary_is_infeasible(self):
        with pytest.raises(FeasibilityError, match=r"12\*\(1-eps\)"):
            solve_d0_weights(64, "0.125", "0.25")
        with pytest.raises(FeasibilityError, match="eps2"):
            solve_d0_weights(64, "0.125", "0.25")

    def test_small_kp_is_infeasible_even_with_large_eps(self):
        # first constraint holds (0.95 >= 0.6) but the weights cannot sum to <= 1
        with pytest.raises(FeasibilityError, match="25/12"):
            solve_d0_weights(4, "0.95", "0.25")

    @given(
        st.integers(10, 200),
        st.fractions(min_value="1/100", max_value="1/4"),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_feasible_point_solves_and_matches(self, k, p):
        eps = boundary_eps(k, p)
        if eps + (1 - eps) / 8 > 1 or k * p < Fraction(25, 12):
            return
        eps = eps + (1 - eps) / 8  # strictly inside the feasible region
        sol = solve_d0_weights(k, eps, p)
        assert all(w >= 0 for w in sol.eps_weights)
        assert sol.total <= 1
        d0, d1 = build_pair(k, eps, p)
        for s in range(1, 5):
            assert d0.moment_of_size(s) == d1.moment_of_size(s)


class TestMomentMatching:
    def test_pair_moments_match_exactly_through_degree_four(self):
        d0, d1 = build_pair(K, EPS, P)
        for s in range(1, 5):
            assert d0.moment_of_size(s) == d1.moment_of_size(s)
        assert moment_gap(d0, d1, 4) == 0

    def test_fifth_moment_splits_by_exactly_24_b_p5(self):
        sol = solve_d0_weights(K, EPS, P)
        d0, d1 = build_pair(K, EPS, P)
        gap5 = d1.moment_of_size(5) - d0.moment_of_size(5)
        assert gap5 == 24 * sol.b * sol.p**5

    def test_noisy_moments_still_match(self):
        d0, d1 = build_pair(K, EPS, P)
        g = Fraction(1, 144)
        n0, n1 = d0.noisy(g), d1.noisy(g)
        for s in range(1, 5):
            assert n0.moment_of_size(s) == n1.moment_of_size(s)

    def test_enumeration_oracle_agrees_with_closed_forms(self):
        d0, d1 = build_pair(K, EPS, P)
        for dist in (d0, d1, d1.noisy(Fraction(1, 16))):
            for coords in [(0,), (1, 5), (0, 3, 7), (2, 4, 8, 11)]:
                assert enum_oracle_moment(dist, coords) == pytest.approx(
                    exact_moment(dist, coords), abs=1e-12
                )

    def test_moments_are_exchangeable(self):
        _, d1 = build_pair(K, EPS, P)
        assert exact_moment(d1, (0, 1, 2)) == exact_moment(d1, (9, 4, 11))
        assert enum_oracle_moment(d1, (0, 1, 2)) == pytest.approx(
            enum_oracle_moment(d1, (9, 4, 11)), abs=1e-15
        )

class TestDistributionShapes:
    def test_pmf_sums_to_one(self):
        d0, d1 = build_pair(K, EPS, P)
        for dist in (d0, d1, d0.noisy(Fraction(1, 9))):
            pmf = marginal_pmf(dist, K)
            assert pmf.size == 2**K
            assert pmf.sum() == pytest.approx(1.0, abs=1e-12)
            assert pmf.min() >= 0

    def test_prob_all_zero_closed_form(self):
        d0, d1 = build_pair(K, EPS, P)
        for dist in (d0, d1, d1.noisy(Fraction(1, 31))):
            assert dist.prob_all_zero() == pytest.approx(marginal_pmf(dist, K)[0], abs=1e-12)

    def test_marginal_pmf_from_component_marginals(self):
        # exchangeable mixture: hand-build the m-coordinate marginal per component
        m = 3
        d0, d1 = build_pair(K, EPS, P)
        for dist in (d0, d1):
            got = marginal_pmf(dist, m)
            want = np.zeros(2**m)
            for w, comp in zip(dist.weights, dist.components):
                for patt in range(2**m):
                    ones = bin(patt).count("1")
                    if isinstance(comp, ExactlyOne):
                        if ones == 0:
                            prob = (K - m) / K
                        elif ones == 1:
                            prob = 1 / K
                        else:
                            prob = 0.0
                    else:
                        q = float(comp.rate)
                        prob = q**ones * (1 - q) ** (m - ones)
                    want[patt] += w * prob
            assert np.allclose(got, want, atol=1e-12)

    def test_column_sum_pmf_against_enumeration(self):
        # column_sum_pmf reads the noisy pattern law; the oracle applies the
        # noise as an explicit per-bit transfer
        d0, d1 = build_pair(K, EPS, P)
        c0, c1 = completeness_pair(K, "0.8", "0.25")
        pop = np.bitwise_count(np.arange(2**K, dtype=np.uint64)).astype(np.int64)
        for dist in (
            d0,
            d0.noisy(Fraction(1, 9)),
            d1.noisy(Fraction(1, 8)),
            d1.noisy(1),
            c0.noisy(Fraction(1, 10)),
            c1.noisy(Fraction(1, 10)),
        ):
            want = np.bincount(pop, weights=marginal_pmf(dist, K), minlength=K + 1)
            assert np.allclose(column_sum_pmf(dist), want, rtol=0.0, atol=1e-12)

    def test_completeness_pair_is_one_sided(self):
        d0, d1 = completeness_pair(3, "0.8", "0.25")
        assert d0.prob_all_zero() == 1.0
        assert d0.moment_of_size(1) == 0
        assert d1.moment_of_size(1) > 0
        # no matching claim: gap at degree 1 is the full D1 mean
        assert moment_gap(d0, d1, 1) == pytest.approx(float(d1.moment_of_size(1)))


def exact_column_law(dist):
    """Column-sum law in Fractions, per component: a binomial count for a
    Bernoulli component; for ExactlyOne the binomial count of the k - 1 cold
    bits at rate gamma/2 plus the hot bit, which reads 1 at 1 - gamma/2."""
    k, g = dist.k, dist.gamma_exact
    h = g / 2
    out = [Fraction(0)] * (k + 1)
    for w, comp in zip(dist.weights_exact, dist.components):
        if isinstance(comp, ExactlyOne):
            for j in range(k):
                cold = math.comb(k - 1, j) * h**j * (1 - h) ** (k - 1 - j)
                out[j] += w * cold * h
                out[j + 1] += w * cold * (1 - h)
        else:
            q = (1 - g) * comp.rate_exact + h
            for j in range(k + 1):
                out[j] += w * math.comb(k, j) * q**j * (1 - q) ** (k - j)
    return out


def exact_noiseless_marginal(dist, m):
    """Exact pmf of the first m coordinates of a noiseless mixture, by hand."""
    out = [Fraction(0)] * (1 << m)
    for w, comp in zip(dist.weights_exact, dist.components):
        for patt in range(1 << m):
            ones = bin(patt).count("1")
            if isinstance(comp, ExactlyOne):
                prob = Fraction(dist.k - m, dist.k) if ones == 0 else (
                    Fraction(1, dist.k) if ones == 1 else Fraction(0)
                )
            else:
                q = comp.rate_exact
                prob = q**ones * (1 - q) ** (m - ones)
            out[patt] += w * prob
    return out


def _exact_law_sources():
    d0, d1 = build_pair(K, EPS, P)
    c0, c1 = completeness_pair(K, "0.8", "0.25")
    big = 512
    b0, b1 = build_pair(big, "0.5", "0.25")
    g = default_noise_rate(big)
    return {
        "d0": d0,
        "d0-1/9": d0.noisy(Fraction(1, 9)),
        "d1-1/8": d1.noisy(Fraction(1, 8)),
        "d1-1": d1.noisy(1),
        "c0-1/10": c0.noisy(Fraction(1, 10)),
        "c1-1/10": c1.noisy(Fraction(1, 10)),
        "k512-d0": b0.noisy(g),
        "k512-d1": b1.noisy(g),
    }


class TestExactLaw:
    @pytest.mark.parametrize("name", list(_exact_law_sources()))
    def test_floats_are_correctly_rounded(self, name):
        dist = _exact_law_sources()[name]
        want = exact_column_law(dist)
        assert sum(want) == 1
        assert column_sum_pmf(dist).tolist() == [float(x) for x in want]
        assert dist.prob_all_zero() == float(want[0])
        assert dist.law(dist.k, 0) == want[0]

    def test_floats_are_decided_exactly_where_the_bounds_straddle(self, monkeypatch):
        # at 8 digits the two walks' bounds straddle a rounding boundary at
        # every entry, so the exact law decides them
        dist = _exact_law_sources()["d1-1/8"]
        want = [float(x) for x in exact_column_law(dist)]
        decided = []
        law = ColumnMixture.law

        def spy(self, m, j):
            decided.append(j)
            return law(self, m, j)

        bounds = [decimal.Context(prec=8, rounding=c.rounding) for c in moments._BOUNDS]
        monkeypatch.setattr(moments, "_BOUNDS", tuple(bounds))
        monkeypatch.setattr(ColumnMixture, "law", spy)
        assert column_sum_pmf(dist).tolist() == want
        assert len(decided) > K // 2

    @pytest.mark.parametrize("k,rate", [(1074, "0.5"), (1075, "0.5"), (1836, Fraction(1, 3))])
    def test_floats_round_correctly_into_the_subnormals(self, k, rate):
        # entries near 2^-1074, the least subnormal, and one exact half of it
        dist = alone(bernoulli(rate), k)
        want = [float(x) for x in exact_column_law(dist)]
        assert column_sum_pmf(dist).tolist() == want
        assert 0.0 < min(x for x in want if x) < 2.0**-1020

    def test_rounding_helpers_bound_their_exact_values(self):
        def power(n, d, m, ctx):
            with decimal.localcontext(ctx):
                return Fraction(moments._power(decimal.Decimal(n) / d, m))

        def walk(x, m, n, ctx):
            with decimal.localcontext(ctx):
                terms = moments._terms(x, m)
                return [dict(next(terms)) for _ in range(n)]

        for n, d, m in [(3, 4, 1), (3, 4, 57), (1, 3, 1000), (10**9 - 1, 10**9, 12345), (5, 5, 9)]:
            exact = Fraction(n, d) ** m
            lo, hi = (power(n, d, m, ctx) for ctx in moments._BOUNDS)
            assert lo <= exact <= hi
            assert hi - lo <= exact * Fraction(m + 2, 10**38)
        for x, m in [(Fraction(1, 3), 40), (Fraction(0), 5), (Fraction(1), 5)]:
            lo, hi = (walk(x, m, m + 1, ctx) for ctx in moments._BOUNDS)
            for j in range(m + 1):
                for i in range(max(j - 1, 0), min(j + 1, m) + 1):
                    exact = x**i * (1 - x) ** (m - i)
                    assert Fraction(lo[j][i]) <= exact <= Fraction(hi[j][i])

    @pytest.mark.parametrize("gamma", [Fraction(1, 8), Fraction(1)])
    def test_noisy_exact_marginal_is_the_channel_applied(self, gamma):
        # the noiseless marginal pushed through the exact per-bit transfer
        # T[read][sent]
        m = 4
        h = gamma / 2
        transfer = [[1 - h, h], [h, 1 - h]]
        for dist in build_pair(K, EPS, P) + completeness_pair(K, "0.8", "0.25"):
            clean = exact_noiseless_marginal(dist, m)
            assert marginal_pmf_rational(dist, m) == clean
            want = [
                sum(
                    clean[x] * math.prod(transfer[(y >> i) & 1][(x >> i) & 1] for i in range(m))
                    for x in range(1 << m)
                )
                for y in range(1 << m)
            ]
            got = marginal_pmf_rational(dist.noisy(gamma), m)
            assert got == want
            assert sum(got) == 1

    def test_all_zero_probability_at_large_k(self):
        # the one-sided D0 is the all-zeros point mass: behind the noise each
        # bit stays zero with probability 1 - gamma/2
        k = 10**4
        g = Fraction(1, k * k)
        d0, _ = completeness_pair(k, "0.01", "0.01")
        want = (1 - g / 2) ** k
        assert d0.noisy(g).law(k, 0) == want
        assert d0.noisy(g).prob_all_zero() == float(want)

    def test_law_rejects_patterns_outside_the_column(self):
        _, d1 = build_pair(K, EPS, P)
        for m, j in [(K + 1, 0), (3, 4), (3, -1)]:
            with pytest.raises(ValueError):
                d1.law(m, j)

    def test_marginals_refuse_past_their_guards(self):
        _, d1 = completeness_pair(ENUM_GUARD_K + 1, "0.8", "0.25")
        with pytest.raises(GuardError):
            marginal_pmf(d1, ENUM_GUARD_K + 1)
        with pytest.raises(GuardError):
            enum_oracle_moment(d1, (0,))
        with pytest.raises(GuardError):
            marginal_pmf_rational(d1, EXACT_MARGINAL_GUARD_M + 1)
        pmf = marginal_pmf_rational(d1, EXACT_MARGINAL_GUARD_M)
        assert len(pmf) == 1 << EXACT_MARGINAL_GUARD_M
        assert sum(pmf) == 1


def _float_domain_columns(dist, master_seed, stream_id, columns):
    """Oracle for sample_columns_at: one unblocked pass, Bernoulli draws
    compared as float uniforms."""
    k = dist.k
    idx = columns * np.uint64(column_block_size(k))
    cdf, kinds, rates = dist.sampler_tables
    u = words_to_uniforms(rng_words(master_seed, stream_id, idx))
    comp = np.minimum(np.searchsorted(cdf, u, side="right"), len(kinds) - 1)
    lanes = np.arange(k, dtype=np.uint64)
    cols = np.zeros((idx.size, k), dtype=np.uint8)
    for n in range(idx.size):
        if kinds[comp[n]] == KIND_EXACTLY_ONE:
            hw = words_to_uniforms(rng_words(master_seed, stream_id, idx[n : n + 1] + 1))
            cols[n, min(int(hw[0] * k), k - 1)] = 1
    bern = kinds[comp] != KIND_EXACTLY_ONE
    bu = words_to_uniforms(rng_words(master_seed, stream_id, idx[:, None] + 2 + lanes))
    cols[bern] = bu[bern] < rates[comp[bern], None]
    return cols


def sample_noisy_columns(dist, gamma, master_seed, stream_id, columns, start=0):
    """The production route to noisy columns: sample, then replacement noise
    with column `start + i` as noise row i."""
    cols = sample_columns_at(dist, master_seed, stream_id, columns)
    return apply_noise(cols, gamma, master_seed, stream_id + 1, start)


class TestSampling:
    def test_batching_does_not_change_bits(self):
        d0, _ = build_pair(K, EPS, P)
        whole = sample_columns(d0, 99, 5, 0, 32)
        parts = np.concatenate(
            [sample_columns(d0, 99, 5, 0, 10), sample_columns(d0, 99, 5, 10, 22)]
        )
        assert np.array_equal(whole, parts)

    def test_explicit_indices_are_position_free(self):
        _, d1 = build_pair(K, EPS, P)
        cols = np.array([3, 17, 4, 3], dtype=np.uint64)
        got = sample_columns_at(d1, 99, 5, cols)
        ref = sample_columns(d1, 99, 5, 0, 18)
        assert np.array_equal(got, ref[[3, 17, 4, 3]])

    @pytest.mark.parametrize("noisy", [False, True])
    def test_block_boundaries_do_not_change_bits(self, noisy):
        # k=64 gives 2048 rows per block; split points fall inside blocks
        gamma = 1 / 64 if noisy else 0.0
        d0, d1 = build_pair(64, "0.5", "0.25")
        for dist in (d0, d1):
            cols = np.arange(5000, dtype=np.uint64) * np.uint64(3) + np.uint64(2**40)
            whole = sample_noisy_columns(dist, gamma, 21, 4, cols)
            cuts = [0, 7, 2100, 4301, 5000]
            parts = [
                sample_noisy_columns(dist, gamma, 21, 4, cols[a:b], start=a)
                for a, b in zip(cuts, cuts[1:])
            ]
            assert np.array_equal(whole, np.concatenate(parts))
            want = apply_noise(_float_domain_columns(dist, 21, 4, cols), gamma, 21, 5, 0)
            assert np.array_equal(whole, want)

    def test_reruns_are_byte_identical(self):
        _, d1 = build_pair(K, EPS, P)
        cols = np.arange(64, dtype=np.uint64)
        assert np.array_equal(
            sample_noisy_columns(d1, 0.02, 7, 1, cols), sample_noisy_columns(d1, 0.02, 7, 1, cols)
        )

    def test_empirical_moments_track_closed_forms(self):
        d0, d1 = build_pair(K, EPS, P)
        n = 40000
        for dist in (d0, d1):
            cols = sample_columns(dist, 1234, 2, 0, n)
            mean_rate = cols.mean()
            m1 = dist.moment_of_size(1)
            sigma = math.sqrt(m1 * (1 - m1) / (n * K))  # correlated bits: generous anyway
            assert abs(mean_rate - m1) <= 6 * sigma + 1e-3
            zero_rate = (cols.sum(axis=1) == 0).mean()
            pz = dist.prob_all_zero()
            assert abs(zero_rate - pz) <= 4 * math.sqrt(pz * (1 - pz) / n) + 1e-3

    def test_exactly_one_component_shows_up_as_unit_rows(self):
        d0, d1 = build_pair(K, EPS, P)
        cols1 = sample_columns(d1, 77, 3, 0, 4000)
        cols0 = sample_columns(d0, 77, 4, 0, 4000)
        ones1 = (cols1.sum(axis=1) == 1).mean()
        ones0 = (cols0.sum(axis=1) == 1).mean()
        # D1 places (1-eps) directly on one-hot columns, D0 only binomial mass
        p1 = sum(
            w * (float(c.rate) ** 1 * (1 - float(c.rate)) ** (K - 1) * K if isinstance(c, Bernoulli) else 1.0 if isinstance(c, ExactlyOne) else 0.0)
            for w, c in zip(d1.weights, d1.components)
        )
        p0 = sum(
            w * (float(c.rate) ** 1 * (1 - float(c.rate)) ** (K - 1) * K if isinstance(c, Bernoulli) else 0.0)
            for w, c in zip(d0.weights, d0.components)
        )
        assert abs(ones1 - p1) <= 4 * math.sqrt(p1 * (1 - p1) / 4000)
        assert abs(ones0 - p0) <= 4 * math.sqrt(p0 * (1 - p0) / 4000)

    def test_noisy_sampling_matches_noisy_closed_form(self):
        # sample_columns_at then apply_noise, on the dense (1/8) and sparse
        # (1/64) noise paths, against the noisy mixture's closed forms
        n = 40000
        columns = np.arange(n, dtype=np.uint64)
        for gamma in (Fraction(1, 8), Fraction(1, 64)):
            for dist in build_pair(K, EPS, P):
                cols = sample_noisy_columns(dist, float(gamma), 314, 6, columns)
                zero_rate = (cols.sum(axis=1) == 0).mean()
                pz = dist.noisy(gamma).prob_all_zero()
                assert abs(zero_rate - pz) <= 4 * math.sqrt(pz * (1 - pz) / n)
                m1 = dist.noisy(gamma).moment_of_size(1)
                assert abs(cols.mean() - m1) <= 6 * math.sqrt(m1 * (1 - m1) / n) + 1e-3

    def test_rate_zero_rows_draw_no_bit_words(self, monkeypatch):
        # the all-zeros component is Bernoulli(0): its rows take only the
        # component word
        drawn = []

        def counting_words(master_seed, stream_id, idx, out=None):
            drawn.append(np.size(idx))
            return rng_words(master_seed, stream_id, idx, out)

        # the bit words are drawn by core.threshold_bits
        monkeypatch.setattr(moments, "rng_words", counting_words)
        monkeypatch.setattr(core, "rng_words", counting_words)
        d0, _ = completeness_pair(K, "0.8", "0.25")
        assert not sample_columns(d0, 3, 1, 0, 500).any()
        assert sum(drawn) == 500

    def test_rate_one_rows_draw_no_bit_words(self, monkeypatch):
        # Bernoulli(4p) at p = 1/4 has rate 1: its rows are all ones and take
        # only the component word, like the rate-0 rows above
        drawn = []

        def counting_words(master_seed, stream_id, idx, out=None):
            drawn.append(np.size(idx))
            return rng_words(master_seed, stream_id, idx, out)

        _, d1 = build_pair(K, EPS, P)
        n = 600
        columns = np.arange(n, dtype=np.uint64)
        want = _float_domain_columns(d1, 3, 1, columns)
        cdf, kinds, rates = d1.sampler_tables
        u = words_to_uniforms(rng_words(3, 1, columns * np.uint64(column_block_size(K))))
        comp = np.minimum(np.searchsorted(cdf, u, side="right"), len(kinds) - 1)
        full = rates[comp] == 1.0
        assert full.any()
        assert want[full].all()
        hot = int((kinds[comp] == KIND_EXACTLY_ONE).sum())
        partial = int(((rates[comp] > 0) & (rates[comp] < 1)).sum())
        monkeypatch.setattr(moments, "rng_words", counting_words)
        monkeypatch.setattr(core, "rng_words", counting_words)
        assert np.array_equal(sample_columns_at(d1, 3, 1, columns), want)
        assert sum(drawn) == n + hot + K * partial

    def test_noisy_mixture_is_not_sampled(self):
        _, d1 = build_pair(K, EPS, P)
        with pytest.raises(ValueError, match="apply_noise"):
            sample_columns(d1.noisy(Fraction(1, 8)), 1, 1, 0, 4)


class TestNoiseChannel:
    def test_dense_and_sparse_paths_hit_the_rate(self):
        n, length = 3000, 64
        zeros = np.zeros((n, length), dtype=np.uint8)
        for gamma in (0.5, 0.01):
            out = apply_noise(zeros.copy(), gamma, 11, 0, 0)
            rate = out.mean()
            sigma = math.sqrt(gamma / 2 * (1 - gamma / 2) / (n * length))
            assert abs(rate - gamma / 2) <= 5 * sigma

    def test_noise_is_per_row_addressed(self):
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2, size=(10, 40), dtype=np.uint8)
        whole = apply_noise(bits.copy(), 0.02, 5, 1, 0)
        parts = np.concatenate(
            [apply_noise(bits[:4].copy(), 0.02, 5, 1, 0), apply_noise(bits[4:], 0.02, 5, 1, 4)]
        )
        assert np.array_equal(whole, parts)

    def test_dense_blocks_do_not_change_bits(self):
        # 300-bit rows give 436 rows per block; split points fall inside blocks
        rng = np.random.default_rng(1)
        bits = rng.integers(0, 2, size=(1000, 300), dtype=np.uint8)
        whole = apply_noise(bits.copy(), 0.1, 5, 1, 3)
        cuts = [0, 5, 437, 900, 1000]
        parts = [
            apply_noise(bits[a:b].copy(), 0.1, 5, 1, 3 + a) for a, b in zip(cuts, cuts[1:])
        ]
        assert np.array_equal(whole, np.concatenate(parts))
        # the float-domain channel: word per bit, uniform < gamma, low bit in
        idx = (np.arange(1000, dtype=np.uint64)[:, None] + np.uint64(3)) * np.uint64(
            noise_block_size(300)
        ) + np.arange(300, dtype=np.uint64)
        w = rng_words(5, 1, idx)
        assert np.array_equal(whole, np.where(words_to_uniforms(w) < 0.1, w & np.uint64(1), bits))

    @pytest.mark.parametrize("gamma", [0.02, 0.1, 0.0])
    def test_noise_is_in_place_for_uint8_input(self, gamma):
        rng = np.random.default_rng(2)
        bits = rng.integers(0, 2, size=(50, 40), dtype=np.uint8)
        want = apply_noise(bits.astype(np.int64), gamma, 5, 1, 7)
        got = apply_noise(bits, gamma, 5, 1, 7)
        assert got is bits
        assert np.array_equal(got, want)

    def test_zero_noise_is_identity(self):
        # at 1e-42 every geometric gap overflows int64 unless capped
        bits = np.ones((4, 9), dtype=np.uint8)
        for gamma in (0.0, 1e-42):
            assert np.array_equal(apply_noise(bits.copy(), gamma, 1, 1, 0), bits)

    def test_replacement_channel_is_input_independent_where_hit(self):
        # the same (seed, stream, row) positions are replaced regardless of input
        ones = np.ones((200, 50), dtype=np.uint8)
        zeros = np.zeros((200, 50), dtype=np.uint8)
        a = apply_noise(ones.copy(), 0.03, 9, 2, 0)
        b = apply_noise(zeros.copy(), 0.03, 9, 2, 0)
        hit_a = a != ones
        hit_b = b != zeros
        # a replacement writes a uniform bit: flip shows only half the hits,
        # but a flip in one input must be a replaced slot in the other
        assert (hit_a & hit_b).sum() == 0  # same slot cannot flip both 1->0 and 0->1

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            apply_noise(np.zeros((2, 2), dtype=np.uint8), 1.5, 0, 0, 0)
        with pytest.raises(ValueError):
            apply_noise(np.zeros(4, dtype=np.uint8), 0.1, 0, 0, 0)

    def test_block_sizes(self):
        assert column_block_size(K) == K + 2
        assert noise_block_size(100) == 102
