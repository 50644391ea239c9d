"""Ensemble invariance: matched families, smooth test functions, hybrid swaps."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from glhs.cli import _MICRO_GADGETS
from glhs.core import GuardError
from glhs.moments import build_pair, marginal_pmf, marginal_pmf_rational, solve_d0_weights
from glhs.invariance import (
    C_PHI,
    QUARTIC,
    Ensemble,
    PolyPsi,
    ensemble_from_pmf,
    expect_psi_exact,
    family,
    first_moment_mismatch,
    hybrid_steps,
    invariance_gap,
    invariance_gap_exact,
    linear_form_distribution,
    mixture_marginal_ensemble,
    sgn_gap_bound,
    smooth_sign,
    sum_l1_fourth,
    window_mass,
)

K, EPS, P = 12, "0.82", "0.25"


def expect_psi(fam, blocks, theta, psi):
    """Float oracle: E[Psi(l - theta)] over the enumerated atoms of l."""
    atoms, probs = linear_form_distribution(fam, blocks)
    return float(np.dot(probs, psi(atoms - theta)))


def _matched_families(m, r):
    d0, d1 = build_pair(K, EPS, P)
    e0 = mixture_marginal_ensemble(d0, m)
    e1 = mixture_marginal_ensemble(d1, m)
    return family(*([e0] * r)), family(*([e1] * r))


def conditioned_marginal_ensemble(dist, m):
    """Exact marginal of coordinates 1..m conditioned on coordinate 0 being 1.

    Conditioning spends one moment degree: a degree-4 matched pair yields
    degree-3 matched conditioned ensembles (the conditioning masses agree
    by the degree-1 match).
    """
    pmf = marginal_pmf_rational(dist, m + 1)
    mass = sum(p for pattern, p in enumerate(pmf) if pattern & 1)
    cond = [Fraction(0)] * (1 << m)
    for pattern, p in enumerate(pmf):
        if pattern & 1:
            cond[pattern >> 1] += p / mass
    return ensemble_from_pmf(cond, m)


class TestEnsemble:
    def test_moment_by_hand(self):
        ens = Ensemble(
            vars_count=2,
            support=((Fraction(1, 4), (0, 1)), (Fraction(3, 4), (1, 1))),
        )
        assert ens.moment((0,)) == Fraction(3, 4)
        assert ens.moment((0, 1)) == Fraction(3, 4)
        assert ens.moment((1, 1)) == Fraction(1)

    def test_float_path(self):
        ens = Ensemble(vars_count=1, support=((0.5, (0.0,)), (0.5, (1.0,))))
        assert ens.moment((0,)) == Fraction(1, 2)

    def test_validation(self):
        with pytest.raises(ValueError, match="sum"):
            Ensemble(vars_count=1, support=((0.5, (1,)),))
        with pytest.raises(ValueError, match="values"):
            Ensemble(vars_count=2, support=((1, (1,)),))
        with pytest.raises(ValueError, match="bounded"):
            Ensemble(vars_count=1, support=((1, (2,)),))
        with pytest.raises(ValueError, match="out of range"):
            Ensemble(vars_count=1, support=((1, (1,)),)).moment((1,))

    def test_mismatch_found_at_the_right_degree(self):
        # same mean and second moment, different third moment
        a = Ensemble(
            vars_count=1,
            support=((Fraction(1, 2), (-1,)), (Fraction(1, 2), (1,))),
        )
        b = Ensemble(
            vars_count=1,
            support=(
                (Fraction(1, 8), (-1,)),
                (Fraction(3, 4), (0,)),
                (Fraction(1, 8), (1,)),
            ),
        )
        # E = 0 both; E^2: 1 vs 1/4 -> degree 2 mismatch
        assert first_moment_mismatch(a, b, 3) == (0, 0)
        assert first_moment_mismatch(a, b, 1) is None

    def test_any_exact_difference_is_a_mismatch(self):
        # means 1/2 and 1/2 + 10^-13 differ, however little
        tiny = Fraction(1, 10**13)
        a = Ensemble(vars_count=1, support=((Fraction(1, 2), (0,)), (Fraction(1, 2), (1,))))
        b = Ensemble(
            vars_count=1,
            support=((Fraction(1, 2) - tiny, (0,)), (Fraction(1, 2) + tiny, (1,))),
        )
        assert first_moment_mismatch(a, b, 3) == (0,)
        assert first_moment_mismatch(a, a, 3) is None


class TestMarginalEnsembles:
    def test_pmf_bit_convention(self):
        # index 2 = binary 10 = (x0, x1) = (0, 1)
        pmf = [Fraction(0), Fraction(0), Fraction(1), Fraction(0)]
        ens = ensemble_from_pmf(pmf, 2)
        assert ens.moment((0,)) == 0
        assert ens.moment((1,)) == 1

    def test_marginal_matches_distinct_coordinate_moments(self):
        d0, d1 = build_pair(K, EPS, P)
        for dist in (d0, d1):
            ens = mixture_marginal_ensemble(dist, 4)
            for size in (1, 2, 3, 4):
                coords = tuple(range(size))
                assert ens.moment(coords) == dist.moment_of_size(size)

    def test_matched_pair_gives_degree_four_matched_ensembles(self):
        d0, d1 = build_pair(K, EPS, P)
        e0 = mixture_marginal_ensemble(d0, 4)
        e1 = mixture_marginal_ensemble(d1, 4)
        assert first_moment_mismatch(e0, e1, 4) is None

    def test_conditioning_spends_exactly_one_degree(self):
        d0, d1 = build_pair(K, EPS, P)
        c0 = conditioned_marginal_ensemble(d0, 4)
        c1 = conditioned_marginal_ensemble(d1, 4)
        assert first_moment_mismatch(c0, c1, 3) is None
        # degree 4 must now break: the gap is the unmatched fifth moment
        # of the pair divided by the (shared) first moment
        sol = solve_d0_weights(K, EPS, P)
        got = c1.moment((0, 1, 2, 3)) - c0.moment((0, 1, 2, 3))
        m1 = d1.moment_of_size(1)
        assert got == 24 * sol.b * sol.p**5 / m1
        assert got != 0

    def test_conditioned_oracle_via_enumeration(self):
        _, d1 = build_pair(K, EPS, P)
        cond = conditioned_marginal_ensemble(d1, 2)
        pmf = marginal_pmf(d1, K)
        patt = np.arange(pmf.size)
        on0 = (patt & 1) == 1
        want = pmf[on0 & ((patt >> 1) & 1 == 1) & ((patt >> 2) & 1 == 1)].sum()
        want /= pmf[on0].sum()
        assert float(cond.moment((0, 1))) == pytest.approx(want, abs=1e-12)


class TestPolyPsi:
    def test_evaluation(self):
        psi = PolyPsi(coeffs=(1, 2, 3))  # 1 + 2t + 3t^2
        assert psi(2.0) == 17.0
        assert np.allclose(psi(np.array([0.0, 1.0])), [1.0, 6.0])

    def test_degree_ignores_trailing_zeros(self):
        assert PolyPsi(coeffs=(0, 1, 0, 0)).degree == 1
        assert QUARTIC.degree == 4

    def test_k_bound(self):
        assert QUARTIC.k_bound == 24.0
        assert PolyPsi(coeffs=(0, 1, 1, 1)).k_bound == 0.0
        with pytest.raises(ValueError):
            PolyPsi(coeffs=(0, 0, 0, 0, 0, 1)).k_bound


class TestSmoothSign:
    def test_seam_values(self):
        ss = smooth_sign(0.25)
        assert ss(-0.25) == pytest.approx(0.0, abs=1e-12)
        assert ss(0.25) == pytest.approx(1.0, abs=1e-12)
        assert ss(0.0) == pytest.approx(0.5, abs=1e-12)
        assert ss(-1.0) == 0.0
        assert ss(1.0) == 1.0

    def test_monotone_bridge(self):
        ss = smooth_sign(0.1)
        t = np.linspace(-0.1, 0.1, 2001)
        vals = ss(t)
        assert (np.diff(vals) >= -1e-12).all()

    def test_fourth_derivative_respects_k_bound(self):
        lam = 0.2
        ss = smooth_sign(lam)
        t = np.linspace(-lam, lam, 40001)
        peak = np.abs(ss.fourth_derivative(t)).max()
        assert peak <= ss.k_bound * (1 + 1e-9)
        assert peak >= 0.9 * ss.k_bound  # the certified max is attained inside
        assert ss.fourth_derivative(2 * lam) == 0.0

    def test_k_bound_scaling(self):
        assert smooth_sign(0.1).k_bound == pytest.approx(C_PHI / 0.1**4)
        with pytest.raises(ValueError):
            smooth_sign(0.5)


class TestLinearForm:
    def test_distribution_by_enumeration(self):
        ens = ensemble_from_pmf([0.25, 0.25, 0.25, 0.25], 2)
        fam = family(ens, ens)
        blocks = [[1.0, 2.0], [4.0, 8.0]]
        atoms, probs = linear_form_distribution(fam, blocks)
        want = {}
        for rows in itertools.product(range(4), repeat=2):
            val = sum(
                b[0] * (r & 1) + b[1] * ((r >> 1) & 1) for b, r in zip(blocks, rows)
            )
            want[val] = want.get(val, 0.0) + 1 / 16
        assert sorted(atoms.tolist()) == sorted(want)
        for a, p in zip(atoms, probs):
            assert p == pytest.approx(want[float(a)])

    def test_expect_psi_matches_manual_sum(self):
        fam_a, _ = _matched_families(2, 2)
        blocks = [[0.3, -0.2], [0.1, 0.4]]
        atoms, probs = linear_form_distribution(fam_a, blocks)
        want = float(np.dot(probs, (atoms - 0.1) ** 4))
        assert expect_psi(fam_a, blocks, 0.1, QUARTIC) == pytest.approx(want)

    def test_sum_l1_fourth(self):
        assert sum_l1_fourth([[1.0, -1.0], [0.5]]) == 16.0 + 0.0625


class TestInvarianceGap:
    def test_quartic_gap_within_bound(self):
        fam_a, fam_b = _matched_families(2, 3)
        blocks = [[0.2, -0.3], [0.1, 0.25], [0.15, 0.05]]
        res = invariance_gap(fam_a, fam_b, blocks, 0.2, QUARTIC)
        assert res.passed
        assert res.gap == pytest.approx(abs(res.expect_a - res.expect_b))
        assert res.bound == pytest.approx(24.0 * sum_l1_fourth(blocks))

    def test_cubic_gap_is_exactly_zero(self):
        fam_a, fam_b = _matched_families(2, 3)
        blocks = [
            [Fraction(1, 5), Fraction(-3, 10)],
            [Fraction(1, 10), Fraction(1, 4)],
            [Fraction(3, 20), Fraction(1, 20)],
        ]
        cubic = PolyPsi(coeffs=(Fraction(1), Fraction(1), Fraction(1), Fraction(1)))
        assert invariance_gap_exact(fam_a, fam_b, blocks, Fraction(1, 5), cubic) == 0

    def test_quartic_exact_gap_is_generally_nonzero(self):
        # on 0/1 variables repeated indices collapse, so degree-4 matched
        # marginals kill every quartic; the conditioned pair matches only to
        # degree 3 and the quartic picks up the degree-4 term l0*l1*l2*l3
        d0, d1 = build_pair(K, EPS, P)
        fam_a = family(conditioned_marginal_ensemble(d0, 4))
        fam_b = family(conditioned_marginal_ensemble(d1, 4))
        blocks = [[Fraction(1, 3), Fraction(1, 7), Fraction(2, 5), Fraction(1, 2)]]
        quartic = PolyPsi(coeffs=(0, 0, 0, 0, Fraction(1)))
        assert invariance_gap_exact(fam_a, fam_b, blocks, Fraction(0), quartic) != 0

    def test_mismatched_families_are_rejected(self):
        fam_a, _ = _matched_families(2, 2)
        bad = family(
            ensemble_from_pmf([0.5, 0.5, 0.0, 0.0], 2),
            ensemble_from_pmf([0.5, 0.5, 0.0, 0.0], 2),
        )
        with pytest.raises(ValueError, match="degree"):
            invariance_gap(fam_a, bad, [[0.1, 0.1], [0.1, 0.1]], 0.0, QUARTIC)

    def test_eighteen_incommensurate_blocks_are_exact(self):
        # the product support has 2^18 distinct atoms; moment propagation
        # never forms it
        ens = ensemble_from_pmf([Fraction(1, 2), Fraction(1, 2)], 1)
        fams = family(*([ens] * 18))
        blocks = [[Fraction(1, 997 + i)] for i in range(18)]
        assert invariance_gap_exact(fams, fams, blocks, Fraction(0), QUARTIC) == 0

    def test_only_the_float_convolution_is_guarded(self):
        # 2^24 product points: past the enumeration guard, but the exact
        # route's cost grows with the 24 blocks only
        ens = ensemble_from_pmf([Fraction(1, 2), Fraction(1, 2)], 1)
        fam = family(*([ens] * 24))
        blocks = [[Fraction(1, 997 + i)] for i in range(24)]
        assert invariance_gap(fam, fam, blocks, Fraction(0), QUARTIC).gap == 0
        assert sum(hybrid_steps(fam, fam, blocks, 0, QUARTIC)) == 0
        with pytest.raises(GuardError, match="16777216 points"):
            sgn_gap_bound(fam, fam, blocks, 0.0, 0.2)

    def test_exact_route_matches_brute_force_enumeration(self):
        d0, d1 = build_pair(K, EPS, P)
        # conditioned marginals match to degree 3 only, so a block of four
        # 0/1 variables gives a nonzero quartic gap; mixed block sizes
        # exercise the binomial sum rule
        sizes = (4, 2, 3)
        fam_a = family(*(conditioned_marginal_ensemble(d0, m) for m in sizes))
        fam_b = family(*(conditioned_marginal_ensemble(d1, m) for m in sizes))
        blocks = [
            [Fraction(1, 3), Fraction(-2, 7), Fraction(2, 5), Fraction(1, 2)],
            [Fraction(1, 5), Fraction(-1, 4)],
            [Fraction(3, 8), Fraction(1, 9), Fraction(-1, 6)],
        ]
        theta = Fraction(2, 7)
        cubic = PolyPsi(coeffs=(Fraction(1), Fraction(-2), Fraction(3), Fraction(5)))
        quartic = PolyPsi(
            coeffs=(Fraction(1, 2), Fraction(1), Fraction(-1), Fraction(2), Fraction(3))
        )

        def brute(fam, psi):
            total = Fraction(0)
            for rows in itertools.product(*(ens.support for ens in fam.ensembles)):
                prob, value = Fraction(1), -theta
                for (p, vals), block in zip(rows, blocks):
                    prob *= p
                    value += sum(x * w for x, w in zip(vals, block))
                total += prob * psi(value)
            return total

        for psi in (cubic, quartic):
            want_a, want_b = brute(fam_a, psi), brute(fam_b, psi)
            assert expect_psi_exact(fam_a, blocks, theta, psi) == want_a
            assert expect_psi_exact(fam_b, blocks, theta, psi) == want_b
            assert invariance_gap_exact(fam_a, fam_b, blocks, theta, psi) == want_a - want_b
        assert brute(fam_a, quartic) != brute(fam_b, quartic)


class TestHybridSteps:
    def test_steps_telescope_to_the_signed_gap(self):
        fam_a, fam_b = _matched_families(2, 3)
        blocks = [[0.2, -0.3], [0.1, 0.25], [0.15, 0.05]]
        theta = 0.1
        steps = hybrid_steps(fam_a, fam_b, blocks, theta, QUARTIC)
        ea = expect_psi(fam_a, blocks, theta, QUARTIC)
        eb = expect_psi(fam_b, blocks, theta, QUARTIC)
        assert math.fsum(steps) == pytest.approx(eb - ea, abs=1e-12)

    def test_each_step_obeys_the_local_bound(self):
        fam_a, fam_b = _matched_families(3, 4)
        blocks = [[0.1, -0.2, 0.05], [0.2, 0.1, 0.0], [0.05, 0.05, 0.3], [0.1, 0.1, 0.1]]
        steps = hybrid_steps(fam_a, fam_b, blocks, 0.3, QUARTIC)
        for step, block in zip(steps, blocks):
            l1 = sum(abs(v) for v in block)
            assert abs(step) <= (QUARTIC.k_bound / 12.0) * l1**4 + 1e-9


class TestExactRouteAgainstTheFloatOracle:
    """The exact quartic route against float enumeration of the product
    support, on the gadgets `verify invariance` uses.  Plain marginals are
    degree-4 matched, so their quartic gaps vanish; conditioned marginals of
    four variables match to degree 3 only and give nonzero gaps and steps."""

    def _families(self, gadget, conditioned):
        d0, d1 = build_pair(*gadget)
        if conditioned:
            e_a, e_b = (conditioned_marginal_ensemble(d, 4) for d in (d1, d0))
        else:
            e_a, e_b = (mixture_marginal_ensemble(d, 3) for d in (d1, d0))
        return [e_a] * 3, [e_b] * 3

    def _oracle_close(self, exact, approx, scale):
        # a difference of float expectations carries their rounding, so
        # gaps and steps are held to 1e-12 of the expectations' magnitude
        assert abs(float(exact) - approx) <= 1e-12 * scale

    @pytest.mark.parametrize("gadget", _MICRO_GADGETS)
    @pytest.mark.parametrize("conditioned", [False, True])
    def test_gap_and_steps_match_enumeration(self, gadget, conditioned):
        a, b = self._families(gadget, conditioned)
        rng = np.random.default_rng(len(a[0].support) + int(gadget[0]))
        blocks = [list(0.4 * (rng.uniform(size=a[0].vars_count) - 0.5)) for _ in a]
        theta = float(rng.uniform() - 0.5)
        res = invariance_gap(family(*a), family(*b), blocks, theta, QUARTIC)
        ea = expect_psi(family(*a), blocks, theta, QUARTIC)
        eb = expect_psi(family(*b), blocks, theta, QUARTIC)
        scale = max(abs(ea), abs(eb))
        assert float(res.expect_a) == pytest.approx(ea, rel=1e-12)
        assert float(res.expect_b) == pytest.approx(eb, rel=1e-12)
        self._oracle_close(res.gap, abs(ea - eb), scale)
        assert (res.gap != 0) == conditioned
        steps = hybrid_steps(family(*a), family(*b), blocks, theta, QUARTIC)
        for i, step in enumerate(steps):
            # step i: the hybrid with B below i+1 minus the one with B below i
            after = expect_psi(family(*b[: i + 1], *a[i + 1 :]), blocks, theta, QUARTIC)
            before = expect_psi(family(*b[:i], *a[i:]), blocks, theta, QUARTIC)
            self._oracle_close(step, after - before, scale)
        assert sum(steps) == res.expect_b - res.expect_a
        assert sum(steps) == -invariance_gap_exact(family(*a), family(*b), blocks, theta, QUARTIC)

    def test_steps_sum_exactly_to_the_signed_gap(self):
        d0, d1 = build_pair(K, EPS, P)
        sizes = (4, 2, 3, 4)
        fam_a = family(*(conditioned_marginal_ensemble(d0, m) for m in sizes))
        fam_b = family(*(conditioned_marginal_ensemble(d1, m) for m in sizes))
        blocks = [[0.3, -0.1, 0.2, 0.05], [0.25, -0.15], [0.1, 0.2, -0.3], [0.2] * 4]
        psi = PolyPsi(coeffs=(1, -0.5, 2, 0.25, 3))
        steps = hybrid_steps(fam_a, fam_b, blocks, 0.15, psi)
        assert all(isinstance(step, Fraction) for step in steps)
        assert sum(steps) == -invariance_gap_exact(fam_a, fam_b, blocks, 0.15, psi)
        assert sum(steps) != 0


class TestMatchingCheck:
    def test_mismatch_is_reported_at_its_own_index(self):
        d0, d1 = build_pair(K, EPS, P)
        e0, e1 = (mixture_marginal_ensemble(d, 2) for d in (d0, d1))
        bad = ensemble_from_pmf([Fraction(1, 2), Fraction(1, 2), 0, 0], 2)
        blocks = [[0.1, 0.2]] * 4
        # the matched pair repeats before and after; the (e0, bad) pair at
        # index 2 is new, even though e0 was seen at indices 0 and 1
        fam_a = family(e0, e0, e0, e0)
        fam_b = family(e1, e1, bad, e1)
        for check in (
            lambda: invariance_gap(fam_a, fam_b, blocks, 0.0, QUARTIC),
            lambda: invariance_gap_exact(fam_a, fam_b, blocks, 0, QUARTIC),
            lambda: sgn_gap_bound(fam_a, fam_b, blocks, 0.0, 0.2),
        ):
            with pytest.raises(ValueError, match="at index 2 disagree on the degree-1"):
                check()

    def test_a_repeated_pair_is_checked_once(self, monkeypatch):
        from glhs import invariance

        calls = []
        real = invariance.first_moment_mismatch
        monkeypatch.setattr(
            invariance, "first_moment_mismatch",
            lambda a, b, degree: calls.append((a, b)) or real(a, b, degree),
        )
        fam_a, fam_b = _matched_families(2, 5)
        invariance_gap(fam_a, fam_b, [[0.1, 0.2]] * 5, 0.0, QUARTIC)
        assert len(calls) == 1


class TestSignStatistic:
    def test_window_mass_oracle(self):
        atoms = np.array([0.0, 1.0, 2.0])
        probs = np.array([0.2, 0.3, 0.5])
        assert window_mass(atoms, probs, 0.5) == pytest.approx(0.8)
        assert window_mass(atoms, probs, 0.1) == pytest.approx(0.5)
        assert window_mass(atoms, probs, 2.0) == pytest.approx(1.0)

    def test_sgn_gap_components(self):
        fam_a, fam_b = _matched_families(2, 3)
        blocks = [[0.2, -0.3], [0.1, 0.25], [0.15, 0.05]]
        theta, alpha = 0.2, 0.2
        res = sgn_gap_bound(fam_a, fam_b, blocks, theta, alpha)
        da = linear_form_distribution(fam_a, blocks)
        db = linear_form_distribution(fam_b, blocks)
        pa = float(da[1][da[0] >= theta].sum())
        pb = float(db[1][db[0] >= theta].sum())
        assert res.gap == pytest.approx(abs(pa - pb))
        assert res.smooth_bound == pytest.approx(
            (C_PHI / alpha**4) * sum_l1_fourth(blocks)
        )
        assert res.bound == pytest.approx(res.smooth_bound + 2 * res.c_alpha)
        assert res.passed

    def test_alpha_range(self):
        fam_a, fam_b = _matched_families(2, 1)
        with pytest.raises(ValueError):
            sgn_gap_bound(fam_a, fam_b, [[0.1, 0.1]], 0.0, 0.6)
