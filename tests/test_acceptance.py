"""End-to-end acceptance gate: one test per headline guarantee.

Each test accumulates its sub-checks into a failure list and ends with a
single ACCEPT line naming the guarantee, so the gate reads as thirteen
pass/fail verdicts.  Monte Carlo checks run on fixed master seeds with
four-sigma slack; closed forms are compared against independent enumeration
oracles or hand-derivable laws, never against themselves.  Each guarantee
also carries a wall-clock budget, asserted alongside the substance.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import time
from fractions import Fraction

import numpy as np

from glhs.concentration import (
    PointMass,
    ProductBits,
    noise_mass_estimate,
    noisy_small_ball,
    require_geometric,
    spread_estimate,
    subset_sums,
    uniform_bits,
    unique_point_in_interval,
)
from glhs.core import CursorRng
from glhs.halfspace import (
    Disjunction,
    Halfspace,
    check_geometric_decay,
    critical_index,
    regularizing_prefix,
    top_indices,
    truncate,
)
from glhs.harness import (
    AgreementReport,
    agreement,
    centered_threshold,
    exact_majority_gap,
    linear_statistic_gap_exact,
    majority_halfspace,
    majority_threshold,
)
from glhs.invariance import (
    QUARTIC,
    PolyPsi,
    family,
    hybrid_steps,
    invariance_gap,
    invariance_gap_exact,
    mixture_marginal_ensemble,
    sgn_gap_bound,
)
from glhs.labelcover import (
    BipartiteInstance,
    audit_preimage,
    audit_smoothness,
    gen_planted_projection,
    gen_planted_unique,
    smooth_from_bipartite,
)
from glhs.moments import (
    FeasibilityError,
    as_fraction,
    asymptotic_eps,
    asymptotic_rate,
    build_pair,
    completeness_pair,
    default_noise_rate,
    exact_moment,
    marginal_pmf,
    moment_gap,
    solve_d0_weights,
)
from glhs.reduction import (
    DecoderSpec,
    TestSpec as Spec,  # plain import trips pytest collection
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


# ---------------------------------------------------------------------------
# verdict plumbing


def _verdict(name: str, failures: list[str], detail: str = "") -> None:
    status = "PASS" if not failures else "FAIL"
    line = f"ACCEPT {name}: {status}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert not failures, f"{name}: " + "; ".join(failures)


def _budget(failures: list[str], t0: float, limit: float) -> float:
    elapsed = time.perf_counter() - t0
    if elapsed > limit:
        failures.append(f"ran {elapsed:.1f}s, budget {limit:.0f}s")
    return elapsed


def _stream_agreement(hyp, sampler, total: int, chunk: int) -> AgreementReport:
    """Exact agreement over `total` examples drawn in chunks from `sampler`."""
    [rep] = agreement(
        [hyp], (sampler(start, min(chunk, total - start)) for start in range(0, total, chunk))
    )
    return rep


def _closed_form_sigma(spec: Spec, n1: int, n0: int) -> float:
    """Std dev of the balanced acceptance around its closed form."""
    p1 = 1.0 - spec.d1.noisy(spec.gamma).prob_all_zero()
    p0 = spec.d0.noisy(spec.gamma).prob_all_zero()
    return 0.5 * math.sqrt(p1 * (1.0 - p1) / n1 + p0 * (1.0 - p0) / n0)


def _decaying_vector(rng: CursorRng, dim: int, ratio: float) -> np.ndarray:
    """Magnitudes shrink by at least `ratio` per step; random signs."""
    mags = []
    mag = 1.0
    for _ in range(dim):
        mags.append(mag)
        mag *= ratio * (0.6 + 0.4 * rng.uniform())
    signs = np.asarray([1.0 if rng.bernoulli(0.5) else -1.0 for _ in range(dim)])
    return np.asarray(mags) * signs


def _regular_unit_vector(rng: CursorRng, tau: float) -> np.ndarray:
    dim = int(np.ceil((2.0 / tau) ** 2)) + 1
    raw = 0.5 + 0.5 * np.asarray(rng.uniforms(dim))
    signs = np.where(np.asarray(rng.uniforms(dim)) < 0.5, -1.0, 1.0)
    w = raw * signs
    return w / np.linalg.norm(w)


# ---------------------------------------------------------------------------
# 1. matched gadget pair: moments, solver, enumeration oracle


def test_matched_pair_moments_solver_and_enumeration():
    t0 = time.perf_counter()
    failures: list[str] = []
    worst_gap = 0.0

    for k, eps, p in ((12, "0.8", "0.25"), (256, "0.2", "0.1875")):
        d0, d1 = build_pair(k, eps, p)
        gamma = default_noise_rate(k)
        gap = moment_gap(d0, d1, 4)
        noisy_gap = moment_gap(d0.noisy(gamma), d1.noisy(gamma), 4)
        worst_gap = max(worst_gap, gap, noisy_gap)
        if gap > 1e-9:
            failures.append(f"k={k}: base moment gap {gap:.3e} > 1e-9")
        if noisy_gap > 1e-9:
            failures.append(f"k={k}: noisy moment gap {noisy_gap:.3e} > 1e-9")

        sol = solve_d0_weights(k, eps, p)
        eps_x = as_fraction(eps)
        b = (1 - eps_x) / (k * as_fraction(p))
        deltas = (4 * b, -3 * b, Fraction(4, 3) * b, -b / 4)
        for i, (w, d) in enumerate(zip(sol.eps_weights, deltas), start=1):
            resid = abs(float(w - (eps_x / 4 + d)))
            if resid > 1e-12:
                failures.append(f"k={k}: eps{i} off closed form by {resid:.3e}")

    # small arity: every coordinate-subset moment of degree <= 4 against the
    # full 2^12 enumeration, base and noisy channels for both mixtures
    d0, d1 = build_pair(12, "0.8", "0.25")
    gamma12 = default_noise_rate(12)
    pts = np.arange(1 << 12)
    worst_enum = 0.0
    for dist in (d0, d1, d0.noisy(gamma12), d1.noisy(gamma12)):
        pmf = marginal_pmf(dist, dist.k)
        mass_err = abs(float(pmf.sum()) - 1.0)
        if mass_err > 1e-12:
            failures.append(f"enumerated pmf mass off by {mass_err:.3e}")
        for size in range(1, 5):
            for coords in itertools.combinations(range(12), size):
                mask = 0
                for c in coords:
                    mask |= 1 << c
                oracle = float(pmf[(pts & mask) == mask].sum())
                err = abs(oracle - exact_moment(dist, list(coords)))
                worst_enum = max(worst_enum, err)
    if worst_enum > 1e-12:
        failures.append(f"closed form vs enumeration worst error {worst_enum:.3e}")

    elapsed = _budget(failures, t0, 10.0)
    _verdict(
        "matched-pair-moments",
        failures,
        f"worst gap {worst_gap:.2e}, enum err {worst_enum:.2e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 2. the k^-1/2 / k^-1/3 parameterization never admits a matched pair


def test_asymptotic_parameterization_is_infeasible():
    t0 = time.perf_counter()
    failures: list[str] = []

    # below k=64 the base rate k^-1/3 exceeds 1/4 and the 4p component rate
    # is rejected outright; from k=64 the rate is valid and the weight
    # constraint itself fails: eps*k*p = k^(1/6) <= 10 for k <= 10^6 while
    # 12*(1-eps) >= 12*(1 - 8^-1) = 10.5 for k >= 64
    rng = CursorRng(20260816, 0)
    small_ks = [2, 3, 5, 8, 13, 21, 34, 55, 63]
    big_ks = sorted(
        {64, 65, 100, 128, 256, 512, 1000, 4096, 31623, 10**5, 499999, 10**6}
        | {64 + rng.randint(10**6 - 64) for _ in range(120)}
    )

    for k in small_ks + big_ks:
        eps = asymptotic_eps(k)
        p = asymptotic_rate(k)
        if eps * k * p >= 12.0 * (1.0 - eps) and 4.0 * p <= 1.0:
            failures.append(f"k={k}: threshold unexpectedly satisfied")
            continue
        try:
            solve_d0_weights(k, eps, p)
            failures.append(f"k={k}: solver accepted an infeasible point")
        except FeasibilityError as e:
            msg = str(e)
            if "eps2" not in msg:
                failures.append(f"k={k}: diagnostic does not name eps2: {msg}")
            if "eps*k*p >= 12*(1-eps)" not in msg:
                failures.append(f"k={k}: diagnostic omits the threshold: {msg}")
        except ValueError as e:
            if 4.0 * p <= 1.0:
                failures.append(f"k={k}: wrong error class: {e}")
            elif "4*p" not in str(e):
                failures.append(f"k={k}: rate diagnostic missing: {e}")

    elapsed = _budget(failures, t0, 1.0)
    _verdict(
        "asymptotic-point-infeasible",
        failures,
        f"{len(small_ks) + len(big_ks)} arities up to 10^6, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 3. completeness: a dictator OR meets its closed-form acceptance


def test_dictator_or_completeness_matches_closed_form():
    t0 = time.perf_counter()
    failures: list[str] = []

    k, r = 256, 64
    d0, d1 = build_pair(k, "0.2", "0.1875")
    spec = Spec(d0=d0, d1=d1, r=r, gamma=default_noise_rate(k))
    closed = or_acceptance_closed_form(spec)
    if closed < 0.85:
        failures.append(f"closed form {closed:.4f} below the 0.85 floor")

    hyp = Disjunction(
        literals=frozenset((i, 0) for i in range(k)), rows=k, cols=r
    )
    n = 100_000
    rep = _stream_agreement(
        hyp,
        lambda start, cnt: dict_test_batch(spec, 301, 0, start, cnt),
        n,
        4000,
    )
    sigma = _closed_form_sigma(spec, rep.n1, rep.n0)
    err = abs(rep.balanced_acceptance - closed)
    if err > 4.0 * sigma:
        failures.append(
            f"acceptance {rep.balanced_acceptance:.5f} vs closed {closed:.5f}: "
            f"|diff| {err:.2e} > 4 sigma {4 * sigma:.2e}"
        )
    if rep.balanced_acceptance < 0.85:
        failures.append(f"measured acceptance {rep.balanced_acceptance:.4f} < 0.85")

    elapsed = _budget(failures, t0, 60.0)
    _verdict(
        "dictator-or-completeness",
        failures,
        f"closed {closed:.5f}, measured {rep.balanced_acceptance:.5f} "
        f"+- {sigma:.1e} over {n} draws, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 4. soundness: the best majority gap shrinks as the arity grows


def test_majority_soundness_gap_shrinks_with_arity():
    t0 = time.perf_counter()
    failures: list[str] = []

    # the eps ladder keeps each point feasible at p=1/4 while the surviving
    # degree-5 signal 24*b*p^5 shrinks with b=(1-eps)/(k p)
    ladder = ((16, "0.75"), (64, "0.9"), (256, "0.96"))
    n = 400_000
    exact_gaps: list[float] = []
    emp_gaps: list[float] = []
    sigmas: list[float] = []

    for i, (k, eps) in enumerate(ladder):
        d0, d1 = build_pair(k, eps, "0.25")
        spec = Spec(d0=d0, d1=d1, r=1, gamma=default_noise_rate(k))
        theta, acc = majority_threshold(spec)
        exact = exact_majority_gap(spec)
        if abs(exact - (2.0 * acc - 1.0)) > 1e-12:
            failures.append(f"k={k}: gap vs acceptance identity broken")
        exact_gaps.append(exact)

        h = majority_halfspace(spec, theta)
        rep = _stream_agreement(
            h,
            lambda start, cnt, s=spec, sid=i: dict_test_batch(s, 401, sid, start, cnt),
            n,
            50_000,
        )
        emp_gaps.append(rep.gap)
        sigma = math.sqrt(0.25 / rep.n1 + 0.25 / rep.n0)
        sigmas.append(sigma)
        if abs(rep.gap - exact) > 4.0 * sigma:
            failures.append(
                f"k={k}: measured gap {rep.gap:.5f} vs exact {exact:.5f} "
                f"beyond 4 sigma {4 * sigma:.1e}"
            )

        coeffs = [float(c) - 0.5 for c in CursorRng(402, i).uniforms(17)]
        lin = linear_statistic_gap_exact(spec, coeffs)
        if lin != 0:
            failures.append(f"k={k}: linear statistic gap {lin} is not exactly 0")

    if not (exact_gaps[0] > exact_gaps[1] > exact_gaps[2]):
        failures.append(f"exact gaps not strictly decreasing: {exact_gaps}")
    for i in range(2):
        lo = emp_gaps[i] - 4.0 * sigmas[i]
        hi = emp_gaps[i + 1] + 4.0 * sigmas[i + 1]
        if lo <= hi:
            failures.append(
                f"gap intervals at k={ladder[i][0]} and k={ladder[i + 1][0]} "
                f"overlap: {lo:.5f} <= {hi:.5f}"
            )
    if emp_gaps[2] > 0.05:
        failures.append(f"largest-arity gap {emp_gaps[2]:.5f} exceeds 0.05")

    elapsed = _budget(failures, t0, 180.0)
    _verdict(
        "majority-gap-shrinks",
        failures,
        "gaps " + ", ".join(f"{g:.4f}" for g in emp_gaps) + f", {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 5. critical index: decay chain and prefix minimality


def _spiked_vector(rng: CursorRng, dim: int, spikes: int) -> np.ndarray:
    """Dominant coordinates over a flat tail: c_tau lands at spikes + 1.

    A near-constant tail of n entries is regular at its own top as long as
    tau * sqrt(n) >= max/min magnitude ratio, while every spike at 3x the
    full tail norm stays critical.
    """
    mags = 0.8 + 0.4 * np.asarray(rng.uniforms(dim))
    signs = np.where(np.asarray(rng.uniforms(dim)) < 0.5, -1.0, 1.0)
    tail = mags * signs
    mag = 3.0 * float(np.linalg.norm(tail))
    head = []
    for _ in range(spikes):
        head.append(mag * (1.0 if rng.bernoulli(0.5) else -1.0))
        mag *= 2.0 + rng.uniform()
    return np.concatenate([np.asarray(head[::-1]), tail])


def test_critical_index_decay_chain_and_prefix_minimality():
    t0 = time.perf_counter()
    failures: list[str] = []

    tau = 0.25
    rng = CursorRng(505, 0)
    chain_checked = chain_fail = 0
    minimal_checked = minimal_fail = 0
    attempts = 0
    while (chain_checked < 1000 or minimal_checked < 1000) and attempts < 200_000:
        attempts += 1
        if attempts % 2:
            dim = (8, 16, 32)[attempts % 3]
            w = np.asarray(rng.uniforms(dim)) - 0.5
        else:
            w = _spiked_vector(rng, (32, 40, 48)[attempts % 3], 1 + attempts % 3)
            dim = w.size
        report = critical_index(w, tau)
        finite_c = report.c_tau if math.isfinite(report.c_tau) else dim
        limit = int(min(finite_c - 1, dim - 1))
        if limit >= 0 and chain_checked < 1000:
            chain_checked += 1
            if not check_geometric_decay(w, tau, limit):
                chain_fail += 1
        if not (2 <= report.c_tau < math.inf) or minimal_checked >= 1000:
            continue
        minimal_checked += 1
        prefix = regularizing_prefix(w, tau)
        rest = w - truncate(w, prefix)
        keep = np.ones(dim, dtype=bool)
        keep[prefix] = False
        if critical_index(rest[keep], tau).c_tau != 1:
            minimal_fail += 1
            continue
        if prefix.size >= 1:
            shorter = prefix[:-1]
            rest2 = w - truncate(w, shorter)
            keep2 = np.ones(dim, dtype=bool)
            keep2[shorter] = False
            if critical_index(rest2[keep2], tau).c_tau == 1:
                minimal_fail += 1

    if chain_checked < 1000:
        failures.append(f"only {chain_checked} decay-chain vectors generated")
    if minimal_checked < 1000:
        failures.append(f"only {minimal_checked} prefix-minimality vectors generated")
    if chain_fail:
        failures.append(f"{chain_fail} decay-chain violations")
    if minimal_fail:
        failures.append(f"{minimal_fail} prefix-minimality violations")

    elapsed = _budget(failures, t0, 10.0)
    _verdict(
        "critical-index-structure",
        failures,
        f"{chain_checked} chain + {minimal_checked} minimality vectors, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 6. short intervals: at most one cube point, and the noisy mass bound


def test_short_intervals_unique_point_and_noisy_mass():
    t0 = time.perf_counter()
    failures: list[str] = []

    rng = CursorRng(606, 0)
    unique_fail = 0
    for case in range(100):
        dim = 4 + case % 13
        w = _decaying_vector(rng, dim, 1.0 / 3.0)
        mags = require_geometric(w)
        sums = subset_sums(w)
        # strictly inside the length-m/3 precondition: adding the half-width
        # to a large center rounds the endpoints by an ulp either way
        half = mags[-1] * (0.98 / 6.0)
        span = float(np.abs(w).sum())
        for j in range(100):
            if j % 5 < 3:
                center = float(sums[rng.randint(sums.size)])
            else:
                center = (2.0 * rng.uniform() - 1.0) * span
            if unique_point_in_interval(w, center - half, center + half) > 1:
                unique_fail += 1
    if unique_fail:
        failures.append(f"{unique_fail} intervals held more than one cube point")

    # adversarial sources: the point mass sits exactly on the ball center,
    # where the escape probability meets the bound with equality
    ball_fail = 0
    worst_margin = math.inf
    for case in range(30):
        dim = (8, 12, 16)[case % 3]
        gamma = (0.2, 0.4)[case % 2]
        w = _decaying_vector(rng, dim, 1.0 / 3.0)
        pick = rng.randint(1 << dim)
        chosen = [(pick >> i) & 1 for i in range(dim)]
        center = float(np.dot(chosen, w))
        source = [
            uniform_bits(dim),
            ProductBits([0.1 + 0.8 * rng.uniform() for _ in range(dim)]),
            PointMass(chosen),
        ][case % 3]
        est = noisy_small_ball(w, source, gamma, center, 20_000, 606, stream_id=case)
        worst_margin = min(worst_margin, est.bound + est.slack - est.estimate)
        if not est.passed:
            ball_fail += 1
    if ball_fail:
        failures.append(f"{ball_fail} noisy small-ball estimates exceeded the bound")

    elapsed = _budget(failures, t0, 60.0)
    _verdict(
        "short-interval-mass",
        failures,
        f"10000 intervals, 30 ball estimates, slack margin {worst_margin:.2e}, "
        f"{elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 7. regular vectors: interval spread and noise-mass floors


def test_regular_spread_and_noise_mass_bounds():
    t0 = time.perf_counter()
    failures: list[str] = []

    gamma, tau, trials = 0.2, 0.2, 20_000
    rng = CursorRng(707, 0)
    spread_fail = mass_fail = 0
    for case in range(100):
        w = _regular_unit_vector(rng, tau)
        dim = w.size
        source = uniform_bits(dim) if case % 2 == 0 else ProductBits(
            [0.2 + 0.6 * rng.uniform() for _ in range(dim)]
        )
        center = float(w @ np.full(dim, 0.5)) + (rng.uniform() - 0.5)
        width = 0.2 * rng.uniform()
        est = spread_estimate(
            w, source, gamma, center - width / 2.0, center + width / 2.0,
            tau, trials, 707, stream_id=case,
        )
        if not est.passed:
            spread_fail += 1
        mass = noise_mass_estimate(w, gamma, tau, trials, 707, stream_id=100 + case)
        if not mass.passed:
            mass_fail += 1

    if spread_fail:
        failures.append(f"{spread_fail} spread estimates exceeded the bound")
    if mass_fail:
        failures.append(f"{mass_fail} noise-mass estimates fell under the floor")

    elapsed = _budget(failures, t0, 120.0)
    _verdict(
        "regular-spread-bounds",
        failures,
        f"100 cases x {trials} trials each, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 8. invariance: quartic, cubic, hybrid, and sign bounds by enumeration


def test_invariance_bounds_on_exhaustive_micro_families():
    t0 = time.perf_counter()
    failures: list[str] = []

    gadgets = ((12, "0.82", "0.25"), (16, "0.78", "0.25"), (24, "0.7", "0.25"))
    pairs = {kep: build_pair(*kep) for kep in gadgets}
    rng = CursorRng(808, 0)
    families = 50
    quartic_fail = sgn_fail = hybrid_fail = cubic_nonzero = 0
    cubic_checked = 0
    worst_excess = -math.inf

    for idx in range(families):
        d0, d1 = pairs[gadgets[idx % len(gadgets)]]
        m = 2 + (idx % 2)
        rr = 2 + idx % 5  # block counts 2..6, exhaustive support <= 8^6
        ens_a = mixture_marginal_ensemble(d1, m)
        ens_b = mixture_marginal_ensemble(d0, m)
        fam_a = family(*(ens_a for _ in range(rr)))
        fam_b = family(*(ens_b for _ in range(rr)))
        blocks = [
            [0.4 * (rng.uniform() - 0.5) for _ in range(m)] for _ in range(rr)
        ]
        theta = rng.uniform() - 0.5

        quartic = invariance_gap(fam_a, fam_b, blocks, theta, QUARTIC)
        if not quartic.passed:
            quartic_fail += 1
        worst_excess = max(worst_excess, quartic.gap - quartic.bound)

        cubic = invariance_gap_exact(
            fam_a, fam_b, blocks, 0, PolyPsi(coeffs=(0, 1, 1, 1))
        )
        cubic_checked += 1
        if cubic != 0:
            cubic_nonzero += 1

        steps = hybrid_steps(fam_a, fam_b, blocks, theta, QUARTIC)
        per_step = QUARTIC.k_bound / 12.0
        for i, step in enumerate(steps):
            if abs(step) > per_step * sum(abs(c) for c in blocks[i]) ** 4 + 1e-9:
                hybrid_fail += 1
        signed = quartic.expect_b - quartic.expect_a
        if abs(sum(steps) - signed) > 1e-9:
            hybrid_fail += 1

        if not sgn_gap_bound(fam_a, fam_b, blocks, theta, alpha=0.2).passed:
            sgn_fail += 1

    if quartic_fail:
        failures.append(f"{quartic_fail} quartic gaps above the bound")
    if cubic_checked < 20:
        failures.append(f"only {cubic_checked} exact cubic checks ran")
    if cubic_nonzero:
        failures.append(f"{cubic_nonzero} cubic gaps were not exactly zero")
    if hybrid_fail:
        failures.append(f"{hybrid_fail} hybrid-step violations")
    if sgn_fail:
        failures.append(f"{sgn_fail} sign-gap bounds violated")

    elapsed = _budget(failures, t0, 120.0)
    _verdict(
        "invariance-micro-families",
        failures,
        f"{families} families, {cubic_checked} exact cubics, "
        f"worst quartic excess {worst_excess:.2e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 9. truncating a heavy block barely moves reduced-stream acceptance


def test_top_t_truncation_keeps_acceptance_stable():
    t0 = time.perf_counter()
    failures: list[str] = []

    k = 64
    d0, d1 = build_pair(k, "0.5", "0.25")
    spec = Spec(d0=d0, d1=d1, r=4, gamma=default_noise_rate(k))
    # |V| = k makes every edge cover every vertex, so the mean-shift
    # recentering in the truncation is exact rather than averaged
    inst, _ = gen_planted_projection(k, 32, k, 8, 4, 2, seed=909)
    if edge_incidence_fraction(inst, 0) != 1.0:
        failures.append("fixture does not cover vertex 0 on every edge")

    rng = CursorRng(909, 1)
    grid = (np.asarray(rng.uniforms(k * 8)).reshape(k, 8) - 0.5) * 0.2
    grid[0] = (1.0 / 3.0) ** np.arange(8)
    h = Halfspace.from_grid(grid, centered_threshold(spec, grid))
    if math.isfinite(critical_index(grid[0], 0.3).c_tau):
        failures.append("heavy block unexpectedly has a finite critical index")

    t = 6
    h_trunc, shift = truncation_shift(h, 0, t, inst, spec)
    dropped = grid[0] - truncate(grid[0], top_indices(grid[0], t))
    per_coord = (1.0 - spec.gamma) * exact_moment(spec.d0, [0]) + spec.gamma / 2.0
    if abs(shift - per_coord * float(dropped.sum())) > 1e-12:
        failures.append(f"threshold shift {shift:.3e} off its closed form")

    n, chunk = 200_000, 10_000
    diff_sum = 0
    diff_sq = 0
    for start in range(0, n, chunk):
        bits, _ = lc_reduce_batch(inst, spec, 909, 5, start, chunk)
        delta = h.evaluate(bits).astype(np.int64) - h_trunc.evaluate(bits).astype(
            np.int64
        )
        diff_sum += int(delta.sum())
        diff_sq += int((delta * delta).sum())
    mean = diff_sum / n
    var = max(diff_sq / n - mean * mean, 0.0)
    sigma_paired = math.sqrt(var / n)
    bound = 1.0 / (k * k) + 4.0 * sigma_paired
    if abs(mean) > bound:
        failures.append(
            f"acceptance moved {abs(mean):.2e} > 1/k^2 + 4 sigma {bound:.2e}"
        )

    elapsed = _budget(failures, t0, 120.0)
    _verdict(
        "truncation-stability",
        failures,
        f"|shift| {shift:.2e}, acceptance change {mean:+.2e} "
        f"(bound {bound:.2e}) over {n} draws, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 10. planted instances: closed-form acceptance, decoding, smoothness audits


def test_planted_instance_decoding_and_smoothness_audits():
    t0 = time.perf_counter()
    failures: list[str] = []

    inst, lab = gen_planted_unique(30, 60, 3, 16, seed=1010)
    d0, d1 = completeness_pair(3, "0.5", "0.25")
    spec = Spec(
        d0=d0, d1=d1, r=16, gamma=default_noise_rate(3), completeness_only=True
    )
    closed = or_acceptance_closed_form(spec)
    hyp = planted_disjunction(lab)
    n = 30_000
    rep = _stream_agreement(
        hyp,
        lambda start, cnt: ug_reduce_batch(inst, spec, 1010, 2, start, cnt),
        n,
        10_000,
    )
    sigma = _closed_form_sigma(spec, rep.n1, rep.n0)
    err = abs(rep.balanced_acceptance - closed)
    if err > 4.0 * sigma:
        failures.append(
            f"planted acceptance {rep.balanced_acceptance:.5f} vs closed "
            f"{closed:.5f}: |diff| {err:.2e} > 4 sigma {4 * sigma:.2e}"
        )

    h = hyp.as_halfspace()
    dec_spec = DecoderSpec(t=1, tau=0.25, trials=8)
    decoded = decode_labeling(h, dec_spec, 1010, 3, trial=0)
    if not np.array_equal(decoded.assignment, lab.assignment):
        failures.append("top-1 decoding does not recover the planted labeling")
    report = weak_sat_rate_of_decoder(h, dec_spec, inst, 1010, stream_id=3)
    if report.weak_rate != 1.0:
        failures.append(f"weakly satisfied fraction {report.weak_rate} != 1.0")

    # bijections never collide, so the unique instance audits to zero
    worst_unique = max(
        audit_smoothness(inst, v).value for v in range(inst.num_vertices)
    )
    if worst_unique != 0.0:
        failures.append(f"unique instance shows collision rate {worst_unique}")

    pinst, _ = gen_planted_projection(10, 30, 3, 8, 4, 2, seed=1011)
    if audit_preimage(pinst) > 2:
        failures.append(f"projection preimage {audit_preimage(pinst)} exceeds d=2")

    # handcrafted collision rate: vertex 0 sees the colliding row on one of
    # its four W-neighbors, so exactly 1/4 of its occurrences collide
    neighbors = np.tile(np.asarray([0, 1], dtype=np.int32), (4, 1))
    rows = np.tile(np.arange(4, dtype=np.int32), (4, 2, 1))
    rows[0, 0] = np.asarray([0, 0, 2, 3], dtype=np.int32)
    bip = BipartiteInstance(
        num_w=4, num_v=2, m=4, n=4, neighbors=neighbors, projections=rows
    )
    sm = smooth_from_bipartite(bip, 2)
    value = audit_smoothness(sm, 0).value
    if value != 0.25:
        failures.append(f"handcrafted collision rate {value} != 1/4")
    if value > 1.0 / 4.0:
        failures.append(f"collision rate {value} above the 1/J ceiling")
    if audit_smoothness(sm, 1).value != 0.0:
        failures.append("collision leaked to the clean vertex")

    elapsed = _budget(failures, t0, 60.0)
    _verdict(
        "planted-decode-smoothness",
        failures,
        f"acceptance {rep.balanced_acceptance:.5f} vs {closed:.5f}, "
        f"weak rate {report.weak_rate}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 11. niceness: audited edge fraction and the regular-block ceiling


def test_niceness_audits_within_bounds():
    t0 = time.perf_counter()
    failures: list[str] = []

    inst, _ = gen_planted_projection(10, 40, 3, 8, 4, 2, seed=1111)
    rng = CursorRng(1111, 1)
    grid = np.asarray(rng.uniforms(10 * 8)).reshape(10, 8) - 0.5
    h = Halfspace.from_grid(grid, 0.0)
    tau = 0.25
    nice = edge_niceness_audit(inst, h, tau, 2.0 * tau)
    d = audit_preimage(inst)
    worst_collision = max(
        audit_smoothness(inst, v).value for v in range(inst.num_vertices)
    )
    if worst_collision <= 0.0:
        failures.append("projection fixture shows no collisions to calibrate J")
    else:
        j = 1.0 / worst_collision
        bound = non_nice_bound(inst.k, d, j)
        if 1.0 - nice > bound:
            failures.append(
                f"non-nice fraction {1.0 - nice:.4f} exceeds k*d^16/J = {bound:.3e}"
            )

    # bijective rows on a regular block keep the niceness value at tau^2
    reg_tau = 0.5
    produced = regular_fail = attempts = 0
    worst_value = 0.0
    while produced < 100 and attempts < 10_000:
        attempts += 1
        w = _regular_unit_vector(rng, reg_tau)
        if critical_index(w, reg_tau).c_tau != 1:
            continue
        produced += 1
        # a regular block is its own regular part
        value = float(collision_mass(w, np.arange(w.size), w.size))
        worst_value = max(worst_value, value)
        if value > reg_tau * reg_tau + 1e-12:
            regular_fail += 1
    if produced < 100:
        failures.append(f"only {produced} regular blocks generated")
    if regular_fail:
        failures.append(f"{regular_fail} regular blocks broke the tau^2 ceiling")

    elapsed = _budget(failures, t0, 30.0)
    _verdict(
        "niceness-audits",
        failures,
        f"nice fraction {nice:.4f}, worst regular value {worst_value:.4f} "
        f"<= {reg_tau * reg_tau}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 12. every sampling subcommand is byte-deterministic under its seed


# SHA-256 of each run's output file and labeling (None: the run writes no
# labeling); for learn the output is the .hs file, for decode the .lab.  The
# reduce streams echo the relative --instance path into their header, so the
# test runs inside tmp_path with relative file names.
_GOLDEN_DIGESTS = {
    "gen-lc-unique": (
        "81effcc2787f1e13715f9c2cbc009a4f5df22c98fa24f0e806e4e7a7033d8641",
        "8c28b6707503a236f590ba4cce934035971d2a69bd11023b831a32f3bbd4004c",
    ),
    "gen-lc-projection": (
        "152f27aa3ec6159ca49ed83c2d23844e29c983853827725a480f0a889711242f",
        "dba921e4245d62a438150ce7708eeff267a2efc8e480cbad254f65741b906520",
    ),
    "gen-lc-smooth": (
        "29f3729d2dab5f3861db1dd9e465f2e393ce3faf9391608104f467926496d493",
        "3711a86ee28220e55bae50e6730f23ab8b55b3a519836b816ae2f8a5af30e600",
    ),
    "sample": (
        "18adf44237c85b9b72de83071b650069c79e7a696b0c6ecb81d6fcb405b425a0",
        None,
    ),
    "reduce-unique": (
        "6de44e896245a282671d3d595ca5b8dcfb35550c056243529a16e0a8f72fd815",
        None,
    ),
    "reduce-projection": (
        "3b8f7ecd6de228cd49cff2280fefb0908f7325b06fb2895c62352ff02287ba2a",
        None,
    ),
    "learn-projection": (
        "9dd9899276424565110b3725f8bcd67966096ece9b1b6ad73d9ba193c71420c8",
        None,
    ),
    "learn-sample": (
        "f3f6b6f3024884e29d223666f8a2f80338f64dc26871240996ea446b08cfa292",
        None,
    ),
    "learn-projection-inverse": (
        "29fe7540eb2c3d84ce8a6dd14d87169ff85d1018a4fa17974f6761bc1a50dbe3",
        None,
    ),
    "decode": (
        "9efebc9430521c7b7f2892fcc4e3c327f1d3b7f2dec6ed9a5caba463a6a81a0c",
        None,
    ),
}


# SHA-256 of the stdout `check` lines of the first (tag "a") run; dict-test
# writes no file, so it is checked by its stdout alone.
_STDOUT_DIGESTS = {
    "learn-projection": "e6ce8a3281c2f60e8d2cf4e61a752c3fd50c4dac01521730c8dc856c6dfb17aa",
    "decode": "878d6635b34cb43344145006407175dfd3fd373284e693bf47efa2cd1154f973",
    "dict-test": "1d7424396d9cd3be8d618f89d449469f86aba7477695537e69a601ddd9351a9c",
    "verify-moments": "8aef0d0422ceac8e178f0027e85c4104b58ffc0c77bd91a32ccc8779780048c1",
    "verify-invariance": "d9fbf262e753e3efb4abfcca428f5ad41aed3d39f5e812565e9896ce2364b496",
    "verify-critical-index": "f5a9da256f63dda1df51db8ccc3c7fc95a41bf0544216cd90ef59d2bea352c41",
    "verify-critical-index-tau": "c0399af79d8509972b90555cce7cf81b1768f27304603f4fc4dd7432adce82c7",
    "verify-niceness": "1fb37067844edce4994ebc01ac4a36458945302f0874a56e95709a35c3f84e7b",
    "verify-niceness-beta": "3b802c2a524bf0d13e21e55ca826d900dee15ee4a24025a4182c3420cc3ffba2",
    "verify-spread": "996b4d8d5824d07371e50a1d79c6cf11cc816c44f205c75a4e81ec8999ce1fd6",
    "verify-small-ball": "ef4787bf0bbda59f7fdd1cd63b1eda8ac3d3bb7073fe4b41c268f1e7f104acb3",
}


def _check_lines_digest(stdout: str) -> str:
    lines = [ln for ln in stdout.splitlines() if ln.startswith("check\t")]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _pinned_command_failures(tmp_path, monkeypatch, capsys) -> list[str]:
    """Run every pinned command twice and return each mismatch with its pin."""
    from glhs.cli import main

    failures: list[str] = []
    monkeypatch.chdir(tmp_path)

    gadget = ["--k", "12", "--eps", "0.82", "--p", "0.25", "--gamma", "0.01"]
    learn = ["learn", "--epochs", "12", "--seed", "4"]
    unique_inst = "unique.lc"
    proj_inst = "proj.lc"
    runs = {
        "gen-lc-unique": lambda out, lab: [
            "gen-lc", "--kind", "unique", "--vertices", "14", "--edges", "20",
            "--k", "12", "--r", "6", "--seed", "7", "--out", out,
            "--labeling", lab,
        ],
        "gen-lc-projection": lambda out, lab: [
            "gen-lc", "--kind", "projection", "--vertices", "8", "--edges", "12",
            "--k", "5", "--m", "6", "--n", "3", "--d", "2", "--seed", "7",
            "--out", out, "--labeling", lab,
        ],
        "gen-lc-smooth": lambda out, lab: [
            "gen-lc", "--kind", "smooth", "--w-vertices", "3", "--vertices", "5",
            "--degree", "2", "--k", "2", "--m", "4", "--n", "2", "--d", "2",
            "--seed", "7", "--out", out, "--labeling", lab,
        ],
        "sample": lambda out, lab: ["sample"] + gadget + [
            "--r", "2", "--count", "96", "--seed", "11",
            "--stream-id", "3", "--out", out,
        ],
        "reduce-unique": lambda out, lab: ["reduce"] + gadget + [
            "--instance", unique_inst, "--count", "96", "--seed", "11",
            "--out", out,
        ],
        "reduce-projection": lambda out, lab: [
            "reduce", "--instance", proj_inst, "--k", "5", "--eps", "0.5",
            "--p", "0.25", "--gamma", "0.01", "--completeness-only",
            "--count", "96", "--seed", "11", "--out", out,
        ],
        # learn and decode read the first (tag "a") outputs of the runs above
        "learn-projection": lambda out, lab: learn + [
            "--stream", "reduce-projection-a.out", "--out", out,
        ],
        "learn-sample": lambda out, lab: learn + [
            "--stream", "sample-a.out", "--out", out,
        ],
        "learn-projection-inverse": lambda out, lab: learn + [
            "--stream", "reduce-projection-a.out", "--rate", "0.3",
            "--schedule", "inverse", "--out", out,
        ],
        "decode": lambda out, lab: [
            "decode", "--halfspace", "learn-projection-a.out", "--instance",
            proj_inst, "--t", "2", "--tau", "0.25", "--trials", "64",
            "--seed", "6", "--out", out,
        ],
    }

    # instances consumed by the reduce runs
    assert main(runs["gen-lc-unique"](unique_inst, "unique.lab")) == 0
    assert main(runs["gen-lc-projection"](proj_inst, "proj.lab")) == 0

    def check_stdout(name: str) -> None:
        got = _check_lines_digest(capsys.readouterr().out)
        if got != _STDOUT_DIGESTS[name]:
            failures.append(f"{name}: stdout check lines digest {got} is not the golden one")

    for name, build in runs.items():
        digests = []
        for tag in ("a", "b"):
            out = tmp_path / f"{name}-{tag}.out"
            lab = tmp_path / f"{name}-{tag}.lab"
            capsys.readouterr()
            code = main(build(out.name, lab.name))
            if code != 0:
                failures.append(f"{name} ({tag}) exited {code}")
            if tag == "a" and name in _STDOUT_DIGESTS:
                check_stdout(name)
            digests.append((
                hashlib.sha256(out.read_bytes()).hexdigest(),
                hashlib.sha256(lab.read_bytes()).hexdigest() if lab.exists() else None,
            ))
        if digests[0] != digests[1]:
            failures.append(f"{name}: rerun output differs byte-for-byte")
        if digests[0] != _GOLDEN_DIGESTS[name]:
            failures.append(f"{name}: output digests {digests[0]} are not the golden ones")

    checked_runs = {
        "dict-test": ["dict-test"] + gadget + ["--r", "6", "--samples", "600", "--seed", "2"],
        "verify-moments": ["verify", "moments", "--k", "16", "--eps", "0.78", "--p", "0.25"],
        "verify-invariance": [
            "verify", "invariance", "--families", "6", "--r", "5", "--seed", "0",
        ],
        # the benchmark argv (no vector reaches prefix minimality at tau 0.25)
        # and tau 0.3, where 181 of the 2000 vectors do
        "verify-critical-index": ["verify", "critical-index", "--count", "2000", "--seed", "0"],
        "verify-critical-index-tau": [
            "verify", "critical-index", "--count", "2000", "--tau", "0.3", "--seed", "0",
        ],
        # the benchmark tau (every block reads 0) and one where 3/4 of the edges
        # are not nice
        "verify-niceness": [
            "verify", "niceness", "--instance", proj_inst,
            "--halfspace", "learn-projection-a.out", "--tau", "0.25",
        ],
        "verify-niceness-beta": [
            "verify", "niceness", "--instance", proj_inst,
            "--halfspace", "learn-projection-a.out", "--tau", "0.6", "--beta", "1.5",
        ],
        "verify-spread": [
            "verify", "spread", "--cases", "4", "--trials", "5000", "--seed", "0",
        ],
        "verify-small-ball": [
            "verify", "small-ball", "--cases", "4", "--trials", "5000", "--seed", "0",
        ],
    }
    for name, argv in checked_runs.items():
        capsys.readouterr()
        code = main(argv)
        if code != 0:
            failures.append(f"{name} exited {code}")
        check_stdout(name)
    return failures


def test_sampling_commands_are_byte_deterministic(tmp_path, monkeypatch, capsys):
    t0 = time.perf_counter()
    failures = _pinned_command_failures(tmp_path, monkeypatch, capsys)
    elapsed = _budget(failures, t0, 60.0)
    _verdict(
        "sampling-determinism",
        failures,
        f"every pinned subcommand reruns byte-identically, {elapsed:.1f}s",
    )


def test_pinned_commands_ignore_the_chunk_size(tmp_path, monkeypatch, capsys):
    # the same pins under a 4096-cell budget: every row owns its counter
    # addresses, so chunking (and dict-test's one draw shared by both of
    # its checks) stays invisible in every output byte and stdout line
    from glhs import core

    t0 = time.perf_counter()
    monkeypatch.setattr(core, "CHUNK_CELLS", 4096)
    failures = _pinned_command_failures(tmp_path, monkeypatch, capsys)
    elapsed = _budget(failures, t0, 60.0)
    _verdict(
        "sampling-chunk-invariance",
        failures,
        f"every pin holds under 4096-cell chunks, {elapsed:.1f}s",
    )
