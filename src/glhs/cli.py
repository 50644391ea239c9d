"""Single command-line entrypoint.

Subcommands wire the library together: instance generation (gen-lc), stream
sampling (sample, reduce), the grid-test experiment (dict-test), lemma-level
verifications (verify ...), the perceptron probe (learn), halfspace decoding
(decode), and record-file aggregation (report).

Every run prints one check line per verified quantity and exits 0 iff all
asserted checks pass (exploratory records never fail a run).  Parameters can
come from a JSON config file (--config); explicit flags win.  Sampling
subcommands require a seed so every output is reproducible; the resolved
configuration is echoed into stream metadata and record-file headers.

The sentinel value 'paper' for --eps / --p / --gamma selects the theoretical
couplings (eps = k^-1/2, p = k^-1/3, gamma = 1/k^2); the first two are
infeasible for the exact gadget pair at any desk-scale k, and the resulting
error explains which weight fails.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .core import (
    MASK64,
    PURPOSE_AUX,
    AtomicFile,
    CursorRng,
    purpose_stream,
)
from .concentration import (
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
from .halfspace import (
    check_geometric_decay,
    critical_index,
    drop_top,
    read_halfspace,
    write_halfspace,
)
from .harness import (
    CheckRecord,
    ExperimentPlan,
    LearnerConfig,
    agreement,
    fold_record_files,
    load_examples,
    make_record,
    negated_rate,
    perceptron_train,
    run_experiment,
    summarize_records,
    write_dict_test_stream,
    write_reduction_stream,
)
from .invariance import (
    QUARTIC,
    PolyPsi,
    family,
    hybrid_steps,
    invariance_gap,
    invariance_gap_exact,
    mixture_marginal_ensemble,
    sgn_gap_bound,
)
from .labelcover import (
    audit_connected,
    audit_preimage,
    audit_smoothness,
    gen_planted_bipartite,
    gen_planted_projection,
    gen_planted_unique,
    read_instance,
    read_labeling,
    satisfaction_fractions,
    smooth_from_bipartite,
    write_instance,
    write_labeling,
)
from .moments import (
    asymptotic_eps,
    asymptotic_rate,
    boundary_eps,
    build_pair,
    completeness_pair,
    default_noise_rate,
    enum_oracle_moment,
    exact_moment,
    marginal_pmf,
    moment_gap,
    solve_d0_weights,
)
from .reduction import (
    DecoderSpec,
    TestSpec,
    decode_labeling,
    edge_niceness_audit,
    non_nice_bound,
    weak_sat_rate_of_decoder,
)


class CliError(ValueError):
    """User-facing configuration error; printed without a traceback."""


# ---------------------------------------------------------------------------
# config plumbing


def _apply_config(args: argparse.Namespace) -> None:
    """Fill unset (None) argument slots from the JSON config file, with the
    command line's types: integer flags take integers, no flag takes a
    non-finite number."""
    if not getattr(args, "config", None):
        return
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read config file {args.config}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"config file {args.config} is not valid JSON: {exc}") from exc
    if not isinstance(loaded, dict):
        raise CliError("config file must hold a JSON object of parameter=value")
    for key, value in loaded.items():
        attr = key.replace("-", "_")
        if not hasattr(args, attr) or value is None:
            continue
        if not isinstance(value, (str, int, float)):
            raise CliError(
                f"config value for {key!r} must be a number or a string, "
                f"got {type(value).__name__}"
            )
        if isinstance(value, float) and not math.isfinite(value):
            raise CliError(f"config value for {key!r} must be finite, got {value}")
        if attr in args.int_flags:
            if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
                raise CliError(f"config value for {key!r} must be an integer, got {value!r}")
            value = int(value) if isinstance(value, float) else value
        if getattr(args, attr) is None:
            setattr(args, attr, value)


def _require(args: argparse.Namespace, name: str) -> object:
    value = getattr(args, name, None)
    if value is None:
        raise CliError(
            f"--{name.replace('_', '-')} is required for this subcommand "
            f"(set it on the command line or in --config)"
        )
    return value


def _seed(args: argparse.Namespace, default: int | None = None) -> int:
    """The master seed: --seed, or `default` when it may be omitted."""
    if default is None:
        seed = int(_require(args, "seed"))
    else:
        value = getattr(args, "seed", None)
        seed = int(default if value is None else value)
    if not 0 <= seed <= MASK64:
        raise CliError(f"--seed must be in [0, 2^64), got {seed}")
    return seed


def _opt(args: argparse.Namespace, name: str, default, cast, ok, need: str):
    """An optional flag: `default` when unset (0 is a value, not unset), else
    the cast value, which must satisfy `ok`."""
    value = getattr(args, name, None)
    value = default if value is None else cast(value)
    if not ok(value):
        raise CliError(f"--{name.replace('_', '-')} must be {need}, got {value}")
    return value


def _at_least(args: argparse.Namespace, name: str, default: int, low: int = 1) -> int:
    return _opt(args, name, default, int, lambda v: v >= low, f">= {low}")


def _unit(args: argparse.Namespace, name: str, default: float) -> float:
    """A rate or a tau: a float in (0, 1]."""
    return _opt(args, name, default, float, lambda v: 0.0 < v <= 1.0, "in (0, 1]")


def _positive_j(args: argparse.Namespace) -> float | None:
    """The optional smoothness parameter J of the collision bound 1/J."""
    return _opt(args, "j", None, float, lambda v: v is None or v > 0.0, "> 0")


def _count(args: argparse.Namespace, name: str, low: int = 0) -> int:
    """A required integer flag of at least `low`: an example count (--count,
    --samples) is never negative, a size is at least 1."""
    count = int(_require(args, name))
    if count < low:
        raise CliError(f"--{name.replace('_', '-')} must be >= {low}, got {count}")
    return count


def _resolve_params(args: argparse.Namespace) -> tuple[int, object, object, float]:
    """(k, eps, p, gamma) from --k/--eps/--p/--gamma, with the 'paper'
    sentinels resolved; an unset --p or --gamma means 'paper'."""
    k = int(_require(args, "k"))
    if k < 1:
        raise CliError(f"--k must be >= 1, got {k}")
    eps = _require(args, "eps")
    p = getattr(args, "p", None)
    eps = asymptotic_eps(k) if eps == "paper" else str(eps)
    p = asymptotic_rate(k) if p in (None, "paper") else str(p)
    gamma = getattr(args, "gamma", None)
    gamma = default_noise_rate(k) if gamma in (None, "paper") else float(gamma)
    return k, eps, p, gamma


def _resolve_gadget(args: argparse.Namespace) -> tuple[TestSpec, dict]:
    """Build a TestSpec from --k/--r/--eps/--p/--gamma."""
    k, eps, p, gamma = _resolve_params(args)
    if getattr(args, "completeness_only", False):
        d0, d1 = completeness_pair(k, eps, p)
    else:
        d0, d1 = build_pair(k, eps, p)
    r = _at_least(args, "r", 1)
    spec = TestSpec(
        d0=d0,
        d1=d1,
        r=r,
        gamma=gamma,
        completeness_only=bool(getattr(args, "completeness_only", False)),
    )
    echo = {"k": k, "eps": eps, "p": p, "gamma": gamma, "r": r}
    return spec, echo


def _echo_text(echo: dict) -> str:
    return " ".join(f"{key}={value}" for key, value in sorted(echo.items()))


def _emit(args: argparse.Namespace, records: list[CheckRecord], echo: dict) -> int:
    for rec in records:
        print(rec.line())
    summary = summarize_records(records)
    print(summary.line())
    path = getattr(args, "records", None)
    if path:
        with AtomicFile(path) as fh:
            fh.write(f"# config: {_echo_text(echo)}\n")
            for rec in records:
                fh.write(rec.line() + "\n")
    return 0 if summary.ok else 1


def _aux_rng(seed: int, lane: int = 0) -> CursorRng:
    return CursorRng(int(seed), purpose_stream(lane, PURPOSE_AUX))


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_gen_lc(args: argparse.Namespace) -> int:
    kind = _require(args, "kind")
    seed = _seed(args)
    out = _require(args, "out")
    k = _count(args, "k", low=2)
    if kind == "unique":
        nv, ne, r = (_count(args, name, low=1) for name in ("vertices", "edges", "r"))
        inst, lab = gen_planted_unique(nv, ne, k, r, seed)
        echo = {"kind": kind, "vertices": nv, "edges": ne, "k": k, "r": r, "seed": seed}
    elif kind == "projection":
        nv, ne, m, n, d = (
            _count(args, name, low=1) for name in ("vertices", "edges", "m", "n", "d")
        )
        inst, lab = gen_planted_projection(nv, ne, k, m, n, d, seed)
        echo = {
            "kind": kind, "vertices": nv, "edges": ne, "k": k,
            "m": m, "n": n, "d": d, "seed": seed,
        }
    elif kind == "smooth":
        nw, nv, deg, m, n, d = (
            _count(args, name, low=1)
            for name in ("w_vertices", "vertices", "degree", "m", "n", "d")
        )
        bip, lab = gen_planted_bipartite(nw, nv, deg, m, n, d, seed)
        inst = smooth_from_bipartite(bip, k)
        echo = {
            "kind": kind, "w_vertices": nw, "vertices": nv, "degree": deg,
            "k": k, "m": m, "n": n, "d": d, "seed": seed,
        }
    else:
        raise CliError(f"unknown instance kind {kind!r}; use unique|projection|smooth")

    strong = satisfaction_fractions(inst, lab)[0]
    records = [
        make_record("gen-lc.planted-strong", echo, strong, "== 1.0", strong == 1.0)
    ]
    if kind != "unique":
        worst = audit_preimage(inst)
        records.append(make_record("gen-lc.preimage", echo, worst, f"<= {d}", worst <= d))
    records.append(
        make_record(
            "gen-lc.connected",
            echo,
            1.0 if audit_connected(inst) else 0.0,
            "reported",
            None,
        )
    )
    write_instance(inst, out)
    if getattr(args, "labeling", None):
        write_labeling(lab, args.labeling)
    return _emit(args, records, echo)


def _cmd_sample(args: argparse.Namespace) -> int:
    """sample (the grid test) and reduce (an instance's reduction)."""
    seed = _seed(args)
    out = _require(args, "out")
    count = _count(args, "count")
    stream_id = _at_least(args, "stream_id", 0, low=0)
    inst_path = getattr(args, "instance", None)
    if inst_path:
        inst = read_instance(inst_path)
        if getattr(args, "r", None) is None:
            args.r = inst.m if inst.unique else inst.n
        spec, echo = _resolve_gadget(args)
        echo.update({"instance": inst_path, "count": count, "seed": seed})
        write_reduction_stream(
            out, inst, spec, count, seed, stream_id, extra_meta=_echo_text(echo)
        )
        kind = "ug-reduce" if inst.unique else "lc-reduce"
    else:
        spec, echo = _resolve_gadget(args)
        echo.update({"count": count, "seed": seed})
        write_dict_test_stream(
            out, spec, count, seed, stream_id, extra_meta=_echo_text(echo)
        )
        kind = "dict-test"
    records = [
        make_record(
            "sample.write", {**echo, "kind": kind, "out": out}, count, "reported", None
        )
    ]
    return _emit(args, records, echo)


def _cmd_dict_test(args: argparse.Namespace) -> int:
    seed = _seed(args)
    samples = _count(args, "samples")
    spec, echo = _resolve_gadget(args)
    echo.update({"samples": samples, "seed": seed})
    records = run_experiment(
        ExperimentPlan(
            kind="completeness",
            spec=spec,
            samples=samples,
            master_seed=seed,
            threshold=getattr(args, "floor", None),
        )
    )
    if not spec.completeness_only:
        gap_bound = getattr(args, "gap_bound", None)
        records.extend(
            run_experiment(
                ExperimentPlan(
                    kind="soundness",
                    spec=spec,
                    samples=samples,
                    master_seed=seed,
                    threshold=float(gap_bound) if gap_bound is not None else None,
                )
            )
        )
    return _emit(args, records, echo)


def _cmd_verify_moments(args: argparse.Namespace) -> int:
    k, eps_v, p_v, gamma = _resolve_params(args)
    echo = {"k": k, "eps": eps_v, "p": p_v, "gamma": gamma}

    sol = solve_d0_weights(k, eps_v, p_v)
    residuals = sol.residuals()
    print(
        "weights:",
        " ".join(f"eps{i + 1}={w}" for i, w in enumerate(sol.eps_floats)),
    )
    print("residuals:", " ".join(f"{x:.3e}" for x in residuals))
    d0, d1 = build_pair(k, eps_v, p_v)
    gap = moment_gap(d0, d1, 4)
    noisy_gap = moment_gap(d0.noisy(gamma), d1.noisy(gamma), 4)
    records = [
        make_record(
            "moments.residuals", echo, max(abs(x) for x in residuals),
            "<= 1e-12", max(abs(x) for x in residuals) <= 1e-12,
        ),
        make_record("moments.gap", echo, gap, "<= 1e-9", gap <= 1e-9),
        make_record(
            "moments.noisy-gap", echo, noisy_gap, "<= 1e-9", noisy_gap <= 1e-9
        ),
        make_record(
            "moments.boundary-eps", echo, float(boundary_eps(k, p_v)),
            "reported (smallest feasible eps at this k, p)", None,
        ),
    ]
    if k <= 16:
        worst = 0.0
        for dist in (d0, d1):
            pmf = marginal_pmf(dist, dist.k)
            if abs(float(pmf.sum()) - 1.0) > 1e-12:
                worst = max(worst, abs(float(pmf.sum()) - 1.0))
            for size in range(1, 5):
                coords = list(range(size))
                worst = max(
                    worst,
                    abs(enum_oracle_moment(dist, coords) - exact_moment(dist, coords)),
                )
        records.append(
            make_record(
                "moments.enum-oracle", echo, worst, "<= 1e-12", worst <= 1e-12
            )
        )
    return _emit(args, records, echo)


def _random_decaying_vector(rng: CursorRng, dim: int, ratio: float) -> np.ndarray:
    """Magnitudes shrink by at least `ratio` per step; random signs."""
    mags = []
    mag = 1.0
    for _ in range(dim):
        mags.append(mag)
        mag *= ratio * (0.6 + 0.4 * rng.uniform())
    signs = np.asarray([1.0 if rng.bernoulli(0.5) else -1.0 for _ in range(dim)])
    return np.asarray(mags) * signs


# verify critical-index draws and checks its vectors this many cells at a time
_VECTOR_BLOCK_CELLS = 1 << 18


def _cmd_verify_critical_index(args: argparse.Namespace) -> int:
    seed = _seed(args, default=0)
    count = _at_least(args, "count", 1000)
    dim = _at_least(args, "dim", 32)
    tau = _unit(args, "tau", 0.25)
    echo = {"count": count, "dim": dim, "tau": tau, "seed": seed}
    rng = _aux_rng(seed)
    chain_fail = minimal_fail = 0
    minimality_checked = 0
    step = max(1, _VECTOR_BLOCK_CELLS // dim)
    for lo in range(0, count, step):
        # one cursor, so a block of rows reads the words of one vector after another
        rows = min(step, count - lo)
        w = np.asarray(rng.uniforms(rows * dim)).reshape(rows, dim) - 0.5
        report = critical_index(w, tau)
        limit = np.minimum(report.prefix_size, dim - 1)
        chain_fail += sum(not check for check in check_geometric_decay(w, tau, limit))
        # prefix minimality, on the rows with 2 <= c_tau < inf: zeroing the
        # c_tau - 1 largest magnitudes leaves a regular vector, and zeroing
        # one fewer does not
        sel = (report.c_tau >= 2) & np.isfinite(report.c_tau)
        order, cut = report.order[sel], report.prefix_size[sel]
        rest = critical_index(drop_top(w[sel], order, cut), tau)
        longer = critical_index(drop_top(w[sel], order, cut - 1), tau)
        minimality_checked += len(cut)
        minimal_fail += int(np.count_nonzero(~rest.is_regular | longer.is_regular))
    records = [
        make_record(
            "critical-index.decay-chain", echo, chain_fail, "== 0 failures",
            chain_fail == 0,
        ),
        make_record(
            "critical-index.prefix-minimality",
            {**echo, "checked": minimality_checked},
            minimal_fail, "== 0 failures", minimal_fail == 0,
        ),
    ]
    return _emit(args, records, echo)


def _cmd_verify_small_ball(args: argparse.Namespace) -> int:
    seed = _seed(args)
    cases = _at_least(args, "cases", 100)
    t = _at_least(args, "t", 12)
    gamma = _unit(args, "gamma", 0.25)
    trials = _at_least(args, "trials", 20000)
    echo = {"cases": cases, "t": t, "gamma": gamma, "trials": trials, "seed": seed}
    rng = _aux_rng(seed)
    unique_fail = ball_fail = 0
    for case in range(cases):
        w = _random_decaying_vector(rng, t, 1.0 / 3.0)
        mags = require_geometric(w)
        sums = subset_sums(w)
        center = float(sums[rng.randint(sums.size)])
        # shrink by one ulp at the endpoints' scale, so that rounding
        # center -/+ half keeps the interval length within m/3
        half = mags[-1] / 6.0 - np.spacing(abs(center) + mags[-1])
        if unique_point_in_interval(w, center - half, center + half) > 1:
            unique_fail += 1
        source = [
            uniform_bits(t),
            ProductBits([0.1 + 0.8 * rng.uniform() for _ in range(t)]),
            PointMass([rng.bernoulli(0.5) for _ in range(t)]),
        ][case % 3]
        est = noisy_small_ball(w, source, gamma, center, trials, seed, stream_id=case)
        if not est.passed:
            ball_fail += 1
    records = [
        make_record(
            "small-ball.unique-point", echo, unique_fail, "== 0 failures",
            unique_fail == 0,
        ),
        make_record(
            "small-ball.noisy-mass", echo, ball_fail, "== 0 failures",
            ball_fail == 0,
        ),
    ]
    return _emit(args, records, echo)


def _regular_unit_vector(rng: CursorRng, tau: float) -> np.ndarray:
    dim = int(np.ceil((2.0 / tau) ** 2)) + 1
    raw = 0.5 + 0.5 * np.asarray(rng.uniforms(dim))
    signs = np.where(np.asarray(rng.uniforms(dim)) < 0.5, -1.0, 1.0)
    w = raw * signs
    return w / np.linalg.norm(w)


def _cmd_verify_spread(args: argparse.Namespace) -> int:
    seed = _seed(args)
    cases = _at_least(args, "cases", 20)
    gamma = _unit(args, "gamma", 0.2)
    tau = _unit(args, "tau", 0.2)
    trials = _at_least(args, "trials", 20000)
    echo = {"cases": cases, "gamma": gamma, "tau": tau, "trials": trials, "seed": seed}
    rng = _aux_rng(seed)
    spread_fail = mass_fail = 0
    for case in range(cases):
        w = _regular_unit_vector(rng, tau)
        dim = w.size
        source = uniform_bits(dim) if case % 2 == 0 else ProductBits(
            [0.2 + 0.6 * rng.uniform() for _ in range(dim)]
        )
        center = float(w @ np.full(dim, 0.5)) + (rng.uniform() - 0.5)
        width = 0.2 * rng.uniform()
        est = spread_estimate(
            w, source, gamma, center - width / 2.0, center + width / 2.0,
            tau, trials, seed, stream_id=case,
        )
        if not est.passed:
            spread_fail += 1
        mass = noise_mass_estimate(w, gamma, tau, trials, seed, stream_id=cases + case)
        if not mass.passed:
            mass_fail += 1
    records = [
        make_record(
            "spread.interval-bound", echo, spread_fail, "== 0 failures",
            spread_fail == 0,
        ),
        make_record(
            "spread.noise-mass-floor", echo, mass_fail, "== 0 failures",
            mass_fail == 0,
        ),
    ]
    return _emit(args, records, echo)


_MICRO_GADGETS = ((12, "0.82", "0.25"), (16, "0.78", "0.25"), (24, "0.7", "0.25"))


def _cmd_verify_invariance(args: argparse.Namespace) -> int:
    seed = _seed(args, default=0)
    families = _at_least(args, "families", 50)
    r = _at_least(args, "r", 4)
    if r > 6:
        raise CliError("verify invariance is exhaustive; r must stay <= 6")
    echo = {"families": families, "r": r, "seed": seed}
    rng = _aux_rng(seed)
    worst_excess = -1.0
    cubic_nonzero = 0
    quartic_fail = sgn_fail = hybrid_fail = 0
    for idx in range(families):
        k, eps, p = _MICRO_GADGETS[idx % len(_MICRO_GADGETS)]
        d0, d1 = build_pair(k, eps, p)
        m = 2 + (idx % 2)
        ens_a = mixture_marginal_ensemble(d1, m)
        ens_b = mixture_marginal_ensemble(d0, m)
        rr = 2 + (idx + seed) % (r - 1) if r > 2 else r
        fam_a = family(*(ens_a for _ in range(rr)))
        fam_b = family(*(ens_b for _ in range(rr)))
        blocks = [
            [0.4 * (rng.uniform() - 0.5) for _ in range(m)] for _ in range(rr)
        ]
        theta = rng.uniform() - 0.5
        quartic = invariance_gap(fam_a, fam_b, blocks, theta, QUARTIC, QUARTIC.k_bound)
        if not quartic.passed:
            quartic_fail += 1
        worst_excess = max(worst_excess, quartic.gap - quartic.bound)
        cubic = invariance_gap_exact(
            fam_a, fam_b, blocks, 0, PolyPsi(coeffs=(0, 1, 1, 1))
        )
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
        sgn = sgn_gap_bound(fam_a, fam_b, blocks, theta, alpha=0.2)
        if not sgn.passed:
            sgn_fail += 1
    records = [
        make_record(
            "invariance.quartic", {**echo, "worst_excess": f"{worst_excess:.3e}"},
            quartic_fail, "== 0 failures", quartic_fail == 0,
        ),
        make_record(
            "invariance.cubic-exact-zero", echo, cubic_nonzero, "== 0 failures",
            cubic_nonzero == 0,
        ),
        make_record(
            "invariance.hybrid-steps", echo, hybrid_fail, "== 0 failures",
            hybrid_fail == 0,
        ),
        make_record(
            "invariance.sgn-gap", echo, sgn_fail, "== 0 failures", sgn_fail == 0
        ),
    ]
    return _emit(args, records, echo)


def _cmd_verify_smoothness(args: argparse.Namespace) -> int:
    j = _positive_j(args)
    inst = read_instance(_require(args, "instance"))
    vertex = getattr(args, "vertex", None)
    vertices = [int(vertex)] if vertex is not None else [
        v for v in range(inst.num_vertices) if (inst.edges == v).any()
    ]
    worst = 0.0
    for v in vertices:
        report = audit_smoothness(inst, v)
        worst = max(worst, report.value)
    echo = {"instance": args.instance, "vertices": len(vertices)}
    d = getattr(args, "d", None)
    worst_preimage = audit_preimage(inst)
    records = [
        make_record(
            "smoothness.max-collision",
            {**echo, "j": j if j is not None else "unset"},
            worst,
            f"<= 1/{j}" if j is not None else "reported",
            worst <= 1.0 / float(j) if j is not None else None,
        ),
        make_record(
            "smoothness.preimage", echo, worst_preimage,
            f"<= {d}" if d is not None else "reported",
            worst_preimage <= int(d) if d is not None else None,
        ),
    ]
    return _emit(args, records, echo)


def _cmd_verify_niceness(args: argparse.Namespace) -> int:
    j = _positive_j(args)
    d = getattr(args, "d", None)
    inst = read_instance(_require(args, "instance"))
    h = read_halfspace(_require(args, "halfspace"))
    tau = float(_require(args, "tau"))
    beta = getattr(args, "beta", None)
    beta = 2.0 * tau if beta is None else float(beta)
    nice = edge_niceness_audit(inst, h, tau, beta)
    non_nice = 1.0 - nice
    echo = {
        "instance": args.instance, "halfspace": args.halfspace,
        "tau": tau, "beta": beta,
    }
    if j is not None and d is not None:
        bound = non_nice_bound(inst.k, int(d), float(j))
        record = make_record(
            "niceness.non-nice-fraction", {**echo, "j": j, "d": d},
            non_nice, f"<= {bound:.6g} (k*d^16/J)", non_nice <= bound,
        )
    else:
        record = make_record(
            "niceness.non-nice-fraction", echo, non_nice, "reported", None
        )
    return _emit(args, [record], echo)


def _cmd_learn(args: argparse.Namespace) -> int:
    stream = _require(args, "stream")
    cfg = LearnerConfig(
        epochs=_at_least(args, "epochs", 5),
        rate=_opt(args, "rate", 1.0, float, lambda v: v > 0.0, "> 0"),
        schedule=getattr(args, "schedule", None) or "constant",
        shuffle_seed=_seed(args, default=0),
        averaged=not getattr(args, "no_average", False),
    )
    bits, labels, rows, cols = load_examples(stream)
    h = perceptron_train((bits, labels), cfg, rows, cols)
    if getattr(args, "out", None):
        write_halfspace(h, args.out)
    rep = agreement(h, [(bits, labels)])
    trivial = max(rep.n1, rep.n0) / rep.count
    echo = {
        "stream": stream, "epochs": cfg.epochs, "rate": cfg.rate,
        "schedule": cfg.schedule, "seed": cfg.shuffle_seed, "averaged": cfg.averaged,
    }
    records = [
        make_record(
            "learn.train-agreement", {**echo, "hyp": rep.hypothesis},
            rep.rate, "reported", None,
        ),
        make_record(
            "learn.vs-trivial", echo, rep.rate - trivial,
            "reported (learned minus best-constant agreement)", None,
        ),
        make_record(
            "learn.negation-identity", echo,
            abs(rep.rate + negated_rate(rep) - 1.0), "<= 1e-12",
            abs(rep.rate + negated_rate(rep) - 1.0) <= 1e-12,
        ),
    ]
    return _emit(args, records, echo)


def _cmd_decode(args: argparse.Namespace) -> int:
    seed = _seed(args)
    h = read_halfspace(_require(args, "halfspace"))
    inst = read_instance(_require(args, "instance"))
    spec = DecoderSpec(
        t=_at_least(args, "t", 1),
        tau=_unit(args, "tau", 0.25),
        trials=_at_least(args, "trials", 64),
    )
    report = weak_sat_rate_of_decoder(h, spec, inst, seed)
    echo = {
        "halfspace": args.halfspace, "instance": args.instance,
        "t": spec.t, "trials": spec.trials, "seed": seed,
    }
    expect_full = bool(getattr(args, "expect_full", False))
    records = [
        make_record(
            "decode.weak-rate", echo, report.weak_rate,
            ">= 1.0" if expect_full else "reported",
            report.weak_rate >= 1.0 if expect_full else None,
        )
    ]
    if getattr(args, "out", None) or getattr(args, "labeling", None):
        decoded = decode_labeling(h, spec, seed, 0, trial=0)
    if getattr(args, "out", None):
        write_labeling(decoded, args.out)
    if getattr(args, "labeling", None):
        planted = read_labeling(args.labeling)
        match = bool(np.array_equal(decoded.assignment, planted.assignment))
        records.append(
            make_record(
                "decode.matches-planted", echo, 1.0 if match else 0.0,
                "== 1" if spec.t == 1 else "reported",
                match if spec.t == 1 else None,
            )
        )
    return _emit(args, records, echo)


def _cmd_report(args: argparse.Namespace) -> int:
    records, summary = fold_record_files(args.files)
    for rec in records:
        print(rec.line())
    print(summary.line())
    return 0 if summary.ok else 1


# ---------------------------------------------------------------------------
# parser


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON file of default parameter values")
    sub.add_argument("--records", help="write check records to this file")
    sub.add_argument("--seed", type=int, help="master seed (sampling subcommands)")


def _add_gadget(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--k", type=int, help="column arity of the gadget")
    sub.add_argument("--r", type=int, help="grid width (columns per example)")
    sub.add_argument("--eps", help="mixing weight, or 'paper' for k^-1/2")
    sub.add_argument("--p", help="base rate, or 'paper' for k^-1/3")
    sub.add_argument("--gamma", help="noise rate, or 'paper' for 1/k^2")
    sub.add_argument(
        "--completeness-only", action="store_true",
        help="use the one-sided pair (no degree-4 matching)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="glhs",
        description="Gadget distributions, projection instances, halfspace "
        "experiments, and lemma-level verifications.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("gen-lc", help="generate a projection instance")
    _add_common(sub)
    sub.add_argument("--kind", choices=("unique", "projection", "smooth"))
    sub.add_argument("--vertices", type=int)
    sub.add_argument("--edges", type=int)
    sub.add_argument("--k", type=int)
    sub.add_argument("--r", type=int, help="label count for unique instances")
    sub.add_argument("--m", type=int)
    sub.add_argument("--n", type=int)
    sub.add_argument("--d", type=int)
    sub.add_argument("--w-vertices", type=int, dest="w_vertices")
    sub.add_argument("--degree", type=int)
    sub.add_argument("--out")
    sub.add_argument("--labeling", help="also write the planted labeling here")
    sub.set_defaults(func=_cmd_gen_lc)

    for name, needs_instance in (("sample", False), ("reduce", True)):
        sub = subs.add_parser(
            name,
            help="write a labeled example stream"
            + (" from an instance" if needs_instance else ""),
        )
        _add_common(sub)
        _add_gadget(sub)
        if needs_instance:
            sub.add_argument("--instance", required=True)
        sub.add_argument("--count", type=int)
        sub.add_argument("--stream-id", type=int, dest="stream_id")
        sub.add_argument("--out")
        sub.set_defaults(func=_cmd_sample)

    sub = subs.add_parser("dict-test", help="run the grid-test experiment")
    _add_common(sub)
    _add_gadget(sub)
    sub.add_argument("--samples", type=int)
    sub.add_argument("--floor", type=float, help="assert acceptance at least this")
    sub.add_argument(
        "--gap-bound", type=float, dest="gap_bound",
        help="assert the majority-probe gap stays under this",
    )
    sub.set_defaults(func=_cmd_dict_test)

    verify = subs.add_parser("verify", help="lemma-level verifications")
    vsubs = verify.add_subparsers(dest="verify_what", required=True)

    sub = vsubs.add_parser("moments")
    _add_common(sub)
    _add_gadget(sub)
    sub.set_defaults(func=_cmd_verify_moments)

    sub = vsubs.add_parser("critical-index")
    _add_common(sub)
    sub.add_argument("--count", type=int)
    sub.add_argument("--dim", type=int)
    sub.add_argument("--tau", type=float)
    sub.set_defaults(func=_cmd_verify_critical_index)

    sub = vsubs.add_parser("small-ball")
    _add_common(sub)
    sub.add_argument("--cases", type=int)
    sub.add_argument("--t", type=int)
    sub.add_argument("--gamma", type=float)
    sub.add_argument("--trials", type=int)
    sub.set_defaults(func=_cmd_verify_small_ball)

    sub = vsubs.add_parser("spread")
    _add_common(sub)
    sub.add_argument("--cases", type=int)
    sub.add_argument("--gamma", type=float)
    sub.add_argument("--tau", type=float)
    sub.add_argument("--trials", type=int)
    sub.set_defaults(func=_cmd_verify_spread)

    sub = vsubs.add_parser("invariance")
    _add_common(sub)
    sub.add_argument("--families", type=int)
    sub.add_argument("--r", type=int)
    sub.set_defaults(func=_cmd_verify_invariance)

    sub = vsubs.add_parser("smoothness")
    _add_common(sub)
    sub.add_argument("--instance")
    sub.add_argument("--vertex", type=int)
    sub.add_argument("--j", type=float)
    sub.add_argument("--d", type=int)
    sub.set_defaults(func=_cmd_verify_smoothness)

    sub = vsubs.add_parser("niceness")
    _add_common(sub)
    sub.add_argument("--instance")
    sub.add_argument("--halfspace")
    sub.add_argument("--tau", type=float)
    sub.add_argument("--beta", type=float)
    sub.add_argument("--j", type=float)
    sub.add_argument("--d", type=int)
    sub.set_defaults(func=_cmd_verify_niceness)

    sub = subs.add_parser("learn", help="train the perceptron probe on a stream")
    _add_common(sub)
    sub.add_argument("--stream")
    sub.add_argument("--epochs", type=int)
    sub.add_argument("--rate", type=float)
    sub.add_argument("--schedule", choices=("constant", "inverse"))
    sub.add_argument("--no-average", action="store_true", dest="no_average")
    sub.add_argument("--out", help="write the trained halfspace here")
    sub.set_defaults(func=_cmd_learn)

    sub = subs.add_parser("decode", help="decode a halfspace into a labeling")
    _add_common(sub)
    sub.add_argument("--halfspace")
    sub.add_argument("--instance")
    sub.add_argument("--t", type=int)
    sub.add_argument("--tau", type=float)
    sub.add_argument("--trials", type=int)
    sub.add_argument("--labeling", help="compare against this planted labeling")
    sub.add_argument(
        "--expect-full", action="store_true", dest="expect_full",
        help="assert the weak-satisfaction rate is 1.0",
    )
    sub.add_argument("--out", help="write the trial-0 labeling here")
    sub.set_defaults(func=_cmd_decode)

    sub = subs.add_parser("report", help="fold record files into one summary")
    sub.add_argument("files", nargs="+")
    sub.set_defaults(func=_cmd_report)

    # the flags a config value must fill with an integer, per subcommand
    for sub in (*subs.choices.values(), *vsubs.choices.values()):
        if sub.get_default("func"):
            sub.set_defaults(int_flags={a.dest for a in sub._actions if a.type is int})
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config(args)
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: missing file: {exc.filename or exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:  # CliError and every library error included
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
