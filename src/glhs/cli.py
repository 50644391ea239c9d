"""Single command-line entrypoint.

Subcommands wire the library together: instance generation (gen-lc), stream
sampling (sample, reduce), the grid-test experiment (dict-test), lemma-level
verifications (verify ...), the perceptron probe (learn), halfspace decoding
(decode), and record-file aggregation (report).

Every run prints one check line per verified quantity and exits 0 iff all
asserted checks pass (exploratory records never fail a run).  Each
subcommand's flags are declared once, as rows of `_COMMANDS`: name, kind,
default, whether it is required, and allowed range.  The parser is built
from those rows, and `_resolve` turns a parsed command line plus an optional
JSON config file (--config; explicit flags win) into the one dict of
resolved parameters a handler reads.  Command-line strings and config values
go through the same converter and range check, so a value out of range is a
usage error (exit 2) whichever route it came by.  Sampling subcommands
require a seed so every output is reproducible; the resolved configuration
is echoed into stream metadata and record-file headers.

The sentinel value 'paper' for --eps / --p / --gamma selects the theoretical
couplings (eps = k^-1/2, p = k^-1/3, gamma = 1/k^2); the first two are
infeasible for the exact gadget pair at any desk-scale k, and the resulting
error explains which weight fails.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .core import (
    PURPOSE_AUX,
    AtomicFile,
    CursorRng,
    StreamReader,
    chunk_rows,
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
# flag rows and the resolver


class Flag(NamedTuple):
    """One row of a subcommand's flag table.

    `kind` is int, float (finite), path, choice, switch, rational (a number
    or 'paper', kept as the string given) or files (report's positional
    list).  `range` is the allowed range as printed in errors and --help:
    ">= 1", "> 0", "(0, 1]", "[0.01, 1]", "[0, 2^64)", or a choice's
    "a|b".  A required row must get a value from the command line or
    --config; "argv" means the parser requires it on the command line.
    """

    name: str
    kind: str = "int"
    default: object = None
    required: bool | str = False
    range: str = ""
    help: str = ""


# kind -> (the JSON types it takes once command-line text is parsed, what
# an error says it must be)
_KINDS = {
    "int": ((int, float), "an integer"),
    "float": ((int, float), "a finite number"),
    "rational": ((str, int, float), "a number or 'paper'"),
    "path": (str, "a path string"),
    "switch": (bool, "true or false"),
    "choice": (str, None),
}


# the largest decimal exponent a rational flag's text may carry; every
# finite float prints within it
_MAX_EXPONENT = 400


def _need(spec: str) -> str:
    return "in " + spec if spec.startswith(("(", "[")) else spec


def _bound(text: str) -> Fraction:
    base, _, exp = text.partition("^")
    return Fraction(base) ** int(exp or 1)


def _within(value, spec: str) -> bool:
    if spec.startswith(("(", "[")):
        lo, hi = (_bound(part) for part in spec[1:-1].split(", "))
        above = lo < value if spec[0] == "(" else lo <= value
        return above and (value < hi if spec[-1] == ")" else value <= hi)
    op, bound = spec.split()
    return value >= _bound(bound) if op == ">=" else value > _bound(bound)


def _convert(flag: Flag, value, text: bool):
    """One value as the row's type, checked against the row's range.

    `value` is command-line text when `text` is set, else a JSON value from
    --config.  Text for a numeric row is parsed first; after that both
    routes pass the same checks, so a config file gives numbers as JSON
    numbers, paths and choices as strings and switches as booleans.
    """
    kind, name = flag.kind, flag.name
    if kind == "files":
        return value
    number = None
    try:
        if text and kind in ("int", "float"):
            value = int(value) if kind == "int" else float(value)
        if isinstance(value, bool) != (kind == "switch") or not isinstance(value, _KINDS[kind][0]):
            raise ValueError
        if kind == "int":
            if isinstance(value, float) and not value.is_integer():
                raise ValueError
            value = number = int(value)
        elif kind == "float":
            value = number = float(value)
            if not math.isfinite(number):
                raise ValueError
        elif kind == "rational" and value != "paper":
            value = str(value)
            # Fraction(text) costs the square of its decimal exponent
            _, _, exp = value.lower().partition("e")
            if exp and abs(int(exp)) > _MAX_EXPONENT:
                raise CliError(
                    f"--{name} must be a number with a decimal exponent in "
                    f"[-{_MAX_EXPONENT}, {_MAX_EXPONENT}], got {value!r}"
                )
            number = Fraction(value)
        elif kind == "choice" and value not in flag.range.split("|"):
            raise ValueError
    except CliError:
        raise
    except (ValueError, OverflowError):
        want = _KINDS[kind][1] or f"one of {flag.range}"
        raise CliError(f"--{name} must be {want}, got {value!r}") from None
    if number is not None and not _within(number, flag.range):
        raise CliError(f"--{name} must be {_need(flag.range)}, got {value}")
    return value


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(loaded, dict):
        raise CliError("config file must hold a JSON object of parameter=value")
    return {key.replace("-", "_"): value for key, value in loaded.items()}


def _missing(name: str) -> CliError:
    return CliError(
        f"--{name} is required for this subcommand "
        f"(set it on the command line or in --config)"
    )


def _resolve(args: argparse.Namespace) -> dict:
    """The resolved-parameter dict of one run, keyed by the flags' dests.

    Each row of the subcommand's table takes its command-line value, else
    its --config value (JSON null counts as unset), else its default.  A
    value that came by either route goes through `_convert`; an explicit 0
    is a value, not "unset".  Range errors are reported before a missing
    required flag.
    """
    config = _load_config(args.config) if getattr(args, "config", None) else {}
    params, missing = {}, []
    for flag in args.table:
        key = flag.name.replace("-", "_")
        value = getattr(args, key)
        text = value is not None
        if not text:
            value = config.get(key)
            if isinstance(value, (list, dict)):
                raise CliError(
                    f"config value for {key!r} must be a number, a string or a "
                    f"boolean, got {type(value).__name__}"
                )
        if value is None:
            if flag.required:
                missing.append(flag.name)
            params[key] = flag.default
        else:
            params[key] = _convert(flag, value, text)
    if missing:
        raise _missing(missing[0])
    return params


def _resolve_params(p: dict) -> tuple[int, object, object, float]:
    """(k, eps, p, gamma) with the 'paper' sentinels resolved."""
    k = p["k"]
    eps = asymptotic_eps(k) if p["eps"] == "paper" else p["eps"]
    rate = asymptotic_rate(k) if p["p"] == "paper" else p["p"]
    gamma = default_noise_rate(k) if p["gamma"] == "paper" else float(Fraction(p["gamma"]))
    return k, eps, rate, gamma


def _resolve_gadget(p: dict) -> tuple[TestSpec, dict]:
    """Build a TestSpec from --k/--r/--eps/--p/--gamma/--completeness-only."""
    k, eps, rate, gamma = _resolve_params(p)
    pair = completeness_pair if p["completeness_only"] else build_pair
    d0, d1 = pair(k, eps, rate)
    spec = TestSpec(
        d0=d0, d1=d1, r=p["r"], gamma=gamma, completeness_only=p["completeness_only"]
    )
    echo = {"k": k, "eps": eps, "p": rate, "gamma": gamma, "r": p["r"]}
    return spec, echo


def _echo_text(echo: dict) -> str:
    return " ".join(f"{key}={value}" for key, value in sorted(echo.items()))


def _output(path: str | None):
    """An `AtomicFile` for an optional output path, or a context yielding None.

    `main` opens --records with it, and `learn` its --out, before the work
    starts, so a path that cannot be created fails at once rather than after
    the run; nothing appears at the path until the context exits cleanly.
    """
    return AtomicFile(path) if path else contextlib.nullcontext()


def _check_creatable(*paths: str | None) -> None:
    """Fail at once, before the work, if an output path cannot be created.

    For the outputs `gen-lc` and `decode` write through their path after the
    work (`write_instance`, `write_labeling`): a temporary file is made next
    to each target and deleted, so nothing appears at it, and a directory
    fails as it would when written.  Any other existing target that is not
    a regular file (a device, a pipe) is written directly and is not opened
    here: opening a pipe would wait for its reader.
    """
    for path in filter(None, paths):
        if os.path.isfile(path) or os.path.isdir(path) or not os.path.exists(path):
            AtomicFile(path).abort()


def _emit(p: dict, records: list[CheckRecord], echo: dict) -> int:
    """Print the records and their summary; copy them to the open --records file."""
    for rec in records:
        print(rec.line())
    summary = summarize_records(records)
    print(summary.line())
    if p["records"]:
        p["records"].write(f"# config: {_echo_text(echo)}\n")
        for rec in records:
            p["records"].write(rec.line() + "\n")
    return 0 if summary.ok else 1


def _aux_rng(seed: int, lane: int = 0) -> CursorRng:
    return CursorRng(int(seed), purpose_stream(lane, PURPOSE_AUX))


# ---------------------------------------------------------------------------
# subcommand handlers


# the size flags each instance kind reads, in echo order
_GEN_LC_SIZES = {
    "unique": ("vertices", "edges", "k", "r"),
    "projection": ("vertices", "edges", "k", "m", "n", "d"),
    "smooth": ("w_vertices", "vertices", "degree", "k", "m", "n", "d"),
}


def _cmd_gen_lc(p: dict) -> int:
    kind, seed, d = p["kind"], p["seed"], p["d"]
    sizes = _GEN_LC_SIZES[kind]
    for name in sizes:
        if p[name] is None:
            raise _missing(name.replace("_", "-"))
    echo = {"kind": kind, **{name: p[name] for name in sizes}, "seed": seed}
    _check_creatable(p["out"], p["labeling"])
    if kind == "smooth":
        bip, lab = gen_planted_bipartite(*(p[name] for name in sizes if name != "k"), seed)
        inst = smooth_from_bipartite(bip, p["k"])
    else:
        gen = gen_planted_unique if kind == "unique" else gen_planted_projection
        inst, lab = gen(*(p[name] for name in sizes), seed)

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
    write_instance(inst, p["out"])
    if p["labeling"]:
        write_labeling(lab, p["labeling"])
    return _emit(p, records, echo)


def _cmd_sample(p: dict) -> int:
    """sample (the grid test) and reduce (an instance's reduction)."""
    seed, out, count, stream_id = p["seed"], p["out"], p["count"], p["stream_id"]
    inst = read_instance(p["instance"]) if p.get("instance") else None
    if inst is not None and p["r"] is None:
        p["r"] = inst.m if inst.unique else inst.n
    spec, echo = _resolve_gadget(p)
    echo.update({"instance": p["instance"]} if inst else {}, count=count, seed=seed)
    if inst is None:
        write_dict_test_stream(out, spec, count, seed, stream_id, extra_meta=_echo_text(echo))
        kind = "dict-test"
    else:
        write_reduction_stream(
            out, inst, spec, count, seed, stream_id, extra_meta=_echo_text(echo)
        )
        kind = "ug-reduce" if inst.unique else "lc-reduce"
    records = [
        make_record(
            "sample.write", {**echo, "kind": kind, "out": out}, count, "reported", None
        )
    ]
    return _emit(p, records, echo)


def _cmd_dict_test(p: dict) -> int:
    seed, samples = p["seed"], p["samples"]
    spec, echo = _resolve_gadget(p)
    echo.update({"samples": samples, "seed": seed})
    plans = [ExperimentPlan("completeness", spec, samples, seed, p["floor"])]
    if not spec.completeness_only:
        plans.append(ExperimentPlan("soundness", spec, samples, seed, p["gap_bound"]))
    return _emit(p, run_experiment(*plans), echo)


def _cmd_verify_moments(p: dict) -> int:
    k, eps_v, p_v, gamma = _resolve_params(p)
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
        make_record("moments.gap", echo, float(gap), "== 0", gap == 0),
        make_record(
            "moments.noisy-gap", echo, float(noisy_gap), "== 0", noisy_gap == 0
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
                oracle = enum_oracle_moment(dist, coords)
                worst = max(worst, abs(oracle - float(exact_moment(dist, coords))))
        records.append(
            make_record(
                "moments.enum-oracle", echo, worst, "<= 1e-12", worst <= 1e-12
            )
        )
    return _emit(p, records, echo)


def _no_failures(check_id: str, echo: dict, failures: int) -> CheckRecord:
    """A verify check that passes when no case failed."""
    return make_record(check_id, echo, failures, "== 0 failures", failures == 0)


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


def _cmd_verify_critical_index(p: dict) -> int:
    seed, count, dim, tau = p["seed"], p["count"], p["dim"], p["tau"]
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
        _no_failures("critical-index.decay-chain", echo, chain_fail),
        _no_failures(
            "critical-index.prefix-minimality",
            {**echo, "checked": minimality_checked}, minimal_fail,
        ),
    ]
    return _emit(p, records, echo)


def _cmd_verify_small_ball(p: dict) -> int:
    seed, cases, t, gamma, trials = (
        p[name] for name in ("seed", "cases", "t", "gamma", "trials")
    )
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
        _no_failures("small-ball.unique-point", echo, unique_fail),
        _no_failures("small-ball.noisy-mass", echo, ball_fail),
    ]
    return _emit(p, records, echo)


def _regular_unit_vector(rng: CursorRng, tau: float) -> np.ndarray:
    dim = int(np.ceil((2.0 / tau) ** 2)) + 1
    raw = 0.5 + 0.5 * np.asarray(rng.uniforms(dim))
    signs = np.where(np.asarray(rng.uniforms(dim)) < 0.5, -1.0, 1.0)
    w = raw * signs
    return w / np.linalg.norm(w)


def _cmd_verify_spread(p: dict) -> int:
    seed, cases, gamma, tau, trials = (
        p[name] for name in ("seed", "cases", "gamma", "tau", "trials")
    )
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
        _no_failures("spread.interval-bound", echo, spread_fail),
        _no_failures("spread.noise-mass-floor", echo, mass_fail),
    ]
    return _emit(p, records, echo)


_MICRO_GADGETS = ((12, "0.82", "0.25"), (16, "0.78", "0.25"), (24, "0.7", "0.25"))


def _cmd_verify_invariance(p: dict) -> int:
    seed, families, r = p["seed"], p["families"], p["r"]
    echo = {"families": families, "r": r, "seed": seed}
    rng = _aux_rng(seed)
    worst_excess = -1.0
    cubic_nonzero = 0
    quartic_fail = sgn_fail = hybrid_fail = 0
    for idx in range(families):
        d0, d1 = build_pair(*_MICRO_GADGETS[idx % len(_MICRO_GADGETS)])
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
        quartic = invariance_gap(fam_a, fam_b, blocks, theta, QUARTIC)
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
        if sum(steps) != quartic.expect_b - quartic.expect_a:  # exact telescoping
            hybrid_fail += 1
        if not sgn_gap_bound(fam_a, fam_b, blocks, theta, alpha=0.2).passed:
            sgn_fail += 1
    records = [
        _no_failures(
            "invariance.quartic", {**echo, "worst_excess": f"{worst_excess:.3e}"},
            quartic_fail,
        ),
        _no_failures("invariance.cubic-exact-zero", echo, cubic_nonzero),
        _no_failures("invariance.hybrid-steps", echo, hybrid_fail),
        _no_failures("invariance.sgn-gap", echo, sgn_fail),
    ]
    return _emit(p, records, echo)


def _cmd_verify_smoothness(p: dict) -> int:
    j, d, vertex = p["j"], p["d"], p["vertex"]
    inst = read_instance(p["instance"])
    vertices = [vertex] if vertex is not None else [
        v for v in range(inst.num_vertices) if (inst.edges == v).any()
    ]
    worst = 0.0
    for v in vertices:
        report = audit_smoothness(inst, v)
        worst = max(worst, report.value)
    echo = {"instance": p["instance"], "vertices": len(vertices)}
    worst_preimage = audit_preimage(inst)
    records = [
        make_record(
            "smoothness.max-collision",
            {**echo, "j": j if j is not None else "unset"},
            worst,
            f"<= 1/{j}" if j is not None else "reported",
            worst <= 1.0 / j if j is not None else None,
        ),
        make_record(
            "smoothness.preimage", echo, worst_preimage,
            f"<= {d}" if d is not None else "reported",
            worst_preimage <= d if d is not None else None,
        ),
    ]
    return _emit(p, records, echo)


def _cmd_verify_niceness(p: dict) -> int:
    j, d, tau, beta = p["j"], p["d"], p["tau"], p["beta"]
    inst = read_instance(p["instance"])
    h = read_halfspace(p["halfspace"])
    beta = 2.0 * tau if beta is None else beta
    nice = edge_niceness_audit(inst, h, tau, beta)
    non_nice = 1.0 - nice
    echo = {
        "instance": p["instance"], "halfspace": p["halfspace"],
        "tau": tau, "beta": beta,
    }
    if j is not None and d is not None:
        bound = non_nice_bound(inst.k, d, j)
        record = make_record(
            "niceness.non-nice-fraction", {**echo, "j": j, "d": d},
            non_nice, f"<= {bound:.6g} (k*d^16/J)", non_nice <= bound,
        )
    else:
        record = make_record(
            "niceness.non-nice-fraction", echo, non_nice, "reported", None
        )
    return _emit(p, [record], echo)


def _cmd_learn(p: dict) -> int:
    stream = p["stream"]
    cfg = LearnerConfig(
        epochs=p["epochs"],
        rate=p["rate"],
        schedule=p["schedule"],
        shuffle_seed=p["seed"],
        averaged=not p["no_average"],
    )
    # --out may name the stream: the halfspace replaces it only at the commit
    with _output(p["out"]) as out:
        reader = StreamReader(stream)
        hdr = reader.header
        h = perceptron_train(reader.read_records(), cfg, hdr.rows, hdr.cols)
        [rep] = agreement([h], reader.read_batches(chunk_rows(hdr.bits_per_example)))
        if out:
            write_halfspace(h, out)
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
    return _emit(p, records, echo)


def _cmd_decode(p: dict) -> int:
    seed, out = p["seed"], p["out"]
    h = read_halfspace(p["halfspace"])
    inst = read_instance(p["instance"])
    planted = read_labeling(p["labeling"]) if p["labeling"] else None
    _check_creatable(out)
    spec = DecoderSpec(t=p["t"], tau=p["tau"], trials=p["trials"])
    report = weak_sat_rate_of_decoder(h, spec, inst, seed)
    echo = {
        "halfspace": p["halfspace"], "instance": p["instance"],
        "t": spec.t, "trials": spec.trials, "seed": seed,
    }
    expect_full = p["expect_full"]
    records = [
        make_record(
            "decode.weak-rate", echo, report.weak_rate,
            ">= 1.0" if expect_full else "reported",
            report.weak_rate >= 1.0 if expect_full else None,
        )
    ]
    if out or planted is not None:
        decoded = decode_labeling(h, spec, seed, 0, trial=0)
    if out:
        write_labeling(decoded, out)
    if planted is not None:
        match = bool(np.array_equal(decoded.assignment, planted.assignment))
        records.append(
            make_record(
                "decode.matches-planted", echo, 1.0 if match else 0.0,
                "== 1" if spec.t == 1 else "reported",
                match if spec.t == 1 else None,
            )
        )
    return _emit(p, records, echo)


def _cmd_report(p: dict) -> int:
    records, summary = fold_record_files(p["files"])
    for rec in records:
        print(rec.line())
    print(summary.line())
    return 0 if summary.ok else 1


# ---------------------------------------------------------------------------
# parser


def _size(name: str, default: int | None = None, low: int = 1, **more) -> Flag:
    return Flag(name, "int", default, range=f">= {low}", **more)


def _rate(name: str, default: float | None = None, **more) -> Flag:
    return Flag(name, "float", default, range="(0, 1]", **more)


def _path(name: str, required: bool | str = False, help: str = "") -> Flag:
    return Flag(name, "path", required=required, help=help)


_COMMON = (
    _path("config", help="JSON file of default parameter values"),
    _path("records", help="write check records to this file"),
)
_SEED = Flag("seed", required=True, range="[0, 2^64)", help="master seed")
_SEED_0 = _SEED._replace(required=False, default=0)
_PAIR = (
    _size("k", required=True, help="column arity of the gadget"),
    Flag("eps", "rational", required=True, range="[0, 1]",
         help="mixing weight, or 'paper' for k^-1/2"),
    Flag("p", "rational", "paper", range="[0, 1]", help="base rate, or 'paper' for k^-1/3"),
    Flag("gamma", "rational", "paper", range="[0, 1]", help="noise rate, or 'paper' for 1/k^2"),
)
_ONE_SIDED = Flag(
    "completeness-only", "switch", False, help="use the one-sided pair (no degree-4 matching)"
)
_GRID_R = _size("r", 1, help="grid width (columns per example)")
_J_D = (
    Flag("j", "float", range="> 0", help="smoothness parameter J of the collision bound 1/J"),
    _size("d", help="projection degree bound"),
)
_STREAM = (
    _path("out", True, "write the stream here"),
    _size("count", low=0, required=True, help="examples to draw"),
    Flag("stream-id", "int", 0, range="[0, 2^61)", help="stream lane of the draws"),
)

# subcommand -> (handler, help, flag rows); "verify x" is x under verify
_COMMANDS = {
    "gen-lc": (_cmd_gen_lc, "generate a projection instance", (
        Flag("kind", "choice", required=True, range="|".join(_GEN_LC_SIZES)),
        _SEED, _path("out", True, "write the instance here"),
        _size("k", low=2, required=True, help="edge arity"),
        _size("vertices"), _size("edges"), _size("r", help="label count for unique instances"),
        *map(_size, ("m", "n", "d", "w-vertices", "degree")),
        _path("labeling", help="also write the planted labeling here"), *_COMMON,
    )),
    "sample": (_cmd_sample, "write a labeled example stream", (
        _SEED, *_STREAM, *_PAIR, _GRID_R, _ONE_SIDED, *_COMMON,
    )),
    "reduce": (_cmd_sample, "write a labeled example stream from an instance", (
        _SEED, _path("instance", "argv"), *_STREAM, *_PAIR,
        _GRID_R._replace(default=None, help="grid width; default: the instance's label count"),
        _ONE_SIDED, *_COMMON,
    )),
    "dict-test": (_cmd_dict_test, "run the grid-test experiment", (
        _SEED, _size("samples", required=True, help="examples drawn, shared by the checks"),
        *_PAIR, _GRID_R, _ONE_SIDED,
        Flag("floor", "float", range="[0, 1]", help="assert acceptance at least this"),
        Flag("gap-bound", "float", range=">= 0", help="assert the majority-probe gap under this"),
        *_COMMON,
    )),
    "verify moments": (
        _cmd_verify_moments, "moment matching, weight residuals, enumeration oracle",
        (*_PAIR, *_COMMON),
    ),
    "verify critical-index": (
        _cmd_verify_critical_index, "decay chains and prefix minimality on random vectors",
        (_SEED_0, _size("count", 1000), _size("dim", 32), _rate("tau", 0.25), *_COMMON),
    ),
    "verify small-ball": (
        _cmd_verify_small_ball, "interval mass bounds under bit noise, Monte Carlo",
        (_SEED, _size("cases", 100), _size("t", 12), _rate("gamma", 0.25),
         _size("trials", 20000), *_COMMON),
    ),
    "verify spread": (
        _cmd_verify_spread, "tail spread and noise mass lower bounds for regular vectors",
        (_SEED, _size("cases", 20), _rate("gamma", 0.2),
         Flag("tau", "float", 0.2, range="[0.01, 1]",
              help="regularity; each case's vector has ceil((2/tau)^2) + 1 coordinates"),
         _size("trials", 20000), *_COMMON),
    ),
    "verify invariance": (
        _cmd_verify_invariance, "quartic hybrid bounds and exact cubic zero checks",
        (_SEED_0, _size("families", 50),
         Flag("r", "int", 4, range="[1, 6]", help="largest family size"),
         *_COMMON),
    ),
    "verify smoothness": (
        _cmd_verify_smoothness, "collision rates and preimage sizes of an instance",
        (_path("instance", True), _size("vertex", low=0, help="audit this vertex only"),
         *_J_D, *_COMMON),
    ),
    "verify niceness": (
        _cmd_verify_niceness, "fraction of edges nice for a given halfspace",
        (_path("instance", True), _path("halfspace", True), _rate("tau", required=True),
         Flag("beta", "float", range="> 0", help="niceness threshold; default: 2*tau"),
         *_J_D, *_COMMON),
    ),
    "learn": (_cmd_learn, "train the perceptron probe on a stream", (
        _path("stream", True), _size("epochs", 5), Flag("rate", "float", 1.0, range="> 0"),
        Flag("schedule", "choice", "constant", range="constant|inverse"),
        Flag("no-average", "switch", False, help="keep the last weights, not their average"),
        _path("out", help="write the trained halfspace here"), _SEED_0, *_COMMON,
    )),
    "decode": (_cmd_decode, "decode a halfspace into a labeling", (
        _SEED, _path("halfspace", True), _path("instance", True),
        _size("t", 1, help="list size"), _rate("tau", 0.25), _size("trials", 64),
        _path("labeling", help="compare against this planted labeling"),
        Flag("expect-full", "switch", False, help="assert the weak-satisfaction rate is 1.0"),
        _path("out", help="write the trial-0 labeling here"), *_COMMON,
    )),
    "report": (_cmd_report, "fold record files into one summary", (
        Flag("files", "files", required="argv", help="record files"),
    )),
}


def _help(flag: Flag) -> str:
    """A row's --help text, ending in its kind, range and default."""
    facts = flag.range if flag.kind == "choice" else f"{flag.kind} {_need(flag.range)}".strip()
    if flag.required:
        facts += ", required"
    elif flag.default is not None:
        facts += f", default {flag.default}"
    return f"{flag.help} [{facts}]".lstrip()


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree of every subcommand, built once per process."""
    parser = argparse.ArgumentParser(
        prog="glhs",
        description="Gadget distributions, projection instances, halfspace "
        "experiments, and lemma-level verifications.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    verify = None
    for name, (func, text, table) in _COMMANDS.items():
        what = name.removeprefix("verify ")
        if what != name and verify is None:
            verify = subs.add_parser("verify", help="lemma-level verifications")
            verify = verify.add_subparsers(dest="verify_what", required=True)
        sub = (subs if what == name else verify).add_parser(what, help=text)
        for flag in table:
            if flag.kind == "files":
                sub.add_argument(flag.name, nargs="+", help=flag.help)
            elif flag.kind == "switch":
                sub.add_argument(
                    "--" + flag.name, action="store_true", default=None, help=flag.help
                )
            else:
                sub.add_argument(
                    "--" + flag.name, required=flag.required == "argv", help=_help(flag)
                )
        sub.set_defaults(func=func, table=table)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        p = _resolve(args)
        with _output(p.get("records")) as p["records"]:
            return args.func(p)
    except FileNotFoundError as exc:
        print(f"error: missing file: {exc.filename or exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:  # CliError and every library error included
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
