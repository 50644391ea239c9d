"""glhs benchmark: one workload, one seed, measured for a fixed time.

    python3 perfbench/run.py --workload dict-grid --seed 1 --seconds 25 --trace 0

Run from the repository root (glhs is imported from ./src).  Every pass of
the workload runs in a fresh child interpreter (perfbench/child.py), so
peak RSS belongs to that workload alone.  A run:

1. with --trace 0, times SETUP_SPAWNS fresh interpreters that import
   glhs.cli and build its parser: the set-up every CLI call pays;
2. reruns the commands that write pinned outputs at the pinned seed and
   compares their SHA-256 with digests.json, and runs the workload's
   untimed checks once at --seed;
3. runs whole passes at --seed back to back until --seconds are used.
   With --trace 1 untraced and traced passes alternate; the traced ones
   give the per-layer metrics, and their wall time minus the untraced wall
   time is the tracing overhead.

A command fails on a nonzero exit, a `fail` check line, or output bytes
that differ from the pin or from the run's first pass.  Metrics are medians
over passes.  The last stdout line is the JSON result; the run manifest
and per-pass data go to .bench_work/records/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

END_TO_END_METRICS = ("wall_s", "setup_s", "peak_rss_mb")
# throughputs of the untraced passes; every run prints them, and --trace 1
# reports them with the per-layer metrics
THROUGHPUTS = ("examples_per_s", "learn_steps_per_s", "decode_trials_per_s")
# per-layer metrics the run computes itself rather than reading from spans
RUN_LAYER_METRICS = ("trace_overhead_s",) + THROUGHPUTS

SETUP_SPAWNS = 7
PASS_TIMEOUT_S = 120
# a run must end within 180 s; stop starting passes well before that
RUN_BUDGET_S = 150


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def time_setup() -> float:
    """Wall time of a fresh interpreter that imports glhs.cli and builds its parser."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", "import glhs.cli; glhs.cli.build_parser()"],
        env=child_env(), cwd=ROOT, capture_output=True, timeout=60,
    )
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchError("cannot import glhs.cli: " + proc.stderr.decode()[-800:])
    return elapsed


def run_pass(workload: str, seed: int, run_dir: Path, tag: str,
             traced: bool = False, phase: str = "timed") -> dict:
    workdir = run_dir / tag
    workdir.mkdir()
    result = run_dir / f"{tag}.json"
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--workdir", str(workdir), "--result", str(result),
           "--phase", phase]
    if traced:
        cmd += ["--spans", str(run_dir / f"{tag}.spans.jsonl")]
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                          timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0 or not result.exists():
        raise BenchError(f"pass {tag} crashed: " + proc.stderr.decode()[-800:])
    shutil.rmtree(workdir)  # the streams are large; their digests are kept
    data = json.loads(result.read_text())
    if traced:
        spans = tracer.read_spans(run_dir / f"{tag}.spans.jsonl")
        data["layers"] = tracer.layer_stats(spans)
        data["spans_file"] = str(run_dir / f"{tag}.spans.jsonl")
    return data


def mark_digest_failures(passes: list[dict], expected: dict[str, str]) -> list[str]:
    """Fail every command whose output digest differs from `expected`."""
    problems = []
    for p in passes:
        for name, want in expected.items():
            got = p["digests"].get(name)
            if got == want:
                continue
            problems.append(f"{name}: {got} != {want} (seed {p['seed']})")
            for cmd in p["commands"]:
                if name in cmd["argv"] and cmd["argv"][cmd["argv"].index(name) - 1] == "--out":
                    cmd["failed"] = True
    return problems


def command_walls(passes: list[dict]) -> list[float]:
    """Each command's median wall time over the passes.

    Summing these, rather than taking the median of whole-pass times, keeps
    a slow spell that hits one command of one pass out of every figure.
    """
    return [
        statistics.median(p["commands"][i]["wall_s"] for p in passes)
        for i in range(len(passes[0]["commands"]))
    ]


def throughputs(commands: tuple, walls: list[float]) -> dict[str, float]:
    """Examples, learn steps and decode trials per second of their commands' wall time."""
    work = {key: [0, 0.0] for key in THROUGHPUTS}
    for argv, wall in zip(commands, walls):
        name = workloads.command_name(argv)
        done = {
            "examples_per_s": workloads.examples_drawn(argv),
            "learn_steps_per_s": workloads.learn_steps(argv, commands) if name == "learn" else 0,
            "decode_trials_per_s": int(argv[argv.index("--trials") + 1]) if name == "decode" else 0,
        }
        for key, amount in done.items():
            if amount:
                work[key][0] += amount
                work[key][1] += wall
    return {key: amount / wall if wall else 0.0 for key, (amount, wall) in work.items()}


def median_of(passes: list[dict], key) -> float:
    return statistics.median(key(p) for p in passes)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def measure(args, spec: dict) -> dict:
    wl = workloads.WORKLOADS[args.workload](args.seed)
    pins = json.loads((HERE / "digests.json").read_text())[args.workload]
    run_dir = WORK / f"run-{args.workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    begun = time.perf_counter()
    try:
        setup = [] if args.trace else [time_setup() for _ in range(SETUP_SPAWNS)]
        gate = []
        if wl.pinned:
            gate.append(run_pass(args.workload, workloads.PINNED_SEED, run_dir, "gate",
                                 phase="pinned"))
        if wl.checks:
            gate.append(run_pass(args.workload, args.seed, run_dir, "checks", phase="checks"))
        passes: list[dict] = []
        start = time.perf_counter()
        last = 0.0
        while not passes or (
            time.perf_counter() - start + last <= args.seconds
            and time.perf_counter() - begun + last <= RUN_BUDGET_S
        ) or (args.trace and len(passes) < 2):
            traced = bool(args.trace) and len(passes) % 2 == 1
            t0 = time.perf_counter()
            passes.append(run_pass(args.workload, args.seed, run_dir,
                                   f"pass{len(passes)}", traced=traced))
            passes[-1]["traced"] = traced
            last = time.perf_counter() - t0
        spans_kept = None
        traced_passes = [p for p in passes if p["traced"]]
        if traced_passes:
            records = WORK / "records"
            records.mkdir(exist_ok=True)
            spans_kept = records / f"{args.workload}-spans.jsonl"
            shutil.move(traced_passes[-1]["spans_file"], spans_kept)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    # `wrong` lists incorrect outputs; a command that only exits nonzero
    # counts as failed but produced no output to call wrong
    wrong = mark_digest_failures(gate[:1] if wl.pinned else [], pins["pinned"])
    first = passes[0]["digests"]
    wrong += mark_digest_failures(passes, {n: first.get(n) for n in wl.pinned})
    if args.seed == workloads.PINNED_SEED:
        wrong += mark_digest_failures(passes, pins["pinned"])
    commands = [c for p in gate + passes for c in p["commands"]]
    failed = sum(c["failed"] for c in commands)
    wrong += sorted({f"{c['command']}: {line}" for c in commands for line in c["fail_checks"]})
    errors = sorted({
        f"{c['command']} exited {c['rc']}: {((c['error'] or '').strip().splitlines() or [''])[-1]}"
        for c in commands if c["rc"] != 0
    })

    plain = [p for p in passes if not p["traced"]]
    walls = command_walls(plain)
    throughput = throughputs(wl.commands, walls)
    if args.trace:
        traced_passes = [p for p in passes if p["traced"]]
        counts = [tracer.layer_counts(p["layers"]) for p in traced_passes]
        if any(c != counts[0] for c in counts[1:]):
            wrong.append("traced passes at one seed gave different counts")
        metrics = {
            "trace_overhead_s": sum(command_walls(traced_passes)) - sum(walls),
            **throughput,
        }
        for m in spec["per_layer"]:
            if m["name"] not in RUN_LAYER_METRICS:
                layer, _, key = m["name"].rpartition(".")
                metrics[m["name"]] = median_of(
                    traced_passes, lambda p: p["layers"].get(layer, {}).get(key, 0)
                )
    else:
        metrics = {
            "wall_s": sum(walls),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": median_of(plain, lambda p: p["peak_rss_mb"]),
        }

    env = passes[0]["env"]
    manifest = {
        **env,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "workload": args.workload,
        "seed": args.seed,
        "pinned_seed": workloads.PINNED_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "argv": [list(a) for a in wl.commands],
        "passes": len(passes),
        "traced_passes": sum(p["traced"] for p in passes),
        "setup_spawns": len(setup),
    }
    return {
        "manifest": manifest,
        "metrics": metrics,
        "human": {**throughput, "failed_ratio": failed / len(commands)},
        "attempted": len(commands),
        "failed": failed,
        "wrong": wrong,
        "errors": errors,
        "digests": {"gate": gate[0]["digests"] if wl.pinned else {}, "passes": first},
        "passes": [
            {"traced": p["traced"], "wall_s": p["wall_s"], "peak_rss_mb": p["peak_rss_mb"],
             "commands": [(c["command"], c["wall_s"], c["rc"]) for c in p["commands"]],
             "layers": p.get("layers")}
            for p in passes
        ],
        "setup_s": setup,
        "spans": str(spans_kept) if spans_kept else None,
    }


def report(out: dict, units: dict[str, str], trace: int) -> None:
    m = out["manifest"]
    print(f"glhs benchmark  workload={m['workload']} seed={m['seed']} trace={trace} "
          f"passes={m['passes']} (traced {m['traced_passes']})")
    print(f"  glhs {m['glhs']}  numpy {m['numpy']}  python {m['python']}  "
          f"{m['blas']} threads={m['blas_threads']}  nproc={m['nproc']}  {m['cpu_model']}")
    rows = list(out["metrics"].items())
    if not trace:
        rows += [(k, v) for k, v in out["human"].items()]
    for name, value in rows:
        shown = "n/a" if value == 0 and name.endswith("_per_s") else f"{value:.6g}"
        print(f"  {name:<44} {shown:>14} {units.get(name, 'ratio')}")
    if trace:
        ranked = sorted(
            ((v, k) for k, v in out["metrics"].items() if k.endswith(".self_s")), reverse=True
        )[:5]
        print("  top self time: " + ", ".join(f"{k[:-7]} {v:.3f}s" for v, k in ranked))
    for line in out["wrong"]:
        print("  wrong output: " + line)
    for line in out["errors"]:
        print("  failed command: " + line)


def main() -> int:
    ap = argparse.ArgumentParser(description="glhs benchmark (see perfbench/README.md)")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if not (SRC / "glhs" / "cli.py").is_file():
        print(f"error: glhs sources not found under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        out = measure(args, spec)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    records = WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    (records / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(out, indent=1)
    )
    units = {x["name"]: x["unit"] for x in spec["end_to_end"] + spec["per_layer"]}
    report(out, units, args.trace)
    print(json.dumps({
        "correct": not out["wrong"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in out["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
