"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload traced, twice, at the pinned seed, and fails (exit 1)
unless:

- the two passes give identical counts for every layer and identical hit
  counts for every wrapped function (the counts are exact);
- every wrapped function is hit on each workload meant to exercise it, so
  a renamed or rerouted glhs function fails here instead of reading zero
  (a target that no longer exists already fails at install time);
- the pinned outputs match digests.json with the tracer installed, so the
  tracer changes no output bytes;
- every per-layer metric in BENCHMARK.json names a layer and count that
  the tracer produces on some workload.

It also prints each workload's top self-time layers and any recorded
(unpinned) digest that moved.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
import tracer
import workloads


def main() -> int:
    if not (run.SRC / "glhs" / "cli.py").is_file():
        print(f"error: glhs sources not found under {run.SRC}", file=sys.stderr)
        return 2
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    pins = json.loads((run.HERE / "digests.json").read_text())
    seed = workloads.PINNED_SEED
    problems: list[str] = []
    layers: dict[str, dict] = {}
    run_dir = run.WORK / f"selftest-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        for name in workloads.WORKLOADS:
            a, b = (run.run_pass(name, seed, run_dir, f"{name}-{t}", traced=True) for t in "ab")
            layers[name] = a["layers"]
            ca, cb = tracer.layer_counts(a["layers"]), tracer.layer_counts(b["layers"])
            if ca != cb or a["hits"] != b["hits"]:
                diff = sorted(k for k in set(ca) | set(cb) if ca.get(k) != cb.get(k))
                problems.append(f"{name}: counts differ between two traced passes: {diff}")
            for target in tracer.TARGETS:
                key = f"{target.module}.{target.attr}"
                if name in target.hit_on and not a["hits"][key]:
                    problems.append(f"{name}: {key} was never called")
            for p in (a, b):
                for cmd in p["commands"]:
                    if cmd["failed"]:
                        problems.append(f"{name}: {cmd['command']} failed: rc={cmd['rc']}")
                for out, want in pins[name]["pinned"].items():
                    if p["digests"].get(out) != want:
                        problems.append(
                            f"{name}: {out} digest {p['digests'].get(out)} != pinned {want}"
                        )
            for out, want in pins[name]["recorded"].items():
                if a["digests"].get(out) != want:
                    print(f"note: {name}: recorded {out} moved to {a['digests'].get(out)}")
            ranked = sorted(
                ((st["self_s"], layer) for layer, st in a["layers"].items()
                 if not layer.startswith("cli.")),
                reverse=True,
            )
            total = sum(s for s, _ in ranked)
            print(f"{name}: wall {a['wall_s']:.2f}s traced; top self time: " + ", ".join(
                f"{layer} {s / total:.0%}" for s, layer in ranked[:4]
            ))
    except run.BenchError as exc:
        problems.append(str(exc))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for m in spec["per_layer"]:
        if m["name"] in run.RUN_LAYER_METRICS or not layers:
            continue
        layer, _, key = m["name"].rpartition(".")
        if not any(key in st.get(layer, {}) for st in layers.values()):
            problems.append(f"per-layer metric {m['name']} is produced on no workload")
    if [m["name"] for m in spec["end_to_end"]] != list(run.END_TO_END_METRICS):
        problems.append("BENCHMARK.json end_to_end does not list run.END_TO_END_METRICS")

    for line in problems:
        print("FAIL " + line)
    print("selftest: " + ("FAIL" if problems else "OK"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
