"""One pass of one workload, in the fresh interpreter this script starts.

Runs the workload's argv through `glhs.cli.main` back to back, captures
each command's exit code and `check` lines, and writes a JSON result: per
command wall time and verdict, the sequence wall time, peak RSS, the
SHA-256 of the outputs and the interpreter's library versions.  With
--spans the outside-in tracer is installed first and its spans are written
to that file after the last command.

    PYTHONPATH=src python3 perfbench/child.py --workload dict-grid --seed 0 \
        --workdir WORK --result RESULT.json [--spans SPANS.jsonl] [--phase timed]
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback

import workloads


def _outputs(argv: tuple[str, ...]) -> list[str]:
    """Files the command writes (the workloads pass --labeling only to gen-lc)."""
    return [argv[i + 1] for i, a in enumerate(argv) if a in ("--out", "--labeling")]


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _blas_threads() -> tuple[str | None, int | None]:
    """(loaded OpenBLAS library, its thread count), read through ctypes."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            query = getattr(lib, symbol, None)
            if query is not None:
                query.restype = ctypes.c_int
                return os.path.basename(path), int(query())
    return (os.path.basename(libs[0]) if libs else None), None


def environment() -> dict:
    import numpy as np

    import glhs

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    library, threads = _blas_threads()
    return {
        "glhs": glhs.__version__,
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_library": library,
        "blas_threads": threads,
    }


def run_command(main, argv: tuple[str, ...]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a traceback is a failed command, not a crashed pass
        rc, error = -1, traceback.format_exc(limit=4)
    wall = time.perf_counter() - start
    fails = [
        ln for ln in out.getvalue().splitlines()
        if ln.startswith("check\t") and ln.rsplit("\t", 1)[-1] == "fail"
    ]
    if error is None and rc != 0:
        error = err.getvalue()[-500:]
    return {
        "command": workloads.command_name(argv),
        "argv": list(argv),
        "rc": rc,
        "fail_checks": fails,
        "failed": rc != 0 or bool(fails),
        "error": error,
        "wall_s": wall,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans")
    ap.add_argument("--phase", choices=("timed", "pinned", "checks"), default="timed",
                    help="the timed commands, only those that write pinned "
                    "outputs, or the untimed checks")
    args = ap.parse_args()

    wl = workloads.WORKLOADS[args.workload](args.seed)
    commands = {
        "timed": wl.commands,
        "pinned": tuple(c for c in wl.commands if set(_outputs(c)) & set(wl.pinned)),
        "checks": wl.checks,
    }[args.phase]

    tracer = None
    if args.spans:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    import glhs.cli

    result_path = os.path.abspath(args.result)
    spans_path = os.path.abspath(args.spans) if args.spans else None
    os.chdir(args.workdir)
    results = []
    start = time.perf_counter()
    for argv in commands:
        results.append(run_command(glhs.cli.main, argv))
    wall = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    digests = {
        name: _sha256(name)
        for argv in commands
        for name in _outputs(argv)
        if os.path.exists(name)
    }
    if tracer is not None:
        tracer.write(spans_path)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "workload": args.workload,
                "seed": args.seed,
                "commands": results,
                "wall_s": wall,
                "peak_rss_mb": peak_rss_mb,
                "digests": digests,
                "env": environment(),
                "hits": tracer.hits if tracer is not None else None,
            },
            fh,
            indent=1,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
