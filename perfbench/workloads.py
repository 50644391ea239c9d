"""The three benchmark workloads: the glhs CLI argv each one runs.

Each workload is a closed loop with one client: its commands run back to
back in one fresh interpreter.  The workload seed offsets every command's
`--seed`, so the same seed gives the same argv and therefore the same
inputs.  The program only ever sees the generated argv.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    # argv lists for glhs.cli.main, built from the workload seed
    commands: tuple[tuple[str, ...], ...]
    # outputs that must rerun to identical bytes; their SHA-256 is pinned
    pinned: tuple[str, ...]
    # commands run once per run for their verdict only, untimed
    checks: tuple[tuple[str, ...], ...] = ()


def _cmd(text: str) -> tuple[str, ...]:
    return tuple(text.split())


def dict_grid(seed: int) -> Workload:
    return Workload(
        commands=(
            _cmd(
                "dict-test --k 64 --eps 0.5 --p 0.25 --r 64 --samples 12000 "
                f"--seed {2 + seed} --floor 0.6 --gap-bound 0.25"
            ),
            _cmd(
                "sample --k 64 --eps 0.5 --p 0.25 --r 64 --count 24000 "
                f"--seed {7 + seed} --out grid64.bin"
            ),
            _cmd(
                "sample --k 12 --eps 0.82 --p 0.25 --r 8 --count 20000 "
                f"--seed {3 + seed} --out train.bin"
            ),
            _cmd(f"learn --stream train.bin --epochs 12 --seed {4 + seed} --out h.hs"),
        ),
        pinned=("grid64.bin", "train.bin"),
    )


def lc_pipeline(seed: int) -> Workload:
    return Workload(
        commands=(
            _cmd(
                "gen-lc --kind projection --vertices 200 --edges 2000 --k 3 --m 16 "
                f"--n 8 --d 2 --seed {5 + seed} --out proj.lc --labeling planted.lab"
            ),
            _cmd(
                "reduce --instance proj.lc --k 3 --eps 0.5 --p 0.25 --gamma 0.1 "
                f"--completeness-only --count 20000 --seed {1 + seed} --out proj.bin"
            ),
            _cmd(f"learn --stream proj.bin --epochs 12 --seed {4 + seed} --out proj.hs"),
            _cmd(
                "decode --halfspace proj.hs --instance proj.lc --t 2 --tau 0.25 "
                f"--trials 256 --seed {6 + seed} --out decoded.lab"
            ),
            _cmd("verify smoothness --instance proj.lc"),
            _cmd("verify niceness --instance proj.lc --halfspace proj.hs --tau 0.25"),
            _cmd(
                "gen-lc --kind unique --vertices 200 --edges 2000 --k 3 --r 16 "
                f"--seed {8 + seed} --out ug.lc"
            ),
            _cmd(
                "reduce --instance ug.lc --k 3 --eps 0.5 --p 0.25 --completeness-only "
                f"--count 20000 --seed {9 + seed} --out ug.bin"
            ),
        ),
        pinned=("proj.lc", "ug.lc", "proj.bin", "ug.bin"),
    )


def lemma_audit(seed: int) -> Workload:
    # verify invariance draws family sizes 2 + (idx + seed) % 4, so its seed
    # steps by 4: every workload seed then runs the same family sizes (the
    # same exact-route work) on freshly drawn weights.
    #
    # verify small-ball exits 2 on most seeds: it builds the interval
    # center +- m/6, and rounding of the center makes its length exceed m/3
    # by more than the 1e-9 relative tolerance of unique_point_in_interval.
    # It stops at a seed-dependent case, so its work varies with the seed; it
    # runs untimed, once per run, and its failure counts against the run.
    return Workload(
        commands=(
            _cmd("verify moments --k 16 --eps 0.78 --p 0.25"),
            _cmd(f"verify invariance --families 6 --r 5 --seed {4 * seed}"),
            _cmd(f"verify critical-index --count 2000 --seed {seed}"),
            _cmd(f"verify spread --cases 10 --trials 20000 --seed {seed}"),
        ),
        pinned=(),
        checks=(_cmd(f"verify small-ball --cases 60 --trials 20000 --seed {seed}"),),
    )


WORKLOADS = {"dict-grid": dict_grid, "lc-pipeline": lc_pipeline, "lemma-audit": lemma_audit}

# The seed whose output digests are pinned in digests.json.
PINNED_SEED = 0


def command_name(argv: tuple[str, ...]) -> str:
    """`sample`, `verify-spread`, ...: the subcommand an argv runs."""
    return f"verify-{argv[1]}" if argv[0] == "verify" else argv[0]


def _flag(argv: tuple[str, ...], name: str) -> int:
    return int(argv[argv.index(name) + 1])


def examples_drawn(argv: tuple[str, ...]) -> int:
    """Examples a command samples; 0 for commands that sample none.

    dict-test draws --samples for each of its two passes (completeness and
    soundness); sample and reduce draw --count.  verify spread draws --trials
    noisy bit vectors per case for its interval estimate and again for its
    noise-mass estimate.
    """
    name = command_name(argv)
    if name == "dict-test":
        passes = 1 if "--completeness-only" in argv else 2
        return passes * _flag(argv, "--samples")
    if name in ("sample", "reduce"):
        return _flag(argv, "--count")
    if name == "verify-spread":
        return 2 * _flag(argv, "--cases") * _flag(argv, "--trials")
    return 0


def learn_steps(argv: tuple[str, ...], commands: tuple[tuple[str, ...], ...]) -> int:
    """Perceptron steps of a learn command: stream examples times epochs.

    The stream's example count is the --count of the command that wrote it.
    """
    stream = argv[argv.index("--stream") + 1]
    writer = next(c for c in commands if "--out" in c and c[c.index("--out") + 1] == stream)
    return _flag(writer, "--count") * _flag(argv, "--epochs")
