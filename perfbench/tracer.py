"""Outside-in tracer: wraps glhs's public functions and records spans.

Nothing in glhs is edited.  `Tracer.install` replaces each target function
in every `glhs.*` namespace that binds it (modules import names directly,
so patching only the defining module would miss calls such as
`reduction.apply_noise` or `cli.perceptron_train`) and each target method
on its class.  Every call becomes a span: layer name, start, end, parent
span and counts.  Spans stay in memory until `write` at the end of a pass;
`layer_stats` turns them into per-layer self time (span time minus child
spans) and count totals.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import workloads


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _descendant_sum(spans, idx, layer, key) -> int:
    """Sum of `key` over spans of `layer` opened inside span idx."""
    return sum(
        (s[4] or {}).get(key, 0) for s in spans[idx + 1 :] if s[0] == layer
    )


def _noise_layer(args, kwargs) -> str:
    from glhs import moments

    dense = float(_arg(args, kwargs, 1, "gamma")) >= moments._DENSE_NOISE_THRESHOLD
    return "moments.apply_noise." + ("dense" if dense else "sparse")


def _cli_layer(args, kwargs) -> str:
    return "cli:" + workloads.command_name(tuple(_arg(args, kwargs, 0, "argv")))


def _rows(result) -> int:
    return int(result.shape[0]) if result.ndim else 1


def _perceptron_steps(spans, idx, args, kwargs, result):
    from glhs.harness import LearnerConfig

    cfg = args[1] if len(args) > 1 else kwargs.get("cfg", LearnerConfig())
    examples = _descendant_sum(spans, idx, "core.stream_read", "examples")
    return {"steps": examples * cfg.epochs}


def _stream_written(spans, idx, args, kwargs, result):
    n, dim = args[1].shape
    return {"bytes": n * ((dim + 7) // 8 + 1)}  # packed bits plus a label byte


def _stream_opened(spans, idx, args, kwargs, result):
    reader = args[0]
    return {"examples": len(reader), "bytes": os.path.getsize(reader.path)}


def _file_bytes(path_index):
    def count(spans, idx, args, kwargs, result):
        return {"bytes": os.path.getsize(_arg(args, kwargs, path_index, "path"))}

    return count


@dataclass(frozen=True)
class Target:
    """One wrapped callable: where it lives, its layer, what it counts."""

    module: str
    attr: str  # function name, or Class.method
    layer: str | Callable  # fixed name, or f(args, kwargs) -> name
    hit_on: tuple[str, ...]  # workloads meant to exercise it
    count: Callable | None = None  # f(spans, idx, args, kwargs, result) -> dict
    drain: bool = False  # a generator: consume it inside the span


DG, LC, LA = "dict-grid", "lc-pipeline", "lemma-audit"

TARGETS = (
    Target("glhs.core", "rng_words", "core.rng_words", (DG, LC, LA),
           lambda s, i, a, k, r: {"words": int(r.size)}),
    Target("glhs.core", "StreamWriter.append_batch", "core.stream_write", (DG, LC),
           _stream_written),
    Target("glhs.core", "StreamReader.__init__", "core.stream_read", (DG, LC),
           _stream_opened),
    Target("glhs.core", "StreamReader.read_batches", "core.stream_read", (DG, LC),
           drain=True),
    Target("glhs.moments", "build_pair", "moments.build_pair", (DG, LA)),
    Target("glhs.moments", "sample_columns_at", "moments.sample_columns_at", (DG, LC),
           lambda s, i, a, k, r: {
               "columns": _rows(r),
               "words": _descendant_sum(s, i, "core.rng_words", "words"),
           }),
    Target("glhs.moments", "apply_noise", _noise_layer, (DG, LC, LA),
           lambda s, i, a, k, r: {"bits": int(r.size)}),
    Target("glhs.reduction", "dict_test_batch", "reduction.dict_test_batch", (DG,),
           lambda s, i, a, k, r: {"examples": int(r[1].size)}),
    Target("glhs.reduction", "lc_reduce_batch", "reduction.lc_reduce_batch", (LC,),
           lambda s, i, a, k, r: {"examples": int(r[1].size)}),
    Target("glhs.reduction", "ug_reduce_batch", "reduction.ug_reduce_batch", (LC,),
           lambda s, i, a, k, r: {"examples": int(r[1].size)}),
    Target("glhs.reduction", "decode_labeling", "reduction.decode_labeling", (LC,),
           lambda s, i, a, k, r: {"trials": 1}),
    Target("glhs.reduction", "edge_niceness_audit", "reduction.edge_niceness_audit", (LC,)),
    Target("glhs.harness", "perceptron_train", "harness.perceptron_train", (DG, LC),
           _perceptron_steps),
    Target("glhs.harness", "agreement", "harness.agreement", (DG, LC),
           lambda s, i, a, k, r: {
               "examples": _descendant_sum(s, i, "halfspace.evaluate", "examples")
           }),
    Target("glhs.harness", "run_experiment", "harness.run_experiment", (DG,)),
    Target("glhs.halfspace", "Halfspace.evaluate", "halfspace.evaluate", (DG, LC),
           lambda s, i, a, k, r: {"examples": _rows(r)}),
    Target("glhs.halfspace", "Disjunction.evaluate", "halfspace.evaluate", (DG,),
           lambda s, i, a, k, r: {"examples": _rows(r)}),
    Target("glhs.halfspace", "top_indices", "halfspace.top_indices", (LC,)),
    Target("glhs.halfspace", "critical_index", "halfspace.critical_index", (LC, LA)),
    Target("glhs.halfspace", "check_geometric_decay", "halfspace.check_geometric_decay",
           (LA,)),
    Target("glhs.labelcover", "gen_planted_projection", "labelcover.generate", (LC,)),
    Target("glhs.labelcover", "gen_planted_unique", "labelcover.generate", (LC,)),
    Target("glhs.labelcover", "write_instance", "labelcover.io", (LC,), _file_bytes(1)),
    Target("glhs.labelcover", "read_instance", "labelcover.io", (LC,), _file_bytes(0)),
    Target("glhs.labelcover", "write_labeling", "labelcover.io", (LC,), _file_bytes(1)),
    Target("glhs.labelcover", "satisfaction_fractions", "labelcover.audit", (LC,)),
    Target("glhs.labelcover", "audit_preimage", "labelcover.audit", (LC,)),
    Target("glhs.labelcover", "audit_connected", "labelcover.audit", (LC,)),
    Target("glhs.labelcover", "audit_smoothness", "labelcover.audit", (LC,)),
    Target("glhs.invariance", "invariance_gap_exact", "invariance.gap_exact", (LA,),
           lambda s, i, a, k, r: {"guard_skips": 0}),  # a GuardError counts 1
    Target("glhs.invariance", "invariance_gap", "invariance.gap_float", (LA,)),
    Target("glhs.invariance", "hybrid_steps", "invariance.gap_float", (LA,)),
    Target("glhs.invariance", "sgn_gap_bound", "invariance.gap_float", (LA,)),
    Target("glhs.concentration", "spread_estimate", "concentration.mc", (LA,),
           lambda s, i, a, k, r: {"trials": r.trials}),
    Target("glhs.concentration", "noise_mass_estimate", "concentration.mc", (LA,),
           lambda s, i, a, k, r: {"trials": r.trials}),
    Target("glhs.cli", "main", _cli_layer, (DG, LC, LA)),
)


class Tracer:
    """Span recorder for one pass; `install` wraps every target once."""

    def __init__(self):
        # [layer, start, end, parent index or -1, counts dict or None]
        self.spans: list[list] = []
        self.hits: dict[str, int] = {}
        self._stack: list[int] = []

    def install(self) -> None:
        import glhs.cli  # noqa: F401  (imports every glhs module)
        from glhs.core import GuardError

        namespaces = [
            mod for name, mod in sorted(sys.modules.items())
            if name == "glhs" or name.startswith("glhs.")
        ]
        for target in TARGETS:
            owner = sys.modules[target.module]
            cls_name, _, method = target.attr.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                setattr(cls, method, self._wrap(original, target, GuardError))
                continue
            original = getattr(owner, target.attr)
            traced = self._wrap(original, target, GuardError)
            for mod in namespaces:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, traced)

    def _wrap(self, fn, target: Target, guard_error):
        spans, stack, hits = self.spans, self._stack, self.hits
        key = f"{target.module}.{target.attr}"
        hits[key] = 0
        layer, count, drain = target.layer, target.count, target.drain

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = layer(args, kwargs) if callable(layer) else layer
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            hits[key] += 1
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if drain:
                    result = iter(list(result))
            except guard_error:
                span[4] = {"guard_skips": 1}
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
            if count is not None:
                span[4] = count(spans, idx, args, kwargs, result)
            return result

        return traced

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def read_spans(path: str) -> list[list]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def layer_stats(spans: list[list]) -> dict[str, dict[str, float]]:
    """{layer: {"self_s", "calls", counts...}}; CLI commands also get wall_s.

    `cli` holds the CLI's own self time over all commands, and
    `cli.<command>` the summed wall time of that subcommand's calls.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(int))
    for i, (name, start, end, parent, counts) in enumerate(spans):
        own = end - start - child_time[i]
        if name.startswith("cli:"):
            stats[f"cli.{name[4:]}"]["wall_s"] += end - start
            name = "cli"
        layer = stats[name]
        layer["self_s"] += own
        layer["calls"] += 1
        for key, value in (counts or {}).items():
            layer[key] += value
    columns = stats.get("moments.sample_columns_at")
    if columns and columns["columns"]:
        columns["words_per_column"] = columns["words"] / columns["columns"]
    return stats


def layer_counts(stats: dict[str, dict[str, float]]) -> dict[tuple[str, str], float]:
    """Every count in `layer_stats` output, without the times."""
    return {
        (layer, key): value
        for layer, st in stats.items()
        for key, value in st.items()
        if key not in ("self_s", "wall_s")
    }
