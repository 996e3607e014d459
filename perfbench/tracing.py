"""In-memory spans around preptensor's public functions.

The traced run replaces every public function of the layer modules
(``corpus``, ``factorize``, ``embeddings``, ``learn``, ``select``,
``attach``) with a wrapper that records a span while a CLI stage is
running; the stage itself is the root span and the ``cli`` layer. The
program is not modified: wrappers are installed into the imported
modules from outside and removed afterwards. Per-element helpers that
run thousands of times per instance are left unwrapped, so their cost
shows in their caller's span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("corpus", "factorize", "embeddings", "learn", "select", "attach")
UNWRAPPED = frozenset({
    "cosine_similarity", "pair_similarity", "triple_similarity", "weight",
    "weighted_gradient", "preprocess_context",
})
CLASS_METHODS = (("factorize", "CooTensor", "from_counts"),
                 ("embeddings", "EmbeddingStore", "from_factors"))
ERROR_VERDICT = "error"


def _mttkrp_bytes(coo, factor) -> int:
    """Bytes one MTTKRP touches, computed from array sizes: per nonzero
    a value and three int64 indices, two gathered factor rows and one
    scattered output row (cache misses are not modelled)."""
    return coo.nnz * (8 + 3 * 8 + 3 * factor.shape[1] * 8)


def _annotate(name, args, kwargs, result):
    """Span label and counters for the functions whose arguments or
    results carry work counts."""
    if name == "factorize.als_update_mode":
        mode = kwargs.get("mode", args[4] if len(args) > 4 else None)
        return f"{name}.{mode}", {"mttkrp_bytes": _mttkrp_bytes(args[0], args[1])}
    if name == "corpus.tokenize_sentences":
        return name, {"sentences": len(result),
                      "tokens": sum(len(s) for s in result)}
    if name == "corpus.save_tensor":
        return name, {"nnz": args[0].nnz}
    if name == "factorize.decompose_weighted":
        epochs = args[1].iterations
        return name, {"wd_epochs": epochs, "wd_entries": args[0].nnz * epochs}
    if name == "select.detection_features":
        return name, {"decidable": int(result is not None)}
    if name == "learn.tree_predict":
        return name, {"flagged": int(result[0] == ERROR_VERDICT)}
    if name == "learn.train_fnn":
        return name, {"fnn_rows": len(args[0])}
    return name, None


class Tracer:
    """Span recorder. A span is ``[name, parent, start, end, counters]``;
    the parent is an index into ``spans`` or -1 for a stage."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            record = [name, stack[-1], 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(record)
            record[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = perf_counter()
                stack.pop()
            record[0], record[4] = _annotate(name, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def stage(self, name):
        record = [name, -1, 0.0, 0.0, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[2] = perf_counter()
        try:
            yield
        finally:
            record[3] = perf_counter()
            self._stack.pop()

    def write(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": names,
                       "spans": [[index[s[0]], s[1], s[2], s[3], s[4]]
                                 for s in self.spans]}, fh)


@contextmanager
def installed(tracer: Tracer):
    """Route every call of a public layer function through ``tracer``."""
    modules = {layer: importlib.import_module(f"preptensor.{layer}")
               for layer in LAYERS}
    wrappers = {}
    for layer, mod in modules.items():
        for attr in mod.__all__:
            fn = getattr(mod, attr)
            if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                    and attr not in UNWRAPPED):
                wrappers[fn] = tracer.wrap(f"{layer}.{attr}", fn)
    patches = []
    # Callers that imported a function by name hold their own reference.
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "preptensor" and not mod_name.startswith("preptensor."):
            continue
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in wrappers:
                patches.append((mod, attr, value))
                setattr(mod, attr, wrappers[value])
    for layer, cls_name, attr in CLASS_METHODS:
        cls = getattr(modules[layer], cls_name)
        original = cls.__dict__[attr]
        patches.append((cls, attr, original))
        setattr(cls, attr, classmethod(
            tracer.wrap(f"{layer}.{cls_name}.{attr}", original.__func__)))
    try:
        yield
    finally:
        for owner, attr, value in reversed(patches):
            setattr(owner, attr, value)


# ---------------------------------------------------------------------------
# Per-layer metrics

# (metric, span names whose outermost calls are summed, what it moves).
# Set-up runs build-tensor, so the corpus layers move setup_s.
TIMED = [
    ("corpus.tokenize_s", ["corpus.tokenize_sentences"],
     "setup_s, peak_rss_mb (zipf-tensor)"),
    ("corpus.vocab_s", ["corpus.build_vocabulary", "corpus.save_vocabulary",
                        "corpus.load_vocabulary"],
     "setup_s (zipf-tensor)"),
    ("corpus.count_prep_s", ["corpus.count_preposition_slices"],
     "setup_s, peak_rss_mb (zipf-tensor)"),
    ("corpus.count_extra_s", ["corpus.count_extra_slice"],
     "setup_s, peak_rss_mb (zipf-tensor)"),
    ("corpus.merge_s", ["corpus.merge_counts"],
     "setup_s, peak_rss_mb (zipf-tensor)"),
    ("corpus.save_tensor_s", ["corpus.save_tensor"], "setup_s (zipf-tensor)"),
    ("corpus.load_tensor_s", ["corpus.load_tensor"],
     "wall_s via decompose_s, spectrum_s (zipf-tensor)"),
    ("factorize.coo_convert_s", ["factorize.log_transform",
                                 "factorize.CooTensor.from_counts"],
     "wall_s via decompose_s (zipf-tensor)"),
    ("factorize.als_update.U_s", ["factorize.als_update_mode.U"],
     "wall_s via decompose_s (zipf-tensor)"),
    ("factorize.als_update.W_s", ["factorize.als_update_mode.W"],
     "wall_s via decompose_s (zipf-tensor)"),
    ("factorize.als_update.Q_s", ["factorize.als_update_mode.Q"],
     "wall_s via decompose_s (zipf-tensor)"),
    ("factorize.als_objective_s", ["factorize.als_objective"],
     "wall_s via decompose_s (zipf-tensor)"),
    ("factorize.orthogonalize_s", ["factorize.orthogonalize_factors"],
     "wall_s via decompose_s (zipf-tensor)"),
    ("factorize.wd_s", ["factorize.decompose_weighted"],
     "wall_s via decompose_s (toy-e2e)"),
    ("select.detection_features_s", ["select.detection_features"],
     "wall_s via train_select_s, eval_select_s (toy-e2e)"),
    ("select.correction_features_s", ["select.correction_features"],
     "wall_s via train_select_s, eval_select_s (toy-e2e)"),
    ("embeddings.rank_preposition_s", ["embeddings.rank_preposition"],
     "wall_s via train_select_s, eval_select_s (toy-e2e)"),
    ("learn.tree_fit_s", ["learn.train_decision_tree"],
     "wall_s via train_select_s (toy-e2e)"),
    ("learn.fnn_train_s", ["learn.train_fnn"],
     "wall_s via train_select_s, train_attach_s (toy-e2e)"),
    ("learn.fnn_forward_s", ["learn.fnn_forward_batch", "learn.fnn_forward"],
     "wall_s via eval_select_s, eval_attach_s (toy-e2e)"),
    ("attach.features_s", ["attach.attachment_features"],
     "wall_s via train_attach_s, eval_attach_s (toy-e2e)"),
    ("embeddings.load_s", ["embeddings.load_embeddings"],
     "wall_s via query_s and every stage that reads embeddings (toy-e2e)"),
    ("embeddings.save_s", ["embeddings.save_embeddings"],
     "wall_s via decompose_s (toy-e2e, zipf-tensor)"),
    ("embeddings.spectrum_s", ["embeddings.slice_spectrum"],
     "wall_s via spectrum_s (toy-e2e, zipf-tensor)"),
    ("embeddings.query_s", ["embeddings.preposition_similarity_table",
                            "embeddings.paraphrase_phrasal_verb"],
     "wall_s via query_s (toy-e2e)"),
]
# Work counts: printed by the traced report, left out of the JSON result
# because they size the input rather than rate the program.
CALLS = [
    ("select.detection_features_calls", "select.detection_features"),
    ("select.correction_features_calls", "select.correction_features"),
    ("embeddings.rank_preposition_calls", "embeddings.rank_preposition"),
    ("learn.tree_predict_calls", "learn.tree_predict"),
    ("attach.features_rows", "attach.attachment_features"),
    ("factorize.als_sweeps", "factorize.als_objective"),
]
COUNTERS = [
    ("corpus.sentences", "sentences", "count"),
    ("corpus.tokens", "tokens", "count"),
    ("corpus.nnz", "nnz", "count"),
    ("factorize.wd_epochs", "wd_epochs", "count"),
    ("factorize.mttkrp_bytes_computed", "mttkrp_bytes", "B"),
    ("learn.fnn_train_rows", "fnn_rows", "count"),
]
# Every counter _annotate can attach to a span.
COUNTER_KEYS = ("sentences", "tokens", "nnz", "wd_epochs", "wd_entries",
                "mttkrp_bytes", "decidable", "flagged", "fnn_rows")
DERIVED = [
    ("corpus.tokens_per_s", "1/s", "setup_s (zipf-tensor)"),
    ("factorize.wd_entries_per_s", "1/s", "wall_s via decompose_s (toy-e2e)"),
    ("select.flagged_ratio", "ratio", "wall_s via train_select_s (toy-e2e)"),
]
TRACE_METRICS = [
    ("cli.self_s", "s", "every stage a little"),
    *[(f"{layer}.self_s", "s", "the stages that call the layer")
      for layer in LAYERS],
    ("trace.coverage_ratio", "ratio", "share of stage wall time in layer spans"),
    ("trace.overhead_s", "s", "traced minus untraced wall_s of one pass"),
]
REPORT_ONLY = frozenset([name for name, _ in CALLS]
                        + [name for name, _, _ in COUNTERS]
                        + ["select.flagged_ratio"])
# Metrics of the JSON result that read 0 on a workload, because it never
# calls the layer; every other one is above 0 on every workload.
NOT_CALLED = {
    "toy-e2e": frozenset(),
    "zipf-tensor": frozenset({
        "factorize.wd_s", "factorize.wd_entries_per_s",
        "select.detection_features_s", "select.correction_features_s",
        "embeddings.rank_preposition_s", "learn.tree_fit_s",
        "learn.fnn_train_s", "learn.fnn_forward_s", "attach.features_s",
        "embeddings.load_s", "embeddings.query_s",
        "learn.self_s", "attach.self_s",
    }),
}


def metric_units() -> dict[str, str]:
    units = {name: "s" for name, _, _ in TIMED}
    units.update({name: "count" for name, _ in CALLS})
    units.update({name: unit for name, _, unit in COUNTERS})
    units.update({name: unit for name, unit, _ in DERIVED})
    units.update({name: unit for name, unit, _ in TRACE_METRICS})
    return units


def metric_moves() -> dict[str, str]:
    moves = {name: m for name, _, m in TIMED}
    moves.update({name: m for name, unit, m in DERIVED})
    moves.update({name: m for name, unit, m in TRACE_METRICS})
    return moves


def summarize(spans: list[list], start: int, end: int) -> dict:
    """Raw per-layer sums over the spans of one setup repetition or one
    pass, ``spans[start:end]``; every span there descends from a stage
    span in the same range."""
    group_of = {n: metric for metric, names, _ in TIMED for n in names}
    out = {metric: 0.0 for metric, _, _ in TIMED}
    out.update({metric: 0 for metric, _ in CALLS})
    out.update({key: 0 for key in COUNTER_KEYS})
    out.update({f"{layer}.self_s": 0.0 for layer in LAYERS})
    out.update({"cli.self_s": 0.0, "stage_s": 0.0, "corpus.count_tensor_s": 0.0})
    call_metric = {n: metric for metric, n in CALLS}
    child_time = [0.0] * (end - start)
    for idx in range(start, end):
        name, parent, t0, t1, counters = spans[idx]
        if parent >= 0:
            child_time[parent - start] += t1 - t0
    stages: dict[str, list[float]] = {}
    for idx in range(start, end):
        name, parent, t0, t1, counters = spans[idx]
        dur = t1 - t0
        self_time = dur - child_time[idx - start]
        if parent < 0:
            out["cli.self_s"] += self_time
            out["stage_s"] += dur
            cov = stages.setdefault(name, [0.0, 0.0])
            cov[0] += child_time[idx - start]
            cov[1] += dur
            continue
        out[f"{name.split('.', 1)[0]}.self_s"] += self_time
        if name == "corpus.count_tensor":
            out["corpus.count_tensor_s"] += dur
        if name in call_metric:
            out[call_metric[name]] += 1
        if counters:
            for key, val in counters.items():
                out[key] += val
        metric = group_of.get(name)
        if metric is not None:
            anc = parent
            while anc >= 0 and group_of.get(spans[anc][0]) != metric:
                anc = spans[anc][1]
            if anc < 0:
                out[metric] += dur
    out["stages"] = stages
    return out


def _median(values):
    return statistics.median(values) if values else 0.0


def combine(setup_parts: list[dict], pass_parts: list[dict]) -> dict:
    """Per-layer value for one setup plus one pass: the median over
    setup repetitions plus the median over traced passes."""
    keys = [k for k in (setup_parts or pass_parts)[0] if k != "stages"]
    raw = {k: _median([p[k] for p in setup_parts]) + _median([p[k] for p in pass_parts])
           for k in keys}
    metrics = {name: raw[name] for name, _, _ in TIMED}
    metrics.update({name: raw[name] for name, _ in CALLS})
    metrics.update({name: raw[key] for name, key, _ in COUNTERS})
    metrics["corpus.tokens_per_s"] = (raw["tokens"] / raw["corpus.count_tensor_s"]
                                      if raw["corpus.count_tensor_s"] else 0.0)
    metrics["factorize.wd_entries_per_s"] = (raw["wd_entries"] / raw["factorize.wd_s"]
                                             if raw["factorize.wd_s"] else 0.0)
    metrics["select.flagged_ratio"] = (raw["flagged"] / raw["decidable"]
                                       if raw["decidable"] else 0.0)
    metrics["cli.self_s"] = raw["cli.self_s"]
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = raw[f"{layer}.self_s"]
    metrics["trace.coverage_ratio"] = (1.0 - raw["cli.self_s"] / raw["stage_s"]
                                       if raw["stage_s"] else 0.0)
    return metrics


def stage_coverage(parts: list[dict]) -> dict[str, float]:
    """Share of each stage's wall time spent inside layer spans, pooled
    over the given repetitions or passes."""
    pooled: dict[str, list[float]] = {}
    for part in parts:
        for stage, (covered, total) in part["stages"].items():
            acc = pooled.setdefault(stage, [0.0, 0.0])
            acc[0] += covered
            acc[1] += total
    return {stage: covered / total for stage, (covered, total) in pooled.items()
            if total > 0}
