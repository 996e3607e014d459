"""Stage-and-layer benchmark for preptensor.

One closed-loop client drives the pipeline the way a user does: it calls
``preptensor.cli.run`` stage by stage, in sequence, in this process, and
starts the next stage only when the previous one has returned. Run from
the repository root:

    python3 perfbench/run.py --workload toy-e2e --seed 0 --seconds 35 --trace 0

Workloads (the program only sees generated files; ``--seed`` draws the
Zipf corpus and the evaluation sets of toy-e2e):

* ``toy-e2e``: the end-to-end acceptance pipeline on the bundled toy
  corpus (decompose wd, train/eval select, train/eval attach), then
  decompose als, spectrum, query-sim and paraphrase, so that it calls
  every layer. WD and selection feature building dominate it.
* ``zipf-tensor``: decompose als and spectrum on a deterministic Zipf
  corpus from ``zipf_corpus.py``. Counting (in set-up), tensor
  save/load, COO conversion and MTTKRP dominate it; no learner runs.

Set-up writes the inputs and runs ``build-tensor`` on the corpus: the
program's ingest, which the timed pass reads from.

Each run sets up several times (``setup_s`` is the median), then repeats
the workload's timed pass until ``--seconds`` have elapsed; ``wall_s``
is the fastest pass and stage times are medians over passes. Every stage
call and every output check is one operation. The last line of stdout
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``. The traced run
wraps the layer modules' public functions (see ``tracing.py``), runs one
untraced pass as the overhead reference, and writes its spans to
``perfbench/.out/``.
"""

from __future__ import annotations

import os

# One process, no extra threads: pin BLAS before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import importlib.util
import io
import json
import math
import resource
import shutil
import statistics
import sys
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TOY_CORPUS = ROOT / "tests" / "data" / "toy_corpus.txt"
EXPECTED = BENCH_DIR / "expected.json"
WORKLOADS = ("toy-e2e", "zipf-tensor")
# The JSON result carries only metrics every workload has and that are
# never 0; the report lines print the rest where they apply.
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
UNITS = {
    **END_TO_END, "wall_median_s": "s", "failed_ratio": "ratio",
    "build_tensor_s": "s", "decompose_s": "s", "decompose_als_s": "s",
    "spectrum_s": "s", "train_select_s": "s", "eval_select_s": "s",
    "train_attach_s": "s", "eval_attach_s": "s", "query_s": "s",
    "select_f1": "F1", "attach_acc": "accuracy", "wd_loss": "loss",
    "als_fit": "fit",
}

# Model seeds stay fixed, as in the acceptance test: --seed draws the
# inputs, so runs differ in their data, not in initialisation.
MODEL_SEED = ["--seed", "0"]
TRAIN_SEED = 7

# Input sizes. "full" is what the benchmark measures; "smoke" is a
# seconds-sized run with every check on, for the benchmark's own test.
SIZES = {
    "full": {
        "sel_train": 1500, "sel_eval": 500, "att_train": 1500, "att_eval": 500,
        "wd": ["--dim", "25", "--iters", "20"],
        "select_net": ["--hidden1", "128", "--hidden2", "16", "--epochs", "40"],
        "attach_net": ["--hidden1", "64", "--hidden2", "16", "--epochs", "30"],
        "zipf_bytes": 1_000_000, "als": ["--dim", "25", "--iters", "3",
                                         "--ortho-iters", "1"],
        "recount_sentences": 400,
        "min_passes": {"toy-e2e": 3, "zipf-tensor": 7},
        "setup_reps": {"toy-e2e": 5, "zipf-tensor": 3},
    },
    "smoke": {
        "sel_train": 1500, "sel_eval": 200, "att_train": 300, "att_eval": 100,
        "wd": ["--dim", "25", "--iters", "20"],
        "select_net": ["--hidden1", "128", "--hidden2", "16", "--epochs", "40"],
        "attach_net": ["--hidden1", "32", "--hidden2", "8", "--epochs", "20"],
        "zipf_bytes": 60_000, "als": ["--dim", "8", "--iters", "2",
                                      "--ortho-iters", "1"],
        "recount_sentences": 100,
        "min_passes": {"toy-e2e": 1, "zipf-tensor": 1},
        "setup_reps": {"toy-e2e": 2, "zipf-tensor": 2},
    },
}


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def machine_block() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cores": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "numba": importlib.util.find_spec("numba") is not None,
    }


class Client:
    """Calls the CLI one stage at a time and books every stage call and
    output check as one operation."""

    def __init__(self, cli):
        self.cli = cli
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.capture_armed = False
        self.captured = None

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)
        return bool(ok)

    def stage(self, argv: list[str]) -> tuple[float, str]:
        out = io.StringIO()
        start = perf_counter()
        with redirect_stdout(out):
            if self.tracer is not None:
                with self.tracer.stage(f"cli.{argv[0]}"):
                    rc = self.cli.run(argv)
            else:
                rc = self.cli.run(argv)
        elapsed = perf_counter() - start
        self.check(rc == 0, f"{argv[0]} exited with {rc}")
        return elapsed, out.getvalue()

    def install_capture(self):
        """Route the CLI's decompose calls through a wrapper that, when
        ``capture_armed`` is set, keeps (tensor, config, factors) of the
        next call so its quality can be scored from outside the program.
        Returns the function that undoes it."""
        from preptensor import factorize

        cli = self.cli
        originals = {name: getattr(cli, name)
                     for name in ("decompose_weighted", "decompose_orth_als")}

        def capturing(name):
            def call(tensor, config, *args, **kwargs):
                # Looked up per call so that the traced run's wrapper runs.
                emb = getattr(factorize, name)(tensor, config, *args, **kwargs)
                if self.capture_armed:
                    self.capture_armed = False
                    self.captured = (tensor, config, emb)
                return emb
            return call

        for name in originals:
            setattr(cli, name, capturing(name))
        return lambda: [setattr(cli, name, fn) for name, fn in originals.items()]

    def take_captured(self):
        captured, self.captured = self.captured, None
        self.capture_armed = False
        return captured


def _metric_value(text: str, key: str) -> float:
    for token in text.split():
        if token.startswith(key + "="):
            return float(token.split("=", 1)[1])
    raise ValueError(f"{key} not in output {text!r}")


# ---------------------------------------------------------------------------
# Workloads


class Workload:
    """One workload: ``setup`` writes the inputs and runs ``build-tensor``
    on them; the timed ``run_pass`` reads what set-up built. Both return
    the time of each CLI stage they called; stage timings reported from
    set-up are medians over the repetitions."""

    def __init__(self, client: Client, seed: int, sizes: dict):
        from preptensor.select import default_roster

        self.client = client
        self.seed = seed
        self.sizes = sizes
        self.roster = default_roster()
        self.quality: dict[str, float] = {}

    def build_tensor(self, d: Path) -> float:
        elapsed, _ = self.client.stage(
            ["build-tensor", "--corpus", str(d / "corpus.txt"), "--out", str(d / "tensor")])
        return elapsed

    def tensor_digests(self, rep_dirs) -> str:
        """The set-up repetitions' tensors, which must be byte-identical."""
        digests = {sha256_file(r / "tensor" / "tensor.txt") for r in rep_dirs}
        self.client.check(len(digests) == 1, "tensor differs between setup repetitions")
        return sorted(digests)[0]

    def decompose_als(self, tensor: Path, out: Path, times: dict, key: str) -> None:
        self.client.capture_armed = "als_fit" not in self.quality
        times[key], _ = self.client.stage(
            ["decompose", "--tensor", str(tensor), "--method", "als",
             *self.sizes["als"], *MODEL_SEED, "--out", str(out)])
        self.score_als()

    def score_als(self):
        captured = self.client.take_captured()
        if captured is None:
            return None
        from preptensor.factorize import cp_fit

        tensor, _, emb = captured
        fit = cp_fit(tensor, emb)
        self.quality["als_fit"] = fit
        self.client.check(0.0 < fit <= 1.0, f"als_fit {fit} outside (0, 1]")
        return tensor

    def spectrum(self, tensor: Path, out: Path, times: dict) -> None:
        """spectrum of slice ``of``, which must start at 1 and never increase."""
        times["spectrum_s"], _ = self.client.stage(
            ["spectrum", "--tensor", str(tensor), "--slice", "of", "--out", str(out)])
        values = [float(line.split(",")[1]) for line in out.read_text().splitlines()[1:]]
        self.client.check(bool(values) and values[0] == 1.0
                          and all(b <= a for a, b in zip(values, values[1:])),
                          "spectrum does not start at 1 or increases")


class ToyE2E(Workload):
    """The acceptance pipeline on the bundled toy corpus, then ALS,
    spectrum and the query stages, so that every layer is called."""

    name = "toy-e2e"

    def setup(self, d: Path) -> dict:
        self.write_inputs(d)
        return {"build_tensor_s": self.build_tensor(d)}

    def after_setup(self, rep_dirs):
        self.tensor_digests(rep_dirs)
        self.data = rep_dirs[0]
        self.first_digests = None

    def run_pass(self, d: Path) -> dict:
        c, data = self.client, self.data
        times: dict[str, float] = {}
        tensor, emb = data / "tensor", d / "emb.txt"
        c.capture_armed = "wd_loss" not in self.quality
        times["decompose_s"], _ = c.stage(
            ["decompose", "--tensor", str(tensor), "--method", "wd",
             *self.sizes["wd"], *MODEL_SEED, "--out", str(emb)])
        self.score_wd()
        times["train_select_s"], _ = c.stage(
            ["train-select", "--train", str(data / "sel_train.tsv"),
             "--embeddings", str(emb), "--out", str(d / "sel_models"),
             *self.sizes["select_net"], *MODEL_SEED])
        times["train_attach_s"], _ = c.stage(
            ["train-attach", "--train", str(data / "att_train.tsv"),
             "--embeddings", str(emb), "--out", str(d / "att_models"),
             *self.sizes["attach_net"], *MODEL_SEED])
        self.evaluate(d, times)
        self.decompose_als(tensor, d / "emb_als.txt", times, "decompose_als_s")
        self.spectrum(tensor, d / "spectrum.csv", times)
        self.query(emb, times)
        digests = [sha256_file(p) for p in (emb, d / "emb_als.txt")]
        if self.first_digests is None:
            self.first_digests = digests
        c.check(digests == self.first_digests, "embeddings differ between passes")
        return times

    def write_inputs(self, d: Path) -> None:
        """The toy corpus plus selection and attachment sets. Training
        sets come from a fixed seed, so every run trains on the same data
        and does the same training work (how many instances the detector
        flags, and so the corrector's size, depends on the data);
        ``--seed`` draws the evaluation sets, from a separate stream."""
        import numpy as np
        import inputs

        train_rng = np.random.default_rng((TRAIN_SEED, 0))
        eval_rng = np.random.default_rng((self.seed, 1))
        s = self.sizes
        shutil.copyfile(TOY_CORPUS, d / "corpus.txt")
        inputs.write_selection_set(train_rng, s["sel_train"], self.roster,
                                   d / "sel_train.tsv")
        inputs.write_attachment_set(train_rng, s["att_train"], self.roster,
                                    d / "att_train.tsv")
        inputs.write_selection_set(eval_rng, s["sel_eval"], self.roster, d / "sel_eval.tsv")
        inputs.write_attachment_set(eval_rng, s["att_eval"], self.roster, d / "att_eval.tsv")
        self.n_pairs = inputs.write_roster_pairs(self.roster, d / "pairs.txt")
        inputs.write_paraphrase_candidates(self.roster, d / "verbs.txt")

    def score_wd(self) -> None:
        captured = self.client.take_captured()
        if captured is None:
            return
        from preptensor.factorize import CooTensor, wd_loss

        tensor, cfg, emb = captured
        loss = wd_loss(CooTensor.from_counts(tensor), emb, cfg.x_max, cfg.alpha)
        self.quality["wd_loss"] = loss
        self.client.check(math.isfinite(loss) and loss > 0, f"wd_loss {loss}")

    def evaluate(self, d: Path, times: dict) -> None:
        """eval-select and eval-attach, checked against the acceptance
        conditions: F1 above always-keep, nearest-head accuracy exactly
        0.6, model accuracy above it."""
        from preptensor.learn import precision_recall_f1

        c, data = self.client, self.data
        times["eval_select_s"], out = c.stage(
            ["eval-select", "--test", str(data / "sel_eval.tsv"),
             "--models", str(d / "sel_models"), "--embeddings", str(d / "emb.txt"),
             "--out", str(d / "sel_errors.csv")])
        times["eval_attach_s"], out_att = c.stage(
            ["eval-attach", "--test", str(data / "att_eval.tsv"),
             "--models", str(d / "att_models"), "--embeddings", str(d / "emb.txt"),
             "--out", str(d / "att_errors.csv")])
        rows = [line.split("\t") for line in
                (data / "sel_eval.tsv").read_text(encoding="utf-8").splitlines() if line]
        observed = [r[2] for r in rows]
        gold = [r[3] for r in rows]
        _, _, keep_f1 = precision_recall_f1(observed, gold, observed)
        f1 = _metric_value(out, "F1")
        c.check(f1 > keep_f1, f"select F1 {f1} not above always-keep {keep_f1}")
        nearest = []
        for line in (data / "att_eval.tsv").read_text(encoding="utf-8").splitlines():
            _, _, gold_idx, cands = line.split("\t")
            dists = [int(spec.rsplit(":", 1)[1]) for spec in cands.split(";")]
            nearest.append(dists.index(min(dists)) == int(gold_idx))
        baseline = sum(nearest) / len(nearest)
        acc = _metric_value(out_att, "accuracy")
        c.check(baseline == 0.6, f"nearest-head accuracy {baseline} != 0.6")
        c.check(acc > baseline, f"attach accuracy {acc} not above {baseline}")
        self.quality["select_f1"] = f1
        self.quality["attach_acc"] = acc

    def query(self, emb: Path, times: dict) -> None:
        """query-sim over all roster pairs and one paraphrase query per
        roster preposition, each checked for finite output."""
        import inputs

        c, data = self.client, self.data
        query_s, out = c.stage(["query-sim", "--embeddings", str(emb),
                                "--pairs", str(data / "pairs.txt")])
        rows = [line.split("\t") for line in out.splitlines()]
        c.check(len(rows) == self.n_pairs
                and all(len(r) == 3 and math.isfinite(float(r[2])) for r in rows),
                "query-sim must give one finite row per pair")
        for head, prep in inputs.paraphrase_queries(self.roster):
            elapsed, out = c.stage(["paraphrase", "--embeddings", str(emb), "--head",
                                    head, "--prep", prep, "--candidates",
                                    str(data / "verbs.txt")])
            query_s += elapsed
            ranked = [line.split("\t") for line in out.splitlines()]
            c.check(bool(ranked) and all(math.isfinite(float(r[1])) for r in ranked),
                    f"paraphrase {head} {prep} gave no finite ranking")
        times["query_s"] = query_s


class ZipfTensor(Workload):
    """ALS and spectrum on a seeded Zipf corpus; set-up counts it."""

    name = "zipf-tensor"

    def setup(self, d: Path) -> dict:
        import zipf_corpus

        text = zipf_corpus.generate(self.seed, self.sizes["zipf_bytes"], self.roster)
        (d / "corpus.txt").write_text(text, encoding="utf-8")
        return {"build_tensor_s": self.build_tensor(d)}

    def after_setup(self, rep_dirs):
        import zipf_corpus

        c = self.client
        digests = {sha256_file(r / "corpus.txt") for r in rep_dirs}
        c.check(len(digests) == 1, "corpus differs between setup repetitions")
        tensor_sha = self.tensor_digests(rep_dirs)
        self.data = rep_dirs[0]
        expected = json.loads(EXPECTED.read_text())["zipf-tensor"]
        self.expected = expected["sizes"].get(str(self.sizes["zipf_bytes"]))
        c.check(self.expected is not None, "no recorded digests for this corpus size")
        self.expected = self.expected or {}
        default_text = zipf_corpus.generate(expected["seed"], self.sizes["zipf_bytes"],
                                            self.roster)
        c.check(zipf_corpus.sha256_text(default_text) == self.expected.get("corpus_sha256"),
                f"seed-{expected['seed']} corpus differs from the recorded digest")
        self.is_default = self.seed == expected["seed"]
        if self.is_default:
            c.check(tensor_sha == self.expected.get("tensor_sha256"),
                    "tensor.txt differs from the recorded digest")
        self.recount(self.data / "tensor")

    def run_pass(self, d: Path) -> dict:
        times: dict[str, float] = {}
        tensor = self.data / "tensor"
        self.decompose_als(tensor, d / "emb.txt", times, "decompose_s")
        self.spectrum(tensor, d / "spectrum.csv", times)
        return times

    def score_als(self):
        tensor = super().score_als()
        if tensor is not None and self.is_default:
            self.client.check(
                [tensor.n_words, tensor.nnz] == [self.expected.get("n_words"),
                                                 self.expected.get("nnz")],
                f"N={tensor.n_words} nnz={tensor.nnz} differ from the record")
        return tensor

    def recount(self, tensor_dir: Path) -> None:
        """Brute-force recount of a fixed sentence subsample must equal
        the program's count_tensor on the same subsample."""
        from preptensor.corpus import count_tensor, load_vocabulary, tokenize_sentences

        sentences = tokenize_sentences((self.data / "corpus.txt").read_bytes())
        step = max(len(sentences) // self.sizes["recount_sentences"], 1)
        sample = sentences[::step]
        vocab = load_vocabulary(tensor_dir / "vocab.txt")
        expected = brute_force_counts(sample, vocab.word_ids, vocab.prep_ids, 3)
        self.client.check(count_tensor(sample, vocab, 3).entries == expected,
                          "count_tensor differs from the brute-force recount")


def brute_force_counts(sentences, word_ids, prep_ids, t) -> dict:
    """Count every (position, position, preposition occurrence) triple
    directly, without enumerating windows."""
    counts: dict[tuple[int, int, int], int] = {}
    extra = len(prep_ids)
    for sent in sentences:
        preps = [(p, prep_ids[tok]) for p, tok in enumerate(sent) if tok in prep_ids]
        words = [(p, word_ids[tok]) for p, tok in enumerate(sent) if tok in word_ids]
        for a, ia in words:
            for b, jb in words:
                if a == b:
                    continue
                for pos, k in preps:
                    if abs(a - pos) <= t and abs(b - pos) <= t:
                        counts[(ia, jb, k)] = counts.get((ia, jb, k), 0) + 1
                outside = any(all(abs(x - pos) > t for pos, _ in preps) for x in (a, b))
                if abs(a - b) <= 2 * t and outside:
                    counts[(ia, jb, extra)] = counts.get((ia, jb, extra), 0) + 1
    return counts


WORKLOAD_TYPES = {w.name: w for w in (ToyE2E, ZipfTensor)}


# ---------------------------------------------------------------------------
# Driver


def run_benchmark(args) -> dict:
    import tracing
    from preptensor import cli

    sizes = SIZES["smoke" if args.smoke else "full"]
    client = Client(cli)
    tracer = tracing.Tracer() if args.trace else None
    work = BENCH_DIR / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    restore_capture = client.install_capture()
    try:
        workload = WORKLOAD_TYPES[args.workload](client, args.seed, sizes)

        def traced(fn, path):
            """Run fn(path) with spans on when tracing; return (result, span range)."""
            if tracer is None:
                return fn(path), None
            start = len(tracer.spans)
            client.tracer = tracer
            try:
                with tracing.installed(tracer):
                    result = fn(path)
            finally:
                client.tracer = None
            return result, (start, len(tracer.spans))

        setup_s, setup_stages, rep_dirs, setup_ranges = [], {}, [], []
        for rep in range(sizes["setup_reps"][args.workload]):
            rep_dir = work / f"setup{rep}"
            rep_dir.mkdir()
            start = perf_counter()
            stages, span_range = traced(workload.setup, rep_dir)
            setup_s.append(perf_counter() - start)
            for key, val in stages.items():
                setup_stages.setdefault(key, []).append(val)
            rep_dirs.append(rep_dir)
            if span_range and span_range[1] > span_range[0]:
                setup_ranges.append(span_range)
        workload.after_setup(rep_dirs)

        # The traced run's second pass is untraced, so that the overhead
        # compares two passes that both follow a first, warming pass.
        passes, pass_ranges, untraced_wall = [], [], None
        min_passes = max(sizes["min_passes"][args.workload], 1 if tracer is None else 2)
        begin = perf_counter()
        n = 0
        while True:
            pass_dir = work / f"pass{n}"
            pass_dir.mkdir()
            if tracer is not None and n == 1:
                untraced_wall = sum(workload.run_pass(pass_dir).values())
            else:
                stages, span_range = traced(workload.run_pass, pass_dir)
                passes.append(stages)
                if span_range:
                    pass_ranges.append(span_range)
            shutil.rmtree(pass_dir)
            if n == 0:
                # Later passes add allocator fragmentation, not program memory.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            n += 1
            if len(passes) >= min_passes and perf_counter() - begin >= args.seconds:
                break
    finally:
        restore_capture()
        shutil.rmtree(work, ignore_errors=True)

    pass_walls = [sum(p.values()) for p in passes]
    stage_medians = {key: statistics.median([p[key] for p in passes]) for key in passes[0]}
    for key, vals in setup_stages.items():
        stage_medians.setdefault(key, statistics.median(vals))
    report = {
        # The host's CPU speed drifts by up to 1.5x over tens of seconds;
        # the fastest pass is the one that drift disturbed least.
        "wall_s": min(pass_walls),
        "wall_median_s": statistics.median(pass_walls),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": peak_rss_mb,
        "failed_ratio": client.failed / max(client.attempted, 1),
        **stage_medians,
        **workload.quality,
    }
    result = {"client": client, "report": report, "passes": len(passes),
              "pass_times": passes,
              "setup_reps": len(setup_s),
              "setup_only": [key for key in setup_stages if key not in passes[0]]}
    if tracer is not None:
        setup_parts = [tracing.summarize(tracer.spans, a, b) for a, b in setup_ranges]
        pass_parts = [tracing.summarize(tracer.spans, a, b) for a, b in pass_ranges]
        layer = tracing.combine(setup_parts, pass_parts)
        warm_walls = [sum(p.values()) for p in passes[1:]]
        layer["trace.overhead_s"] = statistics.median(warm_walls) - untraced_wall
        result.update(layer=layer, untraced_wall=untraced_wall,
                      coverage_setup=tracing.stage_coverage(setup_parts),
                      coverage_pass=tracing.stage_coverage(pass_parts))
        out_dir = BENCH_DIR / ".out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"trace-{args.workload}-seed{args.seed}.json")
    return result


def print_report(args, result) -> None:
    import tracing

    report = result["report"]
    client = result["client"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={result['passes']} setup_reps={result['setup_reps']} "
          f"operations={client.attempted} failed={client.failed}")
    print("machine " + json.dumps(machine_block(), sort_keys=True))
    for key, val in report.items():
        note = " (in set-up)" if key in result["setup_only"] else ""
        print(f"  {key:<16} {val:>14.6g} {UNITS[key]}{note}")
    for n, stages in enumerate(result["pass_times"]):
        print(f"  pass {n}: " + " ".join(f"{k}={v:.4g}" for k, v in stages.items()))
    if "layer" not in result:
        return
    units, moves = tracing.metric_units(), tracing.metric_moves()
    print(f"trace: untraced pass {result['untraced_wall']:.4g} s, overhead of "
          f"later traced passes {result['layer']['trace.overhead_s']:.4g} s")
    for label, cov in (("setup", result["coverage_setup"]),
                       ("pass", result["coverage_pass"])):
        for stage, share in sorted(cov.items()):
            print(f"  coverage {label:<5} {stage:<18} {share:8.1%} of stage wall time")
    for key, val in result["layer"].items():
        hint = f"  -> {moves[key]}" if key in moves else ""
        print(f"  {key:<36} {val:>14.6g} {units[key]}{hint}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs for the benchmark's own test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    missing = [str(p.relative_to(ROOT)) for p in (SRC / "preptensor" / "cli.py", TOY_CORPUS)
               if not p.is_file()]
    if missing:
        print(f"perfbench: not a preptensor checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))

    result = run_benchmark(args)
    print_report(args, result)
    client = result["client"]
    if args.trace:
        import tracing

        units = tracing.metric_units()
        metrics = {k: {"value": v, "unit": units[k]} for k, v in result["layer"].items()
                   if k not in tracing.REPORT_ONLY}
    else:
        metrics = {k: {"value": result["report"][k], "unit": u}
                   for k, u in END_TO_END.items()}
    print(json.dumps({"correct": client.failed == 0, "attempted": client.attempted,
                      "failed": client.failed, "metrics": metrics}))
    return 0



if __name__ == "__main__":
    sys.exit(main())
