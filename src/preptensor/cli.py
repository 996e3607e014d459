"""Single entry point wiring the pipeline stages together.

Subcommands: build-tensor, decompose, query-sim, paraphrase, spectrum,
train-select, eval-select, train-attach, eval-attach, each declared once
in COMMANDS with the OPTIONS it reads. Flag values override config-file
values, which override defaults. run() writes the manifest of every
artifact-producing command, with the resolved configuration and the
digest of every file the command read. Outputs are written next to their
final paths and moved into place only when the command succeeds.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import logging
import os
import platform
import resource
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from . import attach as attach_ops
from . import corpus as corpus_ops
from . import embeddings as emb_ops
from . import select as select_ops
from .factorize import WD_BATCH, TrainingConfig, decompose_orth_als, decompose_weighted
from .learn import FnnHyper, TreeParams, load_fnn, load_tree, save_fnn, save_tree

logger = logging.getLogger("preptensor")

_BOOLEANS = {"1": True, "true": True, "yes": True,
             "0": False, "false": False, "no": False}


def _boolean(text: str) -> bool:
    try:
        return _BOOLEANS[text.lower()]
    except KeyError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not one of {'/'.join(_BOOLEANS)}") from None


# Numbers read by the file fields' rules: int() and float() would also
# take "1_0", non-ASCII digits, nan and inf.
def _number(rule, text: str):
    try:
        return rule(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


_integer = functools.partial(_number, corpus_ops.int64_field)
_finite_float = functools.partial(_number, corpus_ops.float_field)


def _positive_int(text: str) -> int:
    value = _integer(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is below 1")
    return value


# name -> (type, default). The type converts a flag's text and a config-
# file value alike. A default of None is set by each command that reads
# the option, in COMMAND_DEFAULTS. An option that sets a field of a
# layer's settings takes the field's default.
OPTIONS = {
    "window": (_positive_int, 3),
    "min_count": (_integer, 5),
    "dim": (_integer, TrainingConfig.dim),
    "iters": (_positive_int, TrainingConfig.iterations),
    "ortho_iters": (_integer, TrainingConfig.ortho_iterations),
    "xmax": (_finite_float, TrainingConfig.x_max),
    "alpha": (_finite_float, TrainingConfig.alpha),
    "lr": (_finite_float, TrainingConfig.learning_rate),
    "seed": (_integer, TrainingConfig.seed),
    "top": (_positive_int, None),
    "centered": (_boolean, True),
    "hidden1": (_positive_int, None),
    "hidden2": (_positive_int, None),
    "epochs": (_positive_int, FnnHyper.epochs),
    "batch": (_positive_int, FnnHyper.batch_size),
    "fnn_lr": (_finite_float, FnnHyper.learning_rate),
    "momentum": (_finite_float, FnnHyper.momentum),
    "max_depth": (_integer, TreeParams.max_depth),
    "min_leaf": (_integer, TreeParams.min_leaf),
}

# command -> {name: default}: the options whose default differs between
# the commands that read them.
COMMAND_DEFAULTS = {
    "paraphrase": {"top": 5},
    "spectrum": {"top": 50},
    "train-select": {"hidden1": 500, "hidden2": 10},
    "train-attach": {"hidden1": 1000, "hidden2": 20},
}


def _read_config_file(path) -> dict:
    """Plain-text `key = value` pairs; `#` starts a comment. Every key
    must be a known option, and its value is converted by the option's
    type; a command reads the ones it uses."""
    raw = {}
    with corpus_ops.open_input(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"line {lineno}: expected key = value")
            key, val = (part.strip() for part in line.split("=", 1))
            raw[key.replace("-", "_")] = val
        unknown = sorted(set(raw) - set(OPTIONS))
        if unknown:
            raise ValueError(f"unknown config key(s): {' '.join(unknown)}")
        values = {}
        for key, val in raw.items():
            try:
                values[key] = OPTIONS[key][0](val)
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise ValueError(f"{key} = {val}: {exc}") from None
    return values


def _resolve(args: argparse.Namespace, config: dict) -> dict:
    """Merge flag > config file > default for the options that
    ``args.command`` reads."""
    defaults = {key: default for key, (_type, default) in OPTIONS.items()}
    defaults.update(COMMAND_DEFAULTS.get(args.command, {}))
    return {key: getattr(args, key, config.get(key, defaults[key]))
            for key in COMMANDS[args.command][2]}


def _write_manifest(path, extra: dict, command: str, config: dict, produced: list,
                    start: float) -> None:
    """Stage at ``path`` the manifest of a command that succeeded, with
    its ``extra`` fields (``counters``, ``trajectory``)."""
    manifest = {
        "command": command,
        "config": config,
        "inputs": {name: corpus_ops.input_digest(name)
                   for name in corpus_ops.OPENED_INPUTS.get()},
        "outputs": [str(final) for _tmp, final in produced],
        # Outputs are byte-identical only under the same numpy row kernels.
        "versions": {"python": platform.python_version(), "numpy": np.__version__,
                     "scipy": scipy.__version__},
        # Peak resident set in MB (``ru_maxrss`` is KiB on Linux); kept
        # out of ``counters``, which repeat exactly between runs.
        "resources": {"wall_s": time.perf_counter() - start,
                      "peak_rss_mb": resource.getrusage(
                          resource.RUSAGE_SELF).ru_maxrss / 1024},
        **extra,
    }
    with open(_staged(produced, path), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _require_tokens(store, tokens) -> None:
    """Reject tokens the embeddings lack as a user error, naming them."""
    missing = [tok for tok in dict.fromkeys(tokens) if tok not in store]
    if missing:
        raise ValueError(f"not in the embeddings: {' '.join(missing)}")


def _staged(produced: list, path) -> Path:
    """A temporary file next to ``path`` for a command to write. run()
    moves it onto ``path`` when the command succeeds and removes it when
    the command fails, so a failed run keeps an earlier run's outputs."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    produced.append((tmp, path))
    return tmp


def _load_tensor_dir(tensor_dir: Path):
    """The vocabulary and tensor of a ``build-tensor`` output directory,
    which must agree on the number of words and of prepositions."""
    vocab_path, tensor_path = tensor_dir / "vocab.txt", tensor_dir / "tensor.txt"
    vocab = corpus_ops.load_vocabulary(vocab_path)
    tensor = corpus_ops.load_tensor(tensor_path)
    if (vocab.n_words, vocab.n_prepositions) != (tensor.n_words, tensor.n_prepositions):
        raise ValueError(
            f"{vocab_path} has {vocab.n_words} words and {vocab.n_prepositions} "
            f"prepositions but {tensor_path} has {tensor.n_words} and "
            f"{tensor.n_prepositions}")
    return vocab, tensor


def _load_roster(path) -> list[str]:
    if path:
        return corpus_ops.load_roster(path)
    return select_ops.default_roster()


# ---------------------------------------------------------------------------
# Subcommands


def cmd_build_tensor(args, cfg: dict, produced: list):
    roster = _load_roster(args.roster)
    with corpus_ops.open_input(args.corpus, "rb") as fh:
        sentences = corpus_ops.tokenize_sentences(fh.read())
    vocab = corpus_ops.build_vocabulary(sentences, cfg["min_count"], roster)
    tensor = corpus_ops.count_tensor(sentences, vocab, cfg["window"])
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    corpus_ops.save_vocabulary(vocab, _staged(produced, out / "vocab.txt"))
    corpus_ops.save_tensor(tensor, _staged(produced, out / "tensor.txt"),
                           _staged(produced, out / "tensor.npz"))
    logger.info("tensor: N=%d K=%d nnz=%d", vocab.n_words,
                vocab.n_prepositions, tensor.nnz)
    return out / "manifest.json", {"counters": {
        "sentences": len(sentences), "tokens": sum(map(len, sentences)),
        "n_words": vocab.n_words, "n_prepositions": vocab.n_prepositions,
        "nnz": tensor.nnz}}


def cmd_decompose(args, cfg: dict, produced: list):
    vocab, tensor = _load_tensor_dir(Path(args.tensor))
    cfg["ortho_iters"] = min(cfg["ortho_iters"], cfg["iters"])
    config = TrainingConfig(
        dim=cfg["dim"], iterations=cfg["iters"], ortho_iterations=cfg["ortho_iters"],
        x_max=cfg["xmax"], alpha=cfg["alpha"],
        learning_rate=cfg["lr"], seed=cfg["seed"],
    )
    counters = {"n_words": tensor.n_words, "n_prepositions": tensor.n_prepositions,
                "nnz": tensor.nnz, "tensor_source": tensor.source}
    if args.method == "als":
        emb = decompose_orth_als(tensor, config)
        counters.update(sweeps=len(emb.trajectory), split_fits=emb.split_fits)
    else:  # "wd": the parser's choices allow nothing else
        emb = decompose_weighted(tensor, config)
        counters.update(batch=WD_BATCH, epochs=len(emb.trajectory))
    store = emb_ops.EmbeddingStore.from_factors(vocab, emb)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    emb_ops.save_embeddings(store, _staged(produced, out))
    cfg["method"] = args.method
    return str(out) + ".manifest.json", {"trajectory": emb.trajectory,
                                         "trajectory_s": emb.trajectory_s,
                                         "counters": counters}


def cmd_query_sim(args, cfg: dict, produced: list):
    roster = _load_roster(args.roster)
    store = emb_ops.load_embeddings(args.embeddings)
    pairs = []
    with corpus_ops.open_input(args.pairs) as fh:
        for lineno, line in enumerate(fh, start=1):
            toks = line.split()
            if len(toks) == 2:
                pairs.append((toks[0], toks[1]))
            elif toks:
                raise ValueError(f"line {lineno}: expected 2 tokens")
    _require_tokens(store, [tok for pair in pairs for tok in pair])
    for left, right, sim in emb_ops.preposition_similarity_table(
            store, pairs, roster, centered=cfg["centered"]):
        print(f"{left}\t{right}\t{sim:.4f}")


def cmd_paraphrase(args, cfg: dict, produced: list):
    store = emb_ops.load_embeddings(args.embeddings)
    with corpus_ops.open_input(args.candidates) as fh:
        candidates = [line.strip() for line in fh if line.strip()]
    _require_tokens(store, [args.head, args.prep, *candidates])
    ranked = emb_ops.paraphrase_phrasal_verb(args.head, args.prep, candidates, store)
    for verb, dist in ranked[:cfg["top"]]:
        print(f"{verb}\t{dist:.6g}")


def cmd_spectrum(args, cfg: dict, produced: list):
    vocab, tensor = _load_tensor_dir(Path(args.tensor))
    if corpus_ops.ASCII_INTEGER.fullmatch(args.slice):
        k = corpus_ops.int64_field(args.slice, "slice")
    elif args.slice in vocab.prep_ids:
        k = vocab.prep_ids[args.slice]
    else:
        raise ValueError(f"unknown slice {args.slice!r}")
    cfg.update(slice=args.slice, k=k)
    values = emb_ops.slice_spectrum(tensor, k, cfg["top"])
    lines = [f"{idx},{format(val, '.10g')}" for idx, val in enumerate(values, 1)]
    if not args.out:
        print("\n".join(lines))
        return None
    with open(_staged(produced, args.out), "w", encoding="utf-8") as fh:
        fh.write("rank,normalized_singular_value\n")
        fh.write("\n".join(lines) + "\n")
    return str(args.out) + ".manifest.json", {"counters": {
        "tensor_source": tensor.source}}


def _fnn_hyper(cfg) -> FnnHyper:
    return FnnHyper(learning_rate=cfg["fnn_lr"], momentum=cfg["momentum"],
                    batch_size=cfg["batch"], epochs=cfg["epochs"],
                    seed=cfg["seed"])


def cmd_train_select(args, cfg: dict, produced: list):
    roster = _load_roster(args.roster)
    store = emb_ops.load_embeddings(args.embeddings)
    instances, rejected = select_ops.load_selection_dataset(args.train, roster)
    models = select_ops.train_selection_models(
        instances, store, roster,
        tree_params=TreeParams(max_depth=cfg["max_depth"], min_leaf=cfg["min_leaf"]),
        hyper=_fnn_hyper(cfg), arch=(cfg["hidden1"], cfg["hidden2"]),
        window=cfg["window"],
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_tree(models.tree, _staged(produced, out / "tree.txt"))
    save_fnn(models.fnn, _staged(produced, out / "fnn.txt"))
    select_ops.save_confusion_table(models.table, _staged(produced, out / "confusion.txt"))
    return out / "manifest.json", {"trajectory": models.fnn.trajectory,
                                   "counters": {**models.fnn.counters, **models.counters,
                                                "rejected": rejected}}


def _training_manifest(models_dir: Path, embeddings) -> dict:
    """The manifest training wrote to ``models_dir``; a ValueError unless
    it lists ``embeddings``, by sha256, among the inputs the models were
    trained on."""
    with corpus_ops.open_input(models_dir / "manifest.json") as fh:
        manifest = json.load(fh)
        inputs = manifest.get("inputs") if isinstance(manifest, dict) else None
        if not isinstance(inputs, dict):
            raise ValueError("no inputs recorded")
        if (digest := corpus_ops.input_digest(embeddings)) not in inputs.values():
            raise ValueError(f"{embeddings} (sha256 {digest}) is not among the "
                             f"inputs the models were trained on: {inputs}")
        return manifest


def _report(produced: list, out, models_dir: Path, header: list, errors: list,
            line: str) -> str:
    """Stage the errors CSV at ``out`` (by default ``errors.csv`` in
    ``models_dir``) and ``<stem>_metrics.txt`` next to it, print the
    metrics ``line``, and return the path of the command's manifest."""
    errors_path = Path(out) if out else models_dir / "errors.csv"
    with open(_staged(produced, errors_path), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(errors)
    print(line)
    metrics_path = errors_path.with_name(errors_path.stem + "_metrics.txt")
    _staged(produced, metrics_path).write_text(line + "\n", encoding="utf-8")
    return str(errors_path) + ".manifest.json"


def cmd_eval_select(args, cfg: dict, produced: list):
    models_dir = Path(args.models)
    manifest = _training_manifest(models_dir, args.embeddings)
    config = manifest.get("config")
    window = config.get("window") if isinstance(config, dict) else None
    if type(window) is not int:
        raise ValueError(f"{models_dir / 'manifest.json'}: no config.window recorded")
    if window < 1:
        raise ValueError(f"{models_dir / 'manifest.json'}: config.window must be "
                         f">= 1, got {window}")
    table = select_ops.load_confusion_table(models_dir / "confusion.txt")
    if args.roster and _load_roster(args.roster) != table.roster:
        raise ValueError(f"roster {args.roster} differs from the trained roster "
                         f"in {models_dir / 'confusion.txt'}")
    store = emb_ops.load_embeddings(args.embeddings)
    models = select_ops.SelectionModels(
        tree=load_tree(models_dir / "tree.txt"),
        fnn=load_fnn(fnn_path := models_dir / "fnn.txt"),
        table=table,
    )
    # The embeddings are the trained ones (by digest), so a corrector that
    # does not take correction_features' 3d + 3 wide rows is at fault.
    if (width := 3 * store.dim + 3) != models.fnn.sizes[0]:
        raise ValueError(f"{fnn_path} takes {models.fnn.sizes[0]} input features, but "
                         f"correction rows of d={store.dim} embeddings have {width}")
    instances, rejected = select_ops.load_selection_dataset(args.test, table.roster)
    (p, r, f1), errors, counters = select_ops.evaluate_selection(instances, models, store,
                                                                 window=window)
    cfg["window"] = window
    counters["rejected"] = rejected
    return _report(produced, args.out, models_dir,
                   ["sentence", "observed", "gold", "predicted"], errors,
                   f"P={p:.4f} R={r:.4f} F1={f1:.4f}"), {"counters": counters}


def cmd_train_attach(args, cfg: dict, produced: list):
    store = emb_ops.load_embeddings(args.embeddings)
    instances, rejected = attach_ops.load_attachment_dataset(args.train)
    fnn, tagset = attach_ops.train_attachment_model(
        instances, store, hyper=_fnn_hyper(cfg), arch=(cfg["hidden1"], cfg["hidden2"]))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_fnn(fnn, _staged(produced, out / "fnn.txt"))
    _staged(produced, out / "tags.txt").write_text("\n".join(tagset.tags) + "\n",
                                                   encoding="utf-8")
    counters = {**fnn.counters, "instances": len(instances), "rejected": rejected,
                "candidates": fnn.counters["fnn_rows"]}
    return out / "manifest.json", {"trajectory": fnn.trajectory, "counters": counters}


def cmd_eval_attach(args, cfg: dict, produced: list):
    models_dir = Path(args.models)
    _training_manifest(models_dir, args.embeddings)
    store = emb_ops.load_embeddings(args.embeddings)
    fnn = load_fnn(models_dir / "fnn.txt")
    with corpus_ops.open_input(tags := models_dir / "tags.txt") as fh:
        tagset = attach_ops.TagSet([line for line in fh.read().splitlines() if line])
    # The embeddings are the trained ones (by digest), so a feature row
    # of a width the network does not take is the tag list's fault.
    if (width := tagset.feature_width(store.dim)) != fnn.sizes[0]:
        raise ValueError(f"{tags}: {len(tagset.tags)} tags make {width} input features, "
                         f"but {models_dir / 'fnn.txt'} takes {fnn.sizes[0]}")
    instances, rejected = attach_ops.load_attachment_dataset(args.test)
    acc, errors, counters = attach_ops.evaluate_attachment(instances, fnn, store, tagset)
    counters["rejected"] = rejected
    return _report(produced, args.out, models_dir,
                   ["preposition", "child", "predicted_head", "gold_head"], errors,
                   f"accuracy={acc:.4f}"), {"counters": counters}


# ---------------------------------------------------------------------------
# Command table and argument parsing

_FNN_OPTIONS = ("hidden1", "hidden2", "epochs", "batch", "fnn_lr", "momentum")

# name -> (function, help, options read, other arguments). The options
# are OPTIONS keys, which the function gets resolved; an argument ending
# in "?" is optional, the others are required. A function returns the
# path of its manifest and the manifest's command-specific fields, or
# None when it writes no file.
COMMANDS = {
    "build-tensor": (cmd_build_tensor, "count the co-occurrence tensor",
                     ("window", "min_count"), ("corpus", "roster?", "out")),
    "decompose": (cmd_decompose, "factorize the tensor into embeddings",
                  ("dim", "iters", "ortho_iters", "xmax", "alpha", "lr", "seed"),
                  ("tensor", "method", "out")),
    "query-sim": (cmd_query_sim, "cosine similarity for token pairs",
                  ("centered",), ("embeddings", "pairs", "roster?")),
    "paraphrase": (cmd_paraphrase, "rank single-verb paraphrases", ("top",),
                   ("embeddings", "head", "prep", "candidates")),
    "spectrum": (cmd_spectrum, "normalized singular values of a slice", ("top",),
                 ("tensor", "slice", "out?")),
    "train-select": (cmd_train_select, "train select models",
                     ("window", "seed", *_FNN_OPTIONS, "max_depth", "min_leaf"),
                     ("train", "embeddings", "roster?", "out")),
    "eval-select": (cmd_eval_select, "eval select on a test set", (),
                    ("test", "models", "embeddings", "roster?", "out?")),
    "train-attach": (cmd_train_attach, "train attach models",
                     ("seed", *_FNN_OPTIONS), ("train", "embeddings", "out")),
    "eval-attach": (cmd_eval_attach, "eval attach on a test set", (),
                    ("test", "models", "embeddings", "out?")),
}

_CHOICES = {"method": ("als", "wd")}


# Built once per process: parse_args leaves the parser as it was, and
# unset flags stay off each run's fresh namespace.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="preptensor",
        description="Preposition embeddings from word-triple count tensors",
    )
    parser.add_argument("--config", help="plain-text key = value config file")
    parser.add_argument("--log-level", default="warning",
                        choices=["debug", "info", "warning", "error"])
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_func, help_text, options, arguments) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for spec in arguments:
            name = spec.rstrip("?")
            p.add_argument(f"--{name}", required=not spec.endswith("?"),
                           choices=_CHOICES.get(name))
        # Unset flags stay off the namespace, so _resolve can tell them
        # from a config-file value.
        for key in options:
            flag = "--" + key.replace("_", "-")
            kind = OPTIONS[key][0]
            if kind is _boolean:
                p.add_argument(flag, action=argparse.BooleanOptionalAction,
                               default=argparse.SUPPRESS)
            else:
                p.add_argument(flag, type=kind, default=argparse.SUPPRESS)
    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    logging.basicConfig(level=getattr(logging, args.log_level.upper()),
                        format="%(levelname)s %(name)s %(message)s")
    func = COMMANDS[args.command][0]
    produced: list[tuple[Path, Path]] = []
    # The input record: every file the command opens, the config file
    # included, and the digests taken of them.
    recording = corpus_ops.OPENED_INPUTS.set({})
    start = time.perf_counter()
    try:
        config = _read_config_file(args.config) if args.config else {}
        cfg = _resolve(args, config)
        manifest = func(args, cfg, produced)
        if manifest is not None:
            _write_manifest(*manifest, args.command, cfg, produced, start)
            # Evaluation refuses a directory without a manifest, so until
            # the new one moves in last, a failed move leaves none.
            Path(manifest[0]).unlink(missing_ok=True)
        for tmp, path in produced:
            os.replace(tmp, path)
        return 0
    except (OSError, ValueError, RuntimeError, MemoryError) as exc:
        logger.error("%s", str(exc) or type(exc).__name__)
        return 1
    finally:
        corpus_ops.OPENED_INPUTS.reset(recording)
        # Whatever was not moved into place is a partial output.
        for tmp, _path in produced:
            tmp.unlink(missing_ok=True)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
