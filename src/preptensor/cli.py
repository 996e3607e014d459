"""Single entry point wiring the pipeline stages together.

Subcommands: build-tensor, decompose, query-sim, paraphrase, spectrum,
train-select, eval-select, train-attach, eval-attach, each declared once
in COMMANDS with the OPTIONS it reads. Flag values override config-file
values, which override defaults; every artifact-producing run writes a
manifest with the resolved configuration and input digests. Outputs are
written next to their final paths and moved into place only when the
command succeeds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys
from pathlib import Path

from . import attach as attach_ops
from . import corpus as corpus_ops
from . import embeddings as emb_ops
from . import select as select_ops
from .factorize import TrainingConfig, decompose_orth_als, decompose_weighted
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


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is below 1")
    return value


# name -> (type, default). The type converts a flag's text and a config-
# file value alike. A default of None leaves the value to each command
# that reads it (the network sizes and `top` differ between commands).
OPTIONS = {
    "window": (int, 3),
    "min_count": (int, 5),
    "dim": (int, 200),
    "iters": (_positive_int, 20),
    "ortho_iters": (int, 5),
    "xmax": (float, 10.0),
    "alpha": (float, 0.75),
    "lr": (float, 0.05),
    "seed": (int, 0),
    "top": (_positive_int, None),
    "centered": (_boolean, True),
    "hidden1": (_positive_int, None),
    "hidden2": (_positive_int, None),
    "epochs": (_positive_int, 50),
    "batch": (_positive_int, 64),
    "fnn_lr": (float, 0.01),
    "momentum": (float, 0.9),
    "max_depth": (int, 8),
    "min_leaf": (int, 5),
}


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _read_config_file(path) -> dict:
    """Plain-text `key = value` pairs; `#` starts a comment. Every key
    must be a known option, and its value is converted by the option's
    type; a command reads the ones it uses."""
    raw = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}: line {lineno}: expected key = value")
            key, val = (part.strip() for part in line.split("=", 1))
            raw[key.replace("-", "_")] = val
    unknown = sorted(set(raw) - set(OPTIONS))
    if unknown:
        raise ValueError(f"{path}: unknown config key(s): {' '.join(unknown)}")
    values = {}
    for key, val in raw.items():
        try:
            values[key] = OPTIONS[key][0](val)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise ValueError(f"{path}: {key} = {val}: {exc}") from None
    return values


def _resolve(args: argparse.Namespace, options, config: dict) -> dict:
    """Merge flag > config file > default for the given option names."""
    return {key: getattr(args, key, config.get(key, OPTIONS[key][1]))
            for key in options}


def _write_manifest(path, command: str, config: dict, inputs: list, outputs: list,
                    extra: dict | None = None):
    manifest = {
        "command": command,
        "config": {k: v for k, v in sorted(config.items())},
        "inputs": {str(p): _sha256(p) for p in inputs},
        "outputs": [str(p) for p in outputs],
        **(extra or {}),
    }
    with open(path, "w", encoding="utf-8") as fh:
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


def _load_roster(path) -> list[str]:
    if path:
        return corpus_ops.load_roster(path)
    return select_ops.default_roster()


# ---------------------------------------------------------------------------
# Subcommands


def cmd_build_tensor(args, cfg: dict, produced: list) -> None:
    roster = _load_roster(args.roster)
    with open(args.corpus, "rb") as fh:
        sentences = corpus_ops.tokenize_sentences(fh.read())
    vocab = corpus_ops.build_vocabulary(sentences, cfg["min_count"], roster)
    tensor = corpus_ops.count_tensor(sentences, vocab, cfg["window"])
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    vocab_path = out / "vocab.txt"
    tensor_path = out / "tensor.txt"
    corpus_ops.save_vocabulary(vocab, _staged(produced, vocab_path))
    corpus_ops.save_tensor(tensor, _staged(produced, tensor_path))
    inputs = [args.corpus] + ([args.roster] if args.roster else [])
    _write_manifest(_staged(produced, out / "manifest.json"), "build-tensor", cfg,
                    inputs, [vocab_path, tensor_path])
    logger.info("tensor: N=%d K=%d nnz=%d", vocab.n_words,
                vocab.n_prepositions, tensor.nnz)


def cmd_decompose(args, cfg: dict, produced: list) -> None:
    tensor_dir = Path(args.tensor)
    vocab = corpus_ops.load_vocabulary(tensor_dir / "vocab.txt")
    tensor = corpus_ops.load_tensor(tensor_dir / "tensor.txt")
    config = TrainingConfig(
        dim=cfg["dim"], iterations=cfg["iters"],
        ortho_iterations=min(cfg["ortho_iters"], cfg["iters"]),
        x_max=cfg["xmax"], alpha=cfg["alpha"],
        learning_rate=cfg["lr"], seed=cfg["seed"],
    )
    if args.method == "als":
        emb = decompose_orth_als(tensor, config)
    elif args.method == "wd":
        emb = decompose_weighted(tensor, config)
    else:
        raise ValueError(f"unknown method {args.method!r}")
    store = emb_ops.EmbeddingStore.from_factors(vocab, emb)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    emb_ops.save_embeddings(store, _staged(produced, out))
    cfg["method"] = args.method
    _write_manifest(_staged(produced, str(out) + ".manifest.json"), "decompose", cfg,
                    [tensor_dir / "vocab.txt", tensor_dir / "tensor.txt"], [out],
                    extra={"trajectory": emb.trajectory,
                           "counters": {"n_words": tensor.n_words,
                                        "n_prepositions": tensor.n_prepositions,
                                        "nnz": tensor.nnz}})


def cmd_query_sim(args, cfg: dict, produced: list) -> None:
    roster = _load_roster(args.roster)
    store = emb_ops.load_embeddings(args.embeddings)
    pairs = []
    with open(args.pairs, encoding="utf-8") as fh:
        for line in fh:
            toks = line.split()
            if len(toks) == 2:
                pairs.append((toks[0], toks[1]))
    _require_tokens(store, [tok for pair in pairs for tok in pair])
    for left, right, sim in emb_ops.preposition_similarity_table(
            store, pairs, roster, centered=cfg["centered"]):
        print(f"{left}\t{right}\t{sim:.4f}")


def cmd_paraphrase(args, cfg: dict, produced: list) -> None:
    store = emb_ops.load_embeddings(args.embeddings)
    with open(args.candidates, encoding="utf-8") as fh:
        candidates = [line.strip() for line in fh if line.strip()]
    _require_tokens(store, [args.head, args.prep, *candidates])
    ranked = emb_ops.paraphrase_phrasal_verb(args.head, args.prep, candidates, store)
    for verb, dist in ranked[:cfg["top"] or 5]:
        print(f"{verb}\t{dist:.6g}")


def cmd_spectrum(args, cfg: dict, produced: list) -> None:
    tensor_dir = Path(args.tensor)
    vocab = corpus_ops.load_vocabulary(tensor_dir / "vocab.txt")
    tensor = corpus_ops.load_tensor(tensor_dir / "tensor.txt")
    try:
        k = int(args.slice)
    except ValueError:
        if args.slice not in vocab.prep_ids:
            raise ValueError(f"unknown slice {args.slice!r}") from None
        k = vocab.prep_ids[args.slice]
    values = emb_ops.slice_spectrum(tensor, k, cfg["top"] or 50)
    lines = [f"{idx},{format(val, '.10g')}" for idx, val in enumerate(values, 1)]
    if args.out:
        with open(_staged(produced, args.out), "w", encoding="utf-8") as fh:
            fh.write("rank,normalized_singular_value\n")
            fh.write("\n".join(lines) + "\n")
    else:
        print("\n".join(lines))


def _fnn_hyper(cfg) -> FnnHyper:
    return FnnHyper(learning_rate=cfg["fnn_lr"], momentum=cfg["momentum"],
                    batch_size=cfg["batch"], epochs=cfg["epochs"],
                    seed=cfg["seed"])


def cmd_train_select(args, cfg: dict, produced: list) -> None:
    roster = _load_roster(args.roster)
    store = emb_ops.load_embeddings(args.embeddings)
    instances = select_ops.load_selection_dataset(args.train, roster)
    arch = (cfg["hidden1"] or 500, cfg["hidden2"] or 10)
    models = select_ops.train_selection_models(
        instances, store, roster,
        tree_params=TreeParams(max_depth=cfg["max_depth"], min_leaf=cfg["min_leaf"]),
        hyper=_fnn_hyper(cfg), arch=arch, window=cfg["window"],
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    outputs = [out / "tree.txt", out / "fnn.txt", out / "confusion.txt"]
    tree_tmp, fnn_tmp, table_tmp = (_staged(produced, path) for path in outputs)
    save_tree(models.tree, tree_tmp)
    save_fnn(models.fnn, fnn_tmp)
    select_ops.save_confusion_table(models.table, table_tmp)
    cfg["arch"] = list(arch)
    inputs = [args.train, args.embeddings] + ([args.roster] if args.roster else [])
    _write_manifest(_staged(produced, out / "manifest.json"), "train-select", cfg,
                    inputs, outputs)


def cmd_eval_select(args, cfg: dict, produced: list) -> None:
    models_dir = Path(args.models)
    table = select_ops.load_confusion_table(models_dir / "confusion.txt")
    if args.roster and _load_roster(args.roster) != table.roster:
        raise ValueError(f"roster {args.roster} differs from the trained roster "
                         f"in {models_dir / 'confusion.txt'}")
    store = emb_ops.load_embeddings(args.embeddings)
    models = select_ops.SelectionModels(
        tree=load_tree(models_dir / "tree.txt"),
        fnn=load_fnn(models_dir / "fnn.txt"),
        table=table,
    )
    instances = select_ops.load_selection_dataset(args.test, table.roster)
    errors_path = Path(args.out) if args.out else models_dir / "errors.csv"
    metrics_path = errors_path.with_name(errors_path.stem + "_metrics.txt")
    (p, r, f1), _errors = select_ops.evaluate_selection(
        instances, models, store, window=cfg["window"],
        error_log_path=_staged(produced, errors_path))
    line = f"P={p:.4f} R={r:.4f} F1={f1:.4f}"
    print(line)
    _staged(produced, metrics_path).write_text(line + "\n", encoding="utf-8")


def cmd_train_attach(args, cfg: dict, produced: list) -> None:
    store = emb_ops.load_embeddings(args.embeddings)
    instances = attach_ops.load_attachment_dataset(args.train)
    arch = (cfg["hidden1"] or 1000, cfg["hidden2"] or 20)
    fnn, tagset = attach_ops.train_attachment_model(
        instances, store, hyper=_fnn_hyper(cfg), arch=arch)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    outputs = [out / "fnn.txt", out / "tags.txt"]
    fnn_tmp, tags_tmp = (_staged(produced, path) for path in outputs)
    save_fnn(fnn, fnn_tmp)
    tags_tmp.write_text("\n".join(tagset.tags) + "\n", encoding="utf-8")
    cfg["arch"] = list(arch)
    _write_manifest(_staged(produced, out / "manifest.json"), "train-attach", cfg,
                    [args.train, args.embeddings], outputs)


def cmd_eval_attach(args, cfg: dict, produced: list) -> None:
    models_dir = Path(args.models)
    store = emb_ops.load_embeddings(args.embeddings)
    fnn = load_fnn(models_dir / "fnn.txt")
    tags = [line for line in (models_dir / "tags.txt").read_text(
        encoding="utf-8").splitlines() if line]
    tagset = attach_ops.TagSet(tags)
    instances = attach_ops.load_attachment_dataset(args.test)
    errors_path = Path(args.out) if args.out else models_dir / "errors.csv"
    metrics_path = errors_path.with_name(errors_path.stem + "_metrics.txt")
    acc, _errors = attach_ops.evaluate_attachment(
        instances, fnn, store, tagset, error_log_path=_staged(produced, errors_path))
    line = f"accuracy={acc:.4f}"
    print(line)
    _staged(produced, metrics_path).write_text(line + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Command table and argument parsing

_FNN_OPTIONS = ("hidden1", "hidden2", "epochs", "batch", "fnn_lr", "momentum")

# name -> (function, help, options read, other arguments). The options
# are OPTIONS keys, which the function gets resolved; an argument ending
# in "?" is optional, the others are required.
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
    "eval-select": (cmd_eval_select, "eval select on a test set", ("window",),
                    ("test", "models", "embeddings", "roster?", "out?")),
    "train-attach": (cmd_train_attach, "train attach models",
                     ("seed", *_FNN_OPTIONS), ("train", "embeddings", "out")),
    "eval-attach": (cmd_eval_attach, "eval attach on a test set", (),
                    ("test", "models", "embeddings", "out?")),
}

_CHOICES = {"method": ("als", "wd")}


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
    func, _help, options, _arguments = COMMANDS[args.command]
    produced: list[tuple[Path, Path]] = []
    try:
        config = _read_config_file(args.config) if args.config else {}
        func(args, _resolve(args, options, config), produced)
        for tmp, path in produced:
            os.replace(tmp, path)
        return 0
    except (OSError, ValueError, RuntimeError) as exc:
        logger.error("%s", exc)
        return 1
    finally:
        # Whatever was not moved into place is a partial output.
        for tmp, _path in produced:
            tmp.unlink(missing_ok=True)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
