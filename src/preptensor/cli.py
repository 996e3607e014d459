"""Single entry point wiring the pipeline stages together.

Subcommands: build-tensor, decompose, query-sim, paraphrase, spectrum,
train-select, eval-select, train-attach, eval-attach. Flag values
override config-file values, which override defaults; every artifact-
producing run writes a manifest with the resolved configuration and
input digests.
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

DEFAULTS = {
    "window": 3,
    "min_count": 5,
    "dim": 200,
    "iters": 20,
    "ortho_iters": 5,
    "xmax": 10.0,
    "alpha": 0.75,
    "lr": 0.05,
    "seed": 0,
    "top": 50,
    "centered": True,
    "hidden1": None,
    "hidden2": None,
    "epochs": 50,
    "batch": 64,
    "fnn_lr": 0.01,
    "momentum": 0.9,
    "max_depth": 8,
    "min_leaf": 5,
}


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _read_config_file(path) -> dict:
    """Plain-text `key = value` pairs; `#` starts a comment. Every key
    must be a known option; a command reads the ones it uses."""
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}: line {lineno}: expected key = value")
            key, val = (part.strip() for part in line.split("=", 1))
            values[key.replace("-", "_")] = val
    unknown = sorted(set(values) - set(DEFAULTS))
    if unknown:
        raise ValueError(f"{path}: unknown config key(s): {' '.join(unknown)}")
    return values


def _resolve(args: argparse.Namespace, keys: list[str]) -> dict:
    """Merge flag > config file > default for the given option names."""
    resolved = {}
    for key in keys:
        flag_val = getattr(args, key, None)
        if flag_val is not None:
            resolved[key] = flag_val
        elif key in args.config_values:
            default = DEFAULTS.get(key)
            raw = args.config_values[key]
            if isinstance(default, bool):
                resolved[key] = raw.lower() in ("1", "true", "yes")
            elif isinstance(default, int) or default is None:
                # The hidden sizes default per command (None here).
                resolved[key] = int(raw)
            elif isinstance(default, float):
                resolved[key] = float(raw)
            else:
                resolved[key] = raw
        else:
            resolved[key] = DEFAULTS.get(key)
    return resolved


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


def _load_roster(path) -> list[str]:
    if path:
        return corpus_ops.load_roster(path)
    return select_ops.default_roster()


# ---------------------------------------------------------------------------
# Subcommands


def cmd_build_tensor(args, produced: list) -> None:
    cfg = _resolve(args, ["window", "min_count"])
    roster = _load_roster(args.roster)
    with open(args.corpus, "rb") as fh:
        sentences = corpus_ops.tokenize_sentences(fh.read())
    vocab = corpus_ops.build_vocabulary(sentences, cfg["min_count"], roster)
    tensor = corpus_ops.count_tensor(sentences, vocab, cfg["window"])
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    vocab_path = out / "vocab.txt"
    tensor_path = out / "tensor.txt"
    produced.extend([vocab_path, tensor_path, out / "manifest.json"])
    corpus_ops.save_vocabulary(vocab, vocab_path)
    corpus_ops.save_tensor(tensor, tensor_path)
    inputs = [args.corpus] + ([args.roster] if args.roster else [])
    _write_manifest(out / "manifest.json", "build-tensor", cfg, inputs,
                    [vocab_path, tensor_path])
    logger.info("tensor: N=%d K=%d nnz=%d", vocab.n_words,
                vocab.n_prepositions, tensor.nnz)


def cmd_decompose(args, produced: list) -> None:
    cfg = _resolve(args, ["dim", "iters", "ortho_iters", "xmax", "alpha",
                          "lr", "seed"])
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
    produced.extend([out, Path(str(out) + ".manifest.json")])
    emb_ops.save_embeddings(store, out)
    cfg["method"] = args.method
    _write_manifest(str(out) + ".manifest.json", "decompose", cfg,
                    [tensor_dir / "vocab.txt", tensor_dir / "tensor.txt"], [out],
                    extra={"trajectory": emb.trajectory})


def cmd_query_sim(args, produced: list) -> None:
    cfg = _resolve(args, ["centered"])
    roster = _load_roster(args.roster)
    store = emb_ops.load_embeddings(args.embeddings, roster)
    pairs = []
    with open(args.pairs, encoding="utf-8") as fh:
        for line in fh:
            toks = line.split()
            if len(toks) == 2:
                pairs.append((toks[0], toks[1]))
    _require_tokens(store, [tok for pair in pairs for tok in pair])
    for left, right, sim in emb_ops.preposition_similarity_table(
            store, pairs, centered=cfg["centered"]):
        print(f"{left}\t{right}\t{sim:.4f}")


def cmd_paraphrase(args, produced: list) -> None:
    roster = _load_roster(args.roster)
    store = emb_ops.load_embeddings(args.embeddings, roster)
    with open(args.candidates, encoding="utf-8") as fh:
        candidates = [line.strip() for line in fh if line.strip()]
    _require_tokens(store, [args.head, args.prep, *candidates])
    ranked = emb_ops.paraphrase_phrasal_verb(args.head, args.prep, candidates, store)
    for verb, dist in ranked[:args.top or 5]:
        print(f"{verb}\t{dist:.6g}")


def cmd_spectrum(args, produced: list) -> None:
    cfg = _resolve(args, ["top"])
    tensor_dir = Path(args.tensor)
    vocab = corpus_ops.load_vocabulary(tensor_dir / "vocab.txt")
    tensor = corpus_ops.load_tensor(tensor_dir / "tensor.txt")
    try:
        k = int(args.slice)
    except ValueError:
        if args.slice not in vocab.prep_ids:
            raise ValueError(f"unknown slice {args.slice!r}") from None
        k = vocab.prep_ids[args.slice]
    values = emb_ops.slice_spectrum(tensor, k, cfg["top"])
    lines = [f"{idx},{format(val, '.10g')}" for idx, val in enumerate(values, 1)]
    if args.out:
        produced.append(Path(args.out))
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("rank,normalized_singular_value\n")
            fh.write("\n".join(lines) + "\n")
    else:
        print("\n".join(lines))


def _fnn_hyper(cfg) -> FnnHyper:
    return FnnHyper(learning_rate=cfg["fnn_lr"], momentum=cfg["momentum"],
                    batch_size=cfg["batch"], epochs=cfg["epochs"],
                    seed=cfg["seed"])


def cmd_train_select(args, produced: list) -> None:
    cfg = _resolve(args, ["window", "seed", "hidden1", "hidden2", "epochs",
                          "batch", "fnn_lr", "momentum", "max_depth", "min_leaf"])
    roster = _load_roster(args.roster)
    store = emb_ops.load_embeddings(args.embeddings, roster)
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
    produced.extend(outputs + [out / "manifest.json"])
    save_tree(models.tree, out / "tree.txt")
    save_fnn(models.fnn, out / "fnn.txt")
    select_ops.save_confusion_table(models.table, out / "confusion.txt")
    cfg["arch"] = list(arch)
    inputs = [args.train, args.embeddings] + ([args.roster] if args.roster else [])
    _write_manifest(out / "manifest.json", "train-select", cfg, inputs, outputs)


def cmd_eval_select(args, produced: list) -> None:
    cfg = _resolve(args, ["window"])
    models_dir = Path(args.models)
    table = select_ops.load_confusion_table(models_dir / "confusion.txt")
    if args.roster and _load_roster(args.roster) != table.roster:
        raise ValueError(f"roster {args.roster} differs from the trained roster "
                         f"in {models_dir / 'confusion.txt'}")
    store = emb_ops.load_embeddings(args.embeddings, table.roster)
    models = select_ops.SelectionModels(
        tree=load_tree(models_dir / "tree.txt"),
        fnn=load_fnn(models_dir / "fnn.txt"),
        table=table,
    )
    instances = select_ops.load_selection_dataset(args.test, table.roster)
    errors_path = Path(args.out) if args.out else models_dir / "errors.csv"
    metrics_path = errors_path.with_name(errors_path.stem + "_metrics.txt")
    produced.extend([errors_path, metrics_path])
    (p, r, f1), _errors = select_ops.evaluate_selection(
        instances, models, store, window=cfg["window"],
        error_log_path=errors_path)
    line = f"P={p:.4f} R={r:.4f} F1={f1:.4f}"
    print(line)
    metrics_path.write_text(line + "\n", encoding="utf-8")


def cmd_train_attach(args, produced: list) -> None:
    cfg = _resolve(args, ["seed", "hidden1", "hidden2", "epochs", "batch",
                          "fnn_lr", "momentum"])
    roster = _load_roster(args.roster)
    store = emb_ops.load_embeddings(args.embeddings, roster)
    instances = attach_ops.load_attachment_dataset(args.train)
    arch = (cfg["hidden1"] or 1000, cfg["hidden2"] or 20)
    fnn, tagset = attach_ops.train_attachment_model(
        instances, store, hyper=_fnn_hyper(cfg), arch=arch)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    outputs = [out / "fnn.txt", out / "tags.txt"]
    produced.extend(outputs + [out / "manifest.json"])
    save_fnn(fnn, out / "fnn.txt")
    (out / "tags.txt").write_text("\n".join(tagset.tags) + "\n", encoding="utf-8")
    cfg["arch"] = list(arch)
    inputs = [args.train, args.embeddings] + ([args.roster] if args.roster else [])
    _write_manifest(out / "manifest.json", "train-attach", cfg, inputs, outputs)


def cmd_eval_attach(args, produced: list) -> None:
    models_dir = Path(args.models)
    roster = _load_roster(args.roster)
    store = emb_ops.load_embeddings(args.embeddings, roster)
    fnn = load_fnn(models_dir / "fnn.txt")
    tags = [line for line in (models_dir / "tags.txt").read_text(
        encoding="utf-8").splitlines() if line]
    tagset = attach_ops.TagSet(tags)
    instances = attach_ops.load_attachment_dataset(args.test)
    errors_path = Path(args.out) if args.out else models_dir / "errors.csv"
    metrics_path = errors_path.with_name(errors_path.stem + "_metrics.txt")
    produced.extend([errors_path, metrics_path])
    acc, _errors = attach_ops.evaluate_attachment(
        instances, fnn, store, tagset, error_log_path=errors_path)
    line = f"accuracy={acc:.4f}"
    print(line)
    metrics_path.write_text(line + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="preptensor",
        description="Preposition embeddings from word-triple count tensors",
    )
    parser.add_argument("--config", help="plain-text key = value config file")
    parser.add_argument("--seed", type=int, help="random seed")
    parser.add_argument("--log-level", default="warning",
                        choices=["debug", "info", "warning", "error"])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-tensor", help="count the co-occurrence tensor")
    p.add_argument("--corpus", required=True)
    p.add_argument("--roster")
    p.add_argument("--window", type=int)
    p.add_argument("--min-count", dest="min_count", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_tensor)

    p = sub.add_parser("decompose", help="factorize the tensor into embeddings")
    p.add_argument("--tensor", required=True)
    p.add_argument("--method", required=True, choices=["als", "wd"])
    p.add_argument("--dim", type=int)
    p.add_argument("--iters", type=int)
    p.add_argument("--ortho-iters", dest="ortho_iters", type=int)
    p.add_argument("--xmax", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--lr", type=float)
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("query-sim", help="cosine similarity for token pairs")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--pairs", required=True)
    p.add_argument("--roster")
    p.add_argument("--centered", action=argparse.BooleanOptionalAction)
    p.set_defaults(func=cmd_query_sim)

    p = sub.add_parser("paraphrase", help="rank single-verb paraphrases")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--head", required=True)
    p.add_argument("--prep", required=True)
    p.add_argument("--candidates", required=True)
    p.add_argument("--roster")
    p.add_argument("--top", type=int)
    p.set_defaults(func=cmd_paraphrase)

    p = sub.add_parser("spectrum", help="normalized singular values of a slice")
    p.add_argument("--tensor", required=True)
    p.add_argument("--slice", required=True)
    p.add_argument("--top", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_spectrum)

    for name, func in (("train-select", cmd_train_select),
                       ("train-attach", cmd_train_attach)):
        p = sub.add_parser(name, help=f"{name.replace('-', ' ')} models")
        p.add_argument("--train", required=True)
        p.add_argument("--embeddings", required=True)
        p.add_argument("--roster")
        p.add_argument("--out", required=True)
        p.add_argument("--hidden1", type=int)
        p.add_argument("--hidden2", type=int)
        p.add_argument("--epochs", type=int)
        p.add_argument("--batch", type=int)
        p.add_argument("--fnn-lr", dest="fnn_lr", type=float)
        p.add_argument("--momentum", type=float)
        p.add_argument("--seed", type=int, default=argparse.SUPPRESS)
        if name == "train-select":
            p.add_argument("--window", type=int)
            p.add_argument("--max-depth", dest="max_depth", type=int)
            p.add_argument("--min-leaf", dest="min_leaf", type=int)
        p.set_defaults(func=func)

    for name, func in (("eval-select", cmd_eval_select),
                       ("eval-attach", cmd_eval_attach)):
        p = sub.add_parser(name, help=f"{name.replace('-', ' ')} on a test set")
        p.add_argument("--test", required=True)
        p.add_argument("--models", required=True)
        p.add_argument("--embeddings", required=True)
        p.add_argument("--roster")
        p.add_argument("--out")
        if name == "eval-select":
            p.add_argument("--window", type=int)
        p.set_defaults(func=func)

    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    logging.basicConfig(level=getattr(logging, args.log_level.upper()),
                        format="%(levelname)s %(name)s %(message)s")
    produced: list[Path] = []
    try:
        args.config_values = _read_config_file(args.config) if args.config else {}
        args.func(args, produced)
        return 0
    except (OSError, ValueError, RuntimeError) as exc:
        logger.error("%s", exc)
        # Remove partial outputs so failed runs leave no artifacts behind.
        for path in produced:
            try:
                os.unlink(path)
            except OSError:
                pass
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
