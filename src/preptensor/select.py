"""Two-stage preposition selection: error detection then correction.

A decision tree flags incorrect prepositions from three features
(context cosine, cosine rank, keep probability); a feed-forward network
then scores every roster candidate for the flagged instances.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass
from importlib import resources

import numpy as np

from . import embeddings as emb_ops
from .corpus import load_roster
from .embeddings import EmbeddingStore
from .learn import (
    DecisionTree,
    FeedForwardNet,
    FnnHyper,
    TreeParams,
    fnn_forward_batch,
    precision_recall_f1,
    train_decision_tree,
    train_fnn,
    tree_predict,
)

logger = logging.getLogger(__name__)

__all__ = [
    "SelectionInstance",
    "ConfusionTable",
    "default_roster",
    "context_stoplist",
    "load_selection_dataset",
    "save_selection_dataset",
    "preprocess_context",
    "build_confusion_table",
    "save_confusion_table",
    "load_confusion_table",
    "detection_features",
    "correction_features",
    "SelectionModels",
    "train_selection_models",
    "select_preposition",
    "evaluate_selection",
]

CORRECT, ERROR = "correct", "error"


def _bundled_list(name: str) -> list[str]:
    with resources.as_file(resources.files("preptensor.data") / name) as path:
        return load_roster(path)


def default_roster() -> list[str]:
    """The bundled 49-preposition roster."""
    return _bundled_list("prepositions_49.txt")


def context_stoplist() -> frozenset[str]:
    """Articles, determiners and pronouns removed before context windows."""
    return frozenset(_bundled_list("context_stoplist.txt"))


@dataclass
class SelectionInstance:
    tokens: list[str]
    prep_index: int
    observed: str
    gold: str


def load_selection_dataset(path, roster) -> list[SelectionInstance]:
    """Parse the TSV format `tokens<TAB>prep_index<TAB>observed<TAB>gold`.

    Malformed lines are rejected and reported with their numbers.
    """
    roster = set(roster)
    instances = []
    rejected = 0
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            reason = None
            if len(parts) != 4:
                reason = "expected 4 tab-separated fields"
            else:
                tokens = parts[0].split()
                try:
                    prep_index = int(parts[1])
                except ValueError:
                    prep_index = -1
                observed, gold = parts[2], parts[3]
                if not (0 <= prep_index < len(tokens)):
                    reason = "prep_index out of range"
                elif tokens[prep_index] != observed:
                    reason = "token at prep_index differs from observed"
                elif observed not in roster:
                    reason = f"observed {observed!r} not in roster"
                elif gold not in roster:
                    reason = f"gold {gold!r} not in roster"
            if reason:
                logger.warning("selection dataset %s: line %d rejected: %s",
                               path, lineno, reason)
                rejected += 1
                continue
            instances.append(SelectionInstance(tokens, prep_index, observed, gold))
    if rejected:
        logger.warning("selection dataset %s: %d line(s) rejected", path, rejected)
    return instances


def save_selection_dataset(instances, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for inst in instances:
            fh.write(f"{' '.join(inst.tokens)}\t{inst.prep_index}"
                     f"\t{inst.observed}\t{inst.gold}\n")


def preprocess_context(instance: SelectionInstance, window: int = 3,
                       stoplist: frozenset[str] | None = None):
    """Drop stop-list tokens, then take up to ``window`` surviving tokens
    adjacent to the preposition on each side."""
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    stoplist = context_stoplist() if stoplist is None else stoplist
    left = [tok for tok in instance.tokens[:instance.prep_index]
            if tok not in stoplist]
    right = [tok for tok in instance.tokens[instance.prep_index + 1:]
             if tok not in stoplist]
    return left[-window:], right[:window]


@dataclass
class ConfusionTable:
    """Smoothed replacement probabilities between roster prepositions."""

    roster: list[str]
    probs: dict[str, dict[str, float]]
    smoothing: float

    def replace_prob(self, q: str, p: str) -> float:
        return self.probs[q][p]

    def keep_prob(self, q: str) -> float:
        return self.probs[q][q]


def build_confusion_table(instances, roster, smoothing: float = 1.0) -> ConfusionTable:
    """Maximum-likelihood observed->gold edit ratios with additive
    smoothing over the roster."""
    if not instances:
        raise ValueError("cannot build a confusion table from no instances")
    roster = list(roster)
    counts = {q: {p: 0 for p in roster} for q in roster}
    for inst in instances:
        counts[inst.observed][inst.gold] += 1
    probs = {}
    for q in roster:
        total = sum(counts[q].values()) + smoothing * len(roster)
        probs[q] = {p: (counts[q][p] + smoothing) / total for p in roster}
    return ConfusionTable(roster=roster, probs=probs, smoothing=smoothing)


def save_confusion_table(table: ConfusionTable, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"CONFUSION v1 {len(table.roster)} "
                 f"{format(table.smoothing, '.17g')}\n")
        fh.write(" ".join(table.roster) + "\n")
        for q in table.roster:
            fh.write(" ".join(format(table.probs[q][p], ".17g")
                              for p in table.roster) + "\n")


def load_confusion_table(path) -> ConfusionTable:
    """Read a ``save_confusion_table`` file; a field that does not parse,
    like a length check that fails, is a ValueError naming the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            return _read_confusion_table(fh)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def _read_confusion_table(fh) -> ConfusionTable:
    header = fh.readline().split()
    if len(header) != 4 or header[0] != "CONFUSION" or header[1] != "v1":
        raise ValueError("bad confusion-table header")
    k, smoothing = int(header[2]), float(header[3])
    roster = fh.readline().split()
    if len(roster) != k:
        raise ValueError("roster length mismatch")
    probs = {}
    for q in roster:
        row = [float(x) for x in fh.readline().split()]
        if len(row) != k:
            raise ValueError(f"row length mismatch for {q!r}")
        probs[q] = dict(zip(roster, row))
    return ConfusionTable(roster=roster, probs=probs, smoothing=smoothing)


def _context_vector(tokens, store: EmbeddingStore) -> np.ndarray:
    vecs = [store.vectors[t] for t in tokens if t in store.vectors]
    if not vecs:
        return np.zeros(store.dim)
    return np.mean(vecs, axis=0)


def detection_features(instance: SelectionInstance, store: EmbeddingStore,
                       table: ConfusionTable, window: int = 3,
                       stoplist: frozenset[str] | None = None) -> np.ndarray | None:
    """Three detection features, or None when the instance is undecidable
    (no embedding for the observed preposition, or no usable context: no
    nonzero context vector, or context vectors that cancel out; treated
    as correct downstream)."""
    if instance.observed not in store.vectors:
        return None
    left, right = preprocess_context(instance, window, stoplist)
    context_vecs = [store.vectors[t] for t in left + right if t in store.vectors]
    try:
        rank, cos = emb_ops.rank_preposition(context_vecs, instance.observed, store,
                                             table.roster)
    except emb_ops.UndefinedSimilarityError:
        return None
    return np.array([cos, float(rank), table.keep_prob(instance.observed)])


def correction_features(instance: SelectionInstance, candidates: list[str],
                        store: EmbeddingStore, table: ConfusionTable,
                        window: int = 3,
                        stoplist: frozenset[str] | None = None) -> np.ndarray:
    """One row per candidate: [v_left; v_cand; v_right; pair sim; triple
    sim; replacement probability], shape (len(candidates), 3d + 3).

    The context vectors and their norms are built once per instance and
    each candidate's norms once per call.
    """
    if isinstance(candidates, str):
        raise TypeError("candidates must be a list of prepositions, not a string")
    roster = set(table.roster)
    for cand in candidates:
        if cand not in roster:
            raise ValueError(f"candidate {cand!r} not in roster")
    left, right = preprocess_context(instance, window, stoplist)
    v_l = _context_vector(left, store)
    v_r = _context_vector(right, store)
    n_l, n_r = np.linalg.norm(v_l), np.linalg.norm(v_r)
    if n_l == 0.0 and n_r == 0.0:
        raise ValueError("both context sides are empty; nothing to correct against")
    t_l, t_r = emb_ops.three_norm(v_l), emb_ops.three_norm(v_r)
    d = store.dim
    rows = np.empty((len(candidates), 3 * d + 3))
    rows[:, :d] = v_l
    rows[:, 2 * d:3 * d] = v_r
    for row, cand in zip(rows, candidates):
        v_p = store.get_or_zero(cand)
        row[d:2 * d] = v_p
        row[3 * d] = emb_ops.similarity_or_zero(
            emb_ops.pair_with_norms, v_l, v_r, v_p, n_l, n_r, np.linalg.norm(v_p))
        row[3 * d + 1] = emb_ops.similarity_or_zero(
            emb_ops.triple_with_norms, v_l, v_p, v_r,
            t_l, emb_ops.three_norm(v_p), t_r)
        row[3 * d + 2] = table.replace_prob(instance.observed, cand)
    return rows


@dataclass
class SelectionModels:
    tree: DecisionTree
    fnn: FeedForwardNet
    table: ConfusionTable


def train_selection_models(
    instances,
    store: EmbeddingStore,
    roster,
    tree_params: TreeParams | None = None,
    hyper: FnnHyper | None = None,
    arch: tuple[int, int] = (500, 10),
    window: int = 3,
) -> SelectionModels:
    """Train the detector tree and the corrector network.

    The corrector is trained per-candidate (binary correct/incorrect
    labels) on the instances the detector flags as errors, mirroring the
    two-stage pipeline used at prediction time.
    """
    table = build_confusion_table(instances, roster)
    stoplist = context_stoplist()
    det_rows, det_labels, usable = [], [], []
    for inst in instances:
        feats = detection_features(inst, store, table, window, stoplist)
        if feats is None:
            continue
        det_rows.append(feats)
        det_labels.append(ERROR if inst.observed != inst.gold else CORRECT)
        usable.append((inst, feats))
    if not det_rows:
        raise ValueError("no trainable instances: all contexts were empty")
    tree = train_decision_tree(det_rows, det_labels, tree_params)
    flagged = [inst for inst, feats in usable
               if tree_predict(tree, feats)[0] == ERROR]
    if not flagged:
        # Degenerate detector: fall back to training on the true errors so
        # the corrector still exists.
        flagged = [inst for inst, _ in usable if inst.observed != inst.gold]
    if not flagged:
        raise ValueError("no error instances to train the corrector on")
    corr_rows = np.vstack([
        correction_features(inst, table.roster, store, table, window, stoplist)
        for inst in flagged
    ])
    corr_labels = [int(cand == inst.gold) for inst in flagged
                   for cand in table.roster]
    fnn = train_fnn(corr_rows, corr_labels, arch, hyper)
    return SelectionModels(tree=tree, fnn=fnn, table=table)


def select_preposition(instance: SelectionInstance, tree: DecisionTree,
                       fnn: FeedForwardNet, store: EmbeddingStore,
                       table: ConfusionTable, window: int = 3,
                       stoplist: frozenset[str] | None = None) -> str:
    """Keep the observed preposition when the detector accepts it,
    otherwise return the candidate the corrector scores highest (ties go
    to roster order)."""
    stoplist = context_stoplist() if stoplist is None else stoplist
    feats = detection_features(instance, store, table, window, stoplist)
    if feats is None:
        return instance.observed
    verdict, _ = tree_predict(tree, feats)
    if verdict != ERROR:
        return instance.observed
    rows = correction_features(instance, table.roster, store, table, window,
                               stoplist)
    scores = fnn_forward_batch(fnn, rows)[:, 1]
    return table.roster[int(np.argmax(scores))]


def evaluate_selection(instances, models: SelectionModels,
                       store: EmbeddingStore, window: int = 3,
                       error_log_path=None):
    """Score predictions with edit-based P/R/F1; optionally write a CSV
    of mispredicted instances."""
    if not instances:
        raise ValueError("cannot evaluate on an empty test set")
    stoplist = context_stoplist()
    predicted, gold, observed = [], [], []
    errors = []
    for inst in instances:
        pred = select_preposition(inst, models.tree, models.fnn, store,
                                  models.table, window, stoplist)
        predicted.append(pred)
        gold.append(inst.gold)
        observed.append(inst.observed)
        if pred != inst.gold:
            errors.append((" ".join(inst.tokens), inst.observed, inst.gold, pred))
    if error_log_path is not None:
        with open(error_log_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["sentence", "observed", "gold", "predicted"])
            writer.writerows(errors)
    metrics = precision_recall_f1(predicted, gold, observed)
    return metrics, errors
