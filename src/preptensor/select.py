"""Two-stage preposition selection: error detection then correction.

A decision tree flags incorrect prepositions from three features
(context cosine, cosine rank, keep probability); a feed-forward network
then scores every roster candidate for the flagged instances.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from importlib import resources

import numpy as np

from . import embeddings as emb_ops
from .corpus import (ASCII_INTEGER, expect_end, load_roster, open_input, parse_integers,
                     parse_rows, read_records)
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

__all__ = [
    "SelectionInstance",
    "ConfusionTable",
    "default_roster",
    "context_stoplist",
    "load_selection_dataset",
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
    """Parse the TSV format `tokens<TAB>prep_index<TAB>observed<TAB>gold`;
    ``read_records`` skips and reports a malformed line."""
    roster = set(roster)

    def parse(fields):
        if len(fields) != 4:
            raise ValueError("expected 4 tab-separated fields")
        tokens, index, observed, gold = fields[0].split(), *fields[1:]
        if not ASCII_INTEGER.fullmatch(index):
            raise ValueError(f"non-integer prep_index {index!r}")
        prep_index = int(index)
        if not 0 <= prep_index < len(tokens):
            raise ValueError("prep_index out of range")
        if tokens[prep_index] != observed:
            raise ValueError("token at prep_index differs from observed")
        if observed not in roster:
            raise ValueError(f"observed {observed!r} not in roster")
        if gold not in roster:
            raise ValueError(f"gold {gold!r} not in roster")
        return SelectionInstance(tokens, prep_index, observed, gold)

    return read_records(path, parse, "selection dataset")


def preprocess_context(instance: SelectionInstance, window: int,
                       stoplist: frozenset[str]):
    """Drop stop-list tokens, then take up to ``window`` surviving tokens
    adjacent to the preposition on each side."""
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    left = [tok for tok in instance.tokens[:instance.prep_index]
            if tok not in stoplist]
    right = [tok for tok in instance.tokens[instance.prep_index + 1:]
             if tok not in stoplist]
    return left[-window:], right[:window]


@dataclass
class ConfusionTable:
    """Smoothed replacement probabilities between roster prepositions:
    ``probs[a, b]`` is the probability that observed roster[a] should be
    roster[b]."""

    roster: list[str]
    probs: np.ndarray
    smoothing: float

    def __post_init__(self):
        self.index = {p: k for k, p in enumerate(self.roster)}

    def replace_prob(self, q: str, p: str) -> float:
        return float(self.probs[self.index[q], self.index[p]])

    def keep_prob(self, q: str) -> float:
        return self.replace_prob(q, q)


def build_confusion_table(instances, roster, smoothing: float = 1.0) -> ConfusionTable:
    """Maximum-likelihood observed->gold edit ratios with additive
    smoothing over the roster."""
    if not instances:
        raise ValueError("cannot build a confusion table from no instances")
    k = len(roster)
    table = ConfusionTable(roster=list(roster), probs=np.zeros((k, k)), smoothing=smoothing)
    for inst in instances:
        table.probs[table.index[inst.observed], table.index[inst.gold]] += 1
    table.probs = (table.probs + smoothing) / (table.probs.sum(axis=1, keepdims=True)
                                               + smoothing * k)
    return table


def save_confusion_table(table: ConfusionTable, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"CONFUSION v1 {len(table.roster)} "
                 f"{format(table.smoothing, '.17g')}\n")
        fh.write(" ".join(table.roster) + "\n")
        for row in table.probs.tolist():
            fh.write(" ".join(format(x, ".17g") for x in row) + "\n")


def load_confusion_table(path) -> ConfusionTable:
    """Read a ``save_confusion_table`` file; a field that does not parse,
    like a length check that fails, is a ValueError naming the file."""
    with open_input(path) as fh:
        header = fh.readline().split()
        if len(header) != 4 or header[0] != "CONFUSION" or header[1] != "v1":
            raise ValueError("bad confusion-table header")
        k = parse_integers([header[2]], 1)[0]
        smoothing = parse_rows(header[3:], 1, 1)[0, 0]
        roster = fh.readline().split()
        if len(roster) != k:
            raise ValueError("roster length mismatch")
        repeated = [tok for pos, tok in enumerate(roster) if tok in roster[:pos]]
        if repeated:
            raise ValueError(f"line 2: token {repeated[0]!r} listed twice")
        probs = parse_rows(itertools.islice(fh, k), k, 3)
        if len(probs) != k:
            raise ValueError(f"line {3 + len(probs)}: expected {k} rows, "
                             f"got {len(probs)}")
        expect_end(fh, 3 + k)
    return ConfusionTable(roster=roster, probs=probs, smoothing=smoothing)


def detection_features(instance: SelectionInstance, store: EmbeddingStore,
                       table: ConfusionTable, window: int,
                       stoplist: frozenset[str]) -> np.ndarray | None:
    """Three detection features, or None when the instance is undecidable
    (no embedding for the observed preposition, or no usable context: no
    nonzero context vector, or context vectors that cancel out; treated
    as correct downstream)."""
    if instance.observed not in store:
        return None
    left, right = preprocess_context(instance, window, stoplist)
    context = store.rows([tok for tok in left + right if tok in store])
    try:
        rank, cos = emb_ops.rank_preposition(context, instance.observed, store,
                                             table.roster)
    except emb_ops.UndefinedSimilarityError:
        return None
    return np.array([cos, float(rank), table.keep_prob(instance.observed)])


def correction_features(instance: SelectionInstance, store: EmbeddingStore,
                        table: ConfusionTable, window: int,
                        stoplist: frozenset[str]) -> np.ndarray:
    """One row per candidate of ``table.roster``: [v_left; v_cand;
    v_right; pair sim; triple sim; replacement probability], shape
    (len(roster), 3d + 3); a candidate without a vector scores 0.0."""
    d = store.dim
    sides = np.zeros((2, d))
    for side, tokens in zip(sides, preprocess_context(instance, window, stoplist)):
        known = store.rows([tok for tok in tokens if tok in store])
        if len(known):
            side[:] = np.mean(known, axis=0)
    if not emb_ops.row_norms(sides).any():
        raise ValueError("both context sides are empty; nothing to correct against")
    v_l, v_r = sides
    cands = store.rows_or_zero(table.roster)
    rows = np.empty((len(table.roster), 3 * d + 3))
    rows[:, :d] = v_l
    rows[:, d:2 * d] = cands
    rows[:, 2 * d:3 * d] = v_r
    rows[:, 3 * d] = emb_ops.row_pairs(cands, v_l, v_r)
    rows[:, 3 * d + 1] = emb_ops.row_triples(v_l, cands, v_r)
    rows[:, 3 * d + 2] = table.probs[table.index[instance.observed]]
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
    tree_params: TreeParams,
    hyper: FnnHyper,
    arch: tuple[int, int],
    window: int,
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
        correction_features(inst, store, table, window, stoplist)
        for inst in flagged
    ])
    corr_labels = [int(cand == inst.gold) for inst in flagged
                   for cand in table.roster]
    fnn = train_fnn(corr_rows, corr_labels, arch, hyper)
    return SelectionModels(tree=tree, fnn=fnn, table=table)


def select_preposition(instance: SelectionInstance, tree: DecisionTree,
                       fnn: FeedForwardNet, store: EmbeddingStore,
                       table: ConfusionTable, window: int,
                       stoplist: frozenset[str]) -> str:
    """Keep the observed preposition when the detector accepts it,
    otherwise return the candidate the corrector scores highest (ties go
    to roster order)."""
    feats = detection_features(instance, store, table, window, stoplist)
    if feats is None:
        return instance.observed
    verdict, _ = tree_predict(tree, feats)
    if verdict != ERROR:
        return instance.observed
    rows = correction_features(instance, store, table, window, stoplist)
    scores = fnn_forward_batch(fnn, rows)[:, 1]
    return table.roster[int(np.argmax(scores))]


def evaluate_selection(instances, models: SelectionModels,
                       store: EmbeddingStore, window: int):
    """Edit-based (P, R, F1) of the predictions, and a (sentence,
    observed, gold, predicted) row per mispredicted instance."""
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
    return precision_recall_f1(predicted, gold, observed), errors
