"""Two-stage preposition selection: error detection then correction.

A decision tree flags incorrect prepositions from three features
(context cosine, cosine rank, keep probability); a feed-forward network
then scores every roster candidate for the flagged instances.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from . import embeddings as emb_ops
from .corpus import (ASCII_INTEGER, expect_end, load_roster, open_input, parse_integers,
                     parse_rows, read_records)
from .embeddings import EmbeddingStore
from .learn import (
    CandidateRows,
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
    "evaluate_selection",
]


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


def load_selection_dataset(path, roster) -> tuple[list[SelectionInstance], int]:
    """Parse the TSV format `tokens<TAB>prep_index<TAB>observed<TAB>gold`;
    ``read_records`` skips, reports and counts a malformed line."""
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


def detection_features(instances, store: EmbeddingStore, table: ConfusionTable,
                       window: int, stoplist: frozenset[str]):
    """The positions of the decidable instances and their three detection
    features, (decidable, 3): context cosine, cosine rank and keep
    probability. An instance is undecidable (treated as correct
    downstream) without an embedding for its observed preposition or
    without a usable context: no nonzero context vector, or context
    vectors that cancel out."""
    means = np.zeros((len(instances), store.dim))
    for inst, mean in zip(instances, means):
        if inst.observed in store:
            left, right = preprocess_context(inst, window, stoplist)
            context = store.rows([tok for tok in left + right if tok in store])
            context = context[emb_ops.row_norms(context) > 0.0]
            if len(context):
                mean[:] = np.mean(context, axis=0)
    observed = [inst.observed for inst in instances]
    ranks, cosines, defined = emb_ops.rank_preposition(means, observed, store,
                                                       table.roster)
    obs = [table.index[p] for p in observed]
    keep = table.probs[obs, obs]
    decidable = np.flatnonzero(defined)
    return decidable.tolist(), np.column_stack(
        [cosines[decidable], ranks[decidable].astype(np.float64), keep[decidable]])


def correction_features(instances, store: EmbeddingStore, table: ConfusionTable,
                        window: int, stoplist: frozenset[str]) -> CandidateRows:
    """One row per candidate of ``table.roster`` for each instance, in
    order: [v_left; v_cand; v_right; pair sim; triple sim; replacement
    probability], 3d + 3 wide, held as its factors: the context sides
    (len(instances), 2, d), the candidate rows (len(roster), d) and the
    three scalars of each row. A candidate without a vector scores 0.0."""
    d, k = store.dim, len(table.roster)
    cands = store.rows_or_zero(table.roster)
    sides = np.zeros((len(instances), 2, d))
    scalars = np.empty((len(instances), k, 3))
    for inst, pair, block in zip(instances, sides, scalars):
        for side, tokens in zip(pair, preprocess_context(inst, window, stoplist)):
            known = store.rows([tok for tok in tokens if tok in store])
            if len(known):
                side[:] = np.mean(known, axis=0)
        if not emb_ops.row_norms(pair).any():
            raise ValueError("both context sides are empty; nothing to correct against")
        v_l, v_r = pair
        block[:, 0] = emb_ops.row_pairs(cands, v_l, v_r)
        block[:, 1] = emb_ops.row_triples(v_l, cands, v_r)
        block[:, 2] = table.probs[table.index[inst.observed]]
    return CandidateRows(sides, cands, scalars.reshape(len(instances) * k, 3))


@dataclass
class SelectionModels:
    """``counters`` describe the training pass that made the models."""

    tree: DecisionTree
    fnn: FeedForwardNet
    table: ConfusionTable
    counters: dict = field(default_factory=dict)


def _flag(tree: DecisionTree, instances, decidable, rows):
    """The positions of ``decidable`` whose rows ``tree`` flags as errors,
    and the counters of the detection pass over ``instances``."""
    flagged = (np.asarray(decidable)[tree_predict(tree, rows)].tolist()
               if decidable else [])
    return flagged, {"instances": len(instances), "decidable": len(decidable),
                     "flagged": len(flagged)}


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
    decidable, det_rows = detection_features(instances, store, table, window, stoplist)
    if not decidable:
        raise ValueError("no trainable instances: all contexts were empty")
    det_labels = [int(instances[pos].observed != instances[pos].gold)
                  for pos in decidable]
    tree = train_decision_tree(det_rows, det_labels, tree_params)
    flagged, counters = _flag(tree, instances, decidable, det_rows)
    # Degenerate detector: fall back to training on the true errors so
    # the corrector still exists.
    errors = flagged or [pos for pos, label in zip(decidable, det_labels) if label]
    if not errors:
        raise ValueError("no error instances to train the corrector on")
    corrected = [instances[pos] for pos in errors]
    corr_rows = correction_features(corrected, store, table, window, stoplist)
    corr_labels = [int(cand == inst.gold) for inst in corrected for cand in table.roster]
    fnn = train_fnn(corr_rows, corr_labels, arch, hyper)
    return SelectionModels(tree=tree, fnn=fnn, table=table, counters=counters)


def evaluate_selection(instances, models: SelectionModels,
                       store: EmbeddingStore, window: int):
    """Edit-based (P, R, F1) of the predictions, a (sentence, observed,
    gold, predicted) row per mispredicted instance, and the counts of
    instances, decidable instances and flagged instances.

    The observed preposition is kept unless the detector flags it; a
    flagged instance takes the candidate the corrector scores highest
    (ties go to roster order).
    """
    if not instances:
        raise ValueError("cannot evaluate on an empty test set")
    stoplist, table = context_stoplist(), models.table
    decidable, det_rows = detection_features(instances, store, table, window, stoplist)
    flagged, counters = _flag(models.tree, instances, decidable, det_rows)
    rows = correction_features([instances[pos] for pos in flagged], store, table,
                               window, stoplist)
    predicted = [inst.observed for inst in instances]
    # One pass per instance, on its rows assembled just before it: one
    # pass over every flagged instance's rows rounds differently.
    for at, pos in enumerate(flagged):
        scores = fnn_forward_batch(models.fnn, rows.instance(at))[:, 1]
        predicted[pos] = table.roster[int(np.argmax(scores))]
    errors = [(" ".join(inst.tokens), inst.observed, inst.gold, pred)
              for inst, pred in zip(instances, predicted) if pred != inst.gold]
    return (precision_recall_f1(predicted, [inst.gold for inst in instances],
                                [inst.observed for inst in instances]),
            errors, counters)
