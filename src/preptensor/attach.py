"""Prepositional attachment disambiguation.

Scores each candidate head with a feed-forward network over embedding,
similarity, part-of-speech and distance features.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import int64_field, read_records
from .embeddings import EmbeddingStore, row_cosines, row_triples
from .learn import FeedForwardNet, FnnHyper, accuracy, fnn_forward_batch, train_fnn

__all__ = [
    "Candidate",
    "AttachmentInstance",
    "TagSet",
    "load_attachment_dataset",
    "attachment_features",
    "build_tagset",
    "train_attachment_model",
    "evaluate_attachment",
]

UNK_TAG = "<UNK>"
MAX_DISTANCE = 10.0


@dataclass
class Candidate:
    token: str
    pos_tag: str
    next_pos_tag: str
    distance: int


@dataclass
class AttachmentInstance:
    candidates: list[Candidate]
    preposition: str
    child: str
    gold_index: int


def load_attachment_dataset(path) -> tuple[list[AttachmentInstance], int]:
    """Parse `prep<TAB>child<TAB>gold_index<TAB>cand:pos:nextpos:dist;...`
    lines; ``read_records`` skips, reports and counts a malformed line."""

    def parse(fields):
        if len(fields) != 4:
            raise ValueError("expected 4 tab-separated fields")
        prep, child, gold, specs = fields
        candidates = []
        for spec in specs.split(";"):
            bits = spec.split(":")
            if len(bits) != 4:
                raise ValueError(f"bad candidate spec {spec!r}")
            if (distance := int64_field(bits[3], "distance")) < 1:
                raise ValueError(f"distance must be >= 1 in {spec!r}")
            candidates.append(Candidate(*bits[:3], distance))
        if not 0 <= (gold_index := int64_field(gold, "gold_index")) < len(candidates):
            raise ValueError(f"gold_index {gold} out of range")
        return AttachmentInstance(candidates, prep, child, gold_index)

    return read_records(path, parse, "attachment dataset")


@dataclass
class TagSet:
    """Ordered part-of-speech inventory with an unknown-tag slot."""

    tags: list[str]

    def __post_init__(self):
        if UNK_TAG not in self.tags:
            self.tags = [*self.tags, UNK_TAG]
        self._ids = {tag: i for i, tag in enumerate(self.tags)}
        if len(self._ids) != len(self.tags):
            # The first tag whose id is not its own position is repeated.
            tag = next(tag for pos, tag in enumerate(self.tags) if self._ids[tag] != pos)
            raise ValueError(f"tag {tag!r} listed twice")

    def slots(self, tags) -> np.ndarray:
        """The one-hot slot of each tag; an unknown tag takes ``UNK_TAG``'s."""
        return np.array([self._ids.get(t, self._ids[UNK_TAG]) for t in tags], dtype=np.intp)

    def feature_width(self, dim: int) -> int:
        """The width of a feature row over ``dim``-dimensional embeddings."""
        return 3 * dim + 3 + 2 * len(self.tags) + 1


def build_tagset(instances) -> TagSet:
    tags = sorted({tag for inst in instances for c in inst.candidates
                   for tag in (c.pos_tag, c.next_pos_tag)})
    return TagSet(tags)


def attachment_features(instances, store: EmbeddingStore, tagset: TagSet) -> np.ndarray:
    """A feature row for each candidate head of each instance, in order.

    Out-of-vocabulary tokens contribute zero vectors and zero similarity
    components; the head-preposition distance is scaled by 1/10 and
    capped at 1.
    """
    cands = [c for inst in instances for c in inst.candidates]
    counts = [len(inst.candidates) for inst in instances]
    heads = store.rows_or_zero([c.token for c in cands])
    pairs = store.rows_or_zero([tok for inst in instances
                                for tok in (inst.preposition, inst.child)])
    v_p, v_c = (np.repeat(pairs[side::2], counts, axis=0) for side in (0, 1))
    d, n_tags = store.dim, len(tagset.tags)
    feats = np.zeros((len(cands), tagset.feature_width(d)))
    feats[:, :d] = heads
    feats[:, d:2 * d] = v_p
    feats[:, 2 * d:3 * d] = v_c
    feats[:, 3 * d] = row_triples(heads, v_p, v_c)
    feats[:, 3 * d + 1] = row_cosines(heads, v_p)
    feats[:, 3 * d + 2] = row_cosines(heads, v_c)
    rows = np.arange(len(cands))
    feats[rows, 3 * d + 3 + tagset.slots([c.pos_tag for c in cands])] = 1.0
    feats[rows, 3 * d + 3 + n_tags + tagset.slots([c.next_pos_tag for c in cands])] = 1.0
    feats[:, -1] = np.minimum(np.array([c.distance for c in cands]) / MAX_DISTANCE, 1.0)
    return feats


def train_attachment_model(
    instances,
    store: EmbeddingStore,
    hyper: FnnHyper,
    arch: tuple[int, int],
) -> tuple[FeedForwardNet, TagSet]:
    """Train the per-candidate binary scorer (gold head vs other) over
    the tag set of ``instances``."""
    if not instances:
        raise ValueError("no training instances")
    tagset = build_tagset(instances)
    rows = attachment_features(instances, store, tagset)
    labels = [int(ci == inst.gold_index) for inst in instances
              for ci in range(len(inst.candidates))]
    fnn = train_fnn(rows, labels, arch, hyper)
    return fnn, tagset


def evaluate_attachment(instances, fnn: FeedForwardNet, store: EmbeddingStore,
                        tagset: TagSet):
    """Mean head-prediction accuracy, a (preposition, child, predicted
    head, gold head) row per mispredicted instance, and the counts of
    instances and candidates scored.

    The predicted head is the candidate with the highest positive-class
    score; ties go to the nearest candidate, then the lowest index.
    """
    if not instances:
        raise ValueError("cannot evaluate on an empty test set")
    rows = attachment_features(instances, store, tagset)
    ends = np.cumsum([len(inst.candidates) for inst in instances])
    predicted, errors = [], []
    # One pass per instance: one over the whole block rounds differently.
    for inst, block in zip(instances, np.split(rows, ends[:-1])):
        scores = fnn_forward_batch(fnn, block)[:, 1]
        cands = inst.candidates
        pred = min(range(len(cands)), key=lambda ci: (-scores[ci], cands[ci].distance, ci))
        predicted.append(pred)
        if pred != inst.gold_index:
            errors.append((inst.preposition, inst.child, cands[pred].token,
                           cands[inst.gold_index].token))
    counters = {"instances": len(instances), "candidates": len(rows)}
    return accuracy(predicted, [inst.gold_index for inst in instances]), errors, counters
