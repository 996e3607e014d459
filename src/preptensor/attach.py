"""Prepositional attachment disambiguation.

Scores each candidate head with a feed-forward network over embedding,
similarity, part-of-speech and distance features, plus the nearest-head
baseline.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass

import numpy as np

from .corpus import open_input
from .embeddings import (
    EmbeddingStore,
    cosine_similarity,
    similarity_or_zero,
    triple_similarity,
)
from .learn import FeedForwardNet, FnnHyper, accuracy, fnn_forward_batch, train_fnn

logger = logging.getLogger(__name__)

__all__ = [
    "Candidate",
    "AttachmentInstance",
    "TagSet",
    "load_attachment_dataset",
    "save_attachment_dataset",
    "attachment_features",
    "build_tagset",
    "train_attachment_model",
    "predict_head",
    "baseline_nearest_head",
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


def load_attachment_dataset(path) -> list[AttachmentInstance]:
    """Parse `prep<TAB>child<TAB>gold_index<TAB>cand:pos:nextpos:dist;...`
    records, rejecting malformed ones with a report."""
    instances = []
    rejected = 0
    with open_input(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            reason = None
            parts = line.split("\t")
            if len(parts) != 4:
                reason = "expected 4 tab-separated fields"
            else:
                prep, child, gold_str, cand_str = parts
                candidates = []
                try:
                    gold_index = int(gold_str)
                except ValueError:
                    gold_index = -1
                for spec in cand_str.split(";"):
                    bits = spec.split(":")
                    if len(bits) != 4:
                        reason = f"bad candidate spec {spec!r}"
                        break
                    try:
                        dist = int(bits[3])
                    except ValueError:
                        reason = f"non-integer distance in {spec!r}"
                        break
                    if dist < 1:
                        reason = f"distance must be >= 1 in {spec!r}"
                        break
                    candidates.append(Candidate(bits[0], bits[1], bits[2], dist))
                if reason is None and not candidates:
                    reason = "no candidates"
                if reason is None and not (0 <= gold_index < len(candidates)):
                    reason = f"gold_index {gold_index} out of range"
            if reason:
                logger.warning("attachment dataset %s: line %d rejected: %s",
                               path, lineno, reason)
                rejected += 1
                continue
            instances.append(AttachmentInstance(candidates, prep, child, gold_index))
    if rejected:
        logger.warning("attachment dataset %s: %d record(s) rejected", path, rejected)
    return instances


def save_attachment_dataset(instances, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for inst in instances:
            cands = ";".join(f"{c.token}:{c.pos_tag}:{c.next_pos_tag}:{c.distance}"
                             for c in inst.candidates)
            fh.write(f"{inst.preposition}\t{inst.child}\t{inst.gold_index}\t{cands}\n")


@dataclass
class TagSet:
    """Ordered part-of-speech inventory with an unknown-tag slot."""

    tags: list[str]

    def __post_init__(self):
        if UNK_TAG not in self.tags:
            self.tags = [*self.tags, UNK_TAG]
        self._ids = {tag: i for i, tag in enumerate(self.tags)}

    def one_hot(self, tag: str) -> np.ndarray:
        vec = np.zeros(len(self.tags))
        vec[self._ids.get(tag, self._ids[UNK_TAG])] = 1.0
        return vec


def build_tagset(instances) -> TagSet:
    tags = sorted({tag for inst in instances for c in inst.candidates
                   for tag in (c.pos_tag, c.next_pos_tag)})
    return TagSet(tags)


def attachment_features(instance: AttachmentInstance, candidate_index: int,
                        store: EmbeddingStore, tagset: TagSet) -> np.ndarray:
    """Feature vector for one candidate head.

    Out-of-vocabulary tokens contribute zero vectors and zero similarity
    components; the head-preposition distance is scaled by 1/10 and
    capped at 1.
    """
    cand = instance.candidates[candidate_index]
    v_h = store.get_or_zero(cand.token)
    v_p = store.get_or_zero(instance.preposition)
    v_c = store.get_or_zero(instance.child)
    feats = [
        v_h, v_p, v_c,
        [similarity_or_zero(triple_similarity, v_h, v_p, v_c),
         similarity_or_zero(cosine_similarity, v_h, v_p),
         similarity_or_zero(cosine_similarity, v_h, v_c)],
        tagset.one_hot(cand.pos_tag),
        tagset.one_hot(cand.next_pos_tag),
        [min(cand.distance / MAX_DISTANCE, 1.0)],
    ]
    return np.concatenate(feats)


def train_attachment_model(
    instances,
    store: EmbeddingStore,
    tagset: TagSet | None = None,
    hyper: FnnHyper | None = None,
    arch: tuple[int, int] = (1000, 20),
) -> tuple[FeedForwardNet, TagSet]:
    """Train the per-candidate binary scorer (gold head vs other)."""
    if not instances:
        raise ValueError("no training instances")
    tagset = tagset or build_tagset(instances)
    rows, labels = [], []
    for inst in instances:
        for ci in range(len(inst.candidates)):
            rows.append(attachment_features(inst, ci, store, tagset))
            labels.append(1 if ci == inst.gold_index else 0)
    fnn = train_fnn(rows, labels, arch, hyper)
    return fnn, tagset


def predict_head(instance: AttachmentInstance, fnn: FeedForwardNet,
                 store: EmbeddingStore, tagset: TagSet) -> int:
    """Candidate with the highest positive-class score; ties go to the
    nearest candidate, then the lowest index."""
    rows = np.stack([attachment_features(instance, ci, store, tagset)
                     for ci in range(len(instance.candidates))])
    scores = fnn_forward_batch(fnn, rows)[:, 1]
    order = sorted(
        range(len(instance.candidates)),
        key=lambda ci: (-scores[ci], instance.candidates[ci].distance, ci),
    )
    return order[0]


def baseline_nearest_head(instance: AttachmentInstance) -> int:
    """Closest candidate to the preposition (ties to the lowest index)."""
    if not instance.candidates:
        raise ValueError("instance has no candidates")
    distances = [c.distance for c in instance.candidates]
    return int(np.argmin(distances))


def evaluate_attachment(instances, fnn: FeedForwardNet, store: EmbeddingStore,
                        tagset: TagSet, error_log_path=None):
    """Mean head-prediction accuracy plus a per-error log."""
    if not instances:
        raise ValueError("cannot evaluate on an empty test set")
    predicted, gold = [], []
    errors = []
    for inst in instances:
        pred = predict_head(inst, fnn, store, tagset)
        predicted.append(pred)
        gold.append(inst.gold_index)
        if pred != inst.gold_index:
            errors.append((inst.preposition, inst.child,
                           inst.candidates[pred].token,
                           inst.candidates[inst.gold_index].token))
    if error_log_path is not None:
        with open(error_log_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["preposition", "child", "predicted_head", "gold_head"])
            writer.writerows(errors)
    return accuracy(predicted, gold), errors
