"""Per-candidate reference for the batched feature builders and queries.

The scalar similarities and the context rule below define each measure
one vector at a time. Each builder composes them one candidate at a
time, with a zero vector for an out-of-vocabulary token and 0.0 for a
similarity a zero vector leaves undefined; the dataset builders stack
the rows of one instance after another. Detection ranks one instance at
a time and marks an undecidable one by ``UndefinedSimilarityError``.
The batched code must equal these bit for bit.
"""

import numpy as np

from preptensor.attach import MAX_DISTANCE, UNK_TAG
from preptensor.learn import CandidateRows


class UndefinedSimilarityError(ValueError):
    """A similarity asked of a zero vector, for which it is undefined."""


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise UndefinedSimilarityError("cosine similarity undefined for zero-norm vector")
    return float(a @ b / (na * nb))


def pair_similarity(v_left: np.ndarray, v_right: np.ndarray,
                    v_p: np.ndarray) -> float:
    """Best cosine between the preposition and either context side; a
    zero-vector side is excluded from the max."""
    sims = [cosine_similarity(v, v_p) for v in (v_left, v_right)
            if np.linalg.norm(v) > 0.0]
    if not sims:
        raise UndefinedSimilarityError("both context vectors are zero")
    return max(sims)


def triple_similarity(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> float:
    """Three-way inner product sum(a*b*c) normalized by the 3-norms
    (sum |v|^3)^(1/3)."""
    a, b, c = (np.asarray(v, dtype=np.float64) for v in (a, b, c))
    ta, tb, tc = (np.sum(np.abs(v) ** 3) ** (1.0 / 3.0) for v in (a, b, c))
    if ta == 0.0 or tb == 0.0 or tc == 0.0:
        raise UndefinedSimilarityError(
            "triple similarity undefined for zero 3-norm vector")
    return float(np.sum(a * b * c) / (ta * tb * tc))


def preprocess_context(instance, window: int, stoplist: frozenset[str]):
    """Drop stop-list tokens, then take up to ``window`` surviving tokens
    adjacent to the preposition on each side."""
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    left = [tok for tok in instance.tokens[:instance.prep_index]
            if tok not in stoplist]
    right = [tok for tok in instance.tokens[instance.prep_index + 1:]
             if tok not in stoplist]
    return left[-window:], right[:window]


def or_zero(similarity, *vectors) -> float:
    try:
        return similarity(*vectors)
    except UndefinedSimilarityError:
        return 0.0


def vector(store, token):
    return store.matrix[store.index[token]]


def vector_or_zero(store, token):
    return vector(store, token) if token in store else np.zeros(store.dim)


def rank_preposition(context_vectors, observed, store, roster):
    roster = [p for p in roster if p in store]
    if observed not in roster:
        raise ValueError(f"preposition {observed!r} not in roster")
    context = [np.asarray(v, dtype=np.float64) for v in context_vectors
               if np.linalg.norm(v) > 0.0]
    if not context:
        raise UndefinedSimilarityError("no nonzero context vectors")
    mean = np.mean(context, axis=0)
    if np.linalg.norm(mean) == 0.0:
        raise UndefinedSimilarityError("the context vectors cancel out")
    sims = [cosine_similarity(vector(store, p), mean) for p in roster]
    idx = roster.index(observed)
    rank = 1 + sum(s > sims[idx] or (s == sims[idx] and j < idx)
                   for j, s in enumerate(sims))
    return rank, sims[idx]


def detection_features(instance, store, table, window, stoplist):
    if instance.observed not in store:
        return None
    left, right = preprocess_context(instance, window, stoplist)
    context = [vector(store, tok) for tok in left + right if tok in store]
    try:
        rank, cos = rank_preposition(context, instance.observed, store, table.roster)
    except UndefinedSimilarityError:
        return None
    keep = table.index[instance.observed]
    return np.array([cos, float(rank), table.probs[keep, keep]])


def detect(instances, store, table, window, stoplist):
    """``detection_features`` over a dataset, in the form of
    ``select.detection_features``: the decidable positions and their
    rows."""
    rows = [detection_features(inst, store, table, window, stoplist)
            for inst in instances]
    decidable = [pos for pos, feats in enumerate(rows) if feats is not None]
    return decidable, np.array([rows[pos] for pos in decidable]).reshape(-1, 3)


def side_vector(store, tokens):
    vecs = [vector(store, tok) for tok in tokens if tok in store]
    return np.mean(vecs, axis=0) if vecs else np.zeros(store.dim)


def instance_correction_rows(instance, store, table, window, stoplist):
    left, right = preprocess_context(instance, window, stoplist)
    v_l, v_r = side_vector(store, left), side_vector(store, right)
    if np.linalg.norm(v_l) == 0.0 and np.linalg.norm(v_r) == 0.0:
        raise ValueError("both context sides are empty")
    rows = []
    for cand in table.roster:
        v_p = vector_or_zero(store, cand)
        rows.append(np.concatenate([
            v_l, v_p, v_r,
            [or_zero(pair_similarity, v_l, v_r, v_p),
             or_zero(triple_similarity, v_l, v_p, v_r),
             table.probs[table.index[instance.observed], table.index[cand]]]]))
    return np.stack(rows)


def correction_features(instances, store, table, window, stoplist):
    rows = [instance_correction_rows(inst, store, table, window, stoplist)
            for inst in instances]
    return np.concatenate(rows) if rows else np.zeros((0, 3 * store.dim + 3))


def correction_factors(instances, store, table, window, stoplist):
    """The rows of ``correction_features`` split into the factors of a
    ``CandidateRows``, after checking that they repeat as it assumes:
    an instance's sides on each of its rows and a candidate's vector on
    each instance."""
    rows = correction_features(instances, store, table, window, stoplist)
    d = store.dim
    blocks = rows.reshape(len(instances), len(table.roster), 3 * d + 3)
    factors = CandidateRows(
        sides=np.stack([blocks[:, 0, :d], blocks[:, 0, 2 * d:3 * d]], axis=1),
        cands=np.array([vector_or_zero(store, cand) for cand in table.roster]),
        scalars=rows[:, 3 * d:])
    assert (blocks[:, :, :d] == factors.sides[:, None, 0]).all()
    assert (blocks[:, :, d:2 * d] == factors.cands).all()
    assert (blocks[:, :, 2 * d:3 * d] == factors.sides[:, None, 1]).all()
    return factors


def one_hot(tagset, tag):
    vec = np.zeros(len(tagset.tags))
    vec[tagset.tags.index(tag if tag in tagset.tags else UNK_TAG)] = 1.0
    return vec


def instance_attachment_rows(instance, store, tagset):
    v_p = vector_or_zero(store, instance.preposition)
    v_c = vector_or_zero(store, instance.child)
    rows = []
    for cand in instance.candidates:
        v_h = vector_or_zero(store, cand.token)
        rows.append(np.concatenate([
            v_h, v_p, v_c,
            [or_zero(triple_similarity, v_h, v_p, v_c),
             or_zero(cosine_similarity, v_h, v_p),
             or_zero(cosine_similarity, v_h, v_c)],
            one_hot(tagset, cand.pos_tag),
            one_hot(tagset, cand.next_pos_tag),
            [min(cand.distance / MAX_DISTANCE, 1.0)]]))
    return np.stack(rows)


def attachment_features(instances, store, tagset):
    rows = [instance_attachment_rows(inst, store, tagset) for inst in instances]
    width = 3 * store.dim + 3 + 2 * len(tagset.tags) + 1
    return np.concatenate(rows) if rows else np.zeros((0, width))


def preposition_similarity_table(store, pairs, roster, centered=True):
    if centered:
        mean = np.mean([vector(store, p) for p in roster if p in store], axis=0)
    else:
        mean = np.zeros(store.dim)
    return [(left, right, cosine_similarity(vector(store, left) - mean,
                                            vector(store, right) - mean))
            for left, right in pairs]


def paraphrase_phrasal_verb(head, prep, candidates, store):
    target = vector(store, head) * vector(store, prep)
    scored = sorted(
        (float(np.linalg.norm(vector(store, verb) * store.q_const - target)), pos)
        for pos, verb in enumerate(candidates))
    return [(candidates[pos], dist) for dist, pos in scored]
