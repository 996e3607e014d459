"""Embedding persistence and geometric queries.

Similarity measures over trained vectors, phrasal-verb paraphrasing via
Hadamard products against the constant extra-slice vector, preposition
ranking, and singular-value spectra of tensor slices.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .corpus import SparseCountTensor, Vocabulary
from .factorize import EmbeddingSet

logger = logging.getLogger(__name__)

__all__ = [
    "EmbeddingStore",
    "UndefinedSimilarityError",
    "cosine_similarity",
    "preposition_similarity_table",
    "pair_similarity",
    "triple_similarity",
    "paraphrase_phrasal_verb",
    "rank_preposition",
    "slice_spectrum",
    "save_embeddings",
    "load_embeddings",
]

NOPREP_TOKEN = "__NOPREP__"


@dataclass
class EmbeddingStore:
    """Token -> vector map plus the constant extra-slice vector, as
    ``emb.txt`` holds them. Words come from the U factor, prepositions
    from Q; queries that rank over a roster take it as an argument.
    """

    vectors: dict[str, np.ndarray]
    q_const: np.ndarray
    dim: int

    @classmethod
    def from_factors(cls, vocab: Vocabulary, emb: EmbeddingSet) -> "EmbeddingStore":
        vectors: dict[str, np.ndarray] = {}
        for i, tok in enumerate(vocab.words):
            vectors[tok] = np.asarray(emb.U[i], dtype=np.float64)
        for k, tok in enumerate(vocab.prepositions):
            vectors[tok] = np.asarray(emb.Q[k], dtype=np.float64)
        q_const = np.asarray(emb.Q[vocab.n_prepositions], dtype=np.float64)
        return cls(vectors=vectors, q_const=q_const, dim=emb.dim)

    def __contains__(self, token: str) -> bool:
        return token in self.vectors

    def get(self, token: str) -> np.ndarray:
        try:
            return self.vectors[token]
        except KeyError:
            raise KeyError(f"token {token!r} not in embedding store") from None

    def get_or_zero(self, token: str) -> np.ndarray:
        return self.vectors.get(token, np.zeros(self.dim))


class UndefinedSimilarityError(ValueError):
    """A similarity asked of a zero vector, for which it is undefined."""


def similarity_or_zero(similarity, *vectors) -> float:
    """``similarity(*vectors)``, or 0.0 where a zero vector leaves it
    undefined; the rule feature builders use for out-of-vocabulary tokens
    and empty contexts."""
    try:
        return similarity(*vectors)
    except UndefinedSimilarityError:
        return 0.0


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return cosine_with_norms(a, b, np.linalg.norm(a), np.linalg.norm(b))


# The *_with_norms cores take norms the caller computed once per vector,
# so batched feature builders score many candidates against one context
# with the same arithmetic as the public similarities that wrap them.
# They run once per element and, like similarity_or_zero, stay out of
# __all__.


def cosine_with_norms(a: np.ndarray, b: np.ndarray, na: float, nb: float) -> float:
    """``cosine_similarity`` given both Euclidean norms."""
    if na == 0.0 or nb == 0.0:
        raise UndefinedSimilarityError("cosine similarity undefined for zero-norm vector")
    return float(a @ b / (na * nb))


def preposition_similarity_table(
    store: EmbeddingStore,
    pairs: Sequence[tuple[str, str]],
    roster: Sequence[str],
    centered: bool = True,
) -> list[tuple[str, str, float]]:
    """Cosine for each preposition pair, optionally after subtracting the
    mean of the roster prepositions that have vectors."""
    if centered:
        members = [store.vectors[p] for p in roster if p in store.vectors]
        if not members:
            raise ValueError("centered similarity needs a preposition roster")
        mean = np.mean(members, axis=0)
    else:
        mean = np.zeros(store.dim)
    rows = []
    for left, right in pairs:
        sim = cosine_similarity(store.get(left) - mean, store.get(right) - mean)
        rows.append((left, right, sim))
    return rows


def pair_similarity(v_left: np.ndarray, v_right: np.ndarray,
                    v_p: np.ndarray) -> float:
    """Best cosine between the preposition and either context side; a
    zero-vector side is excluded from the max."""
    v_left, v_right, v_p = (np.asarray(v, dtype=np.float64)
                            for v in (v_left, v_right, v_p))
    return pair_with_norms(v_left, v_right, v_p, np.linalg.norm(v_left),
                           np.linalg.norm(v_right), np.linalg.norm(v_p))


def pair_with_norms(v_left: np.ndarray, v_right: np.ndarray, v_p: np.ndarray,
                    n_left: float, n_right: float, n_p: float) -> float:
    """``pair_similarity`` given the three Euclidean norms."""
    if n_p == 0.0:
        raise UndefinedSimilarityError("preposition vector must be nonzero")
    sims = [cosine_with_norms(v, v_p, n, n_p)
            for v, n in ((v_left, n_left), (v_right, n_right)) if n > 0.0]
    if not sims:
        raise UndefinedSimilarityError("both context vectors are zero")
    return max(sims)


def three_norm(v: np.ndarray) -> float:
    """(sum |v|^3)^(1/3), the scale ``triple_similarity`` divides by."""
    return np.sum(np.abs(v) ** 3) ** (1.0 / 3.0)


def triple_similarity(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> float:
    """Three-way inner product sum(a*b*c) normalized by 3-norms."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    return triple_with_norms(a, b, c, three_norm(a), three_norm(b), three_norm(c))


def triple_with_norms(a: np.ndarray, b: np.ndarray, c: np.ndarray,
                      ta: float, tb: float, tc: float) -> float:
    """``triple_similarity`` given the three 3-norms."""
    if ta == 0.0 or tb == 0.0 or tc == 0.0:
        raise UndefinedSimilarityError(
            "triple similarity undefined for zero 3-norm vector")
    return float(np.sum(a * b * c) / (ta * tb * tc))


def paraphrase_phrasal_verb(
    head: str,
    prep: str,
    candidate_verbs: Sequence[str],
    store: EmbeddingStore,
) -> list[tuple[str, float]]:
    """Rank candidate single verbs as paraphrases of (head, prep).

    Candidates are sorted ascending by the Euclidean distance between
    their Hadamard product with the constant extra-slice vector and the
    head's product with the preposition vector; ties keep candidate order.
    """
    if not candidate_verbs:
        raise ValueError("candidate set is empty")
    target = store.get(head) * store.get(prep)
    scored = []
    for pos, verb in enumerate(candidate_verbs):
        dist = float(np.linalg.norm(store.get(verb) * store.q_const - target))
        scored.append((dist, pos, verb))
    scored.sort(key=lambda rec: (rec[0], rec[1]))
    return [(verb, dist) for dist, _, verb in scored]


def rank_preposition(
    context_vectors: Sequence[np.ndarray],
    observed_prep: str,
    store: EmbeddingStore,
    roster: Sequence[str],
) -> tuple[int, float]:
    """1-based cosine rank of the observed preposition against the mean
    of the nonzero context vectors, among the roster members that have
    vectors, ties broken by roster order. Raises UndefinedSimilarityError
    when no context vector is nonzero or their mean is zero."""
    roster = [p for p in roster if p in store.vectors]
    if observed_prep not in roster:
        raise ValueError(f"preposition {observed_prep!r} not in roster")
    context = [np.asarray(v, dtype=np.float64) for v in context_vectors
               if np.linalg.norm(v) > 0.0]
    if not context:
        raise UndefinedSimilarityError("no nonzero context vectors")
    mean = np.mean(context, axis=0)
    n_mean = np.linalg.norm(mean)
    if n_mean == 0.0:
        raise UndefinedSimilarityError("the context vectors cancel out")
    sims = []
    for p in roster:
        v_p = store.get(p)
        sims.append(cosine_with_norms(v_p, mean, np.linalg.norm(v_p), n_mean))
    observed_idx = roster.index(observed_prep)
    observed_sim = sims[observed_idx]
    rank = 1
    for idx, sim in enumerate(sims):
        if sim > observed_sim or (sim == observed_sim and idx < observed_idx):
            rank += 1
    return rank, observed_sim


def slice_spectrum(tensor: SparseCountTensor, k: int, top_m: int) -> np.ndarray:
    """Top singular values of log(1+X[:,:,k]) divided by the largest.

    Uses iterative sparse SVD for large slices, falling back to a dense
    SVD when the requested count does not leave room for iteration. The
    iteration is seeded, so the result is reproducible. Values below the
    numerical-rank tolerance max(n, n) * eps are reported as 0.0.
    """
    if top_m < 1:
        raise ValueError(f"top_m must be >= 1, got {top_m}")
    n = tensor.n_words
    items = [(i, j, c) for (i, j, kk), c in tensor.entries.items() if kk == k]
    if not items:
        raise ValueError(f"slice {k} is empty")
    rows, cols, vals = zip(*items)
    mat = scipy.sparse.csr_matrix(
        (np.log1p(np.array(vals, dtype=np.float64)), (rows, cols)), shape=(n, n)
    )
    top_m = min(top_m, n)
    if top_m < min(mat.shape) - 1 and n > 50:
        # svds' ARPACK route, but seeded: svds does not pass its generator
        # on to ARPACK's restarts, so repeated runs differed.
        gram = scipy.sparse.linalg.LinearOperator(
            (n, n), matvec=lambda v: mat.T @ (mat @ v), dtype=np.float64)
        _, vecs = scipy.sparse.linalg.eigsh(gram, k=top_m, rng=0)
        svals = np.linalg.svd(mat @ np.linalg.qr(vecs)[0], compute_uv=False)
    else:
        svals = np.linalg.svd(mat.toarray(), compute_uv=False)[:top_m]
    if svals[0] == 0.0:
        raise ValueError(f"slice {k} has zero spectrum")
    values = svals / svals[0]
    # Values under the numerical-rank tolerance are round-off past the
    # slice's rank, not structure.
    values[values < max(mat.shape) * np.finfo(np.float64).eps] = 0.0
    return values


def save_embeddings(store: EmbeddingStore, path) -> None:
    """Common word-vector text layout: a `count dim` header, then one
    `token f1 ... fd` line per token; the constant vector is stored
    under the reserved token."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(store.vectors) + 1} {store.dim}\n")
        for tok, vec in store.vectors.items():
            fh.write(tok + " " + " ".join(format(x, ".17g") for x in vec) + "\n")
        fh.write(NOPREP_TOKEN + " "
                 + " ".join(format(x, ".17g") for x in store.q_const) + "\n")


def load_embeddings(path) -> EmbeddingStore:
    """Load the text layout; also accepts externally trained word2vec or
    GloVe style files (with or without the count/dim header)."""
    vectors: dict[str, np.ndarray] = {}
    q_const = None
    dim = None
    declared = None
    with open(path, encoding="utf-8") as fh:
        first = fh.readline().rstrip("\n")
        parts = first.split()
        start = 2
        if len(parts) == 2:
            try:
                declared, dim = int(parts[0]), int(parts[1])
            except ValueError:
                raise ValueError(f"{path}: line 1: bad header") from None
        else:
            # Headerless GloVe-style file: the first line is a vector row.
            dim = len(parts) - 1
            vectors[parts[0]] = _parse_vector(parts, dim, path, 1)
        for lineno, line in enumerate(fh, start=start):
            parts = line.split()
            if not parts:
                continue
            if len(parts) - 1 != dim:
                raise ValueError(
                    f"{path}: line {lineno}: expected {dim} floats, got {len(parts) - 1}"
                )
            vec = _parse_vector(parts, dim, path, lineno)
            if parts[0] == NOPREP_TOKEN:
                q_const = vec
            else:
                vectors[parts[0]] = vec
    total = len(vectors) + (1 if q_const is not None else 0)
    if declared is not None and total != declared:
        raise ValueError(f"{path}: header declares {declared} rows, found {total}")
    if q_const is None:
        logger.warning("%s: no %s row; the extra-slice vector is zero, so "
                       "paraphrase rankings keep candidate order",
                       path, NOPREP_TOKEN)
        q_const = np.zeros(dim)
    return EmbeddingStore(vectors=vectors, q_const=q_const, dim=dim)


def _parse_vector(parts, dim, path, lineno) -> np.ndarray:
    try:
        return np.array([float(x) for x in parts[1:]], dtype=np.float64)
    except ValueError:
        raise ValueError(f"{path}: line {lineno}: non-numeric vector entry") from None
