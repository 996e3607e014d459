"""Embedding persistence and geometric queries.

Similarity measures over trained vectors, phrasal-verb paraphrasing via
Hadamard products against the constant extra-slice vector, preposition
ranking, and singular-value spectra of tensor slices.
"""

from __future__ import annotations

import itertools
import logging
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .corpus import (ASCII_INTEGER, NOPREP_TOKEN, SparseCountTensor, Vocabulary,
                     open_input, parse_integers, parse_rows, read_copy, save_text)
from .factorize import EmbeddingSet

logger = logging.getLogger(__name__)

__all__ = [
    "EmbeddingStore",
    "preposition_similarity_table",
    "paraphrase_phrasal_verb",
    "rank_preposition",
    "slice_spectrum",
    "save_embeddings",
    "load_embeddings",
]


@dataclass
class EmbeddingStore:
    """The rows of ``emb.txt``: distinct tokens, a contiguous float64
    (tokens × d) matrix of their vectors (words from the U factor,
    prepositions from Q) and the constant extra-slice vector.
    """

    tokens: list[str]
    matrix: np.ndarray
    q_const: np.ndarray

    # "copy" or "text" as load_embeddings read it; not a field, so
    # equality ignores it.
    source = None

    def __post_init__(self):
        self.index = {tok: row for row, tok in enumerate(self.tokens)}

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    @classmethod
    def from_factors(cls, vocab: Vocabulary, emb: EmbeddingSet) -> "EmbeddingStore":
        return cls(tokens=[*vocab.words, *vocab.prepositions],
                   matrix=np.vstack([emb.U, emb.Q[:-1]]), q_const=emb.Q[-1])

    def __contains__(self, token: str) -> bool:
        return token in self.index

    def rows(self, tokens: Sequence[str]) -> np.ndarray:
        """The vectors of ``tokens``, one row each (KeyError if one has none)."""
        return self.matrix[[self.index[tok] for tok in tokens]]

    def rows_or_zero(self, tokens: Sequence[str]) -> np.ndarray:
        """``rows``, with a zero row for each token without a vector."""
        rows = np.zeros((len(tokens), self.dim))
        known = [pos for pos, tok in enumerate(tokens) if tok in self.index]
        rows[known] = self.rows([tokens[pos] for pos in known])
        return rows


# The row_* kernels score a block of rows, and each row bit for bit as
# the scalar forms in tests/scalar_features.py: np.vecdot is a ddot per
# row, like ``a @ b`` (``R @ v``, einsum and ``norm(R, axis=1)`` are
# not). Out of __all__, so not traced on their own.


def row_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row."""
    return np.sqrt(np.vecdot(rows, rows))


def row_cosines(rows: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The cosine ``a @ b / (|a| |b|)`` of each row with ``v``, broadcast
    as vecdot does: one vector, a block of rows, or a block of blocks,
    such as (n, 1, d) means for (K, d) rows, an (n, K) block. 0.0 where a
    norm is 0."""
    norms, v_norms = row_norms(rows), row_norms(v)
    out = np.zeros(np.broadcast_shapes(norms.shape, v_norms.shape))
    np.divide(np.vecdot(rows, v), norms * v_norms, out=out,
              where=(norms != 0.0) & (v_norms != 0.0))
    return out


def row_pairs(rows: np.ndarray, v_left: np.ndarray, v_right: np.ndarray) -> np.ndarray:
    """The pair similarity of each row: its larger cosine with the two
    context sides, a zero side left out, broadcast as ``row_cosines``.
    0.0 for a zero row or two zero sides."""
    left, right = row_cosines(rows, v_left), row_cosines(rows, v_right)
    # As max() over the nonzero sides, which keeps the first of equal values.
    return np.where((row_norms(v_right) > 0.0)
                    & ((row_norms(v_left) == 0.0) | (right > left)), right, left)


def row_triples(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The triple similarity of the rows of ``a``, ``b`` and ``c``: the
    three-way inner product sum(a*b*c) over the product of the 3-norms
    (sum |x|^3)^(1/3), broadcast as ``row_cosines``. 0.0 where a 3-norm
    is 0."""
    ta, tb, tc = (_three_norms(x) for x in (a, b, c))
    out = np.zeros(np.broadcast_shapes(ta.shape, tb.shape, tc.shape))
    np.divide(np.sum(a * b * c, axis=-1), ta * tb * tc, out=out,
              where=(ta != 0.0) & (tb != 0.0) & (tc != 0.0))
    return out


def _three_norms(x: np.ndarray) -> np.ndarray:
    """3-norm of each row, in the shape of the rows. The cube root is a
    scalar pow per row: an array power differs from it in the last bit."""
    sums = np.sum(np.abs(x) ** 3, axis=-1)
    return np.array([s ** (1.0 / 3.0) for s in sums.reshape(-1)]).reshape(sums.shape)


def preposition_similarity_table(
    store: EmbeddingStore,
    pairs: Sequence[tuple[str, str]],
    roster: Sequence[str],
    centered: bool = True,
) -> list[tuple[str, str, float]]:
    """Cosine for each preposition pair, optionally after subtracting the
    mean of the roster prepositions that have vectors."""
    if centered:
        members = store.rows([p for p in roster if p in store])
        if not len(members):
            raise ValueError("centered similarity needs a preposition roster")
        mean = np.mean(members, axis=0)
    else:
        mean = np.zeros(store.dim)
    left = store.rows([pair[0] for pair in pairs]) - mean
    right = store.rows([pair[1] for pair in pairs]) - mean
    if not (row_norms(left).all() and row_norms(right).all()):
        raise ValueError("cosine similarity undefined for zero-norm vector")
    sims = row_cosines(left, right)
    return [(l_tok, r_tok, float(sim)) for (l_tok, r_tok), sim in zip(pairs, sims)]


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
    v_head, v_prep = store.rows([head, prep])
    dists = row_norms(store.rows(candidate_verbs) * store.q_const - v_head * v_prep)
    return [(candidate_verbs[pos], float(dists[pos]))
            for pos in np.argsort(dists, kind="stable")]


def rank_preposition(
    means: np.ndarray,
    observed: Sequence[str],
    store: EmbeddingStore,
    roster: Sequence[str],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each context mean (a row of ``means``) and its observed
    preposition: the 1-based cosine rank of the preposition among the
    roster members that have vectors, ties broken by roster order, its
    cosine, and whether both are defined. They are not (rank 0, cosine
    0.0) for a zero mean, an observed preposition without a vector or a
    zero roster vector."""
    unknown = set(observed).difference(roster)
    if unknown:
        raise ValueError(f"preposition {min(unknown)!r} not in roster")
    members = [p for p in roster if p in store]
    place = {p: pos for pos, p in enumerate(members)}
    rows = store.rows(members)
    idx = np.array([place.get(p, -1) for p in observed], dtype=np.intp)
    defined = (row_norms(means) != 0.0) & (idx >= 0) & row_norms(rows).all()
    sims = row_cosines(rows, means[:, None, :])
    cosines = np.zeros(len(means))
    cosines[defined] = sims[defined, idx[defined]]
    obs = cosines[:, None]
    ahead = (sims > obs) | ((sims == obs) & (np.arange(len(members)) < idx[:, None]))
    ranks = np.where(defined, 1 + np.count_nonzero(ahead, axis=1), 0)
    return ranks, cosines, defined


def slice_spectrum(tensor: SparseCountTensor, k: int, top_m: int) -> np.ndarray:
    """Top singular values of log(1+X[:,:,k]) divided by the largest.

    Uses iterative sparse SVD for large slices, falling back to a dense
    SVD when the requested count does not leave room for iteration. The
    iteration is seeded, so the result is reproducible. Values below the
    numerical-rank tolerance max(n, n) * eps are reported as 0.0.
    """
    if top_m < 1:
        raise ValueError(f"top_m must be >= 1, got {top_m}")
    if not 0 <= k <= tensor.n_prepositions:
        raise ValueError(f"slice {k} out of range 0..{tensor.n_prepositions}")
    n = tensor.n_words
    lo, hi = np.searchsorted(tensor.k, [k, k + 1])
    if lo == hi:
        raise ValueError(f"slice {k} is empty")
    mat = scipy.sparse.csr_matrix((np.log1p(tensor.counts[lo:hi].astype(np.float64)),
                                   (tensor.i[lo:hi], tensor.j[lo:hi])), shape=(n, n))
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


def binary_copy_path(path) -> Path:
    """The binary copy of ``path``: its whole name plus ``.npz``."""
    return Path(f"{path}.npz")


def save_embeddings(store: EmbeddingStore, path, copy_path=None) -> None:
    """Common word-vector text layout: a `count dim` header, then one
    `token f1 ... fd` line per token; the constant vector is stored
    under the reserved token. With ``copy_path``, also write there the
    binary copy of these rows: ``tokens`` as UTF-8 joined by spaces and
    ``matrix``, both in file order with the reserved token last."""
    tokens = [*store.tokens, NOPREP_TOKEN]
    # C order whatever the factors' order, as the text lists the rows.
    matrix = np.ascontiguousarray(np.vstack([store.matrix, store.q_const]))
    row = " ".join(["%.17g"] * store.dim)
    lines = (f"{tok} {row % tuple(vec.tolist())}\n" for tok, vec in zip(tokens, matrix))
    save_text(path, itertools.chain([f"{len(tokens)} {store.dim}\n"], lines), copy_path,
              [("tokens", np.frombuffer(" ".join(tokens).encode("utf-8"), np.uint8)),
               ("matrix", matrix)])


def load_embeddings(path) -> EmbeddingStore:
    """Load the text layout; also accepts externally trained word2vec or
    GloVe style files (with or without the count/dim header). A first
    line of two ASCII integers is that header; any other first line is
    the first vector row. Blank lines are skipped. The rows come from
    the binary copy when read_copy takes it, else from the text, through
    one check; the store's ``source`` says which."""
    with read_copy(binary_copy_path(path), path) as archive:
        if archive is not None:
            joined = archive["tokens"]
            tokens = joined.tobytes().decode("utf-8").split(" ")
            if joined.dtype != np.uint8 or tokens[-1] != NOPREP_TOKEN:
                raise ValueError(f"tokens are not UTF-8 bytes ending in {NOPREP_TOKEN}")
            return _checked_store(path, "copy", tokens, archive["matrix"])
    with open_input(path) as fh:
        first = fh.readline()
        parts = first.split()
        if len(parts) < 2:
            raise ValueError("line 1: bad header")
        if len(parts) == 2 and all(map(ASCII_INTEGER.fullmatch, parts)):
            declared, dim = parse_integers(parts, 1)
            if declared < 0 or dim < 1:
                raise ValueError("line 1: bad header")
            # A row takes at least 2 bytes per value, so a header declaring
            # more or wider rows than the file can hold allocates no more.
            size = os.fstat(fh.fileno()).st_size
            if declared and 2 * dim > size:
                raise ValueError(f"line 1: rows of {dim} values do not fit in "
                                 f"{size} bytes")
            rows = min(declared, size // (2 * dim) + 1)
            lines, start = fh, 2
        else:
            # Headerless GloVe-style file: the first line is a vector row.
            declared, dim, rows = None, len(parts) - 1, 0
            lines, start = itertools.chain([first], fh), 1
        tokens: dict[str, int] = {}
        matrix = parse_rows(_split_tokens(lines, start, dim, tokens), dim, start,
                            out=np.empty((rows, dim)), skip_blank=True)
        if declared is not None and len(tokens) != declared:
            raise ValueError(f"header declares {declared} rows, found {len(tokens)}")
    return _checked_store(path, "text", list(tokens), matrix)


def _checked_store(path, source: str, tokens: list[str], matrix) -> EmbeddingStore:
    """The store of ``tokens`` and their rows, read from ``path`` or its
    copy: a ValueError unless they are one C-ordered float64 row per
    token, one split of the joined tokens gives them back (none empty or
    holding whitespace), none is repeated and every value is finite. The
    reserved token's row, if any, is the constant vector."""
    if not (matrix.dtype == np.float64 and matrix.ndim == 2 and matrix.shape[1] > 0
            and len(matrix) == len(tokens) and matrix.flags.c_contiguous):
        raise ValueError("the rows are not one C-ordered float64 row per token")
    index = dict(zip(tokens, range(len(tokens))))
    if " ".join(tokens).split() != tokens or len(index) != len(tokens):
        raise ValueError("a token is empty, holds whitespace or is listed twice")
    if not np.isfinite(matrix).all():
        raise ValueError("a value is not finite")
    row = index.pop(NOPREP_TOKEN, None)
    if row is None:
        logger.warning("%s: no %s row; the extra-slice vector is zero, so "
                       "paraphrase rankings keep candidate order",
                       path, NOPREP_TOKEN)
        q_const = np.zeros(matrix.shape[1])
    else:
        q_const = matrix[row].copy()
        matrix = np.delete(matrix, row, axis=0)
    store = EmbeddingStore(tokens=list(index), matrix=matrix, q_const=q_const)
    store.source = source
    return store


def _split_tokens(lines, start: int, dim: int, tokens: dict):
    """Each of ``lines`` (the first being line ``start``) without its
    token, which ``tokens`` maps to its row; blank lines stay blank."""
    for lineno, line in enumerate(lines, start):
        head = line.split(None, 1)
        if head:
            if len(head) == 1:
                raise ValueError(f"line {lineno}: expected {dim} fields, got 0")
            if head[0] in tokens:
                raise ValueError(f"line {lineno}: token {head[0]!r} listed twice")
            tokens[head[0]] = len(tokens)
            line = head[1]
        yield line
