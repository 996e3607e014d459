"""Corpus tokenization, vocabulary building and triple counting.

Turns raw text into a sparse third-order count tensor of shape
N x N x (K+1): one N x N slice of word-pair counts per roster
preposition, plus one extra slice for pairs that co-occur outside
every preposition window.
"""

from __future__ import annotations

import itertools
import re
import warnings
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Vocabulary",
    "SparseCountTensor",
    "tokenize_sentences",
    "build_vocabulary",
    "count_preposition_slices",
    "count_extra_slice",
    "count_tensor",
    "merge_counts",
    "save_tensor",
    "load_tensor",
    "save_vocabulary",
    "load_vocabulary",
    "load_roster",
]

_SENTENCE_SPLIT = re.compile(r"[.!?]+")
_TOKEN = re.compile(r"[\w']+")

TENSOR_MAGIC = "PREPTENSOR"
PREP_SENTINEL = "#PREPOSITIONS"
# Tensor lines parsed per array chunk: bounds the text and arrays held
# at once while loading.
_LOAD_CHUNK_LINES = 1 << 16


def tokenize_sentences(raw_text: str | bytes) -> list[list[str]]:
    """Split text into sentences of lowercased tokens.

    Sentences end at runs of ``.!?``; tokens are maximal runs of word
    characters or apostrophes, everything else is dropped.
    """
    if isinstance(raw_text, bytes):
        try:
            raw_text = raw_text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValueError(
                f"input is not valid UTF-8 at byte offset {exc.start}"
            ) from exc
    sentences = []
    for chunk in _SENTENCE_SPLIT.split(raw_text):
        tokens = _TOKEN.findall(chunk.lower())
        if tokens:
            sentences.append(tokens)
    return sentences


@dataclass
class Vocabulary:
    """Content-word vocabulary plus the closed preposition roster.

    Words and prepositions are disjoint; ``word_ids`` maps the N content
    words onto 0..N-1 and ``prep_ids`` maps the K roster tokens onto
    0..K-1 (the tensor's extra slice uses index K).
    """

    words: list[str]
    word_ids: dict[str, int]
    prepositions: list[str]
    prep_ids: dict[str, int]
    counts: dict[str, int]

    @property
    def n_words(self) -> int:
        return len(self.words)

    @property
    def n_prepositions(self) -> int:
        return len(self.prepositions)


def build_vocabulary(
    sentences: Sequence[Sequence[str]],
    min_count: int,
    roster: Sequence[str],
) -> Vocabulary:
    """Count token frequencies and keep non-roster tokens above threshold.

    Roster tokens are always retained as prepositions, even at frequency
    zero. Word ids are assigned by descending frequency, ties broken
    alphabetically.
    """
    if min_count < 1:
        raise ValueError(f"min_count must be >= 1, got {min_count}")
    counts: Counter[str] = Counter()
    for sent in sentences:
        counts.update(sent)
    if not counts:
        raise ValueError("empty corpus: no tokens to build a vocabulary from")
    roster = list(dict.fromkeys(roster))
    roster_set = set(roster)
    words = sorted(
        (tok for tok, c in counts.items() if tok not in roster_set and c >= min_count),
        key=lambda tok: (-counts[tok], tok),
    )
    return Vocabulary(
        words=words,
        word_ids={tok: i for i, tok in enumerate(words)},
        prepositions=roster,
        prep_ids={tok: k for k, tok in enumerate(roster)},
        counts=dict(counts),
    )


class SparseCountTensor:
    """COO-style nonnegative integer counts of shape N x N x (K+1).

    Slice k < K holds pairs co-occurring with preposition k; slice K is
    the outside-all-preposition-windows slice. Absent entries are zero.
    """

    def __init__(self, n_words: int, n_prepositions: int, window_t: int,
                 entries: dict[tuple[int, int, int], int] | None = None):
        if window_t < 1:
            raise ValueError(f"window_t must be >= 1, got {window_t}")
        self.n_words = n_words
        self.n_prepositions = n_prepositions
        self.window_t = window_t
        self.entries: dict[tuple[int, int, int], int] = dict(entries or {})

    @property
    def dims(self) -> tuple[int, int, int]:
        return (self.n_words, self.n_words, self.n_prepositions + 1)

    @property
    def nnz(self) -> int:
        return len(self.entries)

    def count(self, i: int, j: int, k: int) -> int:
        return self.entries.get((i, j, k), 0)

    def increment(self, i: int, j: int, k: int, by: int = 1) -> None:
        key = (i, j, k)
        self.entries[key] = self.entries.get(key, 0) + by

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseCountTensor):
            return NotImplemented
        return (self.dims == other.dims
                and self.window_t == other.window_t
                and self.entries == other.entries)


def count_preposition_slices(
    sentences: Iterable[Sequence[str]],
    vocab: Vocabulary,
    t: int,
) -> SparseCountTensor:
    """Count ordered vocabulary-word pairs inside each preposition window.

    Every occurrence of a roster preposition contributes its own window
    of radius ``t``; all ordered pairs of distinct positions inside the
    window are incremented. Out-of-vocabulary and roster tokens in the
    window are skipped.
    """
    tensor = SparseCountTensor(vocab.n_words, vocab.n_prepositions, t)
    word_ids = vocab.word_ids
    prep_ids = vocab.prep_ids
    for sent in sentences:
        n = len(sent)
        for pos, tok in enumerate(sent):
            k = prep_ids.get(tok)
            if k is None:
                continue
            window = [
                word_ids[sent[q]]
                for q in range(max(0, pos - t), min(n, pos + t + 1))
                if q != pos and sent[q] in word_ids
            ]
            for a, ia in enumerate(window):
                for b, jb in enumerate(window):
                    if a != b:
                        tensor.increment(ia, jb, k)
    return tensor


def count_extra_slice(
    sentences: Iterable[Sequence[str]],
    vocab: Vocabulary,
    t: int,
) -> SparseCountTensor:
    """Count pairs within distance 2t with a position outside all windows.

    An ordered pair of distinct in-vocabulary positions is counted in
    slice K iff at least one of the two positions lies at distance > t
    from every preposition occurrence in the sentence.
    """
    tensor = SparseCountTensor(vocab.n_words, vocab.n_prepositions, t)
    word_ids = vocab.word_ids
    prep_ids = vocab.prep_ids
    k_extra = vocab.n_prepositions
    for sent in sentences:
        prep_positions = [p for p, tok in enumerate(sent) if tok in prep_ids]
        vocab_positions = [(p, word_ids[tok]) for p, tok in enumerate(sent)
                           if tok in word_ids]
        covered = {
            p: any(abs(p - pp) <= t for pp in prep_positions)
            for p, _ in vocab_positions
        }
        for pa, ia in vocab_positions:
            for pb, jb in vocab_positions:
                if pa == pb or abs(pa - pb) > 2 * t:
                    continue
                if not covered[pa] or not covered[pb]:
                    tensor.increment(ia, jb, k_extra)
    return tensor


def merge_counts(partials: Sequence[SparseCountTensor]) -> SparseCountTensor:
    """Entrywise sum of partial tensors with identical dims and window."""
    if not partials:
        raise ValueError("nothing to merge")
    first = partials[0]
    merged = SparseCountTensor(first.n_words, first.n_prepositions,
                               first.window_t, first.entries)
    for part in partials[1:]:
        if part.dims != first.dims or part.window_t != first.window_t:
            raise ValueError(
                f"cannot merge tensors with dims {part.dims} (t={part.window_t}) "
                f"into dims {first.dims} (t={first.window_t})"
            )
        for key, val in part.entries.items():
            merged.entries[key] = merged.entries.get(key, 0) + val
    return merged


def count_tensor(
    sentences: Sequence[Sequence[str]],
    vocab: Vocabulary,
    t: int,
) -> SparseCountTensor:
    """Full tensor: preposition slices plus the extra slice."""
    return merge_counts([
        count_preposition_slices(sentences, vocab, t),
        count_extra_slice(sentences, vocab, t),
    ])


def save_tensor(tensor: SparseCountTensor, path) -> None:
    """Write the text format: a header line then one `i j k count` line
    per nonzero, in ascending (k, i, j) order."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{TENSOR_MAGIC} v1 {tensor.n_words} {tensor.n_prepositions} "
                 f"{tensor.nnz} {tensor.window_t}\n")
        for (i, j, k) in sorted(tensor.entries, key=lambda e: (e[2], e[0], e[1])):
            fh.write(f"{i} {j} {k} {tensor.entries[(i, j, k)]}\n")


def load_tensor(path) -> SparseCountTensor:
    """Read a ``save_tensor`` file; its body lines may come in any order.

    The body is parsed as integer arrays, a chunk of lines at a time. A
    file this cannot vouch for (a field the array parser rejects, a
    warning, a skipped line, a value out of range, an nnz other than the
    header's) is read again line by line, the one place that words the
    errors. A repeated coordinate keeps its last count either way.
    """
    with open(path, encoding="utf-8") as fh:
        tensor, nnz = _read_tensor_header(fh, path)
        entries = _read_tensor_body(fh, tensor)
    if entries is None or len(entries) != nnz:
        return _load_tensor_lines(path)
    tensor.entries = entries
    return tensor


def _read_tensor_header(fh, path) -> tuple[SparseCountTensor, int]:
    header = fh.readline().split()
    if len(header) != 6 or header[0] != TENSOR_MAGIC or header[1] != "v1":
        raise ValueError(f"{path}: line 1: bad tensor header")
    try:
        n, k_preps, nnz, t = (int(x) for x in header[2:])
    except ValueError:
        raise ValueError(f"{path}: line 1: non-integer header field") from None
    return SparseCountTensor(n, k_preps, t), nnz


def _read_tensor_body(fh, tensor: SparseCountTensor) -> dict | None:
    """The entries of every remaining line, or None when a line does not
    hold four in-range integers with a count >= 1."""
    n, k_preps = tensor.n_words, tensor.n_prepositions
    entries: dict[tuple[int, int, int], int] = {}
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            while lines := list(itertools.islice(fh, _LOAD_CHUNK_LINES)):
                rows = np.loadtxt(lines, dtype=np.int64, comments=None, ndmin=2)
                if rows.shape != (len(lines), 4):
                    return None
                i, j, k, c = rows.T
                if (c.min() < 1 or min(i.min(), j.min(), k.min()) < 0
                        or max(i.max(), j.max()) >= n or k.max() > k_preps):
                    return None
                entries.update(zip(zip(i.tolist(), j.tolist(), k.tolist()),
                                   c.tolist()))
    except (ValueError, OverflowError, Warning):
        return None
    return entries


def _load_tensor_lines(path) -> SparseCountTensor:
    with open(path, encoding="utf-8") as fh:
        tensor, nnz = _read_tensor_header(fh, path)
        n, k_preps = tensor.n_words, tensor.n_prepositions
        for lineno, line in enumerate(fh, start=2):
            parts = line.split()
            if len(parts) != 4:
                raise ValueError(f"{path}: line {lineno}: expected 4 fields")
            try:
                i, j, k, c = (int(x) for x in parts)
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: non-integer field") from None
            if c < 1:
                raise ValueError(f"{path}: line {lineno}: count must be >= 1")
            if not (0 <= i < n and 0 <= j < n and 0 <= k <= k_preps):
                raise ValueError(f"{path}: line {lineno}: index out of range")
            tensor.entries[(i, j, k)] = c
    if tensor.nnz != nnz:
        raise ValueError(f"{path}: header declares nnz={nnz} but found {tensor.nnz}")
    return tensor


def save_vocabulary(vocab: Vocabulary, path) -> None:
    """Write `token<TAB>frequency<TAB>id` lines, words first, then the
    preposition roster after a sentinel line."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, tok in enumerate(vocab.words):
            fh.write(f"{tok}\t{vocab.counts.get(tok, 0)}\t{i}\n")
        fh.write(PREP_SENTINEL + "\n")
        for k, tok in enumerate(vocab.prepositions):
            fh.write(f"{tok}\t{vocab.counts.get(tok, 0)}\t{k}\n")


def load_vocabulary(path) -> Vocabulary:
    words: list[str] = []
    preps: list[str] = []
    counts: dict[str, int] = {}
    in_preps = False
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            if line == PREP_SENTINEL:
                in_preps = True
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ValueError(f"{path}: line {lineno}: expected 3 tab-separated fields")
            tok, freq, idx = parts
            try:
                freq, idx = int(freq), int(idx)
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: non-integer field") from None
            target = preps if in_preps else words
            if idx != len(target):
                raise ValueError(f"{path}: line {lineno}: id {idx} out of order")
            target.append(tok)
            counts[tok] = freq
    return Vocabulary(
        words=words,
        word_ids={tok: i for i, tok in enumerate(words)},
        prepositions=preps,
        prep_ids={tok: k for k, tok in enumerate(preps)},
        counts=counts,
    )


def load_roster(path) -> list[str]:
    """One token per line; blank lines and `#` comments ignored."""
    roster = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            tok = line.strip()
            if tok and not tok.startswith("#"):
                roster.append(tok.lower())
    return roster
