"""Corpus tokenization, vocabulary building and triple counting.

Turns raw text into a sparse third-order count tensor of shape
N x N x (K+1): one N x N slice of word-pair counts per roster
preposition, plus one extra slice for pairs that co-occur outside
every preposition window.
"""

from __future__ import annotations

import contextlib
import contextvars
import hashlib
import itertools
import logging
import os
import re
import warnings
import zipfile
import zlib
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

logger = logging.getLogger(__name__)

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
# The number fields every loader reads, as np.loadtxt reads them: ASCII
# digits with an optional sign, for floats also an optional fraction and
# exponent, or inf and nan, which parse_rows rejects.
# int() and float() also take "1_0" and non-ASCII digits.
ASCII_INTEGER = re.compile(r"[+-]?[0-9]+")
ASCII_FLOAT = re.compile(r"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
                         r"|inf|infinity|nan)", re.IGNORECASE)
_INT64 = np.iinfo(np.int64)
_INT32 = np.iinfo(np.int32)

TENSOR_MAGIC = "PREPTENSOR"
PREP_SENTINEL = "#PREPOSITIONS"
# The row of emb.txt that holds the constant vector, which no token of
# a vocabulary or roster may spell.
NOPREP_TOKEN = "__NOPREP__"
# Tensor lines parsed or formatted per chunk: bounds the text and the
# Python ints held at once while loading or saving. parse_rows reads as
# many values per chunk from lines of any width.
_LOAD_CHUNK_LINES = 1 << 16
_COLUMNS = ("i", "j", "k", "counts")
# What reading a damaged columns file raises besides a ValueError:
# zipfile's BadZipFile (a CRC-32 mismatch among them), a truncated or
# unreadable file, a missing member, a flag flipped to encryption
# (RuntimeError), and a compression method flipped to one zipfile lacks
# or to deflate.
_COLUMN_FILE_ERRORS = (zipfile.BadZipFile, OSError, EOFError, KeyError, RuntimeError,
                       NotImplementedError, zlib.error)
# Window positions counted per array block: bounds the keys held at once.
_COUNT_BLOCK = 1 << 13


# The input record of one command, which cli.run sets and resets: each
# path open_input opens, by str(path), to its sha256 digest, or to None
# until cli takes it. With none set, nothing is recorded.
OPENED_INPUTS: contextvars.ContextVar[dict | None] = contextvars.ContextVar(
    "opened_inputs", default=None)


@contextlib.contextmanager
def open_input(path, mode="r"):
    """Open an input file, as UTF-8 text unless ``mode`` is binary, and
    record its path in OPENED_INPUTS. A ValueError raised in the block,
    a decoding error included, is raised again as one naming the file."""
    with open(path, mode, encoding=None if "b" in mode else "utf-8") as fh:
        if (opened := OPENED_INPUTS.get()) is not None:
            opened.setdefault(str(path), None)
        try:
            yield fh
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open_input(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def input_digest(path) -> str:
    """The sha256 of ``path``, kept in the command's input record, so
    that each input is hashed once per command, and a file rewritten
    between commands is hashed again. With no record set, the file is
    hashed anew."""
    inputs = OPENED_INPUTS.get()
    if inputs is None:
        return _sha256(path)
    if inputs.get(key := str(path)) is None:
        inputs[key] = _sha256(path)
    return inputs[key]


def read_records(path, parse, what: str) -> tuple[list, int]:
    """``parse(fields)`` for the tab-separated fields of each non-blank
    line of ``path``, and the number of lines rejected. A line that
    ``parse`` rejects with a ValueError is skipped and logged as
    "<what> <path>: line N rejected: <reason>", and one total of the
    lines rejected is logged at the end."""
    records, rejected = [], 0
    with open_input(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            try:
                records.append(parse(line.split("\t")))
            except ValueError as exc:
                logger.warning("%s %s: line %d rejected: %s", what, path, lineno, exc)
                rejected += 1
    if rejected:
        logger.warning("%s %s: %d line(s) rejected", what, path, rejected)
    return records, rejected


def expect_end(fh, lineno: int) -> None:
    """A ValueError naming line ``lineno`` unless ``fh`` has no more
    lines: a model file ends at the body its header declares."""
    if fh.readline():
        raise ValueError(f"line {lineno}: expected the end of the file")


def parse_integers(fields, lineno: int) -> list[int]:
    """The ints ``fields`` hold, each read as parse_rows reads an int64;
    any other field is a ValueError naming it and line ``lineno``."""
    return [_check_field(text, lineno, integer=True) for text in fields]


def parse_rows(lines, width: int, start: int = 1, dtype=np.float64, out=None,
               skip_blank: bool = False) -> np.ndarray:
    """The numbers on text ``lines``, the first of which is line
    ``start``, as a (rows, width) array of int64 or finite float64
    values: one row per line, or per non-blank line with ``skip_blank``.

    np.loadtxt parses the lines a chunk at a time into ``out`` (by
    default a new array), which is grown when the lines outnumber its
    rows; the rows filled are returned. A chunk np.loadtxt rejects is
    read again field by field, only to name its first bad line.
    """
    lines, filled = iter(lines), 0
    if out is None:
        out = np.empty((0, width), dtype)
    chunk_lines = max(1, 4 * _LOAD_CHUNK_LINES // max(width, 1))
    while chunk := list(itertools.islice(lines, chunk_lines)):
        try:
            with warnings.catch_warnings():
                # Warns of a chunk of blank lines, which holds no rows.
                warnings.simplefilter("ignore", UserWarning)
                rows = np.loadtxt(chunk, dtype=dtype, comments=None, ndmin=2)
        except (ValueError, OverflowError):
            rows = None
        if (rows is None or len(rows) != len(chunk) and not skip_blank
                or len(rows) and rows.shape[1] != width
                or rows.dtype.kind == "f" and not np.isfinite(rows).all()):
            _raise_bad_line(chunk, start, width, np.dtype(dtype).kind == "i", skip_blank)
        end = filled + len(rows)
        if end > len(out):
            # np.empty_like keeps the layout, so a transposed ``out``
            # grows with contiguous columns.
            grown = np.empty_like(out, shape=(max(end, 2 * len(out)), width))
            grown[:filled] = out[:filled]
            out = grown
        out[filled:end] = rows
        filled = end
        start += len(chunk)
        # Freed before the next chunk is read, so one chunk is held.
        del chunk, rows
    return out[:filled]


def _raise_bad_line(lines, start, width, integer, skip_blank):
    """Raise the ValueError that names the first of ``lines`` (the first
    being line ``start``) that does not hold ``width`` numbers."""
    for lineno, line in enumerate(lines, start):
        fields = line.split()
        if fields or not skip_blank:
            for text in fields:
                _check_field(text, lineno, integer)
            if len(fields) != width:
                raise ValueError(f"line {lineno}: expected {width} fields, "
                                 f"got {len(fields)}")
    raise ValueError(f"lines {start}-{lineno}: not {width} numbers per line")


def int64_field(text: str, what: str = "field") -> int:
    """``text`` as np.loadtxt reads an int64: the one integer rule of
    file fields, dataset indices, flags and config values. Any other
    text is a ValueError naming it as ``what``."""
    if not ASCII_INTEGER.fullmatch(text):
        raise ValueError(f"non-integer {what} {text!r}")
    # int() refuses 4,300 digits or more, and 20 are past int64 already.
    digits = text.lstrip("+-").lstrip("0") or "0"
    if len(digits) > 19 or not (
            _INT64.min <= (value := int("-" + digits if text[0] == "-" else digits))
            <= _INT64.max):
        raise ValueError(f"integer {what} {text!r} out of range")
    return value


def float_field(text: str) -> float:
    """``text`` as np.loadtxt reads a finite float64: the one float rule
    of file fields, flags and config values. Any other text is a
    ValueError naming it."""
    if not ASCII_FLOAT.fullmatch(text):
        raise ValueError(f"non-numeric field {text!r}")
    if not np.isfinite(value := float(text)):
        raise ValueError(f"non-finite value {text!r}")
    return value


def _check_field(text: str, lineno: int, integer: bool) -> int | float:
    """``text`` read by int64_field, or else by float_field; a ValueError
    names line ``lineno``."""
    try:
        return int64_field(text) if integer else float_field(text)
    except ValueError as exc:
        raise ValueError(f"line {lineno}: {exc}") from None


def tokenize_sentences(raw_text: str | bytes) -> list[list[str]]:
    """Split text into sentences of lowercased tokens.

    Sentences end at runs of ``.!?``; tokens are maximal runs of word
    characters or apostrophes, everything else is dropped. Equal tokens
    are one shared ``str``, so the lists grow by a pointer per token.
    """
    if isinstance(raw_text, bytes):
        try:
            raw_text = raw_text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValueError(
                f"input is not valid UTF-8 at byte offset {exc.start}"
            ) from exc
    shared = {}.setdefault
    sentences = []
    for chunk in _SENTENCE_SPLIT.split(raw_text):
        tokens = _TOKEN.findall(chunk.lower())
        if tokens:
            sentences.append(list(map(shared, tokens, tokens)))
    return sentences


@dataclass
class Vocabulary:
    """Content-word vocabulary plus the closed preposition roster.

    Words and prepositions are disjoint; ``word_ids`` maps the N content
    words onto 0..N-1 and ``prep_ids`` maps the K roster tokens onto
    0..K-1 (the tensor's extra slice uses index K); both are built from
    the lists.
    """

    words: list[str]
    prepositions: list[str]
    counts: dict[str, int]
    word_ids: dict[str, int] = field(init=False)
    prep_ids: dict[str, int] = field(init=False)

    def __post_init__(self):
        self.word_ids = {tok: i for i, tok in enumerate(self.words)}
        self.prep_ids = {tok: k for k, tok in enumerate(self.prepositions)}

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
    roster_set = set(roster)
    words = sorted(
        (tok for tok, c in counts.items() if tok not in roster_set and c >= min_count),
        key=lambda tok: (-counts[tok], tok),
    )
    # A Counter reads 0 for a preposition that never occurs.
    return Vocabulary(words=words, prepositions=list(roster),
                      counts={tok: counts[tok] for tok in [*words, *roster]})


class SparseCountTensor:
    """Nonnegative integer counts of shape N x N x (K+1) in coordinate form.

    Slice k < K holds pairs co-occurring with preposition k; slice K is
    the outside-all-preposition-windows slice. Absent entries are zero.
    The int64 arrays ``i``, ``j``, ``k``, ``counts`` hold each coordinate
    once, in ascending (k, i, j) order, which only the constructor sets
    from coordinates within the dims: strictly ascending ones are kept,
    without a copy where they are contiguous int64 arrays; others are
    summed by key.
    """

    # Where load_tensor read the entries from, "columns" or "text"; None
    # for a tensor counted in memory. Equality ignores it.
    source: str | None = None

    def __init__(self, n_words: int, n_prepositions: int, window_t: int,
                 i=(), j=(), k=(), counts=()):
        _check_window(window_t)
        self.n_words = n_words
        self.n_prepositions = n_prepositions
        self.window_t = window_t
        i, j, k, counts = (np.ascontiguousarray(a, dtype=np.int64)
                           for a in (i, j, k, counts))
        if not _strictly_ascending(k, i, j):
            _check_key_range(n_words, n_prepositions)
            keys, counts = _sum_by_key((k * n_words + i) * n_words + j, counts)
            i, j, k = _split_keys(keys, n_words)
        self.k, self.i, self.j, self.counts = k, i, j, counts

    @property
    def dims(self) -> tuple[int, int, int]:
        return (self.n_words, self.n_words, self.n_prepositions + 1)

    @property
    def nnz(self) -> int:
        return len(self.counts)

    @property
    def entries(self) -> Mapping[tuple[int, int, int], int]:
        """A read-only ``{(i, j, k): count}`` view, in (k, i, j) order."""
        keys = zip(self.i.tolist(), self.j.tolist(), self.k.tolist())
        return MappingProxyType(dict(zip(keys, self.counts.tolist())))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseCountTensor):
            return NotImplemented
        return (self.dims == other.dims
                and self.window_t == other.window_t
                and all(np.array_equal(getattr(self, name), getattr(other, name))
                        for name in _COLUMNS))


def _strictly_ascending(k, i, j) -> bool:
    """Whether each (k, i, j) row is above the one before it, found with
    boolean arrays only: no int64 temporaries of the columns' size."""
    above = np.zeros(max(len(k) - 1, 0), dtype=bool)
    equal = ~above
    for col in (k, i, j):
        later, earlier = col[1:], col[:-1]
        above |= equal & (later > earlier)
        equal &= later == earlier
    return bool(above.all())


def _sum_by_key(keys: np.ndarray, counts: np.ndarray):
    """The distinct ``keys`` in ascending order and the sum of ``counts``
    over each: the one sort-and-sum of coordinates."""
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    counts = counts[order]
    del order
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    return keys[starts], np.add.reduceat(counts, starts)


def _split_keys(keys: np.ndarray, n: int):
    """The (i, j, k) of keys (k*N + i)*N + j; ``keys`` becomes k."""
    j = keys % n
    keys //= n
    i = keys % n
    keys //= n
    return i, j, keys


def _check_window(window_t: int) -> None:
    if window_t < 1:
        raise ValueError(f"window_t must be >= 1, got {window_t}")


def _check_key_range(n_words: int, n_prepositions: int) -> None:
    """Coordinates are sorted and summed as int64 keys (k*N + i)*N + j."""
    if n_words * n_words * (n_prepositions + 1) >= 1 << 63:
        raise ValueError(
            f"N={n_words} words and K={n_prepositions} prepositions are too many: "
            "N*N*(K+1) must be below 2**63")


def _token_arrays(sentences: Iterable[Sequence[str]], vocab: Vocabulary, t: int):
    """Per-token word id, preposition id (-1 where the token is not one)
    and sentence id of the whole corpus, and the reach: the window ``t``
    capped at the longest sentence, past which a wider window counts the
    same pairs. The arrays hold 2 * reach entries of -1 at each end, so
    that every position may look 2 * reach tokens away. A window below 1
    or a key range beyond int64 is raised before any token is indexed."""
    _check_window(t)
    _check_key_range(vocab.n_words, vocab.n_prepositions)
    tokens: list[str] = []
    lengths: list[int] = []
    for sent in sentences:
        tokens.extend(sent)
        lengths.append(len(sent))
    reach = max(1, min(t, max(lengths, default=0)))
    word, prep = (np.pad(np.fromiter(map(ids.get, tokens, itertools.repeat(-1)),
                                     np.int64, len(tokens)), 2 * reach, constant_values=-1)
                  for ids in (vocab.word_ids, vocab.prep_ids))
    sent = np.pad(np.repeat(np.arange(len(lengths), dtype=np.int64), lengths),
                  2 * reach, constant_values=-1)
    return word, prep, sent, reach


def _blocks(positions: np.ndarray):
    for start in range(0, len(positions), _COUNT_BLOCK):
        yield positions[start:start + _COUNT_BLOCK]


def _near_words(word, sent, pos, idx):
    """The word ids at ``idx``, -1 where a token there is not a word or
    lies in another sentence than the token at ``pos``."""
    return np.where(sent[idx] == sent[pos], word[idx], -1)


class _KeyCounter:
    """Counts of int64 keys (k*N + i)*N + j added a block at a time, as
    sorted (distinct keys, counts) pairs: a running pair first, then the
    blocks' ``np.unique`` pairs, which are folded into it once they hold
    more keys than it. The memory held thus follows the distinct keys,
    not the keys counted."""

    def __init__(self):
        self.pairs = [(np.empty(0, np.int64), np.empty(0, np.int64))]
        self.pending = 0

    def add(self, keys: np.ndarray) -> None:
        self.pairs.append(np.unique(keys, return_counts=True))
        self.pending += len(self.pairs[-1][0])
        if self.pending > len(self.pairs[0][0]):
            self._fold()

    def _fold(self) -> None:
        # The local list is the last reference to the folded pairs, so
        # they are freed as soon as both are concatenated.
        pairs, self.pairs = self.pairs, None
        keys = np.concatenate([pair[0] for pair in pairs])
        counts = np.concatenate([pair[1] for pair in pairs])
        del pairs
        self.pairs = [_sum_by_key(keys, counts)]
        self.pending = 0

    def tensor(self, vocab: Vocabulary, t: int) -> SparseCountTensor:
        """The counts as a tensor; decodes the keys in place, so the
        counter is spent."""
        if len(self.pairs) > 1:
            self._fold()
        [(keys, counts)] = self.pairs
        return SparseCountTensor(vocab.n_words, vocab.n_prepositions, t,
                                 *_split_keys(keys, vocab.n_words), counts)


def count_preposition_slices(
    sentences: Iterable[Sequence[str]],
    vocab: Vocabulary,
    t: int,
    token_ids=None,
) -> SparseCountTensor:
    """Count ordered vocabulary-word pairs inside each preposition window.

    Every occurrence of a roster preposition contributes its own window
    of radius ``t``; all ordered pairs of distinct positions inside the
    window are incremented. Out-of-vocabulary and roster tokens in the
    window are skipped. ``token_ids``, the ``_token_arrays`` of
    ``sentences``, spares converting the tokens again.
    """
    n = vocab.n_words
    word, prep, sent, reach = token_ids or _token_arrays(sentences, vocab, t)
    offsets = np.array([d for d in range(-reach, reach + 1) if d])
    distinct = ~np.eye(len(offsets), dtype=bool)[:, :, None]
    counter = _KeyCounter()
    for pos in _blocks(np.flatnonzero(prep >= 0)):
        near = _near_words(word, sent, pos, pos + offsets[:, None])
        valid = near >= 0
        rows = (prep[pos] * n + near) * n
        keep = valid[:, None] & valid[None, :] & distinct
        counter.add((rows[:, None] + near[None, :])[keep])
    return counter.tensor(vocab, t)


def count_extra_slice(
    sentences: Iterable[Sequence[str]],
    vocab: Vocabulary,
    t: int,
    token_ids=None,
) -> SparseCountTensor:
    """Count pairs within distance 2t with a position outside all windows.

    An ordered pair of distinct in-vocabulary positions is counted in
    slice K iff at least one of the two positions lies at distance > t
    from every preposition occurrence in the sentence. ``token_ids`` is
    as for ``count_preposition_slices``.
    """
    n = vocab.n_words
    word, prep, sent, reach = token_ids or _token_arrays(sentences, vocab, t)
    pad = 2 * reach
    # Within distance t of a preposition in the same sentence.
    covered = np.zeros(len(word), dtype=bool)
    core = slice(pad, len(word) - pad)
    for d in range(-reach, reach + 1):
        shifted = slice(pad + d, len(word) - pad + d)
        covered[core] |= (prep[shifted] >= 0) & (sent[shifted] == sent[core])
    offsets = np.array([d for d in range(-pad, pad + 1) if d])
    counter = _KeyCounter()
    for pos in _blocks(np.flatnonzero(word >= 0)):
        idx = pos + offsets[:, None]
        near = _near_words(word, sent, pos, idx)
        keep = (near >= 0) & ~(covered[pos] & covered[idx])
        rows = (vocab.n_prepositions * n + word[pos]) * n
        counter.add((rows + near)[keep])
    return counter.tensor(vocab, t)


def merge_counts(partials: Sequence[SparseCountTensor]) -> SparseCountTensor:
    """Entrywise sum of partial tensors with identical dims and window."""
    if not partials:
        raise ValueError("nothing to merge")
    first = partials[0]
    for part in partials[1:]:
        if part.dims != first.dims or part.window_t != first.window_t:
            raise ValueError(
                f"cannot merge tensors with dims {part.dims} (t={part.window_t}) "
                f"into dims {first.dims} (t={first.window_t})"
            )
    return SparseCountTensor(
        first.n_words, first.n_prepositions, first.window_t,
        *(np.concatenate([getattr(part, name) for part in partials]) for name in _COLUMNS))


def count_tensor(
    sentences: Sequence[Sequence[str]],
    vocab: Vocabulary,
    t: int,
) -> SparseCountTensor:
    """Full tensor: preposition slices plus the extra slice, both counted
    from one conversion of the tokens to ids."""
    token_ids = _token_arrays(sentences, vocab, t)
    partials = [count_preposition_slices(sentences, vocab, t, token_ids=token_ids),
                count_extra_slice(sentences, vocab, t, token_ids=token_ids)]
    # Freed before the merge, which holds both partials and their sum.
    del token_ids
    return merge_counts(partials)


def save_tensor(tensor: SparseCountTensor, path, columns_path=None) -> None:
    """Write the text format: a header line then one `i j k count` line
    per nonzero, in ascending (k, i, j) order. With ``columns_path``,
    also write there the columns file load_tensor reads in place of the
    body: an uncompressed npz of the four columns, each int32 where its
    values fit and int64 otherwise, and ``text_sha256``, the digest of
    the text bytes as they were written."""
    columns = [getattr(tensor, name) for name in _COLUMNS]
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        def write(text: str) -> None:
            data = text.encode("ascii")
            digest.update(data)
            fh.write(data)

        write(f"{TENSOR_MAGIC} v1 {tensor.n_words} {tensor.n_prepositions} "
              f"{tensor.nnz} {tensor.window_t}\n")
        for start in range(0, tensor.nnz, _LOAD_CHUNK_LINES):
            rows = np.stack([col[start:start + _LOAD_CHUNK_LINES] for col in columns],
                            axis=1)
            write(("%d %d %d %d\n" * len(rows)) % tuple(rows.ravel().tolist()))
    if columns_path is not None:
        # np.savez's layout, written a member at a time, so that one
        # narrowed column is held at once where np.savez takes all four.
        with open(columns_path, "wb") as fh, zipfile.ZipFile(fh, "w") as archive:
            def put(name: str, array: np.ndarray) -> None:
                with archive.open(name + ".npy", "w", force_zip64=True) as member:
                    np.lib.format.write_array(member, array)

            for name, col in zip(_COLUMNS, columns):
                fits = not len(col) or _INT32.min <= col.min() and col.max() <= _INT32.max
                put(name, col.astype(np.int32) if fits else col)
            put("text_sha256", np.array(digest.hexdigest()))


def load_tensor(path) -> SparseCountTensor:
    """Read a ``save_tensor`` file; its body lines may come in any order,
    each coordinate once.

    The entries come from the columns file ``<stem>.npz`` beside it when
    that file records the digest of these text bytes and its columns
    read back whole (see _read_columns); otherwise the body is parsed by
    parse_rows into columns sized by the header's nnz. Both go through
    one value check, and a columns file that fails either is ignored
    with an INFO line, so the text decides every error. The tensor's
    ``source`` says which was read.
    """
    with open_input(path) as fh:
        header = fh.readline().split()
        if len(header) != 6 or header[0] != TENSOR_MAGIC or header[1] != "v1":
            raise ValueError("line 1: bad tensor header")
        n, k_preps, nnz, t = parse_integers(header[2:], 1)
        if min(n, k_preps, nnz) < 0:
            raise ValueError("line 1: negative size in header")
        if t < 1:
            raise ValueError(f"line 1: window must be >= 1, got {t}")
        if (columns_path := Path(path).with_suffix(".npz")).exists():
            try:
                return _checked_tensor(n, k_preps, nnz, t, "columns",
                                       *_read_columns(columns_path, path, nnz))
            except ValueError as exc:
                logger.info("%s ignored, parsing the text: %s", columns_path,
                            str(exc).removeprefix(f"{columns_path}: "))
        # A body line takes at least 8 bytes ("0 0 0 1\n"), so a header
        # declaring more entries than the file can hold allocates no more.
        cols = np.empty((4, min(nnz, os.fstat(fh.fileno()).st_size // 8 + 1)),
                        dtype=np.int64)
        # Filled through its transpose, so each column stays contiguous.
        return _checked_tensor(n, k_preps, nnz, t, "text",
                               *parse_rows(fh, 4, 2, np.int64, out=cols.T).T)


def _read_columns(columns_path, text_path, nnz: int) -> np.ndarray:
    """The int64 columns i, j, k, counts of the columns file at
    ``columns_path``, as the rows of one block. The file must record the
    digest of the text at ``text_path`` and hold ``nnz`` int32 or int64
    values per column, which read back without a zip CRC-32 or format
    error; anything else is a ValueError. One column is read and widened
    at a time."""
    try:
        # What np.load opens an npz file as; it takes nothing but a zip,
        # and no pickled member.
        with (open_input(columns_path, "rb") as fh,
              np.lib.npyio.NpzFile(fh) as archive):
            if str(archive["text_sha256"]) != input_digest(text_path):
                raise ValueError(f"written for other text than {text_path}")
            # A value takes at least 4 bytes, so a header declaring more
            # entries than the file can hold allocates nothing.
            if 16 * nnz > os.fstat(fh.fileno()).st_size:
                raise ValueError(f"too small to hold {nnz} entries")
            # One block, as the text is parsed into: once it is freed,
            # glibc serves nnz-sized arrays from its heap. Four separate
            # columns cost each later decompose and spectrum in one
            # process about 70,000 more page faults (seed-0 1 MB Zipf).
            columns = np.empty((len(_COLUMNS), nnz), dtype=np.int64)
            for row, name in zip(columns, _COLUMNS):
                column = archive[name]
                if column.shape != (nnz,) or column.dtype not in (np.int32, np.int64):
                    raise ValueError(f"{name} is not {nnz} int32 or int64 values")
                row[:] = column
                del column
            return columns
    except _COLUMN_FILE_ERRORS as exc:
        raise ValueError(f"{columns_path}: {exc}") from None


def _checked_tensor(n: int, k_preps: int, nnz: int, t: int, source: str,
                    i, j, k, counts) -> SparseCountTensor:
    """The tensor of the columns read for a header (n, k_preps, nnz, t):
    a ValueError names the body line of the first entry whose count is
    below 1 or whose index is out of range, then that of the first
    repeated coordinate, then an nnz other than the header's."""
    if len(counts) and (counts.min() < 1 or min(i.min(), j.min(), k.min()) < 0
                        or max(i.max(), j.max()) >= n or k.max() > k_preps):
        row = np.flatnonzero((counts < 1) | (i >= n) | (j >= n) | (k > k_preps)
                             | (np.minimum(np.minimum(i, j), k) < 0))[0]
        raise ValueError(f"line {row + 2}: " + ("count must be >= 1"
                         if counts[row] < 1 else "index out of range"))
    tensor = SparseCountTensor(n, k_preps, t, i, j, k, counts)
    if tensor.nnz != len(counts):
        first = np.zeros(len(counts), dtype=bool)
        first[np.unique((k * n + i) * n + j, return_index=True)[1]] = True
        repeat = np.argmin(first)
        raise ValueError(f"line {repeat + 2}: repeated coordinate "
                         f"{i[repeat]} {j[repeat]} {k[repeat]}")
    if tensor.nnz != nnz:
        raise ValueError(f"header declares nnz={nnz} but found {tensor.nnz}")
    tensor.source = source
    return tensor


def save_vocabulary(vocab: Vocabulary, path) -> None:
    """Write `token<TAB>frequency<TAB>id` lines, words first, then the
    preposition roster after a sentinel line."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, tok in enumerate(vocab.words):
            fh.write(f"{tok}\t{vocab.counts[tok]}\t{i}\n")
        fh.write(PREP_SENTINEL + "\n")
        for k, tok in enumerate(vocab.prepositions):
            fh.write(f"{tok}\t{vocab.counts[tok]}\t{k}\n")


def load_vocabulary(path) -> Vocabulary:
    """Read a ``save_vocabulary`` file: only what its writer writes and
    emb.txt can carry, so one sentinel line, tokens that _check_token
    accepts and counts of at least 0."""
    words: list[str] = []
    preps: list[str] = []
    counts: dict[str, int] = {}
    in_preps = False
    with open_input(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            if line == PREP_SENTINEL:
                if in_preps:
                    raise ValueError(f"line {lineno}: second {PREP_SENTINEL} line")
                in_preps = True
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ValueError(f"line {lineno}: expected 3 tab-separated fields")
            tok, freq, idx = parts
            _check_token(tok, lineno)
            if tok in counts:
                raise ValueError(f"line {lineno}: token {tok!r} listed twice")
            freq, idx = parse_integers((freq, idx), lineno)
            if freq < 0:
                raise ValueError(f"line {lineno}: negative count {freq}")
            target = preps if in_preps else words
            if idx != len(target):
                raise ValueError(f"line {lineno}: id {idx} out of order")
            target.append(tok)
            counts[tok] = freq
    return Vocabulary(words=words, prepositions=preps, counts=counts)


def load_roster(path) -> list[str]:
    """One token per line, lowercased, each once and without inner
    whitespace; blank lines and `#` comments ignored."""
    roster = {}
    with open_input(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            tok = line.strip().lower()
            if not tok or tok.startswith("#"):
                continue
            _check_token(tok, lineno)
            if tok in roster:
                raise ValueError(f"line {lineno}: token {tok!r} listed twice")
            roster[tok] = None
    return list(roster)


def _check_token(tok: str, lineno: int) -> None:
    """A ValueError naming line ``lineno`` unless ``tok`` can be a row of
    emb.txt: one whitespace-free field, not its reserved row."""
    if not tok:
        raise ValueError(f"line {lineno}: empty token")
    if tok.split() != [tok]:
        raise ValueError(f"line {lineno}: token {tok!r} contains whitespace")
    if tok == NOPREP_TOKEN:
        raise ValueError(f"line {lineno}: token {tok!r} is reserved")
