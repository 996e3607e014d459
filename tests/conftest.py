import re
import tracemalloc
import zipfile

import numpy as np
import pytest

from preptensor.corpus import SparseCountTensor, build_vocabulary
from preptensor.embeddings import EmbeddingStore

_CRITERION_RE = re.compile(r"test_criterion_(\d+)_(\w+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One PASS/FAIL line per acceptance criterion in the summary."""
    results = {}
    for outcome in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(outcome, []):
            if getattr(rep, "when", "call") != "call" and outcome != "error":
                continue
            match = _CRITERION_RE.search(rep.nodeid)
            if match:
                number = int(match.group(1))
                name = match.group(2).replace("_", " ")
                results[number] = (name, outcome == "passed")
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(results):
        name, ok = results[number]
        terminalreporter.write_line(
            f"[{'PASS' if ok else 'FAIL'}] criterion {number:02d}: {name}")


def make_store(vectors, q_const=None):
    """An EmbeddingStore holding ``{token: vector}`` in dict order; the
    extra-slice vector defaults to zero."""
    matrix = np.array([np.asarray(v, dtype=np.float64) for v in vectors.values()])
    if q_const is None:
        q_const = np.zeros(matrix.shape[1])
    return EmbeddingStore(tokens=list(vectors), matrix=matrix,
                          q_const=np.asarray(q_const, dtype=np.float64))


def assembled(rows):
    """Every row of a ``CandidateRows``, gathered into one array."""
    return rows.take(np.arange(len(rows)), np.empty(rows.shape, rows.scalars.dtype))


def traced_peak(fn):
    """``fn()`` and the peak of the memory it allocated, in bytes."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def brute_force_tensor(sentences, vocab, t):
    """Independent O(len^2) per-sentence oracle for the count tensor.

    Walks every (position, position, preposition-occurrence) combination
    directly instead of enumerating windows.
    """
    counts = {}
    k_extra = vocab.n_prepositions
    for sent in sentences:
        n = len(sent)
        prep_occurrences = [(p, vocab.prep_ids[sent[p]]) for p in range(n)
                            if sent[p] in vocab.prep_ids]
        for a in range(n):
            for b in range(n):
                if a == b:
                    continue
                if sent[a] not in vocab.word_ids or sent[b] not in vocab.word_ids:
                    continue
                ia = vocab.word_ids[sent[a]]
                jb = vocab.word_ids[sent[b]]
                for pos, k in prep_occurrences:
                    if abs(a - pos) <= t and abs(b - pos) <= t and a != pos and b != pos:
                        counts[(ia, jb, k)] = counts.get((ia, jb, k), 0) + 1
                if abs(a - b) <= 2 * t:
                    a_outside = all(abs(a - pos) > t for pos, _ in prep_occurrences)
                    b_outside = all(abs(b - pos) > t for pos, _ in prep_occurrences)
                    if a_outside or b_outside:
                        counts[(ia, jb, k_extra)] = counts.get((ia, jb, k_extra), 0) + 1
    # The i, j and k columns of the keys, and the counts.
    return SparseCountTensor(vocab.n_words, vocab.n_prepositions, t, *zip(*counts),
                             counts=list(counts.values()))


def random_corpus(rng, n_sentences, vocab_size, roster, max_len=12,
                  prep_prob=0.25):
    words = [f"w{idx}" for idx in range(vocab_size)]
    sentences = []
    for _ in range(n_sentences):
        length = int(rng.integers(1, max_len + 1))
        sent = []
        for _ in range(length):
            if roster and rng.random() < prep_prob:
                sent.append(roster[int(rng.integers(len(roster)))])
            else:
                sent.append(words[int(rng.integers(vocab_size))])
        sentences.append(sent)
    return sentences


@pytest.fixture
def tiny_vocab():
    sentences = [["cats", "sat", "on", "mats", "quietly"],
                 ["dogs", "chase", "cats"]]
    return build_vocabulary(sentences, min_count=1, roster=["on", "of", "in"])


def _rewrite_columns(columns, **changes):
    """Rewrite the binary copy ``columns`` (a tensor's columns or an
    embeddings copy) with ``changes`` to its members (None drops one);
    the others, text_sha256 included, kept."""
    with np.load(columns) as archive:
        members = {name: archive[name] for name in archive.files}
    members.update(changes)
    np.savez(columns, **{name: a for name, a in members.items() if a is not None})


def _flip_last_data_byte(columns, text):
    """Flip the last data byte of the member before text_sha256 (the
    tensor's counts, the embeddings' matrix), which its CRC-32 covers."""
    with zipfile.ZipFile(columns) as archive:
        offset = archive.getinfo("text_sha256.npy").header_offset - 1
    raw = bytearray(columns.read_bytes())
    raw[offset] ^= 0xFF
    columns.write_bytes(bytes(raw))


def _raise_last_count(columns, text):
    """Rewrite the text with its last count one higher: a valid tensor of
    as many entries, which only the digest tells from the columns'."""
    lines = text.read_text().splitlines(keepends=True)
    i, j, k, count = lines[-1].split()
    lines[-1] = f"{i} {j} {k} {int(count) + 1}\n"
    text.write_text("".join(lines))


def _with_column(name, change):
    """A spoiler rewriting column ``name`` as ``change`` of it."""
    def spoil(columns, text):
        with np.load(columns) as archive:
            column = archive[name]
        _rewrite_columns(columns, **{name: change(column)})
    return spoil


def _set(index, value):
    def change(column):
        column = column.copy()
        column[index] = value
        return column
    return change


def _repeat_first_entry(columns, text):
    """Give the second entry the first one's coordinate."""
    with np.load(columns) as archive:
        changes = {name: _set(1, archive[name][0])(archive[name])
                   for name in ("i", "j", "k")}
    _rewrite_columns(columns, **changes)


def _write_npy(columns, text):
    with open(columns, "wb") as fh:
        np.save(fh, np.arange(3))


# Ways a tensor directory's columns file (tensor.npz beside tensor.txt,
# written for at least two entries of N >= 2 words) fails to match its
# text, each applied as spoil(columns_path, text_path): the loader must
# parse the text instead.
COLUMN_SPOILERS = {
    "no columns file": lambda columns, text: columns.unlink(),
    "stale digest": lambda columns, text: _rewrite_columns(
        columns, text_sha256=np.array("0" * 64)),
    "edited text": _raise_last_count,
    "flipped byte": _flip_last_data_byte,
    "truncated": lambda columns, text: columns.write_bytes(
        columns.read_bytes()[:columns.stat().st_size // 2]),
    "missing member": lambda columns, text: _rewrite_columns(columns, counts=None),
    "wrong length": _with_column("i", lambda column: column[:-1]),
    "wrong dtype": _with_column("counts", lambda column: column.astype(np.float64)),
    "count below 1": _with_column("counts", _set(0, 0)),
    "index out of range": _with_column("j", _set(0, 2 ** 30)),
    "repeated coordinate": _repeat_first_entry,
    "not an npz": _write_npy,
    "not a zip": lambda columns, text: columns.write_bytes(b"not a zip file"),
}


def _with_tokens(change):
    """A spoiler rewriting an embeddings copy's token list as ``change``
    of it, kept as the UTF-8 bytes of the space-joined list."""
    def spoil(copy, text):
        with np.load(copy) as archive:
            tokens = archive["tokens"].tobytes().decode("utf-8").split(" ")
        _rewrite_columns(copy, tokens=np.frombuffer(
            " ".join(change(tokens)).encode("utf-8"), np.uint8))
    return spoil


def _edit_first_value(copy, text):
    """Rewrite emb.txt with its first value changed: valid text of as many
    rows, which only the digest tells from the copy's."""
    lines = text.read_text(encoding="utf-8").splitlines(keepends=True)
    token, _value, rest = lines[1].split(" ", 2)
    lines[1] = f"{token} 7 {rest}"
    text.write_text("".join(lines), encoding="utf-8")


def _drop_last_row(copy, text):
    """Drop the copy's last token and row, the reserved token's."""
    with np.load(copy) as archive:
        tokens = archive["tokens"].tobytes().decode("utf-8").split(" ")
        matrix = archive["matrix"]
    _rewrite_columns(copy, matrix=matrix[:-1], tokens=np.frombuffer(
        " ".join(tokens[:-1]).encode("utf-8"), np.uint8))


# Ways an embeddings copy (emb.txt.npz beside emb.txt, written for at
# least three rows besides __NOPREP__) fails to vouch for its text, each
# applied as spoil(copy_path, text_path): the loader must parse the text.
EMBEDDING_COPY_SPOILERS = {
    "no copy": lambda copy, text: copy.unlink(),
    "stale digest": lambda copy, text: _rewrite_columns(
        copy, text_sha256=np.array("0" * 64)),
    "edited text": _edit_first_value,
    "flipped byte": _flip_last_data_byte,
    "truncated": lambda copy, text: copy.write_bytes(
        copy.read_bytes()[:copy.stat().st_size // 2]),
    "missing member": lambda copy, text: _rewrite_columns(copy, matrix=None),
    "wrong shape": _with_column("matrix", lambda matrix: matrix[:-1]),
    "wrong dtype": _with_column("matrix", lambda matrix: matrix.view(np.int64)),
    "byte-swapped": _with_column("matrix", lambda matrix: matrix.astype(">f8")),
    "Fortran order": _with_column("matrix", np.asfortranarray),
    "tokens not bytes": _with_column("tokens", lambda tokens: tokens.astype(np.int64)),
    "bytes not UTF-8": _with_column("tokens", _set(0, 0xFF)),
    "repeated token": _with_tokens(lambda tokens: [tokens[0], *tokens[1:-2], tokens[0],
                                                   tokens[-1]]),
    "empty token": _with_tokens(lambda tokens: ["", *tokens[1:]]),
    "whitespace token": _with_tokens(lambda tokens: ["a\tb", *tokens[1:]]),
    "non-finite value": _with_column("matrix", _set(0, np.nan)),
    "no __NOPREP__ row": _drop_last_row,
    "not an npz": _write_npy,
    "not a zip": lambda copy, text: copy.write_bytes(b"not a zip file"),
}
