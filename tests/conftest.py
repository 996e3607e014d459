import re
import tracemalloc

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
