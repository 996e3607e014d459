import numpy as np
import pytest

from preptensor import corpus
from preptensor.corpus import (
    SparseCountTensor,
    build_vocabulary,
    count_extra_slice,
    count_preposition_slices,
    count_tensor,
    load_tensor,
    load_vocabulary,
    merge_counts,
    save_tensor,
    save_vocabulary,
    tokenize_sentences,
)

from conftest import brute_force_tensor, random_corpus


class TestTokenize:
    def test_basic_sentences(self):
        assert tokenize_sentences("Dogs chase cats. Cats flee.") == [
            ["dogs", "chase", "cats"],
            ["cats", "flee"],
        ]

    def test_empty_input(self):
        assert tokenize_sentences("") == []

    def test_lowercase_and_punctuation(self):
        assert tokenize_sentences("He SAT on mats!") == [["he", "sat", "on", "mats"]]

    def test_bad_utf8_reports_offset(self):
        with pytest.raises(ValueError, match="byte offset 4"):
            tokenize_sentences(b"abcd\xff\xfe")


class TestVocabulary:
    def test_min_count_threshold(self):
        vocab = build_vocabulary([["a", "b", "a"]], min_count=2, roster=[])
        assert vocab.words == ["a"]
        assert vocab.n_words == 1

    def test_unseen_roster_token_kept(self):
        vocab = build_vocabulary([["x", "y"]], min_count=1, roster=["onto"])
        assert vocab.prepositions == ["onto"]
        assert "onto" not in vocab.word_ids

    def test_min_count_one_keeps_everything(self):
        vocab = build_vocabulary([["x", "y", "z"]], min_count=1, roster=[])
        assert set(vocab.words) == {"x", "y", "z"}

    def test_words_exclude_roster(self):
        vocab = build_vocabulary([["on", "on", "on", "cat"]], min_count=1,
                                 roster=["on"])
        assert "on" not in vocab.words
        assert set(vocab.words) == {"cat"}

    def test_word_ids_bijective(self):
        vocab = build_vocabulary([["a", "b", "c", "b"]], min_count=1, roster=[])
        assert sorted(vocab.word_ids.values()) == list(range(vocab.n_words))

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty corpus"):
            build_vocabulary([], min_count=1, roster=[])


class TestPrepositionSlices:
    def test_hand_enumerated_window(self, tiny_vocab):
        sent = [["cats", "sat", "on", "mats", "quietly"]]
        tensor = count_preposition_slices(sent, tiny_vocab, t=3)
        k = tiny_vocab.prep_ids["on"]
        # 4 window words -> 12 ordered pairs, each counted once.
        assert tensor.nnz == 12
        assert all(kk == k for (_, _, kk) in tensor.entries)
        wid = tiny_vocab.word_ids
        assert tensor.count(wid["sat"], wid["mats"], k) == 1
        assert tensor.count(wid["mats"], wid["sat"], k) == 1

    def test_sentence_without_preposition(self, tiny_vocab):
        tensor = count_preposition_slices([["dogs", "chase", "cats"]],
                                          tiny_vocab, t=3)
        assert tensor.nnz == 0

    def test_lone_preposition(self, tiny_vocab):
        tensor = count_preposition_slices([["on"]], tiny_vocab, t=3)
        assert tensor.nnz == 0

    def test_symmetry(self, tiny_vocab):
        rng = np.random.default_rng(5)
        sentences = random_corpus(rng, 50, 8, ["on", "of", "in"])
        vocab = build_vocabulary(sentences, 1, ["on", "of", "in"])
        tensor = count_preposition_slices(sentences, vocab, t=3)
        for (i, j, k), c in tensor.entries.items():
            assert tensor.count(j, i, k) == c


class TestExtraSlice:
    def test_no_preposition_sentence(self, tiny_vocab):
        tensor = count_extra_slice([["dogs", "chase", "cats"]], tiny_vocab, t=3)
        k = tiny_vocab.n_prepositions
        assert tensor.nnz == 6
        assert all(c == 1 for c in tensor.entries.values())
        assert all(kk == k for (_, _, kk) in tensor.entries)

    def test_all_tokens_inside_window(self, tiny_vocab):
        tensor = count_extra_slice([["cats", "sat", "on", "mats", "quietly"]],
                                   tiny_vocab, t=3)
        assert tensor.nnz == 0

    def test_pair_beyond_double_window(self, tiny_vocab):
        sent = [["cats"] + ["sat"] * 6 + ["mats"]]
        tensor = count_extra_slice(sent, tiny_vocab, t=3)
        wid = tiny_vocab.word_ids
        k = tiny_vocab.n_prepositions
        # cats..mats are 7 apart: never counted together.
        assert tensor.count(wid["cats"], wid["mats"], k) == 0


class TestMerge:
    def test_identity_element(self, tiny_vocab):
        sentences = [["cats", "sat", "on", "mats"]]
        tensor = count_tensor(sentences, tiny_vocab, 3)
        empty = SparseCountTensor(tiny_vocab.n_words, tiny_vocab.n_prepositions, 3)
        assert merge_counts([tensor, empty]) == tensor

    def test_commutative(self, tiny_vocab):
        a = count_tensor([["cats", "sat", "on", "mats"]], tiny_vocab, 3)
        b = count_tensor([["dogs", "chase", "cats"]], tiny_vocab, 3)
        assert merge_counts([a, b]) == merge_counts([b, a])

    def test_counts_add(self):
        a = SparseCountTensor(3, 1, 3, {(0, 1, 0): 1})
        b = SparseCountTensor(3, 1, 3, {(0, 1, 0): 1})
        assert merge_counts([a, b]).count(0, 1, 0) == 2

    def test_dimension_mismatch(self):
        a = SparseCountTensor(3, 1, 3)
        b = SparseCountTensor(4, 1, 3)
        with pytest.raises(ValueError, match="cannot merge"):
            merge_counts([a, b])

    def test_shard_determinism(self, tiny_vocab):
        rng = np.random.default_rng(11)
        sentences = random_corpus(rng, 60, 10, ["on", "of", "in"])
        whole = count_tensor(sentences, tiny_vocab, 3)
        shards = [sentences[s::4] for s in range(4)]
        partials = [count_tensor(shard, tiny_vocab, 3) for shard in shards]
        assert merge_counts(partials) == whole
        assert merge_counts(partials[::-1]) == whole


class TestOracleEquivalence:
    def test_small_random_corpora(self):
        rng = np.random.default_rng(42)
        roster = ["on", "of", "in"]
        for _ in range(20):
            sentences = random_corpus(rng, 30, 15, roster)
            vocab = build_vocabulary(sentences, 1, roster)
            assert count_tensor(sentences, vocab, 3) == brute_force_tensor(
                sentences, vocab, 3)

    def test_sparsity_bound(self, tiny_vocab):
        rng = np.random.default_rng(3)
        sentences = random_corpus(rng, 40, 10, ["on", "of", "in"])
        vocab = build_vocabulary(sentences, 1, ["on", "of", "in"])
        tensor = count_tensor(sentences, vocab, 3)
        bound = sum(len(s) ** 2 for s in sentences) * (vocab.n_prepositions + 1)
        assert tensor.nnz <= bound


class TestTensorIO:
    def test_round_trip(self, tiny_vocab, tmp_path):
        tensor = count_tensor([["cats", "sat", "on", "mats", "quietly"]],
                              tiny_vocab, 3)
        path = tmp_path / "tensor.txt"
        save_tensor(tensor, path)
        assert load_tensor(path) == tensor

    def test_empty_round_trip(self, tmp_path):
        tensor = SparseCountTensor(5, 2, 3)
        path = tmp_path / "tensor.txt"
        save_tensor(tensor, path)
        loaded = load_tensor(path)
        assert loaded == tensor
        assert loaded.nnz == 0

    def test_negative_count_rejected(self, tmp_path):
        path = tmp_path / "tensor.txt"
        path.write_text("PREPTENSOR v1 5 2 1 3\n0 1 0 -4\n")
        with pytest.raises(ValueError, match="line 2"):
            load_tensor(path)

    def test_corrupt_header_rejected(self, tmp_path):
        path = tmp_path / "tensor.txt"
        path.write_text("NOTATENSOR v1 5 2 0 3\n")
        with pytest.raises(ValueError, match="line 1"):
            load_tensor(path)

    def test_truncated_body_rejected(self, tmp_path):
        path = tmp_path / "tensor.txt"
        path.write_text("PREPTENSOR v1 5 2 2 3\n0 1 0 1\n")
        with pytest.raises(ValueError, match="nnz"):
            load_tensor(path)


def _tensor_text(lines, nnz=None, n=5, eol="\n"):
    """A tensor file with K=2 and t=3 whose header declares ``nnz``
    entries (by default one per line)."""
    nnz = len(lines) if nnz is None else nnz
    return eol.join([f"PREPTENSOR v1 {n} 2 {nnz} 3", *lines]) + eol


_GOOD = ["2 3 1 7", "0 1 0 3", "4 4 2 1", "1 0 2 2"]


def _good_with(line):
    return _tensor_text(_GOOD[:2] + [line] + _GOOD[3:])


def _two_chunks(bad_line=None):
    """Just over one parse chunk of distinct entries; ``bad_line``
    replaces a line in the second chunk."""
    size = corpus._LOAD_CHUNK_LINES + 10
    lines = [f"{e % 300} {e // 300 % 300} {e // 90000} {e % 7 + 1}"
             for e in range(size)]
    if bad_line is not None:
        lines[size - 5] = bad_line
    return _tensor_text(lines, n=300)


# name, file text, outcome: "arrays" files must load without the
# per-line parser, "lines" files load only through it, "error" files
# are rejected.
LOADER_CASES = [
    ("valid", lambda: _tensor_text(_GOOD), "arrays"),
    ("bad header", lambda: "PREPTENSOR v1 5 two 0 3\n", "error"),
    ("no body", lambda: _tensor_text([]), "arrays"),
    ("crlf", lambda: _tensor_text(_GOOD, eol="\r\n"), "arrays"),
    ("no final newline", lambda: _tensor_text(_GOOD)[:-1], "arrays"),
    ("blank line", lambda: _tensor_text(_GOOD[:2] + [""] + _GOOD[2:], nnz=4),
     "error"),
    ("trailing blank line", lambda: _tensor_text(_GOOD) + "\n", "error"),
    ("duplicate line, nnz of keys",
     lambda: _tensor_text(_GOOD + [_GOOD[0]], nnz=4), "arrays"),
    ("repeated coordinate, new count",
     lambda: _tensor_text(_GOOD + ["0 1 0 9"], nnz=4), "arrays"),
    ("duplicate line, nnz of lines", lambda: _tensor_text(_GOOD + [_GOOD[0]]),
     "error"),
    ("3 fields", lambda: _good_with("4 4 2"), "error"),
    ("5 fields", lambda: _good_with("4 4 2 1 1"), "error"),
    ("float count", lambda: _good_with("4 4 2 1.0"), "error"),
    ("underscore count", lambda: _good_with("4 4 2 1_0"), "lines"),
    ("plus sign", lambda: _good_with("4 4 2 +1"), "arrays"),
    ("arabic-indic digit", lambda: _good_with("4 4 2 \u0663"), "lines"),
    ("nbsp separator", lambda: _good_with("4\u00a04 2 1"), "arrays"),
    ("count 0", lambda: _good_with("4 4 2 0"), "error"),
    ("i out of range", lambda: _good_with("5 4 2 1"), "error"),
    ("j negative", lambda: _good_with("4 -1 2 1"), "error"),
    ("k out of range", lambda: _good_with("4 4 3 1"), "error"),
    ("count beyond int64", lambda: _good_with(f"4 4 2 {2 ** 63}"), "lines"),
    ("index beyond int64", lambda: _good_with(f"{2 ** 63} 4 2 1"), "error"),
    ("two chunks", _two_chunks, "arrays"),
    ("error in second chunk", lambda: _two_chunks("0 0 0 zero"), "error"),
]


def _load_outcome(load, path):
    try:
        return load(path)
    except ValueError as exc:
        return str(exc)


class TestTensorLoaderEquivalence:
    """``load_tensor`` against the per-line parser it falls back to."""

    @pytest.mark.parametrize("make_text, outcome",
                             [pytest.param(make, outcome, id=name)
                              for name, make, outcome in LOADER_CASES])
    def test_matches_line_parser(self, tmp_path, monkeypatch, make_text, outcome):
        path = tmp_path / "tensor.txt"
        path.write_bytes(make_text().encode("utf-8"))
        expected = _load_outcome(corpus._load_tensor_lines, path)
        if outcome == "arrays":
            def no_fallback(path):
                raise AssertionError(f"{path} was read line by line")
            monkeypatch.setattr(corpus, "_load_tensor_lines", no_fallback)
        got = _load_outcome(load_tensor, path)
        assert got == expected
        if outcome == "error":
            assert isinstance(expected, str)
        else:
            assert isinstance(expected, SparseCountTensor)
            assert list(got.entries.items()) == list(expected.entries.items())


class TestVocabularyIO:
    def test_round_trip(self, tiny_vocab, tmp_path):
        path = tmp_path / "vocab.txt"
        save_vocabulary(tiny_vocab, path)
        loaded = load_vocabulary(path)
        assert loaded.words == tiny_vocab.words
        assert loaded.prepositions == tiny_vocab.prepositions
        assert loaded.word_ids == tiny_vocab.word_ids

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("cat\t3\n")
        with pytest.raises(ValueError, match="line 1"):
            load_vocabulary(path)
