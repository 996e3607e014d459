import logging
import shutil
import zipfile
from pathlib import Path

import numpy as np
import pytest

from preptensor import corpus
from preptensor.corpus import (
    SparseCountTensor,
    Vocabulary,
    build_vocabulary,
    count_extra_slice,
    count_preposition_slices,
    count_tensor,
    load_roster,
    load_tensor,
    load_vocabulary,
    merge_counts,
    save_tensor,
    save_vocabulary,
    tokenize_sentences,
)

from conftest import COLUMN_SPOILERS, brute_force_tensor, random_corpus, traced_peak


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

    def test_equal_tokens_share_one_string(self):
        sents = tokenize_sentences("The cats sat. the cats ran!")
        assert sents == [["the", "cats", "sat"], ["the", "cats", "ran"]]
        assert sents[0][0] is sents[1][0] and sents[0][1] is sents[1][1]

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


class TestRoster:
    def test_repeated_token_rejected(self, tmp_path):
        path = tmp_path / "roster.txt"
        path.write_text("in\nof\n\n# on\non\nOf\n")
        with pytest.raises(ValueError) as info:
            load_roster(path)
        assert str(info.value) == f"{path}: line 6: token 'of' listed twice"

    def test_token_with_inner_whitespace_rejected(self, tmp_path):
        """vocab.txt and emb.txt could not carry it."""
        path = tmp_path / "roster.txt"
        path.write_text("in\nout of\n")
        with pytest.raises(ValueError) as info:
            load_roster(path)
        assert str(info.value) == f"{path}: line 2: token 'out of' contains whitespace"

    def test_bundled_lists_are_distinct(self):
        for name in ("prepositions_49.txt", "context_stoplist.txt"):
            tokens = load_roster(Path(corpus.__file__).parent / "data" / name)
            assert len(tokens) == len(set(tokens)) > 0, name


class TestPrepositionSlices:
    def test_hand_enumerated_window(self, tiny_vocab):
        sent = [["cats", "sat", "on", "mats", "quietly"]]
        tensor = count_preposition_slices(sent, tiny_vocab, t=3)
        k = tiny_vocab.prep_ids["on"]
        # 4 window words -> 12 ordered pairs, each counted once.
        assert tensor.nnz == 12
        assert all(kk == k for (_, _, kk) in tensor.entries)
        wid = tiny_vocab.word_ids
        assert tensor.entries.get((wid["sat"], wid["mats"], k), 0) == 1
        assert tensor.entries.get((wid["mats"], wid["sat"], k), 0) == 1

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
        entries = tensor.entries
        for (i, j, k), c in entries.items():
            assert entries.get((j, i, k), 0) == c


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
        assert tensor.entries.get((wid["cats"], wid["mats"], k), 0) == 0


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

    def test_constructor_sums_repeated_coordinates(self):
        tensor = SparseCountTensor(3, 1, 3, [2, 0, 2, 0, 1], [1, 1, 1, 1, 2],
                                   [0, 1, 0, 1, 1], [4, 1, 5, 2, 7])
        assert list(tensor.entries.items()) == [((2, 1, 0), 9), ((0, 1, 1), 3),
                                                ((1, 2, 1), 7)]
        assert all(a.dtype == np.int64 and a.flags.c_contiguous
                   for a in (tensor.i, tensor.j, tensor.k, tensor.counts))
        with pytest.raises(TypeError):
            tensor.entries[(0, 0, 0)] = 1

    def test_counts_add(self):
        a = SparseCountTensor(3, 1, 3, [0], [1], [0], [1])
        b = SparseCountTensor(3, 1, 3, [0], [1], [0], [1])
        assert merge_counts([a, b]).entries.get((0, 1, 0), 0) == 2

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


def _corpus_with_edges(rng, roster):
    """Random sentences plus the edge cases: a sentence of prepositions
    only, one of words only, one token, and a word-free gap."""
    sentences = random_corpus(rng, 40, 9, roster)
    sentences += [list(roster), ["w1", "w2", "w3", "w4"], ["w5"],
                  ["w0", "on", "zz", "zz", "zz", "zz", "w2", "of", "w3"]]
    return sentences


class TestArrayCounting:
    ROSTER = ["on", "of", "in"]

    @pytest.mark.parametrize("t", [1, 2, 3, 4])
    def test_matches_oracle(self, t):
        rng = np.random.default_rng(100 + t)
        for _ in range(5):
            sentences = _corpus_with_edges(rng, self.ROSTER)
            vocab = build_vocabulary(sentences, 2, self.ROSTER)
            assert count_tensor(sentences, vocab, t) == brute_force_tensor(
                sentences, vocab, t)

    def test_window_past_the_longest_sentence(self):
        """Counting caps the window at the longest sentence, past which a
        wider window counts the same pairs; the tensor keeps the window
        it was given."""
        rng = np.random.default_rng(11)
        sentences = _corpus_with_edges(rng, self.ROSTER)
        vocab = build_vocabulary(sentences, 1, self.ROSTER)
        longest = max(map(len, sentences))
        for t in (longest - 1, longest, longest + 3):
            assert count_tensor(sentences, vocab, t) == brute_force_tensor(
                sentences, vocab, t)
        huge, capped = (count_tensor(sentences, vocab, t) for t in (2 ** 62, longest))
        assert huge.window_t == 2 ** 62
        assert all(np.array_equal(getattr(huge, name), getattr(capped, name))
                   for name in ("i", "j", "k", "counts"))

    @pytest.mark.parametrize("t", [1, 3])
    def test_small_blocks_cross_sentences(self, monkeypatch, t):
        rng = np.random.default_rng(7)
        sentences = _corpus_with_edges(rng, self.ROSTER)
        vocab = build_vocabulary(sentences, 1, self.ROSTER)
        whole = count_tensor(sentences, vocab, t)
        monkeypatch.setattr(corpus, "_COUNT_BLOCK", 7)
        blocked = count_tensor(sentences, vocab, t)
        assert blocked == whole == brute_force_tensor(sentences, vocab, t)

    def test_count_tensor_converts_tokens_once(self, monkeypatch):
        rng = np.random.default_rng(9)
        sentences = _corpus_with_edges(rng, self.ROSTER)
        vocab = build_vocabulary(sentences, 1, self.ROSTER)
        calls = []
        convert = corpus._token_arrays
        monkeypatch.setattr(corpus, "_token_arrays",
                            lambda *args: calls.append(args) or convert(*args))
        assert count_tensor(sentences, vocab, 2) == brute_force_tensor(sentences, vocab, 2)
        assert len(calls) == 1

    def test_generator_input(self):
        rng = np.random.default_rng(8)
        sentences = _corpus_with_edges(rng, self.ROSTER)
        vocab = build_vocabulary(sentences, 1, self.ROSTER)
        for count in (count_preposition_slices, count_extra_slice):
            assert count((s for s in sentences), vocab, 2) == count(sentences, vocab, 2)

    @pytest.mark.parametrize("sentences", [[["on", "of", "in", "on"]],
                                           [["cats", "sat", "mats"]],
                                           [["on"], ["cats"], []]])
    def test_sentence_without_words_or_prepositions(self, tiny_vocab, sentences):
        assert count_tensor(sentences, tiny_vocab, 2) == brute_force_tensor(
            sentences, tiny_vocab, 2)

    def test_no_words_at_all(self):
        vocab = build_vocabulary([["on", "in"]], 1, self.ROSTER)
        tensor = count_tensor([["on", "in"], ["of"]], vocab, 3)
        assert tensor.dims == (0, 0, 4) and tensor.nnz == 0

    def test_key_range_guard(self):
        corpus._check_key_range(2 ** 31, 0)
        corpus._check_key_range(3_000_000_000, 0)
        with pytest.raises(ValueError, match="N=2147483648 .*K=1 "):
            corpus._check_key_range(2 ** 31, 1)
        with pytest.raises(ValueError, match="N=3037000500 .*K=0 "):
            corpus._check_key_range(3_037_000_500, 0)

    @pytest.mark.parametrize("t", [0, -2])
    def test_window_below_one_rejected_before_counting(self, tiny_vocab, t):
        """The tensor's own window check, before any token is indexed."""
        for count in (count_tensor, count_preposition_slices, count_extra_slice):
            with pytest.raises(ValueError, match=f"^window_t must be >= 1, got {t}$"):
                count([["cats", "sat", "on", "mats"]], tiny_vocab, t)

    def test_count_functions_check_key_range(self, monkeypatch):
        vocab = build_vocabulary([["cats", "on"]], 1, self.ROSTER)
        monkeypatch.setattr(Vocabulary, "n_words", property(lambda self: 2 ** 31))
        for count in (count_preposition_slices, count_extra_slice):
            with pytest.raises(ValueError, match="N=2147483648 .*K=3 "):
                count([["cats", "on"]], vocab, 3)


class TestConstructorOrder:
    @staticmethod
    def _coordinates(rng, size=200):
        keys = np.unique(rng.integers(0, 5 * 9 * 9, size))
        k, rest = np.divmod(keys, 81)
        i, j = np.divmod(rest, 9)
        return i, j, k, rng.integers(1, 50, len(keys))

    def test_ascending_fast_path_equals_key_path(self, monkeypatch):
        rng = np.random.default_rng(9)
        i, j, k, c = self._coordinates(rng)
        perm = rng.permutation(len(c))
        shuffled = SparseCountTensor(9, 4, 2, i[perm], j[perm], k[perm], c[perm])

        def no_sort(keys, counts):
            raise AssertionError("ascending input was sorted")
        monkeypatch.setattr(corpus, "_sum_by_key", no_sort)
        ascending = SparseCountTensor(9, 4, 2, i, j, k, c)
        assert ascending == shuffled
        assert ascending.i is i and ascending.counts is c

    @pytest.mark.parametrize("rows", [
        [(0, 1, 0), (0, 1, 0)],  # repeated coordinate
        [(0, 2, 0), (0, 1, 0)],  # j descends
        [(1, 0, 0), (0, 5, 0)],  # i descends
        [(0, 0, 1), (5, 5, 0)],  # k descends
    ])
    def test_rows_not_strictly_ascending_are_sorted(self, rows):
        i, j, k = (list(col) for col in zip(*rows))
        tensor = SparseCountTensor(6, 1, 1, i, j, k, [1] * len(rows))
        expected = {}
        for row in rows:
            expected[row] = expected.get(row, 0) + 1
        assert tensor == SparseCountTensor(6, 1, 1, *zip(*expected),
                                           counts=list(expected.values()))
        order = list(zip(tensor.k.tolist(), tensor.i.tolist(), tensor.j.tolist()))
        assert order == sorted(set(order))


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

    @pytest.mark.parametrize("header, problem", [
        ("PREPTENSOR v1 5 2 1 0", "window must be >= 1, got 0"),
        ("PREPTENSOR v1 1_0 2 1 3", "non-integer field '1_0'"),
        ("PREPTENSOR v1 5 2 1 \u0663", "non-integer field '\u0663'"),
        ("PREPTENSOR v1 -3 2 0 3", "negative size"),
        ("PREPTENSOR v1 5 -1 0 3", "negative size"),
        ("PREPTENSOR v1 5 2 -1 3", "negative size"),
    ])
    def test_header_fields_checked(self, tmp_path, header, problem):
        path = tmp_path / "tensor.txt"
        path.write_text(header + "\n0 1 0 1\n")
        with pytest.raises(ValueError) as exc:
            load_tensor(path)
        assert str(exc.value).startswith(f"{path}: line 1: ")
        assert problem in str(exc.value)

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


def _two_chunks_arrays():
    """The (k, i, j, counts) of ``_two_chunks()``, sorted by hand."""
    entries = sorted((e // 90000, e % 300, e // 300 % 300, e % 7 + 1)
                     for e in range(corpus._LOAD_CHUNK_LINES + 10))
    return tuple(list(col) for col in zip(*entries))


# (k, i, j, counts) of the _GOOD lines.
_GOOD_ARRAYS = ([0, 1, 2, 2], [0, 2, 1, 4], [1, 3, 0, 4], [3, 7, 2, 1])

# name, file text, outcome: the (k, i, j, counts) lists of the loaded
# tensor, or the error message after the "<path>: " prefix.
LOADER_CASES = [
    ("valid", lambda: _tensor_text(_GOOD), _GOOD_ARRAYS),
    ("bad header", lambda: "PREPTENSOR v1 5 two 0 3\n",
     "line 1: non-integer field 'two'"),
    ("no body", lambda: _tensor_text([]), ([], [], [], [])),
    ("crlf", lambda: _tensor_text(_GOOD, eol="\r\n"), _GOOD_ARRAYS),
    ("no final newline", lambda: _tensor_text(_GOOD)[:-1], _GOOD_ARRAYS),
    ("blank line", lambda: _tensor_text(_GOOD[:2] + [""] + _GOOD[2:], nnz=4),
     "line 4: expected 4 fields, got 0"),
    ("trailing blank line", lambda: _tensor_text(_GOOD) + "\n",
     "line 6: expected 4 fields, got 0"),
    ("duplicate line, nnz of keys",
     lambda: _tensor_text(_GOOD + [_GOOD[0]], nnz=4),
     "line 6: repeated coordinate 2 3 1"),
    ("repeated coordinate, new count",
     lambda: _tensor_text(_GOOD + ["0 1 0 9"], nnz=4),
     "line 6: repeated coordinate 0 1 0"),
    ("duplicate line, nnz of lines", lambda: _tensor_text(_GOOD + [_GOOD[0]]),
     "line 6: repeated coordinate 2 3 1"),
    ("3 fields", lambda: _good_with("4 4 2"), "line 4: expected 4 fields, got 3"),
    ("5 fields", lambda: _good_with("4 4 2 1 1"), "line 4: expected 4 fields, got 5"),
    ("float count", lambda: _good_with("4 4 2 1.0"), "line 4: non-integer field '1.0'"),
    ("underscore count", lambda: _good_with("4 4 2 1_0"),
     "line 4: non-integer field '1_0'"),
    ("plus sign", lambda: _good_with("4 4 2 +1"), _GOOD_ARRAYS),
    ("arabic-indic digit", lambda: _good_with("4 4 2 \u0663"),
     "line 4: non-integer field '\u0663'"),
    ("nbsp separator", lambda: _good_with("4\u00a04 2 1"), _GOOD_ARRAYS),
    ("count 0", lambda: _good_with("4 4 2 0"), "line 4: count must be >= 1"),
    ("i out of range", lambda: _good_with("5 4 2 1"), "line 4: index out of range"),
    ("j negative", lambda: _good_with("4 -1 2 1"), "line 4: index out of range"),
    ("k out of range", lambda: _good_with("4 4 3 1"), "line 4: index out of range"),
    ("count beyond int64", lambda: _good_with(f"4 4 2 {2 ** 63}"),
     f"line 4: integer field '{2 ** 63}' out of range"),
    ("index beyond int64", lambda: _good_with(f"{2 ** 63} 4 2 1"),
     f"line 4: integer field '{2 ** 63}' out of range"),
    ("two chunks", _two_chunks, _two_chunks_arrays()),
    ("error in second chunk", lambda: _two_chunks("0 0 0 zero"),
     f"line {corpus._LOAD_CHUNK_LINES + 7}: non-integer field 'zero'"),
]


class TestTensorLoaderEquivalence:
    """``load_tensor`` against each file's stated outcome: the arrays it
    loads to, or the message the per-line check words for a chunk the
    array parse rejects."""

    @pytest.mark.parametrize("make_text, outcome",
                             [pytest.param(make, outcome, id=name)
                              for name, make, outcome in LOADER_CASES])
    def test_matches_line_parser(self, tmp_path, make_text, outcome):
        path = tmp_path / "tensor.txt"
        path.write_bytes(make_text().encode("utf-8"))
        if isinstance(outcome, str):
            with pytest.raises(ValueError) as exc:
                load_tensor(path)
            assert str(exc.value) == f"{path}: {outcome}"
        else:
            tensor = load_tensor(path)
            got = tuple(getattr(tensor, name).tolist()
                        for name in ("k", "i", "j", "counts"))
            assert got == outcome


class TestVocabularyIO:
    def test_round_trip(self, tiny_vocab, tmp_path):
        path = tmp_path / "vocab.txt"
        save_vocabulary(tiny_vocab, path)
        loaded = load_vocabulary(path)
        assert loaded.words == tiny_vocab.words
        assert loaded.prepositions == tiny_vocab.prepositions
        assert loaded.word_ids == tiny_vocab.word_ids

    def test_built_vocabulary_equals_its_round_trip(self, tmp_path):
        # "mat" and "dog" fall below min_count, and "under" never occurs.
        sentences = tokenize_sentences("The cat sat on a mat. A dog sat in the box. "
                                       "The cat sat on the box.")
        vocab = build_vocabulary(sentences, min_count=2, roster=["on", "in", "under"])
        path = tmp_path / "vocab.txt"
        save_vocabulary(vocab, path)
        assert load_vocabulary(path) == vocab
        assert vocab.counts == {"the": 4, "sat": 3, "box": 2, "cat": 2, "a": 2,
                                "on": 2, "in": 1, "under": 0}

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("cat\t3\n")
        with pytest.raises(ValueError, match="line 1"):
            load_vocabulary(path)

    @pytest.mark.parametrize("text, lineno, field", [
        ("cat\t1_0\t0\n", 1, "1_0"),
        ("cat\t3\t0\n#PREPOSITIONS\non\t\u0663\t0\n", 3, "\u0663"),
        ("cat\t3\t0\ndog\t2\t\uff11\n", 2, "\uff11"),
    ])
    def test_non_ascii_integer_rejected(self, tmp_path, text, lineno, field):
        path = tmp_path / "vocab.txt"
        path.write_text(text)
        with pytest.raises(ValueError) as exc:
            load_vocabulary(path)
        assert str(exc.value) == f"{path}: line {lineno}: non-integer field {field!r}"

    @pytest.mark.parametrize("text, lineno, idx", [
        ("cat\t3\t1\n", 1, 1),
        ("cat\t3\t0\ndog\t2\t0\n", 2, 0),
        ("cat\t3\t0\ndog\t2\t3\n", 2, 3),
        # Preposition ids restart at 0.
        ("cat\t3\t0\n#PREPOSITIONS\non\t4\t1\n", 3, 1),
    ])
    def test_id_out_of_order_rejected(self, tmp_path, text, lineno, idx):
        path = tmp_path / "vocab.txt"
        path.write_text(text)
        with pytest.raises(ValueError) as exc:
            load_vocabulary(path)
        assert str(exc.value) == f"{path}: line {lineno}: id {idx} out of order"

    @pytest.mark.parametrize("text, lineno", [
        ("cat\t3\t0\ndog\t2\t1\ncat\t1\t2\n#PREPOSITIONS\non\t4\t0\n", 3),
        ("cat\t3\t0\n#PREPOSITIONS\non\t4\t0\non\t4\t1\n", 4),
        ("on\t3\t0\n#PREPOSITIONS\non\t4\t0\n", 3),
    ])
    def test_repeated_token_rejected(self, tmp_path, text, lineno):
        path = tmp_path / "vocab.txt"
        path.write_text(text)
        with pytest.raises(ValueError) as exc:
            load_vocabulary(path)
        token = "cat" if "dog" in text else "on"
        assert str(exc.value) == f"{path}: line {lineno}: token {token!r} listed twice"


def _per_line_save(tensor, path):
    """The reference writer: one f-string per line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"PREPTENSOR v1 {tensor.n_words} {tensor.n_prepositions} "
                 f"{tensor.nnz} {tensor.window_t}\n")
        for i, j, k, c in zip(tensor.i.tolist(), tensor.j.tolist(),
                              tensor.k.tolist(), tensor.counts.tolist()):
            fh.write(f"{i} {j} {k} {c}\n")


class TestChunkedTensorIO:
    @pytest.mark.parametrize("nnz, chunk", [(0, 7), (24, 1), (24, 7), (24, 8), (24, 25)])
    def test_save_matches_per_line_writer(self, tmp_path, monkeypatch, nnz, chunk):
        rng = np.random.default_rng(nnz)
        keys = np.sort(rng.choice(1000 * 1000 * 4, nnz, replace=False))
        counts = rng.integers(1, 2 ** 40, nnz)
        counts[:3] = [2 ** 63 - 1, 2 ** 63 - 2, 1][:nnz]
        tensor = SparseCountTensor(1000, 3, 2, keys // 1000 % 1000, keys % 1000,
                                   keys // 1000 ** 2, counts)
        monkeypatch.setattr(corpus, "_LOAD_CHUNK_LINES", chunk)
        save_tensor(tensor, tmp_path / "chunked.txt")
        _per_line_save(tensor, tmp_path / "per_line.txt")
        assert ((tmp_path / "chunked.txt").read_bytes()
                == (tmp_path / "per_line.txt").read_bytes())
        assert load_tensor(tmp_path / "chunked.txt") == tensor

    @pytest.mark.parametrize("lines, nnz, message", [
        (_GOOD + [_GOOD[1]], 5, "line 6: repeated coordinate 0 1 0"),
        (_GOOD + [_GOOD[1]], 4, "line 6: repeated coordinate 0 1 0"),
        (_GOOD + ["0 1 0 5", _GOOD[0]], 1, "line 6: repeated coordinate 0 1 0"),
        (_GOOD, 1, "header declares nnz=1 but found 4"),
        (_GOOD, 0, "header declares nnz=0 but found 4"),
        (_GOOD, 7, "header declares nnz=7 but found 4"),
        (_GOOD, 10 ** 15, "header declares nnz=1000000000000000 but found 4"),
        ([], 3, "header declares nnz=3 but found 0"),
    ])
    def test_entry_count_errors_across_chunks(self, tmp_path, monkeypatch, lines,
                                              nnz, message):
        # Two lines a chunk: each repeat lies in another chunk than the
        # line it repeats, and a body longer than the header spans chunks.
        monkeypatch.setattr(corpus, "_LOAD_CHUNK_LINES", 2)
        path = tmp_path / "tensor.txt"
        path.write_text(_tensor_text(lines, nnz=nnz))
        with pytest.raises(ValueError) as exc:
            load_tensor(path)
        assert str(exc.value) == f"{path}: {message}"


def _text_only(path, tmp_path):
    """``path`` loaded from a copy of the text alone."""
    copy = tmp_path / "text_only" / "tensor.txt"
    copy.parent.mkdir()
    shutil.copyfile(path, copy)
    tensor = load_tensor(copy)
    assert tensor.source == "text"
    return tensor


class TestColumnsFile:
    """``save_tensor`` writes the columns beside the text, and
    ``load_tensor`` takes them in place of the body only while they
    belong to the text and read back whole; otherwise it parses the text."""

    def _tensor(self, counts_high=1):
        rng = np.random.default_rng(3)
        keys = np.sort(rng.choice(40 * 40 * 4, 300, replace=False))
        counts = rng.integers(1, 50, 300)
        counts[7] = counts_high
        return SparseCountTensor(40, 3, 2, keys // 40 % 40, keys % 40, keys // 1600,
                                 counts)

    def _saved(self, tmp_path, tensor):
        text, columns = tmp_path / "tensor.txt", tmp_path / "tensor.npz"
        save_tensor(tensor, text, columns)
        return text, columns

    @pytest.mark.parametrize("counts_high, counts_dtype", [
        (1, np.int32), (2 ** 31 - 1, np.int32), (2 ** 31, np.int64)])
    def test_round_trip(self, tmp_path, counts_high, counts_dtype):
        tensor = self._tensor(counts_high)
        text, columns = self._saved(tmp_path, tensor)
        save_tensor(tensor, tmp_path / "alone.txt")
        assert text.read_bytes() == (tmp_path / "alone.txt").read_bytes()
        # The columns repeat byte for byte: zip members carry a fixed date.
        save_tensor(tensor, tmp_path / "again.txt", tmp_path / "again.npz")
        assert columns.read_bytes() == (tmp_path / "again.npz").read_bytes()
        loaded = load_tensor(text)
        assert loaded == tensor and loaded.source == "columns"
        for name in ("i", "j", "k", "counts"):
            assert getattr(loaded, name).dtype == np.int64
            assert getattr(loaded, name).flags.c_contiguous
        with np.load(columns) as archive:
            assert sorted(archive.files) == ["counts", "i", "j", "k", "text_sha256"]
            assert [archive[name].dtype for name in ("i", "j", "k", "counts")] == [
                np.int32, np.int32, np.int32, counts_dtype]
            assert str(archive["text_sha256"]) == corpus.input_digest(text)
        with zipfile.ZipFile(columns) as archive:
            assert {info.compress_type for info in archive.infolist()} == {
                zipfile.ZIP_STORED}

    def test_empty_round_trip(self, tmp_path):
        tensor = SparseCountTensor(5, 2, 3)
        text, _columns = self._saved(tmp_path, tensor)
        loaded = load_tensor(text)
        assert loaded == tensor and loaded.source == "columns"

    @pytest.mark.parametrize("spoil", COLUMN_SPOILERS.values(), ids=COLUMN_SPOILERS)
    def test_text_read_when_the_columns_do_not_match(self, tmp_path, caplog, spoil):
        text, columns = self._saved(tmp_path, self._tensor())
        spoil(columns, text)
        with caplog.at_level(logging.INFO, logger="preptensor"):
            loaded = load_tensor(text)
        assert loaded == _text_only(text, tmp_path) and loaded.source == "text"
        records = [(r.levelname, r.getMessage()) for r in caplog.records]
        if columns.exists():
            [(level, message)] = records
            assert level == "INFO"
            assert message.startswith(f"{columns} ignored, parsing the text: ")
            assert message.count(str(columns)) == 1, message
        else:
            assert records == []

    def test_every_flipped_byte_loads_the_text_tensor(self, tmp_path):
        """Whichever byte of a small columns file is flipped, the
        tensor loaded is the text's: the digest and the zip's CRC-32
        stand between a damaged column and the result."""
        tensor = self._tensor()
        tensor = SparseCountTensor(40, 3, 2, tensor.i[:6], tensor.j[:6], tensor.k[:6],
                                   tensor.counts[:6])
        text, columns = self._saved(tmp_path, tensor)
        raw = columns.read_bytes()
        sources = set()
        for offset in range(len(raw)):
            columns.write_bytes(raw[:offset] + bytes([raw[offset] ^ 0xA5])
                                + raw[offset + 1:])
            loaded = load_tensor(text)
            assert loaded == tensor, offset
            sources.add(loaded.source)
        assert sources == {"columns", "text"}

    def test_header_nnz_past_the_columns_allocates_nothing(self, tmp_path, caplog):
        """Columns recording the text's digest, but fewer than its header
        declares: read as such they would be a 32 PB block."""
        text, columns = tmp_path / "tensor.txt", tmp_path / "tensor.npz"
        text.write_text(_tensor_text(_GOOD, nnz=10 ** 15))
        k, i, j, counts = (np.array(column) for column in _GOOD_ARRAYS)
        np.savez(columns, i=i, j=j, k=k, counts=counts,
                 text_sha256=np.array(corpus.input_digest(text)))
        with pytest.raises(ValueError) as exc, caplog.at_level(logging.INFO):
            load_tensor(text)
        assert str(exc.value) == f"{text}: header declares nnz={10 ** 15} but found 4"
        assert [r.getMessage() for r in caplog.records] == [
            f"{columns} ignored, parsing the text: too small to hold {10 ** 15} entries"]

    def test_text_errors_name_the_text(self, tmp_path):
        """A columns file of the text before it was spoiled changes no
        error."""
        text, _columns = self._saved(tmp_path, self._tensor())
        lines = text.read_text().splitlines(keepends=True)
        lines[3] = "0 0 0 0\n"
        text.write_text("".join(lines))
        with pytest.raises(ValueError) as exc:
            load_tensor(text)
        assert str(exc.value) == f"{text}: line 4: count must be >= 1"


class TestMemoryGuard:
    """The traced peak of counting, saving and loading, above what was
    held before the call, as a multiple of the tensor's own 32 bytes per
    nonzero. This code measured 2.13 (count), 0.02 (save, a chunk of
    512 lines) and 1.13 (load) here; summing every counted block at the
    end, formatting whole columns and concatenating parsed chunks
    measured 3.5, 2.4 and 4.5."""

    ROSTER = ["on", "of", "in", "at", "by"]
    CHUNK = 512

    def _corpus(self):
        rng = np.random.default_rng(0)
        sentences = random_corpus(rng, 3000, 1000, self.ROSTER, max_len=20,
                                  prep_prob=0.15)
        return sentences, build_vocabulary(sentences, 1, self.ROSTER)

    def _tensor(self):
        tensor = count_tensor(*self._corpus(), 3)
        assert tensor.nnz > 100 * self.CHUNK
        return tensor

    def test_count(self):
        sentences, vocab = self._corpus()
        tensor, peak = traced_peak(lambda: count_tensor(sentences, vocab, 3))
        assert peak < 2.5 * 32 * tensor.nnz

    def test_save(self, tmp_path, monkeypatch):
        tensor = self._tensor()
        monkeypatch.setattr(corpus, "_LOAD_CHUNK_LINES", self.CHUNK)
        _, peak = traced_peak(lambda: save_tensor(tensor, tmp_path / "tensor.txt"))
        assert peak < 0.5 * 32 * tensor.nnz

    def test_save_with_columns(self, tmp_path, monkeypatch):
        tensor = self._tensor()
        monkeypatch.setattr(corpus, "_LOAD_CHUNK_LINES", self.CHUNK)
        _, peak = traced_peak(lambda: save_tensor(tensor, tmp_path / "tensor.txt",
                                                  tmp_path / "tensor.npz"))
        assert peak < 0.5 * 32 * tensor.nnz

    @pytest.mark.parametrize("source", ["text", "columns"])
    def test_load(self, tmp_path, monkeypatch, source):
        tensor = self._tensor()
        save_tensor(tensor, tmp_path / "tensor.txt",
                    tmp_path / "tensor.npz" if source == "columns" else None)
        monkeypatch.setattr(corpus, "_LOAD_CHUNK_LINES", self.CHUNK)
        loaded, peak = traced_peak(lambda: load_tensor(tmp_path / "tensor.txt"))
        assert loaded == tensor and loaded.source == source
        assert peak < 1.5 * 32 * tensor.nnz
