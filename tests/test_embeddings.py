import logging
import shutil
import zipfile
from pathlib import Path

import numpy as np
import pytest

from preptensor.corpus import (
    SparseCountTensor,
    build_vocabulary,
    count_tensor,
    tokenize_sentences,
)
from conftest import EMBEDDING_COPY_SPOILERS, make_store
from preptensor import corpus
from scalar_features import (
    UndefinedSimilarityError,
    cosine_similarity,
    or_zero,
    pair_similarity,
    triple_similarity,
)
from preptensor.factorize import EmbeddingSet
from preptensor.embeddings import (
    EmbeddingStore,
    binary_copy_path,
    load_embeddings,
    paraphrase_phrasal_verb,
    preposition_similarity_table,
    rank_preposition,
    row_cosines,
    row_pairs,
    row_triples,
    save_embeddings,
    slice_spectrum,
)
from preptensor.select import default_roster

TOY_CORPUS = Path(__file__).parent / "data" / "toy_corpus.txt"


class TestCosine:
    def test_identity(self):
        v = np.array([1.0, 2.0, -3.0])
        assert cosine_similarity(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert cosine_similarity([1, 0], [0, 1]) == pytest.approx(0.0, abs=1e-12)

    def test_hand_value(self):
        assert cosine_similarity([1, 2, 2], [2, 1, 2]) == pytest.approx(8 / 9, abs=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="zero-norm"):
            cosine_similarity([0, 0], [1, 0])

    def test_symmetry_and_scale_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            a = rng.standard_normal(6)
            b = rng.standard_normal(6)
            c = float(rng.uniform(0.1, 10))
            assert cosine_similarity(a, b) == pytest.approx(
                cosine_similarity(b, a), abs=1e-12)
            assert cosine_similarity(c * a, b) == pytest.approx(
                cosine_similarity(a, b), abs=1e-10)


class TestSimilarityTable:
    def test_uncentered_identical_vectors(self):
        store = make_store({"at": [1, 1], "by": [1, 1]})
        rows = preposition_similarity_table(store, [("at", "by")], ["at", "by"],
                                            centered=False)
        assert rows[0][2] == pytest.approx(1.0, abs=1e-12)

    def test_centered_subtracts_roster_mean(self):
        store = make_store({"at": [2, 0], "by": [0, 2]})
        rows = preposition_similarity_table(store, [("at", "by")], ["at", "by"],
                                            centered=True)
        # Centered vectors are (1,-1) and (-1,1): cosine -1.
        assert rows[0][2] == pytest.approx(-1.0, abs=1e-12)

    def test_unknown_token_named(self):
        store = make_store({"at": [1, 0]})
        with pytest.raises(KeyError, match="beneath"):
            preposition_similarity_table(store, [("at", "beneath")], ["at"],
                                         centered=False)


class TestPairSimilarity:
    def test_left_equals_prep(self):
        assert pair_similarity([1.0, 0.0], [0.3, 0.4], [2.0, 0.0]) == pytest.approx(1.0)

    def test_both_orthogonal(self):
        assert pair_similarity([1, 0], [1, 0], [0, 1]) == pytest.approx(0.0, abs=1e-12)

    def test_hand_value(self):
        got = pair_similarity([1.0, 0.0], [1.0, 1.0], [0.0, 1.0])
        assert got == pytest.approx(1 / np.sqrt(2), abs=1e-12)

    def test_zero_side_excluded(self):
        got = pair_similarity([0.0, 0.0], [1.0, 0.0], [1.0, 0.0])
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_both_sides_zero_rejected(self):
        with pytest.raises(ValueError, match="both context"):
            pair_similarity([0.0, 0.0], [0.0, 0.0], [1.0, 0.0])


class TestTripleSimilarity:
    def test_all_ones(self):
        v = np.ones(8)
        assert triple_similarity(v, v, v) == pytest.approx(1.0, abs=1e-12)

    def test_hand_zero(self):
        assert triple_similarity([1, 1], [1, -1], [1, 1]) == pytest.approx(0.0, abs=1e-12)

    def test_axis_vectors(self):
        assert triple_similarity([1, 0], [1, 0], [1, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_permutation_and_scale_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            a, b, c = rng.standard_normal((3, 5))
            s = float(rng.uniform(0.1, 10))
            base = triple_similarity(a, b, c)
            assert triple_similarity(b, c, a) == pytest.approx(base, abs=1e-10)
            assert triple_similarity(c, a, b) == pytest.approx(base, abs=1e-10)
            assert triple_similarity(s * a, b, c) == pytest.approx(base, abs=1e-10)

    def test_zero_norm_rejected(self):
        with pytest.raises(ValueError, match="3-norm"):
            triple_similarity([0, 0], [1, 1], [1, 1])


def row_form(similarity, *vectors) -> float:
    """The row kernel's score of one row: ``similarity(*vectors)``
    computed as the feature builders compute it."""
    rows = [np.array([v], dtype=np.float64) for v in vectors]
    if similarity is cosine_similarity:
        return row_cosines(rows[0], rows[1][0])[0]
    if similarity is triple_similarity:
        return row_triples(*rows)[0]
    return row_pairs(rows[2], rows[0][0], rows[1][0])[0]


class TestSimilarityOrZero:
    """The feature builders' rule: the row kernels score 0.0 where a zero
    vector leaves the scalar similarity undefined."""

    @pytest.mark.parametrize("similarity, vectors", [
        (cosine_similarity, ([0.0, 0.0], [1.0, 2.0])),
        (triple_similarity, ([1.0, 1.0], [0.0, 0.0], [1.0, 2.0])),
        (pair_similarity, ([1.0, 0.0], [0.0, 1.0], [0.0, 0.0])),
    ])
    def test_zero_vector_gives_zero(self, similarity, vectors):
        with pytest.raises(UndefinedSimilarityError):
            similarity(*vectors)
        assert row_form(similarity, *vectors) == 0.0

    def test_defined_value_passes_through(self):
        for similarity, vectors in [
                (cosine_similarity, ([1.0, 0.0], [2.0, 0.0])),
                (triple_similarity, ([1.0, 2.0], [0.5, -1.0], [3.0, 1.0])),
                (pair_similarity, ([0.0, 0.0], [1.0, 3.0], [2.0, 1.0])),
                (pair_similarity, ([1.0, 0.5], [1.0, 3.0], [2.0, 1.0]))]:
            assert row_form(similarity, *vectors) == similarity(*vectors)

    def test_other_errors_propagate(self):
        with pytest.raises(ValueError):
            row_form(cosine_similarity, [1.0, 0.0], [1.0, 0.0, 0.0])

    @pytest.mark.parametrize("dim", [3, 200])
    def test_block_of_second_vectors(self, dim):
        """Each row against its own row of a block, zero rows among them,
        bit for bit as the scalar similarity or 0.0."""
        rng = np.random.default_rng(dim)
        rows, left, right = rng.standard_normal((3, 7, dim))
        rows[1] = left[2] = right[3] = left[4] = right[4] = 0.0
        rows[5] = left[5] = 0.0
        want = [0.0 if not (np.linalg.norm(r) and np.linalg.norm(v))
                else cosine_similarity(r, v) for r, v in zip(rows, left)]
        assert row_cosines(rows, left).tolist() == want
        pairs = [0.0 if not (np.linalg.norm(r) and (np.linalg.norm(a) or np.linalg.norm(b)))
                 else pair_similarity(a, b, r) for r, a, b in zip(rows, left, right)]
        assert row_pairs(rows, left, right).tolist() == pairs

    @pytest.mark.parametrize("dim", [3, 200])
    def test_triples_of_a_block_of_blocks(self, dim):
        """(n, 1, d) sides around (K, d) rows score an (n, K) block, each
        entry bit for bit as the scalar similarity or 0.0."""
        rng = np.random.default_rng(dim)
        left, right = rng.standard_normal((2, 4, 1, dim))
        rows = rng.standard_normal((5, dim))
        rows[1] = left[2] = right[3] = 0.0
        want = [[or_zero(triple_similarity, a[0], r, b[0]) for r in rows]
                for a, b in zip(left, right)]
        assert row_triples(left, rows, right).tolist() == want


class TestParaphrase:
    def test_planted_exact_match(self):
        rng = np.random.default_rng(2)
        q_const = rng.uniform(0.5, 1.5, 4)
        q_prep = rng.uniform(0.5, 1.5, 4)
        u_head = rng.uniform(0.5, 1.5, 4)
        u_verb = u_head * q_prep / q_const
        store = make_store(
            {"made": u_head, "from": q_prep, "produced": u_verb,
             "ate": rng.standard_normal(4)},
            q_const=q_const,
        )
        ranked = paraphrase_phrasal_verb("made", "from", ["ate", "produced"], store)
        assert ranked[0][0] == "produced"
        assert ranked[0][1] <= 1e-10

    def test_permutation_of_coordinates_preserves_ranking(self):
        rng = np.random.default_rng(3)
        vocab = {f"v{i}": rng.standard_normal(6) for i in range(8)}
        vocab["head"] = rng.standard_normal(6)
        vocab["prep"] = rng.standard_normal(6)
        q_const = rng.standard_normal(6)
        store = make_store(vocab, q_const=q_const)
        cands = [f"v{i}" for i in range(8)]
        before = paraphrase_phrasal_verb("head", "prep", cands, store)
        perm = rng.permutation(6)
        store2 = make_store({tok: v[perm] for tok, v in vocab.items()},
                            q_const=q_const[perm])
        after = paraphrase_phrasal_verb("head", "prep", cands, store2)
        assert [v for v, _ in before] == [v for v, _ in after]
        for (_, d1), (_, d2) in zip(before, after):
            assert d1 == pytest.approx(d2, abs=1e-10)

    def test_unknown_token_rejected(self):
        store = make_store({"made": [1.0, 1.0]})
        with pytest.raises(KeyError):
            paraphrase_phrasal_verb("made", "missing", ["made"], store)

    def test_empty_candidates_rejected(self):
        store = make_store({"made": [1.0, 1.0]})
        with pytest.raises(ValueError, match="empty"):
            paraphrase_phrasal_verb("made", "made", [], store)


class TestRankPreposition:
    """Ranks through the block call, one context mean per row."""

    def test_perfect_match_rank_one(self):
        store = make_store({"on": [1.0, 0.0], "in": [0.0, 1.0]})
        ranks, cosines, defined = rank_preposition(np.array([[1.0, 0.0]]), ["on"],
                                                   store, ["on", "in"])
        assert defined[0] and ranks[0] == 1
        assert cosines[0] == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_observed_rank_two(self):
        store = make_store({"on": [0.0, 1.0], "in": [1.0, 0.0]})
        ranks, _, _ = rank_preposition(np.array([[1.0, 0.0]]), ["on"], store,
                                       ["on", "in"])
        assert ranks[0] == 2

    def test_tie_uses_roster_order(self):
        store = make_store({"on": [1.0, 0.0], "in": [1.0, 0.0], "at": [1.0, 0.0]})
        ranks, _, _ = rank_preposition(np.array([[1.0, 0.0]] * 3), ["at", "on", "in"],
                                       store, ["on", "in", "at"])
        assert ranks.tolist() == [3, 1, 2]

    def test_unknown_preposition_rejected(self):
        store = make_store({"on": [1.0, 0.0]})
        with pytest.raises(ValueError, match="roster"):
            rank_preposition(np.array([[1.0, 0.0]] * 2), ["on", "upon"], store, ["on"])

    def test_all_zero_context_rejected(self):
        """A zero context mean leaves the rank undefined."""
        store = make_store({"on": [1.0, 0.0]})
        ranks, cosines, defined = rank_preposition(np.zeros((1, 2)), ["on"], store,
                                                   ["on"])
        assert (defined.tolist(), ranks.tolist(), cosines.tolist()) == ([False], [0], [0.0])

    def test_cancelling_context_rejected(self):
        store = make_store({"on": [1.0, 0.0]})
        v = np.array([0.3, -0.7])
        means = np.array([np.mean([v, -v], axis=0), v])
        _, _, defined = rank_preposition(means, ["on", "on"], store, ["on"])
        assert defined.tolist() == [False, True]

    @pytest.mark.parametrize("dim", [2, 200])
    def test_equals_per_preposition_cosines(self, dim):
        rng = np.random.default_rng(dim)
        roster = ["on", "in", "to", "at", "by"]
        vectors = {p: rng.standard_normal(dim) for p in roster}
        vectors["by"] = vectors["on"].copy()
        store = make_store(vectors)
        mean = np.mean([rng.standard_normal(dim), rng.standard_normal(dim)], axis=0)
        sims = [cosine_similarity(vectors[p], mean) for p in roster]
        ranks, cosines, defined = rank_preposition(np.array([mean] * len(roster)),
                                                   roster, store, roster)
        assert defined.all()
        for idx in range(len(roster)):
            rank = 1 + sum(s > sims[idx] or (s == sims[idx] and j < idx)
                           for j, s in enumerate(sims))
            assert (ranks[idx], cosines[idx]) == (rank, sims[idx])

    def test_roster_rows_gathered_once_per_roster(self, monkeypatch):
        """A call gathers its roster's rows once, however many rows it
        ranks; the store keeps no roster rows between calls."""
        store = make_store({"on": [1.0, 0.0], "in": [0.0, 1.0], "at": [1.0, 1.0]})
        gathered = []
        rows = EmbeddingStore.rows
        monkeypatch.setattr(EmbeddingStore, "rows",
                            lambda self, tokens: gathered.append(list(tokens))
                            or rows(self, tokens))
        means = np.array([[1.0, 0.2]] * 3)
        first = rank_preposition(means, ["on", "in", "on"], store, ["on", "in", "up"])
        assert first[0].tolist() == [1, 2, 1]
        assert gathered == [["on", "in"]]
        again = rank_preposition(means, ["on", "in", "on"], store, ["on", "in", "up"])
        assert all(np.array_equal(a, b) for a, b in zip(first, again))
        assert rank_preposition(means[:1], ["at"], store, ["at", "on"])[0][0] == 2
        assert gathered == [["on", "in"], ["on", "in"], ["at", "on"]]

    def test_zero_roster_vector_rejected_on_every_call(self):
        store = make_store({"on": [1.0, 0.0], "in": [0.0, 0.0]})
        for _ in range(2):
            _, _, defined = rank_preposition(np.array([[1.0, 0.0]]), ["on"], store,
                                             ["on", "in"])
            assert not defined[0]



class TestSliceSpectrum:
    def test_rank1_log_domain_slice(self):
        # Counts 2^(m_i m_j) - 1 make log(1+X) the exact rank-1 matrix
        # (sqrt(ln 2) m)(sqrt(ln 2) m)^T.
        m = [1, 2, 1, 3, 2]
        entries = {(i, j, 0): 2 ** (m[i] * m[j]) - 1
                   for i in range(5) for j in range(5)}
        tensor = SparseCountTensor(5, 1, 3, *zip(*entries), counts=list(entries.values()))
        spec = slice_spectrum(tensor, 0, 5)
        assert spec[0] == pytest.approx(1.0, abs=1e-12)
        assert spec[1] <= 1e-8

    def test_identity_pattern_slice(self):
        entries = {(i, i, 0): 1 for i in range(5)}
        tensor = SparseCountTensor(5, 1, 3, *zip(*entries), counts=list(entries.values()))
        spec = slice_spectrum(tensor, 0, 5)
        assert np.allclose(spec, 1.0, atol=1e-10)

    def test_nonincreasing_and_normalized(self):
        rng = np.random.default_rng(4)
        entries = {(int(rng.integers(8)), int(rng.integers(8)), 1): int(c)
                   for c in rng.integers(1, 30, size=40)}
        tensor = SparseCountTensor(8, 2, 3, *zip(*entries), counts=list(entries.values()))
        spec = slice_spectrum(tensor, 1, 6)
        assert spec[0] == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(spec) <= 1e-12)

    def test_empty_slice_rejected(self):
        tensor = SparseCountTensor(4, 2, 3, [0], [1], [0], [2])
        with pytest.raises(ValueError, match="slice 1"):
            slice_spectrum(tensor, 1, 3)

    def test_round_off_past_rank_is_zero(self):
        # Every preposition slice of the toy corpus has rank 4.
        sentences = tokenize_sentences(TOY_CORPUS.read_bytes())
        vocab = build_vocabulary(sentences, 5, default_roster())
        tensor = count_tensor(sentences, vocab, 3)
        spec = slice_spectrum(tensor, vocab.prep_ids["of"], 50)
        assert len(spec) == 50
        assert spec[0] == 1.0
        assert np.all(spec[1:4] > tensor.n_words * np.finfo(np.float64).eps)
        assert np.all(spec[4:] == 0.0)

    def test_full_rank_slice_unchanged(self):
        rng = np.random.default_rng(7)
        n = 10
        dense = rng.integers(1, 30, size=(n, n))
        entries = {(i, j, 0): int(dense[i, j]) for i in range(n) for j in range(n)}
        tensor = SparseCountTensor(n, 1, 3, *zip(*entries), counts=list(entries.values()))
        spec = slice_spectrum(tensor, 0, n)
        svals = np.linalg.svd(np.log1p(dense.astype(np.float64)), compute_uv=False)
        assert np.all(spec > 0.0)
        assert np.array_equal(spec, svals / svals[0])


class TestEmbeddingIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        store = make_store({f"t{i}": rng.standard_normal(4) for i in range(6)},
                           q_const=rng.standard_normal(4))
        path = tmp_path / "emb.txt"
        save_embeddings(store, path)
        loaded = load_embeddings(path)
        assert loaded.dim == 4 and loaded.tokens == store.tokens
        assert np.array_equal(loaded.matrix, store.matrix)
        assert np.array_equal(loaded.q_const, store.q_const)

    def test_bytes_equal_per_value_writer(self, tmp_path):
        rng = np.random.default_rng(6)
        rows = [[-0.0, 0.0, 5e-324, -2.2250738585072009e-308],
                [1e16, -1e16, 1e16 + 2, 123456789012345680.0],
                [0.1, 2.0 / 3.0, -np.pi, 1.0000000000000002],
                *rng.standard_normal((3, 4)) * 10.0 ** rng.integers(-300, 300, (3, 4))]
        store = make_store({f"t{i}": row for i, row in enumerate(rows[1:])},
                           q_const=rows[0])
        path = tmp_path / "emb.txt"
        save_embeddings(store, path)
        want = [f"{len(rows)} 4\n"]
        for tok, vec in [*zip(store.tokens, store.matrix), ("__NOPREP__", store.q_const)]:
            want.append(tok + " " + " ".join(format(x, ".17g") for x in vec) + "\n")
        assert "-0 0 4.9406564584124654e-324" in want[-1]
        assert path.read_bytes() == "".join(want).encode("utf-8")

    def test_constant_row_anywhere_leaves_the_matrix(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("3 2\nfoo 1 2\n__NOPREP__ 3 4\nbar 5 6\n")
        loaded = load_embeddings(path)
        assert loaded.tokens == ["foo", "bar"] and loaded.index == {"foo": 0, "bar": 1}
        assert loaded.matrix.tolist() == [[1.0, 2.0], [5.0, 6.0]]
        assert loaded.matrix.dtype == np.float64 and loaded.matrix.flags.c_contiguous
        assert loaded.q_const.tolist() == [3.0, 4.0]

    def test_from_factors_rows(self):
        vocab = build_vocabulary([["cat", "sat", "on", "mat", "cat"]], 1, ["on", "in"])
        rng = np.random.default_rng(8)
        emb = EmbeddingSet(U=rng.standard_normal((vocab.n_words, 3)), W=None,
                           Q=rng.standard_normal((3, 3)))
        store = EmbeddingStore.from_factors(vocab, emb)
        assert store.tokens == [*vocab.words, "on", "in"] and store.dim == 3
        assert np.array_equal(store.matrix, np.vstack([emb.U, emb.Q[:2]]))
        assert np.array_equal(store.q_const, emb.Q[2])
        assert np.array_equal(store.rows_or_zero(["in", "zzz"]),
                              [emb.Q[1], np.zeros(3)])

    def test_handwritten_file(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("3 2\nfoo 1 2\nbar 0.5 -1\nbaz 3.25 0\n")
        loaded = load_embeddings(path)
        assert np.array_equal(loaded.rows(["bar"]), [[0.5, -1.0]])
        assert loaded.tokens == ["foo", "bar", "baz"]

    def test_headerless_one_dimensional_glove(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("the 0.5\nof -1\n__NOPREP__ 2\n")
        loaded = load_embeddings(path)
        assert loaded.dim == 1
        assert loaded.tokens == ["the", "of"]
        assert loaded.matrix.tolist() == [[0.5], [-1.0]]
        assert loaded.q_const.tolist() == [2.0]

    def test_zero_row_header_loads_empty(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("0 2\n")
        loaded = load_embeddings(path)
        assert loaded.tokens == []
        assert loaded.matrix.shape == (0, 2)
        assert loaded.q_const.tolist() == [0.0, 0.0]

    def test_missing_constant_vector_warns(self, tmp_path, caplog):
        path = tmp_path / "emb.txt"
        path.write_text("2 2\nfoo 1 2\nbar 0.5 -1\n")
        with caplog.at_level("WARNING"):
            loaded = load_embeddings(path)
        assert "__NOPREP__" in caplog.text
        assert np.array_equal(loaded.q_const, [0.0, 0.0])

    def test_constant_vector_present_no_warning(self, tmp_path, caplog):
        store = make_store({"foo": [1.0, 2.0]}, q_const=[1.0, 1.0])
        path = tmp_path / "emb.txt"
        save_embeddings(store, path)
        with caplog.at_level("WARNING"):
            load_embeddings(path)
        assert caplog.text == ""

    def test_row_width_mismatch_rejected(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("2 3\nfoo 1 2 3\nbar 1 2\n")
        with pytest.raises(ValueError, match="line 3"):
            load_embeddings(path)

    @pytest.mark.parametrize("text, message", [
        ("3 2\nfoo 1 2\nbar nan 0\n__NOPREP__ 1 1\n", "line 3: non-finite value 'nan'"),
        ("2 2\nfoo 1 2\n__NOPREP__ 1 -inf\n", "line 3: non-finite value '-inf'"),
        ("foo inf 2\nbar 1 2\n", "line 1: non-finite value 'inf'"),
        ("3 2\nfoo 1 2\nbar 0 1\nfoo 3 4\n", "line 4: token 'foo' listed twice"),
        ("3 2\n__NOPREP__ 1 2\nfoo 0 1\n__NOPREP__ 1 2\n",
         "line 4: token '__NOPREP__' listed twice"),
        ("", "line 1: bad header"),
        ("foo\n", "line 1: bad header"),
        # Not two ASCII integers, so a one-float vector row, not a header.
        ("1_0 2\nfoo 1 2\n", "line 2: expected 1 fields, got 2"),
        # A vector row whose value is not ASCII digits.
        ("1 \u0662\nfoo 1 2\n", "line 1: non-numeric field '\u0662'"),
        ("-1 2\nfoo 1 2\n", "line 1: bad header"),
        ("1 0\nfoo\n", "line 1: bad header"),
        ("1 8\nfoo 1 2\n", "line 1: rows of 8 values do not fit in 12 bytes"),
        ("0 2\nfoo 1 2\n", "header declares 0 rows, found 1"),
        ("3 2\nfoo 1 2\n__NOPREP__ 1 1\n", "header declares 3 rows, found 2"),
        ("1 2\nfoo 1 2\n__NOPREP__ 1 1\n", "header declares 1 rows, found 2"),
        ("2 2\nfoo\n__NOPREP__ 1 1\n", "line 2: expected 2 fields, got 0"),
        ("foo 1 2\nbar\n", "line 2: expected 2 fields, got 0"),
    ])
    def test_rejects_what_it_would_guess_at(self, tmp_path, text, message):
        path = tmp_path / "emb.txt"
        path.write_text(text)
        with pytest.raises(ValueError) as exc:
            load_embeddings(path)
        assert str(exc.value) == f"{path}: {message}"


def _text_only(path, tmp_path):
    """``path`` loaded from a copy of the text alone."""
    alone = tmp_path / "text_only" / "emb.txt"
    alone.parent.mkdir()
    shutil.copyfile(path, alone)
    store = load_embeddings(alone)
    assert store.source == "text"
    return store


def _same_store(a, b):
    """Equal tokens and bit-equal rows: ``tobytes`` tells -0.0 from 0.0."""
    return ((a.tokens, a.index, a.matrix.tobytes(), a.q_const.tobytes())
            == (b.tokens, b.index, b.matrix.tobytes(), b.q_const.tobytes()))


class TestBinaryCopy:
    """``save_embeddings`` writes a binary copy beside the text, and
    ``load_embeddings`` takes its rows in place of parsing the text only
    while the copy vouches for the text; otherwise it parses the text."""

    @staticmethod
    def _store():
        rng = np.random.default_rng(12)
        matrix = rng.standard_normal((4, 3)) * 10.0 ** rng.integers(-300, 300, (4, 3))
        matrix[0] = [-0.0, 0.0, 5e-324]
        return EmbeddingStore(["caf\u00e9", "on", "x'y", "in"], matrix,
                              np.array([1.0, -0.0, 2.0 / 3.0]))

    def _saved(self, tmp_path, store=None):
        text = tmp_path / "emb.txt"
        save_embeddings(store or self._store(), text, binary_copy_path(text))
        return text, binary_copy_path(text)

    def test_copy_equals_text(self, tmp_path):
        store = self._store()
        text, copy = self._saved(tmp_path, store)
        assert copy == tmp_path / "emb.txt.npz"
        save_embeddings(store, tmp_path / "alone.txt")
        assert text.read_bytes() == (tmp_path / "alone.txt").read_bytes()
        loaded = load_embeddings(text)
        assert loaded.source == "copy" and _same_store(loaded, store)
        assert _same_store(loaded, _text_only(text, tmp_path))
        assert loaded.matrix.flags.c_contiguous and loaded.q_const.flags.c_contiguous
        with np.load(copy) as archive:
            assert sorted(archive.files) == ["matrix", "text_sha256", "tokens"]
            assert archive["tokens"].tobytes() == (
                "caf\u00e9 on x'y in __NOPREP__".encode("utf-8"))
            assert archive["matrix"].tobytes() == np.vstack(
                [store.matrix, store.q_const]).tobytes()
            assert str(archive["text_sha256"]) == corpus.input_digest(text)
        with zipfile.ZipFile(copy) as archive:
            assert {info.compress_type for info in archive.infolist()} == {
                zipfile.ZIP_STORED}

    def test_copies_repeat_byte_for_byte(self, tmp_path):
        _text, copy = self._saved(tmp_path)
        save_embeddings(self._store(), tmp_path / "again.txt", tmp_path / "again.npz")
        assert copy.read_bytes() == (tmp_path / "again.npz").read_bytes()

    def test_factors_in_fortran_order_give_a_readable_copy(self, tmp_path):
        store = self._store()
        store = EmbeddingStore(store.tokens, np.asfortranarray(store.matrix),
                               store.q_const)
        text, _copy = self._saved(tmp_path, store)
        loaded = load_embeddings(text)
        assert loaded.source == "copy" and _same_store(loaded, store)

    def test_copy_name_keeps_the_whole_name(self):
        assert binary_copy_path("run.v1") != binary_copy_path("run.v2")
        assert binary_copy_path(Path("d") / "emb") == Path("d") / "emb.npz"

    def test_empty_store_round_trip(self, tmp_path):
        store = EmbeddingStore([], np.empty((0, 2)), np.array([1.0, 2.0]))
        text, _copy = self._saved(tmp_path, store)
        loaded = load_embeddings(text)
        assert loaded.source == "copy" and _same_store(loaded, store)

    @pytest.mark.parametrize("spoil", EMBEDDING_COPY_SPOILERS.values(),
                             ids=EMBEDDING_COPY_SPOILERS)
    def test_text_read_when_the_copy_does_not_vouch(self, tmp_path, caplog, spoil):
        text, copy = self._saved(tmp_path)
        spoil(copy, text)
        with caplog.at_level(logging.INFO, logger="preptensor"):
            loaded = load_embeddings(text)
        assert loaded.source == "text" and _same_store(loaded, _text_only(text, tmp_path))
        records = [(r.levelname, r.getMessage()) for r in caplog.records]
        if copy.exists():
            [(level, message)] = records
            assert level == "INFO"
            assert message.startswith(f"{copy} ignored, parsing the text: ")
            assert message.count(str(copy)) == 1, message
        else:
            assert records == []

    def test_every_flipped_byte_loads_the_text_store(self, tmp_path):
        """Whichever byte of the copy is flipped, the store loaded is the
        text's: the digest, the zip's CRC-32 and the checks stand between
        a damaged copy and the result."""
        store = EmbeddingStore(["a", "b"], np.array([[1.5, -0.0], [2.0, 3.0]]),
                               np.array([0.25, 4.0]))
        text, copy = self._saved(tmp_path, store)
        raw = copy.read_bytes()
        sources = set()
        for offset in range(len(raw)):
            copy.write_bytes(raw[:offset] + bytes([raw[offset] ^ 0xA5]) + raw[offset + 1:])
            loaded = load_embeddings(text)
            assert _same_store(loaded, store), offset
            sources.add(loaded.source)
        assert sources == {"copy", "text"}

    def test_text_errors_name_the_text(self, tmp_path):
        """A copy of the text before it was broken changes no error."""
        text, _copy = self._saved(tmp_path)
        lines = text.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[2] = "on nan 0 1\n"
        text.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(ValueError) as exc:
            load_embeddings(text)
        assert str(exc.value) == f"{text}: line 3: non-finite value 'nan'"

    def test_glove_file_without_a_copy(self, tmp_path, caplog):
        path = tmp_path / "glove.txt"
        path.write_text("the 0.5 1\nof -1 2\n")
        with caplog.at_level(logging.INFO, logger="preptensor"):
            loaded = load_embeddings(path)
        assert loaded.source == "text" and loaded.tokens == ["the", "of"]
        assert loaded.matrix.tolist() == [[0.5, 1.0], [-1.0, 2.0]]
        assert [r.levelname for r in caplog.records] == ["WARNING"]


class TestHadamardGeometry:
    def test_hadamard_commutes(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            u = rng.standard_normal(5)
            q = rng.standard_normal(5)
            assert np.array_equal(u * q, q * u)
