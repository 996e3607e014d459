from pathlib import Path

import numpy as np
import pytest

from preptensor.corpus import (
    SparseCountTensor,
    build_vocabulary,
    count_tensor,
    tokenize_sentences,
)
from preptensor.embeddings import (
    EmbeddingStore,
    UndefinedSimilarityError,
    cosine_similarity,
    load_embeddings,
    pair_similarity,
    paraphrase_phrasal_verb,
    preposition_similarity_table,
    rank_preposition,
    save_embeddings,
    similarity_or_zero,
    slice_spectrum,
    triple_similarity,
)
from preptensor.select import default_roster

TOY_CORPUS = Path(__file__).parent / "data" / "toy_corpus.txt"


def make_store(vectors, q_const=None):
    dim = len(next(iter(vectors.values())))
    return EmbeddingStore(
        vectors={tok: np.asarray(v, dtype=np.float64) for tok, v in vectors.items()},
        q_const=np.asarray(q_const if q_const is not None else np.zeros(dim),
                           dtype=np.float64),
        dim=dim,
    )


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


class TestSimilarityOrZero:
    @pytest.mark.parametrize("similarity, vectors", [
        (cosine_similarity, ([0.0, 0.0], [1.0, 2.0])),
        (triple_similarity, ([1.0, 1.0], [0.0, 0.0], [1.0, 2.0])),
        (pair_similarity, ([1.0, 0.0], [0.0, 1.0], [0.0, 0.0])),
    ])
    def test_zero_vector_gives_zero(self, similarity, vectors):
        assert similarity_or_zero(similarity, *vectors) == 0.0

    def test_defined_value_passes_through(self):
        assert similarity_or_zero(cosine_similarity, [1.0, 0.0], [2.0, 0.0]) == 1.0

    def test_other_errors_propagate(self):
        with pytest.raises(ValueError):
            similarity_or_zero(cosine_similarity, [1.0, 0.0], [1.0, 0.0, 0.0])


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
    def test_perfect_match_rank_one(self):
        store = make_store({"on": [1.0, 0.0], "in": [0.0, 1.0]})
        rank, cos = rank_preposition([np.array([1.0, 0.0])], "on", store, ["on", "in"])
        assert rank == 1
        assert cos == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_observed_rank_two(self):
        store = make_store({"on": [0.0, 1.0], "in": [1.0, 0.0]})
        rank, _ = rank_preposition([np.array([1.0, 0.0])], "on", store, ["on", "in"])
        assert rank == 2

    def test_tie_uses_roster_order(self):
        store = make_store({"on": [1.0, 0.0], "in": [1.0, 0.0], "at": [1.0, 0.0]})
        rank, _ = rank_preposition([np.array([1.0, 0.0])], "at", store,
                                   ["on", "in", "at"])
        assert rank == 3

    def test_unknown_preposition_rejected(self):
        store = make_store({"on": [1.0, 0.0]})
        with pytest.raises(ValueError, match="roster"):
            rank_preposition([np.array([1.0, 0.0])], "upon", store, ["on"])

    def test_all_zero_context_rejected(self):
        store = make_store({"on": [1.0, 0.0]})
        with pytest.raises(UndefinedSimilarityError, match="context"):
            rank_preposition([np.zeros(2)], "on", store, ["on"])

    def test_cancelling_context_rejected(self):
        store = make_store({"on": [1.0, 0.0]})
        v = np.array([0.3, -0.7])
        with pytest.raises(UndefinedSimilarityError, match="cancel"):
            rank_preposition([v, -v], "on", store, ["on"])

    @pytest.mark.parametrize("dim", [2, 200])
    def test_equals_per_preposition_cosines(self, dim):
        rng = np.random.default_rng(dim)
        roster = ["on", "in", "to", "at", "by"]
        store = make_store({p: rng.standard_normal(dim) for p in roster})
        store.vectors["by"] = store.vectors["on"].copy()
        context = [rng.standard_normal(dim), np.zeros(dim), rng.standard_normal(dim)]
        mean = np.mean([context[0], context[2]], axis=0)
        sims = [cosine_similarity(store.get(p), mean) for p in roster]
        for idx, observed in enumerate(roster):
            rank = 1 + sum(s > sims[idx] or (s == sims[idx] and j < idx)
                           for j, s in enumerate(sims))
            assert rank_preposition(context, observed, store, roster) == (rank, sims[idx])


class TestSliceSpectrum:
    def test_rank1_log_domain_slice(self):
        # Counts 2^(m_i m_j) - 1 make log(1+X) the exact rank-1 matrix
        # (sqrt(ln 2) m)(sqrt(ln 2) m)^T.
        m = [1, 2, 1, 3, 2]
        entries = {(i, j, 0): 2 ** (m[i] * m[j]) - 1
                   for i in range(5) for j in range(5)}
        tensor = SparseCountTensor(5, 1, 3, entries)
        spec = slice_spectrum(tensor, 0, 5)
        assert spec[0] == pytest.approx(1.0, abs=1e-12)
        assert spec[1] <= 1e-8

    def test_identity_pattern_slice(self):
        entries = {(i, i, 0): 1 for i in range(5)}
        tensor = SparseCountTensor(5, 1, 3, entries)
        spec = slice_spectrum(tensor, 0, 5)
        assert np.allclose(spec, 1.0, atol=1e-10)

    def test_nonincreasing_and_normalized(self):
        rng = np.random.default_rng(4)
        entries = {(int(rng.integers(8)), int(rng.integers(8)), 1): int(c)
                   for c in rng.integers(1, 30, size=40)}
        tensor = SparseCountTensor(8, 2, 3, entries)
        spec = slice_spectrum(tensor, 1, 6)
        assert spec[0] == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(spec) <= 1e-12)

    def test_empty_slice_rejected(self):
        tensor = SparseCountTensor(4, 2, 3, {(0, 1, 0): 2})
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
        spec = slice_spectrum(SparseCountTensor(n, 1, 3, entries), 0, n)
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
        assert loaded.dim == 4
        for tok, vec in store.vectors.items():
            assert np.array_equal(loaded.vectors[tok], vec)
        assert np.array_equal(loaded.q_const, store.q_const)

    def test_handwritten_file(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("3 2\nfoo 1 2\nbar 0.5 -1\nbaz 3.25 0\n")
        loaded = load_embeddings(path)
        assert np.array_equal(loaded.vectors["bar"], [0.5, -1.0])
        assert len(loaded.vectors) == 3

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


class TestHadamardGeometry:
    def test_hadamard_commutes(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            u = rng.standard_normal(5)
            q = rng.standard_normal(5)
            assert np.array_equal(u * q, q * u)
