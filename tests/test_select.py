import numpy as np
import pytest

from preptensor.embeddings import (
    EmbeddingStore,
    pair_similarity,
    similarity_or_zero,
    triple_similarity,
)
from preptensor.learn import (
    DecisionTree,
    FeedForwardNet,
    FnnHyper,
    TreeNode,
    TreeParams,
)
from preptensor.select import (
    ConfusionTable,
    SelectionInstance,
    SelectionModels,
    build_confusion_table,
    context_stoplist,
    correction_features,
    default_roster,
    detection_features,
    evaluate_selection,
    load_confusion_table,
    load_selection_dataset,
    preprocess_context,
    save_confusion_table,
    save_selection_dataset,
    select_preposition,
    train_selection_models,
)

ROSTER = ["on", "in", "to"]
STOPLIST = frozenset({"the", "it", "a"})


def make_store(vectors):
    dim = len(next(iter(vectors.values())))
    return EmbeddingStore(
        vectors={tok: np.asarray(v, dtype=np.float64) for tok, v in vectors.items()},
        q_const=np.zeros(dim),
        dim=dim,
    )


@pytest.fixture
def store():
    return make_store({
        "on": [1.0, 0.0, 0.0],
        "in": [0.0, 1.0, 0.0],
        "to": [0.0, 0.0, 1.0],
        "sat": [1.0, 0.2, 0.0],
        "mat": [0.9, 0.1, 0.1],
        "box": [0.1, 1.0, 0.2],
        "ran": [0.2, 0.1, 1.0],
    })


def inst(tokens, idx, observed, gold):
    return SelectionInstance(list(tokens), idx, observed, gold)


class TestRosterData:
    def test_roster_size(self):
        roster = default_roster()
        assert len(roster) == 49
        assert len(set(roster)) == 49
        assert "of" in roster and "with" in roster

    def test_stoplist_contents(self):
        stops = context_stoplist()
        assert "the" in stops
        assert "on" not in stops


class TestDatasetIO:
    def test_round_trip(self, tmp_path):
        data = [inst(["sat", "on", "mat"], 1, "on", "in"),
                inst(["ran", "to", "box"], 1, "to", "to")]
        path = tmp_path / "sel.tsv"
        save_selection_dataset(data, path)
        assert load_selection_dataset(path, ROSTER) == data

    def test_rejects_bad_lines(self, tmp_path, caplog):
        path = tmp_path / "sel.tsv"
        path.write_text(
            "sat on mat\t1\ton\tin\n"          # good
            "sat on mat\t1\ton\n"              # 3 fields
            "sat on mat\t9\ton\tin\n"          # index out of range
            "sat on mat\t0\ton\tin\n"          # token at index is not observed
            "sat on mat\t1\ton\tbeside\n"      # gold not in roster
        )
        with caplog.at_level("WARNING"):
            loaded = load_selection_dataset(path, ROSTER)
        assert len(loaded) == 1
        assert "4 line(s) rejected" in caplog.text

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "sel.tsv"
        path.write_text("\nsat on mat\t1\ton\tin\n\n")
        assert len(load_selection_dataset(path, ROSTER)) == 1


class TestPreprocessContext:
    def test_stopword_removal_then_window(self):
        instance = inst(
            ["it", "can", "save", "the", "effort", "to", "carrying"],
            5, "to", "to")
        left, right = preprocess_context(instance, window=3, stoplist=STOPLIST)
        assert left == ["can", "save", "effort"]
        assert right == ["carrying"]

    def test_window_truncates_nearest(self):
        instance = inst(["w1", "w2", "w3", "w4", "on", "x1", "x2", "x3", "x4"],
                        4, "on", "on")
        left, right = preprocess_context(instance, window=3, stoplist=frozenset())
        assert left == ["w2", "w3", "w4"]
        assert right == ["x1", "x2", "x3"]

    def test_all_stopwords_gives_empty(self):
        instance = inst(["the", "it", "on", "a"], 2, "on", "on")
        left, right = preprocess_context(instance, window=3, stoplist=STOPLIST)
        assert left == [] and right == []

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError, match="window"):
            preprocess_context(inst(["on"], 0, "on", "on"), window=0)


class TestConfusionTable:
    def test_unsmoothed_hand_ratios(self):
        data = ([inst(["x", "on", "y"], 1, "on", "in")] * 4
                + [inst(["x", "on", "y"], 1, "on", "on")]
                + [inst(["x", "in", "y"], 1, "in", "in")]
                + [inst(["x", "to", "y"], 1, "to", "to")])
        table = build_confusion_table(data, ROSTER, smoothing=0.0)
        assert table.replace_prob("on", "in") == pytest.approx(0.8)
        assert table.keep_prob("on") == pytest.approx(0.2)
        assert table.replace_prob("on", "to") == 0.0

    def test_smoothed_rows_sum_to_one(self):
        data = [inst(["x", "on", "y"], 1, "on", "in")]
        table = build_confusion_table(data, ROSTER, smoothing=1.0)
        for q in ROSTER:
            assert sum(table.probs[q].values()) == pytest.approx(1.0, abs=1e-12)
            assert all(v > 0 for v in table.probs[q].values())

    def test_smoothing_with_no_observations(self):
        data = [inst(["x", "on", "y"], 1, "on", "on")]
        table = build_confusion_table(data, ROSTER, smoothing=1.0)
        # Row "in" saw nothing: uniform over the roster.
        assert table.keep_prob("in") == pytest.approx(1 / 3)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="no instances"):
            build_confusion_table([], ROSTER)

    def test_round_trip(self, tmp_path):
        data = [inst(["x", "on", "y"], 1, "on", "in")]
        table = build_confusion_table(data, ROSTER, smoothing=0.5)
        path = tmp_path / "conf.txt"
        save_confusion_table(table, path)
        loaded = load_confusion_table(path)
        assert loaded.roster == ROSTER
        assert loaded.smoothing == 0.5
        assert loaded.probs == table.probs

    def test_corrupt_header_rejected(self, tmp_path):
        path = tmp_path / "conf.txt"
        path.write_text("NOPE v1 3 1.0\n")
        with pytest.raises(ValueError, match="header"):
            load_confusion_table(path)


def uniform_table():
    probs = {q: {p: 1 / len(ROSTER) for p in ROSTER} for q in ROSTER}
    return ConfusionTable(roster=list(ROSTER), probs=probs, smoothing=1.0)


class TestDetectionFeatures:
    def test_arity_and_keep_prob(self, store):
        instance = inst(["sat", "on", "mat"], 1, "on", "on")
        feats = detection_features(instance, store, uniform_table(),
                                   stoplist=STOPLIST)
        assert feats.shape == (3,)
        assert feats[2] == pytest.approx(1 / 3)
        assert 1 <= feats[1] <= len(ROSTER)

    def test_cosine_value(self, store):
        # Context mean of sat and mat is ((1+0.9)/2, 0.15, 0.05).
        instance = inst(["sat", "on", "mat"], 1, "on", "on")
        feats = detection_features(instance, store, uniform_table(),
                                   stoplist=STOPLIST)
        mean = (store.vectors["sat"] + store.vectors["mat"]) / 2
        expected = mean[0] / np.linalg.norm(mean)
        assert feats[0] == pytest.approx(expected, abs=1e-12)

    def test_empty_context_is_none(self, store):
        instance = inst(["the", "on", "it"], 1, "on", "on")
        assert detection_features(instance, store, uniform_table(),
                                  stoplist=STOPLIST) is None

    def test_oov_context_is_none(self, store):
        instance = inst(["zzz", "on", "qqq"], 1, "on", "on")
        assert detection_features(instance, store, uniform_table(),
                                  stoplist=STOPLIST) is None

    def test_cancelling_context_is_none(self, store):
        store.vectors["up"] = np.array([0.3, -0.7, 0.2])
        store.vectors["down"] = -store.vectors["up"]
        instance = inst(["up", "on", "down"], 1, "on", "on")
        assert detection_features(instance, store, uniform_table(),
                                  stoplist=STOPLIST) is None


class TestCorrectionFeatures:
    def test_arity(self, store):
        instance = inst(["sat", "on", "mat"], 1, "on", "in")
        feats = correction_features(instance, ["in"], store, uniform_table(),
                                    stoplist=STOPLIST)[0]
        assert feats.shape == (3 * store.dim + 3,)

    def test_layout(self, store):
        instance = inst(["sat", "on", "mat"], 1, "on", "in")
        feats = correction_features(instance, ["in"], store, uniform_table(),
                                    stoplist=STOPLIST)[0]
        d = store.dim
        assert np.array_equal(feats[:d], store.vectors["sat"])
        assert np.array_equal(feats[d:2 * d], store.vectors["in"])
        assert np.array_equal(feats[2 * d:3 * d], store.vectors["mat"])
        assert feats[-1] == pytest.approx(1 / 3)

    def test_oov_candidate_zeroes_similarities(self, store):
        store.vectors["to"] = np.zeros(3)
        instance = inst(["sat", "on", "mat"], 1, "on", "in")
        feats = correction_features(instance, ["to"], store, uniform_table(),
                                    stoplist=STOPLIST)[0]
        d = store.dim
        assert np.array_equal(feats[d:2 * d], np.zeros(3))
        assert feats[-3] == 0.0 and feats[-2] == 0.0

    def test_non_roster_candidate_rejected(self, store):
        instance = inst(["sat", "on", "mat"], 1, "on", "in")
        with pytest.raises(ValueError, match="roster"):
            correction_features(instance, ["beside"], store, uniform_table())

    def test_no_context_rejected(self, store):
        instance = inst(["the", "on", "it"], 1, "on", "in")
        with pytest.raises(ValueError, match="context"):
            correction_features(instance, ["in"], store, uniform_table(),
                                stoplist=STOPLIST)

    def test_bare_string_rejected(self, store):
        instance = inst(["sat", "on", "mat"], 1, "on", "in")
        with pytest.raises(TypeError, match="string"):
            correction_features(instance, "in", store, uniform_table(),
                                stoplist=STOPLIST)


def composed_correction_rows(instance, candidates, store, table, stoplist):
    """Per-candidate reference built from the public similarities."""
    left, right = preprocess_context(instance, 3, stoplist)

    def side(tokens):
        vecs = [store.vectors[t] for t in tokens if t in store.vectors]
        return np.mean(vecs, axis=0) if vecs else np.zeros(store.dim)

    v_l, v_r = side(left), side(right)
    rows = []
    for cand in candidates:
        v_p = store.get_or_zero(cand)
        pair = similarity_or_zero(pair_similarity, v_l, v_r, v_p)
        triple = similarity_or_zero(triple_similarity, v_l, v_p, v_r)
        conf = table.replace_prob(instance.observed, cand)
        rows.append(np.concatenate([v_l, v_p, v_r, [pair, triple, conf]]))
    return np.stack(rows)


class TestBatchedCorrectionFeatures:
    # "upon" has no vector and "at" gets a zero one.
    ROSTER = ["on", "in", "to", "at", "upon"]

    @pytest.mark.parametrize("dim", [3, 200])
    @pytest.mark.parametrize("tokens", [
        ["sat", "ran", "on", "mat", "box"],  # both sides
        ["the", "on", "mat", "box"],         # right side only
        ["sat", "ran", "on", "it", "zzz"],   # left side only, right OOV
    ])
    def test_rows_equal_per_candidate_composition(self, dim, tokens):
        rng = np.random.default_rng(dim)
        words = ["on", "in", "to", "at", "sat", "ran", "mat", "box"]
        store = make_store({w: rng.standard_normal(dim) for w in words})
        store.vectors["at"] = np.zeros(dim)
        instance = inst(tokens, tokens.index("on"), "on", "in")
        table = build_confusion_table(
            [instance, inst(tokens, tokens.index("on"), "on", "to")], self.ROSTER)
        got = correction_features(instance, self.ROSTER, store, table,
                                  stoplist=STOPLIST)
        want = composed_correction_rows(instance, self.ROSTER, store, table,
                                        STOPLIST)
        assert got.shape == (len(self.ROSTER), 3 * dim + 3)
        assert np.array_equal(got, want)


def leaf_tree(label):
    classes = ["correct", "error"]
    counts = np.array([1.0, 0.0]) if label == "correct" else np.array([0.0, 1.0])
    return DecisionTree(nodes=[TreeNode(counts=counts)], classes=classes,
                        params=TreeParams())


class TestSelectPreposition:
    def test_detector_accepts_keeps_observed(self, store):
        net = FeedForwardNet.init([3 * store.dim + 3, 4, 2, 2], seed=0)
        instance = inst(["sat", "on", "mat"], 1, "on", "in")
        pred = select_preposition(instance, leaf_tree("correct"), net, store,
                                  uniform_table(), stoplist=STOPLIST)
        assert pred == "on"

    def test_undecidable_keeps_observed(self, store):
        net = FeedForwardNet.init([3 * store.dim + 3, 4, 2, 2], seed=0)
        instance = inst(["the", "on", "it"], 1, "on", "in")
        pred = select_preposition(instance, leaf_tree("error"), net, store,
                                  uniform_table(), stoplist=STOPLIST)
        assert pred == "on"

    def test_zero_net_ties_break_to_roster_order(self, store):
        d = 3 * store.dim + 3
        net = FeedForwardNet(sizes=[d, 2, 2, 2],
                             weights=[np.zeros((d, 2)), np.zeros((2, 2)),
                                      np.zeros((2, 2))],
                             biases=[np.zeros(2), np.zeros(2), np.zeros(2)])
        instance = inst(["sat", "on", "mat"], 1, "on", "in")
        pred = select_preposition(instance, leaf_tree("error"), net, store,
                                  uniform_table(), stoplist=STOPLIST)
        assert pred == ROSTER[0]


class TestTrainAndEvaluate:
    def make_dataset(self, n_per=12):
        # "sat/mat" contexts mark "on" correct; "box" contexts mean the
        # gold label is "in" even when "on" was observed.
        data = []
        for _ in range(n_per):
            data.append(inst(["sat", "on", "mat"], 1, "on", "on"))
            data.append(inst(["box", "on", "box"], 1, "on", "in"))
            data.append(inst(["ran", "to", "box"], 1, "to", "to"))
        return data

    def test_learns_separable_errors(self, store):
        data = self.make_dataset()
        models = train_selection_models(
            data, store, ROSTER,
            tree_params=TreeParams(max_depth=4, min_leaf=1),
            hyper=FnnHyper(epochs=200, seed=0, val_fraction=0.0),
            arch=(16, 8))
        (p, r, f1), errors = evaluate_selection(data, models, store)
        assert f1 == pytest.approx(1.0)
        assert errors == []

    def test_always_keep_baseline_scores_zero(self, store):
        data = self.make_dataset()
        table = build_confusion_table(data, ROSTER)
        net = FeedForwardNet.init([3 * store.dim + 3, 4, 2, 2], seed=0)
        models = SelectionModels(tree=leaf_tree("correct"), fnn=net, table=table)
        (p, r, f1), errors = evaluate_selection(data, models, store)
        assert (p, r, f1) == (0.0, 0.0, 0.0)
        assert len(errors) == 12

    def test_error_log_written(self, store, tmp_path):
        data = self.make_dataset(n_per=2)
        table = build_confusion_table(data, ROSTER)
        net = FeedForwardNet.init([3 * store.dim + 3, 4, 2, 2], seed=0)
        models = SelectionModels(tree=leaf_tree("correct"), fnn=net, table=table)
        log = tmp_path / "errors.csv"
        evaluate_selection(data, models, store, error_log_path=log)
        lines = log.read_text().strip().splitlines()
        assert lines[0] == "sentence,observed,gold,predicted"
        assert len(lines) == 3

    def test_empty_eval_rejected(self, store):
        net = FeedForwardNet.init([3 * store.dim + 3, 4, 2, 2], seed=0)
        models = SelectionModels(tree=leaf_tree("correct"), fnn=net,
                                 table=uniform_table())
        with pytest.raises(ValueError, match="empty"):
            evaluate_selection([], models, store)
