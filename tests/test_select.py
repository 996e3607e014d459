import numpy as np
import pytest

import scalar_features
from conftest import assembled, make_store, traced_peak
from scalar_features import preprocess_context
from preptensor import select
from preptensor.learn import (
    DecisionTree,
    FeedForwardNet,
    FnnHyper,
    TreeNode,
    TreeParams,
    train_fnn,
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
    save_confusion_table,
    train_selection_models,
)

ROSTER = ["on", "in", "to"]
STOPLIST = frozenset({"the", "it", "a"})


VECTORS = {
    "on": [1.0, 0.0, 0.0],
    "in": [0.0, 1.0, 0.0],
    "to": [0.0, 0.0, 1.0],
    "sat": [1.0, 0.2, 0.0],
    "mat": [0.9, 0.1, 0.1],
    "box": [0.1, 1.0, 0.2],
    "ran": [0.2, 0.1, 1.0],
}


@pytest.fixture
def store():
    return make_store(VECTORS)


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
        path.write_text("sat on mat\t1\ton\tin\nran to box\t1\tto\tto\n")
        assert load_selection_dataset(path, ROSTER) == (data, 0)

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
            loaded, rejected = load_selection_dataset(path, ROSTER)
        assert (len(loaded), rejected) == (1, 4)
        assert "4 line(s) rejected" in caplog.text

    def test_rejects_non_ascii_integer_index(self, tmp_path, caplog):
        # int() reads each of these as an index in range.
        tokens = "a b c d e f g h i j on k"
        path = tmp_path / "sel.tsv"
        path.write_text(f"{tokens}\t10\ton\tin\n"
                        f"{tokens}\t1_0\ton\tin\n"
                        "sat on mat\t\u0661\ton\tin\n"
                        "sat on mat\t\uff11\ton\tin\n")
        with caplog.at_level("WARNING"):
            loaded, _rejected = load_selection_dataset(path, ROSTER)
        assert [inst.prep_index for inst in loaded] == [10]
        rejected = [r.getMessage() for r in caplog.records]
        assert len(rejected) == 4 and "3 line(s) rejected" in rejected[-1]
        assert "line 2 rejected: non-integer prep_index '1_0'" in rejected[0]

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "sel.tsv"
        path.write_text("\nsat on mat\t1\ton\tin\n\n")
        loaded, rejected = load_selection_dataset(path, ROSTER)
        assert (len(loaded), rejected) == (1, 0)


class TestPreprocessContext:
    """The context rule of the oracle, which the builders follow."""

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
            preprocess_context(inst(["on"], 0, "on", "on"), window=0, stoplist=STOPLIST)

    def test_builders_reject_bad_window(self, store):
        data = [inst(["sat", "on", "mat"], 1, "on", "in")]
        table = build_confusion_table(data, ROSTER)
        for build in (detection_features, correction_features):
            with pytest.raises(ValueError, match="window"):
                build(data, store, table, window=0, stoplist=STOPLIST)
        with pytest.raises(ValueError, match="window"):
            train_selection_models(data, store, ROSTER, TreeParams(), FnnHyper(epochs=1),
                                   (4, 2), window=0)


class TestConfusionTable:
    def test_unsmoothed_hand_ratios(self):
        data = ([inst(["x", "on", "y"], 1, "on", "in")] * 4
                + [inst(["x", "on", "y"], 1, "on", "on")]
                + [inst(["x", "in", "y"], 1, "in", "in")]
                + [inst(["x", "to", "y"], 1, "to", "to")])
        table = build_confusion_table(data, ROSTER, smoothing=0.0)
        on, in_, to = (table.index[p] for p in ("on", "in", "to"))
        assert table.probs[on, in_] == pytest.approx(0.8)
        assert table.probs[on, on] == pytest.approx(0.2)
        assert table.probs[on, to] == 0.0

    def test_smoothed_rows_sum_to_one(self):
        data = [inst(["x", "on", "y"], 1, "on", "in")]
        table = build_confusion_table(data, ROSTER, smoothing=1.0)
        assert table.probs.shape == (len(ROSTER), len(ROSTER))
        for row in table.probs:
            assert row.sum() == pytest.approx(1.0, abs=1e-12)
            assert (row > 0).all()

    def test_smoothing_with_no_observations(self):
        data = [inst(["x", "on", "y"], 1, "on", "on")]
        table = build_confusion_table(data, ROSTER, smoothing=1.0)
        # Row "in" saw nothing: uniform over the roster.
        assert table.probs[table.index["in"], table.index["in"]] == pytest.approx(1 / 3)

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
        assert np.array_equal(loaded.probs, table.probs)

    def test_corrupt_header_rejected(self, tmp_path):
        path = tmp_path / "conf.txt"
        path.write_text("NOPE v1 3 1.0\n")
        with pytest.raises(ValueError, match="header"):
            load_confusion_table(path)

    @pytest.mark.parametrize("k", ["\u0663", "0_3"])
    def test_non_integer_size_rejected(self, tmp_path, k):
        table = build_confusion_table([inst(["x", "on", "y"], 1, "on", "in")], ROSTER)
        path = tmp_path / "conf.txt"
        save_confusion_table(table, path)
        text = path.read_text()
        path.write_text(text.replace("CONFUSION v1 3 ", f"CONFUSION v1 {k} ", 1))
        with pytest.raises(ValueError) as exc:
            load_confusion_table(path)
        assert str(exc.value) == f"{path}: line 1: non-integer field {k!r}"

    @pytest.mark.parametrize("lineno, text, message", [
        (0, "CONFUSION v1 3 nan", "line 1: non-finite value 'nan'"),
        (0, "CONFUSION v1 3 inf", "line 1: non-finite value 'inf'"),
        (1, "on in on", "line 2: token 'on' listed twice"),
        (1, "on in", "roster length mismatch"),
        (1, "on in to at", "roster length mismatch"),
    ])
    def test_bad_smoothing_or_repeated_token_rejected(self, tmp_path, lineno, text,
                                                     message):
        table = build_confusion_table([inst(["x", "on", "y"], 1, "on", "in")], ROSTER)
        path = tmp_path / "conf.txt"
        save_confusion_table(table, path)
        lines = path.read_text().splitlines()
        lines[lineno] = text
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as exc:
            load_confusion_table(path)
        assert str(exc.value) == f"{path}: {message}"

    # A 3-row table cut after its first ``keep`` lines.
    @pytest.mark.parametrize("keep, message", [
        (4, "line 5: expected 3 rows, got 2"),
        (2, "line 3: expected 3 rows, got 0"),
    ])
    def test_short_file_rejected(self, tmp_path, keep, message):
        table = build_confusion_table([inst(["x", "on", "y"], 1, "on", "in")], ROSTER)
        path = tmp_path / "conf.txt"
        save_confusion_table(table, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:keep]) + "\n")
        with pytest.raises(ValueError) as exc:
            load_confusion_table(path)
        assert str(exc.value) == f"{path}: {message}"

    @pytest.mark.parametrize("lineno, value", [(3, "nan"), (5, "inf")])
    def test_non_finite_value_rejected(self, tmp_path, lineno, value):
        table = build_confusion_table([inst(["x", "on", "y"], 1, "on", "in")], ROSTER)
        path = tmp_path / "conf.txt"
        save_confusion_table(table, path)
        lines = path.read_text().splitlines()
        lines[lineno - 1] = " ".join(lines[lineno - 1].split()[:-1] + [value])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as exc:
            load_confusion_table(path)
        assert str(exc.value) == f"{path}: line {lineno}: non-finite value {value!r}"


def uniform_table():
    probs = np.full((len(ROSTER), len(ROSTER)), 1 / len(ROSTER))
    return ConfusionTable(roster=list(ROSTER), probs=probs, smoothing=1.0)


def detect_one(instance, store):
    """The detection row of ``instance`` alone, or None when it is
    undecidable."""
    decidable, rows = detection_features([instance], store, uniform_table(),
                                         window=3, stoplist=STOPLIST)
    assert rows.shape == (len(decidable), 3)
    return rows[0] if decidable else None


class TestDetectionFeatures:
    def test_arity_and_keep_prob(self, store):
        feats = detect_one(inst(["sat", "on", "mat"], 1, "on", "on"), store)
        assert feats.shape == (3,)
        assert feats[2] == pytest.approx(1 / 3)
        assert 1 <= feats[1] <= len(ROSTER)

    def test_cosine_value(self, store):
        # Context mean of sat and mat is ((1+0.9)/2, 0.15, 0.05).
        feats = detect_one(inst(["sat", "on", "mat"], 1, "on", "on"), store)
        mean = (np.array(VECTORS["sat"]) + VECTORS["mat"]) / 2
        expected = mean[0] / np.linalg.norm(mean)
        assert feats[0] == pytest.approx(expected, abs=1e-12)

    def test_empty_context_is_none(self, store):
        assert detect_one(inst(["the", "on", "it"], 1, "on", "on"), store) is None

    def test_oov_context_is_none(self, store):
        assert detect_one(inst(["zzz", "on", "qqq"], 1, "on", "on"), store) is None

    def test_cancelling_context_is_none(self):
        store = make_store({**VECTORS, "up": [0.3, -0.7, 0.2], "down": [-0.3, 0.7, -0.2]})
        assert detect_one(inst(["up", "on", "down"], 1, "on", "on"), store) is None

    def test_dataset_keeps_decidable_positions(self, store):
        data = [inst(["the", "on", "it"], 1, "on", "on"),
                inst(["sat", "on", "mat"], 1, "on", "on"),
                inst(["zzz", "on", "qqq"], 1, "on", "on"),
                inst(["box", "in", "ran"], 1, "in", "on")]
        decidable, rows = detection_features(data, store, uniform_table(),
                                             window=3, stoplist=STOPLIST)
        assert decidable == [1, 3]
        assert np.array_equal(rows, [detect_one(data[1], store),
                                     detect_one(data[3], store)])
        empty = detection_features([], store, uniform_table(), window=3,
                                   stoplist=STOPLIST)
        assert empty[0] == [] and empty[1].shape == (0, 3)


class TestCorrectionFeatures:
    def test_arity(self, store):
        instance = inst(["sat", "on", "mat"], 1, "on", "in")
        rows = correction_features([instance], store, uniform_table(),
                                   window=3, stoplist=STOPLIST)
        feats = assembled(rows)[ROSTER.index("in")]
        assert feats.shape == (3 * store.dim + 3,)

    def test_layout(self, store):
        instance = inst(["sat", "on", "mat"], 1, "on", "in")
        rows = correction_features([instance], store, uniform_table(),
                                   window=3, stoplist=STOPLIST)
        feats = assembled(rows)[ROSTER.index("in")]
        d = store.dim
        assert np.array_equal(feats[:d], VECTORS["sat"])
        assert np.array_equal(feats[d:2 * d], VECTORS["in"])
        assert np.array_equal(feats[2 * d:3 * d], VECTORS["mat"])
        assert feats[-1] == pytest.approx(1 / 3)

    def test_oov_candidate_zeroes_similarities(self):
        store = make_store({**VECTORS, "to": np.zeros(3)})
        instance = inst(["sat", "on", "mat"], 1, "on", "in")
        rows = correction_features([instance], store, uniform_table(),
                                   window=3, stoplist=STOPLIST)
        feats = assembled(rows)[ROSTER.index("to")]
        d = store.dim
        assert np.array_equal(feats[d:2 * d], np.zeros(3))
        assert feats[-3] == 0.0 and feats[-2] == 0.0

    def test_no_context_rejected(self, store):
        instance = inst(["the", "on", "it"], 1, "on", "in")
        with pytest.raises(ValueError, match="context"):
            correction_features([instance], store, uniform_table(),
                                window=3, stoplist=STOPLIST)


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
        store = make_store({**{w: rng.standard_normal(dim) for w in words},
                            "at": np.zeros(dim)})
        instance = inst(tokens, tokens.index("on"), "on", "in")
        table = build_confusion_table(
            [instance, inst(tokens, tokens.index("on"), "on", "to")], self.ROSTER)
        got = assembled(correction_features([instance], store, table, window=3,
                                            stoplist=STOPLIST))
        want = scalar_features.correction_features([instance], store, table,
                                                   window=3, stoplist=STOPLIST)
        assert got.shape == (len(self.ROSTER), 3 * dim + 3)
        assert np.array_equal(got, want)


def leaf_tree(label):
    """A one-leaf tree that gives every row ``label``: 0 correct, 1 error."""
    return DecisionTree(nodes=[TreeNode(counts=np.eye(2)[label])], params=TreeParams())


class TestSelectPreposition:
    """What ``evaluate_selection`` predicts for one instance: the error
    row it writes names the prediction, and the counters show the pass."""

    def predict(self, store, instance, tree, net):
        models = SelectionModels(tree=tree, fnn=net, table=uniform_table())
        _metrics, errors, counters = evaluate_selection([instance], models, store,
                                                        window=3)
        [(_sentence, _observed, _gold, predicted)] = errors
        return predicted, counters

    def test_detector_accepts_keeps_observed(self, store):
        net = FeedForwardNet.init([3 * store.dim + 3, 4, 2, 2], seed=0)
        instance = inst(["sat", "on", "mat"], 1, "on", "in")
        assert self.predict(store, instance, leaf_tree(0), net) == (
            "on", {"instances": 1, "decidable": 1, "flagged": 0})

    def test_undecidable_keeps_observed(self, store):
        net = FeedForwardNet.init([3 * store.dim + 3, 4, 2, 2], seed=0)
        instance = inst(["the", "on", "it"], 1, "on", "in")
        assert self.predict(store, instance, leaf_tree(1), net) == (
            "on", {"instances": 1, "decidable": 0, "flagged": 0})

    def test_zero_net_ties_break_to_roster_order(self, store):
        d = 3 * store.dim + 3
        net = FeedForwardNet(sizes=[d, 2, 2, 2],
                             weights=[np.zeros((d, 2)), np.zeros((2, 2)),
                                      np.zeros((2, 2))],
                             biases=[np.zeros(2), np.zeros(2), np.zeros(2)])
        instance = inst(["sat", "on", "mat"], 1, "on", "in")
        assert self.predict(store, instance, leaf_tree(1), net) == (
            ROSTER[0], {"instances": 1, "decidable": 1, "flagged": 1})


    def test_each_flagged_instance_takes_its_own_best_candidate(self, store):
        # The net's positive score grows with the pair similarity, so each
        # instance takes the roster member nearest its own context.
        d = 3 * store.dim + 3
        w1 = np.zeros((d, 1))
        w1[3 * store.dim] = 1.0
        net = FeedForwardNet(sizes=[d, 1, 1, 2],
                             weights=[w1, np.ones((1, 1)), np.array([[0.0, 1.0]])],
                             biases=[np.ones(1), np.zeros(1), np.zeros(2)])
        models = SelectionModels(tree=leaf_tree(1), fnn=net, table=uniform_table())
        data = [inst(["box", "to", "box"], 1, "to", "in"),
                inst(["ran", "on", "ran"], 1, "on", "to"),
                inst(["sat", "in", "mat"], 1, "in", "on")]
        _metrics, errors, counters = evaluate_selection(data, models, store, window=3)
        assert errors == []
        assert counters == {"instances": 3, "decidable": 3, "flagged": 3}


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
            arch=(16, 8), window=3)
        (p, r, f1), errors, _counters = evaluate_selection(data, models, store, window=3)
        assert f1 == pytest.approx(1.0)
        assert errors == []

    def test_undecidable_skipped_and_true_errors_when_nothing_flagged(
            self, store, monkeypatch):
        # A depth-0 detector is one leaf, majority "correct", so it flags
        # nothing. The out-of-vocabulary contexts are undecidable errors;
        # counted, they would make "error" the majority.
        data = self.make_dataset(n_per=4)
        data += [inst(["xx", "on", "yy"], 1, "on", "in")] * 5
        fitted = []

        def recording(rows, labels, arch, hyper):
            fitted.append((rows.shape, list(labels)))
            return train_fnn(rows, labels, arch, hyper)

        monkeypatch.setattr(select, "train_fnn", recording)
        models = train_selection_models(
            data, store, ROSTER, tree_params=TreeParams(max_depth=0),
            hyper=FnnHyper(epochs=1, seed=0), arch=(4, 2), window=3)
        # 8 correct (class 0) and 4 error (class 1) decidable instances.
        [root] = models.tree.nodes
        assert root.counts.tolist() == [8.0, 4.0]
        # The 4 true errors, one row per roster candidate; gold is "in".
        assert fitted == [((12, 3 * store.dim + 3), [0, 1, 0] * 4)]
        assert models.counters == {"instances": 17, "decidable": 12, "flagged": 0}

    def test_no_error_instances_rejected(self, store):
        data = [inst(["sat", "on", "mat"], 1, "on", "on"),
                inst(["ran", "to", "box"], 1, "to", "to")] * 3
        with pytest.raises(ValueError, match="no error instances"):
            train_selection_models(data, store, ROSTER, arch=(4, 2),
                                   tree_params=TreeParams(min_leaf=1),
                                   hyper=FnnHyper(), window=3)

    def test_always_keep_baseline_scores_zero(self, store):
        data = self.make_dataset()
        table = build_confusion_table(data, ROSTER)
        net = FeedForwardNet.init([3 * store.dim + 3, 4, 2, 2], seed=0)
        models = SelectionModels(tree=leaf_tree(0), fnn=net, table=table)
        (p, r, f1), errors, _counters = evaluate_selection(data, models, store, window=3)
        assert (p, r, f1) == (0.0, 0.0, 0.0)
        assert len(errors) == 12

    def test_nothing_flagged_builds_and_scores_no_rows(self, store, monkeypatch):
        data = self.make_dataset()
        table = build_confusion_table(data, ROSTER)
        rows = correction_features([], store, table, window=3, stoplist=STOPLIST)
        assert rows.shape == (0, 3 * store.dim + 3)
        assert rows.sides.shape == (0, 2, store.dim)
        assert np.array_equal(rows.cands, store.rows(ROSTER))

        def forbidden(net, X):
            raise AssertionError("an unflagged instance was scored")

        monkeypatch.setattr(select, "fnn_forward_batch", forbidden)
        net = FeedForwardNet.init([3 * store.dim + 3, 4, 2, 2], seed=0)
        models = SelectionModels(tree=leaf_tree(0), fnn=net, table=table)
        _metrics, errors, counters = evaluate_selection(data, models, store, window=3)
        assert counters == {"instances": 36, "decidable": 36, "flagged": 0}
        assert [row[3] for row in errors] == [row[1] for row in errors] == ["on"] * 12

    def test_error_log_written(self, store):
        # The rows eval-select writes to its errors CSV (checked there).
        data = self.make_dataset(n_per=2)
        table = build_confusion_table(data, ROSTER)
        net = FeedForwardNet.init([3 * store.dim + 3, 4, 2, 2], seed=0)
        models = SelectionModels(tree=leaf_tree(0), fnn=net, table=table)
        _metrics, errors, _counters = evaluate_selection(data, models, store, window=3)
        assert len(errors) == 2
        assert all(len(row) == 4 for row in errors)

    def test_empty_eval_rejected(self, store):
        net = FeedForwardNet.init([3 * store.dim + 3, 4, 2, 2], seed=0)
        models = SelectionModels(tree=leaf_tree(0), fnn=net,
                                 table=uniform_table())
        with pytest.raises(ValueError, match="empty"):
            evaluate_selection([], models, store, window=3)


def test_corrector_rows_never_built_whole():
    """The traced peak of training at d = 200, above what was held before
    the call, against the bytes of the corrector's float64 rows (4,802 x
    603): this code measured 0.14, mostly its float32 validation and batch
    blocks; holding the rows whole and their float32 copy measured 1.58."""
    d, roster = 200, default_roster()
    rng = np.random.default_rng(0)
    words = [f"w{idx}" for idx in range(60)]
    store = make_store({tok: rng.standard_normal(d) for tok in words + roster})
    data = []
    for idx in range(240):
        observed = roster[idx % len(roster)]
        gold = roster[(7 * idx + 3) % len(roster)] if idx < 100 else observed
        left, right = ([words[w] for w in rng.integers(len(words), size=2)]
                       for _ in range(2))
        data.append(inst([*left, observed, *right], 2, observed, gold))
    # A depth-0 detector flags nothing, so the corrector trains on the
    # 98 true errors.
    models, peak = traced_peak(lambda: train_selection_models(
        data, store, roster, TreeParams(max_depth=0), FnnHyper(epochs=1, seed=0),
        (16, 4), window=3))
    rows = models.fnn.counters["fnn_rows"]
    assert rows == 98 * len(roster)
    assert peak < 0.25 * rows * (3 * d + 3) * 8
