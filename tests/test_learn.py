import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import preptensor.learn as learn
import reference_fnn
import scalar_tree
from conftest import assembled, traced_peak
from preptensor.learn import (
    CandidateRows,
    FeedForwardNet,
    FnnHyper,
    TreeParams,
    accuracy,
    fnn_forward_batch,
    load_fnn,
    load_tree,
    precision_recall_f1,
    save_fnn,
    save_tree,
    train_decision_tree,
    train_fnn,
    tree_predict,
)
from step_kernels import fnn_loss_and_grads


def separable_1d(n=40):
    rng = np.random.default_rng(0)
    x = np.concatenate([rng.uniform(0, 0.45, n // 2), rng.uniform(0.55, 1.0, n // 2)])
    y = [0] * (n // 2) + [1] * (n // 2)
    return x[:, None], y


def tied_dataset(seed):
    """Rows with many repeated values (a column sometimes copies another,
    so impurity ties across features too), 0/1 labels loosely tied to
    the first column, min_leaf 0-7 and max_depth 1-8."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 80))
    n_features = int(rng.integers(1, 4))
    levels = int(rng.integers(2, 9))
    X = rng.integers(0, levels, (n, n_features)) / levels
    if n_features > 1 and rng.random() < 0.3:
        X[:, -1] = X[:, 0]
    if rng.random() < 0.3:
        X[:, 0] += rng.standard_normal(n) * 0.1
    y = (X[:, 0] * 2 + rng.integers(0, 2, n)).astype(int) % 2
    params = TreeParams(max_depth=int(rng.integers(1, 9)), min_leaf=int(rng.integers(0, 8)))
    return X, y.tolist(), params


def assert_same_net(net, reference):
    assert net.sizes == reference.sizes
    for got, want in zip(net.weights + net.biases, reference.weights + reference.biases):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert net.trajectory == reference.trajectory
    assert net.counters == reference.counters


def assert_same_tree(tree, reference, seed=None):
    assert len(tree.nodes) == len(reference.nodes), seed
    for got, want in zip(tree.nodes, reference.nodes):
        assert (got.feature, got.left, got.right) == (want.feature, want.left,
                                                      want.right), seed
        if want.feature >= 0:
            assert got.threshold == want.threshold, seed
        else:
            assert np.array_equal(got.counts, want.counts), seed


def assert_block_prediction(tree, X):
    """``tree_predict`` over ``X`` and over rows that sit exactly on each
    split threshold, against the per-row walk."""
    X = np.asarray(X, dtype=np.float64)
    at = []
    for node in tree.nodes:
        if node.feature >= 0:
            row = X[0].copy()
            row[node.feature] = node.threshold
            at.append(row)
    rows = np.vstack([X, *at]) if at else X
    assert tree_predict(tree, rows).tolist() == [scalar_tree.predict(tree, row)[0]
                                                 for row in rows]


CLASSES = "'correct' 'error'"
BAD_CLASSES = r"tree\.txt: line 2: expected the classes 'correct' 'error'$"


class TestDecisionTree:
    def test_pure_labels_single_leaf(self, tmp_path):
        tree = train_decision_tree([[0.1], [0.2], [0.3]], [1, 1, 1],
                                   TreeParams(min_leaf=1))
        assert len(tree.nodes) == 1
        assert tree_predict(tree, [[0.9]]).tolist() == [True]
        # One class seen still makes a two-class tree.
        path = tmp_path / "tree.txt"
        save_tree(tree, path)
        assert path.read_text() == "TREE v1 1 2 8 1\n'correct' 'error'\nleaf 0 3\n"

    @pytest.mark.parametrize("labels", [[0, 1, 2], ["a", "b", "a"], [0, 0.5, 1],
                                        ["0", "1", "1"]])
    def test_labels_other_than_0_or_1_rejected(self, labels):
        with pytest.raises(ValueError, match="^labels must be 0 or 1$"):
            train_decision_tree([[0.1], [0.2], [0.3]], labels, TreeParams(min_leaf=1))

    def test_predicts_a_bool_array(self):
        X, y = separable_1d()
        predicted = tree_predict(train_decision_tree(X, y, TreeParams(min_leaf=1)), X)
        assert isinstance(predicted, np.ndarray) and predicted.dtype == bool
        assert predicted.shape == (len(X),)

    def test_a_tied_leaf_predicts_class_0(self):
        tree = train_decision_tree([[0.0], [1.0]], [1, 0], TreeParams(max_depth=0))
        assert tree.nodes[0].counts.tolist() == [1.0, 1.0]
        assert tree_predict(tree, [[0.0], [1.0]]).tolist() == [False, False]

    @pytest.mark.parametrize("field", ["max_depth", "min_leaf"])
    def test_params_reject_negative_settings(self, field):
        with pytest.raises(ValueError, match=f"^{field} must be >= 0, got -1$"):
            TreeParams(**{field: -1})
        assert getattr(TreeParams(**{field: 0}), field) == 0

    def test_threshold_separable(self):
        X, y = separable_1d()
        tree = train_decision_tree(X, y, TreeParams(max_depth=8, min_leaf=1))
        # One split: the root and its two leaves.
        assert len(tree.nodes) == 3 and tree.nodes[0].feature == 0
        assert tree_predict(tree, X).tolist() == [bool(label) for label in y]

    def test_min_leaf_forces_single_leaf(self):
        tree = train_decision_tree([[0.0], [1.0], [1.0]], [0, 1, 1],
                                   TreeParams(min_leaf=10))
        assert len(tree.nodes) == 1
        assert tree_predict(tree, [[0.0]]).tolist() == [True]
        # The leaf's share of its counts, which only the per-row walk reports.
        label, score = scalar_tree.predict(tree, [0.0])
        assert label is True
        assert score == pytest.approx(2 / 3)

    def test_boundary_goes_right(self):
        X = [[0.0], [0.0], [1.0], [1.0]]
        tree = train_decision_tree(X, [0, 0, 1, 1], TreeParams(min_leaf=1))
        thr = tree.nodes[0].threshold
        assert tree_predict(tree, [[thr]]).tolist() == [True]

    def test_nan_feature_rejected(self):
        tree = train_decision_tree([[0.0], [1.0]], [0, 1], TreeParams(min_leaf=1))
        with pytest.raises(ValueError, match="finite"):
            tree_predict(tree, [[np.nan]])
        with pytest.raises(ValueError, match="2-d"):
            tree_predict(tree, [0.5])

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            train_decision_tree(np.empty((0, 2)), [], TreeParams())

    def test_accuracy_nondecreasing_in_depth(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((120, 3))
        y = ((X[:, 0] + X[:, 1] * X[:, 2]) > 0).astype(int)
        prev = 0.0
        for depth in range(1, 7):
            tree = train_decision_tree(X, y, TreeParams(max_depth=depth, min_leaf=1))
            acc = accuracy(tree_predict(tree, X), list(y))
            assert acc >= prev - 1e-12
            prev = acc

    def test_no_gain_split_makes_a_leaf(self):
        # The one usable boundary leaves both sides as mixed as the root.
        X, y = [[0.0], [0.0], [1.0], [1.0]], [0, 1, 0, 1]
        params = TreeParams(min_leaf=1)
        tree = train_decision_tree(X, y, params)
        assert len(tree.nodes) == 1
        assert_same_tree(tree, scalar_tree.train_decision_tree(X, y, params))

    def test_matches_per_position_search(self):
        splits = 0
        for seed in range(300):
            X, y, params = tied_dataset(seed)
            tree = train_decision_tree(X, y, params)
            assert_same_tree(tree, scalar_tree.train_decision_tree(X, y, params),
                             seed)
            splits += sum(node.feature >= 0 for node in tree.nodes)
        # The datasets grow real trees, not only single leaves.
        assert splits > 1000

    def test_block_prediction_matches_per_row_walk(self):
        splits = 0
        for seed in range(100):
            X, y, params = tied_dataset(seed)
            tree = train_decision_tree(X, y, params)
            assert_block_prediction(tree, X)
            splits += sum(node.feature >= 0 for node in tree.nodes)
        assert splits > 300
        assert tree_predict(tree, np.empty((0, X.shape[1]))).tolist() == []

    def test_round_trip(self, tmp_path):
        X, y = separable_1d()
        tree = train_decision_tree(X, y, TreeParams(min_leaf=1))
        path = tmp_path / "tree.txt"
        save_tree(tree, path)
        loaded = load_tree(path)
        assert np.array_equal(tree_predict(loaded, X), tree_predict(tree, X))
        assert [scalar_tree.predict(loaded, row) for row in X] == \
               [scalar_tree.predict(tree, row) for row in X]

    @pytest.mark.parametrize("values", [
        [1.0, np.nextafter(1.0, 2.0)],  # the midpoint rounds onto the left value
        [1e308, 1.7e308],               # the sum of the two overflows
    ])
    def test_round_trip_at_the_float_limits(self, tmp_path, values):
        X, y = [[v] for v in values], [0, 1]
        params = TreeParams(max_depth=3, min_leaf=1)
        with np.errstate(over="raise"):
            tree = train_decision_tree(X, y, params)
        assert_same_tree(tree, scalar_tree.train_decision_tree(X, y, params))
        assert len(tree.nodes) == 3
        assert values[0] < tree.nodes[0].threshold <= values[1]
        path = tmp_path / "tree.txt"
        save_tree(tree, path)
        loaded = load_tree(path)
        assert tree_predict(loaded, X).tolist() == [bool(label) for label in y]
        assert_block_prediction(loaded, X)

    # A two-class tree of three nodes whose root is the node under test.
    @pytest.mark.parametrize("root, match", [
        ("split 0 0.5 0 2", "children in"),   # points at itself
        ("split 0 0.5 1 7", "children in"),   # past the last node
        ("split -1 0.5 1 2", "feature >= 0"),
        ("leaf 1 2 3", "line 3: expected 2 fields, got 3"),
        ("split 0 half 1 2", r"tree\.txt: .*'half'"),
        ("split x 0.5 1 2", r"tree\.txt: .*'x'"),
        ("leaf 1 x", r"tree\.txt: .*'x'"),
        ("split 0 nan 1 2", r"tree\.txt: line 3: non-finite value 'nan'$"),
        ("leaf 1 inf", r"tree\.txt: line 3: non-finite value 'inf'$"),
        ("split \u0660 0.5 1 2", r"tree\.txt: line 3: non-integer field '\u0660'$"),
        ("split 0 0.5 1 0_2", r"tree\.txt: line 3: non-integer field '0_2'$"),
        ("leaf 0 0", r"tree\.txt: line 3: leaf counts must be >= 0 with a positive sum$"),
        ("leaf -3 1", r"tree\.txt: line 3: leaf counts must be >= 0"),
        ("leaf 2 -2", r"tree\.txt: line 3: leaf counts must be >= 0"),
        ("split 0 0.5 1", r"tree\.txt: line 3: a split has 4 fields$"),
        ("branch 0 0.5 1 2", r"tree\.txt: unknown node kind 'branch'$"),
        ("", r"tree\.txt: truncated at node 0$"),
    ])
    def test_load_rejects_bad_structure(self, tmp_path, root, match):
        path = tmp_path / "tree.txt"
        path.write_text(f"TREE v1 3 2 8 5\n'correct' 'error'\n{root}\nleaf 3 0\nleaf 0 3\n")
        with pytest.raises(ValueError, match=match):
            load_tree(path)

    # A header or class line that does not parse is a ValueError naming
    # the file. Line 2 must be the two classes 'correct' 'error'; a
    # header error is reported before line 2 is read.
    @pytest.mark.parametrize("header, classes, match", [
        ("TREE v1 3 two 8 5", "0 1", "'two'"),
        ("TREE v1 3 2 8 5", "'corr 'error'", BAD_CLASSES),
        ("TREE v1 3 2 8 5", "0 1", BAD_CLASSES),
        ("TREE v1 3 2 8 5", "'correct'", BAD_CLASSES),
        ("TREE v1 3 2 8 5", "'error' 'correct'", BAD_CLASSES),
        ("TREE v1 3 2 8 1_0", "0 1", r"tree\.txt: line 1: non-integer field '1_0'$"),
        # A tree with no nodes has no root to predict from.
        ("TREE v1 0 2 8 5", "0 1", r"tree\.txt: line 1: a tree needs at least one node$"),
        ("TREE v1 -1 2 8 5", "0 1", "at least one node"),
        ("TREE v2 3 2 8 5", "0 1", r"tree\.txt: bad tree header$"),
        ("TREE v1 3 2 8", "0 1", r"tree\.txt: bad tree header$"),
        ("TREE v1 3 2 8 5", CLASSES + " 'other'", BAD_CLASSES),
        ("TREE v1 3 1 8 5", "'correct'", r"tree\.txt: line 1: a tree has 2 classes, not 1$"),
        ("TREE v1 3 3 8 5", CLASSES + " 'other'",
         r"tree\.txt: line 1: a tree has 2 classes, not 3$"),
        ("TREE v1 3 2 -1 5", CLASSES, r"tree\.txt: max_depth must be >= 0, got -1$"),
        ("TREE v1 3 2 8 -5", CLASSES, r"tree\.txt: min_leaf must be >= 0, got -5$"),
        # More nodes declared than the file holds.
        ("TREE v1 4 2 8 5", CLASSES, r"tree\.txt: truncated at node 3$"),
    ])
    def test_load_rejects_unparsable_header(self, tmp_path, header, classes, match):
        path = tmp_path / "tree.txt"
        path.write_text(f"{header}\n{classes}\nsplit 0 0.5 1 2\nleaf 3 0\nleaf 0 3\n")
        with pytest.raises(ValueError, match=match) as info:
            load_tree(path)
        assert str(info.value).startswith(str(path))


class TestFnnForward:
    def test_zero_net_uniform(self):
        net = FeedForwardNet(sizes=[3, 4, 5, 2],
                             weights=[np.zeros((3, 4)), np.zeros((4, 5)),
                                      np.zeros((5, 2))],
                             biases=[np.zeros(4), np.zeros(5), np.zeros(2)])
        scores = fnn_forward_batch(net, [[1.0, -2.0, 0.5]])[0]
        assert np.allclose(scores, 0.5, atol=1e-12)

    def test_tiny_hand_computation(self):
        # 1-1-1-2 net: x=2, w=1 chains, relu passthrough, output [z, 0].
        net = FeedForwardNet(
            sizes=[1, 1, 1, 2],
            weights=[np.array([[1.0]]), np.array([[1.0]]),
                     np.array([[1.0, 0.0]])],
            biases=[np.zeros(1), np.zeros(1), np.zeros(2)],
        )
        scores = fnn_forward_batch(net, [[2.0]])[0]
        expected = np.exp([2.0, 0.0]) / np.exp([2.0, 0.0]).sum()
        assert np.allclose(scores, expected, atol=1e-12)

    def test_scores_sum_to_one(self):
        rng = np.random.default_rng(2)
        net = FeedForwardNet.init([4, 6, 3, 2], seed=5)
        X = rng.standard_normal((50, 4))
        scores = fnn_forward_batch(net, X)
        assert np.allclose(scores.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(scores > 0)

    def test_non_finite_input_rejected(self):
        net = FeedForwardNet.init([2, 3, 2, 2], seed=0)
        with pytest.raises(ValueError, match="finite"):
            fnn_forward_batch(net, [[np.inf, 0.0]])

    @pytest.mark.parametrize("width", [2, 4])
    def test_input_width_mismatch_rejected(self, width):
        net = FeedForwardNet.init([3, 4, 2], seed=0)
        with pytest.raises(ValueError) as exc:
            fnn_forward_batch(net, np.zeros((5, width)))
        assert str(exc.value) == f"the network takes 3 input features but got {width}"


class TestFnnGradients:
    def test_backprop_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        h = 1e-5
        for _ in range(20):
            net = FeedForwardNet.init([3, 4, 3, 2], seed=int(rng.integers(10000)))
            X = rng.standard_normal((5, 3))
            y = rng.integers(0, 2, 5)
            _, w_grads, b_grads = fnn_loss_and_grads(net, X, y)
            for layer in range(len(net.weights)):
                w = net.weights[layer]
                for r in range(w.shape[0]):
                    for c in range(w.shape[1]):
                        w[r, c] += h
                        up, _, _ = fnn_loss_and_grads(net, X, y)
                        w[r, c] -= 2 * h
                        down, _, _ = fnn_loss_and_grads(net, X, y)
                        w[r, c] += h
                        fd = (up - down) / (2 * h)
                        grad = w_grads[layer][r, c]
                        denom = max(abs(fd), abs(grad), 1e-6)
                        assert abs(fd - grad) / denom <= 1e-4

    def test_confidently_wrong_float32_batch_has_a_finite_loss(self):
        """A probability that underflows to 0 in float32 is floored at the
        smallest normal float32, so the loss stays finite and log warns
        of nothing."""
        net = FeedForwardNet(
            sizes=[1, 1, 1, 2],
            weights=[np.array([[1.0]], np.float32), np.array([[1.0]], np.float32),
                     np.array([[1000.0, 0.0]], np.float32)],
            biases=[np.zeros(1, np.float32), np.zeros(1, np.float32),
                    np.zeros(2, np.float32)],
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loss, w_grads, _ = fnn_loss_and_grads(net, np.ones((2, 1), np.float32),
                                                  np.array([1, 1]))
        assert loss == pytest.approx(-np.log(np.finfo(np.float32).tiny), rel=1e-6)
        assert all(grad.dtype == np.float32 for grad in w_grads)


class TestFnnTraining:
    def test_xor(self):
        X = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
        y = [0, 1, 1, 0]
        hyper = FnnHyper(learning_rate=0.1, momentum=0.9, batch_size=4,
                         epochs=2000, seed=0, val_fraction=0.0)
        net = train_fnn(X, y, (8, 4), hyper)
        preds = np.argmax(fnn_forward_batch(net, X), axis=1).tolist()
        assert preds == y

    def test_separable_blobs(self):
        rng = np.random.default_rng(4)
        X0 = rng.standard_normal((200, 2)) + [3.0, 3.0]
        X1 = rng.standard_normal((200, 2)) - [3.0, 3.0]
        X = np.vstack([X0, X1])
        y = [0] * 200 + [1] * 200
        perm = rng.permutation(400)
        X, y = X[perm], [y[p] for p in perm]
        net = train_fnn(X[:300], y[:300], (16, 8),
                        FnnHyper(epochs=30, seed=2, val_fraction=0.1))
        preds = np.argmax(fnn_forward_batch(net, X[300:]), axis=1).tolist()
        assert accuracy(preds, y[300:]) >= 0.99

    def test_memorizes_single_example(self):
        X = np.array([[1.0, -1.0]])
        net = train_fnn(X, [1], (8, 4),
                        FnnHyper(learning_rate=0.2, epochs=500, seed=3,
                                 val_fraction=0.0))
        loss, _, _ = fnn_loss_and_grads(net, X, np.array([1]))
        assert loss <= 1e-3

    def test_divergence_is_an_error(self):
        # The first epoch's huge steps leave non-finite parameters, and the
        # run warns of nothing on the way.
        X = np.array([[1.0, -1.0], [-1.0, 1.0]])
        hyper = FnnHyper(learning_rate=1e300, epochs=5, seed=0, val_fraction=0.0)
        with pytest.raises(RuntimeError,
                           match="diverged at epoch 1: parameters are not finite"):
            train_fnn(X, [0, 1], (4, 4), hyper)

    @pytest.mark.parametrize("val_fraction", [0.0, 0.25])
    def test_divergence_in_the_last_epoch_is_an_error(self, val_fraction):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((40, 3))
        hyper = FnnHyper(learning_rate=1e300, epochs=1, seed=0,
                         val_fraction=val_fraction)
        with pytest.raises(RuntimeError) as exc:
            train_fnn(X, (X[:, 0] > 0).astype(int), (5, 4), hyper)
        assert str(exc.value) == "FNN training diverged at epoch 1: parameters are not finite"

    def test_overflowing_validation_is_a_divergence(self):
        """At rate 100 the one epoch leaves finite weights whose validation
        forward overflows float32 into a NaN loss: the one error, and no
        warning on the way (pytest makes a RuntimeWarning an error)."""
        X = np.random.default_rng(0).standard_normal((1000, 6))
        hyper = FnnHyper(learning_rate=100, epochs=1, seed=0)
        with pytest.raises(RuntimeError) as exc:
            train_fnn(X, (X[:, 0] > 0).astype(int), (64, 16), hyper)
        assert str(exc.value) == ("FNN training diverged at epoch 1: "
                                  "validation loss is not finite")

    def test_overflow_under_a_finite_validation_loss_warns_nothing(self):
        """The validation forward overflows, the rectifier zeroes the
        -inf activations and the loss stays finite: a network, no warning."""
        X = np.random.default_rng(0).standard_normal((400, 4))
        net = train_fnn(X, (X[:, 0] > 0).astype(int), (8, 4),
                        FnnHyper(learning_rate=1e8, epochs=1, seed=0))
        assert len(net.trajectory) == 1 and np.isfinite(net.trajectory).all()

    def test_non_finite_validation_loss_is_an_error(self, monkeypatch):
        """A NaN loss never improves on the best, so it used to count as a
        stall."""
        monkeypatch.setattr(learn, "_cross_entropy", lambda probs, y: float("nan"))
        X, y = separable_1d()
        with pytest.raises(RuntimeError) as exc:
            train_fnn(X, y, (4, 4), FnnHyper(epochs=20, seed=0))
        assert str(exc.value) == ("FNN training diverged at epoch 1: "
                                  "validation loss is not finite")

    @pytest.mark.parametrize("labels", [[0, 1, 2], [-1, 0, 1], [0, 0.5, 1],
                                        ["a", "b", "a"]])
    def test_labels_other_than_zero_and_one_rejected(self, labels):
        X = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        with pytest.raises(ValueError, match="^labels must be 0 or 1$"):
            train_fnn(X, labels, (4, 4), FnnHyper(epochs=1))

    def test_one_class_still_builds_two_outputs(self):
        net = train_fnn(np.array([[1.0, -1.0]]), [0], (4, 4),
                        FnnHyper(epochs=1, val_fraction=0.0))
        assert net.sizes == [2, 4, 4, 2]

    @pytest.mark.parametrize("value", [1e39, -1e39])
    def test_features_beyond_float32_rejected(self, value):
        with pytest.raises(ValueError, match="within the float32 range"):
            train_fnn([[0.0, 1.0], [value, 0.0]], [0, 1], (4, 4), FnnHyper(epochs=1))

    def test_seeded_determinism(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((50, 3))
        y = (X[:, 0] > 0).astype(int)
        hyper = FnnHyper(epochs=10, seed=6)
        a = train_fnn(X, y, (5, 4), hyper)
        b = train_fnn(X, y, (5, 4), hyper)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_trains_in_float32_and_returns_float64(self, monkeypatch):
        dtypes = set()

        kernel = learn._gradients

        def recording(weights, biases, acts, *rest):
            dtypes.update(block.dtype for block in [*weights, *biases, *acts])
            return kernel(weights, biases, acts, *rest)

        monkeypatch.setattr(learn, "_gradients", recording)
        rng = np.random.default_rng(9)
        X = rng.standard_normal((60, 3))
        net = train_fnn(X, (X[:, 0] > 0).astype(int), (5, 4), FnnHyper(epochs=3, seed=1))
        assert dtypes == {np.dtype(np.float32)}
        for param in net.weights + net.biases:
            assert param.dtype == np.float64
            assert np.array_equal(param.astype(np.float32), param)

    def test_records_validation_losses_and_counters(self):
        rng = np.random.default_rng(10)
        X = rng.standard_normal((80, 3))
        net = train_fnn(X, (X[:, 0] > 0).astype(int), (5, 4),
                        FnnHyper(learning_rate=0.5, epochs=40, seed=2))
        counters = net.counters
        assert counters["fnn_rows"] == 80
        # The validation loss stalls, so training stops early.
        assert len(net.trajectory) == counters["epochs_run"] < 40
        assert net.trajectory[counters["best_epoch"] - 1] == min(net.trajectory)

    def test_without_validation_keeps_the_last_epoch(self):
        net = train_fnn(np.array([[1.0, -1.0]]), [1], (4, 4),
                        FnnHyper(epochs=7, seed=3, val_fraction=0.0))
        assert net.trajectory == []
        assert net.counters == {"fnn_rows": 1, "epochs_run": 7, "best_epoch": 7}

    def test_same_file_at_one_and_two_blas_threads(self, tmp_path):
        """A validation pass of 2,000 rows through a 78 -> 128 layer, and
        each training step's 256 x 78 x 128 product, are products
        OpenBLAS splits between threads; each setting trains in a fresh
        process, since the thread count is read at load."""
        script = (
            "import sys\n"
            "import numpy as np\n"
            "from preptensor.learn import FnnHyper, save_fnn, train_fnn\n"
            "X = np.random.default_rng(0).standard_normal((20000, 78))\n"
            "y = (X[:, :3].sum(axis=1) > 0).astype(int)\n"
            "save_fnn(train_fnn(X, y, (128, 16), FnnHyper(epochs=2, seed=4)), sys.argv[1])\n"
        )
        src = Path(learn.__file__).parents[1]
        files = []
        for threads in ("1", "2"):
            path = tmp_path / f"fnn{threads}.txt"
            subprocess.run([sys.executable, "-c", script, str(path)], check=True,
                           env={**os.environ, "PYTHONPATH": str(src),
                                "OPENBLAS_NUM_THREADS": threads})
            files.append(path.read_bytes())
        assert files[0] == files[1]

    @pytest.mark.parametrize("val_fraction", [0.0, 0.1])
    @pytest.mark.parametrize("batch", [64, 256, 100])
    def test_equals_per_layer_reference(self, batch, val_fraction):
        """Weights, biases, trajectory and counters equal the per-layer
        loop's bit for bit. The training rows, 650 or 585 beside 65
        validation rows, end in a short batch at every size."""
        rng = np.random.default_rng(batch)
        X = rng.standard_normal((650, 6))
        y = ((X[:, 0] > 0) ^ (X[:, 1] > 0.5)).astype(int)
        hyper = FnnHyper(learning_rate=0.01 * batch / 64, batch_size=batch, epochs=12,
                         seed=batch, val_fraction=val_fraction)
        assert_same_net(train_fnn(X, y, (16, 8), hyper),
                        reference_fnn.train_fnn(X, y, (16, 8), hyper))

    def test_equals_per_layer_reference_when_stopping_early(self):
        rng = np.random.default_rng(10)
        X = rng.standard_normal((300, 3))
        y = (X[:, 0] > 0).astype(int)
        hyper = FnnHyper(learning_rate=0.5, batch_size=64, epochs=60, seed=2)
        net = train_fnn(X, y, (5, 4), hyper)
        assert net.counters["best_epoch"] < net.counters["epochs_run"] < 60
        assert_same_net(net, reference_fnn.train_fnn(X, y, (5, 4), hyper))

    def test_memory_guard(self):
        """The traced peak above what was held before the call, against
        the float64 rows' own bytes: this code measured 0.72 (the float32
        copy is 0.5 of it, the blocks for 1,695 validation rows most of
        the rest); the per-layer loop measured 0.90, and gathering the
        shuffled training rows once per epoch adds 0.45."""
        X = np.random.default_rng(0).standard_normal((16954, 78))
        y = (X[:, :3].sum(axis=1) > 0).astype(int)
        _, peak = traced_peak(lambda: train_fnn(X, y, (128, 16),
                                                FnnHyper(epochs=2, seed=0)))
        assert peak < 0.8 * X.nbytes

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        net = FeedForwardNet.init([3, 4, 2, 2], seed=8)
        path = tmp_path / "fnn.txt"
        save_fnn(net, path)
        loaded = load_fnn(path)
        X = rng.standard_normal((10, 3))
        assert np.array_equal(fnn_forward_batch(net, X),
                              fnn_forward_batch(loaded, X))

    @pytest.mark.parametrize("size", ["\u0662", "0_2"])
    def test_load_rejects_non_integer_size(self, tmp_path, size):
        path = tmp_path / "fnn.txt"
        save_fnn(FeedForwardNet.init([3, 4, 2], seed=8), path)
        text = path.read_text()
        path.write_text(text.replace("FNN v1 sizes 3 4 2\n", f"FNN v1 sizes 3 4 {size}\n"))
        with pytest.raises(ValueError) as exc:
            load_fnn(path)
        assert str(exc.value) == f"{path}: line 1: non-integer field {size!r}"

    @pytest.mark.parametrize("sizes", ["9", "3 0 2", "3 4 -2", "3 4 1", "3 4 3"])
    def test_load_rejects_fewer_than_two_sizes_or_a_size_below_one(self, tmp_path,
                                                                   sizes):
        path = tmp_path / "fnn.txt"
        save_fnn(FeedForwardNet.init([3, 4, 2], seed=8), path)
        text = path.read_text()
        path.write_text(text.replace("FNN v1 sizes 3 4 2\n", f"FNN v1 sizes {sizes}\n"))
        with pytest.raises(ValueError) as exc:
            load_fnn(path)
        assert str(exc.value) == (f"{path}: line 1: a network needs two or more "
                                  "sizes, each >= 1, ending in 2 (its two classes)")

    # The 10-line file of a 3-4-2 net (layout below) under a new header,
    # cut after its first ``keep`` lines.
    @pytest.mark.parametrize("header, keep, message", [
        ("FNN v2 sizes 3 4 2", 10, "bad network header"),
        ("FNN v1 3 4 2", 10, "bad network header"),
        ("FNN v1 sizes", 10, "bad network header"),
        ("FNN v1 sizes 3 4 2", 9, "line 10: file ends within a 4 x 2 layer"),
        ("FNN v1 sizes 3 4 2", 3, "line 4: file ends within a 3 x 4 layer"),
        ("FNN v1 sizes 3 4 2", 1, "line 2: file ends within a 3 x 4 layer"),
    ])
    def test_load_rejects_bad_header_or_short_file(self, tmp_path, header, keep, message):
        path = tmp_path / "fnn.txt"
        save_fnn(FeedForwardNet.init([3, 4, 2], seed=8), path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join([header] + lines[1:keep]) + "\n")
        with pytest.raises(ValueError) as exc:
            load_fnn(path)
        assert str(exc.value) == f"{path}: {message}"

    # sizes 3-4-2: weights on lines 2-4, bias line 5, then weights on
    # lines 6-9 and bias line 10.
    @pytest.mark.parametrize("lineno, value", [(3, "nan"), (5, "inf"), (9, "-inf"),
                                               (10, "nan")])
    def test_load_rejects_non_finite_value(self, tmp_path, lineno, value):
        path = tmp_path / "fnn.txt"
        save_fnn(FeedForwardNet.init([3, 4, 2], seed=8), path)
        lines = path.read_text().splitlines()
        lines[lineno - 1] = " ".join([value] + lines[lineno - 1].split()[1:])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as exc:
            load_fnn(path)
        assert str(exc.value) == f"{path}: line {lineno}: non-finite value {value!r}"


class TestFnnHyper:
    @pytest.mark.parametrize("field, value, message", [
        ("learning_rate", 0.0, "learning_rate must be positive, got 0.0"),
        ("learning_rate", -0.04, "learning_rate must be positive, got -0.04"),
        ("momentum", -3.0, "momentum must be in [0, 1), got -3.0"),
        ("momentum", 1.0, "momentum must be in [0, 1), got 1.0"),
        ("batch_size", 0, "batch_size must be >= 1, got 0"),
        ("epochs", 0, "epochs must be >= 1, got 0"),
        ("val_fraction", -0.1, "val_fraction must be in [0, 1), got -0.1"),
        ("val_fraction", 1.0, "val_fraction must be in [0, 1), got 1.0"),
    ])
    def test_out_of_bounds_rejected(self, field, value, message):
        with pytest.raises(ValueError) as exc:
            FnnHyper(**{field: value})
        assert str(exc.value) == message

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_learning_rate_rejected(self, value):
        with pytest.raises(ValueError) as exc:
            FnnHyper(learning_rate=value)
        assert str(exc.value) == f"learning_rate must be positive, got {value}"

    @pytest.mark.parametrize("field, value", [
        ("learning_rate", 5e-324), ("momentum", 0.0), ("momentum", 0.999),
        ("batch_size", 1), ("epochs", 1), ("val_fraction", 0.0), ("val_fraction", 0.999),
    ])
    def test_bounds_accepted(self, field, value):
        assert getattr(FnnHyper(**{field: value}), field) == value


class TestCandidateRows:
    """Rows held as factors, against the same rows built by plain
    concatenation: 60 instances of K = 7 candidates, d = 4, 3 scalars."""

    K = 7

    def rows(self, seed=0):
        rng = np.random.default_rng(seed)
        return CandidateRows(sides=rng.standard_normal((60, 2, 4)),
                             cands=rng.standard_normal((self.K, 4)),
                             scalars=rng.standard_normal((60 * self.K, 3)))

    def concatenated(self, rows):
        return np.array([np.concatenate([rows.sides[r // self.K, 0],
                                         rows.cands[r % self.K],
                                         rows.sides[r // self.K, 1], rows.scalars[r]])
                         for r in range(len(rows))])

    def test_take_equals_concatenation(self):
        rows = self.rows()
        want = self.concatenated(rows)
        assert rows.shape == want.shape == (420, 15)
        # Rows out of order and across instance boundaries, and one
        # instance's block.
        picks = np.array([6, 7, 13, 14, 419, 0, 20, 21, 22, 200])
        got = rows.take(picks, np.empty((len(picks), 15)))
        assert np.array_equal(got, want[picks])
        assert np.array_equal(assembled(rows), want)
        assert np.array_equal(rows.instance(3), want[21:28])

    @pytest.mark.parametrize("batch", [64, 100])
    @pytest.mark.parametrize("val_fraction", [0.0, 0.1])
    def test_trains_the_network_of_its_rows(self, batch, val_fraction):
        """Batches of 64 and 100 rows split the instances of K = 7, and
        the 42 validation rows are drawn across them; the network equals
        the one trained on the concatenated rows and the per-layer
        reference's bit for bit."""
        rows = self.rows(batch)
        X = self.concatenated(rows)
        y = (X[:, 0] + X[:, 4] > X[:, -1]).astype(int)
        hyper = FnnHyper(learning_rate=0.01 * batch / 64, batch_size=batch, epochs=6,
                         seed=batch, val_fraction=val_fraction)
        net = train_fnn(rows, y, (8, 4), hyper)
        assert net.counters["fnn_rows"] == 420
        assert_same_net(net, train_fnn(X, y, (8, 4), hyper))
        assert_same_net(net, reference_fnn.train_fnn(X, y, (8, 4), hyper))

    @pytest.mark.parametrize("factor", ["sides", "cands", "scalars"])
    @pytest.mark.parametrize("value", [1e39, -1e39])
    def test_float32_range_checked_on_each_factor(self, factor, value):
        rows = self.rows()
        getattr(rows, factor).flat[5] = value
        with pytest.raises(ValueError, match="training features must lie within "
                                             "the float32 range"):
            train_fnn(rows, np.arange(len(rows)) % 2, (4, 4), FnnHyper(epochs=1))

    def test_no_rows_rejected(self):
        rows = CandidateRows(np.zeros((0, 2, 4)), np.ones((self.K, 4)), np.zeros((0, 3)))
        with pytest.raises(ValueError, match="nonempty 2-d"):
            train_fnn(rows, [], (4, 4), FnnHyper(epochs=1))


class TestMetrics:
    def test_hand_case(self):
        # TP=2 (a->b corrected right twice), FP=1, FN=3.
        observed = ["a", "a", "a", "a", "a", "a"]
        gold = ["b", "b", "b", "b", "b", "a"]
        predicted = ["b", "b", "a", "a", "c", "a"]
        p, r, f1 = precision_recall_f1(predicted, gold, observed)
        assert p == pytest.approx(2 / 3)
        assert r == pytest.approx(0.4)
        assert f1 == pytest.approx(0.5)

    def test_perfect(self):
        p, r, f1 = precision_recall_f1(["b", "a"], ["b", "a"], ["a", "a"])
        assert (p, r, f1) == (1.0, 1.0, 1.0)

    def test_zero_over_zero_convention(self):
        p, r, f1 = precision_recall_f1(["a", "a"], ["a", "a"], ["a", "a"])
        assert (p, r, f1) == (0.0, 0.0, 0.0)

    def test_f1_between_p_and_r(self):
        rng = np.random.default_rng(8)
        toks = ["a", "b", "c"]
        for _ in range(300):
            n = int(rng.integers(1, 20))
            obs = [toks[i] for i in rng.integers(0, 3, n)]
            gold = [toks[i] for i in rng.integers(0, 3, n)]
            pred = [toks[i] for i in rng.integers(0, 3, n)]
            p, r, f1 = precision_recall_f1(pred, gold, obs)
            if p + r > 0:
                assert min(p, r) - 1e-12 <= f1 <= max(p, r) + 1e-12

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            precision_recall_f1(["a"], ["a", "b"], ["a", "b"])

    def test_accuracy_values(self):
        assert accuracy([1, 2, 3], [1, 2, 3]) == 1.0
        assert accuracy([1, 2], [3, 4]) == 0.0
        assert accuracy([1, 2, 3, 4], [1, 2, 3, 0]) == 0.75

    def test_accuracy_empty_rejected(self):
        with pytest.raises(ValueError):
            accuracy([], [])
