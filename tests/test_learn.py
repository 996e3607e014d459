import numpy as np
import pytest

from preptensor.learn import (
    FeedForwardNet,
    FnnHyper,
    TreeParams,
    accuracy,
    fnn_forward,
    fnn_forward_batch,
    fnn_loss_and_grads,
    load_fnn,
    load_tree,
    precision_recall_f1,
    save_fnn,
    save_tree,
    train_decision_tree,
    train_fnn,
    tree_predict,
)


def separable_1d(n=40):
    rng = np.random.default_rng(0)
    x = np.concatenate([rng.uniform(0, 0.45, n // 2), rng.uniform(0.55, 1.0, n // 2)])
    y = [0] * (n // 2) + [1] * (n // 2)
    return x[:, None], y


class TestDecisionTree:
    def test_pure_labels_single_leaf(self):
        tree = train_decision_tree([[0.1], [0.2], [0.3]], ["a", "a", "a"],
                                   TreeParams(min_leaf=1))
        assert len(tree.nodes) == 1
        assert tree_predict(tree, [0.9])[0] == "a"

    def test_threshold_separable(self):
        X, y = separable_1d()
        tree = train_decision_tree(X, y, TreeParams(max_depth=8, min_leaf=1))
        assert tree.node_depth() == 1
        preds = [tree_predict(tree, row)[0] for row in X]
        assert preds == y

    def test_min_leaf_forces_single_leaf(self):
        tree = train_decision_tree([[0.0], [1.0], [1.0]], [0, 1, 1],
                                   TreeParams(min_leaf=10))
        assert len(tree.nodes) == 1
        label, score = tree_predict(tree, [0.0])
        assert label == 1
        assert score == pytest.approx(2 / 3)

    def test_boundary_goes_right(self):
        X = [[0.0], [0.0], [1.0], [1.0]]
        tree = train_decision_tree(X, [0, 0, 1, 1], TreeParams(min_leaf=1))
        thr = tree.nodes[0].threshold
        assert tree_predict(tree, [thr])[0] == 1

    def test_nan_feature_rejected(self):
        tree = train_decision_tree([[0.0], [1.0]], [0, 1], TreeParams(min_leaf=1))
        with pytest.raises(ValueError, match="finite"):
            tree_predict(tree, [np.nan])

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            train_decision_tree(np.empty((0, 2)), [])

    def test_accuracy_nondecreasing_in_depth(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((120, 3))
        y = ((X[:, 0] + X[:, 1] * X[:, 2]) > 0).astype(int)
        prev = 0.0
        for depth in range(1, 7):
            tree = train_decision_tree(X, y, TreeParams(max_depth=depth, min_leaf=1))
            acc = accuracy([tree_predict(tree, row)[0] for row in X], list(y))
            assert acc >= prev - 1e-12
            prev = acc

    def test_round_trip(self, tmp_path):
        X, y = separable_1d()
        tree = train_decision_tree(X, y, TreeParams(min_leaf=1))
        path = tmp_path / "tree.txt"
        save_tree(tree, path)
        loaded = load_tree(path)
        assert [tree_predict(loaded, row) for row in X] == \
               [tree_predict(tree, row) for row in X]

    # A two-class tree of three nodes whose root is the node under test.
    @pytest.mark.parametrize("root, match", [
        ("split 0 0.5 0 2", "children in"),   # points at itself
        ("split 0 0.5 1 7", "children in"),   # past the last node
        ("split -1 0.5 1 2", "feature >= 0"),
        ("leaf 1 2 3", "3 counts for 2 classes"),
        ("split 0 half 1 2", r"tree\.txt: .*'half'"),
        ("split x 0.5 1 2", r"tree\.txt: .*'x'"),
        ("leaf 1 x", r"tree\.txt: .*'x'"),
    ])
    def test_load_rejects_bad_structure(self, tmp_path, root, match):
        path = tmp_path / "tree.txt"
        path.write_text(f"TREE v1 3 2 8 5\n0 1\n{root}\nleaf 3 0\nleaf 0 3\n")
        with pytest.raises(ValueError, match=match):
            load_tree(path)

    # A header or class list that does not parse is a ValueError naming
    # the file.
    @pytest.mark.parametrize("header, classes, match", [
        ("TREE v1 3 two 8 5", "0 1", "'two'"),
        ("TREE v1 3 2 8 5", "'corr 'error'", "unterminated string"),
        ("TREE v1 3 2 8 5", "0 foo", "malformed"),
    ])
    def test_load_rejects_unparsable_header(self, tmp_path, header, classes, match):
        path = tmp_path / "tree.txt"
        path.write_text(f"{header}\n{classes}\nsplit 0 0.5 1 2\nleaf 3 0\nleaf 0 3\n")
        with pytest.raises(ValueError, match=match) as info:
            load_tree(path)
        assert str(info.value).startswith(str(path))


class TestFnnForward:
    def test_zero_net_uniform(self):
        net = FeedForwardNet(sizes=[3, 4, 2, 5],
                             weights=[np.zeros((3, 4)), np.zeros((4, 2)),
                                      np.zeros((2, 5))],
                             biases=[np.zeros(4), np.zeros(2), np.zeros(5)])
        scores = fnn_forward(net, [1.0, -2.0, 0.5])
        assert np.allclose(scores, 0.2, atol=1e-12)

    def test_tiny_hand_computation(self):
        # 1-1-1-2 net: x=2, w=1 chains, relu passthrough, output [z, 0].
        net = FeedForwardNet(
            sizes=[1, 1, 1, 2],
            weights=[np.array([[1.0]]), np.array([[1.0]]),
                     np.array([[1.0, 0.0]])],
            biases=[np.zeros(1), np.zeros(1), np.zeros(2)],
        )
        scores = fnn_forward(net, [2.0])
        expected = np.exp([2.0, 0.0]) / np.exp([2.0, 0.0]).sum()
        assert np.allclose(scores, expected, atol=1e-12)

    def test_scores_sum_to_one(self):
        rng = np.random.default_rng(2)
        net = FeedForwardNet.init([4, 6, 3, 3], seed=5)
        X = rng.standard_normal((50, 4))
        scores = fnn_forward_batch(net, X)
        assert np.allclose(scores.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(scores > 0)

    def test_non_finite_input_rejected(self):
        net = FeedForwardNet.init([2, 3, 2, 2], seed=0)
        with pytest.raises(ValueError, match="finite"):
            fnn_forward(net, [np.inf, 0.0])


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


class TestFnnTraining:
    def test_xor(self):
        X = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
        y = [0, 1, 1, 0]
        hyper = FnnHyper(learning_rate=0.1, momentum=0.9, batch_size=4,
                         epochs=2000, seed=0, val_fraction=0.0)
        net = train_fnn(X, y, (8, 4), hyper)
        preds = [int(np.argmax(fnn_forward(net, row))) for row in X]
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
        preds = [int(np.argmax(fnn_forward(net, row))) for row in X[300:]]
        assert accuracy(preds, y[300:]) >= 0.99

    def test_memorizes_single_example(self):
        X = np.array([[1.0, -1.0]])
        net = train_fnn(X, [1], (8, 4),
                        FnnHyper(learning_rate=0.2, epochs=500, seed=3,
                                 val_fraction=0.0))
        loss, _, _ = fnn_loss_and_grads(net, X, np.array([1]))
        assert loss <= 1e-3

    def test_seeded_determinism(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((50, 3))
        y = (X[:, 0] > 0).astype(int)
        hyper = FnnHyper(epochs=10, seed=6)
        a = train_fnn(X, y, (5, 4), hyper)
        b = train_fnn(X, y, (5, 4), hyper)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        net = FeedForwardNet.init([3, 4, 2, 2], seed=8)
        path = tmp_path / "fnn.txt"
        save_fnn(net, path)
        loaded = load_fnn(path)
        X = rng.standard_normal((10, 3))
        assert np.array_equal(fnn_forward_batch(net, X),
                              fnn_forward_batch(loaded, X))


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
