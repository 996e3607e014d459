"""Self-contained learners and metrics shared by the downstream tasks.

A CART-style decision tree with Gini impurity, a two-hidden-layer
feed-forward network trained by momentum SGD on cross-entropy, and the
precision/recall/F1 and accuracy metrics used to score them.
"""

from __future__ import annotations

import ast
import logging
from dataclasses import dataclass

import numpy as np

logger = logging.getLogger(__name__)

__all__ = [
    "TreeParams",
    "DecisionTree",
    "train_decision_tree",
    "tree_predict",
    "FnnHyper",
    "FeedForwardNet",
    "fnn_forward",
    "fnn_forward_batch",
    "fnn_loss_and_grads",
    "train_fnn",
    "precision_recall_f1",
    "accuracy",
    "save_tree",
    "load_tree",
    "save_fnn",
    "load_fnn",
]

# Training stops after this many epochs without a better validation loss.
PATIENCE = 10


# ---------------------------------------------------------------------------
# Decision tree


@dataclass
class TreeParams:
    max_depth: int = 8
    min_leaf: int = 5


@dataclass
class TreeNode:
    # Internal node when feature >= 0; leaf otherwise.
    feature: int = -1
    threshold: float = 0.0
    left: int = -1
    right: int = -1
    counts: np.ndarray | None = None


@dataclass
class DecisionTree:
    nodes: list[TreeNode]
    classes: list
    params: TreeParams

    def node_depth(self, idx: int = 0, depth: int = 0) -> int:
        node = self.nodes[idx]
        if node.feature < 0:
            return depth
        return max(self.node_depth(node.left, depth + 1),
                   self.node_depth(node.right, depth + 1))


def _gini(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts / total
    return 1.0 - float(np.sum(p * p))


def train_decision_tree(rows, labels, params: TreeParams | None = None) -> DecisionTree:
    """Greedy recursive partitioning minimizing Gini impurity.

    Deterministic: split ties go to the lowest feature index, then the
    smallest threshold. Rows go left when feature < threshold, right
    when >= threshold.
    """
    params = params or TreeParams()
    X = np.asarray(rows, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("training data must be a nonempty 2-d array")
    if not np.all(np.isfinite(X)):
        raise ValueError("training features must be finite")
    labels = list(labels)
    if len(labels) != X.shape[0]:
        raise ValueError("row/label length mismatch")
    classes = sorted(set(labels), key=repr)
    class_ids = {c: idx for idx, c in enumerate(classes)}
    y = np.array([class_ids[lab] for lab in labels], dtype=np.int64)
    nodes: list[TreeNode] = []

    def leaf_counts(idx):
        return np.bincount(y[idx], minlength=len(classes)).astype(np.float64)

    def grow(idx: np.ndarray, depth: int) -> int:
        counts = leaf_counts(idx)
        node_id = len(nodes)
        if (depth >= params.max_depth or len(idx) < 2 * params.min_leaf
                or _gini(counts) == 0.0):
            nodes.append(TreeNode(counts=counts))
            return node_id
        best = None  # (impurity, feature, threshold)
        for f in range(X.shape[1]):
            col = X[idx, f]
            order = np.argsort(col, kind="stable")
            sorted_col = col[order]
            sorted_y = y[idx][order]
            left_counts = np.zeros(len(classes))
            right_counts = leaf_counts(idx)
            n = len(idx)
            for pos in range(n - 1):
                c = sorted_y[pos]
                left_counts[c] += 1
                right_counts[c] -= 1
                if sorted_col[pos] == sorted_col[pos + 1]:
                    continue
                n_left = pos + 1
                n_right = n - n_left
                if n_left < params.min_leaf or n_right < params.min_leaf:
                    continue
                impurity = (n_left * _gini(left_counts)
                            + n_right * _gini(right_counts)) / n
                thr = 0.5 * (sorted_col[pos] + sorted_col[pos + 1])
                cand = (impurity, f, thr)
                if best is None or cand < best:
                    best = cand
        if best is None or best[0] >= _gini(counts) - 1e-15:
            nodes.append(TreeNode(counts=counts))
            return node_id
        _, f, thr = best
        nodes.append(TreeNode(feature=f, threshold=thr))
        go_left = X[idx, f] < thr
        nodes[node_id].left = grow(idx[go_left], depth + 1)
        nodes[node_id].right = grow(idx[~go_left], depth + 1)
        return node_id

    grow(np.arange(X.shape[0]), 0)
    return DecisionTree(nodes=nodes, classes=classes, params=params)


def tree_predict(tree: DecisionTree, row):
    """Leaf majority class and its probability (ties to lower class index)."""
    row = np.asarray(row, dtype=np.float64)
    if not np.all(np.isfinite(row)):
        raise ValueError("prediction features must be finite")
    node = tree.nodes[0]
    while node.feature >= 0:
        node = tree.nodes[node.left if row[node.feature] < node.threshold
                          else node.right]
    probs = node.counts / node.counts.sum()
    best = int(np.argmax(probs))
    return tree.classes[best], float(probs[best])


# ---------------------------------------------------------------------------
# Feed-forward network


@dataclass
class FnnHyper:
    learning_rate: float = 0.01
    momentum: float = 0.9
    batch_size: int = 64
    epochs: int = 50
    seed: int = 0
    val_fraction: float = 0.1


@dataclass
class FeedForwardNet:
    """Rectifier hidden layers, softmax output."""

    sizes: list[int]
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @classmethod
    def init(cls, sizes, seed: int = 0) -> "FeedForwardNet":
        rng = np.random.default_rng(seed)
        weights = [rng.standard_normal((a, b)) * np.sqrt(2.0 / a)
                   for a, b in zip(sizes[:-1], sizes[1:])]
        biases = [np.zeros(b) for b in sizes[1:]]
        return cls(sizes=list(sizes), weights=weights, biases=biases)


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _forward(net: FeedForwardNet, X: np.ndarray):
    """Activations of every layer, the input first, and the
    pre-activations the backward pass needs."""
    activations, zs = [X], []
    last = len(net.weights) - 1
    for layer, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = activations[-1] @ w + b
        zs.append(z)
        activations.append(_softmax(z) if layer == last else np.maximum(z, 0.0))
    return activations, zs


def fnn_forward_batch(net: FeedForwardNet, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if not np.all(np.isfinite(X)):
        raise ValueError("network input must be finite")
    return _forward(net, X)[0][-1]


def fnn_forward(net: FeedForwardNet, row) -> np.ndarray:
    """Class scores for one input row; scores sum to one."""
    return fnn_forward_batch(net, np.asarray(row, dtype=np.float64)[None, :])[0]


def fnn_loss_and_grads(net: FeedForwardNet, X: np.ndarray, y: np.ndarray):
    """Mean cross-entropy and its gradients for a batch.

    Returns (loss, weight_grads, bias_grads); the backward pass is the
    analytic counterpart of ``fnn_forward_batch``.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    activations, zs = _forward(net, X)
    probs = activations[-1]
    n = X.shape[0]
    loss = float(-np.mean(np.log(np.clip(probs[np.arange(n), y], 1e-300, None))))
    delta = probs.copy()
    delta[np.arange(n), y] -= 1.0
    delta /= n
    w_grads = [None] * len(net.weights)
    b_grads = [None] * len(net.biases)
    for layer in reversed(range(len(net.weights))):
        w_grads[layer] = activations[layer].T @ delta
        b_grads[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ net.weights[layer].T) * (zs[layer - 1] > 0.0)
    return loss, w_grads, b_grads


def train_fnn(rows, labels, arch, hyper: FnnHyper | None = None) -> FeedForwardNet:
    """Mini-batch SGD with momentum on cross-entropy.

    ``arch`` gives the two hidden sizes; input and output widths come
    from the data. With a validation fraction set, keeps the parameters
    of the best validation epoch and stops early when stalled.
    """
    hyper = hyper or FnnHyper()
    X = np.asarray(rows, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("training data must be a nonempty 2-d array")
    labels = np.asarray(labels, dtype=np.int64)
    n_classes = int(labels.max()) + 1
    sizes = [X.shape[1], *arch, n_classes]
    net = FeedForwardNet.init(sizes, seed=hyper.seed)
    rng = np.random.default_rng(hyper.seed + 1)
    n = X.shape[0]
    n_val = int(n * hyper.val_fraction)
    perm = rng.permutation(n)
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    X_train, y_train = X[train_idx], labels[train_idx]
    X_val, y_val = X[val_idx], labels[val_idx]
    vel_w = [np.zeros_like(w) for w in net.weights]
    vel_b = [np.zeros_like(b) for b in net.biases]
    best_val = np.inf
    best_params = None
    stall = 0
    for epoch in range(hyper.epochs):
        order = rng.permutation(len(X_train))
        epoch_loss = 0.0
        for start in range(0, len(order), hyper.batch_size):
            batch = order[start:start + hyper.batch_size]
            loss, w_grads, b_grads = fnn_loss_and_grads(net, X_train[batch],
                                                        y_train[batch])
            epoch_loss += loss * len(batch)
            for layer in range(len(net.weights)):
                vel_w[layer] = hyper.momentum * vel_w[layer] - hyper.learning_rate * w_grads[layer]
                vel_b[layer] = hyper.momentum * vel_b[layer] - hyper.learning_rate * b_grads[layer]
                net.weights[layer] += vel_w[layer]
                net.biases[layer] += vel_b[layer]
        epoch_loss /= max(len(order), 1)
        if not np.isfinite(epoch_loss):
            raise RuntimeError(
                f"FNN training diverged at epoch {epoch + 1}: loss is not finite"
            )
        if len(X_val):
            val_loss, _, _ = fnn_loss_and_grads(net, X_val, y_val)
            logger.debug("epoch %d train %.6g val %.6g", epoch + 1, epoch_loss, val_loss)
            if val_loss < best_val - 1e-9:
                best_val = val_loss
                best_params = ([w.copy() for w in net.weights],
                               [b.copy() for b in net.biases])
                stall = 0
            else:
                stall += 1
                if stall >= PATIENCE:
                    break
        else:
            logger.debug("epoch %d train %.6g", epoch + 1, epoch_loss)
    if best_params is not None:
        net.weights, net.biases = best_params
    return net


# ---------------------------------------------------------------------------
# Metrics


def precision_recall_f1(predicted, gold, observed):
    """Edit-based precision/recall/F1.

    An edit is proposed when prediction differs from the observed token
    and needed when gold does. True positives are proposed edits that
    match gold; wrong or unneeded edits are false positives; needed
    edits that were missed or wrongly corrected are false negatives.
    0/0 ratios are defined as 0.
    """
    if not (len(predicted) == len(gold) == len(observed)):
        raise ValueError("prediction/gold/observed length mismatch")
    tp = fp = fn = 0
    for pred, g, obs in zip(predicted, gold, observed):
        proposed = pred != obs
        needed = g != obs
        if proposed and pred == g:
            tp += 1
        elif proposed:
            fp += 1
        if needed and pred != g:
            fn += 1
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def accuracy(predicted, gold) -> float:
    if len(predicted) != len(gold):
        raise ValueError("prediction/gold length mismatch")
    if not len(gold):
        raise ValueError("cannot score an empty set")
    return sum(p == g for p, g in zip(predicted, gold)) / len(gold)


# ---------------------------------------------------------------------------
# Model persistence


def save_tree(tree: DecisionTree, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"TREE v1 {len(tree.nodes)} {len(tree.classes)} "
                 f"{tree.params.max_depth} {tree.params.min_leaf}\n")
        fh.write(" ".join(repr(c) for c in tree.classes) + "\n")
        for node in tree.nodes:
            if node.feature >= 0:
                fh.write(f"split {node.feature} {format(node.threshold, '.17g')} "
                         f"{node.left} {node.right}\n")
            else:
                fh.write("leaf " + " ".join(format(c, ".17g") for c in node.counts)
                         + "\n")


def load_tree(path) -> DecisionTree:
    """Read a ``save_tree`` file; a field that does not parse, like a
    structure check that fails, is a ValueError naming the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            return _read_tree(fh)
        except (ValueError, SyntaxError) as exc:
            raise ValueError(f"{path}: {exc}") from None


def _read_tree(fh) -> DecisionTree:
    header = fh.readline().split()
    if len(header) != 6 or header[0] != "TREE" or header[1] != "v1":
        raise ValueError("bad tree header")
    n_nodes, n_classes = int(header[2]), int(header[3])
    params = TreeParams(max_depth=int(header[4]), min_leaf=int(header[5]))
    classes = [ast.literal_eval(tok) for tok in fh.readline().split()]
    if len(classes) != n_classes:
        raise ValueError("class list does not match header")
    nodes = []
    for idx in range(n_nodes):
        parts = fh.readline().split()
        if not parts:
            raise ValueError(f"truncated at node {idx}")
        if parts[0] == "split":
            # Children follow their parent, so prediction always ends.
            if (len(parts) != 5 or int(parts[1]) < 0
                    or not all(idx < int(child) < n_nodes for child in parts[3:])):
                raise ValueError(f"node {idx}: a split needs a feature >= 0 "
                                 f"and children in ({idx}, {n_nodes})")
            nodes.append(TreeNode(feature=int(parts[1]),
                                  threshold=float(parts[2]),
                                  left=int(parts[3]), right=int(parts[4])))
        elif parts[0] == "leaf":
            if len(parts) - 1 != n_classes:
                raise ValueError(f"node {idx}: leaf has "
                                 f"{len(parts) - 1} counts for {n_classes} classes")
            nodes.append(TreeNode(counts=np.array([float(x) for x in parts[1:]])))
        else:
            raise ValueError(f"unknown node kind {parts[0]!r}")
    return DecisionTree(nodes=nodes, classes=classes, params=params)


def save_fnn(net: FeedForwardNet, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("FNN v1 sizes " + " ".join(str(s) for s in net.sizes) + "\n")
        for w, b in zip(net.weights, net.biases):
            for row in w:
                fh.write(" ".join(format(x, ".17g") for x in row) + "\n")
            fh.write(" ".join(format(x, ".17g") for x in b) + "\n")


def load_fnn(path) -> FeedForwardNet:
    """Read a ``save_fnn`` file; a field that does not parse, like a
    shape check that fails, is a ValueError naming the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            return _read_fnn(fh)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def _read_fnn(fh) -> FeedForwardNet:
    header = fh.readline().split()
    if len(header) < 4 or header[:3] != ["FNN", "v1", "sizes"]:
        raise ValueError("bad network header")
    sizes = [int(s) for s in header[3:]]
    weights, biases = [], []
    for a, b in zip(sizes[:-1], sizes[1:]):
        w = np.array([[float(x) for x in fh.readline().split()]
                      for _ in range(a)])
        bias = np.array([float(x) for x in fh.readline().split()])
        if w.shape != (a, b) or bias.shape != (b,):
            raise ValueError("layer shape mismatch")
        weights.append(w)
        biases.append(bias)
    return FeedForwardNet(sizes=sizes, weights=weights, biases=biases)
