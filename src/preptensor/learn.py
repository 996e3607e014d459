"""Self-contained learners and metrics shared by the downstream tasks.

A CART-style decision tree with Gini impurity, a two-hidden-layer
two-class feed-forward network trained by momentum SGD on cross-entropy,
and the precision/recall/F1 and accuracy metrics used to score them.
"""

from __future__ import annotations

import functools
import itertools
import logging
from dataclasses import dataclass, field

import numpy as np

from .corpus import expect_end, open_input, parse_integers, parse_rows

logger = logging.getLogger(__name__)

__all__ = [
    "TreeParams",
    "DecisionTree",
    "train_decision_tree",
    "tree_predict",
    "FnnHyper",
    "FeedForwardNet",
    "CandidateRows",
    "fnn_forward_batch",
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


def _binary_labels(labels) -> np.ndarray:
    """The labels of both learners as int64, each 0 or 1."""
    y = np.asarray(labels)
    if not np.isin(y, (0, 1)).all():
        raise ValueError("labels must be 0 or 1")
    return y.astype(np.int64)


# ---------------------------------------------------------------------------
# Decision tree


@dataclass
class TreeParams:
    max_depth: int = 8
    min_leaf: int = 5

    def __post_init__(self):
        if self.max_depth < 0:
            raise ValueError(f"max_depth must be >= 0, got {self.max_depth}")
        if self.min_leaf < 0:
            raise ValueError(f"min_leaf must be >= 0, got {self.min_leaf}")


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
    params: TreeParams


def _gini(counts: np.ndarray):
    """Gini impurity of a class-count vector, or of each row of a block."""
    p = counts / counts.sum(axis=-1, keepdims=True)
    return 1.0 - np.sum(p * p, axis=-1)


def train_decision_tree(rows, labels, params: TreeParams) -> DecisionTree:
    """Greedy recursive partitioning minimizing Gini impurity on 0/1 labels.

    Each node scores every boundary between distinct sorted values of
    every feature at once, from the cumulative class counts left of it.
    Deterministic: split ties go to the lowest feature index, then the
    smallest threshold. Rows go left when feature < threshold, right
    when >= threshold.
    """
    X = np.asarray(rows, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("training data must be a nonempty 2-d array")
    if not np.all(np.isfinite(X)):
        raise ValueError("training features must be finite")
    y = _binary_labels(labels)
    if len(y) != X.shape[0]:
        raise ValueError("row/label length mismatch")
    one_hot = np.eye(2, dtype=np.int64)
    nodes: list[TreeNode] = []

    def grow(idx: np.ndarray, depth: int) -> int:
        counts = np.bincount(y[idx], minlength=2).astype(np.float64)
        node_id, n = len(nodes), len(idx)
        nodes.append(TreeNode(counts=counts))
        # Below two rows there is no boundary.
        if (depth >= params.max_depth or n < max(2 * params.min_leaf, 2)
                or _gini(counts) == 0.0):
            return node_id
        # (features, n): each feature's sorted values, and the class counts
        # left of the boundary after each position.
        order = np.argsort(X[idx], axis=0, kind="stable").T
        values = X[idx[order], np.arange(X.shape[1])[:, None]]
        left = np.cumsum(one_hot[y[idx[order]]], axis=1)[:, :-1]
        n_left = np.arange(1, n)
        usable = ((values[:, :-1] != values[:, 1:])
                  & (n_left >= params.min_leaf) & (n - n_left >= params.min_leaf))
        if not usable.any():
            return node_id
        left, n_left = left[usable], np.broadcast_to(n_left, usable.shape)[usable]
        gini = _gini(np.concatenate([left, counts - left]))
        impurity = (n_left * gini[:len(left)] + (n - n_left) * gini[len(left):]) / n
        # The first minimum: the lowest feature, then the smallest threshold.
        best = int(np.argmin(impurity))
        if impurity[best] >= _gini(counts) - 1e-15:
            return node_id
        f, pos = np.argwhere(usable)[best].tolist()
        # The midpoint, summed as halves so that it cannot overflow; when it
        # rounds onto a (b is a's neighbouring float), b itself.
        a, b = values[f, pos], values[f, pos + 1]
        thr = mid if (mid := 0.5 * a + 0.5 * b) > a else b
        nodes[node_id] = TreeNode(feature=f, threshold=thr)
        go_left = X[idx, f] < thr
        nodes[node_id].left = grow(idx[go_left], depth + 1)
        nodes[node_id].right = grow(idx[~go_left], depth + 1)
        return node_id

    grow(np.arange(X.shape[0]), 0)
    return DecisionTree(nodes=nodes, params=params)


def tree_predict(tree: DecisionTree, rows) -> np.ndarray:
    """True where a row's leaf holds more class-1 (error) rows than
    class-0 rows; a tie is class 0. Each node routes its rows at once:
    feature < threshold goes left."""
    X = np.asarray(rows, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("prediction rows must be a 2-d array")
    if not np.all(np.isfinite(X)):
        raise ValueError("prediction features must be finite")
    errors = np.empty(len(X), dtype=bool)
    pending = [(0, np.arange(len(X)))]
    while pending:
        node_id, idx = pending.pop()
        node = tree.nodes[node_id]
        if node.feature < 0:
            errors[idx] = node.counts[1] > node.counts[0]
            continue
        go_left = X[idx, node.feature] < node.threshold
        pending += [(node.left, idx[go_left]), (node.right, idx[~go_left])]
    return errors


# ---------------------------------------------------------------------------
# Feed-forward network


@dataclass
class FnnHyper:
    # Batch 256 at rate 0.04: batch 64 at 0.01 scaled linearly (Goyal
    # et al., 2017, "Accurate, Large Minibatch SGD").
    learning_rate: float = 0.04
    momentum: float = 0.9
    batch_size: int = 256
    epochs: int = 50
    seed: int = 0
    val_fraction: float = 0.1

    def __post_init__(self):
        if not 0 < self.learning_rate < np.inf:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ValueError(f"val_fraction must be in [0, 1), got {self.val_fraction}")


@dataclass
class FeedForwardNet:
    """Rectifier hidden layers, a two-class softmax output. ``trajectory``
    and ``counters`` describe the ``train_fnn`` run that made the network."""

    sizes: list[int]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    trajectory: list[float] = field(default_factory=list)
    counters: dict = field(default_factory=dict)

    @classmethod
    def init(cls, sizes, seed: int = 0) -> "FeedForwardNet":
        rng = np.random.default_rng(seed)
        weights = [rng.standard_normal((a, b)) * np.sqrt(2.0 / a)
                   for a, b in zip(sizes[:-1], sizes[1:])]
        biases = [np.zeros(b) for b in sizes[1:]]
        return cls(sizes=list(sizes), weights=weights, biases=biases)


@dataclass
class CandidateRows:
    """Feature rows held as their factors: one row per (instance,
    candidate) pair, instance-major. Row ``i * K + c`` is ``[sides[i, 0];
    cands[c]; sides[i, 1]; scalars[i * K + c]]``, where K is
    ``len(cands)``, so only the scalars are held per row."""

    sides: np.ndarray  # (instances, 2, d)
    cands: np.ndarray  # (K, d)
    scalars: np.ndarray  # (instances * K, s)

    def __len__(self) -> int:
        return len(self.scalars)

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.scalars), 3 * self.cands.shape[1] + self.scalars.shape[1]

    def take(self, rows: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write the given rows into ``out``, a C-contiguous (len(rows),
        row width) block of the factors' dtype, and return it."""
        k, d = self.cands.shape
        instance, cand = np.divmod(rows, k)
        # The two sides fill columns [0, d) and [2d, 3d) of each row.
        sides = out[:, :3 * d].reshape(len(rows), 3, d, copy=False)[:, ::2]
        # "clip" writes straight into the block; the indices are in range.
        np.take(self.sides, instance, axis=0, out=sides, mode="clip")
        np.take(self.cands, cand, axis=0, out=out[:, d:2 * d], mode="clip")
        np.take(self.scalars, rows, axis=0, out=out[:, 3 * d:], mode="clip")
        return out

    def instance(self, i: int) -> np.ndarray:
        """The (K, width) block of the rows of instance ``i``."""
        k = len(self.cands)
        return self.take(np.arange(i * k, (i + 1) * k),
                         np.empty((k, self.shape[1]), self.scalars.dtype))


def _layer_views(flat: np.ndarray, sizes) -> tuple[list, list]:
    """The (in, out) weight and (out,) bias views of each layer in one
    flat buffer laid out as w0, b0, w1, b1, ..."""
    weights, biases, at = [], [], 0
    for a, b in zip(sizes[:-1], sizes[1:]):
        weights.append(flat[at:at + a * b].reshape(a, b))
        biases.append(flat[at + a * b:at + a * b + b])
        at += a * b + b
    return weights, biases


def _blocks(X: np.ndarray, weights, rows: int) -> list[np.ndarray]:
    """``X`` and, for each layer, a (rows, out) block of X's dtype: the
    forward pass writes the layer's activations there and the backward
    pass overwrites them with the layer's deltas."""
    return [X, *(np.empty((rows, w.shape[1]), X.dtype) for w in weights)]


def _forward(weights, biases, acts, n: int) -> np.ndarray:
    """Fill the first ``n`` rows of each block after ``acts[0]`` with the
    activations of the first ``n`` rows of ``acts[0]``; return the
    two-class softmax rows."""
    last = len(weights) - 1
    for layer, (w, b) in enumerate(zip(weights, biases)):
        z = np.matmul(acts[layer][:n], w, out=acts[layer + 1][:n])
        z += b
        if layer < last:
            np.maximum(z, 0.0, out=z)
    # The max and the sum of the two columns, as the axis reductions
    # compute them for a row of two, without their per-call cost.
    z -= np.maximum(z[:, :1], z[:, 1:])
    np.exp(z, out=z)
    z /= z[:, :1] + z[:, 1:]
    return z


def _cross_entropy(probs: np.ndarray, y: np.ndarray) -> float:
    # The smallest normal float of the dtype, so that log stays finite.
    floor = np.finfo(probs.dtype).tiny
    return float(-np.mean(np.log(np.clip(probs[np.arange(len(y)), y], floor, None))))


def _gradients(weights, biases, acts, y, w_grads, b_grads) -> None:
    """Write the gradients of the mean cross-entropy of the first
    ``len(y)`` rows of ``acts[0]`` into ``w_grads`` and ``b_grads``."""
    n = len(y)
    delta = _forward(weights, biases, acts, n)
    delta[np.arange(n), y] -= 1.0
    delta /= n
    for layer in reversed(range(len(weights))):
        a = acts[layer][:n]
        np.matmul(a.T, delta, out=w_grads[layer])
        np.sum(delta, axis=0, out=b_grads[layer])
        if layer > 0:
            # A hidden unit passes gradient where it passed its input.
            passed = a > 0.0
            delta = np.matmul(delta, weights[layer].T, out=a)
            delta *= passed


def fnn_forward_batch(net: FeedForwardNet, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.shape[1] != net.sizes[0]:
        raise ValueError(
            f"the network takes {net.sizes[0]} input features but got {X.shape[1]}")
    if not np.all(np.isfinite(X)):
        raise ValueError("network input must be finite")
    return _forward(net.weights, net.biases, _blocks(X, net.weights, len(X)), len(X))


def train_fnn(rows, labels, arch, hyper: FnnHyper) -> FeedForwardNet:
    """Mini-batch SGD with momentum on cross-entropy.

    ``arch`` gives the two hidden sizes, the data the input width, and
    ``labels`` are 0 or 1. With a validation fraction set, keeps the
    parameters of the best validation epoch and stops early when stalled.

    ``rows`` is an array or a ``CandidateRows``. Trains in float32: the
    float64 draw of ``FeedForwardNet.init`` and the rows, or each of
    their factors, are cast once, and the network is widened back to
    float64 on return. A cast factor holds the values of the cast rows,
    so factored rows train the network their assembled array would.
    Every step runs in buffers made before the first: the parameters,
    their velocity and their gradient are flat arrays with per-layer
    views, each batch is gathered into one block, each layer
    writes into its own block, and the momentum update is four
    whole-buffer operations that round as ``m * v - lr * g`` does for
    one layer at a time. A step takes no loss, and an epoch that leaves
    a non-finite parameter or validation loss is a RuntimeError. The
    network's ``trajectory`` is the validation loss of each epoch run,
    and its ``counters`` the rows, the epochs run and the epoch it keeps.
    """
    factored = isinstance(rows, CandidateRows)
    parts = ([rows.sides, rows.cands, rows.scalars] if factored
             else [np.asarray(rows, dtype=np.float64)])
    if parts[-1].ndim != 2 or len(parts[-1]) == 0:
        raise ValueError("training data must be a nonempty 2-d array")
    if any(max(part.max(), -part.min()) > np.finfo(np.float32).max for part in parts):
        raise ValueError("training features must lie within the float32 range")
    parts = [part.astype(np.float32) for part in parts]
    if factored:
        X = CandidateRows(*parts)
        gather = X.take
    else:
        [X] = parts
        # "clip" writes straight into the block; the indices are in range.
        gather = functools.partial(np.take, X, axis=0, mode="clip")
    labels = _binary_labels(labels)
    sizes = [X.shape[1], *arch, 2]
    init = FeedForwardNet.init(sizes, seed=hyper.seed)
    theta = np.concatenate([p.ravel() for layer in zip(init.weights, init.biases)
                            for p in layer]).astype(np.float32)
    weights, biases = _layer_views(theta, sizes)
    grads, vel = np.empty_like(theta), np.zeros_like(theta)
    w_grads, b_grads = _layer_views(grads, sizes)
    rng = np.random.default_rng(hyper.seed + 1)
    n = X.shape[0]
    n_val = int(n * hyper.val_fraction)
    perm = rng.permutation(n)
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    val_labels = labels[val_idx]
    # The validation rows run forward only, through the same blocks.
    rows_held = max(min(hyper.batch_size, len(train_idx)), n_val)
    acts = _blocks(np.empty((rows_held, X.shape[1]), np.float32), weights, rows_held)
    trajectory, best_val, best_theta = [], np.inf, None
    best_epoch = stall = epoch = 0
    for epoch in range(1, hyper.epochs + 1):
        order = train_idx[rng.permutation(len(train_idx))]
        # A diverging run is reported once, by the parameter check below.
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, len(order), hyper.batch_size):
                batch = order[start:start + hyper.batch_size]
                gather(batch, out=acts[0][:len(batch)])
                _gradients(weights, biases, acts, labels[batch], w_grads, b_grads)
                vel *= hyper.momentum
                grads *= hyper.learning_rate
                vel -= grads
                theta += vel
        if not np.isfinite(theta).all():
            raise RuntimeError(
                f"FNN training diverged at epoch {epoch}: parameters are not finite"
            )
        if n_val:
            gather(val_idx, out=acts[0][:n_val])
            # Finite but huge weights can overflow it into a NaN loss.
            with np.errstate(over="ignore", invalid="ignore"):
                val_loss = _cross_entropy(_forward(weights, biases, acts, n_val),
                                          val_labels)
            if not np.isfinite(val_loss):
                raise RuntimeError(f"FNN training diverged at epoch {epoch}: "
                                   "validation loss is not finite")
            logger.debug("epoch %d val %.6g", epoch, val_loss)
            trajectory.append(val_loss)
            if val_loss < best_val - 1e-9:
                best_val, best_epoch, stall = val_loss, epoch, 0
                best_theta = theta.copy()
            else:
                stall += 1
                if stall >= PATIENCE:
                    break
        else:
            best_epoch = epoch
    kept = theta if best_theta is None else best_theta
    weights, biases = _layer_views(kept.astype(np.float64), sizes)
    return FeedForwardNet(sizes=sizes, weights=weights, biases=biases,
                          trajectory=trajectory,
                          counters={"fnn_rows": n, "epochs_run": epoch,
                                    "best_epoch": best_epoch})


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

# Line 2 of a tree file: the names of classes 0 and 1.
_TREE_CLASSES = ["'correct'", "'error'"]


def save_tree(tree: DecisionTree, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"TREE v1 {len(tree.nodes)} 2 "
                 f"{tree.params.max_depth} {tree.params.min_leaf}\n")
        fh.write(" ".join(_TREE_CLASSES) + "\n")
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
    with open_input(path) as fh:
        header = fh.readline().split()
        if len(header) != 6 or header[0] != "TREE" or header[1] != "v1":
            raise ValueError("bad tree header")
        n_nodes, n_classes, max_depth, min_leaf = parse_integers(header[2:], 1)
        if n_nodes < 1:
            raise ValueError("line 1: a tree needs at least one node")
        if n_classes != 2:
            raise ValueError(f"line 1: a tree has 2 classes, not {n_classes}")
        params = TreeParams(max_depth=max_depth, min_leaf=min_leaf)
        if fh.readline().split() != _TREE_CLASSES:
            raise ValueError(f"line 2: expected the classes {' '.join(_TREE_CLASSES)}")
        nodes = []
        for idx in range(n_nodes):
            parts = fh.readline().split()
            if not parts:
                raise ValueError(f"truncated at node {idx}")
            if parts[0] == "split":
                if len(parts) != 5:
                    raise ValueError(f"line {idx + 3}: a split has 4 fields")
                feature, left, right = parse_integers(parts[1:2] + parts[3:], idx + 3)
                # Children follow their parent, so prediction always ends.
                if feature < 0 or not idx < left < n_nodes or not idx < right < n_nodes:
                    raise ValueError(f"node {idx}: a split needs a feature >= 0 "
                                     f"and children in ({idx}, {n_nodes})")
                [threshold] = parse_rows(parts[2:3], 1, idx + 3)[0]
                node = TreeNode(feature=feature, threshold=threshold, left=left, right=right)
            elif parts[0] == "leaf":
                [counts] = parse_rows([" ".join(parts[1:])], 2, idx + 3)
                node = TreeNode(counts=counts)
                if (node.counts < 0.0).any() or node.counts.sum() == 0.0:
                    raise ValueError(f"line {idx + 3}: leaf counts must be >= 0 "
                                     "with a positive sum")
            else:
                raise ValueError(f"unknown node kind {parts[0]!r}")
            nodes.append(node)
        expect_end(fh, n_nodes + 3)
    return DecisionTree(nodes=nodes, params=params)


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
    with open_input(path) as fh:
        header = fh.readline().split()
        if len(header) < 4 or header[:3] != ["FNN", "v1", "sizes"]:
            raise ValueError("bad network header")
        sizes = parse_integers(header[3:], 1)
        if len(sizes) < 2 or min(sizes) < 1 or sizes[-1] != 2:
            raise ValueError("line 1: a network needs two or more sizes, each >= 1, "
                             "ending in 2 (its two classes)")
        weights, biases = [], []
        lineno = 2
        for a, b in zip(sizes[:-1], sizes[1:]):
            # a weight rows, then the bias row.
            layer = parse_rows(itertools.islice(fh, a + 1), b, lineno)
            if len(layer) != a + 1:
                raise ValueError(f"line {lineno + len(layer)}: file ends within "
                                 f"a {a} x {b} layer")
            weights.append(layer[:a])
            biases.append(layer[a])
            lineno += a + 1
        expect_end(fh, lineno)
    return FeedForwardNet(sizes=sizes, weights=weights, biases=biases)
