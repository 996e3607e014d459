"""Per-position reference for the decision tree's split search, and
the per-row walk of its prediction.

Walks each feature's sorted rows one at a time, moving one row's class
count from the right side to the left and scoring the boundary after it
with the scalar Gini impurity. ``learn.train_decision_tree`` scores the
same boundaries as arrays and must build the same tree node for node;
``learn.tree_predict`` routes a block of rows and must give each row
the verdict ``predict`` gives it. Labels are 0 (correct) or 1 (error).
"""

import numpy as np

from preptensor.learn import DecisionTree, TreeNode, TreeParams


def gini(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts / total
    return 1.0 - float(np.sum(p * p))


def train_decision_tree(rows, labels, params: TreeParams) -> DecisionTree:
    X = np.asarray(rows, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    nodes: list[TreeNode] = []

    def leaf_counts(idx):
        return np.bincount(y[idx], minlength=2).astype(np.float64)

    def grow(idx: np.ndarray, depth: int) -> int:
        counts = leaf_counts(idx)
        node_id = len(nodes)
        if (depth >= params.max_depth or len(idx) < 2 * params.min_leaf
                or gini(counts) == 0.0):
            nodes.append(TreeNode(counts=counts))
            return node_id
        best = None  # (impurity, feature, threshold)
        for f in range(X.shape[1]):
            col = X[idx, f]
            order = np.argsort(col, kind="stable")
            sorted_col = col[order]
            sorted_y = y[idx][order]
            left_counts = np.zeros(2)
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
                impurity = (n_left * gini(left_counts)
                            + n_right * gini(right_counts)) / n
                a, b = sorted_col[pos], sorted_col[pos + 1]
                thr = 0.5 * a + 0.5 * b
                if not thr > a:
                    thr = b
                cand = (impurity, f, thr)
                if best is None or cand < best:
                    best = cand
        if best is None or best[0] >= gini(counts) - 1e-15:
            nodes.append(TreeNode(counts=counts))
            return node_id
        _, f, thr = best
        nodes.append(TreeNode(feature=f, threshold=thr))
        go_left = X[idx, f] < thr
        nodes[node_id].left = grow(idx[go_left], depth + 1)
        nodes[node_id].right = grow(idx[~go_left], depth + 1)
        return node_id

    grow(np.arange(X.shape[0]), 0)
    return DecisionTree(nodes=nodes, params=params)


def predict(tree: DecisionTree, row):
    """Whether the leaf majority class of one row is class 1 (error),
    and that class's share of the leaf's counts (ties to class 0)."""
    row = np.asarray(row, dtype=np.float64)
    node = tree.nodes[0]
    while node.feature >= 0:
        node = tree.nodes[node.left if row[node.feature] < node.threshold
                          else node.right]
    probs = node.counts / node.counts.sum()
    best = int(np.argmax(probs))
    return best == 1, float(probs[best])
