"""Per-layer reference for FNN training.

Trains as ``learn.train_fnn`` did before its preallocated step: each
batch is gathered into a new array, each layer's activations, deltas
and gradients are new arrays, and each layer's momentum update is
``m * v - lr * g``. ``learn.train_fnn`` must give the same weights,
biases, trajectory and counters bit for bit.
"""

import numpy as np

from preptensor.learn import PATIENCE, FeedForwardNet, FnnHyper


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _forward(net: FeedForwardNet, X: np.ndarray):
    activations, zs = [X], []
    last = len(net.weights) - 1
    for layer, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = activations[-1] @ w + b
        zs.append(z)
        activations.append(_softmax(z) if layer == last else np.maximum(z, 0.0))
    return activations, zs


def fnn_loss_and_grads(net: FeedForwardNet, X: np.ndarray, y: np.ndarray):
    X = np.asarray(X, dtype=net.weights[0].dtype)
    y = np.asarray(y, dtype=np.int64)
    activations, zs = _forward(net, X)
    probs = activations[-1]
    n = X.shape[0]
    floor = np.finfo(probs.dtype).tiny
    loss = float(-np.mean(np.log(np.clip(probs[np.arange(n), y], floor, None))))
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


def train_fnn(rows, labels, arch, hyper: FnnHyper) -> FeedForwardNet:
    X = np.asarray(rows, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("training data must be a nonempty 2-d array")
    if max(X.max(), -X.min()) > np.finfo(np.float32).max:
        raise ValueError("training features must lie within the float32 range")
    X = X.astype(np.float32)
    labels = np.asarray(labels, dtype=np.int64)
    sizes = [X.shape[1], *arch, 2]
    net = FeedForwardNet.init(sizes, seed=hyper.seed)
    net.weights = [w.astype(np.float32) for w in net.weights]
    net.biases = [b.astype(np.float32) for b in net.biases]
    rng = np.random.default_rng(hyper.seed + 1)
    n = X.shape[0]
    n_val = int(n * hyper.val_fraction)
    perm = rng.permutation(n)
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    vel_w = [np.zeros_like(w) for w in net.weights]
    vel_b = [np.zeros_like(b) for b in net.biases]
    best_val = np.inf
    best_params = None
    best_epoch = stall = epoch = 0
    for epoch in range(1, hyper.epochs + 1):
        order = train_idx[rng.permutation(len(train_idx))]
        for start in range(0, len(order), hyper.batch_size):
            batch = order[start:start + hyper.batch_size]
            _, w_grads, b_grads = fnn_loss_and_grads(net, X[batch], labels[batch])
            for layer in range(len(net.weights)):
                vel_w[layer] = hyper.momentum * vel_w[layer] - hyper.learning_rate * w_grads[layer]
                vel_b[layer] = hyper.momentum * vel_b[layer] - hyper.learning_rate * b_grads[layer]
                net.weights[layer] += vel_w[layer]
                net.biases[layer] += vel_b[layer]
        if not all(np.isfinite(p).all() for p in net.weights + net.biases):
            raise RuntimeError(
                f"FNN training diverged at epoch {epoch}: parameters are not finite"
            )
        if n_val:
            val_loss, _, _ = fnn_loss_and_grads(net, X[val_idx], labels[val_idx])
            net.trajectory.append(val_loss)
            if val_loss < best_val - 1e-9:
                best_val, best_epoch, stall = val_loss, epoch, 0
                best_params = ([w.copy() for w in net.weights],
                               [b.copy() for b in net.biases])
            else:
                stall += 1
                if stall >= PATIENCE:
                    break
        else:
            best_epoch = epoch
    if best_params is not None:
        net.weights, net.biases = best_params
    net.weights = [w.astype(np.float64) for w in net.weights]
    net.biases = [b.astype(np.float64) for b in net.biases]
    net.counters = {"fnn_rows": n, "epochs_run": epoch, "best_epoch": best_epoch}
    return net
