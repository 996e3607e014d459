"""The gradient checks' entries to the package's two step kernels.

``fnn_loss_and_grads`` runs ``learn._gradients``, the kernel that
``train_fnn`` steps with, and ``weighted_gradient`` runs
``factorize._gradient_block``, the kernel of a WD epoch, so the checks
test the code that trains.
"""

import numpy as np

from preptensor import factorize, learn
from preptensor.factorize import EmbeddingSet
from preptensor.learn import FeedForwardNet


def fnn_loss_and_grads(net: FeedForwardNet, X: np.ndarray, y: np.ndarray):
    """Mean cross-entropy and its gradients for a batch.

    Returns (loss, weight_grads, bias_grads); the backward pass is the
    analytic counterpart of ``fnn_forward_batch``. Runs in the network's
    dtype.
    """
    X = np.asarray(X, dtype=net.weights[0].dtype)
    y = np.asarray(y, dtype=np.int64)
    acts = learn._blocks(X, net.weights, len(X))
    loss = learn._cross_entropy(learn._forward(net.weights, net.biases, acts, len(X)), y)
    w_grads = [np.empty_like(w) for w in net.weights]
    b_grads = [np.empty_like(b) for b in net.biases]
    learn._gradients(net.weights, net.biases, acts, y, w_grads, b_grads)
    return loss, w_grads, b_grads


def weighted_gradient(emb: EmbeddingSet, i, j, k, x, x_max: float, alpha: float):
    """Analytic gradient of one weighted squared-residual term, or of each
    when the indices and raw counts are arrays (with a leading entry axis).

    Returns (g_u, g_w, g_q, g_bias) where the shared scalar bias gradient
    applies to all three biases.
    """
    scalar = np.ndim(x) == 0
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    u, w, q = (np.column_stack([F[np.atleast_1d(r)], b[np.atleast_1d(r)]])
               for F, b, r in ((emb.U, emb.b_U, i), (emb.W, emb.b_W, j),
                               (emb.Q, emb.b_Q, k)))
    p = factorize._gradient_block(np.stack([w, u, u, q, q, w]), np.log1p(x),
                                  2.0 * factorize.weight(x, x_max, alpha))
    grads, g = p[..., :-1], p[0, :, -1]
    return (*grads[:, 0], g[0]) if scalar else (*grads, g)
