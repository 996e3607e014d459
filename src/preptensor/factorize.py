"""Low-rank factorization of the log-transformed count tensor.

Two routes to the same factor matrices U (words), W (second word mode)
and Q (prepositions plus the extra slice): alternating least squares
with early orthogonalization, and a weighted gradient decomposition
with per-index bias terms trained only on nonzero entries.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

from .corpus import SparseCountTensor

logger = logging.getLogger(__name__)

__all__ = [
    "TrainingConfig",
    "EmbeddingSet",
    "CooTensor",
    "log_transform",
    "weight",
    "orthogonalize_factors",
    "als_update_mode",
    "als_objective",
    "cp_fit",
    "decompose_orth_als",
    "decompose_weighted",
    "weighted_gradient",
]

RIDGE = 1e-8
# ALS stops once an unorthogonalized sweep gains less fit than this.
FIT_TOL = 1e-5
# Factor values gathered at once, per factor, when evaluating the model
# on the stored pattern; a block holds this many divided by d entries.
_BLOCK_VALUES = 1 << 18


@dataclass
class TrainingConfig:
    """Hyperparameters shared by both decomposition methods."""

    dim: int = 200
    iterations: int = 20
    ortho_iterations: int = 5
    x_max: float = 10.0
    alpha: float = 0.75
    learning_rate: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if self.ortho_iterations < 0:
            raise ValueError(f"ortho_iterations must be >= 0, got {self.ortho_iterations}")
        if self.ortho_iterations > self.iterations:
            raise ValueError("ortho_iterations must not exceed iterations")
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if self.x_max <= 0:
            raise ValueError(f"x_max must be positive, got {self.x_max}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")


@dataclass
class EmbeddingSet:
    """Factor matrices of one decomposition run.

    Rows of U are word vectors, rows of Q are preposition vectors with
    the extra-slice vector last. Bias vectors are present exactly for
    the weighted method. ``trajectory`` holds the per-epoch weighted loss
    (WD) or the per-sweep fit (ALS) of the run that made them.
    """

    U: np.ndarray
    W: np.ndarray
    Q: np.ndarray
    method_tag: str
    b_U: np.ndarray | None = None
    b_W: np.ndarray | None = None
    b_Q: np.ndarray | None = None
    trajectory: list[float] = field(default_factory=list)

    @property
    def dim(self) -> int:
        return self.U.shape[1]

    @property
    def has_biases(self) -> bool:
        return self.b_U is not None

    def validate(self) -> None:
        for name, arr in (("U", self.U), ("W", self.W), ("Q", self.Q)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"non-finite values in factor {name}")
        biases = (self.b_U, self.b_W, self.b_Q)
        if self.method_tag == "WD":
            if any(b is None for b in biases):
                raise ValueError("weighted decomposition requires bias vectors")
        elif any(b is not None for b in biases):
            raise ValueError(f"method {self.method_tag} must not carry biases")


@dataclass
class CooTensor:
    """Real-valued sparse tensor in coordinate form.

    The CSR unfoldings the ALS updates multiply by are built on first use
    and kept with the tensor, so its arrays must not change after that.
    """

    i: np.ndarray
    j: np.ndarray
    k: np.ndarray
    values: np.ndarray
    dims: tuple[int, int, int]
    _unfoldings: dict = field(default_factory=dict, init=False, repr=False,
                              compare=False)

    @property
    def nnz(self) -> int:
        return len(self.values)

    @classmethod
    def from_counts(cls, tensor: SparseCountTensor) -> "CooTensor":
        """The count tensor's coordinates, in its ascending (k, i, j)
        order, with float counts."""
        return cls(tensor.i, tensor.j, tensor.k, tensor.counts.astype(np.float64),
                   tensor.dims)

    def norm(self) -> float:
        return float(np.sqrt(np.sum(self.values ** 2)))


def log_transform(tensor: SparseCountTensor) -> CooTensor:
    """ln(1+x) on every stored count; the sparsity pattern is unchanged."""
    coo = CooTensor.from_counts(tensor)
    return CooTensor(coo.i, coo.j, coo.k, np.log1p(coo.values), coo.dims)


def weight(x, x_max: float, alpha: float):
    """Saturating weight min((x/x_max)^alpha, 1) applied to raw counts."""
    x = np.asarray(x, dtype=np.float64)
    out = np.minimum((x / x_max) ** alpha, 1.0)
    return float(out) if out.ndim == 0 else out


def _as_coo(tensor) -> CooTensor:
    """Raw-count coordinate view of a count or real tensor."""
    if isinstance(tensor, SparseCountTensor):
        raw = CooTensor.from_counts(tensor)
    elif isinstance(tensor, CooTensor):
        raw = tensor
    else:
        raise TypeError(f"unsupported tensor type {type(tensor).__name__}")
    if raw.nnz == 0:
        raise ValueError("empty tensor: nothing to decompose")
    return raw


def _reconstruction_at(coo: CooTensor, U, W, Q) -> np.ndarray:
    """The model's value at each stored entry, gathered a block of entries
    at a time, so no nnz x d temporaries are built."""
    block = max(1, _BLOCK_VALUES // U.shape[1])
    out = np.empty(coo.nnz)
    for start in range(0, coo.nnz, block):
        rows = slice(start, start + block)
        out[rows] = np.sum(U[coo.i[rows]] * W[coo.j[rows]] * Q[coo.k[rows]], axis=1)
    return out


def als_objective(coo: CooTensor, U: np.ndarray, W: np.ndarray, Q: np.ndarray) -> float:
    """Squared Frobenius error against the full tensor (zeros included),
    evaluated without densifying.

    Split into the residual on the stored pattern plus the
    reconstruction's energy on the zero pattern; the split avoids the
    cancellation a norm-expansion formula suffers near exact fits.
    """
    recon_at = _reconstruction_at(coo, U, W, Q)
    sparse_term = float(np.sum((coo.values - recon_at) ** 2))
    n, _, kp1 = coo.dims
    if coo.nnz == n * n * kp1:
        return sparse_term
    recon2 = float(np.sum((U.T @ U) * (W.T @ W) * (Q.T @ Q)))
    zero_term = max(recon2 - float(np.sum(recon_at ** 2)), 0.0)
    return sparse_term + zero_term


def cp_fit(coo, embeddings: EmbeddingSet) -> float:
    """1 minus relative Frobenius reconstruction error."""
    if isinstance(coo, SparseCountTensor):
        coo = log_transform(coo)
    norm_t = coo.norm()
    if norm_t == 0.0:
        raise ValueError("zero tensor has no defined fit")
    obj = als_objective(coo, embeddings.U, embeddings.W, embeddings.Q)
    return 1.0 - np.sqrt(obj) / norm_t


def _unfolding(coo: CooTensor, mode: str) -> scipy.sparse.csr_matrix:
    """``mode``'s unfolding of ``coo``, built on first use and kept on it."""
    if mode not in coo._unfoldings:
        coo._unfoldings[mode] = _build_unfolding(coo, mode)
    return coo._unfoldings[mode]


def _build_unfolding(coo: CooTensor, mode: str) -> scipy.sparse.csr_matrix:
    """A CSR matrix whose rows are ``mode``'s index and whose columns are
    k * N + j (U), k * N + i (W) or the entry's position (Q, since an
    N x N vector would not fit in memory). A stable sort keeps each
    row's entries in entry order, and the matrix is never sorted or
    merged, so a row's product adds its terms in the order an
    entry-by-entry scatter-add does."""
    n, _, kp1 = coo.dims
    rows = {"U": coo.i, "W": coo.j, "Q": coo.k}[mode]
    n_rows = kp1 if mode == "Q" else n
    order = np.argsort(rows, kind="stable")
    if mode == "Q":
        columns, n_columns = order, coo.nnz
    else:
        other = coo.j if mode == "U" else coo.i
        columns, n_columns = coo.k[order] * n + other[order], kp1 * n
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n_rows), out=indptr[1:])
    return scipy.sparse.csr_matrix((coo.values[order], columns, indptr),
                                   shape=(n_rows, n_columns))


def _mttkrp(coo: CooTensor, mode: str, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Matricized tensor times Khatri-Rao product for ``mode``, where A
    and B are the other two factors in (U, W, Q) order: per component,
    the unfolding times B's column outer A's column, or, for Q, times
    each entry's U[i] * W[j]. A row's sum starts at 0 and adds
    value * (a * b) in entry order, bit for bit the sum of an
    entry-by-entry scatter-add."""
    csr = _unfolding(coo, mode)
    At, Bt = np.ascontiguousarray(A.T), np.ascontiguousarray(B.T)
    out = np.empty((A.shape[1], csr.shape[0]))
    for c, (a, b) in enumerate(zip(At, Bt)):
        x = a[coo.i] * b[coo.j] if mode == "Q" else np.multiply.outer(b, a).ravel()
        out[c] = csr @ x
    return out.T


def als_update_mode(coo: CooTensor, U: np.ndarray, W: np.ndarray, Q: np.ndarray,
                    mode: str) -> np.ndarray:
    """Exact ridge-regularized least-squares update of one factor matrix,
    holding the other two fixed."""
    fixed = {"U": (W, Q), "W": (U, Q), "Q": (U, W)}
    if mode not in fixed:
        raise ValueError(f"unknown mode {mode!r}")
    A, B = fixed[mode]
    m = _mttkrp(coo, mode, A, B)
    gram = (A.T @ A) * (B.T @ B)
    gram = gram + RIDGE * np.eye(gram.shape[0])
    return np.linalg.solve(gram, m.T).T


def orthogonalize_factors(factor: np.ndarray,
                          rng: np.random.Generator | None = None) -> np.ndarray:
    """Orthonormalize the d component columns, preserving their span.

    Rank-deficient columns are replaced by random orthogonal completions
    (logged); the result always has orthonormal columns.
    """
    n, d = factor.shape
    if n < d:
        raise ValueError(f"need at least d={d} rows to orthogonalize, got {n}")
    q, r = np.linalg.qr(factor)
    # Fix signs so the decomposition is deterministic.
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    q = q * signs
    deficient = np.abs(np.diag(r)) < 1e-12 * max(1.0, np.abs(r).max())
    if np.any(deficient):
        logger.warning("orthogonalize: replacing %d rank-deficient component(s)",
                       int(deficient.sum()))
        rng = rng or np.random.default_rng(0)
        for col in np.nonzero(deficient)[0]:
            v = rng.standard_normal(n)
            for other in range(d):
                if other != col:
                    v -= (q[:, other] @ v) * q[:, other]
            q[:, col] = v / np.linalg.norm(v)
    return q


def _init_factors(dims: tuple[int, int, int], d: int, seed: int):
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(d)
    n, _, kp1 = dims
    U = rng.standard_normal((n, d)) * scale
    W = rng.standard_normal((n, d)) * scale
    Q = rng.standard_normal((kp1, d)) * scale
    return rng, U, W, Q


def decompose_orth_als(tensor, config: TrainingConfig) -> EmbeddingSet:
    """CP decomposition of the log tensor by alternating least squares.

    During the first ``ortho_iterations`` sweeps the factor components
    are orthogonalized before the least-squares updates (skipped for
    factors with fewer rows than components). Deterministic given the
    seed. Accepts a raw count tensor or an already log-domain CooTensor;
    count tensors are log-transformed first.
    """
    if isinstance(tensor, SparseCountTensor):
        coo = log_transform(tensor)
    elif isinstance(tensor, CooTensor):
        coo = tensor
    else:
        raise TypeError(f"unsupported tensor type {type(tensor).__name__}")
    if coo.nnz == 0 or coo.norm() == 0.0:
        raise ValueError("empty tensor: nothing to decompose")
    rng, U, W, Q = _init_factors(coo.dims, config.dim, config.seed)
    norm_t = coo.norm()
    prev_fit = -np.inf
    trajectory = []
    for sweep in range(config.iterations):
        if sweep < config.ortho_iterations:
            if U.shape[0] >= config.dim:
                U = orthogonalize_factors(U, rng)
            if W.shape[0] >= config.dim:
                W = orthogonalize_factors(W, rng)
            if Q.shape[0] >= config.dim:
                Q = orthogonalize_factors(Q, rng)
        U = als_update_mode(coo, U, W, Q, "U")
        W = als_update_mode(coo, U, W, Q, "W")
        Q = als_update_mode(coo, U, W, Q, "Q")
        obj = als_objective(coo, U, W, Q)
        fit = 1.0 - np.sqrt(obj) / norm_t
        logger.info("sweep %d objective %.10g fit %.10g", sweep + 1, obj, fit)
        trajectory.append(float(fit))
        if sweep >= config.ortho_iterations and fit - prev_fit < FIT_TOL:
            break
        prev_fit = fit
    emb = EmbeddingSet(U=U, W=W, Q=Q, method_tag="ALS", trajectory=trajectory)
    emb.validate()
    return emb


def weighted_gradient(emb: EmbeddingSet, i: int, j: int, k: int, x: float,
                      x_max: float, alpha: float):
    """Analytic gradient of one weighted squared-residual term.

    Returns (g_u, g_w, g_q, g_bias) where the shared scalar bias gradient
    applies to all three biases.
    """
    u, w, q = emb.U[i], emb.W[j], emb.Q[k]
    r = float(u @ (w * q)) + float(emb.b_U[i]) + float(emb.b_W[j]) + float(emb.b_Q[k])
    r -= np.log1p(x)
    g = 2.0 * weight(x, x_max, alpha) * r
    return g * (w * q), g * (u * q), g * (u * w), g


def _wd_epoch(order, ii, jj, kk, targets, weights, lr,
              U, W, Q, bU, bW, bQ, GU, GW, GQ, GbU, GbW, GbQ):
    """One adaptive-step pass over the entries in ``order``; updates the
    factors, biases and squared-gradient sums in place and returns the
    weighted loss seen during the pass.

    Indices, targets, weights, biases and bias sums are python lists, so
    the per-entry scalar work stays off numpy; factor rows are updated in
    place through their views.
    """
    sqrt = math.sqrt
    loss = 0.0
    for e in order:
        i, j, k = ii[e], jj[e], kk[e]
        u, w, q = U[i], W[j], Q[k]
        wq = w * q
        r = float(u @ wq) + bU[i] + bW[j] + bQ[k] - targets[e]
        wt = weights[e]
        loss += wt * r * r
        g = 2.0 * wt * r
        gu = g * wq
        gw = g * (u * q)
        gq = g * (u * w)
        gU, gW, gQ = GU[i], GW[j], GQ[k]
        u -= lr * gu / np.sqrt(gU)
        w -= lr * gw / np.sqrt(gW)
        q -= lr * gq / np.sqrt(gQ)
        gu *= gu
        gU += gu
        gw *= gw
        gW += gw
        gq *= gq
        gQ += gq
        bU[i] -= lr * g / sqrt(GbU[i])
        bW[j] -= lr * g / sqrt(GbW[j])
        bQ[k] -= lr * g / sqrt(GbQ[k])
        gg = g * g
        GbU[i] += gg
        GbW[j] += gg
        GbQ[k] += gg
    return loss


def wd_loss(raw: CooTensor, emb: EmbeddingSet, x_max: float, alpha: float) -> float:
    """Weighted squared-residual loss over the nonzero entries."""
    targets = np.log1p(raw.values)
    weights = weight(raw.values, x_max, alpha)
    resid = (_reconstruction_at(raw, emb.U, emb.W, emb.Q)
             + emb.b_U[raw.i] + emb.b_W[raw.j] + emb.b_Q[raw.k] - targets)
    return float(np.sum(weights * resid ** 2))


def decompose_weighted(tensor, config: TrainingConfig,
                       init: EmbeddingSet | None = None) -> EmbeddingSet:
    """Weighted decomposition with biases by adaptive stochastic descent.

    Visits shuffled nonzero entries (zero entries carry zero weight) for
    ``iterations`` epochs, updating each touched row with per-coordinate
    adaptive step sizes. Deterministic given the seed.
    """
    raw = _as_coo(tensor)
    if np.any(raw.values <= 0):
        raise ValueError("weighted decomposition requires positive nonzero entries")
    if init is not None:
        rng = np.random.default_rng(config.seed)
        U, W, Q = init.U.copy(), init.W.copy(), init.Q.copy()
        bU, bW, bQ = init.b_U.tolist(), init.b_W.tolist(), init.b_Q.tolist()
    else:
        rng, U, W, Q = _init_factors(raw.dims, config.dim, config.seed)
        n, _, kp1 = raw.dims
        bU, bW, bQ = [0.0] * n, [0.0] * n, [0.0] * kp1
    GU, GW, GQ = np.ones_like(U), np.ones_like(W), np.ones_like(Q)
    GbU, GbW, GbQ = [1.0] * len(bU), [1.0] * len(bW), [1.0] * len(bQ)
    ii, jj, kk = raw.i.tolist(), raw.j.tolist(), raw.k.tolist()
    targets = np.log1p(raw.values).tolist()
    weights = weight(raw.values, config.x_max, config.alpha).tolist()
    trajectory = []
    for epoch in range(config.iterations):
        order = rng.permutation(raw.nnz).tolist()
        # A diverging run is reported once, by the loss check below.
        with np.errstate(over="ignore", invalid="ignore"):
            loss = _wd_epoch(order, ii, jj, kk, targets, weights,
                             config.learning_rate,
                             U, W, Q, bU, bW, bQ, GU, GW, GQ, GbU, GbW, GbQ)
        if not np.isfinite(loss):
            raise RuntimeError(
                f"weighted decomposition diverged at epoch {epoch + 1}: "
                f"loss is not finite (try a smaller learning rate)"
            )
        logger.info("epoch %d loss %.10g", epoch + 1, loss)
        trajectory.append(loss)
    emb = EmbeddingSet(U=U, W=W, Q=Q, method_tag="WD", b_U=np.array(bU),
                       b_W=np.array(bW), b_Q=np.array(bQ), trajectory=trajectory)
    emb.validate()
    return emb
