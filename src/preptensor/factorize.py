"""Low-rank factorization of the log-transformed count tensor.

Two routes to the same factor matrices U (words), W (second word mode)
and Q (prepositions plus the extra slice): alternating least squares
with early orthogonalization, and a weighted gradient decomposition
with per-index bias terms trained only on nonzero entries.
"""

from __future__ import annotations

import logging
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
# A WD epoch prepares its batches a block of about as many entries at a
# time (see ``_wd_epoch``).
_BLOCK_VALUES = 1 << 18
# Entries per weighted-decomposition step. Nearly every entry hits Q's
# extra-slice row, which steps once per batch, so larger batches slow it.
WD_BATCH = 16


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
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


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
    b_U: np.ndarray | None = None
    b_W: np.ndarray | None = None
    b_Q: np.ndarray | None = None
    trajectory: list[float] = field(default_factory=list)

    def validate(self) -> None:
        for name, arr in (("U", self.U), ("W", self.W), ("Q", self.Q)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"non-finite values in factor {name}")


@dataclass
class CooTensor:
    """Real-valued sparse tensor in coordinate form."""

    i: np.ndarray
    j: np.ndarray
    k: np.ndarray
    values: np.ndarray
    dims: tuple[int, int, int]

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
    return CooTensor(tensor.i, tensor.j, tensor.k, np.log1p(tensor.counts), tensor.dims)


def weight(x, x_max: float, alpha: float):
    """Saturating weight min((x/x_max)^alpha, 1) applied to raw counts. A
    scalar is weighed as a one-element array: numpy's power of a scalar
    can differ from its power of an array in the last bit."""
    x = np.asarray(x, dtype=np.float64)
    out = np.minimum((x.reshape(-1) / x_max) ** alpha, 1.0)
    return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)


def _as_coo(tensor, log: bool) -> CooTensor:
    """The tensor a factorization works on: a CooTensor as it is, a count
    tensor's log form (``log``) or its raw counts. One without a nonzero
    value is a ValueError."""
    if not isinstance(tensor, CooTensor):
        tensor = log_transform(tensor) if log else CooTensor.from_counts(tensor)
    if not tensor.values.any():
        raise ValueError("empty or all-zero tensor: nothing to fit")
    return tensor


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
    coo = _as_coo(coo, log=True)
    obj = als_objective(coo, embeddings.U, embeddings.W, embeddings.Q)
    return 1.0 - np.sqrt(obj) / coo.norm()


def _build_unfolding(coo: CooTensor, mode: str) -> scipy.sparse.csr_matrix:
    """A CSR matrix whose rows are ``mode``'s index and whose columns are
    k * N + j (U), k * N + i (W) or the entry's position (Q, since an
    N x N vector would not fit in memory). A stable sort keeps each
    row's entries in entry order, and the matrix is never sorted or
    merged, so a row's product adds its terms in the order an
    entry-by-entry scatter-add does. Entries already in row order, as
    the (k, i, j)-ordered entries are for Q, share ``coo.values``."""
    n, _, kp1 = coo.dims
    rows = {"U": coo.i, "W": coo.j, "Q": coo.k}[mode]
    n_rows = kp1 if mode == "Q" else n
    ordered = np.all(rows[:-1] <= rows[1:])
    order = np.arange(coo.nnz) if ordered else np.argsort(rows, kind="stable")
    values = coo.values if ordered else coo.values[order]
    if mode == "Q":
        columns, n_columns = order, coo.nnz
    else:
        other = coo.j if mode == "U" else coo.i
        columns, n_columns = coo.k[order] * n + other[order], kp1 * n
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n_rows), out=indptr[1:])
    return scipy.sparse.csr_matrix((values, columns, indptr), shape=(n_rows, n_columns))


def _mttkrp(coo: CooTensor, mode: str, A: np.ndarray, B: np.ndarray,
            csr: scipy.sparse.csr_matrix) -> np.ndarray:
    """Matricized tensor times Khatri-Rao product for ``mode``, where A
    and B are the other two factors in (U, W, Q) order: per component,
    ``mode``'s unfolding ``csr`` times B's column outer A's column, or,
    for Q, times each entry's U[i] * W[j]. A row's sum starts at 0 and
    adds value * (a * b) in entry order, bit for bit the sum of an
    entry-by-entry scatter-add."""
    At, Bt = np.ascontiguousarray(A.T), np.ascontiguousarray(B.T)
    out = np.empty((A.shape[1], csr.shape[0]))
    for c, (a, b) in enumerate(zip(At, Bt)):
        x = a[coo.i] * b[coo.j] if mode == "Q" else np.multiply.outer(b, a).ravel()
        out[c] = csr @ x
    return out.T


def als_update_mode(coo: CooTensor, U: np.ndarray, W: np.ndarray, Q: np.ndarray,
                    mode: str, unfolding: scipy.sparse.csr_matrix) -> np.ndarray:
    """Exact ridge-regularized least-squares update of one factor matrix,
    holding the other two fixed; ``unfolding`` is ``mode``'s
    ``_build_unfolding`` of ``coo``."""
    fixed = {"U": (W, Q), "W": (U, Q), "Q": (U, W)}
    if mode not in fixed:
        raise ValueError(f"unknown mode {mode!r}")
    A, B = fixed[mode]
    m = _mttkrp(coo, mode, A, B, unfolding)
    gram = (A.T @ A) * (B.T @ B)
    gram = gram + RIDGE * np.eye(gram.shape[0])
    return np.linalg.solve(gram, m.T).T


def orthogonalize_factors(factor: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Orthonormalize the d component columns, preserving their span.

    Rank-deficient columns are replaced by random orthogonal completions
    drawn from ``rng`` (logged); the result always has orthonormal
    columns.
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
    count tensors are log-transformed first. The three unfoldings are
    built once, before the first sweep, and freed with the run.
    """
    coo = _as_coo(tensor, log=True)
    norm_t = coo.norm()
    unfoldings = {mode: _build_unfolding(coo, mode) for mode in "UWQ"}
    rng, U, W, Q = _init_factors(coo.dims, config.dim, config.seed)
    prev_fit = -np.inf
    trajectory = []
    for sweep in range(config.iterations):
        if sweep < config.ortho_iterations:
            U, W, Q = (orthogonalize_factors(F, rng) if len(F) >= config.dim else F
                       for F in (U, W, Q))
        U = als_update_mode(coo, U, W, Q, "U", unfoldings["U"])
        W = als_update_mode(coo, U, W, Q, "W", unfoldings["W"])
        Q = als_update_mode(coo, U, W, Q, "Q", unfoldings["Q"])
        obj = als_objective(coo, U, W, Q)
        fit = 1.0 - np.sqrt(obj) / norm_t
        logger.info("sweep %d objective %.10g fit %.10g", sweep + 1, obj, fit)
        trajectory.append(float(fit))
        if sweep >= config.ortho_iterations and fit - prev_fit < FIT_TOL:
            break
        prev_fit = fit
    emb = EmbeddingSet(U=U, W=W, Q=Q, trajectory=trajectory)
    emb.validate()
    return emb


def weighted_gradient(emb: EmbeddingSet, i, j, k, x, x_max: float, alpha: float):
    """Analytic gradient of one weighted squared-residual term, or of each
    when the indices and raw counts are arrays (with a leading entry axis).

    Returns (g_u, g_w, g_q, g_bias) where the shared scalar bias gradient
    applies to all three biases.
    """
    u, w, q = emb.U[i], emb.W[j], emb.Q[k]
    wq = w * q
    r = np.vecdot(u, wq) + emb.b_U[i] + emb.b_W[j] + emb.b_Q[k] - np.log1p(x)
    g = 2.0 * weight(x, x_max, alpha) * r
    gc = g[..., None]
    return gc * wq, gc * (u * q), gc * (u * w), g


def _wd_epoch(order, rows, counts, A, G, config: TrainingConfig) -> None:
    """One pass over the entries in ``order``, ``WD_BATCH`` at a time;
    updates ``A`` and its squared-gradient sums ``G`` in place.

    ``A`` stacks U's, W's and Q's rows, each with its bias as a last
    column, and ``rows`` holds each entry's i, N + j and 2N + k. A batch's
    gradients all come from the values at its start. Each row it touches
    takes one step with the mean of its entries' gradients, summed in
    entry order, and its sum grows by that mean squared.

    The entries' rows and counts are gathered, and the rows each batch
    touches found, once per block of whole batches of at most
    ``_BLOCK_VALUES / width`` entries (one batch at least); each batch
    takes its share as slices.
    """
    P, b, lr = A[:, :-1], A[:, -1], config.learning_rate
    stacked = EmbeddingSet(U=P, W=P, Q=P, b_U=b, b_W=b, b_Q=b)
    n_rows, width = A.shape
    columns = np.arange(width)
    block = max(1, _BLOCK_VALUES // (width * WD_BATCH)) * WD_BATCH
    for block_start in range(0, len(order), block):
        entries = order[block_start:block_start + block]
        idx, x = rows[:, entries], counts[entries]
        # One key per (batch, row): sorted, a batch's distinct rows are a
        # run of keys, in the order np.unique gives them for that batch.
        batch_of = np.arange(len(entries)) // WD_BATCH
        keys, inverse, hits = np.unique(batch_of * n_rows + idx, return_inverse=True,
                                        return_counts=True)
        bounds = np.searchsorted(keys, np.arange(batch_of[-1] + 2) * n_rows)
        # Each entry's position among its own batch's distinct rows.
        inverse = inverse.reshape(idx.shape) - bounds[batch_of]
        touched_rows, bounds = keys % n_rows, bounds.tolist()
        for batch, start in enumerate(range(0, len(entries), WD_BATCH)):
            part = slice(start, start + WD_BATCH)
            gu, gw, gq, gb = weighted_gradient(stacked, *idx[:, part], x[part],
                                               config.x_max, config.alpha)
            grads = np.empty((3, len(gb), width))
            grads[..., :-1] = gu, gw, gq
            grads[..., -1] = gb
            first, last = bounds[batch], bounds[batch + 1]
            touched = touched_rows[first:last]
            # bincount adds each cell's terms in entry order, starting at 0.
            cells = (inverse[:, part, None] * width + columns).ravel()
            step = (np.bincount(cells, grads.ravel()).reshape(-1, width)
                    / hits[first:last, None])
            A[touched] -= lr * step / np.sqrt(G[touched])
            G[touched] += step * step


def wd_loss(raw: CooTensor, emb: EmbeddingSet, x_max: float, alpha: float) -> float:
    """Weighted squared-residual loss over the nonzero entries."""
    targets = np.log1p(raw.values)
    weights = weight(raw.values, x_max, alpha)
    resid = (_reconstruction_at(raw, emb.U, emb.W, emb.Q)
             + emb.b_U[raw.i] + emb.b_W[raw.j] + emb.b_Q[raw.k] - targets)
    return float(np.sum(weights * resid ** 2))


def decompose_weighted(tensor, config: TrainingConfig) -> EmbeddingSet:
    """Weighted decomposition with biases by mini-batch AdaGrad.

    Visits shuffled nonzero entries (zero entries carry zero weight) for
    ``iterations`` epochs in batches (see ``_wd_epoch``), with
    per-coordinate adaptive step sizes; ``trajectory`` holds the weighted
    loss after each epoch. Deterministic given the seed.
    """
    raw = _as_coo(tensor, log=False)
    if np.any(raw.values <= 0):
        raise ValueError("weighted decomposition requires positive nonzero entries")
    n, _, kp1 = raw.dims
    rng, *factors = _init_factors(raw.dims, config.dim, config.seed)
    # The biases start at zero, in the last column.
    A = np.hstack([np.vstack(factors), np.zeros((2 * n + kp1, 1))])
    P, b, G = A[:, :-1], A[:, -1], np.ones_like(A)
    rows = np.stack([raw.i, n + raw.j, 2 * n + raw.k])
    emb = EmbeddingSet(P[:n], P[n:2 * n], P[2 * n:],
                       b_U=b[:n], b_W=b[n:2 * n], b_Q=b[2 * n:])
    for epoch in range(config.iterations):
        # A diverging run is reported once, by the loss check below.
        with np.errstate(over="ignore", invalid="ignore"):
            _wd_epoch(rng.permutation(raw.nnz), rows, raw.values, A, G, config)
            loss = wd_loss(raw, emb, config.x_max, config.alpha)
        if not np.isfinite(loss):
            raise RuntimeError(
                f"weighted decomposition diverged at epoch {epoch + 1}: "
                f"loss is not finite (try a smaller learning rate)"
            )
        logger.info("epoch %d loss %.10g", epoch + 1, loss)
        emb.trajectory.append(loss)
    emb.validate()
    return emb
