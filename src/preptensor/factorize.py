"""Low-rank factorization of the log-transformed count tensor.

Two routes to the same factor matrices U (words), W (second word mode)
and Q (prepositions plus the extra slice): alternating least squares
with early orthogonalization, and a weighted gradient decomposition
with per-index bias terms trained only on nonzero entries.
"""

from __future__ import annotations

import logging
import time
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
]

RIDGE = 1e-8
# ALS stops once an unorthogonalized sweep gains less fit than this.
FIT_TOL = 1e-5
# A sweep's objective comes from the expansion ‖X‖² − 2⟨X, M⟩ + ‖M‖² only
# while it exceeds EXPANSION_GUARD · ε · (‖X‖² + ‖M‖²) (see als_objective).
# Rounding in the expansion's three sums costs c · ε · (‖X‖² + ‖M‖²), with
# c growing with the longest sum and with how far the d components cancel
# (against the split form, c was at most 17 on the toy tensor and 117 on
# the 1 MB Zipf tensor, at d = 8 and 25 over 20 sweeps).
# Above the guard the objective is then off by under c / 1e6 of itself,
# and, since ‖M‖ ≤ ‖X‖ after a least-squares update, the fit 1 − √obj / ‖X‖
# by under c · √(ε / 2e6) ≈ c · 1e-11, far below FIT_TOL for any c up to
# 1e5; below the guard the split form, which does not cancel, is used.
EXPANSION_GUARD = 1e6
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
        if not 0 < self.x_max < np.inf:
            raise ValueError(f"x_max must be positive, got {self.x_max}")
        if not 0 < self.learning_rate < np.inf:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class EmbeddingSet:
    """Factor matrices of one decomposition run.

    Rows of U are word vectors, rows of Q are preposition vectors with
    the extra-slice vector last. Bias vectors are present exactly for
    the weighted method. ``trajectory`` holds the per-epoch weighted loss
    (WD) or the per-sweep fit (ALS) of the run that made them,
    ``trajectory_s`` the seconds each epoch (its loss included) or sweep
    (its fit included) took, and ``split_fits`` how many ALS fits took
    ``als_objective``'s split form.
    """

    U: np.ndarray
    W: np.ndarray
    Q: np.ndarray
    b_U: np.ndarray | None = None
    b_W: np.ndarray | None = None
    b_Q: np.ndarray | None = None
    trajectory: list[float] = field(default_factory=list)
    trajectory_s: list[float] = field(default_factory=list)
    split_fits: int = 0

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


def als_objective(coo: CooTensor, U: np.ndarray, W: np.ndarray, Q: np.ndarray,
                  m_q: np.ndarray | None = None, forms: list[str] | None = None) -> float:
    """Squared Frobenius error ‖X − M‖² of the model M against the full
    tensor X (zeros included), evaluated without densifying.

    ``m_q`` is the MTTKRP of ``coo`` with U and W, the second result of
    ``als_update_mode`` for mode Q. Given it, the error is first taken
    from the expansion ‖X‖² − 2⟨X, M⟩ + ‖M‖², with ⟨X, M⟩ = Σ Q ∘ m_q and
    ‖M‖² = Σ (UᵀU) ∘ (WᵀW) ∘ (QᵀQ), which never gathers the model at the
    stored entries. The expansion cancels near exact fits, so it is kept
    only while it exceeds ``EXPANSION_GUARD`` · ε · (‖X‖² + ‖M‖²).

    Otherwise, and always without ``m_q``, the error is split into the
    residual on the stored pattern plus the reconstruction's energy on
    the zero pattern, which suffers no such cancellation. ``forms``, when
    given, receives the form this call took: "expansion" or "split".
    """
    recon2 = float(np.sum((U.T @ U) * (W.T @ W) * (Q.T @ Q)))
    form = "split"
    if m_q is not None:
        norm2 = float(np.sum(coo.values ** 2))
        # Summed in C order, whatever the layout of ``m_q``.
        objective = norm2 - 2.0 * float(np.sum(np.ravel(Q * m_q))) + recon2
        if objective > EXPANSION_GUARD * np.finfo(float).eps * (norm2 + recon2):
            form = "expansion"
    if form == "split":
        recon_at = _reconstruction_at(coo, U, W, Q)
        objective = float(np.sum((coo.values - recon_at) ** 2))
        n, _, kp1 = coo.dims
        if coo.nnz < n * n * kp1:
            objective += max(recon2 - float(np.sum(recon_at ** 2)), 0.0)
    if forms is not None:
        forms.append(form)
    return objective


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
                    mode: str, unfolding: scipy.sparse.csr_matrix):
    """Exact ridge-regularized least-squares update of one factor matrix,
    holding the other two fixed; ``unfolding`` is ``mode``'s
    ``_build_unfolding`` of ``coo``. Returns the updated factor and the
    MTTKRP it was solved from."""
    fixed = {"U": (W, Q), "W": (U, Q), "Q": (U, W)}
    if mode not in fixed:
        raise ValueError(f"unknown mode {mode!r}")
    A, B = fixed[mode]
    m = _mttkrp(coo, mode, A, B, unfolding)
    gram = (A.T @ A) * (B.T @ B)
    gram = gram + RIDGE * np.eye(gram.shape[0])
    return np.linalg.solve(gram, m.T).T, m


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
    built once, before the first sweep, and freed with the run. Each
    sweep's fit comes from the Q update's MTTKRP where that is exact
    enough (see ``als_objective``).
    """
    coo = _as_coo(tensor, log=True)
    norm_t = coo.norm()
    unfoldings = {mode: _build_unfolding(coo, mode) for mode in "UWQ"}
    rng, U, W, Q = _init_factors(coo.dims, config.dim, config.seed)
    prev_fit = -np.inf
    trajectory, trajectory_s, forms = [], [], []
    for sweep in range(config.iterations):
        start = time.perf_counter()
        if sweep < config.ortho_iterations:
            U, W, Q = (orthogonalize_factors(F, rng) if len(F) >= config.dim else F
                       for F in (U, W, Q))
        U = als_update_mode(coo, U, W, Q, "U", unfoldings["U"])[0]
        W = als_update_mode(coo, U, W, Q, "W", unfoldings["W"])[0]
        Q, m_q = als_update_mode(coo, U, W, Q, "Q", unfoldings["Q"])
        obj = als_objective(coo, U, W, Q, m_q, forms)
        fit = 1.0 - np.sqrt(obj) / norm_t
        logger.info("sweep %d objective %.10g fit %.10g (%s)", sweep + 1, obj, fit,
                    forms[-1])
        trajectory.append(float(fit))
        trajectory_s.append(time.perf_counter() - start)
        if sweep >= config.ortho_iterations and fit - prev_fit < FIT_TOL:
            break
        prev_fit = fit
    emb = EmbeddingSet(U=U, W=W, Q=Q, trajectory=trajectory,
                       trajectory_s=trajectory_s, split_fits=forms.count("split"))
    emb.validate()
    return emb


def _gradient_block(a: np.ndarray, target: np.ndarray, w2: np.ndarray) -> np.ndarray:
    """The weighted-residual gradients of a batch of entries, as one
    (3, entries, width) block of U's, W's and Q's rows, each entry's
    bias gradient in the last column.

    ``a`` holds each entry's W, U, U, Q, Q and W rows with their biases
    last, ``target`` its log1p count and ``w2`` twice its weight. The
    products w∘q, u∘q and u∘w are formed in one multiply; the scale
    after setting their bias column to 1 leaves that column exactly g.
    """
    p = a[:3] * a[3:]
    g = (np.vecdot(a[1, :, :-1], p[0, :, :-1])
         + a[1, :, -1] + a[0, :, -1] + a[3, :, -1] - target) * w2
    p[..., -1] = 1.0
    p *= g[:, None]
    return p


def _wd_epoch(order, rows, counts, A, G, config: TrainingConfig) -> None:
    """One pass over the entries in ``order``, ``WD_BATCH`` at a time;
    updates ``A`` and its squared-gradient sums ``G`` in place.

    ``A`` stacks U's, W's and Q's rows, each with its bias as a last
    column, and ``rows`` holds each entry's i, N + j and 2N + k. A batch's
    gradients all come from the values at its start. Each row it touches
    takes one step with the mean of its entries' gradients, summed in
    entry order, and its sum grows by that mean squared.

    The entries' rows, log1p counts and weights, and the first cell of
    each entry's row among those its batch touches, are found once per
    block of whole batches of at most ``_BLOCK_VALUES / width`` entries
    (one batch at least); each batch takes its share as slices and
    gathers its six rows per entry (see ``_gradient_block``) in one take.
    """
    lr = config.learning_rate
    n_rows, width = A.shape
    columns = np.arange(width)
    block = max(1, _BLOCK_VALUES // (width * WD_BATCH)) * WD_BATCH
    for block_start in range(0, len(order), block):
        entries = order[block_start:block_start + block]
        idx, x = rows[:, entries], counts[entries]
        six = idx[[1, 0, 0, 2, 2, 1]]
        target, w2 = np.log1p(x), 2.0 * weight(x, config.x_max, config.alpha)
        # One key per (batch, row): sorted, a batch's distinct rows are a
        # run of keys, in the order np.unique gives them for that batch.
        batch_of = np.arange(len(entries)) // WD_BATCH
        keys, inverse, hits = np.unique(batch_of * n_rows + idx, return_inverse=True,
                                        return_counts=True)
        bounds = np.searchsorted(keys, np.arange(batch_of[-1] + 2) * n_rows)
        # The first cell of each entry's row among its own batch's rows.
        base = (inverse.reshape(idx.shape) - bounds[batch_of]) * width
        touched_rows, bounds = keys % n_rows, bounds.tolist()
        for batch, start in enumerate(range(0, len(entries), WD_BATCH)):
            part = slice(start, start + WD_BATCH)
            grads = _gradient_block(A[six[:, part]], target[part], w2[part])
            first, last = bounds[batch], bounds[batch + 1]
            touched = touched_rows[first:last]
            # bincount adds each cell's terms in entry order, starting at 0.
            step = np.bincount((base[:, part, None] + columns).ravel(),
                               grads.ravel()).reshape(-1, width)
            step /= hits[first:last, None]
            sums = G[touched]
            A[touched] -= lr * step / np.sqrt(sums)
            G[touched] = sums + step * step


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
    loss after each epoch and ``trajectory_s`` its seconds. Deterministic
    given the seed.
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
        start = time.perf_counter()
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
        emb.trajectory_s.append(time.perf_counter() - start)
    emb.validate()
    return emb
