import numpy as np
import pytest

from preptensor import factorize
from preptensor.corpus import SparseCountTensor
from preptensor.factorize import (
    CooTensor,
    EmbeddingSet,
    TrainingConfig,
    als_objective,
    als_update_mode,
    cp_fit,
    decompose_orth_als,
    decompose_weighted,
    log_transform,
    orthogonalize_factors,
    weight,
    weighted_gradient,
    wd_loss,
)


def dense_to_coo(dense: np.ndarray, drop_zeros: bool = True) -> CooTensor:
    idx = np.nonzero(dense) if drop_zeros else np.nonzero(np.ones_like(dense))
    return CooTensor(idx[0], idx[1], idx[2], dense[idx].astype(np.float64),
                     dense.shape)


def planted_tensor(rng, n, kp1, rank, scale=1.0):
    U = rng.standard_normal((n, rank)) * scale
    W = rng.standard_normal((n, rank)) * scale
    Q = rng.standard_normal((kp1, rank)) * scale
    dense = np.einsum("ir,jr,kr->ijk", U, W, Q)
    return dense_to_coo(dense, drop_zeros=False), (U, W, Q)


def make_wd_embeddings(rng, n, kp1, d, positive=False):
    def draw(shape):
        arr = rng.uniform(0.5, 1.5, shape) if positive else rng.standard_normal(shape)
        return arr
    return EmbeddingSet(
        U=draw((n, d)), W=draw((n, d)), Q=draw((kp1, d)), method_tag="WD",
        b_U=np.abs(rng.standard_normal(n)) * 0.1,
        b_W=np.abs(rng.standard_normal(n)) * 0.1,
        b_Q=np.abs(rng.standard_normal(kp1)) * 0.1,
    )


class TestLogTransform:
    def test_values(self):
        t = SparseCountTensor(3, 1, 3, {(0, 1, 0): 9, (1, 2, 1): 1})
        coo = log_transform(t)
        vals = dict(zip(zip(coo.i, coo.j, coo.k), coo.values))
        assert vals[(0, 1, 0)] == pytest.approx(np.log(10), abs=1e-12)
        assert vals[(1, 2, 1)] == pytest.approx(np.log(2), abs=1e-12)

    def test_pattern_preserved(self):
        t = SparseCountTensor(3, 1, 3, {(0, 1, 0): 5})
        assert log_transform(t).nnz == 1


class TestWeight:
    def test_zero(self):
        assert weight(0.0, 10, 0.75) == 0.0

    def test_boundary(self):
        assert weight(10.0, 10, 0.75) == 1.0

    def test_half(self):
        assert weight(5.0, 10, 0.75) == pytest.approx(0.594604, abs=1e-6)

    def test_monotone_and_bounded(self):
        grid = np.linspace(0.0, 30.0, 1000)
        vals = weight(grid, 10, 0.75)
        assert np.all(np.diff(vals) >= 0.0)
        assert np.all((vals >= 0.0) & (vals <= 1.0))


class TestOrthogonalize:
    def test_idempotent_on_orthonormal(self):
        q = np.linalg.qr(np.random.default_rng(0).standard_normal((6, 3)))[0]
        out = orthogonalize_factors(q)
        assert np.allclose(out.T @ out, np.eye(3), atol=1e-12)
        assert np.allclose(np.abs(out.T @ q), np.eye(3), atol=1e-10)

    def test_hand_case(self):
        mat = np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]])
        out = orthogonalize_factors(mat)
        assert np.allclose(out.T @ out, np.eye(2), atol=1e-12)
        # Span preserved: first column direction unchanged.
        assert np.allclose(np.abs(out[:, 0]), [1.0, 0.0, 0.0], atol=1e-12)

    def test_zero_column_replaced(self):
        mat = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
        out = orthogonalize_factors(mat, np.random.default_rng(1))
        assert np.allclose(out.T @ out, np.eye(2), atol=1e-10)


class TestAlsUpdate:
    def test_fixed_point(self):
        rng = np.random.default_rng(7)
        coo, (U, W, Q) = planted_tensor(rng, 5, 3, 2)
        updated = als_update_mode(coo, U, W, Q, "U")
        assert np.allclose(updated, U, atol=1e-8)

    def test_dense_oracle_2x2x2(self):
        rng = np.random.default_rng(8)
        dense = rng.integers(0, 4, size=(2, 2, 2)).astype(np.float64)
        coo = dense_to_coo(dense, drop_zeros=False)
        U = rng.standard_normal((2, 1))
        W = rng.standard_normal((2, 1))
        Q = rng.standard_normal((2, 1))
        updated = als_update_mode(coo, U, W, Q, "U")
        # Hand-built separable least squares per row of U.
        denom = sum((W[j, 0] * Q[k, 0]) ** 2 for j in range(2) for k in range(2))
        for i in range(2):
            num = sum(dense[i, j, k] * W[j, 0] * Q[k, 0]
                      for j in range(2) for k in range(2))
            assert updated[i, 0] == pytest.approx(num / (denom + 1e-8), abs=1e-10)

    def test_objective_never_increases(self):
        rng = np.random.default_rng(9)
        dense = rng.integers(0, 3, size=(8, 8, 4)).astype(np.float64)
        coo = dense_to_coo(dense)
        U = rng.standard_normal((8, 3))
        W = rng.standard_normal((8, 3))
        Q = rng.standard_normal((4, 3))
        prev = als_objective(coo, U, W, Q)
        for _ in range(10):
            for mode in ("U", "W", "Q"):
                updated = als_update_mode(coo, U, W, Q, mode)
                if mode == "U":
                    U = updated
                elif mode == "W":
                    W = updated
                else:
                    Q = updated
                obj = als_objective(coo, U, W, Q)
                assert obj <= prev + 1e-9
                prev = obj


def add_at_mttkrp(coo, A, B, idx_out, idx_a, idx_b, n_out):
    """Reference MTTKRP: one scatter-add of every entry's weighted row."""
    out = np.zeros((n_out, A.shape[1]))
    np.add.at(out, idx_out, coo.values[:, None] * (A[idx_a] * B[idx_b]))
    return out


def sorted_from_counts(tensor):
    """Reference ``CooTensor.from_counts``: a python sort of the keys."""
    keys = sorted(tensor.entries, key=lambda e: (e[2], e[0], e[1]))
    arr = np.array(keys, dtype=np.int64).reshape(-1, 3)
    vals = np.array([tensor.entries[key] for key in keys], dtype=np.float64)
    return arr[:, 0], arr[:, 1], arr[:, 2], vals


def gathered_reconstruction(coo, U, W, Q):
    """Reference model values: every entry's rows gathered at once."""
    return np.sum(U[coo.i] * W[coo.j] * Q[coo.k], axis=1)


def reference_als_objective(coo, U, W, Q):
    recon_at = gathered_reconstruction(coo, U, W, Q)
    sparse_term = float(np.sum((coo.values - recon_at) ** 2))
    n, _, kp1 = coo.dims
    if coo.nnz == n * n * kp1:
        return sparse_term
    recon2 = float(np.sum((U.T @ U) * (W.T @ W) * (Q.T @ Q)))
    return sparse_term + max(recon2 - float(np.sum(recon_at ** 2)), 0.0)


def reference_wd_loss(raw, emb, x_max, alpha):
    targets = np.log1p(raw.values)
    weights = weight(raw.values, x_max, alpha)
    resid = (gathered_reconstruction(raw, emb.U, emb.W, emb.Q)
             + emb.b_U[raw.i] + emb.b_W[raw.j] + emb.b_Q[raw.k] - targets)
    return float(np.sum(weights * resid ** 2))


def shuffled_counts(rng, n, kp1, draws):
    """A count tensor of ``draws`` random coordinates (repeats merge),
    inserted in random order."""
    entries = {}
    for _ in range(draws):
        key = tuple(int(x) for x in rng.integers(0, (n, n, kp1)))
        entries[key] = entries.get(key, 0) + int(rng.integers(1, 40))
    keys = list(entries)
    rng.shuffle(keys)
    return SparseCountTensor(n, kp1 - 1, 3, {key: entries[key] for key in keys})


class TestArrayKernelsEqualReferences:
    """The array kernels give the bytes of the code they replaced."""

    @pytest.mark.parametrize("d", [1, 3, 25])
    def test_mttkrp_equals_scatter_add(self, d):
        rng = np.random.default_rng(40)
        n, kp1, nnz = 40, 6, 900
        # Even i rows only, j rows below 30 and slices below 5, so every
        # mode has absent output rows as well as repeated ones.
        coo = CooTensor(rng.choice(np.arange(0, n, 2), nnz), rng.integers(0, 30, nnz),
                        rng.integers(0, kp1 - 1, nnz),
                        np.log1p(rng.integers(1, 40, nnz).astype(np.float64)),
                        (n, n, kp1))
        U, W = rng.standard_normal((n, d)), rng.standard_normal((n, d))
        Q = rng.standard_normal((kp1, d))
        modes = {"U": (W, Q, coo.i, coo.j, coo.k, n, (W.T @ W) * (Q.T @ Q)),
                 "W": (U, Q, coo.j, coo.i, coo.k, n, (U.T @ U) * (Q.T @ Q)),
                 "Q": (U, W, coo.k, coo.i, coo.j, kp1, (U.T @ U) * (W.T @ W))}
        for mode, (A, B, idx_out, idx_a, idx_b, n_out, gram) in modes.items():
            want = add_at_mttkrp(coo, A, B, idx_out, idx_a, idx_b, n_out)
            assert np.any(np.bincount(idx_out, minlength=n_out) == 0)
            assert np.any(np.bincount(idx_out) > 1)
            got = factorize._mttkrp(coo, A, B, idx_out, idx_a, idx_b, n_out)
            assert np.array_equal(got, want)
            update = np.linalg.solve(gram + factorize.RIDGE * np.eye(d), want.T).T
            assert np.array_equal(als_update_mode(coo, U, W, Q, mode), update)

    def test_from_counts_equals_sorted_keys(self):
        rng = np.random.default_rng(41)
        counts = shuffled_counts(rng, 30, 5, 2000)
        coo = CooTensor.from_counts(counts)
        for got, want in zip((coo.i, coo.j, coo.k, coo.values),
                             sorted_from_counts(counts)):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
        assert coo.dims == counts.dims

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_losses_across_block_boundary(self, offset):
        rng = np.random.default_rng(42 + offset)
        nnz = factorize._ENTRY_BLOCK + offset
        n, kp1, d = 200, 4, 25
        raw = CooTensor(rng.integers(0, n, nnz), rng.integers(0, n, nnz),
                        rng.integers(0, kp1, nnz),
                        rng.integers(1, 30, nnz).astype(np.float64), (n, n, kp1))
        emb = make_wd_embeddings(rng, n, kp1, d)
        # The losses sum over entries, so a last-bit change in one
        # entry's model value may not reach them; compare those too.
        assert np.array_equal(factorize._reconstruction_at(raw, emb.U, emb.W, emb.Q),
                              gathered_reconstruction(raw, emb.U, emb.W, emb.Q))
        assert (als_objective(raw, emb.U, emb.W, emb.Q)
                == reference_als_objective(raw, emb.U, emb.W, emb.Q))
        assert (wd_loss(raw, emb, 10.0, 0.75)
                == reference_wd_loss(raw, emb, 10.0, 0.75))


class TestDecomposeAls:
    def test_rank1_recovery(self):
        rng = np.random.default_rng(10)
        u = rng.uniform(0.5, 1.5, 6)
        w = rng.uniform(0.5, 1.5, 6)
        q = rng.uniform(0.5, 1.5, 3)
        dense = np.einsum("i,j,k->ijk", u, w, q)
        coo = dense_to_coo(dense, drop_zeros=False)
        config = TrainingConfig(dim=1, iterations=50, ortho_iterations=0, seed=1)
        emb = decompose_orth_als(coo, config)
        recon = np.einsum("ir,jr,kr->ijk", emb.U, emb.W, emb.Q)
        rel_err = np.linalg.norm(recon - dense) / np.linalg.norm(dense)
        assert rel_err <= 1e-6

    def test_empty_tensor_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            decompose_orth_als(SparseCountTensor(4, 2, 3), TrainingConfig(dim=1))

    def test_seeded_determinism(self):
        rng = np.random.default_rng(11)
        coo, _ = planted_tensor(rng, 6, 3, 2)
        config = TrainingConfig(dim=2, iterations=5, ortho_iterations=2, seed=3)
        a = decompose_orth_als(coo, config)
        b = decompose_orth_als(coo, config)
        assert np.array_equal(a.U, b.U)
        assert np.array_equal(a.W, b.W)
        assert np.array_equal(a.Q, b.Q)

    def test_scale_consistency(self):
        rng = np.random.default_rng(12)
        coo, _ = planted_tensor(rng, 6, 3, 2)
        config = TrainingConfig(dim=2, iterations=40, ortho_iterations=0, seed=4)
        emb1 = decompose_orth_als(coo, config)
        scaled = CooTensor(coo.i, coo.j, coo.k, coo.values * 3.5, coo.dims)
        emb2 = decompose_orth_als(scaled, config)
        assert cp_fit(coo, emb1) == pytest.approx(cp_fit(scaled, emb2), abs=1e-6)

    def test_trajectory_records_each_sweep_fit(self):
        rng = np.random.default_rng(32)
        coo, _ = planted_tensor(rng, 5, 3, 2)
        emb = decompose_orth_als(coo, TrainingConfig(dim=2, iterations=6,
                                                     ortho_iterations=1))
        assert 1 <= len(emb.trajectory) <= 6
        assert all(np.isfinite(emb.trajectory))
        assert emb.trajectory[-1] == pytest.approx(cp_fit(coo, emb), abs=1e-12)


class TestCpFit:
    def test_exact_factors(self):
        rng = np.random.default_rng(13)
        coo, (U, W, Q) = planted_tensor(rng, 5, 3, 2)
        emb = EmbeddingSet(U=U, W=W, Q=Q, method_tag="ALS")
        assert cp_fit(coo, emb) == pytest.approx(1.0, abs=1e-10)

    def test_zero_embeddings(self):
        rng = np.random.default_rng(14)
        coo, _ = planted_tensor(rng, 5, 3, 2)
        emb = EmbeddingSet(U=np.zeros((5, 2)), W=np.zeros((5, 2)),
                           Q=np.zeros((3, 2)), method_tag="ALS")
        assert cp_fit(coo, emb) == pytest.approx(0.0, abs=1e-12)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(15)
        coo, _ = planted_tensor(rng, 4, 2, 2)
        emb = EmbeddingSet(U=rng.standard_normal((4, 2)),
                           W=rng.standard_normal((4, 2)),
                           Q=rng.standard_normal((2, 2)), method_tag="ALS")
        dense = np.zeros(coo.dims)
        dense[coo.i, coo.j, coo.k] = coo.values
        recon = np.einsum("ir,jr,kr->ijk", emb.U, emb.W, emb.Q)
        expected = 1.0 - np.linalg.norm(dense - recon) / np.linalg.norm(dense)
        assert cp_fit(coo, emb) == pytest.approx(expected, abs=1e-8)

    def test_zero_tensor_rejected(self):
        coo = CooTensor(np.array([0]), np.array([0]), np.array([0]),
                        np.array([0.0]), (2, 2, 2))
        emb = EmbeddingSet(U=np.zeros((2, 1)), W=np.zeros((2, 1)),
                           Q=np.zeros((2, 1)), method_tag="ALS")
        with pytest.raises(ValueError, match="zero tensor"):
            cp_fit(coo, emb)


class TestWeightedGradient:
    def test_zero_residual(self):
        rng = np.random.default_rng(16)
        emb = make_wd_embeddings(rng, 4, 3, 2, positive=True)
        i, j, k = 1, 2, 0
        model = float(emb.U[i] @ (emb.W[j] * emb.Q[k])) + emb.b_U[i] + emb.b_W[j] + emb.b_Q[k]
        x = float(np.expm1(model))
        assert x > 0
        gu, gw, gq, gb = weighted_gradient(emb, i, j, k, x, 10.0, 0.75)
        assert np.allclose(gu, 0, atol=1e-12)
        assert np.allclose(gw, 0, atol=1e-12)
        assert np.allclose(gq, 0, atol=1e-12)
        assert gb == pytest.approx(0.0, abs=1e-12)

    def test_zero_weight_kills_gradient(self):
        rng = np.random.default_rng(17)
        emb = make_wd_embeddings(rng, 4, 3, 2)
        gu, gw, gq, gb = weighted_gradient(emb, 0, 1, 2, 0.0, 10.0, 0.75)
        assert np.allclose(gu, 0) and np.allclose(gw, 0) and np.allclose(gq, 0)
        assert gb == 0.0

    def test_finite_differences(self):
        rng = np.random.default_rng(18)
        h = 1e-5
        for _ in range(25):
            emb = make_wd_embeddings(rng, 4, 3, 3)
            i, j, k = (int(rng.integers(4)), int(rng.integers(4)),
                       int(rng.integers(3)))
            x = float(rng.uniform(0.5, 20.0))
            wt = weight(x, 10.0, 0.75)

            def loss(e):
                r = (float(e.U[i] @ (e.W[j] * e.Q[k]))
                     + e.b_U[i] + e.b_W[j] + e.b_Q[k] - np.log1p(x))
                return wt * r * r

            gu, gw, gq, gb = weighted_gradient(emb, i, j, k, x, 10.0, 0.75)
            for arr, grad, idx in ((emb.U, gu, i), (emb.W, gw, j), (emb.Q, gq, k)):
                for c in range(arr.shape[1]):
                    arr[idx, c] += h
                    up = loss(emb)
                    arr[idx, c] -= 2 * h
                    down = loss(emb)
                    arr[idx, c] += h
                    fd = (up - down) / (2 * h)
                    denom = max(abs(fd), abs(grad[c]), 1e-8)
                    assert abs(fd - grad[c]) / denom <= 1e-4


def scalar_wd_epoch(order, ii, jj, kk, targets, weights, lr,
                    U, W, Q, bU, bW, bQ, GU, GW, GQ, GbU, GbW, GbQ):
    """Reference epoch: every index and scalar a numpy value, every row
    written back by assignment."""
    loss = 0.0
    for e in order:
        i, j, k = ii[e], jj[e], kk[e]
        u, w, q = U[i], W[j], Q[k]
        r = float(u @ (w * q)) + bU[i] + bW[j] + bQ[k] - targets[e]
        wt = weights[e]
        loss += wt * r * r
        g = 2.0 * wt * r
        gu = g * (w * q)
        gw = g * (u * q)
        gq = g * (u * w)
        U[i] = u - lr * gu / np.sqrt(GU[i])
        W[j] = w - lr * gw / np.sqrt(GW[j])
        Q[k] = q - lr * gq / np.sqrt(GQ[k])
        GU[i] += gu * gu
        GW[j] += gw * gw
        GQ[k] += gq * gq
        bU[i] -= lr * g / np.sqrt(GbU[i])
        bW[j] -= lr * g / np.sqrt(GbW[j])
        bQ[k] -= lr * g / np.sqrt(GbQ[k])
        GbU[i] += g * g
        GbW[j] += g * g
        GbQ[k] += g * g
    return loss


def scalar_decompose_weighted(raw, config, init=None):
    """``decompose_weighted`` driven by ``scalar_wd_epoch``: returns the
    factors, the biases and the per-epoch losses."""
    rng = np.random.default_rng(config.seed)
    if init is not None:
        U, W, Q = init.U.copy(), init.W.copy(), init.Q.copy()
        bU, bW, bQ = init.b_U.copy(), init.b_W.copy(), init.b_Q.copy()
    else:
        n, _, kp1 = raw.dims
        scale = 1.0 / np.sqrt(config.dim)
        U = rng.standard_normal((n, config.dim)) * scale
        W = rng.standard_normal((n, config.dim)) * scale
        Q = rng.standard_normal((kp1, config.dim)) * scale
        bU, bW, bQ = np.zeros(n), np.zeros(n), np.zeros(kp1)
    G = [np.ones_like(a) for a in (U, W, Q, bU, bW, bQ)]
    targets = np.log1p(raw.values)
    weights = weight(raw.values, config.x_max, config.alpha)
    losses = []
    for _ in range(config.iterations):
        order = rng.permutation(raw.nnz)
        losses.append(scalar_wd_epoch(order, raw.i, raw.j, raw.k, targets, weights,
                                      config.learning_rate,
                                      U, W, Q, bU, bW, bQ, *G))
    return (U, W, Q, bU, bW, bQ), losses


class TestDecomposeWeighted:
    def test_planted_fixed_point(self):
        rng = np.random.default_rng(19)
        emb = make_wd_embeddings(rng, 4, 3, 2, positive=True)
        entries = [(i, j, k) for i in range(4) for j in range(4) for k in range(3)]
        ii, jj, kk = (np.array(v) for v in zip(*entries))
        model = (np.sum(emb.U[ii] * emb.W[jj] * emb.Q[kk], axis=1)
                 + emb.b_U[ii] + emb.b_W[jj] + emb.b_Q[kk])
        assert np.all(model > 0)
        raw = CooTensor(ii, jj, kk, np.expm1(model), (4, 4, 3))
        assert wd_loss(raw, emb, 10.0, 0.75) == pytest.approx(0.0, abs=1e-18)
        config = TrainingConfig(dim=2, iterations=5, seed=20, ortho_iterations=0)
        out = decompose_weighted(raw, config, init=emb)
        assert np.allclose(out.U, emb.U, atol=1e-9)
        assert np.allclose(out.b_U, emb.b_U, atol=1e-9)

    def test_zero_parameter_loss(self):
        rng = np.random.default_rng(21)
        vals = rng.integers(1, 15, size=10).astype(np.float64)
        raw = CooTensor(rng.integers(0, 4, 10), rng.integers(0, 4, 10),
                        rng.integers(0, 3, 10), vals, (4, 4, 3))
        zero = EmbeddingSet(U=np.zeros((4, 2)), W=np.zeros((4, 2)),
                            Q=np.zeros((3, 2)), method_tag="WD",
                            b_U=np.zeros(4), b_W=np.zeros(4), b_Q=np.zeros(3))
        expected = float(np.sum(weight(vals, 10, 0.75) * np.log1p(vals) ** 2))
        assert wd_loss(raw, zero, 10.0, 0.75) == pytest.approx(expected, rel=1e-12)

    def test_matches_full_batch_oracle(self):
        rng = np.random.default_rng(22)
        dense = rng.integers(1, 20, size=(4, 4, 2)).astype(np.float64)
        raw = dense_to_coo(dense)
        config = TrainingConfig(dim=2, iterations=800, seed=23,
                                ortho_iterations=0, learning_rate=0.05)
        out = decompose_weighted(raw, config)
        stochastic_loss = wd_loss(raw, out, config.x_max, config.alpha)

        # Full-batch adagrad oracle built on the analytic per-entry gradient.
        oracle = decompose_weighted(raw, TrainingConfig(
            dim=2, iterations=0, seed=23, ortho_iterations=0))
        accum = {name: np.ones_like(getattr(oracle, name))
                 for name in ("U", "W", "Q", "b_U", "b_W", "b_Q")}
        for _ in range(4000):
            grads = {name: np.zeros_like(getattr(oracle, name))
                     for name in accum}
            for e in range(raw.nnz):
                i, j, k = int(raw.i[e]), int(raw.j[e]), int(raw.k[e])
                gu, gw, gq, gb = weighted_gradient(
                    oracle, i, j, k, float(raw.values[e]),
                    config.x_max, config.alpha)
                grads["U"][i] += gu
                grads["W"][j] += gw
                grads["Q"][k] += gq
                grads["b_U"][i] += gb
                grads["b_W"][j] += gb
                grads["b_Q"][k] += gb
            for name in accum:
                arr = getattr(oracle, name)
                arr -= 0.05 * grads[name] / np.sqrt(accum[name])
                accum[name] += grads[name] ** 2
        oracle_loss = wd_loss(raw, oracle, config.x_max, config.alpha)
        assert stochastic_loss <= oracle_loss * 1.05 + 1e-9

    def test_seeded_determinism(self):
        rng = np.random.default_rng(24)
        dense = rng.integers(1, 10, size=(5, 5, 3)).astype(np.float64)
        raw = dense_to_coo(dense)
        config = TrainingConfig(dim=3, iterations=5, seed=25, ortho_iterations=0)
        a = decompose_weighted(raw, config)
        b = decompose_weighted(raw, config)
        assert np.array_equal(a.U, b.U)
        assert np.array_equal(a.b_Q, b.b_Q)

    def test_divergence_aborts(self):
        rng = np.random.default_rng(26)
        dense = rng.integers(1, 10, size=(4, 4, 2)).astype(np.float64) * 1e6
        raw = dense_to_coo(dense)
        config = TrainingConfig(dim=2, iterations=200, seed=27,
                                ortho_iterations=0, learning_rate=1e6)
        with pytest.raises(RuntimeError, match="diverged"):
            decompose_weighted(raw, config)

    def test_biases_present_only_for_wd(self):
        rng = np.random.default_rng(28)
        coo, _ = planted_tensor(rng, 5, 3, 2)
        emb = decompose_orth_als(coo, TrainingConfig(dim=2, iterations=3,
                                                     ortho_iterations=0))
        assert not emb.has_biases
        dense = np.abs(np.random.default_rng(29).integers(1, 5, (4, 4, 2))).astype(float)
        wd = decompose_weighted(dense_to_coo(dense),
                                TrainingConfig(dim=2, iterations=2,
                                               ortho_iterations=0))
        assert wd.has_biases

    @pytest.mark.parametrize("dim", [3, 40])
    def test_equals_scalar_reference(self, dim):
        rng = np.random.default_rng(30)
        dense = rng.integers(0, 25, size=(7, 7, 4)).astype(np.float64)
        raw = dense_to_coo(dense)
        config = TrainingConfig(dim=dim, iterations=4, seed=31, ortho_iterations=0)
        init = None
        for _ in range(2):
            out = decompose_weighted(raw, config, init=init)
            expected, losses = scalar_decompose_weighted(raw, config, init=init)
            for got, want in zip((out.U, out.W, out.Q, out.b_U, out.b_W, out.b_Q),
                                 expected):
                assert np.array_equal(got, want)
            assert out.trajectory == losses
            # Then warm-start from this run, as a resumed decomposition would.
            init = out


class TestTrainingConfig:
    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            TrainingConfig(alpha=0.0)

    def test_rejects_ortho_above_iterations(self):
        with pytest.raises(ValueError):
            TrainingConfig(iterations=3, ortho_iterations=4)

    def test_rejects_negative_ortho_iterations(self):
        with pytest.raises(ValueError, match="ortho_iterations must be >= 0"):
            TrainingConfig(ortho_iterations=-1)

    def test_zero_ortho_iterations_valid(self):
        assert TrainingConfig(ortho_iterations=0).ortho_iterations == 0
