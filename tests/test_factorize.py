import logging
from pathlib import Path

import numpy as np
import pytest

from preptensor import factorize
from preptensor.corpus import (
    SparseCountTensor,
    build_vocabulary,
    count_tensor,
    tokenize_sentences,
)
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
    wd_loss,
)
from preptensor.select import default_roster

from conftest import traced_peak
from step_kernels import weighted_gradient

TOY_CORPUS = Path(__file__).parent / "data" / "toy_corpus.txt"


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
        U=draw((n, d)), W=draw((n, d)), Q=draw((kp1, d)),
        b_U=np.abs(rng.standard_normal(n)) * 0.1,
        b_W=np.abs(rng.standard_normal(n)) * 0.1,
        b_Q=np.abs(rng.standard_normal(kp1)) * 0.1,
    )


class TestLogTransform:
    def test_values(self):
        t = SparseCountTensor(3, 1, 3, [0, 1], [1, 2], [0, 1], [9, 1])
        coo = log_transform(t)
        vals = dict(zip(zip(coo.i, coo.j, coo.k), coo.values))
        assert vals[(0, 1, 0)] == pytest.approx(np.log(10), abs=1e-12)
        assert vals[(1, 2, 1)] == pytest.approx(np.log(2), abs=1e-12)

    def test_pattern_preserved(self):
        t = SparseCountTensor(3, 1, 3, [0], [1], [0], [5])
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
        out = orthogonalize_factors(q, np.random.default_rng(0))
        assert np.allclose(out.T @ out, np.eye(3), atol=1e-12)
        assert np.allclose(np.abs(out.T @ q), np.eye(3), atol=1e-10)

    def test_hand_case(self):
        mat = np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]])
        out = orthogonalize_factors(mat, np.random.default_rng(0))
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
        updated, _ = als_update_mode(coo, U, W, Q, "U", factorize._build_unfolding(coo, "U"))
        assert np.allclose(updated, U, atol=1e-8)

    def test_dense_oracle_2x2x2(self):
        rng = np.random.default_rng(8)
        dense = rng.integers(0, 4, size=(2, 2, 2)).astype(np.float64)
        coo = dense_to_coo(dense, drop_zeros=False)
        U = rng.standard_normal((2, 1))
        W = rng.standard_normal((2, 1))
        Q = rng.standard_normal((2, 1))
        updated, _ = als_update_mode(coo, U, W, Q, "U", factorize._build_unfolding(coo, "U"))
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
                updated, _ = als_update_mode(coo, U, W, Q, mode,
                                             factorize._build_unfolding(coo, mode))
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


def add_at_mode_mttkrp(coo, mode, A, B):
    """Reference ``factorize._mttkrp``: the scatter-add for ``mode``'s
    output and gathered indices."""
    idx_out, idx_a, idx_b = {"U": (coo.i, coo.j, coo.k), "W": (coo.j, coo.i, coo.k),
                             "Q": (coo.k, coo.i, coo.j)}[mode]
    n_out = coo.dims[2] if mode == "Q" else coo.dims[0]
    return add_at_mttkrp(coo, A, B, idx_out, idx_a, idx_b, n_out)


def sorted_columns(entries):
    """Reference (k, i, j) order: a python sort of the mapping's keys."""
    keys = sorted(entries, key=lambda e: (e[2], e[0], e[1]))
    arr = np.array(keys, dtype=np.int64).reshape(-1, 3)
    counts = np.array([entries[key] for key in keys], dtype=np.int64)
    return arr[:, 0], arr[:, 1], arr[:, 2], counts


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


def shuffled_entries(rng, n, kp1, draws):
    """Counts of ``draws`` random coordinates (repeats merge), as a
    mapping whose keys were inserted in random order."""
    entries = {}
    for _ in range(draws):
        key = tuple(int(x) for x in rng.integers(0, (n, n, kp1)))
        entries[key] = entries.get(key, 0) + int(rng.integers(1, 40))
    keys = list(entries)
    rng.shuffle(keys)
    return {key: entries[key] for key in keys}


class TestArrayKernelsEqualReferences:
    """The array kernels give the bytes of the code they replaced."""

    @pytest.mark.parametrize("d", [1, 3, 25])
    def test_mttkrp_equals_scatter_add(self, d):
        rng = np.random.default_rng(40)
        n, kp1, nnz = 40, 6, 900
        # Even i rows only, j rows below 30 and slices below 5, so every
        # mode has absent output rows as well as repeated ones; the
        # coordinates are unsorted and some repeat.
        coo = CooTensor(rng.choice(np.arange(0, n, 2), nnz), rng.integers(0, 30, nnz),
                        rng.integers(0, kp1 - 1, nnz),
                        np.log1p(rng.integers(1, 40, nnz).astype(np.float64)),
                        (n, n, kp1))
        assert len(set(zip(coo.i, coo.j, coo.k))) < nnz
        U, W = rng.standard_normal((n, d)), rng.standard_normal((n, d))
        Q = rng.standard_normal((kp1, d))
        modes = {"U": (W, Q, coo.i, (W.T @ W) * (Q.T @ Q)),
                 "W": (U, Q, coo.j, (U.T @ U) * (Q.T @ Q)),
                 "Q": (U, W, coo.k, (U.T @ U) * (W.T @ W))}
        for mode, (A, B, idx_out, gram) in modes.items():
            want = add_at_mode_mttkrp(coo, mode, A, B)
            assert np.any(np.bincount(idx_out, minlength=len(want)) == 0)
            assert np.any(np.bincount(idx_out) > 1)
            csr = factorize._build_unfolding(coo, mode)
            got = factorize._mttkrp(coo, mode, A, B, csr)
            assert np.array_equal(got, want)
            update = np.linalg.solve(gram + factorize.RIDGE * np.eye(d), want.T).T
            got_update, got_mttkrp = als_update_mode(coo, U, W, Q, mode, csr)
            assert np.array_equal(got_update, update)
            assert np.array_equal(got_mttkrp, want)

    @pytest.mark.parametrize("d", [1, 25])
    def test_q_unfolding_shares_ordered_values(self, d):
        rng = np.random.default_rng(45)
        entries = shuffled_entries(rng, 30, 5, 900)
        counts = SparseCountTensor(30, 4, 3, *zip(*entries), counts=list(entries.values()))
        coo = log_transform(counts)
        assert np.any(np.bincount(coo.k) > 1)
        csr = factorize._build_unfolding(coo, "Q")
        assert np.shares_memory(csr.data, coo.values)
        assert not np.shares_memory(factorize._build_unfolding(coo, "U").data, coo.values)
        U, W = rng.standard_normal((30, d)), rng.standard_normal((30, d))
        assert np.array_equal(factorize._mttkrp(coo, "Q", U, W, csr),
                              add_at_mode_mttkrp(coo, "Q", U, W))

    def test_decompose_equals_scatter_add_run(self, monkeypatch):
        rng = np.random.default_rng(43)
        entries = shuffled_entries(rng, 30, 5, 1500)
        counts = SparseCountTensor(30, 4, 3, *zip(*entries), counts=list(entries.values()))
        config = TrainingConfig(dim=6, iterations=6, ortho_iterations=2, seed=3)
        got = decompose_orth_als(counts, config)
        monkeypatch.setattr(factorize, "_mttkrp", lambda coo, mode, A, B, _csr:
                            add_at_mode_mttkrp(coo, mode, A, B))
        want = decompose_orth_als(counts, config)
        for name in ("U", "W", "Q"):
            assert np.array_equal(getattr(got, name), getattr(want, name))
        assert got.trajectory == want.trajectory and len(got.trajectory) > 1

    def test_unfoldings_built_once_per_run(self, monkeypatch):
        rng = np.random.default_rng(44)
        entries = shuffled_entries(rng, 30, 5, 800)
        counts = SparseCountTensor(30, 4, 3, *zip(*entries), counts=list(entries.values()))
        built = []
        build = factorize._build_unfolding
        monkeypatch.setattr(factorize, "_build_unfolding",
                            lambda coo, mode: built.append(mode) or build(coo, mode))
        config = TrainingConfig(dim=4, iterations=5, ortho_iterations=1, seed=0)
        for _ in range(2):
            built.clear()
            emb = decompose_orth_als(counts, config)
            assert len(emb.trajectory) > 1
            assert sorted(built) == ["Q", "U", "W"]

    def test_from_counts_equals_sorted_keys(self):
        rng = np.random.default_rng(41)
        entries = shuffled_entries(rng, 30, 5, 2000)
        counts = SparseCountTensor(30, 4, 3, *zip(*entries), counts=list(entries.values()))
        i, j, k, c = sorted_columns(entries)
        coo = CooTensor.from_counts(counts)
        for got, want in zip((counts.i, counts.j, counts.k, counts.counts,
                              coo.i, coo.j, coo.k, coo.values),
                             (i, j, k, c, i, j, k, c.astype(np.float64))):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
        assert coo.dims == counts.dims

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_losses_across_block_boundary(self, offset):
        rng = np.random.default_rng(42 + offset)
        n, kp1, d = 200, 4, 25
        nnz = factorize._BLOCK_VALUES // d + offset
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


def plain_sweeps(coo, d, n_sweeps, seed=0):
    """U, W, Q and the Q update's MTTKRP after ``n_sweeps`` ALS sweeps
    from a random start."""
    rng = np.random.default_rng(seed)
    n, _, kp1 = coo.dims
    U, W, Q = (rng.standard_normal((rows, d)) for rows in (n, n, kp1))
    unfoldings = {mode: factorize._build_unfolding(coo, mode) for mode in "UWQ"}
    for _ in range(n_sweeps):
        U, _ = als_update_mode(coo, U, W, Q, "U", unfoldings["U"])
        W, _ = als_update_mode(coo, U, W, Q, "W", unfoldings["W"])
        Q, m_q = als_update_mode(coo, U, W, Q, "Q", unfoldings["Q"])
    return U, W, Q, m_q


def count_split_fits(monkeypatch) -> list:
    """A list that grows by one for each model gathering at the stored
    entries, which only the split form of the objective makes in ALS."""
    calls = []
    original = factorize._reconstruction_at
    monkeypatch.setattr(factorize, "_reconstruction_at",
                        lambda *args: calls.append(1) or original(*args))
    return calls


class TestExpandedObjective:
    """The objective taken from the Q update's MTTKRP, and its guard."""

    # Far from an exact fit the expansion's rounding is about c * eps of
    # the objective, c a few hundred at most for these sizes (the
    # EXPANSION_GUARD comment), so 1e-9 leaves a wide margin.
    REL = 1e-9

    def agrees(self, coo, U, W, Q, m_q):
        forms = []
        got = als_objective(coo, U, W, Q, m_q, forms)
        assert forms == ["expansion"]
        assert got == pytest.approx(reference_als_objective(coo, U, W, Q), rel=self.REL)
        als_objective(coo, U, W, Q, forms=forms)
        assert forms == ["expansion", "split"]

    @pytest.mark.parametrize("n_sweeps", [1, 3, 6])
    def test_agrees_on_a_sparse_tensor(self, n_sweeps):
        rng = np.random.default_rng(50)
        entries = shuffled_entries(rng, 30, 5, 900)
        counts = SparseCountTensor(30, 4, 3, *zip(*entries), counts=list(entries.values()))
        coo = log_transform(counts)
        self.agrees(coo, *plain_sweeps(coo, 4, n_sweeps))

    def test_agrees_on_the_toy_tensor(self):
        sentences = tokenize_sentences(TOY_CORPUS.read_bytes())
        counts = count_tensor(sentences, build_vocabulary(sentences, 5, default_roster()), 3)
        coo = log_transform(counts)
        assert coo.nnz > 1000
        self.agrees(coo, *plain_sweeps(coo, 8, 3))

    def test_agrees_on_a_full_pattern_tensor(self):
        rng = np.random.default_rng(51)
        coo = dense_to_coo(rng.uniform(0.5, 2.0, (9, 9, 4)), drop_zeros=False)
        assert coo.nnz == 9 * 9 * 4
        self.agrees(coo, *plain_sweeps(coo, 3, 3))

    def test_a_run_far_from_a_fit_never_takes_the_split_form(self, monkeypatch):
        rng = np.random.default_rng(52)
        entries = shuffled_entries(rng, 30, 5, 1500)
        counts = SparseCountTensor(30, 4, 3, *zip(*entries), counts=list(entries.values()))
        calls = count_split_fits(monkeypatch)
        emb = decompose_orth_als(counts, TrainingConfig(dim=6, iterations=8,
                                                        ortho_iterations=2, seed=3))
        assert len(emb.trajectory) > 3
        assert calls == [] and emb.split_fits == 0

    def test_the_planted_exact_tensor_falls_back_near_its_fit(self, monkeypatch, caplog):
        # Criterion 3's tensor and run.
        coo, _ = planted_tensor(np.random.default_rng(200), 100, 6, 5)
        config = TrainingConfig(dim=5, iterations=100, ortho_iterations=5, seed=3)
        calls = count_split_fits(monkeypatch)
        with caplog.at_level(logging.INFO, logger="preptensor.factorize"):
            got = decompose_orth_als(coo, config)
        forms = [record.args[3] for record in caplog.records
                 if record.msg.startswith("sweep")]
        split = forms.count("split")
        # The split sweeps are the last, near-exact ones.
        assert 0 < split == len(calls) == got.split_fits < len(got.trajectory)
        assert forms == ["expansion"] * (len(forms) - split) + ["split"] * split
        assert min(got.trajectory[-split:]) > 0.9999
        calls.clear()
        monkeypatch.setattr(factorize, "EXPANSION_GUARD", np.inf)
        want = decompose_orth_als(coo, config)
        assert len(calls) == want.split_fits == len(want.trajectory) == len(got.trajectory)
        for name in ("U", "W", "Q"):
            assert np.array_equal(getattr(got, name), getattr(want, name))


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
        emb = EmbeddingSet(U=U, W=W, Q=Q)
        assert cp_fit(coo, emb) == pytest.approx(1.0, abs=1e-10)

    def test_zero_embeddings(self):
        rng = np.random.default_rng(14)
        coo, _ = planted_tensor(rng, 5, 3, 2)
        emb = EmbeddingSet(U=np.zeros((5, 2)), W=np.zeros((5, 2)),
                           Q=np.zeros((3, 2)))
        assert cp_fit(coo, emb) == pytest.approx(0.0, abs=1e-12)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(15)
        coo, _ = planted_tensor(rng, 4, 2, 2)
        emb = EmbeddingSet(U=rng.standard_normal((4, 2)),
                           W=rng.standard_normal((4, 2)),
                           Q=rng.standard_normal((2, 2)))
        dense = np.zeros(coo.dims)
        dense[coo.i, coo.j, coo.k] = coo.values
        recon = np.einsum("ir,jr,kr->ijk", emb.U, emb.W, emb.Q)
        expected = 1.0 - np.linalg.norm(dense - recon) / np.linalg.norm(dense)
        assert cp_fit(coo, emb) == pytest.approx(expected, abs=1e-8)

    def test_zero_tensor_rejected(self):
        coo = CooTensor(np.array([0]), np.array([0]), np.array([0]),
                        np.array([0.0]), (2, 2, 2))
        emb = EmbeddingSet(U=np.zeros((2, 1)), W=np.zeros((2, 1)),
                           Q=np.zeros((2, 1)))
        with pytest.raises(ValueError, match="zero tensor"):
            cp_fit(coo, emb)


class TestWeightedGradient:
    @pytest.mark.parametrize("d", [1, 3, 25, 200])
    def test_batch_equals_scalar_calls(self, d):
        rng = np.random.default_rng(36)
        n, kp1, batch = 30, 6, 400
        emb = make_wd_embeddings(rng, n, kp1, d)
        i, j = rng.integers(0, n, batch), rng.integers(0, n, batch)
        k = rng.integers(0, kp1, batch)
        # Counts either side of x_max, so the weight both grows and saturates.
        x = rng.integers(1, 60, batch).astype(np.float64)
        got = weighted_gradient(emb, i, j, k, x, 10.0, 0.75)
        assert [g.shape for g in got] == [(batch, d)] * 3 + [(batch,)]
        for e in range(batch):
            want = weighted_gradient(emb, int(i[e]), int(j[e]), int(k[e]),
                                     float(x[e]), 10.0, 0.75)
            for g_batch, g_one in zip(got, want):
                assert np.array_equal(g_batch[e], g_one)

    def test_scalar_entry_equals_length_one_array(self):
        rng = np.random.default_rng(37)
        emb = make_wd_embeddings(rng, 5, 3, 4)
        scalar = weighted_gradient(emb, 2, 4, 1, 7.0, 10.0, 0.75)
        array = weighted_gradient(emb, np.array([2]), np.array([4]), np.array([1]),
                                  np.array([7.0]), 10.0, 0.75)
        assert [np.shape(g) for g in scalar] == [(4,)] * 3 + [()]
        assert [g.shape for g in array] == [(1, 4)] * 3 + [(1,)]
        for one, batch in zip(scalar, array):
            assert np.array_equal(one, batch[0])

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


PARAMETERS = ("U", "W", "Q", "b_U", "b_W", "b_Q")


def oracle_start(raw, config):
    """The generator ``decompose_weighted`` draws from and an EmbeddingSet
    of the factors and biases it starts from."""
    rng = np.random.default_rng(config.seed)
    n, _, kp1 = raw.dims
    scale = 1.0 / np.sqrt(config.dim)
    return rng, EmbeddingSet(U=rng.standard_normal((n, config.dim)) * scale,
                             W=rng.standard_normal((n, config.dim)) * scale,
                             Q=rng.standard_normal((kp1, config.dim)) * scale,
                             b_U=np.zeros(n), b_W=np.zeros(n), b_Q=np.zeros(kp1))


def scalar_wd_epoch(order, ii, jj, kk, targets, weights, lr,
                    U, W, Q, bU, bW, bQ, GU, GW, GQ, GbU, GbW, GbQ):
    """Sequential reference epoch: one adaptive step per entry, every index
    and scalar a numpy value, every row written back by assignment."""
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


def scalar_decompose_weighted(raw, config):
    """The sequential AdaGrad decomposition, driven by ``scalar_wd_epoch``:
    returns the embeddings and the loss seen during each pass."""
    rng, emb = oracle_start(raw, config)
    params = [getattr(emb, name) for name in PARAMETERS]
    sums = [np.ones_like(param) for param in params]
    targets = np.log1p(raw.values)
    weights = weight(raw.values, config.x_max, config.alpha)
    losses = []
    for _ in range(config.iterations):
        order = rng.permutation(raw.nnz)
        losses.append(scalar_wd_epoch(order, raw.i, raw.j, raw.k, targets, weights,
                                      config.learning_rate, *params, *sums))
    return emb, losses


def minibatch_wd_epoch(order, raw, config, emb, sums):
    """Reference mini-batch epoch: one scalar ``weighted_gradient`` call per
    entry of a batch, each touched row's gradients added from 0 in batch
    order, then one adaptive step per row with their mean."""
    lr = config.learning_rate
    for start in range(0, len(order), factorize.WD_BATCH):
        totals, hits = {}, {}
        for e in order[start:start + factorize.WD_BATCH]:
            i, j, k = int(raw.i[e]), int(raw.j[e]), int(raw.k[e])
            gu, gw, gq, gb = weighted_gradient(emb, i, j, k, float(raw.values[e]),
                                               config.x_max, config.alpha)
            for key, grad in ((("U", i), gu), (("W", j), gw), (("Q", k), gq),
                              (("b_U", i), gb), (("b_W", j), gb), (("b_Q", k), gb)):
                totals[key] = totals.get(key, 0.0) + grad
                hits[key] = hits.get(key, 0) + 1
        for (name, row), total in totals.items():
            mean = total / hits[name, row]
            param, sum_sq = getattr(emb, name), sums[name]
            param[row] = param[row] - lr * mean / np.sqrt(sum_sq[row])
            sum_sq[row] += mean * mean


def minibatch_decompose_weighted(raw, config):
    """``decompose_weighted`` composed from scalar gradients by
    ``minibatch_wd_epoch``: returns the embeddings and the loss after each
    epoch."""
    rng, emb = oracle_start(raw, config)
    sums = {name: np.ones_like(getattr(emb, name)) for name in PARAMETERS}
    losses = []
    for _ in range(config.iterations):
        minibatch_wd_epoch(rng.permutation(raw.nnz), raw, config, emb, sums)
        losses.append(reference_wd_loss(raw, emb, config.x_max, config.alpha))
    return emb, losses


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
        # The epochs of decompose_weighted, from the planted parameters
        # stacked as it stacks them.
        A = np.hstack([np.vstack([emb.U, emb.W, emb.Q]),
                       np.concatenate([emb.b_U, emb.b_W, emb.b_Q])[:, None]])
        G = np.ones_like(A)
        rows = np.stack([raw.i, 4 + raw.j, 8 + raw.k])
        rng = np.random.default_rng(config.seed)
        for _ in range(config.iterations):
            factorize._wd_epoch(rng.permutation(raw.nnz), rows, raw.values, A, G, config)
        assert np.allclose(A[:4, :-1], emb.U, atol=1e-9)
        assert np.allclose(A[:4, -1], emb.b_U, atol=1e-9)

    def test_zero_parameter_loss(self):
        rng = np.random.default_rng(21)
        vals = rng.integers(1, 15, size=10).astype(np.float64)
        raw = CooTensor(rng.integers(0, 4, 10), rng.integers(0, 4, 10),
                        rng.integers(0, 3, 10), vals, (4, 4, 3))
        zero = EmbeddingSet(U=np.zeros((4, 2)), W=np.zeros((4, 2)),
                            Q=np.zeros((3, 2)),
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
        assert emb.b_U is None
        dense = np.abs(np.random.default_rng(29).integers(1, 5, (4, 4, 2))).astype(float)
        wd = decompose_weighted(dense_to_coo(dense),
                                TrainingConfig(dim=2, iterations=2,
                                               ortho_iterations=0))
        assert wd.b_U is not None

    @pytest.mark.parametrize("dim", [1, 3, 25, 40, 200])
    def test_equals_scalar_reference(self, dim):
        rng = np.random.default_rng(30)
        dense = rng.integers(0, 25, size=(7, 7, 4)).astype(np.float64)
        raw = dense_to_coo(dense)
        # Every full batch repeats a row of each factor, and the last
        # batch is short.
        assert max(raw.dims) < factorize.WD_BATCH
        assert raw.nnz % factorize.WD_BATCH
        config = TrainingConfig(dim=dim, iterations=4, seed=31, ortho_iterations=0)
        out = decompose_weighted(raw, config)
        expected, losses = minibatch_decompose_weighted(raw, config)
        for name in PARAMETERS:
            assert np.array_equal(getattr(out, name), getattr(expected, name))
        assert out.trajectory == losses

    @pytest.mark.parametrize("dim", [1, 3, 25, 40, 200])
    @pytest.mark.parametrize("batches_per_block", [1, 3])
    def test_equals_scalar_reference_across_blocks(self, dim, batches_per_block,
                                                   monkeypatch):
        """Blocks of a few batches (the values of 5 entries more, rounded
        down to whole batches): the reference tensor's 13 batches cross
        block boundaries, and the last block ends with the short batch."""
        monkeypatch.setattr(factorize, "_BLOCK_VALUES",
                            (batches_per_block * factorize.WD_BATCH + 5) * (dim + 1))
        self.test_equals_scalar_reference(dim)

    def test_loss_near_sequential_kernel(self):
        rng = np.random.default_rng(32)
        raw = dense_to_coo(rng.integers(0, 25, size=(12, 12, 5)).astype(np.float64))
        assert max(raw.dims) < factorize.WD_BATCH
        config = TrainingConfig(dim=3, iterations=10, seed=33, ortho_iterations=0)
        sequential, _ = scalar_decompose_weighted(raw, config)
        out = decompose_weighted(raw, config)
        assert (wd_loss(raw, out, config.x_max, config.alpha)
                <= 1.05 * wd_loss(raw, sequential, config.x_max, config.alpha))

    def test_one_gradient_call_per_batch(self, monkeypatch):
        rng = np.random.default_rng(34)
        raw = dense_to_coo(rng.integers(0, 25, size=(7, 7, 4)).astype(np.float64))
        sizes = []

        def counting(a, target, w2):
            sizes.append(len(target))
            return gradient_block(a, target, w2)

        gradient_block = factorize._gradient_block
        monkeypatch.setattr(factorize, "_gradient_block", counting)
        decompose_weighted(raw, TrainingConfig(dim=3, iterations=3, ortho_iterations=0))
        full, last = divmod(raw.nnz, factorize.WD_BATCH)
        assert last
        assert sizes == 3 * ([factorize.WD_BATCH] * full + [last])

    def test_epoch_memory_bounded(self):
        """One epoch over several blocks of Zipf-drawn rows, as a count
        tensor's are, allocates about two blocks' worth of factor values
        (2.0 × 8 · ``_BLOCK_VALUES`` measured at d = 25; hoisting each
        block's (3, entries, width) bincount cells measured 7.2 ×): a
        batch's cells are made per batch."""
        rng = np.random.default_rng(38)
        n, kp1, nnz, d = 2000, 50, 30000, 25
        assert nnz > 2 * factorize._BLOCK_VALUES // (d + 1)
        rows = np.stack([np.minimum(rng.zipf(a, nnz) - 1, size - 1) + offset
                         for a, size, offset in ((1.3, n, 0), (1.3, n, n),
                                                 (1.5, kp1, 2 * n))])
        counts = rng.integers(1, 60, nnz).astype(np.float64)
        A = np.hstack([rng.standard_normal((2 * n + kp1, d)) * 0.2,
                       np.zeros((2 * n + kp1, 1))])
        G = np.ones_like(A)
        config = TrainingConfig(dim=d, iterations=1, ortho_iterations=0)
        _, peak = traced_peak(lambda: factorize._wd_epoch(
            rng.permutation(nnz), rows, counts, A, G, config))
        assert peak < 2.5 * 8 * factorize._BLOCK_VALUES

    @pytest.mark.parametrize("value", [0.0, -2.0])
    def test_non_positive_entry_rejected(self, value):
        raw = CooTensor(np.array([0, 1]), np.array([1, 0]), np.array([0, 1]),
                        np.array([3.0, value]), (2, 2, 2))
        with pytest.raises(ValueError, match="requires positive nonzero entries"):
            decompose_weighted(raw, TrainingConfig(dim=2, iterations=1,
                                                   ortho_iterations=0))

    def test_trajectory_ends_at_final_loss(self):
        rng = np.random.default_rng(35)
        raw = dense_to_coo(rng.integers(0, 25, size=(7, 7, 4)).astype(np.float64))
        config = TrainingConfig(dim=3, iterations=6, ortho_iterations=0)
        out = decompose_weighted(raw, config)
        assert len(out.trajectory) == 6
        assert out.trajectory[-1] == wd_loss(raw, out, config.x_max, config.alpha)


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

    @pytest.mark.parametrize("field, message", [
        ("dim", "dim must be >= 1, got 0"),
        ("x_max", "x_max must be positive, got 0"),
        ("learning_rate", "learning_rate must be positive, got 0"),
    ])
    def test_rejects_zero(self, field, message):
        with pytest.raises(ValueError) as exc:
            TrainingConfig(**{field: 0})
        assert str(exc.value) == message

    @pytest.mark.parametrize("field", ["x_max", "learning_rate"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError) as exc:
            TrainingConfig(**{field: value})
        assert str(exc.value) == f"{field} must be positive, got {value}"

    def test_zero_ortho_iterations_valid(self):
        assert TrainingConfig(ortho_iterations=0).ortho_iterations == 0
