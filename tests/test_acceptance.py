"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The lines are written to the real stdout so they appear even under
pytest's capture. Every test is deterministic.
"""

import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

import preptensor.cli as cli
from preptensor.attach import load_attachment_dataset
from preptensor.corpus import SparseCountTensor, build_vocabulary, count_tensor
from preptensor.embeddings import (
    cosine_similarity,
    paraphrase_phrasal_verb,
    slice_spectrum,
    triple_similarity,
)
from preptensor.factorize import (
    CooTensor,
    EmbeddingSet,
    TrainingConfig,
    _build_unfolding,
    als_objective,
    als_update_mode,
    cp_fit,
    decompose_orth_als,
    weight,
    weighted_gradient,
)
from preptensor.learn import (
    FeedForwardNet,
    FnnHyper,
    TreeParams,
    accuracy,
    fnn_forward_batch,
    fnn_loss_and_grads,
    precision_recall_f1,
    train_decision_tree,
    train_fnn,
    tree_predict,
)
from preptensor.select import default_roster

from conftest import brute_force_tensor, make_store, random_corpus

DATA_DIR = Path(__file__).parent / "data"


def report(number: int, name: str, ok: bool) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number:02d}: {name}"
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def test_criterion_01_counting_oracle():
    rng = np.random.default_rng(100)
    roster = ["on", "of", "in"]
    start = time.perf_counter()
    ok = True
    for _ in range(100):
        n_sent = int(rng.integers(5, 201))
        vocab_size = int(rng.integers(5, 51))
        sentences = random_corpus(rng, n_sent, vocab_size, roster)
        vocab = build_vocabulary(sentences, 1, roster)
        if count_tensor(sentences, vocab, 3) != brute_force_tensor(sentences, vocab, 3):
            ok = False
            break
    elapsed = time.perf_counter() - start
    report(1, f"counting oracle, 100 corpora in {elapsed:.1f}s", ok and elapsed < 10)


def test_criterion_02_extra_slice_hand_cases():
    sentences = [["cats", "sat", "on", "mats", "quietly"],
                 ["dogs", "chase", "cats"]]
    vocab = build_vocabulary(sentences, 1, ["on", "of", "in"])
    tensor = count_tensor(sentences, vocab, 3)
    k_extra = vocab.n_prepositions
    extra = {key: c for key, c in tensor.entries.items() if key[2] == k_extra}
    # Sentence 1: every token is within the preposition window -> nothing;
    # sentence 2 has no preposition -> all 6 ordered pairs, once each.
    wid = vocab.word_ids
    in_window_tokens = {"cats", "sat", "mats", "quietly"}
    ok = len(extra) == 6 and all(c == 1 for c in extra.values())
    for a in ("dogs", "chase"):
        for b in in_window_tokens - {"cats"}:
            ok = ok and tensor.entries.get((wid[a], wid[b], k_extra), 0) == 0
    for a, b in [("dogs", "chase"), ("dogs", "cats"), ("chase", "cats")]:
        ok = ok and tensor.entries.get((wid[a], wid[b], k_extra), 0) == 1
        ok = ok and tensor.entries.get((wid[b], wid[a], k_extra), 0) == 1
    report(2, "extra-slice hand cases", ok)


def planted_tensor(rng, n, kp1, d, orthogonal=False, weights=None):
    if orthogonal:
        U = np.linalg.qr(rng.standard_normal((n, d)))[0]
        W = np.linalg.qr(rng.standard_normal((n, d)))[0]
        Q = np.linalg.qr(rng.standard_normal((kp1, d)))[0]
        if weights is not None:
            Q = Q * np.asarray(weights)
    else:
        U = rng.standard_normal((n, d))
        W = rng.standard_normal((n, d))
        Q = rng.standard_normal((kp1, d))
    dense = np.einsum("ir,jr,kr->ijk", U, W, Q)
    i, j, k = np.meshgrid(np.arange(n), np.arange(n), np.arange(kp1),
                          indexing="ij")
    coo = CooTensor(i.ravel(), j.ravel(), k.ravel(), dense.ravel(),
                    (n, n, kp1))
    return coo, (U, W, Q)


def test_criterion_03_als_rank_recovery():
    rng = np.random.default_rng(200)
    coo, _ = planted_tensor(rng, 100, 6, 5)
    start = time.perf_counter()
    emb = decompose_orth_als(coo, TrainingConfig(dim=5, iterations=100,
                                                 ortho_iterations=5, seed=3))
    fit = cp_fit(coo, emb)

    # Plain ALS (no orthogonalization steps): objective never increases.
    init = np.random.default_rng(4)
    U = init.standard_normal((100, 5))
    W = init.standard_normal((100, 5))
    Q = init.standard_normal((6, 5))
    objectives = []
    unfoldings = {mode: _build_unfolding(coo, mode) for mode in "UWQ"}
    for _ in range(25):
        U = als_update_mode(coo, U, W, Q, "U", unfoldings["U"])
        W = als_update_mode(coo, U, W, Q, "W", unfoldings["W"])
        Q = als_update_mode(coo, U, W, Q, "Q", unfoldings["Q"])
        objectives.append(als_objective(coo, U, W, Q))
    elapsed = time.perf_counter() - start
    monotone = all(b <= a + 1e-8 * objectives[0]
                   for a, b in zip(objectives, objectives[1:]))
    report(3, f"ALS rank recovery (fit={fit:.6f}, {elapsed:.1f}s)",
           fit >= 0.999 and monotone and elapsed < 30)


def matched_cosines(recovered, planted):
    a = recovered / np.linalg.norm(recovered, axis=0)
    b = planted / np.linalg.norm(planted, axis=0)
    cos = np.abs(a.T @ b)
    rows, cols = linear_sum_assignment(-cos)
    return cos[rows, cols]


def test_criterion_04_orth_als_component_recovery():
    rng = np.random.default_rng(300)
    coo, (U0, W0, Q0) = planted_tensor(rng, 40, 6, 5, orthogonal=True,
                                       weights=[10.0, 8.0, 6.0, 4.0, 2.0])
    emb = decompose_orth_als(coo, TrainingConfig(dim=5, iterations=60,
                                                 ortho_iterations=5, seed=5))
    worst = min(matched_cosines(emb.U, U0).min(),
                matched_cosines(emb.W, W0).min(),
                matched_cosines(emb.Q, Q0).min())
    report(4, f"Orth-ALS component recovery (worst cosine={worst:.4f})",
           worst >= 0.99)


def wd_numeric_check(rng, h=1e-5):
    n, kp1, d = 4, 3, 3
    emb = EmbeddingSet(U=rng.standard_normal((n, d)) * 0.5,
                       W=rng.standard_normal((n, d)) * 0.5,
                       Q=rng.standard_normal((kp1, d)) * 0.5,
                       b_U=rng.standard_normal(n) * 0.1,
                       b_W=rng.standard_normal(n) * 0.1,
                       b_Q=rng.standard_normal(kp1) * 0.1)
    i, j, k = (int(rng.integers(n)), int(rng.integers(n)),
               int(rng.integers(kp1)))
    x = float(rng.uniform(0.5, 25.0))
    x_max, alpha = 10.0, 0.75

    def term():
        r = (float(emb.U[i] @ (emb.W[j] * emb.Q[k]))
             + emb.b_U[i] + emb.b_W[j] + emb.b_Q[k] - np.log1p(x))
        return weight(x, x_max, alpha) * r * r

    g_u, g_w, g_q, g_b = weighted_gradient(emb, i, j, k, x, x_max, alpha)
    worst = 0.0
    for arr, row, grad in ((emb.U, i, g_u), (emb.W, j, g_w), (emb.Q, k, g_q)):
        for c in range(d):
            arr[row, c] += h
            up = term()
            arr[row, c] -= 2 * h
            down = term()
            arr[row, c] += h
            fd = (up - down) / (2 * h)
            worst = max(worst, abs(fd - grad[c])
                        / max(abs(fd), abs(grad[c]), 1e-6))
    for bias, row in ((emb.b_U, i), (emb.b_W, j), (emb.b_Q, k)):
        bias[row] += h
        up = term()
        bias[row] -= 2 * h
        down = term()
        bias[row] += h
        fd = (up - down) / (2 * h)
        worst = max(worst, abs(fd - g_b) / max(abs(fd), abs(g_b), 1e-6))
    return worst


def fnn_numeric_check(rng, h=1e-5):
    # The loss is O(1), so the denominator floor of 1e-2 compares
    # vanishing gradients (dead units) absolutely instead of amplifying
    # finite-difference roundoff into spurious relative error.
    floor = 1e-2
    net = FeedForwardNet.init([3, 4, 3, 2], seed=int(rng.integers(100000)))
    # Zero-initialized biases can leave pre-activations exactly on the
    # rectifier kink (whole dead rows), where the one-sided analytic
    # subgradient and a central difference legitimately differ. Random
    # biases keep the check away from the kink.
    net.biases = [rng.standard_normal(len(b)) * 0.1 for b in net.biases]
    X = rng.standard_normal((4, 3))
    y = rng.integers(0, 2, 4)
    _, w_grads, b_grads = fnn_loss_and_grads(net, X, y)
    worst = 0.0
    for layer, w in enumerate(net.weights):
        for r in range(w.shape[0]):
            for c in range(w.shape[1]):
                w[r, c] += h
                up, _, _ = fnn_loss_and_grads(net, X, y)
                w[r, c] -= 2 * h
                down, _, _ = fnn_loss_and_grads(net, X, y)
                w[r, c] += h
                fd = (up - down) / (2 * h)
                an = w_grads[layer][r, c]
                worst = max(worst, abs(fd - an) / max(abs(fd), abs(an), floor))
    for layer, b in enumerate(net.biases):
        for c in range(len(b)):
            b[c] += h
            up, _, _ = fnn_loss_and_grads(net, X, y)
            b[c] -= 2 * h
            down, _, _ = fnn_loss_and_grads(net, X, y)
            b[c] += h
            fd = (up - down) / (2 * h)
            an = b_grads[layer][c]
            worst = max(worst, abs(fd - an) / max(abs(fd), abs(an), floor))
    return worst


def test_criterion_05_gradient_checks():
    rng = np.random.default_rng(400)
    worst = 0.0
    for _ in range(50):
        worst = max(worst, wd_numeric_check(rng))
    for _ in range(50):
        worst = max(worst, fnn_numeric_check(rng))
    report(5, f"gradient checks, 100 configs (max rel err={worst:.2e})",
           worst <= 1e-4)


def test_criterion_06_weight_function():
    grid = np.linspace(0.0, 10.0, 1000)
    values = weight(grid, 10.0, 0.75)
    ok = (values[0] == 0.0
          and values[-1] == 1.0
          and np.all(np.diff(values) >= 0)
          and abs(weight(5.0, 10.0, 0.75) - 0.594604) <= 1e-6
          and weight(25.0, 10.0, 0.75) == 1.0)
    report(6, "weight function values and monotonicity", ok)


def test_criterion_07_paraphrase_geometry():
    rng = np.random.default_rng(500)
    dim = 8
    q_const = rng.uniform(0.5, 1.5, dim)
    vectors = {"__q_const__": q_const}
    pairs = []
    candidates = []
    for idx in range(20):
        head, prep, verb = f"head{idx}", f"prep{idx}", f"verb{idx}"
        u_h = rng.uniform(0.5, 1.5, dim)
        q_p = rng.uniform(0.5, 1.5, dim)
        vectors[head] = u_h
        vectors[prep] = q_p
        vectors[verb] = u_h * q_p / q_const
        pairs.append((head, prep, verb))
        candidates.append(verb)
    for idx in range(30):
        candidates.append(f"noise{idx}")
        vectors[f"noise{idx}"] = rng.standard_normal(dim)
    store = make_store(vectors, q_const=q_const)
    ok = True
    for head, prep, verb in pairs:
        ranked = paraphrase_phrasal_verb(head, prep, candidates, store)
        ok = ok and ranked[0][0] == verb and ranked[0][1] <= 1e-10
    report(7, "paraphrase geometry, 20 planted pairs", ok)


def test_criterion_08_similarity_algebra():
    rng = np.random.default_rng(600)
    ok = True
    for _ in range(1000):
        a, b, c = rng.standard_normal((3, 6))
        s = float(rng.uniform(0.1, 10.0))
        ok = ok and abs(cosine_similarity(a, b) - cosine_similarity(b, a)) <= 1e-12
        ok = ok and abs(cosine_similarity(s * a, b) - cosine_similarity(a, b)) <= 1e-10
        base = triple_similarity(a, b, c)
        ok = ok and abs(triple_similarity(b, c, a) - base) <= 1e-10
        ok = ok and abs(triple_similarity(c, a, b) - base) <= 1e-10
        ok = ok and abs(triple_similarity(s * a, b, c) - base) <= 1e-10
    ones = np.ones(7)
    ok = ok and triple_similarity(ones, ones, ones) == pytest.approx(1.0, abs=1e-15)
    report(8, "similarity algebra over 1000 random vectors", ok)


def test_criterion_09_spectrum():
    m = [1, 2, 1, 3, 2]
    entries = {(i, j, 0): 2 ** (m[i] * m[j]) - 1
               for i in range(5) for j in range(5)}
    rank1 = SparseCountTensor(5, 1, 3, *zip(*entries), counts=list(entries.values()))
    spec_rank1 = slice_spectrum(rank1, 0, 5)
    identity = {(i, i, 0): 1 for i in range(6)}
    spec_id = slice_spectrum(
        SparseCountTensor(6, 1, 3, *zip(*identity), counts=list(identity.values())), 0, 6)
    ok = (spec_rank1[1] <= 1e-8
          and np.all(np.abs(np.asarray(spec_id) - 1.0) <= 1e-10))
    report(9, "slice spectra (rank-1 and identity patterns)", ok)


def test_criterion_10_learners():
    # XOR to 100% within 2000 epochs.
    X = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
    y = [0, 1, 1, 0]
    net = train_fnn(X, y, (8, 4),
                    FnnHyper(learning_rate=0.1, momentum=0.9, batch_size=4,
                             epochs=2000, seed=0, val_fraction=0.0))
    xor_ok = np.argmax(fnn_forward_batch(net, X), axis=1).tolist() == y

    # Separable Gaussian blobs to >= 99%.
    rng = np.random.default_rng(700)
    B0 = rng.standard_normal((200, 2)) + [3.0, 3.0]
    B1 = rng.standard_normal((200, 2)) - [3.0, 3.0]
    Xb = np.vstack([B0, B1])
    yb = [0] * 200 + [1] * 200
    perm = rng.permutation(400)
    Xb, yb = Xb[perm], [yb[p] for p in perm]
    net_b = train_fnn(Xb[:300], yb[:300], (16, 8),
                      FnnHyper(epochs=30, seed=1, val_fraction=0.1))
    preds = np.argmax(fnn_forward_batch(net_b, Xb[300:]), axis=1).tolist()
    blob_acc = accuracy(preds, yb[300:])

    # Tree to 100% on threshold-separable 1-D data.
    xs = np.concatenate([rng.uniform(0, 0.45, 30), rng.uniform(0.55, 1, 30)])
    yt = [0] * 30 + [1] * 30
    tree = train_decision_tree(xs[:, None], yt, TreeParams(min_leaf=1))
    tree_ok = tree_predict(tree, xs[:, None]).tolist() == [bool(y) for y in yt]

    # Hand-built metrics case with TP=2, FP=1, FN=3.
    p, r, f1 = precision_recall_f1(
        predicted=["b", "b", "a", "a", "c", "a"],
        gold=["b", "b", "b", "b", "b", "a"],
        observed=["a", "a", "a", "a", "a", "a"])
    metrics_ok = (abs(p - 2 / 3) <= 1e-12 and abs(r - 0.4) <= 1e-12
                  and abs(f1 - 0.5) <= 1e-12)
    report(10, f"learners (blob acc={blob_acc:.3f})",
           xor_ok and blob_acc >= 0.99 and tree_ok and metrics_ok)


# ---------------------------------------------------------------------------
# End-to-end smoke helpers (criterion 11)


def toy_signatures():
    roster = default_roster()
    heads = {p: [f"act{k}{s}" for s in "ab"] for k, p in enumerate(roster)}
    comps = {p: [f"obj{k}{s}" for s in "ab"] for k, p in enumerate(roster)}
    fillers = [f"fill{i}" for i in range(20)]
    return roster, heads, comps, fillers


def make_selection_tsv(rng, n, path, error_rate=0.3):
    roster, heads, comps, fillers = toy_signatures()
    lines = []
    for _ in range(n):
        k = int(rng.integers(len(roster)))
        gold = roster[k]
        if rng.random() < error_rate:
            shift = 1 + int(rng.integers(len(roster) - 1))
            observed = roster[(k + shift) % len(roster)]
        else:
            observed = gold
        toks = [fillers[int(rng.integers(20))],
                heads[gold][int(rng.integers(2))], observed,
                comps[gold][int(rng.integers(2))],
                fillers[int(rng.integers(20))]]
        lines.append(f"{' '.join(toks)}\t2\t{observed}\t{gold}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def make_attachment_tsv(rng, n, path, nearest_gold_rate=0.6):
    roster, heads, comps, _ = toy_signatures()
    lines = []
    for m in range(n):
        k = int(rng.integers(len(roster)))
        prep = roster[k]
        shift = 1 + int(rng.integers(len(roster) - 1))
        gold_tok = heads[prep][int(rng.integers(2))]
        distractor = heads[roster[(k + shift) % len(roster)]][int(rng.integers(2))]
        child = comps[prep][int(rng.integers(2))]
        if (m % 10) < int(nearest_gold_rate * 10):
            cands = f"{gold_tok}:VB:NN:1;{distractor}:VB:NN:3"
            gold_index = 0
        else:
            cands = f"{distractor}:VB:NN:2;{gold_tok}:VB:NN:4"
            gold_index = 1
        lines.append(f"{prep}\t{child}\t{gold_index}\t{cands}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_metric(path, key):
    text = Path(path).read_text(encoding="utf-8")
    for token in text.split():
        if token.startswith(key + "="):
            return float(token.split("=")[1])
    raise AssertionError(f"{key} not found in {path}")


def test_criterion_11_end_to_end_smoke(tmp_path):
    corpus = DATA_DIR / "toy_corpus.txt"
    assert corpus.exists(), "bundled toy corpus missing"
    rng = np.random.default_rng(7)
    sel_train = tmp_path / "sel_train.tsv"
    sel_eval = tmp_path / "sel_eval.tsv"
    att_train = tmp_path / "att_train.tsv"
    att_eval = tmp_path / "att_eval.tsv"
    make_selection_tsv(rng, 1500, sel_train)
    make_selection_tsv(rng, 500, sel_eval)
    make_attachment_tsv(rng, 1500, att_train)
    make_attachment_tsv(rng, 500, att_eval)

    tensor = tmp_path / "tensor"
    emb = tmp_path / "emb.txt"
    sel_models = tmp_path / "sel_models"
    att_models = tmp_path / "att_models"
    start = time.perf_counter()
    steps = [
        ["build-tensor", "--corpus", str(corpus), "--out", str(tensor)],
        ["decompose", "--tensor", str(tensor), "--method", "wd",
         "--dim", "25", "--iters", "20", "--out", str(emb)],
        ["train-select", "--train", str(sel_train), "--embeddings", str(emb),
         "--out", str(sel_models), "--hidden1", "128", "--hidden2", "16",
         "--epochs", "40"],
        ["eval-select", "--test", str(sel_eval), "--models", str(sel_models),
         "--embeddings", str(emb), "--out", str(tmp_path / "sel_errors.csv")],
        ["train-attach", "--train", str(att_train), "--embeddings", str(emb),
         "--out", str(att_models), "--hidden1", "64", "--hidden2", "16",
         "--epochs", "30"],
        ["eval-attach", "--test", str(att_eval), "--models", str(att_models),
         "--embeddings", str(emb), "--out", str(tmp_path / "att_errors.csv")],
    ]
    for step in steps:
        assert cli.run(step) == 0, f"step failed: {step[0]}"
    elapsed = time.perf_counter() - start

    model_f1 = read_metric(tmp_path / "sel_errors_metrics.txt", "F1")
    # Always-keep baseline: predict the observed preposition everywhere.
    eval_lines = [ln.split("\t") for ln in
                  sel_eval.read_text().strip().splitlines()]
    observed = [parts[2] for parts in eval_lines]
    gold = [parts[3] for parts in eval_lines]
    _, _, baseline_f1 = precision_recall_f1(observed, gold, observed)

    model_acc = read_metric(tmp_path / "att_errors_metrics.txt", "accuracy")
    att_instances, _rejected = load_attachment_dataset(att_eval)
    # Nearest-head baseline: the closest candidate, ties to the lowest index.
    nearest = [int(np.argmin([c.distance for c in i.candidates])) for i in att_instances]
    baseline_acc = accuracy(nearest, [i.gold_index for i in att_instances])

    ok = (elapsed <= 300.0
          and model_f1 > baseline_f1
          and abs(baseline_acc - 0.6) <= 1e-12
          and model_acc > baseline_acc)
    report(11, f"end-to-end smoke ({elapsed:.0f}s, F1 {model_f1:.3f} vs "
               f"{baseline_f1:.3f}, acc {model_acc:.3f} vs {baseline_acc:.2f})",
           ok)


def test_criterion_12_determinism(tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(
        "Cats sat on mats near doors. Dogs slept in boxes under tables.\n"
        "Birds of prey fly over fields. Cats slept on boxes near fields.\n"
        "Dogs sat in doors of houses. Prey of cats hid under mats.\n" * 4)
    roster = tmp_path / "roster.txt"
    roster.write_text("in\nof\non\n")
    train = tmp_path / "sel_train.tsv"
    train.write_text(("cats sat on mats\t2\ton\ton\n"
                      "dogs slept on boxes\t2\ton\tin\n"
                      "birds of prey\t1\tof\tof\n") * 8)

    artifacts = []
    for run_id in ("a", "b"):
        base = tmp_path / run_id
        tensor = base / "tensor"
        emb = base / "emb.txt"
        models = base / "models"
        steps = [
            ["build-tensor", "--corpus", str(corpus), "--roster", str(roster),
             "--min-count", "1", "--out", str(tensor)],
            ["decompose", "--tensor", str(tensor), "--method", "wd",
             "--dim", "6", "--iters", "10", "--out", str(emb)],
            ["train-select", "--train", str(train), "--embeddings", str(emb),
             "--roster", str(roster), "--out", str(models),
             "--hidden1", "8", "--hidden2", "4", "--epochs", "20",
             "--min-leaf", "1"],
            ["eval-select", "--test", str(train), "--models", str(models),
             "--embeddings", str(emb), "--roster", str(roster),
             "--out", str(base / "errors.csv")],
        ]
        for step in steps:
            assert cli.run(step) == 0, f"step failed: {step[0]}"
        artifacts.append({
            "embeddings": emb.read_bytes(),
            "tree": (models / "tree.txt").read_bytes(),
            "fnn": (models / "fnn.txt").read_bytes(),
            "confusion": (models / "confusion.txt").read_bytes(),
            "metrics": (base / "errors_metrics.txt").read_bytes(),
            "errors": (base / "errors.csv").read_bytes(),
        })
    mismatched = [key for key in artifacts[0]
                  if artifacts[0][key] != artifacts[1][key]]
    report(12, "determinism: byte-identical artifacts across reruns",
           not mismatched)
