import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import preptensor.cli as cli
from preptensor.corpus import (
    build_vocabulary,
    count_tensor,
    load_tensor,
    load_vocabulary,
    tokenize_sentences,
)
from preptensor.embeddings import load_embeddings

ROSTER = ["in", "of", "on"]
TOY_CORPUS = Path(__file__).parent / "data" / "toy_corpus.txt"

CORPUS = (
    "Cats sat on mats near doors. Dogs slept in boxes under tables.\n"
    "Birds of prey fly over fields. Cats slept on boxes near fields.\n"
    "Dogs sat in doors of houses. Prey of cats hid under mats.\n"
)


@pytest.fixture
def corpus_path(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text(CORPUS)
    return path


@pytest.fixture
def roster_path(tmp_path):
    path = tmp_path / "roster.txt"
    path.write_text("\n".join(ROSTER) + "\n")
    return path


@pytest.fixture
def tensor_dir(tmp_path, corpus_path, roster_path):
    out = tmp_path / "tensor"
    rc = cli.run(["build-tensor", "--corpus", str(corpus_path),
                  "--roster", str(roster_path), "--min-count", "1",
                  "--out", str(out)])
    assert rc == 0
    return out


class TestBuildTensor:
    def test_outputs_and_manifest(self, tensor_dir, corpus_path):
        assert (tensor_dir / "vocab.txt").exists()
        assert (tensor_dir / "tensor.txt").exists()
        manifest = json.loads((tensor_dir / "manifest.json").read_text())
        assert manifest["command"] == "build-tensor"
        assert manifest["config"]["window"] == 3
        assert manifest["config"]["min_count"] == 1
        assert str(corpus_path) in manifest["inputs"]
        assert len(manifest["inputs"][str(corpus_path)]) == 64

    def test_matches_library_pipeline(self, tensor_dir, corpus_path):
        sentences = tokenize_sentences(corpus_path.read_bytes())
        vocab = build_vocabulary(sentences, 1, ROSTER)
        expected = count_tensor(sentences, vocab, 3)
        assert load_tensor(tensor_dir / "tensor.txt") == expected
        assert load_vocabulary(tensor_dir / "vocab.txt").words == vocab.words

    def test_missing_corpus_fails(self, tmp_path, roster_path):
        rc = cli.run(["build-tensor", "--corpus", str(tmp_path / "nope.txt"),
                      "--roster", str(roster_path), "--out",
                      str(tmp_path / "out")])
        assert rc == 1


class TestDecompose:
    def test_als_writes_embeddings_and_manifest(self, tmp_path, tensor_dir):
        out = tmp_path / "emb.txt"
        rc = cli.run(["decompose", "--tensor", str(tensor_dir),
                      "--method", "als", "--dim", "4", "--iters", "3",
                      "--out", str(out)])
        assert rc == 0
        store = load_embeddings(out)
        assert store.dim == 4
        manifest = json.loads((out.parent / "emb.txt.manifest.json").read_text())
        assert manifest["config"]["method"] == "als"
        assert manifest["config"]["dim"] == 4

    def test_default_dim_is_200(self, tmp_path, tensor_dir):
        out = tmp_path / "emb.txt"
        rc = cli.run(["decompose", "--tensor", str(tensor_dir),
                      "--method", "als", "--iters", "2", "--out", str(out)])
        assert rc == 0
        assert load_embeddings(out).dim == 200
        manifest = json.loads((out.parent / "emb.txt.manifest.json").read_text())
        assert manifest["config"]["dim"] == 200

    def test_config_file_overridden_by_flag(self, tmp_path, tensor_dir):
        config = tmp_path / "conf.txt"
        config.write_text("dim = 3   # comment\niters = 2\n")
        out_cfg = tmp_path / "emb_cfg.txt"
        rc = cli.run(["--config", str(config), "decompose",
                      "--tensor", str(tensor_dir), "--method", "als",
                      "--out", str(out_cfg)])
        assert rc == 0
        assert load_embeddings(out_cfg).dim == 3

        out_flag = tmp_path / "emb_flag.txt"
        rc = cli.run(["--config", str(config), "decompose",
                      "--tensor", str(tensor_dir), "--method", "als",
                      "--dim", "5", "--out", str(out_flag)])
        assert rc == 0
        assert load_embeddings(out_flag).dim == 5
        manifest = json.loads(
            (out_flag.parent / "emb_flag.txt.manifest.json").read_text())
        assert manifest["config"]["dim"] == 5
        assert manifest["config"]["iters"] == 2

    def test_rerun_is_byte_identical(self, tmp_path, tensor_dir):
        outs = []
        for name in ("a.txt", "b.txt"):
            out = tmp_path / name
            rc = cli.run(["decompose", "--tensor", str(tensor_dir),
                          "--method", "wd", "--dim", "4", "--iters", "3",
                          "--out", str(out)])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("method, iters", [("wd", 5), ("als", 4)])
    def test_manifest_records_trajectory(self, tmp_path, tensor_dir, method,
                                         iters):
        out = tmp_path / "emb.txt"
        rc = cli.run(["decompose", "--tensor", str(tensor_dir), "--method", method,
                      "--dim", "3", "--iters", str(iters), "--ortho-iters", "1",
                      "--out", str(out)])
        assert rc == 0
        manifest = json.loads((tmp_path / "emb.txt.manifest.json").read_text())
        trajectory = manifest["trajectory"]
        assert all(math.isfinite(v) for v in trajectory)
        if method == "wd":
            assert len(trajectory) == iters
        else:
            assert 1 <= len(trajectory) <= iters

    def test_manifest_records_tensor_counters(self, tmp_path, tensor_dir):
        out = tmp_path / "emb.txt"
        assert cli.run(["decompose", "--tensor", str(tensor_dir), "--method", "als",
                        "--dim", "3", "--iters", "2", "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "emb.txt.manifest.json").read_text())
        tensor = load_tensor(tensor_dir / "tensor.txt")
        assert manifest["counters"] == {"n_words": tensor.n_words,
                                        "n_prepositions": len(ROSTER),
                                        "nnz": tensor.nnz}
        assert tensor.nnz > 0

    def test_corrupt_tensor_fails_cleanly(self, tmp_path, tensor_dir):
        (tensor_dir / "tensor.txt").write_text("garbage\n")
        out = tmp_path / "emb.txt"
        rc = cli.run(["decompose", "--tensor", str(tensor_dir),
                      "--method", "als", "--dim", "4", "--out", str(out)])
        assert rc == 1
        assert not out.exists()

    def test_diverged_run_keeps_earlier_outputs(self, tmp_path, tensor_dir):
        out = tmp_path / "emb.txt"
        argv = ["decompose", "--tensor", str(tensor_dir), "--method", "wd",
                "--dim", "4", "--iters", "3", "--out", str(out)]
        assert cli.run(argv) == 0
        manifest = tmp_path / "emb.txt.manifest.json"
        before = (out.read_bytes(), manifest.read_bytes())
        assert cli.run(argv + ["--lr", "1e6"]) == 1
        assert (out.read_bytes(), manifest.read_bytes()) == before
        assert sorted(p.name for p in tmp_path.iterdir() if p.name.startswith("emb")) == [
            "emb.txt", "emb.txt.manifest.json"]

    def test_diverged_run_prints_one_line(self, tmp_path, tensor_dir):
        # A separate process, so stderr holds all a user sees: numpy
        # warnings included, and no pytest log capture.
        src = Path(cli.__file__).parents[1]
        proc = subprocess.run(
            [sys.executable, "-c", "from preptensor.cli import main; main()",
             "decompose", "--tensor", str(tensor_dir), "--method", "wd",
             "--dim", "4", "--iters", "3", "--lr", "1e6",
             "--out", str(tmp_path / "emb.txt")],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 1
        assert len(proc.stderr.splitlines()) == 1
        assert "diverged" in proc.stderr and "RuntimeWarning" not in proc.stderr

    def test_negative_ortho_iters_is_user_error(self, tmp_path, tensor_dir,
                                                 caplog):
        out = tmp_path / "emb.txt"
        rc = cli.run(["decompose", "--tensor", str(tensor_dir), "--method", "als",
                      "--dim", "3", "--ortho-iters", "-1", "--out", str(out)])
        assert rc == 1
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1
        assert "ortho_iterations" in errors[0] and "\n" not in errors[0]
        assert not out.exists()

    def test_failure_removes_partial_outputs(self, tmp_path, tensor_dir,
                                             monkeypatch):
        def boom(*_args, **_kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(cli.emb_ops, "save_embeddings", boom)
        out = tmp_path / "emb.txt"
        rc = cli.run(["decompose", "--tensor", str(tensor_dir),
                      "--method", "als", "--dim", "4", "--iters", "2",
                      "--out", str(out)])
        assert rc == 1
        assert not out.exists()
        assert not (tmp_path / "emb.txt.manifest.json").exists()


@pytest.fixture
def embeddings_path(tmp_path, tensor_dir):
    out = tmp_path / "emb.txt"
    rc = cli.run(["decompose", "--tensor", str(tensor_dir), "--method", "wd",
                  "--dim", "6", "--iters", "10", "--out", str(out)])
    assert rc == 0
    return out


class TestQueryCommands:
    def test_query_sim_prints_pairs(self, tmp_path, embeddings_path,
                                    roster_path, capsys):
        pairs = tmp_path / "pairs.txt"
        pairs.write_text("on in\nof on\n")
        rc = cli.run(["query-sim", "--embeddings", str(embeddings_path),
                      "--pairs", str(pairs), "--roster", str(roster_path),
                      "--no-centered"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        tok_l, tok_r, sim = lines[0].split("\t")
        assert (tok_l, tok_r) == ("on", "in")
        assert -1.0 <= float(sim) <= 1.0

    def test_paraphrase_ranks_candidates(self, tmp_path, embeddings_path, capsys):
        cands = tmp_path / "cands.txt"
        cands.write_text("slept\nsat\nfly\n")
        rc = cli.run(["paraphrase", "--embeddings", str(embeddings_path),
                      "--head", "cats", "--prep", "on",
                      "--candidates", str(cands), "--top", "2"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        dists = [float(line.split("\t")[1]) for line in lines]
        assert dists == sorted(dists)

    def test_spectrum_to_file(self, tmp_path, tensor_dir):
        out = tmp_path / "spec.csv"
        rc = cli.run(["spectrum", "--tensor", str(tensor_dir),
                      "--slice", "on", "--top", "3", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "rank,normalized_singular_value"
        first = float(lines[1].split(",")[1])
        assert first == pytest.approx(1.0)

    def test_spectrum_rerun_is_byte_identical(self, tmp_path):
        # The toy corpus's "of" slice has low rank, so the sparse solver
        # meets an invariant subspace and restarts from a random vector.
        tensor = tmp_path / "toy"
        assert cli.run(["build-tensor", "--corpus", str(TOY_CORPUS),
                        "--out", str(tensor)]) == 0
        outs = []
        for name in ("a.csv", "b.csv"):
            rc = cli.run(["spectrum", "--tensor", str(tensor), "--slice", "of",
                          "--out", str(tmp_path / name)])
            assert rc == 0
            outs.append((tmp_path / name).read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("command", ["paraphrase", "query-sim"])
    def test_unknown_token_is_user_error(self, tmp_path, embeddings_path,
                                         roster_path, command, caplog, capsys):
        words = tmp_path / "words.txt"
        if command == "paraphrase":
            words.write_text("slept\nsat\n")
            argv = ["--head", "zebras", "--prep", "on", "--candidates", str(words)]
        else:
            words.write_text("on in\nzebras of\n")
            argv = ["--pairs", str(words), "--roster", str(roster_path)]
        rc = cli.run([command, "--embeddings", str(embeddings_path), *argv])
        assert rc == 1
        assert capsys.readouterr().out == ""
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1
        assert "zebras" in errors[0] and "\n" not in errors[0]

    def test_spectrum_unknown_slice_fails(self, tensor_dir):
        rc = cli.run(["spectrum", "--tensor", str(tensor_dir),
                      "--slice", "around", "--top", "3"])
        assert rc == 1


def write_selection_dataset(path):
    lines = []
    for _ in range(8):
        lines.append("cats sat on mats\t2\ton\ton")
        lines.append("dogs slept on boxes\t2\ton\tin")
        lines.append("birds of prey\t1\tof\tof")
    path.write_text("\n".join(lines) + "\n")


def write_attachment_dataset(path):
    lines = []
    for _ in range(8):
        lines.append("on\tmats\t0\tsat:VB:NN:3;cats:NN:IN:1")
        lines.append("in\tboxes\t1\tslept:VB:NN:3;dogs:NN:IN:1")
    path.write_text("\n".join(lines) + "\n")


class TestSelectPipeline:
    def test_train_then_eval(self, tmp_path, embeddings_path, roster_path,
                             capsys):
        train = tmp_path / "sel_train.tsv"
        write_selection_dataset(train)
        models = tmp_path / "sel_models"
        rc = cli.run(["train-select", "--train", str(train),
                      "--embeddings", str(embeddings_path),
                      "--roster", str(roster_path), "--out", str(models),
                      "--hidden1", "8", "--hidden2", "4", "--epochs", "30",
                      "--min-leaf", "1"])
        assert rc == 0
        for name in ("tree.txt", "fnn.txt", "confusion.txt", "manifest.json"):
            assert (models / name).exists()
        manifest = json.loads((models / "manifest.json").read_text())
        assert manifest["config"]["arch"] == [8, 4]

        rc = cli.run(["eval-select", "--test", str(train),
                      "--models", str(models),
                      "--embeddings", str(embeddings_path),
                      "--roster", str(roster_path),
                      "--out", str(tmp_path / "sel_errors.csv")])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("P=") and "F1=" in out
        assert (tmp_path / "sel_errors.csv").exists()
        metrics = (tmp_path / "sel_errors_metrics.txt").read_text()
        assert metrics.strip() == out.strip()


    def test_eval_roster_must_match_trained_roster(self, tmp_path, embeddings_path,
                                                   roster_path, caplog):
        train = tmp_path / "sel_train.tsv"
        write_selection_dataset(train)
        models = tmp_path / "sel_models"
        assert cli.run(["train-select", "--train", str(train),
                        "--embeddings", str(embeddings_path),
                        "--roster", str(roster_path), "--out", str(models),
                        "--hidden1", "4", "--hidden2", "2", "--epochs", "2",
                        "--min-leaf", "1"]) == 0
        reordered = tmp_path / "reordered.txt"
        reordered.write_text("on\nof\nin\n")
        errors_csv = tmp_path / "sel_errors.csv"
        rc = cli.run(["eval-select", "--test", str(train), "--models", str(models),
                      "--embeddings", str(embeddings_path),
                      "--roster", str(reordered), "--out", str(errors_csv)])
        assert rc == 1
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1
        assert "roster" in errors[0] and "\n" not in errors[0]
        assert not errors_csv.exists()

    @pytest.mark.parametrize("lineno, text, named", [
        (1, "'corr 'error'", "unterminated string"),
        (0, "TREE v1 3 two 8 5", "'two'"),
        (2, "split 0 half 1 2", "'half'"),
    ])
    def test_corrupt_tree_is_user_error(self, tmp_path, embeddings_path,
                                        roster_path, caplog, lineno, text, named):
        train = tmp_path / "sel_train.tsv"
        write_selection_dataset(train)
        models = tmp_path / "sel_models"
        assert cli.run(["train-select", "--train", str(train),
                        "--embeddings", str(embeddings_path),
                        "--roster", str(roster_path), "--out", str(models),
                        "--hidden1", "4", "--hidden2", "2", "--epochs", "2",
                        "--min-leaf", "1"]) == 0
        # A valid three-node tree with one line garbled.
        lines = ["TREE v1 3 2 8 5", "'correct' 'error'", "split 0 0.5 1 2",
                 "leaf 1 0", "leaf 0 1"]
        lines[lineno] = text
        tree = models / "tree.txt"
        tree.write_text("\n".join(lines) + "\n")
        rc = cli.run(["eval-select", "--test", str(train), "--models", str(models),
                      "--embeddings", str(embeddings_path)])
        assert rc == 1
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1
        assert str(tree) in errors[0] and named in errors[0]
        assert "\n" not in errors[0]

    @pytest.mark.parametrize("lineno, text, named", [
        (0, "CONFUSION v1 3 one", "'one'"),
        (2, "0.5 half 0.25", "'half'"),
    ])
    def test_corrupt_confusion_table_is_user_error(self, tmp_path, embeddings_path,
                                                   roster_path, caplog, lineno,
                                                   text, named):
        train = tmp_path / "sel_train.tsv"
        write_selection_dataset(train)
        models = tmp_path / "sel_models"
        assert cli.run(["train-select", "--train", str(train),
                        "--embeddings", str(embeddings_path),
                        "--roster", str(roster_path), "--out", str(models),
                        "--hidden1", "4", "--hidden2", "2", "--epochs", "2",
                        "--min-leaf", "1"]) == 0
        table = models / "confusion.txt"
        lines = table.read_text().splitlines()
        lines[lineno] = text
        table.write_text("\n".join(lines) + "\n")
        rc = cli.run(["eval-select", "--test", str(train), "--models", str(models),
                      "--embeddings", str(embeddings_path)])
        assert rc == 1
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1
        assert str(table) in errors[0] and named in errors[0]
        assert "\n" not in errors[0]

    def test_hidden_sizes_from_config_file(self, tmp_path, embeddings_path,
                                           roster_path):
        train = tmp_path / "sel_train.tsv"
        write_selection_dataset(train)
        config = tmp_path / "conf.txt"
        config.write_text("hidden1 = 6\nhidden2 = 3\nepochs = 2\n")
        models = tmp_path / "sel_models"
        rc = cli.run(["--config", str(config), "train-select", "--train", str(train),
                      "--embeddings", str(embeddings_path),
                      "--roster", str(roster_path), "--out", str(models)])
        assert rc == 0
        manifest = json.loads((models / "manifest.json").read_text())
        assert manifest["config"]["arch"] == [6, 3]

class TestAttachPipeline:
    def test_train_then_eval(self, tmp_path, embeddings_path, capsys):
        train = tmp_path / "att_train.tsv"
        write_attachment_dataset(train)
        models = tmp_path / "att_models"
        rc = cli.run(["train-attach", "--train", str(train),
                      "--embeddings", str(embeddings_path), "--out", str(models),
                      "--hidden1", "8", "--hidden2", "4", "--epochs", "60"])
        assert rc == 0
        assert (models / "fnn.txt").exists()
        assert (models / "tags.txt").exists()

        rc = cli.run(["eval-attach", "--test", str(train),
                      "--models", str(models),
                      "--embeddings", str(embeddings_path),
                      "--out", str(tmp_path / "att_errors.csv")])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("accuracy=")
        acc = float(out.strip().split("=")[1])
        assert 0.0 <= acc <= 1.0

    @pytest.mark.parametrize("lineno, text, named", [
        (0, "FNN v1 sizes 2 x 2", "'x'"),
        (1, "0.5 half", "'half'"),
    ])
    def test_corrupt_fnn_is_user_error(self, tmp_path, embeddings_path, caplog,
                                       lineno, text, named):
        train = tmp_path / "att_train.tsv"
        write_attachment_dataset(train)
        models = tmp_path / "att_models"
        assert cli.run(["train-attach", "--train", str(train),
                        "--embeddings", str(embeddings_path), "--out", str(models),
                        "--hidden1", "4", "--hidden2", "2", "--epochs", "2"]) == 0
        fnn = models / "fnn.txt"
        lines = fnn.read_text().splitlines()
        lines[lineno] = text
        fnn.write_text("\n".join(lines) + "\n")
        rc = cli.run(["eval-attach", "--test", str(train), "--models", str(models),
                      "--embeddings", str(embeddings_path)])
        assert rc == 1
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1
        assert str(fnn) in errors[0] and named in errors[0]
        assert "\n" not in errors[0]

    def test_failed_eval_keeps_earlier_outputs(self, tmp_path, embeddings_path):
        train = tmp_path / "att_train.tsv"
        write_attachment_dataset(train)
        models = tmp_path / "att_models"
        assert cli.run(["train-attach", "--train", str(train),
                        "--embeddings", str(embeddings_path), "--out", str(models),
                        "--hidden1", "4", "--hidden2", "2", "--epochs", "2"]) == 0
        empty = tmp_path / "empty.tsv"
        empty.write_text("")
        outputs = [models / "errors.csv", models / "errors_metrics.txt"]
        argv = ["eval-attach", "--models", str(models),
                "--embeddings", str(embeddings_path)]
        assert cli.run(argv + ["--test", str(train)]) == 0
        before = [path.read_bytes() for path in outputs]
        assert cli.run(argv + ["--test", str(empty)]) == 1
        assert [path.read_bytes() for path in outputs] == before
        assert not list(models.glob("*.tmp"))


class TestArgumentHandling:
    def test_unknown_command_exits_nonzero(self, capsys):
        rc = cli.run(["frobnicate"])
        capsys.readouterr()
        assert rc != 0

    def test_missing_required_flag_exits_nonzero(self, capsys):
        rc = cli.run(["decompose", "--method", "als"])
        capsys.readouterr()
        assert rc != 0

    @pytest.mark.parametrize("argv", [
        ["--seed", "3", "decompose", "--tensor", "t", "--method", "als",
         "--out", "e.txt"],
        ["--threads", "2", "build-tensor", "--corpus", "c.txt", "--out", "t"],
        ["build-tensor", "--corpus", "c.txt", "--out", "t", "--threads", "2"],
        ["train-attach", "--train", "a.tsv", "--embeddings", "e.txt",
         "--out", "m", "--window", "3"],
        ["train-attach", "--train", "a.tsv", "--embeddings", "e.txt",
         "--out", "m", "--max-depth", "3"],
        ["train-attach", "--train", "a.tsv", "--embeddings", "e.txt",
         "--out", "m", "--min-leaf", "3"],
        ["eval-attach", "--test", "a.tsv", "--models", "m",
         "--embeddings", "e.txt", "--window", "3"],
        ["paraphrase", "--embeddings", "e.txt", "--head", "cats", "--prep", "on",
         "--candidates", "c.txt", "--roster", "r.txt"],
        ["train-attach", "--train", "a.tsv", "--embeddings", "e.txt",
         "--out", "m", "--roster", "r.txt"],
        ["eval-attach", "--test", "a.tsv", "--models", "m",
         "--embeddings", "e.txt", "--roster", "r.txt"],
    ])
    def test_options_no_command_reads_are_rejected(self, argv, capsys):
        assert cli.run(argv) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_config_line_fails(self, tmp_path, tensor_dir):
        config = tmp_path / "conf.txt"
        config.write_text("dim 3\n")
        rc = cli.run(["--config", str(config), "decompose",
                      "--tensor", str(tensor_dir), "--method", "als",
                      "--out", str(tmp_path / "emb.txt")])
        assert rc == 1

    @pytest.mark.parametrize("text, named", [
        ("dim = 3\nwindw = 9\n", "windw"),
        ("threads = 4\n", "threads"),
    ])
    def test_unknown_config_key_fails(self, tmp_path, tensor_dir, caplog, text,
                                      named):
        config = tmp_path / "conf.txt"
        config.write_text(text)
        rc = cli.run(["--config", str(config), "spectrum",
                      "--tensor", str(tensor_dir), "--slice", "on"])
        assert rc == 1
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1
        assert named in errors[0] and "\n" not in errors[0]

    def test_unknown_config_key_fails_for_commands_without_options(
            self, tmp_path, embeddings_path):
        config = tmp_path / "conf.txt"
        config.write_text("windw = 9\n")
        cands = tmp_path / "cands.txt"
        cands.write_text("slept\nsat\n")
        rc = cli.run(["--config", str(config), "paraphrase",
                      "--embeddings", str(embeddings_path), "--head", "cats",
                      "--prep", "on", "--candidates", str(cands)])
        assert rc == 1

    def test_config_key_of_another_command_accepted(self, tmp_path, tensor_dir,
                                                    capsys):
        config = tmp_path / "conf.txt"
        config.write_text("dim = 3\ntop = 2\n")
        rc = cli.run(["--config", str(config), "spectrum",
                      "--tensor", str(tensor_dir), "--slice", "on"])
        assert rc == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 2

    @pytest.mark.parametrize("text, named", [
        ("centered = ture\n", "centered"),
        ("dim = 3.5\n", "dim"),
        ("top = 0\n", "top"),
        ("batch = -2\n", "batch"),
        ("iters = 0\n", "iters"),
        ("epochs = 0\n", "epochs"),
    ])
    def test_config_value_the_type_rejects_fails(self, tmp_path, embeddings_path,
                                                 roster_path, caplog, capsys,
                                                 text, named):
        config = tmp_path / "conf.txt"
        config.write_text(text)
        pairs = tmp_path / "pairs.txt"
        pairs.write_text("on in\n")
        rc = cli.run(["--config", str(config), "query-sim",
                      "--embeddings", str(embeddings_path), "--pairs", str(pairs),
                      "--roster", str(roster_path)])
        assert rc == 1
        assert capsys.readouterr().out == ""
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1
        assert named in errors[0] and "\n" not in errors[0]

    @pytest.mark.parametrize("value, centered", [
        ("yes", True), ("TRUE", True), ("1", True),
        ("no", False), ("False", False), ("0", False),
    ])
    def test_config_booleans(self, tmp_path, value, centered):
        config = tmp_path / "conf.txt"
        config.write_text(f"centered = {value}\n")
        assert cli._read_config_file(config) == {"centered": centered}

    @pytest.mark.parametrize("argv", [
        ["train-select", "--train", "s.tsv", "--embeddings", "e.txt", "--out", "m",
         "--hidden1", "0"],
        ["train-attach", "--train", "a.tsv", "--embeddings", "e.txt", "--out", "m",
         "--hidden2", "0"],
        ["train-attach", "--train", "a.tsv", "--embeddings", "e.txt", "--out", "m",
         "--batch", "0"],
        ["paraphrase", "--embeddings", "e.txt", "--head", "cats", "--prep", "on",
         "--candidates", "c.txt", "--top", "0"],
        ["paraphrase", "--embeddings", "e.txt", "--head", "cats", "--prep", "on",
         "--candidates", "c.txt", "--top", "-1"],
        ["spectrum", "--tensor", "t", "--slice", "on", "--top", "0"],
        ["decompose", "--tensor", "t", "--method", "wd", "--out", "e.txt",
         "--iters", "0"],
        ["train-select", "--train", "s.tsv", "--embeddings", "e.txt", "--out", "m",
         "--epochs", "0"],
    ])
    def test_counts_below_one_are_rejected(self, argv, capsys):
        assert cli.run(argv) == 2
        err = capsys.readouterr().err
        assert f"argument {argv[-2]}" in err and "below 1" in err


def _subparsers():
    (action,) = [a for a in cli._build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)]
    return action.choices


class TestCommandTable:
    @pytest.mark.parametrize("command", sorted(cli.COMMANDS))
    def test_parser_flags_match_table(self, command):
        _func, _help, options, arguments = cli.COMMANDS[command]
        actions = [a for a in _subparsers()[command]._actions if a.dest != "help"]
        assert {a.dest for a in actions if a.default is argparse.SUPPRESS} == set(options)
        assert ({a.dest for a in actions if a.default is not argparse.SUPPRESS}
                == {name.rstrip("?") for name in arguments})
        assert all(a.option_strings[0] == "--" + a.dest.replace("_", "-")
                   for a in actions)

    def test_every_option_is_read(self):
        read = {key for _f, _h, options, _a in cli.COMMANDS.values() for key in options}
        assert read == set(cli.OPTIONS)

    def test_config_setting_every_key(self, tmp_path, corpus_path, roster_path):
        values = {"window": 2, "min_count": 1, "dim": 3, "iters": 2, "ortho_iters": 1,
                  "xmax": 5.0, "alpha": 0.5, "lr": 0.04, "seed": 7, "top": 2,
                  "centered": False, "hidden1": 4, "hidden2": 3, "epochs": 2,
                  "batch": 8, "fnn_lr": 0.02, "momentum": 0.8, "max_depth": 3,
                  "min_leaf": 1}
        assert set(values) == set(cli.OPTIONS)
        config = tmp_path / "conf.txt"
        config.write_text("".join(f"{key} = {val}\n" for key, val in values.items()))
        tensor, emb = tmp_path / "tensor", tmp_path / "emb.txt"
        sel, att = tmp_path / "sel", tmp_path / "att"
        sel_data, att_data = tmp_path / "sel.tsv", tmp_path / "att.tsv"
        write_selection_dataset(sel_data)
        write_attachment_dataset(att_data)
        pairs = tmp_path / "pairs.txt"
        pairs.write_text("on in\nof on\n")
        roster = ["--roster", str(roster_path)]
        steps = {
            "build-tensor": (["--corpus", str(corpus_path), *roster, "--out", str(tensor)],
                             tensor / "manifest.json"),
            "decompose": (["--tensor", str(tensor), "--method", "wd", "--out", str(emb)],
                          tmp_path / "emb.txt.manifest.json"),
            "query-sim": (["--embeddings", str(emb), "--pairs", str(pairs), *roster],
                          None),
            "paraphrase": (["--embeddings", str(emb), "--head", "cats", "--prep", "on",
                            "--candidates", str(roster_path)], None),
            "spectrum": (["--tensor", str(tensor), "--slice", "on"], None),
            "train-select": (["--train", str(sel_data), "--embeddings", str(emb),
                              *roster, "--out", str(sel)], sel / "manifest.json"),
            "eval-select": (["--test", str(sel_data), "--models", str(sel),
                             "--embeddings", str(emb), *roster], None),
            "train-attach": (["--train", str(att_data), "--embeddings", str(emb),
                              "--out", str(att)], att / "manifest.json"),
            "eval-attach": (["--test", str(att_data), "--models", str(att),
                             "--embeddings", str(emb)], None),
        }
        assert list(steps) == list(cli.COMMANDS)
        for command, (argv, manifest) in steps.items():
            assert cli.run(["--config", str(config), command, *argv]) == 0, command
            if manifest is not None:
                recorded = json.loads(manifest.read_text())["config"]
                options = cli.COMMANDS[command][2]
                assert {key: recorded[key] for key in options} == {
                    key: values[key] for key in options}
