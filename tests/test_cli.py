import json
import math
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
        store = load_embeddings(out, ROSTER)
        assert store.dim == 4
        manifest = json.loads((out.parent / "emb.txt.manifest.json").read_text())
        assert manifest["config"]["method"] == "als"
        assert manifest["config"]["dim"] == 4

    def test_default_dim_is_200(self, tmp_path, tensor_dir):
        out = tmp_path / "emb.txt"
        rc = cli.run(["decompose", "--tensor", str(tensor_dir),
                      "--method", "als", "--iters", "2", "--out", str(out)])
        assert rc == 0
        assert load_embeddings(out, ROSTER).dim == 200
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
        assert load_embeddings(out_cfg, ROSTER).dim == 3

        out_flag = tmp_path / "emb_flag.txt"
        rc = cli.run(["--config", str(config), "decompose",
                      "--tensor", str(tensor_dir), "--method", "als",
                      "--dim", "5", "--out", str(out_flag)])
        assert rc == 0
        assert load_embeddings(out_flag, ROSTER).dim == 5
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

    def test_corrupt_tensor_fails_cleanly(self, tmp_path, tensor_dir):
        (tensor_dir / "tensor.txt").write_text("garbage\n")
        out = tmp_path / "emb.txt"
        rc = cli.run(["decompose", "--tensor", str(tensor_dir),
                      "--method", "als", "--dim", "4", "--out", str(out)])
        assert rc == 1
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

    def test_paraphrase_ranks_candidates(self, tmp_path, embeddings_path,
                                         roster_path, capsys):
        cands = tmp_path / "cands.txt"
        cands.write_text("slept\nsat\nfly\n")
        rc = cli.run(["paraphrase", "--embeddings", str(embeddings_path),
                      "--head", "cats", "--prep", "on",
                      "--candidates", str(cands), "--roster", str(roster_path),
                      "--top", "2"])
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
            argv = ["--pairs", str(words)]
        rc = cli.run([command, "--embeddings", str(embeddings_path),
                      "--roster", str(roster_path), *argv])
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
    def test_train_then_eval(self, tmp_path, embeddings_path, roster_path,
                             capsys):
        train = tmp_path / "att_train.tsv"
        write_attachment_dataset(train)
        models = tmp_path / "att_models"
        rc = cli.run(["train-attach", "--train", str(train),
                      "--embeddings", str(embeddings_path),
                      "--roster", str(roster_path), "--out", str(models),
                      "--hidden1", "8", "--hidden2", "4", "--epochs", "60"])
        assert rc == 0
        assert (models / "fnn.txt").exists()
        assert (models / "tags.txt").exists()

        rc = cli.run(["eval-attach", "--test", str(train),
                      "--models", str(models),
                      "--embeddings", str(embeddings_path),
                      "--roster", str(roster_path),
                      "--out", str(tmp_path / "att_errors.csv")])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("accuracy=")
        acc = float(out.strip().split("=")[1])
        assert 0.0 <= acc <= 1.0


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
            self, tmp_path, embeddings_path, roster_path):
        config = tmp_path / "conf.txt"
        config.write_text("windw = 9\n")
        cands = tmp_path / "cands.txt"
        cands.write_text("slept\nsat\n")
        rc = cli.run(["--config", str(config), "paraphrase",
                      "--embeddings", str(embeddings_path), "--head", "cats",
                      "--prep", "on", "--candidates", str(cands),
                      "--roster", str(roster_path)])
        assert rc == 1

    def test_config_key_of_another_command_accepted(self, tmp_path, tensor_dir,
                                                    capsys):
        config = tmp_path / "conf.txt"
        config.write_text("dim = 3\ntop = 2\n")
        rc = cli.run(["--config", str(config), "spectrum",
                      "--tensor", str(tensor_dir), "--slice", "on"])
        assert rc == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 2
