import argparse
import csv
import hashlib
import importlib.util
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import preptensor.attach as attach_ops
import preptensor.cli as cli
import preptensor.corpus as corpus_ops
import preptensor.factorize as factorize
import preptensor.select as select_ops
import scalar_features
from preptensor.corpus import (
    build_vocabulary,
    count_tensor,
    load_tensor,
    load_vocabulary,
    save_vocabulary,
    tokenize_sentences,
)
from preptensor.embeddings import load_embeddings
from preptensor.learn import FeedForwardNet, load_fnn, load_tree, save_fnn
from preptensor.select import (
    SelectionModels,
    default_roster,
    evaluate_selection,
    load_confusion_table,
    load_selection_dataset,
)

ROSTER = ["in", "of", "on"]
TOY_CORPUS = Path(__file__).parent / "data" / "toy_corpus.txt"
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
BUNDLED_ROSTER = Path(cli.__file__).parent / "data" / "prepositions_49.txt"
STOPLIST = Path(cli.__file__).parent / "data" / "context_stoplist.txt"

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


def run_main(*argv) -> subprocess.CompletedProcess:
    """The CLI run in a separate process, so stderr holds all a user
    sees: numpy warnings and tracebacks included, no pytest log capture."""
    return subprocess.run(
        [sys.executable, "-c", "from preptensor.cli import main; main()", *argv],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])})


def digests(*paths) -> dict:
    return {str(path): hashlib.sha256(Path(path).read_bytes()).hexdigest()
            for path in paths}


def read_csv(path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


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

    def test_manifest_records_counters(self, tensor_dir, corpus_path):
        sentences = tokenize_sentences(corpus_path.read_bytes())
        tensor = load_tensor(tensor_dir / "tensor.txt")
        manifest = json.loads((tensor_dir / "manifest.json").read_text())
        assert manifest["counters"] == {
            "sentences": 6, "tokens": sum(map(len, sentences)),
            "n_words": tensor.n_words, "n_prepositions": len(ROSTER),
            "nnz": tensor.nnz}
        assert len(sentences) == 6 and tensor.nnz > 0

    def test_zipf_corpus_pin(self, tmp_path):
        # The benchmark's recorded seed-0 60 kB Zipf tensor.
        spec = importlib.util.spec_from_file_location("zipf_corpus",
                                                      PERFBENCH / "zipf_corpus.py")
        zipf_corpus = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(zipf_corpus)
        record = json.loads((PERFBENCH / "expected.json").read_text())["zipf-tensor"]
        expected = record["sizes"]["60000"]
        text = zipf_corpus.generate(record["seed"], 60_000, default_roster())
        assert zipf_corpus.sha256_text(text) == expected["corpus_sha256"]
        corpus_path, out = tmp_path / "corpus.txt", tmp_path / "tensor"
        corpus_path.write_text(text, encoding="utf-8")
        assert cli.run(["build-tensor", "--corpus", str(corpus_path),
                        "--out", str(out)]) == 0
        tensor = load_tensor(out / "tensor.txt")
        assert [hashlib.sha256((out / "tensor.txt").read_bytes()).hexdigest(),
                load_vocabulary(out / "vocab.txt").n_words, tensor.nnz] == [
            expected["tensor_sha256"], expected["n_words"], expected["nnz"]]

    def test_matches_library_pipeline(self, tensor_dir, corpus_path):
        sentences = tokenize_sentences(corpus_path.read_bytes())
        vocab = build_vocabulary(sentences, 1, ROSTER)
        expected = count_tensor(sentences, vocab, 3)
        assert load_tensor(tensor_dir / "tensor.txt") == expected
        assert load_vocabulary(tensor_dir / "vocab.txt").words == vocab.words

    def test_toy_corpus_digests(self, tmp_path):
        # Counting, saving and the spectrum must keep these bytes.
        out = tmp_path / "toy"
        assert cli.run(["build-tensor", "--corpus", str(TOY_CORPUS),
                        "--out", str(out)]) == 0
        spectrum = tmp_path / "spectrum.csv"
        assert cli.run(["spectrum", "--tensor", str(out), "--slice", "of",
                        "--out", str(spectrum)]) == 0
        digests = [hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in (out / "tensor.txt", out / "vocab.txt", spectrum)]
        assert digests == [
            "ebfc2ed138c6c6c52b50682fd24afbc78d6dded2e429badc18467b6eeffaf250",
            "c542a786eddac6b5e834c718c58b48169a892a6dc2fb80ea098c20de3bac1218",
            "dc5eee04d544bc47b3e79e6288818cde84f0f6ec0ab5e195a8d5ff07f2be0ac2",
        ]

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_window_below_one_is_a_usage_error(self, tmp_path, corpus_path, capsys,
                                               value):
        out = tmp_path / "tensor"
        assert cli.run(["build-tensor", "--corpus", str(corpus_path),
                        "--window", value, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "argument --window" in err and "below 1" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_window_below_one_in_config_fails(self, tmp_path, corpus_path, caplog):
        config = tmp_path / "conf.txt"
        config.write_text("window = 0\n")
        out = tmp_path / "tensor"
        assert cli.run(["--config", str(config), "build-tensor",
                        "--corpus", str(corpus_path), "--out", str(out)]) == 1
        assert _one_error(caplog) == f"{config}: window = 0: 0 is below 1"
        assert not out.exists()

    def test_window_past_the_longest_sentence_counts_as_that_length(self, tmp_path,
                                                                    corpus_path):
        """A window of 2**62 counts what a window of the longest
        sentence's length counts; the header and manifest keep 2**62."""
        longest = max(map(len, tokenize_sentences(corpus_path.read_bytes())))
        lines = {}
        for window in (longest, 2 ** 62):
            out = tmp_path / str(window)
            assert cli.run(["build-tensor", "--corpus", str(corpus_path),
                            "--min-count", "1", "--window", str(window),
                            "--out", str(out)]) == 0
            lines[window] = (out / "tensor.txt").read_text().splitlines()
            assert lines[window][0].split()[-1] == str(window)
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["config"]["window"] == window
        assert lines[longest][1:] == lines[2 ** 62][1:]
        assert len(lines[longest]) > 1

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

    def test_a_flag_does_not_carry_into_the_next_run(self, tmp_path, tensor_dir):
        # One parser serves every run in a process.
        dims = []
        for name, flags in (("emb3.txt", ["--dim", "3"]), ("emb.txt", [])):
            out = tmp_path / name
            rc = cli.run(["decompose", "--tensor", str(tensor_dir), "--method", "als",
                          "--iters", "1", *flags, "--out", str(out)])
            assert rc == 0
            manifest = json.loads((tmp_path / f"{name}.manifest.json").read_text())
            dims.append((manifest["config"]["dim"], load_embeddings(out).dim))
        assert dims == [(3, 3), (200, 200)]

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
                                        "nnz": tensor.nnz,
                                        "sweeps": len(manifest["trajectory"])}
        assert tensor.nnz > 0 and 1 <= len(manifest["trajectory"]) <= 2

    def test_wd_manifest_records_batch(self, tmp_path, tensor_dir):
        out = tmp_path / "emb.txt"
        assert cli.run(["decompose", "--tensor", str(tensor_dir), "--method", "wd",
                        "--dim", "3", "--iters", "2", "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "emb.txt.manifest.json").read_text())
        tensor = load_tensor(tensor_dir / "tensor.txt")
        assert manifest["counters"] == {"n_words": tensor.n_words,
                                        "n_prepositions": len(ROSTER),
                                        "nnz": tensor.nnz,
                                        "batch": factorize.WD_BATCH,
                                        "epochs": 2}

    def test_manifests_record_resources(self, tmp_path, trained):
        commands = []
        for argv, path, _inputs in manifest_runs(trained, tmp_path):
            assert cli.run(argv) == 0, argv
            manifest = json.loads(path.read_text())
            commands.append(manifest["command"])
            resources = manifest["resources"]
            assert sorted(resources) == ["peak_rss_mb", "wall_s"]
            assert all(type(value) is float and value > 0
                       for value in resources.values())
        assert sorted(commands) == sorted(set(cli.COMMANDS) - {"query-sim", "paraphrase"})

    @pytest.mark.parametrize("command", ["train-select", "train-attach"])
    def test_training_manifests_record_the_network_run(self, tmp_path, trained,
                                                       command):
        """The per-epoch validation loss and the network's counters, the
        same in two runs with one seed."""
        records = []
        for run in ("a", "b"):
            argv = _commands(trained)[command]
            out = tmp_path / run
            argv[argv.index("--out") + 1] = str(out)
            assert cli.run(argv[:-2] + ["--epochs", "15", "--seed", "3"]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            records.append((manifest["trajectory"], manifest["counters"]))
        (trajectory, counters), again = records
        assert again == (trajectory, counters)
        task = (["decidable", "flagged"] if command == "train-select"
                else ["candidates"])
        assert sorted(counters) == sorted(["best_epoch", "epochs_run", "fnn_rows",
                                           "instances", "rejected", *task])
        assert counters["fnn_rows"] > 0
        assert len(trajectory) == counters["epochs_run"] <= 15
        assert all(math.isfinite(loss) for loss in trajectory)
        best = counters["best_epoch"]
        assert trajectory[best - 1] == min(trajectory)

    def test_manifests_record_pass_counters(self, tmp_path, trained):
        """Each train and eval command counts what its pass over the
        dataset saw, the lines it rejected included, and decompose the
        sweeps it ran: the same in two runs with one seed."""
        runs = []
        for run in ("a", "b"):
            (tmp_path / run).mkdir()
            manifests = {}
            for argv, path, _inputs in manifest_runs(trained, tmp_path / run):
                assert cli.run(argv) == 0, argv
                manifest = json.loads(path.read_text())
                manifests[manifest["command"]] = manifest
            runs.append(manifests)
        first, again = [{cmd: m.get("counters") for cmd, m in manifests.items()}
                        for manifests in runs]
        assert again == first
        counters = first
        assert counters["decompose"]["sweeps"] == len(runs[0]["decompose"]["trajectory"])
        selection, _rejected = load_selection_dataset(trained / "sel.tsv", ROSTER)
        select_pass = {key: counters["train-select"][key]
                       for key in ("instances", "rejected", "decidable", "flagged")}
        # Evaluation on the training set sees what training saw.
        assert counters["eval-select"] == select_pass
        assert (select_pass["instances"], select_pass["rejected"]) == (len(selection), 0)
        assert 0 < select_pass["flagged"] <= select_pass["decidable"] <= len(selection)
        attachment, _rejected = attach_ops.load_attachment_dataset(trained / "att.tsv")
        attach_pass = {"instances": len(attachment), "rejected": 0,
                       "candidates": sum(len(inst.candidates) for inst in attachment)}
        assert counters["eval-attach"] == attach_pass
        assert counters["train-attach"]["candidates"] == counters["train-attach"]["fnn_rows"]
        assert {key: counters["train-attach"][key] for key in attach_pass} == attach_pass
        # Lines a dataset loader rejects are counted; the pass over the
        # rest is the same.
        spoiled = tmp_path / "spoiled"
        shutil.copytree(trained, spoiled)
        with open(spoiled / "sel.tsv", "a", encoding="utf-8") as fh:
            fh.write("no tabs on this line\nsat on mat\t1\ton\n")
        with open(spoiled / "att.tsv", "a", encoding="utf-8") as fh:
            fh.write("with\tfork\t0\n")
        rejected = {"train-select": 2, "eval-select": 2, "train-attach": 1, "eval-attach": 1}
        (tmp_path / "c").mkdir()
        for argv, path, _inputs in manifest_runs(spoiled, tmp_path / "c"):
            assert cli.run(argv) == 0, argv
            manifest = json.loads(path.read_text())
            command = manifest["command"]
            expected = first[command]
            if command in rejected:
                expected = {**expected, "rejected": rejected[command]}
            assert manifest.get("counters") == expected, command

    def test_manifests_record_versions(self, tmp_path, tensor_dir):
        import platform

        import numpy
        import scipy

        out, spectrum = tmp_path / "emb.txt", tmp_path / "spectrum.csv"
        assert cli.run(["decompose", "--tensor", str(tensor_dir), "--method", "als",
                        "--dim", "3", "--iters", "2", "--out", str(out)]) == 0
        assert cli.run(["spectrum", "--tensor", str(tensor_dir), "--slice", "in",
                        "--out", str(spectrum)]) == 0
        for path in (tensor_dir / "manifest.json", tmp_path / "emb.txt.manifest.json",
                     tmp_path / "spectrum.csv.manifest.json"):
            assert json.loads(path.read_text())["versions"] == {
                "python": platform.python_version(), "numpy": numpy.__version__,
                "scipy": scipy.__version__}

    def test_corrupt_tensor_fails_cleanly(self, tmp_path, tensor_dir):
        (tensor_dir / "tensor.txt").write_text("garbage\n")
        out = tmp_path / "emb.txt"
        rc = cli.run(["decompose", "--tensor", str(tensor_dir),
                      "--method", "als", "--dim", "4", "--out", str(out)])
        assert rc == 1
        assert not out.exists()

    @pytest.mark.parametrize("header", ["PREPTENSOR v1 5 2 1 0",
                                        "PREPTENSOR v1 -3 2 0 3"])
    def test_bad_tensor_header_is_one_line_error(self, tmp_path, tensor_dir, caplog,
                                                 header):
        tensor = tensor_dir / "tensor.txt"
        tensor.write_text(header + "\n0 1 0 1\n")
        rc = cli.run(["decompose", "--tensor", str(tensor_dir),
                      "--method", "als", "--dim", "4", "--out", str(tmp_path / "e.txt")])
        assert rc == 1
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1 and "\n" not in errors[0]
        assert errors[0].startswith(f"{tensor}: line 1: ")

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
        proc = run_main("decompose", "--tensor", str(tensor_dir), "--method", "wd",
                        "--dim", "4", "--iters", "3", "--lr", "1e6",
                        "--out", str(tmp_path / "emb.txt"))
        assert proc.returncode == 1
        assert len(proc.stderr.splitlines()) == 1
        assert "diverged" in proc.stderr and "RuntimeWarning" not in proc.stderr

    def test_failed_allocation_prints_one_line(self, tmp_path, tensor_dir):
        # U alone would take about 2**61 bytes: more than any address
        # space holds, and less than numpy's "array is too big" limit.
        n_words = load_vocabulary(tensor_dir / "vocab.txt").n_words
        out = tmp_path / "emb.txt"
        proc = run_main("decompose", "--tensor", str(tensor_dir), "--method", "als",
                        "--dim", str(2 ** 58 // n_words), "--out", str(out))
        assert proc.returncode == 1
        assert len(proc.stderr.splitlines()) == 1
        assert "Unable to allocate" in proc.stderr and "Traceback" not in proc.stderr
        assert not [p for p in tmp_path.iterdir() if p.name.startswith("emb")]

    def test_manifest_records_the_ortho_iters_run(self, tmp_path, tensor_dir):
        out = tmp_path / "emb.txt"
        assert cli.run(["decompose", "--tensor", str(tensor_dir), "--method", "als",
                        "--dim", "3", "--iters", "2", "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "emb.txt.manifest.json").read_text())
        assert manifest["config"]["iters"] == 2
        assert manifest["config"]["ortho_iters"] == 2
        assert manifest["counters"]["sweeps"] == 2

    def test_unordered_tensor_beyond_the_key_range_is_one_line_error(
            self, tmp_path, tensor_dir, caplog):
        # N*N*(K+1) = 2**63: the unordered body cannot be keyed in int64.
        tensor = tensor_dir / "tensor.txt"
        tensor.write_text("PREPTENSOR v1 2147483648 1 2 3\n0 1 0 1\n0 0 0 1\n")
        rc = cli.run(["decompose", "--tensor", str(tensor_dir),
                      "--method", "als", "--dim", "4", "--out", str(tmp_path / "e.txt")])
        assert rc == 1
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert errors == [f"{tensor}: N=2147483648 words and K=1 prepositions are "
                          "too many: N*N*(K+1) must be below 2**63"]

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

    @pytest.mark.parametrize("command", ["decompose", "spectrum"])
    @pytest.mark.parametrize("change", ["extra word", "missing word",
                                        "missing preposition"])
    def test_vocabulary_must_match_tensor(self, tmp_path, tensor_dir, caplog,
                                          command, change):
        vocab_path = tensor_dir / "vocab.txt"
        vocab = load_vocabulary(vocab_path)
        words, preps = list(vocab.words), list(vocab.prepositions)
        if change == "extra word":
            words.append("zebras")
        elif change == "missing word":
            words.pop()
        else:
            preps.pop()
        save_vocabulary(build_vocabulary([words + preps], 1, preps), vocab_path)
        out = tmp_path / "out.txt"
        argv = (["--method", "wd", "--dim", "3", "--iters", "2"]
                if command == "decompose" else ["--slice", "on"])
        rc = cli.run([command, "--tensor", str(tensor_dir), *argv, "--out", str(out)])
        assert rc == 1
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1
        assert str(vocab_path) in errors[0] and str(tensor_dir / "tensor.txt") in errors[0]
        assert "\n" not in errors[0]
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

    def test_header_wider_than_the_file_prints_one_line(self, tmp_path, roster_path):
        # A row of 2**58 values would take 2**61 bytes to hold.
        emb = tmp_path / "emb.txt"
        emb.write_text(f"1 {2 ** 58}\non 1 2\n")
        pairs = tmp_path / "pairs.txt"
        pairs.write_text("on in\n")
        proc = run_main("query-sim", "--embeddings", str(emb), "--pairs", str(pairs),
                        "--roster", str(roster_path))
        assert proc.returncode == 1
        [line] = proc.stderr.splitlines()
        assert line.startswith("ERROR ") and line.endswith(
            f" {emb}: line 1: rows of {2 ** 58} values do not fit in "
            f"{emb.stat().st_size} bytes")

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

    def test_spectrum_to_file_writes_manifest(self, tmp_path, tensor_dir):
        out = tmp_path / "spec.csv"
        assert cli.run(["spectrum", "--tensor", str(tensor_dir),
                        "--slice", "on", "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "spec.csv.manifest.json").read_text())
        assert manifest["command"] == "spectrum"
        assert manifest["config"] == {"slice": "on", "k": ROSTER.index("on"), "top": 50}
        inputs = [tensor_dir / "vocab.txt", tensor_dir / "tensor.txt"]
        assert manifest["inputs"] == {
            str(path): hashlib.sha256(path.read_bytes()).hexdigest() for path in inputs}
        assert manifest["outputs"] == [str(out)]
        # Printing the spectrum writes no file.
        before = sorted(tmp_path.rglob("*"))
        assert cli.run(["spectrum", "--tensor", str(tensor_dir), "--slice", "on"]) == 0
        assert sorted(tmp_path.rglob("*")) == before

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

    @pytest.mark.parametrize("index", ["4", "-1"])
    def test_spectrum_slice_out_of_range(self, tensor_dir, caplog, index):
        rc = cli.run(["spectrum", "--tensor", str(tensor_dir), "--slice", index])
        assert rc == 1
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert errors == [f"slice {index} out of range 0..3"]

    @pytest.mark.parametrize("value", ["1_0", "\u0663", " 3"])
    def test_spectrum_slice_index_is_an_ascii_integer(self, tensor_dir, caplog, value):
        """int() reads each of these as a slice index; they are names."""
        rc = cli.run(["spectrum", "--tensor", str(tensor_dir), "--slice", value])
        assert rc == 1
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert errors == [f"unknown slice {value!r}"]

    def test_query_sim_rejects_malformed_pair_line(self, tmp_path, embeddings_path,
                                                   roster_path, caplog, capsys):
        pairs = tmp_path / "pairs.txt"
        argv = ["query-sim", "--embeddings", str(embeddings_path),
                "--pairs", str(pairs), "--roster", str(roster_path)]
        pairs.write_text("on in\n\n  \nof on\n")
        assert cli.run(argv) == 0
        assert len(capsys.readouterr().out.splitlines()) == 2
        for text, lineno in [("on in\nof\n", 2), ("on in\non of extra\n", 2),
                             ("\nof\n", 2)]:
            caplog.clear()
            pairs.write_text(text)
            assert cli.run(argv) == 1
            assert capsys.readouterr().out == ""
            errors = [r.getMessage() for r in caplog.records
                      if r.levelname == "ERROR"]
            assert errors == [f"{pairs}: line {lineno}: expected 2 tokens"]


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


def test_batched_features_equal_scalar_composition_run(tmp_path, embeddings_path,
                                                        roster_path, monkeypatch):
    """Training and evaluation write the same bytes when every feature
    builder is the per-candidate scalar composition."""
    sel, att = tmp_path / "sel.tsv", tmp_path / "att.tsv"
    write_selection_dataset(sel)
    write_attachment_dataset(att)
    net = ["--hidden1", "8", "--hidden2", "4", "--epochs", "20"]
    names = ["sel/tree.txt", "sel/fnn.txt", "sel/confusion.txt", "sel_errors.csv",
             "att/fnn.txt", "att/tags.txt", "att_errors.csv"]

    def run_all(out):
        emb = ["--embeddings", str(embeddings_path)]
        for argv in (
                ["train-select", "--train", str(sel), "--roster", str(roster_path),
                 "--out", str(out / "sel"), "--min-leaf", "1", *net],
                ["eval-select", "--test", str(sel), "--models", str(out / "sel"),
                 "--out", str(out / "sel_errors.csv")],
                ["train-attach", "--train", str(att), "--out", str(out / "att"), *net],
                ["eval-attach", "--test", str(att), "--models", str(out / "att"),
                 "--out", str(out / "att_errors.csv")]):
            assert cli.run(argv + emb) == 0
        return [(out / name).read_bytes() for name in names]

    batched = run_all(tmp_path / "batched")
    monkeypatch.setattr(select_ops, "detection_features", scalar_features.detect)
    monkeypatch.setattr(select_ops, "correction_features",
                        scalar_features.correction_factors)
    monkeypatch.setattr(attach_ops, "attachment_features",
                        scalar_features.attachment_features)
    assert run_all(tmp_path / "scalar") == batched


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
        assert (manifest["config"]["hidden1"], manifest["config"]["hidden2"]) == (8, 4)
        assert "arch" not in manifest["config"]

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

    def test_eval_writes_a_row_per_error(self, tmp_path, embeddings_path, roster_path):
        train = tmp_path / "sel_train.tsv"
        write_selection_dataset(train)
        models = tmp_path / "sel_models"
        assert cli.run(["train-select", "--train", str(train),
                        "--embeddings", str(embeddings_path),
                        "--roster", str(roster_path), "--out", str(models),
                        "--hidden1", "4", "--hidden2", "2", "--epochs", "2",
                        "--min-leaf", "1"]) == 0
        # One instance with two gold prepositions: whatever the models
        # learned, they mispredict at least one.
        test = tmp_path / "sel_test.tsv"
        test.write_text("cats sat on mats\t2\ton\ton\ncats sat on mats\t2\ton\tin\n")
        errors_csv = tmp_path / "sel_errors.csv"
        assert cli.run(["eval-select", "--test", str(test), "--models", str(models),
                        "--embeddings", str(embeddings_path),
                        "--out", str(errors_csv)]) == 0
        table = load_confusion_table(models / "confusion.txt")
        trained = SelectionModels(tree=load_tree(models / "tree.txt"),
                                  fnn=load_fnn(models / "fnn.txt"), table=table)
        _metrics, errors, _counters = evaluate_selection(
            load_selection_dataset(test, table.roster)[0], trained,
            load_embeddings(embeddings_path), window=3)
        rows = read_csv(errors_csv)
        assert rows[0] == ["sentence", "observed", "gold", "predicted"]
        assert len(rows) == 1 + len(errors) >= 2
        assert rows[1:] == [list(row) for row in errors]

    def test_eval_with_nothing_decidable(self, tmp_path, embeddings_path, roster_path,
                                         monkeypatch, capsys):
        """No test instance has a context vector: each keeps its observed
        preposition, and the tree is never asked."""
        train = tmp_path / "sel_train.tsv"
        write_selection_dataset(train)
        models = tmp_path / "sel_models"
        assert cli.run(["train-select", "--train", str(train),
                        "--embeddings", str(embeddings_path),
                        "--roster", str(roster_path), "--out", str(models),
                        "--hidden1", "4", "--hidden2", "2", "--epochs", "2",
                        "--min-leaf", "1"]) == 0
        test = tmp_path / "sel_test.tsv"
        test.write_text("zzz qqq on xxx\t2\ton\tin\nzzz on qqq\t1\ton\ton\n")

        def refuse(tree, rows):
            raise AssertionError("tree_predict called without a decidable row")

        monkeypatch.setattr(select_ops, "tree_predict", refuse)
        capsys.readouterr()
        errors = tmp_path / "sel_errors.csv"
        assert cli.run(["eval-select", "--test", str(test), "--models", str(models),
                        "--embeddings", str(embeddings_path),
                        "--out", str(errors)]) == 0
        assert capsys.readouterr().out.startswith("P=")
        manifest = json.loads((tmp_path / "sel_errors.csv.manifest.json").read_text())
        assert manifest["counters"] == {"instances": 2, "decidable": 0, "flagged": 0,
                                        "rejected": 0}
        assert read_csv(errors)[1:] == [["zzz qqq on xxx", "on", "in", "on"]]

    def test_eval_writes_manifest(self, tmp_path, embeddings_path, roster_path):
        train = tmp_path / "sel_train.tsv"
        write_selection_dataset(train)
        models = tmp_path / "sel_models"
        assert cli.run(["train-select", "--train", str(train),
                        "--embeddings", str(embeddings_path),
                        "--roster", str(roster_path), "--out", str(models),
                        "--hidden1", "4", "--hidden2", "2", "--epochs", "2",
                        "--min-leaf", "1", "--window", "2"]) == 0
        errors = tmp_path / "sel_errors.csv"
        assert cli.run(["eval-select", "--test", str(train), "--models", str(models),
                        "--embeddings", str(embeddings_path),
                        "--roster", str(roster_path), "--out", str(errors)]) == 0
        manifest = json.loads((tmp_path / "sel_errors.csv.manifest.json").read_text())
        assert manifest["command"] == "eval-select"
        assert manifest["config"] == {"window": 2}
        inputs = [train, embeddings_path, models / "tree.txt", models / "fnn.txt",
                  models / "confusion.txt", models / "manifest.json", roster_path,
                  STOPLIST]
        assert manifest["inputs"] == {
            str(path): hashlib.sha256(path.read_bytes()).hexdigest() for path in inputs}
        assert manifest["outputs"] == [str(errors),
                                       str(tmp_path / "sel_errors_metrics.txt")]


    def test_eval_uses_trained_window(self, tmp_path, embeddings_path, roster_path,
                                      caplog, capsys):
        train = tmp_path / "sel_train.tsv"
        train.write_text(("birds near cats sat on mats by doors\t4\ton\ton\n"
                          "dogs under tables slept on boxes in fields\t4\ton\tin\n"
                          "birds of prey fly over fields\t1\tof\tof\n"
                          "dogs sat in boxes near houses\t2\tin\ton\n") * 6)
        models = tmp_path / "sel_models"
        assert cli.run(["train-select", "--train", str(train),
                        "--embeddings", str(embeddings_path),
                        "--roster", str(roster_path), "--out", str(models),
                        "--hidden1", "4", "--hidden2", "2", "--epochs", "3",
                        "--min-leaf", "1", "--window", "1"]) == 0
        argv = ["eval-select", "--test", str(train), "--models", str(models),
                "--embeddings", str(embeddings_path)]
        assert cli.run(argv) == 0
        printed = capsys.readouterr().out.strip()
        table = load_confusion_table(models / "confusion.txt")
        trained = SelectionModels(tree=load_tree(models / "tree.txt"),
                                  fnn=load_fnn(models / "fnn.txt"), table=table)
        instances, _rejected = load_selection_dataset(train, table.roster)
        store = load_embeddings(embeddings_path)
        scores = {window: evaluate_selection(instances, trained, store,
                                             window=window)[0]
                  for window in (1, 3)}
        assert scores[1] != scores[3]
        assert printed == "P={:.4f} R={:.4f} F1={:.4f}".format(*scores[1])

        manifest = models / "manifest.json"
        recorded = json.loads(manifest.read_text())
        del recorded["config"]["window"]
        manifest.write_text(json.dumps(recorded))
        assert cli.run(argv) == 1
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1
        assert str(manifest) in errors[0] and "window" in errors[0]

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
        (1, "'corr 'error'", "line 2: expected the classes 'correct' 'error'"),
        (0, "TREE v1 3 two 8 5", "'two'"),
        (0, "TREE v1 3 2 8 -5", "min_leaf must be >= 0, got -5"),
        (2, "split 0 half 1 2", "'half'"),
        (0, "TREE v1 0 2 8 5", "at least one node"),
        (3, "leaf 0 0", "line 4: leaf counts"),
        (4, "leaf -3 1", "line 5: leaf counts"),
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
        (0, "CONFUSION v1 3 nan", "non-finite"),
        (1, "in of in", "'in' listed twice"),
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
        assert (manifest["config"]["hidden1"], manifest["config"]["hidden2"]) == (6, 3)
        assert "arch" not in manifest["config"]

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
        config = json.loads((models / "manifest.json").read_text())["config"]
        assert (config["hidden1"], config["hidden2"]) == (8, 4)
        assert "arch" not in config

        rc = cli.run(["eval-attach", "--test", str(train),
                      "--models", str(models),
                      "--embeddings", str(embeddings_path),
                      "--out", str(tmp_path / "att_errors.csv")])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("accuracy=")
        acc = float(out.strip().split("=")[1])
        assert 0.0 <= acc <= 1.0
        manifest = json.loads((tmp_path / "att_errors.csv.manifest.json").read_text())
        assert manifest["command"] == "eval-attach"
        assert manifest["config"] == {}
        inputs = [train, embeddings_path, models / "fnn.txt", models / "tags.txt",
                  models / "manifest.json"]
        assert manifest["inputs"] == {
            str(path): hashlib.sha256(path.read_bytes()).hexdigest() for path in inputs}
        assert manifest["outputs"] == [str(tmp_path / "att_errors.csv"),
                                       str(tmp_path / "att_errors_metrics.txt")]

    def test_eval_writes_a_row_per_error(self, tmp_path, embeddings_path, capsys):
        train = tmp_path / "att_train.tsv"
        write_attachment_dataset(train)
        models = tmp_path / "att_models"
        assert cli.run(["train-attach", "--train", str(train),
                        "--embeddings", str(embeddings_path), "--out", str(models),
                        "--hidden1", "4", "--hidden2", "2", "--epochs", "2"]) == 0
        # One instance with two gold heads: whatever the network learned,
        # it mispredicts at least one.
        test = tmp_path / "att_test.tsv"
        test.write_text("on\tmats\t0\tsat:VB:NN:3;cats:NN:IN:1\n"
                        "on\tmats\t1\tsat:VB:NN:3;cats:NN:IN:1\n")
        errors_csv = tmp_path / "att_errors.csv"
        assert cli.run(["eval-attach", "--test", str(test), "--models", str(models),
                        "--embeddings", str(embeddings_path),
                        "--out", str(errors_csv)]) == 0
        tagset = attach_ops.TagSet((models / "tags.txt").read_text().splitlines())
        acc, errors, _counters = attach_ops.evaluate_attachment(
            attach_ops.load_attachment_dataset(test)[0], load_fnn(models / "fnn.txt"),
            load_embeddings(embeddings_path), tagset)
        assert capsys.readouterr().out == f"accuracy={acc:.4f}\n"
        rows = read_csv(errors_csv)
        assert rows[0] == ["preposition", "child", "predicted_head", "gold_head"]
        assert len(rows) == 1 + len(errors) >= 2
        assert rows[1:] == [list(row) for row in errors]

    @pytest.mark.parametrize("lineno, text, named", [
        (0, "FNN v1 sizes 2 x 2", "'x'"),
        (1, "0.5 half", "'half'"),
        (0, "FNN v1 sizes 30", "two or more sizes"),
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
        outputs = [models / "errors.csv", models / "errors_metrics.txt",
                   models / "errors.csv.manifest.json"]
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
        ["eval-select", "--test", "s.tsv", "--models", "m",
         "--embeddings", "e.txt", "--window", "3"],
    ])
    def test_options_no_command_reads_are_rejected(self, argv, capsys):
        assert cli.run(argv) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_method_is_rejected(self, capsys):
        rc = cli.run(["decompose", "--tensor", "t", "--method", "xx", "--out", "e.txt"])
        assert rc == 2
        assert "invalid choice: 'xx'" in capsys.readouterr().err

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
        ("dim = 1_0\n", "dim"),
        ("top = \u0663\n", "top"),
        ("lr = \u0660.\u0665\n", "lr"),
        ("lr = nan\n", "lr"),
        ("xmax = inf\n", "xmax"),
        ("momentum = 1e999\n", "momentum"),
        (f"dim = {2 ** 63}\n", "dim"),
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

    def test_config_numbers_spelled_as_in_files(self, tmp_path):
        config = tmp_path / "conf.txt"
        config.write_text("seed = +3\nwindow = 007\nlr = .5\nxmax = 1E1\nalpha = -0.25\n")
        assert cli._read_config_file(config) == {
            "seed": 3, "window": 7, "lr": 0.5, "xmax": 10.0, "alpha": -0.25}

    @pytest.mark.parametrize("flag, value", [
        ("--dim", "\u0663"), ("--dim", "1_0"), ("--iters", "1_0"), ("--seed", " 3"),
        ("--lr", "nan"), ("--xmax", "inf"), ("--alpha", "\u0660.\u0665"),
        ("--lr", "1e999"), ("--dim", "9" * 20), ("--seed", str(-2 ** 63 - 1)),
    ])
    def test_numbers_outside_the_number_rule_are_rejected(self, flag, value, capsys):
        argv = ["decompose", "--tensor", "t", "--method", "als", "--out", "e.txt",
                flag, value]
        assert cli.run(argv) == 2
        err = capsys.readouterr().err
        assert f"argument {flag}" in err and repr(value) in err

    @pytest.mark.parametrize("option, value, message", [
        ("--fnn-lr", "-0.04", "learning_rate must be positive, got -0.04"),
        ("--fnn-lr", "0", "learning_rate must be positive, got 0.0"),
        ("--momentum", "-3", "momentum must be in [0, 1), got -3.0"),
        ("--momentum", "1", "momentum must be in [0, 1), got 1.0"),
    ])
    @pytest.mark.parametrize("command", ["train-select", "train-attach"])
    def test_network_settings_out_of_bounds_rejected(self, tmp_path, trained, caplog,
                                                     command, option, value, message):
        argv = _commands(trained)[command]
        argv[argv.index("--out") + 1] = str(tmp_path / "models")
        assert cli.run([*argv, option, value]) == 1
        assert _one_error(caplog) == message
        assert not (tmp_path / "models").exists()

    @pytest.mark.parametrize("command, option, value, message", [
        ("decompose", "--seed", "-1", "seed must be >= 0, got -1"),
        ("decompose-wd", "--seed", "-1", "seed must be >= 0, got -1"),
        ("train-select", "--seed", "-1", "seed must be >= 0, got -1"),
        ("train-attach", "--seed", "-1", "seed must be >= 0, got -1"),
        ("train-select", "--max-depth", "-1", "max_depth must be >= 0, got -1"),
        ("train-select", "--min-leaf", "-5", "min_leaf must be >= 0, got -5"),
    ])
    @pytest.mark.parametrize("given", ["flag", "config"])
    def test_negative_seed_and_tree_settings_rejected(self, tmp_path, trained, caplog,
                                                      command, option, value, message,
                                                      given):
        argv = _commands(trained)[command.removesuffix("-wd")]
        if argv[0] == "--config":
            argv = argv[2:]
        if command == "decompose-wd":
            argv[argv.index("--method") + 1] = "wd"
        out = tmp_path / "out"
        argv[argv.index("--out") + 1] = str(out)
        if given == "flag":
            argv += [option, value]
        else:
            config = tmp_path / "config.txt"
            config.write_text(f"{option[2:].replace('-', '_')} = {value}\n")
            argv = ["--config", str(config), *argv]
        assert cli.run(argv) == 1
        assert _one_error(caplog) == message
        assert not out.exists()

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

    @pytest.mark.parametrize("command", sorted(cli.COMMANDS))
    def test_no_option_resolves_to_none(self, command):
        """Each option a command reads has a default, and a command sets
        defaults only for options it reads."""
        options = cli.COMMANDS[command][2]
        assert set(cli.COMMAND_DEFAULTS.get(command, {})) <= set(options)
        resolved = cli._resolve(argparse.Namespace(command=command), {})
        assert list(resolved) == list(options)
        assert None not in resolved.values()

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
                             "--embeddings", str(emb), *roster],
                            sel / "errors.csv.manifest.json"),
            "train-attach": (["--train", str(att_data), "--embeddings", str(emb),
                              "--out", str(att)], att / "manifest.json"),
            "eval-attach": (["--test", str(att_data), "--models", str(att),
                             "--embeddings", str(emb)], att / "errors.csv.manifest.json"),
        }
        assert list(steps) == list(cli.COMMANDS)
        for command, (argv, manifest) in steps.items():
            assert cli.run(["--config", str(config), command, *argv]) == 0, command
            if manifest is not None:
                recorded = json.loads(manifest.read_text())["config"]
                options = cli.COMMANDS[command][2]
                assert {key: recorded[key] for key in options} == {
                    key: values[key] for key in options}


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """Every file a command reads: a tensor, embeddings, trained
    selection and attachment models and their datasets and query files."""
    d = tmp_path_factory.mktemp("trained")
    (d / "corpus.txt").write_text(CORPUS)
    (d / "roster.txt").write_text("\n".join(ROSTER) + "\n")
    (d / "config.txt").write_text("seed = 0\n")
    (d / "pairs.txt").write_text("on in\n")
    (d / "verbs.txt").write_text("slept\nsat\n")
    write_selection_dataset(d / "sel.tsv")
    write_attachment_dataset(d / "att.tsv")
    net = ["--hidden1", "4", "--hidden2", "2", "--epochs", "2"]
    for argv in (["build-tensor", "--corpus", str(d / "corpus.txt"), "--roster",
                  str(d / "roster.txt"), "--min-count", "1", "--out", str(d / "tensor")],
                 ["decompose", "--tensor", str(d / "tensor"), "--method", "wd",
                  "--dim", "6", "--iters", "10", "--out", str(d / "emb.txt")],
                 ["train-select", "--train", str(d / "sel.tsv"), "--embeddings",
                  str(d / "emb.txt"), "--roster", str(d / "roster.txt"),
                  "--out", str(d / "sel"), *net, "--min-leaf", "1"],
                 ["train-attach", "--train", str(d / "att.tsv"), "--embeddings",
                  str(d / "emb.txt"), "--out", str(d / "att"), *net]):
        assert cli.run(argv) == 0, argv[0]
    return d


def _commands(d):
    """Command lines that read every input file under ``d``."""
    roster = ["--roster", str(d / "roster.txt")]
    return {
        "build-tensor": ["build-tensor", "--corpus", str(d / "corpus.txt"), *roster,
                         "--min-count", "1", "--out", str(d / "tensor2")],
        "decompose": ["--config", str(d / "config.txt"), "decompose", "--tensor",
                      str(d / "tensor"), "--method", "als", "--dim", "2",
                      "--out", str(d / "emb2.txt")],
        "query-sim": ["query-sim", "--embeddings", str(d / "emb.txt"),
                      "--pairs", str(d / "pairs.txt"), *roster],
        "paraphrase": ["paraphrase", "--embeddings", str(d / "emb.txt"), "--head",
                       "cats", "--prep", "on", "--candidates", str(d / "verbs.txt")],
        "train-select": ["train-select", "--train", str(d / "sel.tsv"), "--embeddings",
                         str(d / "emb.txt"), *roster, "--out", str(d / "sel2"),
                         "--epochs", "1"],
        "eval-select": ["eval-select", "--test", str(d / "sel.tsv"), "--models",
                        str(d / "sel"), "--embeddings", str(d / "emb.txt")],
        "train-attach": ["train-attach", "--train", str(d / "att.tsv"), "--embeddings",
                         str(d / "emb.txt"), "--out", str(d / "att2"), "--epochs", "1"],
        "eval-attach": ["eval-attach", "--test", str(d / "att.tsv"), "--models",
                        str(d / "att"), "--embeddings", str(d / "emb.txt")],
    }


def manifest_runs(d, out):
    """(argv, manifest, files read) of one run of each command that
    writes a manifest, on the inputs under ``d``, writing under ``out``;
    each run reads only ``d`` and the outputs of the runs before it."""
    config = out / "config.txt"
    config.write_text("seed = 0\n")
    net = ["--hidden1", "4", "--hidden2", "2", "--epochs", "1"]
    emb, sel, att = d / "emb.txt", out / "sel", out / "att"
    tensor = [d / "tensor" / "vocab.txt", d / "tensor" / "tensor.txt"]
    return [
        (["build-tensor", "--corpus", str(d / "corpus.txt"), "--min-count", "1",
          "--out", str(out / "tensor")],
         out / "tensor" / "manifest.json", [d / "corpus.txt", BUNDLED_ROSTER]),
        (["--config", str(config), "decompose", "--tensor", str(d / "tensor"),
          "--method", "als", "--dim", "2", "--out", str(out / "emb.txt")],
         out / "emb.txt.manifest.json", [config, *tensor]),
        (["spectrum", "--tensor", str(d / "tensor"), "--slice", "on",
          "--out", str(out / "spec.csv")], out / "spec.csv.manifest.json", tensor),
        (["train-select", "--train", str(d / "sel.tsv"), "--embeddings", str(emb),
          "--roster", str(d / "roster.txt"), "--out", str(sel), *net, "--min-leaf", "1"],
         sel / "manifest.json", [d / "sel.tsv", emb, d / "roster.txt", STOPLIST]),
        (["eval-select", "--test", str(d / "sel.tsv"), "--models", str(sel),
          "--embeddings", str(emb)],
         sel / "errors.csv.manifest.json",
         [d / "sel.tsv", emb, STOPLIST,
          *(sel / name for name in ("manifest.json", "tree.txt", "fnn.txt",
                                    "confusion.txt"))]),
        (["train-attach", "--train", str(d / "att.tsv"), "--embeddings", str(emb),
          "--out", str(att), *net], att / "manifest.json", [d / "att.tsv", emb]),
        (["eval-attach", "--test", str(d / "att.tsv"), "--models", str(att),
          "--embeddings", str(emb)],
         att / "errors.csv.manifest.json",
         [d / "att.tsv", emb, *(att / name for name in ("manifest.json", "fnn.txt",
                                                         "tags.txt"))]),
    ]


class TestManifestInputs:
    def test_inputs_are_the_files_read(self, tmp_path, trained):
        """The bundled roster and stoplist and the config file included."""
        for argv, manifest, inputs in manifest_runs(trained, tmp_path):
            assert cli.run(argv) == 0, argv
            assert json.loads(manifest.read_text())["inputs"] == digests(*inputs), argv

    def test_a_run_records_only_its_own_reads(self, tmp_path, trained):
        config = tmp_path / "config.txt"
        config.write_text("min_count = 1\n")
        tensor = tmp_path / "tensor"
        assert cli.run(["--config", str(config), "build-tensor", "--corpus",
                        str(trained / "corpus.txt"), "--roster",
                        str(trained / "roster.txt"), "--out", str(tensor)]) == 0
        # Fails after reading another tensor directory.
        assert cli.run(["spectrum", "--tensor", str(trained / "tensor"),
                        "--slice", "nosuch", "--out", str(tmp_path / "spec.csv")]) == 1
        assert corpus_ops.OPENED_INPUTS.get() is None
        assert cli.run(["decompose", "--tensor", str(tensor), "--method", "als",
                        "--dim", "2", "--iters", "2",
                        "--out", str(tmp_path / "emb.txt")]) == 0
        manifest = json.loads((tmp_path / "emb.txt.manifest.json").read_text())
        assert manifest["inputs"] == digests(tensor / "vocab.txt", tensor / "tensor.txt")
        load_tensor(tensor / "tensor.txt")
        assert corpus_ops.OPENED_INPUTS.get() is None

    @pytest.mark.parametrize("command", ["eval-select", "eval-attach"])
    def test_each_input_hashed_once_per_run(self, tmp_path, trained, monkeypatch,
                                            command):
        """The embeddings are checked against the training manifest and
        recorded in the eval manifest from one digest; a second run hashes
        them again."""
        hashed, sha256 = [], cli._sha256

        def counted(path):
            hashed.append(str(path))
            return sha256(path)

        monkeypatch.setattr(cli, "_sha256", counted)
        argv, manifest, inputs = {
            argv[0]: (argv, manifest, inputs)
            for argv, manifest, inputs in manifest_runs(trained, tmp_path)}[command]
        models = Path(argv[argv.index("--models") + 1])
        shutil.copytree(trained / models.name, models)
        for run in (1, 2):
            assert cli.run(argv) == 0
            assert sorted(hashed) == sorted(map(str, inputs)), run
            assert json.loads(manifest.read_text())["inputs"] == digests(*inputs)
            hashed.clear()


@pytest.mark.parametrize("failing", [1, 2, 3, 4])
def test_failed_move_leaves_a_directory_evaluation_refuses(tmp_path, trained,
                                                            monkeypatch, caplog,
                                                            failing):
    """train-select over an earlier good run, with one of its four moves
    into place failing (the three model files, then the manifest): the
    old manifest is gone before the first move, so eval-select never
    accepts a mix of old and new files."""
    moves, replace = [], os.replace

    def failing_replace(src, dst):
        moves.append(Path(dst).name)
        if len(moves) == failing:
            raise OSError("disk full")
        replace(src, dst)

    d = tmp_path / "d"
    shutil.copytree(trained, d)
    commands = _commands(d)
    train = commands["train-select"]
    train[train.index("--out") + 1] = str(d / "sel")
    with monkeypatch.context() as patch:
        patch.setattr(os, "replace", failing_replace)
        assert cli.run(train) == 1
    assert _one_error(caplog) == "disk full"
    assert moves == ["tree.txt", "fnn.txt", "confusion.txt", "manifest.json"][:failing]
    assert list((d / "sel").glob("*.tmp")) == []
    caplog.clear()
    assert cli.run(commands["eval-select"]) == 1
    assert "manifest.json" in _one_error(caplog)


def _set_field(lineno, field, value, sep=" "):
    """Sets one ``sep``-separated field of line ``lineno``."""
    def spoil(lines):
        parts = lines[lineno - 1].rstrip("\n").split(sep)
        parts[field] = value
        lines[lineno - 1] = sep.join(parts) + "\n"
        return lines
    return spoil


def _one_error(caplog):
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and "\n" not in errors[0], errors
    return errors[0]


class TestInputFileErrors:
    """Every file a command reads is opened through one helper, so an
    error in parsing it is one line that starts with the file's path."""

    @pytest.mark.parametrize("command, name", [
        ("build-tensor", "corpus.txt"),
        ("build-tensor", "roster.txt"),
        ("decompose", "config.txt"),
        ("decompose", "tensor/vocab.txt"),
        ("decompose", "tensor/tensor.txt"),
        ("query-sim", "emb.txt"),
        ("query-sim", "pairs.txt"),
        ("paraphrase", "verbs.txt"),
        ("train-select", "sel.tsv"),
        ("eval-select", "sel/tree.txt"),
        ("eval-select", "sel/fnn.txt"),
        ("eval-select", "sel/confusion.txt"),
        ("eval-select", "sel/manifest.json"),
        ("train-attach", "att.tsv"),
        ("eval-attach", "att/tags.txt"),
    ])
    def test_bad_utf8_names_the_file(self, tmp_path, trained, caplog, command, name):
        d = tmp_path / "d"
        shutil.copytree(trained, d)
        path = d / name
        path.write_bytes(path.read_bytes()[:5] + b"\xff" + path.read_bytes()[5:])
        assert cli.run(_commands(d)[command]) == 1
        error = _one_error(caplog)
        assert error.startswith(f"{path}: ")
        assert "codec can't decode byte 0xff in position 5" in error or (
            error == f"{path}: input is not valid UTF-8 at byte offset 5"), error

    @pytest.mark.parametrize("text, message", [
        ('{"config": {}}', "no config.window recorded"),
        ('{"config": {"window": "3"}}', "no config.window recorded"),
        ('{"config": {"window": 2.5}}', "no config.window recorded"),
        ('{"config": {"window": true}}', "no config.window recorded"),
        ('{"config": {"window": 0}}', "config.window must be >= 1, got 0"),
        ('{"config": {"window": -2}}', "config.window must be >= 1, got -2"),
        ('["config"]', "no inputs recorded"),
        ('{"config": {"window": 3', "Expecting ',' delimiter: line 1 column 24 (char 23)"),
    ])
    def test_trained_window_read_from_manifest(self, tmp_path, trained, caplog, text,
                                               message):
        d = tmp_path / "d"
        shutil.copytree(trained, d)
        path = d / "sel" / "manifest.json"
        if text.endswith("}"):
            # The recorded inputs are kept, so the embeddings pass their
            # check and the window is read.
            inputs = json.loads(path.read_text())["inputs"]
            text = json.dumps({**json.loads(text), "inputs": inputs})
        path.write_text(text)
        assert cli.run(_commands(d)["eval-select"]) == 1
        assert _one_error(caplog) == f"{path}: {message}"

    # Files the program never writes, which it used to read by guessing.
    @pytest.mark.parametrize("command, name, spoil, lineno, message", [
        ("eval-attach", "att/fnn.txt", _set_field(2, 0, "nan"), 2,
         "non-finite value 'nan'"),
        ("eval-select", "sel/fnn.txt", _set_field(3, -1, "inf"), 3,
         "non-finite value 'inf'"),
        ("eval-select", "sel/tree.txt", _set_field(3, 2, "nan"), 3,
         "non-finite value 'nan'"),
        ("eval-select", "sel/tree.txt", _set_field(4, 1, "inf"), 4,
         "non-finite value 'inf'"),
        ("eval-select", "sel/confusion.txt", _set_field(4, 0, "-inf"), 4,
         "non-finite value '-inf'"),
        ("paraphrase", "emb.txt", _set_field(3, 1, "nan"), 3, "non-finite value 'nan'"),
        ("decompose", "tensor/vocab.txt", _set_field(3, 0, "cats", sep="\t"), 3,
         "token 'cats' listed twice"),
        ("query-sim", "emb.txt", _set_field(3, 0, "cats"), 3, "token 'cats' listed twice"),
    ])
    def test_guessed_input_rejected(self, tmp_path, trained, caplog, command, name,
                                    spoil, lineno, message):
        d = tmp_path / "d"
        shutil.copytree(trained, d)
        path = d / name
        path.write_text("".join(spoil(path.read_text().splitlines(keepends=True))))
        assert cli.run(_commands(d)[command]) == 1
        error = _one_error(caplog)
        assert error.startswith(f"{path}: line {lineno}: ") and error.endswith(message)

    @pytest.mark.parametrize("extra", ["repeated", "blank"])
    @pytest.mark.parametrize("command, name", [
        ("eval-select", "sel/tree.txt"),
        ("eval-select", "sel/fnn.txt"),
        ("eval-select", "sel/confusion.txt"),
        ("eval-attach", "att/fnn.txt"),
    ])
    def test_model_file_ends_at_its_body(self, tmp_path, trained, caplog, command,
                                         name, extra):
        d = tmp_path / "d"
        shutil.copytree(trained, d)
        path = d / name
        lines = path.read_text().splitlines(keepends=True)
        lines.append(lines[-1] if extra == "repeated" else "\n")
        path.write_text("".join(lines))
        assert cli.run(_commands(d)[command]) == 1
        assert _one_error(caplog) == (f"{path}: line {len(lines)}: "
                                      "expected the end of the file")

    @pytest.mark.parametrize("command", ["build-tensor", "train-select"])
    def test_repeated_roster_token_rejected(self, tmp_path, trained, caplog, command):
        """Both commands read a roster by one rule."""
        d = tmp_path / "d"
        shutil.copytree(trained, d)
        roster = d / "roster.txt"
        roster.write_text("in\nof\n# on\non\nof\n")
        argv = _commands(d)[command]
        assert cli.run(argv) == 1
        assert _one_error(caplog) == f"{roster}: line 5: token 'of' listed twice"
        assert not Path(argv[argv.index("--out") + 1]).exists()

    def test_repeated_tag_rejected(self, tmp_path, trained, caplog):
        d = tmp_path / "d"
        shutil.copytree(trained, d)
        path = d / "att" / "tags.txt"
        tags = path.read_text().splitlines()
        path.write_text("\n".join([tags[0], *tags]) + "\n")
        assert cli.run(_commands(d)["eval-attach"]) == 1
        assert _one_error(caplog) == f"{path}: tag {tags[0]!r} listed twice"

    # Evaluation scores each candidate by column 1 of a two-class
    # softmax: a network of 1 output has no such column, and one of 3
    # is no two-class scorer.
    @pytest.mark.parametrize("outputs", [1, 3])
    @pytest.mark.parametrize("command", ["eval-select", "eval-attach"])
    def test_network_of_other_than_two_outputs_rejected(self, tmp_path, trained,
                                                        command, outputs):
        d = tmp_path / "d"
        shutil.copytree(trained, d)
        path = d / ("sel" if command == "eval-select" else "att") / "fnn.txt"
        sizes = load_fnn(path).sizes
        save_fnn(FeedForwardNet.init([*sizes[:-1], outputs], seed=0), path)
        proc = run_main(*_commands(d)[command])
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [
            f"ERROR preptensor {path}: line 1: a network needs two or more sizes, "
            "each >= 1, ending in 2 (its two classes)"]

    # A one-class tree.txt, such as an all-error training set once made,
    # is rejected as one line naming it.
    def test_one_class_tree_rejected(self, tmp_path, trained):
        d = tmp_path / "d"
        shutil.copytree(trained, d)
        path = d / "sel" / "tree.txt"
        path.write_text("TREE v1 1 1 8 1\n'error'\nleaf 12\n")
        proc = run_main(*_commands(d)["eval-select"])
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [
            f"ERROR preptensor {path}: line 1: a tree has 2 classes, not 1"]

    @pytest.mark.parametrize("command", ["eval-select", "eval-attach"])
    def test_embeddings_of_another_dimension_rejected(self, tmp_path, trained, caplog,
                                                      command):
        d = tmp_path / "d"
        shutil.copytree(trained, d)
        assert cli.run(["decompose", "--tensor", str(d / "tensor"), "--method", "wd",
                        "--dim", "4", "--iters", "2", "--out", str(d / "emb.txt")]) == 0
        assert cli.run(_commands(d)[command]) == 1
        _assert_untrained_embeddings(_one_error(caplog), trained, d, command)

    # WD and ALS embeddings of one dimension give a network input of the
    # width it was trained on, so only their digests tell them apart.
    @pytest.mark.parametrize("command", ["eval-select", "eval-attach"])
    def test_embeddings_of_the_same_dimension_rejected(self, tmp_path, trained, caplog,
                                                       command):
        d = tmp_path / "d"
        shutil.copytree(trained, d)
        assert cli.run(["decompose", "--tensor", str(d / "tensor"), "--method", "als",
                        "--dim", "6", "--iters", "2", "--out", str(d / "emb.txt")]) == 0
        assert load_embeddings(d / "emb.txt").dim == load_embeddings(trained / "emb.txt").dim
        assert cli.run(_commands(d)[command]) == 1
        _assert_untrained_embeddings(_one_error(caplog), trained, d, command)


def _assert_untrained_embeddings(error, trained, d, command):
    """``error`` rejects ``d``'s embeddings by naming their digest and the
    inputs, with the trained embeddings' digest, the models of
    ``command`` were trained on."""
    manifest = d / ("sel" if command == "eval-select" else "att") / "manifest.json"
    inputs = json.loads(manifest.read_text())["inputs"]
    digest = hashlib.sha256((d / "emb.txt").read_bytes()).hexdigest()
    assert error == (f"{manifest}: {d / 'emb.txt'} (sha256 {digest}) is not among the "
                     f"inputs the models were trained on: {inputs}")
    trained_digest = hashlib.sha256((trained / "emb.txt").read_bytes()).hexdigest()
    assert trained_digest in inputs.values() and digest != trained_digest
