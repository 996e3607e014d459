from dataclasses import replace

import numpy as np
import pytest

from preptensor.attach import (
    AttachmentInstance,
    Candidate,
    TagSet,
    UNK_TAG,
    attachment_features,
    build_tagset,
    evaluate_attachment,
    load_attachment_dataset,
    train_attachment_model,
)
from conftest import make_store
from preptensor.learn import FeedForwardNet, FnnHyper

VECTORS = {
    "ate": [1.0, 0.2, 0.0],
    "pizza": [0.1, 1.0, 0.0],
    "fork": [0.9, 0.3, 0.2],
    "with": [0.5, 0.5, 0.5],
}


@pytest.fixture
def store():
    return make_store(VECTORS)


def cand(token, pos="NN", nxt="IN", dist=1):
    return Candidate(token, pos, nxt, dist)


def make_instance(tokens_dists, prep="with", child="fork", gold=0):
    cands = [cand(tok, dist=d) for tok, d in tokens_dists]
    return AttachmentInstance(cands, prep, child, gold)


class TestDatasetIO:
    def test_round_trip(self, tmp_path):
        data = [
            AttachmentInstance([cand("ate", "VB", "NN", 3), cand("pizza", "NN", "IN", 1)],
                               "with", "fork", 0),
            AttachmentInstance([cand("ran", "VB", "IN", 2)], "to", "store", 0),
        ]
        path = tmp_path / "att.tsv"
        path.write_text("with\tfork\t0\tate:VB:NN:3;pizza:NN:IN:1\n"
                        "to\tstore\t0\tran:VB:IN:2\n")
        assert load_attachment_dataset(path) == (data, 0)

    def test_rejects_bad_records(self, tmp_path, caplog):
        path = tmp_path / "att.tsv"
        path.write_text(
            "with\tfork\t0\tate:VB:NN:3;pizza:NN:IN:1\n"  # good
            "with\tfork\t0\n"                             # 3 fields
            "with\tfork\t5\tate:VB:NN:3\n"                # gold out of range
            "with\tfork\t0\tate:VB:NN\n"                  # bad candidate spec
            "with\tfork\t0\tate:VB:NN:0\n"                # distance < 1
            "with\tfork\t0\tate:VB:NN:x\n"                # non-integer distance
        )
        with caplog.at_level("WARNING"):
            loaded, rejected = load_attachment_dataset(path)
        assert (len(loaded), rejected) == (1, 5)
        assert "5 line(s) rejected" in caplog.text

    def test_rejects_non_ascii_integer_fields(self, tmp_path, caplog):
        # int() reads each of these as a gold index or distance in range.
        path = tmp_path / "att.tsv"
        path.write_text("with\tfork\t1\tate:VB:NN:3;pizza:NN:IN:1_0\n"
                        "with\tfork\t\u0661\tate:VB:NN:3;pizza:NN:IN:1\n"
                        "with\tfork\t\uff11\tate:VB:NN:3;pizza:NN:IN:1\n"
                        "with\tfork\t0\tate:VB:NN:\u0663\n"
                        "with\tfork\t+1\tate:VB:NN:3;pizza:NN:IN:10\n")
        with caplog.at_level("WARNING"):
            loaded, _rejected = load_attachment_dataset(path)
        assert [(inst.gold_index, inst.candidates[1].distance) for inst in loaded] == [
            (1, 10)]
        rejected = [r.getMessage() for r in caplog.records]
        assert len(rejected) == 5 and "4 line(s) rejected" in rejected[-1]
        assert "line 1 rejected: non-integer distance '1_0'" in rejected[0]
        assert "non-integer gold_index '\u0661'" in rejected[1]

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "att.tsv"
        path.write_text("\nwith\tfork\t0\tate:VB:NN:3\n\n")
        loaded, rejected = load_attachment_dataset(path)
        assert (len(loaded), rejected) == (1, 0)


class TestTagSet:
    def test_build_collects_both_tag_kinds(self):
        data = [AttachmentInstance([cand("a", "VB", "NN", 1),
                                    cand("b", "JJ", "IN", 2)], "with", "c", 0)]
        tagset = build_tagset(data)
        assert set(tagset.tags) == {"VB", "NN", "JJ", "IN", UNK_TAG}

    def tag_columns(self, tagset, pos, nxt):
        store = make_store(VECTORS)
        instance = AttachmentInstance([cand("ate", pos, nxt)], "with", "fork", 0)
        feats = attachment_features([instance], store, tagset)[0]
        return feats[3 * store.dim + 3:-1].tolist()

    def test_one_hot_known(self):
        tagset = TagSet(["NN", "VB"])
        assert self.tag_columns(tagset, "VB", "NN") == [0.0, 1.0, 0.0, 1.0, 0.0, 0.0]

    def test_one_hot_unknown_maps_to_unk(self):
        tagset = TagSet(["NN"])
        assert self.tag_columns(tagset, "XX", "NN") == [0.0, 1.0, 1.0, 0.0]

    def test_unk_not_duplicated(self):
        tagset = TagSet(["NN", UNK_TAG])
        assert tagset.tags.count(UNK_TAG) == 1

    @pytest.mark.parametrize("tags, tag", [
        (["NN", "NN", UNK_TAG], "NN"),
        (["NN", "VB", UNK_TAG, "VB"], "VB"),
        (["NN", UNK_TAG, UNK_TAG], UNK_TAG),
    ])
    def test_repeated_tag_rejected(self, tags, tag):
        # Each tag owns one slot of the one-hot vector.
        with pytest.raises(ValueError) as exc:
            TagSet(tags)
        assert str(exc.value) == f"tag {tag!r} listed twice"


class TestFeatures:
    def test_arity(self, store):
        tagset = TagSet(["NN", "VB", "IN"])
        instance = make_instance([("ate", 3), ("pizza", 1)])
        feats = attachment_features([instance], store, tagset)[0]
        assert feats.shape == (3 * store.dim + 3 + 2 * len(tagset.tags) + 1,)

    def test_layout_and_distance_scaling(self, store):
        tagset = TagSet(["NN", "IN"])
        instance = make_instance([("ate", 3)])
        feats = attachment_features([instance], store, tagset)[0]
        d = store.dim
        assert np.array_equal(feats[:d], VECTORS["ate"])
        assert np.array_equal(feats[d:2 * d], VECTORS["with"])
        assert np.array_equal(feats[2 * d:3 * d], VECTORS["fork"])
        assert feats[-1] == pytest.approx(0.3)

    def test_distance_caps_at_one(self, store):
        tagset = TagSet(["NN", "IN"])
        instance = make_instance([("ate", 25)])
        feats = attachment_features([instance], store, tagset)[0]
        assert feats[-1] == 1.0

    def test_oov_head_zeroes_similarities(self, store):
        tagset = TagSet(["NN", "IN"])
        instance = make_instance([("zzz", 2)])
        feats = attachment_features([instance], store, tagset)[0]
        d = store.dim
        assert np.array_equal(feats[:d], np.zeros(d))
        assert np.array_equal(feats[3 * d:3 * d + 3], np.zeros(3))

    def test_cosine_hand_value(self, store):
        tagset = TagSet(["NN", "IN"])
        store2 = make_store({"h": [1.0, 0.0], "with": [1.0, 1.0], "c": [0.0, 1.0]})
        instance = AttachmentInstance([cand("h")], "with", "c", 0)
        feats = attachment_features([instance], store2, tagset)[0]
        d = store2.dim
        assert feats[3 * d + 1] == pytest.approx(1 / np.sqrt(2), abs=1e-12)
        assert feats[3 * d + 2] == pytest.approx(0.0, abs=1e-12)


class TestPredictHead:
    """The head ``evaluate_attachment`` predicts for one instance."""

    def tagset(self):
        return TagSet(["NN", "IN"])

    def zero_net(self, store, tagset):
        d = 3 * store.dim + 3 + 2 * len(tagset.tags) + 1
        return FeedForwardNet(sizes=[d, 2, 2, 2],
                              weights=[np.zeros((d, 2)), np.zeros((2, 2)),
                                       np.zeros((2, 2))],
                              biases=[np.zeros(2), np.zeros(2), np.zeros(2)])

    def predict(self, instance, net, store, tagset):
        """The index of the candidate ``evaluate_attachment`` predicts:
        the one gold index it gets right."""
        right = [g for g in range(len(instance.candidates))
                 if evaluate_attachment([replace(instance, gold_index=g)], net,
                                        store, tagset)[0] == 1.0]
        assert len(right) == 1
        return right[0]

    def test_single_candidate(self, store):
        tagset = self.tagset()
        net = self.zero_net(store, tagset)
        instance = make_instance([("ate", 3)])
        assert self.predict(instance, net, store, tagset) == 0

    def test_tie_breaks_by_distance_then_index(self, store):
        tagset = self.tagset()
        net = self.zero_net(store, tagset)
        instance = make_instance([("ate", 3), ("pizza", 1), ("fork", 1)])
        # Uniform scores: nearest wins, then the lower index of the two at 1.
        _acc, errors, _counters = evaluate_attachment([instance], net, store, tagset)
        assert errors == [("with", "fork", "pizza", "ate")]

    def test_candidate_permutation_equivariance(self, store):
        tagset = TagSet(["NN", "VB", "IN"])
        rng = np.random.default_rng(0)
        d = 3 * store.dim + 3 + 2 * len(tagset.tags) + 1
        net = FeedForwardNet.init([d, 8, 4, 2], seed=1)
        cands = [Candidate("ate", "VB", "NN", 3),
                 Candidate("pizza", "NN", "IN", 1),
                 Candidate("fork", "NN", "IN", 5)]
        base = AttachmentInstance(list(cands), "with", "fork", 0)
        pred = self.predict(base, net, store, tagset)
        for _ in range(10):
            perm = rng.permutation(3)
            shuffled = AttachmentInstance([cands[p] for p in perm], "with",
                                          "fork", 0)
            pred_shuffled = self.predict(shuffled, net, store, tagset)
            assert shuffled.candidates[pred_shuffled] == cands[pred]


class TestTrainAndEvaluate:
    def make_dataset(self, n=15):
        # Verbs attach "with fork"; nouns attach "with cheese" -- fully
        # separable by the head embedding.
        data = []
        for _ in range(n):
            data.append(AttachmentInstance(
                [cand("ate", "VB", "NN", 3), cand("pizza", "NN", "IN", 1)],
                "with", "fork", 0))
            data.append(AttachmentInstance(
                [cand("ate", "VB", "NN", 3), cand("pizza", "NN", "IN", 1)],
                "with", "pizza", 1))
        return data

    @pytest.fixture
    def rich_store(self):
        return make_store({
            "ate": [1.0, 0.0, 0.0],
            "pizza": [0.0, 1.0, 0.0],
            "fork": [0.9, 0.1, 0.1],
            "cheese": [0.1, 0.9, 0.1],
            "with": [0.5, 0.5, 0.5],
        })

    def test_learns_separable_attachments(self, rich_store):
        data = self.make_dataset()
        fnn, tagset = train_attachment_model(
            data, rich_store, arch=(16, 8),
            hyper=FnnHyper(epochs=200, seed=0, val_fraction=0.0))
        acc, errors, _counters = evaluate_attachment(data, fnn, rich_store, tagset)
        assert acc == 1.0
        assert errors == []

    def test_error_log_written(self, rich_store):
        # The rows eval-attach writes to its errors CSV (checked there).
        data = self.make_dataset(n=2)
        tagset = build_tagset(data)
        d = 3 * rich_store.dim + 3 + 2 * len(tagset.tags) + 1
        net = FeedForwardNet(sizes=[d, 2, 2, 2],
                             weights=[np.zeros((d, 2)), np.zeros((2, 2)),
                                      np.zeros((2, 2))],
                             biases=[np.zeros(2), np.zeros(2), np.zeros(2)])
        acc, errors, counters = evaluate_attachment(data, net, rich_store, tagset)
        # The zero net always picks the nearest candidate (index 1).
        assert acc == 0.5
        assert errors == [("with", "fork", "pizza", "ate")] * 2
        assert counters == {"instances": 4, "candidates": 8}

    def test_empty_train_rejected(self, rich_store):
        with pytest.raises(ValueError, match="no training"):
            train_attachment_model([], rich_store, FnnHyper(), (16, 8))

    def test_empty_eval_rejected(self, rich_store):
        tagset = TagSet(["NN"])
        net = FeedForwardNet.init([4, 2, 2, 2], seed=0)
        with pytest.raises(ValueError, match="empty"):
            evaluate_attachment([], net, rich_store, tagset)
